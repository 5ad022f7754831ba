//! Schedule-independence parity tests: the drivers' claim — results
//! bitwise independent of the thread schedule, on every kind of crew —
//! checked under ≥ 8 explicitly enumerated interleavings per case.

use parking_lot::Mutex;
use qmc_drivers::DriverKind;
use qmcsched::{explore_schedules, CrewKind, HarnessConfig};
use rayon::schedule::{with_schedule, Order, Schedule};

fn assert_parity(parity: &qmcsched::DriverParity) {
    assert!(
        parity.runs.len() >= 8,
        "{}: only {} schedules explored",
        parity.driver,
        parity.runs.len()
    );
    let reference = &parity.runs[0];
    assert!(
        !reference.walkers.is_empty(),
        "{}: no walkers",
        parity.driver
    );
    for run in &parity.runs[1..] {
        assert_eq!(
            reference.walkers, run.walkers,
            "{}: per-walker digests differ between `{}` and `{}`",
            parity.driver, reference.schedule, run.schedule
        );
        assert_eq!(
            reference.scalars, run.scalars,
            "{}: scalar outputs differ between `{}` and `{}`",
            parity.driver, reference.schedule, run.schedule
        );
    }
    assert!(parity.parity());
}

/// Every method on every crew kind, through the one driver entry point.
#[test]
fn every_method_and_crew_kind_is_schedule_independent() {
    for driver in [DriverKind::Vmc, DriverKind::Dmc] {
        for crew in CrewKind::ALL {
            assert_parity(&explore_schedules(driver, crew, &HarnessConfig::default()));
        }
    }
}

#[test]
fn ragged_and_single_thread_shapes_hold_parity_too() {
    for (threads, walkers) in [(1usize, 5usize), (3, 7), (5, 3)] {
        let cfg = HarnessConfig {
            threads,
            walkers,
            steps: 3,
            seed: 7,
        };
        assert_parity(&explore_schedules(DriverKind::Dmc, CrewKind::Crowds, &cfg));
    }
}

/// Seeded-bug check: a reduction folded in task *completion* order (the
/// classic crowd/walker concurrency bug the drivers avoid by reducing in
/// walker order after the join) must NOT survive the explored schedules.
/// This proves the harness genuinely varies the interleaving: if every
/// schedule produced the same completion order, the buggy reduction would
/// look parity-clean.
#[test]
fn order_dependent_reduction_is_caught() {
    // Values chosen so floating-point addition is order-sensitive.
    let values = [1.0e16, 1.0, -1.0e16, 3.0, 1.0e-3, 7.0e8];
    let mut sums = Vec::new();
    for sched in qmcsched::schedules() {
        if matches!(sched, Schedule::Concurrent | Schedule::Staggered(_)) {
            continue; // only the serialized orders are reproducible
        }
        let sum = with_schedule(sched, || {
            let acc = Mutex::new(0.0f64);
            rayon::scope(|s| {
                for &v in &values {
                    let acc = &acc;
                    s.spawn(move || {
                        // Buggy pattern: fold into the shared accumulator
                        // at task completion time.
                        let mut a = acc.lock();
                        *a += v;
                    });
                }
            });
            acc.into_inner()
        });
        sums.push(sum.to_bits());
    }
    sums.sort_unstable();
    sums.dedup();
    assert!(
        sums.len() > 1,
        "schedule permutations did not change a completion-order reduction — \
         the harness is not actually varying the interleaving"
    );
}

/// The schedules really impose their serialized orders on scope tasks.
#[test]
fn serialized_schedules_impose_their_order() {
    let n = 6usize;
    let mut orders = Vec::new();
    for order in [
        Order::Forward,
        Order::Reverse,
        Order::Rotate(1),
        Order::Rotate(3),
        Order::EvenOdd,
        Order::Shuffle(0xA5A5),
        Order::Shuffle(0x0FF1CE),
    ] {
        let log = Mutex::new(Vec::new());
        with_schedule(Schedule::Serial(order), || {
            rayon::scope(|s| {
                for i in 0..n {
                    let log = &log;
                    s.spawn(move || log.lock().push(i));
                }
            });
        });
        let observed = log.into_inner();
        assert_eq!(observed, order.permutation(n), "{order:?}");
        orders.push(observed);
    }
    let total = orders.len();
    orders.sort();
    orders.dedup();
    assert_eq!(orders.len(), total, "serial schedules must be distinct");
}
