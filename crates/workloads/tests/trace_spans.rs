//! Trace spans are per-run thread state: a run's spans land in the buffer
//! of the thread that coordinates it, in crew order (each worker's spans
//! in task order, then the driver's step span) whatever the thread
//! schedule, and a run on a thread that never turned tracing on records
//! nothing anywhere.

use std::collections::BTreeMap;
use std::sync::Barrier;

use qmc_drivers::{Batching, DriverKind};
use qmc_instrument::{enable_tracing, take_trace_events, BlockEvent};
use qmc_workloads::{
    run_benchmark_controlled, run_dmc_benchmark, BenchControl, Benchmark, CodeVersion, RunConfig,
    Size, Workload,
};

/// A short 2-thread DMC in crowds of 2: two crowds of two blocks each.
fn cfg() -> RunConfig {
    RunConfig {
        threads: 2,
        walkers: 8,
        steps: 3,
        warmup: 1,
        seed: 5,
        batching: Batching::Crowd(2),
        ..RunConfig::default()
    }
}

fn workload() -> Workload {
    Workload::new(Benchmark::Graphite, Size::Scaled, cfg().seed)
}

/// Runs the short DMC traced from the calling thread and returns its
/// spans as `(name, lane)`, in buffer order.
fn traced_run(w: &Workload) -> Vec<(String, u64)> {
    take_trace_events();
    enable_tracing(true);
    run_dmc_benchmark(w, CodeVersion::Current, &cfg());
    enable_tracing(false);
    take_trace_events()
        .into_iter()
        .map(|e| (e.name.into_owned(), e.lane))
        .collect()
}

fn counts(spans: &[(String, u64)]) -> BTreeMap<&(String, u64), usize> {
    let mut c = BTreeMap::new();
    for s in spans {
        *c.entry(s).or_default() += 1;
    }
    c
}

#[test]
fn a_run_on_an_untraced_thread_records_nothing_in_a_traced_one() {
    let w = workload();
    take_trace_events();
    enable_tracing(true);
    std::thread::scope(|s| {
        s.spawn(|| run_dmc_benchmark(&w, CodeVersion::Current, &cfg()))
            .join()
            .expect("the untraced run completes");
    });
    enable_tracing(false);
    let leaked = take_trace_events();
    assert!(
        leaked.is_empty(),
        "{} spans of a run on another thread landed here",
        leaked.len()
    );
}

#[test]
fn a_traced_run_lists_its_spans_in_crew_order() {
    let w = workload();
    let first = traced_run(&w);
    assert_eq!(
        first,
        traced_run(&w),
        "the same run listed its spans differently"
    );
    // The walker initialisation fans out first, then each generation's
    // crowd spans come lane by lane (each crowd's blocks before its
    // generation span), closed by the step span on lane 2.
    let (init, generations_and_steps) = first.split_at(2);
    assert_eq!(init, [("init".to_string(), 0), ("init".to_string(), 1)]);
    let mut generations = 0;
    for segment in generations_and_steps.split(|(name, _)| name.starts_with("step ")) {
        assert!(
            segment.windows(2).all(|p| p[0].1 <= p[1].1),
            "crowd spans out of crew order: {segment:?}"
        );
        let lane_ends = segment.windows(2).filter(|p| p[0].1 != p[1].1);
        assert!(
            lane_ends
                .map(|p| &p[0])
                .chain(segment.last())
                .all(|(n, _)| n == "crowd generation"),
            "a crowd's blocks after its generation span: {segment:?}"
        );
        for (name, lane) in segment {
            assert!(*lane < 2, "{name} on the driver lane");
            generations += usize::from(name == "crowd generation");
        }
    }
    assert_eq!(
        generations,
        2 * cfg().steps,
        "one generation span per crowd and step"
    );
    let steps = first.iter().filter(|(n, _)| n.starts_with("step ")).count();
    assert_eq!(steps, cfg().steps);
}

#[test]
fn concurrent_traced_runs_each_get_exactly_their_own_spans() {
    let w = workload();
    let alone = traced_run(&w);
    let start = Barrier::new(2);
    let run = || {
        start.wait();
        traced_run(&w)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(run);
        let b = s.spawn(run);
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    assert_eq!(counts(&a), counts(&alone), "run a");
    assert_eq!(counts(&b), counts(&alone), "run b");
}

/// Each driver closes its step (DMC) or block (VMC) span before the
/// per-step hook runs, so the spans an `on_block` observer drains at the
/// event for step `s` include that of step `s - 1`, not only the next
/// event's.
#[test]
fn the_hook_for_a_step_drains_that_steps_span() {
    let w = workload();
    // Three DMC generations; one VMC block of four sweeps.
    for (driver, prefix, steps) in [
        (DriverKind::Dmc, "step", 3),
        (DriverKind::Vmc, "vmc block", 4),
    ] {
        let mut drained = Vec::new();
        let mut on_block = |ev: &BlockEvent| {
            let names: Vec<String> = take_trace_events()
                .into_iter()
                .map(|e| e.name.into_owned())
                .collect();
            drained.push((ev.step, names));
        };
        take_trace_events();
        enable_tracing(true);
        let ctl = BenchControl {
            on_block: Some(&mut on_block),
            ..BenchControl::default()
        };
        let cfg = RunConfig { steps, ..cfg() };
        run_benchmark_controlled(&w, CodeVersion::Current, &cfg, driver, ctl)
            .expect("an uncheckpointed run");
        enable_tracing(false);
        take_trace_events();
        assert!(!drained.is_empty(), "{driver:?}: no block events");
        for (step, names) in &drained {
            let own = format!("{prefix} {}", step - 1);
            assert!(
                names.contains(&own),
                "{driver:?}: the event for step {step} drained {names:?}, not '{own}'"
            );
        }
    }
}
