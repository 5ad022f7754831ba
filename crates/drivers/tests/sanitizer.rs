//! End-to-end proof that the runtime sanitizer fires and that its counters
//! belong to the run that made them: inject corruption at each guarded
//! accumulator boundary and watch the violation counters move, run clean
//! drivers and assert checks ran with zero violations, and show that
//! concurrent or back-to-back runs never see each other's counts.
//!
//! The counters live in the calling thread's profile and are drained with
//! it, so every test here reads its own thread's counts: the harness runs
//! tests on separate threads, and no test needs a lock.

use qmc_containers::{Real, TinyVector};
use qmc_drivers::{
    initial_population, run_dmc, run_vmc, BranchController, DmcParams, HamiltonianSet, QmcEngine,
    RunControl, VmcParams, Walker,
};
use qmc_instrument::{drain_thread_profile, set_drift_tolerance, CheckKind, SanitizerStats};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DiracDeterminant, TrialWaveFunction};

const L: f64 = 6.0;

/// `n` spread electron positions in the `L`-cube.
fn positions(n: usize) -> Vec<qmc_containers::Pos<f64>> {
    (0..n)
        .map(|i| {
            let x = (0.5 + i as f64 * 0.7) % L;
            TinyVector([x, (x * 1.3) % L, (x * 2.1) % L])
        })
        .collect()
}

fn particles<T: Real>(n: usize) -> ParticleSet<T> {
    let mut pset = ParticleSet::new(
        "e",
        CrystalLattice::cubic(L),
        vec![(
            Species {
                name: "u".into(),
                charge: -1.0,
            },
            positions(n),
        )],
    );
    pset.add_table_aa(Layout::Soa);
    pset
}

/// A tiny free-particle engine: flat (componentless) wavefunction,
/// kinetic-only Hamiltonian. Enough to drive real sweeps and
/// measurements through the sanitized boundaries.
fn engine_and_walkers(n: usize, nw: usize) -> (QmcEngine<f64>, Vec<Walker<f64>>) {
    let engine = QmcEngine::new(
        particles(n),
        TrialWaveFunction::new(),
        HamiltonianSet::kinetic_only(),
    );
    (engine, initial_population(&positions(n), nw, 42))
}

/// An engine whose `log ψ` is a Slater determinant of cosine orbitals, so
/// a from-scratch refresh measures a nonzero drift in `T`.
fn determinant_engine<T: Real>(n: usize) -> QmcEngine<T> {
    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(CosineSpo::<T>::new(n, [L, L, L])),
        0,
        n,
    )));
    QmcEngine::new(particles(n), psi, HamiltonianSet::kinetic_only())
}

/// A serial VMC run on a fresh free-particle engine: its sanitizer counts.
fn vmc_checks() -> SanitizerStats {
    let (mut engine, mut walkers) = engine_and_walkers(4, 3);
    let params = VmcParams {
        blocks: 2,
        steps_per_block: 5,
        tau: 0.3,
        measure_every: 1,
        batching: qmc_drivers::Batching::PerWalker,
    };
    let crew = std::slice::from_mut(&mut engine);
    let (res, profile) = run_vmc(crew, &mut walkers, &params, None, &mut RunControl::none())
        .expect("no checkpoint to write");
    assert!(res.samples > 0);
    profile.total.sanitizer
}

#[test]
fn corrupted_local_energy_fires_branch_weight_check() {
    drain_thread_profile();
    let branch = BranchController::new(8, -1.0, 0.01, 7);
    // A NaN local energy survives the exponent clamp and must be caught
    // at the branch-weight boundary.
    let factor = branch.weight_factor(f64::NAN, -1.2);
    assert!(factor.is_nan());
    let stats = drain_thread_profile().sanitizer;
    assert_eq!(stats.violations[CheckKind::BranchWeight as usize], 1);
    assert_eq!(stats.checks_run[CheckKind::BranchWeight as usize], 1);
}

#[test]
fn corrupted_energy_estimate_fires_trial_energy_check() {
    drain_thread_profile();
    let mut branch = BranchController::new(8, -1.0, 0.01, 7);
    branch.update_trial_energy(f64::INFINITY, 8);
    let stats = drain_thread_profile().sanitizer;
    assert_eq!(stats.violations[CheckKind::TrialEnergy as usize], 1);
}

#[test]
fn drift_bound_fires_on_injected_drift() {
    drain_thread_profile();
    // The bound is this thread's alone: no other test sees it.
    set_drift_tolerance(1e-6);
    // Simulate a from-scratch recompute whose |Δ log ψ| blew past the
    // bound — exactly what a broken mixed-precision kernel produces.
    qmc_instrument::record_refresh_drift(0.5);
    qmc_instrument::record_refresh_drift(1e-9);
    set_drift_tolerance(f64::INFINITY);
    let profile = drain_thread_profile();
    let stats = profile.sanitizer;
    assert_eq!(stats.checks_run[CheckKind::Drift as usize], 2);
    assert_eq!(stats.violations[CheckKind::Drift as usize], 1);
    assert_eq!(profile.drift.refreshes, 2);
    assert_eq!(profile.drift.max_abs, 0.5);
}

#[test]
fn clean_vmc_run_checks_without_violations() {
    let stats = vmc_checks();
    assert!(
        stats.checks_run[CheckKind::LocalEnergy as usize] > 0,
        "local-energy boundary was never checked: {stats:?}"
    );
    assert!(
        stats.checks_run[CheckKind::LogPsi as usize] > 0,
        "log-psi boundary was never checked: {stats:?}"
    );
    assert_eq!(
        stats.total_violations(),
        0,
        "clean run must not violate: {stats:?}"
    );
}

#[test]
fn corrupted_walker_energy_is_caught_by_the_dmc_loop() {
    let (mut engine, mut walkers) = engine_and_walkers(4, 3);
    for w in &mut walkers {
        engine.init_walker(w);
    }
    drain_thread_profile();
    // Inject corruption the way a broken kernel would surface it: a
    // walker's cached local energy goes NaN between generations.
    walkers[0].e_local = f64::NAN;
    let branch = BranchController::new(3, -0.5, 0.01, 3);
    for w in &walkers {
        branch.weight_factor(w.e_local, -0.5);
    }
    let stats = drain_thread_profile().sanitizer;
    assert_eq!(
        stats.violations[CheckKind::BranchWeight as usize],
        1,
        "exactly the corrupted walker must trip the check: {stats:?}"
    );
    assert_eq!(stats.checks_run[CheckKind::BranchWeight as usize], 3);
}

/// Two runs on two threads at once each report exactly the checks the
/// same run reports alone: process-global counters would hand each the
/// other's too.
#[test]
fn concurrent_runs_count_only_their_own_checks() {
    let alone = vmc_checks();
    assert!(alone.total_checks() > 0);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(vmc_checks);
        let b = s.spawn(vmc_checks);
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    assert_eq!(a, alone);
    assert_eq!(b, alone);
}

/// Back-to-back runs on one thread report equal counts: nothing one run
/// counted is left behind for the next.
#[test]
fn back_to_back_runs_leak_no_counts() {
    let first = vmc_checks();
    let second = vmc_checks();
    assert!(first.total_checks() > 0);
    assert_eq!(first, second);
    assert_eq!(drain_thread_profile().sanitizer, SanitizerStats::default());
}

/// The drift counters are summed per thread and merged in crew order, so
/// a two-thread DMC run repeats its `mp_drift` bit for bit (a shared
/// float accumulator would add in whichever order the threads won).
#[test]
fn two_thread_dmc_drift_repeats_bitwise() {
    let n = 6;
    let run = || {
        let mut crew: Vec<QmcEngine<f32>> = (0..2).map(|_| determinant_engine(n)).collect();
        let mut walkers = initial_population::<f32>(&positions(n), 8, 11);
        let params = DmcParams {
            steps: 12,
            warmup: 2,
            tau: 0.02,
            target_population: 8,
            recompute_every: 2,
            seed: 5,
            ..Default::default()
        };
        let (_, profile) = run_dmc(
            &mut crew,
            &mut walkers,
            &params,
            None,
            &mut RunControl::none(),
        )
        .expect("no checkpoint to write");
        (profile.total.drift, profile.total.sanitizer)
    };
    let (drift, checks) = run();
    assert!(drift.refreshes > 0 && drift.sum_abs > 0.0, "{drift:?}");
    assert_eq!(checks.total_violations(), 0, "{checks:?}");
    let (again, checks_again) = run();
    assert_eq!(drift.refreshes, again.refreshes);
    assert_eq!(drift.sum_abs.to_bits(), again.sum_abs.to_bits());
    assert_eq!(drift.max_abs.to_bits(), again.max_abs.to_bits());
    assert_eq!(checks, checks_again);
}
