//! Determinism and schedule-independence: per-walker RNG streams make
//! trajectories reproducible regardless of seed reuse or thread count.

use qmc::drivers::DriverKind;
use qmc::prelude::*;
use qmc::workloads::{run_benchmark_controlled, BenchControl};
use std::sync::RwLock;

/// `qmc::kernels::set_backend` is process-wide and cargo runs the tests of
/// one binary on parallel threads: every test that builds engines holds
/// this lock, the one that switches the backend holds it exclusively.
static BACKEND: RwLock<()> = RwLock::new(());

fn cfg(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        walkers: 4,
        steps: 5,
        warmup: 1,
        tau: 0.003,
        seed: 99,
        ..Default::default()
    }
}

#[test]
fn identical_seeds_give_identical_energies() {
    let _backend = BACKEND.read().unwrap();
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 99);
    let a = run_dmc_benchmark(&w, CodeVersion::Current, &cfg(1));
    let b = run_dmc_benchmark(&w, CodeVersion::Current, &cfg(1));
    assert_eq!(a.energy.0, b.energy.0, "single-thread runs must be bitwise");
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.final_population, b.final_population);
}

#[test]
fn thread_count_does_not_change_the_markov_chains() {
    let _backend = BACKEND.read().unwrap();
    // Walkers carry their own RNG streams, branching is serialized, and
    // the energy reduction runs in walker order after the parallel
    // section — so results are bitwise identical across crew sizes.
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 99);
    let a = run_dmc_benchmark(&w, CodeVersion::Current, &cfg(1));
    let b = run_dmc_benchmark(&w, CodeVersion::Current, &cfg(3));
    assert_eq!(
        a.energy.0, b.energy.0,
        "1 thread vs 3 threads must be bitwise"
    );
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.final_population, b.final_population);
}

#[test]
fn crowd_batching_does_not_change_the_markov_chains() {
    let _backend = BACKEND.read().unwrap();
    // The crowd drive executes the same per-walker floating-point op
    // sequence in lock-step batches, so VMC/DMC scalars are bitwise
    // identical to the per-walker drive for every crowd size.
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 99);
    let reference = run_dmc_benchmark(&w, CodeVersion::Current, &cfg(1));
    for crowd in [1usize, 4, 32] {
        let mut c = cfg(1);
        c.batching = Batching::Crowd(crowd);
        let out = run_dmc_benchmark(&w, CodeVersion::Current, &c);
        assert_eq!(
            reference.energy.0, out.energy.0,
            "per-walker vs crowd({crowd}) energy must be bitwise"
        );
        assert_eq!(reference.energy.1, out.energy.1, "crowd({crowd}) error");
        assert_eq!(reference.samples, out.samples, "crowd({crowd}) samples");
        assert_eq!(
            reference.final_population, out.final_population,
            "crowd({crowd}) population"
        );
    }
}

#[test]
fn crowd_batching_is_thread_invariant_too() {
    let _backend = BACKEND.read().unwrap();
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 99);
    let mut c1 = cfg(1);
    c1.batching = Batching::Crowd(4);
    let mut c4 = cfg(4);
    c4.batching = Batching::Crowd(4);
    let a = run_dmc_benchmark(&w, CodeVersion::Current, &c1);
    let b = run_dmc_benchmark(&w, CodeVersion::Current, &c4);
    assert_eq!(a.energy.0, b.energy.0, "crowd(4): 1 vs 4 threads");
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.final_population, b.final_population);
}

#[test]
fn different_seeds_decorrelate() {
    let _backend = BACKEND.read().unwrap();
    let w1 = Workload::new(Benchmark::Graphite, Size::Scaled, 1);
    let w2 = Workload::new(Benchmark::Graphite, Size::Scaled, 1);
    let mut c1 = cfg(1);
    c1.seed = 1;
    let mut c2 = cfg(1);
    c2.seed = 2;
    let a = run_dmc_benchmark(&w1, CodeVersion::Current, &c1);
    let b = run_dmc_benchmark(&w2, CodeVersion::Current, &c2);
    assert_ne!(a.energy.0, b.energy.0);
}

/// Population digests and energies recorded on the parent commit of the
/// PR that blocked the determinant-path reductions (`dots`, row-blocked
/// Sherman–Morrison, row-wise LU inverse), before any edit: "bit-identical
/// to the parent" as a test. A change that is *meant* to move bits
/// re-records these and says so; any other failure here is a regression.
#[test]
fn recorded_population_digests_hold() {
    let _backend = BACKEND.write().unwrap();
    let saved = Backend::current();
    let mut c = cfg(2);
    // Long enough for the f32 determinants to hit their in-sweep recompute.
    c.steps = 12;

    qmc::kernels::set_backend(Backend::Simd);
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 99);
    let dmc = run_dmc_benchmark(&w, CodeVersion::Current, &c);

    qmc::kernels::set_backend(Backend::Soa);
    let w = Workload::new(Benchmark::Be64, Size::Scaled, 99);
    let vmc = run_benchmark_controlled(
        &w,
        CodeVersion::Current,
        &c,
        DriverKind::Vmc,
        BenchControl::default(),
    )
    .expect("an uncontrolled run reads and writes no checkpoint");
    qmc::kernels::set_backend(saved);

    assert_eq!(
        (dmc.walker_hash, dmc.energy.0.to_bits(), dmc.samples),
        (0xe33e_e74f_480f_7771, 0x4077_6383_821b_ff3c, 53),
        "DMC, scaled Graphite, f32 Current, simd backend"
    );
    assert_eq!(
        (vmc.walker_hash, vmc.energy.0.to_bits(), vmc.samples),
        (0xe8d6_300e_7012_21d7, 0x4090_6405_1207_81bb, 48),
        "VMC, scaled Be-64, f32 Current, soa backend"
    );
}
