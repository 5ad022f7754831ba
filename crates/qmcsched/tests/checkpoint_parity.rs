//! Checkpoint/restart bitwise-parity matrix: for VMC and DMC, on every
//! crew kind (engines, crowds, fused crowds) and all three kernel
//! backends, a run checkpointed at an interior step and resumed from the
//! file must finish with per-walker full-state digests (walker buffers,
//! positions, weight, age AND raw RNG words) identical to the straight
//! run's — plus equal scalar outputs. Every run goes through the one
//! driver entry point of its method (`qmcsched::run_shape`). The crew-size
//! axis of the same matrix ({1, 2, 4} members × {straight, kill+resume})
//! is `qmcsched::explore_thread_sweep`, gated by the crate's unit tests.
//!
//! The backend cases live in ONE `#[test]`: `qmc_kernels::set_backend` is
//! process-global, and cargo runs tests within a binary concurrently.

use qmc_drivers::DriverKind;
use qmc_kernels::Backend;
use qmc_workloads::{Benchmark, Size, Workload};
use qmcsched::{run_shape, run_shape_resumed, scratch_path, CrewKind, HarnessConfig, Shape};

const THREADS: usize = 3;
const SEED: u64 = 1234;

/// Six walkers for six steps, cut at the interior step 3 — not the
/// trivial final one.
const CFG: HarnessConfig = HarnessConfig {
    threads: THREADS,
    walkers: 6,
    steps: 6,
    seed: SEED,
};

fn assert_resume_matches(w: &Workload, shape: Shape, resumed_on: Shape, tag: &str) {
    let straight = run_shape(w, shape, &CFG, None, None);
    let path = scratch_path(&format!("{tag}.qmc"));
    let resumed = run_shape_resumed(w, shape, resumed_on, &CFG, &path);
    assert_eq!(
        straight.walkers, resumed.walkers,
        "[{tag}]: per-walker full digests diverged after resume"
    );
    assert_eq!(
        straight.scalars, resumed.scalars,
        "[{tag}]: scalar results diverged after resume"
    );
}

#[test]
fn checkpoint_resume_is_bitwise_across_drivers_crews_and_backends() {
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, SEED);
    let saved = Backend::current();
    for backend in [Backend::Reference, Backend::Soa, Backend::Simd] {
        qmc_kernels::set_backend(backend);
        for driver in [DriverKind::Dmc, DriverKind::Vmc] {
            for crew in CrewKind::ALL {
                let shape = Shape {
                    driver,
                    crew,
                    threads: THREADS,
                };
                let tag = format!("{backend:?}-{}", shape.label());
                assert_resume_matches(&w, shape, shape, &tag);
            }
        }
    }
    qmc_kernels::set_backend(saved);
}

/// Cross-shape restart: a checkpoint pins physics state, not execution
/// shape, so a job killed on one crew and restarted on another — a
/// different kind AND a different size — is ALSO bitwise: DMC from three
/// engine threads onto two crowds and back, VMC from two engine threads
/// onto a single crowd.
#[test]
fn checkpoint_resumes_bitwise_on_a_different_crew() {
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, SEED);
    let shape = |driver, crew, threads| Shape {
        driver,
        crew,
        threads,
    };
    for (from, onto) in [
        (
            shape(DriverKind::Dmc, CrewKind::Engines, 3),
            shape(DriverKind::Dmc, CrewKind::Crowds, 2),
        ),
        (
            shape(DriverKind::Dmc, CrewKind::Crowds, 2),
            shape(DriverKind::Dmc, CrewKind::Engines, 1),
        ),
        (
            shape(DriverKind::Vmc, CrewKind::Engines, 2),
            shape(DriverKind::Vmc, CrewKind::Crowds, 1),
        ),
    ] {
        let tag = format!(
            "{}{}-onto-{}{}",
            from.label(),
            from.threads,
            onto.label(),
            onto.threads
        );
        assert_resume_matches(&w, from, onto, &tag);
    }
}
