//! Every kernel category is timed somewhere. A scaled per-walker DMC run
//! and a scaled fused-crowd run together give every [`Kernel`] but `Other`
//! (which no code path fills) at least one call in the run report's
//! profile. A variant that no code wraps in `time_kernel` fails here, so
//! the Fig. 2 profile cannot lose a category silently.

use qmc_instrument::{Kernel, ALL_KERNELS};
use qmc_workloads::{
    run_dmc_benchmark, Batching, Benchmark, CodeVersion, RunConfig, Size, Workload,
};

#[test]
fn a_per_walker_and_a_crowd_run_time_every_kernel_but_other() {
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 5);
    let per_walker = RunConfig {
        threads: 1,
        walkers: 2,
        steps: 3,
        warmup: 1,
        tau: 0.002,
        seed: 7,
        ..Default::default()
    };
    // The fused block refresh is the only caller of `Bspline-mw-vgl`.
    let crowd = RunConfig {
        batching: Batching::Crowd(2),
        fused_refresh: true,
        ..per_walker
    };
    let mut profile = run_dmc_benchmark(&w, CodeVersion::Current, &per_walker).profile;
    profile.merge(&run_dmc_benchmark(&w, CodeVersion::Current, &crowd).profile);

    let untimed: Vec<&str> = ALL_KERNELS
        .iter()
        .filter(|&&k| k != Kernel::Other && profile.get(k).calls == 0)
        .map(|k| k.label())
        .collect();
    assert!(untimed.is_empty(), "no scaled run times {untimed:?}");
}
