//! # qmc-workloads
//!
//! The paper's benchmark workloads (Table 1): Graphite, Be-64, NiO-32 and
//! NiO-64, built as synthetic orthorhombic supercells with seeded random
//! spline tables (the miniQMC strategy), NiO-like Jastrow functors (Fig. 3)
//! and model pseudopotentials — plus the engine factory implementing the
//! paper's code-version ladder (`Ref` → `Ref+MP` → `Current`, §6-§7) and a
//! shared DMC benchmark runner reporting throughput, kernel profiles and
//! memory accounting.

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub mod build;
pub mod run;
pub mod spec;

pub use build::{CodeVersion, Workload};
pub use qmc_drivers::Batching;
pub use run::{
    checkpoint_step, run_benchmark_controlled, run_dmc_benchmark, run_dmc_benchmark_controlled,
    run_multi_rank_benchmark, BenchControl, RunConfig, RunOutcome, VMC_BLOCK_SWEEPS,
};
pub use spec::{Benchmark, IonSpec, Size, WorkloadSpec};
