//! # qmc-workloads
//!
//! The paper's benchmark workloads (Table 1): Graphite, Be-64, NiO-32 and
//! NiO-64, built as synthetic orthorhombic supercells with seeded random
//! spline tables (the miniQMC strategy), NiO-like Jastrow functors (Fig. 3)
//! and model pseudopotentials — plus the engine factory implementing the
//! paper's code-version ladder (`Ref` → `Ref+MP` → `Current`, §6-§7) and a
//! shared DMC benchmark runner reporting throughput, kernel profiles and
//! memory accounting.

#![forbid(unsafe_code)]

pub mod build;
pub mod run;
pub mod spec;

pub use build::{CodeVersion, Workload};
pub use qmc_drivers::Batching;
pub use run::{
    checkpoint_step, run_benchmark_controlled, run_dmc_benchmark, run_dmc_benchmark_controlled,
    BenchControl, RunConfig, RunOutcome,
};
pub use spec::{Benchmark, IonSpec, Size, WorkloadSpec};
