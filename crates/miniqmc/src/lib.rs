//! # miniqmc
//!
//! The paper's full miniapp (§7.1): a small binary that "reproduces the
//! computational patterns, memory use, data access and thread-level
//! parallelism of the production QMC code as realistically as possible"
//! and is used to prototype optimizations before full integration.
//!
//! Binaries:
//! * `miniqmc` — DMC or VMC with PbyP updates and NLPP on a benchmark
//!   workload, any code version, with hot-spot profile output.
//! * `json_check` — validates a `miniqmc --profile json` run report.
//!
//! One kernel at a time is timed by the `qmc-bench` Criterion benches
//! (`bench_distance`, `bench_jastrow`, `bench_kernels`) and checked by the
//! kernel and wavefunction tests; the Ref-vs-Current move-by-move check of
//! whole engines is `tests/full_stack.rs`.

pub mod args;

pub use args::{at_least, Options};
