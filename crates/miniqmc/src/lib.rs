//! # miniqmc
//!
//! The paper's miniapps (§7.1): small binaries that "reproduce the
//! computational patterns, memory use, data access and thread-level
//! parallelism of the production QMC code as realistically as possible"
//! and are used to prototype optimizations before full integration.
//!
//! Binaries:
//! * `miniqmc` — the full miniapp: DMC with PbyP updates and NLPP on a
//!   benchmark workload, any code version, with hot-spot profile output.
//! * `mini_dist` — distance-table kernel miniapp (AoS vs SoA).
//! * `mini_j2` — two-body Jastrow miniapp (stored vs compute-on-the-fly).
//! * `mini_bspline` — 3D spline miniapp (kernel backends x precisions).
//! * `check_wfc` — full-wavefunction correctness checker (Ref vs Current).
//! * `check_spo` — SPO evaluator correctness checker.

#![forbid(unsafe_code)]

pub mod args;

pub use args::{at_least, Options};
