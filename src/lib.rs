//! # qmc
//!
//! Top-level facade of the QMC workspace: a Rust reproduction of
//! *"Embracing a new era of highly efficient and productive quantum Monte
//! Carlo simulations"* (Mathuriya, Luo, Clay, Benali, Shulenburger, Kim —
//! SC 2017, arXiv:1708.02645).
//!
//! The library implements a full diffusion/variational quantum Monte Carlo
//! engine twice over, along the paper's optimization ladder:
//!
//! | version   | layout | precision | Jastrow storage | distance tables |
//! |-----------|--------|-----------|-----------------|-----------------|
//! | `Ref`     | AoS    | f64       | `5 N^2` stored  | packed triangle |
//! | `Ref+MP`  | AoS    | f32/f64   | `5 N^2` stored  | packed triangle |
//! | `Current` | SoA    | f32/f64   | `5 N` on-the-fly| padded rows + forward update |
//!
//! This crate re-exports every workspace crate under a short name
//! ([`drivers`], [`workloads`], ...) and gathers the main types in
//! [`prelude`]. A benchmark run is a workload, a code version and a
//! [`RunConfig`](prelude::RunConfig):
//!
//! ```
//! use qmc::prelude::*;
//!
//! let cfg = RunConfig { threads: 2, walkers: 4, steps: 4, ..RunConfig::default() };
//! let workload = Workload::new(Benchmark::NiO32, Size::Scaled, cfg.seed);
//! let result = run_dmc_benchmark(&workload, CodeVersion::Current, &cfg);
//! assert!(result.throughput() > 0.0);
//! ```
//!
//! See the `examples/` directory for runnable walkthroughs, and the
//! `qmc-bench` crate for the harnesses that regenerate every figure and
//! table of the paper's evaluation.

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub use qmc_bspline as bspline;
pub use qmc_containers as containers;
pub use qmc_crowd as crowd;
pub use qmc_drivers as drivers;
pub use qmc_hamiltonian as hamiltonian;
pub use qmc_instrument as instrument;
pub use qmc_kernels as kernels;
pub use qmc_linalg as linalg;
pub use qmc_particles as particles;
pub use qmc_wavefunction as wavefunction;
pub use qmc_workloads as workloads;

/// Frequently used items in one import.
pub mod prelude {
    pub use qmc_containers::{Matrix, Pos, Real, TinyVector, VectorSoaContainer};
    pub use qmc_crowd::{Crowd, CrowdScheduler};
    pub use qmc_drivers::{
        initial_population, run_dmc, run_vmc, Batching, Crew, DmcParams, DmcResult, HamiltonianSet,
        QmcEngine, RunControl, VmcParams, VmcResult, Walker,
    };
    pub use qmc_hamiltonian::{kinetic_energy, CoulombEE, CoulombEI, LocalEnergy, NonLocalPP};
    pub use qmc_instrument::{Kernel, Profile};
    pub use qmc_kernels::Backend;
    pub use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
    pub use qmc_wavefunction::{
        BsplineSpo, CosineSpo, DiracDeterminant, J1Ref, J1Soa, J2Ref, J2Soa, PairFunctors,
        TrialWaveFunction,
    };
    pub use qmc_workloads::{
        run_dmc_benchmark, Benchmark, CodeVersion, RunConfig, RunOutcome, Size, Workload,
    };
}
