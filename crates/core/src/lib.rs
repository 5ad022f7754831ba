//! # qmc-core
//!
//! Umbrella crate for the QMC library: re-exports the full public API of
//! the workspace and provides the high-level [`simulation`] builder that
//! assembles a benchmark run in a few lines.
//!
//! The workspace reproduces *"Embracing a new era of highly efficient and
//! productive quantum Monte Carlo simulations"* (Mathuriya et al., SC'17):
//! a diffusion Monte Carlo engine with the paper's baseline (AoS, double
//! precision, store-everything) and optimized (SoA, mixed-precision,
//! forward-update, compute-on-the-fly) implementations side by side.

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

pub mod simulation;
