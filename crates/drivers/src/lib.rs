//! # qmc-drivers
//!
//! Monte Carlo drivers reproducing Algorithm 1 and the execution structure
//! of Fig. 4 in *Mathuriya et al., SC'17*:
//!
//! * [`walker`] — walkers with private RNG streams and the anonymous
//!   wavefunction-state buffer.
//! * [`engine`] — the per-thread compute engine (ParticleSet +
//!   TrialWaveFunction + Hamiltonian) with the drift-diffusion PbyP sweep.
//! * [`vmc`] / [`dmc`] — the two drivers, one loop each.
//! * [`crew`] — the walker crew the drivers run over (the OpenMP level)
//!   and `fan_out_tasks`, the one place the program starts threads.
//! * [`ranks`] — simulated multi-rank DMC for the strong-scaling study
//!   (Fig. 1): `run_dmc`'s generation and [`DmcState`] books on one engine
//!   per rank, with rank-local branching inside each fork and the
//!   allreduce and walker exchange between the forks, in rank order.
//! * [`estimator`] / [`branch`] — statistics and population control.
//! * [`reduce`] — the fixed-shape deterministic reduction ([`det_sum`])
//!   the drivers merge per-walker quantities through.
//! * [`serialize`] — exact-state walker wire codec (plus explicit
//!   [`serialize::reseed_for_migration`] re-keying for rank migration).
//! * [`checkpoint`] — the `qmc-checkpoint/2` bitwise checkpoint/restart
//!   format and the [`checkpoint::RunControl`] hooks the drivers call at
//!   block/generation boundaries.
//! * [`fingerprint`] — FNV-1a walker/population digests asserting that
//!   restore really is bitwise.
//!
//! ## One loop per method, executed by a crew
//!
//! `run_vmc(crew, walkers, params, resume, control)` and
//! `run_dmc(crew, walkers, params, resume, control)` are the only driver
//! entry points. How a run executes is the `&mut [impl Crew]` it is
//! handed — one member per worker thread, each advancing lock-step blocks
//! of `width()` walkers:
//!
//! | crew                                        | [`run_vmc`] / [`run_dmc`] execute as          |
//! |---------------------------------------------|-----------------------------------------------|
//! | `std::slice::from_mut(&mut engine)`         | serial, on the calling thread                 |
//! | `&mut [QmcEngine; T]`                       | `T` threads, one walker at a time each        |
//! | `&mut [qmc_crowd::Crowd; T]` of `W` slots   | `T` threads, lock-step crowds of `W` walkers  |
//! | ... with `Crowd::set_fused_refresh(true)`   | same, refreshes through the batched SPO kernel|
//!
//! Every row but the last is bit-identical per walker; `resume: None` and
//! `&mut RunControl::none()` give the plain uncontrolled run.

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub mod batching;
pub mod branch;
pub mod checkpoint;
pub mod crew;
pub mod dmc;
pub mod engine;
pub mod estimator;
pub mod fingerprint;
pub mod ranks;
pub mod reduce;
pub mod serialize;
pub mod vmc;
pub mod walker;

pub use batching::Batching;
pub use branch::BranchController;
pub use checkpoint::{
    read_dmc_checkpoint, read_vmc_checkpoint, write_dmc_checkpoint, write_vmc_checkpoint,
    CheckpointError, CheckpointSpec, DriverKind, RunControl, CHECKPOINT_SCHEMA,
};
pub use crew::Crew;
pub use dmc::{run_dmc, DmcParams, DmcResult, DmcState};
pub use engine::{limited_drift, HamiltonianSet, QmcEngine, SweepStats};
pub use estimator::ScalarEstimator;
pub use fingerprint::{population_digest, walker_digest_full, Fnv};
pub use ranks::{run_multi_rank, Exchange};
pub use reduce::{det_sum, det_sum_by};
pub use serialize::{
    deserialize_walker, reseed_for_migration, serialize_walker, try_deserialize_walker, WireError,
};
pub use vmc::{run_vmc, run_vmc_controlled, VmcParams, VmcResult, VmcState};
pub use walker::{initial_population, Walker};
