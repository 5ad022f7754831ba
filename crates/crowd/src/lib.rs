//! # qmc-crowd
//!
//! Crowd-based batched walker execution, after the hierarchical
//! parallelism of QMCPACK's performance-portable drivers: a [`Crowd`] of
//! engines advances its walkers through the particle-by-particle
//! drift-diffusion sweep in lock-step, so every stage hands the
//! wavefunction layer a multi-walker batch (`TrialWaveFunction::mw_*`,
//! `SpoSet::mw_evaluate_vgl`, `qmc_particles::mw_candidate_rows`) instead
//! of one walker's worth of work.
//!
//! [`Crowd`] implements `qmc_drivers::Crew`, so the one VMC block loop and
//! the one DMC generation loop (`qmc_drivers::run_vmc` / `run_dmc`) run
//! over a slice of crowds exactly as they run over a slice of engines:
//! contiguous walker chunks per crew member, walker-order energy
//! reduction. Combined with per-walker RNG streams and unchanged
//! per-walker floating-point op sequences, a crowd crew is bit-identical
//! to an engine crew for any crowd size and thread count — batching is
//! purely an execution-shape choice (`qmc_drivers::Batching`). The
//! [`CrowdScheduler`] sizes and builds the crew.

#![forbid(unsafe_code)]

pub mod crowd;
pub mod scheduler;

pub use crowd::Crowd;
pub use scheduler::CrowdScheduler;
