//! Variational Monte Carlo driver (importance-sampled PbyP Metropolis).
//!
//! Used for equilibration, for validating the wavefunction machinery
//! against analytic systems, and as the lightweight counterpart of the DMC
//! driver in the benchmarks. [`run_vmc`] is the one block loop; the
//! [`Crew`] it is handed decides how it executes. Like DMC, the
//! between-block state is factored into [`VmcState`] so a run can
//! checkpoint at a block boundary and resume bitwise.

use crate::batching::Batching;
use crate::checkpoint::{CheckpointError, RunControl};
use crate::crew::{fan_out, init_walkers, Crew};
use crate::engine::{QmcEngine, SweepStats};
use crate::estimator::ScalarEstimator;
use crate::walker::Walker;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span_lazy, ProfileSet};

/// VMC run parameters.
#[derive(Clone, Copy, Debug)]
pub struct VmcParams {
    /// Number of blocks (a from-scratch recompute happens per block).
    pub blocks: usize,
    /// PbyP sweeps per block per walker.
    pub steps_per_block: usize,
    /// Time step of the drifted Gaussian proposal.
    pub tau: f64,
    /// Measure the local energy every `measure_every` sweeps.
    pub measure_every: usize,
    /// Walker batching the caller built its crew for. Descriptive only:
    /// [`run_vmc`] never reads it — the crew it is handed decides how
    /// walkers are batched.
    pub batching: Batching,
}

impl Default for VmcParams {
    fn default() -> Self {
        Self {
            blocks: 10,
            steps_per_block: 20,
            tau: 0.3,
            measure_every: 1,
            batching: Batching::PerWalker,
        }
    }
}

/// VMC run outcome.
pub struct VmcResult {
    /// Local-energy samples (one per measurement).
    pub energy: ScalarEstimator,
    /// Overall move acceptance ratio.
    pub acceptance: f64,
    /// Monte Carlo samples generated (walker-sweeps).
    pub samples: u64,
}

/// The complete between-block state of a VMC run — what
/// `qmc-checkpoint/1` serializes for the VMC driver (plus the walkers).
#[derive(Clone, Debug, Default)]
pub struct VmcState {
    /// Accumulated local-energy samples.
    pub energy: ScalarEstimator,
    /// Accepted single-particle moves so far.
    pub accepted: usize,
    /// Attempted single-particle moves so far.
    pub attempted: usize,
    /// Walker-sweeps so far.
    pub samples: u64,
    /// Completed blocks (the next block to execute).
    pub block: usize,
}

impl VmcState {
    /// Fresh state for a run starting at block 0.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// Final result of the run this state accumulated.
    #[expect(
        clippy::cast_precision_loss,
        reason = "walker and step counts are exact in f64"
    )]
    pub fn into_result(self) -> VmcResult {
        VmcResult {
            energy: self.energy,
            acceptance: if self.attempted > 0 {
                self.accepted as f64 / self.attempted as f64
            } else {
                0.0
            },
            samples: self.samples,
        }
    }
}

/// Advances `chunk` one VMC block through one crew member, in lock-step
/// blocks of the member's width: load, from-scratch refresh (per-block
/// mixed-precision hygiene), `steps_per_block` sweeps with a measurement
/// every `measure_every`-th, store. Returns `(accepted, attempted,
/// energies)` with the local-energy samples walker-major — the order a
/// one-walker-at-a-time drive measures them in.
fn advance_block<T: Real, C: Crew<T>>(
    member: &mut C,
    chunk: &mut [Walker<T>],
    params: &VmcParams,
) -> (usize, usize, Vec<f64>) {
    let width = member.width();
    let mut stats = vec![SweepStats::default(); width];
    // One row of `per_walker` samples per walker, in walker order.
    let per_walker = params.steps_per_block.div_ceil(params.measure_every);
    let mut energies = vec![0.0; chunk.len() * per_walker];
    let (mut acc, mut att) = (0usize, 0usize);
    for (b, block) in chunk.chunks_mut(width).enumerate() {
        let rows = &mut energies[b * width * per_walker..];
        for (s, w) in block.iter_mut().enumerate() {
            member.slot_mut(s).load_walker(w);
        }
        member.refresh_block(block.len());
        for step in 0..params.steps_per_block {
            member.sweep_block(block, params.tau, &mut stats);
            for st in &stats[..block.len()] {
                acc += st.accepted;
                att += st.attempted;
            }
            if step % params.measure_every == 0 {
                for (s, w) in block.iter_mut().enumerate() {
                    w.e_local = member.slot_mut(s).measure(&mut w.rng).total();
                    qmc_instrument::check_finite(qmc_instrument::CheckKind::LocalEnergy, w.e_local);
                    rows[s * per_walker + step / params.measure_every] = w.e_local;
                }
            }
        }
        for (s, w) in block.iter_mut().enumerate() {
            member.slot_mut(s).store_walker(w);
        }
    }
    (acc, att, energies)
}

/// Runs VMC over a walker crew (one member per worker thread; a crew of
/// one runs on the calling thread). Returns the result together with the
/// merged kernel [`ProfileSet`] (one group per crew member).
///
/// When `resume` is `Some`, walker initialization is skipped (the restored
/// walkers carry their buffers and RNG streams) and the block loop
/// continues from `state.block`, bitwise identical to an uninterrupted
/// run under whatever crew it resumes. `None, &mut RunControl::none()` is
/// the plain uncontrolled run.
///
/// Each member returns its samples walker-major and the estimator ingests
/// them in crew order after the fan-out, so the sample stream — and
/// therefore the result — is bit-identical for any crew kind, crew size
/// and task schedule.
///
/// Fails only when a due checkpoint cannot be written; the run stops at
/// that block boundary.
pub fn run_vmc<T: Real, C: Crew<T>>(
    crew: &mut [C],
    walkers: &mut [Walker<T>],
    params: &VmcParams,
    resume: Option<VmcState>,
    control: &mut RunControl<'_>,
) -> Result<(VmcResult, ProfileSet), CheckpointError> {
    assert!(!crew.is_empty(), "a run needs at least one crew member");
    qmc_instrument::enable_ftz();
    let mut profile = ProfileSet::with_groups(crew.len());
    let mut state = if let Some(state) = resume {
        state
    } else {
        init_walkers(crew, walkers, "vmc init", &mut profile);
        VmcState::fresh()
    };

    while state.block < params.blocks {
        let block = state.block;
        let block_span = span_lazy(crew.len() as u64, || format!("vmc block {block}"));
        let samples_before = state.energy.len();
        let parts = fan_out(
            crew,
            walkers,
            "vmc worker block",
            &mut profile,
            |_, member, chunk| advance_block(member, chunk, params),
        );
        for (acc, att, energies) in parts {
            state.accepted += acc;
            state.attempted += att;
            for e in energies {
                state.energy.push(e, 1.0);
            }
        }
        state.samples += (walkers.len() * params.steps_per_block) as u64;
        state.block += 1;
        // Close the block span first, so the hook's drain lists it.
        drop(block_span);
        control.after_vmc_block(&state, walkers, params, samples_before)?;
    }

    profile.merge_total(&drain_thread_profile());
    Ok((state.into_result(), profile))
}

/// [`run_vmc`] on one engine, for callers that predate the crew
/// signature. Infallible by contract: pass `control.checkpoint: None`
/// (the only failure is a checkpoint write). The kernel profile is left
/// on the calling thread, where such callers drain it themselves.
pub fn run_vmc_controlled<T: Real>(
    engine: &mut QmcEngine<T>,
    walkers: &mut [Walker<T>],
    params: &VmcParams,
    resume: Option<VmcState>,
    control: &mut RunControl<'_>,
) -> VmcResult {
    let crew = std::slice::from_mut(engine);
    let run = run_vmc(crew, walkers, params, resume, control);
    let (res, profile) = run.expect("no checkpoint cadence is set, so no write can fail");
    qmc_instrument::merge_thread_profile(&profile.total);
    res
}
