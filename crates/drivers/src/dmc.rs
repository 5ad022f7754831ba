//! Diffusion Monte Carlo driver (Algorithm 1 of the paper).
//!
//! Particle-by-particle drift-diffusion sweeps, local-energy measurement,
//! walker reweighting, birth/death branching and trial-energy feedback.
//! [`run_dmc`] is the one generation loop; how it executes — one engine,
//! a thread crew of engines, lock-step crowds — is the [`Crew`] it is
//! handed, never a different function.
//!
//! [`DmcState`] is the complete between-generation state of a run. A
//! checkpoint is nothing but a serialized `DmcState` plus the walker
//! population, and resuming is entering the generation loop with a
//! restored state instead of a fresh one — the same code path either way,
//! which is what makes restore bitwise rather than merely statistical.

use crate::batching::Batching;
use crate::branch::BranchController;
use crate::checkpoint::{CheckpointError, RunControl};
use crate::crew::{fan_out, init_walkers, Crew};
use crate::engine::SweepStats;
use crate::estimator::ScalarEstimator;
use crate::reduce;
use crate::walker::Walker;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span_lazy, ProfileSet};

/// DMC run parameters.
#[derive(Clone, Copy, Debug)]
pub struct DmcParams {
    /// Monte Carlo generations (`M` in Algorithm 1).
    pub steps: usize,
    /// Generations discarded before statistics are taken.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Target walker population.
    pub target_population: usize,
    /// From-scratch wavefunction recompute cadence in generations
    /// (mixed-precision hygiene; 0 disables).
    pub recompute_every: usize,
    /// Master seed for the branching stream.
    pub seed: u64,
    /// Walker batching the caller built its crew for. Descriptive only:
    /// [`run_dmc`] never reads it — the crew it is handed decides how
    /// walkers are batched.
    pub batching: Batching,
}

impl DmcParams {
    /// Whether generation `step` starts with a from-scratch refresh.
    pub(crate) fn refreshes_at(&self, step: usize) -> bool {
        self.recompute_every > 0 && step.is_multiple_of(self.recompute_every)
    }
}

impl Default for DmcParams {
    fn default() -> Self {
        Self {
            steps: 100,
            warmup: 10,
            tau: 0.01,
            target_population: 16,
            recompute_every: 20,
            seed: 0xD31C,
            batching: Batching::PerWalker,
        }
    }
}

/// DMC run outcome.
pub struct DmcResult {
    /// Per-generation weighted mixed estimator of the energy.
    pub energy: ScalarEstimator,
    /// Population trace per generation.
    pub population: Vec<usize>,
    /// Overall acceptance ratio of single-particle moves.
    pub acceptance: f64,
    /// Monte Carlo samples generated (sum of populations over measured
    /// generations) — the numerator of the paper's throughput metric.
    pub samples: u64,
    /// Final trial energy.
    pub e_trial: f64,
    /// Trial energy after each generation's feedback update (the
    /// trajectory the run report serializes alongside `population`).
    pub e_trial_trace: Vec<f64>,
}

/// The complete between-generation state of a DMC run: everything besides
/// the walker population itself that the next generation depends on. This
/// is exactly what `qmc-checkpoint/1` serializes for the DMC driver.
#[derive(Clone, Debug)]
pub struct DmcState {
    /// Population controller (trial energy, feedback, private RNG).
    pub branch: BranchController,
    /// Accumulated per-generation energy estimator.
    pub energy: ScalarEstimator,
    /// Population trace per generation so far.
    pub population: Vec<usize>,
    /// Trial-energy trace per generation so far.
    pub e_trial_trace: Vec<f64>,
    /// Accepted single-particle moves so far.
    pub accepted: usize,
    /// Attempted single-particle moves so far.
    pub attempted: usize,
    /// Monte Carlo samples (post-warmup) so far.
    pub samples: u64,
    /// Completed generations (the next generation to execute).
    pub step: usize,
    /// Initial energy estimate (the `wsum <= 0` fallback, fixed at init).
    pub e0: f64,
}

impl DmcState {
    /// Fresh state for a run starting at generation 0 with initial energy
    /// estimate `e0` (the mean walker local energy after init).
    pub fn fresh(e0: f64, params: &DmcParams) -> Self {
        Self {
            branch: BranchController::new(params.target_population, e0, params.tau, params.seed),
            energy: ScalarEstimator::new(),
            population: Vec::with_capacity(params.steps),
            e_trial_trace: Vec::with_capacity(params.steps),
            accepted: 0,
            attempted: 0,
            samples: 0,
            step: 0,
            e0,
        }
    }

    /// Completes one generation: records its statistics, branches the
    /// population and applies the trial-energy feedback — the tail of
    /// every generation, whatever crew advanced the walkers. Returns this
    /// generation's energy estimate.
    pub fn finish_generation<T: Real>(
        &mut self,
        walkers: &mut Vec<Walker<T>>,
        warmup: usize,
        esum: f64,
        wsum: f64,
        acc: usize,
        att: usize,
    ) -> f64 {
        let e_avg = self.record(walkers.len(), warmup, esum, wsum, acc, att);
        self.branch.branch(walkers);
        self.feedback(e_avg, walkers.len());
        e_avg
    }

    /// The generation's statistics over its pre-branch `population`:
    /// move counts, the energy estimate `esum / wsum` (`e0` when the
    /// weight vanished), samples after warmup and the population trace.
    /// Returns the energy estimate.
    pub(crate) fn record(
        &mut self,
        population: usize,
        warmup: usize,
        esum: f64,
        wsum: f64,
        acc: usize,
        att: usize,
    ) -> f64 {
        self.accepted += acc;
        self.attempted += att;
        let e_avg = if wsum > 0.0 { esum / wsum } else { self.e0 };
        if self.step >= warmup {
            self.energy.push(e_avg, wsum);
            self.samples += population as u64;
        }
        self.population.push(population);
        e_avg
    }

    /// The trial-energy feedback from the energy estimate and the
    /// post-branch `population`, which closes the generation.
    pub(crate) fn feedback(&mut self, e_avg: f64, population: usize) {
        self.branch.update_trial_energy(e_avg, population);
        self.e_trial_trace.push(self.branch.e_trial);
        self.step += 1;
    }

    /// Final result of the run this state accumulated.
    #[expect(
        clippy::cast_precision_loss,
        reason = "walker and step counts are exact in f64"
    )]
    pub fn into_result(self) -> DmcResult {
        DmcResult {
            energy: self.energy,
            population: self.population,
            acceptance: if self.attempted > 0 {
                self.accepted as f64 / self.attempted as f64
            } else {
                0.0
            },
            samples: self.samples,
            e_trial: self.branch.e_trial,
            e_trial_trace: self.e_trial_trace,
        }
    }
}

/// Mean local energy of a freshly initialized population (0 for none):
/// the `e0` a fresh [`DmcState`] starts from.
#[expect(clippy::cast_precision_loss, reason = "walker counts are exact in f64")]
pub(crate) fn mean_local_energy<T: Real>(walkers: &[Walker<T>]) -> f64 {
    if walkers.is_empty() {
        0.0
    } else {
        walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64
    }
}

/// Advances `chunk` one DMC generation through one crew member, in
/// lock-step blocks of the member's width: load, optional from-scratch
/// refresh, sweep, then measure / reweight / age / store in slot order.
/// Returns `(accepted, attempted)`. `lane` is the trace lane of the
/// per-block spans.
pub(crate) fn advance<T: Real, C: Crew<T>>(
    lane: u64,
    member: &mut C,
    chunk: &mut [Walker<T>],
    tau: f64,
    refresh: bool,
    branch: &BranchController,
) -> (usize, usize) {
    let width = member.width();
    let mut stats = vec![SweepStats::default(); width];
    let (mut acc, mut att) = (0usize, 0usize);
    for (b, block) in chunk.chunks_mut(width).enumerate() {
        let _block_span = C::BLOCK_SPANS.then(|| span_lazy(lane, || format!("block {b}")));
        for (s, w) in block.iter_mut().enumerate() {
            member.slot_mut(s).load_walker(w);
        }
        if refresh {
            member.refresh_block(block.len());
        }
        member.sweep_block(block, tau, &mut stats);
        for (s, w) in block.iter_mut().enumerate() {
            acc += stats[s].accepted;
            att += stats[s].attempted;
            let engine = member.slot_mut(s);
            let el = engine.measure(&mut w.rng).total();
            qmc_instrument::check_finite(qmc_instrument::CheckKind::LocalEnergy, el);
            w.weight *= branch.weight_factor(w.e_local, el);
            w.age = if stats[s].accepted == 0 { w.age + 1 } else { 0 };
            w.e_local = el;
            engine.store_walker(w);
        }
    }
    (acc, att)
}

/// Runs DMC over a walker crew (one member per worker thread; a crew of
/// one runs on the calling thread). `walkers` is consumed/regenerated by
/// branching. Returns the result together with the merged kernel
/// [`ProfileSet`]: one group per crew member, the coordinator's own time
/// (branching etc.) folded into the aggregate only.
///
/// When `resume` is `Some`, walker initialization is skipped entirely (the
/// restored walkers carry their buffers and RNG streams) and the
/// generation loop continues from `state.step`; the run is bitwise
/// identical to one that never stopped, under whatever crew it resumes.
/// `None, &mut RunControl::none()` is the plain uncontrolled run.
///
/// The energy/weight sums are reduced from the stored per-walker fields
/// after the fan-out through [`reduce::det_sum_by`] — a fixed-shape
/// pairwise tree over walker order — so the branch controller sees
/// bit-identical input for any crew kind, crew size or task schedule.
///
/// Fails only when a due checkpoint cannot be written; the run stops at
/// that generation boundary.
pub fn run_dmc<T: Real, C: Crew<T>>(
    crew: &mut [C],
    walkers: &mut Vec<Walker<T>>,
    params: &DmcParams,
    resume: Option<DmcState>,
    control: &mut RunControl<'_>,
) -> Result<(DmcResult, ProfileSet), CheckpointError> {
    assert!(!crew.is_empty(), "a run needs at least one crew member");
    qmc_instrument::enable_ftz();
    let mut profile = ProfileSet::with_groups(crew.len());
    let mut state = if let Some(state) = resume {
        state
    } else {
        init_walkers(crew, walkers, "init", &mut profile);
        DmcState::fresh(mean_local_energy(walkers), params)
    };

    while state.step < params.steps {
        let step = state.step;
        // Driver-level step span on its own lane, above the crew lanes.
        let step_span = span_lazy(crew.len() as u64, || format!("step {step}"));
        let refresh = params.refreshes_at(step);
        let branch = &state.branch;
        let counts = fan_out(
            crew,
            walkers,
            C::SPAN,
            &mut profile,
            |lane, member, chunk| advance(lane, member, chunk, params.tau, refresh, branch),
        );
        let acc = counts.iter().map(|c| c.0).sum();
        let att = counts.iter().map(|c| c.1).sum();
        let esum = reduce::det_sum_by(walkers.len(), |i| walkers[i].weight * walkers[i].e_local);
        let wsum = reduce::det_sum_by(walkers.len(), |i| walkers[i].weight);
        let e_avg = state.finish_generation(walkers, params.warmup, esum, wsum, acc, att);
        // Close the step span first, so the hook's drain lists it.
        drop(step_span);
        control.after_dmc_generation(&state, walkers, params, e_avg, wsum)?;
    }

    profile.merge_total(&drain_thread_profile());
    Ok((state.into_result(), profile))
}
