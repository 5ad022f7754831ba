//! The adapter: every call the benchmark makes into the repo's crates lives
//! here, so a later change of their interfaces re-points this one file.
//!
//! Three things are built from those calls: the workload ladder and its
//! set-up, untraced *rounds* timed at the drivers' `on_block` callback, and
//! the *traced pass* — a single-thread transcription of the drivers'
//! per-walker generation body made only of public calls, with a span
//! around each of them. Every second generation the sweep, the measurement
//! and the walker load/store are *dissected* into the `particles`,
//! `wavefunction` and `hamiltonian` calls they consist of.

use crate::rounds::{BlockSample, EnergyRef, Round, RoundRules};
use crate::trace::Tracer;
use qmc_containers::{Matrix, Pos};
use qmc_crowd::{Crowd, CrowdScheduler};
use qmc_drivers::{
    initial_population, limited_drift, population_digest, read_dmc_checkpoint, read_vmc_checkpoint,
    run_vmc_controlled, write_dmc_checkpoint, write_vmc_checkpoint, Batching, BranchController,
    CheckpointError, DmcParams, DmcState, QmcEngine, RunControl, SweepStats, VmcParams, VmcState,
    Walker,
};
use qmc_hamiltonian::{kinetic_energy, LocalEnergy};
pub use qmc_instrument::json;
use qmc_instrument::{
    drain_thread_profile, enable_ftz, probe_machine, record_refresh_drift, time_kernel, BlockEvent,
    Kernel, Profile, ALL_KERNELS,
};
use qmc_kernels::{set_backend, Backend};
use qmc_linalg::{
    det_ratio_row, sherman_morrison_update, transposed_inverse_log_det, DelayedInverse,
};
use qmc_particles::{gaussian_pos, ParticleSet};
use qmc_wavefunction::TrialWaveFunction;
use qmc_workloads::{
    run_dmc_benchmark_controlled, BenchControl, Benchmark, CodeVersion, RunConfig, Size, Workload,
};
use rand::rngs::StdRng;
use rand::RngExt;
use std::hint::black_box;
use std::time::{Duration, Instant};

type Engine = QmcEngine<f32>;
type Walk = Walker<f32>;

/// Span walker id of population-level work.
const NO_WALKER: u32 = u32::MAX;

/// From-scratch recompute cadence and branching-seed derivation of
/// `qmc_workloads::run_dmc_benchmark_controlled`, which the traced DMC
/// pass must mirror for its digest to match that driver's.
const RECOMPUTE_EVERY: usize = 16;
const BRANCH_SEED_MASK: u64 = 0xD00D;

/// Threads of the crew round behind `drivers.thread_efficiency`.
pub const CREW_THREADS: usize = 2;

/// Upper bound on the generations of a traced pass (its time budget ends
/// it long before).
const TRACE_STEP_CAP: usize = 1 << 16;

/// How a workload's walkers are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// DMC, one walker at a time per thread.
    DmcPerWalker,
    /// DMC in lock-step crowds of `size` walkers with fused block refresh.
    DmcCrowd {
        /// Walkers per crowd.
        size: usize,
    },
    /// Serial VMC.
    Vmc {
        /// Sweeps per walker per block.
        sweeps_per_block: usize,
        /// Local-energy measurement cadence in sweeps.
        measure_every: usize,
    },
}

/// One rung of the workload ladder. Every workload runs
/// `CodeVersion::Current` with its kernel backend pinned here, never the
/// session default, and on one worker thread: on the two shared cores the
/// benchmark is sized for, a crew of two finishes each generation at the
/// pace of whichever core the host disturbed, which made every timing
/// bimodal. The crew of [`CREW_THREADS`] is measured in the traced run
/// (`drivers.thread_efficiency`), where nothing is bounded.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    benchmark: Benchmark,
    size: Size,
    backend: Backend,
    /// Driver and batching.
    pub drive: Drive,
    /// Worker threads.
    pub threads: usize,
    /// Target walker population.
    pub walkers: usize,
    /// Generations (VMC: blocks) of one round.
    pub steps: usize,
    /// Generations excluded from timings and statistics.
    pub warmup: usize,
    /// Time step.
    pub tau: f64,
    /// Acceptance band of a correct round.
    pub acceptance: (f64, f64),
    /// Generations of the `Ref`-code round behind `workloads.ref_speedup`
    /// (the paper's Table 2); 0 where `Ref` is too slow to fit a run.
    pub table2_steps: usize,
    /// Recorded energies for the reference check.
    pub references: &'static [EnergyRef],
}

/// The ladder, smallest kernels first.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "graphite64-dmc",
        why: "N=64, 1 MiB table in cache, per-walker DMC: shortest kernels, so driver overhead has its largest share",
        benchmark: Benchmark::Graphite,
        size: Size::Scaled,
        backend: Backend::Simd,
        drive: Drive::DmcPerWalker,
        threads: 1,
        walkers: 32,
        steps: 40,
        warmup: 4,
        tau: 0.005,
        acceptance: (0.85, 1.0),
        table2_steps: 7,
        references: &[
            EnergyRef {
                seed: 42,
                mean: 384.888696,
                sem: 3.763763,
            },
            EnergyRef {
                seed: 7,
                mean: 398.387139,
                sem: 2.316686,
            },
        ],
    },
    Spec {
        name: "nio32-dmc",
        why: "N=384, 419 MiB table far out of cache, per-walker DMC: the paper's centre, determinant update and bandwidth-bound splines",
        benchmark: Benchmark::NiO32,
        size: Size::Full,
        backend: Backend::Simd,
        drive: Drive::DmcPerWalker,
        threads: 1,
        walkers: 4,
        steps: 14,
        warmup: 2,
        tau: 0.001,
        acceptance: (0.85, 1.0),
        table2_steps: 0,
        references: &[
            EnergyRef {
                seed: 42,
                mean: 37045.567142,
                sem: 407.459531,
            },
            EnergyRef {
                seed: 7,
                mean: 36770.253833,
                sem: 532.831812,
            },
        ],
    },
    Spec {
        name: "graphite256-crowd",
        why: "N=256, 39 MiB table, DMC in fused crowds of 4: the only rung where crowd and the batched mw kernels do the work",
        benchmark: Benchmark::Graphite,
        size: Size::Full,
        backend: Backend::Simd,
        drive: Drive::DmcCrowd { size: 4 },
        threads: 1,
        walkers: 8,
        steps: 20,
        warmup: 2,
        tau: 0.005,
        acceptance: (0.85, 1.0),
        table2_steps: 0,
        references: &[
            EnergyRef {
                seed: 42,
                mean: 2091.043489,
                sem: 17.414786,
            },
            EnergyRef {
                seed: 7,
                mean: 2100.287309,
                sem: 11.360943,
            },
        ],
    },
    Spec {
        name: "be64-vmc",
        why: "N=64, no pseudopotential, serial VMC on the auto-vectorised backend: reject path, no branching, rare measurement",
        benchmark: Benchmark::Be64,
        size: Size::Scaled,
        backend: Backend::Soa,
        drive: Drive::Vmc {
            sweeps_per_block: 10,
            measure_every: 5,
        },
        threads: 1,
        walkers: 8,
        steps: 16,
        warmup: 2,
        tau: 0.05,
        acceptance: (0.4, 0.6),
        table2_steps: 0,
        references: &[
            EnergyRef {
                seed: 42,
                mean: 1065.629775,
                sem: 10.256455,
            },
            EnergyRef {
                seed: 7,
                mean: 1060.017023,
                sem: 8.200413,
            },
        ],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Rules a round of this workload on `threads` threads is timed and
    /// judged by.
    pub fn rules_for(&self, threads: usize) -> RoundRules {
        RoundRules {
            threads,
            walkers: self.walkers,
            warmup: self.warmup,
            sweeps_per_block: match self.drive {
                Drive::Vmc {
                    sweeps_per_block, ..
                } => sweeps_per_block,
                _ => 1,
            },
            acceptance: self.acceptance,
        }
    }

    /// Recorded energy at `seed`, if one was recorded.
    pub fn reference(&self, seed: u64) -> Option<&'static EnergyRef> {
        self.references.iter().find(|r| r.seed == seed)
    }

    /// Electrons of the system.
    pub fn electrons(&self) -> usize {
        self.benchmark.spec().num_electrons(self.size)
    }
}

/// Seconds and bytes of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetUp {
    /// `Workload::new`: geometry and initial electron positions.
    pub new_s: f64,
    /// Building the shared f32 spline table.
    pub table_s: f64,
    /// Building every engine (or crowd) the driver will use.
    pub engines_s: f64,
    /// Bytes of one engine.
    pub engine_bytes: usize,
    /// Bytes of the spline table.
    pub table_bytes: usize,
}

impl SetUp {
    /// Set-up up to the first driver call.
    pub fn total_s(&self) -> f64 {
        self.new_s + self.table_s + self.engines_s
    }
}

/// A workload set up at one seed. The program sees the seed only through
/// the inputs generated from it.
pub struct Instance {
    /// The workload's specification.
    pub spec: &'static Spec,
    seed: u64,
    workload: Workload,
}

/// Sets a workload up: inputs, spline table and the engines of the
/// end-to-end configuration (dropped again — the DMC runner builds its own
/// crew, outside the timed loop).
pub fn set_up(spec: &'static Spec, seed: u64, tr: &mut Tracer) -> (Instance, SetUp) {
    // Engines capture the backend when they are built.
    set_backend(spec.backend);
    let t0 = Instant::now();
    tr.open("workloads.new", NO_WALKER);
    let workload = Workload::new(spec.benchmark, spec.size, seed);
    tr.close();
    let t1 = Instant::now();
    tr.open("bspline.table_build", NO_WALKER);
    let table_bytes = workload.table_bytes(true);
    tr.close();
    let t2 = Instant::now();
    tr.open("workloads.engine_build", NO_WALKER);
    let build = || workload.build_engine_f32(CodeVersion::Current);
    let engine_bytes = match spec.drive {
        Drive::DmcCrowd { size } => {
            let crowds = CrowdScheduler::new(spec.threads, size)
                .with_fused_refresh(true)
                .build_crowds(build);
            crowds[0].engine_bytes()
        }
        _ => {
            let engines: Vec<Engine> = (0..spec.threads).map(|_| build()).collect();
            engines[0].bytes()
        }
    };
    tr.close();
    let t3 = Instant::now();
    let set_up = SetUp {
        new_s: (t1 - t0).as_secs_f64(),
        table_s: (t2 - t1).as_secs_f64(),
        engines_s: (t3 - t2).as_secs_f64(),
        engine_bytes,
        table_bytes,
    };
    let instance = Instance {
        spec,
        seed,
        workload,
    };
    (instance, set_up)
}

/// How one untraced round is run; [`Instance::shape`] is the workload's
/// own end-to-end configuration.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Worker threads.
    pub threads: usize,
    /// Generations (VMC: blocks).
    pub steps: usize,
    /// Driver and batching.
    pub drive: Drive,
    /// Code version (`Current` everywhere but the Table-2 comparison).
    pub code: CodeVersion,
}

/// An untraced round with what the program reported about itself.
pub struct RoundRun {
    /// Callback samples and outputs.
    pub round: Round,
    /// Wall seconds of the whole driver call, walker initialisation
    /// included.
    pub loop_seconds: f64,
    /// The program's own kernel profile, merged over threads.
    pub profile: Profile,
}

fn block_sample(clock: Instant, ev: &BlockEvent) -> BlockSample {
    BlockSample {
        t_s: clock.elapsed().as_secs_f64(),
        population: usize::try_from(ev.population).unwrap_or(usize::MAX),
        samples: ev.samples,
        e_block: ev.e_block,
    }
}

impl Instance {
    /// The workload's end-to-end configuration.
    pub fn shape(&self) -> Shape {
        Shape {
            threads: self.spec.threads,
            steps: self.spec.steps,
            drive: self.spec.drive,
            code: CodeVersion::Current,
        }
    }

    /// The `Ref` code version of the paper's Table 2, same shape.
    pub fn reference_code_shape(&self, steps: usize) -> Shape {
        Shape {
            steps,
            code: CodeVersion::Ref,
            ..self.shape()
        }
    }

    fn vmc_params(
        &self,
        blocks: usize,
        sweeps_per_block: usize,
        measure_every: usize,
    ) -> VmcParams {
        VmcParams {
            blocks,
            steps_per_block: sweeps_per_block,
            tau: self.spec.tau,
            measure_every,
            batching: Batching::PerWalker,
        }
    }

    fn dmc_params(&self, steps: usize, batching: Batching) -> DmcParams {
        DmcParams {
            steps,
            warmup: self.spec.warmup,
            tau: self.spec.tau,
            target_population: self.spec.walkers,
            recompute_every: RECOMPUTE_EVERY,
            seed: self.seed ^ BRANCH_SEED_MASK,
            batching,
        }
    }

    fn fresh_walkers(&self) -> Vec<Walk> {
        initial_population(
            self.workload.initial_positions(),
            self.spec.walkers,
            self.seed,
        )
    }

    /// Runs one untraced round, timed at the driver's `on_block` callback.
    pub fn round(&self, shape: Shape) -> RoundRun {
        let clock = Instant::now();
        let mut blocks = Vec::with_capacity(shape.steps);
        let mut on_block = |ev: &BlockEvent| blocks.push(block_sample(clock, ev));
        match shape.drive {
            Drive::Vmc {
                sweeps_per_block,
                measure_every,
            } => {
                let mut engine = self.workload.build_engine_f32(shape.code);
                let mut walkers = self.fresh_walkers();
                let params = self.vmc_params(shape.steps, sweeps_per_block, measure_every);
                let mut control = RunControl {
                    checkpoint: None,
                    on_block: Some(&mut on_block),
                };
                drain_thread_profile();
                let t0 = Instant::now();
                let result =
                    run_vmc_controlled(&mut engine, &mut walkers, &params, None, &mut control);
                let loop_seconds = t0.elapsed().as_secs_f64();
                let (mean, sem, _) = result.energy.blocking();
                RoundRun {
                    round: Round {
                        blocks,
                        walker_hash: population_digest(&walkers),
                        acceptance: result.acceptance,
                        energy: (mean, sem),
                        walker_bytes: walkers[0].bytes(),
                        stolen_share: 0.0,
                    },
                    loop_seconds,
                    profile: drain_thread_profile(),
                }
            }
            Drive::DmcPerWalker | Drive::DmcCrowd { .. } => {
                let cfg = RunConfig {
                    threads: shape.threads,
                    walkers: self.spec.walkers,
                    steps: shape.steps,
                    warmup: self.spec.warmup,
                    tau: self.spec.tau,
                    seed: self.seed,
                    batching: match shape.drive {
                        Drive::DmcCrowd { size } => Batching::Crowd(size),
                        _ => Batching::PerWalker,
                    },
                    fused_refresh: matches!(shape.drive, Drive::DmcCrowd { .. }),
                };
                let control = BenchControl {
                    resume: None,
                    checkpoint: None,
                    on_block: Some(&mut on_block),
                };
                let out = run_dmc_benchmark_controlled(&self.workload, shape.code, &cfg, control)
                    .expect("a run that resumes from no checkpoint reads no file");
                RoundRun {
                    round: Round {
                        blocks,
                        walker_hash: out.walker_hash,
                        acceptance: out.acceptance,
                        energy: (out.energy.0, out.energy.1),
                        walker_bytes: out.walker_bytes,
                        stolen_share: 0.0,
                    },
                    loop_seconds: out.seconds,
                    profile: out.profile,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// What a traced pass leaves behind besides its spans.
pub struct TracedPass {
    /// Generations (VMC: blocks) completed within the budget.
    pub steps: usize,
    /// Digest of the final population, for the parity check against the
    /// real driver run for the same steps.
    pub digest: u64,
    /// Walkers born in branching.
    pub branch_copies: u64,
    /// Bytes of the checkpoint written from the final state.
    pub checkpoint_bytes: u64,
}

fn wid(index: usize) -> u32 {
    u32::try_from(index).unwrap_or(NO_WALKER - 1)
}

/// `QmcEngine::sweep`, one span per `particles` / `wavefunction` call.
fn sweep_dissected(
    e: &mut Engine,
    tau: f64,
    rng: &mut StdRng,
    tr: &mut Tracer,
    w: u32,
) -> SweepStats {
    let sqrt_tau = tau.sqrt();
    let mut stats = SweepStats::default();
    for iat in 0..e.pset.len() {
        tr.open("particles.prepare_move", w);
        e.pset.prepare_move(iat);
        tr.close();
        tr.open("wavefunction.eval_grad", w);
        let g_old = e.psi.eval_grad(&e.pset, iat);
        tr.close();
        let drift_old = limited_drift(g_old, tau);
        let chi = gaussian_pos(rng) * sqrt_tau;
        let oldpos: Pos<f64> = e.pset.pos(iat).cast();
        let newpos64 = oldpos + drift_old + chi;
        stats.attempted += 1;
        tr.open("particles.make_move", w);
        e.pset.make_move(iat, newpos64.cast());
        tr.close();
        tr.open("wavefunction.calc_ratio_grad", w);
        let (ratio, g_new) = e.psi.calc_ratio_grad(&e.pset, iat);
        tr.close();
        let accept = ratio > 0.0 && ratio.is_finite() && {
            let drift_new = limited_drift(g_new, tau);
            let backward = (oldpos - newpos64 - drift_new).norm2();
            let log_gf_ratio = (chi.norm2() - backward) / (2.0 * tau);
            // qmclint: allow(rng-discipline) — the walker's own stream, drawn exactly where `QmcEngine::sweep` draws it; the parity check proves it.
            rng.random::<f64>() < (ratio * ratio * log_gf_ratio.exp()).min(1.0)
        };
        if accept {
            tr.open("wavefunction.accept_move", w);
            e.psi.accept_move(&e.pset, iat);
            tr.close();
            tr.open("particles.accept_move", w);
            e.pset.accept_move(iat);
            tr.close();
            stats.accepted += 1;
        } else {
            tr.open("wavefunction.reject_move", w);
            e.psi.reject_move(iat);
            tr.close();
            tr.open("particles.reject_move", w);
            e.pset.reject_move(iat);
            tr.close();
        }
    }
    stats
}

/// The Hamiltonian terms of `QmcEngine::measure`, one span each.
fn energy_terms_dissected(e: &mut Engine, rng: &mut StdRng, tr: &mut Tracer, w: u32) -> f64 {
    tr.open("hamiltonian.kinetic", w);
    let kinetic = kinetic_energy(&e.pset);
    tr.close();
    tr.open("hamiltonian.coulomb_ee", w);
    let ee = e.ham.ee.as_ref().map_or(0.0, |c| c.evaluate(&e.pset));
    tr.close();
    tr.open("hamiltonian.coulomb_ei", w);
    let ei = e.ham.ei.as_ref().map_or(0.0, |c| c.evaluate(&e.pset));
    tr.close();
    let nlpp = match e.ham.nlpp.as_ref() {
        Some(c) => {
            tr.open("hamiltonian.nlpp", w);
            let v = c.evaluate(&mut e.pset, &mut e.psi, rng);
            tr.close();
            v
        }
        None => 0.0,
    };
    LocalEnergy {
        kinetic,
        ee,
        ei,
        ii: e.ham.ii,
        nlpp,
    }
    .total()
}

/// `QmcEngine::init_walker`, whole or dissected.
fn init_walker(e: &mut Engine, w: &mut Walk, dissect: bool, tr: &mut Tracer, id: u32) {
    if !dissect {
        tr.open("drivers.init_walker", id);
        e.init_walker(w);
        tr.close();
        return;
    }
    tr.open("drivers.init_walker_dissected", id);
    tr.open("particles.load_positions", id);
    e.pset.load_positions(&w.r);
    tr.close();
    tr.open("wavefunction.evaluate_log", id);
    w.log_psi = e.psi.evaluate_log(&mut e.pset);
    tr.close();
    w.e_local = energy_terms_dissected(e, &mut w.rng, tr, id);
    tr.open("wavefunction.save_state", id);
    e.psi.save_state(&mut w.buffer);
    tr.close();
    tr.close();
}

/// `QmcEngine::load_walker`, whole or dissected.
fn load_walker(e: &mut Engine, w: &mut Walk, dissect: bool, tr: &mut Tracer, id: u32) {
    if !dissect {
        tr.open("drivers.load_walker", id);
        e.load_walker(w);
        tr.close();
        return;
    }
    tr.open("drivers.load_walker_dissected", id);
    tr.open("particles.load_positions", id);
    e.pset.load_positions(&w.r);
    tr.close();
    tr.open("wavefunction.load_state", id);
    e.psi.load_state(&mut w.buffer);
    tr.close();
    tr.close();
}

/// `QmcEngine::refresh_from_scratch`; the evaluation inside is spanned in
/// dissected generations.
fn refresh(e: &mut Engine, dissect: bool, tr: &mut Tracer, id: u32) {
    tr.open("drivers.refresh", id);
    if dissect {
        let before = e.psi.log_value();
        tr.open("wavefunction.evaluate_log", id);
        let after = e.psi.evaluate_log(&mut e.pset);
        tr.close();
        if before.is_finite() && after.is_finite() {
            record_refresh_drift((after - before).abs());
        }
    } else {
        e.refresh_from_scratch();
    }
    tr.close();
}

/// `QmcEngine::sweep`, whole or dissected.
fn sweep(
    e: &mut Engine,
    w: &mut Walk,
    tau: f64,
    dissect: bool,
    tr: &mut Tracer,
    id: u32,
) -> SweepStats {
    tr.open(
        if dissect {
            "drivers.sweep_dissected"
        } else {
            "drivers.sweep"
        },
        id,
    );
    let stats = if dissect {
        sweep_dissected(e, tau, &mut w.rng, tr, id)
    } else {
        e.sweep(tau, &mut w.rng)
    };
    tr.close();
    stats
}

/// `QmcEngine::measure(..).total()`, whole or dissected.
fn measure(e: &mut Engine, w: &mut Walk, dissect: bool, tr: &mut Tracer, id: u32) -> f64 {
    if !dissect {
        tr.open("drivers.measure", id);
        let el = e.measure(&mut w.rng).total();
        tr.close();
        return el;
    }
    tr.open("drivers.measure_dissected", id);
    tr.open("wavefunction.update_gl", id);
    e.psi.update_gl(&mut e.pset);
    tr.close();
    let el = energy_terms_dissected(e, &mut w.rng, tr, id);
    tr.close();
    el
}

/// `QmcEngine::store_walker`, whole or dissected.
fn store_walker(e: &mut Engine, w: &mut Walk, dissect: bool, tr: &mut Tracer, id: u32) {
    if !dissect {
        tr.open("drivers.store_walker", id);
        e.store_walker(w);
        tr.close();
        return;
    }
    tr.open("drivers.store_walker_dissected", id);
    tr.open("particles.store_positions", id);
    e.pset.store_positions(&mut w.r);
    tr.close();
    tr.open("wavefunction.save_state", id);
    e.psi.save_state(&mut w.buffer);
    tr.close();
    w.log_psi = e.psi.log_value();
    tr.close();
}

/// The tail of a DMC walker-step after the sweep: measure, reweight, age,
/// store — as in `parallel_generation` and `CrowdScheduler::generation`.
fn finish_walker_step(
    e: &mut Engine,
    w: &mut Walk,
    stats: SweepStats,
    branch: &BranchController,
    dissect: bool,
    tr: &mut Tracer,
    id: u32,
) {
    let el = measure(e, w, dissect, tr, id);
    w.weight *= branch.weight_factor(w.e_local, el);
    w.age = if stats.accepted == 0 { w.age + 1 } else { 0 };
    w.e_local = el;
    store_walker(e, w, dissect, tr, id);
}

/// The deterministic energy/weight reduction and the shared generation
/// tail (statistics, branching, trial-energy feedback). Returns the
/// walkers born.
fn reduce_and_branch(
    state: &mut DmcState,
    walkers: &mut Vec<Walk>,
    warmup: usize,
    acc: usize,
    att: usize,
    tr: &mut Tracer,
) -> u64 {
    tr.open("drivers.reduce", NO_WALKER);
    let esum = qmc_drivers::det_sum_by(walkers.len(), |i| walkers[i].weight * walkers[i].e_local);
    let wsum = qmc_drivers::det_sum_by(walkers.len(), |i| walkers[i].weight);
    tr.close();
    tr.open("drivers.branch", NO_WALKER);
    state.finish_generation(walkers, warmup, esum, wsum, acc, att);
    tr.close();
    // A branching copy is pushed right before its parent with the parent's
    // configuration, so births are the adjacent pairs with equal positions.
    walkers.windows(2).filter(|p| p[0].r == p[1].r).count() as u64
}

fn mean_local_energy(walkers: &[Walk]) -> f64 {
    walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64
}

/// Writes the final state as a checkpoint with `write`, reads it back with
/// `read` (which returns the walkers restored) and removes the file.
/// Returns the file's size.
fn checkpoint_round_trip(
    path: &str,
    walkers: usize,
    tr: &mut Tracer,
    write: impl FnOnce(&str) -> std::io::Result<()>,
    read: impl FnOnce(&str) -> Result<usize, CheckpointError>,
) -> u64 {
    tr.open("drivers.checkpoint_write", NO_WALKER);
    write(path).expect("checkpoint file is writable");
    tr.close();
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    tr.open("drivers.checkpoint_read", NO_WALKER);
    let restored = read(path).expect("checkpoint just written reads back");
    tr.close();
    assert_eq!(restored, walkers, "checkpoint round trip");
    // Scratch file: a leftover only costs disk, so a failed removal is ignored.
    let _ = std::fs::remove_file(path);
    bytes
}

impl Instance {
    /// Runs the traced pass for about `budget` (at least two generations
    /// past warm-up) and checkpoints its final state to `scratch`.
    pub fn traced_pass(&self, budget: Duration, scratch: &str, tr: &mut Tracer) -> TracedPass {
        // The drivers' workers run with flush-to-zero on; so must this.
        enable_ftz();
        tr.open("trace.pass", NO_WALKER);
        let pass = match self.spec.drive {
            Drive::DmcPerWalker => self.traced_dmc(budget, scratch, tr),
            Drive::DmcCrowd { size } => self.traced_crowd(size, budget, scratch, tr),
            Drive::Vmc {
                sweeps_per_block,
                measure_every,
            } => self.traced_vmc(sweeps_per_block, measure_every, budget, scratch, tr),
        };
        tr.close();
        // Kernel time of the traced pass belongs to no reported profile.
        drain_thread_profile();
        pass
    }

    /// The generation loop every traced DMC pass shares: `generation`
    /// advances all walkers once and returns `(accepted, attempted)`; the
    /// reduction, branching and final checkpoint are common.
    fn traced_dmc_generations(
        &self,
        params: &DmcParams,
        mut walkers: Vec<Walk>,
        budget: Duration,
        scratch: &str,
        tr: &mut Tracer,
        mut generation: impl FnMut(
            &mut [Walk],
            &BranchController,
            bool,
            bool,
            &mut Tracer,
        ) -> (usize, usize),
    ) -> TracedPass {
        let mut state = DmcState::fresh(mean_local_energy(&walkers), params);
        let mut branch_copies = 0;
        let clock = Instant::now();
        while state.step < self.spec.warmup + 2
            || (clock.elapsed() < budget && state.step < params.steps)
        {
            let dissect = state.step.is_multiple_of(2);
            let fresh = state.step.is_multiple_of(params.recompute_every);
            tr.open(
                if params.batching.is_crowd() {
                    "crowd.generation"
                } else {
                    "drivers.generation"
                },
                NO_WALKER,
            );
            let (acc, att) = generation(&mut walkers, &state.branch, dissect, fresh, tr);
            branch_copies +=
                reduce_and_branch(&mut state, &mut walkers, params.warmup, acc, att, tr);
            tr.close();
        }
        let checkpoint_bytes = checkpoint_round_trip(
            scratch,
            walkers.len(),
            tr,
            |path| write_dmc_checkpoint(path, &state, &walkers),
            |path| read_dmc_checkpoint::<f32>(path).map(|(_, restored)| restored.len()),
        );
        TracedPass {
            steps: state.step,
            digest: population_digest(&walkers),
            branch_copies,
            checkpoint_bytes,
        }
    }

    /// `run_dmc_parallel_controlled` on one engine.
    fn traced_dmc(&self, budget: Duration, scratch: &str, tr: &mut Tracer) -> TracedPass {
        let params = self.dmc_params(TRACE_STEP_CAP, Batching::PerWalker);
        let mut engine = self.workload.build_engine_f32(CodeVersion::Current);
        let mut walkers = self.fresh_walkers();
        for (i, w) in walkers.iter_mut().enumerate() {
            init_walker(&mut engine, w, i % 2 == 1, tr, wid(i));
        }
        self.traced_dmc_generations(
            &params,
            walkers,
            budget,
            scratch,
            tr,
            |walkers, branch, dissect, fresh, tr| {
                let (mut acc, mut att) = (0, 0);
                for (i, w) in walkers.iter_mut().enumerate() {
                    let id = wid(i);
                    load_walker(&mut engine, w, dissect, tr, id);
                    if fresh {
                        refresh(&mut engine, dissect, tr, id);
                    }
                    let stats = sweep(&mut engine, w, params.tau, dissect, tr, id);
                    acc += stats.accepted;
                    att += stats.attempted;
                    finish_walker_step(&mut engine, w, stats, branch, dissect, tr, id);
                }
                (acc, att)
            },
        )
    }

    /// `run_dmc_crowd_controlled` on one fused crowd. Undissected
    /// generations drive a real [`Crowd`]; dissected ones transcribe
    /// `Crowd::sweep` and `Crowd::refresh_block` over engines of their own
    /// (a crowd lends out one slot at a time, the batched calls need all).
    fn traced_crowd(
        &self,
        size: usize,
        budget: Duration,
        scratch: &str,
        tr: &mut Tracer,
    ) -> TracedPass {
        let params = self.dmc_params(TRACE_STEP_CAP, Batching::Crowd(size));
        let build = || self.workload.build_engine_f32(CodeVersion::Current);
        let mut crowd = Crowd::new((0..size).map(|_| build()).collect());
        crowd.set_fused_refresh(true);
        let mut slots: Vec<Engine> = (0..size).map(|_| build()).collect();
        let mut walkers = self.fresh_walkers();
        for (i, w) in walkers.iter_mut().enumerate() {
            init_walker(crowd.slot_mut(0), w, i % 2 == 1, tr, wid(i));
        }
        self.traced_dmc_generations(
            &params,
            walkers,
            budget,
            scratch,
            tr,
            |walkers, branch, dissect, fresh, tr| {
                let (mut acc, mut att) = (0, 0);
                for (b, block) in walkers.chunks_mut(size).enumerate() {
                    let nw = block.len();
                    let first = wid(b * size);
                    for (s, w) in block.iter_mut().enumerate() {
                        let e = if dissect {
                            &mut slots[s]
                        } else {
                            crowd.slot_mut(s)
                        };
                        load_walker(e, w, dissect, tr, first + wid(s));
                    }
                    let stats = if dissect {
                        if fresh {
                            tr.open("crowd.refresh_block_dissected", first);
                            refresh_block_dissected(&mut slots[..nw], tr);
                            tr.close();
                        }
                        tr.open("crowd.sweep_dissected", first);
                        let stats = crowd_sweep_dissected(&mut slots[..nw], block, params.tau, tr);
                        tr.close();
                        stats
                    } else {
                        if fresh {
                            tr.open("crowd.refresh_block", first);
                            crowd.refresh_block(nw);
                            tr.close();
                        }
                        tr.open("crowd.sweep", first);
                        let stats = crowd.sweep(block, params.tau);
                        tr.close();
                        stats
                    };
                    for (s, w) in block.iter_mut().enumerate() {
                        acc += stats[s].accepted;
                        att += stats[s].attempted;
                        let e = if dissect {
                            &mut slots[s]
                        } else {
                            crowd.slot_mut(s)
                        };
                        finish_walker_step(e, w, stats[s], branch, dissect, tr, first + wid(s));
                    }
                }
                (acc, att)
            },
        )
    }

    /// `run_vmc_controlled`; a "generation" is a block.
    fn traced_vmc(
        &self,
        sweeps_per_block: usize,
        measure_every: usize,
        budget: Duration,
        scratch: &str,
        tr: &mut Tracer,
    ) -> TracedPass {
        let params = self.vmc_params(TRACE_STEP_CAP, sweeps_per_block, measure_every);
        let mut engine = self.workload.build_engine_f32(CodeVersion::Current);
        let mut walkers = self.fresh_walkers();
        for (i, w) in walkers.iter_mut().enumerate() {
            init_walker(&mut engine, w, i % 2 == 1, tr, wid(i));
        }
        let mut state = VmcState::fresh();
        let clock = Instant::now();
        while state.block < self.spec.warmup + 2
            || (clock.elapsed() < budget && state.block < params.blocks)
        {
            let dissect = state.block.is_multiple_of(2);
            tr.open("drivers.generation", NO_WALKER);
            for (i, w) in walkers.iter_mut().enumerate() {
                let id = wid(i);
                load_walker(&mut engine, w, dissect, tr, id);
                refresh(&mut engine, dissect, tr, id);
                for step in 0..params.steps_per_block {
                    let stats = sweep(&mut engine, w, params.tau, dissect, tr, id);
                    state.accepted += stats.accepted;
                    state.attempted += stats.attempted;
                    state.samples += 1;
                    if step % params.measure_every == 0 {
                        w.e_local = measure(&mut engine, w, dissect, tr, id);
                        state.energy.push(w.e_local, 1.0);
                    }
                }
                store_walker(&mut engine, w, dissect, tr, id);
            }
            state.block += 1;
            tr.close();
        }
        let checkpoint_bytes = checkpoint_round_trip(
            scratch,
            walkers.len(),
            tr,
            |path| write_vmc_checkpoint(path, &state, &walkers),
            |path| read_vmc_checkpoint::<f32>(path).map(|(_, restored)| restored.len()),
        );
        TracedPass {
            steps: state.block,
            digest: population_digest(&walkers),
            branch_copies: 0,
            checkpoint_bytes,
        }
    }
}

/// `Crowd::refresh_block` with fusion on: one batched from-scratch
/// evaluation for the loaded slots.
fn refresh_block_dissected(slots: &mut [Engine], tr: &mut Tracer) {
    let nw = slots.len();
    let mut before = Vec::with_capacity(nw);
    let mut psis = Vec::with_capacity(nw);
    let mut psets = Vec::with_capacity(nw);
    for e in slots.iter_mut() {
        before.push(e.psi.log_value());
        let QmcEngine { pset, psi, .. } = e;
        psis.push(psi);
        psets.push(pset);
    }
    let mut logs = vec![0.0; nw];
    tr.open_batch("wavefunction.evaluate_log", nw);
    TrialWaveFunction::mw_evaluate_log(&mut psis, &mut psets, &mut logs);
    tr.close();
    for (&after, &bef) in logs.iter().zip(&before) {
        if bef.is_finite() && after.is_finite() {
            record_refresh_drift((after - bef).abs());
        }
    }
}

fn split_psi_pset(
    slots: &mut [Engine],
) -> (Vec<&mut TrialWaveFunction<f32>>, Vec<&ParticleSet<f32>>) {
    let mut psis = Vec::with_capacity(slots.len());
    let mut psets = Vec::with_capacity(slots.len());
    for e in slots.iter_mut() {
        let QmcEngine { pset, psi, .. } = e;
        psis.push(psi);
        psets.push(&*pset);
    }
    (psis, psets)
}

/// `Crowd::sweep`: the lock-step sweep, one span per batched stage (its
/// work items are the walkers of the block) and per-slot resolution.
fn crowd_sweep_dissected(
    slots: &mut [Engine],
    walkers: &mut [Walk],
    tau: f64,
    tr: &mut Tracer,
) -> Vec<SweepStats> {
    let nw = walkers.len();
    let mut stats = vec![SweepStats::default(); nw];
    let sqrt_tau = tau.sqrt();
    let zero: Pos<f64> = Pos::zero();
    let mut g = vec![zero; nw];
    let mut ratios = vec![1.0; nw];
    let mut oldpos = vec![zero; nw];
    let mut newpos = vec![zero; nw];
    let mut chi = vec![zero; nw];
    let mut npt: Vec<Pos<f32>> = vec![Pos::zero(); nw];
    let mut accept = vec![false; nw];
    for iat in 0..slots[0].pset.len() {
        {
            let mut psets: Vec<&mut ParticleSet<f32>> =
                slots.iter_mut().map(|e| &mut e.pset).collect();
            tr.open_batch("particles.prepare_move", nw);
            ParticleSet::mw_prepare_moves(&mut psets, iat);
            tr.close();
        }
        {
            let (mut psis, psets) = split_psi_pset(slots);
            tr.open_batch("wavefunction.eval_grad", nw);
            TrialWaveFunction::mw_eval_grad(&mut psis, &psets, iat, &mut g);
            tr.close();
        }
        for (s, w) in walkers.iter_mut().enumerate() {
            let drift_old = limited_drift(g[s], tau);
            chi[s] = gaussian_pos(&mut w.rng) * sqrt_tau;
            oldpos[s] = slots[s].pset.pos(iat).cast();
            newpos[s] = oldpos[s] + drift_old + chi[s];
            stats[s].attempted += 1;
            npt[s] = newpos[s].cast();
        }
        {
            let mut psets: Vec<&mut ParticleSet<f32>> =
                slots.iter_mut().map(|e| &mut e.pset).collect();
            tr.open_batch("particles.make_move", nw);
            ParticleSet::mw_make_moves(&mut psets, iat, &npt);
            tr.close();
        }
        {
            let (mut psis, psets) = split_psi_pset(slots);
            tr.open_batch("wavefunction.calc_ratio_grad", nw);
            TrialWaveFunction::mw_ratio_grad(&mut psis, &psets, iat, &mut ratios, &mut g);
            tr.close();
        }
        for (s, w) in walkers.iter_mut().enumerate() {
            accept[s] = ratios[s] > 0.0 && ratios[s].is_finite() && {
                let drift_new = limited_drift(g[s], tau);
                let backward = (oldpos[s] - newpos[s] - drift_new).norm2();
                let log_gf_ratio = (chi[s].norm2() - backward) / (2.0 * tau);
                // qmclint: allow(rng-discipline) — the walker's own stream, drawn exactly where `Crowd::sweep` draws it; the parity check proves it.
                w.rng.random::<f64>() < (ratios[s] * ratios[s] * log_gf_ratio.exp()).min(1.0)
            };
            stats[s].accepted += usize::from(accept[s]);
        }
        {
            let (mut psis, psets) = split_psi_pset(slots);
            // Accepts and restores in one batched call; recorded under the
            // accept name, which is what nearly every item does in DMC.
            tr.open_batch("wavefunction.accept_move", nw);
            TrialWaveFunction::mw_accept_restore(&mut psis, &psets, iat, &accept);
            tr.close();
        }
        for (s, &acc) in accept.iter().enumerate() {
            if acc {
                tr.open("particles.accept_move", wid(s));
                slots[s].pset.accept_move(iat);
            } else {
                tr.open("particles.reject_move", wid(s));
                slots[s].pset.reject_move(iat);
            }
            tr.close();
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Direct measurements of single layers
// ---------------------------------------------------------------------------

/// Direct `linalg` timings at the determinant size of a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinalgTimes {
    /// From-scratch transposed inverse with log-determinant, milliseconds.
    pub invert_ms: f64,
    /// One determinant ratio against an inverse row, nanoseconds.
    pub det_ratio_row_ns: f64,
    /// One Sherman-Morrison update, microseconds.
    pub sm_update_us: f64,
    /// One delayed-update accept (delay 16) with its ratio, the flushes
    /// amortised, microseconds.
    pub delayed_accept_us: f64,
}

/// Times the determinant kernels directly on an `n x n` f32 matrix.
pub fn linalg_times(n: usize, seed: u64) -> LinalgTimes {
    // xorshift fill, diagonally dominated so every inverse exists.
    let mut state = seed | 1;
    let mut a: Matrix<f32> = Matrix::from_fn(n, n, |i, j| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5;
        x + if i == j { 4.0 } else { 0.0 }
    });
    let t = Instant::now();
    let (minv_t, _, _) =
        transposed_inverse_log_det(&a).expect("diagonally dominant matrix inverts");
    let invert_ms = t.elapsed().as_secs_f64() * 1e3;

    // Each move rescales one diagonal element, alternately up and down, so
    // the matrix stays well conditioned however many moves are timed.
    let scale = |pass: usize| {
        if pass.is_multiple_of(2) {
            1.01
        } else {
            1.0 / 1.01
        }
    };
    let passes = (4096 / n).max(2);

    let mut ratio_calls = 0u32;
    let t = Instant::now();
    for _ in 0..passes * 16 {
        for k in 0..n {
            black_box(det_ratio_row(black_box(&minv_t), k, a.row(k)));
            ratio_calls += 1;
        }
    }
    let det_ratio_row_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(ratio_calls);

    let mut sm = minv_t.clone();
    let mut delayed = DelayedInverse::new(minv_t, 16);
    let mut inv_row = vec![0.0f32; n];
    let (mut sm_s, mut delayed_s) = (0.0, 0.0);
    for pass in 0..passes {
        for k in 0..n {
            a[(k, k)] *= scale(pass);
            let t = Instant::now();
            let ratio = det_ratio_row(&sm, k, a.row(k));
            sherman_morrison_update(&mut sm, k, a.row(k), ratio);
            sm_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(delayed.ratio_with_inv_row(k, a.row(k), &mut inv_row));
            delayed.accept(k, a.row(k));
            delayed_s += t.elapsed().as_secs_f64();
        }
    }
    black_box((&sm, delayed.minv_t()));
    let moves = (passes * n) as f64;
    LinalgTimes {
        invert_ms,
        det_ratio_row_ns,
        sm_update_us: sm_s * 1e6 / moves,
        delayed_accept_us: delayed_s * 1e6 / moves,
    }
}

/// Machine ceilings and timer cost measured in this process.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// Peak single-precision GFLOP/s of one thread.
    pub peak_gflops: f64,
    /// Streaming bandwidth of one thread in GB/s.
    pub stream_gbs: f64,
    /// Cost of one empty `time_kernel` scope in nanoseconds.
    pub timer_scope_ns: f64,
}

/// Probes the machine's single-thread ceilings and the kernel timer.
pub fn machine() -> Machine {
    const CALLS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        time_kernel(Kernel::Other, || black_box(()));
    }
    let timer_scope_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
    drain_thread_profile();
    let m = probe_machine();
    Machine {
        peak_gflops: m.peak_sp_gflops,
        stream_gbs: m.bandwidth_gbs,
        timer_scope_ns,
    }
}

/// One row of the program's own kernel profile.
#[derive(Clone, Copy, Debug)]
pub struct KernelRow {
    /// Kernel label.
    pub label: &'static str,
    /// Timed scopes.
    pub calls: u64,
    /// Seconds inside them, summed over threads.
    pub seconds: f64,
    /// Model-counted FLOPs (computed, not measured).
    pub flops: u64,
    /// Model-counted bytes moved (computed, not measured).
    pub bytes: u64,
}

/// The profile's kernel categories except `Other`, in display order.
pub fn kernel_rows(profile: &Profile) -> Vec<KernelRow> {
    ALL_KERNELS
        .iter()
        .filter(|&&k| k != Kernel::Other)
        .map(|&k| {
            let s = profile.get(k);
            KernelRow {
                label: k.label(),
                calls: s.calls,
                seconds: s.seconds(),
                flops: s.flops,
                bytes: s.bytes,
            }
        })
        .collect()
}

/// Labels of [`kernel_rows`], for the metric list.
pub fn kernel_labels() -> Vec<&'static str> {
    kernel_rows(&Profile::default())
        .iter()
        .map(|r| r.label)
        .collect()
}
