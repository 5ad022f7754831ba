//! The benchmark runner shared by every figure/table harness: builds a
//! thread crew of engines or crowds for a (workload, code version) pair,
//! runs DMC (or VMC), and reports the paper's figures of merit —
//! throughput `P = M <N_w> / T_CPU` (§6.2), the merged per-kernel profile,
//! and memory accounting.

use crate::build::{CodeVersion, Workload};
use qmc_containers::Real;
use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, population_digest, read_dmc_checkpoint, read_vmc_checkpoint, run_dmc,
    run_vmc, Batching, CheckpointError, CheckpointSpec, Crew, DmcParams, DmcResult, DriverKind,
    QmcEngine, RunControl, VmcParams,
};
use qmc_instrument::{
    take_drift_stats, take_sanitizer_stats, BlockEvent, DriftStats, Profile, RunReport,
    SanitizerStats,
};

/// Execution configuration for one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Worker threads (engines).
    pub threads: usize,
    /// Target walker population.
    pub walkers: usize,
    /// DMC generations.
    pub steps: usize,
    /// Generations excluded from statistics.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Master seed.
    pub seed: u64,
    /// Walker batching: per-walker engine streaming or lock-step crowds.
    pub batching: Batching,
    /// Fused block refreshes for crowd batching: recomputes route through
    /// the multi-walker SPO kernel (`Bspline-mw-vgl`) instead of the
    /// per-slot scalar path. Off by default — the fused spline kernel
    /// regroups floating point, so it gives up the crowd's bitwise parity
    /// with the per-walker drivers. Ignored for per-walker batching.
    pub fused_refresh: bool,
}

impl RunConfig {
    /// The VMC run this configuration describes: `steps` sweeps in blocks
    /// of four (one from-scratch recompute per block), measured every
    /// sweep, with the time step floored at a VMC-sized 0.05.
    pub fn vmc_params(&self) -> VmcParams {
        VmcParams {
            blocks: (self.steps / 4).max(1),
            steps_per_block: 4,
            tau: self.tau.max(0.05),
            measure_every: 1,
            batching: self.batching,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            walkers: 8,
            steps: 12,
            warmup: 2,
            tau: 0.005,
            seed: 0xBE_EF,
            batching: Batching::PerWalker,
            fused_refresh: false,
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Code version label.
    pub label: String,
    /// Wall-clock seconds of the DMC loop (excluding engine construction).
    pub seconds: f64,
    /// Monte Carlo samples generated after warmup.
    pub samples: u64,
    /// Per-kernel profile merged over all threads.
    pub profile: Profile,
    /// Per-thread / per-crowd kernel profiles, in chunk order.
    pub crowd_profiles: Vec<Profile>,
    /// `(mean, error, tau_corr)` of the mixed energy estimator.
    pub energy: (f64, f64, f64),
    /// Move acceptance ratio.
    pub acceptance: f64,
    /// Walker population after each generation.
    pub population: Vec<usize>,
    /// Trial energy after each generation's feedback update.
    pub e_trial_trace: Vec<f64>,
    /// Final trial energy.
    pub e_trial: f64,
    /// Mixed-precision log psi drift observed at from-scratch refreshes.
    pub drift: DriftStats,
    /// Runtime invariant sanitizer counters (all zero unless built with
    /// the `checked` feature).
    pub sanitizer: SanitizerStats,
    /// Bytes of one walker (positions + anonymous buffer).
    pub walker_bytes: usize,
    /// Bytes of one engine (wavefunction internals + distance tables).
    pub engine_bytes: usize,
    /// Bytes of the shared read-only spline table.
    pub table_bytes: usize,
    /// Final walker population.
    pub final_population: usize,
    /// FNV-1a digest of the final walker population (full per-walker
    /// state, RNG streams included) — what the checkpoint-resume parity
    /// gates compare.
    pub walker_hash: u64,
}

impl RunOutcome {
    /// Throughput `P = samples / seconds` (§6.2 figure of merit).
    pub fn throughput(&self) -> f64 {
        // qmclint: allow(precision-cast) — sample counts convert exactly to f64
        // for the throughput figure of merit.
        self.samples as f64 / self.seconds
    }

    /// DMC efficiency `kappa = 1 / (sigma^2 tau_corr T_MC)` (§3): the
    /// figure the paper's throughput gains translate into. Uses the
    /// blocking error's variance and autocorrelation estimates.
    pub fn kappa(&self) -> f64 {
        let (_, err, tau_corr) = self.energy;
        let sigma2 = err * err; // variance of the mean estimate
        if sigma2 > 0.0 && self.seconds > 0.0 {
            1.0 / (sigma2 * tau_corr.max(1.0) * self.seconds)
        } else {
            f64::INFINITY
        }
    }

    /// Total node memory model: shared table + per-thread engines +
    /// per-walker buffers (the paper's `gamma (N_th + N_w) N^2` plus the
    /// read-only table).
    pub fn total_bytes(&self, threads: usize, walkers: usize) -> usize {
        self.table_bytes + threads * self.engine_bytes + walkers * self.walker_bytes
    }

    /// Assembles the structured [`RunReport`] every front-end serializes
    /// (`miniqmc --profile json` and the bench binaries).
    pub fn report(&self, workload: &Workload, cfg: &RunConfig) -> RunReport {
        let (mean, err, tau_corr) = self.energy;
        RunReport {
            benchmark: workload.spec.name.to_string(),
            code: self.label.clone(),
            kernel_backend: qmc_kernels::Backend::current().label().to_string(),
            electrons: workload.num_electrons(),
            ions: workload.num_ions(),
            threads: cfg.threads,
            walkers: cfg.walkers,
            steps: cfg.steps,
            crowd_size: match cfg.batching {
                Batching::PerWalker => 0,
                Batching::Crowd(_) => cfg.batching.crowd_size(),
            },
            seconds: self.seconds,
            samples: self.samples,
            acceptance: self.acceptance,
            energy_mean: mean,
            energy_err: err,
            energy_tau: tau_corr,
            e_trial: self.e_trial,
            population: self.population.clone(),
            e_trial_trace: self.e_trial_trace.clone(),
            profile: self.profile.clone(),
            crowd_profiles: self.crowd_profiles.clone(),
            drift: self.drift,
            sanitizer: self.sanitizer,
            walker_bytes: self.walker_bytes as u64,
            engine_bytes: self.engine_bytes as u64,
            table_bytes: self.table_bytes as u64,
        }
    }
}

/// Checkpoint/resume/telemetry control for a benchmark run.
/// [`BenchControl::default`] is a plain uncontrolled run.
#[derive(Default)]
pub struct BenchControl<'a> {
    /// Resume from this `qmc-checkpoint/1` file instead of initializing
    /// fresh walkers.
    pub resume: Option<&'a str>,
    /// Periodic checkpointing during the run.
    pub checkpoint: Option<CheckpointSpec>,
    /// Per-generation observer (the streaming-telemetry sink).
    pub on_block: Option<&'a mut dyn FnMut(&BlockEvent)>,
}

/// Reads just the completed-step (DMC) or completed-block (VMC) counter
/// of a checkpoint (for the stream `start` record of a resumed run,
/// before the run itself opens the file).
pub fn checkpoint_step(
    path: &str,
    single_precision: bool,
    driver: DriverKind,
) -> Result<u64, CheckpointError> {
    let step = match (driver, single_precision) {
        (DriverKind::Dmc, true) => read_dmc_checkpoint::<f32>(path)?.0.step,
        (DriverKind::Dmc, false) => read_dmc_checkpoint::<f64>(path)?.0.step,
        (DriverKind::Vmc, true) => read_vmc_checkpoint::<f32>(path)?.0.block,
        (DriverKind::Vmc, false) => read_vmc_checkpoint::<f64>(path)?.0.block,
    };
    Ok(step as u64)
}

/// Builds the crew `cfg` describes — `threads` engines, or `threads`
/// crowds under crowd batching — and runs `driver` over it.
fn run_generic<T: Real>(
    mut build_engine: impl FnMut() -> QmcEngine<T>,
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    driver: DriverKind,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    let threads = cfg.threads.max(1);
    match cfg.batching {
        Batching::PerWalker => {
            let mut crew: Vec<QmcEngine<T>> = (0..threads).map(|_| build_engine()).collect();
            run_on_crew(&mut crew, workload, code, cfg, driver, ctl)
        }
        Batching::Crowd(_) => {
            let mut crew = CrowdScheduler::new(threads, cfg.batching.crowd_size())
                .with_fused_refresh(cfg.fused_refresh)
                .build_crowds(build_engine);
            run_on_crew(&mut crew, workload, code, cfg, driver, ctl)
        }
    }
}

fn run_on_crew<T: Real, C: Crew<T>>(
    crew: &mut [C],
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    driver: DriverKind,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    let fresh = || initial_population::<T>(workload.initial_positions(), cfg.walkers, cfg.seed);
    let mut control = RunControl {
        checkpoint: ctl.checkpoint,
        on_block: ctl.on_block,
    };
    // Reset the global drift and sanitizer counters so the run owns what
    // it reports.
    take_drift_stats();
    take_sanitizer_stats();
    let (walkers, res, profile, seconds) = match driver {
        DriverKind::Dmc => {
            let (state, mut walkers) = match ctl.resume.map(read_dmc_checkpoint).transpose()? {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = DmcParams {
                steps: cfg.steps,
                warmup: cfg.warmup,
                tau: cfg.tau,
                target_population: cfg.walkers,
                recompute_every: 16,
                seed: cfg.seed ^ 0xD00D,
                batching: cfg.batching,
            };
            let t0 = std::time::Instant::now();
            let (res, profile) = run_dmc(crew, &mut walkers, &params, state, &mut control)?;
            (walkers, res, profile, t0.elapsed().as_secs_f64())
        }
        DriverKind::Vmc => {
            let (state, mut walkers) = match ctl.resume.map(read_vmc_checkpoint).transpose()? {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = cfg.vmc_params();
            let t0 = std::time::Instant::now();
            let (res, profile) = run_vmc(crew, &mut walkers, &params, state, &mut control)?;
            // VMC has no population dynamics and no trial energy.
            let res = DmcResult {
                energy: res.energy,
                population: Vec::new(),
                acceptance: res.acceptance,
                samples: res.samples,
                e_trial: f64::NAN,
                e_trial_trace: Vec::new(),
            };
            (walkers, res, profile, t0.elapsed().as_secs_f64())
        }
    };

    Ok(RunOutcome {
        label: code.label(),
        seconds,
        samples: res.samples,
        profile: profile.total,
        crowd_profiles: profile.groups,
        energy: res.energy.blocking(),
        acceptance: res.acceptance,
        population: res.population,
        e_trial_trace: res.e_trial_trace,
        e_trial: res.e_trial,
        drift: take_drift_stats(),
        sanitizer: take_sanitizer_stats(),
        walker_bytes: walkers.first().map_or(0, qmc_drivers::Walker::bytes),
        engine_bytes: crew[0].slot_mut(0).bytes(),
        table_bytes: workload.table_bytes(code.single_precision()),
        final_population: walkers.len(),
        walker_hash: population_digest(&walkers),
    })
}

/// Runs a DMC benchmark for any code version, dispatching on precision
/// and on the walker-batching strategy.
pub fn run_dmc_benchmark(workload: &Workload, code: CodeVersion, cfg: &RunConfig) -> RunOutcome {
    run_dmc_benchmark_controlled(workload, code, cfg, BenchControl::default())
        .expect("an uncontrolled run reads and writes no checkpoint")
}

/// [`run_dmc_benchmark`] with checkpoint/resume/telemetry control.
pub fn run_dmc_benchmark_controlled(
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    run_benchmark_controlled(workload, code, cfg, DriverKind::Dmc, ctl)
}

/// Runs `driver` on the workload for any code version, dispatching on
/// precision and on the walker-batching strategy, with
/// checkpoint/resume/telemetry control. A VMC run is `cfg.vmc_params()`;
/// its outcome carries no population or trial-energy trace. The fallible
/// paths are reading the resume checkpoint (wrong precision for the code
/// version, corruption, truncation) and writing a due one — all clean
/// [`CheckpointError`]s.
pub fn run_benchmark_controlled(
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    driver: DriverKind,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    if code.single_precision() {
        let build = || workload.build_engine_f32(code);
        run_generic(build, workload, code, cfg, driver, ctl)
    } else {
        let build = || workload.build_engine_f64(code);
        run_generic(build, workload, code, cfg, driver, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Benchmark, Size};

    #[test]
    fn smoke_run_every_paper_version() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 9);
        let cfg = RunConfig {
            threads: 2,
            walkers: 2,
            steps: 3,
            warmup: 1,
            tau: 0.002,
            seed: 7,
            ..Default::default()
        };
        for code in CodeVersion::paper_ladder() {
            let out = run_dmc_benchmark(&w, code, &cfg);
            assert!(out.seconds > 0.0);
            assert!(out.samples > 0, "{}", out.label);
            assert!(out.energy.0.is_finite(), "{} energy", out.label);
            assert!(out.acceptance > 0.0 && out.acceptance <= 1.0);
            assert!(out.walker_bytes > 0 && out.engine_bytes > 0);
            assert!(out.throughput() > 0.0);
        }
    }

    #[test]
    fn fused_refresh_drives_the_mw_spo_kernel() {
        // The fused block refresh is the product path that keeps the
        // `Bspline-mw-vgl` column live; without it the batched SPO kernel
        // must stay silent (the crowd remains bitwise-per-walker).
        let w = Workload::new(Benchmark::Graphite, Size::Scaled, 5);
        let base = RunConfig {
            threads: 1,
            walkers: 2,
            steps: 3,
            warmup: 1,
            tau: 0.002,
            seed: 7,
            batching: Batching::Crowd(2),
            fused_refresh: false,
        };
        let fused_cfg = RunConfig {
            fused_refresh: true,
            ..base
        };
        let scalar = run_dmc_benchmark(&w, CodeVersion::Current, &base);
        let fused = run_dmc_benchmark(&w, CodeVersion::Current, &fused_cfg);
        let k = qmc_instrument::Kernel::BsplineMwVGL;
        assert_eq!(scalar.profile.get(k).calls, 0, "scalar crowd must not fuse");
        assert!(fused.profile.get(k).calls > 0, "fused crowd must batch SPO");
        assert_eq!(scalar.samples, fused.samples);
        assert!(fused.energy.0.is_finite());
        // Same physics to well under statistical noise: only the FP
        // regrouping of the fused spline kernel separates the runs.
        assert!(
            (scalar.energy.0 - fused.energy.0).abs() < 1e-3,
            "scalar {} vs fused {}",
            scalar.energy.0,
            fused.energy.0
        );
    }

    #[test]
    fn memory_ordering_ref_vs_current() {
        // The headline memory claim: Current walkers are dramatically
        // smaller than Ref walkers (5N^2 -> 5N Jastrow + f64 -> f32).
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 11);
        let cfg = RunConfig {
            threads: 1,
            walkers: 1,
            steps: 2,
            warmup: 0,
            tau: 0.002,
            seed: 3,
            ..Default::default()
        };
        let r = run_dmc_benchmark(&w, CodeVersion::Ref, &cfg);
        let c = run_dmc_benchmark(&w, CodeVersion::Current, &cfg);
        assert!(
            r.walker_bytes > 2 * c.walker_bytes,
            "Ref walker {} vs Current {}",
            r.walker_bytes,
            c.walker_bytes
        );
        assert!(r.table_bytes == 2 * c.table_bytes);
    }
}
