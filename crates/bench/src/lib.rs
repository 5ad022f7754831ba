//! # qmc-bench
//!
//! Benchmark harness: one binary per figure/table of the paper's
//! evaluation (§8) plus Criterion kernel benches. Each binary prints the
//! data series the corresponding paper figure plots; `--full` switches
//! from the scaled default to paper-sized problems.

use miniqmc::{at_least, Options};
use qmc_workloads::{Benchmark, CodeVersion, RunConfig, Size, Workload};

/// Common harness configuration parsed from `std::env::args`.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Paper-sized problems instead of scaled ones.
    pub full: bool,
    /// Worker threads for single-node runs.
    pub threads: usize,
    /// Target walker population.
    pub walkers: usize,
    /// Measured DMC generations.
    pub steps: usize,
    /// Master seed.
    pub seed: u64,
    /// Repetitions per measurement; the best (max-throughput) rep is
    /// reported to suppress noisy-neighbour variance on shared hosts.
    pub reps: usize,
}

impl HarnessConfig {
    /// Parses `--full`, `--threads N`, `--walkers N`, `--steps N`,
    /// `--seed N` and `--reps N` from the process arguments. A value that
    /// does not parse, an option without its value or a count below 1 is a
    /// usage error: one line naming the option on stderr and exit 2,
    /// before anything is built.
    pub fn from_env() -> Self {
        let opts = Options::from_env();
        Self::from_options(&opts).unwrap_or_else(|msg| opts.fail_usage(&msg))
    }

    fn from_options(opts: &Options) -> Result<Self, String> {
        let count =
            |key: &str, default: usize| opts.try_get(key, default).and_then(at_least(key, 1));
        let full = opts.has_flag("full");
        let default_threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
        Ok(Self {
            full,
            threads: count("threads", default_threads)?,
            walkers: count("walkers", 8)?,
            steps: count("steps", if full { 10 } else { 8 })?,
            seed: opts.try_get("seed", 42)?,
            reps: count("reps", 2)?,
        })
    }

    /// Problem size implied by `--full`.
    pub fn size(&self) -> Size {
        if self.full {
            Size::Full
        } else {
            Size::Scaled
        }
    }

    /// Run configuration for [`qmc_workloads::run_dmc_benchmark`].
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            threads: self.threads,
            walkers: self.walkers,
            steps: self.steps,
            warmup: (self.steps / 4).max(1),
            tau: 0.005,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Builds the workload for a benchmark at the configured size.
    pub fn workload(&self, b: Benchmark) -> Workload {
        Workload::new(b, self.size(), self.seed)
    }
}

/// Runs a benchmark `cfg.reps` times and returns the best-throughput
/// outcome (timing noise suppression; statistics/memory are identical
/// across reps because the Monte Carlo streams are seeded).
pub fn run_best(
    workload: &Workload,
    code: CodeVersion,
    cfg: &HarnessConfig,
) -> qmc_workloads::RunOutcome {
    run_best_batched(workload, code, cfg, qmc_workloads::Batching::PerWalker)
}

/// [`run_best`] with an explicit walker-batching mode, for comparing the
/// per-walker drive against lock-step crowds of the same population.
pub fn run_best_batched(
    workload: &Workload,
    code: CodeVersion,
    cfg: &HarnessConfig,
    batching: qmc_workloads::Batching,
) -> qmc_workloads::RunOutcome {
    let rc = RunConfig {
        batching,
        // The bench harness measures the batched code path, so crowd runs
        // opt into the fused block refresh — this is what keeps the
        // `Bspline-mw-vgl` column live in the reports.
        fused_refresh: matches!(batching, qmc_workloads::Batching::Crowd(_)),
        ..cfg.run_config()
    };
    let mut best: Option<qmc_workloads::RunOutcome> = None;
    for _ in 0..cfg.reps.max(1) {
        let out = qmc_workloads::run_dmc_benchmark(workload, code, &rc);
        let better = match &best {
            Some(b) => out.throughput() > b.throughput(),
            None => true,
        };
        if better {
            best = Some(out);
        }
    }
    best.unwrap()
}

/// Runs a benchmark like [`run_best`] and returns the structured
/// [`qmc_instrument::RunReport`] — the same aggregate `miniqmc --profile
/// json` emits, so every figure/table binary reports from one source of
/// truth instead of private counters.
pub fn run_report(
    workload: &Workload,
    code: CodeVersion,
    cfg: &HarnessConfig,
) -> qmc_instrument::RunReport {
    run_report_batched(workload, code, cfg, qmc_workloads::Batching::PerWalker)
}

/// [`run_report`] with an explicit walker-batching mode.
pub fn run_report_batched(
    workload: &Workload,
    code: CodeVersion,
    cfg: &HarnessConfig,
    batching: qmc_workloads::Batching,
) -> qmc_instrument::RunReport {
    let rc = RunConfig {
        batching,
        fused_refresh: matches!(batching, qmc_workloads::Batching::Crowd(_)),
        ..cfg.run_config()
    };
    run_best_batched(workload, code, cfg, batching).report(workload, &rc)
}

/// GiB formatting helper.
pub fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// MiB formatting helper.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Runs a simulated multi-rank DMC for any code version (precision
/// dispatch), returning `(seconds, samples, throughput)`.
pub fn multi_rank_throughput(
    workload: &Workload,
    code: CodeVersion,
    ranks: usize,
    total_population: usize,
    steps: usize,
    seed: u64,
) -> qmc_drivers::MultiRankResult {
    use qmc_drivers::{run_multi_rank, MultiRankParams};
    let params = MultiRankParams {
        ranks,
        total_population,
        steps,
        warmup: (steps / 4).max(1),
        tau: 0.005,
        seed,
    };
    let init = workload.initial_positions();
    if code.single_precision() {
        run_multi_rank(|_rank| workload.build_engine_f32(code), init, &params)
    } else {
        run_multi_rank(|_rank| workload.build_engine_f64(code), init, &params)
    }
}
