//! # qmc-bench
//!
//! Benchmark harness for the paper's evaluation (§8) plus Criterion
//! kernel benches. `ladder` runs each (workload, code version, batching)
//! rung of the code ladder once and prints Fig. 2, 7, 8, 9, Table 2 and
//! the ablation from those runs; `table1_workloads`,
//! `fig3_jastrow_functors` and `fig1_strong_scaling` print the other
//! three, and `experiments` runs all four. `--full` switches from the
//! scaled default to paper-sized problems.

use miniqmc::{at_least, Options};
use qmc_instrument::RunReport;
use qmc_workloads::{Batching, Benchmark, CodeVersion, RunConfig, Size, Workload};

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

/// Runs a DMC benchmark `cfg.reps` times and returns the
/// best-throughput run's [`RunReport`] — the same aggregate `miniqmc`
/// renders. `ladder` calls it once per rung, and every section that reads
/// the rung renders that one report. The best rep suppresses timing
/// noise; statistics and memory are identical across reps because the
/// Monte Carlo streams are seeded. Crowd runs opt into the fused block
/// refresh, which keeps the `Bspline-mw-vgl` column live.
pub fn run_report(
    workload: &Workload,
    code: CodeVersion,
    cfg: &HarnessConfig,
    batching: Batching,
) -> RunReport {
    let rc = RunConfig {
        batching,
        fused_refresh: matches!(batching, Batching::Crowd(_)),
        ..cfg.run_config()
    };
    (0..cfg.reps.max(1))
        .map(|_| qmc_workloads::run_dmc_benchmark(workload, code, &rc).report(workload, &rc))
        .max_by(|a, b| a.throughput().total_cmp(&b.throughput()))
        .expect("at least one rep")
}

/// GiB formatting helper.
pub fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// MiB formatting helper.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
