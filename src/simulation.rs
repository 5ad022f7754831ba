//! High-level simulation builder: benchmark runs in a few lines.
//!
//! ```
//! use qmc::prelude::*;
//! use qmc::simulation::Simulation;
//!
//! let result = Simulation::new(Benchmark::NiO32)
//!     .code(CodeVersion::Current)
//!     .threads(2)
//!     .walkers(4)
//!     .steps(4)
//!     .run();
//! assert!(result.throughput() > 0.0);
//! ```

use qmc_workloads::{
    run_dmc_benchmark, Benchmark, CodeVersion, RunConfig, RunOutcome, Size, Workload,
};

/// Fluent builder around [`run_dmc_benchmark`].
pub struct Simulation {
    benchmark: Benchmark,
    size: Size,
    code: CodeVersion,
    cfg: RunConfig,
}

impl Simulation {
    /// Starts a simulation of the given paper benchmark at scaled size
    /// with the `Current` code version.
    pub fn new(benchmark: Benchmark) -> Self {
        Self {
            benchmark,
            size: Size::Scaled,
            code: CodeVersion::Current,
            cfg: RunConfig::default(),
        }
    }

    /// Selects the code version (Ref / Ref+MP / Current / ...).
    pub fn code(mut self, code: CodeVersion) -> Self {
        self.code = code;
        self
    }

    /// Full (paper-sized) problem instead of the scaled default.
    pub fn full_size(mut self) -> Self {
        self.size = Size::Full;
        self
    }

    /// Number of worker threads.
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.threads = t;
        self
    }

    /// Target walker population.
    pub fn walkers(mut self, w: usize) -> Self {
        self.cfg.walkers = w;
        self
    }

    /// DMC generations.
    pub fn steps(mut self, s: usize) -> Self {
        self.cfg.steps = s;
        self
    }

    /// Warmup generations excluded from statistics.
    pub fn warmup(mut self, w: usize) -> Self {
        self.cfg.warmup = w;
        self
    }

    /// Imaginary time step.
    pub fn tau(mut self, tau: f64) -> Self {
        self.cfg.tau = tau;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Builds the workload and runs DMC, returning the outcome.
    pub fn run(self) -> RunOutcome {
        let workload = Workload::new(self.benchmark, self.size, self.cfg.seed);
        run_dmc_benchmark(&workload, self.code, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_settings() {
        let s = Simulation::new(Benchmark::Graphite)
            .code(CodeVersion::Ref)
            .threads(2)
            .walkers(3)
            .steps(4)
            .warmup(1)
            .tau(0.003)
            .seed(9);
        assert_eq!(s.cfg.threads, 2);
        assert_eq!(s.cfg.walkers, 3);
        assert_eq!(s.cfg.steps, 4);
        assert_eq!(s.cfg.warmup, 1);
        assert_eq!(s.cfg.seed, 9);
        assert_eq!(s.code, CodeVersion::Ref);
    }
}
