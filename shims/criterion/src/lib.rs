//! Minimal offline stand-in for `criterion`.
//!
//! Implements the group / `BenchmarkId` / `Bencher::iter` surface the bench
//! suite uses, with a plain wall-clock measurement loop: warm up briefly,
//! then run timed batches and report the best (minimum-noise) mean ns/iter.
//!
//! CLI behavior (args after `--` under `cargo bench`):
//!   `--test`      run every benchmark body exactly once (CI smoke mode)
//!   `<substring>` only run benchmarks whose id contains the substring
//! Unknown `--flags` are ignored so harness flags cargo forwards are safe.

#![forbid(unsafe_code)]
// Vendored stand-in: the API shape (names, signatures, by-value arguments)
// mirrors the external crate verbatim, so pedantic style lints don't apply.
#![allow(clippy::pedantic)]

use std::time::{Duration, Instant};

pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            test_mode: false,
            filter: None,
            measurement: Duration::from_millis(400),
        }
    }
}

impl Criterion {
    /// Parses harness args (everything cargo forwards after `--`).
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                s if s.starts_with("--") => {}
                s => c.filter = Some(s.to_string()),
            }
        }
        c
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            bytes_per_iter: None,
            _measurement: std::marker::PhantomData,
        }
    }

    pub fn bench_function<I: Into<BenchmarkId>>(&mut self, id: I, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        self.run_one(&id.full, None, &mut f);
    }

    fn run_one(&mut self, id: &str, bytes_per_iter: Option<u64>, f: &mut dyn FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            measurement: self.measurement,
            ns_per_iter: 0.0,
            iters: 0,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {id} ... ok");
        } else if bencher.iters > 0 {
            // Bytes per nanosecond is GB/s.
            let rate = bytes_per_iter
                .map(|b| format!("  {:.2} GB/s", b as f64 / bencher.ns_per_iter))
                .unwrap_or_default();
            println!(
                "{id:<48} {:>12.1} ns/iter ({} iters){rate}",
                bencher.ns_per_iter, bencher.iters
            );
        }
    }
}

/// Measurement markers (the shim only measures wall-clock time; the type
/// parameter exists so signatures written against real criterion compile).
pub mod measurement {
    pub struct WallTime;
}

/// Work done by one iteration, for the rate column (`group.throughput`).
pub enum Throughput {
    Bytes(u64),
}

pub struct BenchmarkGroup<'c, M = measurement::WallTime> {
    criterion: &'c mut Criterion,
    name: String,
    bytes_per_iter: Option<u64>,
    _measurement: std::marker::PhantomData<M>,
}

impl<M> BenchmarkGroup<'_, M> {
    /// Accepted for API compatibility; the shim sizes runs by wall-clock
    /// budget, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks of this group from here on also report GB/s.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Bytes(b) = t;
        self.bytes_per_iter = Some(b);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.criterion.measurement = t;
        self
    }

    pub fn bench_function<I: Into<BenchmarkId>>(
        &mut self,
        id: I,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.full);
        self.criterion.run_one(&full, self.bytes_per_iter, &mut f);
        self
    }

    pub fn finish(self) {}
}

pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            full: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { full: s }
    }
}

pub struct Bencher {
    test_mode: bool,
    measurement: Duration,
    ns_per_iter: f64,
    iters: u64,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.test_mode {
            std::hint::black_box(routine());
            self.iters = 1;
            return;
        }
        // Warm up and estimate a batch size targeting ~1ms per batch.
        let warmup = Duration::from_millis(60);
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warmup.as_secs_f64() / warm_iters.max(1) as f64;
        let batch = ((1e-3 / per_iter) as u64).clamp(1, 1 << 24);

        // Timed batches until the measurement budget is spent; report the
        // fastest batch to suppress scheduling noise.
        let mut best = f64::INFINITY;
        let mut total_iters = 0u64;
        let budget = Instant::now();
        while budget.elapsed() < self.measurement || total_iters == 0 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            best = best.min(ns);
            total_iters += batch;
        }
        self.ns_per_iter = best;
        self.iters = total_iters;
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_once() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        let mut count = 0u64;
        let mut group = c.benchmark_group("g");
        group.bench_function(BenchmarkId::new("f", 1), |b| b.iter(|| count += 1));
        group.finish();
        assert_eq!(count, 1);
    }

    #[test]
    fn filter_skips_unmatched() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("wanted".into()),
            ..Criterion::default()
        };
        let mut count = 0u64;
        c.bench_function("other", |b| b.iter(|| count += 1));
        assert_eq!(count, 0);
        c.bench_function("wanted_bench", |b| b.iter(|| count += 1));
        assert_eq!(count, 1);
    }
}
