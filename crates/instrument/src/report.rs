//! Structured run reports.
//!
//! One [`RunReport`] aggregates everything a run produces — per-kernel
//! wall time / call counts / modeled FLOPs+bytes, accept ratio, the
//! population and trial-energy trajectories, memory footprint, and
//! mixed-precision drift counters — into a single value that serializes to
//! JSON (hand-rolled, see [`crate::json`]) for `miniqmc --profile json`
//! and the bench binaries, or renders as the Fig. 2-style summary table.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::JsonWriter;
use crate::timer::{KernelStats, Profile, ALL_KERNELS};

/// Schema tag embedded in every report so downstream tooling can detect
/// format changes.
pub const RUN_REPORT_SCHEMA: &str = "qmc-run-report/1";

// ---------------------------------------------------------------------------
// Mixed-precision drift counters
// ---------------------------------------------------------------------------

/// Accumulated |Δ log ψ| statistics from from-scratch recomputes: how far
/// the incrementally-updated (mixed-precision) wavefunction log had
/// drifted from the freshly evaluated value. Large values mean the
/// `recompute_every` hygiene interval is too long for the precision mix.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DriftStats {
    /// Number of refreshes that measured a drift.
    pub refreshes: u64,
    /// Sum of |Δ log ψ| over those refreshes.
    pub sum_abs: f64,
    /// Largest single |Δ log ψ| observed.
    pub max_abs: f64,
}

impl DriftStats {
    /// Mean |Δ log ψ| per refresh (0 when none recorded).
    pub fn mean_abs(&self) -> f64 {
        if self.refreshes > 0 {
            self.sum_abs / self.refreshes as f64
        } else {
            0.0
        }
    }
}

static DRIFT_REFRESHES: AtomicU64 = AtomicU64::new(0);
static DRIFT_SUM_BITS: AtomicU64 = AtomicU64::new(0); // f64 bits
static DRIFT_MAX_BITS: AtomicU64 = AtomicU64::new(0); // f64 bits

/// Records one from-scratch refresh's |Δ log ψ|. Called from the engines'
/// recompute path on any thread; lock-free.
pub fn record_refresh_drift(abs_delta: f64) {
    // Sanitizer boundary: a from-scratch recompute is exactly where
    // mixed-precision corruption becomes observable, so the drift-bound
    // check lives here (no-op without the `checked` feature).
    crate::sanitize::check_drift(abs_delta);
    if !abs_delta.is_finite() {
        return;
    }
    DRIFT_REFRESHES.fetch_add(1, Ordering::Relaxed);
    // f64 accumulation via CAS on the bit pattern.
    let mut cur = DRIFT_SUM_BITS.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + abs_delta).to_bits();
        match DRIFT_SUM_BITS.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
    // Non-negative f64 bit patterns order like the floats themselves.
    DRIFT_MAX_BITS.fetch_max(abs_delta.to_bits(), Ordering::Relaxed);
}

/// Takes and resets the global drift counters. Drivers call this before a
/// run (reset) and after it (capture).
pub fn take_drift_stats() -> DriftStats {
    DriftStats {
        refreshes: DRIFT_REFRESHES.swap(0, Ordering::Relaxed),
        sum_abs: f64::from_bits(DRIFT_SUM_BITS.swap(0, Ordering::Relaxed)),
        max_abs: f64::from_bits(DRIFT_MAX_BITS.swap(0, Ordering::Relaxed)),
    }
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// Everything one run produced, in one serializable value.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Workload name (e.g. `graphite-2x1x1`).
    pub benchmark: String,
    /// Code-version label (optimization-ladder rung).
    pub code: String,
    /// Kernel backend label the run executed with (`reference` / `simd`;
    /// empty when the front-end predates the backend seam).
    pub kernel_backend: String,
    /// Electron count.
    pub electrons: usize,
    /// Ion count.
    pub ions: usize,
    /// Worker thread / crowd count.
    pub threads: usize,
    /// Walker count at start.
    pub walkers: usize,
    /// Measured DMC/VMC steps (after warmup).
    pub steps: usize,
    /// Crowd size (0 for the per-walker drive).
    pub crowd_size: usize,
    /// Total wall-clock seconds for the run loop.
    pub seconds: f64,
    /// Monte Carlo samples generated after warmup.
    pub samples: u64,
    /// Overall acceptance ratio of proposed single-particle moves.
    pub acceptance: f64,
    /// Local-energy mean (Ha).
    pub energy_mean: f64,
    /// Statistical error of the mean (Ha).
    pub energy_err: f64,
    /// Estimated autocorrelation time (steps).
    pub energy_tau: f64,
    /// Final trial energy after population feedback.
    pub e_trial: f64,
    /// Walker population after each step.
    pub population: Vec<usize>,
    /// Trial energy after each step's feedback update.
    pub e_trial_trace: Vec<f64>,
    /// Aggregate per-kernel profile.
    pub profile: Profile,
    /// Per-crowd / per-worker profiles, in chunk order (may be empty).
    pub crowd_profiles: Vec<Profile>,
    /// Mixed-precision log ψ drift observed at from-scratch refreshes.
    pub drift: DriftStats,
    /// Runtime invariant sanitizer counters (all zero unless the build
    /// carries the `checked` feature).
    pub sanitizer: crate::sanitize::SanitizerStats,
    /// Bytes per walker (positions + buffers), model-counted.
    pub walker_bytes: u64,
    /// Bytes for the shared engine state (spline table excluded).
    pub engine_bytes: u64,
    /// Bytes for the read-only B-spline table.
    pub table_bytes: u64,
    /// Bytes of the process's anonymous memory on transparent huge pages at
    /// the end of the run (0 where the kernel does not say).
    pub anon_huge_bytes: u64,
}

fn write_kernel_stats(w: &mut JsonWriter, s: &KernelStats) {
    w.begin_obj();
    w.key("seconds").f64_val(s.seconds());
    w.key("calls").u64_val(s.calls);
    w.key("flops").u64_val(s.flops);
    w.key("bytes").u64_val(s.bytes);
    w.end_obj();
}

fn write_profile(w: &mut JsonWriter, p: &Profile) {
    w.begin_obj();
    for &k in &ALL_KERNELS {
        w.key(k.label());
        write_kernel_stats(w, p.get(k));
    }
    w.end_obj();
}

impl RunReport {
    /// Throughput `P = samples / seconds` (§6.2 figure of merit).
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.samples as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Serializes the full report as a JSON object. Every kernel category
    /// appears under `"kernels"`, including ones with zero time, so
    /// consumers can rely on the key set.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema").str_val(RUN_REPORT_SCHEMA);
        w.key("benchmark").str_val(&self.benchmark);
        w.key("code").str_val(&self.code);
        w.key("kernel_backend").str_val(&self.kernel_backend);
        w.key("electrons").u64_val(self.electrons as u64);
        w.key("ions").u64_val(self.ions as u64);
        w.key("threads").u64_val(self.threads as u64);
        w.key("walkers").u64_val(self.walkers as u64);
        w.key("steps").u64_val(self.steps as u64);
        w.key("crowd_size").u64_val(self.crowd_size as u64);
        w.key("seconds").f64_val(self.seconds);
        w.key("samples").u64_val(self.samples);
        w.key("throughput_samples_per_s")
            .f64_val(if self.seconds > 0.0 {
                self.samples as f64 / self.seconds
            } else {
                0.0
            });
        w.key("acceptance").f64_val(self.acceptance);
        w.key("energy");
        w.begin_obj();
        w.key("mean").f64_val(self.energy_mean);
        w.key("err").f64_val(self.energy_err);
        w.key("tau").f64_val(self.energy_tau);
        w.end_obj();
        w.key("e_trial").f64_val(self.e_trial);
        w.key("population");
        w.begin_arr();
        for &p in &self.population {
            w.u64_val(p as u64);
        }
        w.end_arr();
        w.key("e_trial_trace");
        w.begin_arr();
        for &e in &self.e_trial_trace {
            w.f64_val(e);
        }
        w.end_arr();
        w.key("kernels");
        write_profile(&mut w, &self.profile);
        w.key("crowd_kernels");
        w.begin_arr();
        for p in &self.crowd_profiles {
            write_profile(&mut w, p);
        }
        w.end_arr();
        w.key("mp_drift");
        w.begin_obj();
        w.key("refreshes").u64_val(self.drift.refreshes);
        w.key("mean_abs_dlogpsi").f64_val(self.drift.mean_abs());
        w.key("max_abs_dlogpsi").f64_val(self.drift.max_abs);
        w.end_obj();
        w.key("sanitizer");
        w.begin_obj();
        w.key("enabled")
            .bool_val(crate::sanitize::sanitizer_enabled());
        w.key("total_checks").u64_val(self.sanitizer.total_checks());
        w.key("total_violations")
            .u64_val(self.sanitizer.total_violations());
        w.key("checks");
        w.begin_obj();
        for &k in &crate::sanitize::ALL_CHECKS {
            w.key(k.label());
            w.begin_obj();
            w.key("run").u64_val(self.sanitizer.checks_run[k as usize]);
            w.key("violations")
                .u64_val(self.sanitizer.violations[k as usize]);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.key("memory");
        w.begin_obj();
        w.key("walker_bytes").u64_val(self.walker_bytes);
        w.key("engine_bytes").u64_val(self.engine_bytes);
        w.key("table_bytes").u64_val(self.table_bytes);
        w.key("anon_huge_bytes").u64_val(self.anon_huge_bytes);
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    /// Renders the human-readable summary: run header, energy line, and
    /// the Fig. 2-style hot-spot table.
    pub fn to_summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run: {} [{}{}]  e={} i={}  threads={} walkers={} steps={}{}",
            self.benchmark,
            self.code,
            if self.kernel_backend.is_empty() {
                String::new()
            } else {
                format!(", backend={}", self.kernel_backend)
            },
            self.electrons,
            self.ions,
            self.threads,
            self.walkers,
            self.steps,
            if self.crowd_size > 0 {
                format!(" crowd={}", self.crowd_size)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "energy: {:.6} +/- {:.6} Ha (tau={:.2})  e_trial={:.6}  acceptance={:.4}",
            self.energy_mean, self.energy_err, self.energy_tau, self.e_trial, self.acceptance
        );
        let _ = writeln!(
            out,
            "time: {:.3} s  samples: {}  throughput: {:.1}/s",
            self.seconds,
            self.samples,
            if self.seconds > 0.0 {
                self.samples as f64 / self.seconds
            } else {
                0.0
            }
        );
        if let (Some(&first), Some(&last)) = (self.population.first(), self.population.last()) {
            let _ = writeln!(out, "population: {first} -> {last}");
        }
        if self.drift.refreshes > 0 {
            let _ = writeln!(
                out,
                "mp drift: mean |dlogpsi| = {:.3e}, max = {:.3e} over {} refreshes",
                self.drift.mean_abs(),
                self.drift.max_abs,
                self.drift.refreshes
            );
        }
        if self.sanitizer.total_checks() > 0 {
            let _ = writeln!(
                out,
                "sanitizer: {} checks, {} violations",
                self.sanitizer.total_checks(),
                self.sanitizer.total_violations()
            );
        }
        out.push_str(&self.profile.to_table());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::timer::Kernel;

    fn sample_report() -> RunReport {
        let mut profile = Profile::default();
        profile.get_mut(Kernel::BsplineVGH).nanos = 2_000_000;
        profile.get_mut(Kernel::BsplineVGH).calls = 20;
        profile.get_mut(Kernel::J2).nanos = 1_000_000;
        profile.get_mut(Kernel::J2).calls = 10;
        RunReport {
            benchmark: "graphite-1x1x1".into(),
            code: "current".into(),
            kernel_backend: "simd".into(),
            electrons: 16,
            ions: 4,
            threads: 2,
            walkers: 8,
            steps: 4,
            crowd_size: 4,
            seconds: 0.5,
            samples: 32,
            acceptance: 0.61,
            energy_mean: -1.25,
            energy_err: 0.01,
            energy_tau: 1.5,
            e_trial: -1.3,
            population: vec![8, 9, 8, 8],
            e_trial_trace: vec![-1.26, -1.28, -1.29, -1.3],
            profile,
            crowd_profiles: vec![Profile::default(), Profile::default()],
            drift: DriftStats {
                refreshes: 2,
                sum_abs: 2e-6,
                max_abs: 1.5e-6,
            },
            sanitizer: crate::sanitize::SanitizerStats::default(),
            walker_bytes: 1024,
            engine_bytes: 4096,
            table_bytes: 65536,
            anon_huge_bytes: 4 << 20,
        }
    }

    #[test]
    fn json_report_covers_every_kernel() {
        let r = sample_report();
        let v = json::parse(&r.to_json()).expect("report is valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(RUN_REPORT_SCHEMA));
        let kernels = v.get("kernels").unwrap();
        for &k in &ALL_KERNELS {
            let s = kernels
                .get(k.label())
                .unwrap_or_else(|| panic!("kernel {} missing", k.label()));
            assert!(s.get("seconds").unwrap().as_f64().is_some());
            assert!(s.get("calls").unwrap().as_f64().is_some());
        }
        assert_eq!(
            v.get("population").unwrap().as_arr().unwrap().len(),
            4,
            "population trajectory serialized"
        );
        assert_eq!(v.get("crowd_kernels").unwrap().as_arr().unwrap().len(), 2);
        let drift = v.get("mp_drift").unwrap();
        assert_eq!(drift.get("refreshes").unwrap().as_f64(), Some(2.0));
        let memory = v.get("memory").unwrap();
        assert_eq!(
            memory.get("anon_huge_bytes").unwrap().as_f64(),
            Some(f64::from(4 << 20))
        );
        let san = v.get("sanitizer").unwrap();
        assert_eq!(san.get("total_violations").unwrap().as_f64(), Some(0.0));
        for k in crate::sanitize::ALL_CHECKS {
            assert!(
                san.get("checks").unwrap().get(k.label()).is_some(),
                "sanitizer category {} missing from JSON",
                k.label()
            );
        }
    }

    #[test]
    fn summary_contains_hotspots_and_energy() {
        let r = sample_report();
        let s = r.to_summary();
        assert!(s.contains("graphite-1x1x1"));
        assert!(s.contains("Bspline-vgh"));
        assert!(s.contains("-1.25"));
        assert!(s.contains("mp drift"));
    }

    #[test]
    fn drift_counters_accumulate_and_reset() {
        take_drift_stats();
        record_refresh_drift(1e-7);
        record_refresh_drift(3e-7);
        record_refresh_drift(f64::NAN); // ignored
        let d = take_drift_stats();
        assert_eq!(d.refreshes, 2);
        assert!((d.sum_abs - 4e-7).abs() < 1e-20);
        assert!((d.max_abs - 3e-7).abs() < 1e-20);
        assert!((d.mean_abs() - 2e-7).abs() < 1e-20);
        assert_eq!(take_drift_stats(), DriftStats::default());
    }
}
