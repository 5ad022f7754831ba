//! Structured run reports.
//!
//! One [`RunReport`] aggregates everything a VMC or DMC run produces —
//! per-kernel wall time / call counts / modeled FLOPs+bytes, accept ratio,
//! the population and trial-energy trajectories, the figures of merit,
//! the final population hash, memory footprint, and the sanitizer and
//! mixed-precision drift counters — into a single value that serializes
//! to JSON (hand-rolled, see [`crate::json`]) for `miniqmc --profile json`,
//! or renders as the one human run summary with the Fig. 2-style hot-spot
//! table (`miniqmc --profile summary`).

use crate::json::JsonWriter;
use crate::sanitize::ALL_CHECKS;
use crate::timer::{KernelStats, Profile, ALL_KERNELS};

/// Schema tag embedded in every report so downstream tooling can detect
/// format changes.
pub const RUN_REPORT_SCHEMA: &str = "qmc-run-report/1";

/// Everything one run produced, in one serializable value.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Workload name (e.g. `graphite-2x1x1`).
    pub benchmark: String,
    /// Code-version label (optimization-ladder rung).
    pub code: String,
    /// Kernel backend label the run executed with (`reference` / `simd`).
    pub kernel_backend: String,
    /// Electron count.
    pub electrons: usize,
    /// Ion count.
    pub ions: usize,
    /// Worker thread / crowd count.
    pub threads: usize,
    /// Walker count at start.
    pub walkers: usize,
    /// Requested run length, warmup included: DMC generations, or VMC
    /// sweeps.
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
    /// Final trial energy after population feedback (NaN for VMC, which
    /// has none).
    pub e_trial: f64,
    /// Walker population after each step (empty for VMC).
    pub population: Vec<usize>,
    /// Trial energy after each step's feedback update (empty for VMC).
    pub e_trial_trace: Vec<f64>,
    /// Aggregate per-kernel profile, with the run's sanitizer and drift
    /// counters.
    pub profile: Profile,
    /// Per-crowd / per-worker profiles, in chunk order (may be empty).
    pub crowd_profiles: Vec<Profile>,
    /// FNV-1a digest of the final walker population (full per-walker
    /// state, RNG streams included) — what the resume-parity gates compare.
    pub walker_hash: u64,
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

    /// DMC efficiency `kappa = 1 / (sigma^2 tau_corr T)` (§3), the figure
    /// the paper's throughput gains translate into: `sigma` is the
    /// blocking error of the mean, `tau_corr` its autocorrelation time
    /// (floored at one step) and `T` the run's wall time. NaN when the run
    /// has no error estimate (too few blocks) or no time.
    pub fn kappa(&self) -> f64 {
        let sigma2 = self.energy_err * self.energy_err;
        if sigma2 > 0.0 && self.seconds > 0.0 {
            1.0 / (sigma2 * self.energy_tau.max(1.0) * self.seconds)
        } else {
            f64::NAN
        }
    }

    /// Node memory model: the shared table, one engine per thread and one
    /// buffer per walker (the paper's `gamma (N_th + N_w) N^2` plus the
    /// read-only table).
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes
            + self.threads as u64 * self.engine_bytes
            + self.walkers as u64 * self.walker_bytes
    }

    /// Serializes the full report as a JSON object. Every kernel category
    /// appears under `"kernels"`, including ones with zero time, so
    /// consumers can rely on the key set; undefined numbers (a VMC run's
    /// `e_trial`, a `kappa` without an error estimate) are `null`.
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
        w.key("throughput_samples_per_s").f64_val(self.throughput());
        w.key("acceptance").f64_val(self.acceptance);
        w.key("walker_hash")
            .str_val(&format!("{:016x}", self.walker_hash));
        w.key("energy");
        w.begin_obj();
        w.key("mean").f64_val(self.energy_mean);
        w.key("err").f64_val(self.energy_err);
        w.key("tau").f64_val(self.energy_tau);
        w.end_obj();
        w.key("kappa").f64_val(self.kappa());
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
        let (drift, sanitizer) = (&self.profile.drift, &self.profile.sanitizer);
        w.key("mp_drift");
        w.begin_obj();
        w.key("refreshes").u64_val(drift.refreshes);
        w.key("mean_abs_dlogpsi").f64_val(drift.mean_abs());
        w.key("max_abs_dlogpsi").f64_val(drift.max_abs);
        w.end_obj();
        w.key("sanitizer");
        w.begin_obj();
        w.key("total_checks").u64_val(sanitizer.total_checks());
        w.key("total_violations")
            .u64_val(sanitizer.total_violations());
        w.key("checks");
        w.begin_obj();
        for &k in &ALL_CHECKS {
            w.key(k.label());
            w.begin_obj();
            w.key("run").u64_val(sanitizer.checks_run[k as usize]);
            w.key("violations")
                .u64_val(sanitizer.violations[k as usize]);
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

    /// Renders the human run summary, the same for either driver: run
    /// header, energy, trial energy and population (DMC only), the final
    /// population hash, throughput and `kappa`, memory, the numerics
    /// counters and the Fig. 2-style hot-spot table.
    pub fn to_summary(&self) -> String {
        use std::fmt::Write;
        let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run: {} [{}, backend={}]  e={} i={}  threads={} walkers={} steps={}{}",
            self.benchmark,
            self.code,
            self.kernel_backend,
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
            "energy: {:.6} +/- {:.6} Ha (tau_corr={:.2})  acceptance={:.4}",
            self.energy_mean, self.energy_err, self.energy_tau, self.acceptance
        );
        if self.e_trial.is_finite() {
            let _ = writeln!(out, "e_trial: {:.6} Ha", self.e_trial);
        }
        if let (Some(&first), Some(&last)) = (self.population.first(), self.population.last()) {
            let _ = writeln!(out, "population: {first} -> {last}");
        }
        let _ = writeln!(out, "walker-hash: {:016x}", self.walker_hash);
        let _ = writeln!(
            out,
            "time: {:.3} s  samples: {}  throughput: {:.1}/s",
            self.seconds,
            self.samples,
            self.throughput()
        );
        let _ = writeln!(
            out,
            "efficiency: kappa = {:.3e}  (1/(sigma^2 tau_corr T), §3)",
            self.kappa()
        );
        let _ = writeln!(
            out,
            "memory: walker {:.2} MiB, engine {:.2} MiB, spline table {:.2} MiB, \
             huge pages {:.2} MiB, model total {:.2} MiB",
            mib(self.walker_bytes),
            mib(self.engine_bytes),
            mib(self.table_bytes),
            mib(self.anon_huge_bytes),
            mib(self.total_bytes())
        );
        let (drift, sanitizer) = (&self.profile.drift, &self.profile.sanitizer);
        if drift.refreshes > 0 {
            let _ = writeln!(
                out,
                "mp drift: mean |dlogpsi| = {:.3e}, max = {:.3e} over {} refreshes",
                drift.mean_abs(),
                drift.max_abs,
                drift.refreshes
            );
        }
        let _ = writeln!(
            out,
            "sanitizer: {} checks, {} violations",
            sanitizer.total_checks(),
            sanitizer.total_violations()
        );
        let _ = writeln!(out, "\nhot-spot profile (merged over threads):");
        out.push_str(&self.profile.to_table());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sanitize::{CheckKind, DriftStats};
    use crate::timer::Kernel;

    fn sample_report() -> RunReport {
        let mut profile = Profile::default();
        profile.get_mut(Kernel::BsplineVGH).nanos = 2_000_000;
        profile.get_mut(Kernel::BsplineVGH).calls = 20;
        profile.get_mut(Kernel::J2).nanos = 1_000_000;
        profile.get_mut(Kernel::J2).calls = 10;
        profile.drift = DriftStats {
            refreshes: 2,
            sum_abs: 2e-6,
            max_abs: 1.5e-6,
        };
        profile.sanitizer.checks_run[CheckKind::LogPsi as usize] = 5;
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
            walker_hash: 0xDEAD_BEEF,
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
        assert_eq!(
            v.get("walker_hash").unwrap().as_str(),
            Some("00000000deadbeef"),
            "the hash is 16 hex digits, as in the stream's end record"
        );
        let kappa = v.get("kappa").unwrap().as_f64().unwrap();
        assert!((kappa - r.kappa()).abs() <= 1e-9 * kappa, "{kappa}");
        let san = v.get("sanitizer").unwrap();
        assert_eq!(san.get("total_checks").unwrap().as_f64(), Some(5.0));
        assert!(san.get("enabled").is_none(), "the sanitizer always counts");
        assert_eq!(san.get("total_violations").unwrap().as_f64(), Some(0.0));
        for k in ALL_CHECKS {
            assert!(
                san.get("checks").unwrap().get(k.label()).is_some(),
                "sanitizer category {} missing from JSON",
                k.label()
            );
        }
    }

    /// The parser on damaged run reports: every truncation of a
    /// `--profile json` document fails, and each of 512 seeded single-byte
    /// XOR mutations of it returns `Ok` or `Err`; a panic fails the test.
    #[test]
    fn damaged_reports_parse_or_fail_cleanly() {
        let doc = sample_report().to_json();
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            assert!(json::parse(&doc[..cut]).is_err(), "cut at {cut} parsed");
        }
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut bytes = doc.clone().into_bytes();
            let at = usize::try_from(x % bytes.len() as u64).unwrap();
            bytes[at] ^= u8::try_from(x >> 56).unwrap().max(1);
            let _ = json::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn kappa_is_the_section_3_efficiency() {
        // kappa = 1 / (sigma^2 tau_corr T): 1 / (0.01^2 x 1.5 x 0.5 s).
        let r = sample_report();
        let want = 1.0 / (0.01 * 0.01 * 1.5 * 0.5);
        assert!((r.kappa() - want).abs() <= 1e-9 * want, "{}", r.kappa());
        // An autocorrelation time below one step counts as one.
        let short = RunReport {
            energy_tau: 0.25,
            ..sample_report()
        };
        let want = 1.0 / (0.01 * 0.01 * 0.5);
        assert!((short.kappa() - want).abs() <= 1e-9 * want);
    }

    #[test]
    fn kappa_without_an_error_estimate_is_null() {
        for err in [0.0, f64::NAN] {
            let r = RunReport {
                energy_err: err,
                ..sample_report()
            };
            assert!(r.kappa().is_nan(), "err {err}: kappa {}", r.kappa());
            let v = json::parse(&r.to_json()).expect("valid JSON");
            assert!(
                matches!(v.get("kappa"), Some(json::JsonValue::Null)),
                "err {err}: kappa must serialize as null"
            );
        }
    }

    #[test]
    fn total_bytes_is_table_plus_engines_plus_walkers() {
        // 65536 + 2 threads x 4096 + 8 walkers x 1024.
        assert_eq!(sample_report().total_bytes(), 65_536 + 8_192 + 8_192);
    }

    #[test]
    fn summary_contains_hotspots_and_energy() {
        let r = sample_report();
        let s = r.to_summary();
        assert!(s.contains("graphite-1x1x1"));
        assert!(s.contains("Bspline-vgh"));
        assert!(s.contains("energy: -1.250000 +/- 0.010000"), "{s}");
        assert!(s.contains("e_trial: -1.300000"), "{s}");
        assert!(s.contains("population: 8 -> 8"), "{s}");
        assert!(s.contains("mp drift"));
    }

    #[test]
    fn vmc_summary_has_no_trial_energy_or_population() {
        let r = RunReport {
            e_trial: f64::NAN,
            population: Vec::new(),
            e_trial_trace: Vec::new(),
            ..sample_report()
        };
        let s = r.to_summary();
        assert!(!s.contains("e_trial"), "{s}");
        assert!(!s.contains("population"), "{s}");
        let line = |prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no `{prefix}` line in {s}"))
        };
        assert_eq!(line("walker-hash"), "walker-hash: 00000000deadbeef");
        assert!(line("efficiency").contains(&format!("{:.3e}", r.kappa())));
        let memory = line("memory");
        assert!(memory.contains("huge pages 4.00 MiB"), "{memory}");
        assert!(memory.contains("spline table 0.06 MiB"), "{memory}");
        assert!(line("sanitizer").contains("5 checks, 0 violations"));
    }
}
