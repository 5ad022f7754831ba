//! Runtime invariant sanitizer and mixed-precision drift counters.
//!
//! Clippy's cast lints pin down *where* precision may be narrowed, and the
//! counting-allocator test which paths must stay allocation-free (DESIGN
//! §5c); this module guards the complementary *runtime* invariants: the
//! numbers crossing the
//! physics accumulator boundaries — local energies, `log ψ`, branch
//! weights, the trial energy — must be finite, and the mixed-precision
//! `|Δ log ψ|` measured at from-scratch recomputes must be finite (and
//! under a bound, where a test sets one).
//!
//! Every check always counts. The counters live in the calling thread's
//! [`crate::Profile`] beside the kernel stats, so they are drained with it
//! ([`crate::drain_thread_profile`]) and a run reports exactly the checks
//! its own threads made. The checks run once per init, refresh,
//! measurement or branch — never inside a move — so each is one
//! thread-local increment against a millisecond-scale step. `json_check`
//! fails CI when a run reports violations, or no checks at all.

use std::cell::Cell;

use crate::timer::with_thread_profile;

/// The accumulator boundaries the sanitizer watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// Local energy `E_L` entering an estimator or reweighting factor.
    LocalEnergy = 0,
    /// `log ψ` from a fresh or incremental wavefunction evaluation.
    LogPsi = 1,
    /// DMC branch weight / reweighting factor.
    BranchWeight = 2,
    /// Trial energy after population feedback.
    TrialEnergy = 3,
    /// `|Δ log ψ|` at a from-scratch recompute: non-finite, or over the
    /// drift bound.
    Drift = 4,
}

/// Number of [`CheckKind`] categories.
pub const NUM_CHECKS: usize = 5;

/// Every category, in serialization order.
pub const ALL_CHECKS: [CheckKind; NUM_CHECKS] = [
    CheckKind::LocalEnergy,
    CheckKind::LogPsi,
    CheckKind::BranchWeight,
    CheckKind::TrialEnergy,
    CheckKind::Drift,
];

impl CheckKind {
    /// Stable label used in the run-report JSON.
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::LocalEnergy => "local_energy",
            CheckKind::LogPsi => "log_psi",
            CheckKind::BranchWeight => "branch_weight",
            CheckKind::TrialEnergy => "trial_energy",
            CheckKind::Drift => "drift",
        }
    }
}

/// Per-category sanitizer counters, carried by [`crate::Profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// Checks executed, indexed by `CheckKind as usize`.
    pub checks_run: [u64; NUM_CHECKS],
    /// Violations observed, same indexing.
    pub violations: [u64; NUM_CHECKS],
}

impl SanitizerStats {
    /// Total checks across every category.
    pub fn total_checks(&self) -> u64 {
        self.checks_run.iter().sum()
    }

    /// Total violations across every category.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &SanitizerStats) {
        for k in 0..NUM_CHECKS {
            self.checks_run[k] += other.checks_run[k];
            self.violations[k] += other.violations[k];
        }
    }
}

/// Accumulated |Δ log ψ| statistics from from-scratch recomputes: how far
/// the incrementally-updated (mixed-precision) wavefunction log had
/// drifted from the freshly evaluated value. Large values mean the
/// `recompute_every` hygiene interval is too long for the precision mix.
/// Carried by [`crate::Profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DriftStats {
    /// Number of refreshes that measured a finite drift.
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

    /// Adds `other`'s refreshes and sum, and keeps the larger maximum.
    pub fn merge(&mut self, other: &DriftStats) {
        self.refreshes += other.refreshes;
        self.sum_abs += other.sum_abs;
        self.max_abs = self.max_abs.max(other.max_abs);
    }
}

thread_local! {
    // +∞: only a non-finite drift violates until a bound is set.
    static DRIFT_TOLERANCE: Cell<f64> = const { Cell::new(f64::INFINITY) };
}

/// Counts one check of `kind` on the calling thread, and a violation
/// unless it `passed`. Returns `passed`.
#[inline]
fn count(kind: CheckKind, passed: bool) -> bool {
    with_thread_profile(|p| {
        p.sanitizer.checks_run[kind as usize] += 1;
        p.sanitizer.violations[kind as usize] += u64::from(!passed);
    });
    passed
}

/// Checks that `value` is finite at an accumulator boundary. Returns
/// whether it passed.
#[inline]
pub fn check_finite(kind: CheckKind, value: f64) -> bool {
    count(kind, value.is_finite())
}

/// Sets the `|Δ log ψ|` bound that [`check_drift`] applies on the calling
/// thread. `f64::INFINITY` (the default) leaves only non-finite drift as a
/// violation.
pub fn set_drift_tolerance(tol: f64) {
    DRIFT_TOLERANCE.with(|t| t.set(tol));
}

/// Checks one from-scratch recompute's `|Δ log ψ|` against the calling
/// thread's bound. A non-finite drift always violates. Returns whether the
/// value passed.
#[inline]
pub fn check_drift(abs_delta: f64) -> bool {
    let tol = DRIFT_TOLERANCE.with(Cell::get);
    count(CheckKind::Drift, abs_delta.is_finite() && abs_delta <= tol)
}

/// Records one from-scratch refresh's |Δ log ψ| in the calling thread's
/// profile: a drift check, and (when finite) one refresh in the drift
/// stats. Called from the engines' recompute paths.
pub fn record_refresh_drift(abs_delta: f64) {
    check_drift(abs_delta);
    if abs_delta.is_finite() {
        with_thread_profile(|p| {
            p.drift.merge(&DriftStats {
                refreshes: 1,
                sum_abs: abs_delta,
                max_abs: abs_delta,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain_thread_profile;

    // Each test runs on its own thread, so a drained profile holds that
    // test's checks and nothing else.

    #[test]
    fn finite_values_never_violate() {
        drain_thread_profile();
        assert!(check_finite(CheckKind::LocalEnergy, -14.5));
        assert!(check_finite(CheckKind::LogPsi, 3.0));
        let s = drain_thread_profile().sanitizer;
        assert_eq!(s.total_checks(), 2);
        assert_eq!(s.total_violations(), 0);
    }

    #[test]
    fn non_finite_values_are_counted() {
        drain_thread_profile();
        assert!(!check_finite(CheckKind::BranchWeight, f64::NAN));
        assert!(!check_finite(CheckKind::TrialEnergy, f64::INFINITY));
        let s = drain_thread_profile().sanitizer;
        assert_eq!(s.violations[CheckKind::BranchWeight as usize], 1);
        assert_eq!(s.violations[CheckKind::TrialEnergy as usize], 1);
        assert_eq!(s.total_checks(), 2);
    }

    #[test]
    fn drift_tolerance_gates_violations() {
        drain_thread_profile();
        set_drift_tolerance(1e-6);
        assert!(check_drift(1e-9));
        assert!(!check_drift(1e-3));
        assert!(!check_drift(f64::NAN));
        set_drift_tolerance(f64::INFINITY);
        assert!(check_drift(1e-3));
        let s = drain_thread_profile().sanitizer;
        assert_eq!(s.checks_run[CheckKind::Drift as usize], 4);
        assert_eq!(s.violations[CheckKind::Drift as usize], 2);
    }

    #[test]
    fn drift_counters_accumulate_and_drain() {
        drain_thread_profile();
        record_refresh_drift(1e-7);
        record_refresh_drift(3e-7);
        record_refresh_drift(f64::NAN); // a violation, not a refresh
        let p = drain_thread_profile();
        let d = p.drift;
        assert_eq!(d.refreshes, 2);
        assert!((d.sum_abs - 4e-7).abs() < 1e-20);
        assert_eq!(d.max_abs, 3e-7);
        assert!((d.mean_abs() - 2e-7).abs() < 1e-20);
        assert_eq!(p.sanitizer.checks_run[CheckKind::Drift as usize], 3);
        assert_eq!(p.sanitizer.violations[CheckKind::Drift as usize], 1);
        assert_eq!(drain_thread_profile().drift, DriftStats::default());
    }

    #[test]
    fn merge_sums_counts_and_keeps_the_largest_drift() {
        let mut a = DriftStats {
            refreshes: 2,
            sum_abs: 3e-7,
            max_abs: 2e-7,
        };
        a.merge(&DriftStats {
            refreshes: 1,
            sum_abs: 1e-7,
            max_abs: 1e-7,
        });
        assert_eq!(a.refreshes, 3);
        assert_eq!(a.max_abs, 2e-7);
        let mut s = SanitizerStats::default();
        s.checks_run[1] = 4;
        s.violations[2] = 1;
        let mut t = s;
        t.merge(&s);
        assert_eq!((t.checks_run[1], t.violations[2]), (8, 2));
    }
}
