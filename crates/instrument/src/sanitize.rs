//! Runtime invariant sanitizer (the `checked` cargo feature).
//!
//! Clippy's cast lints pin down *where* precision may be narrowed, and the
//! counting-allocator test which paths must stay allocation-free (DESIGN
//! §5c); this module guards the complementary *runtime* invariants: the
//! numbers crossing the
//! physics accumulator boundaries — local energies, `log ψ`, branch
//! weights, the trial energy — must be finite, and the mixed-precision
//! `|Δ log ψ|` measured at from-scratch recomputes must stay under a
//! tolerance.
//!
//! The check functions are always compiled so call sites need no `cfg`
//! gates; without the `checked` feature they collapse to constant-true
//! no-ops the optimizer deletes. With the feature on, every check bumps a
//! lock-free counter pair (checks run / violations) that the drivers
//! capture into [`crate::RunReport`] — `json_check` fails CI when a run
//! reports violations.

use std::sync::atomic::{AtomicU64, Ordering};

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
    /// `|Δ log ψ|` at a from-scratch recompute exceeding the drift bound.
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

static CHECKS_RUN: [AtomicU64; NUM_CHECKS] = [const { AtomicU64::new(0) }; NUM_CHECKS];
static VIOLATIONS: [AtomicU64; NUM_CHECKS] = [const { AtomicU64::new(0) }; NUM_CHECKS];
// +inf bits: drift checking is off until a tolerance is set.
static DRIFT_TOL_BITS: AtomicU64 = AtomicU64::new(0x7FF0_0000_0000_0000);

/// True when this build carries the `checked` feature (the sanitizer
/// actually counts); false when every check is a no-op.
#[inline]
pub fn sanitizer_enabled() -> bool {
    cfg!(feature = "checked")
}

/// Asserts `value` is finite at an accumulator boundary. Returns whether
/// the value passed; always `true` (and does nothing) without the
/// `checked` feature.
#[inline]
pub fn check_finite(kind: CheckKind, value: f64) -> bool {
    if !cfg!(feature = "checked") {
        return true;
    }
    CHECKS_RUN[kind as usize].fetch_add(1, Ordering::Relaxed);
    if value.is_finite() {
        true
    } else {
        VIOLATIONS[kind as usize].fetch_add(1, Ordering::Relaxed);
        false
    }
}

/// Sets the `|Δ log ψ|` bound for [`check_drift`]. Pass
/// `f64::INFINITY` to disable (the default). Active even without the
/// `checked` feature so tests can configure before enabling a run.
pub fn set_drift_tolerance(tol: f64) {
    DRIFT_TOL_BITS.store(tol.to_bits(), Ordering::Relaxed);
}

/// Checks one from-scratch recompute's `|Δ log ψ|` against the configured
/// tolerance. A non-finite drift always violates. Returns whether the
/// value passed; always `true` without the `checked` feature.
#[inline]
pub fn check_drift(abs_delta: f64) -> bool {
    if !cfg!(feature = "checked") {
        return true;
    }
    CHECKS_RUN[CheckKind::Drift as usize].fetch_add(1, Ordering::Relaxed);
    let tol = f64::from_bits(DRIFT_TOL_BITS.load(Ordering::Relaxed));
    if abs_delta.is_finite() && abs_delta <= tol {
        true
    } else {
        VIOLATIONS[CheckKind::Drift as usize].fetch_add(1, Ordering::Relaxed);
        false
    }
}

/// Per-category sanitizer counters captured into the run report.
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
}

/// Reads the counters without resetting them.
pub fn sanitizer_stats() -> SanitizerStats {
    let mut s = SanitizerStats::default();
    for k in 0..NUM_CHECKS {
        s.checks_run[k] = CHECKS_RUN[k].load(Ordering::Relaxed);
        s.violations[k] = VIOLATIONS[k].load(Ordering::Relaxed);
    }
    s
}

/// Takes and resets the counters. Drivers call this before a run (reset)
/// and after it (capture), mirroring [`crate::take_drift_stats`].
pub fn take_sanitizer_stats() -> SanitizerStats {
    let mut s = SanitizerStats::default();
    for k in 0..NUM_CHECKS {
        s.checks_run[k] = CHECKS_RUN[k].swap(0, Ordering::Relaxed);
        s.violations[k] = VIOLATIONS[k].swap(0, Ordering::Relaxed);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global, so each test takes a snapshot
    // delta rather than assuming a clean slate.

    #[test]
    fn finite_values_never_violate() {
        let before = sanitizer_stats();
        assert!(check_finite(CheckKind::LocalEnergy, -14.5));
        assert!(check_finite(CheckKind::LogPsi, 3.0));
        let after = sanitizer_stats();
        assert_eq!(after.total_violations(), before.total_violations());
    }

    #[test]
    #[cfg(feature = "checked")]
    fn non_finite_values_are_counted() {
        let before = sanitizer_stats();
        assert!(!check_finite(CheckKind::BranchWeight, f64::NAN));
        assert!(!check_finite(CheckKind::TrialEnergy, f64::INFINITY));
        let after = sanitizer_stats();
        assert_eq!(
            after.violations[CheckKind::BranchWeight as usize]
                - before.violations[CheckKind::BranchWeight as usize],
            1
        );
        assert_eq!(
            after.violations[CheckKind::TrialEnergy as usize]
                - before.violations[CheckKind::TrialEnergy as usize],
            1
        );
    }

    #[test]
    #[cfg(feature = "checked")]
    fn drift_tolerance_gates_violations() {
        set_drift_tolerance(1e-6);
        let before = sanitizer_stats();
        assert!(check_drift(1e-9));
        assert!(!check_drift(1e-3));
        assert!(!check_drift(f64::NAN));
        set_drift_tolerance(f64::INFINITY);
        let after = sanitizer_stats();
        assert_eq!(
            after.violations[CheckKind::Drift as usize]
                - before.violations[CheckKind::Drift as usize],
            2
        );
    }

    #[test]
    #[cfg(not(feature = "checked"))]
    fn disabled_sanitizer_is_inert() {
        assert!(!sanitizer_enabled());
        assert!(check_finite(CheckKind::LocalEnergy, f64::NAN));
        assert!(check_drift(f64::INFINITY));
        assert_eq!(sanitizer_stats().total_checks(), 0);
    }
}
