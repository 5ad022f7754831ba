//! Per-kernel scoped timers.
//!
//! Reproduces the role of QMCPACK's timer framework / Intel VTune in the
//! paper: every hot kernel (Fig. 2 / Fig. 7 categories) accumulates wall
//! time and call counts into thread-local slots; worker threads drain their
//! local profile into a shared one at block boundaries, so the timing path
//! itself is lock-free. The same per-thread [`Profile`] carries the
//! sanitizer and drift counters ([`crate::sanitize`]), so one drain moves
//! every per-run counter.
//!
//! ## Sampled timing
//!
//! A pair of clock reads costs tens of nanoseconds, and at N = 64 many
//! kernel calls take only 100-200 ns, so a clock read on every call would
//! be a large share of what it measures. [`time_kernel`] therefore reads
//! the clock on a random 1 in 16 of its calls:
//!
//! * **Every call** adds 1 to `calls` and advances a per-thread xorshift64
//!   stream, through one `const`-initialised thread-local. The call is timed
//!   when the top 4 bits of the new state are zero: an independent
//!   Bernoulli(1/16) draw per call, so every call has the same inclusion
//!   probability whatever the call pattern, the kernel, or how old its
//!   thread is (the drivers' worker threads live for one generation).
//! * **A timed call** adds its `Instant` interval, less the timer's own
//!   cost, times 16 to `nanos`. The weight 16 = 1 / P(timed) makes the sum
//!   the Horvitz–Thompson estimate of the kernel's total time, unbiased at
//!   any drain granularity. The self-cost is the minimum over 64 empty
//!   `Instant` pairs, measured once per process; the subtraction saturates,
//!   so a scope shorter than the self-cost adds 0. For calls of equal cost
//!   the estimate's relative standard error is √(15 / calls), about 6 % at
//!   4096 calls. In general its variance is 15 Σ tᵢ² over the calls, so a
//!   rare, expensive call (a from-scratch inverse among rank-1 updates)
//!   dominates its kernel's error.
//! * **Exact:** `calls`, `flops` and `bytes`. Only `nanos` (and what is
//!   derived from it: `seconds()`, shares, GFLOP/s) is an estimate.
//! * **Physics untouched:** the sampler is plain integer arithmetic on its
//!   own stream, separate from every walker RNG.
//!
//! Per-call figures of adjacent kernels can shift against an always-on
//! timer: a cost the trailing clock read used to absorb (say, the store
//! stall at the end of one kernel) now lands in whichever scope runs next.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::sanitize::{DriftStats, SanitizerStats, NUM_CHECKS};

/// Hot-spot categories used in the paper's profiles (Fig. 2 and Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Kernel {
    /// Electron-electron (AA) distance table update/computation.
    DistTableAA,
    /// Electron-ion (AB) distance table update/computation.
    DistTableAB,
    /// One-body Jastrow evaluation.
    J1,
    /// Two-body Jastrow evaluation.
    J2,
    /// B-spline SPO value-only evaluation (NLPP ratio path).
    BsplineV,
    /// B-spline SPO value+gradient+Hessian evaluation.
    BsplineVGH,
    /// Determinant-side SPO value/gradient/laplacian assembly.
    SpoVGL,
    /// Batched (multi-walker) fused B-spline value/gradient/Laplacian
    /// evaluation — the crowd-path SPO kernel.
    BsplineMwVGL,
    /// Determinant ratio evaluation (dot against the inverse row).
    DetRatio,
    /// Sherman-Morrison inverse update and the from-scratch reinversion.
    DetUpdate,
    /// Non-local pseudopotential quadrature.
    Nlpp,
    /// Coulomb interaction evaluation.
    Coulomb,
    /// Everything else (driver, RNG, branching, ...).
    Other,
}

/// All kernels in display order. The array length is tied to the enum via
/// `Kernel::Other` (the last variant), so adding a variant without listing
/// it here is a compile error rather than a silently truncated profile.
pub const ALL_KERNELS: [Kernel; Kernel::Other as usize + 1] = [
    Kernel::DistTableAA,
    Kernel::DistTableAB,
    Kernel::J1,
    Kernel::J2,
    Kernel::BsplineV,
    Kernel::BsplineVGH,
    Kernel::SpoVGL,
    Kernel::BsplineMwVGL,
    Kernel::DetRatio,
    Kernel::DetUpdate,
    Kernel::Nlpp,
    Kernel::Coulomb,
    Kernel::Other,
];

/// Number of kernel categories, derived from [`ALL_KERNELS`] (never
/// hand-maintained).
pub const NUM_KERNELS: usize = ALL_KERNELS.len();

// Compile-time check: ALL_KERNELS[i] must sit at discriminant i, so the
// array both covers every variant exactly once and stays in enum order.
const _: () = {
    let mut i = 0;
    while i < NUM_KERNELS {
        assert!(ALL_KERNELS[i] as usize == i, "ALL_KERNELS out of order");
        i += 1;
    }
};

impl Kernel {
    /// Short label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::DistTableAA => "DistTable-AA",
            Kernel::DistTableAB => "DistTable-AB",
            Kernel::J1 => "J1",
            Kernel::J2 => "J2",
            Kernel::BsplineV => "Bspline-v",
            Kernel::BsplineVGH => "Bspline-vgh",
            Kernel::SpoVGL => "SPO-vgl",
            Kernel::BsplineMwVGL => "Bspline-mw-vgl",
            Kernel::DetRatio => "DetRatio",
            Kernel::DetUpdate => "DetUpdate",
            Kernel::Nlpp => "NLPP",
            Kernel::Coulomb => "Coulomb",
            Kernel::Other => "Other",
        }
    }
}

/// Accumulated statistics for one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Total wall time in nanoseconds: a sampled estimate (see the module
    /// docs), not a sum of every call's interval.
    pub nanos: u64,
    /// Number of scopes, every call counted.
    pub calls: u64,
    /// Model-counted floating-point operations (see `counters`).
    pub flops: u64,
    /// Model-counted bytes moved to/from memory.
    pub bytes: u64,
}

impl KernelStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.nanos += other.nanos;
        self.calls += other.calls;
        self.flops += other.flops;
        self.bytes += other.bytes;
    }

    /// Seconds of accumulated wall time.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// Arithmetic intensity in FLOP/byte (`None` when no bytes recorded).
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.flops as f64 / self.bytes as f64)
    }

    /// Achieved GFLOP/s (`None` when no time recorded).
    pub fn gflops(&self) -> Option<f64> {
        (self.nanos > 0).then(|| self.flops as f64 / self.nanos as f64)
    }
}

/// A full per-kernel profile, plus the sanitizer and drift counters of the
/// same thread or run (see [`crate::sanitize`]).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    stats: [KernelStats; NUM_KERNELS],
    /// Finite and drift checks run, and violations.
    pub sanitizer: SanitizerStats,
    /// Mixed-precision |Δ log ψ| at from-scratch refreshes.
    pub drift: DriftStats,
}

impl Profile {
    /// Stats for one kernel.
    pub fn get(&self, k: Kernel) -> &KernelStats {
        &self.stats[k as usize]
    }

    /// Mutable stats for one kernel.
    pub fn get_mut(&mut self, k: Kernel) -> &mut KernelStats {
        &mut self.stats[k as usize]
    }

    /// Merges `other` into `self`: counts and times add, and the drift
    /// maximum is the larger of the two.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..NUM_KERNELS {
            self.stats[i].merge(&other.stats[i]);
        }
        self.sanitizer.merge(&other.sanitizer);
        self.drift.merge(&other.drift);
    }

    /// Total timed seconds across all kernels.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(KernelStats::seconds).sum()
    }

    /// Normalized share of each kernel (sums to 1 when any time recorded).
    pub fn normalized(&self) -> Vec<(Kernel, f64)> {
        let total = self.total_seconds();
        ALL_KERNELS
            .iter()
            .map(|&k| {
                let f = if total > 0.0 {
                    self.get(k).seconds() / total
                } else {
                    0.0
                };
                (k, f)
            })
            .collect()
    }

    /// Renders the hot-spot profile as an aligned text table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let total = self.total_seconds();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>8} {:>10} {:>10}",
            "kernel", "time(s)", "calls", "share", "AI(F/B)", "GFLOP/s"
        );
        for &k in &ALL_KERNELS {
            let s = self.get(k);
            if s.calls == 0 && s.nanos == 0 {
                continue;
            }
            let share = if total > 0.0 {
                s.seconds() / total * 100.0
            } else {
                0.0
            };
            let ai = s
                .arithmetic_intensity()
                .map_or_else(|| "-".into(), |x| format!("{x:.2}"));
            let gf = s.gflops().map_or_else(|| "-".into(), |x| format!("{x:.2}"));
            let _ = writeln!(
                out,
                "{:<14} {:>10.4} {:>10} {:>7.1}% {:>10} {:>10}",
                k.label(),
                s.seconds(),
                s.calls,
                share,
                ai,
                gf
            );
        }
        out
    }
}

/// A shared profile plus per-group (worker-thread or crowd) sub-profiles.
///
/// Drivers own one of these; each worker's drained thread-local profile
/// merges into its own group after the fan-out's join, and the group
/// merge also feeds the aggregate, so `total` is always the sum of
/// the groups plus any ungrouped (coordinator) time.
#[derive(Clone, Debug, Default)]
pub struct ProfileSet {
    /// Aggregate over all groups and the coordinator.
    pub total: Profile,
    /// One profile per worker thread / crowd, in chunk order.
    pub groups: Vec<Profile>,
}

impl ProfileSet {
    /// A set with `n` empty groups.
    pub fn with_groups(n: usize) -> Self {
        Self {
            total: Profile::default(),
            groups: vec![Profile::default(); n],
        }
    }

    /// Merges `p` into group `g` and the aggregate.
    pub fn merge_group(&mut self, g: usize, p: &Profile) {
        self.groups[g].merge(p);
        self.total.merge(p);
    }

    /// Merges ungrouped (coordinator-thread) time into the aggregate only.
    pub fn merge_total(&mut self, p: &Profile) {
        self.total.merge(p);
    }
}

/// log2 of the sampling period: a call is timed when the top `SAMPLE_BITS`
/// bits of the sampler state are zero.
const SAMPLE_BITS: u32 = 4;
/// One call in `SAMPLE_EVERY` is timed; a timed call's interval is weighted
/// by it.
const SAMPLE_EVERY: u64 = 1 << SAMPLE_BITS;

/// The calling thread's profile and sampler state.
struct Local {
    profile: RefCell<Profile>,
    /// xorshift64 state; 0 until the thread's first scope seeds it.
    sampler: Cell<u64>,
}

impl Local {
    /// Counts one call of `k` and draws whether to time it.
    #[inline]
    fn count_and_draw(&self, k: Kernel) -> bool {
        self.profile.borrow_mut().get_mut(k).calls += 1;
        let mut x = self.sampler.get();
        if x == 0 {
            x = thread_seed();
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler.set(x);
        x >> (u64::BITS - SAMPLE_BITS) == 0
    }
}

thread_local! {
    // `const`-initialised and without drop glue: the untimed path is one
    // thread-local access with no lazy-init check.
    static LOCAL: Local = const {
        Local {
            profile: RefCell::new(Profile {
                stats: [KernelStats {
                    nanos: 0,
                    calls: 0,
                    flops: 0,
                    bytes: 0,
                }; NUM_KERNELS],
                sanitizer: SanitizerStats {
                    checks_run: [0; NUM_CHECKS],
                    violations: [0; NUM_CHECKS],
                },
                drift: DriftStats {
                    refreshes: 0,
                    sum_abs: 0.0,
                    max_abs: 0.0,
                },
            }),
            sampler: Cell::new(0),
        }
    };
}

/// A distinct nonzero sampler seed for each thread: SplitMix64 over a
/// process-wide counter.
#[cold]
fn thread_seed() -> u64 {
    static THREADS: AtomicU64 = AtomicU64::new(0);
    let mut z = THREADS
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// Nanoseconds since `start`.
#[inline]
fn interval_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The timer's own cost: the minimum over 64 empty `Instant` pairs,
/// measured once per process.
fn self_cost_ns() -> u64 {
    static SELF_COST: OnceLock<u64> = OnceLock::new();
    *SELF_COST.get_or_init(|| {
        (0..64)
            .map(|_| interval_ns(Instant::now()))
            .min()
            .unwrap_or(0)
    })
}

/// What one timed scope adds to `nanos`: its interval less the self-cost
/// (never below zero), times the sampling weight.
fn weighted_nanos(interval: u64, self_cost: u64) -> u64 {
    interval.saturating_sub(self_cost) * SAMPLE_EVERY
}

/// Books a timed scope of `k` that started at `start`. Out of line: every
/// `time_kernel` site inlines the draw, and only 1 call in 16 gets here.
#[inline(never)]
fn record_timed(k: Kernel, start: Instant) {
    let interval = interval_ns(start);
    let nanos = weighted_nanos(interval, self_cost_ns());
    with_thread_profile(|p| p.get_mut(k).nanos += nanos);
}

/// Runs the closure under kernel `k`: counts the call in the thread-local
/// profile and, on a random 1 in 16 calls, times it (see the module docs).
#[inline]
pub fn time_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    let start = LOCAL.with(|l| l.count_and_draw(k)).then(Instant::now);
    let r = f();
    // Opaque to the optimiser, which would otherwise thread this second
    // test of the draw back through the first by duplicating `f` into both
    // arms — and then call the kernel body out of line instead of inlining
    // it into its caller.
    if let Some(start) = std::hint::black_box(start) {
        record_timed(k, start);
    }
    r
}

/// Runs `f` on the calling thread's profile.
#[inline]
pub(crate) fn with_thread_profile<R>(f: impl FnOnce(&mut Profile) -> R) -> R {
    LOCAL.with(|l| f(&mut l.profile.borrow_mut()))
}

/// Records model-counted FLOPs and bytes for kernel `k` (no timing).
#[inline]
pub fn add_flops_bytes(k: Kernel, flops: u64, bytes: u64) {
    with_thread_profile(|p| {
        let s = p.get_mut(k);
        s.flops += flops;
        s.bytes += bytes;
    });
}

/// Takes and resets the calling thread's accumulated profile. Each worker
/// thread calls this at the end of its walker block and merges the result
/// into a shared profile. The sampler stream carries on undisturbed.
pub fn drain_thread_profile() -> Profile {
    with_thread_profile(std::mem::take)
}

/// Merges `profile` back into the calling thread's profile — the inverse
/// of [`drain_thread_profile`], for a caller that drained on behalf of
/// code which reads the thread-local itself.
pub fn merge_thread_profile(profile: &Profile) {
    with_thread_profile(|p| p.merge(profile));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Busy-waits `ns` nanoseconds of wall time.
    fn spin(ns: u64) {
        let t = Instant::now();
        while interval_ns(t) < ns {
            std::hint::spin_loop();
        }
    }

    /// The calling thread's undrained `nanos` for `k`.
    fn local_nanos(k: Kernel) -> u64 {
        LOCAL.with(|l| l.profile.borrow().get(k).nanos)
    }

    /// Runs `pattern` (kernel, spin ns) `rounds` times through
    /// [`time_kernel`] and checks that each kernel's `calls` are exact and
    /// its sampled `nanos` is within ±20 % of its true spin time (measured
    /// inside every scope). Size `rounds` so that every kernel gets at
    /// least 16 384 calls: the error of an unbiased estimate is then
    /// √(15 / 16 384) ≈ 3 %, and ±20 % is more than 6σ.
    ///
    /// A scope preempted while timed would count its stall 16 times over
    /// (one 4 ms stall turns a ~30 ms total into ~3×), so a call whose
    /// spin or timed interval ran past twice its length is dropped from
    /// both sides of the comparison. The draw is made before the scope
    /// runs, so dropping a call by how long it took biases neither side.
    fn assert_estimates(pattern: &[(Kernel, u64)], rounds: u64) {
        drain_thread_profile();
        let mut est = Profile::default();
        let mut truth = Profile::default();
        for _ in 0..rounds {
            for &(k, ns) in pattern {
                let before = local_nanos(k);
                let t = time_kernel(k, || {
                    let t = Instant::now();
                    spin(ns);
                    interval_ns(t)
                });
                let added = local_nanos(k) - before;
                est.get_mut(k).calls += 1;
                if t <= 2 * ns && added <= 2 * ns * SAMPLE_EVERY {
                    est.get_mut(k).nanos += added;
                    truth.get_mut(k).nanos += t;
                }
            }
        }
        let p = drain_thread_profile();
        for &(k, _) in pattern {
            let (est, want) = (est.get(k), truth.get(k));
            assert_eq!(p.get(k).calls, est.calls, "{}: calls are exact", k.label());
            let ratio = est.nanos as f64 / want.nanos as f64;
            assert!(
                (0.8..=1.2).contains(&ratio),
                "{}: sampled time estimated at {ratio:.3}x the truth",
                k.label()
            );
        }
    }

    #[test]
    fn calls_flops_and_bytes_are_exact_and_drained() {
        drain_thread_profile();
        for i in 0..1000 {
            assert_eq!(time_kernel(Kernel::J2, || i), i);
        }
        add_flops_bytes(Kernel::J2, 100, 50);
        let p = drain_thread_profile();
        let s = p.get(Kernel::J2);
        assert_eq!(s.calls, 1000);
        assert_eq!(s.flops, 100);
        assert_eq!(s.bytes, 50);
        assert_eq!(s.arithmetic_intensity(), Some(2.0));
        // Drained: second drain is empty.
        let p2 = drain_thread_profile();
        assert_eq!(p2.get(Kernel::J2).calls, 0);
    }

    #[test]
    fn sampled_time_estimates_a_known_spin() {
        assert_estimates(&[(Kernel::J2, 2_000)], 16_384);
    }

    /// A countdown or a fixed stride would alias with a call pattern of its
    /// own period and time only one of the kernels; a per-call draw does
    /// not.
    #[test]
    fn alternating_kernels_do_not_alias() {
        for period in [2, 16] {
            let mut pattern = vec![(Kernel::DetUpdate, 10_000)];
            pattern.resize(period, (Kernel::DetRatio, 2_000));
            assert_estimates(&pattern, 16_384);
        }
    }

    /// Worker threads die every generation: a thread's first scope must be
    /// timed 1 time in 16, not always (a shared start state) or never. 256
    /// threads make "never" as unlikely as "more than 64".
    #[test]
    fn fresh_threads_are_timed_one_time_in_sixteen() {
        let mut timed = 0;
        for _ in 0..4 {
            for _ in 0..64 {
                let p = std::thread::spawn(|| {
                    time_kernel(Kernel::J1, || spin(20_000));
                    drain_thread_profile()
                })
                .join()
                .expect("sampler thread");
                assert_eq!(p.get(Kernel::J1).calls, 1);
                timed += usize::from(p.get(Kernel::J1).nanos > 0);
            }
        }
        assert!(
            (1..=64).contains(&timed),
            "{timed} of 256 first scopes timed"
        );
    }

    #[test]
    fn scopes_shorter_than_the_self_cost_add_zero() {
        assert_eq!(weighted_nanos(3, 20), 0);
        assert_eq!(weighted_nanos(20, 20), 0);
        assert_eq!(weighted_nanos(21, 20), SAMPLE_EVERY);
        drain_thread_profile();
        for _ in 0..4096 {
            time_kernel(Kernel::Coulomb, || ());
        }
        let s = *drain_thread_profile().get(Kernel::Coulomb);
        assert_eq!(s.calls, 4096);
        // Empty scopes: clock jitter at most (a wrapped subtraction would
        // be ~1.8e19, or overflow the weighting).
        assert!(s.nanos < 1 << 40, "nanos = {}", s.nanos);
    }

    #[test]
    fn merge_and_normalize() {
        let mut a = Profile::default();
        a.get_mut(Kernel::DistTableAA).nanos = 300;
        a.get_mut(Kernel::J2).nanos = 100;
        let mut b = Profile::default();
        b.get_mut(Kernel::J2).nanos = 100;
        a.merge(&b);
        let shares = a.normalized();
        let aa = shares
            .iter()
            .find(|(k, _)| *k == Kernel::DistTableAA)
            .unwrap()
            .1;
        let j2 = shares.iter().find(|(k, _)| *k == Kernel::J2).unwrap().1;
        assert!((aa - 0.6).abs() < 1e-12);
        assert!((j2 - 0.4).abs() < 1e-12);
        let sum: f64 = shares.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_kernels_is_exhaustive() {
        // Exhaustive match: a new Kernel variant fails to compile here
        // until it is added, and the const block above then forces it into
        // ALL_KERNELS at the matching index.
        for &k in &ALL_KERNELS {
            match k {
                Kernel::DistTableAA
                | Kernel::DistTableAB
                | Kernel::J1
                | Kernel::J2
                | Kernel::BsplineV
                | Kernel::BsplineVGH
                | Kernel::SpoVGL
                | Kernel::BsplineMwVGL
                | Kernel::DetRatio
                | Kernel::DetUpdate
                | Kernel::Nlpp
                | Kernel::Coulomb
                | Kernel::Other => {}
            }
        }
        assert_eq!(NUM_KERNELS, ALL_KERNELS.len());
        // Labels are unique (report JSON keys by label).
        let mut labels: Vec<_> = ALL_KERNELS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_KERNELS);
    }

    #[test]
    fn profile_set_groups_and_total() {
        let mut set = ProfileSet::with_groups(2);
        let mut p = Profile::default();
        p.get_mut(Kernel::J2).nanos = 100;
        set.merge_group(0, &p);
        set.merge_group(1, &p);
        set.merge_total(&p);
        assert_eq!(set.groups[0].get(Kernel::J2).nanos, 100);
        assert_eq!(set.groups[1].get(Kernel::J2).nanos, 100);
        assert_eq!(set.total.get(Kernel::J2).nanos, 300);
    }

    #[test]
    fn table_rendering_contains_labels() {
        let mut p = Profile::default();
        p.get_mut(Kernel::BsplineVGH).nanos = 1_000_000;
        p.get_mut(Kernel::BsplineVGH).calls = 10;
        p.get_mut(Kernel::BsplineVGH).flops = 5000;
        p.get_mut(Kernel::BsplineVGH).bytes = 1000;
        let t = p.to_table();
        assert!(t.contains("Bspline-vgh"));
        assert!(t.contains("100.0%"));
        assert!(!t.contains("DistTable-AA"), "zero rows are skipped");
    }
}
