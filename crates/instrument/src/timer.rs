//! Per-kernel scoped timers.
//!
//! Reproduces the role of QMCPACK's timer framework / Intel VTune in the
//! paper: every hot kernel (Fig. 2 / Fig. 7 categories) accumulates wall
//! time and call counts into thread-local slots; worker threads drain their
//! local profile into a shared one at block boundaries, so the timing path
//! itself is lock-free and cheap.

use std::cell::RefCell;
use std::time::Instant;

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
    /// Sherman-Morrison / delayed inverse update.
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
    /// Total wall time in nanoseconds.
    pub nanos: u64,
    /// Number of timed scopes.
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

/// A full per-kernel profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    stats: [KernelStats; NUM_KERNELS],
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

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..NUM_KERNELS {
            self.stats[i].merge(&other.stats[i]);
        }
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
/// Drivers hold one of these behind a mutex; each worker drains its
/// thread-local profile into its own group at block boundaries, and the
/// group merge also feeds the aggregate, so `total` is always the sum of
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

thread_local! {
    static LOCAL: RefCell<Profile> = RefCell::new(Profile::default());
}

/// Times the closure under kernel `k`, accumulating into the thread-local
/// profile.
#[inline]
pub fn time_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let nanos = start.elapsed().as_nanos() as u64;
    LOCAL.with(|p| {
        let mut p = p.borrow_mut();
        let s = p.get_mut(k);
        s.nanos += nanos;
        s.calls += 1;
    });
    r
}

/// Records model-counted FLOPs and bytes for kernel `k` (no timing).
#[inline]
pub fn add_flops_bytes(k: Kernel, flops: u64, bytes: u64) {
    LOCAL.with(|p| {
        let mut p = p.borrow_mut();
        let s = p.get_mut(k);
        s.flops += flops;
        s.bytes += bytes;
    });
}

/// Takes and resets the calling thread's accumulated profile. Each worker
/// thread calls this at the end of its walker block and merges the result
/// into a shared profile.
pub fn drain_thread_profile() -> Profile {
    LOCAL.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Merges `profile` back into the calling thread's profile — the inverse
/// of [`drain_thread_profile`], for a caller that drained on behalf of
/// code which reads the thread-local itself.
pub fn merge_thread_profile(profile: &Profile) {
    LOCAL.with(|p| p.borrow_mut().merge(profile));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_drain() {
        drain_thread_profile();
        let x = time_kernel(Kernel::J2, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(x, 42);
        add_flops_bytes(Kernel::J2, 100, 50);
        let p = drain_thread_profile();
        let s = p.get(Kernel::J2);
        assert_eq!(s.calls, 1);
        assert!(s.nanos >= 1_500_000, "nanos = {}", s.nanos);
        assert_eq!(s.flops, 100);
        assert_eq!(s.bytes, 50);
        assert_eq!(s.arithmetic_intensity(), Some(2.0));
        // Drained: second drain is empty.
        let p2 = drain_thread_profile();
        assert_eq!(p2.get(Kernel::J2).calls, 0);
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
