//! Memory accounting for the footprint experiments (Fig. 8 bottom, Fig. 9).
//!
//! Two complementary sources:
//! * a [`MemoryLedger`] into which the major data structures (spline tables,
//!   distance tables, Jastrow matrices, determinant inverses, walker
//!   buffers) register their exact allocation sizes — this reproduces the
//!   paper's `gamma (N_th + N_w) N^2` analysis precisely; and
//! * [`current_rss_bytes`], the process resident-set size from the kernel,
//!   as an end-to-end cross-check, and [`anon_huge_bytes`], how much of it
//!   transparent huge pages back.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Thread-safe ledger of named allocation sizes.
#[derive(Clone, Default)]
pub struct MemoryLedger {
    inner: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl MemoryLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries. Every update is one map insert, so a poisoned lock
    /// still guards a whole map.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<String, u64>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `bytes` under `category` (accumulates across calls).
    pub fn add(&self, category: &str, bytes: usize) {
        *self.entries().entry(category.to_string()).or_insert(0) += bytes as u64;
    }

    /// Total registered bytes.
    pub fn total(&self) -> u64 {
        self.entries().values().sum()
    }

    /// Snapshot of per-category byte counts.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.entries()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Clears all entries.
    pub fn clear(&self) {
        self.entries().clear();
    }

    /// Renders the ledger as an aligned table sorted by size.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut rows = self.snapshot();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let total = self.total();
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>12} {:>8}", "category", "MiB", "share");
        for (k, v) in &rows {
            let share = if total > 0 {
                *v as f64 / total as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12.2} {:>7.1}%",
                k,
                *v as f64 / (1 << 20) as f64,
                share
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>12.2}",
            "TOTAL",
            total as f64 / (1 << 20) as f64
        );
        out
    }
}

/// The `key:  N kB` field of a `/proc` file, in bytes.
fn proc_kib_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Resident-set size of the current process in bytes (Linux), or `None`
/// when `/proc` is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    proc_kib_field("/proc/self/status", "VmRSS")
}

/// Bytes of the current process's anonymous memory backed by transparent
/// huge pages (`AnonHugePages` of `/proc/self/smaps_rollup`, Linux), or
/// `None` when that file is unavailable. Says whether the spline table got
/// the huge pages `AlignedVec::zeros` advises.
pub fn anon_huge_bytes() -> Option<u64> {
    proc_kib_field("/proc/self/smaps_rollup", "AnonHugePages")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let l = MemoryLedger::new();
        l.add("J2", 1000);
        l.add("J2", 500);
        l.add("DistTable", 2000);
        assert_eq!(l.total(), 3500);
        let snap = l.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|(k, v)| k == "J2" && *v == 1500));
        l.clear();
        assert_eq!(l.total(), 0);
    }

    #[test]
    fn ledger_is_shared_across_clones() {
        let l = MemoryLedger::new();
        let l2 = l.clone();
        l2.add("walkers", 42);
        assert_eq!(l.total(), 42);
    }

    #[test]
    fn table_renders() {
        let l = MemoryLedger::new();
        l.add("spline", 10 << 20);
        let t = l.to_table();
        assert!(t.contains("spline"));
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if let Some(rss) = current_rss_bytes() {
            assert!(rss > 1 << 20, "rss = {rss}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn anon_huge_bytes_is_read_on_linux_and_within_rss() {
        let huge = anon_huge_bytes().expect("/proc/self/smaps_rollup has AnonHugePages");
        let rss = current_rss_bytes().expect("/proc/self/status has VmRSS");
        assert!(huge <= rss, "{huge} huge-page bytes > RSS {rss}");
    }
}
