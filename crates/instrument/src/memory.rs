//! Memory accounting for the footprint experiments (Fig. 8 bottom, Fig. 9).
//!
//! The paper's `gamma (N_th + N_w) N^2` model is counted by the structures
//! themselves (`Walker::bytes`, `QmcEngine::bytes`, the table size) and
//! summed by [`crate::RunReport::total_bytes`]. This module reads the
//! kernel's side: [`current_rss_bytes`], the process resident-set size, as
//! an end-to-end cross-check, and [`anon_huge_bytes`], how much of it
//! transparent huge pages back.

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
