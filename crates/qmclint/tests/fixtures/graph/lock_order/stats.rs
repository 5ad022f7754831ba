// fixture-path: crates/drivers/src/stats_fixture.rs
//! ...while the stats snapshot it calls takes `profile` before `counts`:
//! the classic ABBA deadlock, visible only across the two files (this one
//! is no lock root; it is reached through the call graph).

/// Acquires `profile`, then `counts` while the first guard is held.
pub fn snapshot(s: &Shared) {
    let p = s.profile.lock();
    s.counts.lock().read_into(&p);
}
