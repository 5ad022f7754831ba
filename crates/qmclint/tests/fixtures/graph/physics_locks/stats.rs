// fixture-path: crates/drivers/src/stats_fixture.rs
//! ...while the stats snapshot it calls takes `profile` before `counts`:
//! the classic ABBA deadlock across the two files.

/// Acquires `profile`, then `counts` while the first guard is held.
pub fn snapshot(s: &Shared) {
    let p = s.profile.lock(); //~ determinism
    s.counts.lock().read_into(&p); //~ determinism
}
