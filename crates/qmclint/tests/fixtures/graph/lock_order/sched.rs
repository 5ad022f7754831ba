// fixture-path: crates/drivers/src/ranks.rs
//! Seeded bug: a rank's generation takes `counts` before `profile`...

/// Acquires `counts`, then `profile` while the first guard is held, and
/// publishes a snapshot through the helper in the other file.
pub fn generation(s: &Shared) {
    let mut c = s.counts.lock();
    c.bump();
    s.profile.lock().merge(&c); //~ lock-order
    drop(c);
    snapshot(s);
}
