// fixture-path: crates/drivers/src/ranks.rs
//! Seeded bug: a rank's generation takes `counts` before `profile`...
//! Every acquisition fires: a physics crate takes no lock at all, so an
//! acquisition *order* (here the two halves of an ABBA deadlock) can no
//! longer exist to get wrong.

/// Acquires `counts`, then `profile` while the first guard is held, and
/// publishes a snapshot through the helper in the other file.
pub fn generation(s: &Shared) {
    let mut c = s.counts.lock(); //~ determinism
    c.bump();
    s.profile.lock().merge(&c); //~ determinism
    drop(c);
    snapshot(s);
}
