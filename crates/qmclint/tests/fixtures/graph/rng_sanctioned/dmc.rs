// fixture-path: crates/drivers/src/dmc.rs
// fixture-silences: rng-discipline
//! Silence witness: randomness in sanctioned territory. The driver draws
//! directly and re-keys only through the `reseed_for_migration` marker.

/// Sanctioned direct draw.
pub fn advance_walker(w: &mut Walker) -> f64 {
    let step: f64 = w.rng.random();
    step - 0.5
}

/// Sanctioned re-key marker: the one place wholesale replacement is legal.
pub fn reseed_for_migration(w: &mut Walker, key: u64) {
    w.rng = StdRng::seed_from_u64(key);
}
