// fixture-path: crates/drivers/src/dmc.rs
//! The sanctioned driver that calls the move helper in `moves.rs`.

/// Sanctioned caller of a draw written outside sanctioned territory.
pub fn advance_walker(w: &mut Walker) -> f64 {
    drift_kick(w)
}
