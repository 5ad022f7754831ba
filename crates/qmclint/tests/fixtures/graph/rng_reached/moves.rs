// fixture-path: crates/particles/src/moves.rs
//! A draw in a file outside the sanctioned path list fires even though
//! the sanctioned DMC driver is its only caller: reachability from the
//! drivers does not sanction a draw, only where it is written does.

/// Uniform kick drawn from the walker's own stream.
pub fn drift_kick(w: &mut Walker) -> f64 {
    let u: f64 = w.rng.random(); //~ rng-discipline
    u - 0.5
}
