// fixture-path: crates/drivers/src/ranks.rs
// fixture-silences: precision-flow
//! Clean case: the same shapes as the violation fixtures, made legal the
//! intended ways — explicit promotion, a cold callee and a justified allow
//! marker.

fn cheap_energy() -> f32 {
    0.5
}

/// Promotion through `f64::from` is the designated widening site.
pub fn accumulate(n: usize) -> f64 {
    let mut total: f64 = 0.0;
    for _ in 0..n {
        let e = cheap_energy();
        total += f64::from(e);
    }
    total
}
