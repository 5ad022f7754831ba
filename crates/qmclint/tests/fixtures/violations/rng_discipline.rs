// fixture-class: physics
// RNG draws outside the sanctioned driver/branch/move files, and stream
// re-keys outside the migration marker. The rule is per file: who calls
// these functions does not matter.

/// Physics code owning its own randomness: both draw spellings fire.
pub fn thermal_noise(rng: &mut StdRng) -> f64 {
    let a: f64 = rng.random(); //~ rng-discipline
    a + rng.random::<f64>() //~ rng-discipline
}

/// A serializer "refreshing" the stream while writing it.
pub fn serialize_walker(w: &mut Walker) -> Vec<u8> {
    w.rng = StdRng::seed_from_u64(7); //~ rng-discipline
    Vec::new()
}

/// The migration marker is the one place a stream may be replaced.
pub fn reseed_for_migration(w: &mut Walker, key: u64) {
    w.rng = StdRng::seed_from_u64(key);
}

/// Neither a comparison of streams nor a path call named like a draw
/// method (a table constructor) touches a stream.
pub fn same_stream(w: &Walker, s: &StdRng) -> bool {
    let _table = Table::random(4);
    w.rng == *s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_draw_freely() {
        let mut rng = StdRng::seed_from_u64(1);
        let _: f64 = rng.random();
    }
}
