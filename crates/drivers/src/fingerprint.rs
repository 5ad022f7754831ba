//! Bitwise fingerprints of walker state.
//!
//! FNV-1a 64-bit digests over raw little-endian bit patterns: equal
//! digests mean bitwise-equal state. The parity tests
//! (`crates/workloads/tests/parity.rs`) use these to assert thread, crew
//! and backend parity, and that a restored run is indistinguishable from
//! an uninterrupted one. The digest lives here so every layer that can
//! see a [`Walker`] can fingerprint it.

use crate::walker::Walker;
use qmc_containers::Real;
use qmc_wavefunction::WalkerBuffer;
use rand::rngs::StdRng;

/// FNV-1a 64-bit, folding in raw little-endian bytes: the digest is a pure
/// function of the bit patterns, so equal digests mean bitwise-equal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds an `f64` by bit pattern (NaN-safe, sign-preserving).
    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// Folds a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Bitwise digest of one walker: positions, statistical weights, age, the
/// cached per-walker scalars, its raw RNG state words and its
/// scratch-buffer payload and cursors — the strongest per-walker equality: two walkers with equal full digests will produce
/// bitwise-identical trajectories forever after. Every field of the
/// walker is folded: a stale cached value or a dirty read cursor breaks
/// restart parity even when the positions and scalars agree.
pub fn walker_digest_full<T: Real>(w: &Walker<T>) -> u64 {
    let mut h = Fnv::new();
    let (rng, buffer) = fold_walker(&mut h, w);
    for s in rng.state() {
        h.u64(s);
    }
    let (r_cursor, d_cursor) = buffer.cursors();
    let reals = buffer.reals();
    h.u64(reals.len() as u64);
    for x in reals {
        h.f64(x.to_f64());
    }
    h.u64(r_cursor as u64);
    let doubles = buffer.doubles();
    h.u64(doubles.len() as u64);
    for &x in doubles {
        h.f64(x);
    }
    h.u64(d_cursor as u64);
    h.value()
}
// Digests are pure: a `&mut` receiver would not compile against these pins.
const _: fn(&Walker<f64>) -> u64 = walker_digest_full::<f64>;

/// Folds the positions and scalars, and returns the two fields
/// [`walker_digest_full`] folds after them. The destructuring names every
/// field, so a field added to [`Walker`] does not compile until the digest
/// folds it.
fn fold_walker<'w, T: Real>(h: &mut Fnv, w: &'w Walker<T>) -> (&'w StdRng, &'w WalkerBuffer<T>) {
    let Walker {
        r,
        buffer,
        weight,
        multiplicity,
        age,
        e_local,
        log_psi,
        rng,
    } = w;
    for p in r {
        for d in 0..3 {
            h.f64(p[d]);
        }
    }
    h.f64(*weight);
    h.f64(*multiplicity);
    h.u64(*age as u64);
    h.f64(*e_local);
    h.f64(*log_psi);
    (rng, buffer)
}

/// Digest of a whole population, in walker order, using the full
/// (RNG-inclusive) per-walker digest. This is the value miniqmc prints as
/// `walker-hash` and the checkpoint-resume parity gates compare.
pub fn population_digest<T: Real>(walkers: &[Walker<T>]) -> u64 {
    let mut h = Fnv::new();
    h.u64(walkers.len() as u64);
    for w in walkers {
        h.u64(walker_digest_full(w));
    }
    h.value()
}
const _: fn(&[Walker<f64>]) -> u64 = population_digest::<f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::zero_positions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Walkers that differ in their RNG words alone digest apart, and
    /// digest equal again once the words are put back.
    #[test]
    fn full_digest_separates_rng_states() {
        let a = Walker::<f64>::new(zero_positions(2), 7);
        let mut b = Walker::<f64>::new(zero_positions(2), 7);
        assert_eq!(walker_digest_full(&a), walker_digest_full(&b));
        b.rng.next_u64();
        assert_ne!(walker_digest_full(&a), walker_digest_full(&b));
        b.rng = StdRng::from_state(a.rng.state());
        assert_eq!(walker_digest_full(&a), walker_digest_full(&b));
    }

    #[test]
    fn population_digest_is_order_and_length_sensitive() {
        let a = Walker::<f64>::new(zero_positions(1), 1);
        let b = Walker::<f64>::new(zero_positions(1), 2);
        let ab = population_digest(&[a, b]);
        let a = Walker::<f64>::new(zero_positions(1), 1);
        let b = Walker::<f64>::new(zero_positions(1), 2);
        let ba = population_digest(&[b, a]);
        assert_ne!(ab, ba);
        let lone = Walker::<f64>::new(zero_positions(1), 1);
        assert_ne!(ab, population_digest(&[lone]));
    }

    #[test]
    fn digest_matches_manual_fnv() {
        // Pin the digest construction against an independently folded FNV
        // so the walker field order cannot silently change.
        let mut w = Walker::<f64>::new(zero_positions(1), 3);
        w.weight = 1.5;
        w.age = 2;
        let mut h = Fnv::new();
        for _ in 0..3 {
            h.f64(0.0);
        }
        h.f64(1.5);
        h.f64(1.0);
        h.u64(2);
        h.f64(0.0);
        h.f64(0.0);
        for s in StdRng::seed_from_u64(3).state() {
            h.u64(s);
        }
        // Buffer section: empty payloads and zero cursors for a fresh
        // walker — real-slab length, real cursor, double-slab length,
        // double cursor.
        for _ in 0..4 {
            h.u64(0);
        }
        assert_eq!(walker_digest_full(&w), h.value());
    }

    /// Walkers that differ in their buffer alone digest apart, whether in
    /// its payload or only in a read cursor, and so do their populations.
    #[test]
    fn full_digest_separates_buffer_cursors() {
        let a = Walker::<f64>::new(zero_positions(1), 5);
        let mut b = Walker::<f64>::new(zero_positions(1), 5);
        assert_eq!(walker_digest_full(&a), walker_digest_full(&b));
        b.buffer.put_f64(2.5);
        assert_ne!(walker_digest_full(&a), walker_digest_full(&b));
        assert_ne!(population_digest(&[a]), population_digest(&[b]));
        // A read path that leaves the cursor dirty is also visible.
        let mut c = Walker::<f64>::new(zero_positions(1), 5);
        c.buffer.put_f64(2.5);
        c.buffer.rewind();
        let before = walker_digest_full(&c);
        let _ = c.buffer.get_f64();
        assert_ne!(walker_digest_full(&c), before);
    }
}
