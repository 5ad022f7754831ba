//! Minimal offline stand-in for the `rand` crate.
//!
//! The workspace must build in air-gapped environments, so instead of the
//! registry crate this shim provides exactly the surface the QMC code uses:
//! `Rng` / `RngExt` (`.random::<T>()`, `.random_range(..)`), `SeedableRng`
//! (`seed_from_u64`), and `rngs::StdRng`.
//!
//! `StdRng` is xoshiro256** seeded through SplitMix64 — a well-studied,
//! deterministic generator with 2^256-1 period. Determinism across
//! platforms and versions is a hard requirement here (walker RNG streams
//! are part of the reproducibility contract), which an in-tree generator
//! guarantees better than a registry dependency ever could.

#![allow(
    clippy::pedantic,
    reason = "vendored stand-in: names, signatures and by-value arguments mirror the external crate"
)]

/// Core entropy source: everything derives from `next_u64`.
pub trait Rng {
    fn next_u64(&mut self) -> u64;
}

/// Sampling conveniences layered over any [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly distributed value of `T` (for floats: in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in the given range (end-exclusive).
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types samplable uniformly from raw 64-bit entropy.
pub trait Standard {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// 53 random mantissa bits in `[0, 1)` — the classic `u64 >> 11` map.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`RngExt::random_range`].
pub trait SampleRange {
    type Output;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end - self.start) as u64;
                // Lemire-style unbiased bounded sampling via 128-bit multiply.
                let mut x = rng.next_u64();
                let mut m = (x as u128) * (span as u128);
                let mut lo = m as u64;
                if lo < span {
                    let t = span.wrapping_neg() % span;
                    while lo < t {
                        x = rng.next_u64();
                        m = (x as u128) * (span as u128);
                        lo = m as u64;
                    }
                }
                self.start + ((m >> 64) as u64) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** (Blackman & Vigna) seeded through SplitMix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl StdRng {
        /// The raw xoshiro256** state words, for bitwise checkpointing.
        ///
        /// [`StdRng::from_state`] reconstructs a generator that continues
        /// the stream exactly where this one stands — unlike re-seeding,
        /// which starts a fresh (decorrelated) stream.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from raw state words captured by
        /// [`StdRng::state`].
        ///
        /// The all-zero state is a fixed point of xoshiro256** (the stream
        /// would be constant zero) and is unreachable from any seeded
        /// generator, so it can only come from corrupt input; it is mapped
        /// to the seed-0 generator instead of being honored.
        pub fn from_state(s: [u64; 4]) -> Self {
            if s == [0; 4] {
                return <Self as SeedableRng>::seed_from_u64(0);
            }
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn bounded_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = [0usize; 7];
        for _ in 0..7000 {
            hits[rng.random_range(0usize..7)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 700, "bucket {i} starved: {h}");
        }
    }

    #[test]
    fn state_roundtrip_continues_stream_exactly() {
        let mut a = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..17 {
            a.next_raw();
        }
        let snap = a.state();
        let mut b = StdRng::from_state(snap);
        assert_eq!(b.state(), snap);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw(), "restored stream diverged");
        }
    }

    #[test]
    fn all_zero_state_is_not_honored() {
        // The zero state is a fixed point of xoshiro; from_state must not
        // produce a dead generator from corrupt input.
        let mut z = StdRng::from_state([0; 4]);
        assert_ne!(z.state(), [0; 4]);
        assert_ne!(z.next_raw(), z.next_raw());
    }

    trait Raw {
        fn next_raw(&mut self) -> u64;
    }
    impl Raw for StdRng {
        fn next_raw(&mut self) -> u64 {
            use super::Rng;
            self.next_u64()
        }
    }
}
