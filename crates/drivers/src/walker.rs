//! Walkers: Monte Carlo samples of the 3N-dimensional configuration.
//!
//! A walker carries positions, statistical weight, bookkeeping properties,
//! its own RNG stream (so results are independent of thread scheduling) and
//! the anonymous wavefunction-state buffer (Fig. 4 of the paper). Walkers
//! are decoupled from the compute engines, which is what lets a node hold
//! "an arbitrary number of Walkers" (§8.2).

use qmc_containers::{Pos, Real, TinyVector};
use qmc_wavefunction::WalkerBuffer;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One Monte Carlo walker.
#[derive(Debug)]
pub struct Walker<T: Real> {
    /// Electron positions (storage/message precision is always `f64`).
    pub r: Vec<Pos<f64>>,
    /// Anonymous wavefunction state buffer.
    pub buffer: WalkerBuffer<T>,
    /// DMC statistical weight.
    pub weight: f64,
    /// Branching multiplicity assigned by population control.
    pub multiplicity: f64,
    /// Generations since last accepted move (stuck-walker detection).
    pub age: usize,
    /// Last measured local energy.
    pub e_local: f64,
    /// Last known `log |Psi_T|`.
    pub log_psi: f64,
    /// Private RNG stream.
    pub rng: StdRng,
}

impl<T: Real> Walker<T> {
    /// New walker at the given positions with a seeded private stream.
    pub fn new(r: Vec<Pos<f64>>, seed: u64) -> Self {
        Self {
            r,
            buffer: WalkerBuffer::new(),
            weight: 1.0,
            multiplicity: 1.0,
            age: 0,
            e_local: 0.0,
            log_psi: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True when the walker has no particles (never in practice).
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// Spawns a branching copy: identical configuration and state, fresh
    /// decorrelated RNG stream drawn from the parent's stream.
    #[expect(
        clippy::disallowed_methods,
        reason = "a child's seed comes from its parent's stream"
    )]
    pub fn branch_copy(&mut self) -> Self {
        let child_seed: u64 = self.rng.random();
        Self {
            r: self.r.clone(),
            buffer: self.buffer.clone(),
            weight: self.weight,
            multiplicity: 1.0,
            age: 0,
            e_local: self.e_local,
            log_psi: self.log_psi,
            rng: StdRng::seed_from_u64(child_seed),
        }
    }

    /// Total bytes: positions + buffer (the walker message size whose
    /// reduction the paper quotes as 22.5 MB for NiO-64).
    pub fn bytes(&self) -> usize {
        self.r.len() * std::mem::size_of::<Pos<f64>>() + self.buffer.bytes()
    }
}

/// Creates an initial population at the given configuration with
/// decorrelated per-walker streams.
#[expect(
    clippy::disallowed_methods,
    reason = "walker seeds come from the master stream"
)]
pub fn initial_population<T: Real>(r: &[Pos<f64>], count: usize, seed: u64) -> Vec<Walker<T>> {
    let mut master = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let s: u64 = master.random();
            Walker::new(r.to_vec(), s)
        })
        .collect()
}

/// Convenience zero position vector.
pub fn zero_positions(n: usize) -> Vec<Pos<f64>> {
    vec![TinyVector::zero(); n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_copy_is_independent() {
        let mut w = Walker::<f64>::new(zero_positions(3), 7);
        w.weight = 2.0;
        w.e_local = -1.5;
        let mut c = w.branch_copy();
        assert_eq!(c.weight, 2.0);
        assert_eq!(c.e_local, -1.5);
        assert_eq!(c.multiplicity, 1.0);
        // Streams diverge.
        let a: f64 = w.rng.random();
        let b: f64 = c.rng.random();
        assert_ne!(a, b);
    }

    #[test]
    fn population_streams_are_decorrelated_and_deterministic() {
        let r = zero_positions(2);
        let mut p1 = initial_population::<f64>(&r, 4, 42);
        let mut p2 = initial_population::<f64>(&r, 4, 42);
        for (a, b) in p1.iter_mut().zip(p2.iter_mut()) {
            let x: f64 = a.rng.random();
            let y: f64 = b.rng.random();
            assert_eq!(x, y, "same seed, same streams");
        }
        let mut p3 = initial_population::<f64>(&r, 2, 43);
        let x: f64 = p3[0].rng.random();
        let mut p1b = initial_population::<f64>(&r, 2, 42);
        let y: f64 = p1b[0].rng.random();
        assert_ne!(x, y);
    }

    #[test]
    fn bytes_counts_positions_and_buffer() {
        let mut w = Walker::<f32>::new(zero_positions(4), 1);
        let base = w.bytes();
        assert_eq!(base, 4 * 24);
        w.buffer.put_slice(&[0.0f32; 10]);
        assert_eq!(w.bytes(), base + 40);
    }
}
