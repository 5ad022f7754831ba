//! Seeded random helpers for particle initialization and Monte Carlo moves.

use crate::lattice::CrystalLattice;
use qmc_containers::{Pos, Real, TinyVector};
use rand::{Rng, RngExt};

/// A standard-normal variate via Box–Muller (avoids an extra distribution
/// dependency; QMC only needs isotropic Gaussian diffusion kicks).
#[expect(clippy::disallowed_methods, reason = "the diffusion kick's draws")]
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// A 3D vector of independent standard-normal components.
pub fn gaussian_pos<R: Rng + ?Sized>(rng: &mut R) -> Pos<f64> {
    TinyVector([gaussian(rng), gaussian(rng), gaussian(rng)])
}

/// Uniformly random positions inside the cell.
#[expect(
    clippy::disallowed_methods,
    reason = "initial positions are drawn here"
)]
pub fn random_positions_in_cell<T: Real, R: Rng + ?Sized>(
    lattice: &CrystalLattice<T>,
    n: usize,
    rng: &mut R,
) -> Vec<Pos<f64>> {
    let lat64: CrystalLattice<f64> = lattice.cast();
    (0..n)
        .map(|_| {
            let f = TinyVector([
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ]);
            lat64.to_cart(f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = gaussian(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn positions_inside_cell() {
        let lat = CrystalLattice::<f64>::orthorhombic([4.0, 6.0, 8.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let ps = random_positions_in_cell(&lat, 100, &mut rng);
        assert_eq!(ps.len(), 100);
        for p in ps {
            assert!(p[0] >= 0.0 && p[0] < 4.0);
            assert!(p[1] >= 0.0 && p[1] < 6.0);
            assert!(p[2] >= 0.0 && p[2] < 8.0);
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let lat = CrystalLattice::<f64>::cubic(5.0);
        let a = random_positions_in_cell(&lat, 5, &mut StdRng::seed_from_u64(7));
        let b = random_positions_in_cell(&lat, 5, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
