//! Classical Ewald summation for periodic Coulomb interactions.
//!
//! QMCPACK evaluates the periodic Coulomb interaction with an optimized
//! breakup; the minimum-image sums in [`crate::CoulombEE`] are the fast
//! substitute used by the performance benchmarks (see DESIGN.md). This
//! module provides the *accurate* alternative — textbook Ewald with
//! real-space, reciprocal-space, self and neutralizing-background terms —
//! so physics-focused users are not limited by the substitution, and so the
//! substitution itself can be validated (the Madelung tests below).
//!
//! For a neutral collection of point charges `q_i` in a periodic cell of
//! volume `V`:
//!
//! ```text
//! E = 1/2 sum_{i,j,R}' q_i q_j erfc(a |r_ij + R|)/|r_ij + R|
//!   + (2 pi / V) sum_{k != 0} exp(-k^2/(4 a^2))/k^2 |rho(k)|^2
//!   - a/sqrt(pi) sum_i q_i^2
//! ```
//!
//! with `rho(k) = sum_i q_i exp(i k . r_i)` and the prime excluding the
//! i = j, R = 0 self term.
#![expect(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    reason = "Ewald/Madelung lattice sums run in f64 whatever the walker precision T; \
              image counts are small integers"
)]

use qmc_containers::{Pos, Real};
use qmc_particles::{CrystalLattice, ParticleSet};

/// Complementary error function (Abramowitz & Stegun 7.1.26, |eps| < 1.5e-7).
pub fn erfc(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))))
        * (-x * x).exp();
    if sign > 0.0 {
        y
    } else {
        2.0 - y
    }
}

/// Ewald summation engine for a fixed orthorhombic cell.
pub struct Ewald {
    cell: [f64; 3],
    volume: f64,
    /// Splitting parameter.
    alpha: f64,
    /// Real-space cutoff (in units of cell images).
    real_images: i32,
    /// Reciprocal vectors `(kx, ky, kz, prefactor)`.
    kvecs: Vec<(f64, f64, f64, f64)>,
}

impl Ewald {
    /// Builds an Ewald engine for an orthorhombic lattice with accuracy
    /// governed by `alpha` (default heuristic: `5 / L_min`) and enough
    /// k-vectors for ~1e-6 relative accuracy.
    pub fn new<T: Real>(lattice: &CrystalLattice<T>) -> Self {
        let lat: CrystalLattice<f64> = lattice.cast();
        assert!(
            lat.is_orthorhombic(),
            "Ewald engine supports orthorhombic cells"
        );
        let cell = {
            let e = lat.edges();
            [e[0], e[1], e[2]]
        };
        let volume = cell[0] * cell[1] * cell[2];
        let lmin = cell[0].min(cell[1]).min(cell[2]);
        let alpha = 5.0 / lmin;
        // k-space cutoff: exp(-k^2/(4 a^2)) < 1e-12  =>  k < 2 a sqrt(27.6)
        let kcut = 2.0 * alpha * (27.6f64).sqrt();
        use std::f64::consts::TAU;
        let nmax = [
            (kcut * cell[0] / TAU).ceil() as i32,
            (kcut * cell[1] / TAU).ceil() as i32,
            (kcut * cell[2] / TAU).ceil() as i32,
        ];
        let mut kvecs = Vec::new();
        for nx in -nmax[0]..=nmax[0] {
            for ny in -nmax[1]..=nmax[1] {
                for nz in -nmax[2]..=nmax[2] {
                    if nx == 0 && ny == 0 && nz == 0 {
                        continue;
                    }
                    let kx = TAU * nx as f64 / cell[0];
                    let ky = TAU * ny as f64 / cell[1];
                    let kz = TAU * nz as f64 / cell[2];
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2.sqrt() > kcut {
                        continue;
                    }
                    let pref = (TAU / volume) * (-k2 / (4.0 * alpha * alpha)).exp() / k2;
                    kvecs.push((kx, ky, kz, pref));
                }
            }
        }
        Self {
            cell,
            volume,
            alpha,
            real_images: 1,
            kvecs,
        }
    }

    /// Number of reciprocal vectors in the sum.
    pub fn num_kvecs(&self) -> usize {
        self.kvecs.len()
    }

    /// Total Ewald energy of charges `q` at positions `r` (must be neutral
    /// for the background term to vanish; a net charge adds the standard
    /// compensating-background correction).
    pub fn energy(&self, r: &[Pos<f64>], q: &[f64]) -> f64 {
        assert_eq!(r.len(), q.len());
        let n = r.len();
        let a = self.alpha;
        use std::f64::consts::PI;

        // Real-space sum over minimum image plus neighbouring shells.
        let mut e_real = 0.0;
        let m = self.real_images;
        for i in 0..n {
            for j in i + 1..n {
                for ix in -m..=m {
                    for iy in -m..=m {
                        for iz in -m..=m {
                            let dx = r[j][0] - r[i][0] + ix as f64 * self.cell[0];
                            let dy = r[j][1] - r[i][1] + iy as f64 * self.cell[1];
                            let dz = r[j][2] - r[i][2] + iz as f64 * self.cell[2];
                            let d = (dx * dx + dy * dy + dz * dz).sqrt();
                            if d > 1e-12 {
                                e_real += q[i] * q[j] * erfc(a * d) / d;
                            }
                        }
                    }
                }
            }
            // Self-interaction with its own periodic images.
            for ix in -m..=m {
                for iy in -m..=m {
                    for iz in -m..=m {
                        if ix == 0 && iy == 0 && iz == 0 {
                            continue;
                        }
                        let dx = ix as f64 * self.cell[0];
                        let dy = iy as f64 * self.cell[1];
                        let dz = iz as f64 * self.cell[2];
                        let d = (dx * dx + dy * dy + dz * dz).sqrt();
                        e_real += 0.5 * q[i] * q[i] * erfc(a * d) / d;
                    }
                }
            }
        }

        // Reciprocal-space sum.
        let mut e_recip = 0.0;
        for &(kx, ky, kz, pref) in &self.kvecs {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for i in 0..n {
                let phase = kx * r[i][0] + ky * r[i][1] + kz * r[i][2];
                let (s, c) = phase.sin_cos();
                re += q[i] * c;
                im += q[i] * s;
            }
            e_recip += pref * (re * re + im * im);
        }

        // Self term.
        let e_self: f64 = -a / PI.sqrt() * q.iter().map(|x| x * x).sum::<f64>();
        // Neutralizing background for non-neutral systems.
        let qtot: f64 = q.iter().sum();
        let e_bg = -PI / (2.0 * a * a * self.volume) * qtot * qtot;

        e_real + e_recip + e_self + e_bg
    }

    /// Ewald energy of all charged particles in a [`ParticleSet`].
    pub fn energy_of_set<T: Real>(&self, p: &ParticleSet<T>) -> f64 {
        let n = p.len();
        let mut r = vec![qmc_containers::TinyVector::zero(); n];
        p.store_positions(&mut r);
        let q: Vec<f64> = (0..n).map(|i| p.charge_of(i)).collect();
        self.energy(&r, &q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_containers::TinyVector;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    /// The NaCl (rock-salt) Madelung constant: the Ewald energy per ion
    /// pair of a +-1 rock-salt lattice with nearest-neighbour distance d
    /// is -M/d with M = 1.747565.
    #[test]
    fn nacl_madelung_constant() {
        let a = 2.0; // cube edge; nearest-neighbour distance d = 1.0
        let lat = CrystalLattice::<f64>::cubic(a);
        let ewald = Ewald::new(&lat);
        // 8 ions of the rock-salt cube: charge (-1)^(x+y+z).
        let mut r = Vec::new();
        let mut q = Vec::new();
        for x in 0..2 {
            for y in 0..2 {
                for z in 0..2 {
                    r.push(TinyVector([x as f64, y as f64, z as f64]));
                    q.push(if (x + y + z) % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
        }
        let e = ewald.energy(&r, &q);
        // Total lattice energy is -N M / (2 d): each ion contributes
        // -M q^2/d and the half corrects double counting.
        let madelung = -2.0 * e / r.len() as f64; // d = 1
        assert!(
            (madelung - 1.747_565).abs() < 2e-3,
            "Madelung constant {madelung}"
        );
    }

    /// The CsCl-structure Madelung constant (M = 1.762675 w.r.t. the
    /// nearest-neighbour distance).
    #[test]
    fn cscl_madelung_constant() {
        let a = 1.0;
        let lat = CrystalLattice::<f64>::cubic(a);
        let ewald = Ewald::new(&lat);
        let r = vec![TinyVector([0.0, 0.0, 0.0]), TinyVector([0.5, 0.5, 0.5])];
        let q = vec![1.0, -1.0];
        let e = ewald.energy(&r, &q);
        let d = 0.75f64.sqrt(); // nearest-neighbour distance
        let madelung = -e * d / 2.0 * 2.0; // per ion pair: E = -M/d per ion... E_total = 2 ions
                                           // energy per ion = E/2; M = -(E/2) * d ... combine:
        let m = -e / 2.0 * d * 2.0;
        assert!(
            (m - 1.762_675).abs() < 2e-3,
            "CsCl Madelung {m} (raw E {e}, check {madelung})"
        );
    }

    #[test]
    fn energy_independent_of_alpha_partitioning() {
        // Same configuration, two different cells sizes scaled together:
        // Coulomb energy scales as 1/L.
        let r1 = vec![TinyVector([0.0, 0.0, 0.0]), TinyVector([1.0, 1.0, 1.0])];
        let q = vec![1.0, -1.0];
        let e1 = Ewald::new(&CrystalLattice::<f64>::cubic(4.0)).energy(&r1, &q);
        let r2: Vec<_> = r1.iter().map(|p| *p * 2.0).collect();
        let e2 = Ewald::new(&CrystalLattice::<f64>::cubic(8.0)).energy(&r2, &q);
        assert!(
            (e1 - 2.0 * e2).abs() < 1e-4 * e1.abs(),
            "scaling: {e1} vs {}",
            2.0 * e2
        );
    }

    #[test]
    fn translation_invariance() {
        let lat = CrystalLattice::<f64>::cubic(5.0);
        let ewald = Ewald::new(&lat);
        let r = vec![
            TinyVector([1.0, 2.0, 3.0]),
            TinyVector([4.0, 0.5, 2.5]),
            TinyVector([2.2, 4.4, 0.6]),
        ];
        let q = vec![2.0, -1.0, -1.0];
        let e0 = ewald.energy(&r, &q);
        let shift = TinyVector([0.7, -1.3, 2.9]);
        let rs: Vec<_> = r.iter().map(|p| *p + shift).collect();
        let e1 = ewald.energy(&rs, &q);
        assert!((e0 - e1).abs() < 1e-8 * (1.0 + e0.abs()), "{e0} vs {e1}");
    }

    #[test]
    fn kvector_count_reasonable() {
        let ewald = Ewald::new(&CrystalLattice::<f64>::cubic(10.0));
        assert!(ewald.num_kvecs() > 100);
        assert!(ewald.num_kvecs() < 500_000);
    }
}
