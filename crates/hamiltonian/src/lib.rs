//! # qmc-hamiltonian
//!
//! Local-energy evaluation (Eq. 7 of the paper):
//!
//! `E_L = -(grad^2 Psi)/(2 Psi) + sum_{i<j} 1/r_ij + V_ei + V_II + V_NL`
//!
//! * [`kinetic_energy`] — bare kinetic term from the wavefunction's
//!   accumulated gradient/Laplacian of `log Psi`.
//! * [`CoulombEE`] / [`CoulombEI`] / [`ion_ion_energy`] — minimum-image
//!   Coulomb interactions over the distance tables (substitute for Ewald;
//!   see DESIGN.md).
//! * [`NonLocalPP`] — the non-local pseudopotential operator, approximated
//!   by a spherical quadrature of wavefunction *ratios* around each ion
//!   (Fahy et al., the paper's ref. 19) — the code path that makes the
//!   `Bspline-v` kernel hot.

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub mod ewald;
pub mod nlpp;

pub use ewald::{erfc, Ewald};
pub use nlpp::{NonLocalPP, PpChannel, PseudoSpecies};

use qmc_containers::Real;
use qmc_instrument::{time_kernel, Kernel};
use qmc_particles::{DistTable, ParticleSet};

/// Local-energy breakdown for one configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalEnergy {
    /// Kinetic term `-1/2 sum_i (lap_i + |grad_i|^2)`.
    pub kinetic: f64,
    /// Electron-electron Coulomb.
    pub ee: f64,
    /// Electron-ion Coulomb.
    pub ei: f64,
    /// Ion-ion Coulomb (constant per run).
    pub ii: f64,
    /// Non-local pseudopotential.
    pub nlpp: f64,
}

impl LocalEnergy {
    /// Total local energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.ee + self.ei + self.ii + self.nlpp
    }
}

/// Kinetic local energy from the accumulated `G = grad log Psi` and
/// `L = lap log Psi`: `-1/2 sum_i (L_i + |G_i|^2)`.
///
/// Requires `TrialWaveFunction::evaluate_log` to have filled `p.g`/`p.l`.
pub fn kinetic_energy<T: Real>(p: &ParticleSet<T>) -> f64 {
    let mut acc: f64 = 0.0;
    for i in 0..p.len() {
        acc += p.l[i] + p.g[i].norm2();
    }
    -0.5 * acc
}

/// Electron-electron Coulomb interaction over an AA distance table.
pub struct CoulombEE {
    table: usize,
}

impl CoulombEE {
    /// Uses the AA distance table `table` of the electron set.
    pub fn new(table: usize) -> Self {
        Self { table }
    }

    /// `sum_{i<j} 1/r_ij` under minimum image.
    pub fn evaluate<T: Real>(&self, p: &ParticleSet<T>) -> f64 {
        time_kernel(Kernel::Coulomb, || {
            let n = p.len();
            let mut acc: f64 = 0.0;
            match p.table(self.table) {
                DistTable::AaRef(t) => {
                    for i in 0..n {
                        for j in i + 1..n {
                            acc += 1.0 / t.dist(i, j).to_f64();
                        }
                    }
                }
                DistTable::AaSoa(t) => {
                    // Row sums double-count; halve at the end. The self
                    // entry holds a huge sentinel, contributing ~0, but we
                    // skip it explicitly for exactness.
                    for i in 0..n {
                        let row = t.dist_row(i);
                        let mut s = T::ZERO;
                        for (j, &d) in row.iter().enumerate() {
                            if j != i {
                                s += T::ONE / d;
                            }
                        }
                        acc += s.to_f64();
                    }
                    acc *= 0.5;
                }
                _ => panic!("CoulombEE needs an AA table"),
            }
            acc
        })
    }
}

/// Electron-ion Coulomb interaction over an AB distance table; ion charges
/// are captured at construction (electrons carry charge -1).
pub struct CoulombEI {
    table: usize,
    ion_charges: Vec<f64>,
}

impl CoulombEI {
    /// Uses AB table `table`; `ions` provides the per-ion charges.
    pub fn new<T: Real>(table: usize, ions: &ParticleSet<T>) -> Self {
        Self {
            table,
            ion_charges: (0..ions.len()).map(|a| ions.charge_of(a)).collect(),
        }
    }

    /// `sum_{i,I} (-Z_I) / r_iI` under minimum image.
    pub fn evaluate<T: Real>(&self, p: &ParticleSet<T>) -> f64 {
        time_kernel(Kernel::Coulomb, || {
            let n = p.len();
            let nion = self.ion_charges.len();
            let mut acc: f64 = 0.0;
            match p.table(self.table) {
                DistTable::AbRef(t) => {
                    for i in 0..n {
                        for a in 0..nion {
                            acc -= self.ion_charges[a] / t.dist(i, a).to_f64();
                        }
                    }
                }
                DistTable::AbSoa(t) => {
                    for i in 0..n {
                        let row = t.dist_row(i);
                        for a in 0..nion {
                            acc -= self.ion_charges[a] / row[a].to_f64();
                        }
                    }
                }
                _ => panic!("CoulombEI needs an AB table"),
            }
            acc
        })
    }
}

/// Constant ion-ion Coulomb energy under minimum image.
pub fn ion_ion_energy<T: Real>(ions: &ParticleSet<T>) -> f64 {
    let n = ions.len();
    let mut acc: f64 = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let dr = ions.lattice.min_image(ions.pos(j) - ions.pos(i));
            acc += ions.charge_of(i) * ions.charge_of(j) / dr.norm().to_f64();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_containers::TinyVector;
    use qmc_particles::{CrystalLattice, Layout, Species};

    fn electrons(n: usize, l: f64, seed: u64) -> ParticleSet<f64> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lat = CrystalLattice::cubic(l);
        let pos: Vec<_> = (0..n)
            .map(|_| {
                TinyVector([
                    rng.random::<f64>() * l,
                    rng.random::<f64>() * l,
                    rng.random::<f64>() * l,
                ])
            })
            .collect();
        ParticleSet::new(
            "e",
            lat,
            vec![(
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                pos,
            )],
        )
    }

    #[test]
    fn coulomb_ee_layouts_match_brute_force() {
        let l = 7.0;
        let mut p = electrons(9, l, 3);
        let h_aos = p.add_table_aa(Layout::Aos);
        let h_soa = p.add_table_aa(Layout::Soa);
        let lat = CrystalLattice::<f64>::cubic(l);
        let mut brute = 0.0;
        for i in 0..9 {
            for j in i + 1..9 {
                brute += 1.0 / lat.min_image(p.pos(j) - p.pos(i)).norm();
            }
        }
        let e_aos = CoulombEE::new(h_aos).evaluate(&p);
        let e_soa = CoulombEE::new(h_soa).evaluate(&p);
        assert!((e_aos - brute).abs() < 1e-12);
        assert!((e_soa - brute).abs() < 1e-10);
    }

    #[test]
    fn coulomb_ei_matches_brute_force() {
        let l = 7.0;
        let ions = ParticleSet::<f64>::new(
            "ion0",
            CrystalLattice::cubic(l),
            vec![(
                Species {
                    name: "C".into(),
                    charge: 4.0,
                },
                vec![TinyVector([1.0, 1.0, 1.0]), TinyVector([5.0, 4.0, 2.0])],
            )],
        );
        let mut p = electrons(6, l, 7);
        let h = p.add_table_ab(&ions, Layout::Soa);
        let lat = CrystalLattice::<f64>::cubic(l);
        let mut brute = 0.0;
        for i in 0..6 {
            for a in 0..2 {
                brute -= 4.0 / lat.min_image(ions.pos(a) - p.pos(i)).norm();
            }
        }
        let e = CoulombEI::new(h, &ions).evaluate(&p);
        assert!((e - brute).abs() < 1e-12);
    }

    #[test]
    fn ion_ion_is_symmetric_constant() {
        let l = 6.0;
        let ions = ParticleSet::<f64>::new(
            "ion0",
            CrystalLattice::cubic(l),
            vec![(
                Species {
                    name: "Be".into(),
                    charge: 2.0,
                },
                vec![TinyVector([0.0, 0.0, 0.0]), TinyVector([3.0, 0.0, 0.0])],
            )],
        );
        let e = ion_ion_energy(&ions);
        assert!((e - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kinetic_zero_for_flat_wavefunction() {
        let p = electrons(4, 5.0, 1);
        // G and L are zero-initialized: flat log psi.
        assert_eq!(kinetic_energy(&p), 0.0);
    }

    #[test]
    fn local_energy_totals() {
        let e = LocalEnergy {
            kinetic: 1.0,
            ee: 2.0,
            ei: -3.0,
            ii: 0.5,
            nlpp: 0.25,
        };
        assert!((e.total() - 0.75).abs() < 1e-15);
    }
}
