//! Non-local pseudopotential (NLPP) via spherical quadrature of ratios.
//!
//! Following Fahy et al. (the paper's ref. 19) and §3 of the paper: the
//! angular integral of the non-local operator is approximated by a
//! quadrature on a spherical shell around each ion. For every electron `i`
//! inside the cutoff of ion `I` at radius `r`:
//!
//! ```text
//! dE = sum_l (2l+1) v_l(r) * (1/Nq) sum_q P_l(cos gamma_q)
//!                              * Psi(.., r'_q, ..) / Psi(.., r_i, ..)
//! ```
//!
//! with `r'_q` on the sphere of radius `r` around the ion and `gamma_q` the
//! angle between the old and new directions. The ratio evaluations go
//! through the value-only wavefunction path (the `Bspline-v` kernel of
//! Fig. 2). The quadrature grid is randomly rotated per evaluation to avoid
//! angular bias, as in QMCPACK.
#![expect(
    clippy::cast_precision_loss,
    reason = "quadrature-grid sizes and channel weights are small counts, exact in f64"
)]

use qmc_containers::{Pos, Real, TinyVector};
use qmc_instrument::{time_kernel, Kernel};
use qmc_particles::{DistTable, ParticleSet};
use qmc_wavefunction::TrialWaveFunction;
use rand::Rng;

/// One angular-momentum channel of a model semi-local pseudopotential:
/// `v_l(r) = v0 * exp(-alpha r^2)`.
#[derive(Clone, Copy, Debug)]
pub struct PpChannel {
    /// Angular momentum (`l <= 2`, the range of [`legendre`]).
    pub l: usize,
    /// Channel strength at `r = 0` (hartree).
    pub v0: f64,
    /// Gaussian decay of the radial channel function.
    pub alpha: f64,
}

impl PpChannel {
    /// Radial channel value `v_l(r)`.
    #[inline]
    pub fn value(&self, r: f64) -> f64 {
        self.v0 * (-self.alpha * r * r).exp()
    }
}

/// The non-local part of one ion species' pseudopotential.
#[derive(Clone, Debug)]
pub struct PseudoSpecies {
    /// Channels (at most [`MAX_CHANNELS`], each with `l <= 2`).
    pub channels: Vec<PpChannel>,
    /// Cutoff radius beyond which the non-local part vanishes.
    pub r_cut: f64,
}

/// Most channels one species may carry (the quadrature's per-channel sums
/// live in a fixed array).
pub const MAX_CHANNELS: usize = 4;

/// The 12-vertex icosahedral quadrature grid (unit vectors, equal weights);
/// integrates spherical harmonics exactly through `l = 5`.
pub fn icosahedron_grid() -> Vec<Pos<f64>> {
    let phi = f64::midpoint(1.0, 5.0f64.sqrt());
    let norm = (1.0 + phi * phi).sqrt();
    let a = 1.0 / norm;
    let b = phi / norm;
    let mut pts = Vec::with_capacity(12);
    for &s1 in &[1.0f64, -1.0] {
        for &s2 in &[1.0f64, -1.0] {
            pts.push(TinyVector([0.0, s1 * a, s2 * b]));
            pts.push(TinyVector([s1 * a, s2 * b, 0.0]));
            pts.push(TinyVector([s1 * b, 0.0, s2 * a]));
        }
    }
    pts
}

/// Legendre polynomial `P_l(x)` for `l <= 2`.
#[inline]
pub fn legendre(l: usize, x: f64) -> f64 {
    match l {
        0 => 1.0,
        1 => x,
        2 => 1.5 * x * x - 0.5,
        _ => panic!("legendre: only l <= 2 supported"),
    }
}

/// Non-local pseudopotential evaluator over an AB (electron-ion) table.
pub struct NonLocalPP {
    table: usize,
    /// Per ion-group pseudopotential (one entry per species).
    species: Vec<PseudoSpecies>,
    /// Ion group of each ion index.
    ion_group: Vec<usize>,
    /// Ion positions (f64).
    ion_pos: Vec<Pos<f64>>,
    /// Quadrature directions (unit sphere).
    grid: Vec<Pos<f64>>,
}

impl NonLocalPP {
    /// Builds the evaluator over AB table `table` with one
    /// [`PseudoSpecies`] per ion group of `ions`. Panics, naming the
    /// species, on a channel with `l > 2` or more than [`MAX_CHANNELS`]
    /// channels — neither can be evaluated.
    pub fn new<T: Real>(table: usize, ions: &ParticleSet<T>, species: Vec<PseudoSpecies>) -> Self {
        assert_eq!(species.len(), ions.num_groups());
        for (g, sp) in species.iter().enumerate() {
            let name = &ions.species(g).name;
            assert!(
                sp.channels.len() <= MAX_CHANNELS,
                "NonLocalPP: species '{name}' has {} channels, at most {MAX_CHANNELS} are supported",
                sp.channels.len()
            );
            if let Some(ch) = sp.channels.iter().find(|ch| ch.l > 2) {
                panic!(
                    "NonLocalPP: species '{name}' has an l = {} channel, only l <= 2 is supported",
                    ch.l
                );
            }
        }
        let ion_group = (0..ions.len()).map(|a| ions.group_of(a)).collect();
        let mut ion_pos = vec![TinyVector::zero(); ions.len()];
        ions.store_positions(&mut ion_pos);
        Self {
            table,
            species,
            ion_group,
            ion_pos,
            grid: icosahedron_grid(),
        }
    }

    /// Evaluates the NLPP contribution to the local energy for the current
    /// configuration. Performs trial moves (ratio evaluations) that are
    /// always rejected, leaving all state untouched.
    pub fn evaluate<T: Real, R: Rng + ?Sized>(
        &self,
        p: &mut ParticleSet<T>,
        psi: &mut TrialWaveFunction<T>,
        rng: &mut R,
    ) -> f64 {
        // Only the quadrature bookkeeping is attributed to the NLPP
        // category; the ratio evaluations inside attribute themselves to
        // Bspline-v / J1 / J2 / DistTable, matching the paper's
        // leaf-level (VTune) hot-spot accounting.
        let pairs = time_kernel(Kernel::Nlpp, || {
            let n = p.len();
            let nion = self.ion_pos.len();
            // Collect the (electron, ion, distance) pairs inside cutoffs
            // first, so the table borrow ends before we start moving.
            let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
            match p.table(self.table) {
                DistTable::AbRef(t) => {
                    for i in 0..n {
                        for a in 0..nion {
                            let d = t.dist(i, a).to_f64();
                            if d < self.species[self.ion_group[a]].r_cut {
                                pairs.push((i, a, d));
                            }
                        }
                    }
                }
                DistTable::AbSoa(t) => {
                    for i in 0..n {
                        let row = t.dist_row(i);
                        for a in 0..nion {
                            let d = row[a].to_f64();
                            if d < self.species[self.ion_group[a]].r_cut {
                                pairs.push((i, a, d));
                            }
                        }
                    }
                }
                _ => panic!("NonLocalPP needs an AB table"),
            }
            pairs
        });
        {
            let n = p.len();
            let nq = self.grid.len() as f64;
            let mut acc = 0.0f64;
            let mut epos = vec![TinyVector::<f64, 3>::zero(); n];
            p.store_positions(&mut epos);
            let lat64 = p.lattice.cast::<f64>();
            // Per-pair scratch, sized once by the fixed quadrature order.
            let npts = self.grid.len();
            let mut dirs = vec![TinyVector::<f64, 3>::zero(); npts];
            let mut newpos = vec![Pos::<T>::zero(); npts];
            let mut ratios = vec![0.0f64; npts];
            let mut channel_sums = [0.0f64; MAX_CHANNELS];
            for (i, a, r) in pairs {
                let sp = &self.species[self.ion_group[a]];
                let rot = random_rotation(rng);
                // Old direction from ion to electron.
                let old_dir = lat64.min_image(epos[i] - self.ion_pos[a]);
                let old_hat = old_dir / old_dir.norm();
                // Rotate the whole grid first (RNG was drawn above, so the
                // stream is untouched by how the ratios are batched) ...
                for (k, q) in self.grid.iter().enumerate() {
                    dirs[k] = rotate(rot, *q);
                    newpos[k] = (self.ion_pos[a] + dirs[k] * r).cast();
                }
                // ... then evaluate the whole shell in one call per
                // component: determinants share one Bspline-v dispatch and
                // one inverse-row extraction for all points, the SoA
                // Jastrows one staged candidate-row call per table.
                psi.calc_ratios_v(p, i, &newpos, &mut ratios);
                channel_sums[..sp.channels.len()].fill(0.0);
                for (k, dir) in dirs.iter().enumerate() {
                    let cosg = old_hat.dot(dir);
                    for (c, ch) in sp.channels.iter().enumerate() {
                        channel_sums[c] += legendre(ch.l, cosg) * ratios[k];
                    }
                }
                for (c, ch) in sp.channels.iter().enumerate() {
                    acc += (2.0 * ch.l as f64 + 1.0) * ch.value(r) * channel_sums[c] / nq;
                }
            }
            acc
        }
    }
}

/// A uniformly random rotation matrix (rows), via quaternion sampling.
fn random_rotation<R: Rng + ?Sized>(rng: &mut R) -> [[f64; 3]; 3] {
    use qmc_particles::gaussian;
    // Random unit quaternion.
    let (mut q0, mut q1, mut q2, mut q3);
    loop {
        q0 = gaussian(rng);
        q1 = gaussian(rng);
        q2 = gaussian(rng);
        q3 = gaussian(rng);
        let n = (q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3).sqrt();
        if n > 1e-12 {
            q0 /= n;
            q1 /= n;
            q2 /= n;
            q3 /= n;
            break;
        }
    }
    [
        [
            1.0 - 2.0 * (q2 * q2 + q3 * q3),
            2.0 * (q1 * q2 - q0 * q3),
            2.0 * (q1 * q3 + q0 * q2),
        ],
        [
            2.0 * (q1 * q2 + q0 * q3),
            1.0 - 2.0 * (q1 * q1 + q3 * q3),
            2.0 * (q2 * q3 - q0 * q1),
        ],
        [
            2.0 * (q1 * q3 - q0 * q2),
            2.0 * (q2 * q3 + q0 * q1),
            1.0 - 2.0 * (q1 * q1 + q2 * q2),
        ],
    ]
}

#[inline]
fn rotate(m: [[f64; 3]; 3], v: Pos<f64>) -> Pos<f64> {
    TinyVector([
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_is_unit_and_balanced() {
        let g = icosahedron_grid();
        assert_eq!(g.len(), 12);
        let mut sum = TinyVector::<f64, 3>::zero();
        for q in &g {
            assert!((q.norm() - 1.0).abs() < 1e-12);
            sum += *q;
        }
        // Antipodal symmetry: vector sum vanishes => P_1 integrates to 0.
        assert!(sum.norm() < 1e-12);
    }

    #[test]
    fn grid_integrates_p2_exactly() {
        // Integral of P_2(cos theta) over the sphere vanishes; the
        // icosahedral rule reproduces that for any fixed axis.
        let g = icosahedron_grid();
        for axis in [
            TinyVector([0.0, 0.0, 1.0]),
            TinyVector([1.0, 0.0, 0.0]),
            TinyVector([0.6, 0.48, 0.64]),
        ] {
            let s: f64 = g.iter().map(|q| legendre(2, q.dot(&axis))).sum();
            assert!(s.abs() < 1e-10, "axis {axis:?}: {s}");
        }
    }

    #[test]
    fn rotation_preserves_norm_and_angles() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_rotation(&mut rng);
        let a = TinyVector([1.0, 2.0, 3.0]);
        let b = TinyVector([-0.5, 0.7, 0.1]);
        let ra = rotate(m, a);
        let rb = rotate(m, b);
        assert!((ra.norm() - a.norm()).abs() < 1e-12);
        assert!((ra.dot(&rb) - a.dot(&b)).abs() < 1e-12);
    }

    #[test]
    fn channel_value_decays() {
        let ch = PpChannel {
            l: 0,
            v0: 2.0,
            alpha: 1.5,
        };
        assert_eq!(ch.value(0.0), 2.0);
        assert!(ch.value(1.0) < 2.0);
        assert!(ch.value(3.0) < 1e-5);
    }

    fn species(channels: Vec<PpChannel>) -> (ParticleSet<f64>, Vec<PseudoSpecies>) {
        use qmc_particles::{CrystalLattice, Species};
        let ions = ParticleSet::new(
            "ion0",
            CrystalLattice::cubic(6.0),
            vec![(
                Species {
                    name: "Xe".into(),
                    charge: 8.0,
                },
                vec![TinyVector([1.0, 2.0, 3.0])],
            )],
        );
        let sp = PseudoSpecies {
            channels,
            r_cut: 1.5,
        };
        (ions, vec![sp])
    }

    fn channel(l: usize) -> PpChannel {
        PpChannel {
            l,
            v0: 1.0,
            alpha: 1.0,
        }
    }

    #[test]
    #[should_panic(expected = "species 'Xe' has an l = 3 channel")]
    fn new_rejects_l_above_two() {
        let (ions, sp) = species(vec![channel(0), channel(3)]);
        NonLocalPP::new(0, &ions, sp);
    }

    #[test]
    #[should_panic(expected = "species 'Xe' has 5 channels")]
    fn new_rejects_a_fifth_channel() {
        let (ions, sp) = species((0..5).map(|l| channel(l % 3)).collect());
        NonLocalPP::new(0, &ions, sp);
    }

    #[test]
    fn new_accepts_four_channels_up_to_l_two() {
        let (ions, sp) = species(vec![channel(0), channel(1), channel(2), channel(2)]);
        NonLocalPP::new(0, &ions, sp);
    }

    #[test]
    fn legendre_values() {
        assert_eq!(legendre(0, 0.3), 1.0);
        assert_eq!(legendre(1, 0.3), 0.3);
        assert!((legendre(2, 1.0) - 1.0).abs() < 1e-15);
        assert!((legendre(2, 0.0) + 0.5).abs() < 1e-15);
    }
}
