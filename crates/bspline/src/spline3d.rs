//! Periodic tricubic multi-B-spline tables: the SPO coefficient store.
//!
//! This is the Rust equivalent of einspline's `multi_UBspline_3d` used by
//! QMCPACK for single-particle orbitals (SPOs). A single table holds the
//! control coefficients of `num_splines` orbitals on a periodic 3D grid.
//!
//! This type owns the table and nothing else: allocation, the one fill
//! routine ([`MultiBspline3D::set_control_points`]) behind every
//! constructor, the periodic ghost layers, and the borrowed
//! [`SplineView`] that `qmc_kernels::bspline` evaluates against. Every
//! evaluation (`evaluate_v`, `mw_evaluate_v`, `evaluate_vgh`,
//! `evaluate_vgl`, `mw_evaluate_vgl`) lives there and takes the
//! `Backend` by name.
//!
//! Coordinates are *fractional* (`[0,1)` per dimension); derivative outputs
//! are with respect to the fractional coordinates. The SPO wrapper in
//! `qmc-wavefunction` applies the lattice transform to Cartesian space.

use qmc_containers::{padded_len, AlignedVec, Real};
use qmc_kernels::SplineView;

/// Solves the cyclic tridiagonal system with constant stencil
/// `(a, b, a)` (sub/diag/super plus periodic corners) for the right-hand
/// side `rhs`, returning the solution. Used to build interpolating periodic
/// B-splines.
// qmclint: cold — periodic-interpolation solve used only while building
// coefficient tables, never inside a Monte Carlo step.
pub fn solve_cyclic_tridiagonal(a: f64, b: f64, rhs: &[f64]) -> Vec<f64> {
    let n = rhs.len();
    assert!(n >= 3);
    // Sherman-Morrison trick: solve the modified (non-cyclic) system twice.
    let gamma = -b;
    // Modified diagonal: first and last entries adjusted.
    let solve_tridiag = |d0: &[f64], rhs: &[f64]| -> Vec<f64> {
        // Thomas algorithm with constant off-diagonals `a`.
        let mut c_prime = vec![0.0; n];
        let mut d_prime = vec![0.0; n];
        c_prime[0] = a / d0[0];
        d_prime[0] = rhs[0] / d0[0];
        for i in 1..n {
            let m = d0[i] - a * c_prime[i - 1];
            c_prime[i] = a / m;
            d_prime[i] = (rhs[i] - a * d_prime[i - 1]) / m;
        }
        let mut x = vec![0.0; n];
        x[n - 1] = d_prime[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = d_prime[i] - c_prime[i] * x[i + 1];
        }
        x
    };
    let mut diag = vec![b; n];
    diag[0] = b - gamma;
    diag[n - 1] = b - a * a / gamma;
    let y = solve_tridiag(&diag, rhs);
    let mut u = vec![0.0; n];
    u[0] = gamma;
    u[n - 1] = a;
    let z = solve_tridiag(&diag, &u);
    let fact = (y[0] + a * y[n - 1] / gamma) / (1.0 + z[0] + a * z[n - 1] / gamma);
    (0..n).map(|i| y[i] - fact * z[i]).collect()
}

/// A periodic tricubic B-spline table for `num_splines` orbitals.
#[derive(Clone)]
pub struct MultiBspline3D<T: Real> {
    /// Logical periodic grid `(nx, ny, nz)`.
    grid: [usize; 3],
    /// Number of orbitals stored.
    num_splines: usize,
    /// Padded orbital count (innermost stride).
    ns_pad: usize,
    /// Control coefficients, layout `[ix][iy][iz][spline]`, each spatial
    /// index padded by +3 ghost layers replicating the periodic images.
    coefs: AlignedVec<T>,
}

impl<T: Real> MultiBspline3D<T> {
    /// Allocates a zeroed table.
    pub fn zeros(grid: [usize; 3], num_splines: usize) -> Self {
        assert!(grid.iter().all(|&n| n >= 4), "grid must be at least 4^3");
        assert!(num_splines >= 1);
        let ns_pad = padded_len::<T>(num_splines);
        let total = (grid[0] + 3) * (grid[1] + 3) * (grid[2] + 3) * ns_pad;
        Self {
            grid,
            num_splines,
            ns_pad,
            coefs: AlignedVec::zeros(total),
        }
    }

    /// Fills the table with seeded pseudo-random coefficients (miniQMC's
    /// strategy for synthetic workloads: identical memory footprint and
    /// access pattern as real orbitals, no DFT input required).
    pub fn random(grid: [usize; 3], num_splines: usize, seed: u64) -> Self {
        let mut table = Self::zeros(grid, num_splines);
        let scale = 1.0 / (num_splines as f64).sqrt();
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        // One xorshift64* draw per control point: the stream follows the
        // fill order, which is what pins every coefficient to its seed.
        table.set_control_points(|_, _, _, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545F4914F6CDD1D);
            (((bits >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * scale
        });
        table
    }

    /// The one table fill: sets every logical control point from `f`,
    /// called exactly once per point in storage order (`ix`, `iy`, `iz`,
    /// spline innermost), converting straight into the padded storage,
    /// and replicates the +3 periodic ghost layers by copying finished
    /// rows, lines and slabs. Pad lanes stay zero.
    pub fn set_control_points(&mut self, mut f: impl FnMut(usize, usize, usize, usize) -> f64) {
        let [nx, ny, nz] = self.grid;
        let ns = self.num_splines;
        // Strides: one grid point, one z line, one yz slab.
        let row = self.ns_pad;
        let line = (nz + 3) * row;
        let slab = (ny + 3) * line;
        let coefs = self.coefs.as_mut_slice();
        for ix in 0..nx {
            for iy in 0..ny {
                let at = ix * slab + iy * line;
                for iz in 0..nz {
                    let point = &mut coefs[at + iz * row..][..ns];
                    for (s, c) in point.iter_mut().enumerate() {
                        *c = T::from_f64(f(ix, iy, iz, s));
                    }
                }
                // z ghosts: rows nz..nz+3 of this line image rows 0..3.
                coefs.copy_within(at..at + 3 * row, at + nz * row);
            }
            // y ghosts: lines ny..ny+3 of this slab image lines 0..3.
            let at = ix * slab;
            coefs.copy_within(at..at + 3 * line, at + ny * line);
        }
        // x ghosts: slabs nx..nx+3 image slabs 0..3.
        coefs.copy_within(0..3 * slab, nx * slab);
    }

    /// Builds an *interpolating* table: the resulting splines take the
    /// values `f(ix, iy, iz, s)` exactly at the periodic grid points.
    /// Solves the cyclic collocation system along each axis in turn.
    // qmclint: cold — table construction (interpolating fit over the full
    // grid); runs once before the drivers start.
    pub fn interpolating(
        grid: [usize; 3],
        num_splines: usize,
        f: impl Fn(usize, usize, usize, usize) -> f64,
    ) -> Self {
        let [nx, ny, nz] = grid;
        let ns = num_splines;
        // data[ix][iy][iz][s] as flat f64 working array.
        let at = |ix: usize, iy: usize, iz: usize, s: usize| ((ix * ny + iy) * nz + iz) * ns + s;
        let mut data = vec![0.0f64; nx * ny * nz * ns];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    for s in 0..ns {
                        data[at(ix, iy, iz, s)] = f(ix, iy, iz, s);
                    }
                }
            }
        }
        // Solve along each axis: replace samples by control points. The
        // collocation stencil for value at knot j is (d[j-1]+4d[j]+d[j+1])/6
        // in the shifted variable d[j] = c[(j+1) mod n].
        let solve_axis = |vals: &mut [f64]| {
            let d = solve_cyclic_tridiagonal(1.0 / 6.0, 4.0 / 6.0, vals);
            let n = vals.len();
            for i in 0..n {
                vals[i] = d[(i + n - 1) % n]; // c[i] = d[i-1]
            }
        };
        let mut buf = vec![0.0f64; nx.max(ny).max(nz)];
        // x axis
        for iy in 0..ny {
            for iz in 0..nz {
                for s in 0..ns {
                    for ix in 0..nx {
                        buf[ix] = data[at(ix, iy, iz, s)];
                    }
                    solve_axis(&mut buf[..nx]);
                    for ix in 0..nx {
                        data[at(ix, iy, iz, s)] = buf[ix];
                    }
                }
            }
        }
        // y axis
        for ix in 0..nx {
            for iz in 0..nz {
                for s in 0..ns {
                    for iy in 0..ny {
                        buf[iy] = data[at(ix, iy, iz, s)];
                    }
                    solve_axis(&mut buf[..ny]);
                    for iy in 0..ny {
                        data[at(ix, iy, iz, s)] = buf[iy];
                    }
                }
            }
        }
        // z axis
        for ix in 0..nx {
            for iy in 0..ny {
                for s in 0..ns {
                    for iz in 0..nz {
                        buf[iz] = data[at(ix, iy, iz, s)];
                    }
                    solve_axis(&mut buf[..nz]);
                    for iz in 0..nz {
                        data[at(ix, iy, iz, s)] = buf[iz];
                    }
                }
            }
        }
        let mut table = Self::zeros(grid, num_splines);
        table.set_control_points(|ix, iy, iz, s| data[at(ix, iy, iz, s)]);
        table
    }

    /// Number of orbitals.
    #[inline]
    pub fn num_splines(&self) -> usize {
        self.num_splines
    }

    /// Logical grid dimensions.
    #[inline]
    pub fn grid(&self) -> [usize; 3] {
        self.grid
    }

    /// Bytes of coefficient storage (the "B-spline (GB)" column of Table 1).
    pub fn bytes(&self) -> usize {
        self.coefs.len() * std::mem::size_of::<T>()
    }

    /// Borrows the coefficient table as the kernel-library view every
    /// backend evaluates against.
    #[inline]
    pub fn view(&self) -> SplineView<'_, T> {
        SplineView {
            grid: self.grid,
            num_splines: self.num_splines,
            ns_pad: self.ns_pad,
            coefs: self.coefs.as_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_kernels::bspline::{evaluate_v, evaluate_vgh, evaluate_vgl, mw_evaluate_vgl};
    use qmc_kernels::Backend;

    #[test]
    fn cyclic_tridiagonal_solver() {
        // Verify A x = rhs for a random-ish rhs.
        let n = 9;
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 - 8.0).collect();
        let x = solve_cyclic_tridiagonal(1.0 / 6.0, 4.0 / 6.0, &rhs);
        for i in 0..n {
            let lhs = x[(i + n - 1) % n] / 6.0 + 4.0 * x[i] / 6.0 + x[(i + 1) % n] / 6.0;
            assert!((lhs - rhs[i]).abs() < 1e-10, "row {i}: {lhs} vs {}", rhs[i]);
        }
    }

    fn trig(ix: usize, iy: usize, iz: usize, s: usize, n: usize) -> f64 {
        use std::f64::consts::TAU;
        let (x, y, z) = (
            ix as f64 / n as f64,
            iy as f64 / n as f64,
            iz as f64 / n as f64,
        );
        let k = (s + 1) as f64;
        (TAU * k * x).sin() + (TAU * y).cos() * (TAU * k * z).sin() + 0.3 * (s as f64)
    }

    #[test]
    fn interpolating_table_hits_knots() {
        let n = 8;
        let t = MultiBspline3D::<f64>::interpolating([n, n, n], 3, |ix, iy, iz, s| {
            trig(ix, iy, iz, s, n)
        });
        let mut psi = vec![0.0; 3];
        for &(ix, iy, iz) in &[(0usize, 0usize, 0usize), (3, 5, 7), (7, 1, 2)] {
            let u = [
                ix as f64 / n as f64,
                iy as f64 / n as f64,
                iz as f64 / n as f64,
            ];
            evaluate_v(Backend::Simd, &t.view(), u, &mut psi);
            for s in 0..3 {
                let expect = trig(ix, iy, iz, s, n);
                assert!(
                    (psi[s] - expect).abs() < 1e-9,
                    "knot ({ix},{iy},{iz}) spline {s}: {} vs {expect}",
                    psi[s]
                );
            }
        }
    }

    #[test]
    fn ref_and_simd_evaluators_agree() {
        let t = MultiBspline3D::<f64>::random([6, 5, 7], 9, 42);
        let ns = 9;
        let u = [0.37, 0.81, 0.12];
        let (mut p1, mut p2) = (vec![0.0; ns], vec![0.0; ns]);
        evaluate_v(Backend::Simd, &t.view(), u, &mut p1);
        evaluate_v(Backend::Reference, &t.view(), u, &mut p2);
        for s in 0..ns {
            assert!((p1[s] - p2[s]).abs() < 1e-13);
        }
        let (mut g1, mut g2) = (vec![0.0; 3 * ns], vec![0.0; 3 * ns]);
        let (mut h1, mut h2) = (vec![0.0; 6 * ns], vec![0.0; 6 * ns]);
        evaluate_vgh(Backend::Simd, &t.view(), u, &mut p1, &mut g1, &mut h1);
        evaluate_vgh(Backend::Reference, &t.view(), u, &mut p2, &mut g2, &mut h2);
        for i in 0..3 * ns {
            assert!((g1[i] - g2[i]).abs() < 1e-11);
        }
        for i in 0..6 * ns {
            assert!((h1[i] - h2[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn vgh_value_matches_v() {
        let t = MultiBspline3D::<f64>::random([5, 5, 5], 4, 7);
        let ns = 4;
        let u = [0.9, 0.45, 0.63];
        let mut pv = vec![0.0; ns];
        evaluate_v(Backend::Simd, &t.view(), u, &mut pv);
        let mut p = vec![0.0; ns];
        let mut g = vec![0.0; 3 * ns];
        let mut h = vec![0.0; 6 * ns];
        evaluate_vgh(Backend::Simd, &t.view(), u, &mut p, &mut g, &mut h);
        for s in 0..ns {
            assert!((p[s] - pv[s]).abs() < 1e-13);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let t = MultiBspline3D::<f64>::random([8, 8, 8], 3, 99);
        let ns = 3;
        let u = [0.311, 0.742, 0.568];
        let mut p = vec![0.0; ns];
        let mut g = vec![0.0; 3 * ns];
        let mut h = vec![0.0; 6 * ns];
        evaluate_vgh(Backend::Simd, &t.view(), u, &mut p, &mut g, &mut h);
        let eps = 1e-6;
        for d in 0..3 {
            let mut up = u;
            up[d] += eps;
            let mut um = u;
            um[d] -= eps;
            let (mut pp, mut pm) = (vec![0.0; ns], vec![0.0; ns]);
            evaluate_v(Backend::Simd, &t.view(), up, &mut pp);
            evaluate_v(Backend::Simd, &t.view(), um, &mut pm);
            for s in 0..ns {
                let fd = (pp[s] - pm[s]) / (2.0 * eps);
                assert!(
                    (g[d * ns + s] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                    "grad d={d} s={s}: {} vs {fd}",
                    g[d * ns + s]
                );
            }
        }
        // Diagonal Hessian via second difference of value.
        for (hidx, d) in [(0usize, 0usize), (3, 1), (5, 2)] {
            let mut up = u;
            up[d] += eps;
            let mut um = u;
            um[d] -= eps;
            let (mut pp, mut pm) = (vec![0.0; ns], vec![0.0; ns]);
            evaluate_v(Backend::Simd, &t.view(), up, &mut pp);
            evaluate_v(Backend::Simd, &t.view(), um, &mut pm);
            for s in 0..ns {
                let fd = (pp[s] - 2.0 * p[s] + pm[s]) / (eps * eps);
                assert!(
                    (h[hidx * ns + s] - fd).abs() < 1e-2 * (1.0 + fd.abs()),
                    "hess {hidx} s={s}: {} vs {fd}",
                    h[hidx * ns + s]
                );
            }
        }
    }

    /// Gradient matrix / Laplacian metric of an orthorhombic cell with
    /// edges `l` (mirrors `CrystalLattice::{grad_transform,
    /// laplacian_metric}` without a qmc-particles dependency).
    fn ortho_transforms(l: [f64; 3]) -> ([[f64; 3]; 3], [f64; 6]) {
        let gmat = [
            [1.0 / l[0], 0.0, 0.0],
            [0.0, 1.0 / l[1], 0.0],
            [0.0, 0.0, 1.0 / l[2]],
        ];
        let lapmet = [
            1.0 / (l[0] * l[0]),
            0.0,
            0.0,
            1.0 / (l[1] * l[1]),
            0.0,
            1.0 / (l[2] * l[2]),
        ];
        (gmat, lapmet)
    }

    #[test]
    fn fused_vgl_matches_vgh_plus_transform() {
        let t = MultiBspline3D::<f64>::random([6, 5, 7], 9, 42);
        let ns = 9;
        let u = [0.37, 0.81, 0.12];
        let l = [3.0, 4.0, 5.0];
        let (gmat, lapmet) = ortho_transforms(l);
        // Two-pass reference: vgh then per-orbital lattice transform.
        let mut p_ref = vec![0.0; ns];
        let mut g_frac = vec![0.0; 3 * ns];
        let mut h_frac = vec![0.0; 6 * ns];
        evaluate_vgh(
            Backend::Simd,
            &t.view(),
            u,
            &mut p_ref,
            &mut g_frac,
            &mut h_frac,
        );
        let mut g_ref = vec![0.0; 3 * ns];
        let mut l_ref = vec![0.0; ns];
        for s in 0..ns {
            for d in 0..3 {
                g_ref[d * ns + s] = (0..3).map(|e| gmat[d][e] * g_frac[e * ns + s]).sum::<f64>();
            }
            l_ref[s] = (0..6).map(|k| lapmet[k] * h_frac[k * ns + s]).sum::<f64>();
        }
        // Fused single pass.
        let mut p = vec![0.0; ns];
        let mut g = vec![0.0; 3 * ns];
        let mut lap = vec![0.0; ns];
        evaluate_vgl(
            Backend::Simd,
            &t.view(),
            u,
            &gmat,
            &lapmet,
            &mut p,
            &mut g,
            &mut lap,
        );
        for s in 0..ns {
            assert!((p[s] - p_ref[s]).abs() < 1e-13, "value s={s}");
            assert!((lap[s] - l_ref[s]).abs() < 1e-9, "lap s={s}");
        }
        for i in 0..3 * ns {
            assert!((g[i] - g_ref[i]).abs() < 1e-10, "grad {i}");
        }
    }

    #[test]
    fn mw_vgl_bitwise_matches_single_walker() {
        let t = MultiBspline3D::<f64>::random([5, 6, 4], 5, 8);
        let ns = 5;
        let (gmat, lapmet) = ortho_transforms([2.0, 3.0, 4.0]);
        let us = [[0.1, 0.9, 0.4], [0.63, 0.08, 0.77], [0.5, 0.5, 0.5]];
        let nw = us.len();
        let mut psi = vec![0.0; nw * ns];
        let mut grad = vec![0.0; nw * 3 * ns];
        let mut lap = vec![0.0; nw * ns];
        let (b, v) = (Backend::Simd, t.view());
        mw_evaluate_vgl(b, &v, &us, &gmat, &lapmet, &mut psi, &mut grad, &mut lap);
        for (w, &u) in us.iter().enumerate() {
            let mut p1 = vec![0.0; ns];
            let mut g1 = vec![0.0; 3 * ns];
            let mut l1 = vec![0.0; ns];
            evaluate_vgl(b, &v, u, &gmat, &lapmet, &mut p1, &mut g1, &mut l1);
            assert_eq!(&psi[w * ns..(w + 1) * ns], &p1[..], "walker {w} psi");
            assert_eq!(
                &grad[w * 3 * ns..(w + 1) * 3 * ns],
                &g1[..],
                "walker {w} grad"
            );
            assert_eq!(&lap[w * ns..(w + 1) * ns], &l1[..], "walker {w} lap");
        }
    }

    #[test]
    fn periodic_wraparound() {
        let t = MultiBspline3D::<f64>::random([6, 6, 6], 2, 5);
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        evaluate_v(Backend::Simd, &t.view(), [0.25, 0.5, 0.75], &mut a);
        evaluate_v(Backend::Simd, &t.view(), [1.25, -0.5, 0.75 - 2.0], &mut b);
        for s in 0..2 {
            assert!(
                (a[s] - b[s]).abs() < 1e-12,
                "spline {s}: {} vs {}",
                a[s],
                b[s]
            );
        }
    }

    #[test]
    fn f32_tracks_f64() {
        let n = 6;
        let f = |ix: usize, iy: usize, iz: usize, s: usize| trig(ix, iy, iz, s, n);
        let t64 = MultiBspline3D::<f64>::interpolating([n, n, n], 2, f);
        let t32 = MultiBspline3D::<f32>::interpolating([n, n, n], 2, f);
        let mut p64 = vec![0.0f64; 2];
        let mut p32 = vec![0.0f32; 2];
        for i in 0..20 {
            let u = [0.05 * i as f64, 0.03 * i as f64, 0.07 * i as f64];
            evaluate_v(Backend::Simd, &t64.view(), u, &mut p64);
            let u32 = [u[0] as f32, u[1] as f32, u[2] as f32];
            evaluate_v(Backend::Simd, &t32.view(), u32, &mut p32);
            for s in 0..2 {
                assert!(
                    (p64[s] - p32[s] as f64).abs() < 1e-4,
                    "i={i} s={s}: {} vs {}",
                    p64[s],
                    p32[s]
                );
            }
        }
    }

    #[test]
    fn bytes_accounts_padding() {
        let t = MultiBspline3D::<f32>::zeros([8, 8, 8], 10);
        // ns padded to 16 f32 lanes
        assert_eq!(t.bytes(), 11 * 11 * 11 * 16 * 4);
    }
}
