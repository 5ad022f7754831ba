//! Single-particle orbital (SPO) sets.
//!
//! [`SpoSet`] produces the values / gradients / Laplacians of all orbitals
//! at a point. The production implementation is [`BsplineSpo`]: a shared
//! `qmc-bspline` coefficient table evaluated through `qmc_kernels::bspline`
//! on the backend it was built with, plus the lattice transform, the kernel
//! timers and the FLOP/byte accounting; [`CosineSpo`] is an analytic
//! plane-wave-like set used for correctness tests where every derivative is
//! known in closed form.

use qmc_bspline::MultiBspline3D;
use qmc_containers::{Pos, Real, TinyVector};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_kernels::{bspline, Backend};
use qmc_particles::CrystalLattice;
use std::sync::Arc;

/// A set of single-particle orbitals evaluated at arbitrary positions.
///
/// Gradients and Laplacians are returned in Cartesian coordinates; scratch
/// slices are sized by [`SpoSet::size`].
pub trait SpoSet<T: Real>: Send + Sync {
    /// Number of orbitals.
    fn size(&self) -> usize;

    /// Values of all orbitals at `pos` (used for NLPP ratio evaluations;
    /// the paper's `Bspline-v` kernel).
    fn evaluate_v(&mut self, pos: Pos<T>, psi: &mut [T]);

    /// Values, Cartesian gradients (3 slabs of `size()`) and Laplacians of
    /// all orbitals at `pos` (the `Bspline-vgh` + `SPO-vgl` kernels).
    fn evaluate_vgl(&mut self, pos: Pos<T>, psi: &mut [T], grad: &mut [T], lap: &mut [T]);

    /// Batched (multi-walker) VGL: evaluates one position per walker in a
    /// single call. Outputs are walker-major — walker `w` owns
    /// `psi[w*ns..]`, `grad[w*3*ns..]`, `lap[w*ns..]` with `ns = size()`.
    ///
    /// The default loops the scalar [`Self::evaluate_vgl`] (bit-identical
    /// to per-walker evaluation by construction); table-backed sets
    /// override it with a fused one-pass kernel over the shared
    /// coefficients.
    // qmclint: allow(timer-coverage) — delegates to evaluate_vgl, which is
    // already timed under Kernel::BsplineVGH/SpoVGL; a wrapper timer here
    // would double-count.
    fn mw_evaluate_vgl(&mut self, pos: &[Pos<T>], psi: &mut [T], grad: &mut [T], lap: &mut [T]) {
        let ns = self.size();
        for (w, &p) in pos.iter().enumerate() {
            self.evaluate_vgl(
                p,
                &mut psi[w * ns..(w + 1) * ns],
                &mut grad[w * 3 * ns..(w + 1) * 3 * ns],
                &mut lap[w * ns..(w + 1) * ns],
            );
        }
    }

    /// Batched value-only evaluation: point `q` owns `psi[q*ns..]`.
    /// Per-point results are **bitwise identical** to [`Self::evaluate_v`]
    /// at the same position on every implementation — this is the NLPP
    /// quadrature fast path, where one electron's rotated quadrature
    /// positions share a single dispatch instead of one call (and one
    /// timer scope) per point.
    // qmclint: allow(timer-coverage) — delegates to evaluate_v, which is
    // already timed under Kernel::BsplineV; a wrapper timer here would
    // double-count.
    fn mw_evaluate_v(&mut self, pos: &[Pos<T>], psi: &mut [T]) {
        let ns = self.size();
        for (q, &p) in pos.iter().enumerate() {
            self.evaluate_v(p, &mut psi[q * ns..(q + 1) * ns]);
        }
    }
}

/// B-spline-backed SPO set on a periodic cell. The coefficient table is
/// shared (`Arc`) between all walkers/threads, as in QMCPACK where the
/// read-only table is the single biggest allocation (Table 1).
pub struct BsplineSpo<T: Real> {
    table: Arc<MultiBspline3D<T>>,
    lattice: CrystalLattice<T>,
    /// Kernel backend every evaluation of this set runs on.
    backend: Backend,
    /// Precontracted fractional-to-Cartesian gradient matrix (fused
    /// batched-VGL path).
    gmat: [[T; 3]; 3],
    /// Precontracted packed Laplacian metric (off-diagonals doubled).
    lapmet: [T; 6],
    /// `lapmet`'s off-diagonal entries are exactly zero and `backend` is not
    /// `Reference`: `evaluate_vgl` runs [`bspline::evaluate_vgh_diag`],
    /// keeping 7 of the 10 stencil sums, and its Laplacian reads only the
    /// diagonal Hessian. Every bit is kept (see that kernel's docs). An
    /// exact `== 0`, not [`CrystalLattice::is_orthorhombic`], whose
    /// tolerance accepts cells where the off-diagonal terms are not zero.
    /// `Reference` is the Ref rung's kernel and keeps all ten sums.
    diag: bool,
    /// Scratch for fractional-space gradients (3 slabs).
    scratch_grad: Vec<T>,
    /// Scratch for fractional-space Hessians (6 slabs; `diag` uses the
    /// first 3). A 3-slab scratch on `diag` cells measured `graphite64-dmc`
    /// `setup_s` +35 % in 3 of 3 pairs, and 6 slabs at parity; the cause
    /// was not found.
    scratch_hess: Vec<T>,
    /// Scratch for per-walker fractional coordinates (batched VGL path);
    /// grown once to the crowd size, then reused allocation-free.
    scratch_frac: Vec<[T; 3]>,
}

// Scratch is per-instance; instances are cloned per thread.
impl<T: Real> Clone for BsplineSpo<T> {
    fn clone(&self) -> Self {
        Self {
            table: Arc::clone(&self.table),
            lattice: self.lattice.clone(),
            backend: self.backend,
            gmat: self.gmat,
            lapmet: self.lapmet,
            diag: self.diag,
            scratch_grad: self.scratch_grad.clone(),
            scratch_hess: self.scratch_hess.clone(),
            scratch_frac: self.scratch_frac.clone(),
        }
    }
}

impl<T: Real> BsplineSpo<T> {
    /// Wraps a shared spline table for a given cell and kernel backend.
    pub fn new(
        table: Arc<MultiBspline3D<T>>,
        lattice: CrystalLattice<T>,
        backend: Backend,
    ) -> Self {
        let ns = table.num_splines();
        let gmat = lattice.grad_transform();
        let lapmet = lattice.laplacian_metric();
        let [_, mxy, mxz, _, myz, _] = lapmet;
        let diag = backend != Backend::Reference && [mxy, mxz, myz].iter().all(|&m| m == T::ZERO);
        Self {
            table,
            lattice,
            backend,
            gmat,
            lapmet,
            diag,
            scratch_grad: vec![T::ZERO; 3 * ns],
            scratch_hess: vec![T::ZERO; 6 * ns],
            scratch_frac: Vec::new(),
        }
    }

    /// Bytes of the shared coefficient table.
    pub fn table_bytes(&self) -> usize {
        self.table.bytes()
    }

    fn to_frac(&self, pos: Pos<T>) -> [T; 3] {
        let f = self.lattice.to_frac(pos);
        [f[0], f[1], f[2]]
    }
}

impl<T: Real> SpoSet<T> for BsplineSpo<T> {
    fn size(&self) -> usize {
        self.table.num_splines()
    }

    fn evaluate_v(&mut self, pos: Pos<T>, psi: &mut [T]) {
        let u = self.to_frac(pos);
        let ns = self.size();
        time_kernel(Kernel::BsplineV, || {
            bspline::evaluate_v(self.backend, &self.table.view(), u, psi);
        });
        add_flops_bytes(
            Kernel::BsplineV,
            (128 * ns) as u64,
            (64 * ns * std::mem::size_of::<T>()) as u64,
        );
    }

    fn evaluate_vgl(&mut self, pos: Pos<T>, psi: &mut [T], grad: &mut [T], lap: &mut [T]) {
        let u = self.to_frac(pos);
        let ns = self.size();
        assert!(grad.len() >= 3 * ns && lap.len() >= ns);
        let Self {
            table,
            lattice,
            backend,
            lapmet,
            diag,
            scratch_grad: fg,
            scratch_hess: fh,
            ..
        } = self;
        let sums = if *diag { 7 } else { 10 };
        time_kernel(Kernel::BsplineVGH, || {
            if *diag {
                bspline::evaluate_vgh_diag(*backend, &table.view(), u, psi, fg, fh);
            } else {
                bspline::evaluate_vgh(*backend, &table.view(), u, psi, fg, fh);
            }
        });
        // One FMA per node, orbital and stencil sum; one slab per sum.
        add_flops_bytes(
            Kernel::BsplineVGH,
            (64 * 2 * sums * ns) as u64,
            ((64 + sums) * ns * std::mem::size_of::<T>()) as u64,
        );
        // Transform fractional derivatives to Cartesian (SPO-vgl stage).
        time_kernel(Kernel::SpoVGL, || {
            for s in 0..ns {
                let gf = TinyVector([fg[s], fg[ns + s], fg[2 * ns + s]]);
                let gc = lattice.frac_grad_to_cart(gf);
                grad[s] = gc[0];
                grad[ns + s] = gc[1];
                grad[2 * ns + s] = gc[2];
                lap[s] = if *diag {
                    // `frac_hess_to_cart_laplacian`'s diagonal terms in its
                    // order, from its `+0` start: `lapmet`'s diagonal is its
                    // metric's, bit for bit.
                    let mut l = T::ZERO;
                    l += lapmet[0] * fh[s];
                    l += lapmet[3] * fh[ns + s];
                    l += lapmet[5] * fh[2 * ns + s];
                    l
                } else {
                    lattice.frac_hess_to_cart_laplacian([
                        fh[s],
                        fh[ns + s],
                        fh[2 * ns + s],
                        fh[3 * ns + s],
                        fh[4 * ns + s],
                        fh[5 * ns + s],
                    ])
                };
            }
        });
        add_flops_bytes(
            Kernel::SpoVGL,
            (40 * ns) as u64,
            (10 * ns * std::mem::size_of::<T>()) as u64,
        );
    }

    /// Fused batched VGL: one pass over the shared coefficient table per
    /// walker with the fractional-to-Cartesian transform precontracted into
    /// the stencil weights — 5 accumulation slabs instead of 10 plus a
    /// transform pass. Not bit-identical to the scalar
    /// `vgh`-then-transform path, so it only backs the batched API.
    fn mw_evaluate_vgl(&mut self, pos: &[Pos<T>], psi: &mut [T], grad: &mut [T], lap: &mut [T]) {
        let ns = self.size();
        let nw = pos.len();
        assert!(psi.len() >= nw * ns && grad.len() >= 3 * nw * ns && lap.len() >= nw * ns);
        // Reuse the per-instance scratch: grows to the crowd size on the
        // first batch, then stays allocation-free on the steady-state path.
        let mut us = std::mem::take(&mut self.scratch_frac);
        if us.len() < nw {
            us.resize(nw, [T::ZERO; 3]);
        }
        for (u, &p) in us[..nw].iter_mut().zip(pos.iter()) {
            *u = self.to_frac(p);
        }
        time_kernel(Kernel::BsplineMwVGL, || {
            bspline::mw_evaluate_vgl(
                self.backend,
                &self.table.view(),
                &us[..nw],
                &self.gmat,
                &self.lapmet,
                psi,
                grad,
                lap,
            );
        });
        self.scratch_frac = us;
        add_flops_bytes(
            Kernel::BsplineMwVGL,
            (64 * 14 * ns * nw) as u64,
            ((64 * 5 + 5) * ns * nw * std::mem::size_of::<T>()) as u64,
        );
    }

    /// Fused batched value-only path: one backend dispatch and one timer
    /// scope for the whole quadrature batch. Per-point results are bitwise
    /// identical to the scalar `evaluate_v` (same kernel, same backend).
    fn mw_evaluate_v(&mut self, pos: &[Pos<T>], psi: &mut [T]) {
        let ns = self.size();
        let nq = pos.len();
        assert!(psi.len() >= nq * ns);
        let mut us = std::mem::take(&mut self.scratch_frac);
        if us.len() < nq {
            us.resize(nq, [T::ZERO; 3]);
        }
        for (u, &p) in us[..nq].iter_mut().zip(pos.iter()) {
            *u = self.to_frac(p);
        }
        time_kernel(Kernel::BsplineV, || {
            bspline::mw_evaluate_v(self.backend, &self.table.view(), &us[..nq], psi);
        });
        self.scratch_frac = us;
        add_flops_bytes(
            Kernel::BsplineV,
            (128 * ns * nq) as u64,
            (64 * ns * nq * std::mem::size_of::<T>()) as u64,
        );
    }
}

/// Analytic cosine ("plane-wave-like") orbitals for tests:
/// `phi_s(r) = cos(k_s . r + phase_s)`.
#[derive(Clone)]
pub struct CosineSpo<T: Real> {
    ks: Vec<Pos<f64>>,
    phases: Vec<f64>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Real> CosineSpo<T> {
    /// Builds `n` orbitals commensurate with an orthorhombic cell of edges
    /// `l` (so the orbitals are periodic on the cell).
    pub fn new(n: usize, l: [f64; 3]) -> Self {
        use std::f64::consts::TAU;
        let mut ks = Vec::with_capacity(n);
        let mut phases = Vec::with_capacity(n);
        // Enumerate small integer k-vectors deterministically.
        let mut m = 0i64;
        'outer: for shell in 0i64.. {
            for ix in -shell..=shell {
                for iy in -shell..=shell {
                    for iz in -shell..=shell {
                        if ix.abs().max(iy.abs()).max(iz.abs()) != shell {
                            continue;
                        }
                        // qmclint: allow(precision-cast) — analytic test
                        // SPO builds its k-table in f64 by design.
                        let k = |i: i64, edge: f64| TAU * i as f64 / edge;
                        ks.push(TinyVector([k(ix, l[0]), k(iy, l[1]), k(iz, l[2])]));
                        // qmclint: allow(precision-cast) — phase offsets are
                        // part of the same deliberate f64 reference table.
                        phases.push(0.4 + 0.3 * m as f64);
                        m += 1;
                        if ks.len() == n {
                            break 'outer;
                        }
                    }
                }
            }
        }
        Self {
            ks,
            phases,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Real> SpoSet<T> for CosineSpo<T> {
    fn size(&self) -> usize {
        self.ks.len()
    }

    fn evaluate_v(&mut self, pos: Pos<T>, psi: &mut [T]) {
        let p: Pos<f64> = pos.cast();
        for (s, out) in psi[..self.ks.len()].iter_mut().enumerate() {
            *out = T::from_f64((self.ks[s].dot(&p) + self.phases[s]).cos());
        }
    }

    fn evaluate_vgl(&mut self, pos: Pos<T>, psi: &mut [T], grad: &mut [T], lap: &mut [T]) {
        let p: Pos<f64> = pos.cast();
        let ns = self.ks.len();
        for s in 0..ns {
            let arg = self.ks[s].dot(&p) + self.phases[s];
            let (sin, cos) = arg.sin_cos();
            psi[s] = T::from_f64(cos);
            for d in 0..3 {
                grad[d * ns + s] = T::from_f64(-self.ks[s][d] * sin);
            }
            lap[s] = T::from_f64(-self.ks[s].norm2() * cos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_instrument::drain_thread_profile;

    #[test]
    fn cosine_spo_derivatives_analytic() {
        let mut spo = CosineSpo::<f64>::new(5, [4.0, 5.0, 6.0]);
        let pos = TinyVector([1.1, 2.2, 0.7]);
        let ns = 5;
        let mut psi = vec![0.0; ns];
        let mut grad = vec![0.0; 3 * ns];
        let mut lap = vec![0.0; ns];
        spo.evaluate_vgl(pos, &mut psi, &mut grad, &mut lap);
        // Finite differences on evaluate_v.
        let eps = 1e-6;
        for d in 0..3 {
            let mut pp = pos;
            pp[d] += eps;
            let mut pm = pos;
            pm[d] -= eps;
            let (mut vp, mut vm) = (vec![0.0; ns], vec![0.0; ns]);
            spo.evaluate_v(pp, &mut vp);
            spo.evaluate_v(pm, &mut vm);
            for s in 0..ns {
                let fd = (vp[s] - vm[s]) / (2.0 * eps);
                assert!((grad[d * ns + s] - fd).abs() < 1e-8, "d={d} s={s}");
            }
        }
        // Laplacian via sum of second differences.
        let mut l_fd = vec![0.0; ns];
        for d in 0..3 {
            let mut pp = pos;
            pp[d] += eps;
            let mut pm = pos;
            pm[d] -= eps;
            let (mut vp, mut vm) = (vec![0.0; ns], vec![0.0; ns]);
            spo.evaluate_v(pp, &mut vp);
            spo.evaluate_v(pm, &mut vm);
            for s in 0..ns {
                l_fd[s] += (vp[s] - 2.0 * psi[s] + vm[s]) / (eps * eps);
            }
        }
        for s in 0..ns {
            assert!(
                (lap[s] - l_fd[s]).abs() < 1e-3 * (1.0 + l_fd[s].abs()),
                "s={s}"
            );
        }
    }

    #[test]
    fn bspline_spo_layouts_agree() {
        let lat = CrystalLattice::<f64>::orthorhombic([3.0, 4.0, 5.0]);
        let table = Arc::new(MultiBspline3D::<f64>::random([6, 6, 6], 7, 13));
        let mut spo_ref = BsplineSpo::new(Arc::clone(&table), lat.clone(), Backend::Reference);
        let mut spo_simd = BsplineSpo::new(table, lat, Backend::Simd);
        let pos = TinyVector([1.3, 0.4, 4.1]);
        let ns = 7;
        let (mut p1, mut p2) = (vec![0.0; ns], vec![0.0; ns]);
        spo_ref.evaluate_v(pos, &mut p1);
        spo_simd.evaluate_v(pos, &mut p2);
        for s in 0..ns {
            assert!((p1[s] - p2[s]).abs() < 1e-12);
        }
        let (mut g1, mut g2) = (vec![0.0; 3 * ns], vec![0.0; 3 * ns]);
        let (mut l1, mut l2) = (vec![0.0; ns], vec![0.0; ns]);
        spo_ref.evaluate_vgl(pos, &mut p1, &mut g1, &mut l1);
        spo_simd.evaluate_vgl(pos, &mut p2, &mut g2, &mut l2);
        for i in 0..3 * ns {
            assert!((g1[i] - g2[i]).abs() < 1e-10);
        }
        for s in 0..ns {
            assert!((l1[s] - l2[s]).abs() < 1e-9);
        }
    }

    /// The full chain, `evaluate_vgl` off the diagonal path: ten-sum
    /// `evaluate_vgh`, then `frac_grad_to_cart` and the nine-term
    /// `frac_hess_to_cart_laplacian` per orbital.
    fn full_chain<T: Real>(
        table: &MultiBspline3D<T>,
        lattice: &CrystalLattice<T>,
        backend: Backend,
        pos: Pos<T>,
    ) -> (Vec<T>, Vec<T>, Vec<T>) {
        let ns = table.num_splines();
        let f = lattice.to_frac(pos);
        let (mut psi, mut fg, mut fh) = (
            vec![T::ZERO; ns],
            vec![T::ZERO; 3 * ns],
            vec![T::ZERO; 6 * ns],
        );
        bspline::evaluate_vgh(
            backend,
            &table.view(),
            [f[0], f[1], f[2]],
            &mut psi,
            &mut fg,
            &mut fh,
        );
        let (mut grad, mut lap) = (vec![T::ZERO; 3 * ns], vec![T::ZERO; ns]);
        for s in 0..ns {
            let gc = lattice.frac_grad_to_cart(TinyVector([fg[s], fg[ns + s], fg[2 * ns + s]]));
            for d in 0..3 {
                grad[d * ns + s] = gc[d];
            }
            lap[s] = lattice.frac_hess_to_cart_laplacian(std::array::from_fn(|h| fh[h * ns + s]));
        }
        (psi, grad, lap)
    }

    /// Bitwise contract of the diagonal path. On a cell whose Laplacian
    /// metric has exactly zero off-diagonals, simd runs
    /// `evaluate_vgh_diag` and a three-term Laplacian, and must give the
    /// full chain's bits: random tables, with one orbital whose
    /// coefficients are all zero (signed-zero sums). A triclinic cell and a
    /// near-orthorhombic one (off-diagonal 1e-13, inside
    /// `is_orthorhombic`'s tolerance) must take the full path, and so give
    /// the same bits too.
    fn diagonal_path_keeps_every_bit<T: Real>() {
        let (grid, ns, zero_orbital) = ([6, 7, 5], 21, 4);
        let cells = [
            CrystalLattice::<f64>::orthorhombic([3.0, 4.0, 5.0]),
            CrystalLattice::from_rows([[8.0, 0.0, 0.0], [2.0, 7.0, 0.0], [1.0, 1.5, 9.0]]),
            CrystalLattice::from_rows([[3.0, 1e-13, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 5.0]]),
        ];
        let bits = |x: &[T]| x.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        for seed in [3u64, 11] {
            let mut table = MultiBspline3D::<T>::zeros(grid, ns);
            let mut state = seed;
            table.set_control_points(|_, _, _, s| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if s == zero_orbital {
                    0.0
                } else {
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                }
            });
            let table = Arc::new(table);
            for (c, cell) in cells.iter().enumerate() {
                let lattice: CrystalLattice<T> = cell.cast();
                let backend = Backend::Simd;
                let mut spo = BsplineSpo::new(Arc::clone(&table), lattice.clone(), backend);
                // The bits below, not this flag, are what tell the other two
                // cells' paths apart.
                assert!(
                    c != 0 || spo.diag,
                    "the orthorhombic cell runs the diagonal path"
                );
                for i in 0..8 {
                    let t = i as f64;
                    let frac =
                        TinyVector([0.13 + 0.117 * t, 0.71 - 0.083 * t, (0.37 * t + 0.05) % 1.0]);
                    let pos = lattice.to_cart(frac.cast());
                    let (mut psi, mut grad, mut lap) =
                        (vec![T::ZERO; ns], vec![T::ZERO; 3 * ns], vec![T::ZERO; ns]);
                    spo.evaluate_vgl(pos, &mut psi, &mut grad, &mut lap);
                    let (psi0, grad0, lap0) = full_chain(&table, &lattice, backend, pos);
                    let at = format!("seed {seed} cell {c} {backend} point {i}");
                    assert_eq!(bits(&psi), bits(&psi0), "psi, {at}");
                    assert_eq!(bits(&grad), bits(&grad0), "grad, {at}");
                    assert_eq!(bits(&lap), bits(&lap0), "lap, {at}");
                    assert_eq!(
                        lap[zero_orbital].to_f64().to_bits(),
                        0,
                        "{at}: zero orbital's lap is +0"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_path_keeps_every_bit_f64() {
        diagonal_path_keeps_every_bit::<f64>();
    }

    #[test]
    fn diagonal_path_keeps_every_bit_f32() {
        diagonal_path_keeps_every_bit::<f32>();
    }

    /// `Bspline-vgh` books the sums its kernel ran: 14 flops and 7 output
    /// slabs per node and orbital on the diagonal path, 20 and 10 on the
    /// full one, which `Reference` always runs.
    #[test]
    fn vgh_books_the_sums_it_ran() {
        let ns = 5;
        let table = Arc::new(MultiBspline3D::<f64>::random([6, 6, 6], ns, 3));
        let ortho = CrystalLattice::<f64>::orthorhombic([3.0, 4.0, 5.0]);
        let skew = CrystalLattice::from_rows([[8.0, 0.0, 0.0], [2.0, 7.0, 0.0], [1.0, 1.5, 9.0]]);
        let cases = [
            (ortho.clone(), Backend::Simd, 7),
            (ortho, Backend::Reference, 10),
            (skew, Backend::Simd, 10),
        ];
        for (lattice, backend, sums) in cases {
            let mut spo = BsplineSpo::new(Arc::clone(&table), lattice, backend);
            let (mut psi, mut grad, mut lap) = (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; ns]);
            drain_thread_profile();
            spo.evaluate_vgl(TinyVector([1.3, 0.4, 4.1]), &mut psi, &mut grad, &mut lap);
            let profile = drain_thread_profile();
            let vgh = profile.get(Kernel::BsplineVGH);
            assert_eq!(
                (vgh.calls, vgh.flops, vgh.bytes),
                (
                    1,
                    (64 * 2 * sums * ns) as u64,
                    ((64 + sums) * ns * 8) as u64
                ),
                "{backend}, {sums} sums"
            );
        }
    }

    #[test]
    fn bspline_mw_vgl_matches_scalar_loop() {
        let lat = CrystalLattice::<f64>::orthorhombic([3.0, 4.0, 5.0]);
        let table = Arc::new(MultiBspline3D::<f64>::random([6, 6, 6], 9, 31));
        let mut spo = BsplineSpo::new(table, lat, Backend::current());
        let ns = 9;
        let pos = [
            TinyVector([1.3, 0.4, 4.1]),
            TinyVector([0.2, 3.7, 2.9]),
            TinyVector([2.8, 1.1, 0.6]),
            TinyVector([1.9, 2.5, 3.3]),
        ];
        let nw = pos.len();
        // Fused batched path.
        let mut psi_b = vec![0.0; nw * ns];
        let mut grad_b = vec![0.0; 3 * nw * ns];
        let mut lap_b = vec![0.0; nw * ns];
        spo.mw_evaluate_vgl(&pos, &mut psi_b, &mut grad_b, &mut lap_b);
        // Scalar loop reference.
        for (w, &p) in pos.iter().enumerate() {
            let mut psi = vec![0.0; ns];
            let mut grad = vec![0.0; 3 * ns];
            let mut lap = vec![0.0; ns];
            spo.evaluate_vgl(p, &mut psi, &mut grad, &mut lap);
            for s in 0..ns {
                assert!((psi_b[w * ns + s] - psi[s]).abs() < 1e-12, "w={w} s={s}");
                assert!(
                    (lap_b[w * ns + s] - lap[s]).abs() < 1e-9 * (1.0 + lap[s].abs()),
                    "w={w} s={s}"
                );
            }
            for i in 0..3 * ns {
                assert!(
                    (grad_b[w * 3 * ns + i] - grad[i]).abs() < 1e-10,
                    "w={w} i={i}"
                );
            }
        }
    }

    #[test]
    fn cosine_mw_vgl_default_is_bitwise_scalar_loop() {
        let mut spo = CosineSpo::<f64>::new(6, [4.0, 5.0, 6.0]);
        let ns = 6;
        let pos = [TinyVector([1.1, 2.2, 0.7]), TinyVector([3.0, 0.5, 4.4])];
        let nw = pos.len();
        let mut psi_b = vec![0.0; nw * ns];
        let mut grad_b = vec![0.0; 3 * nw * ns];
        let mut lap_b = vec![0.0; nw * ns];
        spo.mw_evaluate_vgl(&pos, &mut psi_b, &mut grad_b, &mut lap_b);
        for (w, &p) in pos.iter().enumerate() {
            let mut psi = vec![0.0; ns];
            let mut grad = vec![0.0; 3 * ns];
            let mut lap = vec![0.0; ns];
            spo.evaluate_vgl(p, &mut psi, &mut grad, &mut lap);
            assert_eq!(&psi_b[w * ns..(w + 1) * ns], &psi[..]);
            assert_eq!(&grad_b[w * 3 * ns..(w + 1) * 3 * ns], &grad[..]);
            assert_eq!(&lap_b[w * ns..(w + 1) * ns], &lap[..]);
        }
    }

    #[test]
    fn bspline_spo_gradient_finite_difference() {
        let lat = CrystalLattice::<f64>::orthorhombic([3.0, 3.0, 3.0]);
        let table = Arc::new(MultiBspline3D::<f64>::random([8, 8, 8], 3, 21));
        let mut spo = BsplineSpo::new(table, lat, Backend::current());
        let pos = TinyVector([0.77, 1.93, 2.46]);
        let ns = 3;
        let mut psi = vec![0.0; ns];
        let mut grad = vec![0.0; 3 * ns];
        let mut lap = vec![0.0; ns];
        spo.evaluate_vgl(pos, &mut psi, &mut grad, &mut lap);
        let eps = 1e-6;
        for d in 0..3 {
            let mut pp = pos;
            pp[d] += eps;
            let mut pm = pos;
            pm[d] -= eps;
            let (mut vp, mut vm) = (vec![0.0; ns], vec![0.0; ns]);
            spo.evaluate_v(pp, &mut vp);
            spo.evaluate_v(pm, &mut vm);
            for s in 0..ns {
                let fd = (vp[s] - vm[s]) / (2.0 * eps);
                assert!(
                    (grad[d * ns + s] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                    "d={d} s={s}: {} vs {fd}",
                    grad[d * ns + s]
                );
            }
        }
    }
}
