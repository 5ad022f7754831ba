//! Slater (Dirac) determinant component.
//!
//! Implements the determinant part of Eq. 2: `D = det|A|` with
//! `A[i][j] = phi_j(r_i)` over one spin's electrons. Ratios use the matrix
//! determinant lemma (Eq. 6) as a dot against column `k` of `A⁻¹`; accepted
//! moves update the inverse with Sherman–Morrison (the baseline `DetUpdate`
//! kernel) or with the delayed Woodbury engine of §8.4. The inverse is
//! recomputed from scratch in double precision every `recompute_period`
//! accepted sweeps to bound mixed-precision drift (§7.2 of the paper,
//! ref. 13).
//!
//! ## Storage order of the inverse
//!
//! The Sherman–Morrison engine holds `B = A⁻¹` row-major, as LU returns it,
//! not the transposed inverse `M = Bᵀ` whose row `k` the ratio wants,
//! because the update dominates and is an issue-rate problem in `M`'s order
//! (`n²` scalar FMAs) but `2n²/W` vector FMAs in `B`'s — see
//! `qmc_linalg::updates`. Both sides of that trade keep every bit:
//!
//! * the ratio side copies column `k` of `B` — a strided read, paid once
//!   per electron — into the `inv_row` scratch that used to receive row `k`
//!   of `M`. The scratch then holds the same numbers in the same order, so
//!   `ratio`, `ratio_grad`, `eval_grad`, `ratios_value_only` and
//!   `accumulate_gl` run the `dot`/`dots` calls they always ran;
//! * the update side accumulates `w[j]` as a sum of row axpys in ascending
//!   `i`, which is `dot(M.row(j), v)`'s `mul_add` sequence for every `j`,
//!   and its rank-1 correction is the same `mul_add` per element.
//!
//! `save_state`/`load_state` still write and read the inverse row =
//! electron (`M`'s order) through a blocked transpose, so the walker
//! buffer, the checkpoint format and every walker hash are unchanged —
//! which is the end-to-end proof of the two claims above.

use crate::buffer::WalkerBuffer;
use crate::spo::SpoSet;
use crate::traits::WaveFunctionComponent;
use qmc_containers::{AlignedVec, Matrix, Pos, Real, TinyVector};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_linalg::{dot, dots, invert_with_log_det, sherman_morrison_inverse, DelayedInverse};
use qmc_particles::ParticleSet;

/// Inverse-update algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetUpdateMode {
    /// Rank-1 Sherman–Morrison after every accepted move (baseline).
    ShermanMorrison,
    /// Delayed Woodbury updates with the given delay depth (§8.4).
    Delayed(usize),
}

// The delayed variant carries its U/V panels inline; boxing it would put a
// pointer chase on the per-move accept path for one allocation per
// determinant (two per engine), which is not worth it.
#[allow(clippy::large_enum_variant)]
enum InverseEngine<T: Real> {
    /// `B = A⁻¹`, row-major (module docs).
    Direct(Matrix<T>),
    /// Owns the transposed inverse `Bᵀ` plus its pending panels.
    Delayed(DelayedInverse<T>),
}

/// Quadrature points whose value-only ratios share one pass over the inverse
/// row (one [`dots`] call) in [`DiracDeterminant::ratios_value_only`].
const NQ_BLOCK: usize = 8;

/// Default accepted-move recompute cadence, in units of sweeps (times
/// `nel`): single-precision inverses drift fast enough that QMCPACK-style
/// MP recomputes every few sweeps; double precision can go much longer.
pub const DEFAULT_RECOMPUTE_SWEEPS_SP: usize = 8;
/// Double-precision recompute cadence in sweeps.
pub const DEFAULT_RECOMPUTE_SWEEPS_DP: usize = 64;

/// A Dirac determinant over electrons `[first, first + nel)` using `nel`
/// orbitals from an [`SpoSet`].
pub struct DiracDeterminant<T: Real> {
    spo: Box<dyn SpoSet<T>>,
    first: usize,
    nel: usize,
    engine: InverseEngine<T>,
    /// Slater matrix rows (`psiM`), kept current on accepts.
    psi_m: Matrix<T>,
    /// Orbital gradients per electron row (3 component matrices).
    g_m: [Matrix<T>; 3],
    /// Orbital Laplacians per electron row.
    l_m: Matrix<T>,
    // Candidate buffers.
    psi_v: AlignedVec<T>,
    psi_g: AlignedVec<T>,
    psi_l: AlignedVec<T>,
    /// Column `k` of `A⁻¹` for the electron in [`Self::inv_col`].
    inv_row: AlignedVec<T>,
    /// Which electron's column `inv_row` holds, if the Sherman–Morrison
    /// engine's matrix has not changed since it was read: lets
    /// `eval_grad(k)` and the `ratio_grad(k)` after it share one strided
    /// read. Cleared wherever that matrix is written.
    inv_col: Option<usize>,
    /// `w` scratch of [`sherman_morrison_inverse`].
    sm_w: AlignedVec<T>,
    /// Scratch for batched value-only quadrature ratios (NLPP fast path);
    /// grown once to `nq * ns`, then reused allocation-free.
    mw_psi_v: Vec<T>,
    cur_ratio: f64,
    cur_has_vgl: bool,
    log_value: f64,
    sign: f64,
    accepted_since_recompute: usize,
    recompute_period: usize,
}

impl<T: Real> DiracDeterminant<T> {
    /// Builds a determinant for electrons `[first, first+nel)`. The SPO set
    /// must provide at least `nel` orbitals; the first `nel` are used.
    pub fn new(spo: Box<dyn SpoSet<T>>, first: usize, nel: usize, mode: DetUpdateMode) -> Self {
        assert!(spo.size() >= nel, "need at least nel orbitals");
        // Scratch slabs follow the SpoSet convention: stride == spo.size().
        let ns = spo.size();
        let engine = match mode {
            DetUpdateMode::ShermanMorrison => InverseEngine::Direct(Matrix::zeros(nel, nel)),
            DetUpdateMode::Delayed(k) => {
                InverseEngine::Delayed(DelayedInverse::new(Matrix::zeros(nel, nel), k.max(1)))
            }
        };
        Self {
            spo,
            first,
            nel,
            engine,
            psi_m: Matrix::zeros(nel, nel),
            g_m: [
                Matrix::zeros(nel, nel),
                Matrix::zeros(nel, nel),
                Matrix::zeros(nel, nel),
            ],
            l_m: Matrix::zeros(nel, nel),
            psi_v: AlignedVec::zeros(ns),
            psi_g: AlignedVec::zeros(3 * ns),
            psi_l: AlignedVec::zeros(ns),
            inv_row: AlignedVec::zeros(nel),
            inv_col: None,
            sm_w: AlignedVec::zeros(nel),
            mw_psi_v: Vec::new(),
            cur_ratio: 1.0,
            cur_has_vgl: false,
            log_value: 0.0,
            sign: 1.0,
            accepted_since_recompute: 0,
            recompute_period: nel
                * if std::mem::size_of::<T>() <= 4 {
                    DEFAULT_RECOMPUTE_SWEEPS_SP
                } else {
                    DEFAULT_RECOMPUTE_SWEEPS_DP
                },
        }
    }

    /// Sets the double-precision recompute cadence (accepted moves).
    pub fn set_recompute_period(&mut self, period: usize) {
        self.recompute_period = period.max(1);
    }

    /// Index range of the electrons this determinant covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.nel
    }

    fn owns(&self, iat: usize) -> bool {
        iat >= self.first && iat < self.first + self.nel
    }

    /// Rebuilds the inverse from the stored Slater matrix in double
    /// precision and resets the engine (mixed-precision hygiene). Returns
    /// the double-precision `A⁻¹` as LU produced it.
    fn reinvert(&mut self) -> Matrix<f64> {
        let a64: Matrix<f64> = self.psi_m.cast();
        let (inv64, log, sign) = invert_with_log_det(&a64).expect("singular Slater matrix");
        match &mut self.engine {
            InverseEngine::Direct(b) => *b = inv64.cast(),
            InverseEngine::Delayed(d) => d.reset(inv64.transposed().cast()),
        }
        self.inv_col = None;
        self.log_value = log;
        self.sign = sign;
        self.accepted_since_recompute = 0;
        inv64
    }

    /// Fills `inv_row` with column `local` of `A⁻¹`.
    fn engine_inv_row(&mut self, local: usize) {
        match &mut self.engine {
            InverseEngine::Direct(b) => {
                if self.inv_col != Some(local) {
                    for (i, out) in self.inv_row.iter_mut().enumerate() {
                        *out = b[(i, local)];
                    }
                    self.inv_col = Some(local);
                }
            }
            InverseEngine::Delayed(d) => {
                d.inv_row(local, self.inv_row.as_mut_slice());
            }
        }
    }

    /// Flushes any pending delayed updates (needed before measurements that
    /// read many inverse rows).
    pub fn complete_updates(&mut self) {
        if let InverseEngine::Delayed(d) = &mut self.engine {
            d.flush();
        }
    }

    /// Second half of [`WaveFunctionComponent::evaluate_log`]: with
    /// `psi_m`/`g_m`/`l_m` already filled, reinverts in double precision
    /// and accumulates G/L of `log|det|` into the particle set. Shared by
    /// the scalar and crowd-batched from-scratch paths.
    fn finish_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        let nel = self.nel;
        let inv64 = self.reinvert();
        for i in 0..nel {
            let mut g = TinyVector::<f64, 3>::zero();
            let mut lap: f64 = 0.0;
            for j in 0..nel {
                // Column i of A⁻¹, read in place: these sums are chains of
                // dependent adds, so the strided load hides under them.
                let mij = inv64[(j, i)];
                for d in 0..3 {
                    g[d] += self.g_m[d][(i, j)].to_f64() * mij;
                }
                lap += self.l_m[(i, j)].to_f64() * mij;
            }
            p.g[self.first + i] += g;
            p.l[self.first + i] += lap - g.norm2();
        }
        self.log_value
    }

    /// Copies one walker's slab slices out of the multi-walker VGL batch
    /// into row `i` of this determinant's Slater/gradient/Laplacian
    /// matrices. `psi`/`lap` are `ns`-long, `grad` is `3 * ns` (three `ns`
    /// slabs), all for this walker only.
    fn scatter_row(&mut self, i: usize, ns: usize, psi: &[T], grad: &[T], lap: &[T]) {
        let nel = self.nel;
        self.psi_m.row_mut(i).copy_from_slice(&psi[..nel]);
        for d in 0..3 {
            self.g_m[d]
                .row_mut(i)
                .copy_from_slice(&grad[d * ns..d * ns + nel]);
        }
        self.l_m.row_mut(i).copy_from_slice(&lap[..nel]);
    }
}

impl<T: Real> WaveFunctionComponent<T> for DiracDeterminant<T> {
    fn name(&self) -> &'static str {
        "DiracDeterminant"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        let nel = self.nel;
        // Fill psiM, gM, lM from the SPO set.
        for i in 0..nel {
            let pos = p.pos(self.first + i);
            let Self {
                spo,
                psi_m,
                g_m,
                l_m,
                psi_v,
                psi_g,
                psi_l,
                ..
            } = self;
            spo.evaluate_vgl(
                pos,
                psi_v.as_mut_slice(),
                psi_g.as_mut_slice(),
                psi_l.as_mut_slice(),
            );
            let ns = psi_v.len();
            psi_m.row_mut(i).copy_from_slice(&psi_v.as_slice()[..nel]);
            for d in 0..3 {
                g_m[d]
                    .row_mut(i)
                    .copy_from_slice(&psi_g.as_slice()[d * ns..d * ns + nel]);
            }
            l_m.row_mut(i).copy_from_slice(&psi_l.as_slice()[..nel]);
        }
        // Accumulate gradient/Laplacian of log|det| per electron using the
        // fresh double-precision inverse.
        self.finish_log(p)
    }

    /// Fused crowd refresh: one [`SpoSet::mw_evaluate_vgl`] call per
    /// electron row covering every walker in the crowd, scattered into each
    /// walker's Slater/G/L matrices, then the per-walker reinvert + G/L
    /// accumulation of the scalar path. Falls back to the scalar loop when
    /// the siblings are not determinants over the same electron range
    /// (heterogeneous crowds never occur in practice, but the fallback
    /// keeps the contract total).
    ///
    /// Uses the batched SPO entry point, which for B-splines is *not*
    /// bit-identical to the scalar `vgh`-then-transform path — this method
    /// is only reachable through opt-in batched drivers (`fused_refresh`).
    fn mw_evaluate_log_batched(
        &mut self,
        rest: &mut [&mut (dyn WaveFunctionComponent<T> + 'static)],
        psets: &mut [&mut ParticleSet<T>],
        logs: &mut [f64],
    ) {
        let nw = rest.len() + 1;
        debug_assert_eq!(psets.len(), nw);
        debug_assert_eq!(logs.len(), nw);
        // Every sibling must be a determinant over the same electron range;
        // any mismatch sends the whole crowd down the bit-identical scalar
        // path.
        let (first, nel, ns) = (self.first, self.nel, self.spo.size());
        let fusable = rest.iter_mut().all(|c| {
            c.as_any_mut()
                .downcast_mut::<DiracDeterminant<T>>()
                .is_some_and(|d| d.first == first && d.nel == nel)
        });
        if !fusable {
            logs[0] += self.evaluate_log(psets[0]);
            for ((c, p), l) in rest
                .iter_mut()
                .zip(psets[1..].iter_mut())
                .zip(logs[1..].iter_mut())
            {
                *l += c.evaluate_log(p);
            }
            return;
        }
        let mut pos = vec![Pos::<T>::zero(); nw];
        let mut psi = vec![T::default(); nw * ns];
        let mut grad = vec![T::default(); nw * 3 * ns];
        let mut lap = vec![T::default(); nw * ns];
        for i in 0..nel {
            for (w, p) in psets.iter().enumerate() {
                pos[w] = p.pos(first + i);
            }
            // One fused multi-walker orbital evaluation for row `i` of
            // every walker (the `Bspline-mw-vgl` kernel for spline SPOs).
            self.spo
                .mw_evaluate_vgl(&pos, &mut psi, &mut grad, &mut lap);
            self.scatter_row(i, ns, &psi[..ns], &grad[..3 * ns], &lap[..ns]);
            for (k, c) in rest.iter_mut().enumerate() {
                let w = k + 1;
                let d = c
                    .as_any_mut()
                    .downcast_mut::<DiracDeterminant<T>>()
                    .expect("checked above");
                d.scatter_row(
                    i,
                    ns,
                    &psi[w * ns..(w + 1) * ns],
                    &grad[w * 3 * ns..(w + 1) * 3 * ns],
                    &lap[w * ns..(w + 1) * ns],
                );
            }
        }
        logs[0] += self.finish_log(psets[0]);
        for ((c, p), l) in rest
            .iter_mut()
            .zip(psets[1..].iter_mut())
            .zip(logs[1..].iter_mut())
        {
            let d = c
                .as_any_mut()
                .downcast_mut::<DiracDeterminant<T>>()
                .expect("checked above");
            *l += d.finish_log(p);
        }
    }

    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        if !self.owns(iat) {
            self.cur_ratio = 1.0;
            return 1.0;
        }
        let local = iat - self.first;
        let (_, newpos) = p.active_pos().expect("no active move");
        self.spo.evaluate_v(newpos, self.psi_v.as_mut_slice());
        let r = time_kernel(Kernel::DetRatio, || {
            self.engine_inv_row(local);
            dot(self.inv_row.as_slice(), &self.psi_v.as_slice()[..self.nel])
        });
        add_flops_bytes(
            Kernel::DetRatio,
            (2 * self.nel) as u64,
            (2 * self.nel * std::mem::size_of::<T>()) as u64,
        );
        self.cur_ratio = r.to_f64();
        self.cur_has_vgl = false;
        self.cur_ratio
    }

    /// NLPP quadrature fast path: one batched value-only SPO dispatch
    /// covers every quadrature point and the inverse row is extracted
    /// once instead of once per point. Each per-point factor is the same
    /// `inv_row . psi_v` contraction [`Self::ratio`] computes over
    /// bitwise-identical orbital values, so the multiplied-in ratios are
    /// bitwise identical to the per-point `make_move` path.
    fn ratios_value_only(
        &mut self,
        _p: &ParticleSet<T>,
        iat: usize,
        positions: &[Pos<T>],
        ratios: &mut [f64],
    ) -> bool {
        if !self.owns(iat) {
            return true; // factor of 1.0 at every quadrature point
        }
        let local = iat - self.first;
        let ns = self.spo.size();
        let nq = positions.len();
        debug_assert!(ratios.len() >= nq);
        if self.mw_psi_v.len() < nq * ns {
            self.mw_psi_v.resize(nq * ns, T::ZERO);
        }
        self.spo.mw_evaluate_v(positions, &mut self.mw_psi_v);
        time_kernel(Kernel::DetRatio, || {
            self.engine_inv_row(local);
            let inv = self.inv_row.as_slice();
            let psi = |q: usize| &self.mw_psi_v[q * ns..q * ns + self.nel];
            let blocked = nq - nq % NQ_BLOCK;
            for q0 in (0..blocked).step_by(NQ_BLOCK) {
                let d = dots::<T, NQ_BLOCK>(std::array::from_fn(|b| psi(q0 + b)), inv);
                for (r, d) in ratios[q0..q0 + NQ_BLOCK].iter_mut().zip(d) {
                    *r *= d.to_f64();
                }
            }
            for q in blocked..nq {
                ratios[q] *= dot(inv, psi(q)).to_f64();
            }
        });
        add_flops_bytes(
            Kernel::DetRatio,
            (2 * self.nel * nq) as u64,
            ((nq + 1) * self.nel * std::mem::size_of::<T>()) as u64,
        );
        true
    }

    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64 {
        if !self.owns(iat) {
            self.cur_ratio = 1.0;
            return 1.0;
        }
        let local = iat - self.first;
        let (_, newpos) = p.active_pos().expect("no active move");
        self.spo.evaluate_vgl(
            newpos,
            self.psi_v.as_mut_slice(),
            self.psi_g.as_mut_slice(),
            self.psi_l.as_mut_slice(),
        );
        let (ns, nel) = (self.psi_v.len(), self.nel);
        // Ratio and the three gradient components share the inverse row:
        // four independent reductions in one pass.
        let [r, gx, gy, gz] = time_kernel(Kernel::DetRatio, || {
            self.engine_inv_row(local);
            let psi_g = self.psi_g.as_slice();
            dots(
                [
                    &self.psi_v.as_slice()[..nel],
                    &psi_g[..nel],
                    &psi_g[ns..ns + nel],
                    &psi_g[2 * ns..2 * ns + nel],
                ],
                self.inv_row.as_slice(),
            )
        });
        add_flops_bytes(
            Kernel::DetRatio,
            (8 * nel) as u64,
            (5 * nel * std::mem::size_of::<T>()) as u64,
        );
        self.cur_ratio = r.to_f64();
        self.cur_has_vgl = true;
        let g = TinyVector([gx, gy, gz].map(|c| c.to_f64() / self.cur_ratio));
        *grad += g;
        self.cur_ratio
    }

    fn eval_grad(&mut self, _p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        if !self.owns(iat) {
            return TinyVector::zero();
        }
        let local = iat - self.first;
        self.engine_inv_row(local);
        let g = dots(
            [0, 1, 2].map(|d| self.g_m[d].row(local)),
            self.inv_row.as_slice(),
        );
        TinyVector(g.map(Real::to_f64))
    }

    fn accept_move(&mut self, p: &ParticleSet<T>, iat: usize) {
        if !self.owns(iat) {
            return;
        }
        let local = iat - self.first;
        let nel = self.nel;
        if !self.cur_has_vgl {
            // The accepted ratio was value-only; refresh gradients and
            // Laplacians at the accepted position for the stored rows.
            let (_, newpos) = p.active_pos().expect("no active move");
            self.spo.evaluate_vgl(
                newpos,
                self.psi_v.as_mut_slice(),
                self.psi_g.as_mut_slice(),
                self.psi_l.as_mut_slice(),
            );
            self.cur_has_vgl = true;
        }
        time_kernel(Kernel::DetUpdate, || {
            let v = &self.psi_v.as_slice()[..nel];
            match &mut self.engine {
                InverseEngine::Direct(b) => {
                    sherman_morrison_inverse(b, local, v, self.sm_w.as_mut_slice());
                }
                InverseEngine::Delayed(d) => {
                    d.accept(local, v);
                }
            }
        });
        self.inv_col = None;
        // Sherman–Morrison is a gemv (w = Bᵀ v) and a ger (B += B.col(k) cᵀ).
        add_flops_bytes(
            Kernel::DetUpdate,
            (4 * nel * nel) as u64,
            (3 * nel * nel * std::mem::size_of::<T>()) as u64,
        );
        // Keep psiM / gM / lM rows current.
        let ns = self.psi_v.len();
        self.psi_m
            .row_mut(local)
            .copy_from_slice(&self.psi_v.as_slice()[..nel]);
        for d in 0..3 {
            self.g_m[d]
                .row_mut(local)
                .copy_from_slice(&self.psi_g.as_slice()[d * ns..d * ns + nel]);
        }
        self.l_m
            .row_mut(local)
            .copy_from_slice(&self.psi_l.as_slice()[..nel]);
        self.log_value += self.cur_ratio.abs().ln();
        if self.cur_ratio < 0.0 {
            self.sign = -self.sign;
        }
        self.accepted_since_recompute += 1;
        if self.accepted_since_recompute >= self.recompute_period {
            self.complete_updates();
            self.reinvert();
        }
    }

    fn restore(&mut self, _iat: usize) {}

    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>) {
        self.complete_updates();
        let nel = self.nel;
        time_kernel(Kernel::SpoVGL, || {
            for i in 0..nel {
                self.engine_inv_row(i);
                let [gx, gy, gz, lap] = dots(
                    [
                        self.g_m[0].row(i),
                        self.g_m[1].row(i),
                        self.g_m[2].row(i),
                        self.l_m.row(i),
                    ],
                    self.inv_row.as_slice(),
                );
                let g = TinyVector([gx, gy, gz].map(Real::to_f64));
                let lap = lap.to_f64();
                p.g[self.first + i] += g;
                p.l[self.first + i] += lap - g.norm2();
            }
        });
    }

    fn save_state(&mut self, buf: &mut WalkerBuffer<T>) {
        self.complete_updates();
        buf.put_matrix(&self.psi_m);
        for d in 0..3 {
            buf.put_matrix(&self.g_m[d]);
        }
        buf.put_matrix(&self.l_m);
        // Serialized row = electron (the transposed inverse) on both
        // engines: the buffer layout predates the engine's storage order.
        match &self.engine {
            InverseEngine::Direct(b) => buf.put_matrix_transposed(b),
            InverseEngine::Delayed(d) => buf.put_matrix(d.minv_t()),
        }
        buf.put_f64(self.log_value);
        buf.put_f64(self.sign);
        // qmclint: allow(precision-cast) — the checkpoint buffer carries
        // f64 scalars; the recompute counter is a small integer, exact.
        buf.put_f64(self.accepted_since_recompute as f64);
    }

    fn load_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.get_matrix(&mut self.psi_m);
        for d in 0..3 {
            buf.get_matrix(&mut self.g_m[d]);
        }
        buf.get_matrix(&mut self.l_m);
        match &mut self.engine {
            // Straight into the engine's matrix: its row padding is already
            // zero and the read writes the logical columns only.
            InverseEngine::Direct(b) => buf.get_matrix_transposed(b),
            InverseEngine::Delayed(d) => {
                let mut minv = Matrix::zeros(self.nel, self.nel);
                buf.get_matrix(&mut minv);
                d.reset(minv);
            }
        }
        self.inv_col = None;
        self.log_value = buf.get_f64();
        self.sign = buf.get_f64();
        self.accepted_since_recompute = buf.get_f64() as usize;
    }

    fn log_value(&self) -> f64 {
        self.log_value
    }

    fn bytes(&self) -> usize {
        // psiM + inverse + gradient/Laplacian matrices.
        let inv_bytes = self.psi_m.bytes();
        self.psi_m.bytes()
            + inv_bytes
            + self
                .g_m
                .iter()
                .map(qmc_containers::Matrix::bytes)
                .sum::<usize>()
            + self.l_m.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::CosineSpo;
    use qmc_instrument::drain_thread_profile;
    use qmc_particles::{CrystalLattice, Layout, Species};

    const NEL: usize = 6;
    const SIDE: f64 = 7.0;

    fn electrons() -> ParticleSet<f64> {
        let pos: Vec<Pos<f64>> = (0..NEL)
            .map(|i| {
                let t = i as f64;
                TinyVector([0.9 + 1.1 * t, 6.1 - 0.8 * t, (2.3 * t + 0.4) % SIDE])
            })
            .collect();
        let species = Species {
            name: "u".into(),
            charge: -1.0,
        };
        let mut p = ParticleSet::new("e", CrystalLattice::cubic(SIDE), vec![(species, pos)]);
        p.add_table_aa(Layout::Soa);
        p.update_tables();
        p
    }

    fn determinant() -> DiracDeterminant<f64> {
        DiracDeterminant::new(
            Box::new(CosineSpo::<f64>::new(NEL, [SIDE; 3])),
            0,
            NEL,
            DetUpdateMode::ShermanMorrison,
        )
    }

    /// The model counts the roofline columns divide by: one `ratio_grad` is
    /// four dots against the inverse row, one accepted move is a gemv and a
    /// ger over the inverse.
    #[test]
    fn ratio_grad_and_accept_move_book_their_model_flops_and_bytes() {
        let nel = NEL;
        let mut p = electrons();
        let mut det = determinant();
        det.evaluate_log(&mut p);

        p.prepare_move(2);
        p.make_move(2, p.pos(2) + TinyVector([0.2, -0.1, 0.15]));
        drain_thread_profile();
        det.ratio_grad(&p, 2, &mut TinyVector::zero());
        det.accept_move(&p, 2);
        let profile = drain_thread_profile();

        let size = std::mem::size_of::<f64>();
        let ratio = profile.get(Kernel::DetRatio);
        assert_eq!(
            (ratio.calls, ratio.flops, ratio.bytes),
            (1, (8 * nel) as u64, (5 * nel * size) as u64)
        );
        let update = profile.get(Kernel::DetUpdate);
        assert_eq!(
            (update.calls, update.flops, update.bytes),
            (1, (4 * nel * nel) as u64, (3 * nel * nel * size) as u64)
        );
    }

    /// `inv_row` remembers which column of `A⁻¹` it holds so `eval_grad(k)`
    /// and the `ratio_grad(k)` after it share one strided read. Every write
    /// to the engine's matrix — an accepted move, a from-scratch recompute,
    /// a `load_state` — must forget it: after each, `eval_grad(k)` has to
    /// agree bit for bit with a determinant that never cached anything.
    #[test]
    fn a_stale_inverse_column_is_impossible() {
        let k = 2;
        let mut p = electrons();
        let mut det = determinant();
        det.evaluate_log(&mut p);
        let fresh_grad = |det: &mut DiracDeterminant<f64>, p: &ParticleSet<f64>| {
            let mut buf = WalkerBuffer::new();
            det.save_state(&mut buf);
            let mut fresh = determinant();
            buf.rewind();
            fresh.load_state(&mut buf);
            fresh.eval_grad(p, k)
        };
        let before = det.eval_grad(&p, k);

        // An accepted move of electron k itself, column k cached.
        p.prepare_move(k);
        p.make_move(k, p.pos(k) + TinyVector([0.2, -0.1, 0.15]));
        det.ratio_grad(&p, k, &mut TinyVector::zero());
        det.accept_move(&p, k);
        p.accept_move(k);
        let after_accept = det.eval_grad(&p, k);
        assert_ne!(after_accept, before, "the move changed nothing");
        assert_eq!(after_accept, fresh_grad(&mut det, &p));

        // A load of another walker's state, column k cached again.
        let mut other = WalkerBuffer::new();
        let mut q = electrons();
        let mut elsewhere = determinant();
        elsewhere.evaluate_log(&mut q);
        elsewhere.save_state(&mut other);
        other.rewind();
        det.load_state(&mut other);
        assert_eq!(det.eval_grad(&q, k), before);

        // A from-scratch recompute at the moved positions, column k cached.
        det.evaluate_log(&mut p);
        let recomputed = det.eval_grad(&p, k);
        assert_ne!(recomputed, before);
        assert_eq!(recomputed, fresh_grad(&mut det, &p));
    }
}
