//! Optimized two-body Jastrow: compute-on-the-fly with SoA accumulators.
//!
//! §7.5 of the paper: once the distance-table rows are SoA and the batch
//! kernels vectorize, it is cheaper to recompute pair terms than to store
//! and shuffle the `5 N^2` matrices. This implementation keeps only the
//! per-electron accumulators (value, gradient, Laplacian of `log psi`),
//! `5 N sizeof(T)` per walker, maintained by forward updates on acceptance.
//!
//! The functor rows stay here (one cutoff mask per row, group dispatch,
//! see [`super::evaluate_vgl_row`]); the row reductions and forward-update
//! slabs run in `qmc_kernels::jastrow` behind the backend seam captured at
//! construction.

use super::{evaluate_v_row, evaluate_vgl_row, PairFunctors};
use crate::buffer::WalkerBuffer;
use crate::traits::WaveFunctionComponent;
use qmc_containers::{padded_len, AlignedVec, Pos, Real, TinyVector, VectorSoaContainer};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_kernels::jastrow::{
    j2_accept_grad_row, j2_accept_value_rows, j2_row_sum, j2_row_vg, j2_row_vgl,
};
use qmc_kernels::Backend;
use qmc_particles::{MwRowStage, ParticleSet};
use std::ops::Range;

/// Optimized (SoA, compute-on-the-fly) two-body Jastrow factor.
pub struct J2Soa<T: Real> {
    table: usize,
    functors: PairFunctors<T>,
    /// Electron index range of each group (spin).
    groups: Vec<Range<usize>>,
    n: usize,
    /// Per-electron value sums `sum_j u(r_ij)`.
    vat: AlignedVec<T>,
    /// Per-electron gradient of `log psi` (SoA).
    gat: VectorSoaContainer<T, 3>,
    /// Per-electron Laplacian of `log psi`.
    lat: AlignedVec<T>,
    // Scratch rows (padded).
    cur_u: AlignedVec<T>,
    cur_dud: AlignedVec<T>,
    cur_lap: AlignedVec<T>,
    old_u: AlignedVec<T>,
    old_dud: AlignedVec<T>,
    old_lap: AlignedVec<T>,
    /// Candidate rows of one NLPP shell (point-major), grown to the shell
    /// size on first use.
    shell: MwRowStage<T>,
    cur_vat: f64,
    cur_has_grad: bool,
    log_value: f64,
    /// Kernel backend captured at construction (see `qmc_kernels::Backend`).
    backend: Backend,
}

impl<T: Real> J2Soa<T> {
    /// Builds the factor over the AA distance table `table` (SoA layout).
    pub fn new(p: &ParticleSet<T>, table: usize, functors: PairFunctors<T>) -> Self {
        assert_eq!(functors.ngroups(), p.num_groups());
        let n = p.len();
        let np = padded_len::<T>(n);
        Self {
            table,
            functors,
            groups: (0..p.num_groups()).map(|g| p.group_range(g)).collect(),
            n,
            vat: AlignedVec::zeros(n),
            gat: VectorSoaContainer::new(n),
            lat: AlignedVec::zeros(n),
            cur_u: AlignedVec::zeros(np),
            cur_dud: AlignedVec::zeros(np),
            cur_lap: AlignedVec::zeros(np),
            old_u: AlignedVec::zeros(np),
            old_dud: AlignedVec::zeros(np),
            old_lap: AlignedVec::zeros(np),
            shell: MwRowStage::new(n, 0),
            cur_vat: 0.0,
            cur_has_grad: false,
            log_value: 0.0,
            backend: Backend::current(),
        }
    }

    /// The pair functors, row `g` serving an electron of group `g`.
    pub fn functors(&self) -> &PairFunctors<T> {
        &self.functors
    }
}

impl<T: Real> WaveFunctionComponent<T> for J2Soa<T> {
    fn name(&self) -> &'static str {
        "J2-soa"
    }

    fn is_jastrow(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        let n = self.n;
        time_kernel(Kernel::J2, || {
            let t = p.table(self.table).as_aa_soa();
            let mut logpsi: f64 = 0.0;
            for i in 0..n {
                evaluate_vgl_row(
                    self.functors.row(p.group_of(i)),
                    &self.groups,
                    &t.dist_row(i)[..n],
                    &mut self.cur_u.as_mut_slice()[..n],
                    &mut self.cur_dud.as_mut_slice()[..n],
                    &mut self.cur_lap.as_mut_slice()[..n],
                );
                let (dx, dy, dz) = (t.disp_row(0, i), t.disp_row(1, i), t.disp_row(2, i));
                let row = j2_row_vgl(
                    self.backend,
                    self.cur_u.as_slice(),
                    self.cur_dud.as_slice(),
                    self.cur_lap.as_slice(),
                    dx,
                    dy,
                    dz,
                    n,
                );
                self.vat[i] = row.v;
                self.gat.set(i, TinyVector(row.g));
                self.lat[i] = -row.l;
                logpsi -= 0.5 * row.v.to_f64();
            }
            add_flops_bytes(
                Kernel::J2,
                (n * n * 26) as u64,
                (n * n * 6 * std::mem::size_of::<T>()) as u64,
            );
            for i in 0..n {
                let g: Pos<f64> = self.gat.get(i).cast();
                p.g[i] += g;
                p.l[i] += self.lat[i].to_f64();
            }
            self.log_value = logpsi;
            logpsi
        })
    }

    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        time_kernel(Kernel::J2, || {
            let t = p.table(self.table).as_aa_soa();
            evaluate_v_row(
                self.functors.row(p.group_of(iat)),
                &self.groups,
                &t.temp_dist()[..self.n],
                &mut self.cur_u.as_mut_slice()[..self.n],
            );
            let v = j2_row_sum(self.backend, self.cur_u.as_slice(), self.n);
            self.cur_vat = v.to_f64();
            self.cur_has_grad = false;
            add_flops_bytes(
                Kernel::J2,
                (self.n * 14) as u64,
                (self.n * 2 * std::mem::size_of::<T>()) as u64,
            );
            (-(self.cur_vat - self.vat[iat].to_f64())).exp()
        })
    }

    /// One shell, one call per kernel: the AA table stages all `nq`
    /// candidate rows under one DistTable-AA scope, then one J2 scope runs
    /// [`Self::ratio`]'s functor row and reduction per point — bitwise its
    /// factor, leaving the accumulators and the active-move state alone.
    fn ratios_value_only(
        &mut self,
        p: &ParticleSet<T>,
        iat: usize,
        positions: &[Pos<T>],
        ratios: &mut [f64],
    ) -> bool {
        let (n, nq) = (self.n, positions.len());
        if self.shell.num_rows() < nq {
            self.shell = MwRowStage::new(n, nq);
        }
        let t = p.table(self.table).as_aa_soa();
        t.candidate_rows(p.rsoa(), iat, positions, &mut self.shell);
        time_kernel(Kernel::J2, || {
            let functors = self.functors.row(p.group_of(iat));
            let vat = self.vat[iat].to_f64();
            for (q, r) in ratios[..nq].iter_mut().enumerate() {
                evaluate_v_row(
                    functors,
                    &self.groups,
                    &self.shell.dist_row(q)[..n],
                    &mut self.cur_u.as_mut_slice()[..n],
                );
                let v = j2_row_sum(self.backend, self.cur_u.as_slice(), n).to_f64();
                *r *= (-(v - vat)).exp();
            }
            add_flops_bytes(
                Kernel::J2,
                (nq * n * 14) as u64,
                (nq * n * 2 * std::mem::size_of::<T>()) as u64,
            );
        });
        true
    }

    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64 {
        time_kernel(Kernel::J2, || {
            let t = p.table(self.table).as_aa_soa();
            let n = self.n;
            evaluate_vgl_row(
                self.functors.row(p.group_of(iat)),
                &self.groups,
                &t.temp_dist()[..n],
                &mut self.cur_u.as_mut_slice()[..n],
                &mut self.cur_dud.as_mut_slice()[..n],
                &mut self.cur_lap.as_mut_slice()[..n],
            );
            let (tx, ty, tz) = (t.temp_disp(0), t.temp_disp(1), t.temp_disp(2));
            let (v, g) = j2_row_vg(
                self.backend,
                self.cur_u.as_slice(),
                self.cur_dud.as_slice(),
                tx,
                ty,
                tz,
                n,
            );
            self.cur_vat = v.to_f64();
            self.cur_has_grad = true;
            *grad += TinyVector([g[0].to_f64(), g[1].to_f64(), g[2].to_f64()]);
            add_flops_bytes(
                Kernel::J2,
                (n * 26) as u64,
                (n * 6 * std::mem::size_of::<T>()) as u64,
            );
            (-(self.cur_vat - self.vat[iat].to_f64())).exp()
        })
    }

    fn eval_grad(&mut self, _p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        self.gat.get(iat).cast()
    }

    fn accept_move(&mut self, p: &ParticleSet<T>, iat: usize) {
        time_kernel(Kernel::J2, || {
            let n = self.n;
            let t = p.table(self.table).as_aa_soa();
            let functors = self.functors.row(p.group_of(iat));
            if !self.cur_has_grad {
                evaluate_vgl_row(
                    functors,
                    &self.groups,
                    &t.temp_dist()[..n],
                    &mut self.cur_u.as_mut_slice()[..n],
                    &mut self.cur_dud.as_mut_slice()[..n],
                    &mut self.cur_lap.as_mut_slice()[..n],
                );
            }
            // Old row terms against the current (pre-accept) positions.
            evaluate_vgl_row(
                functors,
                &self.groups,
                &t.dist_row(iat)[..n],
                &mut self.old_u.as_mut_slice()[..n],
                &mut self.old_dud.as_mut_slice()[..n],
                &mut self.old_lap.as_mut_slice()[..n],
            );
            self.log_value -= self.cur_vat - self.vat[iat].to_f64();

            let (tx, ty, tz) = (t.temp_disp(0), t.temp_disp(1), t.temp_disp(2));
            let (ox, oy, oz) = (t.disp_row(0, iat), t.disp_row(1, iat), t.disp_row(2, iat));
            let cu = &self.cur_u.as_slice()[..n];
            let cd = &self.cur_dud.as_slice()[..n];
            let cl = &self.cur_lap.as_slice()[..n];
            let ou = &self.old_u.as_slice()[..n];
            let od = &self.old_dud.as_slice()[..n];
            let ol = &self.old_lap.as_slice()[..n];

            // Forward update of neighbour accumulators (vectorized slabs in
            // the kernel library; slab updates bitwise on every backend).
            let backend = self.backend;
            let (kv, kl) = j2_accept_value_rows(
                backend,
                cu,
                ou,
                cl,
                ol,
                self.vat.as_mut_slice(),
                self.lat.as_mut_slice(),
                n,
            );
            let kx = j2_accept_grad_row(backend, od, ox, cd, tx, self.gat.dim_mut(0), n);
            let ky = j2_accept_grad_row(backend, od, oy, cd, ty, self.gat.dim_mut(1), n);
            let kz = j2_accept_grad_row(backend, od, oz, cd, tz, self.gat.dim_mut(2), n);
            // The moved electron's accumulators from the new row.
            self.vat[iat] = kv;
            self.gat.set(iat, TinyVector([kx, ky, kz]));
            self.lat[iat] = -kl;
            add_flops_bytes(
                Kernel::J2,
                (n * 40) as u64,
                (n * 14 * std::mem::size_of::<T>()) as u64,
            );
        });
    }

    fn restore(&mut self, _iat: usize) {
        self.cur_has_grad = false;
    }

    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>) {
        for i in 0..self.n {
            let g: Pos<f64> = self.gat.get(i).cast();
            p.g[i] += g;
            p.l[i] += self.lat[i].to_f64();
        }
    }

    fn save_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.put_slice(self.vat.as_slice());
        for d in 0..3 {
            buf.put_slice(self.gat.dim(d));
        }
        buf.put_slice(self.lat.as_slice());
        buf.put_f64(self.log_value);
    }

    fn load_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.get_slice(self.vat.as_mut_slice());
        for d in 0..3 {
            buf.get_slice(self.gat.dim_mut(d));
        }
        buf.get_slice(self.lat.as_mut_slice());
        self.log_value = buf.get_f64();
    }

    fn log_value(&self) -> f64 {
        self.log_value
    }

    fn bytes(&self) -> usize {
        // The 5N store: vat + 3 gat slabs + lat (scratch rows excluded as in
        // the paper's accounting of per-walker state).
        self.vat.len() * std::mem::size_of::<T>()
            + self.gat.bytes()
            + self.lat.len() * std::mem::size_of::<T>()
    }
}
