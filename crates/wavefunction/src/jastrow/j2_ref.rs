//! Baseline two-body Jastrow: store-everything policy.
//!
//! Keeps the full `N x N` matrices of pair values `U(i,j)`, AoS gradients
//! `dU(i,j)` and Laplacian terms `d2U(i,j)` — exactly the
//! `5 N^2 sizeof(T)` per-walker storage the paper calls out in §6.1 — and
//! updates both the row and the column of the moved electron on acceptance.
//! All loops are scalar over AoS data, reproducing the baseline's poor SIMD
//! efficiency.

use super::PairFunctors;
use crate::buffer::WalkerBuffer;
use crate::traits::WaveFunctionComponent;
use qmc_containers::{Matrix, Pos, Real, TinyVector};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_particles::ParticleSet;

/// Reference (AoS, stored) two-body Jastrow factor.
pub struct J2Ref<T: Real> {
    table: usize,
    functors: PairFunctors<T>,
    n: usize,
    /// Pair values `u(r_ij)`.
    u: Matrix<T>,
    /// Pair gradients `grad_i u(r_ij)` (AoS).
    du: Vec<Pos<T>>,
    /// Pair Laplacian terms `u'' + 2u'/r`.
    d2u: Matrix<T>,
    // Candidate row state filled by `ratio`/`ratio_grad`.
    cur_u: Vec<T>,
    cur_du: Vec<Pos<T>>,
    cur_d2u: Vec<T>,
    cur_delta: f64,
    log_value: f64,
}

impl<T: Real> J2Ref<T> {
    /// Builds the factor over the AA distance table `table` (AoS layout).
    pub fn new(p: &ParticleSet<T>, table: usize, functors: PairFunctors<T>) -> Self {
        assert_eq!(functors.ngroups(), p.num_groups());
        let n = p.len();
        Self {
            table,
            functors,
            n,
            u: Matrix::zeros_unpadded(n, n),
            du: vec![TinyVector::zero(); n * n],
            d2u: Matrix::zeros_unpadded(n, n),
            cur_u: vec![T::ZERO; n],
            cur_du: vec![TinyVector::zero(); n],
            cur_d2u: vec![T::ZERO; n],
            cur_delta: 0.0,
            log_value: 0.0,
        }
    }

    /// Fills the candidate row from the table's temp distances.
    fn compute_candidate(&mut self, p: &ParticleSet<T>, iat: usize) {
        let t = p.table(self.table).as_aa_ref();
        let gk = p.group_of(iat);
        let dists = t.temp_dist();
        let disps = t.temp_displ();
        let mut delta = 0.0f64;
        for j in 0..self.n {
            if j == iat {
                self.cur_u[j] = T::ZERO;
                self.cur_du[j] = TinyVector::zero();
                self.cur_d2u[j] = T::ZERO;
                continue;
            }
            let f = self.functors.get(gk, p.group_of(j));
            let d = dists[j];
            if d < f.r_cut() {
                let (v, dv, d2v) = f.evaluate_vgl(d);
                let inv_d = T::ONE / d;
                self.cur_u[j] = v;
                // grad_k u = u' (r_k' - r_j)/d = -(u'/d) * temp_displ[j]
                self.cur_du[j] = -(disps[j] * (dv * inv_d));
                self.cur_d2u[j] = d2v + T::from_f64(2.0) * dv * inv_d;
            } else {
                self.cur_u[j] = T::ZERO;
                self.cur_du[j] = TinyVector::zero();
                self.cur_d2u[j] = T::ZERO;
            }
            delta += (self.cur_u[j] - self.u[(iat, j)]).to_f64();
        }
        self.cur_delta = delta;
    }
}

impl<T: Real> WaveFunctionComponent<T> for J2Ref<T> {
    fn name(&self) -> &'static str {
        "J2-ref"
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
            let t = p.table(self.table).as_aa_ref();
            let mut logpsi = 0.0f64;
            for i in 0..n {
                for j in i + 1..n {
                    let f = self.functors.get(p.group_of(i), p.group_of(j));
                    let d = t.dist(i, j);
                    let (v, dv, d2v) = if d < f.r_cut() {
                        f.evaluate_vgl(d)
                    } else {
                        (T::ZERO, T::ZERO, T::ZERO)
                    };
                    let inv_d = T::ONE / d;
                    let lapt = d2v + T::from_f64(2.0) * dv * inv_d;
                    self.u[(i, j)] = v;
                    self.u[(j, i)] = v;
                    // grad_i u = -(u'/d) * displ(i,j) with displ = r_j - r_i
                    let g = t.displ(i, j) * (dv * inv_d);
                    self.du[i * n + j] = -g;
                    self.du[j * n + i] = g;
                    self.d2u[(i, j)] = lapt;
                    self.d2u[(j, i)] = lapt;
                    logpsi -= v.to_f64();
                }
            }
            // Accumulate gradient/Laplacian of log psi.
            for i in 0..n {
                let mut g = TinyVector::<f64, 3>::zero();
                let mut l = 0.0f64;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let dij: Pos<f64> = self.du[i * n + j].cast();
                    g -= dij;
                    l -= self.d2u[(i, j)].to_f64();
                }
                p.g[i] += g;
                p.l[i] += l;
            }
            self.log_value = logpsi;
            logpsi
        })
    }

    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        time_kernel(Kernel::J2, || {
            self.compute_candidate(p, iat);
            add_flops_bytes(
                Kernel::J2,
                (self.n * 20) as u64,
                (self.n * 10 * std::mem::size_of::<T>()) as u64,
            );
            (-self.cur_delta).exp()
        })
    }

    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64 {
        time_kernel(Kernel::J2, || {
            self.compute_candidate(p, iat);
            let mut g = TinyVector::<f64, 3>::zero();
            for j in 0..self.n {
                let d: Pos<f64> = self.cur_du[j].cast();
                g -= d;
            }
            *grad += g;
            (-self.cur_delta).exp()
        })
    }

    fn eval_grad(&mut self, p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        let _ = p;
        let mut g = TinyVector::<f64, 3>::zero();
        for j in 0..self.n {
            let d: Pos<f64> = self.du[iat * self.n + j].cast();
            g -= d;
        }
        g
    }

    fn accept_move(&mut self, _p: &ParticleSet<T>, iat: usize) {
        time_kernel(Kernel::J2, || {
            let n = self.n;
            self.log_value -= self.cur_delta;
            for j in 0..n {
                if j == iat {
                    continue;
                }
                self.u[(iat, j)] = self.cur_u[j];
                self.u[(j, iat)] = self.cur_u[j];
                self.du[iat * n + j] = self.cur_du[j];
                self.du[j * n + iat] = -self.cur_du[j];
                self.d2u[(iat, j)] = self.cur_d2u[j];
                self.d2u[(j, iat)] = self.cur_d2u[j];
            }
        });
    }

    fn restore(&mut self, _iat: usize) {}

    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>) {
        let n = self.n;
        for i in 0..n {
            let mut g = TinyVector::<f64, 3>::zero();
            let mut l = 0.0f64;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let dij: Pos<f64> = self.du[i * n + j].cast();
                g -= dij;
                l -= self.d2u[(i, j)].to_f64();
            }
            p.g[i] += g;
            p.l[i] += l;
        }
    }

    fn save_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.put_matrix(&self.u);
        for d in 0..3 {
            for p in &self.du {
                buf.put_slice(&[p[d]]);
            }
        }
        buf.put_matrix(&self.d2u);
        buf.put_f64(self.log_value);
    }

    fn load_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.get_matrix(&mut self.u);
        let mut x = [T::ZERO; 1];
        for d in 0..3 {
            for p in &mut self.du {
                buf.get_slice(&mut x);
                p[d] = x[0];
            }
        }
        buf.get_matrix(&mut self.d2u);
        self.log_value = buf.get_f64();
    }

    fn log_value(&self) -> f64 {
        self.log_value
    }

    fn bytes(&self) -> usize {
        self.u.bytes()
            + self.du.len() * std::mem::size_of::<Pos<T>>()
            + self.d2u.bytes()
            + self.cur_u.len() * std::mem::size_of::<T>() * 2
            + self.cur_du.len() * std::mem::size_of::<Pos<T>>()
    }
}
