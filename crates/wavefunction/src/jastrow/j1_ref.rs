//! Baseline one-body Jastrow: store-everything policy over the AB table.

use crate::buffer::WalkerBuffer;
use crate::traits::WaveFunctionComponent;
use qmc_bspline::CubicBspline1D;
use qmc_containers::{Matrix, Pos, Real, TinyVector};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_particles::ParticleSet;

/// Reference (AoS, stored) one-body Jastrow factor
/// `log psi = -sum_i sum_I u_{sp(I)}(|r_I - r_i|)`.
pub struct J1Ref<T: Real> {
    table: usize,
    /// Functor per ion group.
    functors: Vec<CubicBspline1D<T>>,
    /// `[start, end)` electron-table column range per ion group.
    ion_groups: Vec<std::ops::Range<usize>>,
    n: usize,
    nion: usize,
    u: Matrix<T>,
    du: Vec<Pos<T>>,
    d2u: Matrix<T>,
    cur_u: Vec<T>,
    cur_du: Vec<Pos<T>>,
    cur_d2u: Vec<T>,
    cur_delta: f64,
    log_value: f64,
}

impl<T: Real> J1Ref<T> {
    /// Builds the factor over AB table `table` (AoS layout) with one
    /// functor per ion group of `ions`.
    pub fn new(
        p: &ParticleSet<T>,
        ions: &ParticleSet<T>,
        table: usize,
        functors: Vec<CubicBspline1D<T>>,
    ) -> Self {
        assert_eq!(functors.len(), ions.num_groups());
        let n = p.len();
        let nion = ions.len();
        let ion_groups = (0..ions.num_groups())
            .map(|g| ions.group_range(g))
            .collect();
        Self {
            table,
            functors,
            ion_groups,
            n,
            nion,
            u: Matrix::zeros_unpadded(n, nion),
            du: vec![TinyVector::zero(); n * nion],
            d2u: Matrix::zeros_unpadded(n, nion),
            cur_u: vec![T::ZERO; nion],
            cur_du: vec![TinyVector::zero(); nion],
            cur_d2u: vec![T::ZERO; nion],
            cur_delta: 0.0,
            log_value: 0.0,
        }
    }

    fn functor_of_ion(&self, ion: usize) -> &CubicBspline1D<T> {
        for (g, r) in self.ion_groups.iter().enumerate() {
            if r.contains(&ion) {
                return &self.functors[g];
            }
        }
        unreachable!("ion index out of range")
    }

    fn compute_candidate(&mut self, p: &ParticleSet<T>, iat: usize) {
        let t = p.table(self.table).as_ab_ref();
        let dists = t.temp_dist();
        let disps = t.temp_displ();
        let mut delta = 0.0f64;
        for a in 0..self.nion {
            let f = self.functor_of_ion(a);
            let d = dists[a];
            if d < f.r_cut() {
                let (v, dv, d2v) = f.evaluate_vgl(d);
                let inv_d = T::ONE / d;
                self.cur_u[a] = v;
                self.cur_du[a] = -(disps[a] * (dv * inv_d));
                self.cur_d2u[a] = d2v + T::from_f64(2.0) * dv * inv_d;
            } else {
                self.cur_u[a] = T::ZERO;
                self.cur_du[a] = TinyVector::zero();
                self.cur_d2u[a] = T::ZERO;
            }
            delta += (self.cur_u[a] - self.u[(iat, a)]).to_f64();
        }
        self.cur_delta = delta;
    }
}

impl<T: Real> WaveFunctionComponent<T> for J1Ref<T> {
    fn name(&self) -> &'static str {
        "J1-ref"
    }

    fn is_jastrow(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        time_kernel(Kernel::J1, || {
            // Reference-layout baseline allocates its G/L staging per refresh;
            // the SoA implementation is the allocation-free production path.
            let mut gl = vec![(TinyVector::<f64, 3>::zero(), 0.0f64); self.n];
            let t = p.table(self.table).as_ab_ref();
            let mut logpsi = 0.0f64;
            for i in 0..self.n {
                let mut g = TinyVector::<f64, 3>::zero();
                let mut l = 0.0f64;
                for a in 0..self.nion {
                    let f = self.functor_of_ion(a);
                    let d = t.dist(i, a);
                    let (v, dv, d2v) = if d < f.r_cut() {
                        f.evaluate_vgl(d)
                    } else {
                        (T::ZERO, T::ZERO, T::ZERO)
                    };
                    let inv_d = T::ONE / d;
                    let lapt = d2v + T::from_f64(2.0) * dv * inv_d;
                    self.u[(i, a)] = v;
                    let grad_u = -(t.displ(i, a) * (dv * inv_d));
                    self.du[i * self.nion + a] = grad_u;
                    self.d2u[(i, a)] = lapt;
                    logpsi -= v.to_f64();
                    let gu: Pos<f64> = grad_u.cast();
                    g -= gu;
                    l -= lapt.to_f64();
                }
                gl[i] = (g, l);
            }
            for (i, (g, l)) in gl.into_iter().enumerate() {
                p.g[i] += g;
                p.l[i] += l;
            }
            self.log_value = logpsi;
            logpsi
        })
    }

    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        time_kernel(Kernel::J1, || {
            self.compute_candidate(p, iat);
            add_flops_bytes(
                Kernel::J1,
                (self.nion * 20) as u64,
                (self.nion * 10 * std::mem::size_of::<T>()) as u64,
            );
            (-self.cur_delta).exp()
        })
    }

    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64 {
        time_kernel(Kernel::J1, || {
            self.compute_candidate(p, iat);
            let mut g = TinyVector::<f64, 3>::zero();
            for a in 0..self.nion {
                let d: Pos<f64> = self.cur_du[a].cast();
                g -= d;
            }
            *grad += g;
            (-self.cur_delta).exp()
        })
    }

    fn eval_grad(&mut self, _p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        let mut g = TinyVector::<f64, 3>::zero();
        for a in 0..self.nion {
            let d: Pos<f64> = self.du[iat * self.nion + a].cast();
            g -= d;
        }
        g
    }

    fn accept_move(&mut self, _p: &ParticleSet<T>, iat: usize) {
        time_kernel(Kernel::J1, || {
            self.log_value -= self.cur_delta;
            for a in 0..self.nion {
                self.u[(iat, a)] = self.cur_u[a];
                self.du[iat * self.nion + a] = self.cur_du[a];
                self.d2u[(iat, a)] = self.cur_d2u[a];
            }
        });
    }

    fn restore(&mut self, _iat: usize) {}

    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>) {
        for i in 0..self.n {
            let mut g = TinyVector::<f64, 3>::zero();
            let mut l = 0.0f64;
            for a in 0..self.nion {
                let dia: Pos<f64> = self.du[i * self.nion + a].cast();
                g -= dia;
                l -= self.d2u[(i, a)].to_f64();
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
        self.u.bytes() + self.du.len() * std::mem::size_of::<Pos<T>>() + self.d2u.bytes()
    }
}
