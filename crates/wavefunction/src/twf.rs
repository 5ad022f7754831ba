//! [`TrialWaveFunction`]: the Slater–Jastrow product (Eq. 2).
//!
//! Composes wavefunction components multiplicatively: ratios multiply,
//! log values and gradients add. This is the object the QMC drivers talk
//! to, mirroring `TrialWaveFunction` in Fig. 4.

use crate::traits::WaveFunctionComponent;
use qmc_containers::{Pos, Real, TinyVector};
use qmc_particles::ParticleSet;

/// Product trial wavefunction `Psi_T = prod_c psi_c`.
pub struct TrialWaveFunction<T: Real> {
    components: Vec<Box<dyn WaveFunctionComponent<T>>>,
    log_value: f64,
}

impl<T: Real> TrialWaveFunction<T> {
    /// Empty wavefunction (components added with [`Self::add`]).
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
            log_value: 0.0,
        }
    }

    /// Adds a component factor.
    pub fn add(&mut self, c: Box<dyn WaveFunctionComponent<T>>) {
        self.components.push(c);
    }

    /// Number of component factors.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Mutable access to a component (used by harnesses for
    /// determinant-specific operations).
    pub fn component_mut(&mut self, i: usize) -> &mut dyn WaveFunctionComponent<T> {
        self.components[i].as_mut()
    }

    /// Full evaluation: zeroes the particle set's G/L accumulators, sums
    /// `log |psi_c|` over components, and fills `p.g`/`p.l` with the
    /// gradient and Laplacian of `log Psi_T`.
    pub fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        // Forward updates deliberately leave SoA distance-table rows stale
        // (compute-on-the-fly, §7.5); a full evaluation must rebuild them,
        // as QMCPACK's drivers do with `P.update()` before `evaluateLog`.
        p.update_tables();
        p.reset_gl();
        let mut log = 0.0;
        for c in &mut self.components {
            log += c.evaluate_log(p);
        }
        self.log_value = log;
        log
    }

    /// Measurement-path G/L refresh: accumulates gradient/Laplacian of
    /// `log Psi_T` from each component's *stored* state (O(N^2); no orbital
    /// re-evaluation, no re-inversion). Distance tables are rebuilt first
    /// because the Coulomb/NLPP terms of the Hamiltonian read them.
    pub fn update_gl(&mut self, p: &mut ParticleSet<T>) -> f64 {
        p.update_tables();
        p.reset_gl();
        for c in &mut self.components {
            c.accumulate_gl(p);
        }
        self.log_value = self.components.iter().map(|c| c.log_value()).sum();
        self.log_value
    }

    /// `Psi_T(R') / Psi_T(R)` for the active move (Eq. 4).
    pub fn calc_ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        let mut ratio = 1.0;
        for c in &mut self.components {
            ratio *= c.ratio(p, iat);
        }
        ratio
    }

    /// Value-only ratios `Psi_T(.., r_q, ..) / Psi_T(R)` for particle
    /// `iat` moved to each of `positions` — the NLPP quadrature shell.
    /// Every component with a batched value-only path (the determinants
    /// and the SoA Jastrows) costs one call per shell, i.e. one timer
    /// scope per kernel; only components without one (the AoS `Ref`
    /// Jastrows) fall back to one `make_move` +
    /// [`WaveFunctionComponent::ratio`] + restore pass per point. `p`
    /// comes back with no active move.
    ///
    /// Factors are multiplied determinants first, then the Jastrows in
    /// component order (D·J2·J1 on every engine), so each `ratios[q]` is
    /// bitwise the per-point product of [`WaveFunctionComponent::ratio`]
    /// factors in that order. It is *not* bitwise [`Self::calc_ratio`],
    /// which multiplies in component order (J2·J1·D): the two agree to a
    /// few ULP.
    pub fn calc_ratios_v(
        &mut self,
        p: &mut ParticleSet<T>,
        iat: usize,
        positions: &[Pos<T>],
        ratios: &mut [f64],
    ) {
        let nq = positions.len();
        assert!(ratios.len() >= nq);
        debug_assert!(self.components.len() <= 64);
        for r in &mut ratios[..nq] {
            *r = 1.0;
        }
        // Deferred components tracked by bitmask: no per-call allocation.
        let mut deferred: u64 = 0;
        for jastrows in [false, true] {
            for (ci, c) in self.components.iter_mut().enumerate() {
                if c.is_jastrow() == jastrows
                    && !c.ratios_value_only(p, iat, positions, &mut ratios[..nq])
                {
                    deferred |= 1 << ci;
                }
            }
        }
        if deferred != 0 {
            for (q, &pos) in positions.iter().enumerate() {
                p.make_move(iat, pos);
                for (ci, c) in self.components.iter_mut().enumerate() {
                    if deferred & (1 << ci) != 0 {
                        ratios[q] *= c.ratio(p, iat);
                    }
                }
                for (ci, c) in self.components.iter_mut().enumerate() {
                    if deferred & (1 << ci) != 0 {
                        c.restore(iat);
                    }
                }
                p.reject_move(iat);
            }
        }
    }

    /// Ratio together with the gradient of `log Psi_T` at the proposed
    /// position (for the drift term of the importance-sampled move).
    pub fn calc_ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize) -> (f64, Pos<f64>) {
        let mut ratio = 1.0;
        let mut grad = TinyVector::zero();
        for c in &mut self.components {
            ratio *= c.ratio_grad(p, iat, &mut grad);
        }
        (ratio, grad)
    }

    /// Gradient of `log Psi_T` for particle `iat` at its current position.
    pub fn eval_grad(&mut self, p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        let mut g = TinyVector::zero();
        for c in &mut self.components {
            g += c.eval_grad(p, iat);
        }
        g
    }

    /// Commits the active move in every component (call before
    /// `ParticleSet::accept_move`).
    pub fn accept_move(&mut self, p: &ParticleSet<T>, iat: usize) {
        for c in &mut self.components {
            c.accept_move(p, iat);
        }
    }

    /// Discards candidate state in every component.
    pub fn reject_move(&mut self, iat: usize) {
        for c in &mut self.components {
            c.restore(iat);
        }
    }

    /// Current `log |Psi_T|` from the incrementally maintained component
    /// values.
    pub fn log_value(&self) -> f64 {
        self.components.iter().map(|c| c.log_value()).sum()
    }

    /// Per-walker internal storage across components (memory ledger).
    pub fn bytes(&self) -> usize {
        self.components.iter().map(|c| c.bytes()).sum()
    }

    /// Writes every component's PbyP state into a walker buffer
    /// (QMCPACK's `updateBuffer`). The buffer is cleared first.
    pub fn save_state(&mut self, buf: &mut crate::buffer::WalkerBuffer<T>) {
        buf.clear();
        for c in &mut self.components {
            c.save_state(buf);
        }
    }

    /// Restores every component's PbyP state from a walker buffer
    /// (QMCPACK's `copyFromBuffer`). Positions and distance tables must
    /// already reflect the walker. Panics if the buffer layout mismatches.
    pub fn load_state(&mut self, buf: &mut crate::buffer::WalkerBuffer<T>) {
        buf.rewind();
        for c in &mut self.components {
            c.load_state(buf);
        }
        assert!(buf.fully_consumed(), "walker buffer layout mismatch");
        self.log_value = self.components.iter().map(|c| c.log_value()).sum();
    }

    /// Batched full evaluation over a crowd of walkers. Entry `w` of each
    /// slice belongs to walker `w`; `logs[w]` receives `log |Psi_T|`.
    ///
    /// Each component batches via
    /// [`WaveFunctionComponent::mw_evaluate_log_batched`]: Jastrows take
    /// the default scalar loop (bit-identical to [`Self::evaluate_log`]
    /// per walker), while the determinant fuses orbital rows through
    /// [`crate::spo::SpoSet::mw_evaluate_vgl`] — for spline SPOs that
    /// kernel regroups floating point, so this entry point is only wired
    /// into opt-in batched drivers (`fused_refresh`), never the default
    /// lock-step crowd.
    pub fn mw_evaluate_log(
        batch: &mut [&mut Self],
        psets: &mut [&mut ParticleSet<T>],
        logs: &mut [f64],
    ) {
        for p in psets.iter_mut() {
            p.update_tables();
            p.reset_gl();
        }
        logs.fill(0.0);
        let nc = batch.first().map_or(0, |t| t.components.len());
        for ci in 0..nc {
            let mut comps: Vec<&mut (dyn WaveFunctionComponent<T> + '_)> = batch
                .iter_mut()
                .map(|t| t.components[ci].as_mut())
                .collect();
            // Walker 0's instance leads and may fuse its siblings (e.g. the
            // determinant routing orbital rows through the multi-walker SPO
            // kernel); the default loops the scalar path bit-identically.
            let (leader, rest) = comps.split_first_mut().expect("non-empty crowd");
            leader.mw_evaluate_log_batched(rest, psets, logs);
        }
        for (t, &log) in batch.iter_mut().zip(logs.iter()) {
            t.log_value = log;
        }
    }

    /// Batched [`Self::calc_ratio_grad`] for the active move of particle
    /// `iat` on every walker. `ratios`/`grads` are overwritten.
    // qmclint: allow(timer-coverage) — loops the per-walker scalar
    // methods, each timed under its own Kernel::* category; a wrapper timer
    // here would double-count.
    pub fn mw_ratio_grad(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        ratios: &mut [f64],
        grads: &mut [Pos<f64>],
    ) {
        ratios.fill(1.0);
        for g in grads.iter_mut() {
            *g = TinyVector::zero();
        }
        let nc = batch.first().map_or(0, |t| t.components.len());
        for ci in 0..nc {
            for (((t, p), r), g) in batch
                .iter_mut()
                .zip(psets)
                .zip(ratios.iter_mut())
                .zip(grads.iter_mut())
            {
                *r *= t.components[ci].ratio_grad(p, iat, g);
            }
        }
    }

    /// Batched [`Self::eval_grad`]: `grads[w]` is overwritten with the
    /// gradient of `log Psi_T` for walker `w`'s particle `iat`.
    // qmclint: allow(timer-coverage) — loops the per-walker scalar
    // methods, each timed under its own Kernel::* category; a wrapper timer
    // here would double-count.
    pub fn mw_eval_grad(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        grads: &mut [Pos<f64>],
    ) {
        for g in grads.iter_mut() {
            *g = TinyVector::zero();
        }
        let nc = batch.first().map_or(0, |t| t.components.len());
        for ci in 0..nc {
            for ((t, p), g) in batch.iter_mut().zip(psets).zip(grads.iter_mut()) {
                *g += t.components[ci].eval_grad(p, iat);
            }
        }
    }

    /// Batched accept/reject resolution: commits walker `w`'s move when
    /// `accept[w]`, otherwise discards it (call before resolving the
    /// particle sets themselves).
    // qmclint: allow(timer-coverage) — loops the per-walker scalar
    // methods, each timed under its own Kernel::* category; a wrapper timer
    // here would double-count.
    pub fn mw_accept_restore(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        accept: &[bool],
    ) {
        let nc = batch.first().map_or(0, |t| t.components.len());
        for ci in 0..nc {
            for ((t, p), &acc) in batch.iter_mut().zip(psets).zip(accept) {
                let c = &mut t.components[ci];
                if acc {
                    c.accept_move(p, iat);
                } else {
                    c.restore(iat);
                }
            }
        }
    }

    /// Component names joined for reports.
    pub fn describe(&self) -> String {
        self.components
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(" * ")
    }
}

impl<T: Real> Default for TrialWaveFunction<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinant::DiracDeterminant;
    use crate::jastrow::{J2Soa, PairFunctors};
    use crate::spo::CosineSpo;
    use qmc_bspline::CubicBspline1D;
    use qmc_particles::{CrystalLattice, Layout, Species};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const N: usize = 6;
    const L: f64 = 7.0;

    /// A J2 · determinant walker whose electrons are drawn from `seed`.
    fn walker(seed: u64) -> (ParticleSet<f64>, TrialWaveFunction<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos: Vec<Pos<f64>> = (0..N)
            .map(|_| TinyVector([0; 3].map(|_| rng.random::<f64>() * L)))
            .collect();
        let sp = Species {
            name: "u".into(),
            charge: -1.0,
        };
        let mut p = ParticleSet::new("e", CrystalLattice::cubic(L), vec![(sp, pos)]);
        let table = p.add_table_aa(Layout::Soa);
        let functors = PairFunctors::new(1, |_, _| {
            CubicBspline1D::fit(
                |r| -0.4 * (1.0 - r / 3.0).powi(2) * (-r).exp(),
                -0.25,
                3.0,
                8,
            )
        });
        let mut twf = TrialWaveFunction::new();
        twf.add(Box::new(J2Soa::new(&p, table, functors)));
        twf.add(Box::new(DiracDeterminant::new(
            Box::new(CosineSpo::<f64>::new(N, [L; 3])),
            0,
            N,
        )));
        (p, twf)
    }

    /// The `mw_*` entry points must be bitwise identical to driving each
    /// walker through the scalar protocol independently.
    #[test]
    fn default_mw_protocol_is_bitwise_scalar() {
        // Batched walkers and an identically-seeded scalar twin set.
        let (mut pa, mut ta) = walker(11);
        let (mut pb, mut tb) = walker(22);
        let (mut pa2, mut ta2) = walker(11);
        let (mut pb2, mut tb2) = walker(22);

        let mut logs = [0.0; 2];
        TrialWaveFunction::mw_evaluate_log(
            &mut [&mut ta, &mut tb],
            &mut [&mut pa, &mut pb],
            &mut logs,
        );
        assert_eq!(logs[0], ta2.evaluate_log(&mut pa2));
        assert_eq!(logs[1], tb2.evaluate_log(&mut pb2));

        // Propose the same displacement on every walker; compare ratio/grad
        // and the post-accept gradient bitwise.
        let iat = 2;
        let step = TinyVector([0.31, -0.17, 0.08]);
        let (na, nb) = (pa.pos(iat) + step, pb.pos(iat) + step);
        for p in [&mut pa, &mut pb, &mut pa2, &mut pb2] {
            p.prepare_move(iat);
        }
        pa.make_move(iat, na);
        pb.make_move(iat, nb);
        pa2.make_move(iat, na);
        pb2.make_move(iat, nb);

        let mut ratios = [0.0; 2];
        let mut grads = [TinyVector::zero(); 2];
        TrialWaveFunction::mw_ratio_grad(
            &mut [&mut ta, &mut tb],
            &[&pa, &pb],
            iat,
            &mut ratios,
            &mut grads,
        );
        let (ra2, ga2) = ta2.calc_ratio_grad(&pa2, iat);
        let (rb2, gb2) = tb2.calc_ratio_grad(&pb2, iat);
        assert_eq!((ratios[0], grads[0].0), (ra2, ga2.0));
        assert_eq!((ratios[1], grads[1].0), (rb2, gb2.0));

        // Mixed accept/reject in one batched call.
        TrialWaveFunction::mw_accept_restore(
            &mut [&mut ta, &mut tb],
            &[&pa, &pb],
            iat,
            &[true, false],
        );
        ta2.accept_move(&pa2, iat);
        tb2.reject_move(iat);
        pa.accept_move(iat);
        pb.reject_move(iat);
        pa2.accept_move(iat);
        pb2.reject_move(iat);

        let mut g = [TinyVector::zero(); 2];
        TrialWaveFunction::mw_eval_grad(&mut [&mut ta, &mut tb], &[&pa, &pb], iat, &mut g);
        assert_eq!(g[0].0, ta2.eval_grad(&pa2, iat).0);
        assert_eq!(g[1].0, tb2.eval_grad(&pb2, iat).0);
    }
}
