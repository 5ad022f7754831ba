//! The per-thread compute engine: `ParticleSet` + `TrialWaveFunction` +
//! Hamiltonian, with the drift-diffusion particle-by-particle sweep of
//! Algorithm 1 (L4-L10) and the local-energy measurement (L11).
//!
//! Engines are created once per thread (`E_th`, `Psi_th` in Fig. 4) and
//! walkers are swapped through them via `load_walker`/`store_walker`.

use crate::walker::Walker;
use qmc_containers::{Pos, Real};
use qmc_hamiltonian::{
    ion_ion_energy, kinetic_energy, CoulombEE, CoulombEI, LocalEnergy, NonLocalPP,
};
use qmc_particles::{gaussian_pos, ParticleSet};
use qmc_wavefunction::TrialWaveFunction;
use rand::rngs::StdRng;

/// The potential-energy terms evaluated at measurement time.
pub struct HamiltonianSet {
    /// Electron-electron Coulomb (AA table handle inside).
    pub ee: Option<CoulombEE>,
    /// Electron-ion Coulomb.
    pub ei: Option<CoulombEI>,
    /// Constant ion-ion energy.
    pub ii: f64,
    /// Non-local pseudopotential.
    pub nlpp: Option<NonLocalPP>,
}

impl HamiltonianSet {
    /// A Hamiltonian with only the kinetic term (useful for tests).
    pub fn kinetic_only() -> Self {
        Self {
            ee: None,
            ei: None,
            ii: 0.0,
            nlpp: None,
        }
    }

    /// Full Hamiltonian from optional parts; `ions` supplies the constant
    /// ion-ion term when present.
    pub fn new<T: Real>(
        ee: Option<CoulombEE>,
        ei: Option<CoulombEI>,
        ions: Option<&ParticleSet<T>>,
        nlpp: Option<NonLocalPP>,
    ) -> Self {
        Self {
            ee,
            ei,
            ii: ions.map_or(0.0, ion_ion_energy),
            nlpp,
        }
    }
}

/// Outcome of one PbyP sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Accepted single-particle moves.
    pub accepted: usize,
    /// Attempted single-particle moves.
    pub attempted: usize,
}

impl SweepStats {
    /// Acceptance ratio.
    #[expect(
        clippy::cast_precision_loss,
        reason = "walker and step counts are exact in f64"
    )]
    pub fn acceptance(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.attempted as f64
        }
    }
}

/// Umrigar-style drift limiting: `v_eff = v * (-1 + sqrt(1 + 2 v^2 tau)) /
/// (v^2 tau)`, which tends to `v` for small drift and caps the step for
/// large gradients near nodes.
#[inline]
pub fn limited_drift(g: Pos<f64>, tau: f64) -> Pos<f64> {
    let v2 = g.norm2();
    if v2 * tau < 1e-12 {
        return g * tau;
    }
    let scale = (-1.0 + (1.0 + 2.0 * v2 * tau).sqrt()) / v2;
    g * scale
}

/// A per-thread QMC compute engine.
pub struct QmcEngine<T: Real> {
    /// Electron particle set (owns the distance tables).
    pub pset: ParticleSet<T>,
    /// Trial wavefunction.
    pub psi: TrialWaveFunction<T>,
    /// Hamiltonian terms.
    pub ham: HamiltonianSet,
}

impl<T: Real> QmcEngine<T> {
    /// Bundles the parts into an engine.
    pub fn new(pset: ParticleSet<T>, psi: TrialWaveFunction<T>, ham: HamiltonianSet) -> Self {
        Self { pset, psi, ham }
    }

    /// Initializes a walker: loads its positions, computes the wavefunction
    /// from scratch, measures the local energy and fills the buffer.
    pub fn init_walker(&mut self, w: &mut Walker<T>) {
        self.pset.load_positions(&w.r);
        w.log_psi = self.psi.evaluate_log(&mut self.pset);
        let el = self.measure_after_fresh_gl(&mut w.rng);
        w.e_local = el.total();
        qmc_instrument::check_finite(qmc_instrument::CheckKind::LogPsi, w.log_psi);
        qmc_instrument::check_finite(qmc_instrument::CheckKind::LocalEnergy, w.e_local);
        self.psi.save_state(&mut w.buffer);
    }

    /// Loads a walker into the engine (positions, tables, buffer state).
    pub fn load_walker(&mut self, w: &mut Walker<T>) {
        self.pset.load_positions(&w.r);
        self.psi.load_state(&mut w.buffer);
    }

    /// Stores the engine state back into the walker.
    pub fn store_walker(&mut self, w: &mut Walker<T>) {
        self.pset.store_positions(&mut w.r);
        self.psi.save_state(&mut w.buffer);
        w.log_psi = self.psi.log_value();
    }

    /// Recomputes the wavefunction from scratch at the current positions —
    /// the periodic mixed-precision hygiene step (§7.2). Records how far
    /// the incrementally-updated `log psi` had drifted from the fresh
    /// value in the calling thread's profile (the `mp_drift` block of the
    /// run report).
    ///
    /// Runs [`TrialWaveFunction::refresh_log`]: the determinants reinvert
    /// the Slater rows they hold instead of re-evaluating every orbital,
    /// which is bitwise a full `evaluate_log` because each row was computed
    /// at the position its electron still has. The one exception is a
    /// walker whose last refresh ran under fused crowds
    /// (`Crowd::set_fused_refresh`) and is then resumed on engines: it
    /// keeps the fused kernel's rows until its electrons move, and that
    /// path was never bitwise equal to engines.
    pub fn refresh_from_scratch(&mut self) {
        let before = self.psi.log_value();
        let after = self.psi.refresh_log(&mut self.pset);
        qmc_instrument::check_finite(qmc_instrument::CheckKind::LogPsi, after);
        if before.is_finite() && after.is_finite() {
            qmc_instrument::record_refresh_drift((after - before).abs());
        }
    }

    /// One importance-sampled drift-diffusion PbyP sweep over all
    /// electrons (Algorithm 1, L4-L10).
    #[expect(clippy::disallowed_methods, reason = "the Metropolis accept draw")]
    pub fn sweep(&mut self, tau: f64, rng: &mut StdRng) -> SweepStats {
        let n = self.pset.len();
        let sqrt_tau = tau.sqrt();
        let mut stats = SweepStats::default();
        for iat in 0..n {
            self.pset.prepare_move(iat);
            let g_old = self.psi.eval_grad(&self.pset, iat);
            let drift_old = limited_drift(g_old, tau);
            let chi = gaussian_pos(rng) * sqrt_tau;
            let oldpos: Pos<f64> = self.pset.pos(iat).cast();
            let newpos64 = oldpos + drift_old + chi;
            let newpos: Pos<T> = newpos64.cast();
            stats.attempted += 1;

            self.pset.make_move(iat, newpos);
            let (ratio, g_new) = self.psi.calc_ratio_grad(&self.pset, iat);
            if ratio <= 0.0 || !ratio.is_finite() {
                // Fixed-node rejection (node crossing) or numerical trouble.
                self.psi.reject_move(iat);
                self.pset.reject_move(iat);
                continue;
            }
            // Detailed balance with the drifted Gaussian Green's function.
            let drift_new = limited_drift(g_new, tau);
            let forward = chi.norm2();
            let backward = (oldpos - newpos64 - drift_new).norm2();
            let log_gf_ratio = (forward - backward) / (2.0 * tau);
            let p_acc = (ratio * ratio * log_gf_ratio.exp()).min(1.0);
            if rng.random::<f64>() < p_acc {
                self.psi.accept_move(&self.pset, iat);
                self.pset.accept_move(iat);
                stats.accepted += 1;
            } else {
                self.psi.reject_move(iat);
                self.pset.reject_move(iat);
            }
        }
        stats
    }

    /// Measures the local energy at the current configuration using the
    /// stored-state O(N^2) path (Eq. 7).
    pub fn measure(&mut self, rng: &mut StdRng) -> LocalEnergy {
        self.psi.update_gl(&mut self.pset);
        self.measure_terms(rng)
    }

    fn measure_after_fresh_gl(&mut self, rng: &mut StdRng) -> LocalEnergy {
        // G/L already fresh from evaluate_log.
        self.measure_terms(rng)
    }

    fn measure_terms(&mut self, rng: &mut StdRng) -> LocalEnergy {
        let kinetic = kinetic_energy(&self.pset);
        let ee = self.ham.ee.as_ref().map_or(0.0, |c| c.evaluate(&self.pset));
        let ei = self.ham.ei.as_ref().map_or(0.0, |c| c.evaluate(&self.pset));
        let nlpp = self
            .ham
            .nlpp
            .as_ref()
            .map_or(0.0, |c| c.evaluate(&mut self.pset, &mut self.psi, rng));
        LocalEnergy {
            kinetic,
            ee,
            ei,
            ii: self.ham.ii,
            nlpp,
        }
    }

    /// Per-walker state bytes (wavefunction internals + tables), for the
    /// memory studies.
    pub fn bytes(&self) -> usize {
        self.pset.bytes() + self.psi.bytes()
    }
}

use rand::RngExt;

#[cfg(test)]
mod tests {
    use super::*;

    use qmc_containers::TinyVector;

    #[test]
    fn limited_drift_small_gradient_is_linear() {
        let g = TinyVector([0.01, 0.0, 0.0]);
        let d = limited_drift(g, 0.01);
        assert!((d[0] - 0.0001).abs() < 1e-8);
    }

    #[test]
    fn limited_drift_caps_large_gradient() {
        let g = TinyVector([1000.0, 0.0, 0.0]);
        let tau = 0.01;
        let d = limited_drift(g, tau);
        // Unlimited drift would be 10; limited is ~sqrt(2 tau).
        assert!(d[0] < 1.0, "drift = {}", d[0]);
        assert!(d[0] > 0.0);
    }

    #[test]
    fn sweep_stats_acceptance() {
        let s = SweepStats {
            accepted: 3,
            attempted: 4,
        };
        assert!((s.acceptance() - 0.75).abs() < 1e-15);
        assert_eq!(SweepStats::default().acceptance(), 0.0);
    }
}
