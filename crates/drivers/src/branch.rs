//! Walker population control: reweighting, birth/death branching and the
//! trial-energy feedback (Algorithm 1, L13-L14).

use crate::walker::Walker;
use qmc_containers::Real;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Branching/trial-energy controller.
#[derive(Clone, Debug)]
pub struct BranchController {
    /// Target population `<N_w>`.
    pub target_population: usize,
    /// Current trial energy `E_T`.
    pub e_trial: f64,
    /// Feedback strength for the population control term.
    pub feedback: f64,
    /// Time step (enters the reweighting exponent).
    pub tau: f64,
    /// Walkers older than this many zero-accept generations are forcibly
    /// kept but barred from replicating (QMCPACK's persistent-walker
    /// guard).
    pub max_age: usize,
    rng: StdRng,
}

impl BranchController {
    /// New controller with trial energy initialized to `e0`.
    pub fn new(target_population: usize, e0: f64, tau: f64, seed: u64) -> Self {
        Self {
            target_population,
            e_trial: e0,
            feedback: 1.0,
            tau,
            max_age: 10,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Every field, in the order [`Self::restore`] takes them, with the
    /// private branching stream as its raw state words: what a bitwise
    /// checkpoint writes. The destructuring names every field, so a field
    /// added here does not compile until the codec carries it.
    pub(crate) fn checkpoint_fields(&self) -> (usize, f64, f64, f64, usize, [u64; 4]) {
        let Self {
            target_population,
            e_trial,
            feedback,
            tau,
            max_age,
            rng,
        } = self;
        (
            *target_population,
            *e_trial,
            *feedback,
            *tau,
            *max_age,
            rng.state(),
        )
    }

    /// Rebuilds a controller from the checkpointed fields, the branching
    /// stream from its exact state words, so a restored controller draws
    /// the same uniforms an uninterrupted run would have.
    pub fn restore(
        target_population: usize,
        e_trial: f64,
        feedback: f64,
        tau: f64,
        max_age: usize,
        rng_state: [u64; 4],
    ) -> Self {
        Self {
            target_population,
            e_trial,
            feedback,
            tau,
            max_age,
            rng: StdRng::from_state(rng_state),
        }
    }

    /// DMC reweighting factor for a walker whose local energy moved from
    /// `e_old` to `e_new`: `exp(-tau * ((e_old + e_new)/2 - E_T))`. The
    /// exponent is clamped (standard E_L-fluctuation capping) so outlier
    /// configurations at equilibration cannot explode or extinguish the
    /// population.
    pub fn weight_factor(&self, e_old: f64, e_new: f64) -> f64 {
        let x = -self.tau * (0.5 * (e_old + e_new) - self.e_trial);
        let factor = x.clamp(-1.0, 1.0).exp();
        // The clamp bounds a *finite* exponent, but a NaN local energy or
        // trial energy propagates straight through clamp and exp.
        qmc_instrument::check_finite(qmc_instrument::CheckKind::BranchWeight, factor);
        factor
    }

    /// Stochastic-rounding birth/death: each walker is replicated
    /// `m = floor(weight + u)` times (u uniform), survivors carrying unit
    /// weight, so total weight is conserved in expectation
    /// (`E[m] = weight` below the replication cap). Walkers over
    /// `max_age` generations old are forcibly kept (`m >= 1`) but barred
    /// from replicating (`m <= 1`) and carry their weight forward
    /// unchanged — the stuck configuration survives without multiplying.
    #[expect(
        clippy::disallowed_methods,
        clippy::cast_possible_truncation,
        reason = "one uniform per walker; the copy count is floor(weight + u), capped at 4"
    )]
    pub fn branch<T: Real>(&mut self, walkers: &mut Vec<Walker<T>>) {
        // An empty population stays empty (drivers guard against it, but
        // branching must not manufacture walkers or panic).
        if walkers.is_empty() {
            return;
        }
        // The heaviest walker is always kept (QMCPACK-style minimum-walker
        // guard), so tiny populations cannot go extinct during
        // equilibration transients.
        let keep = walkers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.weight.total_cmp(&b.1.weight))
            .map_or(0, |(i, _)| i);
        let max_age = self.max_age;
        let mut next: Vec<Walker<T>> = Vec::with_capacity(walkers.len() + 8);
        for (i, mut w) in walkers.drain(..).enumerate() {
            // Every walker draws exactly one uniform regardless of its
            // fate, so the RNG stream (and downstream determinism) does
            // not depend on ages or weights.
            let u: f64 = self.rng.random();
            let mut m = (w.weight + u).floor() as usize;
            m = m.min(4); // cap explosive branching
            if i == keep {
                m = m.max(1);
            }
            if w.age > max_age {
                m = 1; // forced-keep, no replication
            }
            if m == 0 {
                continue; // death
            }
            if w.age <= max_age {
                w.weight = 1.0;
            }
            for _ in 1..m {
                next.push(w.branch_copy());
            }
            next.push(w);
        }
        debug_assert!(!next.is_empty());
        *walkers = next;
    }

    /// Updates the trial energy from the population-weighted energy
    /// estimate and the population feedback term.
    pub fn update_trial_energy(&mut self, e_est: f64, population: usize) {
        #[expect(
            clippy::cast_precision_loss,
            reason = "a ratio of counts, exact in f64"
        )]
        let ratio = population as f64 / self.target_population as f64;
        self.e_trial = e_est - self.feedback / self.tau * ratio.ln().clamp(-1.0, 1.0);
        qmc_instrument::check_finite(qmc_instrument::CheckKind::TrialEnergy, self.e_trial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::{initial_population, zero_positions};

    #[test]
    fn weight_factor_signs() {
        let b = BranchController::new(10, -1.0, 0.01, 1);
        // Local energy below E_T grows weight.
        assert!(b.weight_factor(-2.0, -2.0) > 1.0);
        assert!(b.weight_factor(0.0, 0.0) < 1.0);
        assert!((b.weight_factor(-1.0, -1.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn branching_conserves_expected_population() {
        let mut b = BranchController::new(100, 0.0, 0.01, 2);
        let mut walkers = initial_population::<f64>(&zero_positions(2), 100, 3);
        for (i, w) in walkers.iter_mut().enumerate() {
            w.weight = if i % 2 == 0 { 1.5 } else { 0.5 };
        }
        b.branch(&mut walkers);
        // Expected population stays ~100 (between 50 kills and 50 splits).
        assert!(
            walkers.len() > 70 && walkers.len() < 130,
            "{}",
            walkers.len()
        );
    }

    #[test]
    fn heavy_walkers_split_light_walkers_die() {
        let mut b = BranchController::new(10, 0.0, 0.01, 5);
        let mut heavy = initial_population::<f64>(&zero_positions(1), 10, 7);
        for w in &mut heavy {
            w.weight = 2.4;
        }
        b.branch(&mut heavy);
        assert!(heavy.len() >= 20, "heavy population {}", heavy.len());

        let mut light = initial_population::<f64>(&zero_positions(1), 200, 9);
        for w in &mut light {
            w.weight = 0.1;
        }
        b.branch(&mut light);
        assert!(light.len() < 60, "light population {}", light.len());
    }

    #[test]
    fn branching_conserves_total_weight_in_expectation() {
        // E[m] = weight under stochastic rounding and survivors carry unit
        // weight, so E[total weight after] = total weight before. Average
        // over many branch steps to beat the sampling noise down.
        let before_total = 2000.0 * (1.3 + 0.7) / 2.0;
        let mut after_sum = 0.0;
        let reps = 40;
        for rep in 0..reps {
            let mut b = BranchController::new(2000, 0.0, 0.01, 100 + rep);
            let mut walkers = initial_population::<f64>(&zero_positions(1), 2000, rep);
            for (i, w) in walkers.iter_mut().enumerate() {
                w.weight = if i % 2 == 0 { 1.3 } else { 0.7 };
            }
            b.branch(&mut walkers);
            after_sum += walkers.iter().map(|w| w.weight).sum::<f64>();
        }
        let after_mean = after_sum / reps as f64;
        let rel = (after_mean - before_total).abs() / before_total;
        assert!(
            rel < 0.01,
            "mean total weight {after_mean} vs {before_total}"
        );
    }

    #[test]
    fn over_age_walkers_forced_kept_and_not_replicated() {
        let mut b = BranchController::new(10, 0.0, 0.01, 13);
        // Tiny weight + over-age: would almost surely die, must be kept.
        let mut stuck = initial_population::<f64>(&zero_positions(1), 50, 21);
        for w in &mut stuck {
            w.weight = 1e-6;
            w.age = b.max_age + 1;
        }
        b.branch(&mut stuck);
        assert_eq!(stuck.len(), 50, "over-age walkers must all survive");
        assert!(
            stuck.iter().all(|w| (w.weight - 1e-6).abs() < 1e-18),
            "over-age walkers carry their weight forward unchanged"
        );

        // Huge weight + over-age: would normally split 4x, must not.
        let mut heavy = initial_population::<f64>(&zero_positions(1), 50, 22);
        for w in &mut heavy {
            w.weight = 3.9;
            w.age = b.max_age + 1;
        }
        b.branch(&mut heavy);
        assert_eq!(heavy.len(), 50, "over-age walkers must not replicate");

        // At exactly max_age the normal rules still apply (doc says
        // "over max_age").
        let mut normal = initial_population::<f64>(&zero_positions(1), 50, 23);
        for w in &mut normal {
            w.weight = 3.9;
            w.age = b.max_age;
        }
        b.branch(&mut normal);
        assert!(normal.len() > 100, "at-age walkers still branch normally");
    }

    #[test]
    fn restored_controller_continues_branching_stream_bitwise() {
        let mut live = BranchController::new(20, -1.0, 0.01, 77);
        let mut warm = initial_population::<f64>(&zero_positions(1), 20, 5);
        live.branch(&mut warm); // advance the private stream
        live.update_trial_energy(-1.2, warm.len());

        let (target_population, e_trial, feedback, tau, max_age, rng_state) =
            live.checkpoint_fields();
        let mut restored = BranchController::restore(
            target_population,
            e_trial,
            feedback,
            tau,
            max_age,
            rng_state,
        );
        // Identical populations, identical decisions, identical streams after.
        let mut a = initial_population::<f64>(&zero_positions(1), 15, 8);
        let mut b = initial_population::<f64>(&zero_positions(1), 15, 8);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            x.weight = 1.4;
            y.weight = 1.4;
        }
        live.branch(&mut a);
        restored.branch(&mut b);
        assert_eq!(a.len(), b.len());
        assert_eq!(live.checkpoint_fields(), restored.checkpoint_fields());
        assert_eq!(
            live.weight_factor(-1.0, -1.1),
            restored.weight_factor(-1.0, -1.1)
        );
    }

    #[test]
    fn trial_energy_feedback_pushes_toward_target() {
        let mut b = BranchController::new(100, 0.0, 0.01, 11);
        b.update_trial_energy(-1.0, 200); // too many walkers -> lower E_T
        assert!(b.e_trial < -1.0);
        b.update_trial_energy(-1.0, 50); // too few -> raise E_T
        assert!(b.e_trial > -1.0);
    }
}
