//! Batched (multi-walker) wavefunction-component APIs.
//!
//! QMCPACK's performance-portable drivers execute the PbyP protocol in
//! lock-step across a *crowd* of walkers so that leaf kernels see batches
//! of work (`mw_*` methods on `WaveFunctionComponent`). This module is the
//! analogous surface here: [`BatchedWaveFunctionComponent`] extends the
//! scalar [`WaveFunctionComponent`] protocol with multi-walker entry
//! points whose defaults loop the scalar methods — bit-identical to
//! per-walker execution by construction, because each walker's
//! floating-point op sequence is unchanged and walkers are independent.
//!
//! The blanket impl makes every component batchable immediately; leaf
//! batching (shared-coefficient SPO tables, distance-row refreshes) lives
//! below the component layer in [`crate::spo::SpoSet::mw_evaluate_vgl`]
//! and the distance tables' `mw_prepare` / `mw_move_candidates`.

use crate::traits::WaveFunctionComponent;
use qmc_containers::{Pos, Real};
use qmc_particles::ParticleSet;

/// Multi-walker extension of the PbyP component protocol.
///
/// All methods are associated functions over parallel slices: entry `w` of
/// `batch` is walker `w`'s component instance and `psets[w]` its particle
/// set. Outputs *accumulate* (`+=` for gradients and log values, `*=` for
/// ratios) exactly like the scalar protocol composes across components, so
/// a trial wavefunction can fold several components into the same output
/// slices. Callers zero/one-initialize the outputs.
pub trait BatchedWaveFunctionComponent<T: Real>: WaveFunctionComponent<T> {
    /// Batched full evaluation: adds each walker's `log |psi_c|` into
    /// `logs[w]`. Particle sets must already have fresh distance tables
    /// and zeroed G/L accumulators (the trial wavefunction does this once
    /// per walker, not once per component).
    // qmclint: allow(timer-coverage) — this default fans out to the
    // per-walker scalar methods, each timed under its own Kernel::*
    // category; a wrapper timer here would double-count.
    fn mw_evaluate_log(
        batch: &mut [&mut Self],
        psets: &mut [&mut ParticleSet<T>],
        logs: &mut [f64],
    ) {
        for ((c, p), log) in batch.iter_mut().zip(psets.iter_mut()).zip(logs.iter_mut()) {
            *log += c.evaluate_log(p);
        }
    }

    /// Batched gradient at the current position: accumulates each walker's
    /// component gradient into `grads[w]`.
    // qmclint: allow(timer-coverage) — this default fans out to the
    // per-walker scalar methods, each timed under its own Kernel::*
    // category; a wrapper timer here would double-count.
    fn mw_eval_grad(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        grads: &mut [Pos<f64>],
    ) {
        for ((c, p), g) in batch.iter_mut().zip(psets.iter()).zip(grads.iter_mut()) {
            *g += c.eval_grad(p, iat);
        }
    }

    /// Batched ratio+gradient for the active move of particle `iat`:
    /// multiplies each walker's component ratio into `ratios[w]` and
    /// accumulates the gradient at the proposed position into `grads[w]`.
    // qmclint: allow(timer-coverage) — this default fans out to the
    // per-walker scalar methods, each timed under its own Kernel::*
    // category; a wrapper timer here would double-count.
    fn mw_ratio_grad(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        ratios: &mut [f64],
        grads: &mut [Pos<f64>],
    ) {
        for (((c, p), r), g) in batch
            .iter_mut()
            .zip(psets.iter())
            .zip(ratios.iter_mut())
            .zip(grads.iter_mut())
        {
            *r *= c.ratio_grad(p, iat, g);
        }
    }

    /// Batched accept/reject resolution: commits walker `w`'s active move
    /// when `accept[w]`, otherwise restores the pre-move state.
    // qmclint: allow(timer-coverage) — this default fans out to the
    // per-walker scalar methods, each timed under its own Kernel::*
    // category; a wrapper timer here would double-count.
    fn mw_accept_restore(
        batch: &mut [&mut Self],
        psets: &[&ParticleSet<T>],
        iat: usize,
        accept: &[bool],
    ) {
        for ((c, p), &acc) in batch.iter_mut().zip(psets.iter()).zip(accept.iter()) {
            if acc {
                c.accept_move(p, iat);
            } else {
                c.restore(iat);
            }
        }
    }
}

// Every component is batchable out of the box via the scalar loop
// defaults (including trait objects, so `TrialWaveFunction` can batch its
// boxed components without knowing their concrete types).
impl<T: Real, C: WaveFunctionComponent<T> + ?Sized> BatchedWaveFunctionComponent<T> for C {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jastrow::{J2Soa, PairFunctors};
    use qmc_bspline::CubicBspline1D;
    use qmc_containers::TinyVector;
    use qmc_particles::{CrystalLattice, Layout, Species};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const L: f64 = 7.0;

    fn electrons(n: usize, seed: u64) -> ParticleSet<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let lat = CrystalLattice::cubic(L);
        let pos: Vec<Pos<f64>> = (0..n)
            .map(|_| {
                TinyVector([
                    rng.random::<f64>() * L,
                    rng.random::<f64>() * L,
                    rng.random::<f64>() * L,
                ])
            })
            .collect();
        let sp = Species {
            name: "u".into(),
            charge: -1.0,
        };
        ParticleSet::new("e", lat, vec![(sp, pos)])
    }

    fn j2(p: &ParticleSet<f64>, table: usize) -> J2Soa<f64> {
        let functors = PairFunctors::new(1, |_, _| {
            CubicBspline1D::fit(
                |r| -0.4 * (1.0 - r / 3.0).powi(2) * (-r).exp(),
                -0.25,
                3.0,
                8,
            )
        });
        J2Soa::new(p, table, functors)
    }

    /// The default `mw_*` loops must be bitwise identical to driving each
    /// walker through the scalar protocol independently.
    #[test]
    fn default_mw_protocol_is_bitwise_scalar() {
        let n = 6;
        let build = |seed: u64| {
            let mut p = electrons(n, seed);
            let t = p.add_table_aa(Layout::Soa);
            let c = j2(&p, t);
            (p, c)
        };
        // Batched walkers and an identically-seeded scalar twin set.
        let (mut pa, mut ca) = build(11);
        let (mut pb, mut cb) = build(22);
        let (mut pa2, mut ca2) = build(11);
        let (mut pb2, mut cb2) = build(22);

        let mut logs = [0.0; 2];
        {
            let mut batch: Vec<&mut J2Soa<f64>> = vec![&mut ca, &mut cb];
            let mut psets: Vec<&mut ParticleSet<f64>> = vec![&mut pa, &mut pb];
            for p in &mut psets {
                p.update_tables();
                p.reset_gl();
            }
            BatchedWaveFunctionComponent::mw_evaluate_log(&mut batch, &mut psets, &mut logs);
        }
        for p in [&mut pa2, &mut pb2] {
            p.update_tables();
            p.reset_gl();
        }
        assert_eq!(logs[0], ca2.evaluate_log(&mut pa2));
        assert_eq!(logs[1], cb2.evaluate_log(&mut pb2));

        // Propose the same move on every walker; compare ratio/grad and
        // the post-accept gradient bitwise.
        let iat = 2;
        let newpos = |p: &ParticleSet<f64>| -> Pos<f64> {
            let mut q = p.pos(iat);
            q[0] += 0.31;
            q[1] -= 0.17;
            q[2] += 0.08;
            q
        };
        let (na, nb) = (newpos(&pa), newpos(&pb));
        for p in [&mut pa, &mut pb, &mut pa2, &mut pb2] {
            p.prepare_move(iat);
        }
        pa.make_move(iat, na);
        pb.make_move(iat, nb);
        pa2.make_move(iat, na);
        pb2.make_move(iat, nb);

        let mut ratios = [1.0; 2];
        let mut grads = [TinyVector::zero(); 2];
        {
            let mut batch: Vec<&mut J2Soa<f64>> = vec![&mut ca, &mut cb];
            let psets: Vec<&ParticleSet<f64>> = vec![&pa, &pb];
            BatchedWaveFunctionComponent::mw_ratio_grad(
                &mut batch,
                &psets,
                iat,
                &mut ratios,
                &mut grads,
            );
        }
        let mut ga2 = TinyVector::zero();
        let ra2 = ca2.ratio_grad(&pa2, iat, &mut ga2);
        let mut gb2 = TinyVector::zero();
        let rb2 = cb2.ratio_grad(&pb2, iat, &mut gb2);
        assert_eq!(ratios[0], ra2);
        assert_eq!(ratios[1], rb2);
        assert_eq!(grads[0].0, ga2.0);
        assert_eq!(grads[1].0, gb2.0);

        // Mixed accept/reject in one batched call.
        {
            let mut batch: Vec<&mut J2Soa<f64>> = vec![&mut ca, &mut cb];
            let psets: Vec<&ParticleSet<f64>> = vec![&pa, &pb];
            BatchedWaveFunctionComponent::mw_accept_restore(
                &mut batch,
                &psets,
                iat,
                &[true, false],
            );
        }
        ca2.accept_move(&pa2, iat);
        cb2.restore(iat);
        pa.accept_move(iat);
        pb.reject_move(iat);
        pa2.accept_move(iat);
        pb2.reject_move(iat);

        let mut g = [TinyVector::zero(); 2];
        {
            let mut batch: Vec<&mut J2Soa<f64>> = vec![&mut ca, &mut cb];
            let psets: Vec<&ParticleSet<f64>> = vec![&pa, &pb];
            BatchedWaveFunctionComponent::mw_eval_grad(&mut batch, &psets, iat, &mut g);
        }
        assert_eq!(g[0].0, ca2.eval_grad(&pa2, iat).0);
        assert_eq!(g[1].0, cb2.eval_grad(&pb2, iat).0);
    }
}
