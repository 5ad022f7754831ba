//! [`Crowd`]: a batch of engines advancing walkers in lock-step.

use qmc_containers::{Pos, Real, TinyVector};
use qmc_drivers::{limited_drift, Crew, QmcEngine, SweepStats, Walker};
use qmc_particles::{gaussian_pos, ParticleSet};
use qmc_wavefunction::TrialWaveFunction;
use rand::RngExt;

/// A crowd: `crowd_size` compute engines that advance up to `crowd_size`
/// walkers through the PbyP sweep together, one electron at a time, so
/// every stage presents a multi-walker batch to the wavefunction layer
/// (`TrialWaveFunction::mw_*`) and, through it, to the batched leaf
/// kernels.
///
/// Each walker keeps its private RNG stream and its floating-point op
/// sequence is exactly that of [`QmcEngine::sweep`], so results are
/// bit-identical to per-walker execution for any crowd size.
pub struct Crowd<T: Real> {
    slots: Vec<QmcEngine<T>>,
    fused_refresh: bool,
}

impl<T: Real> Crowd<T> {
    /// Builds a crowd from its slot engines (one walker per slot).
    pub fn new(slots: Vec<QmcEngine<T>>) -> Self {
        assert!(!slots.is_empty(), "a crowd needs at least one engine");
        Self {
            slots,
            fused_refresh: false,
        }
    }

    /// Enables the fused block refresh: block-boundary recomputes go
    /// through [`TrialWaveFunction::mw_evaluate_log`], whose determinant
    /// stage drives the multi-walker SPO kernel (`Bspline-mw-vgl`). Off by
    /// default because the fused spline kernel regroups floating point, so
    /// it trades the crowd's bitwise parity with the per-walker drivers
    /// for batched throughput.
    pub fn set_fused_refresh(&mut self, fused: bool) {
        self.fused_refresh = fused;
    }

    /// Whether block refreshes use the fused batched path.
    pub fn fused_refresh(&self) -> bool {
        self.fused_refresh
    }

    /// Walkers this crowd advances per lock-step block.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// The engine of slot `s`.
    pub fn slot_mut(&mut self, s: usize) -> &mut QmcEngine<T> {
        &mut self.slots[s]
    }

    /// Per-walker internal storage of one slot engine (memory ledger).
    pub fn engine_bytes(&self) -> usize {
        self.slots[0].bytes()
    }

    /// Splits the first `nw` slots into parallel `mw_*` argument lists:
    /// walker `w`'s wavefunction and (shared) particle set.
    fn split_psi_pset(
        slots: &mut [QmcEngine<T>],
    ) -> (Vec<&mut TrialWaveFunction<T>>, Vec<&ParticleSet<T>>) {
        let mut psis = Vec::with_capacity(slots.len());
        let mut psets = Vec::with_capacity(slots.len());
        for e in slots.iter_mut() {
            let QmcEngine { pset, psi, .. } = e;
            psis.push(psi);
            psets.push(&*pset);
        }
        (psis, psets)
    }

    /// Block-boundary mixed-precision refresh for the first `nw` loaded
    /// slots: the batched analogue of calling
    /// [`QmcEngine::refresh_from_scratch`] per slot, with the same
    /// finiteness check and `mp_drift` bookkeeping per walker. With
    /// [`Self::set_fused_refresh`] enabled it reroutes the determinant's
    /// orbital rows through the multi-walker SPO kernel; otherwise it
    /// delegates to the bit-identical per-slot path.
    pub fn refresh_block(&mut self, nw: usize) {
        assert!(nw <= self.slots.len(), "more walkers than crowd slots");
        if !self.fused_refresh {
            for e in &mut self.slots[..nw] {
                e.refresh_from_scratch();
            }
            return;
        }
        let mut before = Vec::with_capacity(nw);
        let mut psis = Vec::with_capacity(nw);
        let mut psets = Vec::with_capacity(nw);
        for e in &mut self.slots[..nw] {
            before.push(e.psi.log_value());
            let QmcEngine { pset, psi, .. } = e;
            psis.push(psi);
            psets.push(pset);
        }
        let mut logs = vec![0.0; nw];
        TrialWaveFunction::mw_evaluate_log(&mut psis, &mut psets, &mut logs);
        for (&after, &bef) in logs.iter().zip(before.iter()) {
            qmc_instrument::check_finite(qmc_instrument::CheckKind::LogPsi, after);
            if bef.is_finite() && after.is_finite() {
                qmc_instrument::record_refresh_drift((after - bef).abs());
            }
        }
    }

    /// One lock-step drift-diffusion sweep over the loaded walkers
    /// (`walkers[s]` must be resident in slot `s`). Returns per-slot
    /// statistics, in slot order.
    ///
    /// The stage structure per electron `iat` is: batched gradient at the
    /// current position, per-slot drifted-Gaussian proposal (private RNG
    /// streams), batched ratio+gradient at the proposed position,
    /// per-slot Metropolis decision (fixed-node rejections draw no
    /// randoms, as in the scalar sweep), then batched component
    /// accept/restore followed by the particle-set resolutions.
    #[expect(
        clippy::disallowed_methods,
        reason = "each walker's accept draw, as in the scalar sweep"
    )]
    pub fn sweep(&mut self, walkers: &mut [Walker<T>], tau: f64) -> Vec<SweepStats> {
        let nw = walkers.len();
        assert!(nw <= self.slots.len(), "more walkers than crowd slots");
        let mut stats = vec![SweepStats::default(); nw];
        if nw == 0 {
            return stats;
        }
        let sqrt_tau = tau.sqrt();
        let n = self.slots[0].pset.len();

        let mut g: Vec<Pos<f64>> = vec![TinyVector::zero(); nw];
        let mut ratios: Vec<f64> = vec![1.0; nw];
        let mut oldpos: Vec<Pos<f64>> = vec![TinyVector::zero(); nw];
        let mut newpos: Vec<Pos<f64>> = vec![TinyVector::zero(); nw];
        let mut chi: Vec<Pos<f64>> = vec![TinyVector::zero(); nw];
        let mut npt: Vec<Pos<T>> = vec![TinyVector::zero(); nw];
        let mut accept = vec![false; nw];

        for iat in 0..n {
            // Stage A: batched row refresh + gradient at the current
            // position. The distance-table rows of the whole crowd are
            // refreshed back-to-back (one timer scope, bitwise identical per
            // walker) instead of interleaved with each walker's much larger
            // wavefunction working set — the source of the crowd-vs-
            // per-walker DistTable-AA regression.
            {
                let mut psets: Vec<&mut ParticleSet<T>> =
                    self.slots[..nw].iter_mut().map(|e| &mut e.pset).collect();
                ParticleSet::mw_prepare_moves(&mut psets, iat);
            }
            {
                let (mut psis, psets) = Self::split_psi_pset(&mut self.slots[..nw]);
                TrialWaveFunction::mw_eval_grad(&mut psis, &psets, iat, &mut g);
            }
            // Drifted Gaussian proposals, one per slot (private RNG streams
            // drawn in slot order, exactly as before), then all candidate
            // distance rows in one batched stage.
            for (s, w) in walkers.iter_mut().enumerate() {
                let drift_old = limited_drift(g[s], tau);
                chi[s] = gaussian_pos(&mut w.rng) * sqrt_tau;
                let op: Pos<f64> = self.slots[s].pset.pos(iat).cast();
                let np = op + drift_old + chi[s];
                oldpos[s] = op;
                newpos[s] = np;
                stats[s].attempted += 1;
                npt[s] = np.cast();
            }
            {
                let mut psets: Vec<&mut ParticleSet<T>> =
                    self.slots[..nw].iter_mut().map(|e| &mut e.pset).collect();
                ParticleSet::mw_make_moves(&mut psets, iat, &npt[..nw]);
            }
            // Stage B: batched ratio + gradient at the proposed position.
            {
                let (mut psis, psets) = Self::split_psi_pset(&mut self.slots[..nw]);
                TrialWaveFunction::mw_ratio_grad(&mut psis, &psets, iat, &mut ratios, &mut g);
            }
            // Metropolis decisions (same per-walker RNG draw pattern as
            // the scalar sweep: node crossings consume no uniform).
            for (s, w) in walkers.iter_mut().enumerate() {
                accept[s] = if ratios[s] <= 0.0 || !ratios[s].is_finite() {
                    false
                } else {
                    let drift_new = limited_drift(g[s], tau);
                    let forward = chi[s].norm2();
                    let backward = (oldpos[s] - newpos[s] - drift_new).norm2();
                    let log_gf_ratio = (forward - backward) / (2.0 * tau);
                    let p_acc = (ratios[s] * ratios[s] * log_gf_ratio.exp()).min(1.0);
                    w.rng.random::<f64>() < p_acc
                };
                stats[s].accepted += usize::from(accept[s]);
            }
            // Resolve components (batched), then the particle sets.
            {
                let (mut psis, psets) = Self::split_psi_pset(&mut self.slots[..nw]);
                TrialWaveFunction::mw_accept_restore(&mut psis, &psets, iat, &accept[..nw]);
            }
            for (s, &acc) in accept.iter().enumerate() {
                if acc {
                    self.slots[s].pset.accept_move(iat);
                } else {
                    self.slots[s].pset.reject_move(iat);
                }
            }
        }
        stats
    }
}

/// A crowd is the width-`W` crew member: the drivers' block loops call
/// the lock-step [`Crowd::sweep`] and [`Crowd::refresh_block`] above.
impl<T: Real> Crew<T> for Crowd<T> {
    const SPAN: &'static str = "crowd generation";
    const BLOCK_SPANS: bool = true;

    fn width(&self) -> usize {
        self.size()
    }

    fn slot_mut(&mut self, s: usize) -> &mut QmcEngine<T> {
        Crowd::slot_mut(self, s)
    }

    fn refresh_block(&mut self, nw: usize) {
        Crowd::refresh_block(self, nw);
    }

    fn sweep_block(&mut self, block: &mut [Walker<T>], tau: f64, stats: &mut [SweepStats]) {
        stats[..block.len()].copy_from_slice(&self.sweep(block, tau));
    }
}
