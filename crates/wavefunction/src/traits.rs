//! The wavefunction-component protocol.
//!
//! Mirrors QMCPACK's `WaveFunctionComponent` virtual interface, which §7.5
//! of the paper redesigns "to clearly define the roles and requirements of
//! the virtual functions for move, accept/reject and measurement".
//!
//! Call order per particle-by-particle step of Algorithm 1 (driven by
//! `TrialWaveFunction`):
//!
//! 1. `ParticleSet::prepare_move(iat)` — compute-on-the-fly row refresh,
//! 2. `eval_grad(iat)` — gradient at the *current* position (drift),
//! 3. `ParticleSet::make_move(iat, r')` — candidate distance rows,
//! 4. `ratio(iat)` / `ratio_grad(iat)` — Eq. 4 factor per component,
//! 5. on accept: `accept_move(iat)` then `ParticleSet::accept_move`,
//!    on reject: `restore(iat)` then `ParticleSet::reject_move`.

use crate::buffer::WalkerBuffer;
use qmc_containers::{Pos, Real};
use qmc_particles::ParticleSet;

/// One multiplicative factor of the trial wavefunction (a Jastrow factor or
/// a Slater determinant).
pub trait WaveFunctionComponent<T: Real>: Send {
    /// Component name for reports.
    fn name(&self) -> &str;

    /// Recomputes the component from scratch for the particle set's current
    /// configuration. Returns `log |psi_c|` and *accumulates* the gradient
    /// and Laplacian of `log psi_c` into `p.g` / `p.l` (double precision,
    /// per the paper's mixed-precision rules).
    fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64;

    /// The periodic from-scratch refresh (§7.2) of a component whose state
    /// was built by [`Self::evaluate_log`], kept up by accepted moves or
    /// restored by [`Self::load_state`] at the particle set's current
    /// positions. Returns and accumulates exactly what
    /// [`Self::evaluate_log`] would.
    ///
    /// The default is [`Self::evaluate_log`]. A component may reuse any
    /// state that is bitwise what `evaluate_log` would recompute at these
    /// positions: the determinant keeps its gradient and Laplacian rows
    /// (each written by `evaluate_vgl` at the position its electron still
    /// has), rebuilds its Slater rows with the value kernel (bitwise
    /// `evaluate_vgl`'s ψ) and reinverts.
    fn refresh_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        self.evaluate_log(p)
    }

    /// `psi_c(R') / psi_c(R)` for the active move of particle `iat`
    /// (`ParticleSet::make_move` must have been called).
    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64;

    /// Batched value-only ratios for the NLPP quadrature loop: multiplies
    /// `psi_c(.., r_q, ..) / psi_c(R)` for particle `iat` moved to each
    /// `positions[q]` into `ratios[q]`, *without* `ParticleSet::make_move`
    /// (the particle set is only read). Returns `true` when handled.
    ///
    /// The default returns `false` untouched, telling the caller this
    /// component needs the per-point `make_move` + [`Self::ratio`]
    /// fallback (the AoS `Ref` Jastrows). Implementations must produce
    /// each per-point factor **bitwise identical** to [`Self::ratio`] at
    /// the same position — the determinant batches the orbital
    /// evaluations, the SoA Jastrows stage every candidate row in one
    /// distance-table call, and both keep the per-point contraction.
    fn ratios_value_only(
        &mut self,
        _p: &ParticleSet<T>,
        _iat: usize,
        _positions: &[Pos<T>],
        _ratios: &mut [f64],
    ) -> bool {
        false
    }

    /// True for a Jastrow factor. `TrialWaveFunction::calc_ratios_v`
    /// multiplies every determinant's factor into a quadrature ratio
    /// before any Jastrow's — the order every recorded NLPP energy bit was
    /// produced in.
    fn is_jastrow(&self) -> bool {
        false
    }

    /// Like [`Self::ratio`], additionally accumulating the gradient of
    /// `log psi_c` at the *proposed* position into `grad`.
    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64;

    /// Gradient of `log psi_c` with respect to particle `iat` at its
    /// current position (used for the drift term before proposing).
    fn eval_grad(&mut self, p: &ParticleSet<T>, iat: usize) -> Pos<f64>;

    /// Commits internal state for the accepted move of `iat`. Called while
    /// the particle set still exposes the candidate rows.
    fn accept_move(&mut self, p: &ParticleSet<T>, iat: usize);

    /// Discards any candidate state for the rejected move of `iat`.
    fn restore(&mut self, iat: usize);

    /// Current `log |psi_c|` (kept incrementally up to date by accepts).
    fn log_value(&self) -> f64;

    /// Bytes of per-walker internal storage, for the memory ledger (this is
    /// where the paper's `5 N^2 sizeof(T)` versus `5 N sizeof(T)` shows up).
    fn bytes(&self) -> usize;

    /// Appends this component's internal PbyP state to the walker's
    /// anonymous buffer (QMCPACK's `updateBuffer`). Together with
    /// [`Self::load_state`] this lets a thread swap walkers without
    /// recomputing the wavefunction from scratch.
    fn save_state(&mut self, buf: &mut WalkerBuffer<T>);

    /// Accumulates the gradient/Laplacian of `log psi_c` into `p.g`/`p.l`
    /// from *stored* internal state, without re-evaluating orbitals or
    /// re-inverting matrices. This is the O(N^2) measurement path QMCPACK
    /// uses after each drift-diffusion sweep; [`Self::evaluate_log`] is the
    /// from-scratch variant used at block boundaries.
    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>);

    /// Restores internal state previously written by [`Self::save_state`]
    /// (QMCPACK's `copyFromBuffer`). The particle set's positions and
    /// distance tables must already reflect the walker.
    fn load_state(&mut self, buf: &mut WalkerBuffer<T>);

    /// Escape hatch for crowd-level batching: lets a component recognize
    /// its siblings across walkers (e.g. a determinant downcasting the
    /// other walkers' determinants to fuse their orbital evaluations).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Crowd-batched from-scratch evaluation: `self` is walker 0's
    /// component, `rest[k]` is walker `k + 1`'s instance of the *same*
    /// component, and `psets`/`logs` are walker-aligned (length
    /// `rest.len() + 1`). Adds each walker's `log |psi_c|` into its `logs`
    /// slot and accumulates G/L into its particle set, exactly as
    /// [`Self::evaluate_log`] does.
    ///
    /// The default loops the scalar path and is bit-identical to it;
    /// overrides (the fused multi-walker determinant) may regroup floating
    /// point and are only reachable through opt-in batched drivers.
    // The default body is a pure loop over `evaluate_log`, whose leaf kernels
    // carry the timers; wrapping the loop would double-count every scalar
    // kernel under a second category.
    fn mw_evaluate_log_batched(
        &mut self,
        rest: &mut [&mut (dyn WaveFunctionComponent<T> + 'static)],
        psets: &mut [&mut ParticleSet<T>],
        logs: &mut [f64],
    ) {
        debug_assert_eq!(psets.len(), rest.len() + 1);
        debug_assert_eq!(logs.len(), rest.len() + 1);
        logs[0] += self.evaluate_log(psets[0]);
        for ((c, p), l) in rest
            .iter_mut()
            .zip(psets[1..].iter_mut())
            .zip(logs[1..].iter_mut())
        {
            *l += c.evaluate_log(p);
        }
    }
}
