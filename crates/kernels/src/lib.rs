//! # qmc-kernels — the swappable-backend hot-kernel library
//!
//! Every hot kernel of the miniapp — tricubic B-spline SPO evaluation
//! (v / vgh / fused vgl, single- and multi-walker), SoA distance-row
//! updates and the two-body Jastrow accumulations — lives behind the
//! single dispatch seam in this crate. Each kernel family is implemented
//! by three [`Backend`]s:
//!
//! * [`Backend::Reference`] — the scalar loops moved verbatim from the
//!   physics crates (spline-outermost B-spline accumulation, per-element
//!   distance rows, scalar Jastrow reductions). The baseline every other
//!   backend is verified against.
//! * [`Backend::Soa`] — the auto-vectorized structure-of-arrays loops
//!   (spline-innermost slabs per arXiv:1611.02665): what the paper's
//!   "Current" code version ran before this crate existed.
//! * [`Backend::Simd`] — explicit vectorization with portable-SIMD-style
//!   lane structs ([`lanes::WideLane`]): fixed-width register blocks that
//!   keep all accumulators of a spline block in registers across the
//!   64-node stencil instead of streaming every output slab through
//!   memory once per node, with the 64 stencil weights precomputed
//!   through hoisted `(a, b)` prefactor products (the register
//!   blocking/tiling scheme of arXiv:1611.02665) and a cache-blocked
//!   multi-walker vgl variant that amortizes that prefactor work across
//!   the crowd. Lane width follows the mixed-precision ladder
//!   ([`lanes::wide_f32`]): `f64` kernels run 8 lanes, `f32` kernels run
//!   the 16-wide rung — 512 bits of data, which the compiler holds as a
//!   pair of 256-bit registers on an AVX-512 Sapphire Rapids Xeon
//!   (`lanes.rs`). Pure safe Rust — the audited unsafe surface of the
//!   workspace is unchanged.
//!
//! ## Verification contract
//!
//! The cross-backend harness in `tests/` (and `src/bin/kernel_verify.rs`,
//! which CI runs) pins the following equivalences over seeded random
//! inputs:
//!
//! * **B-spline v / vgh / vgh-diag / vgl / mw-vgl**: all three backends are
//!   **bitwise identical** — every backend accumulates each orbital over
//!   the 64 stencil nodes in the same order with the same `mul_add`
//!   placement; the backends differ only in loop structure and memory
//!   traffic.
//! * **Distance rows**: all three backends are **bitwise identical** on
//!   orthorhombic cells (identical branch-free min-image arithmetic) and
//!   on general cells (all fall back to the same minimum-image wrap).
//! * **J2 accumulation**: `reference` and `soa` are **bitwise identical**
//!   (same reduction order); `simd` splits reductions across lanes and is
//!   therefore only guaranteed **within tolerance** (a few ULP times the
//!   row length).
//!
//! Trajectory-level consequence (checked by `qmcsched`): a full VMC/DMC
//! run is bitwise independent of the backend choice between `reference`
//! and `soa`; `simd` runs are statistically identical but may diverge
//! walker-by-walker once a Metropolis decision lands on the reduction
//! tolerance.
//!
//! ## Backend selection
//!
//! The process-wide backend is selected once at startup: the
//! `QMC_KERNEL_BACKEND` environment variable (`reference` / `soa` /
//! `simd`) sets the initial value, and the `--backend` flag of `miniqmc`
//! overrides it via [`set_backend`]. Engines capture
//! [`Backend::current`] when they are built, so a run never mixes
//! backends mid-flight.

#![forbid(unsafe_code)]
// Register-blocked micro-kernels live or die by guaranteed inlining: a
// missed inline on a `Lane` op or a stencil helper spills the whole
// accumulator block to the stack, which is the exact traffic the simd
// backend exists to remove.
#![allow(clippy::inline_always)]
// Kernel entry points take flat output slabs (psi/grad/lap/...) as
// separate slices on purpose — bundling them into structs would force the
// callers to allocate views per call on the hot path.
#![allow(clippy::too_many_arguments)]

pub mod bspline;
pub mod distance;
pub mod jastrow;
pub mod lanes;

pub use bspline::{bspline_weights, SplineView};
pub use distance::MinImageCell;

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation strategy. See the crate docs for the
/// verification contract between backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar loops moved from the physics crates (spline-outermost).
    Reference,
    /// Auto-vectorized spline-innermost SoA slabs (the former "Current"
    /// code path).
    Soa,
    /// Explicit lane-struct vectorization with register blocking.
    Simd,
}

impl Backend {
    /// Every backend, in verification order (`Reference` is the baseline).
    pub const ALL: [Backend; 3] = [Backend::Reference, Backend::Soa, Backend::Simd];

    /// Stable lower-case label (CLI flag value, report field, log lines).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Soa => "soa",
            Backend::Simd => "simd",
        }
    }

    /// Parses a CLI/env backend name.
    // qmclint: cold — CLI/env parsing, never on the Monte Carlo path.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" => Ok(Backend::Reference),
            "soa" => Ok(Backend::Soa),
            "simd" => Ok(Backend::Simd),
            other => Err(format!(
                "unknown kernel backend '{other}' (valid: reference, soa, simd)"
            )),
        }
    }

    /// The process-wide backend: the last [`set_backend`] value, else the
    /// `QMC_KERNEL_BACKEND` environment variable, else [`Backend::Soa`]
    /// (the pre-seam behavior of the optimized code path).
    pub fn current() -> Backend {
        match CURRENT.load(Ordering::Relaxed) {
            UNSET => {
                let b = Self::from_env().unwrap_or(Backend::Soa);
                // Another thread may race the first read; both resolve the
                // same env value, so last-write-wins is benign.
                CURRENT.store(b.tag(), Ordering::Relaxed);
                b
            }
            tag => Self::from_tag(tag),
        }
    }

    /// Reads `QMC_KERNEL_BACKEND`; `None` when unset. Panics loudly on an
    /// invalid value — a typoed backend must not silently benchmark the
    /// default.
    // qmclint: cold — env parsing at startup, never on the Monte Carlo path.
    pub fn from_env() -> Option<Backend> {
        let v = std::env::var("QMC_KERNEL_BACKEND").ok()?;
        if v.is_empty() {
            return None;
        }
        match Self::parse(&v) {
            Ok(b) => Some(b),
            Err(e) => panic!("QMC_KERNEL_BACKEND: {e}"),
        }
    }

    fn tag(self) -> u8 {
        match self {
            Backend::Reference => 0,
            Backend::Soa => 1,
            Backend::Simd => 2,
        }
    }

    fn from_tag(tag: u8) -> Backend {
        match tag {
            0 => Backend::Reference,
            1 => Backend::Soa,
            _ => Backend::Simd,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const UNSET: u8 = u8::MAX;
static CURRENT: AtomicU8 = AtomicU8::new(UNSET);

/// Sets the process-wide backend (the `miniqmc --backend` flag). Engines
/// capture the value at construction, so call this before building them.
pub fn set_backend(b: Backend) {
    CURRENT.store(b.tag(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.label()), Ok(b));
        }
        assert_eq!(Backend::parse("REF"), Ok(Backend::Reference));
        assert!(Backend::parse("avx512").is_err());
    }

    #[test]
    fn set_backend_wins_over_default() {
        set_backend(Backend::Simd);
        assert_eq!(Backend::current(), Backend::Simd);
        set_backend(Backend::Soa);
        assert_eq!(Backend::current(), Backend::Soa);
    }
}
