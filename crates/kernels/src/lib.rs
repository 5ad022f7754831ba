//! # qmc-kernels — the swappable-backend hot-kernel library
//!
//! Every hot kernel of the miniapp — tricubic B-spline SPO evaluation
//! (v / vgh / fused vgl, single- and multi-walker), SoA distance-row
//! updates and the two-body Jastrow accumulations — lives in this crate.
//! The B-spline and distance families each have two [`Backend`]s:
//!
//! * [`Backend::Reference`] — the scalar loops moved verbatim from the
//!   physics crates (spline-outermost B-spline accumulation, per-element
//!   distance rows). The Ref code version runs them, and they are the
//!   oracle the other backend is verified against.
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
//! `simd` is this repo's stand-in for the paper's compiler-vectorised SoA
//! loops: rustc has no `#pragma omp simd`, so a spline-innermost loop is
//! vectorised only when LLVM chooses to, and the lane structs make the
//! vector width part of the code.
//!
//! The two-body Jastrow family ([`jastrow`]) has one implementation and
//! no backend: its row reductions split across lanes on every code
//! version that runs them.
//!
//! ## Verification contract
//!
//! The cross-backend matrix in `tests/backend_matrix.rs` pins the
//! following over seeded random inputs (its `--ignored` cases are the
//! release-mode timing gates; `qmc-bench`'s `bench_kernels` is the meter):
//!
//! * **B-spline v / vgh / vgh-diag / vgl / mw-vgl / mw-v**, in `f64` and
//!   `f32`: `reference` and `simd` are **bitwise identical** — both
//!   accumulate each orbital over the 64 stencil nodes in the same order
//!   with the same `mul_add` placement, and differ only in loop structure
//!   and memory traffic. The `f32` `v` of either backend also stays
//!   within `1e-4` of the same table rebuilt in `f64` (the drift
//!   contract).
//! * **Distance rows**: **bitwise identical** on orthorhombic cells
//!   (identical branch-free min-image arithmetic) and on general cells
//!   (both fall back to the same minimum-image wrap).
//! * **J2 accumulation** has one reduction order, so there is nothing to
//!   compare across backends. The tests hold its lane-split sums within
//!   `(n + 1) · ε · Σ|term|` of a scalar left-to-right oracle (`ε` the
//!   machine epsilon of the precision, `n` the row length), and its slab
//!   updates bitwise equal to the scalar elementwise formula.
//!
//! Trajectory-level consequence (checked by `crates/workloads/tests/parity.rs`):
//! a full VMC/DMC run is bitwise independent of the backend choice.
//!
//! ## Backend selection
//!
//! The process-wide backend defaults to [`Backend::Simd`];
//! `miniqmc --backend reference|simd` changes it through [`set_backend`].
//! Engines capture [`Backend::current`] when they are built, so a run
//! never mixes backends mid-flight.

// Physics and kernel crate (DESIGN §5c): its non-test code names none of
// the types and calls none of the methods `clippy.toml` disallows, each
// cast carries an `#[expect(.., reason)]`, and nothing panics in a kernel.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]
#![expect(
    clippy::inline_always,
    reason = "a missed inline on a `Lane` op or a stencil helper spills the \
              accumulator block to the stack, the traffic the simd backend removes"
)]
#![expect(
    clippy::too_many_arguments,
    reason = "entry points take flat output slabs (psi/grad/lap/...) as separate \
              slices; bundling them would build views per call on the hot path"
)]

pub mod bspline;
pub mod distance;
pub mod jastrow;
pub mod lanes;

pub use bspline::{bspline_weights, SplineView};
pub use distance::MinImageCell;

use std::sync::atomic::{AtomicBool, Ordering};

/// A kernel implementation strategy for the B-spline and distance
/// families. See the crate docs for the verification contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar loops moved from the physics crates (spline-outermost).
    Reference,
    /// Explicit lane-struct vectorization with register blocking.
    Simd,
}

impl Backend {
    /// Every backend, in verification order (`Reference` is the baseline).
    pub const ALL: [Backend; 2] = [Backend::Reference, Backend::Simd];

    /// `Backend::Soa` names the former auto-vectorised backend, whose
    /// loops gave `simd`'s bits more slowly. It selects `simd`, and stays
    /// only because the benchmark harness (`benchmark/src/layers.rs`)
    /// names it.
    #[allow(
        non_upper_case_globals,
        reason = "spelled like the variant it replaces, because the benchmark names it"
    )]
    pub const Soa: Backend = Backend::Simd;

    /// Stable lower-case label (CLI flag value, report field, log lines).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Simd => "simd",
        }
    }

    /// Parses a CLI backend name.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" => Ok(Backend::Reference),
            "simd" => Ok(Backend::Simd),
            other => Err(format!(
                "unknown kernel backend '{other}' (valid: reference, simd)"
            )),
        }
    }

    /// The process-wide backend: the last [`set_backend`] value, else
    /// [`Backend::Simd`].
    pub fn current() -> Backend {
        if REFERENCE.load(Ordering::Relaxed) {
            Backend::Reference
        } else {
            Backend::Simd
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether the process-wide backend is [`Backend::Reference`].
static REFERENCE: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide backend (the `miniqmc --backend` flag). Engines
/// capture the value at construction, so call this before building them.
pub fn set_backend(b: Backend) {
    REFERENCE.store(b == Backend::Reference, Ordering::Relaxed);
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
        let soa = Backend::parse("soa").unwrap_err();
        assert!(soa.contains("valid: reference, simd"), "{soa}");
    }

    #[test]
    fn set_backend_wins_over_default() {
        set_backend(Backend::Reference);
        assert_eq!(Backend::current(), Backend::Reference);
        set_backend(Backend::Simd);
        assert_eq!(Backend::current(), Backend::Simd);
    }
}
