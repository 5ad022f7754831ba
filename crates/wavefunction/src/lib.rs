//! # qmc-wavefunction
//!
//! The Slater–Jastrow trial wavefunction of Eq. 2-3 in *Mathuriya et al.,
//! SC'17*, with each hot component implemented twice along the paper's
//! optimization ladder:
//!
//! * Jastrow factors ([`jastrow`]) — baseline store-everything (`5 N^2`
//!   scalars per walker) versus compute-on-the-fly SoA (`5 N`).
//! * Single-particle orbitals ([`spo`]) — B-spline tables with reference or
//!   SIMD-friendly loop orders, in `f32` or `f64`.
//! * Dirac determinants ([`determinant`]) — Sherman–Morrison inverse
//!   updates, with periodic double-precision recomputes.
//!
//! [`TrialWaveFunction`] composes components behind the protocol defined in
//! [`traits`].

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub mod buffer;
pub mod determinant;
pub mod jastrow;
pub mod spo;
pub mod traits;
pub mod twf;

pub use buffer::WalkerBuffer;
pub use determinant::{DiracDeterminant, DEFAULT_RECOMPUTE_SWEEPS_DP, DEFAULT_RECOMPUTE_SWEEPS_SP};
pub use jastrow::{J1Ref, J1Soa, J2Ref, J2Soa, PairFunctors};
pub use spo::{BsplineSpo, CosineSpo, SpoSet};
pub use traits::WaveFunctionComponent;
pub use twf::TrialWaveFunction;
