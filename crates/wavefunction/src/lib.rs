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

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel slices are the deliberate idiom in
// the SIMD kernels (mirrors the paper's C++ and keeps the auto-vectorizer's
// job obvious); iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

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
