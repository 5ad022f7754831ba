//! # qmc-bspline
//!
//! B-spline data, the Rust equivalent of einspline's tables plus
//! QMCPACK's `BsplineFunctor`:
//!
//! * [`CubicBspline1D`] — 1D cubic B-spline functors with finite cutoff and
//!   cusp conditions, the basis of the Jastrow factors (§3, Fig. 3).
//! * [`MultiBspline3D`] — periodic tricubic multi-spline coefficient tables
//!   in `f32` or `f64` (§7.2-7.3): allocation, the in-place fill, periodic
//!   ghost layers and the `SplineView` handed to `qmc_kernels::bspline`,
//!   which owns every evaluation (reference, soa and simd loop orders).

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel slices are the deliberate idiom in
// the SIMD kernels (mirrors the paper's C++ and keeps the auto-vectorizer's
// job obvious); iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod cubic1d;
pub mod spline3d;

pub use cubic1d::{bspline_weights, CubicBspline1D};
pub use spline3d::{solve_cyclic_tridiagonal, MultiBspline3D};
