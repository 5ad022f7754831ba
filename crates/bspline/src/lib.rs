//! # qmc-bspline
//!
//! B-spline data, the Rust equivalent of einspline's tables plus
//! QMCPACK's `BsplineFunctor`:
//!
//! * [`CubicBspline1D`] — 1D cubic B-spline functors with finite cutoff and
//!   cusp conditions, the basis of the Jastrow factors (§3, Fig. 3).
//! * [`MultiBspline3D`] — periodic tricubic multi-spline coefficient tables
//!   in `f32` or `f64` (§7.2-7.3) over the logical grid only (no ghost
//!   layers: the kernels wrap the stencil): allocation, the in-place fill
//!   and the `SplineView` handed to `qmc_kernels::bspline`, which owns
//!   every evaluation (reference and simd loop orders).

// Physics and kernel crate (DESIGN §5c): its non-test code names none of
// the types and calls none of the methods `clippy.toml` disallows, and
// nothing panics in a kernel. It is also a designated mixed-precision
// crate (tables are fitted in f64 and stored in `T`), so the cast lints
// stay off here.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod cubic1d;
pub mod spline3d;

pub use cubic1d::{bspline_weights, CubicBspline1D};
pub use spline3d::{solve_cyclic_tridiagonal, MultiBspline3D};
