//! # qmc-linalg
//!
//! Dense linear-algebra substrate for the determinant part of the
//! Slater–Jastrow wavefunction: BLAS-like kernels, LU factorization for
//! from-scratch (re)inversion and the Sherman–Morrison rank-1 inverse
//! update driven by the matrix determinant lemma (Eq. 6 of the paper).
//! [`delayed`] keeps a delayed Woodbury engine (the paper's §8.4 future
//! work) that no determinant runs; only a benchmark meter times it.

// Physics and kernel crate (DESIGN §5c): its non-test code names none of
// the types and calls none of the methods `clippy.toml` disallows, each
// cast carries an `#[expect(.., reason)]`, and nothing panics in a kernel.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod blas;
pub mod delayed;
pub mod lu;
pub mod updates;

pub use blas::{axpy, dot, dots, gemm, scal};
pub use delayed::DelayedInverse;
pub use lu::{invert_with_log_det, LuFactor, SingularMatrix};
pub use updates::{
    det_ratio_row, sherman_morrison_inverse, sherman_morrison_update, transposed_inverse_log_det,
};
