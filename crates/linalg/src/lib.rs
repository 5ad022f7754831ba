//! # qmc-linalg
//!
//! Dense linear-algebra substrate for the determinant part of the
//! Slater–Jastrow wavefunction: BLAS-like kernels, LU factorization for
//! from-scratch (re)inversion and the Sherman–Morrison rank-1 inverse
//! update driven by the matrix determinant lemma (Eq. 6 of the paper).
//! [`delayed`] keeps a delayed Woodbury engine (the paper's §8.4 future
//! work) that no determinant runs; only a benchmark meter times it.

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel slices are the deliberate idiom in
// the SIMD kernels (mirrors the paper's C++ and keeps the auto-vectorizer's
// job obvious); iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

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
