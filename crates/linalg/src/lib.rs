//! # qmc-linalg
//!
//! Dense linear-algebra substrate for the determinant part of the
//! Slater–Jastrow wavefunction: BLAS-like kernels, LU factorization for
//! from-scratch (re)inversion, the Sherman–Morrison rank-1 inverse update
//! driven by the matrix determinant lemma (Eq. 6 of the paper), and the
//! delayed Woodbury update engine the paper proposes as future work (§8.4).

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
