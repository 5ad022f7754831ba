//! # qmc-containers
//!
//! Data-layout foundation for the QMC workspace: the precision abstraction
//! ([`Real`]), SIMD-aligned storage ([`AlignedVec`]) and the cache hint
//! ([`prefetch_read`]) — this crate's audited `unsafe`, both in
//! `aligned.rs` — the AoS physics vector ([`TinyVector`]), the paper's
//! structure-of-arrays container ([`VectorSoaContainer`], Fig. 5) and a
//! row-padded dense [`Matrix`].
//!
//! These reproduce the containers introduced in §7.3 of *Mathuriya et al.,
//! SC'17*: AoS objects (`Vector<TinyVector<T,D>>`) remain the high-level
//! physics abstraction, while SoA mirrors expose contiguous per-dimension
//! slabs that compilers auto-vectorize.

// Indexed loops over multiple parallel slices are the deliberate idiom in
// the SIMD kernels (mirrors the paper's C++ and keeps the auto-vectorizer's
// job obvious); iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod aligned;
pub mod matrix;
pub mod real;
pub mod soa;
pub mod tiny;

pub use aligned::{lanes_per_align, padded_len, prefetch_read, AlignedVec, QMC_SIMD_ALIGN};
pub use matrix::{transpose_into, Matrix};
pub use real::Real;
pub use soa::VectorSoaContainer;
pub use tiny::{Pos, TinyVector};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// AoS -> SoA -> AoS is the identity at matching precision.
        #[test]
        fn soa_roundtrip(v in prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6), 1..200)) {
            let aos: Vec<TinyVector<f64, 3>> = v.iter().map(|&(x, y, z)| TinyVector([x, y, z])).collect();
            let mut soa = VectorSoaContainer::<f64, 3>::new(aos.len());
            soa.copy_from_aos(&aos);
            let mut back = vec![TinyVector::<f64, 3>::zero(); aos.len()];
            soa.copy_to_aos(&mut back);
            prop_assert_eq!(back, aos);
        }

        /// The padded length is always >= n, a multiple of the lane count,
        /// and minimal.
        #[test]
        fn padding_minimal(n in 0usize..10_000) {
            let p32 = padded_len::<f32>(n);
            let p64 = padded_len::<f64>(n);
            prop_assert!(p32 >= n && p64 >= n);
            prop_assert_eq!(p32 % lanes_per_align::<f32>(), 0);
            prop_assert_eq!(p64 % lanes_per_align::<f64>(), 0);
            prop_assert!(p32 < n + lanes_per_align::<f32>());
            prop_assert!(p64 < n + lanes_per_align::<f64>());
        }

        /// Matrix indexing is consistent with row views for any shape.
        #[test]
        fn matrix_rows_consistent(rows in 1usize..20, cols in 1usize..40) {
            let m = Matrix::<f32>::from_fn(rows, cols, |i, j| (i * 1000 + j) as f32);
            for i in 0..rows {
                let r = m.row(i);
                prop_assert_eq!(r.len(), cols);
                for j in 0..cols {
                    prop_assert_eq!(r[j], m[(i, j)]);
                }
            }
        }

        /// TinyVector dot/norm identities.
        #[test]
        fn tiny_vector_identities(x in -1e3f64..1e3, y in -1e3f64..1e3, z in -1e3f64..1e3) {
            let a = TinyVector([x, y, z]);
            prop_assert!((a.norm2() - a.dot(&a)).abs() < 1e-9);
            let s = a * 2.0;
            prop_assert!((s.norm2() - 4.0 * a.norm2()).abs() < 1e-6 * (1.0 + a.norm2()));
        }
    }
}
