//! Property-based tests for the deterministic reduction primitives.
//!
//! The contract under test: `det_sum`'s association shape is a pure
//! function of the term count, so however the terms were *gathered*
//! (chunk sizes, write order — everything a thread schedule can vary),
//! the reduced bits are identical. The properties mirror the
//! thread-sweep test of `crates/workloads/tests/parity.rs` at the
//! primitive level.

use proptest::prelude::*;
use qmc_drivers::{det_sum, det_sum_by};

proptest! {
    /// Gathering the same terms through any chunking, with the chunks
    /// written in any (reversed) completion order, reduces to the same
    /// bits: the tree shape never sees the chunk boundaries.
    #[test]
    fn gather_chunking_cannot_reach_the_bits(
        xs in prop::collection::vec(-1.0e3f64..1.0e3, 1..200),
        chunks in 1usize..9,
    ) {
        let reference = det_sum(&xs).to_bits();
        let per = xs.len().div_ceil(chunks);
        let mut gathered = vec![0.0f64; xs.len()];
        for c in (0..chunks).rev() {
            let lo = (c * per).min(xs.len());
            let hi = ((c + 1) * per).min(xs.len());
            gathered[lo..hi].copy_from_slice(&xs[lo..hi]);
        }
        prop_assert_eq!(det_sum(&gathered).to_bits(), reference);
    }

    /// The closure-indexed form is bitwise the slice form — drivers may
    /// reduce `w.weight * w.e_local` expressions without materializing a
    /// buffer and still land on identical bits.
    #[test]
    fn closure_form_is_bitwise_the_slice_form(
        xs in prop::collection::vec(-1.0e6f64..1.0e6, 0..300),
    ) {
        prop_assert_eq!(
            det_sum_by(xs.len(), |i| xs[i]).to_bits(),
            det_sum(&xs).to_bits()
        );
    }

    /// Repeated evaluation is trivially stable (no interior state), and
    /// appending a zero term may change the tree shape but must keep the
    /// sum finite and close: the determinism contract is per term-count,
    /// not across term-counts — this pins exactly that boundary.
    #[test]
    fn determinism_is_per_term_count(
        xs in prop::collection::vec(-1.0e3f64..1.0e3, 1..100),
    ) {
        let a = det_sum(&xs);
        prop_assert_eq!(a.to_bits(), det_sum(&xs).to_bits());
        let mut with_zero = xs.clone();
        with_zero.push(0.0);
        let b = det_sum(&with_zero);
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    }

    /// Pairwise summation stays within a tight bound of an extended-
    /// precision reference, so determinism never costs accuracy: the
    /// tree is at least as well conditioned as the sequential fold.
    #[test]
    fn tree_sum_tracks_kahan_reference(
        xs in prop::collection::vec(-1.0e6f64..1.0e6, 0..300),
    ) {
        let (mut acc, mut comp) = (0.0f64, 0.0f64);
        for &x in &xs {
            let y = x - comp;
            let t = acc + y;
            comp = (t - acc) - y;
            acc = t;
        }
        let tree = det_sum(&xs);
        prop_assert!(
            (tree - acc).abs() <= 1e-9 * acc.abs().max(1.0),
            "tree {} vs kahan {}", tree, acc
        );
    }
}
