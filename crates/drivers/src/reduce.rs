//! Deterministic reduction primitives.
//!
//! Every parallel driver in this workspace ends a generation by reducing
//! per-walker quantities (weighted local energies, weights) into scalars.
//! Until PR 10 that invariant — "reduced sequentially in walker order" —
//! lived in comments; [`det_sum`] makes it a primitive every cross-task
//! merge goes through, after the join, in task order.
//!
//! [`det_sum`] is a *fixed-shape pairwise tree*: the association pattern
//! of the floating-point additions depends only on the number of terms,
//! never on thread count, chunk boundaries or task completion order. The
//! drivers gather per-walker terms into walker-indexed storage inside the
//! parallel section (each worker writes disjoint slots) and reduce once,
//! after the join, with this primitive — so the result is bitwise
//! identical for 1, 2 or 4 threads and for any `qmcsched` schedule, which
//! the `explore_thread_sweep` case asserts end to end.
//!
//! Pairwise summation also grows rounding error as `O(log n)` instead of
//! the sequential fold's `O(n)`, so the determinism contract comes with a
//! (slightly) better-conditioned estimator for free.

/// Terms per leaf of the reduction tree. Leaves fold this many terms
/// sequentially; above it the range splits at the midpoint. The shape is
/// a pure function of `n`, which is what makes the reduction bitwise
/// schedule-invariant.
const LEAF: usize = 8;

/// Fixed-shape pairwise tree sum of `f(0), f(1), .., f(n-1)`.
///
/// The closure-indexed form lets the drivers reduce per-walker expressions
/// (`w.weight * w.e_local`) without materializing a temporary buffer in
/// the generation loop.
pub fn det_sum_by<F: Fn(usize) -> f64>(n: usize, f: F) -> f64 {
    pairwise(0, n, &f)
}

/// Fixed-shape pairwise tree sum of a slice. Bitwise equal to
/// [`det_sum_by`] over `|i| xs[i]`.
pub fn det_sum(xs: &[f64]) -> f64 {
    det_sum_by(xs.len(), |i| xs[i])
}

/// Weighted mean `sum(w*e) / sum(w)` over `(e, w)` pairs with both sums
/// taken through the deterministic tree; `fallback` when the weight sum is
/// not positive. The shared tail of the multi-rank energy aggregation.
pub fn det_weighted_mean(pairs: &[(f64, f64)], fallback: f64) -> f64 {
    let es = det_sum_by(pairs.len(), |i| pairs[i].0 * pairs[i].1);
    let ws = det_sum_by(pairs.len(), |i| pairs[i].1);
    if ws > 0.0 {
        es / ws
    } else {
        fallback
    }
}

fn pairwise<F: Fn(usize) -> f64>(lo: usize, hi: usize, f: &F) -> f64 {
    let n = hi - lo;
    if n <= LEAF {
        let mut acc = 0.0;
        for i in lo..hi {
            acc += f(i);
        }
        return acc;
    }
    let mid = lo + n / 2;
    pairwise(lo, mid, f) + pairwise(mid, hi, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // Mixed magnitudes so association order actually shows in the bits.
        (0..n)
            .map(|i| {
                let s = if i % 3 == 0 { -1.0 } else { 1.0 };
                s * (1.0 + i as f64 * 1e-3) * 10f64.powi(i32::try_from(i % 7).unwrap() - 3)
            })
            .collect()
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(det_sum(&[]), 0.0);
        assert_eq!(det_sum(&[42.5]), 42.5);
    }

    #[test]
    fn matches_sequential_fold_on_small_inputs() {
        // At or below the leaf width the tree *is* the sequential fold.
        let xs = series(LEAF);
        assert_eq!(det_sum(&xs), xs.iter().sum::<f64>());
    }

    #[test]
    fn closure_and_slice_forms_agree_bitwise() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100, 257] {
            let xs = series(n);
            assert_eq!(det_sum(&xs).to_bits(), det_sum_by(n, |i| xs[i]).to_bits());
        }
    }

    #[test]
    fn shape_is_a_function_of_length_only() {
        // Same values gathered through any chunking (simulating worker
        // threads writing disjoint slot ranges in any completion order)
        // reduce to the same bits: det_sum only ever sees the final
        // walker-indexed buffer.
        let xs = series(101);
        let reference = det_sum(&xs).to_bits();
        for chunks in [1usize, 2, 3, 4, 7, 101] {
            let mut gathered = vec![0.0f64; xs.len()];
            let per = xs.len().div_ceil(chunks);
            // Fill chunks in reverse order — arrival order must not matter.
            for c in (0..chunks).rev() {
                let lo = c * per;
                let hi = ((c + 1) * per).min(xs.len());
                gathered[lo..hi].copy_from_slice(&xs[lo..hi]);
            }
            assert_eq!(det_sum(&gathered).to_bits(), reference);
        }
    }

    #[test]
    fn differs_from_chunk_order_merge() {
        // The failure mode the primitive exists to prevent: per-chunk
        // partial folds merged in chunk order give different bits for
        // different chunk counts. det_sum does not.
        let xs = series(1000);
        let merged: Vec<u64> = [1usize, 3, 4]
            .iter()
            .map(|&chunks| {
                let per = xs.len().div_ceil(chunks);
                xs.chunks(per)
                    .map(|c| c.iter().sum::<f64>())
                    .sum::<f64>()
                    .to_bits()
            })
            .collect();
        assert_ne!(merged[0], merged[2], "series too tame to detect reorder");
        let det: Vec<u64> = (0..3).map(|_| det_sum(&xs).to_bits()).collect();
        assert!(det.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn weighted_mean_fallback() {
        assert_eq!(det_weighted_mean(&[], -0.5), -0.5);
        assert_eq!(det_weighted_mean(&[(2.0, 0.0)], -0.5), -0.5);
        let pairs = [(1.0, 2.0), (3.0, 2.0)];
        assert_eq!(det_weighted_mean(&pairs, 0.0), 2.0);
    }
}
