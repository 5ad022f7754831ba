//! Determinant ratios and Sherman–Morrison rank-1 inverse updates.
//!
//! Convention (same as QMCPACK): the Slater matrix is `A[i][j] = phi_j(r_i)`
//! (row per electron, column per orbital). Two storage orders of its inverse
//! appear here, with the same numbers in them:
//!
//! * `B = A^{-1}` as LU returns it, `B[i][k] = A^{-1}[i][k]` — what the
//!   determinant engine holds and [`sherman_morrison_inverse`] updates;
//! * the *transposed inverse* `M = B^T`, `M[k][j] = B[j][k]` — what
//!   [`det_ratio_row`] and [`sherman_morrison_update`] work on, the delayed
//!   engine keeps, and the walker buffer serializes (row = electron).
//!
//! Replacing row `k` of `A` by `v` needs `w = M v`, i.e. `w[j] = M.row(j) .
//! v`. In `M`'s order that is `n` reductions, each a chain of dependent
//! `mul_add`s rustc may not reassociate; [`sherman_morrison_update`] runs
//! them eight at a time through [`dots`], which covers the FMA latency but
//! still issues `n²` *scalar* FMAs — the issue-rate bound at NiO size. In
//! `B`'s order the very same sums are `w += v[i] * B.row(i)` for
//! `i = 0..n`: each `w[j]` receives `B[i][j] * v[i] = M[j][i] * v[i]` in
//! ascending `i`, exactly `dot(M.row(j), v)`'s `mul_add` sequence, but the
//! `n` chains now sit side by side in vector lanes — `n²/W` FMAs. The
//! rank-1 correction is elementwise in either order (`M[j][i] += c[j] *
//! M[k][i]` is `B[i][j] += c[j] * B[i][k]`), so both kernels produce the
//! same bits in every element; `tests/oracle.rs` holds them to that with
//! `to_bits` over chained moves, and [`sherman_morrison_update`] /
//! [`det_ratio_row`] stay as that oracle (and the delayed engine's tests').
//!
//! [`sherman_morrison_update`] is bit-identical to the row-at-a-time loop:
//! every `w[j]` keeps `dot`'s summation order, a block's rows are all read
//! before any of them is written, and row `k` is not written until the
//! final scaling.

use crate::blas::{axpy, dot, dots, scal};
use qmc_containers::{Matrix, Real};

/// Determinant ratio `det A' / det A` when row `k` of `A` is replaced by the
/// orbital vector `v` (`v[j] = phi_j(r_k')`).
///
/// By the matrix determinant lemma this is `v . column_k(A^{-1})`, a single
/// contiguous dot product in the transposed-inverse storage.
#[inline]
pub fn det_ratio_row<T: Real>(minv_t: &Matrix<T>, k: usize, v: &[T]) -> T {
    dot(minv_t.row(k), v)
}

/// Rows of `M` whose `w[j] = M.row(j) . v` are taken in one [`dots`] call:
/// enough independent FMA chains to cover the FMA latency, few enough that
/// the accumulators stay in registers.
const R: usize = 8;

/// Sherman–Morrison update of the transposed inverse after *accepting* the
/// replacement of row `k` of `A` by `v`, with `ratio` the value returned by
/// [`det_ratio_row`] for this move.
///
/// Derivation in transposed storage: with `w = M v` (so `w[k] == ratio`),
/// `M'.row(j) = M.row(j) - (w[j]/ratio) M.row(k)` for `j != k` and
/// `M'.row(k) = M.row(k) / ratio`.
pub fn sherman_morrison_update<T: Real>(minv_t: &mut Matrix<T>, k: usize, v: &[T], ratio: T) {
    let n = minv_t.rows();
    debug_assert_eq!(v.len(), n);
    let inv_ratio = T::ONE / ratio;
    // Allocation-free: a block's w[j] = dot(M.row(j), v) are consumed right
    // after they are produced. Row j is only read before its own update
    // and row k stays untouched until the final scaling, so this is
    // arithmetic-identical to materializing w = M v up front.
    let update_row = |m: &mut Matrix<T>, j: usize, w: T| {
        if j != k {
            let (rk, rj) = m.two_rows_mut(k, j);
            axpy(-w * inv_ratio, rk, rj);
        }
    };
    let blocked = n - n % R;
    for j0 in (0..blocked).step_by(R) {
        let w = dots::<T, R>(std::array::from_fn(|r| minv_t.row(j0 + r)), v);
        for (r, wj) in w.into_iter().enumerate() {
            update_row(minv_t, j0 + r, wj);
        }
    }
    for j in blocked..n {
        let w = dot(minv_t.row(j), v);
        update_row(minv_t, j, w);
    }
    scal(inv_ratio, minv_t.row_mut(k));
}

/// Ratio and Sherman–Morrison update in one call on the inverse stored as
/// `B = A^{-1}` (see the module docs), after *accepting* the replacement of
/// row `k` of `A` by `v`. Returns `det A' / det A`. `w` is caller-owned
/// scratch of length `n`; nothing is allocated.
///
/// With `w = B^T v` (so `w[k]` is the ratio) and `c = -w / w[k]`:
/// `B'[i][j] = B[i][j] + c[j] B[i][k]` for `j != k`, `B'[i][k] = B[i][k] /
/// w[k]`. Bit for bit what [`det_ratio_row`] + [`sherman_morrison_update`]
/// leave in `M = B^T`: `w` accumulates in `dot`'s order, the correction is
/// `axpy`'s `mul_add` per element, and column `k` is `scal`'s multiply.
pub fn sherman_morrison_inverse<T: Real>(b: &mut Matrix<T>, k: usize, v: &[T], w: &mut [T]) -> T {
    let n = b.rows();
    debug_assert!(b.cols() == n && v.len() == n && w.len() == n && k < n);
    w.fill(T::ZERO);
    for (i, &vi) in v.iter().enumerate() {
        axpy(vi, b.row(i), w);
    }
    let ratio = w[k];
    let inv_ratio = T::ONE / ratio;
    for wj in w.iter_mut() {
        *wj = -*wj * inv_ratio;
    }
    for i in 0..n {
        let row = b.row_mut(i);
        let bik = row[k];
        axpy(bik, w, row);
        row[k] = bik * inv_ratio;
    }
    ratio
}

/// Builds the transposed inverse `(A^{-1})^T` together with
/// `(log|det A|, sign)` via LU.
pub fn transposed_inverse_log_det<T: Real>(
    a: &Matrix<T>,
) -> Result<(Matrix<T>, f64, f64), crate::lu::SingularMatrix> {
    let (inv, log, sign) = crate::lu::invert_with_log_det(a)?;
    Ok((inv.transposed(), log, sign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactor;

    fn test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        // Simple deterministic LCG fill, diagonally dominated for conditioning.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 })
    }

    #[test]
    fn ratio_matches_determinant_quotient() {
        let n = 7;
        let a = test_matrix(n, 1);
        let (minv_t, log, sign) = transposed_inverse_log_det(&a).unwrap();
        let k = 3;
        let v: Vec<f64> = (0..n)
            .map(|j| 0.3 * j as f64 + if j == k { 2.0 } else { 0.7 })
            .collect();

        let ratio = det_ratio_row(&minv_t, k, &v);

        let mut a2 = a.clone();
        a2.row_mut(k).copy_from_slice(&v);
        let (log2, sign2) = LuFactor::new(&a2).unwrap().log_abs_det();
        let expected = sign2 * sign * (log2 - log).exp();
        assert!(
            (ratio - expected).abs() < 1e-9 * expected.abs().max(1.0),
            "ratio {ratio} vs {expected}"
        );
    }

    #[test]
    fn sherman_morrison_matches_full_reinversion() {
        let n = 9;
        let mut a = test_matrix(n, 2);
        let (mut minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();

        // Accept a chain of row replacements, as in a PbyP sweep.
        for k in [0usize, 4, 8, 2] {
            let v: Vec<f64> = (0..n)
                .map(|j| 0.1 * (j as f64 - k as f64) + if j == k { 2.5 } else { 0.4 })
                .collect();
            let ratio = det_ratio_row(&minv_t, k, &v);
            sherman_morrison_update(&mut minv_t, k, &v, ratio);
            a.row_mut(k).copy_from_slice(&v);
        }

        let (fresh, _, _) = transposed_inverse_log_det(&a).unwrap();
        assert!(minv_t.max_abs_diff(&fresh) < 1e-9);
    }

    #[test]
    fn unit_ratio_for_identical_row() {
        let n = 5;
        let a = test_matrix(n, 3);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let v: Vec<f64> = a.row(2).to_vec();
        let ratio = det_ratio_row(&minv_t, 2, &v);
        assert!((ratio - 1.0).abs() < 1e-10);
    }
}
