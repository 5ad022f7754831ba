//! Determinant ratios and Sherman–Morrison rank-1 inverse updates.
//!
//! Convention (same as QMCPACK): the Slater matrix is `A[i][j] = phi_j(r_i)`
//! (row per electron, column per orbital). The engine stores the *transposed
//! inverse* `M = (A^{-1})^T`, i.e. `M[k][j] = A^{-1}[j][k]`, so that both the
//! determinant ratio for moving electron `k` (Eq. 6 of the paper) and the
//! gradient ratio are contiguous dot products against row `k` of `M`.
//!
//! The Sherman–Morrison update needs `w = M v`, one dot product per row.
//! Taken one row at a time that is `n` dependent FMA chains of length `n`,
//! bound by FMA latency, not by bandwidth (the 192² f32 inverse sits in L2).
//! [`sherman_morrison_update`] therefore takes the rows in blocks through
//! [`dots`], which is bit-identical to the row-at-a-time loop: every `w[j]`
//! keeps `dot`'s summation order, a block's rows are all read before any of
//! them is written, and row `k` is not written until the final scaling.

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

/// Builds the transposed inverse `(A^{-1})^T` together with
/// `(log|det A|, sign)` via LU. This is the from-scratch path used at setup
/// and for the periodic mixed-precision recompute.
pub fn transposed_inverse_log_det<T: Real>(
    a: &Matrix<T>,
) -> Result<(Matrix<T>, f64, f64), crate::lu::SingularMatrix> {
    let (inv, log, sign) = crate::lu::invert_with_log_det(a)?;
    let n = a.rows();
    let minv_t = Matrix::from_fn(n, n, |i, j| inv[(j, i)]);
    Ok((minv_t, log, sign))
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
