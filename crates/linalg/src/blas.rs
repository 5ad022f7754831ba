//! Minimal BLAS-like kernels used by the determinant engine.
//!
//! QMCPACK leans on vendor BLAS for the Sherman–Morrison (BLAS2) and delayed
//! (BLAS3) determinant updates; this workspace has no external BLAS, so we
//! provide the handful of kernels the determinant code needs: `dot`, `dots`,
//! `axpy` and `scal` are what the update engines run on, `gemm` is the
//! oracle the LU tests multiply `A · A⁻¹` with.
//!
//! `axpy` and `scal` are element-wise, so the compiler vectorizes them. A
//! reduction is different: `dot` is one chain of dependent `mul_add`s that
//! rustc may not reassociate, so it runs at one FMA *latency* per element.
//! [`dots`] is the cure that keeps the bits: `R` independent chains against
//! one shared vector advance together, each still summing its own elements
//! in `dot`'s order, so the latency of one chain hides behind the others.

use qmc_containers::{Matrix, Real};

/// Dot product of two equally sized slices.
#[inline]
pub fn dot<T: Real>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (a, b) in x.iter().zip(y) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// `R` dot products against one shared vector: `dots(rows, v)[r]` is
/// `dot(rows[r], v)` bit for bit, because accumulator `r` sees exactly
/// `dot`'s `mul_add` sequence; the `R` chains are independent, so they
/// overlap in the FMA pipeline instead of each waiting out its own latency.
#[inline]
pub fn dots<T: Real, const R: usize>(rows: [&[T]; R], v: &[T]) -> [T; R] {
    let n = v.len();
    // One re-slice per row up front: the inner loop carries no bounds check.
    let rows = rows.map(|r| &r[..n]);
    let mut acc = [T::ZERO; R];
    for i in 0..n {
        for r in 0..R {
            acc[r] = rows[r][i].mul_add(v[i], acc[r]);
        }
    }
    acc
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter().zip(y.iter_mut()) {
        *b = alpha.mul_add(*a, *b);
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Real>(alpha: T, x: &mut [T]) {
    for a in x.iter_mut() {
        *a *= alpha;
    }
}

/// General matrix-matrix product `C = alpha * A B + beta * C`.
///
/// Row-major ikj loop order: the innermost loop streams contiguous rows of
/// `B` and `C`.
pub fn gemm<T: Real>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimensions must match");
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    for i in 0..c.rows() {
        if beta == T::ZERO {
            c.row_mut(i).fill(T::ZERO);
        } else if beta != T::ONE {
            scal(beta, c.row_mut(i));
        }
        for k in 0..a.cols() {
            let aik = alpha * a[(i, k)];
            // Split borrows: rows of b and c never alias (distinct matrices).
            axpy(aik, b.row(k), c.row_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, vals: &[f64]) -> Matrix<f64> {
        assert_eq!(vals.len(), rows * cols);
        Matrix::from_fn(rows, cols, |i, j| vals[i * cols + j])
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        let mut z = y;
        axpy(2.0, &x, &mut z);
        assert_eq!(z, [6.0, 9.0, 12.0]);
        scal(0.5, &mut z);
        assert_eq!(z, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn gemm_matches_manual() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
        // beta accumulation
        gemm(1.0, &a, &b, 1.0, &mut c);
        assert_eq!(c[(0, 0)], 116.0);
    }
}
