//! LU factorization with partial pivoting.
//!
//! Used for the initial Slater-matrix inversion and for the periodic
//! recompute-from-scratch that bounds mixed-precision drift (§7.2 of the
//! paper, its ref. 13). The recompute always runs in `f64` regardless of the
//! kernel precision.
//!
//! [`LuFactor::solve_in_place`] substitutes one right-hand side: each
//! `x[i]` is a chain of dependent `mul_add`s over `x[..i]`, bound by FMA
//! latency. [`LuFactor::inverse`] needs `n` of those solves and runs them
//! all at once instead: `X` holds one right-hand side per column, and the
//! substitution step `x[i] -= lu[i][j] * x[j]` becomes the contiguous
//! `axpy(-lu[i][j], X.row(j), X.row(i))` over every column. Column `c` of
//! `X` sees exactly `solve_in_place`'s `mul_add` sequence in the same `j`
//! order (the columns never mix), so the result is bit-identical to `n`
//! separate solves; only the chains now run side by side in vector lanes.

use crate::blas::axpy;
use qmc_containers::{Matrix, Real};

/// LU factorization `P A = L U` stored packed in a single matrix.
pub struct LuFactor<T: Real> {
    lu: Matrix<T>,
    piv: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0).
    perm_sign: f64,
}

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix;

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

impl<T: Real> LuFactor<T> {
    /// Factorizes a square matrix with partial (row) pivoting.
    pub fn new(a: &Matrix<T>) -> Result<Self, SingularMatrix> {
        assert_eq!(a.rows(), a.cols(), "LU needs a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut perm_sign: f64 = 1.0;

        for k in 0..n {
            // Pivot search on column k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == T::ZERO || !pmax.is_finite() {
                return Err(SingularMatrix);
            }
            if p != k {
                let (a, b) = lu.two_rows_mut(k, p);
                a.swap_with_slice(b);
                piv.swap(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                // Row elimination over trailing columns.
                let (rk, ri) = lu.two_rows_mut(k, i);
                for j in k + 1..n {
                    ri[j] = (-m).mul_add(rk[j], ri[j]);
                }
            }
        }
        Ok(Self { lu, piv, perm_sign })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// `(log|det A|, sign(det A))`, accumulated in `f64`.
    pub fn log_abs_det(&self) -> (f64, f64) {
        let mut log: f64 = 0.0;
        let mut sign = self.perm_sign;
        for k in 0..self.n() {
            let d = self.lu[(k, k)].to_f64();
            log += d.abs().ln();
            if d < 0.0 {
                sign = -sign;
            }
        }
        (log, sign)
    }

    /// Solves `A x = b` in place; `b` enters as the right-hand side and
    /// leaves as the solution.
    // qmclint: cold — LU solves run on the from-scratch recompute path
    // (O(N^3) factorization dominates), never per accepted move.
    pub fn solve_in_place(&self, b: &mut [T]) {
        let n = self.n();
        assert_eq!(b.len(), n);
        // Apply permutation.
        let mut x: Vec<T> = (0..n).map(|i| b[self.piv[i]]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc = (-self.lu[(i, j)]).mul_add(x[j], acc);
            }
            x[i] = acc;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc = (-self.lu[(i, j)]).mul_add(x[j], acc);
            }
            x[i] = acc / self.lu[(i, i)];
        }
        b.copy_from_slice(&x);
    }

    /// Dense inverse of the factorized matrix: all `n` right-hand sides of
    /// `A X = I` are solved at once, row-wise (see the module docs).
    // qmclint: cold — dense inversion is the periodic from-scratch
    // recompute, amortized over the recompute interval.
    pub fn inverse(&self) -> Matrix<T> {
        let n = self.n();
        // The permuted identity: column c is `solve_in_place`'s permuted e_c.
        let mut x = Matrix::zeros(n, n);
        for i in 0..n {
            x[(i, self.piv[i])] = T::ONE;
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            for j in 0..i {
                let (xj, xi) = x.two_rows_mut(j, i);
                axpy(-self.lu[(i, j)], xj, xi);
            }
        }
        // Backward substitution.
        for i in (0..n).rev() {
            for j in i + 1..n {
                let (xj, xi) = x.two_rows_mut(j, i);
                axpy(-self.lu[(i, j)], xj, xi);
            }
            let d = self.lu[(i, i)];
            for e in x.row_mut(i) {
                *e /= d;
            }
        }
        x
    }
}

/// Convenience: inverse and `(log|det|, sign)` in one call.
pub fn invert_with_log_det<T: Real>(
    a: &Matrix<T>,
) -> Result<(Matrix<T>, f64, f64), SingularMatrix> {
    let lu = LuFactor::new(a)?;
    let (log, sign) = lu.log_abs_det();
    Ok((lu.inverse(), log, sign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    fn mat(n: usize, vals: &[f64]) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| vals[i * n + j])
    }

    #[test]
    fn det_of_known_matrix() {
        let a = mat(2, &[3.0, 1.0, 4.0, 2.0]); // det = 2
        let lu = LuFactor::new(&a).unwrap();
        let (log, sign) = lu.log_abs_det();
        assert!((sign * log.exp() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_negative() {
        let a = mat(2, &[0.0, 1.0, 1.0, 0.0]); // det = -1
        let (log, sign) = LuFactor::new(&a).unwrap().log_abs_det();
        assert!((log).abs() < 1e-12);
        assert_eq!(sign, -1.0);
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = mat(3, &[2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        let mut b = [4.0, 5.0, 6.0];
        LuFactor::new(&a).unwrap().solve_in_place(&mut b);
        // A x = (4,5,6): x = (6, 15, -23) -- check by substitution.
        let x = b;
        assert!((2.0 * x[0] + x[1] + x[2] - 4.0).abs() < 1e-10);
        assert!((x[0] + 3.0 * x[1] + 2.0 * x[2] - 5.0).abs() < 1e-10);
        assert!((x[0] - 6.0).abs() < 1e-10);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 8;
        // Deterministic well-conditioned test matrix.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let (inv, _, _) = invert_with_log_det(&a).unwrap();
        let mut prod = Matrix::<f64>::zeros(n, n);
        gemm(1.0, &a, &inv, 0.0, &mut prod);
        let eye = Matrix::<f64>::identity(n);
        assert!(prod.max_abs_diff(&eye) < 1e-10);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = mat(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(LuFactor::new(&a).is_err());
    }

    #[test]
    fn f32_inverse_reasonable() {
        let n = 6;
        let a = Matrix::<f32>::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else {
                0.5 / (1.0 + (i + j) as f32)
            }
        });
        let (inv, _, _) = invert_with_log_det(&a).unwrap();
        let mut prod = Matrix::<f32>::zeros(n, n);
        gemm(1.0, &a, &inv, 0.0, &mut prod);
        assert!(prod.max_abs_diff(&Matrix::<f32>::identity(n)) < 1e-5);
    }
}
