//! Row-major dense matrix with SIMD-padded, aligned rows.
//!
//! Distance tables and determinant matrices in the optimized ("Current")
//! code store full `N x Np` rows (Fig. 6(b) of the paper): each row is
//! padded to the SIMD width and starts on an aligned boundary, so the
//! per-row kernel loops vectorize with aligned accesses.

use crate::aligned::{padded_len, AlignedVec};
use crate::real::Real;
use std::ops::{Index, IndexMut};

/// Edge of the square tiles [`transpose_into`] moves: a tile's source rows
/// and destination rows are both a cache line or two, so neither side of
/// the copy strides through memory one element per line.
const TRANSPOSE_TILE: usize = 16;

/// Out-of-place blocked transpose between two strided row-major buffers:
/// `dst[j * dst_stride + i] = src[i * src_stride + j]` for `i < rows`,
/// `j < cols`. Allocation-free; elements are copied, never recomputed.
pub fn transpose_into<T: Copy>(
    src: &[T],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [T],
    dst_stride: usize,
) {
    assert!(src_stride >= cols && dst_stride >= rows, "rows overlap");
    for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let i1 = (i0 + TRANSPOSE_TILE).min(rows);
        for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(cols);
            for j in j0..j1 {
                let out = &mut dst[j * dst_stride + i0..j * dst_stride + i1];
                for (o, i) in out.iter_mut().zip(i0..i1) {
                    *o = src[i * src_stride + j];
                }
            }
        }
    }
}

/// Dense `rows x cols` matrix whose rows are padded to stride `>= cols`.
#[derive(Clone, Debug)]
pub struct Matrix<T: Real> {
    data: AlignedVec<T>,
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<T: Real> Matrix<T> {
    /// Zero matrix with SIMD-padded row stride.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = padded_len::<T>(cols);
        Self {
            data: AlignedVec::zeros(rows * stride),
            rows,
            cols,
            stride,
        }
    }

    /// Zero matrix with exactly `stride == cols` (no padding). Used by the
    /// reference AoS code paths which do not align their data.
    pub fn zeros_unpadded(rows: usize, cols: usize) -> Self {
        Self {
            data: AlignedVec::zeros(rows * cols),
            rows,
            cols,
            stride: cols,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row stride in elements (`>= cols`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Immutable row `i`, logical columns only.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Mutable row `i`, logical columns only.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        let s = self.stride;
        let c = self.cols;
        &mut self.data.as_mut_slice()[i * s..i * s + c]
    }

    /// Immutable row `i` including padding (length `stride`).
    #[inline]
    pub fn row_padded(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Mutable row `i` including padding.
    #[inline]
    pub fn row_padded_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        let s = self.stride;
        &mut self.data.as_mut_slice()[i * s..(i + 1) * s]
    }

    /// Two distinct mutable rows at once (for row swaps / rank-1 updates).
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert!(i != j && i < self.rows && j < self.rows);
        let s = self.stride;
        let c = self.cols;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.as_mut_slice().split_at_mut(hi * s);
        let a = &mut head[lo * s..lo * s + c];
        let b = &mut tail[..c];
        if i < j {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Flat view of the backing storage (including padding).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the backing storage (including padding).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Fills the logical region with `value` (padding untouched).
    pub fn fill(&mut self, value: T) {
        for i in 0..self.rows {
            self.row_mut(i).fill(value);
        }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Identity matrix (must be square).
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// The transpose as a new (row-padded) matrix, via [`transpose_into`].
    pub fn transposed(&self) -> Matrix<T> {
        let mut t = Matrix::zeros(self.cols, self.rows);
        let stride = t.stride;
        transpose_into(
            &self.data,
            self.stride,
            self.rows,
            self.cols,
            t.data.as_mut_slice(),
            stride,
        );
        t
    }

    /// Casts every logical element through `f64` into another precision.
    pub fn cast<U: Real>(&self) -> Matrix<U> {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            U::from_f64(self[(i, j)].to_f64())
        })
    }

    /// Maximum absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut m: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                m = m.max((self[(i, j)].to_f64() - other[(i, j)].to_f64()).abs());
            }
        }
        m
    }

    /// Bytes of backing storage (used by the memory ledger).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.rows * self.stride * std::mem::size_of::<T>()
    }
}

impl<T: Real> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

impl<T: Real> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data.as_mut_slice()[i * self.stride + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::QMC_SIMD_ALIGN;

    #[test]
    fn padded_rows_are_aligned() {
        let m = Matrix::<f32>::zeros(5, 17);
        assert_eq!(m.stride(), 32);
        for i in 0..5 {
            assert_eq!(m.row_padded(i).as_ptr() as usize % QMC_SIMD_ALIGN, 0);
        }
    }

    #[test]
    fn unpadded_has_exact_stride() {
        let m = Matrix::<f64>::zeros_unpadded(3, 5);
        assert_eq!(m.stride(), 5);
        assert_eq!(m.bytes(), 3 * 5 * 8);
    }

    #[test]
    fn indexing_and_rows() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        m[(1, 2)] = 5.0;
        assert_eq!(m.row(1)[2], 5.0);
        assert_eq!(m[(1, 2)], 5.0);
        m.row_mut(2).fill(1.0);
        assert_eq!(m.row(2), &[1.0; 4]);
    }

    #[test]
    fn two_rows_mut_disjoint() {
        let mut m = Matrix::<f64>::from_fn(4, 3, |i, _| i as f64);
        let (a, b) = m.two_rows_mut(3, 1);
        assert_eq!(a[0], 3.0);
        assert_eq!(b[0], 1.0);
        a[0] = -3.0;
        b[0] = -1.0;
        assert_eq!(m[(3, 0)], -3.0);
        assert_eq!(m[(1, 0)], -1.0);
    }

    #[test]
    fn identity_and_cast() {
        let i = Matrix::<f64>::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let j: Matrix<f32> = i.cast();
        assert_eq!(j[(2, 2)], 1.0f32);
        assert_eq!(i.max_abs_diff(&j.cast()), 0.0);
    }

    #[test]
    fn transpose_covers_whole_tiles_and_ragged_edges() {
        for (rows, cols) in [(1, 1), (3, 5), (16, 16), (17, 33), (40, 19)] {
            let m = Matrix::<f32>::from_fn(rows, cols, |i, j| (100 * i + j) as f32);
            let t = m.transposed();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(t[(j, i)], m[(i, j)]);
                }
            }
            // Padding of the destination stays zero.
            for j in 0..cols {
                assert!(t.row_padded(j)[rows..].iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }
}
