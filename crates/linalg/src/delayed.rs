//! Delayed determinant-inverse updates (Woodbury identity).
//!
//! No determinant uses this engine: `DiracDeterminant` runs Sherman–Morrison
//! on `A⁻¹` (`crate::updates::sherman_morrison_inverse`), which measured
//! about 6 µs per accepted move at n = 192 against 48.4 µs here. The type
//! exists only because the benchmark's `linalg.delayed_accept_us` meter
//! times it; the benchmark change that retires that meter deletes it.
//!
//! §8.4 of the paper identifies `DetUpdate` as the emerging bottleneck and
//! points to delayed-update schemes (McDaniel et al., the paper's ref. 30) based on the
//! Woodbury matrix identity: accumulate up to `delay` accepted row
//! replacements and apply them to the inverse in one blocked (BLAS3-shaped)
//! flush, while answering ratio queries against the *virtually updated*
//! inverse in `O(delay * N)`.
//!
//! Derivation used here (transposed-inverse storage `M = (A^{-1})^T`, base
//! inverse kept unflushed): after accepting replacements of distinct rows
//! `k_a` by vectors `v_a` (a = 0..m), Woodbury gives for any row `r` of the
//! current transposed inverse
//!
//! ```text
//! M'.row(r) = M.row(r) - sum_a y[a] * M.row(k_a),   S y = c,
//! S[a][b]   = dot(M.row(k_b), v_a),
//! c[a]      = dot(M.row(r), v_a) - [k_a == r]
//! ```
//!
//! so a ratio costs one `O(mN)` correction plus a dot product, and the flush
//! applies the same correction to all rows with three `m x N` GEMMs.

use crate::blas::{axpy, dot};
use qmc_containers::{Matrix, Real};

/// Inverse of a Slater matrix with delayed (Woodbury) row updates.
pub struct DelayedInverse<T: Real> {
    /// Transposed inverse of the *base* matrix (excludes pending updates).
    minv_t: Matrix<T>,
    /// Maximum number of accepted updates buffered before a flush.
    delay: usize,
    /// Rows replaced in the current window (distinct by construction).
    ks: Vec<usize>,
    /// Accepted replacement rows, one per entry of `ks`.
    vs: Matrix<T>,
    /// Window Gram matrix `S[a][b] = dot(M.row(k_b), v_a)` in f64.
    s: Matrix<f64>,
    /// Scratch RHS/solution for the per-ratio window solve (<= delay).
    scratch_c: Vec<f64>,
    /// Scratch copy of the Gram matrix consumed by the in-place solves.
    scratch_s: Matrix<f64>,
    /// Flush scratch: the `m x N` correction block `W` (overwritten by
    /// `D = S^{-1} W` during the flush).
    scratch_w: Matrix<f64>,
    /// Flush scratch: copies of the replaced base rows.
    scratch_k: Matrix<T>,
}

/// Solves `S x = y` in place (the solution overwrites `y`) using Gaussian
/// elimination with partial pivoting on a scratch copy of the first
/// `y.len()` rows/cols of `s`. Allocation-free: this sits on the per-ratio
/// hot path of the delayed-update scheme.
fn solve_gauss_vec(scratch: &mut Matrix<f64>, s: &Matrix<f64>, y: &mut [f64]) {
    let m = y.len();
    if m == 1 {
        assert!(s[(0, 0)] != 0.0, "delayed-update window matrix singular");
        y[0] /= s[(0, 0)];
        return;
    }
    for a in 0..m {
        for b in 0..m {
            scratch[(a, b)] = s[(a, b)];
        }
    }
    for p in 0..m {
        let mut piv = p;
        for i in p + 1..m {
            if scratch[(i, p)].abs() > scratch[(piv, p)].abs() {
                piv = i;
            }
        }
        if piv != p {
            for j in 0..m {
                let t = scratch[(p, j)];
                scratch[(p, j)] = scratch[(piv, j)];
                scratch[(piv, j)] = t;
            }
            y.swap(p, piv);
        }
        let d = scratch[(p, p)];
        assert!(d != 0.0, "delayed-update window matrix singular");
        for i in p + 1..m {
            let f = scratch[(i, p)] / d;
            if f == 0.0 {
                continue;
            }
            for j in p + 1..m {
                scratch[(i, j)] -= f * scratch[(p, j)];
            }
            y[i] -= f * y[p];
        }
    }
    for p in (0..m).rev() {
        let mut acc = y[p];
        for q in p + 1..m {
            acc -= scratch[(p, q)] * y[q];
        }
        y[p] = acc / scratch[(p, p)];
    }
}

/// Solves `S X = B` in place over the first `m` rows of `b` (all `ncols`
/// columns at once — the blocked flush-path variant of [`solve_gauss_vec`]).
fn solve_gauss_block(
    scratch: &mut Matrix<f64>,
    s: &Matrix<f64>,
    b: &mut Matrix<f64>,
    m: usize,
    ncols: usize,
) {
    for a in 0..m {
        for q in 0..m {
            scratch[(a, q)] = s[(a, q)];
        }
    }
    for p in 0..m {
        let mut piv = p;
        for i in p + 1..m {
            if scratch[(i, p)].abs() > scratch[(piv, p)].abs() {
                piv = i;
            }
        }
        if piv != p {
            for j in 0..m {
                let t = scratch[(p, j)];
                scratch[(p, j)] = scratch[(piv, j)];
                scratch[(piv, j)] = t;
            }
            for j in 0..ncols {
                let t = b[(p, j)];
                b[(p, j)] = b[(piv, j)];
                b[(piv, j)] = t;
            }
        }
        let d = scratch[(p, p)];
        assert!(d != 0.0, "delayed-update window matrix singular");
        for i in p + 1..m {
            let f = scratch[(i, p)] / d;
            if f == 0.0 {
                continue;
            }
            for j in p + 1..m {
                scratch[(i, j)] -= f * scratch[(p, j)];
            }
            for j in 0..ncols {
                b[(i, j)] -= f * b[(p, j)];
            }
        }
    }
    for p in (0..m).rev() {
        let d = scratch[(p, p)];
        for j in 0..ncols {
            let mut acc = b[(p, j)];
            for q in p + 1..m {
                acc -= scratch[(p, q)] * b[(q, j)];
            }
            b[(p, j)] = acc / d;
        }
    }
}

impl<T: Real> DelayedInverse<T> {
    /// Wraps an existing transposed inverse with a delay window of `delay`
    /// accepted moves (`delay == 1` degenerates to rank-1 behaviour).
    pub fn new(minv_t: Matrix<T>, delay: usize) -> Self {
        assert!(delay >= 1, "delay must be at least 1");
        assert_eq!(minv_t.rows(), minv_t.cols());
        let n = minv_t.rows();
        Self {
            minv_t,
            delay,
            ks: Vec::with_capacity(delay),
            vs: Matrix::zeros(delay, n),
            s: Matrix::zeros(delay, delay),
            scratch_c: vec![0.0; delay],
            scratch_s: Matrix::zeros(delay, delay),
            scratch_w: Matrix::zeros(delay, n),
            scratch_k: Matrix::zeros(delay, n),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.minv_t.rows()
    }

    /// Number of accepted-but-unflushed updates.
    pub fn pending(&self) -> usize {
        self.ks.len()
    }

    /// Computes row `r` of the *current* (virtually updated) transposed
    /// inverse into `out`. `O(pending * N)` and allocation-free: the window
    /// solve runs on preallocated scratch.
    pub fn inv_row(&mut self, r: usize, out: &mut [T]) {
        let n = self.n();
        assert_eq!(out.len(), n);
        out.copy_from_slice(self.minv_t.row(r));
        let m = self.ks.len();
        if m == 0 {
            return;
        }
        let mut c = std::mem::take(&mut self.scratch_c);
        c.resize(m, 0.0);
        for (a, ca) in c.iter_mut().enumerate() {
            *ca = dot(self.minv_t.row(r), self.vs.row(a)).to_f64();
            if self.ks[a] == r {
                *ca -= 1.0;
            }
        }
        solve_gauss_vec(&mut self.scratch_s, &self.s, &mut c);
        for (a, &ya) in c.iter().enumerate() {
            axpy(T::from_f64(-ya), self.minv_t.row(self.ks[a]), out);
        }
        self.scratch_c = c;
    }

    /// Determinant ratio for replacing row `r` with `v`, against the current
    /// virtually updated inverse. Also returns the inverse row so callers
    /// can compute gradient ratios without a second correction pass.
    pub fn ratio_with_inv_row(&mut self, r: usize, v: &[T], inv_row: &mut [T]) -> T {
        self.inv_row(r, inv_row);
        dot(inv_row, v)
    }

    /// Accepts the replacement of row `r` by `v`. Flushes automatically when
    /// the window fills or when `r` is already in the window (same-row
    /// updates cannot share a Woodbury window).
    pub fn accept(&mut self, r: usize, v: &[T]) {
        assert_eq!(v.len(), self.n());
        if self.ks.len() == self.delay || self.ks.contains(&r) {
            self.flush();
        }
        let m = self.ks.len();
        // Extend the Gram matrix: S[a][m] and S[m][b].
        for a in 0..m {
            self.s[(a, m)] = dot(self.minv_t.row(r), self.vs.row(a)).to_f64();
            self.s[(m, a)] = dot(self.minv_t.row(self.ks[a]), v).to_f64();
        }
        self.s[(m, m)] = dot(self.minv_t.row(r), v).to_f64();
        self.vs.row_mut(m).copy_from_slice(v);
        // Push into a with_capacity(delay) buffer; the flush above guarantees
        // the window has room, so this never reallocates.
        self.ks.push(r);
        if self.ks.len() == self.delay {
            self.flush();
        }
    }

    /// Applies all pending updates to the base inverse with blocked
    /// (GEMM-shaped) arithmetic and clears the window. Runs entirely on
    /// preallocated scratch.
    pub fn flush(&mut self) {
        let m = self.ks.len();
        if m == 0 {
            return;
        }
        let n = self.n();
        let Self {
            minv_t,
            ks,
            vs,
            s,
            scratch_s,
            scratch_w,
            scratch_k,
            ..
        } = self;

        // W[a][j] = dot(M.row(j), v_a) - [k_a == j]   (m x N)
        for a in 0..m {
            let va = vs.row(a);
            let wa = scratch_w.row_mut(a);
            for j in 0..n {
                wa[j] = dot(minv_t.row(j), va).to_f64();
            }
            wa[ks[a]] -= 1.0;
        }

        // D = S^{-1} W  (m x N), solved as one block; D overwrites W.
        solve_gauss_block(scratch_s, s, scratch_w, m, n);

        // K[a] = copy of base M.row(k_a) before modification.
        for a in 0..m {
            scratch_k.row_mut(a).copy_from_slice(minv_t.row(ks[a]));
        }

        // M.row(j) -= sum_a D[a][j] * K[a]
        for j in 0..n {
            let row = minv_t.row_mut(j);
            for a in 0..m {
                // Split borrow: `scratch_k` and `minv_t` are distinct.
                let coeff = T::from_f64(-scratch_w[(a, j)]);
                axpy(coeff, scratch_k.row(a), row);
            }
        }

        ks.clear();
    }

    /// Flushed transposed inverse. Panics if updates are pending; call
    /// [`Self::flush`] first.
    pub fn minv_t(&self) -> &Matrix<T> {
        assert!(self.ks.is_empty(), "pending delayed updates; flush first");
        &self.minv_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates::{det_ratio_row, sherman_morrison_update, transposed_inverse_log_det};

    fn test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 })
    }

    fn new_row(n: usize, k: usize, shift: f64) -> Vec<f64> {
        (0..n)
            .map(|j| 0.07 * (j as f64 + shift) + if j == k { 2.0 } else { 0.3 })
            .collect()
    }

    #[test]
    fn matches_sherman_morrison_through_window_boundaries() {
        let n = 12;
        let a = test_matrix(n, 7);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let mut sm = minv_t.clone();
        let mut delayed = DelayedInverse::new(minv_t, 4);

        let mut inv_row = vec![0.0f64; n];
        // Sweep: move every electron once, accepting most; window flushes
        // inside the sweep (delay 4 < 12 moves).
        for k in 0..n {
            let v = new_row(n, k, k as f64);
            let r_sm = det_ratio_row(&sm, k, &v);
            let r_dl = delayed.ratio_with_inv_row(k, &v, &mut inv_row);
            assert!(
                (r_sm - r_dl).abs() < 1e-9 * r_sm.abs().max(1.0),
                "k={k}: {r_sm} vs {r_dl}"
            );
            if k % 3 != 2 {
                // accept
                sherman_morrison_update(&mut sm, k, &v, r_sm);
                delayed.accept(k, &v);
            }
        }
        delayed.flush();
        assert!(delayed.minv_t().max_abs_diff(&sm) < 1e-8);
    }

    #[test]
    fn inv_row_mid_window_matches_rank1_chain() {
        let n = 10;
        let a = test_matrix(n, 11);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let mut sm = minv_t.clone();
        let mut delayed = DelayedInverse::new(minv_t, 8);

        for k in [1usize, 4, 6] {
            let v = new_row(n, k, 0.5);
            let r = det_ratio_row(&sm, k, &v);
            sherman_morrison_update(&mut sm, k, &v, r);
            delayed.accept(k, &v);
        }
        assert_eq!(delayed.pending(), 3);
        let mut row = vec![0.0f64; n];
        for r in 0..n {
            delayed.inv_row(r, &mut row);
            for j in 0..n {
                assert!(
                    (row[j] - sm[(r, j)]).abs() < 1e-9,
                    "row {r} col {j}: {} vs {}",
                    row[j],
                    sm[(r, j)]
                );
            }
        }
    }

    #[test]
    fn flush_against_lu_reinversion() {
        let n = 8;
        let mut a = test_matrix(n, 23);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let mut delayed = DelayedInverse::new(minv_t, 3);
        for k in [0usize, 5, 2, 7, 3] {
            let v = new_row(n, k, 1.0 + k as f64);
            delayed.accept(k, &v);
            a.row_mut(k).copy_from_slice(&v);
        }
        delayed.flush();
        let (fresh, _, _) = transposed_inverse_log_det(&a).unwrap();
        assert!(delayed.minv_t().max_abs_diff(&fresh) < 1e-8);
    }

    #[test]
    fn same_row_twice_forces_flush() {
        let n = 6;
        let a = test_matrix(n, 31);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let mut delayed = DelayedInverse::new(minv_t, 4);
        let v1 = new_row(n, 2, 0.0);
        let v2 = new_row(n, 2, 9.0);
        delayed.accept(2, &v1);
        assert_eq!(delayed.pending(), 1);
        delayed.accept(2, &v2); // must flush the first before buffering
        assert_eq!(delayed.pending(), 1);
        delayed.flush();

        let mut a2 = a.clone();
        a2.row_mut(2).copy_from_slice(&v2);
        let (fresh, _, _) = transposed_inverse_log_det(&a2).unwrap();
        assert!(delayed.minv_t().max_abs_diff(&fresh) < 1e-9);
    }

    #[test]
    fn delay_one_equals_immediate_updates() {
        let n = 5;
        let a = test_matrix(n, 41);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let mut sm = minv_t.clone();
        let mut delayed = DelayedInverse::new(minv_t, 1);
        for k in 0..n {
            let v = new_row(n, k, k as f64 * 0.2);
            let r = det_ratio_row(&sm, k, &v);
            sherman_morrison_update(&mut sm, k, &v, r);
            delayed.accept(k, &v);
        }
        delayed.flush();
        assert!(delayed.minv_t().max_abs_diff(&sm) < 1e-10);
    }
}
