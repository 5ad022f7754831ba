//! The per-walker anonymous state buffer.
//!
//! QMCPACK's `Walker` carries "an anonymous Buffer to store internal state
//! for fast PbyP updates" (Fig. 4): when a thread picks up a walker it
//! restores the wavefunction's internal state (inverse matrices, Jastrow
//! accumulators, ...) from the buffer instead of recomputing it, and writes
//! it back after the sweep. The buffer is the dominant per-walker
//! allocation, which is where the paper's `gamma (N_th + N_w) N^2` memory
//! model and the `5N^2 -> 5N` Jastrow saving show up.
//!
//! Scalars that are precision-critical (log values, signs) are kept in a
//! separate `f64` stream regardless of the kernel precision `T`.

use qmc_containers::{transpose_into, Matrix, Real};

/// Growable typed buffer with separate working-precision and double
/// streams. Writing appends; reading consumes via internal cursors.
#[derive(Clone, Debug, Default)]
pub struct WalkerBuffer<T: Real> {
    reals: Vec<T>,
    doubles: Vec<f64>,
    r_cursor: usize,
    d_cursor: usize,
}

impl<T: Real> WalkerBuffer<T> {
    /// Empty buffer.
    pub fn new() -> Self {
        Self {
            reals: Vec::new(),
            doubles: Vec::new(),
            r_cursor: 0,
            d_cursor: 0,
        }
    }

    /// Clears contents and cursors (before a fresh save).
    pub fn clear(&mut self) {
        self.reals.clear();
        self.doubles.clear();
        self.rewind();
    }

    /// Resets the read cursors (before a load).
    pub fn rewind(&mut self) {
        self.r_cursor = 0;
        self.d_cursor = 0;
    }

    /// Appends a working-precision slice.
    pub fn put_slice(&mut self, s: &[T]) {
        self.reals.extend_from_slice(s);
    }

    /// Appends the logical region of a matrix row by row.
    pub fn put_matrix(&mut self, m: &Matrix<T>) {
        for i in 0..m.rows() {
            self.reals.extend_from_slice(m.row(i));
        }
    }

    /// Appends the logical region of the *transpose* of `m`, row by row —
    /// `m.cols()` runs of `m.rows()` scalars — without materializing it.
    pub fn put_matrix_transposed(&mut self, m: &Matrix<T>) {
        let start = self.reals.len();
        self.reals.resize(start + m.rows() * m.cols(), T::ZERO);
        transpose_into(
            m.as_slice(),
            m.stride(),
            m.rows(),
            m.cols(),
            &mut self.reals[start..],
            m.rows(),
        );
    }

    /// Appends a double-precision scalar.
    pub fn put_f64(&mut self, x: f64) {
        // qmclint: allow(hot-path-call) — save_state clears and refills
        // the same buffer each sweep, so the push lands in retained
        // capacity; only the first save per walker allocates.
        self.doubles.push(x);
    }

    /// Reads a working-precision slice (panics on underrun).
    pub fn get_slice(&mut self, out: &mut [T]) {
        let end = self.r_cursor + out.len();
        out.copy_from_slice(&self.reals[self.r_cursor..end]);
        self.r_cursor = end;
    }

    /// Reads into the logical region of a matrix.
    pub fn get_matrix(&mut self, m: &mut Matrix<T>) {
        for i in 0..m.rows() {
            let cols = m.cols();
            let end = self.r_cursor + cols;
            m.row_mut(i)
                .copy_from_slice(&self.reals[self.r_cursor..end]);
            self.r_cursor = end;
        }
    }

    /// Reads what [`Self::put_matrix_transposed`] wrote back into the
    /// logical region of `m`.
    pub fn get_matrix_transposed(&mut self, m: &mut Matrix<T>) {
        let (rows, cols, stride) = (m.rows(), m.cols(), m.stride());
        let end = self.r_cursor + rows * cols;
        // The stream holds the transpose: `cols` runs of `rows` scalars.
        transpose_into(
            &self.reals[self.r_cursor..end],
            rows,
            cols,
            rows,
            m.as_mut_slice(),
            stride,
        );
        self.r_cursor = end;
    }

    /// Reads a double-precision scalar.
    pub fn get_f64(&mut self) -> f64 {
        let x = self.doubles[self.d_cursor];
        self.d_cursor += 1;
        x
    }

    /// The full working-precision stream, cursor-independent. Serializers
    /// use this instead of draining through the cursor API, so taking a
    /// snapshot of a walker (e.g. a mid-block checkpoint) cannot disturb a
    /// partially consumed buffer.
    pub fn reals(&self) -> &[T] {
        &self.reals
    }

    /// The full double-precision stream, cursor-independent.
    pub fn doubles(&self) -> &[f64] {
        &self.doubles
    }

    /// Current `(reals, doubles)` read-cursor positions.
    pub fn cursors(&self) -> (usize, usize) {
        (self.r_cursor, self.d_cursor)
    }

    /// Restores read-cursor positions captured by [`Self::cursors`]
    /// (checkpoint restore of a mid-consumption buffer). Panics if either
    /// cursor lies beyond its stream.
    pub fn set_cursors(&mut self, r_cursor: usize, d_cursor: usize) {
        assert!(
            r_cursor <= self.reals.len() && d_cursor <= self.doubles.len(),
            "cursor past end of buffer: ({r_cursor}, {d_cursor}) vs ({}, {})",
            self.reals.len(),
            self.doubles.len()
        );
        self.r_cursor = r_cursor;
        self.d_cursor = d_cursor;
    }

    /// Total storage footprint in bytes (walker message size).
    pub fn bytes(&self) -> usize {
        self.reals.len() * std::mem::size_of::<T>() + self.doubles.len() * 8
    }

    /// True when all content has been consumed by reads.
    pub fn fully_consumed(&self) -> bool {
        self.r_cursor == self.reals.len() && self.d_cursor == self.doubles.len()
    }

    /// True when the working-precision stream has been fully consumed.
    pub fn fully_consumed_reals(&self) -> bool {
        self.r_cursor == self.reals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_slices_and_scalars() {
        let mut b = WalkerBuffer::<f32>::new();
        b.put_slice(&[1.0, 2.0, 3.0]);
        b.put_f64(-7.25);
        b.put_slice(&[4.0]);
        b.rewind();
        let mut s3 = [0.0f32; 3];
        b.get_slice(&mut s3);
        assert_eq!(s3, [1.0, 2.0, 3.0]);
        assert_eq!(b.get_f64(), -7.25);
        let mut s1 = [0.0f32; 1];
        b.get_slice(&mut s1);
        assert_eq!(s1, [4.0]);
        assert!(b.fully_consumed());
    }

    #[test]
    fn matrix_roundtrip_ignores_padding() {
        let m = Matrix::<f64>::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let mut b = WalkerBuffer::<f64>::new();
        b.put_matrix(&m);
        b.rewind();
        let mut m2 = Matrix::<f64>::zeros(3, 5);
        b.get_matrix(&mut m2);
        assert_eq!(m.max_abs_diff(&m2), 0.0);
    }

    #[test]
    fn transposed_put_is_put_of_the_transpose_and_reads_back() {
        // 19 x 35: a whole transpose tile plus ragged edges both ways.
        let m = Matrix::<f32>::from_fn(19, 35, |i, j| (i * 100 + j) as f32);
        let mut direct = WalkerBuffer::<f32>::new();
        direct.put_matrix(&m.transposed());
        let mut b = WalkerBuffer::<f32>::new();
        b.put_slice(&[-1.0]);
        b.put_matrix_transposed(&m);
        assert_eq!(&b.reals()[1..], direct.reals());
        b.rewind();
        b.get_slice(&mut [0.0]);
        let mut back = Matrix::<f32>::zeros(19, 35);
        b.get_matrix_transposed(&mut back);
        assert!(b.fully_consumed());
        assert_eq!(m.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn bytes_reflect_precision() {
        let mut b32 = WalkerBuffer::<f32>::new();
        let mut b64 = WalkerBuffer::<f64>::new();
        b32.put_slice(&[0.0; 100]);
        b64.put_slice(&[0.0; 100]);
        assert_eq!(b32.bytes() * 2, b64.bytes());
    }

    #[test]
    fn snapshot_accessors_do_not_touch_cursors() {
        let mut b = WalkerBuffer::<f32>::new();
        b.put_slice(&[1.0, 2.0, 3.0]);
        b.put_f64(-7.25);
        b.put_f64(8.5);
        b.rewind();
        let mut one = [0.0f32; 1];
        b.get_slice(&mut one);
        assert_eq!(b.get_f64(), -7.25);
        let before = b.cursors();
        assert_eq!(b.reals(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.doubles(), &[-7.25, 8.5]);
        assert_eq!(b.cursors(), before, "snapshot moved a cursor");
        // Reads continue exactly where they left off.
        b.get_slice(&mut one);
        assert_eq!(one[0], 2.0);
        assert_eq!(b.get_f64(), 8.5);
    }

    #[test]
    fn cursor_restore_roundtrip() {
        let mut b = WalkerBuffer::<f64>::new();
        b.put_slice(&[1.0, 2.0]);
        b.put_f64(3.0);
        b.rewind();
        let mut one = [0.0f64; 1];
        b.get_slice(&mut one);
        let (rc, dc) = b.cursors();
        let mut restored = b.clone();
        restored.rewind();
        restored.set_cursors(rc, dc);
        assert_eq!(restored.cursors(), (rc, dc));
        restored.get_slice(&mut one);
        assert_eq!(one[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "cursor past end")]
    fn cursor_restore_rejects_out_of_range() {
        let mut b = WalkerBuffer::<f64>::new();
        b.put_f64(1.0);
        b.set_cursors(0, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = WalkerBuffer::<f64>::new();
        b.put_slice(&[1.0]);
        b.put_f64(2.0);
        b.clear();
        assert_eq!(b.bytes(), 0);
        assert!(b.fully_consumed());
    }
}
