//! Cache-line/SIMD-aligned storage.
//!
//! The paper's `VectorSoaContainer` relies on cache-aligned allocation (it
//! uses the TBB cache-aligned allocator) so that each SoA slab starts on a
//! SIMD-friendly boundary and rows of padded matrices are aligned. We obtain
//! the same guarantee by backing storage with 64-byte-aligned blocks.

use std::ops::{Deref, DerefMut};

/// Alignment in bytes of every slab handed out by [`AlignedVec`]. 64 bytes
/// covers an AVX-512 vector and an x86 cache line.
pub const QMC_SIMD_ALIGN: usize = 64;

/// A 64-byte-aligned, 64-byte-sized block. Allocating a `Vec<Block64>` gives
/// us aligned backing storage without hand-rolled `alloc`/`dealloc`.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Block64([u8; QMC_SIMD_ALIGN]);

/// Number of `T` lanes that fit one SIMD alignment unit.
#[inline]
pub const fn lanes_per_align<T>() -> usize {
    QMC_SIMD_ALIGN / std::mem::size_of::<T>()
}

/// Rounds `n` elements of `T` up to a multiple of the SIMD width, the padded
/// length `Np` the paper uses for SoA slabs and matrix row strides.
#[inline]
pub const fn padded_len<T>(n: usize) -> usize {
    let w = lanes_per_align::<T>();
    n.div_ceil(w) * w
}

/// Asks the core to start bringing the cache line that holds `x` into L1
/// ahead of a later read. A pure hint: it reads and writes nothing the
/// program can observe, so it cannot change a result — only when a miss is
/// paid. The kernels use it where the access pattern hides the next lines
/// from the hardware prefetchers (one line in each of 64 far-apart table
/// rows per pass of the B-spline `vgh` stencil). A no-op off x86-64.
#[inline(always)]
pub fn prefetch_read<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, so the intrinsic's target
    // feature is always present; PREFETCHT0 never faults and has no
    // architectural effect, and the address is that of a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(x).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}

/// A fixed-capacity, 64-byte-aligned vector of plain-old-data scalars.
///
/// Unlike `Vec<T>`, the first element is guaranteed to sit on a
/// [`QMC_SIMD_ALIGN`] boundary, which lets compilers emit aligned loads for
/// the innermost kernel loops. Only `Copy` element types are supported; the
/// container zero-initializes its storage.
pub struct AlignedVec<T: Copy + Default> {
    blocks: Vec<Block64>,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Copy + Default> AlignedVec<T> {
    /// Creates a vector of `len` default-initialized (zero for floats)
    /// elements.
    pub fn zeros(len: usize) -> Self {
        assert!(
            QMC_SIMD_ALIGN.is_multiple_of(std::mem::size_of::<T>()),
            "element size must divide the alignment"
        );
        let bytes = len * std::mem::size_of::<T>();
        let nblocks = bytes.div_ceil(QMC_SIMD_ALIGN);
        let mut v = Self {
            blocks: vec![Block64([0u8; QMC_SIMD_ALIGN]); nblocks],
            len,
            _marker: std::marker::PhantomData,
        };
        // Default may not be all-zero bits for exotic T; fill explicitly.
        for x in v.iter_mut() {
            *x = T::default();
        }
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of all elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: blocks provide at least len*size_of::<T>() bytes with
        // alignment >= align_of::<T>() and T is plain old data.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr().cast::<T>(), self.len) }
    }

    /// Mutable view of all elements.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as in `as_slice`; &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr().cast::<T>(), self.len) }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self {
            blocks: self.blocks.clone(),
            len: self.len,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Copy + Default> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

// Indexing (by usize and by ranges) comes through `Deref`/`DerefMut` to
// slices; no explicit `Index` impls so range indexing resolves naturally.

impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_of_first_element() {
        for n in [1usize, 3, 17, 64, 1000] {
            let v = AlignedVec::<f32>::zeros(n);
            assert_eq!(v.as_slice().as_ptr() as usize % QMC_SIMD_ALIGN, 0);
            let v = AlignedVec::<f64>::zeros(n);
            assert_eq!(v.as_slice().as_ptr() as usize % QMC_SIMD_ALIGN, 0);
        }
    }

    #[test]
    fn zero_initialized_and_writable() {
        let mut v = AlignedVec::<f64>::zeros(10);
        assert!(v.iter().all(|&x| x == 0.0));
        v[3] = 7.5;
        assert_eq!(v[3], 7.5);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn padded_len_rounds_to_simd_width() {
        assert_eq!(padded_len::<f32>(1), 16);
        assert_eq!(padded_len::<f32>(16), 16);
        assert_eq!(padded_len::<f32>(17), 32);
        assert_eq!(padded_len::<f64>(1), 8);
        assert_eq!(padded_len::<f64>(8), 8);
        assert_eq!(padded_len::<f64>(9), 16);
        assert_eq!(padded_len::<f64>(0), 0);
    }

    #[test]
    fn empty_vector() {
        let v = AlignedVec::<f32>::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice().len(), 0);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::<f64>::zeros(5);
        a[0] = 1.0;
        let b = a.clone();
        a[0] = 2.0;
        assert_eq!(b[0], 1.0);
        assert_eq!(a[0], 2.0);
    }

    #[test]
    fn prefetch_is_a_pure_hint() {
        let v = AlignedVec::<f32>::zeros(64);
        for x in v.iter() {
            prefetch_read(x);
        }
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fill_sets_every_lane() {
        let mut v = AlignedVec::<f32>::zeros(33);
        v.fill(3.5);
        assert!(v.iter().all(|&x| x == 3.5));
    }
}
