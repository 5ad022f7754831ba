//! Cache-line/SIMD-aligned storage.
//!
//! The paper's `VectorSoaContainer` relies on cache-aligned allocation (it
//! uses the TBB cache-aligned allocator) so that each SoA slab starts on a
//! SIMD-friendly boundary and rows of padded matrices are aligned. We obtain
//! the same guarantee by starting the elements at the first 64-byte
//! boundary inside a zero-allocated byte buffer.

use crate::Real;
use std::ops::{Deref, DerefMut};

/// Alignment in bytes of every slab handed out by [`AlignedVec`]. 64 bytes
/// covers an AVX-512 vector and an x86 cache line.
pub const QMC_SIMD_ALIGN: usize = 64;

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
#[allow(unsafe_code, reason = "the prefetch intrinsic is an `unsafe fn`")]
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

/// A fixed-capacity, 64-byte-aligned vector of [`Real`] scalars.
///
/// Unlike `Vec<T>`, the first element is guaranteed to sit on a
/// [`QMC_SIMD_ALIGN`] boundary, which lets compilers emit aligned loads for
/// the innermost kernel loops.
///
/// # Where the zeros come from
///
/// [`AlignedVec::zeros`] writes nothing. It takes `QMC_SIMD_ALIGN - 1`
/// bytes more than the elements need as `vec![0u8; n]` — the allocator's
/// zeroed path at alignment 1, which the system allocator serves from
/// `calloc` — and starts the elements at the first 64-byte boundary inside
/// it. A buffer above the C allocator's mmap threshold (the 375 MiB spline
/// table, say) therefore arrives as untouched zero pages that the kernel
/// maps on first write; a small one is zeroed once by `calloc`. (Asking for
/// a 64-byte-aligned zeroed block instead would not be lazy: std's unix
/// allocator reaches `calloc` only for alignments up to 16 and otherwise
/// allocates and then `memset`s.) All-zero bits are `T::default()` because
/// [`Real`] is sealed to `f32` and `f64`, where they are `+0.0`.
///
/// # Huge pages
///
/// Before anything writes them, `zeros` advises the kernel
/// (`madvise(MADV_HUGEPAGE)`) to back the whole 2 MiB-aligned 2 MiB pages
/// inside the fresh buffer with transparent huge pages. A 375 MiB table
/// then takes one fault per 2 MiB instead of one per 4 KiB; a buffer with
/// no whole aligned 2 MiB page inside it is left alone. Advice changes no
/// byte.
pub struct AlignedVec<T: Real> {
    /// `len * size_of::<T>() + QMC_SIMD_ALIGN - 1` initialised bytes.
    bytes: Vec<u8>,
    /// Index in `bytes` of the first element: a 64-byte boundary.
    offset: usize,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

/// Bytes from `ptr` to the next [`QMC_SIMD_ALIGN`] boundary (0 if on one).
fn align_gap(ptr: *const u8) -> usize {
    ptr.addr().wrapping_neg() % QMC_SIMD_ALIGN
}

/// Size of a transparent huge page on x86-64 Linux.
const HUGE_PAGE: usize = 2 << 20;

/// The largest [`HUGE_PAGE`]-aligned range wholly inside `bytes`, as
/// (offset from its start, length); the length is 0 when no whole aligned
/// huge page fits.
fn huge_page_span(bytes: &[u8]) -> (usize, usize) {
    let head = bytes.as_ptr().addr().wrapping_neg() % HUGE_PAGE;
    let len = bytes.len().saturating_sub(head) / HUGE_PAGE * HUGE_PAGE;
    (head, len)
}

/// Asks the kernel (`madvise(MADV_HUGEPAGE)`) to back the whole huge pages
/// inside `bytes` with transparent huge pages when they are first touched.
/// Makes no call when none fits. The return value is ignored: where THP is
/// `never` or absent the range stays on 4 KiB pages. A no-op off x86-64
/// Linux.
#[allow(unsafe_code, reason = "declares and calls libc's `madvise`")]
fn advise_huge_pages(bytes: &mut [u8]) {
    let (head, len) = huge_page_span(bytes);
    if len == 0 {
        return;
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        // std links libc on this target.
        extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        const MADV_HUGEPAGE: std::ffi::c_int = 14;
        let start = bytes.as_mut_ptr().wrapping_add(head);
        // SAFETY: `start..start + len` is page-aligned and lies inside the
        // live allocation `bytes` borrows mutably. `MADV_HUGEPAGE` only
        // changes how the kernel backs the range: neither the value nor
        // the validity of any byte in it, nor the mapping's lifetime.
        unsafe {
            madvise(start.cast(), len, MADV_HUGEPAGE);
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    let _ = (head, bytes);
}

impl<T: Real> AlignedVec<T> {
    /// Creates a vector of `len` zeros without writing them, advising huge
    /// pages for the whole 2 MiB pages inside it (see the type docs).
    pub fn zeros(len: usize) -> Self {
        assert!(
            QMC_SIMD_ALIGN.is_multiple_of(std::mem::size_of::<T>()),
            "element size must divide the alignment"
        );
        let padded = len
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|size| size.checked_add(QMC_SIMD_ALIGN - 1))
            .expect("AlignedVec size overflows usize");
        let mut bytes = vec![0u8; padded];
        advise_huge_pages(&mut bytes);
        let offset = align_gap(bytes.as_ptr());
        Self {
            bytes,
            offset,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// The element bytes: `len * size_of::<T>()` from the aligned start.
    fn element_bytes(&self) -> &[u8] {
        &self.bytes[self.offset..][..self.len * std::mem::size_of::<T>()]
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
    #[allow(unsafe_code, reason = "views the aligned bytes as `T`")]
    pub fn as_slice(&self) -> &[T] {
        let start = self.bytes.as_ptr().wrapping_add(self.offset);
        // SAFETY: `bytes` holds `offset + len * size_of::<T>()` initialised
        // bytes, `start` is on a 64-byte boundary and `size_of::<T>()`
        // divides 64 (asserted in `zeros`), so it is aligned for `T`; `T` is
        // `f32` or `f64` (`Real` is sealed), for which every bit pattern is
        // a valid value.
        unsafe { std::slice::from_raw_parts(start.cast::<T>(), self.len) }
    }

    /// Mutable view of all elements.
    #[inline]
    #[allow(unsafe_code, reason = "views the aligned bytes as `T`")]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let start = self.bytes.as_mut_ptr().wrapping_add(self.offset);
        // SAFETY: as in `as_slice`; &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(start.cast::<T>(), self.len) }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }
}

impl<T: Real> Clone for AlignedVec<T> {
    /// Copies into a fresh buffer with its own 64-byte boundary; only the
    /// up to 63 bytes around the elements are zeroed, never the elements.
    fn clone(&self) -> Self {
        let n = self.bytes.len();
        // The capacity is never exceeded below, so the buffer never moves.
        let mut bytes = Vec::with_capacity(n);
        let offset = align_gap(bytes.as_ptr());
        bytes.resize(offset, 0);
        bytes.extend_from_slice(self.element_bytes());
        bytes.resize(n, 0);
        Self {
            bytes,
            offset,
            len: self.len,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Real> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Real> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

// Indexing (by usize and by ranges) comes through `Deref`/`DerefMut` to
// slices; no explicit `Index` impls so range indexing resolves naturally.

impl<T: Real> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `zeros` is 64-byte aligned and all-zero bits at small lengths and
    /// at one above glibc's default mmap threshold (128 KiB), where the
    /// zeros are fresh pages; a clone keeps both the alignment and the
    /// bits.
    fn check_zeros_and_clone<T: Real>(len: usize) {
        let bits = |v: &AlignedVec<T>| v.element_bytes().to_vec();
        let mut v = AlignedVec::<T>::zeros(len);
        assert_eq!(v.len(), len);
        assert_eq!(v.as_ptr() as usize % QMC_SIMD_ALIGN, 0, "len {len}");
        assert!(bits(&v).iter().all(|&b| b == 0), "len {len} not zero");
        for (i, x) in v.iter_mut().enumerate() {
            *x = T::from_f64(i as f64 - 0.5);
        }
        let c = v.clone();
        assert_eq!(c.as_ptr() as usize % QMC_SIMD_ALIGN, 0, "clone of {len}");
        assert_eq!(bits(&c), bits(&v), "clone of {len} changed bits");
    }

    /// Also at element counts one below, at and one above one and two
    /// whole huge pages of bytes, where the advised span appears or grows.
    #[test]
    fn zeros_and_clones_are_aligned_and_exact() {
        fn around_huge_pages<T: Real>() -> impl Iterator<Item = usize> {
            [1, 2].into_iter().flat_map(|pages| {
                let n = pages * HUGE_PAGE / std::mem::size_of::<T>();
                [n - 1, n, n + 1]
            })
        }
        for len in [0usize, 1, 3, 15, 16, 17, 64, 1000, 1 << 22] {
            check_zeros_and_clone::<f32>(len);
            check_zeros_and_clone::<f64>(len);
        }
        around_huge_pages::<f32>().for_each(check_zeros_and_clone::<f32>);
        around_huge_pages::<f64>().for_each(check_zeros_and_clone::<f64>);
    }

    /// The advised span is the largest huge-page-aligned run of whole huge
    /// pages inside the buffer, and empty when none fits.
    #[test]
    fn huge_page_span_takes_only_whole_aligned_pages() {
        let buf = vec![0u8; 6 * HUGE_PAGE];
        // The second huge-page boundary inside `buf`: ranges may start
        // before it.
        let base = huge_page_span(&buf).0 + HUGE_PAGE;
        let at = |from: usize, len: usize| huge_page_span(&buf[base - from..][..len]);
        assert_eq!(at(0, HUGE_PAGE), (0, HUGE_PAGE));
        assert_eq!(at(0, HUGE_PAGE - 1), (0, 0));
        assert_eq!(at(1, HUGE_PAGE), (1, 0));
        assert_eq!(at(1, HUGE_PAGE + 1), (1, HUGE_PAGE));
        assert_eq!(at(1, 2 * HUGE_PAGE + 7), (1, 2 * HUGE_PAGE));
        assert_eq!(at(0, 3 * HUGE_PAGE - 1), (0, 2 * HUGE_PAGE));
        assert_eq!(at(0, 0), (0, 0));
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
