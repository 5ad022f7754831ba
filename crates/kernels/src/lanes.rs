//! Portable-SIMD-style lane structs for the explicit `simd` backend and
//! the J2 kernels.
//!
//! Stable Rust has no `std::simd`, and this workspace vendors no external
//! crates, so explicit vectorization is expressed as fixed-width value
//! types over `[T; W]` with `#[inline(always)]` elementwise operations.
//! The array width is a compile-time constant, every loop below is fully
//! unrollable, and the optimizer lowers each op to the machine's packed
//! instructions (FMA, packed sqrt/floor) — the same contract `std::simd`
//! would give, without `unsafe` and without touching the workspace's
//! audited unsafe surface.
//!
//! The payoff is *register blocking*: a kernel keeps a lane per
//! accumulator live across its whole reduction instead of streaming the
//! output slab through memory once per stencil node.
//!
//! ## Width ladder
//!
//! [`WideLane`] is generic over the lane count so the same kernel source
//! serves the whole mixed-precision ladder:
//!
//! * [`Lane<T>`] (`W = 8`) — 512 bits of `f64`, the default rung every
//!   `f64` kernel uses.
//! * [`Lane16<T>`] (`W = 16`) — 512 bits of `f32`: the *vector f32 rung*.
//!   Kernels pick it through [`wide_f32`], so `f32` tables run 16 scalars
//!   per lane instead of half-filling an 8-wide `f64`-shaped lane.
//! * [`Lane4<T>`] (`W = 4`) — 256 bits of `f64`, for short rows where an
//!   8-wide tail would dominate.
//!
//! Accumulation order within one lane slot is always the scalar order, so
//! widening a lane never breaks the *bitwise* backend contracts
//! (elementwise kernels); only cross-lane reductions ([`WideLane::hsum`])
//! reassociate. The J2 reductions are the one user, and that lane order is
//! their only order: the tests hold it within a tolerance of a scalar
//! oracle (`jastrow.rs`).
//!
//! ## What the machine code holds
//!
//! A lane's width is a data width, not a register count: the compiler
//! picks the vector width. Under `target-cpu=native` on an AVX-512
//! Sapphire Rapids Xeon, LLVM's tuning for that core prefers 256-bit
//! vectors, and `objdump` of the `vgh` kernels shows each 512-bit lane as
//! a pair of ymm registers (`vfmadd231pd %ymm…`). A kernel's register
//! budget is therefore counted in ymm, 32 of them with AVX-512VL: the simd
//! `vgh` block holds 10 lanes = 20 ymm, its diagonal-Hessian form 7 = 14.
//! A blanket `-C target-feature=-prefer-256-bit` build was measured on that
//! host and not adopted: in-cache simd `vgh` ran 1.3–1.7× faster, but
//! `be64-vmc`, then on the since-removed auto-vectorised `soa` loops that
//! the flag widens too, ran about 12 % slower (3 of 3 pairs) and
//! `graphite64-dmc` flat, with every walker
//! hash equal.

use qmc_containers::Real;

/// Lane count of the default explicit-SIMD value type: 8 scalars — 512
/// bits of `f64`, two ymm registers or one zmm as the compiler chooses
/// (see the module docs), from the same source.
pub const LANES: usize = 8;

/// Lane count of the wide `f32` rung: 16 scalars — 512 bits of `f32`.
pub const LANES_F32: usize = 16;

/// A fixed-width pack of scalars, operated on elementwise.
#[derive(Clone, Copy, Debug)]
pub struct WideLane<T: Real, const W: usize>(pub [T; W]);

/// The default 8-wide lane (`f64`-register shaped).
pub type Lane<T> = WideLane<T, LANES>;

/// A half-register 4-wide lane.
pub type Lane4<T> = WideLane<T, 4>;

/// A 16-wide lane — 512 bits of `f32`.
pub type Lane16<T> = WideLane<T, 16>;

/// The f32 rung of the mixed-precision ladder: 16 single-precision lanes.
pub type F32Lane = Lane16<f32>;

/// True when `T` is a 4-byte scalar (`f32`), i.e. the wide 16-lane rung
/// applies. `const`-foldable, so backend dispatchers can branch on it
/// with zero runtime cost and monomorphize both widths.
#[inline(always)]
#[must_use]
pub const fn wide_f32<T: Real>() -> bool {
    std::mem::size_of::<T>() == 4
}

// Keeping the whole vocabulary as uniform by-value method calls makes the
// `#[inline(always)]` contract auditable in one place instead of hiding
// half of it behind `std::ops` impls.
#[expect(
    clippy::should_implement_trait,
    reason = "`add`/`sub`/`mul` read as explicit dataflow (`acc.fma(a, b)`, `d.mul(d)`)"
)]
impl<T: Real, const W: usize> WideLane<T, W> {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        WideLane([T::ZERO; W])
    }

    /// All lanes set to `x`.
    #[inline(always)]
    pub fn splat(x: T) -> Self {
        WideLane([x; W])
    }

    /// Loads `W` contiguous scalars from the front of `src`.
    #[inline(always)]
    pub fn load(src: &[T]) -> Self {
        let mut v = [T::ZERO; W];
        v.copy_from_slice(&src[..W]);
        WideLane(v)
    }

    /// Stores the lanes into the front of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [T]) {
        dst[..W].copy_from_slice(&self.0);
    }

    /// Elementwise fused multiply-add with a broadcast weight:
    /// `self[k] = w * c[k] + self[k]` — the B-spline accumulation step.
    #[inline(always)]
    pub fn fma_scalar(self, w: T, c: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = w.mul_add(c.0[k], out[k]);
        }
        WideLane(out)
    }

    /// Elementwise fused multiply-add: `self[k] = a[k] * b[k] + self[k]`.
    #[inline(always)]
    pub fn fma(self, a: WideLane<T, W>, b: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = a.0[k].mul_add(b.0[k], out[k]);
        }
        WideLane(out)
    }

    /// Elementwise sum.
    #[inline(always)]
    pub fn add(self, o: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] += o.0[k];
        }
        WideLane(out)
    }

    /// Elementwise difference.
    #[inline(always)]
    pub fn sub(self, o: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] -= o.0[k];
        }
        WideLane(out)
    }

    /// Elementwise product.
    #[inline(always)]
    pub fn mul(self, o: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] *= o.0[k];
        }
        WideLane(out)
    }

    /// Elementwise product with a broadcast scalar.
    #[inline(always)]
    pub fn mul_scalar(self, s: T) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] *= s;
        }
        WideLane(out)
    }

    /// Elementwise `floor`.
    #[inline(always)]
    pub fn floor(self) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = out[k].floor();
        }
        WideLane(out)
    }

    /// Elementwise `sqrt`.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = out[k].sqrt();
        }
        WideLane(out)
    }

    /// Elementwise minimum.
    #[inline(always)]
    pub fn min(self, o: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = out[k].min(o.0[k]);
        }
        WideLane(out)
    }

    /// Elementwise maximum.
    #[inline(always)]
    pub fn max(self, o: WideLane<T, W>) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = out[k].max(o.0[k]);
        }
        WideLane(out)
    }

    /// Branchless cutoff mask: lane `k` keeps `self[k]` where
    /// `r[k] < bound`, else takes zero — lowers to a packed compare +
    /// blend, the vector form of the Jastrow functor cutoff branch.
    #[inline(always)]
    pub fn zero_where_ge(self, r: WideLane<T, W>, bound: T) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = if r.0[k] < bound { out[k] } else { T::ZERO };
        }
        WideLane(out)
    }

    /// Horizontal sum in lane order (0, 1, ..). Splitting a reduction
    /// across lanes and summing here changes the summation order relative
    /// to a scalar loop: the J2 kernels' one order, which the tests hold
    /// within a tolerance of the scalar sum.
    #[inline(always)]
    pub fn hsum(self) -> T {
        let mut acc = T::ZERO;
        for k in 0..W {
            acc += self.0[k];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_scalar_matches_scalar_mul_add() {
        let c = WideLane::<f64, LANES>(core::array::from_fn(|k| 0.25 * k as f64 - 0.5));
        let acc = Lane::splat(1.5).fma_scalar(0.75, c);
        for k in 0..LANES {
            assert_eq!(acc.0[k], 0.75f64.mul_add(c.0[k], 1.5));
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f32> = (0..LANES).map(|k| k as f32 + 0.5).collect();
        let mut dst = vec![0.0f32; LANES];
        Lane::load(&src).store(&mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn hsum_is_lane_ordered() {
        let v = WideLane::<f64, LANES>(core::array::from_fn(|k| (k as f64 + 1.0) * 1e-3));
        let mut expect = 0.0;
        for k in 0..LANES {
            expect += v.0[k];
        }
        assert_eq!(v.hsum(), expect);
    }

    #[test]
    fn wide_f32_lane_roundtrip_and_fma() {
        assert!(wide_f32::<f32>());
        assert!(!wide_f32::<f64>());
        let src: Vec<f32> = (0..LANES_F32).map(|k| k as f32 * 0.5 - 3.0).collect();
        let mut dst = vec![0.0f32; LANES_F32];
        let acc = F32Lane::zero().fma_scalar(2.0, F32Lane::load(&src));
        acc.store(&mut dst);
        for k in 0..LANES_F32 {
            assert_eq!(dst[k], 2.0f32.mul_add(src[k], 0.0));
        }
    }

    #[test]
    fn lane4_elementwise_ops() {
        let a = WideLane::<f64, 4>([1.0, 2.0, 3.0, 4.0]);
        let b = WideLane::<f64, 4>([0.5, 0.5, 0.5, 0.5]);
        assert_eq!(a.mul(b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.min(b).0, [0.5, 0.5, 0.5, 0.5]);
        assert_eq!(a.max(b).0, a.0);
    }

    #[test]
    fn zero_where_ge_is_branchless_cutoff() {
        let u = WideLane::<f64, LANES>(core::array::from_fn(|k| k as f64 + 1.0));
        let r = WideLane::<f64, LANES>(core::array::from_fn(|k| k as f64));
        let masked = u.zero_where_ge(r, 4.0);
        for k in 0..LANES {
            assert_eq!(masked.0[k], if (k as f64) < 4.0 { u.0[k] } else { 0.0 });
        }
    }
}
