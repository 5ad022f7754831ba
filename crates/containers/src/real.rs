//! The [`Real`] trait: the precision abstraction used throughout the QMC
//! kernels.
//!
//! The paper's central mixed-precision (MP) strategy is to run walker-sized
//! kernels in `f32` while accumulating per-walker and ensemble quantities in
//! `f64`. Every compute kernel in this workspace is generic over `T: Real`,
//! and the driver instantiates `f64` for the *Ref* code path and `f32` for
//! the *Ref+MP* / *Current* paths.
#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_lossless,
    reason = "the precision boundary: `from_f64` / `to_f64` are the casts every kernel goes through"
)]

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar used by QMC kernels (`f32` or `f64`; the trait is
/// sealed, so these two are all there are).
///
/// The trait deliberately exposes only the operations the kernels need, so
/// the two instantiations stay trivially interchangeable. Accumulations that
/// must stay in double precision use `to_f64`/`from_f64` at the boundary.
///
/// # Widening is always written out
///
/// rustc rejects `acc += x` into an `f64` accumulator for a generic
/// `T: Real` (E0277: no `AddAssign<T>` for `f64`), and for a concrete
/// `f32` too, so a kernel value cannot be folded into a double
/// accumulator by accident. A value crosses between the two precisions
/// only through an `as` cast (which clippy's cast lints flag in every
/// physics crate unless an `#[expect(.., reason)]` says why), `f64::from`,
/// [`Real::to_f64`] or [`Real::from_f64`]:
///
/// ```compile_fail,E0277
/// use qmc_containers::Real;
///
/// fn total<T: Real>(xs: &[T]) -> f64 {
///     let mut acc = 0.0_f64;
///     for &x in xs {
///         acc += x;
///     }
///     acc
/// }
/// ```
///
/// ```
/// use qmc_containers::Real;
///
/// fn total<T: Real>(xs: &[T]) -> f64 {
///     let mut acc = 0.0_f64;
///     for &x in xs {
///         acc += x.to_f64();
///     }
///     acc
/// }
/// assert_eq!(total(&[0.5_f32, 0.25]), 0.75);
/// ```
pub trait Real:
    sealed::Sealed
    + Copy
    + Default
    + Debug
    + Display
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half, used pervasively by kinetic-energy and spline stencils.
    const HALF: Self;
    /// Machine epsilon of the concrete type.
    const EPSILON: Self;

    /// Lossy conversion from `f64` (the only way constants enter kernels).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (the only way results leave kernels).
    fn to_f64(self) -> f64;
    /// Conversion from a count.
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Largest integer value not greater than `self`.
    fn floor(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused multiply-add `self * a + b`; maps to hardware FMA in release
    /// builds, which matters for the spline stencils.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Elementwise minimum.
    fn min(self, other: Self) -> Self;
    /// Elementwise maximum.
    fn max(self, other: Self) -> Self;
    /// `self^i` for small integer exponents.
    fn powi(self, i: i32) -> Self;
    /// True when the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;
}

/// `Real` is implemented for `f32` and `f64` and nothing else:
/// [`AlignedVec`](crate::AlignedVec) relies on every bit pattern, all-zero
/// bits included, being a valid value.
mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn powi(self, i: i32) -> Self {
                <$t>::powi(self, i)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        assert_eq!(T::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        assert!((T::from_f64(2.0).sqrt().to_f64() - std::f64::consts::SQRT_2).abs() < 1e-6);
        assert!(T::from_f64(1.0).is_finite());
        assert!(!(T::from_f64(1.0) / T::ZERO).is_finite());
    }

    #[test]
    fn f32_ops() {
        roundtrip::<f32>();
    }

    #[test]
    fn f64_ops() {
        roundtrip::<f64>();
    }

    #[test]
    fn fma_matches_mul_add() {
        let x: f64 = 3.0;
        assert_eq!(x.mul_add(2.0, 1.0), 7.0);
        assert_eq!(Real::mul_add(3.0f32, 2.0, 1.0), 7.0);
    }

    #[test]
    fn constants() {
        assert_eq!(f64::HALF + f64::HALF, f64::ONE);
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
    }
}
