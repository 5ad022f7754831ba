//! 1D cubic B-splines on a uniform grid: the basis of the Jastrow functors.
//!
//! §3 of the paper: "The one-dimensional cubic B-spline is extensively used
//! in QMCPACK because of its generality and computational efficiency". Each
//! Jastrow functor `U(r)` (Fig. 3) is such a spline with a finite cutoff
//! `r_cut`; beyond the cutoff the functor and its derivatives vanish. The
//! paper notes that this branch slightly lowers the SIMD efficiency of the
//! Jastrow kernels. Here the Jastrow rows no longer branch per partner:
//! they build one `d < r_cut` bit mask per 64 partners and call the scalar
//! [`CubicBspline1D::evaluate`] / [`CubicBspline1D::evaluate_vgl`] only on
//! its set bits (`qmc_wavefunction::jastrow::evaluate_vgl_row`).

use qmc_containers::{Matrix, Real};

// The 4-point stencil weights moved into the kernel library with the 3D
// evaluation kernels (one definition shared by the 1D functors and every
// tricubic backend); re-exported here so existing imports keep working.
pub use qmc_kernels::bspline_weights;

/// A cubic B-spline functor `U(r)` on `[0, r_cut)` with uniform knots.
///
/// The functor evaluates to exactly zero (value and derivatives) for
/// `r >= r_cut`, matching QMCPACK's `BsplineFunctor`.
#[derive(Clone, Debug)]
pub struct CubicBspline1D<T: Real> {
    /// Control coefficients, `n_knots + 2` of them.
    coefs: Vec<T>,
    /// Cutoff radius.
    r_cut: T,
    /// Inverse grid spacing `(n_knots - 1) / r_cut`.
    inv_h: T,
}

impl<T: Real> CubicBspline1D<T> {
    /// Builds a functor from raw control coefficients (`n_knots + 2` values
    /// for `n_knots` uniform knots on `[0, r_cut]`).
    pub fn from_coefficients(coefs: Vec<T>, r_cut: T) -> Self {
        assert!(coefs.len() >= 4, "need at least 4 coefficients");
        assert!(r_cut > T::ZERO);
        let n_knots = coefs.len() - 2;
        let inv_h = T::from_usize(n_knots - 1) / r_cut;
        Self {
            coefs,
            r_cut,
            inv_h,
        }
    }

    /// Fits the spline to interpolate `f` at the knots with a prescribed
    /// derivative (cusp) at `r = 0` and zero derivative at `r = r_cut`.
    ///
    /// The fit solves the `(n+2) x (n+2)` collocation system with dense LU;
    /// functors are tiny (10-20 knots) so this costs nothing.
    #[expect(
        clippy::expect_used,
        reason = "setup: the collocation matrix is nonsingular"
    )]
    pub fn fit(f: impl Fn(f64) -> f64, cusp: f64, r_cut: f64, n_knots: usize) -> Self {
        assert!(n_knots >= 4);
        let n = n_knots;
        let h = r_cut / (n as f64 - 1.0);
        let dim = n + 2;
        // Unknowns c[0..n+2]; spline(knot j) uses c[j], c[j+1], c[j+2] with
        // weights (1/6, 4/6, 1/6); derivative weights (-1/2h, 0, 1/2h).
        let mut a = Matrix::<f64>::zeros(dim, dim);
        let mut b = vec![0.0f64; dim];
        // Interpolation rows.
        for j in 0..n {
            a[(j, j)] = 1.0 / 6.0;
            a[(j, j + 1)] = 4.0 / 6.0;
            a[(j, j + 2)] = 1.0 / 6.0;
            b[j] = f(j as f64 * h);
        }
        // Cusp condition at r=0.
        a[(n, 0)] = -0.5 / h;
        a[(n, 2)] = 0.5 / h;
        b[n] = cusp;
        // Zero slope at cutoff.
        a[(n + 1, n - 1)] = -0.5 / h;
        a[(n + 1, n + 1)] = 0.5 / h;
        b[n + 1] = 0.0;

        let lu = qmc_linalg::LuFactor::new(&a).expect("collocation matrix singular");
        lu.solve_in_place(&mut b);
        let coefs = b.iter().map(|&x| T::from_f64(x)).collect();
        Self::from_coefficients(coefs, T::from_f64(r_cut))
    }

    /// Cutoff radius beyond which the functor vanishes.
    #[inline]
    pub fn r_cut(&self) -> T {
        self.r_cut
    }

    /// Value `U(r)`; zero at and beyond the cutoff.
    #[inline]
    pub fn evaluate(&self, r: T) -> T {
        if r >= self.r_cut {
            return T::ZERO;
        }
        let t = r * self.inv_h;
        let i = t.floor();
        let u = t - i;
        // Clamp: in reduced precision `r < r_cut` can still round the
        // interval index onto the last knot.
        let i = (i.to_f64() as usize).min(self.coefs.len() - 4);
        let (w, _, _) = bspline_weights(u);
        let c = &self.coefs[i..i + 4];
        w[0].mul_add(c[0], w[1].mul_add(c[1], w[2].mul_add(c[2], w[3] * c[3])))
    }

    /// Value, first and second radial derivative at `r`.
    #[inline]
    pub fn evaluate_vgl(&self, r: T) -> (T, T, T) {
        if r >= self.r_cut {
            return (T::ZERO, T::ZERO, T::ZERO);
        }
        let t = r * self.inv_h;
        let i = t.floor();
        let u = t - i;
        let i = (i.to_f64() as usize).min(self.coefs.len() - 4);
        let (w, dw, d2w) = bspline_weights(u);
        let c = &self.coefs[i..i + 4];
        let v = w[0].mul_add(c[0], w[1].mul_add(c[1], w[2].mul_add(c[2], w[3] * c[3])));
        let dv = dw[0].mul_add(c[0], dw[1].mul_add(c[1], dw[2].mul_add(c[2], dw[3] * c[3])));
        let d2v = d2w[0].mul_add(
            c[0],
            d2w[1].mul_add(c[1], d2w[2].mul_add(c[2], d2w[3] * c[3])),
        );
        (v, dv * self.inv_h, d2v * self.inv_h * self.inv_h)
    }

    /// Casts the functor to another precision.
    pub fn cast<U: Real>(&self) -> CubicBspline1D<U> {
        CubicBspline1D {
            coefs: self.coefs.iter().map(|c| U::from_f64(c.to_f64())).collect(),
            r_cut: U::from_f64(self.r_cut.to_f64()),
            inv_h: U::from_f64(self.inv_h.to_f64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_partition_of_unity() {
        for &u in &[0.0f64, 0.25, 0.5, 0.75, 0.999] {
            let (w, dw, d2w) = bspline_weights(u);
            let sw: f64 = w.iter().sum();
            let sdw: f64 = dw.iter().sum();
            let sd2w: f64 = d2w.iter().sum();
            assert!((sw - 1.0).abs() < 1e-14, "sum w = {sw}");
            assert!(sdw.abs() < 1e-14);
            assert!(sd2w.abs() < 1e-13);
        }
    }

    #[test]
    fn weights_reproduce_linear_function() {
        // Control points c_i = i make the spline exactly f(t) = t at u
        // offset: value at local u with points (k-1..k+2) is k + u.
        for &u in &[0.0f64, 0.3, 0.7] {
            let (w, dw, _) = bspline_weights(u);
            let c = [0.0, 1.0, 2.0, 3.0];
            let v: f64 = w.iter().zip(&c).map(|(a, b)| a * b).sum();
            let dv: f64 = dw.iter().zip(&c).map(|(a, b)| a * b).sum();
            assert!((v - (1.0 + u)).abs() < 1e-14);
            assert!((dv - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn fit_interpolates_at_knots() {
        let f = |r: f64| (-0.8 * r).exp() * (1.0 + 0.2 * r);
        let sp = CubicBspline1D::<f64>::fit(f, -0.8 + 0.2, 3.0, 12);
        let h = 3.0 / 11.0;
        for j in 0..11 {
            let r = j as f64 * h;
            assert!(
                (sp.evaluate(r) - f(r)).abs() < 1e-10,
                "knot {j}: {} vs {}",
                sp.evaluate(r),
                f(r)
            );
        }
    }

    #[test]
    fn cusp_condition_enforced() {
        let f = |r: f64| 0.5 * (-r).exp();
        let cusp = -0.25;
        let sp = CubicBspline1D::<f64>::fit(f, cusp, 2.5, 10);
        let (_, du, _) = sp.evaluate_vgl(0.0);
        assert!((du - cusp).abs() < 1e-10, "du(0) = {du}");
    }

    #[test]
    fn vanishes_beyond_cutoff() {
        let sp = CubicBspline1D::<f64>::fit(|r| 1.0 - r / 2.0, -0.5, 2.0, 8);
        let (v, d, d2) = sp.evaluate_vgl(2.0);
        assert_eq!((v, d, d2), (0.0, 0.0, 0.0));
        assert_eq!(sp.evaluate(5.0), 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let f = |r: f64| (-(r * r) / 2.0).exp();
        let sp = CubicBspline1D::<f64>::fit(f, 0.0, 4.0, 40);
        let eps = 1e-5;
        for &r in &[0.5f64, 1.3, 2.1, 3.4] {
            let (v, dv, d2v) = sp.evaluate_vgl(r);
            let vp = sp.evaluate(r + eps);
            let vm = sp.evaluate(r - eps);
            assert!((dv - (vp - vm) / (2.0 * eps)).abs() < 1e-6, "dv at {r}");
            assert!(
                (d2v - (vp - 2.0 * v + vm) / (eps * eps)).abs() < 1e-4,
                "d2v at {r}"
            );
        }
    }

    #[test]
    fn f32_tracks_f64() {
        let f = |r: f64| (-0.5 * r).exp();
        let sp64 = CubicBspline1D::<f64>::fit(f, -0.5, 3.0, 16);
        let sp32: CubicBspline1D<f32> = sp64.cast();
        for i in 0..30 {
            let r = i as f64 * 0.1;
            let d = (sp64.evaluate(r) - sp32.evaluate(r as f32) as f64).abs();
            assert!(d < 1e-6, "r={r}: diff {d}");
        }
    }
}
