//! Property-based tests for the B-spline engine.

use proptest::prelude::*;
use qmc_bspline::{solve_cyclic_tridiagonal, CubicBspline1D, MultiBspline3D};
use qmc_kernels::bspline::evaluate_v;
use qmc_kernels::Backend;

proptest! {
    /// The cyclic tridiagonal solver satisfies A x = rhs for arbitrary
    /// diagonally dominant stencils and right-hand sides.
    #[test]
    fn cyclic_solver_residual(
        rhs in prop::collection::vec(-10.0f64..10.0, 4..40),
        a in 0.05f64..0.3,
    ) {
        let b = 1.0 - 2.0 * a + 0.5; // keep diagonally dominant
        let n = rhs.len();
        let x = solve_cyclic_tridiagonal(a, b, &rhs);
        for i in 0..n {
            let lhs = a * x[(i + n - 1) % n] + b * x[i] + a * x[(i + 1) % n];
            prop_assert!((lhs - rhs[i]).abs() < 1e-8, "row {i}: {lhs} vs {}", rhs[i]);
        }
    }

    /// Fitted 1D functors interpolate their target at every knot and
    /// vanish identically beyond the cutoff, for arbitrary shapes.
    #[test]
    fn functor_fit_interpolates(
        amp in 0.05f64..2.0,
        decay in 0.1f64..2.0,
        rcut in 1.0f64..6.0,
        nknots in 6usize..20,
    ) {
        let f = move |r: f64| amp * (-decay * r).exp();
        let sp = CubicBspline1D::<f64>::fit(f, -0.5, rcut, nknots);
        let h = rcut / (nknots as f64 - 1.0);
        for j in 0..nknots - 1 {
            let r = j as f64 * h;
            prop_assert!((sp.evaluate(r) - f(r)).abs() < 1e-8, "knot {j}");
        }
        prop_assert_eq!(sp.evaluate(rcut), 0.0);
        prop_assert_eq!(sp.evaluate(rcut * 1.5), 0.0);
        // No panic just below the cutoff (reduced-precision clamp path).
        let eps = rcut * (1.0 - 1e-12);
        let _ = sp.evaluate(eps);
        let sp32: CubicBspline1D<f32> = sp.cast();
        let _ = sp32.evaluate((rcut as f32) * (1.0 - f32::EPSILON));
    }

    /// 3D spline evaluation is periodic: shifting the fractional
    /// coordinate by any integer leaves values unchanged.
    #[test]
    fn spline3d_periodicity(
        ux in 0.0f64..1.0, uy in 0.0f64..1.0, uz in 0.0f64..1.0,
        sx in -3i32..3, sy in -3i32..3, sz in -3i32..3,
    ) {
        let t = MultiBspline3D::<f64>::random([5, 6, 7], 3, 99);
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        evaluate_v(Backend::Simd, &t.view(), [ux, uy, uz], &mut a);
        evaluate_v(
            Backend::Simd,
            &t.view(),
            [ux + sx as f64, uy + sy as f64, uz + sz as f64],
            &mut b,
        );
        for s in 0..3 {
            prop_assert!((a[s] - b[s]).abs() < 1e-10, "spline {s}");
        }
    }

    /// The reference and simd loop orders agree at arbitrary points.
    #[test]
    fn spline3d_layouts_agree(
        ux in 0.0f64..1.0, uy in 0.0f64..1.0, uz in 0.0f64..1.0,
    ) {
        let ns = 5;
        let t = MultiBspline3D::<f64>::random([6, 6, 6], ns, 3);
        let (mut a, mut b) = (vec![0.0; ns], vec![0.0; ns]);
        evaluate_v(Backend::Simd, &t.view(), [ux, uy, uz], &mut a);
        evaluate_v(Backend::Reference, &t.view(), [ux, uy, uz], &mut b);
        for s in 0..ns {
            prop_assert!((a[s] - b[s]).abs() < 1e-12);
        }
    }
}
