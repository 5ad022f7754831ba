//! SPO evaluator correctness checker (miniQMC's `check_spo` analogue):
//! verifies that the optimized (spline-innermost `soa` and `simd`)
//! evaluators agree with the reference loop order and that single
//! precision tracks double to the expected accuracy, at random positions.

use miniqmc::{at_least, Options};
use qmc_bspline::MultiBspline3D;
use qmc_kernels::bspline::{evaluate_v, evaluate_vgh};
use qmc_kernels::Backend;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn run(opts: &Options) -> Result<(), String> {
    let g = opts
        .try_get("grid", 24usize)
        .and_then(at_least("grid", 4))?;
    let ns = opts
        .try_get("splines", 64usize)
        .and_then(at_least("splines", 1))?;
    let evals = opts
        .try_get("evals", 200usize)
        .and_then(at_least("evals", 1))?;
    let seed = opts.try_get("seed", 5u64)?;
    let grid = [g, g, g];

    println!("check_spo: grid {g}^3, {ns} splines, {evals} random points");
    let t64 = MultiBspline3D::<f64>::random(grid, ns, seed);
    let t32 = MultiBspline3D::<f32>::random(grid, ns, seed);
    let (v64, v32) = (t64.view(), t32.view());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABC);

    let (mut p_opt, mut p_ref) = (vec![0.0f64; ns], vec![0.0f64; ns]);
    let (mut g_opt, mut g_ref) = (vec![0.0f64; 3 * ns], vec![0.0f64; 3 * ns]);
    let (mut h_opt, mut h_ref) = (vec![0.0f64; 6 * ns], vec![0.0f64; 6 * ns]);
    let mut p32 = vec![0.0f32; ns];

    let (mut layout_v, mut layout_g, mut layout_h, mut prec_v) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for _ in 0..evals {
        let u = [
            rng.random::<f64>(),
            rng.random::<f64>(),
            rng.random::<f64>(),
        ];
        let u32 = [u[0] as f32, u[1] as f32, u[2] as f32];
        evaluate_vgh(
            Backend::Reference,
            &v64,
            u,
            &mut p_ref,
            &mut g_ref,
            &mut h_ref,
        );
        for backend in [Backend::Soa, Backend::Simd] {
            evaluate_vgh(backend, &v64, u, &mut p_opt, &mut g_opt, &mut h_opt);
            for s in 0..ns {
                layout_v = layout_v.max((p_opt[s] - p_ref[s]).abs());
            }
            for i in 0..3 * ns {
                layout_g = layout_g.max((g_opt[i] - g_ref[i]).abs());
            }
            for i in 0..6 * ns {
                layout_h = layout_h.max((h_opt[i] - h_ref[i]).abs());
            }
            evaluate_v(backend, &v32, u32, &mut p32);
            for s in 0..ns {
                prec_v = prec_v.max((p_ref[s] - p32[s] as f64).abs());
            }
        }
    }

    println!(
        "layout max |soa, simd - reference|:  v {layout_v:.2e}  grad {layout_g:.2e}  hess {layout_h:.2e}"
    );
    println!("precision max |f64 - f32| (values): {prec_v:.2e}");

    let ok = layout_v < 1e-12 && layout_g < 1e-10 && layout_h < 1e-9 && prec_v < 1e-4;
    if ok {
        println!("check_spo PASSED");
    } else {
        eprintln!("check_spo FAILED");
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    if let Err(e) = run(&opts) {
        opts.fail_usage(&e);
    }
}
