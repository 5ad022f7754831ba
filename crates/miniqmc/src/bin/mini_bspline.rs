//! 3D B-spline SPO miniapp (§7.1, and the paper's precursor study, ref. 8):
//! measures value-only (`Bspline-v`) and value+gradient+Hessian
//! (`Bspline-vgh`) multi-spline evaluation on every kernel backend and in
//! both precisions at random positions — the access pattern of SPO
//! evaluation in QMC (random positions into a large read-only table).
//!
//! ```text
//! mini_bspline --grid 48 --splines 192 --evals 4000
//! ```

use miniqmc::{at_least, Options};
use qmc_bspline::MultiBspline3D;
use qmc_containers::Real;
use qmc_kernels::bspline::{evaluate_v, evaluate_vgh};
use qmc_kernels::Backend;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Seconds one backend spent on all `evals` evaluations.
struct Timing {
    v: f64,
    vgh: f64,
}

/// Times every backend at precision `T`, one printed line each; the
/// timings come back in `Backend::ALL` order.
fn bench<T: Real>(grid: [usize; 3], ns: usize, evals: usize, seed: u64) -> Vec<Timing> {
    let table = MultiBspline3D::<T>::random(grid, ns, seed);
    let view = table.view();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let points: Vec<[T; 3]> = (0..evals)
        .map(|_| {
            [
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
            ]
        })
        .collect();
    let mut psi = vec![T::ZERO; ns];
    let mut grad = vec![T::ZERO; 3 * ns];
    let mut hess = vec![T::ZERO; 6 * ns];

    let per = 1e6 / evals as f64;
    let bits = 8 * std::mem::size_of::<T>();
    println!(
        "f{bits} table: {:.1} MiB",
        table.bytes() as f64 / (1 << 20) as f64
    );
    Backend::ALL
        .iter()
        .map(|&backend| {
            let t0 = Instant::now();
            for &u in &points {
                evaluate_v(backend, &view, u, &mut psi);
            }
            let v = t0.elapsed().as_secs_f64();
            std::hint::black_box(&psi);

            let t0 = Instant::now();
            for &u in &points {
                evaluate_vgh(backend, &view, u, &mut psi, &mut grad, &mut hess);
            }
            let vgh = t0.elapsed().as_secs_f64();
            std::hint::black_box((&psi, &grad, &hess));
            println!(
                "f{bits} {:<10} v {:>8.2} us/eval   vgh {:>8.2} us/eval",
                backend.label(),
                v * per,
                vgh * per
            );
            Timing { v, vgh }
        })
        .collect()
}

fn run(opts: &Options) -> Result<(), String> {
    let g = opts
        .try_get("grid", 48usize)
        .and_then(at_least("grid", 4))?;
    let ns = opts
        .try_get("splines", 192usize)
        .and_then(at_least("splines", 1))?;
    let evals = opts
        .try_get("evals", 4000usize)
        .and_then(at_least("evals", 1))?;
    let seed = opts.try_get("seed", 1u64)?;
    let grid = [g, g, g];

    println!("mini_bspline: grid {g}^3, {ns} splines, {evals} evaluations");
    let t64 = bench::<f64>(grid, ns, evals, seed);
    let t32 = bench::<f32>(grid, ns, evals, seed);
    println!();
    // Backend::ALL starts with the reference loops.
    for (backend, t) in Backend::ALL.iter().zip(&t32).skip(1) {
        println!(
            "speedup f64 reference -> f32 {:<5} v {:>6.2}x   vgh {:>6.2}x",
            backend.label(),
            t64[0].v / t.v,
            t64[0].vgh / t.vgh
        );
    }
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    if let Err(e) = run(&opts) {
        opts.fail_usage(&e);
    }
}
