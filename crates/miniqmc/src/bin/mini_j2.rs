//! Two-body Jastrow miniapp (§7.1): compares the baseline
//! store-everything J2 (`5 N^2` scalars per walker, row+column updates)
//! against the compute-on-the-fly SoA J2 (`5 N`) over realistic PbyP move
//! cycles, reporting time and per-walker memory.
//!
//! ```text
//! mini_j2 --nel 384 --iters 20 --l 15.8
//! ```

use miniqmc::{at_least, Options};
use qmc_bspline::CubicBspline1D;
use qmc_containers::TinyVector;
use qmc_particles::{random_positions_in_cell, CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{traits::WaveFunctionComponent, J2Ref, J2Soa, PairFunctors};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn electrons(n: usize, l: f64, layout: Layout, seed: u64) -> (ParticleSet<f64>, usize) {
    let lat = CrystalLattice::cubic(l);
    let mut rng = StdRng::seed_from_u64(seed);
    let pos = random_positions_in_cell(&lat, n, &mut rng);
    let half = n / 2;
    let mut p = ParticleSet::new(
        "e",
        lat,
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                pos[..half].to_vec(),
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                pos[half..].to_vec(),
            ),
        ],
    );
    let h = p.add_table_aa(layout);
    (p, h)
}

fn functors(rc: f64) -> PairFunctors<f64> {
    PairFunctors::new(2, |a, b| {
        let (amp, cusp) = if a == b { (0.35, -0.25) } else { (0.5, -0.5) };
        CubicBspline1D::fit(
            move |r| amp * (1.0 - r / rc).powi(3) / (1.0 + 0.4 * r),
            cusp,
            rc,
            10,
        )
    })
}

fn cycle(
    p: &mut ParticleSet<f64>,
    j2: &mut dyn WaveFunctionComponent<f64>,
    iters: usize,
    _l: f64,
    seed: u64,
) -> f64 {
    let n = p.len();
    let mut rng = StdRng::seed_from_u64(seed);
    p.update_tables();
    j2.evaluate_log(p);
    let t0 = Instant::now();
    for _ in 0..iters {
        for iat in 0..n {
            p.prepare_move(iat);
            let _ = j2.eval_grad(p, iat);
            let newpos = p.pos(iat)
                + TinyVector([
                    0.5 * (rng.random::<f64>() - 0.5),
                    0.5 * (rng.random::<f64>() - 0.5),
                    0.5 * (rng.random::<f64>() - 0.5),
                ]);
            p.make_move(iat, newpos);
            let mut g = TinyVector::zero();
            let _ratio = j2.ratio_grad(p, iat, &mut g);
            if rng.random::<f64>() < 0.5 {
                j2.accept_move(p, iat);
                p.accept_move(iat);
            } else {
                j2.restore(iat);
                p.reject_move(iat);
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

fn run(opts: &Options) -> Result<(), String> {
    let n = opts.try_get("nel", 384usize).and_then(at_least("nel", 1))?;
    let iters = opts
        .try_get("iters", 20usize)
        .and_then(at_least("iters", 1))?;
    let l = opts.try_get("l", 15.8f64)?;
    if !(l > 0.0 && l.is_finite()) {
        return Err(format!(
            "--l: cannot use '{l}' (valid: a positive cell edge)"
        ));
    }
    let seed = opts.try_get("seed", 1u64)?;
    let rc = (l / 2.0 * 0.99).min(3.9);

    println!("mini_j2: N = {n}, iters = {iters}, L = {l}, r_cut = {rc:.2}");
    let moves = (n * iters) as f64;

    let (mut p, h) = electrons(n, l, Layout::Aos, seed);
    let mut jref = J2Ref::new(&p, h, functors(rc));
    let t_ref = cycle(&mut p, &mut jref, iters, l, seed);
    println!(
        "J2-ref  (5N^2 store) : {:>8.3} s  ({:>8.1} ns/move)  {:>8.2} MiB/walker",
        t_ref,
        t_ref / moves * 1e9,
        jref.bytes() as f64 / (1 << 20) as f64
    );
    let log_ref = jref.log_value();

    let (mut p, h) = electrons(n, l, Layout::Soa, seed);
    let mut jsoa = J2Soa::new(&p, h, functors(rc));
    let t_soa = cycle(&mut p, &mut jsoa, iters, l, seed);
    println!(
        "J2-soa  (5N  fly)    : {:>8.3} s  ({:>8.1} ns/move)  {:>8.2} MiB/walker",
        t_soa,
        t_soa / moves * 1e9,
        jsoa.bytes() as f64 / (1 << 20) as f64
    );
    println!("speedup              : {:>8.2}x", t_ref / t_soa);
    println!(
        "memory reduction     : {:>8.1}x",
        jref.bytes() as f64 / jsoa.bytes() as f64
    );
    let log_soa = jsoa.log_value();
    println!("log check |ref - soa| = {:.2e}", (log_ref - log_soa).abs());
    assert!(
        (log_ref - log_soa).abs() < 1e-6 * (1.0 + log_ref.abs()),
        "J2 implementations disagree"
    );
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    if let Err(e) = run(&opts) {
        opts.fail_usage(&e);
    }
}
