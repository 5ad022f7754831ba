//! Distance-table kernel miniapp (§7.1): isolates the paper's top hot spot
//! and compares the baseline packed-triangle AoS table against the SoA
//! table with forward update + compute-on-the-fly rows, over a full
//! particle-by-particle move cycle.
//!
//! ```text
//! mini_dist --nel 384 --iters 100 --l 15.8
//! ```

use miniqmc::{at_least, Options};
use qmc_containers::TinyVector;
use qmc_particles::{random_positions_in_cell, CrystalLattice, Layout, ParticleSet, Species};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn build(n: usize, l: f64, layout: Layout, seed: u64) -> (ParticleSet<f64>, usize) {
    let lat = CrystalLattice::cubic(l);
    let mut rng = StdRng::seed_from_u64(seed);
    let pos = random_positions_in_cell(&lat, n, &mut rng);
    let mut p = ParticleSet::new(
        "e",
        lat,
        vec![(
            Species {
                name: "u".into(),
                charge: -1.0,
            },
            pos,
        )],
    );
    let h = p.add_table_aa(layout);
    (p, h)
}

fn run_cycle(p: &mut ParticleSet<f64>, iters: usize, l: f64, seed: u64) -> f64 {
    let n = p.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    for _ in 0..iters {
        for iat in 0..n {
            p.prepare_move(iat);
            let newpos = TinyVector([
                rng.random::<f64>() * l,
                rng.random::<f64>() * l,
                rng.random::<f64>() * l,
            ]);
            p.make_move(iat, newpos);
            if rng.random::<f64>() < 0.5 {
                p.accept_move(iat);
            } else {
                p.reject_move(iat);
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

fn run(opts: &Options) -> Result<(), String> {
    let n = opts.try_get("nel", 384usize).and_then(at_least("nel", 1))?;
    let iters = opts
        .try_get("iters", 50usize)
        .and_then(at_least("iters", 1))?;
    let l = opts.try_get("l", 15.8f64)?;
    if !(l > 0.0 && l.is_finite()) {
        return Err(format!(
            "--l: cannot use '{l}' (valid: a positive cell edge)"
        ));
    }
    let seed = opts.try_get("seed", 1u64)?;

    println!("mini_dist: N = {n}, iters = {iters}, cubic cell L = {l}");
    let moves = (n * iters) as f64;

    let (mut p_aos, _) = build(n, l, Layout::Aos, seed);
    let t_aos = run_cycle(&mut p_aos, iters, l, seed);
    println!(
        "AoS packed triangle  : {:>8.3} s  ({:>8.1} ns/move)",
        t_aos,
        t_aos / moves * 1e9
    );

    let (mut p_soa, _) = build(n, l, Layout::Soa, seed);
    let t_soa = run_cycle(&mut p_soa, iters, l, seed);
    println!(
        "SoA forward update   : {:>8.3} s  ({:>8.1} ns/move)",
        t_soa,
        t_soa / moves * 1e9
    );
    println!("speedup              : {:>8.2}x", t_aos / t_soa);

    // Correctness cross-check on a few pairs after identical move streams.
    let (mut a, ha) = build(n, l, Layout::Aos, seed + 9);
    let (mut s, hs) = build(n, l, Layout::Soa, seed + 9);
    run_cycle(&mut a, 1, l, 77);
    run_cycle(&mut s, 1, l, 77);
    let mut max_diff = 0.0f64;
    for i in 0..n.min(16) {
        s.prepare_move(i);
        let tr = a.table(ha).as_aa_ref();
        let ts = s.table(hs).as_aa_soa();
        for j in 0..n {
            if i != j {
                max_diff = max_diff.max((tr.dist(i, j) - ts.dist_row(i)[j]).abs());
            }
        }
    }
    println!("cross-check max |d_aos - d_soa| = {max_diff:.2e}");
    assert!(max_diff < 1e-9, "layout mismatch");
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    if let Err(e) = run(&opts) {
        opts.fail_usage(&e);
    }
}
