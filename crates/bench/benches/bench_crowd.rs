//! Criterion bench: batched multi-walker (crowd) kernels versus their
//! per-walker loops, over crowd sizes {1, 8, 32, 128}.
//!
//! Two kernels from the crowd subsystem:
//!  - B-spline SPO `vgl`: the fused `mw_evaluate_vgl` (one table walk per
//!    walker, gradient/Laplacian contracted in-register) against a loop of
//!    scalar `evaluate_vgl` calls on the NiO-32-scaled orbital table,
//!    swept over every kernel backend (the crowd×backend matrix). The
//!    batched path should win ≥1.2x at crowd ≥ 32.
//!  - J2 ratio+gradient: the per-walker `ratio_grad` loop a crowd runs for
//!    one electron (J2 has no fused multi-walker kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, TinyVector};
use qmc_kernels::Backend;
use qmc_particles::{random_positions_in_cell, CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{traits::WaveFunctionComponent, BsplineSpo, J2Soa, PairFunctors, SpoSet};
use qmc_workloads::{Benchmark, Size, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const CROWD_SIZES: [usize; 4] = [1, 8, 32, 128];

fn bench_spo_mw_vgl(c: &mut Criterion) {
    // NiO-32 at the scaled size: the real orbital count and spline grid of
    // the workload the acceptance criterion names. The crowd×backend
    // matrix: both drive modes (per-walker loop vs fused batch) at every
    // crowd size, for every kernel backend — `BsplineSpo` is built on a
    // backend, so one SPO instance per backend.
    let w = Workload::new(Benchmark::NiO32, Size::Scaled, 11);
    let lattice = CrystalLattice::<f64>::orthorhombic(w.spec.supercell(Size::Scaled));

    let mut rng = StdRng::seed_from_u64(17);
    let pool = random_positions_in_cell(&lattice, 256, &mut rng);

    let ns = w.num_orbitals();
    let mut group = c.benchmark_group(format!("crowd_spo_vgl_ns{ns}"));
    for backend in Backend::ALL {
        let mut spo = BsplineSpo::new(w.table_f64(), lattice.clone(), backend);
        for &nw in &CROWD_SIZES {
            let mut psi = vec![0.0f64; nw * ns];
            let mut grad = vec![0.0f64; 3 * nw * ns];
            let mut lap = vec![0.0f64; nw * ns];
            let mut idx = 0usize;

            group.bench_function(
                BenchmarkId::new(format!("per_walker_{}", backend.label()), nw),
                |b| {
                    b.iter(|| {
                        for s in 0..nw {
                            let p = pool[(idx + s) % pool.len()];
                            spo.evaluate_vgl(
                                p,
                                &mut psi[s * ns..(s + 1) * ns],
                                &mut grad[s * 3 * ns..(s + 1) * 3 * ns],
                                &mut lap[s * ns..(s + 1) * ns],
                            );
                        }
                        idx = (idx + nw) % pool.len();
                        black_box(&psi);
                    });
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("batched_{}", backend.label()), nw),
                |b| {
                    b.iter(|| {
                        let pos: Vec<Pos<f64>> =
                            (0..nw).map(|s| pool[(idx + s) % pool.len()]).collect();
                        spo.mw_evaluate_vgl(&pos, &mut psi, &mut grad, &mut lap);
                        idx = (idx + nw) % pool.len();
                        black_box(&psi);
                    });
                },
            );
        }
    }
    group.finish();
}

fn electrons(n: usize, seed: u64) -> ParticleSet<f64> {
    let lat = CrystalLattice::cubic(15.8);
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
    p.add_table_aa(Layout::Soa);
    p
}

fn functors() -> PairFunctors<f64> {
    PairFunctors::new(2, |a, b| {
        let (amp, cusp) = if a == b { (0.35, -0.25) } else { (0.5, -0.5) };
        CubicBspline1D::fit(
            move |r| amp * (1.0 - r / 3.9).powi(3) / (1.0 + 0.4 * r),
            cusp,
            3.9,
            10,
        )
    })
}

fn bench_j2_mw_ratio(c: &mut Criterion) {
    let n = 96usize;
    let iat = n / 2;
    let mut group = c.benchmark_group(format!("crowd_j2_ratio_N{n}"));
    for &nw in &CROWD_SIZES {
        // One electron set + J2 per crowd slot, each with an active move.
        let mut psets: Vec<ParticleSet<f64>> =
            (0..nw).map(|s| electrons(n, 3 + s as u64)).collect();
        let mut j2s: Vec<J2Soa<f64>> = psets.iter().map(|p| J2Soa::new(p, 0, functors())).collect();
        for (j2, p) in j2s.iter_mut().zip(psets.iter_mut()) {
            j2.evaluate_log(p);
            let newpos = p.pos(iat) + TinyVector([0.2, -0.1, 0.15]);
            p.prepare_move(iat);
            p.make_move(iat, newpos);
        }
        let mut ratios = vec![1.0f64; nw];
        let mut grads = vec![TinyVector::zero(); nw];

        group.bench_function(BenchmarkId::new("scalar_loop", nw), |b| {
            b.iter(|| {
                for ((j2, p), (r, g)) in j2s
                    .iter_mut()
                    .zip(psets.iter())
                    .zip(ratios.iter_mut().zip(grads.iter_mut()))
                {
                    *g = TinyVector::zero();
                    *r = j2.ratio_grad(p, iat, g);
                }
                black_box(&ratios);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spo_mw_vgl, bench_j2_mw_ratio);
criterion_main!(benches);
