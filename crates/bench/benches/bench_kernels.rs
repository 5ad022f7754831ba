//! Criterion bench: per-backend coverage of the `qmc-kernels` dispatch
//! points — every [`Backend`] times every extracted kernel family
//! (B-spline v/vgh/mw-vgl in both precisions, the NLPP-sized value-only
//! batch, distance rows, J2 accumulation), so a backend regression shows
//! up in the same Criterion series the cross-backend verifier gates for
//! correctness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_bspline::MultiBspline3D;
use qmc_containers::Real;
use qmc_kernels::bspline::{evaluate_v, evaluate_vgh, mw_evaluate_v, mw_evaluate_vgl};
use qmc_kernels::distance::distance_row;
use qmc_kernels::jastrow::j2_row_vgl;
use qmc_kernels::Backend;
use qmc_particles::CrystalLattice;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// `Bspline-v`, `Bspline-vgh` (Figs. 2 and 7) and the fused multi-walker
/// vgl at precision `T`; the f32 instance is the 16-lane rung of the
/// lane-width ladder.
fn bench_bspline_precision<T: Real>(c: &mut Criterion, group: &str) {
    let ns = 128;
    let table = MultiBspline3D::<T>::random([16, 16, 16], ns, 11);
    let view = table.view();
    let t = T::from_f64;
    let gmat = [
        [t(0.31), t(0.0), t(0.0)],
        [t(0.02), t(0.27), t(0.0)],
        [t(0.0), t(0.01), t(0.22)],
    ];
    let lapmet = [t(0.10), t(0.09), t(0.05), t(0.01), t(0.02), t(0.005)];
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<[T; 3]> = (0..16)
        .map(|_| [t(rng.random()), t(rng.random()), t(rng.random())])
        .collect();
    let nw = points.len();

    let mut group = c.benchmark_group(format!("{group}_ns{ns}"));
    for b in Backend::ALL {
        let mut psi = vec![T::ZERO; ns];
        let mut idx = 0usize;
        group.bench_function(BenchmarkId::new("v", b.label()), |bench| {
            bench.iter(|| {
                idx = (idx + 1) % nw;
                evaluate_v(b, &view, points[idx], &mut psi);
                black_box(&psi);
            });
        });
        let (mut p, mut g, mut h) = (
            vec![T::ZERO; ns],
            vec![T::ZERO; 3 * ns],
            vec![T::ZERO; 6 * ns],
        );
        group.bench_function(BenchmarkId::new("vgh", b.label()), |bench| {
            bench.iter(|| {
                idx = (idx + 1) % nw;
                evaluate_vgh(b, &view, points[idx], &mut p, &mut g, &mut h);
                black_box(&p);
            });
        });
        let (mut pw, mut gw, mut lw) = (
            vec![T::ZERO; nw * ns],
            vec![T::ZERO; 3 * nw * ns],
            vec![T::ZERO; nw * ns],
        );
        group.bench_function(BenchmarkId::new("mw_vgl", b.label()), |bench| {
            bench.iter(|| {
                mw_evaluate_vgl(b, &view, &points, &gmat, &lapmet, &mut pw, &mut gw, &mut lw);
                black_box(&pw);
            });
        });
    }
    group.finish();
}

fn bench_bspline_backends(c: &mut Criterion) {
    bench_bspline_precision::<f64>(c, "kernels_bspline");
    bench_bspline_precision::<f32>(c, "kernels_bspline_f32");
}

/// The NLPP quadrature inner loop: 12 value-only orbital evaluations per
/// (electron, ion) pair, batched through `mw_evaluate_v`. This is the
/// shape the `ratios_value_only` fast path dispatches.
fn bench_nlpp_v_backends(c: &mut Criterion) {
    let ns = 128;
    let nq = 12;
    let table = MultiBspline3D::<f64>::random([16, 16, 16], ns, 13);
    let view = table.view();
    let mut rng = StdRng::seed_from_u64(15);
    let quads: Vec<Vec<[f64; 3]>> = (0..8)
        .map(|_| {
            (0..nq)
                .map(|_| [rng.random(), rng.random(), rng.random()])
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group(format!("kernels_nlpp_v_ns{ns}_nq{nq}"));
    for b in Backend::ALL {
        let mut psi = vec![0.0; nq * ns];
        let mut idx = 0usize;
        group.bench_function(BenchmarkId::new("mw_v", b.label()), |bench| {
            bench.iter(|| {
                idx = (idx + 1) % quads.len();
                mw_evaluate_v(b, &view, &quads[idx], &mut psi);
                black_box(&psi);
            });
        });
    }
    group.finish();
}

fn bench_distance_backends(c: &mut Criterion) {
    let n = 256;
    let cell = CrystalLattice::<f64>::orthorhombic([6.0, 7.0, 8.0]);
    let mut rng = StdRng::seed_from_u64(7);
    let xs: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 6.0).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 7.0).collect();
    let zs: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 8.0).collect();
    let pos = [1.2, 5.1, 3.3];

    let mut group = c.benchmark_group(format!("kernels_distance_n{n}"));
    for b in Backend::ALL {
        let mut dist = vec![0.0; n];
        let mut disp = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        group.bench_function(BenchmarkId::new("row", b.label()), |bench| {
            bench.iter(|| {
                let [dx, dy, dz] = &mut disp;
                distance_row(b, &cell, &xs, &ys, &zs, pos, n, &mut dist, [dx, dy, dz]);
                black_box(&dist);
            });
        });
    }
    group.finish();
}

fn bench_jastrow_backends(c: &mut Criterion) {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(9);
    let row =
        |rng: &mut StdRng| -> Vec<f64> { (0..n).map(|_| rng.random::<f64>() - 0.5).collect() };
    let (u, dud, lap) = (row(&mut rng), row(&mut rng), row(&mut rng));
    let (dx, dy, dz) = (row(&mut rng), row(&mut rng), row(&mut rng));

    let mut group = c.benchmark_group(format!("kernels_j2_n{n}"));
    for b in Backend::ALL {
        group.bench_function(BenchmarkId::new("row_vgl", b.label()), |bench| {
            bench.iter(|| {
                black_box(j2_row_vgl(b, &u, &dud, &lap, &dx, &dy, &dz, n));
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bspline_backends,
    bench_nlpp_v_backends,
    bench_distance_backends,
    bench_jastrow_backends
);
criterion_main!(benches);
