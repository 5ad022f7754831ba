//! Criterion bench: the kernel layer's one meter — every [`Backend`] times
//! every backend family (B-spline v/vgh/vgh-diag/mw-vgl in both
//! precisions, the NLPP-sized value-only batch, distance rows), and the
//! one J2 accumulation is timed beside them; `backend_matrix` in
//! `qmc-kernels` holds the same kernels to their bits. Those tables
//! (7 MiB, 16 repeated points) are cache-hot; the `dram` group times the
//! NiO-32 shape far out of cache, where what binds is the memory system,
//! and prints the byte rate beside the time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmc_bspline::MultiBspline3D;
use qmc_containers::Real;
use qmc_kernels::bspline::{
    evaluate_v, evaluate_vgh, evaluate_vgh_diag, mw_evaluate_v, mw_evaluate_vgl,
};
use qmc_kernels::distance::distance_row;
use qmc_kernels::jastrow::j2_row_vgl;
use qmc_kernels::Backend;
use qmc_particles::CrystalLattice;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// `Bspline-v`, `Bspline-vgh` (Figs. 2 and 7), the diagonal-Hessian vgh
/// the sweep runs on orthorhombic cells and the fused multi-walker vgl at
/// precision `T`; the f32 instance is the 16-lane rung of the
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
        group.bench_function(BenchmarkId::new("vgh_diag", b.label()), |bench| {
            bench.iter(|| {
                idx = (idx + 1) % nw;
                evaluate_vgh_diag(b, &view, points[idx], &mut p, &mut g, &mut h);
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

/// The cache-hot rows above cannot tell a kernel that streams from one that
/// waits on every miss: this one runs `simd` v and vgh on the `nio32-dmc`
/// table shape (80³ x 192 f32, 375 MiB) over distinct random points, and
/// prints GB/s over the 64 stencil rows x `ns` x 4 B each point reads.
/// Both kernels read the same rows, so a gap between their rates is
/// access-pattern latency, not bandwidth.
fn bench_bspline_dram(c: &mut Criterion) {
    let ns = 192;
    let table = MultiBspline3D::<f32>::random([80, 80, 80], ns, 17);
    let view = table.view();
    let mut rng = StdRng::seed_from_u64(19);
    let points: Vec<[f32; 3]> = (0..4096)
        .map(|_| [rng.random(), rng.random(), rng.random()])
        .collect();
    let mut idx = 0usize;
    let (mut p, mut g, mut h) = (vec![0.0f32; ns], vec![0.0f32; 3 * ns], vec![0.0f32; 6 * ns]);

    let mut group = c.benchmark_group(format!("kernels_bspline_dram_f32_80x80x80_ns{ns}"));
    group.throughput(Throughput::Bytes((64 * ns * 4) as u64));
    group.bench_function(BenchmarkId::new("v", "simd"), |bench| {
        bench.iter(|| {
            idx = (idx + 1) % points.len();
            evaluate_v(Backend::Simd, &view, points[idx], &mut p);
            black_box(&p);
        });
    });
    group.bench_function(BenchmarkId::new("vgh", "simd"), |bench| {
        bench.iter(|| {
            idx = (idx + 1) % points.len();
            evaluate_vgh(Backend::Simd, &view, points[idx], &mut p, &mut g, &mut h);
            black_box(&p);
        });
    });
    group.finish();
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

fn bench_jastrow(c: &mut Criterion) {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(9);
    let row =
        |rng: &mut StdRng| -> Vec<f64> { (0..n).map(|_| rng.random::<f64>() - 0.5).collect() };
    let (u, dud, lap) = (row(&mut rng), row(&mut rng), row(&mut rng));
    let (dx, dy, dz) = (row(&mut rng), row(&mut rng), row(&mut rng));

    let mut group = c.benchmark_group(format!("kernels_j2_n{n}"));
    group.bench_function("row_vgl", |bench| {
        bench.iter(|| {
            black_box(j2_row_vgl(&u, &dud, &lap, &dx, &dy, &dz, n));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bspline_backends,
    bench_bspline_dram,
    bench_nlpp_v_backends,
    bench_distance_backends,
    bench_jastrow
);
criterion_main!(benches);
