//! Criterion bench: determinant-inverse updates — Sherman–Morrison rank-1
//! (the baseline `DetUpdate` of §8.4) on the inverse as the engine stores
//! it (`sherman_morrison_inverse`, row axpys on `A⁻¹`) and on the
//! transposed inverse (`sherman_morrison_update`, the bit oracle), versus
//! the delayed Woodbury engine at several delay depths, measured over full
//! N-move sweeps so the delayed engine's blocked flush cost is amortized
//! realistically — in f32 (the precision the engines run) and f64 — plus
//! what the storage order costs elsewhere (the strided column read behind
//! every ratio, the blocked transpose behind every walker save) and the
//! from-scratch `LuFactor::inverse` of the periodic recompute. Sizes are
//! one spin's determinant of the benchmark ladder: 32 (Graphite / Be-64
//! scaled), 128 (Graphite), 192 (NiO-32), 384 (NiO-64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_containers::{transpose_into, Matrix, Real};
use qmc_linalg::{
    det_ratio_row, invert_with_log_det, sherman_morrison_inverse, sherman_morrison_update,
    DelayedInverse, LuFactor,
};
use std::hint::black_box;

fn well_conditioned<T: Real>(n: usize, seed: u64) -> Matrix<T> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    Matrix::from_fn(n, n, |i, j| {
        T::from_f64(next() + if i == j { 4.0 } else { 0.0 })
    })
}

fn new_row<T: Real>(n: usize, k: usize) -> Vec<T> {
    (0..n)
        .map(|j| T::from_f64(0.05 * (j as f64 - k as f64) + if j == k { 3.5 } else { 0.2 }))
        .collect()
}

/// One precision's rows for dimension `n`: a full Sherman–Morrison sweep in
/// both storage orders, the delayed engine at `delays`, the column read and
/// save transpose the engine's order costs, and the from-scratch LU inverse.
fn bench_precision<T: Real>(c: &mut Criterion, n: usize, delays: &[usize]) {
    let a = well_conditioned::<T>(n, 9);
    let (inv, _, _) = invert_with_log_det(&a).unwrap();
    let minv_t = inv.transposed();
    let rows: Vec<Vec<T>> = (0..n).map(|k| new_row(n, k)).collect();
    let prec = std::any::type_name::<T>();

    let mut group = c.benchmark_group(format!("det_update_N{n}_{prec}"));
    group.bench_function(BenchmarkId::new("sweep", "sherman_morrison_inverse"), |b| {
        let mut w = vec![T::ZERO; n];
        b.iter(|| {
            let mut m = inv.clone();
            for (k, v) in rows.iter().enumerate() {
                black_box(sherman_morrison_inverse(&mut m, k, v, &mut w));
            }
            black_box(&m);
        });
    });
    group.bench_function(BenchmarkId::new("sweep", "column_read"), |b| {
        let mut col = vec![T::ZERO; n];
        b.iter(|| {
            for k in 0..n {
                for (i, out) in col.iter_mut().enumerate() {
                    *out = inv[(i, k)];
                }
                black_box(&col);
            }
        });
    });
    group.bench_function("save_transpose", |b| {
        let mut flat = vec![T::ZERO; n * n];
        b.iter(|| {
            transpose_into(inv.as_slice(), inv.stride(), n, n, &mut flat, n);
            black_box(&flat);
        });
    });
    group.bench_function(BenchmarkId::new("sweep", "sherman_morrison"), |b| {
        b.iter(|| {
            let mut m = minv_t.clone();
            for (k, v) in rows.iter().enumerate() {
                let r = det_ratio_row(&m, k, v);
                sherman_morrison_update(&mut m, k, v, r);
            }
            black_box(&m);
        });
    });
    for &delay in delays {
        group.bench_function(BenchmarkId::new("sweep", format!("delayed{delay}")), |b| {
            b.iter(|| {
                let mut d = DelayedInverse::new(minv_t.clone(), delay);
                let mut inv_row = vec![T::ZERO; n];
                for (k, v) in rows.iter().enumerate() {
                    black_box(d.ratio_with_inv_row(k, v, &mut inv_row));
                    d.accept(k, v);
                }
                d.flush();
                black_box(d.minv_t());
            });
        });
    }
    let lu = LuFactor::new(&a).unwrap();
    group.bench_function("lu_inverse", |b| b.iter(|| black_box(lu.inverse())));
    group.finish();
}

fn bench_determinant(c: &mut Criterion) {
    for &n in &[32usize, 128, 192] {
        // f32 is what the engines update, f64 what the recompute inverts.
        bench_precision::<f32>(c, n, &[4, 16]);
        bench_precision::<f64>(c, n, &[4, 16]);
    }
    bench_precision::<f32>(c, 384, &[]);
    bench_precision::<f64>(c, 384, &[]);
}

criterion_group!(benches, bench_determinant);
criterion_main!(benches);
