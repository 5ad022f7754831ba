//! Criterion bench: one full drift-diffusion PbyP sweep + measurement on
//! the NiO-32 workload, per code version — the end-to-end kernel behind
//! every throughput number in the paper's figures — and one NLPP
//! quadrature shell (`calc_ratios_v` over 12 points, the measurement's
//! largest line) on scaled Graphite and NiO-32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_containers::{Pos, Real};
use qmc_drivers::QmcEngine;
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_engine<T: Real>(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    mut engine: QmcEngine<T>,
    label: &str,
) {
    let mut rng = StdRng::seed_from_u64(21);
    engine.psi.evaluate_log(&mut engine.pset);
    group.bench_function(BenchmarkId::new("sweep_measure", label), |b| {
        b.iter(|| {
            let stats = engine.sweep(0.005, &mut rng);
            let el = engine.measure(&mut rng);
            black_box((stats, el));
        });
    });
}

fn bench_sweep(c: &mut Criterion) {
    let w = Workload::new(Benchmark::NiO32, Size::Scaled, 17);
    let mut group = c.benchmark_group("nio32_sweep");
    group.sample_size(10);
    bench_engine(&mut group, w.build_engine_f64(CodeVersion::Ref), "ref");
    bench_engine(&mut group, w.build_engine_f32(CodeVersion::RefMp), "refmp");
    bench_engine(
        &mut group,
        w.build_engine_f64(CodeVersion::SoaDouble),
        "soa_dp",
    );
    bench_engine(
        &mut group,
        w.build_engine_f32(CodeVersion::Current),
        "current",
    );
    group.finish();
}

fn bench_nlpp_shell(c: &mut Criterion) {
    let mut group = c.benchmark_group("nlpp_shell");
    for (label, b) in [
        ("graphite", Benchmark::Graphite),
        ("nio32", Benchmark::NiO32),
    ] {
        let w = Workload::new(b, Size::Scaled, 17);
        let mut engine = w.build_engine_f32(CodeVersion::Current);
        engine.psi.evaluate_log(&mut engine.pset);
        // An icosahedral shell of radius 0.6 around electron 0.
        let iat = 0;
        let centre: Pos<f64> = engine.pset.pos(iat).cast();
        let shell: Vec<Pos<f32>> = qmc_hamiltonian::nlpp::icosahedron_grid()
            .into_iter()
            .map(|q| (centre + q * 0.6).cast())
            .collect();
        let mut ratios = vec![0.0; shell.len()];
        group.bench_function(BenchmarkId::new("current_f32", label), |bench| {
            bench.iter(|| {
                engine
                    .psi
                    .calc_ratios_v(&mut engine.pset, iat, &shell, &mut ratios);
                black_box(&ratios);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_nlpp_shell);
criterion_main!(benches);
