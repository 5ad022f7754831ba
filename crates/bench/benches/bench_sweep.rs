//! Criterion bench: one full drift-diffusion PbyP sweep + measurement on
//! the NiO-32 workload, per code version — the end-to-end kernel behind
//! every throughput number in the paper's figures — and one NLPP
//! quadrature shell (`calc_ratios_v` over 12 points, the measurement's
//! largest line) on scaled Graphite and NiO-32, and the masked J2 functor
//! rows on the benchmark ladder's own cells (`graphite64-dmc`: scaled
//! Graphite, N = 64; `nio32-dmc`: full NiO-32, N = 384).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_containers::{Pos, Real};
use qmc_drivers::QmcEngine;
use qmc_particles::DistTable;
use qmc_wavefunction::jastrow::{evaluate_v_row, evaluate_vgl_row};
use qmc_wavefunction::{J2Soa, PairFunctors};
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

/// The J2 functor rows of one walker's configuration: every electron's
/// distance row, the functors and the spin groups, as the built engine
/// holds them — so the share of partners inside `r_cut` is the workload's.
struct J2Rows {
    functors: PairFunctors<f32>,
    groups: Vec<std::ops::Range<usize>>,
    group_of: Vec<usize>,
    rows: Vec<Vec<f32>>,
}

impl J2Rows {
    fn from_engine(mut engine: QmcEngine<f32>) -> Self {
        let pset = &mut engine.pset;
        pset.update_tables();
        let n = pset.len();
        let t = (0..pset.num_tables())
            .find_map(|h| match pset.table(h) {
                DistTable::AaSoa(t) => Some(t),
                _ => None,
            })
            .expect("Current engines hold an SoA AA table");
        let rows = (0..n).map(|i| t.dist_row(i)[..n].to_vec()).collect();
        let psi = &mut engine.psi;
        let functors = (0..psi.num_components())
            .find_map(|c| {
                psi.component_mut(c)
                    .as_any_mut()
                    .downcast_mut::<J2Soa<f32>>()
                    .map(|j2| j2.functors().clone())
            })
            .expect("Current engines hold a J2Soa");
        Self {
            functors,
            groups: (0..pset.num_groups())
                .map(|g| pset.group_range(g))
                .collect(),
            group_of: (0..n).map(|i| pset.group_of(i)).collect(),
            rows,
        }
    }
}

fn bench_jastrow_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("jastrow_row");
    for (label, b, size) in [
        ("graphite64", Benchmark::Graphite, Size::Scaled),
        ("nio32", Benchmark::NiO32, Size::Full),
    ] {
        // The engine (and NiO-32's 375 MiB table) is dropped once the rows
        // are copied out.
        let j2 =
            J2Rows::from_engine(Workload::new(b, size, 17).build_engine_f32(CodeVersion::Current));
        let n = j2.rows.len();
        let inside = j2
            .rows
            .iter()
            .flatten()
            .filter(|&&d| d < j2.functors.get(0, 0).r_cut())
            .count();
        println!(
            "jastrow_row/{label}: {n} rows x {n} partners, {:.1} % inside r_cut",
            100.0 * inside as f64 / (n * n) as f64
        );
        let (mut u, mut dud, mut lap) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        // One iteration is every electron's row: divide by n^2 for ns/pair.
        // The rows repeat every iteration, so a per-partner cutoff branch
        // would be partly learnt by the branch predictor here, unlike in a
        // run, where each move brings a new row.
        group.bench_function(BenchmarkId::new("v", label), |bench| {
            bench.iter(|| {
                for (row, &g) in j2.rows.iter().zip(&j2.group_of) {
                    evaluate_v_row(j2.functors.row(g), &j2.groups, row, &mut u);
                }
                black_box(&u);
            });
        });
        group.bench_function(BenchmarkId::new("vgl", label), |bench| {
            bench.iter(|| {
                for (row, &g) in j2.rows.iter().zip(&j2.group_of) {
                    let f = j2.functors.row(g);
                    evaluate_vgl_row(f, &j2.groups, row, &mut u, &mut dud, &mut lap);
                }
                black_box((&u, &dud, &lap));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_nlpp_shell, bench_jastrow_row);
criterion_main!(benches);
