//! Cross-crate integration tests: every benchmark workload runs end to end
//! under every code version, with the physics, throughput and memory
//! orderings the paper's evaluation relies on.

use qmc::prelude::*;

fn quick_cfg(seed: u64) -> RunConfig {
    RunConfig {
        threads: 1,
        walkers: 2,
        steps: 3,
        warmup: 1,
        tau: 0.003,
        seed,
        ..Default::default()
    }
}

#[test]
fn every_benchmark_runs_under_every_code_version() {
    let cfg = quick_cfg(5);
    for b in Benchmark::all() {
        let w = Workload::new(b, Size::Scaled, 5);
        for code in [
            CodeVersion::Ref,
            CodeVersion::RefMp,
            CodeVersion::SoaDouble,
            CodeVersion::Current,
        ] {
            let out = run_dmc_benchmark(&w, code, &cfg);
            assert!(
                out.energy.0.is_finite(),
                "{} / {}: energy not finite",
                w.spec.name,
                out.label
            );
            assert!(out.samples > 0, "{} / {}", w.spec.name, out.label);
            assert!(
                out.acceptance > 0.05 && out.acceptance <= 1.0,
                "{} / {}: acceptance {}",
                w.spec.name,
                out.label,
                out.acceptance
            );
        }
    }
}

#[test]
fn code_versions_agree_on_the_physics() {
    // Same seed, same move stream lengths: the energy estimators of all
    // versions must agree to mixed-precision tolerance (they run the same
    // Monte Carlo with different kernels).
    let w = Workload::new(Benchmark::NiO32, Size::Scaled, 11);
    let cfg = quick_cfg(11);
    let e_ref = run_dmc_benchmark(&w, CodeVersion::Ref, &cfg).energy.0;
    let e_soa = run_dmc_benchmark(&w, CodeVersion::SoaDouble, &cfg).energy.0;
    let e_cur = run_dmc_benchmark(&w, CodeVersion::Current, &cfg).energy.0;
    // f64 layouts: near-exact agreement (same arithmetic, different order).
    assert!(
        (e_ref - e_soa).abs() < 5e-4 * (1.0 + e_ref.abs()),
        "Ref {e_ref} vs SoA(dp) {e_soa}"
    );
    // f32 kernels: single-precision tolerance.
    assert!(
        (e_ref - e_cur).abs() < 5e-3 * (1.0 + e_ref.abs()),
        "Ref {e_ref} vs Current {e_cur}"
    );
}

/// The Ref (AoS, f64) and Current (SoA, f32) engines driven through the
/// same Monte Carlo moves agree move by move: every kernel pair of the
/// paper's ladder at once, across both layouts and both precisions. Moves
/// are accepted on the f64 ratio so the two stacks stay in step. Seed 42 is
/// the tight case: its relative ratio gap reads 3.9e-3 against the 5e-3
/// bound, set by how well the Slater matrices are conditioned (ROADMAP
/// item 5), so neither the seed nor the bounds move.
#[test]
fn ref_and_current_engines_agree_move_by_move() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    const SEED: u64 = 42;
    const SWEEPS: usize = 2;
    const TOL: f64 = 5e-3;

    let w = Workload::new(Benchmark::NiO32, Size::Scaled, SEED);
    let mut e64 = w.build_engine_f64(CodeVersion::Ref);
    let mut e32 = w.build_engine_f32(CodeVersion::Current);
    e64.psi.evaluate_log(&mut e64.pset);
    e32.psi.evaluate_log(&mut e32.pset);

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xC0FFEE);
    let (mut ratio_gap, mut grad_gap) = (0.0f64, 0.0f64);
    for _sweep in 0..SWEEPS {
        for iat in 0..w.num_electrons() {
            let delta = TinyVector([
                0.4 * (rng.random::<f64>() - 0.5),
                0.4 * (rng.random::<f64>() - 0.5),
                0.4 * (rng.random::<f64>() - 0.5),
            ]);
            let p64: Pos<f64> = e64.pset.pos(iat) + delta;
            e64.pset.prepare_move(iat);
            e64.pset.make_move(iat, p64);
            e32.pset.prepare_move(iat);
            e32.pset.make_move(iat, p64.cast());

            let (r64, g64) = e64.psi.calc_ratio_grad(&e64.pset, iat);
            let (r32, g32) = e32.psi.calc_ratio_grad(&e32.pset, iat);
            ratio_gap = ratio_gap.max((r64 - r32).abs() / (1.0 + r64.abs()));
            grad_gap = grad_gap.max((g64 - g32).norm() / (1.0 + g64.norm()));

            if r64.abs() > 0.5 {
                e64.psi.accept_move(&e64.pset, iat);
                e64.pset.accept_move(iat);
                e32.psi.accept_move(&e32.pset, iat);
                e32.pset.accept_move(iat);
            } else {
                e64.psi.reject_move(iat);
                e64.pset.reject_move(iat);
                e32.psi.reject_move(iat);
                e32.pset.reject_move(iat);
            }
        }
    }

    let (l64, l32) = (e64.psi.log_value(), e32.psi.log_value());
    let log_gap = (l64 - l32).abs() / (1.0 + l64.abs());
    assert!(
        ratio_gap < TOL,
        "relative ratio gap {ratio_gap:.2e} (bound {TOL:.0e})"
    );
    assert!(
        grad_gap < 10.0 * TOL,
        "relative gradient gap {grad_gap:.2e} (bound {:.0e})",
        10.0 * TOL
    );
    assert!(
        log_gap < TOL,
        "relative log gap {log_gap:.2e} after {SWEEPS} sweeps (bound {TOL:.0e})"
    );
}

#[test]
fn memory_ordering_follows_the_ladder() {
    let w = Workload::new(Benchmark::NiO32, Size::Scaled, 13);
    let cfg = quick_cfg(13);
    let r = run_dmc_benchmark(&w, CodeVersion::Ref, &cfg);
    let m = run_dmc_benchmark(&w, CodeVersion::RefMp, &cfg);
    let c = run_dmc_benchmark(&w, CodeVersion::Current, &cfg);
    // MP halves the walker buffer; Current removes the 5N^2 Jastrow store.
    assert!(r.walker_bytes > m.walker_bytes);
    assert!(m.walker_bytes > c.walker_bytes);
    assert!(
        r.walker_bytes as f64 / c.walker_bytes as f64 > 3.0,
        "Ref {} vs Current {}",
        r.walker_bytes,
        c.walker_bytes
    );
    // Spline table halves with precision.
    assert_eq!(r.table_bytes, 2 * c.table_bytes);
}

#[test]
fn larger_problems_cost_more_per_sample() {
    let cfg = quick_cfg(17);
    let w32 = Workload::new(Benchmark::NiO32, Size::Scaled, 17);
    let w64 = Workload::new(Benchmark::NiO64, Size::Scaled, 17);
    let t32 = run_dmc_benchmark(&w32, CodeVersion::Current, &cfg);
    let t64 = run_dmc_benchmark(&w64, CodeVersion::Current, &cfg);
    // NiO-64 (192 e) must be slower per sample than NiO-32 (96 e).
    assert!(
        t64.throughput() < t32.throughput(),
        "t32 {} vs t64 {}",
        t32.throughput(),
        t64.throughput()
    );
}

#[test]
fn multi_rank_run_produces_consistent_energy() {
    use qmc::workloads::run_multi_rank_benchmark;
    let w = Workload::new(Benchmark::NiO32, Size::Scaled, 23);
    let cfg = RunConfig {
        threads: 2,
        walkers: 4,
        steps: 4,
        ..quick_cfg(23)
    };
    let (r, _) = run_multi_rank_benchmark(&w, CodeVersion::Current, &cfg);
    assert!(r.energy.0.is_finite());
    assert!(r.samples > 0);
    assert!(r.seconds > 0.0);
    // Energy consistent with the single-engine estimate.
    let single = run_dmc_benchmark(&w, CodeVersion::Current, &quick_cfg(23));
    assert!(
        (r.energy.0 - single.energy.0).abs() < 0.2 * (1.0 + single.energy.0.abs()),
        "multi-rank {} vs single {}",
        r.energy.0,
        single.energy.0
    );
}

/// Three ranks is the first count at which two ranks can hold a surplus in
/// the same generation; walker placement must still not depend on which
/// rank thread ran first.
#[test]
fn three_rank_run_repeats_bitwise() {
    use qmc::workloads::run_multi_rank_benchmark;
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 23);
    let cfg = RunConfig {
        threads: 3,
        walkers: 9,
        steps: 6,
        tau: 0.02,
        ..quick_cfg(23)
    };
    let run = || {
        let (r, exchange) = run_multi_rank_benchmark(&w, CodeVersion::Current, &cfg);
        (r.energy.0.to_bits(), r.samples, r.walker_hash, exchange)
    };
    let first = run();
    assert!(first.3.walkers > 0, "no walker migrated: {first:?}");
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}

#[test]
fn table1_metadata_is_internally_consistent() {
    for b in Benchmark::all() {
        let s = b.spec();
        assert_eq!(s.num_electrons(Size::Full), s.paper_n);
        assert_eq!(s.num_ions(Size::Full), s.paper_nion);
        assert_eq!(
            s.paper_ions_per_cell * s.paper_num_cells,
            s.paper_nion,
            "{}",
            s.name
        );
    }
}
