//! The block-boundary refresh reuses the gradient and Laplacian rows the
//! determinants hold and rebuilds their Slater rows with the value kernel:
//! `QmcEngine::refresh_from_scratch` (through `TrialWaveFunction::refresh_log`)
//! must leave every bit a full `evaluate_log` leaves, from the same walker.
//!
//! Every test here builds engines on the simd backend; `set_backend` is
//! process-wide, but no test in this binary selects anything else.

use qmc_containers::Real;
use qmc_drivers::{walker_digest_full, QmcEngine, Walker};
use qmc_kernels::{set_backend, Backend};
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};

/// Log value, then every `p.g` component and every `p.l`, as bits.
fn psi_bits<T: Real>(e: &QmcEngine<T>, log: f64) -> Vec<u64> {
    let g = e.pset.g.iter().flat_map(|g| (0..3).map(move |d| g[d]));
    std::iter::once(log)
        .chain(g)
        .chain(e.pset.l.iter().copied())
        .map(f64::to_bits)
        .collect()
}

/// A walker initialised on `e` and carried through `sweeps` sweeps (with
/// accepted moves on every determinant row), stored back.
fn swept<T: Real>(w: &Workload, e: &mut QmcEngine<T>, sweeps: usize) -> Walker<T> {
    let mut walker = Walker::new(w.initial_positions().to_vec(), 41);
    e.init_walker(&mut walker);
    let mut accepted = 0;
    for _ in 0..sweeps {
        accepted += e.sweep(0.005, &mut walker.rng).accepted;
    }
    assert!(accepted > 0, "no move was accepted");
    e.store_walker(&mut walker);
    walker
}

/// Runs the refresh and a full `evaluate_log` from two copies of the same
/// stored walker and compares log value, G, L and the stored walker.
fn check_refresh_is_a_full_evaluation<T: Real>(w: &Workload, mut e: QmcEngine<T>, label: &str) {
    for sweeps in [1, 3] {
        let mut refreshed = swept(w, &mut e, sweeps);
        let mut evaluated = swept(w, &mut e, sweeps);
        assert_eq!(
            walker_digest_full(&refreshed),
            walker_digest_full(&evaluated),
            "{label}: the two copies differ before the refresh"
        );

        e.load_walker(&mut refreshed);
        e.refresh_from_scratch();
        let by_refresh = psi_bits(&e, e.psi.log_value());
        e.store_walker(&mut refreshed);

        e.load_walker(&mut evaluated);
        let log = e.psi.evaluate_log(&mut e.pset);
        let by_evaluation = psi_bits(&e, log);
        e.store_walker(&mut evaluated);

        assert!(
            by_refresh == by_evaluation,
            "{label}, {sweeps} sweeps: the refresh's log value, G or L differ from evaluate_log"
        );
        assert_eq!(
            walker_digest_full(&refreshed),
            walker_digest_full(&evaluated),
            "{label}, {sweeps} sweeps: the stored walkers differ"
        );
    }
}

#[test]
fn refresh_keeps_every_bit_of_a_full_evaluation() {
    set_backend(Backend::Simd);
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 13);
    for code in [CodeVersion::Ref, CodeVersion::SoaDouble] {
        check_refresh_is_a_full_evaluation(&w, w.build_engine_f64(code), &code.label());
    }
    for code in [CodeVersion::RefMp, CodeVersion::Current] {
        check_refresh_is_a_full_evaluation(&w, w.build_engine_f32(code), &code.label());
    }
}
