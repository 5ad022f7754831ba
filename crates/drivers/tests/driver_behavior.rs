//! Behavioural tests of the Monte Carlo drivers: acceptance limits,
//! population control dynamics, and estimator plumbing.

use qmc_containers::{Pos, TinyVector};
use qmc_drivers::{
    initial_population, DmcParams, DmcResult, HamiltonianSet, QmcEngine, RunControl, VmcParams,
    VmcResult, Walker,
};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DiracDeterminant, TrialWaveFunction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 6.0;

/// Serial uncontrolled VMC: a crew of one engine.
fn run_vmc(
    engine: &mut QmcEngine<f64>,
    walkers: &mut [Walker<f64>],
    params: &VmcParams,
) -> VmcResult {
    let crew = std::slice::from_mut(engine);
    let run = qmc_drivers::run_vmc(crew, walkers, params, None, &mut RunControl::none());
    run.expect("no checkpoint to write").0
}

/// Serial uncontrolled DMC: a crew of one engine.
fn run_dmc(
    engine: &mut QmcEngine<f64>,
    walkers: &mut Vec<Walker<f64>>,
    params: &DmcParams,
) -> DmcResult {
    let crew = std::slice::from_mut(engine);
    let run = qmc_drivers::run_dmc(crew, walkers, params, None, &mut RunControl::none());
    run.expect("no checkpoint to write").0
}

fn engine(n: usize, seed: u64) -> (QmcEngine<f64>, Vec<Pos<f64>>) {
    let lat = CrystalLattice::cubic(L);
    let mut rng = StdRng::seed_from_u64(seed);
    let pos: Vec<Pos<f64>> = (0..n)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
            ])
        })
        .collect();
    let mut pset = ParticleSet::new(
        "e",
        lat,
        vec![(
            Species {
                name: "u".into(),
                charge: -1.0,
            },
            pos.clone(),
        )],
    );
    pset.add_table_aa(Layout::Soa);
    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(CosineSpo::<f64>::new(n, [L, L, L])),
        0,
        n,
    )));
    (
        QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only()),
        pos,
    )
}

#[test]
fn acceptance_approaches_one_as_tau_vanishes() {
    // For tau -> 0 the drifted Gaussian proposal is tiny and detailed
    // balance accepts almost everything.
    let (mut eng, pos) = engine(4, 1);
    let mut walkers = initial_population::<f64>(&pos, 2, 5);
    let res = run_vmc(
        &mut eng,
        &mut walkers,
        &VmcParams {
            blocks: 1,
            steps_per_block: 10,
            tau: 1e-6,
            measure_every: 5,
            ..Default::default()
        },
    );
    assert!(res.acceptance > 0.99, "acceptance {}", res.acceptance);
}

#[test]
fn acceptance_drops_for_large_tau() {
    let (mut eng, pos) = engine(4, 2);
    let small = {
        let mut walkers = initial_population::<f64>(&pos, 2, 7);
        run_vmc(
            &mut eng,
            &mut walkers,
            &VmcParams {
                blocks: 1,
                steps_per_block: 10,
                tau: 0.05,
                measure_every: 5,
                ..Default::default()
            },
        )
        .acceptance
    };
    let (mut eng2, pos2) = engine(4, 2);
    let large = {
        let mut walkers = initial_population::<f64>(&pos2, 2, 7);
        run_vmc(
            &mut eng2,
            &mut walkers,
            &VmcParams {
                blocks: 1,
                steps_per_block: 10,
                tau: 2.0,
                measure_every: 5,
                ..Default::default()
            },
        )
        .acceptance
    };
    assert!(
        large < small,
        "large-tau acceptance {large} should be below small-tau {small}"
    );
}

#[test]
fn dmc_population_feedback_recovers_from_overpopulation() {
    let (mut eng, pos) = engine(4, 3);
    // Start with 3x the target population: feedback must shrink it toward
    // the target without extinction.
    let mut walkers = initial_population::<f64>(&pos, 24, 11);
    let res = run_dmc(
        &mut eng,
        &mut walkers,
        &DmcParams {
            steps: 30,
            warmup: 5,
            tau: 0.02,
            target_population: 8,
            recompute_every: 10,
            seed: 13,
            ..Default::default()
        },
    );
    let final_pop = *res.population.last().unwrap();
    assert!(
        (4..=16).contains(&final_pop),
        "population {final_pop} should converge near target 8"
    );
}

#[test]
fn vmc_samples_counted_correctly() {
    let (mut eng, pos) = engine(3, 4);
    let mut walkers = initial_population::<f64>(&pos, 3, 17);
    let params = VmcParams {
        blocks: 2,
        steps_per_block: 5,
        tau: 0.2,
        measure_every: 1,
        ..Default::default()
    };
    let res = run_vmc(&mut eng, &mut walkers, &params);
    // 2 blocks x 5 steps x 3 walkers sweeps; one measurement per sweep.
    assert_eq!(res.samples, 30);
    assert_eq!(res.energy.len(), 30);
}

#[test]
fn dmc_warmup_excluded_from_statistics() {
    let (mut eng, pos) = engine(3, 5);
    let mut walkers = initial_population::<f64>(&pos, 4, 19);
    let params = DmcParams {
        steps: 10,
        warmup: 4,
        tau: 0.02,
        target_population: 4,
        recompute_every: 0,
        seed: 21,
        ..Default::default()
    };
    let res = run_dmc(&mut eng, &mut walkers, &params);
    // Only steps 4..10 contribute estimator samples.
    assert_eq!(res.energy.len(), 6);
    assert_eq!(res.population.len(), 10);
}
