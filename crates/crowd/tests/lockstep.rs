//! Lock-step parity: the drivers on a crew of crowds must be bit-identical
//! to the drivers on a crew of engines for any crowd size (walkers keep
//! private RNG streams and their per-walker floating-point op sequences
//! are unchanged).

use qmc_containers::{Pos, TinyVector};
use qmc_crowd::{Crowd, CrowdScheduler};
use qmc_drivers::{
    initial_population, Crew, DmcParams, DmcResult, HamiltonianSet, QmcEngine, RunControl,
    VmcParams, VmcResult, Walker,
};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DetUpdateMode, DiracDeterminant, TrialWaveFunction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 6.0;

/// Uncontrolled VMC over `crew`.
fn run_vmc<C: Crew<f64>>(
    crew: &mut [C],
    walkers: &mut [Walker<f64>],
    params: &VmcParams,
) -> VmcResult {
    let run = qmc_drivers::run_vmc(crew, walkers, params, None, &mut RunControl::none());
    run.expect("no checkpoint to write").0
}

/// Uncontrolled DMC over `crew`.
fn run_dmc<C: Crew<f64>>(
    crew: &mut [C],
    walkers: &mut Vec<Walker<f64>>,
    params: &DmcParams,
) -> DmcResult {
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
        DetUpdateMode::ShermanMorrison,
    )));
    (
        QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only()),
        pos,
    )
}

fn assert_walkers_bitwise(a: &[Walker<f64>], b: &[Walker<f64>]) {
    assert_eq!(a.len(), b.len());
    for (i, (wa, wb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(wa.e_local, wb.e_local, "walker {i} e_local");
        assert_eq!(wa.weight, wb.weight, "walker {i} weight");
        assert_eq!(wa.log_psi, wb.log_psi, "walker {i} log_psi");
        for (ra, rb) in wa.r.iter().zip(wb.r.iter()) {
            assert_eq!(ra.0, rb.0, "walker {i} positions");
        }
    }
}

#[test]
fn vmc_crowd_is_bitwise_per_walker_for_any_crowd_size() {
    let n = 4;
    let params = VmcParams {
        blocks: 2,
        steps_per_block: 6,
        tau: 0.4,
        measure_every: 2,
        ..Default::default()
    };
    let (mut eng, pos) = engine(n, 17);
    let mut ref_walkers = initial_population::<f64>(&pos, 5, 23);
    let reference = run_vmc(std::slice::from_mut(&mut eng), &mut ref_walkers, &params);

    // Crowd sizes below, equal to, and above the population; 5 walkers
    // exercise a ragged final block.
    for crowd_size in [1usize, 2, 5, 8] {
        let slots = (0..crowd_size).map(|_| engine(n, 17).0).collect();
        let mut crowd = Crowd::new(slots);
        let mut walkers = initial_population::<f64>(&pos, 5, 23);
        let res = run_vmc(std::slice::from_mut(&mut crowd), &mut walkers, &params);
        assert_eq!(
            res.energy.blocking(),
            reference.energy.blocking(),
            "crowd {crowd_size} energy"
        );
        assert_eq!(res.acceptance, reference.acceptance, "crowd {crowd_size}");
        assert_eq!(res.samples, reference.samples);
        assert_walkers_bitwise(&walkers, &ref_walkers);
    }

    // Crews of more than one member: crowds and engines over threads.
    let mut crowds = CrowdScheduler::new(2, 2).build_crowds(|| engine(n, 17).0);
    let mut walkers = initial_population::<f64>(&pos, 5, 23);
    let res = run_vmc(&mut crowds, &mut walkers, &params);
    assert_eq!(res.energy.blocking(), reference.energy.blocking());
    assert_walkers_bitwise(&walkers, &ref_walkers);
    let mut engines: Vec<QmcEngine<f64>> = (0..3).map(|_| engine(n, 17).0).collect();
    let mut walkers = initial_population::<f64>(&pos, 5, 23);
    let res = run_vmc(&mut engines, &mut walkers, &params);
    assert_eq!(res.energy.blocking(), reference.energy.blocking());
    assert_eq!(res.acceptance, reference.acceptance);
    assert_walkers_bitwise(&walkers, &ref_walkers);
}

#[test]
fn dmc_crowd_is_bitwise_per_walker_crew() {
    let n = 4;
    let params = DmcParams {
        steps: 8,
        warmup: 2,
        tau: 0.02,
        target_population: 6,
        recompute_every: 3,
        seed: 0xA1,
        ..Default::default()
    };
    let mut engines: Vec<QmcEngine<f64>> = (0..2).map(|_| engine(n, 31).0).collect();
    let pos = engine(n, 31).1;
    let mut ref_walkers = initial_population::<f64>(&pos, 6, 41);
    let reference = run_dmc(&mut engines, &mut ref_walkers, &params);

    for (threads, crowd_size) in [(1usize, 1usize), (1, 4), (2, 3), (3, 8)] {
        let sched = CrowdScheduler::new(threads, crowd_size);
        let mut crowds = sched.build_crowds(|| engine(n, 31).0);
        let mut walkers = initial_population::<f64>(&pos, 6, 41);
        let res = run_dmc(&mut crowds, &mut walkers, &params);
        let tag = format!("threads {threads} crowd {crowd_size}");
        assert_eq!(res.energy.blocking(), reference.energy.blocking(), "{tag}");
        assert_eq!(res.population, reference.population, "{tag}");
        assert_eq!(res.e_trial, reference.e_trial, "{tag}");
        assert_eq!(res.samples, reference.samples, "{tag}");
        assert_eq!(res.acceptance, reference.acceptance, "{tag}");
        assert_walkers_bitwise(&walkers, &ref_walkers);
    }
}

#[test]
fn dmc_crowd_handles_empty_population() {
    let sched = CrowdScheduler::new(2, 2);
    let mut crowds = sched.build_crowds(|| engine(3, 5).0);
    let mut walkers: Vec<Walker<f64>> = Vec::new();
    let params = DmcParams {
        steps: 2,
        warmup: 0,
        target_population: 4,
        ..Default::default()
    };
    let res = run_dmc(&mut crowds, &mut walkers, &params);
    assert_eq!(res.samples, 0);
    assert!(res.energy.blocking().0.is_finite() || res.energy.blocking().0.is_nan());
}
