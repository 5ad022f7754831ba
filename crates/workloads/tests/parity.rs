//! Bitwise parity of the drivers across every execution shape.
//!
//! `crew::fan_out_tasks` is the program's one spawn site: each task owns a
//! disjoint `&mut` chunk of walkers, results come back in task order and
//! every cross-walker sum runs through `det_sum*` after the join. So no
//! thread schedule can change a bit. What could still change one is a
//! reduction whose shape follows the chunks, and a sweep over thread
//! counts, crew kinds and restarts catches that. Every run goes through
//! the one driver entry point of its method and is compared per walker
//! (`walker_digest_full`: buffers, positions, weight, age and raw RNG
//! words) and on its scalar outputs.

use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, population_digest, read_dmc_checkpoint, read_vmc_checkpoint, run_dmc,
    run_multi_rank, run_vmc, walker_digest_full, Batching, CheckpointSpec, Crew, DmcParams,
    DmcResult, DriverKind, Fnv, QmcEngine, RunControl, VmcParams,
};
use qmc_kernels::Backend;
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use std::sync::{PoisonError, RwLock};

/// `qmc_kernels::set_backend` is process-wide and engines capture it when
/// they are built, while the tests of one binary run on parallel threads:
/// a test that switches the backend holds this exclusively, a test that
/// builds engines holds it shared.
static BACKEND: RwLock<()> = RwLock::new(());

fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    BACKEND.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    BACKEND.write().unwrap_or_else(PoisonError::into_inner)
}

/// The kind of crew a run executes on. Engines and plain crowds are
/// bitwise identical per walker; fused crowds regroup the floating point
/// of block refreshes, so they hold parity among themselves only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrewKind {
    /// One `QmcEngine` per thread, one walker at a time.
    Engines,
    /// One lock-step crowd of [`CROWD_SIZE`] walkers per thread.
    Crowds,
    /// Crowds with the fused (multi-walker SPO kernel) block refresh.
    FusedCrowds,
}

/// Walkers per lock-step block of the crowds.
const CROWD_SIZE: usize = 2;

impl CrewKind {
    const ALL: [CrewKind; 3] = [CrewKind::Engines, CrewKind::Crowds, CrewKind::FusedCrowds];

    fn batching(self) -> Batching {
        match self {
            CrewKind::Engines => Batching::PerWalker,
            CrewKind::Crowds | CrewKind::FusedCrowds => Batching::Crowd(CROWD_SIZE),
        }
    }
}

/// One execution shape of one method.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// VMC (`steps` blocks) or DMC (`steps` generations).
    driver: DriverKind,
    /// What the crew is made of.
    crew: CrewKind,
    /// Crew members (worker threads).
    threads: usize,
}

fn shape(driver: DriverKind, crew: CrewKind, threads: usize) -> Shape {
    Shape {
        driver,
        crew,
        threads,
    }
}

/// Problem size of one run.
#[derive(Clone, Copy, Debug)]
struct Cfg {
    walkers: usize,
    steps: usize,
    seed: u64,
}

/// Seven walkers, so no thread count above 1 divides them evenly.
const SWEEP: Cfg = Cfg {
    walkers: 7,
    steps: 4,
    seed: 99,
};

/// Six walkers for six steps, cut at the interior step 3.
const RESUME: Cfg = Cfg {
    walkers: 6,
    steps: 6,
    seed: 1234,
};

/// One run's per-walker digests, in walker order, and its scalar outputs
/// folded into one digest.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Run {
    walkers: Vec<u64>,
    scalars: u64,
}

fn graphite(seed: u64) -> Workload {
    Workload::new(Benchmark::Graphite, Size::Scaled, seed)
}

/// Runs `shape` for `cfg.steps` steps: builds the crew the shape names,
/// starts from fresh walkers or, with `resume`, from that checkpoint file,
/// and writes checkpoints at the `checkpoint` cadence.
fn run_shape(
    w: &Workload,
    shape: Shape,
    cfg: &Cfg,
    resume: Option<&str>,
    checkpoint: Option<CheckpointSpec>,
) -> Run {
    let build = || w.build_engine_f32(CodeVersion::Current);
    match shape.crew {
        CrewKind::Engines => {
            let mut crew: Vec<QmcEngine<f32>> = (0..shape.threads).map(|_| build()).collect();
            drive(&mut crew, w, shape, cfg, resume, checkpoint)
        }
        CrewKind::Crowds | CrewKind::FusedCrowds => {
            let mut crew = CrowdScheduler::new(shape.threads, CROWD_SIZE)
                .with_fused_refresh(shape.crew == CrewKind::FusedCrowds)
                .build_crowds(build);
            drive(&mut crew, w, shape, cfg, resume, checkpoint)
        }
    }
}

fn drive<C: Crew<f32>>(
    crew: &mut [C],
    w: &Workload,
    shape: Shape,
    cfg: &Cfg,
    resume: Option<&str>,
    checkpoint: Option<CheckpointSpec>,
) -> Run {
    let fresh = || initial_population::<f32>(w.initial_positions(), cfg.walkers, cfg.seed);
    let mut control = RunControl {
        checkpoint,
        on_block: None,
    };
    let mut scalars = Fnv::new();
    let walkers = match shape.driver {
        DriverKind::Dmc => {
            let restored =
                resume.map(|path| read_dmc_checkpoint(path).expect("read DMC checkpoint"));
            let (state, mut walkers) = match restored {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = DmcParams {
                steps: cfg.steps,
                warmup: 1,
                tau: 0.003,
                target_population: cfg.walkers,
                recompute_every: 2,
                seed: cfg.seed ^ 0xD00D,
                batching: shape.crew.batching(),
            };
            let (res, _profile) = run_dmc(crew, &mut walkers, &params, state, &mut control)
                .expect("scratch checkpoint path is writable");
            // Per-generation energies and trial energies: a last-bit
            // difference in one generation's sum can round away in the
            // run's mean.
            for &e in res.energy.samples().iter().chain(&res.e_trial_trace) {
                scalars.f64(e);
            }
            scalars.f64(res.energy.mean());
            scalars.f64(res.acceptance);
            scalars.u64(res.samples);
            for &p in &res.population {
                scalars.u64(p as u64);
            }
            walkers
        }
        DriverKind::Vmc => {
            let restored =
                resume.map(|path| read_vmc_checkpoint(path).expect("read VMC checkpoint"));
            let (state, mut walkers) = match restored {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = VmcParams {
                blocks: cfg.steps,
                steps_per_block: 3,
                tau: 0.3,
                measure_every: 1,
                batching: shape.crew.batching(),
            };
            let (res, _profile) = run_vmc(crew, &mut walkers, &params, state, &mut control)
                .expect("scratch checkpoint path is writable");
            for &e in res.energy.samples() {
                scalars.f64(e);
            }
            scalars.f64(res.energy.mean());
            scalars.f64(res.acceptance);
            scalars.u64(res.samples);
            walkers
        }
    };
    Run {
        walkers: walkers.iter().map(walker_digest_full::<f32>).collect(),
        scalars: scalars.value(),
    }
}

/// Runs `shape` killed at the interior step `cfg.steps / 2` (the periodic
/// cadence writes the checkpoint, as in a real job) and resumed from the
/// file to `cfg.steps` on a freshly built crew of shape `resumed_on`.
/// Returns the resumed run.
fn run_shape_resumed(w: &Workload, shape: Shape, resumed_on: Shape, cfg: &Cfg, tag: &str) -> Run {
    let cut = cfg.steps / 2;
    assert!(cut > 0 && cut < cfg.steps, "no interior step to cut at");
    let dir = std::env::temp_dir().join(format!("qmc_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir
        .join(format!("{tag}.qmc"))
        .to_string_lossy()
        .into_owned();
    let spec = CheckpointSpec {
        path: path.clone(),
        every: cut,
    };
    let killed = Cfg { steps: cut, ..*cfg };
    run_shape(w, shape, &killed, None, Some(spec));
    let run = run_shape(w, resumed_on, cfg, Some(&path), None);
    // Scratch file: a leftover only costs disk, so a failed removal is ignored.
    let _ = std::fs::remove_file(&path);
    run
}

/// Every run of one set equals the first, per walker and on the scalars.
fn assert_one_bit_pattern(what: &str, runs: &[(String, Run)]) {
    let (first_label, first) = &runs[0];
    assert!(!first.walkers.is_empty(), "{what}: no walkers");
    for (label, run) in &runs[1..] {
        assert_eq!(
            first.walkers, run.walkers,
            "{what}: per-walker digests differ between {first_label} and {label}"
        );
        assert_eq!(
            first.scalars, run.scalars,
            "{what}: scalar outputs differ between {first_label} and {label}"
        );
    }
}

/// The thread-and-crew-shape sets of one method: engines at 1, 3 and 4
/// threads with crowds at 1 and 2 (ragged chunks over seven walkers);
/// fused crowds at 1 and 2 threads; and five engine threads over three
/// walkers against one.
fn assert_shapes_agree(driver: DriverKind) {
    let w = graphite(SWEEP.seed);
    let sweep = |cfg: &Cfg, shapes: &[(CrewKind, usize)]| -> Vec<(String, Run)> {
        shapes
            .iter()
            .map(|&(crew, threads)| {
                let run = run_shape(&w, shape(driver, crew, threads), cfg, None, None);
                (format!("{crew:?}x{threads}"), run)
            })
            .collect()
    };
    use CrewKind::{Crowds, Engines, FusedCrowds};
    let plain = [
        (Engines, 1),
        (Engines, 3),
        (Engines, 4),
        (Crowds, 1),
        (Crowds, 2),
    ];
    assert_one_bit_pattern(
        &format!("{driver:?} engines and crowds"),
        &sweep(&SWEEP, &plain),
    );
    let fused = [(FusedCrowds, 1), (FusedCrowds, 2)];
    assert_one_bit_pattern(&format!("{driver:?} fused crowds"), &sweep(&SWEEP, &fused));
    let few = Cfg {
        walkers: 3,
        ..SWEEP
    };
    let idle = [(Engines, 1), (Engines, 5)];
    assert_one_bit_pattern(
        &format!("{driver:?} more threads than walkers"),
        &sweep(&few, &idle),
    );
}

#[test]
fn vmc_is_bitwise_across_thread_counts_and_crew_kinds() {
    let _backend = shared();
    assert_shapes_agree(DriverKind::Vmc);
}

#[test]
fn dmc_is_bitwise_across_thread_counts_and_crew_kinds() {
    let _backend = shared();
    assert_shapes_agree(DriverKind::Dmc);
}

/// A run killed at an interior step and resumed from the file on crew
/// `onto` ends bitwise equal to the straight run on crew `from`.
fn assert_resume_matches(w: &Workload, from: Shape, onto: Shape) {
    // Names the checkpoint file too, so it carries the backend: no two
    // tests that may run at once share a file.
    let tag = format!(
        "{}-{:?}-{:?}{}-onto-{:?}{}",
        Backend::current().label(),
        from.driver,
        from.crew,
        from.threads,
        onto.crew,
        onto.threads
    );
    let straight = run_shape(w, from, &RESUME, None, None);
    let resumed = run_shape_resumed(w, from, onto, &RESUME, &tag);
    assert_one_bit_pattern(
        &tag,
        &[("straight".into(), straight), ("resumed".into(), resumed)],
    );
}

#[test]
fn checkpoint_resume_is_bitwise_on_every_method_and_crew_kind() {
    let _backend = shared();
    let w = graphite(RESUME.seed);
    for driver in [DriverKind::Dmc, DriverKind::Vmc] {
        for crew in CrewKind::ALL {
            let s = shape(driver, crew, 3);
            assert_resume_matches(&w, s, s);
        }
    }
}

/// A checkpoint pins physics state, not execution shape: a job killed on
/// one crew and restarted on another of a different kind and size is
/// bitwise too.
#[test]
fn checkpoint_resumes_bitwise_on_a_different_crew() {
    let _backend = shared();
    let w = graphite(RESUME.seed);
    use CrewKind::{Crowds, Engines};
    use DriverKind::{Dmc, Vmc};
    for (from, onto) in [
        (shape(Dmc, Engines, 3), shape(Dmc, Crowds, 2)),
        (shape(Dmc, Crowds, 2), shape(Dmc, Engines, 1)),
        (shape(Vmc, Engines, 2), shape(Vmc, Crowds, 1)),
    ] {
        assert_resume_matches(&w, from, onto);
    }
}

#[test]
fn checkpoint_resume_is_bitwise_on_the_reference_backend() {
    let _backend = exclusive();
    let w = graphite(RESUME.seed);
    let saved = Backend::current();
    qmc_kernels::set_backend(Backend::Reference);
    let s = shape(DriverKind::Dmc, CrewKind::Engines, 3);
    assert_resume_matches(&w, s, s);
    qmc_kernels::set_backend(saved);
}

/// `reference` and `simd` are bitwise equal in every kernel family, so a
/// whole VMC trajectory digests equal per walker on either.
#[test]
fn reference_and_simd_backends_give_bitwise_equal_vmc_trajectories() {
    let _backend = exclusive();
    let w = graphite(SWEEP.seed);
    let saved = Backend::current();
    let runs: Vec<(String, Run)> = Backend::ALL
        .into_iter()
        .map(|backend| {
            // Engines capture the backend when they are built.
            qmc_kernels::set_backend(backend);
            let s = shape(DriverKind::Vmc, CrewKind::Engines, 4);
            (
                backend.label().to_string(),
                run_shape(&w, s, &SWEEP, None, None),
            )
        })
        .collect();
    qmc_kernels::set_backend(saved);
    assert_eq!(runs.len(), 2);
    assert_one_bit_pattern("VMC across backends", &runs);
}

/// The DMC of the multi-rank tests: twelve walkers at a time step that
/// makes them migrate, refreshed from scratch every second generation.
fn rank_params() -> DmcParams {
    DmcParams {
        steps: SWEEP.steps,
        warmup: 1,
        tau: 0.02,
        target_population: 12,
        recompute_every: 2,
        seed: SWEEP.seed ^ 0x5EED,
        batching: Batching::PerWalker,
    }
}

fn rank_walkers(w: &Workload) -> Vec<qmc_drivers::Walker<f32>> {
    initial_population(w.initial_positions(), 12, SWEEP.seed)
}

/// Every scalar output of a DMC result, bit for bit, and the final
/// population's digest.
fn dmc_digest(res: &DmcResult, walkers: &[qmc_drivers::Walker<f32>]) -> (Vec<u64>, u64) {
    let mut bits: Vec<u64> = res
        .energy
        .samples()
        .iter()
        .chain(&res.e_trial_trace)
        .map(|e| e.to_bits())
        .collect();
    bits.extend(res.population.iter().map(|&p| p as u64));
    bits.extend([res.samples, res.acceptance.to_bits()]);
    (bits, population_digest(walkers))
}

/// One rank is one engine running the program's DMC: `run_multi_rank`
/// over a single engine is bitwise `run_dmc` over it, refreshes included.
#[test]
fn one_rank_is_bitwise_run_dmc() {
    let _backend = shared();
    let w = graphite(SWEEP.seed);
    let params = rank_params();

    let mut engine = w.build_engine_f32(CodeVersion::Current);
    let mut walkers = rank_walkers(&w);
    let (res, profile) = run_dmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    )
    .expect("an uncontrolled run writes no checkpoint");

    let mut rank = w.build_engine_f32(CodeVersion::Current);
    let mut rank_walkers = rank_walkers(&w);
    let (rank_res, rank_profile, exchange) =
        run_multi_rank(std::slice::from_mut(&mut rank), &mut rank_walkers, &params);

    assert_eq!(
        dmc_digest(&rank_res, &rank_walkers),
        dmc_digest(&res, &walkers)
    );
    assert_eq!(exchange.walkers, 0, "one rank has no one to send to");
    let refreshes = profile.total.drift.refreshes;
    assert!(refreshes > 0, "the run never refreshed");
    assert_eq!(rank_profile.total.drift.refreshes, refreshes);
}

/// Ranks meet only at the fork-join of `fan_out_tasks`: the allreduce runs
/// `det_sum_by` over rank-indexed partials and the coordinator moves
/// serialized walkers between the ranks by ascending rank. The population
/// and time step make walkers really migrate, so a repeat at each rank
/// count puts the exchange path under test; at 3 ranks and more a repeat
/// is how an exchange race was once found.
#[test]
fn multi_rank_runs_repeat_bitwise_at_2_3_and_4_ranks() {
    let _backend = shared();
    let w = graphite(SWEEP.seed);
    let params = rank_params();
    for ranks in [2, 3, 4] {
        let [a, b] = [(); 2].map(|()| {
            let mut engines: Vec<QmcEngine<f32>> = (0..ranks)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let mut walkers = rank_walkers(&w);
            let (res, profile, exchange) = run_multi_rank(&mut engines, &mut walkers, &params);
            assert!(exchange.walkers > 0, "{ranks} ranks: no walker migrated");
            assert!(
                profile.total.drift.refreshes > 0,
                "{ranks} ranks: no refresh counted"
            );
            (dmc_digest(&res, &walkers), exchange)
        });
        assert_eq!(a, b, "{ranks} ranks: a repeat changed the result");
    }
}

#[test]
fn thread_sweep_would_catch_an_injected_bare_merge() {
    // Negative control for the sweep: re-create the exact defect
    // `det_sum` exists to prevent — per-chunk partial folds merged in
    // chunk-completion order — and
    // show the 1/3/4-thread fingerprints diverge, while the
    // deterministic tree over the same terms does not. If this test
    // ever starts failing on the `injected` side, the sweep has
    // lost its teeth.
    let terms: Vec<f64> = (0..1000)
        .map(|i| {
            let s = if i % 3 == 0 { -1.0 } else { 1.0 };
            s * (1.0 + i as f64 * 1e-3) * 10f64.powi((i % 7) - 3)
        })
        .collect();
    let injected: Vec<u64> = [1usize, 3, 4]
        .iter()
        .map(|&threads| {
            let per = terms.len().div_ceil(threads);
            let mut acc = 0.0; // the bare `+=` merge under test
            for chunk in terms.chunks(per) {
                acc += chunk.iter().sum::<f64>();
            }
            acc.to_bits()
        })
        .collect();
    assert_ne!(
        injected[0], injected[2],
        "term series too tame to expose the bare merge"
    );
    let det: Vec<u64> = [1usize, 3, 4]
        .iter()
        .map(|_| qmc_drivers::det_sum(&terms).to_bits())
        .collect();
    assert!(det.windows(2).all(|w| w[0] == w[1]));
}
