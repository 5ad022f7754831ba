//! # qmcsched — deterministic schedule checker for the QMC drivers
//!
//! The VMC and DMC drivers claim a strong property of every walker crew
//! they run over (engines, lock-step crowds, fused crowds): results are
//! **bitwise independent of the thread schedule**, because every walker carries its own RNG stream and every
//! cross-walker reduction happens sequentially in walker order after the
//! parallel section. PR 1's tests exercised that claim only under the
//! schedules the OS happened to produce. This crate makes the claim a
//! checked artifact, loom-style but sized to our in-tree shims: the rayon
//! shim's work distribution is replaced by an explicitly enumerated /
//! seeded set of thread interleavings (`rayon::schedule`), the same run is
//! repeated under each, and every per-walker result must come out
//! identical to the bit.
//!
//! Two layers consume it:
//!
//! * `cargo test -p qmcsched` — the parity tests CI gates on.
//! * the `qmcsched` binary — emits a `qmcsched/1` JSON report (same
//!   hand-rolled writer as the run report) for the observability pipeline.

#![forbid(unsafe_code)]

use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, read_dmc_checkpoint, read_vmc_checkpoint, run_dmc, run_multi_rank, run_vmc,
    Batching, CheckpointSpec, Crew, DmcParams, DriverKind, MultiRankParams, QmcEngine, RunControl,
    VmcParams, Walker,
};
use qmc_instrument::json::JsonWriter;
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use rayon::schedule::{with_schedule, Order, Schedule};

/// The explored schedule set: one free-running control plus serialized and
/// staggered permutations of the task order. Ten schedules, all with
/// distinct labels; the serialized orders are pairwise-distinct
/// permutations for any task count ≥ 4 (asserted in the tests).
pub fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::Concurrent,
        Schedule::Serial(Order::Forward),
        Schedule::Serial(Order::Reverse),
        Schedule::Serial(Order::Rotate(1)),
        Schedule::Serial(Order::Rotate(3)),
        Schedule::Serial(Order::EvenOdd),
        Schedule::Serial(Order::Shuffle(0xA5A5)),
        Schedule::Serial(Order::Shuffle(0x0FF1CE)),
        Schedule::Staggered(Order::Reverse),
        Schedule::Staggered(Order::Shuffle(0xBEEF)),
    ]
}

// The FNV-1a digest machinery started here and moved into
// `qmc_drivers::fingerprint` when checkpoint/restart needed it too; the
// schedule harness keeps its public names via re-export. The full-state
// variants (`walker_digest_full`, `population_digest`) additionally fold
// the raw RNG state words — serialization no longer perturbs the walker,
// so digesting the stream is free.
pub use qmc_drivers::fingerprint::{population_digest, walker_digest, walker_digest_full, Fnv};

/// Outcome of one driver run under one schedule: per-walker digests plus
/// the driver's scalar outputs (all compared bitwise).
#[derive(Clone, Debug, PartialEq)]
pub struct RunFingerprint {
    /// Schedule label the run executed under.
    pub schedule: String,
    /// One digest per surviving walker, in walker order.
    pub walkers: Vec<u64>,
    /// Driver scalar outputs folded into one digest (energy mean bits,
    /// acceptance bits, sample count).
    pub scalars: u64,
}

/// Parity verdict for one driver across the whole schedule set.
#[derive(Clone, Debug)]
pub struct DriverParity {
    /// Case label (`vmc-engines`, `dmc-fused-crowds`, `dmc-thread-sweep`, ...).
    pub driver: String,
    /// One fingerprint per explored schedule.
    pub runs: Vec<RunFingerprint>,
}

impl DriverParity {
    /// True when every run produced bitwise-identical per-walker digests
    /// and scalar outputs.
    pub fn parity(&self) -> bool {
        self.runs
            .windows(2)
            .all(|w| w[0].walkers == w[1].walkers && w[0].scalars == w[1].scalars)
    }
}

/// Harness problem size: small enough for CI, uneven enough to exercise
/// ragged chunking (walkers not divisible by threads or crowd size).
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Worker threads (tasks per scope — the unit the schedules permute).
    pub threads: usize,
    /// Walker population.
    pub walkers: usize,
    /// DMC generations / VMC blocks.
    pub steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            walkers: 7,
            steps: 4,
            seed: 99,
        }
    }
}

fn workload(seed: u64) -> Workload {
    Workload::new(Benchmark::Graphite, Size::Scaled, seed)
}

/// The kind of crew a run executes on. Engines and plain crowds are
/// bitwise identical per walker; fused crowds regroup the floating point
/// of block refreshes, so they hold parity among themselves only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrewKind {
    /// One `QmcEngine` per thread, one walker at a time.
    Engines,
    /// One lock-step crowd of [`CROWD_SIZE`] walkers per thread.
    Crowds,
    /// Crowds with the fused (multi-walker SPO kernel) block refresh.
    FusedCrowds,
}

/// Walkers per lock-step block of the harness crowds.
pub const CROWD_SIZE: usize = 2;

impl CrewKind {
    /// Every crew kind, in the order the explorations cross them.
    pub const ALL: [CrewKind; 3] = [CrewKind::Engines, CrewKind::Crowds, CrewKind::FusedCrowds];

    /// Short stable label for reports and test output.
    pub fn label(self) -> &'static str {
        match self {
            CrewKind::Engines => "engines",
            CrewKind::Crowds => "crowds",
            CrewKind::FusedCrowds => "fused-crowds",
        }
    }

    fn batching(self) -> Batching {
        match self {
            CrewKind::Engines => Batching::PerWalker,
            CrewKind::Crowds | CrewKind::FusedCrowds => Batching::Crowd(CROWD_SIZE),
        }
    }
}

/// One execution shape of one method: what a harness run varies besides
/// the schedule.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// VMC (`cfg.steps` blocks) or DMC (`cfg.steps` generations).
    pub driver: DriverKind,
    /// What the crew is made of.
    pub crew: CrewKind,
    /// Crew members (worker threads).
    pub threads: usize,
}

impl Shape {
    /// `vmc-engines`, `dmc-fused-crowds`, ...
    pub fn label(self) -> String {
        format!("{}-{}", self.driver.label(), self.crew.label())
    }
}

fn vmc_params(cfg: &HarnessConfig, batching: Batching) -> VmcParams {
    VmcParams {
        blocks: cfg.steps,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
        batching,
    }
}

fn dmc_params(cfg: &HarnessConfig, batching: Batching) -> DmcParams {
    DmcParams {
        steps: cfg.steps,
        warmup: 1,
        tau: 0.003,
        target_population: cfg.walkers,
        recompute_every: 2,
        seed: cfg.seed ^ 0xD00D,
        batching,
    }
}

fn fingerprint(label: String, walkers: &[Walker<f32>], scalars: u64) -> RunFingerprint {
    RunFingerprint {
        schedule: label,
        walkers: walkers.iter().map(walker_digest_full).collect(),
        scalars,
    }
}

/// Runs `shape` once for `cfg.steps` steps through the one driver entry
/// point of its method: builds the crew the shape names, starts from
/// fresh walkers or — with `resume` — from that checkpoint file, and
/// writes checkpoints at the `checkpoint` cadence. The fingerprint's
/// `schedule` label is `threads:N`.
pub fn run_shape(
    w: &Workload,
    shape: Shape,
    cfg: &HarnessConfig,
    resume: Option<&str>,
    checkpoint: Option<CheckpointSpec>,
) -> RunFingerprint {
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
    cfg: &HarnessConfig,
    resume: Option<&str>,
    checkpoint: Option<CheckpointSpec>,
) -> RunFingerprint {
    let fresh = || initial_population::<f32>(w.initial_positions(), cfg.walkers, cfg.seed);
    let mut control = RunControl {
        checkpoint,
        on_block: None,
    };
    let label = format!("threads:{}", shape.threads);
    let mut scalars = Fnv::new();
    match shape.driver {
        DriverKind::Dmc => {
            let restored =
                resume.map(|path| read_dmc_checkpoint(path).expect("read DMC checkpoint"));
            let (state, mut walkers) = match restored {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = dmc_params(cfg, shape.crew.batching());
            let (res, _profile) = run_dmc(crew, &mut walkers, &params, state, &mut control)
                .expect("harness checkpoint path is writable");
            scalars.f64(res.energy.mean());
            scalars.f64(res.acceptance);
            scalars.f64(res.e_trial);
            scalars.u64(res.samples);
            for &p in &res.population {
                scalars.u64(p as u64);
            }
            fingerprint(label, &walkers, scalars.value())
        }
        DriverKind::Vmc => {
            let restored =
                resume.map(|path| read_vmc_checkpoint(path).expect("read VMC checkpoint"));
            let (state, mut walkers) = match restored {
                Some((state, walkers)) => (Some(state), walkers),
                None => (None, fresh()),
            };
            let params = vmc_params(cfg, shape.crew.batching());
            let (res, _profile) = run_vmc(crew, &mut walkers, &params, state, &mut control)
                .expect("harness checkpoint path is writable");
            scalars.f64(res.energy.mean());
            scalars.f64(res.acceptance);
            scalars.u64(res.samples);
            fingerprint(label, &walkers, scalars.value())
        }
    }
}

/// Runs `shape` killed at the interior step `cfg.steps / 2` (the periodic
/// cadence writes the checkpoint, as in a real job) and resumed from the
/// file to `cfg.steps` on a freshly built crew of shape `resumed_on` — the
/// restart path. The fingerprint is the resumed run's.
pub fn run_shape_resumed(
    w: &Workload,
    shape: Shape,
    resumed_on: Shape,
    cfg: &HarnessConfig,
    path: &str,
) -> RunFingerprint {
    let cut = cfg.steps / 2;
    assert!(cut > 0 && cut < cfg.steps, "no interior step to cut at");
    let spec = CheckpointSpec {
        path: path.to_string(),
        every: cut,
    };
    let killed = HarnessConfig { steps: cut, ..*cfg };
    run_shape(w, shape, &killed, None, Some(spec));
    let mut run = run_shape(w, resumed_on, cfg, Some(path), None);
    // Scratch file: a leftover only costs disk, so a failed removal is ignored.
    let _ = std::fs::remove_file(path);
    run.schedule.push_str("/resumed");
    run
}

/// A scratch checkpoint path private to this process.
pub fn scratch_path(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("qmcsched_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name).to_string_lossy().into_owned()
}

/// Runs one method on one crew kind at `cfg.threads` once under each
/// schedule of [`schedules`].
pub fn explore_schedules(driver: DriverKind, crew: CrewKind, cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let shape = Shape {
        driver,
        crew,
        threads: cfg.threads,
    };
    let runs = schedules()
        .into_iter()
        .map(|sched| RunFingerprint {
            schedule: sched.label(),
            ..with_schedule(sched, || run_shape(&w, shape, cfg, None, None))
        })
        .collect();
    DriverParity {
        driver: shape.label(),
        runs,
    }
}

/// Runs VMC on an engine crew once per kernel backend and compares the
/// trajectories per walker. The kernel library's verification contract
/// (`qmc-kernels`) documents `reference` and `soa` as bitwise-identical
/// on every kernel family, so the whole VMC trajectory must digest
/// equal to the bit — this case turns that documented contract into a
/// gated artifact. `simd` is deliberately excluded: its J2 kernel only
/// promises a tolerance, so trajectories may legitimately diverge.
pub fn explore_backends(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let shape = Shape {
        driver: DriverKind::Vmc,
        crew: CrewKind::Engines,
        threads: cfg.threads,
    };
    let prev = qmc_kernels::Backend::current();
    let runs = [qmc_kernels::Backend::Reference, qmc_kernels::Backend::Soa]
        .into_iter()
        .map(|backend| {
            // Engines capture the backend at construction, so it must be
            // pinned before the build.
            qmc_kernels::set_backend(backend);
            RunFingerprint {
                schedule: format!("backend:{}", backend.label()),
                ..run_shape(&w, shape, cfg, None, None)
            }
        })
        .collect();
    qmc_kernels::set_backend(prev);
    DriverParity {
        driver: "vmc-backends".into(),
        runs,
    }
}

/// Outcome of the f32-rung tolerance case: the `simd` backend's VMC
/// energy versus the `reference` backend's, with the window the gate
/// allows. `simd` is the one backend with a documented *tolerance* (not
/// bitwise) contract — its lane-split J2 reductions may round differently
/// — so a whole trajectory may legitimately diverge once an accept
/// decision flips. The runs stay statistically equivalent, so the gate
/// compares energies against the combined statistical error rather than
/// bits.
#[derive(Clone, Debug)]
pub struct SimdToleranceCase {
    /// Energy mean of the `reference`-backend run.
    pub reference_energy: f64,
    /// Energy mean of the `simd`-backend run.
    pub simd_energy: f64,
    /// Allowed |difference|: six combined standard errors plus a relative
    /// floor of 1e-6 (the bitwise-identical-trajectory fast path).
    pub tolerance: f64,
}

impl SimdToleranceCase {
    /// True when the simd energy sits inside the documented window.
    pub fn within_tolerance(&self) -> bool {
        (self.reference_energy - self.simd_energy).abs() <= self.tolerance
    }
}

/// The f32 rung of the backend parity ladder: runs VMC on an engine crew
/// (f32 engines) under the `reference` and `simd` kernel backends and
/// compares energies within [`SimdToleranceCase::tolerance`] — the
/// tolerance-contract companion to [`explore_backends`]' bitwise gate.
pub fn explore_simd_tolerance(cfg: &HarnessConfig) -> SimdToleranceCase {
    let w = workload(cfg.seed);
    let params = vmc_params(cfg, Batching::PerWalker);
    let prev = qmc_kernels::Backend::current();
    let run = |backend: qmc_kernels::Backend| {
        qmc_kernels::set_backend(backend);
        let mut engines: Vec<QmcEngine<f32>> = (0..cfg.threads)
            .map(|_| w.build_engine_f32(CodeVersion::Current))
            .collect();
        let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
        let (res, _profile) = run_vmc(
            &mut engines,
            &mut walkers,
            &params,
            None,
            &mut RunControl::none(),
        )
        .expect("an uncontrolled run writes no checkpoint");
        (res.energy.mean(), res.energy.variance(), res.samples)
    };
    let (e_ref, var_ref, n_ref) = run(qmc_kernels::Backend::Reference);
    let (e_simd, var_simd, n_simd) = run(qmc_kernels::Backend::Simd);
    qmc_kernels::set_backend(prev);
    let sem2 = var_ref / n_ref.max(1) as f64 + var_simd / n_simd.max(1) as f64;
    SimdToleranceCase {
        reference_energy: e_ref,
        simd_energy: e_simd,
        tolerance: 6.0 * sem2.sqrt() + 1e-6 * e_ref.abs(),
    }
}

/// Shape sweep: for each method, every crew kind at 1, 2 and 4 crew
/// members, each both run straight and killed at an interior step then
/// resumed from the checkpoint file — all through the one driver entry
/// point — demanding bitwise parity of every per-walker digest and every
/// scalar output. Engines and plain crowds share one parity set per
/// method (batching is purely an execution shape); fused crowds form
/// their own.
///
/// The schedule sweeps ([`explore_schedules`]) vary the interleaving at a
/// *fixed* shape; this case varies the shape itself, which also moves
/// every chunk boundary. It holds because per-walker trajectories are
/// walker-owned (own RNG stream, state loaded/stored per walker) and
/// every cross-walker reduction either drains sample buffers sequentially
/// in walker order or goes through `qmc_drivers::reduce::det_sum*`, whose
/// fixed-shape pairwise tree depends only on the term count — never on
/// crew size or chunking — and because a checkpoint pins physics state,
/// not execution shape.
pub fn explore_thread_sweep(cfg: &HarnessConfig) -> Vec<DriverParity> {
    let w = workload(cfg.seed);
    let mut out = Vec::new();
    for driver in [DriverKind::Vmc, DriverKind::Dmc] {
        let sets = [
            ("thread-sweep", &[CrewKind::Engines, CrewKind::Crowds][..]),
            ("fused-thread-sweep", &[CrewKind::FusedCrowds][..]),
        ];
        for (name, kinds) in sets {
            let mut runs = Vec::new();
            for &crew in kinds {
                for threads in [1usize, 2, 4] {
                    let shape = Shape {
                        driver,
                        crew,
                        threads,
                    };
                    let tag = |run: RunFingerprint| RunFingerprint {
                        schedule: format!("{}/{}", crew.label(), run.schedule),
                        ..run
                    };
                    runs.push(tag(run_shape(&w, shape, cfg, None, None)));
                    let path = scratch_path(&format!("{}-{threads}.qmc", shape.label()));
                    runs.push(tag(run_shape_resumed(&w, shape, shape, cfg, &path)));
                }
            }
            out.push(DriverParity {
                driver: format!("{}-{name}", driver.label()),
                runs,
            });
        }
    }
    out
}

/// Runs the simulated multi-rank DMC once under each schedule of
/// [`schedules`] at 2, 3 and 4 ranks — one parity set per rank count —
/// comparing all four result scalars bitwise. It holds because ranks meet
/// only at the fork-join of `fan_out_tasks`: the allreduce reduces
/// rank-indexed partials with `det_sum_by`, and the coordinator moves
/// serialized walkers through the exchange pool by ascending rank, so
/// neither the energy nor walker placement can see the schedule. The
/// population and time step make walkers really migrate (asserted per
/// run), so the exchange path is what is being swept.
pub fn explore_multi_rank(cfg: &HarnessConfig) -> Vec<DriverParity> {
    let w = workload(cfg.seed);
    let explore = |ranks: usize| {
        let params = MultiRankParams {
            ranks,
            total_population: 12,
            steps: cfg.steps,
            warmup: 1,
            tau: 0.02,
            seed: cfg.seed ^ 0x5EED,
        };
        let runs = schedules()
            .into_iter()
            .map(|sched| {
                let res = with_schedule(sched, || {
                    run_multi_rank(
                        |_rank| w.build_engine_f32(CodeVersion::Current),
                        w.initial_positions(),
                        &params,
                    )
                });
                assert!(
                    res.exchanged > 0,
                    "multi-rank-{ranks}: no walker migrated under `{}`",
                    sched.label()
                );
                let mut scalars = Fnv::new();
                scalars.f64(res.energy);
                scalars.u64(res.samples);
                scalars.u64(res.exchanged);
                scalars.u64(res.bytes_exchanged);
                RunFingerprint {
                    schedule: sched.label(),
                    walkers: Vec::new(),
                    scalars: scalars.value(),
                }
            })
            .collect();
        DriverParity {
            driver: format!("multi-rank-{ranks}"),
            runs,
        }
    };
    [2, 3, 4].map(explore).into()
}

/// Runs every exploration: the schedule sweep of each method on each crew
/// kind, the backend and shape sweeps, and multi-rank.
pub fn explore_all(cfg: &HarnessConfig) -> Vec<DriverParity> {
    let mut out = Vec::new();
    for driver in [DriverKind::Vmc, DriverKind::Dmc] {
        for crew in CrewKind::ALL {
            out.push(explore_schedules(driver, crew, cfg));
        }
    }
    out.push(explore_backends(cfg));
    out.extend(explore_thread_sweep(cfg));
    out.extend(explore_multi_rank(cfg));
    out
}

/// Renders the exploration outcome as a `qmcsched/1` JSON report (the same
/// hand-rolled writer the run report uses).
pub fn render_json(results: &[DriverParity]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("schema").str_val("qmcsched/1");
    w.key("parity")
        .bool_val(results.iter().all(DriverParity::parity));
    w.key("drivers").begin_arr();
    for r in results {
        w.begin_obj();
        w.key("driver").str_val(&r.driver);
        w.key("schedules_explored").u64_val(r.runs.len() as u64);
        w.key("parity").bool_val(r.parity());
        w.key("runs").begin_arr();
        for run in &r.runs {
            w.begin_obj();
            w.key("schedule").str_val(&run.schedule);
            w.key("walkers").u64_val(run.walkers.len() as u64);
            let mut digest = Fnv::new();
            for &d in &run.walkers {
                digest.u64(d);
            }
            digest.u64(run.scalars);
            w.key("fingerprint")
                .str_val(&format!("{:016x}", digest.value()));
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock};

    /// `qmc_kernels::set_backend` is process-wide and engines capture it
    /// when they are built, while the tests of one binary run on parallel
    /// threads: a test that switches the backend holds this exclusively, a
    /// test that builds engines holds it shared.
    static BACKEND: RwLock<()> = RwLock::new(());

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Fnv::new();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn schedule_labels_are_distinct() {
        let s = schedules();
        assert!(s.len() >= 8, "need at least 8 explored schedules");
        let mut labels: Vec<String> = s.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), s.len(), "duplicate schedule labels");
    }

    #[test]
    fn reference_and_soa_backends_agree_bitwise() {
        let _backend = BACKEND.write().unwrap_or_else(PoisonError::into_inner);
        // The kernel library documents reference <-> soa as bitwise on
        // every kernel family; a whole VMC trajectory must therefore
        // digest equal per walker.
        let p = explore_backends(&HarnessConfig::default());
        assert_eq!(p.runs.len(), 2);
        assert!(
            p.parity(),
            "reference vs soa backend trajectories diverged: {:?}",
            p.runs
                .iter()
                .map(|r| (&r.schedule, r.scalars))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn simd_backend_energy_within_documented_tolerance() {
        let _backend = BACKEND.write().unwrap_or_else(PoisonError::into_inner);
        // The simd backend's J2 reductions carry a tolerance contract, not
        // a bitwise one, so the f32-rung gate is statistical: the VMC
        // energy must land within six combined standard errors of the
        // reference-backend run (and in the common case where no accept
        // decision flips, the trajectories are nearly identical and the
        // difference is ~0).
        let case = explore_simd_tolerance(&HarnessConfig::default());
        assert!(
            case.reference_energy.is_finite() && case.simd_energy.is_finite(),
            "non-finite energies: {case:?}"
        );
        assert!(
            case.within_tolerance(),
            "simd backend energy outside the documented f32-rung window: {case:?}"
        );
    }

    #[test]
    fn thread_sweep_is_bitwise_across_1_2_4_threads() {
        let _backend = BACKEND.read().unwrap_or_else(PoisonError::into_inner);
        // The acceptance claim of the deterministic reduction work: VMC
        // and DMC trajectories, per-walker and crowd batching, must not
        // move a bit when the worker-thread count (and with it every
        // chunk boundary) changes.
        for parity in explore_thread_sweep(&HarnessConfig::default()) {
            assert!(parity.runs.len() >= 3, "{}: too few runs", parity.driver);
            assert!(
                parity.parity(),
                "{} diverged across thread counts: {:?}",
                parity.driver,
                parity
                    .runs
                    .iter()
                    .map(|r| (&r.schedule, r.scalars))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_rank_is_schedule_independent_at_2_3_and_4_ranks() {
        let _backend = BACKEND.read().unwrap_or_else(PoisonError::into_inner);
        let sets = explore_multi_rank(&HarnessConfig::default());
        assert_eq!(sets.len(), 3);
        for p in sets {
            assert_eq!(p.runs.len(), schedules().len(), "{}", p.driver);
            assert!(
                p.parity(),
                "{}: the schedule reached the bits: {:?}",
                p.driver,
                p.runs
                    .iter()
                    .map(|r| (&r.schedule, r.scalars))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn thread_sweep_would_catch_an_injected_bare_merge() {
        // Negative control for the sweep: re-create the exact defect
        // `det_sum` exists to prevent — per-chunk partial folds merged in
        // chunk-completion order — and
        // show the 1/2/4-thread fingerprints diverge, while the
        // deterministic tree over the same terms does not. If this test
        // ever starts failing on the `injected` side, the harness has
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

    #[test]
    fn serial_orders_are_distinct_permutations_at_harness_width() {
        // The harness spawns `threads` (default 4) tasks per scope plus
        // ragged chunk counts; the serialized orders must be genuinely
        // different interleavings at those widths.
        for n in [4usize, 5, 6] {
            let mut perms: Vec<Vec<usize>> = schedules()
                .into_iter()
                .filter_map(|s| match s {
                    Schedule::Serial(o) => Some(o.permutation(n)),
                    _ => None,
                })
                .collect();
            let total = perms.len();
            perms.sort();
            perms.dedup();
            assert_eq!(perms.len(), total, "colliding serial orders at n={n}");
        }
    }
}
