//! `qmcbench`: the repo's benchmark. A closed-loop batch benchmark — work
//! completed per second at a stated size, load generated by this one
//! process with at most two threads.
//!
//! `qmcbench --workload W --seed S --seconds T --trace 0|1` is one run:
//! `--trace 0` measures the end-to-end metrics with no span recorded,
//! `--trace 1` the per-layer metrics from a separate traced pass. Without
//! `--workload` it runs the whole ladder in child processes and prints
//! every metric (`--aa`: twice, and compares). See `README.md`.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod report;
mod rounds;
mod stats;
mod trace;

use layers::{Drive, Shape, Spec};
use report::{MetricDef, Parsed, RoundFacts, Spans, Values};
use rounds::{round_timings, summarize, Spread};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Seconds one run measures for unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 28;

/// Set-ups of an end-to-end run, back to back; `setup_s` is their
/// fast-side quartile. Three and no more: with tens of set-ups the
/// allocator's heap layout starts to differ from run to run and
/// `peak_rss_mib` of the small workloads with it (19 vs 25 MiB).
const SET_UPS: usize = 3;

/// Spans written to a trace file (the earliest; the aggregates cover all).
const TRACE_SPAN_LIMIT: usize = 50_000;

/// Where trace files and the checkpoint scratch file go, relative to the
/// repo root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Share of `--seconds` a traced run gives its traced pass; the parity run
/// of the real driver takes about as long again.
const TRACED_SHARE: f64 = 0.35;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        rounds: 3,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--rounds" => {
                args.rounds = value.parse().map_err(|_| bad())?;
                if args.rounds == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What one run reports.
struct Outcome {
    /// The metrics the run owes the result line, in order.
    defs: Vec<MetricDef>,
    correct: bool,
    attempted: usize,
    failed: usize,
    values: Values,
}

fn print_spread(name: &str, unit: &str, s: &Spread, note: &str) {
    println!(
        "  {name:<22} {:>12.4} {unit:<5} (rounds {:.4} .. {:.4}){note}",
        s.value, s.min, s.max
    );
}

/// One end-to-end run: [`SET_UPS`] set-ups, then same-seed rounds until
/// `seconds` have passed. The set-ups run back to back, so all but the
/// first reuse memory the host has already backed: what is reported is the
/// program's set-up work, not the hypervisor's first-touch page faults (3
/// to 4 s of the 5 s a cold 419 MiB table takes here, and far less steady).
fn run_end_to_end(spec: &'static Spec, seed: u64, seconds: f64) -> Outcome {
    let mut set_ups = Vec::with_capacity(SET_UPS);
    let mut instance = None;
    for _ in 0..SET_UPS {
        // Free the previous table first: two alive would double the peak.
        drop(instance.take());
        let (i, s) = layers::set_up(spec, seed, &mut Tracer::new());
        set_ups.push(s.total_s());
        instance = Some(i);
    }
    let instance = instance.expect("SET_UPS is at least 1");

    let clock = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 2 || clock.elapsed().as_secs_f64() < seconds {
        let steal = host::StealClock::start();
        let mut round = instance.round(instance.shape()).round;
        round.stolen_share = steal.stolen_share();
        rounds.push(round);
    }
    let rules = spec.rules_for(spec.threads);
    let summary = summarize(&rounds, &rules, spec.reference(seed));
    let walker_kib = rounds[0].walker_bytes as f64 / 1024.0;
    let peak_rss_mib = host::peak_rss_mib();
    let (energy, sem) = rounds[0].energy;

    println!(
        "{}: seed {seed}, timings from {} of {} rounds x {} generations in {:.2} s, {} threads, {} walkers",
        spec.name,
        summary.timed_rounds,
        summary.rounds,
        spec.steps,
        clock.elapsed().as_secs_f64(),
        spec.threads,
        spec.walkers
    );
    let (pop_lo, pop_hi) = rounds[0]
        .blocks
        .iter()
        .fold((usize::MAX, 0), |(lo, hi), b| {
            (lo.min(b.population), hi.max(b.population))
        });
    println!(
        "  energy {energy:.6} +- {sem:.6}, acceptance {:.4}, population {pop_lo} .. {pop_hi}, walker_hash {:016x}",
        rounds[0].acceptance, rounds[0].walker_hash
    );
    let (lo, hi) = stats::min_max(&set_ups);
    println!(
        "  {:<22} {:>12.4} s     ({} set-ups {lo:.4} .. {hi:.4})",
        "setup_s",
        stats::fast_quartile(&set_ups, false),
        set_ups.len()
    );
    print_spread("samples_per_s", "1/s", &summary.samples_per_s, "");
    let n = format!(", {} generations", summary.step_samples);
    print_spread("walker_step_ms_p50", "ms", &summary.walker_step_ms_p50, &n);
    println!("  {:<22} {peak_rss_mib:>12.4} MiB", "peak_rss_mib");
    println!("  {:<22} {walker_kib:>12.4} KiB", "walker_kib");
    println!(
        "  {:<22} {:>12.4}       ({} of {} generations)",
        "failed_share",
        summary.failed as f64 / summary.attempted.max(1) as f64,
        summary.failed,
        summary.attempted
    );
    for why in &summary.failures {
        println!("  FAILED {why}");
    }

    let mut values = Values::new();
    values.insert("setup_s".into(), stats::fast_quartile(&set_ups, false));
    values.insert("samples_per_s".into(), summary.samples_per_s.value);
    values.insert(
        "walker_step_ms_p50".into(),
        summary.walker_step_ms_p50.value,
    );
    values.insert("peak_rss_mib".into(), peak_rss_mib);
    values.insert("walker_kib".into(), walker_kib);
    Outcome {
        defs: report::end_to_end_defs(),
        correct: summary.failed == 0 && summary.step_samples > 0,
        attempted: summary.attempted.max(1),
        failed: summary.failed,
        values,
    }
}

/// One traced run: the traced pass, the real driver for the same steps
/// (parity, and the program's own kernel profile), one round on a crew of
/// threads, and the direct single-layer measurements.
fn run_traced(spec: &'static Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let mut tracer = Tracer::new();
    let (instance, set_up) = layers::set_up(spec, seed, &mut tracer);
    let scratch = format!(
        "{OUT_DIR}/checkpoint-{}-{}.bin",
        spec.name,
        std::process::id()
    );
    let budget = Duration::from_secs_f64(seconds * TRACED_SHARE);
    let pass = instance.traced_pass(budget, &scratch, &mut tracer);

    // The real driver for the same steps: parity, and — being the
    // end-to-end configuration — the program's own profile of itself.
    let whole = instance.round(Shape {
        steps: pass.steps,
        ..instance.shape()
    });
    let parity = whole.round.walker_hash == pass.digest;
    let throughput = |run: &layers::RoundRun, threads: usize| {
        round_timings(&run.round.blocks, &spec.rules_for(threads)).samples_per_s
    };
    let whole_timings = round_timings(&whole.round.blocks, &spec.rules_for(spec.threads));
    let populations: Vec<usize> = whole.round.blocks.iter().map(|b| b.population).collect();
    let mut facts = RoundFacts {
        parity,
        samples_per_s: throughput(&whole, spec.threads),
        threads: spec.threads,
        walker_step_ms_p90: stats::percentile(&whole_timings.walker_step_ms, 0.9),
        loop_seconds: whole.loop_seconds,
        acceptance: whole.round.acceptance,
        population_min: populations.iter().copied().min().unwrap_or(0),
        population_max: populations.iter().copied().max().unwrap_or(0),
        ..RoundFacts::default()
    };
    if !matches!(spec.drive, Drive::Vmc { .. }) {
        let crew = instance.round(Shape {
            threads: layers::CREW_THREADS,
            ..instance.shape()
        });
        facts.crew_samples_per_s = throughput(&crew, layers::CREW_THREADS);
    }
    if matches!(spec.drive, Drive::DmcCrowd { .. }) {
        let per_walker = instance.round(Shape {
            drive: Drive::DmcPerWalker,
            ..instance.shape()
        });
        facts.per_walker_samples_per_s = throughput(&per_walker, spec.threads);
    }
    if spec.table2_steps > 0 {
        let reference = instance.round(instance.reference_code_shape(spec.table2_steps));
        facts.ref_samples_per_s = throughput(&reference, spec.threads);
    }
    let kernels = layers::kernel_rows(&whole.profile);
    let machine = layers::machine();
    let linalg = layers::linalg_times(spec.electrons() / 2, seed);

    let spans = tracer.spans();
    let totals = trace::totals_by_name(spans);
    let wall_ns = trace::root_wall_ns(spans);
    let values = report::per_layer_values(
        &Spans(&totals),
        &set_up,
        &pass,
        &facts,
        &kernels,
        &machine,
        &linalg,
    );

    let path = format!("{OUT_DIR}/trace-{}.json", spec.name);
    let process = format!("qmcbench {} seed {seed}", spec.name);
    std::fs::write(
        &path,
        trace::chrome_trace_json(&process, spans, TRACE_SPAN_LIMIT),
    )
    .map_err(|e| format!("cannot write {path}: {e}"))?;

    println!(
        "{}: seed {seed}, traced {} generations on one thread in {:.2} s, {} spans -> {path}",
        spec.name,
        pass.steps,
        wall_ns as f64 / 1e9,
        spans.len()
    );
    println!(
        "  {:<34} {:>9} {:>9} {:>11} {:>11} {:>7}",
        "span", "calls", "items", "total ms", "self ms", "self %"
    );
    let mut self_sum = 0.0;
    for (name, t) in &totals {
        let share = t.self_ns as f64 / wall_ns as f64 * 100.0;
        self_sum += share;
        println!(
            "  {name:<34} {:>9} {:>9} {:>11.3} {:>11.3} {share:>7.2}",
            t.calls,
            t.units,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    println!("  {:<34} {:>55.2}", "sum of self times", self_sum);
    if !parity {
        println!(
            "  trace.parity = 0: the traced loops ended at {:016x}, the driver at {:016x}; \
             the per-layer numbers describe a loop the driver no longer runs",
            pass.digest, whole.round.walker_hash
        );
    }
    let defs = report::per_layer_defs(&layers::kernel_labels());
    for d in &defs {
        println!("  {:<34} {:>14.4} {}", d.name, values[&d.name], d.unit);
    }
    Ok(Outcome {
        defs,
        correct: true,
        attempted: pass.steps.max(1),
        failed: 0,
        values,
    })
}

fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let spec = layers::find(name).ok_or_else(|| {
        let names: Vec<&str> = layers::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let outcome = if args.trace {
        run_traced(spec, args.seed, args.seconds)?
    } else {
        run_end_to_end(spec, args.seed, args.seconds)
    };
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.defs,
            &outcome.values
        )
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The whole ladder
// ---------------------------------------------------------------------------

/// Runs this program once as a child process (so peak memory is the
/// workload's own) and parses its result line.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, show: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{name} (seed {seed}) exited with {}", out.status));
    }
    let (body, line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name}: no result line"))?;
    if show {
        println!("{body}");
    }
    report::parse_result_line(line)
}

/// One set: every workload at `rounds` consecutive seeds, round-robin so a
/// slow period of the host is spread over all workloads.
struct Set {
    /// Per workload, per metric, one value per seed.
    values: Vec<std::collections::BTreeMap<String, Vec<f64>>>,
    attempted: u64,
    failed: u64,
    /// Every run reported `correct`.
    correct: bool,
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set {
        values: vec![Default::default(); layers::WORKLOADS.len()],
        attempted: 0,
        failed: 0,
        correct: true,
    };
    for r in 0..args.rounds {
        let seed = args.seed + r as u64;
        for (w, spec) in layers::WORKLOADS.iter().enumerate() {
            let parsed = child(spec.name, seed, args.seconds, false, false)?;
            eprintln!(
                "  {} seed {seed}: {} of {} generations failed",
                spec.name, parsed.failed, parsed.attempted
            );
            set.attempted += parsed.attempted;
            set.failed += parsed.failed;
            set.correct &= parsed.correct;
            for (name, value) in parsed.values {
                set.values[w].entry(name).or_default().push(value);
            }
        }
    }
    Ok(set)
}

fn print_set(set: &Set, defs: &[MetricDef]) {
    for (spec, values) in layers::WORKLOADS.iter().zip(&set.values) {
        println!("{} — {}", spec.name, spec.why);
        println!(
            "  {:<22} {:>14} {:<6} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "unit", "min", "max", "spread", "bound"
        );
        for d in defs {
            let v = &values[&d.name];
            let (lo, hi) = stats::min_max(v);
            println!(
                "  {:<22} {:>14.4} {:<6} {lo:>14.4} {hi:>14.4} {:>7.2}% {:>6.0}%",
                d.name,
                stats::median(v),
                d.unit,
                stats::quartile_spread(v) * 100.0,
                d.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    println!(
        "failed_share {:.4} ({} of {} generations)",
        set.failed as f64 / set.attempted.max(1) as f64,
        set.failed,
        set.attempted
    );
}

/// Compares two sets of the same code; returns the metrics out of bound.
fn print_aa(a: &Set, b: &Set, defs: &[MetricDef]) -> usize {
    let mut missed = 0;
    println!("A/A: two sets of the same code, second against first");
    for ((spec, va), vb) in layers::WORKLOADS.iter().zip(&a.values).zip(&b.values) {
        println!("{}", spec.name);
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>7}",
            "metric", "first", "second", "worse by", "bound"
        );
        for d in defs {
            let (ma, mb) = (stats::median(&va[&d.name]), stats::median(&vb[&d.name]));
            let worse = report::worsening(d, ma, mb);
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if worse > bound {
                missed += 1;
                "MISS"
            } else {
                "ok"
            };
            println!(
                "  {:<22} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    missed
}

fn run_ladder(args: &Args) -> Result<bool, String> {
    let defs = report::end_to_end_defs();
    eprintln!(
        "qmcbench: {} workloads x {} seeds from {}, {} s each{}",
        layers::WORKLOADS.len(),
        args.rounds,
        args.seed,
        args.seconds,
        if args.aa { ", twice" } else { "" }
    );
    let first = run_set(args)?;
    print_set(&first, &defs);
    let mut ok = first.correct;
    if args.aa {
        let second = run_set(args)?;
        print_set(&second, &defs);
        ok &= second.correct && print_aa(&first, &second, &defs) == 0;
    }
    for spec in &layers::WORKLOADS {
        child(spec.name, args.seed, args.seconds, true, true)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qmcbench: {e}");
            eprintln!(
                "usage: qmcbench [--workload W --trace 0|1] [--seed S] [--seconds T] [--rounds R] [--aa]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(&args, name).map(|()| true),
        None => run_ladder(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("qmcbench: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("qmcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
