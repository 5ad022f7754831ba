//! The full miniapp (§7.1): a DMC (or, with `--driver vmc`, VMC)
//! calculation with particle-by-particle updates and non-local
//! pseudopotentials on a benchmark workload, for any code version of the
//! paper's ladder, over a crew of `--threads` engines or crowds. Prints
//! the run report, for either driver, as a summary with the hot-spot
//! profile or as JSON, and can write a Chrome trace. Long runs can
//! checkpoint (`--checkpoint`), resume bitwise (`--resume`) and stream
//! telemetry (`--stream`).
//!
//! ```text
//! miniqmc --benchmark nio32 --size scaled --code current \
//!         --threads 4 --walkers 16 --steps 20 --tau 0.005 \
//!         --checkpoint ck.qmc:5 --stream run.ndjson --profile json
//! ```

use miniqmc::{at_least, Options};
use qmc_drivers::{Batching, CheckpointError, CheckpointSpec, DriverKind};
use qmc_instrument::{
    chrome_trace_json, enable_tracing, take_trace_events, BlockEvent, StreamWriter, TraceEvent,
};
use qmc_workloads::{
    checkpoint_step, run_benchmark_controlled, BenchControl, Benchmark, CodeVersion, RunConfig,
    Size, Workload, VMC_BLOCK_SWEEPS,
};

const USAGE: &str = "miniqmc: full QMC miniapp (paper §7.1)\n\
     --benchmark graphite|be64|nio32|nio64 (default nio32)\n\
     --size scaled|full (default scaled)\n\
     --code ref|refmp|soa|current (default current)\n\
     --backend reference|simd   B-spline and distance kernels of the\n\
         SoA code versions (default simd)\n\
     --threads N --walkers N --steps N (each at least 1; VMC --steps\n\
         are sweeps, a multiple of 4; default 10 for DMC, 8 for VMC)\n\
     --warmup N --seed N\n\
     --tau X (positive; default 0.005 for DMC, 0.05 for VMC)\n\
     --crowd W   lock-step crowds of W walkers (0/absent: per-walker)\n\
     --fused-refresh   with --crowd: route block refreshes through the\n\
         fused multi-walker SPO kernel (Bspline-mw-vgl); trades bitwise\n\
         parity with the per-walker drive for batched throughput\n\
     --driver dmc|vmc (default dmc)\n\
     --checkpoint PATH[:EVERY]   write a qmc-checkpoint/2 file after\n\
         every EVERY completed generations/blocks (default 1); the file\n\
         is replaced atomically, so a killed job keeps its last one\n\
     --resume PATH   resume bitwise from a checkpoint (walker RNG\n\
         streams, estimator and branching state restore exactly);\n\
         --steps is the run's TOTAL step count, not additional steps\n\
     --stream PATH   append qmc-run-report-stream/1 NDJSON telemetry\n\
         (start/block/trace/checkpoint/end records) as blocks complete\n\
     --profile summary|json|trace:PATH (default summary)\n\
         summary     human-readable run report + hot-spot table\n\
         json        machine-readable RunReport JSON on stdout\n\
         trace:PATH  also write a Chrome trace_event file to PATH\n\
                     (open in chrome://tracing or ui.perfetto.dev)";

/// Prints the offending value and the usage text to stderr, then exits
/// nonzero (bad invocations must not panic with a backtrace).
fn fail_usage(msg: &str) -> ! {
    eprintln!("miniqmc: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Prints a runtime error (I/O, corrupt checkpoint, ...) and exits 1 —
/// clean diagnostics, no panic backtrace.
fn fail_run(msg: &str) -> ! {
    eprintln!("miniqmc: {msg}");
    std::process::exit(1);
}

fn parse_benchmark(s: &str) -> Result<Benchmark, String> {
    match s.to_ascii_lowercase().as_str() {
        "graphite" => Ok(Benchmark::Graphite),
        "be64" | "be-64" => Ok(Benchmark::Be64),
        "nio32" | "nio-32" => Ok(Benchmark::NiO32),
        "nio64" | "nio-64" => Ok(Benchmark::NiO64),
        other => Err(format!(
            "unknown benchmark '{other}' (valid: graphite, be64, nio32, nio64)"
        )),
    }
}

fn parse_code(s: &str) -> Result<CodeVersion, String> {
    match s.to_ascii_lowercase().as_str() {
        "ref" => Ok(CodeVersion::Ref),
        "refmp" | "ref+mp" => Ok(CodeVersion::RefMp),
        "soadp" | "soa" => Ok(CodeVersion::SoaDouble),
        "current" => Ok(CodeVersion::Current),
        other => Err(format!(
            "unknown code version '{other}' (valid: ref, refmp, soa, current)"
        )),
    }
}

/// Value of `--key`, `default` when absent; an unusable value is a usage
/// error, not a silent default.
fn arg<T: std::str::FromStr>(opts: &Options, key: &str, default: T) -> T {
    opts.try_get(key, default)
        .unwrap_or_else(|e| fail_usage(&e))
}

/// [`arg`] for a count a run needs at least one of (threads, walkers,
/// steps): 0 is a usage error too, not a run that does nothing.
fn count(opts: &Options, key: &str, default: usize) -> usize {
    opts.try_get(key, default)
        .and_then(at_least(key, 1))
        .unwrap_or_else(|e| fail_usage(&e))
}

/// `--tau`, `default` when absent: a zero, negative or non-finite time
/// step moves no walker sensibly, so it is a usage error, not a run of
/// NaN energies.
fn time_step(opts: &Options, default: f64) -> f64 {
    let tau: f64 = arg(opts, "tau", default);
    if tau > 0.0 && tau.is_finite() {
        tau
    } else {
        fail_usage(&format!(
            "--tau: cannot use '{tau}' (valid: a positive finite time step)"
        ))
    }
}

fn parse_size(s: &str) -> Result<Size, String> {
    match s {
        "scaled" => Ok(Size::Scaled),
        "full" => Ok(Size::Full),
        other => Err(format!("unknown size '{other}' (valid: scaled, full)")),
    }
}

fn parse_driver(s: &str) -> Result<DriverKind, String> {
    match s {
        "dmc" => Ok(DriverKind::Dmc),
        "vmc" => Ok(DriverKind::Vmc),
        other => Err(format!("unknown driver '{other}' (valid: dmc, vmc)")),
    }
}

/// Output mode of `--profile`.
enum ProfileMode {
    Summary,
    Json,
    Trace(String),
}

fn parse_profile(s: &str) -> Result<ProfileMode, String> {
    match s {
        "summary" => Ok(ProfileMode::Summary),
        "json" => Ok(ProfileMode::Json),
        "trace:" => Err("trace mode needs a path: --profile trace:out.json".into()),
        other => match other.strip_prefix("trace:") {
            Some(path) => Ok(ProfileMode::Trace(path.to_string())),
            None => Err(format!(
                "unknown profile mode '{other}' (valid: summary, json, trace:PATH)"
            )),
        },
    }
}

fn main() {
    let opts = Options::from_env();
    if opts.has_flag("help") || opts.has_flag("h") {
        println!("{USAGE}");
        return;
    }
    let benchmark = parse_benchmark(opts.get_str("benchmark").unwrap_or("nio32"))
        .unwrap_or_else(|e| fail_usage(&e));
    let size =
        parse_size(opts.get_str("size").unwrap_or("scaled")).unwrap_or_else(|e| fail_usage(&e));
    let code =
        parse_code(opts.get_str("code").unwrap_or("current")).unwrap_or_else(|e| fail_usage(&e));
    let driver =
        parse_driver(opts.get_str("driver").unwrap_or("dmc")).unwrap_or_else(|e| fail_usage(&e));
    let mode = parse_profile(opts.get_str("profile").unwrap_or("summary"))
        .unwrap_or_else(|e| fail_usage(&e));
    // Pin the kernel backend before any engine/table is built — engines
    // capture it at construction.
    if let Some(b) = opts.get_str("backend") {
        let backend = qmc_kernels::Backend::parse(b).unwrap_or_else(|e| fail_usage(&e));
        qmc_kernels::set_backend(backend);
    }
    let crowd = arg(&opts, "crowd", 0usize);
    let (default_steps, default_tau) = match driver {
        DriverKind::Dmc => (10, 0.005),
        DriverKind::Vmc => (2 * VMC_BLOCK_SWEEPS, 0.05),
    };
    let cfg = RunConfig {
        threads: count(&opts, "threads", 2),
        walkers: count(&opts, "walkers", 8),
        steps: count(&opts, "steps", default_steps),
        warmup: arg(&opts, "warmup", 2),
        tau: time_step(&opts, default_tau),
        seed: arg(&opts, "seed", 42),
        batching: if crowd > 0 {
            Batching::Crowd(crowd)
        } else {
            Batching::PerWalker
        },
        fused_refresh: opts.has_flag("fused-refresh"),
    };
    if cfg.fused_refresh && crowd == 0 {
        fail_usage("--fused-refresh requires --crowd W");
    }
    if driver == DriverKind::Vmc && !cfg.steps.is_multiple_of(VMC_BLOCK_SWEEPS) {
        fail_usage(&format!(
            "--steps: cannot use '{}' with --driver vmc (valid: a multiple of {VMC_BLOCK_SWEEPS}, \
             the sweeps of a block)",
            cfg.steps
        ));
    }
    if driver == DriverKind::Dmc && cfg.warmup >= cfg.steps {
        fail_usage(&format!(
            "--warmup {} leaves no measured generation of --steps {} (valid: warmup < steps)",
            cfg.warmup, cfg.steps
        ));
    }
    let checkpoint = opts
        .get_str("checkpoint")
        .map(|s| CheckpointSpec::parse(s).unwrap_or_else(|e| fail_usage(&e)));
    let resume = opts.get_str("resume");
    let stream_path = opts.get_str("stream");

    // In JSON mode stdout carries only the report; everything human goes
    // to stderr.
    let json_mode = matches!(mode, ProfileMode::Json);
    macro_rules! say {
        ($($arg:tt)*) => {
            if json_mode { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }

    let workload = Workload::new(benchmark, size, cfg.seed);
    say!(
        "miniqmc: {} ({:?}), N = {} electrons, {} ions, {} orbitals/spin",
        workload.spec.name,
        size,
        workload.num_electrons(),
        workload.num_ions(),
        workload.num_orbitals()
    );
    say!(
        "code = {}, backend = {}, threads = {}, walkers = {}, steps = {} (+{} warmup), tau = {}, batching = {}",
        code.label(),
        code.kernel_backend(),
        cfg.threads,
        cfg.walkers,
        cfg.steps,
        cfg.warmup,
        cfg.tau,
        match cfg.batching {
            Batching::PerWalker => "per-walker".to_string(),
            Batching::Crowd(w) => format!("crowd({w})"),
        }
    );
    // A VMC run counts blocks of sweeps where DMC counts generations.
    let steps_total = match driver {
        DriverKind::Dmc => cfg.steps,
        DriverKind::Vmc => {
            let params = cfg.vmc_params();
            say!(
                "driver = VMC: {} blocks x {} sweeps",
                params.blocks,
                params.steps_per_block
            );
            params.blocks
        }
    };

    // Spans go to both sinks: each block's to the stream as it completes,
    // and all of them to the trace file at the end.
    let trace_file = matches!(mode, ProfileMode::Trace(_));
    enable_tracing(trace_file || stream_path.is_some());
    let mut spans = Vec::new();

    let mut stream = open_stream(stream_path, resume.is_some());
    if let Some(s) = stream.as_mut() {
        let resumed_from = resume.map(|p| {
            checkpoint_step(p, code.single_precision(), driver)
                .unwrap_or_else(|e| fail_run(&format!("cannot resume from {p}: {e}")))
        });
        s.start(
            driver.label(),
            workload.spec.name,
            &code.label(),
            code.kernel_backend().label(),
            cfg.threads,
            cfg.walkers,
            steps_total,
            resumed_from,
        )
        .unwrap_or_else(|e| fail_run(&format!("cannot write stream: {e}")));
    }

    let spec_for_stream = checkpoint.clone();
    let mut on_block = |ev: &BlockEvent| {
        if let Some(s) = stream.as_mut() {
            s.block(ev).ok();
            drain_spans(Some(s), trace_file.then_some(&mut spans));
            if let Some(spec) = spec_for_stream.as_ref() {
                if spec.due(ev.step as usize) {
                    s.checkpoint(ev.step, &spec.path).ok();
                }
            }
        }
    };
    let ctl = BenchControl {
        resume,
        checkpoint,
        on_block: if stream_path.is_some() {
            Some(&mut on_block)
        } else {
            None
        },
    };
    let report = run_benchmark_controlled(&workload, code, &cfg, driver, ctl)
        .unwrap_or_else(|e| match e {
            CheckpointError::Write { .. } => fail_run(&e.to_string()),
            e => fail_run(&format!("cannot resume: {e}")),
        })
        .report(&workload, &cfg);
    drain_spans(stream.as_mut(), trace_file.then_some(&mut spans));
    if let Some(s) = stream.as_mut() {
        s.end(&report).ok();
    }

    if json_mode {
        println!("{}", report.to_json());
        return;
    }
    println!();
    print!("{}", report.to_summary());
    if let ProfileMode::Trace(path) = mode {
        write_trace(&path, &spans);
    }
}

/// Moves the spans closed since the last call to the stream and, when a
/// trace file was requested, to `kept`.
fn drain_spans(stream: Option<&mut StreamWriter>, kept: Option<&mut Vec<TraceEvent>>) {
    let new = take_trace_events();
    if let Some(s) = stream {
        s.trace_events(&new).ok();
    }
    if let Some(kept) = kept {
        kept.extend(new);
    }
}

/// Opens the NDJSON telemetry stream: truncate for a fresh run, append
/// when resuming (the stream continues across restarts).
fn open_stream(path: Option<&str>, resuming: bool) -> Option<StreamWriter> {
    path.map(|p| {
        let s = if resuming {
            StreamWriter::append(p)
        } else {
            StreamWriter::create(p)
        };
        s.unwrap_or_else(|e| fail_run(&format!("cannot open stream {p}: {e}")))
    })
}

/// Writes the run's spans as a Chrome trace file.
fn write_trace(path: &str, events: &[TraceEvent]) {
    let json = chrome_trace_json(events);
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\ntrace: {} spans -> {path} (open in chrome://tracing or ui.perfetto.dev)",
            events.len()
        ),
        Err(e) => {
            eprintln!("miniqmc: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}
