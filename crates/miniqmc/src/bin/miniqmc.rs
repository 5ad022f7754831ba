//! The full miniapp (§7.1): a DMC (or, with `--driver vmc`, VMC)
//! calculation with particle-by-particle updates and non-local
//! pseudopotentials on a benchmark workload, for any code version of the
//! paper's ladder, over a crew of `--threads` engines or crowds. Prints
//! throughput and the hot-spot profile, or emits the structured run
//! report / Chrome trace. Long runs can checkpoint (`--checkpoint`),
//! resume bitwise (`--resume`) and stream telemetry (`--stream`).
//!
//! ```text
//! miniqmc --benchmark nio32 --size scaled --code current \
//!         --threads 4 --walkers 16 --steps 20 --tau 0.005 \
//!         --checkpoint ck.qmc:5 --stream run.ndjson --profile json
//! ```

use miniqmc::Options;
use qmc_drivers::{Batching, CheckpointError, CheckpointSpec, DriverKind};
use qmc_instrument::{
    chrome_trace_json, enable_tracing, take_trace_events, BlockEvent, StreamWriter,
};
use qmc_workloads::{
    checkpoint_step, run_benchmark_controlled, BenchControl, Benchmark, CodeVersion, RunConfig,
    Size, Workload,
};

const USAGE: &str = "miniqmc: full QMC miniapp (paper §7.1)\n\
     --benchmark graphite|be64|nio32|nio64 (default nio32)\n\
     --size scaled|full (default scaled)\n\
     --code ref|refmp|soa|current|delayedK (default current)\n\
     --backend reference|soa|simd   kernel backend (default: the\n\
         QMC_KERNEL_BACKEND environment variable, else soa)\n\
     --threads N --walkers N --steps N --warmup N --tau X --seed N\n\
     --crowd W   lock-step crowds of W walkers (0/absent: per-walker)\n\
     --fused-refresh   with --crowd: route block refreshes through the\n\
         fused multi-walker SPO kernel (Bspline-mw-vgl); trades bitwise\n\
         parity with the per-walker drive for batched throughput\n\
     --driver dmc|vmc (default dmc)\n\
     --checkpoint PATH[:EVERY]   write a qmc-checkpoint/1 file after\n\
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
        other => match other.strip_prefix("delayed").map(str::parse) {
            Some(Ok(k)) if k >= 1 => Ok(CodeVersion::CurrentDelayed(k)),
            _ => Err(format!(
                "unknown code version '{other}' (valid: ref, refmp, soa, current, delayedK with K >= 1)"
            )),
        },
    }
}

/// Value of `--key`, `default` when absent; an unusable value is a usage
/// error, not a silent default.
fn arg<T: std::str::FromStr>(opts: &Options, key: &str, default: T) -> T {
    opts.try_get(key, default)
        .unwrap_or_else(|e| fail_usage(&e))
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
        other => {
            if let Some(path) = other.strip_prefix("trace:") {
                if path.is_empty() {
                    Err("trace mode needs a path: --profile trace:out.json".into())
                } else {
                    Ok(ProfileMode::Trace(path.to_string()))
                }
            } else {
                Err(format!(
                    "unknown profile mode '{other}' (valid: summary, json, trace:PATH)"
                ))
            }
        }
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
    let cfg = RunConfig {
        threads: arg(&opts, "threads", 2),
        walkers: arg(&opts, "walkers", 8),
        steps: arg(&opts, "steps", 10),
        warmup: arg(&opts, "warmup", 2),
        tau: arg(&opts, "tau", 0.005),
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
    if json_mode && driver == DriverKind::Vmc {
        fail_usage("--profile json is only available for the DMC driver");
    }
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
        qmc_kernels::Backend::current(),
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
            println!(
                "driver = VMC: {} blocks x {} sweeps",
                params.blocks, params.steps_per_block
            );
            params.blocks
        }
    };

    let trace_file = matches!(mode, ProfileMode::Trace(_));
    // With a stream but no trace file, spans drain into the stream per
    // block; a requested trace file keeps them all for itself.
    let stream_trace = stream_path.is_some() && !trace_file;
    if trace_file || stream_trace {
        enable_tracing(true);
    }

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
            qmc_kernels::Backend::current().label(),
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
            if stream_trace {
                s.trace_events(&take_trace_events()).ok();
            }
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
    let out =
        run_benchmark_controlled(&workload, code, &cfg, driver, ctl).unwrap_or_else(|e| match e {
            CheckpointError::Write { .. } => fail_run(&e.to_string()),
            e => fail_run(&format!("cannot resume: {e}")),
        });
    if let Some(s) = stream.as_mut() {
        s.end(
            out.seconds,
            out.samples,
            out.energy.0,
            out.energy.1,
            out.acceptance,
            out.walker_hash,
        )
        .ok();
    }

    if json_mode {
        println!("{}", out.report(&workload, &cfg).to_json());
        return;
    }
    match driver {
        DriverKind::Vmc => {
            println!(
                "VMC energy {:.4} +- {:.4} (tau_corr {:.1}), acceptance {:.3}",
                out.energy.0, out.energy.1, out.energy.2, out.acceptance
            );
            println!("walker-hash      {:016x}", out.walker_hash);
            println!(
                "throughput {:.2} sweeps/s ({} sweeps in {:.3} s)",
                out.throughput(),
                out.samples,
                out.seconds
            );
        }
        DriverKind::Dmc => {
            println!();
            println!(
                "throughput       {:>12.2} samples/s   ({} samples in {:.3} s)",
                out.throughput(),
                out.samples,
                out.seconds
            );
            println!(
                "energy           {:>12.4} +- {:.4}  (tau_corr {:.1})",
                out.energy.0, out.energy.1, out.energy.2
            );
            println!("acceptance       {:>12.3}", out.acceptance);
            println!("walker-hash      {:016x}", out.walker_hash);
            println!(
                "DMC efficiency   {:>12.3e}  (kappa = 1/(sigma^2 tau_corr T_MC), §3)",
                out.kappa()
            );
            println!(
                "memory           walker {:.2} MiB, engine {:.2} MiB, spline table {:.2} MiB",
                out.walker_bytes as f64 / (1 << 20) as f64,
                out.engine_bytes as f64 / (1 << 20) as f64,
                out.table_bytes as f64 / (1 << 20) as f64
            );
            if out.drift.refreshes > 0 {
                println!(
                    "mp drift         mean |dlogpsi| {:.3e}, max {:.3e} over {} refreshes",
                    out.drift.mean_abs(),
                    out.drift.max_abs,
                    out.drift.refreshes
                );
            }
            println!();
            println!("hot-spot profile (merged over threads):");
            print!("{}", out.profile.to_table());
        }
    }
    if let ProfileMode::Trace(path) = mode {
        write_trace(&path);
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

/// Drains collected spans and writes the Chrome trace file.
fn write_trace(path: &str) {
    enable_tracing(false);
    let events = take_trace_events();
    let json = chrome_trace_json(&events);
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
