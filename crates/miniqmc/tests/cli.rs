//! End-to-end CLI tests: bad-argument handling of `miniqmc` (a usage
//! error and exit 2 instead of a panic backtrace or a silent default) and
//! its golden `--profile json` / `--profile trace:PATH` report paths.

use qmc_instrument::{json, ALL_KERNELS};
use std::process::Command;

fn miniqmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_miniqmc"))
}

/// Tiny graphite run on one thread.
fn tiny_args() -> [&'static str; 10] {
    [
        "--benchmark",
        "graphite",
        "--threads",
        "1",
        "--walkers",
        "2",
        "--steps",
        "4",
        "--warmup",
        "1",
    ]
}

#[test]
fn bad_benchmark_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--benchmark", "no-such-material"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
    // Usage must list the valid values.
    for valid in ["graphite", "be64", "nio32", "nio64"] {
        assert!(stderr.contains(valid), "usage missing '{valid}': {stderr}");
    }
    assert!(
        !stderr.contains("panicked"),
        "must not panic with a backtrace: {stderr}"
    );
}

#[test]
fn bad_code_version_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--code", "turbo"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown code version"), "{stderr}");
    for valid in ["ref", "refmp", "soa", "current"] {
        assert!(stderr.contains(valid), "usage missing '{valid}': {stderr}");
    }
    // Delayed determinant updates are not a code version.
    assert!(!stderr.contains("delayedK"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_profile_mode_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--profile", "xml"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown profile mode"), "{stderr}");
}

/// The kernel backends are `reference` and `simd`, chosen only by
/// `--backend`: the removed `soa` is a usage error naming the valid values,
/// and no environment variable selects a backend, not even a bad one.
#[test]
fn backend_is_reference_or_simd_and_only_the_flag_selects_it() {
    let out = miniqmc()
        .args(["--backend", "soa"])
        .output()
        .expect("spawn miniqmc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains("unknown kernel backend 'soa' (valid: reference, simd)"),
        "{first}"
    );
    assert!(stderr.contains("--backend reference|simd"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    for (flag, want) in [(None, "simd"), (Some("reference"), "reference")] {
        let mut cmd = miniqmc();
        cmd.args(tiny_args()).env("QMC_KERNEL_BACKEND", "bogus");
        if let Some(b) = flag {
            cmd.args(["--backend", b]);
        }
        let out = cmd.output().expect("spawn miniqmc");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{flag:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("backend = {want},")),
            "{flag:?}: {stdout}"
        );
    }
}

/// The report and the stream `start` record name the backend the engines
/// ran: the AoS versions pin the reference loops whatever `--backend` says,
/// the SoA versions follow it.
#[test]
fn reports_name_the_backend_the_code_version_ran() {
    for (extra, want) in [
        (&["--code", "ref"][..], "reference"),
        (&["--code", "current"][..], "simd"),
        (
            &["--code", "current", "--backend", "reference"][..],
            "reference",
        ),
    ] {
        let nd = std::env::temp_dir().join(format!(
            "miniqmc_backend_{}_{want}_{}.ndjson",
            std::process::id(),
            extra.len()
        ));
        let mut args = tiny_args().to_vec();
        let nd_arg = nd.display().to_string();
        args.extend(extra);
        args.extend(["--profile", "json", "--stream", &nd_arg]);
        let v = json::parse(&stdout_of(&args)).expect("stdout is one JSON document");
        let text = std::fs::read_to_string(&nd).expect("stream written");
        let _ = std::fs::remove_file(&nd);
        let start = json::parse(text.lines().next().unwrap_or_default()).expect("start record");
        for (what, doc) in [("report", &v), ("stream start", &start)] {
            assert_eq!(
                doc.get("kernel_backend").and_then(|b| b.as_str()),
                Some(want),
                "{extra:?}: {what}"
            );
        }
    }
}

/// Arguments a run cannot use, whether they do not parse or would run to a
/// meaningless report (no walkers, NaN energies), are usage errors, not
/// silent defaults: exit 2 and a first line naming the option and what it
/// accepts.
#[test]
fn unusable_argument_values_are_usage_errors_not_defaults() {
    let cases: [(&[&str], &[&str]); 14] = [
        (
            &["--driver", "bogus"],
            &["unknown driver 'bogus'", "dmc, vmc"],
        ),
        (
            &["--size", "bogus"],
            &["unknown size 'bogus'", "scaled, full"],
        ),
        (&["--steps", "abc"], &["--steps", "'abc'", "usize"]),
        (&["--tau", "fast"], &["--tau", "'fast'", "f64"]),
        (&["--walkers"], &["--walkers needs a usize value"]),
        (
            &["--code", "delayed8"],
            &["unknown code version 'delayed8' (valid: ref, refmp, soa, current)"],
        ),
        (
            &["--steps", "2", "--warmup", "5"],
            &["--warmup 5", "--steps 2", "warmup < steps"],
        ),
        (&["--walkers", "0"], &["--walkers", "'0'", "at least 1"]),
        (&["--threads", "0"], &["--threads", "'0'", "at least 1"]),
        (
            &["--driver", "vmc", "--steps", "0"],
            &["--steps", "'0'", "at least 1"],
        ),
        (&["--steps", "0"], &["--steps", "'0'", "at least 1"]),
        (&["--tau", "0"], &["--tau", "'0'", "positive"]),
        (&["--tau", "nan"], &["--tau", "'NaN'", "positive"]),
        (&["--tau=-0.01"], &["--tau", "'-0.01'", "positive"]),
    ];
    for (args, expected) in cases {
        let out = miniqmc().args(args).output().expect("spawn miniqmc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before refusing");
        let first = stderr.lines().next().unwrap_or_default();
        for part in expected {
            assert!(first.contains(part), "{args:?}: '{part}' not in '{first}'");
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A checkpoint that cannot be written ends the run with a diagnostic and
/// exit code 1 — for either driver, never a panic backtrace.
#[test]
fn unwritable_checkpoint_path_fails_cleanly() {
    for driver in ["dmc", "vmc"] {
        let out = miniqmc()
            .args(tiny_args())
            .args(["--driver", driver])
            .args(["--checkpoint", "/nonexistent/dir/ck.qmc:1"])
            .output()
            .expect("spawn miniqmc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{driver}: {stderr}");
        assert!(
            stderr.contains("cannot write checkpoint to /nonexistent/dir/ck.qmc"),
            "{driver}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{driver}: {stderr}");
    }
}

/// `--driver vmc` runs over the same crew `--threads`/`--crowd` describe
/// for DMC, and the result does not depend on the crew: one engine, two
/// engine threads and two crowd threads end on the same population hash.
#[test]
fn vmc_walker_hash_is_independent_of_the_crew() {
    let run = |crew: &[&str]| {
        let out = miniqmc()
            .args(["--benchmark", "graphite", "--driver", "vmc"])
            .args(["--walkers", "4", "--steps", "8", "--seed", "11"])
            .args(crew)
            .output()
            .expect("spawn miniqmc");
        assert!(
            out.status.success(),
            "{crew:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        walker_hash_line(out.stdout.as_slice())
    };
    let serial = run(&["--threads", "1"]);
    assert_eq!(serial, run(&["--threads", "2"]), "two engine threads");
    assert_eq!(
        serial,
        run(&["--threads", "2", "--crowd", "2"]),
        "two crowd threads"
    );

    // The second thread really works: the stream reports the crew size
    // and carries worker spans from lane 1.
    let stream = std::env::temp_dir().join(format!("miniqmc_vmc_{}.ndjson", std::process::id()));
    let stream_arg = stream.display().to_string();
    assert_eq!(
        serial,
        run(&["--threads", "2", "--stream", &stream_arg]),
        "streamed"
    );
    let text = std::fs::read_to_string(&stream).expect("stream written");
    let _ = std::fs::remove_file(&stream);
    let records: Vec<_> = text
        .lines()
        .map(|l| json::parse(l).expect("stream line is JSON"))
        .collect();
    let num = |r: &json::JsonValue, key: &str| r.get(key).and_then(json::JsonValue::as_f64);
    assert_eq!(num(&records[0], "threads"), Some(2.0), "start record");
    assert!(
        records.iter().any(|r| {
            r.get("name").and_then(|n| n.as_str()) == Some("vmc worker block")
                && num(r, "lane") == Some(1.0)
        }),
        "no worker span from the second crew member"
    );
}

#[test]
fn golden_json_report_covers_all_kernels_within_wall_time() {
    const STEPS: usize = 32;
    let out = miniqmc()
        .args(["--benchmark", "graphite", "--threads", "1"])
        .args(["--walkers", "2", "--steps", &STEPS.to_string()])
        .args(["--warmup", "1", "--profile", "json"])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let v = json::parse(&stdout).expect("stdout is one valid JSON document");

    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(qmc_instrument::RUN_REPORT_SCHEMA)
    );
    assert_eq!(
        v.get("benchmark").and_then(|s| s.as_str()),
        Some("Graphite")
    );

    // Every kernel category is present, and per-kernel times sum to no
    // more than the total wall time (single-threaded leaf timers) — up to
    // the sampling error of the estimate. Kernel times are sampled (1 call
    // in 16, weighted by 16): a kernel of `c` calls and `s` estimated
    // seconds carries a standard error of about s·√(15 / c), and a debug
    // build spends ~98 % of this run inside kernels, so a bare `<=` would
    // fail on the sampling realisation alone. The sum may exceed wall time
    // by 4σ, which at this run length is ~12 %: a doubled weight (~2×
    // wall) or a doubled B-spline scope (+35 %) still fails.
    let kernels = v.get("kernels").expect("kernels object");
    let (mut kernel_sum, mut variance) = (0.0, 0.0);
    for &k in &ALL_KERNELS {
        let s = kernels
            .get(k.label())
            .unwrap_or_else(|| panic!("kernel '{}' missing from report", k.label()));
        let seconds = s.get("seconds").unwrap().as_f64().expect("seconds");
        let calls = s.get("calls").unwrap().as_f64().expect("calls");
        kernel_sum += seconds;
        if calls > 0.0 {
            variance += 15.0 * seconds * seconds / calls;
        }
    }
    let wall = v.get("seconds").unwrap().as_f64().expect("wall seconds");
    assert!(wall > 0.0);
    let bound = wall + 4.0 * variance.sqrt();
    assert!(
        kernel_sum <= bound,
        "kernel sum {kernel_sum} exceeds wall {wall} + 4 sigma = {bound}"
    );
    assert!(kernel_sum > 0.0, "profile must not be empty");

    // Accept ratio and population trajectory round out the report.
    let acc = v.get("acceptance").unwrap().as_f64().unwrap();
    assert!(acc > 0.0 && acc <= 1.0);
    let pop = v.get("population").unwrap().as_arr().unwrap();
    assert_eq!(pop.len(), STEPS, "one population entry per step");
    assert!(v.get("e_trial_trace").unwrap().as_arr().unwrap().len() == STEPS);
    // Per-worker profiles: one group for the single thread.
    assert_eq!(v.get("crowd_kernels").unwrap().as_arr().unwrap().len(), 1);
    // The sanitizer always counts, and a clean run violates nothing.
    let san = v.get("sanitizer").expect("sanitizer object");
    assert!(san.get("total_checks").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(san.get("total_violations").unwrap().as_f64(), Some(0.0));
}

/// Pipes `doc` through `json_check`: (exit code, stderr).
fn json_check(doc: &str) -> (Option<i32>, String) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_json_check"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn json_check");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(doc.as_bytes())
        .expect("write report");
    let out = child.wait_with_output().expect("json_check exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pipes `doc` through `json_check`: (exit success, stderr).
fn check(doc: &str) -> (bool, String) {
    let (code, stderr) = json_check(doc);
    (code == Some(0), stderr)
}

/// A document nested past the parser's depth bound is a one-line error
/// and exit 1, not a stack overflow.
#[test]
fn json_check_rejects_deep_nesting_in_one_line() {
    let (code, stderr) = json_check(&"[".repeat(200_000));
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// A clean sanitizer block: checks ran, none failed.
const CLEAN_SANITIZER: &str = r#""sanitizer":{"total_checks":40,"total_violations":0}"#;

/// `json_check` gates a run report's attribution: kernel seconds must be
/// finite and ≥ 0 and sum to no more than `seconds` × `threads`.
#[test]
fn json_check_rejects_kernel_time_beyond_wall_time() {
    let report = |j2: &str, det: &str| {
        format!(
            r#"{{"schema":"{}","seconds":0.5,"threads":2,"kernels":{{"J2":{{"seconds":{j2},"calls":9}},"DetRatio":{{"seconds":{det},"calls":3}}}},{CLEAN_SANITIZER}}}"#,
            qmc_instrument::RUN_REPORT_SCHEMA
        )
    };

    let (ok, stderr) = check(&report("0.6", "0.3"));
    assert!(ok, "0.9 s of kernels in 0.5 s x 2 threads: {stderr}");

    let (ok, stderr) = check(&report("0.7", "0.4"));
    assert!(!ok, "1.1 s of kernels in 0.5 s x 2 threads was accepted");
    assert!(
        stderr.contains("sum to 1.100000 s"),
        "message must name the sum: {stderr}"
    );

    let (ok, stderr) = check(&report("null", "0.1"));
    assert!(!ok, "a non-finite kernel time was accepted");
    assert!(stderr.contains("`J2` seconds"), "{stderr}");
}

/// `json_check` gates a run report's sanitizer block: a run must have made
/// checks (a sanitizer that stopped counting reads 0) and seen no
/// violation.
#[test]
fn json_check_requires_sanitizer_checks_and_no_violations() {
    let report = |sanitizer: &str| {
        format!(
            r#"{{"schema":"{}","seconds":0.5,"threads":1,"kernels":{{"J2":{{"seconds":0.1,"calls":9}}}}{sanitizer}}}"#,
            qmc_instrument::RUN_REPORT_SCHEMA
        )
    };

    let (ok, stderr) = check(&report(&format!(",{CLEAN_SANITIZER}")));
    assert!(ok, "40 checks, no violations: {stderr}");

    let (ok, stderr) = check(&report(
        r#","sanitizer":{"total_checks":0,"total_violations":0}"#,
    ));
    assert!(!ok, "a report with zero sanitizer checks was accepted");
    assert!(stderr.contains("no checks"), "{stderr}");

    let (ok, stderr) = check(&report(
        r#","sanitizer":{"total_checks":40,"total_violations":1}"#,
    ));
    assert!(!ok, "a sanitizer violation was accepted");
    assert!(stderr.contains("1 invariant violation"), "{stderr}");

    let (ok, stderr) = check(&report(""));
    assert!(!ok, "a report without a sanitizer block was accepted");
    assert!(stderr.contains("`sanitizer`"), "{stderr}");
}

#[test]
fn json_report_with_crowds_has_per_crowd_profiles() {
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "3",
            "--warmup",
            "1",
            "--crowd",
            "2",
            "--profile",
            "json",
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(v.get("crowd_size").unwrap().as_f64(), Some(2.0));
    let groups = v.get("crowd_kernels").unwrap().as_arr().unwrap();
    assert_eq!(groups.len(), 2, "one profile per crowd");
    // Each crowd did real work (SPO evaluations landed in its group).
    for g in groups {
        let calls = g
            .get("Bspline-vgh")
            .unwrap()
            .get("calls")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(calls > 0.0, "crowd profile recorded no SPO calls");
    }
}

/// `--profile trace:T` with `--stream S` sends every span to both sinks:
/// the stream's `trace` records and the Chrome file's `X` events agree in
/// number.
#[test]
fn trace_mode_writes_chrome_trace_with_spans() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("miniqmc_trace_{}.json", std::process::id()));
    let path_arg = format!("trace:{}", path.display());
    let nd = dir.join(format!("miniqmc_trace_{}.ndjson", std::process::id()));
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "3",
            "--warmup",
            "1",
            "--crowd",
            "2",
            "--stream",
            &nd.display().to_string(),
            "--profile",
            &path_arg,
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let stream = std::fs::read_to_string(&nd).expect("stream written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&nd);
    let streamed = stream
        .lines()
        .map(|l| json::parse(l).expect("NDJSON line"))
        .filter(|r| r.get("event").and_then(|e| e.as_str()) == Some("trace"))
        .count();
    let v = json::parse(&text).expect("trace is valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(!names.is_empty(), "trace has no spans");
    assert_eq!(
        streamed,
        names.len(),
        "stream and trace file got different spans"
    );
    assert!(
        names.iter().any(|n| n.starts_with("crowd generation")),
        "per-crowd spans missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("block ")),
        "per-block spans missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("step ")),
        "driver step spans missing: {names:?}"
    );
    // Spans land on distinct lanes (tid = crowd index / driver lane).
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as u64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "expected multiple lanes, got {tids:?}");
}

fn walker_hash_line(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .find(|l| l.starts_with("walker-hash"))
        .expect("walker-hash line in summary")
        .to_string()
}

/// End to end through the binary: a job checkpointed at an interior
/// generation and restarted from the file finishes with the same
/// per-walker FNV-1a population hash as the job that was never killed —
/// per walker and in crowds, DMC and VMC (whose steps are blocks of four
/// sweeps, so it cuts at 12 of 24). Crowds are bitwise equal to per-walker
/// runs, so the hash cannot see a resume that drops `--crowd`: the resumed
/// run must also echo the straight run's configuration line. The stream
/// continues across the restart: the killed segment records its
/// checkpoint and the resumed one announces the step it picked up at.
#[test]
fn checkpoint_then_resume_matches_straight_run_hash() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("miniqmc_ck_{}.qmc", std::process::id()));
    let nd = dir.join(format!("miniqmc_ck_{}.ndjson", std::process::id()));
    let ck_arg = format!("{}:3", ck.display());
    let common = [
        "--benchmark",
        "graphite",
        "--threads",
        "2",
        "--walkers",
        "4",
        "--warmup",
        "1",
        "--seed",
        "11",
    ];
    let shapes: [&[&str]; 4] = [
        &[],
        &["--crowd", "2"],
        &["--driver", "vmc"],
        &["--driver", "vmc", "--crowd", "2"],
    ];

    for shape in shapes {
        let (cut, total) = if shape.contains(&"vmc") {
            ("12", "24")
        } else {
            ("3", "6")
        };
        let run = |extra: &[&str]| {
            let out = miniqmc()
                .args(common)
                .args(shape)
                .args(extra)
                .output()
                .expect("spawn miniqmc");
            assert!(
                out.status.success(),
                "{shape:?} {extra:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let stream = nd.display().to_string();
        let straight = run(&["--steps", total]);
        // "Killed" job: stops at the cut, leaving its checkpoint behind.
        let killed = run(&["--steps", cut, "--checkpoint", &ck_arg, "--stream", &stream]);
        // Restart from the file and run to the same total step count.
        let resumed = run(&[
            "--steps",
            total,
            "--resume",
            &ck.display().to_string(),
            "--stream",
            &stream,
        ]);
        let text = std::fs::read_to_string(&nd).expect("stream written");
        let _ = std::fs::remove_file(&ck);
        let _ = std::fs::remove_file(&nd);

        let config = |stdout: &[u8]| {
            String::from_utf8_lossy(stdout)
                .lines()
                .find(|l| l.starts_with("code = "))
                .expect("configuration line")
                .to_string()
        };
        assert_eq!(
            config(&straight),
            config(&resumed),
            "{shape:?}: resumed run is configured differently"
        );
        let [straight, killed, resumed] = [straight, killed, resumed].map(|o| walker_hash_line(&o));
        assert_eq!(
            straight, resumed,
            "{shape:?}: resumed run diverged from the straight run"
        );
        assert_ne!(
            straight, killed,
            "{shape:?}: interior checkpoint must not equal the finished population (no-op trap)"
        );
        let records: Vec<_> = text
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON line: {e}: {l}")))
            .collect();
        let field = |key| {
            records
                .iter()
                .filter_map(move |r: &json::JsonValue| r.get(key))
        };
        assert!(
            field("event").any(|e| e.as_str() == Some("checkpoint")),
            "{shape:?}: no checkpoint record"
        );
        assert!(
            field("resumed_from_step").any(|s| s.as_f64() == Some(3.0)),
            "{shape:?}: no start record with resumed_from_step = 3"
        );
    }
}

/// `--stream` appends one NDJSON record per event: a start record with
/// the schema tag, one block record per generation (monotone steps), a
/// checkpoint record when the cadence fires, and an end record whose
/// walker_hash matches the summary line.
#[test]
fn stream_is_valid_ndjson_with_per_block_records() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("miniqmc_stream_ck_{}.qmc", std::process::id()));
    let nd = dir.join(format!("miniqmc_stream_{}.ndjson", std::process::id()));
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "4",
            "--warmup",
            "1",
            "--seed",
            "11",
            "--checkpoint",
            &format!("{}:2", ck.display()),
            "--stream",
            &nd.display().to_string(),
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&nd).expect("stream written");
    let _ = std::fs::remove_file(&nd);
    let _ = std::fs::remove_file(&ck);

    let records: Vec<_> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON line: {e}: {l}")))
        .collect();
    let kind = |r: &json::JsonValue| r.get("event").unwrap().as_str().unwrap().to_string();

    assert_eq!(kind(&records[0]), "start");
    assert_eq!(
        records[0].get("schema").and_then(|s| s.as_str()),
        Some("qmc-run-report-stream/1")
    );
    assert_eq!(kind(records.last().unwrap()), "end");

    let steps: Vec<u64> = records
        .iter()
        .filter(|r| kind(r) == "block")
        .map(|r| r.get("step").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(steps, vec![1, 2, 3, 4], "one block record per generation");

    let checkpoints: Vec<u64> = records
        .iter()
        .filter(|r| kind(r) == "checkpoint")
        .map(|r| r.get("step").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(checkpoints, vec![2, 4], "cadence :2 fires at steps 2 and 4");

    // End-record hash agrees with the summary line.
    let end_hash = records
        .last()
        .unwrap()
        .get("walker_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        walker_hash_line(&out.stdout).contains(&end_hash),
        "stream end hash {end_hash} not in summary"
    );
}

/// A corrupt (or plain-text) file handed to `--resume` must produce a
/// one-line diagnostic and exit code 1 — never a panic backtrace.
#[test]
fn corrupt_resume_file_fails_cleanly() {
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("miniqmc_bad_ck_{}.qmc", std::process::id()));
    std::fs::write(&bad, b"this is not a checkpoint at all").expect("write corrupt file");
    let out = miniqmc()
        .args(["--benchmark", "graphite", "--walkers", "2"])
        .args(["--steps", "2", "--warmup", "1"])
        .args(["--resume", &bad.display().to_string()])
        .output()
        .expect("spawn miniqmc");
    let _ = std::fs::remove_file(&bad);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn profiling_modes_do_not_change_results() {
    // Determinism guard: the same seeded run must produce bitwise
    // identical physics with profiling off (summary), json, and tracing.
    let summary = miniqmc().args(tiny_args()).output().expect("spawn miniqmc");
    let json_out = miniqmc()
        .args(tiny_args())
        .args(["--profile", "json"])
        .output()
        .expect("spawn miniqmc");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("miniqmc_det_{}.json", std::process::id()));
    let trace_out = miniqmc()
        .args(tiny_args())
        .args(["--profile", &format!("trace:{}", path.display())])
        .output()
        .expect("spawn miniqmc");
    let _ = std::fs::remove_file(&path);
    assert!(summary.status.success());
    assert!(json_out.status.success());
    assert!(trace_out.status.success());

    let energy_line = |s: &str| -> String {
        s.lines()
            .find(|l| l.starts_with("energy"))
            .expect("energy line")
            .to_string()
    };
    let e_summary = energy_line(&String::from_utf8_lossy(&summary.stdout));
    let e_trace = energy_line(&String::from_utf8_lossy(&trace_out.stdout));
    assert_eq!(e_summary, e_trace, "tracing changed the physics");

    let v = json::parse(&String::from_utf8(json_out.stdout).unwrap()).unwrap();
    let mean = v
        .get("energy")
        .unwrap()
        .get("mean")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        e_summary.contains(&format!("{mean:.6}")),
        "json mean {mean} not consistent with summary: {e_summary}"
    );
}

/// Runs `miniqmc` with `args` and returns its stdout, failing on a
/// nonzero exit.
fn stdout_of(args: &[&str]) -> String {
    let out = miniqmc().args(args).output().expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Both drivers render one `RunReport`: the JSON document and the summary
/// of the same seeded run agree on the population hash and the energy.
#[test]
fn json_report_and_summary_agree_for_both_drivers() {
    for driver in ["dmc", "vmc"] {
        let mut args = tiny_args().to_vec();
        args.extend(["--driver", driver]);
        let summary = stdout_of(&args);
        args.extend(["--profile", "json"]);
        let v = json::parse(&stdout_of(&args)).expect("stdout is one JSON document");

        let hash = v.get("walker_hash").and_then(|h| h.as_str()).expect("hash");
        assert_eq!(hash.len(), 16, "{driver}: {hash}");
        assert_eq!(
            walker_hash_line(summary.as_bytes()),
            format!("walker-hash: {hash}"),
            "{driver}"
        );
        let mean = v.get("energy").and_then(|e| e.get("mean"));
        let mean = mean.and_then(json::JsonValue::as_f64).expect("energy.mean");
        let energy = summary
            .lines()
            .find(|l| l.starts_with("energy"))
            .expect("energy line");
        assert!(
            energy.contains(&format!("{mean:.6}")),
            "{driver}: json mean {mean} not in {energy}"
        );
        assert!(v.get("kappa").is_some(), "{driver}: no kappa key");
    }
}

/// `--driver vmc --profile json` writes exactly one `qmc-run-report/1`
/// document on stdout — the run banner, the VMC block line included, goes
/// to stderr — with no trial energy and no population, and `json_check`
/// accepts it. One walker on a two-engine crew leaves the second engine
/// idle, so the attribution gate has a factor of two over this debug run's
/// kernel-sampling error (~6 %); `ci.sh` gates attribution on a release
/// run sized for it.
#[test]
fn vmc_json_report_is_one_document_that_json_check_accepts() {
    let stdout = stdout_of(&[
        "--benchmark",
        "graphite",
        "--driver",
        "vmc",
        "--threads",
        "2",
        "--walkers",
        "1",
        "--steps",
        "8",
        "--profile",
        "json",
    ]);
    let v = json::parse(&stdout).expect("stdout is exactly one JSON document");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(qmc_instrument::RUN_REPORT_SCHEMA)
    );
    assert_eq!(v.get("e_trial"), Some(&json::JsonValue::Null));
    assert_eq!(v.get("population").and_then(|p| p.as_arr()), Some(&[][..]));
    let (ok, stderr) = check(&stdout);
    assert!(ok, "json_check rejected the VMC report: {stderr}");
}
