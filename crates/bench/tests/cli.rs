//! Two of the crate's five binaries parse run arguments, both through
//! `HarnessConfig::from_env`: `ladder` stands in for itself and
//! `fig1_strong_scaling` (`experiments` passes its arguments on to the
//! binaries it runs; `table1_workloads` and `fig3_jastrow_functors` take
//! none). An argument that cannot be used is a usage error — exit 2 and
//! one line naming the option — raised before any workload is built, so
//! every case here returns at once.

use std::process::Command;

#[test]
fn unusable_arguments_are_usage_errors_not_defaults() {
    let cases: [(&[&str], &[&str]); 8] = [
        (&["--walkers", "abc"], &["--walkers", "'abc'", "usize"]),
        (&["--steps"], &["--steps needs a usize value"]),
        (
            &["--walkers", "4", "--steps", "--bogus", "1"],
            &["--steps needs a usize value"],
        ),
        (&["--reps", "0"], &["--reps", "'0'", "at least 1"]),
        (&["--threads", "0"], &["--threads", "at least 1"]),
        (&["--walkers", "0"], &["--walkers", "at least 1"]),
        (&["--steps", "0"], &["--steps", "at least 1"]),
        (&["--seed", "-3"], &["--seed needs a u64 value"]),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ladder"))
            .args(args)
            .output()
            .expect("spawn ladder");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: printed before refusing");
        let first = stderr.lines().next().unwrap_or_default();
        for part in expected {
            assert!(first.contains(part), "{args:?}: '{part}' not in '{first}'");
        }
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
