//! `qmclint` CLI: lints the workspace and exits nonzero on findings.
//!
//! ```text
//! qmclint [--root PATH] [--json]
//! ```
//!
//! Human output is one `file:line: [rule] message` block per finding;
//! `--json` emits the `qmclint/5` machine-readable report on stdout
//! (diagnostics still summarized on stderr). Exit codes: 0 clean,
//! 1 findings, 2 bad usage.

use std::path::PathBuf;

fn main() {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => {
                if let Some(p) = args.next() {
                    root = PathBuf::from(p);
                } else {
                    eprintln!("qmclint: --root requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: qmclint [--root PATH] [--json]");
                std::process::exit(0);
            }
            other => {
                eprintln!("qmclint: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let report = qmclint::lint_workspace(&root);
    if json {
        println!(
            "{}",
            qmclint::report_json(&report.diagnostics, report.files_scanned)
        );
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render_human());
        }
    }
    eprintln!(
        "qmclint: {} files scanned, {} diagnostic{}",
        report.files_scanned,
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        }
    );
    if !report.diagnostics.is_empty() {
        std::process::exit(1);
    }
}
