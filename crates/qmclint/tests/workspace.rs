//! The workspace itself must lint clean: `cargo test -p qmclint` is a
//! second enforcement point for the CI gate, so a regression fails the
//! test suite even when nobody runs the `qmclint` binary directly.

use std::path::Path;

#[test]
fn repository_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = qmclint::lint_workspace(&root);
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned ({}) — exemption config drift?",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .diagnostics
        .iter()
        .map(qmclint::Diagnostic::render_human)
        .collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace has {} unsuppressed qmclint diagnostics:\n{}",
        report.diagnostics.len(),
        rendered.join("\n")
    );
}

/// The function/call-graph model of the real tree, as the graph rules see it.
fn workspace_model() -> qmclint::WorkspaceModel {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let classified: Vec<(String, String, qmclint::FileClass)> = qmclint::collect_sources(&root)
        .into_iter()
        .map(|(path, src)| {
            let class = qmclint::classify(&path);
            (path, src, class)
        })
        .collect();
    qmclint::WorkspaceModel::build(&classified)
}

/// Every crate without real `unsafe` must carry `#![forbid(unsafe_code)]`,
/// and the set of crates that do use `unsafe` must not silently grow.
/// (`shims/` is outside the scan — `config::SKIP_DIRS` excludes it, so the
/// vendored stand-ins are audited by eye, not by this test.)
#[test]
fn unsafe_audit_forbids_everywhere_it_can() {
    let model = workspace_model();

    let missing = model.missing_forbid_unsafe();
    assert!(
        missing.is_empty(),
        "crates with no `unsafe` but no `#![forbid(unsafe_code)]`: {missing:?}"
    );

    let mut unsafe_crates: Vec<&str> = model
        .files
        .iter()
        .filter(|f| f.has_unsafe && !f.path.contains("/tests/"))
        .map(|f| f.crate_key.as_str())
        .collect();
    unsafe_crates.sort_unstable();
    unsafe_crates.dedup();
    assert_eq!(
        unsafe_crates,
        ["crates/containers/", "crates/instrument/"],
        "the set of crates using `unsafe` changed — update this audit \
         deliberately, not by accident"
    );
}

/// Threads start in one place: exactly one linted file calls a
/// `SPAWN_METHODS` method, and it is the crew fan-out the `determinism`
/// rule exempts. If the fan-out moves, `config::SPAWN_SITE` moves with it
/// or this fails — the exemption can never point at a file that no longer
/// spawns while a new site goes unnoticed.
#[test]
fn the_crew_fan_out_is_the_only_spawn_site() {
    use qmclint::config::{SPAWN_METHODS, SPAWN_SITE};
    let model = workspace_model();
    let spawning: Vec<&str> = model
        .files
        .iter()
        .filter(|file| {
            file.fns
                .iter()
                .flat_map(|f| &f.calls)
                .any(|call| call.method && SPAWN_METHODS.contains(&call.callee.as_str()))
        })
        .map(|file| file.path.as_str())
        .collect();
    assert_eq!(spawning, [SPAWN_SITE]);
}
