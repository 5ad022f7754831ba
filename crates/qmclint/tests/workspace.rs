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

/// The lock-order rule must start where locks are really taken: its roots
/// went stale once (a crate that had stopped locking) and the rule then
/// passed over an empty set. Every root has to be a live file whose
/// functions acquire a lock while holding another.
#[test]
fn lock_order_roots_hold_real_acquisition_orders() {
    let model = workspace_model();
    for lock_root in qmclint::config::LOCK_ROOTS {
        let nested: Vec<String> = model
            .files
            .iter()
            .filter(|f| f.path.starts_with(lock_root))
            .flat_map(|f| &f.fns)
            .filter(|f| !f.in_test)
            .flat_map(|f| &f.locks)
            .flat_map(|acq| acq.held.iter().map(move |h| format!("{h} -> {}", acq.name)))
            .collect();
        assert!(
            nested.iter().any(|e| e == "shared -> energies"),
            "lock root `{lock_root}` orders no lock pair any more: {nested:?}"
        );
    }
}
