//! The workspace itself must lint clean: `cargo test -p qmclint` is a
//! second enforcement point for the CI gate, so a regression fails the
//! test suite even when nobody runs the `qmclint` binary directly.

use qmclint::lexer::{lex, Tok};
use std::collections::BTreeMap;
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

/// Every `.rs` file of the real tree with its lexed tokens, as
/// `(repo-relative path, tokens, forbids unsafe)`.
fn workspace_tokens() -> Vec<(String, Vec<Tok>, bool)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    qmclint::collect_sources(&root)
        .into_iter()
        .map(|(path, src)| {
            let forbids = src.contains("#![forbid(unsafe_code)]");
            (path, lex(&src).tokens, forbids)
        })
        .collect()
}

/// Crate key of a repo-relative path: its first two segments
/// (`crates/drivers/`).
fn crate_key(path: &str) -> String {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => format!("{a}/{b}/"),
        _ => String::new(),
    }
}

/// Every crate without real `unsafe` must carry `#![forbid(unsafe_code)]`,
/// and the set of crates that do use `unsafe` must not silently grow.
/// (`shims/` is outside the scan — `config::SKIP_DIRS` excludes it, so the
/// vendored stand-ins are audited by eye, not by this test.) Test code is
/// skipped, so the counting allocator in `tests/hot_path_alloc.rs` is not
/// part of the audited surface.
#[test]
fn unsafe_audit_forbids_everywhere_it_can() {
    // crate key -> (any `unsafe` token, `src/lib.rs` forbids unsafe).
    let mut by_crate: BTreeMap<String, (bool, Option<bool>)> = BTreeMap::new();
    for (path, tokens, forbids) in workspace_tokens() {
        let key = crate_key(&path);
        if key.is_empty() || format!("/{path}").contains("/tests/") {
            continue;
        }
        let is_lib = path == format!("{key}src/lib.rs");
        let entry = by_crate.entry(key).or_insert((false, None));
        entry.0 |= tokens.iter().any(|t| t.is_ident("unsafe"));
        if is_lib {
            entry.1 = Some(forbids);
        }
    }

    let missing: Vec<&str> = by_crate
        .iter()
        .filter(|&(_, &(has_unsafe, forbids))| !has_unsafe && forbids == Some(false))
        .map(|(key, _)| key.as_str())
        .collect();
    assert!(
        missing.is_empty(),
        "crates with no `unsafe` but no `#![forbid(unsafe_code)]`: {missing:?}"
    );

    let unsafe_crates: Vec<&str> = by_crate
        .iter()
        .filter(|&(_, &(has_unsafe, _))| has_unsafe)
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        unsafe_crates,
        ["crates/containers/", "crates/instrument/"],
        "the set of crates using `unsafe` changed — update this audit \
         deliberately, not by accident"
    );
}

/// Threads start in one place: exactly one linted file calls a
/// `SPAWN_METHODS` method (`.spawn(`), and it is the crew fan-out the
/// `determinism` rule exempts. If the fan-out moves, `config::SPAWN_SITE`
/// moves with it or this fails — the exemption can never point at a file
/// that no longer spawns while a new site goes unnoticed.
#[test]
fn the_crew_fan_out_is_the_only_spawn_site() {
    use qmclint::config::{SPAWN_METHODS, SPAWN_SITE};
    let spawning: Vec<String> = workspace_tokens()
        .into_iter()
        .filter(|(path, tokens, _)| {
            !qmclint::classify(path).exempt
                && tokens.windows(3).any(|w| {
                    w[0].is_punct('.')
                        && SPAWN_METHODS.iter().any(|m| w[1].is_ident(m))
                        && w[2].is_punct('(')
                })
        })
        .map(|(path, _, _)| path)
        .collect();
    assert_eq!(spawning, [SPAWN_SITE]);
}
