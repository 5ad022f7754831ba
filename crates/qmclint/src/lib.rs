//! # qmclint — QMC project-invariant analyzer
//!
//! The paper's three riskiest transformations — mixed precision (§7.2),
//! forward-update distance tables and compute-on-the-fly Jastrow factors —
//! trade stored state for recomputation and narrower types, so their
//! correctness rests on invariants the type system cannot see: where
//! `f32↔f64` casts are allowed, which paths must stay allocation- and
//! panic-free, and which kernels must feed the timer taxonomy the run
//! report is built from. `qmclint` enforces the lexical ones mechanically:
//!
//! 1. **precision-cast** — raw `as f32`/`as f64` casts and suffixed float
//!    literals in physics crates are only legal in designated
//!    mixed-precision modules.
//! 2. **hot-path** — kernel functions must not allocate or panic.
//! 3. **timer-coverage** — `mw_*` entry points are timed, and every
//!    `Kernel` variant is referenced by some instrumentation site.
//! 4. **determinism** — no wall clocks, OS entropy, hash-map iteration,
//!    locks, barriers or cells in physics crates, and no thread spawn
//!    anywhere but the crew fan-out (`config::SPAWN_SITE`).
//! 5. **rng-discipline** — RNG draws only in the sanctioned
//!    driver/branch/move files, stream re-keys only in the migration
//!    marker (`config::SANCTIONED_REKEY_FNS`).
//!
//! (The sixth rule id, `bad-marker`, polices the markers themselves.)
//! Other invariants are carried by the language or by a test instead.
//! Concurrency: the program has one spawn site and no lock (rule 4 keeps
//! it that way) and `qmcsched` sweeps that site across schedules.
//! Checkpoint coverage: every carrier of a checkpointed struct names all
//! its fields without `..`, so a new field does not compile until the
//! codec, the digest and the decoder carry it. Serialization purity: the
//! serializers and digests take `&` receivers pinned by `const` function
//! pointers, and rule 4 bans the cells that could mutate through them.
//! `unsafe` documentation: `clippy::undocumented_unsafe_blocks`.
//! Allocation-free sweeps, measurements, NLPP shells and walker
//! load/store: a counting global allocator in the workspace test
//! `tests/hot_path_alloc.rs`, which sees through trait objects and
//! generics. Precision flow: rustc rejects `f64 += f32` and `f64 += T`
//! for `T: Real`, so every widening is an `as` cast (rule 1),
//! `f64::from`, `.to_f64()` or `T::from_f64` (see `qmc_containers::Real`).
//!
//! Dependency-free by necessity (the registry is unreachable): the lexer
//! is hand-rolled, and the configuration lives in [`config`] rather than a
//! toml file. Exceptions are justified in-source via
//! `// qmclint: allow(<rule>) — <reason>` markers; a marker without a
//! reason is itself a diagnostic.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use config::{classify, FileClass};
pub use diag::{report_json, Diagnostic, Rule, ALL_RULES};
pub use rules::{check_kernel_coverage, lint_source, KernelUsage};

/// Result of linting a whole workspace tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files actually scanned (exempt files excluded).
    pub files_scanned: usize,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>, visited: &mut BTreeSet<PathBuf>) {
    // Symlink-cycle guard: a directory is only descended once, identified
    // by its canonical path.
    let Ok(canon) = std::fs::canonicalize(dir) else {
        return;
    };
    if !visited.insert(canon) {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if config::SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out, visited);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Reads every `.rs` file under `root` (skipping [`config::SKIP_DIRS`] and
/// symlink cycles) as `(repo-relative path, source)` pairs, exempt files
/// included — callers classify. Public so audits (the `forbid(unsafe_code)`
/// and spawn-site tests) can reuse the walker.
pub fn collect_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut visited = BTreeSet::new();
    collect_rs_files(root, &mut files, &mut visited);
    files
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path).ok()?;
            Some((rel, src))
        })
        .collect()
}

/// Lints a set of `(repo-relative path, source)` files: the per-file
/// lexical rules on each, then the kernel-coverage cross-check over all of
/// them together. [`lint_workspace`] feeds it the real tree; the
/// multi-file fixtures feed it synthetic ones.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let mut report = LintReport::default();
    let mut usage = KernelUsage::default();
    let mut timer: Option<(&str, &str)> = None;

    for (rel, src) in files {
        let class = classify(rel);
        if class.exempt {
            continue;
        }
        if rel == "crates/instrument/src/timer.rs" {
            timer = Some((rel, src));
        }
        report.files_scanned += 1;
        lint_source(rel, src, class, &mut report.diagnostics, &mut usage);
    }

    if let Some((rel, src)) = timer {
        check_kernel_coverage(rel, src, &usage, &mut report.diagnostics);
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Lints every non-exempt `.rs` file under `root` (the repo checkout) and
/// runs the workspace-level kernel-coverage cross-check.
pub fn lint_workspace(root: &Path) -> LintReport {
    lint_files(&collect_sources(root))
}
