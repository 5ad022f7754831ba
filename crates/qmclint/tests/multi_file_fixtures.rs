//! Multi-file fixtures: rules whose verdict depends on the file's path.
//!
//! Each directory under `tests/fixtures/multi_file/` is one workspace-in-
//! miniature: every `.rs` file in it declares its synthetic repo path on
//! the first line (`// fixture-path: crates/...`), the whole set is fed
//! to [`qmclint::lint_files`] together (so `classify`, the sanctioned RNG
//! territory and the spawn site all see real paths), and
//! `//~ <rule-id>` / `//~v <rule-id>` expectations
//! must match the produced diagnostics exactly — rule, file and line, in
//! both directions. Cases with no expectations assert cleanliness.

use qmclint::{lint_files, Rule};
use std::path::{Path, PathBuf};

fn case_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/multi_file");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("multi-file fixture directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "no cases under tests/fixtures/multi_file");
    dirs
}

/// Loads one case: `(fixture-path, source)` pairs plus
/// `(fixture-path, line, rule)` expectations.
#[allow(clippy::type_complexity)]
fn load_case(dir: &Path) -> (Vec<(String, String)>, Vec<(String, u32, Rule)>) {
    let mut files = Vec::new();
    let mut expected = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("case dir readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "{}: empty multi-file case",
        dir.display()
    );
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let fixture_path = src
            .lines()
            .next()
            .and_then(|l| l.split_once("fixture-path:"))
            .unwrap_or_else(|| panic!("{} missing `// fixture-path:` header", path.display()))
            .1
            .trim()
            .to_string();
        for (idx, line) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let Some(pos) = line.find("//~") else {
                continue;
            };
            let rest = &line[pos + 3..];
            let (target, rest) = match rest.strip_prefix('v') {
                Some(r) => (lineno + 1, r),
                None => (lineno, rest),
            };
            let id = rest.split_whitespace().next().unwrap_or("");
            let rule = Rule::from_id(id)
                .unwrap_or_else(|| panic!("{}:{lineno}: unknown rule `{id}`", path.display()));
            expected.push((fixture_path.clone(), target, rule));
        }
        files.push((fixture_path, src));
    }
    (files, expected)
}

#[test]
fn multi_file_cases_report_exact_files_and_lines() {
    for dir in case_dirs() {
        let (files, mut expected) = load_case(&dir);
        let report = lint_files(&files);
        let mut got: Vec<(String, u32, Rule)> = report
            .diagnostics
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule))
            .collect();
        got.sort();
        expected.sort();
        assert_eq!(
            got,
            expected,
            "{}: diagnostics do not match expectations.\nactual: {:#?}",
            dir.display(),
            report.diagnostics
        );
    }
}
