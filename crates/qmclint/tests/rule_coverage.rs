//! Meta-test over the fixture corpus: every rule — lexical, graph, and
//! effect — must be witnessed in both directions. A *firing* fixture
//! carries a `//~ <rule-id>` (or `//~v`) expectation for the rule; a
//! *silence* fixture exercises the rule's shape the legal way and
//! declares it with a `// fixture-silences: <rule-id>[, ...]` header.
//! Without the silence half, a rule that degenerates into "flag
//! everything" would still pass its violation fixtures.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use qmclint::{Rule, ALL_RULES, EFFECT_RULES, GRAPH_RULES};

/// The full rule inventory the corpus must cover.
fn every_rule() -> Vec<Rule> {
    let mut rules: Vec<Rule> = ALL_RULES.to_vec();
    rules.extend(GRAPH_RULES);
    rules.extend(EFFECT_RULES);
    rules.push(Rule::BadMarker);
    rules
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Rule ids named by `//~` / `//~v` expectation comments in one file.
fn expectation_ids(src: &str, path: &Path) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    for line in src.lines() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = line[pos + 3..].trim_start_matches('v');
        let id = rest
            .split_whitespace()
            .next()
            .unwrap_or_else(|| panic!("{}: empty `//~` expectation", path.display()));
        assert!(
            Rule::from_id(id).is_some(),
            "{}: `//~` names unknown rule `{id}`",
            path.display()
        );
        ids.insert(id.to_string());
    }
    ids
}

/// Rule ids declared by a `// fixture-silences:` header in one file.
fn silence_ids(src: &str, path: &Path) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    for line in src.lines() {
        let Some((_, rest)) = line.split_once("fixture-silences:") else {
            continue;
        };
        for id in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            assert!(
                Rule::from_id(id).is_some(),
                "{}: fixture-silences names unknown rule `{id}`",
                path.display()
            );
            ids.insert(id.to_string());
        }
    }
    ids
}

/// Every rule must have at least one firing fixture and at least one
/// declared silence fixture somewhere in the corpus.
#[test]
fn every_rule_has_a_firing_and_a_silence_fixture() {
    let mut files = Vec::new();
    collect_rs(&fixture_root(), &mut files);
    assert!(!files.is_empty(), "no fixtures found");

    let mut firing = BTreeSet::new();
    let mut silenced = BTreeSet::new();
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        firing.extend(expectation_ids(&src, path));
        silenced.extend(silence_ids(&src, path));
    }

    for rule in every_rule() {
        let id = rule.id();
        assert!(
            firing.contains(id),
            "rule `{id}` has no firing fixture (`//~ {id}` expectation)"
        );
        assert!(
            silenced.contains(id),
            "rule `{id}` has no silence fixture (`// fixture-silences: {id}` header)"
        );
    }
}

/// A case directory must not both declare a rule silent and expect it to
/// fire: that would make the silence declaration meaningless. Cases are
/// grouped by parent directory because graph cases span multiple files.
#[test]
fn silence_declarations_never_coexist_with_matching_expectations() {
    let mut files = Vec::new();
    collect_rs(&fixture_root(), &mut files);

    let mut case_dirs: BTreeSet<PathBuf> = BTreeSet::new();
    for path in &files {
        case_dirs.insert(path.parent().unwrap().to_path_buf());
    }

    for dir in case_dirs {
        let mut firing = BTreeSet::new();
        let mut silenced = BTreeSet::new();
        for path in files.iter().filter(|p| p.parent().unwrap() == dir) {
            let src = fs::read_to_string(path).unwrap();
            firing.extend(expectation_ids(&src, path));
            silenced.extend(silence_ids(&src, path));
        }
        let clash: Vec<_> = firing.intersection(&silenced).collect();
        assert!(
            clash.is_empty(),
            "{}: rules both expected and declared silent: {clash:?}",
            dir.display()
        );
    }
}
