//! Diagnostics: the lint finding record plus human and JSON rendering.

use std::fmt;
use std::fmt::Write as _;

/// The five QMC invariant rule families (plus marker hygiene).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Raw `as f32`/`as f64` casts and suffixed float literals outside the
    /// designated mixed-precision modules.
    PrecisionCast,
    /// Allocation / panic machinery inside hot kernel functions.
    HotPath,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeComment,
    /// `mw_*` kernel entry points not wrapped in a `Kernel::*` timer, and
    /// `Kernel` variants never timed anywhere.
    TimerCoverage,
    /// Sources of run-to-run nondeterminism: `SystemTime`, `thread_rng`,
    /// hash-map iteration and lock/barrier primitives in physics crates,
    /// and a thread spawn anywhere but `config::SPAWN_SITE`.
    Determinism,
    /// Allocation / panic machinery reachable from a hot kernel entry
    /// point through its transitive callee set (the inter-procedural half
    /// of [`Rule::HotPath`]; the diagnostic carries the call chain).
    HotPathCall,
    /// `f32`-typed locals or `f32`-returning calls flowing into an `f64`
    /// accumulator without a designated promotion site.
    PrecisionFlow,
    /// Walker/RNG/buffer state mutated on a path reachable from a
    /// designated pure root (serializers, digests, estimator readers,
    /// `Clone` impls) — the PR-7 bug class, caught before it breaks
    /// bitwise restart parity. The diagnostic carries the call chain from
    /// the pure root to the mutation site.
    SerializationPurity,
    /// An RNG draw site outside the sanctioned driver/branch/move modules,
    /// or a stream re-key outside the explicit migration marker functions.
    RngDiscipline,
    /// A field of a registered checkpointed struct that does not appear in
    /// its serialize/deserialize/digest/clone carriers — adding a field
    /// without extending the `qmc-checkpoint/1` codec fails here instead
    /// of silently breaking restart parity.
    StateCoverage,
    /// Malformed `qmclint:` marker (unknown rule, missing justification).
    BadMarker,
}

/// Every per-file lexical rule, in display order ([`Rule::BadMarker`] is
/// meta; the graph rules live in [`GRAPH_RULES`]).
pub const ALL_RULES: [Rule; 5] = [
    Rule::PrecisionCast,
    Rule::HotPath,
    Rule::UnsafeComment,
    Rule::TimerCoverage,
    Rule::Determinism,
];

/// The workspace-level rules that need the call-graph model.
/// Exercised by the multi-file fixtures under `tests/fixtures/graph/`.
pub const GRAPH_RULES: [Rule; 2] = [Rule::HotPathCall, Rule::PrecisionFlow];

/// The mutation-effect rules layered on the call graph. Like
/// the graph rules they are exercised by multi-file fixtures under
/// `tests/fixtures/graph/`.
pub const EFFECT_RULES: [Rule; 3] = [
    Rule::SerializationPurity,
    Rule::RngDiscipline,
    Rule::StateCoverage,
];

impl Rule {
    /// Stable rule id used in diagnostics and allow markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PrecisionCast => "precision-cast",
            Rule::HotPath => "hot-path",
            Rule::UnsafeComment => "unsafe-comment",
            Rule::TimerCoverage => "timer-coverage",
            Rule::Determinism => "determinism",
            Rule::HotPathCall => "hot-path-call",
            Rule::PrecisionFlow => "precision-flow",
            Rule::SerializationPurity => "serialization-purity",
            Rule::RngDiscipline => "rng-discipline",
            Rule::StateCoverage => "state-coverage",
            Rule::BadMarker => "bad-marker",
        }
    }

    /// Parses a rule id as written in an allow marker.
    pub fn from_id(s: &str) -> Option<Rule> {
        match s {
            "precision-cast" => Some(Rule::PrecisionCast),
            "hot-path" => Some(Rule::HotPath),
            "unsafe-comment" => Some(Rule::UnsafeComment),
            "timer-coverage" => Some(Rule::TimerCoverage),
            "determinism" => Some(Rule::Determinism),
            "hot-path-call" => Some(Rule::HotPathCall),
            "precision-flow" => Some(Rule::PrecisionFlow),
            "serialization-purity" => Some(Rule::SerializationPurity),
            "rng-discipline" => Some(Rule::RngDiscipline),
            "state-coverage" => Some(Rule::StateCoverage),
            "bad-marker" => Some(Rule::BadMarker),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What is wrong.
    pub message: String,
    /// How to fix or justify it.
    pub suggestion: String,
    /// Call chain from the anchor site to the offending site (graph rules
    /// only; empty for the per-file lexical rules). Each entry is
    /// `fn_name (file:line)`.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// `file:line: [rule] message` followed by an indented help line (and,
    /// for graph rules, the call chain).
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {}\n    help: {}",
            self.file, self.line, self.rule, self.message, self.suggestion
        );
        if !self.chain.is_empty() {
            let _ = write!(out, "\n    via: {}", self.chain.join(" -> "));
        }
        out
    }
}

/// Escapes a string for JSON output (the linter is dependency-free, so the
/// writer is inlined here rather than borrowed from `qmc-instrument`).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Workspace-wide effect-inference inventory reported alongside the
/// diagnostics in the `effects` block. All counts are over the
/// analyzed model (test-masked items excluded), so CI can watch the
/// analysis surface itself — a pure-root inventory dropping to zero means
/// the serialization-purity rule silently stopped seeing its roots.
#[derive(Clone, Debug, Default)]
pub struct EffectsSummary {
    /// Functions matched by the pure-root predicate (serializers, digests,
    /// estimator readers, `Clone` impls).
    pub pure_roots: usize,
    /// RNG draw sites observed in the model (sanctioned or not).
    pub rng_draw_sites: usize,
    /// `(struct name, named field count)` for every registered
    /// checkpointed struct found in the workspace, sorted by name.
    pub checkpointed_structs: Vec<(String, usize)>,
}

/// Renders a full report (`qmclint/4` schema) as machine-readable JSON:
/// the `by_rule` count object (every rule id at its count — `json_check`
/// fails CI on any diagnostic class going nonzero), the `effects` block
/// (per-effect-rule counts, the pure-root inventory and
/// per-checkpointed-struct field tallies from [`EffectsSummary`]) and the
/// diagnostics, each with its `chain` array when it has one. `qmclint/4`
/// is `qmclint/3` without the five concurrency rules and the `par` block.
pub fn render_json(diags: &[Diagnostic], files_scanned: usize, effects: &EffectsSummary) -> String {
    let mut out = String::from("{\"schema\":\"qmclint/4\",");
    let _ = write!(out, "\"files_scanned\":{files_scanned},");
    let _ = write!(out, "\"diagnostics_total\":{},", diags.len());
    out.push_str("\"by_rule\":{");
    let all: Vec<Rule> = ALL_RULES
        .iter()
        .chain(GRAPH_RULES.iter())
        .chain(EFFECT_RULES.iter())
        .copied()
        .chain([Rule::BadMarker])
        .collect();
    for (i, rule) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let count = diags.iter().filter(|d| d.rule == *rule).count();
        let _ = write!(out, "\"{rule}\":{count}");
    }
    out.push_str("},\"effects\":{");
    let _ = write!(out, "\"pure_roots\":{},", effects.pure_roots);
    let _ = write!(out, "\"rng_draw_sites\":{},", effects.rng_draw_sites);
    out.push_str("\"checkpointed_structs\":{");
    for (i, (name, fields)) in effects.checkpointed_structs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(name), fields);
    }
    out.push_str("},\"rules\":{");
    for (i, rule) in EFFECT_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let count = diags.iter().filter(|d| d.rule == *rule).count();
        let _ = write!(out, "\"{rule}\":{count}");
    }
    out.push_str("}},\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"suggestion\":\"{}\"",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message),
            json_escape(&d.suggestion)
        );
        if !d.chain.is_empty() {
            out.push_str(",\"chain\":[");
            for (j, hop) in d.chain.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(hop));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_roundtrip() {
        for r in ALL_RULES.iter().chain(&GRAPH_RULES).chain(&EFFECT_RULES) {
            assert_eq!(Rule::from_id(r.id()), Some(*r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: Rule::HotPath,
            message: "call to `unwrap()`".into(),
            suggestion: "don't".into(),
            chain: Vec::new(),
        };
        let j = render_json(&[d], 1, &EffectsSummary::default());
        assert!(j.contains("\\`unwrap()\\`") || j.contains("`unwrap()`"));
        assert!(j.contains("\"files_scanned\":1"));
        assert!(j.contains("\"rule\":\"hot-path\""));
        assert!(j.contains("\"by_rule\":{"));
        assert!(j.contains("\"hot-path\":1"));
        assert!(j.contains("\"determinism\":0"));
        assert!(j.contains("\"serialization-purity\":0"));
        assert!(!j.contains("\"par\""), "the par block is gone in qmclint/4");
    }

    #[test]
    fn effects_block_renders_inventory_and_rule_counts() {
        let d = Diagnostic {
            file: "crates/drivers/src/serialize.rs".into(),
            line: 181,
            rule: Rule::SerializationPurity,
            message: "rng re-key on a pure path".into(),
            suggestion: "move it".into(),
            chain: vec!["serialize_walker (crates/drivers/src/serialize.rs:40)".into()],
        };
        let effects = EffectsSummary {
            pure_roots: 7,
            rng_draw_sites: 5,
            checkpointed_structs: vec![("DmcState".into(), 9), ("Walker".into(), 8)],
        };
        let j = render_json(&[d], 3, &effects);
        assert!(j.starts_with("{\"schema\":\"qmclint/4\","));
        assert!(j.contains(
            "\"effects\":{\"pure_roots\":7,\"rng_draw_sites\":5,\
             \"checkpointed_structs\":{\"DmcState\":9,\"Walker\":8},\
             \"rules\":{\"serialization-purity\":1,\"rng-discipline\":0,\"state-coverage\":0}}"
        ));
        // The top-level by_rule object carries the effect rules too.
        assert!(j.contains("\"serialization-purity\":1"));
    }

    #[test]
    fn chain_renders_in_both_formats() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: Rule::HotPathCall,
            message: "reached alloc".into(),
            suggestion: "hoist".into(),
            chain: vec!["evaluate (a.rs:3)".into(), "helper (b.rs:9)".into()],
        };
        assert!(d
            .render_human()
            .contains("via: evaluate (a.rs:3) -> helper (b.rs:9)"));
        let j = render_json(&[d], 2, &EffectsSummary::default());
        assert!(j.contains("\"chain\":[\"evaluate (a.rs:3)\",\"helper (b.rs:9)\"]"));
        assert!(j.contains("\"hot-path-call\":1"));
    }
}
