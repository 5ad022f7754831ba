//! Diagnostics: the lint finding record plus human and JSON rendering.

use std::fmt;
use std::fmt::Write as _;

/// The five QMC invariant rules (plus marker hygiene).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Raw `as f32`/`as f64` casts and suffixed float literals outside the
    /// designated mixed-precision modules.
    PrecisionCast,
    /// Allocation / panic machinery inside hot kernel functions.
    HotPath,
    /// `mw_*` kernel entry points not wrapped in a `Kernel::*` timer, and
    /// `Kernel` variants never timed anywhere.
    TimerCoverage,
    /// Sources of run-to-run nondeterminism: `SystemTime`, `thread_rng`,
    /// hash-map iteration and lock, barrier and cell primitives in physics
    /// crates, and a thread spawn anywhere but `config::SPAWN_SITE`.
    Determinism,
    /// An RNG draw site outside the sanctioned driver/branch/move modules,
    /// or a stream re-key outside the explicit migration marker functions.
    RngDiscipline,
    /// Malformed `qmclint:` marker (unknown rule, missing justification).
    BadMarker,
}

/// Every invariant rule, in display order ([`Rule::BadMarker`] is meta).
pub const ALL_RULES: [Rule; 5] = [
    Rule::PrecisionCast,
    Rule::HotPath,
    Rule::TimerCoverage,
    Rule::Determinism,
    Rule::RngDiscipline,
];

impl Rule {
    /// Stable rule id used in diagnostics and allow markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PrecisionCast => "precision-cast",
            Rule::HotPath => "hot-path",
            Rule::TimerCoverage => "timer-coverage",
            Rule::Determinism => "determinism",
            Rule::RngDiscipline => "rng-discipline",
            Rule::BadMarker => "bad-marker",
        }
    }

    /// Parses a rule id as written in an allow marker.
    pub fn from_id(s: &str) -> Option<Rule> {
        match s {
            "precision-cast" => Some(Rule::PrecisionCast),
            "hot-path" => Some(Rule::HotPath),
            "timer-coverage" => Some(Rule::TimerCoverage),
            "determinism" => Some(Rule::Determinism),
            "rng-discipline" => Some(Rule::RngDiscipline),
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
}

impl Diagnostic {
    /// `file:line: [rule] message` followed by an indented help line.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    help: {}",
            self.file, self.line, self.rule, self.message, self.suggestion
        )
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

/// Renders a full report (`qmclint/6` schema) as machine-readable JSON:
/// the `by_rule` count object (all six rule ids at their counts —
/// `json_check` fails CI on any diagnostic class going nonzero) and the
/// diagnostics. `qmclint/6` is `qmclint/5` without the two call-graph
/// rule ids and the per-diagnostic `chain` array.
pub fn report_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::from("{\"schema\":\"qmclint/6\",");
    let _ = write!(out, "\"files_scanned\":{files_scanned},");
    let _ = write!(out, "\"diagnostics_total\":{},", diags.len());
    out.push_str("\"by_rule\":{");
    for (i, rule) in ALL_RULES.iter().chain(&[Rule::BadMarker]).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let count = diags.iter().filter(|d| d.rule == *rule).count();
        let _ = write!(out, "\"{rule}\":{count}");
    }
    out.push_str("},\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"suggestion\":\"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message),
            json_escape(&d.suggestion)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_roundtrip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
        // Retired ids (carried by the compiler or a test now) are gone, so
        // a marker naming one is a bad marker rather than a silent no-op.
        for gone in [
            "state-coverage",
            "serialization-purity",
            "unsafe-comment",
            "hot-path-call",
            "precision-flow",
        ] {
            assert_eq!(Rule::from_id(gone), None);
        }
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: Rule::HotPath,
            message: "call to `unwrap()`".into(),
            suggestion: "don't".into(),
        };
        let j = report_json(&[d], 1);
        assert!(j.starts_with("{\"schema\":\"qmclint/6\","));
        assert!(j.contains("\\`unwrap()\\`") || j.contains("`unwrap()`"));
        assert!(j.contains("\"files_scanned\":1"));
        assert!(j.contains("\"rule\":\"hot-path\""));
        assert!(j.contains(
            "\"by_rule\":{\"precision-cast\":0,\"hot-path\":1,\"timer-coverage\":0,\
             \"determinism\":0,\"rng-discipline\":0,\"bad-marker\":0}"
        ));
        assert!(j.ends_with("\"suggestion\":\"don't\"}]}"), "{j}");
        assert!(
            !j.contains("\"chain\""),
            "the chain array is gone in qmclint/6"
        );
    }
}
