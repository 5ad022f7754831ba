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
    /// Non-deterministic constructs (`SystemTime`, `thread_rng`, hash-map
    /// iteration) in physics crates.
    Determinism,
    /// Allocation / panic machinery reachable from a hot kernel entry
    /// point through its transitive callee set (the inter-procedural half
    /// of [`Rule::HotPath`]; the diagnostic carries the call chain).
    HotPathCall,
    /// `f32`-typed locals or `f32`-returning calls flowing into an `f64`
    /// accumulator without a designated promotion site.
    PrecisionFlow,
    /// Inconsistent lock-acquisition order among functions reachable from
    /// the multi-rank driver (potential deadlock).
    LockOrder,
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
    /// A `&mut`/interior-mutable capture mutated from a parallel closure
    /// while aliased across concurrently-spawned siblings. Provably
    /// disjoint patterns (closure parameters from `par_chunks_mut`,
    /// per-iteration bindings, lock-guarded chains) are sanctioned.
    SharedMutableCapture,
    /// A bare `+=`/`-=` float accumulation inside (or merging after) a
    /// parallel section instead of the deterministic fixed-shape reduction
    /// (`qmc_drivers::reduce::det_sum*`) or the documented walker-order
    /// sequential merge — the schedule-dependent-bits bug class.
    ParallelReductionOrder,
    /// A single RNG borrow crossing a spawn boundary: a draw through a
    /// captured stream shared between parallel closures. Walkers own their
    /// streams; re-keying happens only in `reseed_for_migration`.
    RngCapture,
    /// A parallel entry point (a non-test function containing a spawn
    /// site) with no registered named `qmcsched` case exercising it, or a
    /// registry row gone stale (case missing, witness ident no longer
    /// reachable from the case).
    ScheduleCoverage,
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

/// The workspace-level rules that need the call-graph model (qmclint v2).
/// Exercised by the multi-file fixtures under `tests/fixtures/graph/`.
pub const GRAPH_RULES: [Rule; 3] = [Rule::HotPathCall, Rule::PrecisionFlow, Rule::LockOrder];

/// The mutation-effect rules layered on the call graph (qmclint v3). Like
/// the graph rules they are exercised by multi-file fixtures under
/// `tests/fixtures/graph/`.
pub const EFFECT_RULES: [Rule; 3] = [
    Rule::SerializationPurity,
    Rule::RngDiscipline,
    Rule::StateCoverage,
];

/// The concurrency-safety rules over the spawn-site model (qmclint v4),
/// run ahead of the sharded executor so every parallel construct lands
/// with its aliasing, reduction order and schedule coverage already
/// checked. Exercised by multi-file fixtures under `tests/fixtures/graph/`.
pub const PAR_RULES: [Rule; 4] = [
    Rule::SharedMutableCapture,
    Rule::ParallelReductionOrder,
    Rule::RngCapture,
    Rule::ScheduleCoverage,
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
            Rule::LockOrder => "lock-order",
            Rule::SerializationPurity => "serialization-purity",
            Rule::RngDiscipline => "rng-discipline",
            Rule::StateCoverage => "state-coverage",
            Rule::SharedMutableCapture => "shared-mutable-capture",
            Rule::ParallelReductionOrder => "parallel-reduction-order",
            Rule::RngCapture => "rng-capture",
            Rule::ScheduleCoverage => "schedule-coverage",
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
            "lock-order" => Some(Rule::LockOrder),
            "serialization-purity" => Some(Rule::SerializationPurity),
            "rng-discipline" => Some(Rule::RngDiscipline),
            "state-coverage" => Some(Rule::StateCoverage),
            "shared-mutable-capture" => Some(Rule::SharedMutableCapture),
            "parallel-reduction-order" => Some(Rule::ParallelReductionOrder),
            "rng-capture" => Some(Rule::RngCapture),
            "schedule-coverage" => Some(Rule::ScheduleCoverage),
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
/// diagnostics in the `qmclint/2` `effects` block. All counts are over the
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

/// Workspace-wide concurrency inventory reported alongside the diagnostics
/// in the `qmclint/3` `par` block. Like [`EffectsSummary`], the counts let
/// CI watch the analysis surface itself — `spawn_sites` dropping to zero
/// means the classifier silently stopped seeing the parallel sections.
#[derive(Clone, Debug, Default)]
pub struct ParSummary {
    /// Parallel-closure sites (`scope.spawn`, `par_chunks_mut`/`par_iter`
    /// `for_each`) in analyzed non-test functions.
    pub spawn_sites: usize,
    /// Non-test functions containing at least one spawn site — the
    /// parallel entry points the schedule-coverage rule tracks.
    pub parallel_fns: usize,
    /// Named `qmcsched` exploration cases found (`explore_*` functions in
    /// `crates/qmcsched/src/`).
    pub sched_cases: usize,
    /// Call sites to the deterministic reduction primitive
    /// (`det_sum` / `det_sum_by` / `det_weighted_mean`).
    pub det_reduce_calls: usize,
}

/// Renders a full report (`qmclint/3` schema) as machine-readable JSON.
///
/// Each schema bump has been purely additive. v2 added the `by_rule`
/// count object (every rule id at its count — the CI gate greps this to
/// fail on any diagnostic class going nonzero) and a per-diagnostic
/// `chain` array. The `qmclint/2` tag added the `effects` block:
/// per-effect-rule counts, the pure-root inventory and
/// per-checkpointed-struct field tallies from [`EffectsSummary`].
/// `qmclint/3` extends `by_rule` with the four concurrency rules and adds
/// the `par` block: the spawn-site / parallel-fn / sched-case /
/// det-reduce-call inventory from [`ParSummary`] plus per-par-rule counts.
pub fn render_json(
    diags: &[Diagnostic],
    files_scanned: usize,
    effects: &EffectsSummary,
    par: &ParSummary,
) -> String {
    let mut out = String::from("{\"schema\":\"qmclint/3\",");
    let _ = write!(out, "\"files_scanned\":{files_scanned},");
    let _ = write!(out, "\"diagnostics_total\":{},", diags.len());
    out.push_str("\"by_rule\":{");
    let all: Vec<Rule> = ALL_RULES
        .iter()
        .chain(GRAPH_RULES.iter())
        .chain(EFFECT_RULES.iter())
        .chain(PAR_RULES.iter())
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
    out.push_str("}},\"par\":{");
    let _ = write!(out, "\"spawn_sites\":{},", par.spawn_sites);
    let _ = write!(out, "\"parallel_fns\":{},", par.parallel_fns);
    let _ = write!(out, "\"sched_cases\":{},", par.sched_cases);
    let _ = write!(out, "\"det_reduce_calls\":{},", par.det_reduce_calls);
    out.push_str("\"rules\":{");
    for (i, rule) in PAR_RULES.iter().enumerate() {
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
        for r in ALL_RULES
            .iter()
            .chain(&GRAPH_RULES)
            .chain(&EFFECT_RULES)
            .chain(&PAR_RULES)
        {
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
        let j = render_json(&[d], 1, &EffectsSummary::default(), &ParSummary::default());
        assert!(j.contains("\\`unwrap()\\`") || j.contains("`unwrap()`"));
        assert!(j.contains("\"files_scanned\":1"));
        assert!(j.contains("\"rule\":\"hot-path\""));
        assert!(j.contains("\"by_rule\":{"));
        assert!(j.contains("\"hot-path\":1"));
        assert!(j.contains("\"lock-order\":0"));
        assert!(j.contains("\"serialization-purity\":0"));
        assert!(j.contains("\"shared-mutable-capture\":0"));
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
        let j = render_json(&[d], 3, &effects, &ParSummary::default());
        assert!(j.starts_with("{\"schema\":\"qmclint/3\","));
        assert!(j.contains(
            "\"effects\":{\"pure_roots\":7,\"rng_draw_sites\":5,\
             \"checkpointed_structs\":{\"DmcState\":9,\"Walker\":8},\
             \"rules\":{\"serialization-purity\":1,\"rng-discipline\":0,\"state-coverage\":0}}"
        ));
        // The top-level by_rule object carries the effect rules too.
        assert!(j.contains("\"serialization-purity\":1"));
    }

    #[test]
    fn par_block_renders_inventory_and_rule_counts() {
        let d = Diagnostic {
            file: "crates/drivers/src/crew.rs".into(),
            line: 90,
            rule: Rule::ParallelReductionOrder,
            message: "bare `esum += ..` merged after a parallel section".into(),
            suggestion: "reduce through qmc_drivers::reduce::det_sum_by".into(),
            chain: vec!["fan_out (crates/drivers/src/crew.rs:60)".into()],
        };
        let par = ParSummary {
            spawn_sites: 9,
            parallel_fns: 8,
            sched_cases: 8,
            det_reduce_calls: 14,
        };
        let j = render_json(&[d], 4, &EffectsSummary::default(), &par);
        assert!(j.starts_with("{\"schema\":\"qmclint/3\","));
        assert!(j.contains(
            "\"par\":{\"spawn_sites\":9,\"parallel_fns\":8,\
             \"sched_cases\":8,\"det_reduce_calls\":14,\
             \"rules\":{\"shared-mutable-capture\":0,\"parallel-reduction-order\":1,\
             \"rng-capture\":0,\"schedule-coverage\":0}}"
        ));
        // The top-level by_rule object carries the par rules too.
        assert!(j.contains("\"parallel-reduction-order\":1"));
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
        let j = render_json(&[d], 2, &EffectsSummary::default(), &ParSummary::default());
        assert!(j.contains("\"chain\":[\"evaluate (a.rs:3)\",\"helper (b.rs:9)\"]"));
        assert!(j.contains("\"hot-path-call\":1"));
    }
}
