//! The five QMC invariant rule families, run over the lexed token stream.
//!
//! Rules are deliberately lexical: they see tokens and comments, not types.
//! That keeps the analyzer dependency-free and fast, at the cost of a small
//! amount of in-source annotation (`// qmclint: allow(<rule>) — <why>`,
//! `// qmclint: cold — <why>`) where the project knowingly deviates.

use crate::config::{
    is_cold_fn_name, FileClass, RNG_DRAW_METHODS, SANCTIONED_REKEY_FNS, SANCTIONED_RNG_PATHS,
    SPAWN_METHODS, SPAWN_SITE,
};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{float_suffix, lex, Lexed, Tok, TokKind};

/// Marker grammar:
///
/// * `// qmclint: allow(rule[, rule]) — reason`       (this line, or the
///   next *code* line — intervening comment-only lines are skipped, so a
///   justification may wrap over several comment lines)
/// * `// qmclint: allow-file(rule[, rule]) — reason`  (whole file)
/// * `// qmclint: cold — reason`                      (next `fn` is setup)
///
/// The em-dash may also be spelled `--` or `-`. A missing or empty reason
/// is itself a diagnostic: every suppression must carry a justification.
#[derive(Debug, Default)]
struct Allows {
    file_rules: Vec<Rule>,
    /// (rule, marker line, first code line at/after the marker).
    line_rules: Vec<(Rule, u32, u32)>,
    cold_lines: Vec<u32>,
}

impl Allows {
    fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.file_rules.contains(&rule)
            || self
                .line_rules
                .iter()
                .any(|&(r, l, tgt)| r == rule && (l == line || tgt == line))
    }

    fn cold_near(&self, fn_line: u32) -> bool {
        self.cold_lines
            .iter()
            .any(|&l| l <= fn_line && l + 3 >= fn_line)
    }
}

fn split_reason(rest: &str) -> Option<&str> {
    for sep in ["—", "--", "-"] {
        if let Some((_, reason)) = rest.split_once(sep) {
            let reason = reason.trim();
            if reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3 {
                return Some(reason);
            }
        }
    }
    None
}

/// First line at or after `marker` that carries a code token (the line a
/// standalone marker comment applies to). Falls back to the marker line.
fn first_code_line(tokens: &[Tok], marker: u32) -> u32 {
    tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l >= marker)
        .unwrap_or(marker)
}

fn parse_markers(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) -> Allows {
    let mut allows = Allows::default();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("qmclint:") else {
            continue;
        };
        let directive = c.text[pos + "qmclint:".len()..].trim();
        let bad = |diags: &mut Vec<Diagnostic>, msg: String| {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: c.line,
                rule: Rule::BadMarker,
                message: msg,
                suggestion: "write `qmclint: allow(<rule>) — <justification>` or \
                             `qmclint: cold — <justification>`"
                    .into(),
            });
        };
        if let Some(rest) = directive.strip_prefix("cold") {
            if split_reason(rest).is_none() {
                bad(
                    diags,
                    "`qmclint: cold` marker without a justification".into(),
                );
            } else {
                allows
                    .cold_lines
                    .push(first_code_line(&lexed.tokens, c.line));
            }
            continue;
        }
        let (file_scope, rest) = if let Some(r) = directive.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = directive.strip_prefix("allow") {
            (false, r)
        } else {
            bad(diags, format!("unknown qmclint directive `{directive}`"));
            continue;
        };
        let Some(open) = rest.find('(') else {
            bad(diags, "allow marker missing `(<rule>)`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(diags, "allow marker missing closing `)`".into());
            continue;
        };
        if split_reason(&rest[close + 1..]).is_none() {
            bad(
                diags,
                "allow marker without a justification after the rule list".into(),
            );
            continue;
        }
        for raw in rest[open + 1..close].split(',') {
            let id = raw.trim();
            match Rule::from_id(id) {
                Some(rule) if file_scope => allows.file_rules.push(rule),
                Some(rule) => {
                    allows
                        .line_rules
                        .push((rule, c.line, first_code_line(&lexed.tokens, c.line)));
                }
                None => bad(diags, format!("unknown rule `{id}` in allow marker")),
            }
        }
    }
    allows
}

/// Per-token mask: true when the token sits inside a `#[cfg(test)] mod`
/// (or other `test`-attributed item) and should be ignored by every rule.
fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Find the matching `]` and inspect the attribute tokens.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident => {
                        if tokens[j].text == "test" {
                            has_test = true;
                        } else if tokens[j].text == "not" {
                            has_not = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip any further attributes, then mask the next item's
                // body (mod/fn/impl ... { ... }).
                let mut k = j + 1;
                while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[')
                {
                    let mut d = 0usize;
                    while k < tokens.len() {
                        if tokens[k].is_punct('[') {
                            d += 1;
                        } else if tokens[k].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Find the item's opening brace and mask to its close.
                let mut body = k;
                while body < tokens.len()
                    && !tokens[body].is_punct('{')
                    && !tokens[body].is_punct(';')
                {
                    body += 1;
                }
                if body < tokens.len() && tokens[body].is_punct('{') {
                    let mut d = 0usize;
                    let mut e = body;
                    while e < tokens.len() {
                        if tokens[e].is_punct('{') {
                            d += 1;
                        } else if tokens[e].is_punct('}') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        e += 1;
                    }
                    for m in &mut mask[i..=e.min(tokens.len() - 1)] {
                        *m = true;
                    }
                    i = e + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// A function span in the token stream.
#[derive(Debug)]
struct FnSpan {
    name: String,
    line: u32,
    /// Token indices of the body's `{` and `}`, if the fn has one.
    body: Option<(usize, usize)>,
}

fn fn_spans(tokens: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && i + 1 < tokens.len() && tokens[i + 1].kind == TokKind::Ident
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // Scan the signature for the body `{` (or `;` for a bare
            // trait-method declaration). Parens/brackets are balanced so a
            // closure default or array type cannot fool the scan.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('(' | '[') => depth += 1,
                    TokKind::Punct(')' | ']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => {
                        // Match braces to find the body end.
                        let mut d = 0i32;
                        let mut e = j;
                        while e < tokens.len() {
                            if tokens[e].is_punct('{') {
                                d += 1;
                            } else if tokens[e].is_punct('}') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            e += 1;
                        }
                        body = Some((j, e.min(tokens.len() - 1)));
                        break;
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            spans.push(FnSpan { name, line, body });
        }
        i += 1;
    }
    spans
}

/// Classifies token `i` as a hot-path violation site. Returns the
/// offending name and `true` when it is panic machinery (vs allocation).
/// Lexical and per-function: an allocation one call away from a kernel is
/// out of its sight, which the workspace's counting-allocator test
/// (`tests/hot_path_alloc.rs`) covers on the code that actually runs.
fn hot_site(tokens: &[Tok], i: usize) -> Option<(&str, bool)> {
    let t = &tokens[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
    let next_bang = tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
    let next_paren = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
    let path_new = tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        && tokens
            .get(i + 3)
            .is_some_and(|n| n.is_ident("new") || n.is_ident("with_capacity"));
    match t.text.as_str() {
        "unwrap" | "expect" if prev_dot && next_paren => Some((t.text.as_str(), true)),
        "panic" | "todo" | "unimplemented" if next_bang => Some((t.text.as_str(), true)),
        "format" | "vec" if next_bang => Some((t.text.as_str(), false)),
        "collect" | "push" | "clone" | "to_vec" | "to_string" if prev_dot && next_paren => {
            Some((t.text.as_str(), false))
        }
        "Vec" | "Box" | "String" if path_new => Some((t.text.as_str(), false)),
        _ => None,
    }
}

/// Kernel-enum usage collected across files for the timer cross-check.
#[derive(Debug, Default)]
pub struct KernelUsage {
    /// `Kernel::Variant` references seen outside `crates/instrument`.
    pub referenced: Vec<String>,
}

/// Lints one file's source. `path` is repo-relative (diagnostics + config
/// lookups); `class` normally comes from [`crate::config::classify`] but
/// tests inject synthetic classes to exercise rules on fixture files.
pub fn lint_source(
    path: &str,
    src: &str,
    class: FileClass,
    diags: &mut Vec<Diagnostic>,
    usage: &mut KernelUsage,
) {
    if class.exempt {
        return;
    }
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let allows = parse_markers(path, &lexed, diags);
    let mask = test_mask(tokens);
    let spans = fn_spans(tokens);

    let push = |diags: &mut Vec<Diagnostic>,
                rule: Rule,
                line: u32,
                message: String,
                suggestion: String| {
        if !allows.allowed(rule, line) {
            diags.push(Diagnostic {
                file: path.to_string(),
                line,
                rule,
                message,
                suggestion,
            });
        }
    };

    // Collect Kernel::Variant references (for the workspace cross-check).
    if !path.contains("crates/instrument/") {
        let mut i = 0usize;
        while i + 3 < tokens.len() {
            if tokens[i].is_ident("Kernel")
                && tokens[i + 1].is_punct(':')
                && tokens[i + 2].is_punct(':')
                && tokens[i + 3].kind == TokKind::Ident
            {
                usage.referenced.push(tokens[i + 3].text.clone());
            }
            i += 1;
        }
    }

    // Rule 1: precision hygiene. Scoped to physics crates: observability
    // code converts bytes and nanoseconds to f64 freely, but anything whose
    // numbers enter the Monte Carlo estimate must use the Real-trait
    // boundary outside the designated mixed-precision modules.
    if class.physics && !class.mixed_precision {
        for (i, t) in tokens.iter().enumerate() {
            if mask[i] {
                continue;
            }
            if t.is_ident("as") {
                if let Some(next) = tokens.get(i + 1) {
                    if next.is_ident("f32") || next.is_ident("f64") {
                        push(
                            diags,
                            Rule::PrecisionCast,
                            t.line,
                            format!(
                                "raw `as {}` cast outside a designated mixed-precision module",
                                next.text
                            ),
                            "convert at the Real-trait boundary (`T::from_f64` / `.to_f64()`) \
                             or justify with `// qmclint: allow(precision-cast) — <why>`"
                                .into(),
                        );
                    }
                }
            } else if t.kind == TokKind::Num {
                if let Some(sfx) = float_suffix(&t.text) {
                    push(
                        diags,
                        Rule::PrecisionCast,
                        t.line,
                        format!("`{sfx}`-suffixed float literal pins a concrete precision"),
                        "use `T::from_f64` (or an unsuffixed literal) so the kernel stays \
                         generic, or justify with `// qmclint: allow(precision-cast) — <why>`"
                            .into(),
                    );
                }
            }
        }
    }

    // Rule 2: hot-path hygiene (kernel modules only).
    if class.kernel {
        for span in &spans {
            let Some((b0, b1)) = span.body else { continue };
            if mask[b0] || is_cold_fn_name(&span.name) || allows.cold_near(span.line) {
                continue;
            }
            for i in b0..=b1 {
                let t = &tokens[i];
                if let Some((what, is_panic)) = hot_site(tokens, i) {
                    let (msg, help) = if is_panic {
                        (
                            format!(
                                "`{what}` in hot kernel fn `{}` can panic/abort mid-sweep",
                                span.name
                            ),
                            "handle the condition without unwinding, mark the fn \
                             `// qmclint: cold — <why>` if it is setup, or justify with \
                             `// qmclint: allow(hot-path) — <why>`"
                                .to_string(),
                        )
                    } else {
                        (
                            format!("`{what}` allocates inside hot kernel fn `{}`", span.name),
                            "hoist into a preallocated scratch buffer, mark the fn \
                             `// qmclint: cold — <why>` if it is setup, or justify with \
                             `// qmclint: allow(hot-path) — <why>`"
                                .to_string(),
                        )
                    };
                    push(diags, Rule::HotPath, t.line, msg, help);
                }
            }
        }
    }

    // Rule 3 (per-file half): every `mw_*` entry point is timed or
    // visibly delegates to another `mw_*` kernel.
    if class.kernel || class.physics {
        for span in &spans {
            if !span.name.starts_with("mw_") {
                continue;
            }
            let Some((b0, b1)) = span.body else { continue };
            if mask[b0] {
                continue;
            }
            let covered = tokens[b0..=b1].iter().any(|t| {
                t.is_ident("time_kernel") || (t.kind == TokKind::Ident && t.text.starts_with("mw_"))
            });
            if !covered {
                push(
                    diags,
                    Rule::TimerCoverage,
                    span.line,
                    format!(
                        "batched kernel entry `{}` is neither wrapped in a `Kernel::*` timer \
                         nor delegating to a timed `mw_*` kernel",
                        span.name
                    ),
                    "wrap the body in `time_kernel(Kernel::<variant>, || ...)` (profiles in \
                     the run report rely on it) or justify with \
                     `// qmclint: allow(timer-coverage) — <why>`"
                        .into(),
                );
            }
        }
    }

    // Rule 4: determinism. In physics crates: wall clocks, OS entropy,
    // hash-map iteration, locks, barriers and cells. In every linted file:
    // a thread spawn outside the crew fan-out.
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // `name(` directly after `c`: a method (`.`) or path (`:`) call.
        let called_after = |c: char| {
            i > 0 && tokens[i - 1].is_punct(c) && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        let spawn = SPAWN_METHODS.contains(&name) && (called_after('.') || called_after(':'));
        let hint = if spawn && path != SPAWN_SITE {
            "threads start only in the crew fan-out (`fan_out_tasks`), whose \
             schedules qmcsched sweeps"
        } else if !class.physics {
            continue;
        } else {
            match name {
                "SystemTime" => "wall-clock time must not enter physics results",
                "thread_rng" => "RNG must flow through the seeded per-walker streams",
                "HashMap" | "HashSet" => "hash-map iteration order is nondeterministic across runs",
                "Mutex" | "RwLock" | "Barrier" | "Condvar" => LOCK_HINT,
                "lock" if called_after('.') => LOCK_HINT,
                "Cell" | "RefCell" | "UnsafeCell" => {
                    "a cell mutates through a `&` receiver, so the `&` signatures of \
                     serializers, digests and estimator readers no longer prove them pure"
                }
                _ => continue,
            }
        };
        push(
            diags,
            Rule::Determinism,
            t.line,
            format!("`{name}` is a source of run-to-run nondeterminism — {hint}"),
            "use seeded `StdRng` streams, `BTreeMap` or index-keyed `Vec`s, fork through \
             the crew fan-out and combine results after the join; or justify with \
             `// qmclint: allow(determinism) — <why>`"
                .into(),
        );
    }

    // Rule 5: RNG discipline. A draw outside the sanctioned territory, or
    // a stream re-key (`.rng = ..`) outside the migration marker, fires
    // whoever calls the function: randomness is drawn where the drivers
    // draw it and handed down, never drawn on the way.
    let sanctioned = SANCTIONED_RNG_PATHS.iter().any(|p| path.starts_with(p));
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || i == 0 || !tokens[i - 1].is_punct('.') {
            continue;
        }
        let next = |k: usize, c: char| tokens.get(i + k).is_some_and(|n| n.is_punct(c));
        let draw = !sanctioned
            && RNG_DRAW_METHODS.contains(&t.text.as_str())
            && (next(1, '(') || next(1, ':'));
        let rekey = t.text == "rng" && next(1, '=') && !next(2, '=');
        if !draw && !rekey {
            continue;
        }
        // The innermost fn whose body holds token `i`.
        let in_fn = spans
            .iter()
            .rev()
            .find(|s| s.body.is_some_and(|(b0, b1)| b0 < i && i <= b1))
            .map_or("<none>", |s| s.name.as_str());
        if draw {
            push(
                diags,
                Rule::RngDiscipline,
                t.line,
                format!(
                    "RNG draw `.{}(..)` in fn `{in_fn}` outside the sanctioned \
                     driver/branch/move territory — a stray draw desynchronizes walker \
                     streams across restarts and migration",
                    t.text
                ),
                "draw in the drivers (`config.rs::SANCTIONED_RNG_PATHS`) and pass the drawn \
                 values down, or justify with `// qmclint: allow(rng-discipline) — <why>`"
                    .into(),
            );
        } else if rekey && !SANCTIONED_REKEY_FNS.contains(&in_fn) {
            push(
                diags,
                Rule::RngDiscipline,
                t.line,
                format!(
                    "RNG stream re-keyed in fn `{in_fn}` — only the explicit markers ({}) \
                     may replace a walker's stream",
                    SANCTIONED_REKEY_FNS.join(", ")
                ),
                "restore streams with `StdRng::from_state` in a struct literal, re-key only \
                 inside `reseed_for_migration`, or justify with \
                 `// qmclint: allow(rng-discipline) — <why>`"
                    .into(),
            );
        }
    }
}

/// Why a lock or barrier in a physics crate is a determinism finding.
const LOCK_HINT: &str = "lock and barrier arrival order follows the thread schedule; \
                         combine results in task order after the fan-out joins";

/// Rule 3 (workspace half): parses the `Kernel` enum out of
/// `crates/instrument/src/timer.rs` and reports variants that no
/// instrumentation site outside `crates/instrument` ever references —
/// a dead profile category silently renders the Fig. 2 tables incomplete.
pub fn check_kernel_coverage(
    timer_path: &str,
    timer_src: &str,
    usage: &KernelUsage,
    diags: &mut Vec<Diagnostic>,
) {
    let lexed = lex(timer_src);
    let tokens = &lexed.tokens;
    // Find `enum Kernel {`.
    let mut start = None;
    for i in 0..tokens.len() {
        if tokens[i].is_ident("enum")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("Kernel"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            start = Some(i + 2);
            break;
        }
    }
    let Some(open) = start else {
        diags.push(Diagnostic {
            file: timer_path.to_string(),
            line: 1,
            rule: Rule::TimerCoverage,
            message: "could not locate `enum Kernel` for the coverage cross-check".into(),
            suggestion: "keep the kernel taxonomy in crates/instrument/src/timer.rs".into(),
        });
        return;
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident if depth == 1 => {
                let next_closes = tokens
                    .get(i + 1)
                    .is_some_and(|t| t.is_punct(',') || t.is_punct('}'));
                let name = tokens[i].text.as_str();
                if next_closes && name != "Other" && !usage.referenced.iter().any(|r| r == name) {
                    diags.push(Diagnostic {
                        file: timer_path.to_string(),
                        line: tokens[i].line,
                        rule: Rule::TimerCoverage,
                        message: format!(
                            "`Kernel::{name}` is declared in ALL_KERNELS but never referenced \
                             by any instrumentation site outside crates/instrument"
                        ),
                        suggestion: "time the kernel somewhere (`time_kernel(Kernel::...)`) \
                                     or remove the dead profile category"
                            .into(),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileClass;

    fn run(src: &str, class: FileClass) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut usage = KernelUsage::default();
        lint_source("test.rs", src, class, &mut diags, &mut usage);
        diags
    }

    const KERNEL: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: true,
        physics: true,
    };
    const PLAIN: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: false,
        physics: false,
    };
    const PHYS: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: false,
        physics: true,
    };

    #[test]
    fn precision_cast_flagged_and_allowed() {
        let d = run("fn f(x: f64) -> f32 { x as f32 }", PHYS);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::PrecisionCast);

        let d = run(
            "fn f(x: f64) -> f32 {\n    // qmclint: allow(precision-cast) — test fixture\n    x as f32\n}",
            PHYS,
        );
        assert!(d.is_empty(), "{d:?}");

        // Observability code (non-physics) converts freely.
        assert!(run("fn f(x: f64) -> f32 { x as f32 }", PLAIN).is_empty());
    }

    #[test]
    fn test_mod_is_masked() {
        let d = run(
            "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> f32 { x as f32 }\n}\n",
            PHYS,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn marker_reaches_past_comment_continuation_lines() {
        let src = "// qmclint: allow(precision-cast) — the justification\n// wraps over a second comment line.\nfn f(x: f64) -> f32 { x as f32 }";
        assert!(run(src, PHYS).is_empty());
    }

    #[test]
    fn hot_path_alloc_and_cold_marker() {
        let src = "fn evaluate(n: usize) -> Vec<f64> { (0..n).map(|i| i as f64).collect() }";
        let d = run(src, KERNEL);
        assert!(d.iter().any(|d| d.rule == Rule::HotPath));

        let cold = "// qmclint: cold — table construction, not a kernel\nfn evaluate(n: usize) -> Vec<u8> { (0..n).map(|i| i as u8).collect() }";
        let d = run(cold, KERNEL);
        assert!(d.iter().all(|d| d.rule != Rule::HotPath), "{d:?}");
    }

    #[test]
    fn constructors_are_cold_by_name() {
        let d = run("fn new(n: usize) -> Vec<u8> { vec![0; n] }", KERNEL);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn mw_requires_timer_or_delegation() {
        let bare = "pub fn mw_eval(&mut self, n: usize) { for _ in 0..n {} }";
        let d = run(bare, KERNEL);
        assert!(d.iter().any(|d| d.rule == Rule::TimerCoverage));

        let timed = "pub fn mw_eval(&mut self, n: usize) { time_kernel(Kernel::J2, || n); }";
        assert!(run(timed, KERNEL).is_empty());

        let delegating = "pub fn mw_eval(&mut self, n: usize) { self.inner.mw_eval_impl(n); }";
        assert!(run(delegating, KERNEL).is_empty());
    }

    #[test]
    fn determinism_flags_hash_and_clock() {
        let d = run(
            "use std::collections::HashMap;\nfn f() { let t = SystemTime::now(); }",
            KERNEL,
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == Rule::Determinism));
        // Not a physics crate: silent.
        assert!(run("use std::collections::HashMap;", PLAIN).is_empty());
    }

    #[test]
    fn determinism_flags_spawns_everywhere_and_locks_in_physics() {
        let spawn = "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }";
        for class in [PLAIN, PHYS] {
            let d = run(spawn, class);
            assert_eq!(d.len(), 1, "{d:?}");
            assert_eq!(d[0].rule, Rule::Determinism);
        }
        // The crew fan-out is the one sanctioned spawn site.
        let mut diags = Vec::new();
        lint_source(
            SPAWN_SITE,
            spawn,
            PHYS,
            &mut diags,
            &mut KernelUsage::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");

        let locks = "use std::sync::Mutex;\nfn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }";
        let d = run(locks, PHYS);
        assert_eq!(
            d.iter().map(|d| d.line).collect::<Vec<_>>(),
            [1, 2, 2],
            "{d:?}"
        );
        // Observability code keeps its locks.
        assert!(run(locks, PLAIN).is_empty());
    }

    #[test]
    fn marker_without_reason_is_flagged() {
        let d = run("// qmclint: allow(precision-cast)\nfn f() {}", PLAIN);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::BadMarker);

        let d = run("// qmclint: allow(not-a-rule) — because\nfn f() {}", PLAIN);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::BadMarker);
    }

    #[test]
    fn kernel_coverage_cross_check() {
        let timer = "pub enum Kernel { A, B, Other }";
        let mut usage = KernelUsage::default();
        usage.referenced.push("A".into());
        let mut diags = Vec::new();
        check_kernel_coverage("timer.rs", timer, &usage, &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("Kernel::B"));
    }
}
