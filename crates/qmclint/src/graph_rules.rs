//! The workspace rules run over the [`crate::model`] call graph:
//!
//! 1. **hot-path-call** — allocation / panic machinery anywhere in the
//!    transitive callee set of a kernel entry point. The per-file
//!    `hot-path` rule owns sites *inside* kernel modules; this rule owns
//!    the sites a kernel reaches in non-kernel helpers, and prints the
//!    call chain so the report is actionable.
//! 2. **precision-flow** — an `f32`-typed local (or the result of an
//!    `f32`-returning call) folded into an `f64` accumulator without a
//!    designated promotion site (`f64::from`, `.to_f64()`, `T::from_f64`).
//!
//! Both honour the same `// qmclint: allow(<rule>) — <why>` markers
//! as the lexical rules, at the anchor site of the diagnostic.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Rule};
use crate::model::WorkspaceModel;

/// Depth cap for every graph traversal: deep enough for any real chain in
/// this workspace, finite under lexically-misresolved recursion.
const MAX_DEPTH: usize = 8;

/// Runs both graph rules.
pub fn check_graph(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    check_hot_path_graph(model, diags);
    check_precision_flow(model, diags);
}

fn hop(model: &WorkspaceModel, id: (usize, usize), line: u32) -> String {
    format!(
        "{} ({}:{line})",
        model.func(id).name,
        model.files[id.0].path
    )
}

/// Rule: hot-path-call. Walks the transitive callee set of every kernel
/// entry point; an allocation or panic site in a non-kernel callee is
/// reported at the entry's call site, with the chain attached.
pub fn check_hot_path_graph(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if !file.class.kernel {
            continue;
        }
        for (ei, entry) in file.fns.iter().enumerate() {
            if entry.cold || entry.in_test {
                continue;
            }
            // One report per (entry, leaf site); cycles cut by `visited`.
            let mut reported: BTreeSet<(usize, u32)> = BTreeSet::new();
            for call in &entry.calls {
                let Some(callee) = model.resolve(fi, &call.callee, call.method) else {
                    continue;
                };
                let chain = vec![hop(model, (fi, ei), call.line)];
                let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
                walk_hot(
                    model,
                    callee,
                    (fi, ei),
                    call.line,
                    &chain,
                    1,
                    &mut visited,
                    &mut reported,
                    diags,
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_hot(
    model: &WorkspaceModel,
    id: (usize, usize),
    entry: (usize, usize),
    anchor_line: u32,
    chain: &[String],
    depth: usize,
    visited: &mut BTreeSet<(usize, usize)>,
    reported: &mut BTreeSet<(usize, u32)>,
    diags: &mut Vec<Diagnostic>,
) {
    if depth > MAX_DEPTH || !visited.insert(id) {
        return;
    }
    let f = model.func(id);
    if f.cold || f.in_test {
        return;
    }
    let file = &model.files[id.0];
    // Kernel-class files own their own sites via the per-file rule.
    if !file.class.kernel {
        for site in &f.hots {
            if file.allows.allowed(Rule::HotPathCall, site.line)
                || model.files[entry.0]
                    .allows
                    .allowed(Rule::HotPathCall, anchor_line)
                || !reported.insert((id.0, site.line))
            {
                continue;
            }
            let entry_fn = &model.func(entry).name;
            let verb = if site.panic {
                "can panic/abort mid-sweep"
            } else {
                "allocates"
            };
            let mut full_chain = chain.to_vec();
            full_chain.push(hop(model, id, site.line));
            diags.push(Diagnostic {
                file: model.files[entry.0].path.clone(),
                line: anchor_line,
                rule: Rule::HotPathCall,
                message: format!(
                    "`{}` in `{}` {verb}, reached from hot kernel fn `{entry_fn}`",
                    site.what, f.name
                ),
                suggestion: "hoist the work out of the kernel's reach, mark the callee \
                             `// qmclint: cold — <why>` if it is setup, or justify with \
                             `// qmclint: allow(hot-path-call) — <why>` at the call site"
                    .into(),
                chain: full_chain,
            });
        }
    }
    for call in &f.calls {
        let Some(next) = model.resolve(id.0, &call.callee, call.method) else {
            continue;
        };
        let mut next_chain = chain.to_vec();
        next_chain.push(hop(model, next, call.line));
        walk_hot(
            model,
            next,
            entry,
            anchor_line,
            &next_chain,
            depth + 1,
            visited,
            reported,
            diags,
        );
    }
}

/// Rule: precision-flow. Per physics function: a local carrying an `f32`
/// value (typed `: f32`, or bound to an `f32`-returning call without a
/// promotion) that appears in the RHS of a compound assignment onto an
/// `f64`-typed local, with no promotion in the RHS.
pub fn check_precision_flow(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if !file.class.physics || file.class.mixed_precision {
            continue;
        }
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            // Locals known to carry f32 values, with provenance.
            let mut f32_locals: BTreeMap<&str, String> = BTreeMap::new();
            for (name, line) in &f.f32_lets {
                f32_locals.insert(name, format!("`{name}` declared `: f32` at line {line}"));
            }
            for lc in &f.let_calls {
                if lc.promoted {
                    continue;
                }
                for c in &lc.calls {
                    // Conservative (method-grade) resolution: same file /
                    // unique-in-crate only.
                    let Some(id) = model.resolve(fi, c, true) else {
                        continue;
                    };
                    if model.func(id).ret_f32 {
                        f32_locals.insert(
                            &lc.name,
                            format!("`{}` bound from f32-returning `{}`", lc.name, c),
                        );
                    }
                }
            }
            for acc in &f.accumulates {
                if acc.promoted
                    || !f.f64_lets.contains(&acc.target)
                    || file.allows.allowed(Rule::PrecisionFlow, acc.line)
                {
                    continue;
                }
                let ident_src = acc
                    .rhs_idents
                    .iter()
                    .find_map(|n| f32_locals.get(n.as_str()).cloned());
                let call_src = acc.rhs_calls.iter().find_map(|c| {
                    let id = model.resolve(fi, c, true)?;
                    model
                        .func(id)
                        .ret_f32
                        .then(|| format!("f32-returning call `{c}`"))
                });
                let Some(source) = ident_src.or(call_src) else {
                    continue;
                };
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: acc.line,
                    rule: Rule::PrecisionFlow,
                    message: format!(
                        "f32 value flows into f64 accumulator `{}` in fn `{}` without a \
                         promotion site ({source})",
                        acc.target, f.name
                    ),
                    suggestion: "promote explicitly (`f64::from(..)` / `.to_f64()`) so the \
                                 widening is a reviewed decision, or justify with \
                                 `// qmclint: allow(precision-flow) — <why>`"
                        .into(),
                    chain: vec![format!("{} ({}:{})", f.name, file.path, f.line), source],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileClass;

    const KERNEL: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: true,
        physics: true,
    };
    const PHYS: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: false,
        physics: true,
    };

    fn run(files: &[(&str, &str, FileClass)]) -> Vec<Diagnostic> {
        let owned: Vec<(String, String, FileClass)> = files
            .iter()
            .map(|(p, s, c)| ((*p).to_string(), (*s).to_string(), *c))
            .collect();
        let model = WorkspaceModel::build(&owned);
        let mut diags = Vec::new();
        check_graph(&model, &mut diags);
        diags
    }

    #[test]
    fn hot_path_call_crosses_files_with_chain() {
        let d = run(&[
            (
                "crates/wavefunction/src/jastrow/entry.rs",
                "pub fn evaluate_chain(n: usize) { helper_accum(n); }",
                KERNEL,
            ),
            (
                "crates/wavefunction/src/util.rs",
                "pub fn helper_accum(n: usize) -> Vec<u64> { (0..n as u64).collect() }",
                PHYS,
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, Rule::HotPathCall);
        assert_eq!(d[0].file, "crates/wavefunction/src/jastrow/entry.rs");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].chain.len(), 2);
        assert!(d[0].chain[1].contains("helper_accum"));
    }

    #[test]
    fn hot_path_call_respects_cold_callees_and_allow() {
        // Cold callee: not traversed.
        let d = run(&[
            (
                "crates/wavefunction/src/jastrow/entry.rs",
                "pub fn evaluate_chain(n: usize) { build_table(n); }",
                KERNEL,
            ),
            (
                "crates/wavefunction/src/util.rs",
                "pub fn build_table(n: usize) -> Vec<u64> { (0..n as u64).collect() }",
                PHYS,
            ),
        ]);
        assert!(d.is_empty(), "{d:#?}");
        // Allow marker at the call site suppresses.
        let d = run(&[
            (
                "crates/wavefunction/src/jastrow/entry.rs",
                "pub fn evaluate_chain(n: usize) {\n    // qmclint: allow(hot-path-call) — bounded one-shot refill\n    helper_accum(n);\n}",
                KERNEL,
            ),
            (
                "crates/wavefunction/src/util.rs",
                "pub fn helper_accum(n: usize) -> Vec<u64> { (0..n as u64).collect() }",
                PHYS,
            ),
        ]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn precision_flow_fires_and_promotion_silences() {
        let src = "fn cheap() -> f32 { 0.5 }\n\
                   fn accumulate() {\n    let e = cheap();\n    let mut total: f64 = 0.0;\n    total += e;\n}\n";
        let d = run(&[("crates/drivers/src/acc.rs", src, PHYS)]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, Rule::PrecisionFlow);
        assert_eq!(d[0].line, 5);

        let promoted = "fn cheap() -> f32 { 0.5 }\n\
                        fn accumulate() {\n    let e = cheap();\n    let mut total: f64 = 0.0;\n    total += f64::from(e);\n}\n";
        assert!(run(&[("crates/drivers/src/acc.rs", promoted, PHYS)]).is_empty());
    }
}
