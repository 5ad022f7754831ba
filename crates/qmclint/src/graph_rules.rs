//! The qmclint v2 workspace rules, run over the [`crate::model`] call
//! graph:
//!
//! 1. **hot-path-call** — allocation / panic machinery anywhere in the
//!    transitive callee set of a kernel entry point. The per-file
//!    `hot-path` rule owns sites *inside* kernel modules; this rule owns
//!    the sites a kernel reaches in non-kernel helpers, and prints the
//!    call chain so the report is actionable.
//! 2. **precision-flow** — an `f32`-typed local (or the result of an
//!    `f32`-returning call) folded into an `f64` accumulator without a
//!    designated promotion site (`f64::from`, `.to_f64()`, `T::from_f64`).
//! 3. **lock-order** — two lock names acquired in opposite orders by
//!    functions reachable from the multi-rank driver, the one place that
//!    nests locks (deadlock risk between its rank threads).
//!
//! All three honour the same `// qmclint: allow(<rule>) — <why>` markers
//! as the lexical rules, at the anchor site of the diagnostic.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LOCK_ROOTS;
use crate::diag::{Diagnostic, Rule};
use crate::model::WorkspaceModel;

/// Depth cap for every graph traversal: deep enough for any real chain in
/// this workspace, finite under lexically-misresolved recursion.
const MAX_DEPTH: usize = 8;

/// Runs all three graph rules.
pub fn check_graph(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    check_hot_path_graph(model, diags);
    check_precision_flow(model, diags);
    check_lock_order(model, diags);
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

/// Rule: lock-order. Collects `first -> second` acquisition constraints
/// from every function reachable from the lock roots (intra-function
/// and through calls made while a guard is held); opposite orders for the
/// same pair of lock names are a deadlock risk and get reported with both
/// sites.
pub fn check_lock_order(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    // Reachable set, seeded with every fn in the lock-root modules.
    let mut queue: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        if LOCK_ROOTS.iter().any(|r| file.path.starts_with(r)) {
            for (fni, f) in file.fns.iter().enumerate() {
                if !f.in_test {
                    queue.push((fi, fni));
                }
            }
        }
    }
    let mut reachable: BTreeSet<(usize, usize)> = queue.iter().copied().collect();
    while let Some(id) = queue.pop() {
        for call in &model.func(id).calls {
            if let Some(next) = model.resolve(id.0, &call.callee, call.method) {
                if reachable.insert(next) {
                    queue.push(next);
                }
            }
        }
    }

    // Ordered-pair constraints: (first, second) -> first witnessing site.
    type Site = (String, u32, Vec<String>);
    let mut edges: BTreeMap<(String, String), Site> = BTreeMap::new();
    let mut memo: BTreeMap<(usize, usize), BTreeSet<String>> = BTreeMap::new();
    for &id in &reachable {
        let f = model.func(id);
        let path = &model.files[id.0].path;
        for acq in &f.locks {
            for h in &acq.held {
                edges
                    .entry((h.clone(), acq.name.clone()))
                    .or_insert_with(|| (path.clone(), acq.line, vec![hop(model, id, acq.line)]));
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(callee) = model.resolve(id.0, &call.callee, call.method) else {
                continue;
            };
            let mut seen = BTreeSet::new();
            let taken = transitive_locks(model, callee, 0, &mut seen, &mut memo);
            for l in &taken {
                for h in &call.held {
                    if h != l {
                        edges.entry((h.clone(), l.clone())).or_insert_with(|| {
                            (
                                path.clone(),
                                call.line,
                                vec![
                                    hop(model, id, call.line),
                                    hop(model, callee, model.func(callee).line),
                                ],
                            )
                        });
                    }
                }
            }
        }
    }

    // Contradictions: both (a, b) and (b, a) present.
    for ((a, b), (file_ab, line_ab, chain_ab)) in &edges {
        if a >= b {
            continue;
        }
        let Some((file_ba, line_ba, _)) = edges.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let allowed = model.files.iter().any(|f| {
            (&f.path == file_ab && f.allows.allowed(Rule::LockOrder, *line_ab))
                || (&f.path == file_ba && f.allows.allowed(Rule::LockOrder, *line_ba))
        });
        if allowed {
            continue;
        }
        diags.push(Diagnostic {
            file: file_ab.clone(),
            line: *line_ab,
            rule: Rule::LockOrder,
            message: format!(
                "inconsistent lock order reachable from the multi-rank driver: `{a}` is taken \
                 before `{b}` here, but `{b}` before `{a}` at {file_ba}:{line_ba}"
            ),
            suggestion: "pick one acquisition order for this lock pair everywhere (`shared` \
                         is the outermost lock in `ranks.rs`), or justify with \
                         `// qmclint: allow(lock-order) — <why>`"
                .into(),
            chain: chain_ab.clone(),
        });
    }
}

/// Lock names acquired by `id` or any of its (resolved) transitive
/// callees, depth-capped and memoized.
fn transitive_locks(
    model: &WorkspaceModel,
    id: (usize, usize),
    depth: usize,
    seen: &mut BTreeSet<(usize, usize)>,
    memo: &mut BTreeMap<(usize, usize), BTreeSet<String>>,
) -> BTreeSet<String> {
    if let Some(cached) = memo.get(&id) {
        return cached.clone();
    }
    if depth > MAX_DEPTH || !seen.insert(id) {
        return BTreeSet::new();
    }
    let f = model.func(id);
    let mut out: BTreeSet<String> = f.locks.iter().map(|l| l.name.clone()).collect();
    for call in &f.calls {
        if let Some(next) = model.resolve(id.0, &call.callee, call.method) {
            out.extend(transitive_locks(model, next, depth + 1, seen, memo));
        }
    }
    memo.insert(id, out.clone());
    out
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

    #[test]
    fn lock_order_contradiction_is_reported() {
        let src = "fn forward(&self) {\n    let a = self.alpha.lock();\n    self.beta.lock().touch();\n}\n\
                   fn backward(&self) {\n    let b = self.beta.lock();\n    self.alpha.lock().touch();\n}\n";
        let d = run(&[("crates/drivers/src/ranks.rs", src, PHYS)]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, Rule::LockOrder);
        assert!(d[0].message.contains("alpha") && d[0].message.contains("beta"));
    }

    #[test]
    fn lock_order_consistent_usage_is_silent() {
        let src = "fn one(&self) {\n    let a = self.counts.lock();\n    self.profile.lock().touch();\n}\n\
                   fn two(&self) {\n    let a = self.counts.lock();\n    self.profile.lock().touch();\n}\n";
        assert!(run(&[("crates/drivers/src/ranks.rs", src, PHYS)]).is_empty());
    }

    #[test]
    fn lock_order_propagates_through_calls() {
        // Only the first file is a lock root; both orders are found
        // through the calls it makes into the second.
        let a =
            "pub fn generation(&self) {\n    let g = self.counts.lock();\n    finish(self);\n}\n\
                 pub fn report(&self) {\n    other(self);\n}\n";
        let b = "pub fn finish(s: &S) {\n    s.profile.lock().touch();\n}\n\
                 pub fn other(s: &S) {\n    let p = s.profile.lock();\n    s.counts.lock().touch();\n}\n";
        let d = run(&[
            ("crates/drivers/src/ranks.rs", a, PHYS),
            ("crates/drivers/src/helpers.rs", b, PHYS),
        ]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, Rule::LockOrder);
    }
}
