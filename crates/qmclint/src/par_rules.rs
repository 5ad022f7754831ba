//! Concurrency-safety rules over the spawn-site model (qmclint v4).
//!
//! The sharded executor will multiply the number of parallel sections in
//! the tree; these rules make every one of them land with its aliasing,
//! reduction order, RNG ownership and schedule coverage already checked:
//!
//! * **shared-mutable-capture** — a mutation of a capture aliased across
//!   concurrently-spawned closures. Task-local bindings (closure params,
//!   body `let`/`for` bindings, the enclosing loop's per-iteration
//!   pattern — the `par_chunks_mut` / `chunks_mut` disjointness idiom)
//!   and lock-guarded chains are sanctioned.
//! * **parallel-reduction-order** — a bare `+=`/`-=` float accumulation
//!   inside a parallel closure or merged after the parallel section. The
//!   bits of `a + b + c` depend on association order, so any
//!   schedule-dependent merge order perturbs the trajectory; reductions
//!   must flow through `qmc_drivers::reduce::det_sum*` (fixed-shape
//!   pairwise tree) or the documented walker-order sequential merge
//!   (sample buffers drained in walker order — no float accumulate at
//!   all).
//! * **rng-capture** — an RNG borrow crossing a spawn boundary: a draw
//!   through (or bare use of) a stream that is not task-local. Walkers
//!   own their streams; re-keying happens only in `reseed_for_migration`
//!   (the rng-discipline rule's territory).
//! * **schedule-coverage** — every non-test parallel entry point in a
//!   physics crate must be registered in [`SCHED_ROOTS`] with a named
//!   `qmcsched` case, and the row is cross-checked like timer-coverage:
//!   the case must exist and must still (transitively) mention the
//!   registered witness identifier.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{sched_root, DET_REDUCE_FNS, SCHED_CASE_PATH};
use crate::diag::{Diagnostic, ParSummary, Rule};
use crate::model::{FnModel, ParMut, SpawnKind, SpawnSite, WorkspaceModel};

/// Depth cap shared with the graph/effect rules.
const MAX_DEPTH: usize = 8;

const REDUCE_SUGGESTION: &str = "gather per-item terms into indexed storage inside the parallel \
     section and reduce once through `qmc_drivers::reduce::det_sum`/`det_sum_by` (fixed-shape \
     pairwise tree, bitwise invariant to thread count and chunking), or drain samples \
     sequentially in walker order; justify exceptions with `// qmclint: \
     allow(parallel-reduction-order) — <why>`";

/// Runs all four concurrency rules and returns the inventory for the
/// `qmclint/3` `par` block.
pub fn check_par(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) -> ParSummary {
    let mut summary = ParSummary::default();

    // Named case inventory for schedule-coverage.
    let mut cases: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        if !file.path.starts_with(SCHED_CASE_PATH) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if !f.in_test && f.name.starts_with("explore_") {
                cases.insert(f.name.as_str(), (fi, ni));
            }
        }
    }
    summary.sched_cases = cases.len();
    let mut memo = BTreeMap::new();

    for (fi, file) in model.files.iter().enumerate() {
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            summary.det_reduce_calls += f
                .calls
                .iter()
                .filter(|c| DET_REDUCE_FNS.contains(&c.callee.as_str()))
                .count();
            if f.spawns.is_empty() {
                continue;
            }
            summary.parallel_fns += 1;
            summary.spawn_sites += f.spawns.len();

            let floats: BTreeSet<&str> = f
                .f32_lets
                .iter()
                .map(|(n, _)| n.as_str())
                .chain(f.f64_lets.iter().map(String::as_str))
                .chain(f.float_lets.iter().map(String::as_str))
                .collect();

            // A lone spawn outside a loop has no concurrent sibling to
            // alias with; everything else does.
            let concurrent = f.spawns.len() > 1
                || f.spawns
                    .iter()
                    .any(|s| s.in_loop || s.kind == SpawnKind::ParForEach);

            let fn_hop = format!("{} ({}:{})", f.name, file.path, f.line);
            for s in &f.spawns {
                let spawn_hop = format!("spawn ({}:{})", file.path, s.line);
                let chain = || vec![fn_hop.clone(), spawn_hop.clone()];
                if concurrent {
                    check_captures(file, f, s, &chain(), diags);
                }
                check_rng_capture(file, f, s, &chain(), diags);
                check_body_reductions(file, f, s, &floats, &chain(), diags);
            }
            check_merge_reductions(file, f, &floats, &fn_hop, diags);

            if file.class.physics {
                check_schedule_coverage(model, fi, f, &cases, &mut memo, diags);
            }
        }
    }
    summary
}

/// Is `name` task-local at this spawn site (closure param, body binding,
/// or a per-iteration binding of the enclosing loop)?
fn task_local(f: &FnModel, s: &SpawnSite, name: &str) -> bool {
    s.params.iter().any(|p| p == name) || s.locals.contains(name) || f.loop_idents.contains(name)
}

/// shared-mutable-capture: mutations of non-task-local, non-lock-guarded
/// captures inside a closure with concurrent siblings.
fn check_captures(
    file: &crate::model::FileModel,
    f: &FnModel,
    s: &SpawnSite,
    chain: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    for m in &s.muts {
        if m.via_lock || task_local(f, s, &m.base) {
            continue;
        }
        if file.allows.allowed(Rule::SharedMutableCapture, m.line) {
            continue;
        }
        let verb = match m.op {
            Some(op) => format!("`{} {op}= ..`", m.what),
            None if m.what == m.base || m.what.contains('.') => format!("`{} = ..`", m.what),
            None => format!("`.{}(..)`", m.what),
        };
        diags.push(Diagnostic {
            file: file.path.clone(),
            line: m.line,
            rule: Rule::SharedMutableCapture,
            message: format!(
                "{verb} mutates `{}`, a capture shared with concurrently-spawned sibling \
                 closures in `{}`",
                m.base, f.name
            ),
            suggestion: "make the target task-local, hand each task a disjoint chunk \
                 (`par_chunks_mut` / `chunks_mut`), synchronize through a lock, or justify \
                 with `// qmclint: allow(shared-mutable-capture) — <why>`"
                .into(),
            chain: chain.to_vec(),
        });
    }
}

/// rng-capture: a draw through (or bare use of) a stream that is not
/// task-local — one RNG borrow serving several concurrent closures.
fn check_rng_capture(
    file: &crate::model::FileModel,
    f: &FnModel,
    s: &SpawnSite,
    chain: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    for d in &s.draws {
        if task_local(f, s, &d.base) || file.allows.allowed(Rule::RngCapture, d.line) {
            continue;
        }
        diags.push(Diagnostic {
            file: file.path.clone(),
            line: d.line,
            rule: Rule::RngCapture,
            message: format!(
                "RNG draw `.{}(..)` through `{}`, a stream borrow captured across the spawn \
                 boundary in `{}`",
                d.method, d.base, f.name
            ),
            suggestion: rng_suggestion(),
            chain: chain.to_vec(),
        });
    }
    for (name, line) in &s.rng_uses {
        if task_local(f, s, name) || file.allows.allowed(Rule::RngCapture, *line) {
            continue;
        }
        diags.push(Diagnostic {
            file: file.path.clone(),
            line: *line,
            rule: Rule::RngCapture,
            message: format!(
                "RNG stream `{name}` captured across the spawn boundary in `{}`",
                f.name
            ),
            suggestion: rng_suggestion(),
            chain: chain.to_vec(),
        });
    }
}

fn rng_suggestion() -> String {
    "give each walker/task its own stream (walkers own their RNGs; seed per task), and re-key \
     only in `reseed_for_migration`; justify with `// qmclint: allow(rng-capture) — <why>`"
        .into()
}

/// parallel-reduction-order inside the closure body: a compound `+=`/`-=`
/// into a field/tuple place with a float-flavored right-hand side — a
/// shared accumulator whose merge order follows the schedule (lock-guarded
/// or not: the lock serializes access, not order).
fn check_body_reductions(
    file: &crate::model::FileModel,
    f: &FnModel,
    s: &SpawnSite,
    floats: &BTreeSet<&str>,
    chain: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    for m in &s.muts {
        if !matches!(m.op, Some('+' | '-')) || !m.what.contains('.') {
            continue; // plain-ident accumulates are covered fn-wide below
        }
        if !reduction_is_float(m, floats) {
            continue;
        }
        if m.rhs_calls
            .iter()
            .any(|c| DET_REDUCE_FNS.contains(&c.as_str()))
            || file.allows.allowed(Rule::ParallelReductionOrder, m.line)
        {
            continue;
        }
        diags.push(Diagnostic {
            file: file.path.clone(),
            line: m.line,
            rule: Rule::ParallelReductionOrder,
            message: format!(
                "bare float accumulation `{} {}= ..` inside a parallel closure in `{}`: the \
                 merge order — and therefore the bits — follows the thread schedule",
                m.what,
                m.op.unwrap_or('+'),
                f.name
            ),
            suggestion: REDUCE_SUGGESTION.into(),
            chain: chain.to_vec(),
        });
    }
}

fn reduction_is_float(m: &ParMut, floats: &BTreeSet<&str>) -> bool {
    m.rhs_float || m.rhs_idents.iter().any(|r| floats.contains(r.as_str()))
}

/// parallel-reduction-order at the merge: a plain `+=`/`-=` onto a
/// float-typed local anywhere in a function that contains parallel
/// sections — inside a closure it is a per-task partial that will be
/// merged in completion order; after the join it is usually a chunk-order
/// merge of such partials. Either way the shape must come from the
/// deterministic reduction primitive.
fn check_merge_reductions(
    file: &crate::model::FileModel,
    f: &FnModel,
    floats: &BTreeSet<&str>,
    fn_hop: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for a in &f.accumulates {
        if !floats.contains(a.target.as_str()) {
            continue;
        }
        if a.rhs_calls
            .iter()
            .any(|c| DET_REDUCE_FNS.contains(&c.as_str()))
            || file.allows.allowed(Rule::ParallelReductionOrder, a.line)
        {
            continue;
        }
        diags.push(Diagnostic {
            file: file.path.clone(),
            line: a.line,
            rule: Rule::ParallelReductionOrder,
            message: format!(
                "bare float accumulation `{} += ..` in `{}`, a function with parallel \
                 sections: sequential-fold shape is not the deterministic reduction",
                a.target, f.name
            ),
            suggestion: REDUCE_SUGGESTION.into(),
            chain: vec![fn_hop.to_string()],
        });
    }
}

/// schedule-coverage: the registry row for this parallel entry point must
/// exist, point at a live `explore_*` case, and the case must still reach
/// the registered witness identifier.
fn check_schedule_coverage(
    model: &WorkspaceModel,
    fi: usize,
    f: &FnModel,
    cases: &BTreeMap<&str, (usize, usize)>,
    memo: &mut BTreeMap<(usize, usize), BTreeSet<String>>,
    diags: &mut Vec<Diagnostic>,
) {
    let file = &model.files[fi];
    if file.allows.allowed(Rule::ScheduleCoverage, f.line) {
        return;
    }
    let anchor = |message: String, suggestion: String| Diagnostic {
        file: file.path.clone(),
        line: f.line,
        rule: Rule::ScheduleCoverage,
        message,
        suggestion,
        chain: f
            .spawns
            .iter()
            .map(|s| format!("spawn ({}:{})", file.path, s.line))
            .collect(),
    };
    let Some(root) = sched_root(&f.name) else {
        diags.push(anchor(
            format!(
                "parallel entry point `{}` has no named `qmcsched` case registered",
                f.name
            ),
            format!(
                "add a `SchedRoot` row for `{}` to qmclint `config::SCHED_ROOTS` and an \
                 `explore_*` case under {SCHED_CASE_PATH} that drives it across schedules",
                f.name
            ),
        ));
        return;
    };
    let Some(&case_id) = cases.get(root.case) else {
        diags.push(anchor(
            format!(
                "schedule-coverage registry points `{}` at case `{}`, which is not defined \
                 under {SCHED_CASE_PATH}",
                f.name, root.case
            ),
            "restore the case or update the `config::SCHED_ROOTS` row".into(),
        ));
        return;
    };
    let surface = transitive_idents(model, case_id, 0, &mut BTreeSet::new(), memo);
    if !surface.contains(root.via) {
        diags.push(anchor(
            format!(
                "case `{}` no longer reaches witness `{}` registered for parallel entry \
                 `{}` — the registry row went stale",
                root.case, root.via, f.name
            ),
            format!(
                "make `{}` exercise `{}` again (directly or through a callee) or re-point \
                 the `config::SCHED_ROOTS` row",
                root.case, root.via
            ),
        ));
    }
}

/// Identifiers mentioned by `id` or any resolved transitive callee,
/// depth-capped and memoized — the exercise surface a case offers.
fn transitive_idents(
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
    let mut out = f.idents.clone();
    for call in &f.calls {
        if let Some(next) = model.resolve(id.0, &call.callee, call.method) {
            out.extend(transitive_idents(model, next, depth + 1, seen, memo));
        }
    }
    memo.insert(id, out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileClass;

    const PHYS: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: false,
        physics: true,
    };

    /// Non-physics class: spawn rules apply, schedule-coverage does not.
    const UTIL: FileClass = FileClass {
        exempt: false,
        mixed_precision: false,
        kernel: false,
        physics: false,
    };

    fn run(files: &[(&str, &str, FileClass)]) -> (Vec<Diagnostic>, ParSummary) {
        let owned: Vec<(String, String, FileClass)> = files
            .iter()
            .map(|(p, s, c)| ((*p).to_string(), (*s).to_string(), *c))
            .collect();
        let model = WorkspaceModel::build(&owned);
        let mut diags = Vec::new();
        let par = check_par(&model, &mut diags);
        (diags, par)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn shared_capture_mutation_in_spawn_loop_fires() {
        let (diags, par) = run(&[(
            "crates/util/src/a.rs",
            "fn fan_out(scope: &Scope, jobs: &[Job]) {\n\
                 let mut total = 0usize;\n\
                 for job in jobs {\n\
                     scope.spawn(move || {\n\
                         total = job.run();\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        assert_eq!(rules(&diags), vec![Rule::SharedMutableCapture]);
        assert!(diags[0].message.contains("`total`"));
        assert_eq!(par.spawn_sites, 1);
        assert_eq!(par.parallel_fns, 1);
        assert!(diags[0].chain[1].starts_with("spawn ("));
    }

    #[test]
    fn task_local_and_lock_guarded_mutations_are_sanctioned() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn fan_out(scope: &Scope, chunks: Vec<&mut [W]>, counts: &Mutex<(usize, usize)>) {\n\
                 for (t, chunk) in chunks.into_iter().enumerate() {\n\
                     scope.spawn(move || {\n\
                         let mut acc = 0usize;\n\
                         for w in chunk.iter_mut() {\n\
                             w.age = t;\n\
                             acc += 1;\n\
                         }\n\
                         let mut c = counts.lock();\n\
                         c.0 += acc;\n\
                         counts.lock().1 = 0;\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn interior_mutability_on_shared_capture_fires() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn fan_out(scope: &Scope, flag: &Cell<usize>) {\n\
                 for t in 0..4 {\n\
                     scope.spawn(move || {\n\
                         flag.set(t);\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        assert_eq!(rules(&diags), vec![Rule::SharedMutableCapture]);
        assert!(diags[0].message.contains("`.set(..)`"), "{diags:?}");
    }

    #[test]
    fn disjoint_par_chunks_mut_closure_is_silent() {
        let (diags, par) = run(&[(
            "crates/util/src/a.rs",
            "fn scatter(psi: &mut [f64], width: usize) {\n\
                 psi.par_chunks_mut(width).for_each(|chunk| {\n\
                     for x in chunk.iter_mut() {\n\
                         x.0 = 0;\n\
                     }\n\
                 });\n\
             }\n",
            UTIL,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(par.spawn_sites, 1);
    }

    #[test]
    fn bare_float_merge_after_parallel_section_fires() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn generation(scope: &Scope, walkers: &[W]) -> f64 {\n\
                 let mut esum = 0.0;\n\
                 for t in 0..2 {\n\
                     scope.spawn(move || {\n\
                         work(t);\n\
                     });\n\
                 }\n\
                 for w in walkers {\n\
                     esum += w.weight;\n\
                 }\n\
                 esum\n\
             }\n",
            UTIL,
        )]);
        assert_eq!(rules(&diags), vec![Rule::ParallelReductionOrder]);
        assert!(diags[0].message.contains("`esum += ..`"));
    }

    #[test]
    fn det_sum_rhs_and_integer_accumulates_are_silent() {
        let (diags, par) = run(&[(
            "crates/util/src/a.rs",
            "fn generation(scope: &Scope, walkers: &[W]) -> f64 {\n\
                 let mut samples = 0u64;\n\
                 for t in 0..2 {\n\
                     scope.spawn(move || {\n\
                         work(t);\n\
                     });\n\
                 }\n\
                 samples += walkers.len() as u64;\n\
                 let mut esum = 0.0;\n\
                 esum += det_sum_by(walkers.len(), |i| walkers[i].weight);\n\
                 esum\n\
             }\n\
             fn det_sum_by(n: usize, f: impl Fn(usize) -> f64) -> f64 { 0.0 }\n",
            UTIL,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(par.det_reduce_calls, 1);
    }

    #[test]
    fn float_field_accumulate_under_lock_guard_fires_reduction_order() {
        // The old multi-rank allreduce shape: a per-rank partial folded
        // into a shared struct in barrier-arrival order. The lock makes it
        // race-free, not order-free.
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn run(scope: &Scope, shared: &Mutex<Gen>) {\n\
                 for rank in 0..4 {\n\
                     scope.spawn(move || {\n\
                         let (mut esum, mut wsum) = (0.0, 0.0);\n\
                         local(rank, &mut esum, &mut wsum);\n\
                         let mut s = shared.lock();\n\
                         s.esum += esum;\n\
                         s.wsum += wsum;\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        assert_eq!(
            rules(&diags),
            vec![Rule::ParallelReductionOrder, Rule::ParallelReductionOrder]
        );
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("s.esum")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("s.wsum")), "{msgs:?}");
    }

    #[test]
    fn rng_draw_through_shared_capture_fires_and_walker_stream_is_silent() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn fan_out(scope: &Scope, rng: &mut StdRng, chunks: Vec<&mut [W]>) {\n\
                 for chunk in chunks {\n\
                     scope.spawn(move || {\n\
                         let u: f64 = rng.random();\n\
                         for w in chunk.iter_mut() {\n\
                             let v: f64 = w.rng.random();\n\
                             seed_helper(u + v);\n\
                         }\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        // Exactly one record for the draw through the captured `rng` (the
        // receiver ident is not double-counted as a bare use); the
        // per-walker `w.rng` draw is task-local and silent.
        assert_eq!(rules(&diags), vec![Rule::RngCapture]);
        assert!(diags[0].message.contains("RNG draw"));
    }

    #[test]
    fn schedule_coverage_requires_registry_case_and_witness() {
        // Unregistered parallel entry in a physics crate.
        let (diags, _) = run(&[(
            "crates/drivers/src/custom.rs",
            "pub fn custom_fan_out(scope: &Scope) {\n\
                 for t in 0..2 {\n\
                     scope.spawn(move || { work(t); });\n\
                 }\n\
             }\n",
            PHYS,
        )]);
        assert_eq!(rules(&diags), vec![Rule::ScheduleCoverage]);
        assert!(diags[0].message.contains("no named `qmcsched` case"));

        // Registered, with a live case that reaches the witness: silent.
        let (diags, par) = run(&[
            (
                "crates/drivers/src/crew.rs",
                "pub fn fan_out(scope: &Scope) {\n\
                     for t in 0..2 {\n\
                         scope.spawn(move || { work(t); });\n\
                     }\n\
                 }\n",
                PHYS,
            ),
            (
                "crates/qmcsched/src/lib.rs",
                "pub fn explore_schedules() { run_dmc(); }\n\
                 fn run_dmc() {}\n",
                UTIL,
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(par.sched_cases, 1);

        // Registered but the case lost the witness: stale row.
        let (diags, _) = run(&[
            (
                "crates/drivers/src/crew.rs",
                "pub fn fan_out(scope: &Scope) {\n\
                     for t in 0..2 {\n\
                         scope.spawn(move || { work(t); });\n\
                     }\n\
                 }\n",
                PHYS,
            ),
            (
                "crates/qmcsched/src/lib.rs",
                "pub fn explore_schedules() { something_else(); }\n",
                UTIL,
            ),
        ]);
        assert_eq!(rules(&diags), vec![Rule::ScheduleCoverage]);
        assert!(diags[0].message.contains("stale"));
    }

    #[test]
    fn lone_spawn_outside_loop_has_no_concurrent_sibling() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn one_task(scope: &Scope, out: &mut usize) {\n\
                 scope.spawn(move || {\n\
                     out = compute();\n\
                 });\n\
             }\n",
            UTIL,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_markers_silence_par_rules() {
        let (diags, _) = run(&[(
            "crates/util/src/a.rs",
            "fn fan_out(scope: &Scope, jobs: &[Job]) {\n\
                 let mut total = 0usize;\n\
                 for job in jobs {\n\
                     scope.spawn(move || {\n\
                         // qmclint: allow(shared-mutable-capture) — test double, single-threaded schedule.\n\
                         total = job.run();\n\
                     });\n\
                 }\n\
             }\n",
            UTIL,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
