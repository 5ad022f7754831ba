//! Workspace model for qmclint v2: a function table and call graph built
//! from the token-tree parse of every non-exempt file.
//!
//! The per-file rules in [`crate::rules`] see one file at a time; the
//! invariants they cannot check are the *inter-procedural* ones — an
//! allocation two calls away from a kernel entry point, an `f32` value
//! laundered through a helper's return type. This module builds the shared
//! substrate those rules (in [`crate::graph_rules`]) run on: for every
//! function, its resolved outgoing calls, its allocation/panic sites and
//! its precision-relevant locals.
//!
//! Resolution is deliberately conservative (same file, then unique within
//! the crate, then — for free functions only — unique in the workspace);
//! an unresolved call simply ends the walk on that edge. The model stays
//! lexical like the rest of qmclint: no types, no macro expansion.

use std::collections::BTreeMap;

use crate::config::FileClass;
use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{fn_spans, hot_site, parse_markers, test_mask, Allows};

/// One outgoing call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name as written (method or free-function name).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
    /// True for `.name(...)` method calls (resolved more conservatively).
    pub method: bool,
}

/// One allocation / panic site inside a function body.
#[derive(Debug)]
pub struct HotSite {
    /// Offending name (`collect`, `unwrap`, `vec`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// True for panic machinery, false for allocation.
    pub panic: bool,
}

/// A compound assignment (`target += rhs;` / `target -= rhs;`) — the
/// accumulator pattern the precision-flow rule inspects.
#[derive(Debug)]
pub struct Accumulate {
    /// Assignment target (a plain identifier).
    pub target: String,
    /// 1-based line of the assignment.
    pub line: u32,
    /// Identifiers appearing in the right-hand side.
    pub rhs_idents: Vec<String>,
    /// Call names appearing in the right-hand side.
    pub rhs_calls: Vec<String>,
    /// True when the RHS contains a designated promotion site
    /// (`f64::from`, `.to_f64()`, `T::from_f64`, `.into()`).
    pub promoted: bool,
}

/// A `let` binding initialised from a call (`let x = helper();`).
#[derive(Debug)]
pub struct LetCall {
    /// Bound name.
    pub name: String,
    /// Call names in the initialiser.
    pub calls: Vec<String>,
    /// True when the initialiser contains a promotion site.
    pub promoted: bool,
}

/// One function in the table.
#[derive(Debug)]
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// Index of the owning file in [`WorkspaceModel::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Cold by name (constructor/setup) or by `qmclint: cold` marker:
    /// excluded from hot-path traversal.
    pub cold: bool,
    /// Inside a `#[cfg(test)]` item: excluded from every graph rule.
    pub in_test: bool,
    /// Declared return type is exactly `f32`.
    pub ret_f32: bool,
    /// Outgoing call sites.
    pub calls: Vec<CallSite>,
    /// Allocation / panic sites.
    pub hots: Vec<HotSite>,
    /// Locals declared `: f32`.
    pub f32_lets: Vec<(String, u32)>,
    /// Locals declared `: f64`.
    pub f64_lets: Vec<String>,
    /// Compound assignments (accumulator sites).
    pub accumulates: Vec<Accumulate>,
    /// Call-initialised `let` bindings.
    pub let_calls: Vec<LetCall>,
}

/// One file in the model.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// Classification from [`crate::config::classify`] (or a fixture
    /// header).
    pub class: FileClass,
    /// Crate key: the first two path segments (`crates/drivers/`).
    pub crate_key: String,
    /// Functions defined in the file.
    pub fns: Vec<FnModel>,
    /// True when the file contains an `unsafe` token outside strings and
    /// comments (drives the `forbid(unsafe_code)` audit).
    pub has_unsafe: bool,
    /// True when the file carries `#![forbid(unsafe_code)]`.
    pub forbids_unsafe: bool,
    /// Parsed `qmclint:` markers (graph rules honour allow markers the
    /// same way the lexical rules do).
    pub(crate) allows: Allows,
}

/// The whole-workspace function table and call graph.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Per-file models, in input order.
    pub files: Vec<FileModel>,
    /// Function name -> list of `(file index, fn index)` definitions.
    pub by_name: BTreeMap<String, Vec<(usize, usize)>>,
}

const KEYWORDS: [&str; 28] = [
    "if", "while", "for", "match", "return", "fn", "let", "loop", "move", "in", "as", "mut", "ref",
    "unsafe", "use", "pub", "impl", "where", "else", "break", "continue", "struct", "enum",
    "trait", "type", "const", "static", "mod",
];

fn crate_key(path: &str) -> String {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => format!("{a}/{b}/"),
        _ => String::new(),
    }
}

fn is_promotion(name: &str) -> bool {
    matches!(name, "from" | "from_f64" | "to_f64" | "into")
}

impl WorkspaceModel {
    /// Builds the model from `(path, source, class)` triples. Exempt files
    /// must be filtered out by the caller (they are not part of the
    /// analyzed workspace), with one exception: files may be included
    /// purely for the unsafe audit by passing `class.exempt = true`; they
    /// contribute `has_unsafe`/`forbids_unsafe` but no functions.
    pub fn build(files: &[(String, String, FileClass)]) -> Self {
        let mut model = WorkspaceModel::default();
        for (path, src, class) in files {
            let lexed = lex(src);
            let tokens = &lexed.tokens;
            let mut throwaway = Vec::new();
            let allows = parse_markers(path, &lexed, &mut throwaway);
            let has_unsafe = tokens.iter().any(|t| t.is_ident("unsafe"));
            let forbids_unsafe = src.contains("#![forbid(unsafe_code)]");
            let fi = model.files.len();
            let mut file = FileModel {
                path: path.clone(),
                class: *class,
                crate_key: crate_key(path),
                fns: Vec::new(),
                has_unsafe,
                forbids_unsafe,
                allows,
            };
            if !class.exempt {
                let mask = test_mask(tokens);
                for span in fn_spans(tokens) {
                    let Some((b0, b1)) = span.body else { continue };
                    let mut f = FnModel {
                        name: span.name.clone(),
                        file: fi,
                        line: span.line,
                        cold: crate::config::is_cold_fn_name(&span.name)
                            || file.allows.cold_near(span.line),
                        in_test: mask[b0],
                        ret_f32: ret_is_f32(tokens, span.sig, b0),
                        calls: Vec::new(),
                        hots: Vec::new(),
                        f32_lets: Vec::new(),
                        f64_lets: Vec::new(),
                        accumulates: Vec::new(),
                        let_calls: Vec::new(),
                    };
                    scan_body(tokens, b0, b1, &mut f);
                    model
                        .by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push((fi, file.fns.len()));
                    file.fns.push(f);
                }
            }
            model.files.push(file);
        }
        model
    }

    /// Resolves a call by name: same file first, then a unique definition
    /// within the same crate, then (free functions only) a unique
    /// definition across the workspace. Ambiguity resolves to `None` —
    /// the walk stops rather than guessing.
    pub fn resolve(&self, from_file: usize, callee: &str, method: bool) -> Option<(usize, usize)> {
        let defs = self.by_name.get(callee)?;
        if let Some(&d) = defs.iter().find(|(fi, _)| *fi == from_file) {
            return Some(d);
        }
        let ck = &self.files[from_file].crate_key;
        let in_crate: Vec<&(usize, usize)> = defs
            .iter()
            .filter(|(fi, _)| &self.files[*fi].crate_key == ck)
            .collect();
        if in_crate.len() == 1 {
            return Some(*in_crate[0]);
        }
        if !method && in_crate.is_empty() && defs.len() == 1 {
            return Some(defs[0]);
        }
        None
    }

    /// Shorthand: the function at `(file, fn)` indices.
    pub fn func(&self, id: (usize, usize)) -> &FnModel {
        &self.files[id.0].fns[id.1]
    }

    /// Crates (by crate key) whose analyzed sources contain no `unsafe`
    /// token but whose `src/lib.rs` does not carry
    /// `#![forbid(unsafe_code)]` — the audit behind the satellite sweep.
    pub fn missing_forbid_unsafe(&self) -> Vec<String> {
        let mut by_crate: BTreeMap<&str, (bool, Option<bool>)> = BTreeMap::new();
        for f in &self.files {
            if f.crate_key.is_empty() || f.path.contains("/tests/") {
                continue;
            }
            let entry = by_crate
                .entry(f.crate_key.as_str())
                .or_insert((false, None));
            entry.0 |= f.has_unsafe;
            if f.path == format!("{}src/lib.rs", f.crate_key) {
                entry.1 = Some(f.forbids_unsafe);
            }
        }
        by_crate
            .into_iter()
            .filter(|&(_, (has_unsafe, forbids))| !has_unsafe && forbids == Some(false))
            .map(|(ck, _)| ck.to_string())
            .collect()
    }
}

/// True when the signature `[sig, body)` declares `-> f32`.
fn ret_is_f32(tokens: &[Tok], sig: usize, body: usize) -> bool {
    let mut j = sig;
    while j + 2 < body.min(tokens.len()) {
        if tokens[j].is_punct('-') && tokens[j + 1].is_punct('>') {
            return tokens[j + 2].is_ident("f32");
        }
        j += 1;
    }
    false
}

/// Single pass over a function body collecting calls, hot sites and
/// precision-relevant locals.
fn scan_body(tokens: &[Tok], b0: usize, b1: usize, f: &mut FnModel) {
    for i in b0..=b1 {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Hot (allocation / panic) site.
        if let Some((what, panic)) = hot_site(tokens, i) {
            f.hots.push(HotSite {
                what: what.to_string(),
                line: t.line,
                panic,
            });
        }
        // `let` bindings: typed precision locals and call inits.
        if t.text == "let" {
            scan_let(tokens, i, b1, f);
        }
        // Compound assignment accumulator: `x += ...;` / `x -= ...;`.
        if tokens
            .get(i + 1)
            .is_some_and(|n| n.is_punct('+') || n.is_punct('-'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('='))
            && (i == b0 || !tokens[i - 1].is_punct('.'))
        {
            scan_accumulate(tokens, i, b1, f);
        }
        // Call site.
        if let Some(callee) = call_at(tokens, i) {
            f.calls.push(CallSite {
                callee,
                line: t.line,
                method: tokens[i - 1].is_punct('.'),
            });
        }
    }
}

/// Identifies token `i` as a call site and returns the callee name.
/// Skips keywords, declarations, capitalised names (tuple structs / enum
/// variants) and foreign path calls (`std::mem::take`), but keeps
/// `self::`/`Self::` paths and method calls.
fn call_at(tokens: &[Tok], i: usize) -> Option<String> {
    let t = &tokens[i];
    if !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    if KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    if t.text.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    if i == 0 {
        return Some(t.text.clone());
    }
    let prev = &tokens[i - 1];
    if prev.is_ident("fn") {
        return None; // declaration
    }
    if prev.is_punct(':') {
        // Path call `Q::name(` — only `self::`/`Self::` resolve locally.
        let qualifier =
            (i >= 3 && tokens[i - 2].is_punct(':') && tokens[i - 3].kind == TokKind::Ident)
                .then(|| tokens[i - 3].text.as_str());
        return match qualifier {
            Some("self" | "Self") => Some(t.text.clone()),
            _ => None,
        };
    }
    Some(t.text.clone())
}

/// Parses a `let` statement at token `i` for precision tracking.
fn scan_let(tokens: &[Tok], i: usize, b1: usize, f: &mut FnModel) {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name_tok) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return;
    };
    let name = name_tok.text.clone();
    let line = name_tok.line;
    // Typed binding: `let x: f32` / `let x: f64`.
    if tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
        if let Some(ty) = tokens.get(j + 2) {
            if ty.is_ident("f32") {
                f.f32_lets.push((name, line));
                return;
            }
            if ty.is_ident("f64") {
                f.f64_lets.push(name);
                return;
            }
        }
        return;
    }
    // Call-initialised binding: `let x = helper(...);`.
    if !tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return;
    }
    let mut calls = Vec::new();
    let mut promoted = false;
    let mut k = j + 2;
    let mut pdepth = 0i32;
    while k <= b1 {
        match tokens[k].kind {
            TokKind::Punct('(' | '[') => pdepth += 1,
            TokKind::Punct(')' | ']') => pdepth -= 1,
            TokKind::Punct(';' | '{') if pdepth <= 0 => break,
            TokKind::Ident => {
                if is_promotion(&tokens[k].text) {
                    promoted = true;
                }
                if let Some(c) = call_at(tokens, k) {
                    calls.push(c);
                }
            }
            _ => {}
        }
        k += 1;
    }
    if !calls.is_empty() {
        f.let_calls.push(LetCall {
            name,
            calls,
            promoted,
        });
    }
}

/// Parses a compound assignment `target op= rhs;` at token `i`.
fn scan_accumulate(tokens: &[Tok], i: usize, b1: usize, f: &mut FnModel) {
    let target = tokens[i].text.clone();
    let mut rhs_idents = Vec::new();
    let mut rhs_calls = Vec::new();
    let mut promoted = false;
    let mut k = i + 3;
    let mut pdepth = 0i32;
    while k <= b1 {
        match tokens[k].kind {
            TokKind::Punct('(' | '[') => pdepth += 1,
            TokKind::Punct(')' | ']') => pdepth -= 1,
            TokKind::Punct(';') if pdepth <= 0 => break,
            TokKind::Ident => {
                if is_promotion(&tokens[k].text) {
                    promoted = true;
                }
                if let Some(c) = call_at(tokens, k) {
                    rhs_calls.push(c);
                } else {
                    rhs_idents.push(tokens[k].text.clone());
                }
            }
            _ => {}
        }
        k += 1;
    }
    f.accumulates.push(Accumulate {
        target,
        line: tokens[i].line,
        rhs_idents,
        rhs_calls,
        promoted,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physics() -> FileClass {
        FileClass {
            exempt: false,
            mixed_precision: false,
            kernel: false,
            physics: true,
        }
    }

    fn build_one(src: &str) -> WorkspaceModel {
        WorkspaceModel::build(&[("crates/demo/src/a.rs".into(), src.into(), physics())])
    }

    #[test]
    fn calls_and_hots_are_recorded() {
        let m = build_one(
            "fn outer(n: usize) { helper(n); }\n\
             fn helper(n: usize) -> Vec<u8> { (0..n).collect() }\n",
        );
        let outer = &m.files[0].fns[0];
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, "helper");
        let helper = &m.files[0].fns[1];
        assert_eq!(helper.hots.len(), 1);
        assert_eq!(helper.hots[0].what, "collect");
        assert!(!helper.hots[0].panic);
        assert_eq!(m.resolve(0, "helper", false), Some((0, 1)));
    }

    #[test]
    fn ret_f32_and_precision_locals() {
        let m = build_one(
            "fn cheap() -> f32 { 0.5 }\n\
             fn accumulate() {\n    let e = cheap();\n    let mut total: f64 = 0.0;\n    total += e;\n}\n",
        );
        assert!(m.files[0].fns[0].ret_f32);
        let acc = &m.files[0].fns[1];
        assert_eq!(acc.let_calls.len(), 1);
        assert_eq!(acc.let_calls[0].calls, vec!["cheap".to_string()]);
        assert_eq!(acc.f64_lets, vec!["total".to_string()]);
        assert_eq!(acc.accumulates.len(), 1);
        assert_eq!(acc.accumulates[0].target, "total");
        assert!(acc.accumulates[0].rhs_idents.contains(&"e".to_string()));
    }

    #[test]
    fn foreign_paths_and_variants_are_not_calls() {
        let m = build_one(
            "fn f() { std::mem::take(&mut 0); Some(1); Self::helper(); }\nfn helper() {}\n",
        );
        let calls: Vec<&str> = m.files[0].fns[0]
            .calls
            .iter()
            .map(|c| c.callee.as_str())
            .collect();
        assert_eq!(calls, vec!["helper"]);
    }

    #[test]
    fn method_calls_do_not_resolve_globally() {
        let files = [
            (
                "crates/a/src/lib.rs".to_string(),
                "fn f(x: &X) { x.evaluate(); }".to_string(),
                physics(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "pub fn evaluate() {}".to_string(),
                physics(),
            ),
        ];
        let m = WorkspaceModel::build(&files);
        assert_eq!(m.resolve(0, "evaluate", true), None);
        // A free call *does* resolve via the unique-global fallback.
        assert_eq!(m.resolve(0, "evaluate", false), Some((1, 0)));
    }

    #[test]
    fn unsafe_audit_flags_missing_forbid() {
        let files = [
            (
                "crates/a/src/lib.rs".to_string(),
                "#![forbid(unsafe_code)]\npub fn f() {}".to_string(),
                physics(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "pub fn g() {}".to_string(),
                physics(),
            ),
            (
                "crates/c/src/lib.rs".to_string(),
                "pub unsafe fn h() {}".to_string(),
                physics(),
            ),
        ];
        let m = WorkspaceModel::build(&files);
        assert_eq!(m.missing_forbid_unsafe(), vec!["crates/b/".to_string()]);
    }
}
