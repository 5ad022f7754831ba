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

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{FileClass, BUFFER_MUT_METHODS, RNG_DRAW_METHODS, TRACKED_STATE_FIELDS};
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

/// What kind of tracked state a mutation effect touches (qmclint v3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EffectKind {
    /// An RNG draw site (`.random()`, `.random_range(..)`, `.next_u64()`):
    /// advances the stream, so the draw count changes downstream numbers.
    RngDraw,
    /// A stream re-key (`.rng = ...`): replaces the RNG wholesale — the
    /// PR-7 `serialize_walker` bug shape.
    RngRekey,
    /// A mutating `WalkerBuffer` method call (`.buffer.rewind()`,
    /// `buffer.get_f64(..)` — cursor or contents).
    BufferMut,
    /// An assignment to a tracked walker-state field (`.weight *= ..`,
    /// `.age = ..`).
    FieldWrite,
}

/// One direct mutation effect inside a function body. Transitive closure
/// over the call graph happens in [`crate::effect_rules`].
#[derive(Clone, Debug)]
pub struct Effect {
    /// What kind of state the site mutates.
    pub kind: EffectKind,
    /// 1-based line of the site.
    pub line: u32,
    /// The method or field name at the site (`random`, `rewind`, `weight`).
    pub what: String,
}

/// One `struct` definition with named fields, for the state-coverage rule.
#[derive(Debug)]
pub struct StructModel {
    /// Struct name as written.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields in declaration order (empty for tuple/unit structs).
    pub fields: Vec<String>,
    /// True when a `#[derive(...)]` immediately above lists `Clone`.
    pub derives_clone: bool,
    /// Inside a `#[cfg(test)]` item: excluded from the coverage rule.
    pub in_test: bool,
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
    /// Direct mutation effects on walker/RNG/buffer state.
    pub effects: Vec<Effect>,
    /// Every identifier token in the signature and body — the
    /// field-mention surface the state-coverage rule diffs against
    /// checkpointed-struct fields.
    pub idents: BTreeSet<String>,
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
    /// Struct definitions with named fields.
    pub structs: Vec<StructModel>,
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
                structs: Vec::new(),
                has_unsafe,
                forbids_unsafe,
                allows,
            };
            if !class.exempt {
                let mask = test_mask(tokens);
                file.structs = scan_structs(tokens, &mask);
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
                        effects: Vec::new(),
                        idents: BTreeSet::new(),
                    };
                    scan_body(tokens, b0, b1, &mut f);
                    // Signature identifiers join the mention surface:
                    // deserialize carriers often name fields as params.
                    for t in &tokens[span.sig..b0] {
                        if t.kind == TokKind::Ident {
                            f.idents.insert(t.text.clone());
                        }
                    }
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

/// Collects every `struct` definition with its named fields and whether a
/// `#[derive(...)]` above it lists `Clone`. Lexical like everything else:
/// generics are skipped by angle-bracket depth, tuple and unit structs
/// yield an empty field list.
fn scan_structs(tokens: &[Tok], mask: &[bool]) -> Vec<StructModel> {
    let mut out = Vec::new();
    let mut pending_clone = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // `#[derive(..., Clone, ...)]`: remembered until the next item.
        if t.text == "derive" && i >= 1 && tokens[i - 1].is_punct('[') {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    TokKind::Ident if tokens[j].text == "Clone" => pending_clone = true,
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        match t.text.as_str() {
            "struct" => {
                if let Some(s) = parse_struct(tokens, i, mask, pending_clone) {
                    out.push(s);
                }
                pending_clone = false;
            }
            "enum" | "fn" | "impl" | "trait" | "mod" | "union" | "type" => pending_clone = false,
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parses the `struct` definition whose keyword is at token `i`.
fn parse_struct(
    tokens: &[Tok],
    i: usize,
    mask: &[bool],
    derives_clone: bool,
) -> Option<StructModel> {
    let name_tok = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let mut s = StructModel {
        name: name_tok.text.clone(),
        line: tokens[i].line,
        fields: Vec::new(),
        derives_clone,
        in_test: mask[i],
    };
    // Find the body `{` past any generics; `;` or `(` first means a
    // unit/tuple struct with no named fields.
    let mut j = i + 2;
    let mut angle = 0i32;
    loop {
        let t = tokens.get(j)?;
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct(';' | '(') if angle <= 0 => return Some(s),
            TokKind::Punct('{') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Named fields at brace depth 1: `name :` directly after `{`, `,`,
    // `pub` or the `)` of a `pub(crate)` qualifier.
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            TokKind::Ident
                if depth == 1
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && !tokens.get(j + 2).is_some_and(|n| n.is_punct(':'))
                    && (tokens[j - 1].is_punct('{')
                        || tokens[j - 1].is_punct(',')
                        || tokens[j - 1].is_punct(')')
                        || tokens[j - 1].is_ident("pub")) =>
            {
                s.fields.push(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    Some(s)
}

/// Single pass over a function body collecting calls, hot sites and
/// precision-relevant locals.
fn scan_body(tokens: &[Tok], b0: usize, b1: usize, f: &mut FnModel) {
    for i in b0..=b1 {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        f.idents.insert(t.text.clone());
        scan_effect(tokens, i, f);
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

/// Records a mutation effect when token `i` is a draw site, a stream
/// re-key, a mutating buffer-method call or a tracked-field assignment.
///
/// Draw sites are matched on the method name alone (with the `::<T>`
/// turbofish tolerated): `shims/rand` is exempt from the model, so its
/// draw API is mirrored in [`RNG_DRAW_METHODS`] rather than discovered.
/// Buffer mutations additionally require the receiver segment to be
/// spelled `buffer` (`w.buffer.rewind()`, `buffer.put_f64(..)`) — method
/// names like `clear` are too common to match bare.
fn scan_effect(tokens: &[Tok], i: usize, f: &mut FnModel) {
    let t = &tokens[i];
    if i == 0 || !tokens[i - 1].is_punct('.') {
        return;
    }
    let next = tokens.get(i + 1);
    if RNG_DRAW_METHODS.contains(&t.text.as_str())
        && next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
    {
        f.effects.push(Effect {
            kind: EffectKind::RngDraw,
            line: t.line,
            what: t.text.clone(),
        });
        return;
    }
    if BUFFER_MUT_METHODS.contains(&t.text.as_str())
        && next.is_some_and(|n| n.is_punct('('))
        && i >= 2
        && tokens[i - 2].is_ident("buffer")
    {
        f.effects.push(Effect {
            kind: EffectKind::BufferMut,
            line: t.line,
            what: t.text.clone(),
        });
        return;
    }
    if TRACKED_STATE_FIELDS.contains(&t.text.as_str()) {
        let assigned = match next.map(|n| &n.kind) {
            // `=` but not `==`.
            Some(TokKind::Punct('=')) => !tokens.get(i + 2).is_some_and(|n| n.is_punct('=')),
            // Compound assignment `+=` / `-=` / `*=` / `/=`.
            Some(TokKind::Punct('+' | '-' | '*' | '/')) => {
                tokens.get(i + 2).is_some_and(|n| n.is_punct('='))
            }
            _ => false,
        };
        if assigned {
            f.effects.push(Effect {
                kind: if t.text == "rng" {
                    EffectKind::RngRekey
                } else {
                    EffectKind::FieldWrite
                },
                line: t.line,
                what: t.text.clone(),
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
    fn effects_record_draws_rekeys_buffer_muts_and_field_writes() {
        let m = build_one(
            "fn mutate(w: &mut Walker) {\n\
                 let u: f64 = w.rng.random();\n\
                 let v = w.rng.random::<f64>();\n\
                 w.rng = StdRng::seed_from_u64(1);\n\
                 w.buffer.rewind();\n\
                 w.weight *= u + v;\n\
                 w.age = 0;\n\
             }\n\
             fn read_only(w: &Walker) -> bool {\n\
                 let c = w.buffer.cursors();\n\
                 w.age == 0 && w.rng.state()[0] != 0\n\
             }\n",
        );
        let kinds: Vec<EffectKind> = m.files[0].fns[0].effects.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EffectKind::RngDraw,
                EffectKind::RngDraw,
                EffectKind::RngRekey,
                EffectKind::BufferMut,
                EffectKind::FieldWrite,
                EffectKind::FieldWrite,
            ]
        );
        assert_eq!(m.files[0].fns[0].effects[2].line, 4);
        assert!(
            m.files[0].fns[1].effects.is_empty(),
            "reads are not effects"
        );
        assert!(m.files[0].fns[1].idents.contains("cursors"));
    }

    #[test]
    fn structs_record_named_fields_and_clone_derive() {
        let m = build_one(
            "#[derive(Clone, Debug)]\n\
             pub struct DmcState {\n    pub branch: BranchController,\n    pub step: usize,\n}\n\
             #[derive(Debug)]\n\
             pub struct Walker<T: Real> {\n    pub r: Vec<[T; 3]>,\n    pub(crate) rng: StdRng,\n}\n\
             pub struct Marker;\n\
             #[cfg(test)]\nstruct Scratch { x: u32 }\n",
        );
        let structs = &m.files[0].structs;
        assert_eq!(structs.len(), 4);
        assert_eq!(structs[0].name, "DmcState");
        assert!(structs[0].derives_clone);
        assert_eq!(
            structs[0].fields,
            vec!["branch".to_string(), "step".to_string()]
        );
        assert_eq!(structs[1].name, "Walker");
        assert!(!structs[1].derives_clone);
        assert_eq!(structs[1].fields, vec!["r".to_string(), "rng".to_string()]);
        assert!(structs[2].fields.is_empty());
        assert!(structs[3].in_test);
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
