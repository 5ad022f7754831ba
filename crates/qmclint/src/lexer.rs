//! A hand-rolled Rust lexer, just deep enough for invariant linting.
//!
//! The registry is unreachable, so `syn`/`proc-macro2` are off the table;
//! the rules in [`crate::rules`] only need a token stream with line numbers
//! plus the comment text (for `qmclint:` markers), and
//! that is exactly what this module produces. String/char/raw-string
//! contents and comment bodies never become tokens, so rules cannot
//! false-positive on them.

/// Kind of a lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `as`, `unsafe`, `unwrap`, ...).
    Ident,
    /// Numeric literal; `text` keeps the raw spelling (suffix included).
    Num,
    /// String / raw-string / byte-string / char literal (content dropped).
    Literal,
    /// Lifetime (`'a`).
    Lifetime,
    /// Single punctuation character (`.`, `:`, `{`, `!`, ...).
    Punct(char),
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// What kind of token.
    pub kind: TokKind,
    /// Raw text for `Ident`/`Num`; empty for the rest.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// True when this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with its starting line; `text` excludes the `//`/`/*` sigils.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body (for block comments, the whole body).
    pub text: String,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Never fails: unterminated constructs are consumed to
/// end-of-file (the real compiler rejects them; the linter stays quiet).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($slice:expr) => {
            line += $slice.iter().filter(|&&c| c == b'\n').count() as u32
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&b[start..j]).into_owned(),
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment.
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if j + 1 < b.len() && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < b.len() && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: String::from_utf8_lossy(&b[start..end]).into_owned(),
                });
                i = j;
            }
            b'"' => {
                let j = scan_string(b, i);
                bump_lines!(&b[i..j]);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
                i = j;
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let j = scan_raw_or_byte(b, i);
                let tok_line = line;
                bump_lines!(&b[i..j]);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
                i = j;
            }
            b'\'' => {
                // Lifetime vs char literal.
                if is_lifetime(b, i) {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: String::new(),
                        line,
                    });
                    i = j;
                } else {
                    let j = scan_char(b, i);
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let j = scan_number(b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Num,
                    text: String::from_utf8_lossy(&b[i..j]).into_owned(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&b[i..j]).into_owned(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii() => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct(c as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
            _ => {
                // Multi-byte UTF-8 outside strings/comments (e.g. in a
                // doc-test snippet that leaked); skip the whole scalar.
                let mut j = i + 1;
                while j < b.len() && (b[j] & 0xC0) == 0x80 {
                    j += 1;
                }
                i = j;
            }
        }
    }
    out
}

fn scan_string(b: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    // r"..", r#".."#, br"..", b"..", b'..'
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") {
        return true;
    }
    if rest.starts_with(b"b\"") || rest.starts_with(b"b'") {
        return true;
    }
    if rest.starts_with(b"br\"") || rest.starts_with(b"br#") {
        return true;
    }
    false
}

fn scan_raw_or_byte(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'\'' {
        return scan_char(b, j);
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            j += 1;
            // Scan to `"` followed by `hashes` hashes.
            while j < b.len() {
                if b[j] == b'"' {
                    let mut k = j + 1;
                    let mut seen = 0usize;
                    while k < b.len() && b[k] == b'#' && seen < hashes {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        return k;
                    }
                }
                j += 1;
            }
        }
        return j;
    }
    // Plain byte string b"..".
    scan_string(b, j)
}

fn is_lifetime(b: &[u8], i: usize) -> bool {
    // 'x is a lifetime unless it closes as a char literal ('x').
    match b.get(i + 1) {
        Some(b'\\') => false,
        Some(c) if c.is_ascii_alphanumeric() || *c == b'_' => b.get(i + 2) != Some(&b'\''),
        _ => false,
    }
}

fn scan_char(b: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => return j, // malformed; stop at line end
            _ => j += 1,
        }
    }
    j
}

fn scan_number(b: &[u8], start: usize) -> usize {
    let mut j = start;
    // Consume digits, underscores, letters (covers 0x/0b/0o bodies, type
    // suffixes and exponent letters) and dots that begin a fractional part.
    while j < b.len() {
        let c = b[j];
        if c.is_ascii_alphanumeric() || c == b'_' {
            // `1e-5` / `1E+5`: the sign belongs to the literal.
            if (c == b'e' || c == b'E')
                && !is_radix_prefixed(b, start)
                && matches!(b.get(j + 1), Some(b'+' | b'-'))
                && b.get(j + 2).is_some_and(u8::is_ascii_digit)
            {
                j += 2;
            }
            j += 1;
        } else if c == b'.'
            && b.get(j + 1).is_some_and(u8::is_ascii_digit)
            && !is_radix_prefixed(b, start)
        {
            // Fractional part. A bare trailing dot (`1.`) or a range
            // (`1..n`) stays outside the literal, which is fine for the
            // suffix detection the rules need.
            j += 1;
        } else {
            break;
        }
    }
    j
}

fn is_radix_prefixed(b: &[u8], start: usize) -> bool {
    b[start] == b'0' && matches!(b.get(start + 1), Some(b'x' | b'o' | b'b'))
}

/// Float-literal suffix (`f32`/`f64`) of a numeric token, if any.
pub fn float_suffix(num_text: &str) -> Option<&'static str> {
    let b = num_text.as_bytes();
    if b.first() == Some(&b'0') && matches!(b.get(1), Some(b'x' | b'o' | b'b')) {
        return None; // 0xf32 is hex digits, not a suffix
    }
    if num_text.ends_with("f32") {
        Some("f32")
    } else if num_text.ends_with("f64") {
        Some("f64")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_tokenize() {
        let l = lex("let x = \"unwrap\"; // unwrap in comment\n/* as f32 */ let y = 1;");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("f32")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("unwrap in comment"));
        assert!(l.comments[1].text.contains("as f32"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let l = lex("let s = r#\"as f64 \"quoted\"\"#; let c = '\\n'; let lt: &'a str = \"\";");
        assert!(!l.tokens.iter().any(|t| t.is_ident("f64")));
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Lifetime));
    }

    #[test]
    fn number_suffixes() {
        let l = lex("let a = 1.5f32; let b = 2f64; let c = 0xf32; let d = 1e-5f64; let e = 3.0;");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| float_suffix(&t.text))
            .collect();
        assert_eq!(
            nums,
            vec![Some("f32"), Some("f64"), None, Some("f64"), None]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("fn a() {}\n\nfn b() {}\n");
        let b_tok = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn as_cast_sequence_survives() {
        let toks = idents("let x = n as f64;");
        assert_eq!(toks, vec!["let", "x", "n", "as", "f64"]);
    }

    #[test]
    fn range_and_method_on_int() {
        // `1..n` must not swallow the dots; `1.max(2)` keeps `max` an ident.
        let toks = idents("for i in 1..n { let _ = 1.max(2); }");
        assert!(toks.contains(&"max".to_string()));
        assert!(toks.contains(&"n".to_string()));
    }
}
