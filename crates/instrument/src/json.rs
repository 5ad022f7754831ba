//! Minimal hand-rolled JSON support (the repo takes no serialization
//! dependencies): a writer used by [`crate::report`] and the Chrome trace
//! export, and a strict parser used by tests and the `json_check` smoke
//! tool to validate emitted reports.

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` as a JSON number; non-finite values become `null` (JSON has
/// no NaN/Inf).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// An object/array writer that tracks comma placement, so emitting code
/// reads linearly.
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object value (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array value (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push(']');
        self
    }

    /// Emits an object key (caller then emits exactly one value).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.buf, k);
        self.buf.push(':');
        // The value that follows must not emit a comma first.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emits a string value.
    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.buf, s);
        self
    }

    /// Emits a float value.
    pub fn f64_val(&mut self, x: f64) -> &mut Self {
        self.sep();
        write_f64(&mut self.buf, x);
        self
    }

    /// Emits an unsigned integer value.
    pub fn u64_val(&mut self, x: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{x}");
        self
    }

    /// Emits a boolean value.
    pub fn bool_val(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(if b { "true" } else { "false" });
        self
    }

    /// Finishes and returns the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.need_comma.is_empty(), "unbalanced JSON writer");
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object members.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. What this
/// crate writes nests about four levels; the bound keeps a hostile
/// document from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Arrays and objects nested deeper than [`MAX_DEPTH`]
/// are an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(s, pos, depth + 1),
        Some(b'[') => parse_arr(s, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_num(s, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(s: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let num = &s[start..*pos];
    num.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number '{num}' at byte {start}"))
}

/// Parses the string literal at `pos`. Runs of plain characters are
/// copied straight from `s`: a run ends at an ASCII `"` or `\\`, so it
/// is whole characters and every byte is looked at once.
fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate escape followed by a low one is
                        // one character; a lone surrogate stays U+FFFD.
                        if (0xD800..0xDC00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            if let Ok(low @ 0xDC00..=0xDFFF) = hex4(b, *pos + 3) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(&s[start..*pos]);
            }
        }
    }
}

/// The code unit of the four hex digits of a `\\u` escape, which start
/// at byte `at`; anything but four ASCII hex digits is an error naming the
/// first byte that is not one.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    (at..at + 4).try_fold(0, |code, i| {
        b.get(i)
            .and_then(|&d| char::from(d).to_digit(16))
            .map(|digit| code * 16 + digit)
            .ok_or_else(|| format!("bad \\u escape: no hex digit at byte {i}"))
    })
}

fn parse_arr(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(s, pos, depth)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str_val("he said \"hi\"\n");
        w.key("xs");
        w.begin_arr();
        w.f64_val(1.5).f64_val(-2.0).f64_val(f64::NAN);
        w.end_arr();
        w.key("n").u64_val(42);
        w.key("ok").bool_val(true);
        w.end_obj();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "he said \"hi\"\n");
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_f64(), Some(1.5));
        assert_eq!(xs[2], JsonValue::Null, "NaN serializes as null");
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("ok").unwrap(), &JsonValue::Bool(true));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_accepts_nested_structures() {
        let v = parse(" {\"a\": [1, {\"b\": null}], \"c\": 1e-3} ").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[1].get("b"), Some(&JsonValue::Null));
        assert!((v.get("c").unwrap().as_f64().unwrap() - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        for deep in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(200_000),
        ] {
            let err = parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn raw_multibyte_characters_and_escapes_round_trip() {
        let text = "é 😀 \"q\" back\\slash\n\t\u{1} ünïcödé";
        let mut doc = String::new();
        write_str(&mut doc, text);
        assert!(doc.contains('😀'), "written raw, not escaped");
        assert_eq!(parse(&doc).unwrap().as_str(), Some(text));
        assert_eq!(
            parse("\"\\u00e9\\ud83d x\"").unwrap().as_str(),
            Some("é\u{fffd} x"),
            "a lone surrogate escape decodes to U+FFFD"
        );
        // A 1 MiB string parses in one pass over its bytes.
        let big = "é😀xy".repeat((1 << 20) / 8);
        assert_eq!(big.len(), 1 << 20);
        let mut doc = String::new();
        write_str(&mut doc, &big);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(big.as_str()));
    }

    #[test]
    fn unicode_escapes() {
        let v = parse("\"\\u00e9\\t\"").unwrap();
        assert_eq!(v.as_str(), Some("é\t"));
    }

    #[test]
    fn a_surrogate_pair_escape_is_one_character() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(
            parse("\"a\\uD83D\\uDE00b\"").unwrap().as_str(),
            Some("a😀b"),
            "upper-case hex"
        );
    }

    #[test]
    fn a_lone_surrogate_escape_is_the_replacement_character() {
        for (doc, want) in [
            ("\"\\ud83d\"", "\u{fffd}"),
            ("\"\\ude00\\ud83d\"", "\u{fffd}\u{fffd}"),
            ("\"\\ud83d\\u0041\"", "\u{fffd}A"),
            ("\"\\ud83d\\ud83d\\ude00\"", "\u{fffd}😀"),
            ("\"\\ud83dx\"", "\u{fffd}x"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
    }

    #[test]
    fn a_u_escape_needs_four_ascii_hex_digits() {
        for (doc, byte) in [
            ("\"\\u+041\"", 3),
            ("\"\\u-041\"", 3),
            ("\"\\u04 1\"", 5),
            ("\"\\u00é9\"", 5),
            ("\"\\u12\"", 5),
            ("\"\\ud83d\\u+e00\"", 9),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(
                err,
                format!("bad \\u escape: no hex digit at byte {byte}"),
                "{doc}"
            );
        }
    }
}
