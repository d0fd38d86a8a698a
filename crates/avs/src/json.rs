//! A small JSON reader/writer for the saved-network file format.
//!
//! The Network Editor saves programs as JSON (the moral equivalent of an
//! AVS `.net` file). The workspace builds without registry access, so
//! rather than pulling in `serde`, this module implements the little JSON
//! that the saved-file format needs: a [`Json`] tree, a recursive-descent
//! parser, and a pretty printer. Numbers are `f64`; object key order is
//! preserved so saved files are stable.

use std::fmt::Write as _;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required member lookup, with a path-flavoured error.
    pub fn need(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing member '{key}'"))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Typed member accessors used by the saved-file decoders.
    pub fn str_of(&self, key: &str) -> Result<String, String> {
        self.need(key)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("member '{key}' is not a string"))
    }

    /// A required `f64` member.
    pub fn f64_of(&self, key: &str) -> Result<f64, String> {
        self.need(key)?.as_f64().ok_or_else(|| format!("member '{key}' is not a number"))
    }

    /// A required non-negative integer member.
    pub fn usize_of(&self, key: &str) -> Result<usize, String> {
        let x = self.f64_of(key)?;
        if x.fract() == 0.0 && x >= 0.0 && x <= usize::MAX as f64 {
            Ok(x as usize)
        } else {
            Err(format!("member '{key}' is not an index"))
        }
    }

    /// A required boolean member.
    pub fn bool_of(&self, key: &str) -> Result<bool, String> {
        self.need(key)?.as_bool().ok_or_else(|| format!("member '{key}' is not a boolean"))
    }

    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s, at: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(v)
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(v) if v.is_empty() => out.push_str("[]"),
            Json::Arr(v) => {
                out.push_str("[\n");
                for (i, e) in v.iter().enumerate() {
                    pad(out, indent + 1);
                    e.write(out, indent + 1);
                    out.push_str(if i + 1 < v.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest representation that parses back exactly.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// How many arrays and objects one document may nest. Saved-network
/// files nest six deep; the parser recurses once per level.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a str,
    /// Byte offset into `s`, always on a character boundary.
    at: usize,
    /// Arrays and objects open around the current value.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nested more than {MAX_DEPTH} deep at byte {}", self.at))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.at)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .as_bytes()
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let n = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not paired here; the writer never
                            // emits them.
                            out.push(char::from_u32(n).ok_or("bad \\u escape")?);
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    let c = self.s[self.at..].chars().next().expect("not at the end");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        let text = &self.s[start..self.at];
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj(vec![
            ("name", Json::Str("a \"quoted\"\nline".into())),
            ("xs", Json::Arr(vec![Json::Num(1.5), Json::Num(-2.0), Json::Null])),
            ("on", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            ("obj", Json::obj(vec![("k", Json::Num(0.1))])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, 41.0, -1.0 / 3.0, 1e-12, 6.02e23, f64::MIN_POSITIVE] {
            let text = Json::Num(x).pretty();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{nope", "[1,", "\"open", "{\"k\" 1}", "tru", "1.2.3", "[] []"] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    /// A string value steps through the document once: a 1 MiB one
    /// parses in linear time and round-trips.
    #[test]
    fn a_one_mebibyte_string_parses_and_round_trips() {
        let doc = Json::obj(vec![("blob", Json::Str("ab\u{e9}\u{1F680}\\\"".repeat(1 << 17)))]);
        let text = doc.pretty();
        assert!(text.len() > 1 << 20);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// Nesting past the bound is an error naming the byte offset, never
    /// a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // 64 levels of `[{"k":` pairs, then one array too many at byte 192.
        let deep = format!("{}[]{}", "[{\"k\":".repeat(MAX_DEPTH / 2), "}]".repeat(MAX_DEPTH / 2));
        assert_eq!(Json::parse(&deep).unwrap_err(), "nested more than 64 deep at byte 192");
        assert_eq!(
            Json::parse(&"[".repeat(200_000)).unwrap_err(),
            "nested more than 64 deep at byte 64"
        );
    }

    #[test]
    fn accessors_enforce_types() {
        let doc = Json::parse(r#"{"s": "x", "n": 3, "b": false}"#).unwrap();
        assert_eq!(doc.str_of("s").unwrap(), "x");
        assert_eq!(doc.usize_of("n").unwrap(), 3);
        assert!(!doc.bool_of("b").unwrap());
        assert!(doc.str_of("n").is_err());
        assert!(doc.usize_of("missing").is_err());
    }
}
