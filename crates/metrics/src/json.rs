//! A minimal JSON value type with writer and parser.
//!
//! Covers exactly what the manifest schema needs — objects, arrays,
//! strings, finite numbers, booleans and null — so the workspace stays
//! free of external serialization crates. Object keys keep sorted order
//! (`BTreeMap`), making output deterministic and diffable.
//!
//! # Examples
//!
//! ```
//! use gscalar_metrics::json::Json;
//!
//! let v = Json::parse(r#"{"a": [1, 2.5, "x\n"], "b": true}"#).unwrap();
//! assert_eq!(v.get("b"), Some(&Json::Bool(true)));
//! let round = Json::parse(&v.to_string()).unwrap();
//! assert_eq!(round, v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (serialized via shortest-roundtrip `{:?}`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Member `key` of an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input,
    /// non-finite numbers, invalid escapes, or arrays and objects
    /// nested deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            s,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // `{:?}` prints the shortest representation that
                // round-trips; integers get a trailing `.0` which JSON
                // readers accept.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:?}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap a small document
/// of brackets (a request body, say) overflows the thread's stack;
/// nothing this workspace writes nests more than a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn b(&self) -> &[u8] {
        self.s.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .b()
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(c), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.s[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.s[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(format!("non-finite number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::obj([
            (
                "metrics".to_string(),
                Json::obj([
                    ("a/b".to_string(), Json::Num(1.5)),
                    ("c".to_string(), Json::Num(-3.0)),
                ]),
            ),
            (
                "tags".to_string(),
                Json::Arr(vec![Json::Str("x\"y\\z\n".into()), Json::Null]),
            ),
            ("ok".to_string(), Json::Bool(false)),
        ]);
        let text = v.to_string();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        let ok = nest("[", "]", MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let err = Json::parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let obj = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&obj(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&obj(MAX_DEPTH + 1)).is_err());
        // Far deeper than any stack could recurse: a spawned thread
        // (default 2 MiB stack, like a server connection's) gets an
        // error, not an overflow, even for unclosed input.
        for n in [10_000, 1_000_000] {
            let docs = [
                "[".repeat(n),
                nest("[", "]", n),
                "{\"k\":".repeat(n),
                obj(n),
            ];
            let errs = std::thread::spawn(move || docs.map(|d| Json::parse(&d).is_err()))
                .join()
                .expect("parser thread must not overflow its stack");
            assert_eq!(errs, [true; 4], "depth {n}");
        }
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        // Very large integral values keep full precision via {:?}.
        let big = 1e18;
        let round = Json::parse(&Json::Num(big).to_string()).unwrap();
        assert_eq!(round.as_f64(), Some(big));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = match v.get("k") {
            Some(Json::Arr(a)) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("A\t"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} x",
            "\"unterminated",
            "nul",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn keeps_unicode_intact() {
        let v = Json::parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }
}
