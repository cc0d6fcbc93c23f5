//! The workspace's one JSON codec: [`json_escape`] on the write side,
//! [`Json`] on the read side, one inverting the other.
//!
//! The workspace is hermetic (zero registry dependencies), so there is
//! no serde. Every JSON text it reads is one it wrote: [`crate::log`]
//! replays the run manifest and the `npbd` job journal through it,
//! `npb-harness` reads the `npb --json` result line a child prints on
//! stdout, and `npb-service` parses its wire protocol with it. So the
//! parser only needs a small, strict subset of JSON: objects, arrays,
//! strings with the standard escapes, f64 numbers, booleans and null.
//! It still rejects malformed input loudly rather than guessing,
//! because a record torn by a mid-write crash must be detected (and
//! skipped) on replay.
//!
//! The write side is [`json_escape`] plus plain `format!` calls; keeping
//! the serializer trivial is what lets a record go down as one write.

use std::collections::BTreeMap;

/// Escape `s` for inclusion inside a JSON string literal.
///
/// This is the single JSON-string escaper of the workspace:
/// `BenchReport::to_json`, the run manifest, the `npbd` journal and wire
/// replies all write through it, and [`Json::parse`] inverts exactly
/// this escaping. Control characters use `\u00XX`, everything else
/// passes through as UTF-8.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String member of an object.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Numeric member of an object.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member of an object, as a non-negative integer no larger
    /// than [`MAX_EXACT_UINT`].
    pub fn get_uint(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_uint()
    }

    /// A number that is a non-negative integer no larger than
    /// [`MAX_EXACT_UINT`]: `None` for anything else, so no two integers
    /// read back as one value.
    pub fn as_uint(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT_UINT as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }
}

/// The largest integer [`Json::as_uint`] accepts, 2^53 − 1. Numbers are
/// read as `f64`, which above it no longer holds every integer:
/// `9007199254740993` reads as `9007199254740992`, so two seeds would
/// name one job, and `2^64` would saturate to `u64::MAX`.
pub const MAX_EXACT_UINT: u64 = (1 << 53) - 1;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
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
            let val = self.value()?;
            m.insert(key, val);
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
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
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
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs (😀): our own
                            // writer only \u-escapes control characters,
                            // but journals may be hand-edited or come
                            // from foreign tooling, and a reader that
                            // chokes on a standard escape would count a
                            // perfectly good record as torn. A *lone*
                            // surrogate is still malformed — that is the
                            // power-loss truncation shape `--resume`
                            // must detect, not decode.
                            let ch = if (0xD800..=0xDBFF).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err("high surrogate without low surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("high surrogate without \\u escape".to_string());
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate followed by non-low-surrogate {low:#06x}"
                                    ));
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar).expect("paired surrogates form a scalar")
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| format!("lone surrogate \\u{code:04x}"))?
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#04x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so this
                    // boundary arithmetic cannot split a code point).
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `bytes` came from a `&str`, and `pos` only ever
                    // advances by whole ASCII bytes or whole scalars.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Four hex digits of a `\uXXXX` escape (cursor past them on
    /// success). A truncation anywhere inside the digits — the shape a
    /// power loss mid-append leaves — is a loud error, so the torn line
    /// is skipped on resume rather than half-decoded.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = Json::parse(r#"{"name":"EP","mops":123.5,"ok":true,"n":0}"#).unwrap();
        assert_eq!(v.get_str("name"), Some("EP"));
        assert_eq!(v.get_num("mops"), Some(123.5));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get_uint("n"), Some(0));
    }

    /// Integers up to 2^53 − 1 read back exactly; above it two integers
    /// share one `f64`, so they and anything larger are refused.
    #[test]
    fn get_uint_refuses_integers_an_f64_cannot_hold() {
        let uint = |text: &str| Json::parse(&format!(r#"{{"n":{text}}}"#)).unwrap().get_uint("n");
        assert_eq!(uint("9007199254740991"), Some(MAX_EXACT_UINT));
        assert_eq!(uint("4503599627370495"), Some(4503599627370495));
        for text in ["9007199254740992", "9007199254740993", "18446744073709551616", "1e300"] {
            assert_eq!(uint(text), None, "{text}");
        }
        for text in ["-1", "0.5", "\"7\"", "null"] {
            assert_eq!(uint(text), None, "{text}");
        }
    }

    #[test]
    fn parses_nested_and_arrays() {
        let v = Json::parse(r#"{"a":[1,2,3],"b":{"c":null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(3.0)]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get_str("s"), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn roundtrips_the_writer_escaping() {
        // The reader must invert json_escape exactly.
        let nasty = "quote\" back\\ slash/ newline\n tab\t ctrl\u{1} high\u{7f} é ✓";
        let doc = format!("{{\"s\":\"{}\"}}", json_escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().get_str("s"), Some(nasty));
    }

    #[test]
    fn rejects_torn_lines() {
        // A crash mid-append leaves a prefix of a record; resume must
        // detect it rather than misread it.
        let full = r#"{"event":"cell","bench":"EP","outcome":"verified"}"#;
        for cut in 1..full.len() - 1 {
            assert!(Json::parse(&full[..cut]).is_err(), "prefix {cut} parsed");
        }
        assert!(Json::parse(full).is_ok());
    }

    #[test]
    fn decodes_surrogate_pairs_and_rejects_lone_surrogates() {
        // A foreign writer may escape astral-plane characters the
        // standard way; the reader must decode the pair, not tear.
        let v = Json::parse(r#"{"s":"\ud83d\ude00 ok"}"#).unwrap();
        assert_eq!(v.get_str("s"), Some("\u{1F600} ok"));
        // Lone surrogates in either order are malformed.
        assert!(Json::parse(r#"{"s":"\ud83d"}"#).is_err());
        assert!(Json::parse(r#"{"s":"\ud83d x"}"#).is_err());
        assert!(Json::parse(r#"{"s":"\ude00"}"#).is_err());
        assert!(Json::parse(r#"{"s":"\ud83dA"}"#).is_err());
    }

    #[test]
    fn truncation_inside_a_unicode_escape_is_torn_not_poisonous() {
        // The power-loss shape: the line ends mid-\uXXXX. Every prefix
        // must be a clean parse error (counted as a torn line on
        // resume), never a panic or a half-decoded string.
        let full = r#"{"s":"pre\u00e9\ud83d\ude00post"}"#;
        for cut in 1..full.len() - 1 {
            assert!(Json::parse(&full[..cut]).is_err(), "prefix {cut} parsed");
        }
        assert_eq!(Json::parse(full).unwrap().get_str("s"), Some("pre\u{e9}\u{1F600}post"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(Json::parse(r#"{"a":1} x"#).is_err());
        assert!(Json::parse(r#"{"a":-}"#).is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn numbers_parse_with_exponents() {
        let v = Json::parse(r#"{"t":1.5e-3,"u":-2E2}"#).unwrap();
        assert_eq!(v.get_num("t"), Some(0.0015));
        assert_eq!(v.get_num("u"), Some(-200.0));
    }

    #[test]
    fn json_escape_handles_every_class() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("nl\n cr\r tab\t"), "nl\\n cr\\r tab\\t");
        assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(json_escape("é ✓"), "é ✓");
        // Escaping is idempotent-safe under composition: escaping the
        // escaped form escapes the introduced backslashes, not more.
        assert_eq!(json_escape("\\n"), "\\\\n");
    }
}
