//! A minimal JSON parser for the HTTP request bodies.
//!
//! The daemon is deliberately dependency-free, so the `/v1/*` API
//! parses its request bodies with this ~150-line recursive-descent
//! parser instead of pulling in serde. It accepts standard JSON
//! (RFC 8259): objects, arrays, strings with escapes (including
//! `\uXXXX` with surrogate pairs), numbers, booleans, null. Depth is
//! capped so a hostile body cannot blow the stack; the HTTP layer caps
//! body size before parsing.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; the API's integers are all small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as i64, when this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A human-readable message with a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.b.get(self.i) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:?} at {}", self.i)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(
            self.b.get(self.i),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.b.get(self.i), Some(&b'"'));
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.b.get(self.i + 1) == Some(&b'\\')
                                    && self.b.get(self.i + 2) == Some(&b'u')
                                {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                                } else {
                                    return Err("lone high surrogate".to_owned());
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("unescaped control byte at {}", self.i));
                    }
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i + 1..self.i + 5)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.i += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.i += 1; // [
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value(depth + 1)?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.i += 1; // {
        let mut out = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", self.i));
            }
            let key = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.i));
            }
            self.i += 1;
            self.ws();
            out.insert(key, self.value(depth + 1)?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_api_shapes() {
        let v = parse(
            r#"{"kernel":"gemm","n":64,"effort":2,"threads":4,
                "priority":"interactive","client":"alice","id":"x-1"}"#,
        )
        .unwrap();
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("gemm"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(64));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("missing"), None);

        let v = parse(r#"{"spaces":["[n] -> { [i] : 0 <= i < n }","{ [i] : i = 0 }"]}"#).unwrap();
        let spaces = v.get("spaces").and_then(Json::as_arr).unwrap();
        assert_eq!(spaces.len(), 2);
        assert_eq!(spaces[1].as_str(), Some("{ [i] : i = 0 }"));
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = parse(r#"{"s":"a\"b\\c\ndA😀"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA😀"));
        // What the daemon's replies escape with, its parser reads back.
        let mut out = String::new();
        telemetry::log::escape_into("x\"y\\z\n\u{1}", &mut out);
        assert_eq!(
            parse(&format!("\"{out}\"")).unwrap().as_str(),
            Some("x\"y\\z\n\u{1}")
        );
    }

    #[test]
    fn numbers_booleans_null_arrays() {
        assert_eq!(parse("[1, -2.5, 1e3, true, false, null]").unwrap(), {
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Num(1000.0),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
            ])
        });
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_i64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "\"unterminated",
            "tru",
            "01x",
            "{\"a\":1} extra",
            "\"bad \\q escape\"",
            "\"ctrl \u{1} byte\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth cap.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
