//! The workspace's one JSON codec: [`json_string`] escapes strings for
//! the hand-written writers (numbers use Rust's shortest round-trip
//! formatting), and [`parse`] reads documents back. Numbers keep their
//! raw source text ([`Json::Num`]), so 64-bit integers such as derived
//! seeds survive without a lossy trip through `f64`.
//!
//! # Example
//!
//! ```
//! use arsf_core::json::{self, json_string, Json};
//!
//! let doc = format!("{{\"name\":{},\"seed\":13973414790076738073}}", json_string("a\"b"));
//! let value = json::parse(&doc).unwrap();
//! assert_eq!(value.field("name").unwrap().as_str("name").unwrap(), "a\"b");
//! assert_eq!(value.field("seed").unwrap().as_u64("seed").unwrap(), 13973414790076738073);
//! assert_eq!(value.field("missing").unwrap_err(), "missing field `missing`");
//! assert!(matches!(json::parse("[1, null]").unwrap(), Json::Arr(_)));
//! ```

/// Renders `raw` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
pub fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    push_json_string(&mut out, raw);
    out
}

/// Appends `raw` to `out` as a quoted JSON string ([`json_string`]
/// without the intermediate allocation).
pub fn push_json_string(out: &mut String, raw: &str) {
    out.push('"');
    for c in raw.chars() {
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
    out.push('"');
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` in an object.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.as_object(key)?
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The fields of an object, in source order. Like every `as_*`
    /// accessor, it fails with a message naming `what` on another type.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(type_error(what, "an object", other)),
        }
    }

    /// The items of an array.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error(what, "an array", other)),
        }
    }

    /// The contents of a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error(what, "a string", other)),
        }
    }

    /// A number read exactly as a `u64` (no trip through `f64`).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a u64")),
            other => Err(type_error(what, "an integer", other)),
        }
    }

    /// A number as an `f64`, or `None` for `null`.
    pub fn as_nullable_f64(&self, what: &str) -> Result<Option<f64>, String> {
        match self {
            Json::Null => Ok(None),
            Json::Num(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("{what}: `{raw}` is not a number")),
            other => Err(type_error(what, "a number or null", other)),
        }
    }
}

fn type_error(what: &str, expected: &str, got: &Json) -> String {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    format!("{what}: expected {expected}, got {kind}")
}

/// Parses one complete JSON document (surrounding whitespace allowed,
/// trailing input rejected).
///
/// # Errors
///
/// Returns a message naming the offending byte offset.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos = end;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw =
            core::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if raw.is_empty() || raw == "-" || raw.parse::<f64>().is_err() {
            return Err(format!("invalid number `{raw}` at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_parse_back() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let raw = "tab\there \u{1} \"q\" \\";
        assert_eq!(
            parse(&json_string(raw)).unwrap(),
            Json::Str(raw.to_string())
        );
    }

    #[test]
    fn accessors_name_the_field_on_a_type_error() {
        let doc = parse(r#"{"a": [1, 2.5e-3, null], "b": "x", "c": true}"#).unwrap();
        let items = doc.field("a").unwrap().as_array("a").unwrap();
        assert_eq!(items[0].as_u64("a[0]").unwrap(), 1);
        assert_eq!(items[1].as_nullable_f64("a[1]").unwrap(), Some(2.5e-3));
        assert_eq!(items[2].as_nullable_f64("a[2]").unwrap(), None);
        assert!(items[1].as_u64("a[1]").unwrap_err().contains("a[1]"));
        let err = doc.field("c").unwrap().as_str("c").unwrap_err();
        assert_eq!(err, "c: expected a string, got a bool");
        let err = doc.field("b").unwrap().field("x").unwrap_err();
        assert_eq!(err, "x: expected an object, got a string");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "-", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
