//! Minimal JSON value type, writer, and parser.
//!
//! The experiment binaries dump machine-readable results bundles and
//! the figure types round-trip through JSON in tests. The build
//! environment is offline, so instead of serde_json this module
//! provides a small self-contained implementation: a [`Json`] tree,
//! `Display`-based emission (with a pretty-printer), and a
//! recursive-descent parser. Numbers are `f64`; emission uses Rust's
//! shortest-roundtrip float formatting, so `f64` values survive a
//! parse/emit cycle exactly.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) for deterministic output.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        format!("{self}")
    }

    /// Indented multi-line rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Json::Obj(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    out.push_str(&format!("{}: ", Escaped(k)));
                    v.write_pretty(out, depth + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => out.push_str(&other.to_string_compact()),
        }
    }

    /// Parse a JSON document. Returns a message with the byte offset on
    /// malformed input (the rendering of [`JsonError`]; use
    /// [`Json::parse_checked`] to branch on the offset itself).
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_checked(text).map_err(|e| e.to_string())
    }

    /// Parse a JSON document, reporting malformed input as a typed
    /// [`JsonError`] carrying the byte offset. Nesting deeper than
    /// [`MAX_DEPTH`] levels is rejected (offset at the opening
    /// bracket), so adversarial input cannot overflow the parser's
    /// recursion stack.
    pub fn parse_checked(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

/// Maximum container nesting the parser accepts. The parser is
/// recursive-descent, so unbounded `[[[[…` input would otherwise turn
/// into unbounded stack growth; 128 levels is far beyond anything the
/// experiment bundles emit while keeping worst-case stack use trivial.
pub const MAX_DEPTH: usize = 128;

/// A malformed JSON document: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What the parser expected or found (without the offset).
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; emit null like serde_json.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write!(f, "{}", Escaped(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Escaped(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_fmt(format_args!("{c}"))?,
            }
        }
        f.write_str("\"")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Enter one container level, refusing input nested past
    /// [`MAX_DEPTH`] (called with `pos` still at the opening bracket,
    /// so the error points at it).
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let Some(esc) = rest.get(1).copied() else {
                        return Err(self.err("dangling escape"));
                    };
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
                                return Err(self.err("truncated \\u escape"));
                            };
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar, sized by its leading
                    // byte. Validating only those bytes keeps the scan
                    // linear in document size; the input came in as a
                    // `&str`, so the error arm is only a backstop.
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => 0,
                    };
                    let c = rest
                        .get(..width)
                        .and_then(|bytes| std::str::from_utf8(bytes).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += width;
                }
            }
        }
    }

    /// Consume a run of ASCII digits, returning how many were taken.
    fn digit_run(&mut self) -> usize {
        let mut n = 0;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            n += 1;
        }
        n
    }

    /// Scan one number following the JSON grammar
    /// (`-? digits ('.' digits)? ([eE] [+-]? digits)?`), stopping at
    /// the first byte that cannot extend a valid number. The previous
    /// scanner greedily consumed any of `-+.eE` anywhere, so malformed
    /// tokens like `1-2` were swallowed whole and misreported as one
    /// bad number instead of being rejected at the offending byte.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digit_run() == 0 {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(self.err("expected digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(self.err("expected digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: format!("bad number '{text}'"),
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                Some(b',') => self.pos += 1,
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "0", "-1.5", "1e10", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -0.0, 123456789.123456] {
            let v = Json::Num(x);
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\ back ünïcødé \u{1}";
        let v = Json::Str(s.into());
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn multibyte_strings_next_to_escapes_roundtrip() {
        // Two- to four-byte scalars, each directly before and after an
        // escape, in keys and values, through the pretty printer.
        let s = "é\n€\t🦀\"é\\🦀\u{1}€";
        let v = Json::obj([
            ("é\"€", Json::Str(s.into())),
            (
                "🦀",
                Json::Arr(vec![Json::Str("\n🦀\n".into()), Json::Str("€".into())]),
            ),
        ]);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        // Every scalar kept its bytes, not only its count.
        let back = Json::parse(&Json::Str(s.into()).to_string_compact()).unwrap();
        assert_eq!(back.as_str().unwrap().as_bytes(), s.as_bytes());
        // A string cut inside the document still reports where it ended.
        let cut = "\"é€🦀";
        assert_eq!(
            Json::parse_checked(cut).unwrap_err(),
            JsonError {
                offset: cut.len(),
                message: "unterminated string".into()
            }
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::obj([
            ("name", Json::Str("fig".into())),
            (
                "points",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("a".into()), Json::Num(1.0)]),
                    Json::Arr(vec![Json::Str("b".into()), Json::Num(2.5)]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(Default::default())),
        ]);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "[] []"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn malformed_numbers_fail_at_the_first_invalid_byte() {
        // The old scanner greedily consumed any of `-+.eE`, so tokens
        // like "1-2" were swallowed whole. Each case pins the exact
        // error message and byte offset the grammar-driven scanner
        // reports.
        for (bad, err) in [
            ("1-2", "trailing data at byte 1"),
            ("[1-2]", "expected ',' or ']' at byte 2"),
            ("1e+", "expected digit at byte 3"),
            ("1e", "expected digit at byte 2"),
            ("1.", "expected digit at byte 2"),
            ("-", "expected digit at byte 1"),
            ("1..2", "expected digit at byte 2"),
            ("1e5e5", "trailing data at byte 3"),
            ("1.2.3", "trailing data at byte 3"),
            ("[1, 2e+]", "expected digit at byte 7"),
            ("{\"a\": 3.}", "expected digit at byte 8"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), err, "input {bad:?}");
        }
    }

    #[test]
    fn well_formed_numbers_still_parse() {
        let cases: [(&str, f64); 6] = [
            ("1e+5", 1e5),
            ("1E-3", 1e-3),
            ("-0.5e2", -50.0),
            ("0.25", 0.25),
            ("-0", -0.0),
            ("12e00", 12.0),
        ];
        for (text, want) in cases {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn random_finite_floats_roundtrip_bit_exactly() {
        // Poor-man's fuzz: pump the deterministic SplitMix64 stream
        // through f64::from_bits and demand print → parse be the
        // identity on every finite value.
        let mut rng = rda_simcore::rng::SplitMix64::new(0x4a50_4e55_4d42_5251);
        let mut checked = 0u32;
        while checked < 2_000 {
            let x = f64::from_bits(rng.next_u64());
            if !x.is_finite() {
                continue;
            }
            let back = Json::parse(&Json::Num(x).to_string_compact()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x:e}");
            checked += 1;
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // At the limit: parses fine, both containers.
        let arrays = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&arrays).is_ok());
        let objects = format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        );
        assert!(Json::parse(&objects).is_ok());

        // One past the limit: typed error pointing at the offending
        // opening bracket.
        let too_deep = format!("{}0{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse_checked(&too_deep).expect_err("must reject");
        assert_eq!(err.offset, MAX_DEPTH, "offset of the 129th '['");
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );

        // Adversarial megabyte of open brackets: rejected at the depth
        // guard, never a megabyte of recursion.
        let bomb = "[".repeat(1_000_000);
        let err = Json::parse_checked(&bomb).expect_err("must reject");
        assert_eq!(err.offset, MAX_DEPTH);
        // Mixed nesting counts both container kinds: 65 of each is 130
        // levels, past the limit.
        let mixed = "[{\"a\":".repeat(65) + "0";
        let err = Json::parse_checked(&mixed).expect_err("must reject");
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
    }

    #[test]
    fn parse_checked_reports_offsets_typed() {
        let err = Json::parse_checked("[1, 2e+]").expect_err("bad number");
        assert_eq!((err.offset, err.message.as_str()), (7, "expected digit"));
        // The legacy string API renders the same error.
        assert_eq!(Json::parse("[1, 2e+]").unwrap_err(), err.to_string());
        // Errors are std::error::Error, so they compose with `?`.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("at byte 7"));
    }

    #[test]
    fn whitespace_is_insignificant() {
        let a = Json::parse("{\"a\": [1, 2,\n\t3]}").unwrap();
        let b = Json::parse("{\"a\":[1,2,3]}").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string_compact(), "{\"a\":2,\"z\":1}");
    }
}
