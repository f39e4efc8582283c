//! A minimal JSON value, parser, and writer.
//!
//! The workspace builds fully offline with no serialization dependency,
//! so the serving layer carries its own JSON: a recursive-descent parser
//! with a depth bound (a network peer must not be able to blow the stack
//! with `[[[[…`), and a deterministic writer (object keys keep insertion
//! order, so protocol frames are stable across runs and easy to diff in
//! tests). Only what the wire protocol needs is implemented — no
//! streaming, no arbitrary-precision numbers.
//!
//! The daemon answers most requests from its caches, so encoding and
//! decoding a frame is most of a request's cost, and the codec avoids
//! work the frame does not need:
//!
//! * **Keys.** Object keys are `Cow<'static, str>`. Frames built with
//!   [`obj`] name their keys with string literals, and the parser borrows
//!   any key it finds in `KEYS`, the protocol's own keys, instead of
//!   allocating it; a hash index built from that table at compile time
//!   finds a key in one or two probes. Only a key outside the table is
//!   owned.
//! * **Writing.** Integers are written with a digit loop, and each run of
//!   string bytes that needs no escape is copied in one step.
//!   [`Json::write_line`] appends a frame straight to a byte buffer such
//!   as a connection's output buffer, so a reply is encoded once, where it
//!   is sent from.
//!
//! The bytes on the wire are the same as those of a writer built on
//! `write!`: `json::tests` keeps such a reference writer and compares the
//! two on generated values.

use std::borrow::Cow;
use std::io::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// Every object key the wire protocol uses, in requests and replies: a
/// `prove` request's keys first, then a `prove` reply's, then the rest.
/// The parser borrows these instead of allocating them; a key not listed
/// here still parses, into an owned string.
const KEYS: &[&str] = &[
    "verb",
    "id",
    "session",
    "a",
    "b",
    "kind",
    "origin",
    "proof",
    "fuel",
    "deadline_ms",
    "max_dfa_states",
    "engines",
    "axioms",
    "queries",
    "jobs",
    "program",
    "proc",
    "name",
    "changed_only",
    "ok",
    "error",
    "message",
    "proto_version",
    "result",
    "answer",
    "reason",
    "degraded",
    "engine",
    "witness",
    "stats",
    "goals_attempted",
    "cache_hits",
    "shared_hits",
    "subset_checks",
    "dispatch_hits",
    "dispatch_misses",
    "neg_memo_hits",
    "cutoffs",
    "depth",
    "rewrites",
    "deadline",
    "regex_budget",
    "cancelled",
    "dfas",
    "uses",
    "wins",
    "cache",
    "count",
    "maybe",
    "opens",
    "procs",
    "query",
    "ready",
    "table",
    "verbs",
    "closed",
    "losses",
    "memory",
    "p50_us",
    "p90_us",
    "p99_us",
    "reused",
    "server",
    "deduped",
    "enabled",
    "evicted",
    "healthy",
    "latency",
    "mean_us",
    "refuter",
    "restore",
    "results",
    "symbols",
    "workers",
    "draining",
    "min_dfas",
    "replayed",
    "reproved",
    "sessions",
    "snapshot",
    "stopping",
    "any_maybe",
    "axiomatic",
    "portfolio",
    "uptime_ms",
    "witnesses",
    "request_us",
    "arena_bytes",
    "arena_nodes",
    "peak_rss_kb",
    "queue_depth",
    "arena_scopes",
    "errors_total",
    "failed_goals",
    "last_restore",
    "procs_reused",
    "proved_goals",
    "symbol_bytes",
    "write_errors",
    "writes_total",
    "dropped_procs",
    "queries_total",
    "queue_wait_us",
    "read_timeouts",
    "total_queries",
    "requests_total",
    "restored_bytes",
    "restored_goals",
    "subset_results",
    "max_connections",
    "restored_tables",
    "snapshot_age_ms",
    "analyze_replayed",
    "analyze_reproved",
    "corrupt_sections",
    "dropped_verdicts",
    "last_write_bytes",
    "restored_subsets",
    "arena_freed_total",
    "connections_total",
    "overload_refusals",
    "restored_sessions",
    "arena_pinned_nodes",
    "connections_active",
    "disconnect_cancels",
    "connection_refusals",
];

/// Slots of [`KEY_INDEX`]: a power of two, at least twice [`KEYS`]'s length.
const KEY_SLOTS: usize = 512;

/// A cheap hash of a key's length and its first, middle and last bytes.
/// Collisions cost a probe, never a wrong answer.
const fn key_hash(key: &[u8]) -> usize {
    let n = key.len();
    let mix =
        n as u64 | (key[0] as u64) << 8 | (key[n / 2] as u64) << 16 | (key[n - 1] as u64) << 24;
    (mix.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize % KEY_SLOTS
}

/// [`KEYS`] by [`key_hash`], built at compile time with linear probing:
/// each slot holds a key's position in [`KEYS`] plus one, or 0 when empty.
static KEY_INDEX: [u8; KEY_SLOTS] = {
    assert!(KEYS.len() < 256 && 2 * KEYS.len() <= KEY_SLOTS);
    let mut index = [0u8; KEY_SLOTS];
    let mut i = 0;
    while i < KEYS.len() {
        let mut slot = key_hash(KEYS[i].as_bytes());
        while index[slot] != 0 {
            slot = (slot + 1) % KEY_SLOTS;
        }
        index[slot] = (i + 1) as u8;
        i += 1;
    }
    index
};

/// The [`KEYS`] entry spelled by `key`, if there is one.
fn protocol_key(key: &[u8]) -> Option<&'static str> {
    if key.is_empty() {
        return None;
    }
    let mut slot = key_hash(key);
    loop {
        let entry = KEYS.get(usize::from(KEY_INDEX[slot]).checked_sub(1)?)?;
        if entry.as_bytes() == key {
            return Some(entry);
        }
        slot = (slot + 1) % KEY_SLOTS;
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (IEEE double, like real-world JSON).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The number as a non-negative integer, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact JSON text (one line, no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_into(&mut out);
        // The writer copies whole strings and adds ASCII only, so the
        // bytes are UTF-8; the lossy arm never runs.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Appends the value's compact JSON text and a newline to `out`: one
    /// wire frame, encoded where it is sent from.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        self.write_into(out);
        out.push(b'\n');
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_into(out);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(k, out);
                    out.push(b':');
                    v.write_into(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Builds an object from key/value pairs (used by the protocol layer).
/// Keys are string literals, so building a frame allocates no key.
pub fn obj(pairs: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (Cow::Borrowed(k), v))
            .collect(),
    )
}

fn write_num(n: f64, out: &mut Vec<u8>) {
    if !n.is_finite() {
        out.extend_from_slice(b"null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        write_int(n as i64, out);
    } else {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "{n}");
    }
}

/// Writes `n` in decimal, as `{}` formatting does.
fn write_int(n: i64, out: &mut Vec<u8>) {
    if n < 0 {
        out.push(b'-');
    }
    let mut rest = n.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Bytes a JSON string must escape: quotes, backslashes, control bytes.
static ESCAPED: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Writes `s` as a JSON string: quotes, backslashes and control bytes are
/// escaped, and each run of bytes between them is copied in one step.
/// Multi-byte characters never contain those bytes, so they copy as is.
fn write_str(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s.as_bytes();
    out.push(b'"');
    while let Some(at) = rest.iter().position(|&b| ESCAPED[usize::from(b)]) {
        out.extend_from_slice(&rest[..at]);
        let b = rest[at];
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value from `text`; trailing non-whitespace is an
/// error (a frame is exactly one value).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending byte offset.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.key()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    /// An object key: the [`KEYS`] entry it spells, borrowed, or else an
    /// owned string. A key with no escape is looked up straight from the
    /// input; an escaped one (`"o\u006b"`) is decoded first, so it finds
    /// its entry all the same.
    fn key(&mut self) -> Result<Cow<'static, str>, JsonError> {
        let rest = &self.bytes[self.pos + 1..];
        if let Some(end) = rest.iter().position(|&b| ESCAPED[usize::from(b)]) {
            if rest[end] == b'"' {
                if let Some(known) = protocol_key(&rest[..end]) {
                    self.pos += end + 2;
                    return Ok(Cow::Borrowed(known));
                }
            }
        }
        let key = self.string()?;
        Ok(match protocol_key(key.as_bytes()) {
            Some(known) => Cow::Borrowed(known),
            None => Cow::Owned(key),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one step. Those bytes are
            // ASCII, so the run ends on a character boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| ESCAPED[usize::from(b)])
                .unwrap_or(rest.len());
            match std::str::from_utf8(&rest[..run]) {
                Ok(plain) => out.push_str(plain),
                Err(_) => return Err(self.err("invalid UTF-8")),
            }
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos after the last digit; the
                            // shared `pos += 1` below would skip a char.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_frames() {
        let frame = obj(vec![
            ("verb", "prove".into()),
            ("a", "L.L.N".into()),
            ("fuel", Json::Num(100000.0)),
            ("deadline", Json::Null),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
        ]);
        let text = frame.render();
        assert_eq!(
            text,
            r#"{"verb":"prove","a":"L.L.N","fuel":100000,"deadline":null,"flags":[true,false]}"#
        );
        assert_eq!(parse(&text).unwrap(), frame);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::Str("a\"b\\c\nd\tπ\u{1}".to_owned());
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        // Unicode escapes, including a surrogate pair.
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            r#"{"a" 1}"#,
            r#"{"a":1} extra"#,
            "\"unterminated",
            r#""\ud800x""#,
            "{\"k\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bomb: must error, not overflow the stack.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn string_errors_name_the_offending_byte() {
        for (bad, offset, message) in [
            ("\"ab\u{1}c\"", 3, "unescaped control character"),
            ("\"é\tx\"", 3, "unescaped control character"),
            ("\"abc", 4, "unterminated string"),
            ("\"é😀", 7, "unterminated string"),
            (r#""a\qb""#, 3, "invalid escape"),
            (r#""a\u12x4""#, 6, "expected four hex digits"),
            (r#""\ud800x""#, 7, "lone high surrogate"),
            (r#"{"k":"v","é":"w\"#, 17, "invalid escape"),
            (r#"{"k":"v","é":"w"#, 16, "unterminated string"),
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A frame carrying a string over 1 MiB, with multi-byte characters
        // and escapes between its plain runs. Parsing used to re-validate
        // the rest of the input for every character copied: tens of
        // seconds at this size.
        let body = "plain é😀 \"quoted\"\n\t\\ ".repeat(45_000);
        assert!(body.len() > 1 << 20);
        let text = obj(vec![
            ("verb", "report".into()),
            ("program", body.as_str().into()),
        ])
        .render();
        let started = std::time::Instant::now();
        let frame = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            frame.get("program").and_then(Json::as_str),
            Some(body.as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "a {} byte frame took {elapsed:?} to parse",
            text.len()
        );
    }

    #[test]
    fn numbers_and_accessors() {
        let v = parse(r#"{"n": 42, "f": 1.5, "neg": -3, "big": 1e3}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("big").unwrap().as_u64(), Some(1000));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escaped_protocol_keys_are_still_found() {
        let v = parse(r#"{"o\u006b":true,"\u0069d":7,"custom":1}"#).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("custom").and_then(Json::as_u64), Some(1));
        let Json::Obj(pairs) = &v else {
            panic!("an object");
        };
        assert!(matches!(pairs[0].0, Cow::Borrowed("ok")));
        assert!(matches!(pairs[1].0, Cow::Borrowed("id")));
        assert!(matches!(&pairs[2].0, Cow::Owned(k) if k == "custom"));
    }

    #[test]
    fn the_key_index_finds_every_key_and_nothing_else() {
        for (i, key) in KEYS.iter().enumerate() {
            assert!(!KEYS[..i].contains(key), "{key} listed twice");
            assert_eq!(protocol_key(key.as_bytes()), Some(*key));
        }
        for unknown in ["", "o", "okk", "verbs_", "connection_refusalz", "sessionn"] {
            assert_eq!(protocol_key(unknown.as_bytes()), None, "{unknown}");
        }
    }

    /// The writer this module had before its digit loop and run copies,
    /// on `write!` and one `push` per character: the bytes on the wire
    /// must not change.
    mod reference {
        use super::super::Json;
        use std::fmt::Write as _;

        pub fn render(v: &Json) -> String {
            let mut out = String::new();
            write_into(v, &mut out);
            out
        }

        fn write_into(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Num(n) => write_num(*n, out),
                Json::Str(s) => write_str(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_into(item, out);
                    }
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_str(k, out);
                        out.push(':');
                        write_into(v, out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_num(n: f64, out: &mut String) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }

        fn write_str(s: &str, out: &mut String) {
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
    }

    /// A seeded xorshift generator of JSON values for the property test.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn string(&mut self) -> String {
            const PIECES: &[&str] = &[
                "L",
                "R.N",
                "verb",
                "ok",
                " ",
                "\"",
                "\\",
                "/",
                "\n",
                "\r",
                "\t",
                "\u{0}",
                "\u{1}",
                "\u{8}",
                "\u{c}",
                "\u{1f}",
                "\u{7f}",
                "é",
                "π",
                "😀",
                "\u{2028}",
                "plain text run ",
            ];
            (0..self.below(6))
                .map(|_| PIECES[self.below(PIECES.len())])
                .collect()
        }

        fn number(&mut self) -> f64 {
            const EDGES: &[f64] = &[
                0.0,
                -0.0,
                1.0,
                -1.0,
                9_007_199_254_740_992.0,
                -9_007_199_254_740_992.0,
                8_999_999_999_999_999.0,
                -8_999_999_999_999_999.0,
                9e15,
                -9e15,
                999_999_999_999_999.0,
                1_000_000_000_000_000.0,
                0.5,
                -1.25,
                1e-7,
                123_456.789,
                1e300,
                f64::MAX,
                f64::MIN_POSITIVE,
            ];
            match self.below(4) {
                0 => EDGES[self.below(EDGES.len())],
                1 => (self.next() >> self.below(64)) as f64,
                2 => -((self.next() >> (11 + self.below(53))) as f64),
                _ => (self.next() >> 11) as f64 / (1u64 << self.below(53)) as f64,
            }
        }

        fn value(&mut self, depth: usize) -> Json {
            match self.below(if depth >= 4 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.next() & 1 == 1),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => Json::Arr((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(5))
                        .map(|_| {
                            let key = if self.next() & 1 == 0 {
                                Cow::Borrowed(KEYS[self.below(KEYS.len())])
                            } else {
                                Cow::Owned(self.string())
                            };
                            (key, self.value(depth + 1))
                        })
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn generated_values_match_the_reference_writer_and_round_trip() {
        let mut gen = Gen(0x9e37_79b9_7f4a_7c15);
        for _ in 0..4000 {
            let value = gen.value(0);
            let text = value.render();
            assert_eq!(text, reference::render(&value));
            assert_eq!(parse(&text).as_ref(), Ok(&value), "{text}");
            let mut line = b"kept ".to_vec();
            value.write_line(&mut line);
            assert_eq!(line, format!("kept {text}\n").into_bytes());
        }
        // Not finite: written as null, like the reference.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).render(), "null");
            assert_eq!(reference::render(&Json::Num(n)), "null");
        }
    }
}
