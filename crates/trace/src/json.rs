//! Minimal hand-rolled JSON emission. No serde: the workspace builds with
//! zero registry dependencies, and the handful of shapes we serialize
//! (event lines, metric snapshots, result tables) don't justify one.

use std::fmt::Write;

/// Append `s` to `out` as the *contents* of a JSON string (no surrounding
/// quotes), escaping per RFC 8259.
pub fn push_escaped(out: &mut String, s: &str) {
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
}

/// Append `v` in decimal. The digits are built in a stack buffer and
/// appended once: no `fmt::Arguments`, which is most of what a `write!`
/// of an integer costs, and an event line is mostly integers — half of
/// them (switch, port, priority, most flow ids) below 100, which skip
/// the buffer.
pub fn push_u64(out: &mut String, mut v: u64) {
    let digit = |d: u64| (b'0' + d as u8) as char;
    if v < 100 {
        if v >= 10 {
            out.push(digit(v / 10));
        }
        out.push(digit(v % 10));
        return;
    }
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    while v > 0 {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend(buf[start..].iter().map(|&d| d as char));
}

/// Append `v` as a JSON number. Rust's `Display` for finite `f64` is the
/// shortest decimal that round-trips — deterministic and valid JSON.
/// Non-finite values have no JSON representation and become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A single-line JSON object builder with `self`-consuming chaining:
///
/// ```
/// use dcn_trace::JsonObject;
/// let line = JsonObject::new().u64("at", 7).str("ev", "drop").finish();
/// assert_eq!(line, r#"{"at":7,"ev":"drop"}"#);
/// ```
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        push_escaped(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        push_u64(&mut self.buf, v);
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        push_escaped(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Insert pre-serialized JSON (an array or nested object) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_nonfinite_is_null() {
        let mut s = String::new();
        push_f64(&mut s, 0.0625);
        assert_eq!(s, "0.0625");
        s.clear();
        push_f64(&mut s, 2.0);
        assert_eq!(s, "2");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn object_builder_chains_fields_in_order() {
        let line = JsonObject::new()
            .u64("a", 1)
            .str("b", "x\"y")
            .bool("c", false)
            .f64("d", 0.5)
            .raw("e", "[1,2]")
            .finish();
        assert_eq!(line, r#"{"a":1,"b":"x\"y","c":false,"d":0.5,"e":[1,2]}"#);
    }

    #[test]
    fn empty_object_is_braces() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
