//! Minimal flat-JSON codec for the store's own metadata records.
//!
//! The meta section and ingest state files are tiny flat objects with a
//! fixed, store-controlled schema; encoding them by hand keeps the store
//! core dependency-free (std only), which in turn lets the whole
//! pack/verify/load pipeline be exercised without any external crate. The
//! output is ordinary JSON, so external tools (and the service, which does
//! use `serde_json`) read it fine.

use std::fmt::Write as _;

/// Incrementally build a one-level JSON object.
pub(crate) struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    pub(crate) fn new() -> ObjWriter {
        ObjWriter {
            buf: "{".to_string(),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{key}\":");
    }

    pub(crate) fn str_field(&mut self, key: &str, val: &str) {
        self.key(key);
        self.buf.push('"');
        for c in val.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    pub(crate) fn u64_field(&mut self, key: &str, val: u64) {
        self.key(key);
        let _ = write!(self.buf, "{val}");
    }

    pub(crate) fn bool_field(&mut self, key: &str, val: bool) {
        self.key(key);
        self.buf.push_str(if val { "true" } else { "false" });
    }

    pub(crate) fn f64_field(&mut self, key: &str, val: f64) {
        self.key(key);
        // `{:?}` prints round-trippable f64 (always with a decimal point
        // or exponent), which is valid JSON for finite values.
        let _ = write!(self.buf, "{val:?}");
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Locate the raw value token for `key` in a flat JSON object. Returns the
/// token with surrounding whitespace trimmed (strings keep their quotes).
fn raw_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut search_from = 0;
    loop {
        let at = json[search_from..].find(&needle)? + search_from;
        let after = &json[at + needle.len()..];
        let trimmed = after.trim_start();
        if let Some(rest) = trimmed.strip_prefix(':') {
            let rest = rest.trim_start();
            if rest.starts_with('"') {
                // Scan to the closing unescaped quote.
                let bytes = rest.as_bytes();
                let mut i = 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => return Some(&rest[..=i]),
                        _ => i += 1,
                    }
                }
                return None;
            }
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            return Some(rest[..end].trim_end());
        }
        // The needle matched inside a string value; keep looking.
        search_from = at + needle.len();
    }
}

/// Read a string field; `None` when absent or not a string.
pub(crate) fn str_field(json: &str, key: &str) -> Option<String> {
    let raw = raw_value(json, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Read an unsigned integer field; `None` when absent or malformed.
pub(crate) fn u64_field(json: &str, key: &str) -> Option<u64> {
    raw_value(json, key)?.parse().ok()
}

/// Read a boolean field; `None` when absent or malformed.
pub(crate) fn bool_field(json: &str, key: &str) -> Option<bool> {
    match raw_value(json, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Read a float field; `None` when absent or malformed.
pub(crate) fn f64_field(json: &str, key: &str) -> Option<f64> {
    raw_value(json, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_type() {
        let mut w = ObjWriter::new();
        w.str_field("class", "powerlaw");
        w.str_field("escaped", "a\"b\\c\nd");
        w.u64_field("count", u64::MAX);
        w.bool_field("directed", true);
        w.f64_field("smoothing", 2.5);
        w.f64_field("whole", 3.0);
        let json = w.finish();
        assert_eq!(str_field(&json, "class").as_deref(), Some("powerlaw"));
        assert_eq!(str_field(&json, "escaped").as_deref(), Some("a\"b\\c\nd"));
        assert_eq!(u64_field(&json, "count"), Some(u64::MAX));
        assert_eq!(bool_field(&json, "directed"), Some(true));
        assert_eq!(f64_field(&json, "smoothing"), Some(2.5));
        assert_eq!(f64_field(&json, "whole"), Some(3.0));
        assert_eq!(str_field(&json, "missing"), None);
    }

    #[test]
    fn tolerates_whitespace_and_key_lookalikes_in_strings() {
        let json = r#"{ "a" : "x" , "trap": "\"b\": 9", "b" : 7 }"#;
        assert_eq!(str_field(json, "a").as_deref(), Some("x"));
        assert_eq!(u64_field(json, "b"), Some(7));
    }

    #[test]
    fn whole_floats_stay_json_numbers() {
        let mut w = ObjWriter::new();
        w.f64_field("x", 3.0);
        let json = w.finish();
        assert_eq!(json, "{\"x\":3.0}");
    }
}
