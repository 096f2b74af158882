//! JSON syntax for every document the workspace writes by hand. The
//! crate is std-only, so this is a writer, not a serializer: [`object`]
//! hands a closure an [`Object`] whose members appear in call order, and
//! the writer places every quote, colon and comma. Strings are escaped
//! per RFC 8259, byte for byte as the vendored `serde_json` escapes
//! them; non-finite floats degrade to `null`.

use std::fmt::{self, Write};

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape(out, s);
    out.push('"');
}

/// Whether a byte must be escaped. All such bytes are ASCII, so each
/// sits on a `char` boundary.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` escaped, copying the runs between escapes whole.
fn escape(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate().filter(|&(_, b)| needs_escape(b)) {
        out.push_str(&s[clean..i]);
        clean = i + 1;
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{:04x}", b),
        };
    }
    out.push_str(&s[clean..]);
}

/// Appends `v` as a JSON number, or `null` when non-finite. Rust's
/// shortest-roundtrip `Display` for `f64` never emits an exponent or
/// a bare trailing dot, and renders integral floats without a
/// fractional part (`123`), so the rendering is itself valid JSON.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A value the writer can put after a key or into an array.
pub trait Encode {
    /// Appends the value's JSON text.
    fn encode(&self, out: &mut String);
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! encode_integers {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

encode_integers!(u8, u16, u32, u64, usize, i64);

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
}

/// A slice is an array of its elements.
impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut String) {
        array(out, |a| self.iter().for_each(|v| a.push(v)));
    }
}

/// `Display` output as a JSON string, formatted straight into the
/// output and escaped only if it needs to be: addresses, hex digests.
pub struct Text<T>(pub T);

impl<T: fmt::Display> Encode for Text<T> {
    fn encode(&self, out: &mut String) {
        out.push('"');
        let start = out.len();
        let _ = write!(out, "{}", self.0);
        if out.as_bytes()[start..].iter().any(|&b| needs_escape(b)) {
            let raw = out.split_off(start);
            escape(out, &raw);
        }
        out.push('"');
    }
}

/// A float with a fixed number of decimals (`Fixed(v, 3)` is `{v:.3}`),
/// or `null` when non-finite.
pub struct Fixed(pub f64, pub usize);

impl Encode for Fixed {
    fn encode(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// One JSON object as a new string; `fill` writes its members.
pub fn to_string(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    object(&mut out, fill);
    out
}

/// Appends one JSON object to `out`; `fill` writes its members.
pub fn object(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fill(&mut Object(Seq { out, empty: true }));
    out.push('}');
}

/// Appends one JSON array to `out`; `fill` pushes its elements.
pub fn array(out: &mut String, fill: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    fill(&mut Array(Seq { out, empty: true }));
    out.push(']');
}

/// The comma-separated inside of an object or an array.
struct Seq<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Seq<'_> {
    /// The output, positioned for the next member or element.
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }
}

/// An open JSON object: members appear in the order they are written.
pub struct Object<'a>(Seq<'a>);

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        push_str(out, key);
        out.push(':');
        out
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Encode) {
        value.encode(self.key(key));
    }

    /// Writes `"key":null`.
    pub fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    /// Writes `"key":{…}`; `fill` writes the nested object's members.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) {
        object(self.key(key), fill);
    }

    /// Writes `"key":[…]`; `fill` pushes the nested array's elements.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Array<'_>)) {
        array(self.key(key), fill);
    }

    /// Writes the members of `rendered`, an object this writer rendered
    /// earlier, after the ones written so far.
    pub(crate) fn merge(&mut self, rendered: &str) {
        let members = &rendered[1..rendered.len() - 1];
        if !members.is_empty() {
            self.0.next().push_str(members);
        }
    }
}

/// An open JSON array.
pub struct Array<'a>(Seq<'a>);

impl Array<'_> {
    /// Appends one element.
    pub fn push(&mut self, value: impl Encode) {
        value.encode(self.0.next());
    }

    /// Appends one object; `fill` writes its members.
    pub fn object(&mut self, fill: impl FnOnce(&mut Object<'_>)) {
        object(self.0.next(), fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> String {
        let mut out = String::new();
        push_str(&mut out, s);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("plain"), "\"plain\"");
        assert_eq!(esc("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(esc("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(esc("\u{1}"), "\"\\u0001\"");
        assert_eq!(esc("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        let mut out = String::new();
        push_f64(&mut out, 9.9);
        assert_eq!(out, "9.9");
        out.clear();
        push_f64(&mut out, 123.0);
        assert_eq!(out, "123");
        out.clear();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }
}
