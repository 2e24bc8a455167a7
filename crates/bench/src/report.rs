//! Minimal JSON rendering for the `BENCH_*.json` artifacts.
//!
//! The workspace has no serialization dependency, so machine-readable
//! experiment output is hand-rolled here: a tiny JSON value tree plus a renderer.  Non-finite numbers render as
//! `null` — JSON has no NaN/∞, and a partially-degenerate experiment must
//! still produce a parseable artifact.

use std::io::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a fraction so counters stay
                    // readable; everything else keeps full precision.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(key.clone()).render_into(out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write a JSON artifact to `path` (trailing newline included).
pub fn write_json(path: &str, value: &JsonValue) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(value.render().as_bytes())?;
    file.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_arrays_and_objects() {
        let v = JsonValue::obj(vec![
            ("name", JsonValue::str("arena")),
            ("smoke", JsonValue::Bool(true)),
            ("count", JsonValue::Num(3.0)),
            ("ratio", JsonValue::Num(0.5)),
            (
                "items",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Null]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"arena","smoke":true,"count":3,"ratio":0.5,"items":[1,null]}"#
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Num(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
