//! JSON ⇄ [`DataFrame`] bridging and small value-tree helpers.
//!
//! The wire format for tuple batches is columnar — mirroring the engine's
//! SoA layout, and cheap to build from any dataframe-shaped client:
//!
//! ```json
//! {"columns": {"x": [1.5, 2.5], "regime": ["a", "b"]}, "threshold": 0.1}
//! ```
//!
//! An all-number array (JSON `null` ⇒ NaN, like the CSV reader's missing
//! values) becomes a numeric column; an all-string array becomes a
//! categorical column. The vendored `serde_json` shim serializes `f64`
//! through shortest-round-trip formatting, so numeric payloads survive
//! HTTP bit-exactly — the property the loopback equivalence test pins.
//!
//! Two decoders read a batch body. [`decode_batch`] is the server's: it
//! scans the `"columns"` object straight into the frame's `Vec<f64>` and
//! dictionary-coded columns, with no [`Value`] tree in between.
//! [`decode_batch_reference`] parses the whole body into a tree and
//! builds the frame with [`frame_from_columns`]; it is the reference the
//! scanner is pinned to (same accept/reject decisions, bit-identical
//! frames, same handler fields — `tests/json_scan.rs`), and it writes
//! every 400 message, so the scanner carries no error text of its own.
//! Both run on the shim's one [`Lexer`], so strings, escapes and numbers
//! are read by the same code. [`Lexer::parse_f64`] reads a plain number
//! of at most 19 digits with a decimal exponent in −27..=55 in one pass
//! (SWAR digits, then one exact multiply or divide when the mantissa is
//! at most 2^53 and the exponent within ±22, else Eisel–Lemire) and
//! hands any other run of number bytes to `str::parse::<f64>`; the
//! shim's differential tests pin the two to the same value bits,
//! accept/reject decisions and end offsets. Inside a number column the
//! scanner hands the cells to [`Lexer::number_run`], which takes
//! `,<number>` pairs in a tight loop while that one-pass reader takes
//! them and leaves the first other item to the general loop.
//!
//! Replies go the other way. [`ObjectWriter`] writes a compact object
//! member by member straight into its text, with the shim's own number
//! and string writers, so the `/v2/check` reply's violations array is
//! never a [`Value`] tree yet has the bytes the tree writer gives
//! (`api.rs` pins the two against each other).

use cc_frame::{Column, DataFrame};
use serde_json::{Lexer, Value};
use std::borrow::Cow;

/// Field lookup that treats non-objects and missing keys as `None`.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// String payload of a value.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// Numeric payload of a value.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// Non-negative integer payload of a value.
pub fn as_usize(v: &Value) -> Option<usize> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as usize),
        _ => None,
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A number array value.
pub fn num_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// The inverse of [`frame_from_columns`]: renders a frame as the wire's
/// full `{"columns": …}` request body (numeric columns as number
/// arrays, categorical columns as label arrays). Every in-repo load
/// driver — `ccbench`, the `serve_loadtest` example, the loopback
/// tests — builds payloads through this, so their wire format cannot
/// drift from what the server parses.
pub fn columns_body(df: &DataFrame) -> Value {
    let mut cols = Vec::new();
    for name in df.numeric_names() {
        let vals = df.numeric(name).expect("listed numeric column");
        cols.push((
            name.to_owned(),
            Value::Array(vals.iter().map(|&v| Value::Number(v)).collect()),
        ));
    }
    for name in df.categorical_names() {
        let (codes, dict) = df.categorical(name).expect("listed categorical column");
        cols.push((
            name.to_owned(),
            Value::Array(codes.iter().map(|&c| Value::String(dict[c as usize].clone())).collect()),
        ));
    }
    Value::Object(vec![("columns".to_owned(), Value::Object(cols))])
}

/// Builds a [`DataFrame`] from a columnar JSON object.
///
/// # Errors
/// Returns a request-shaped message (for a `400`) when the value is not
/// an object of arrays, a column mixes numbers and strings, or column
/// lengths disagree.
pub fn frame_from_columns(columns: &Value) -> Result<DataFrame, String> {
    let Value::Object(pairs) = columns else {
        return Err(format!("'columns' must be an object of arrays, found {}", columns.kind()));
    };
    let mut df = DataFrame::new();
    for (name, col) in pairs {
        let Value::Array(items) = col else {
            return Err(format!("column '{name}' must be an array, found {}", col.kind()));
        };
        let kind = items.iter().find(|v| !matches!(v, Value::Null));
        match kind {
            Some(Value::String(_)) => {
                let mut vals = Vec::with_capacity(items.len());
                for v in items {
                    vals.push(as_str(v).ok_or_else(|| {
                        format!("column '{name}' mixes strings with {}", v.kind())
                    })?);
                }
                df.push_categorical(name.clone(), &vals)
                    .map_err(|e| format!("column '{name}': {e}"))?;
            }
            // All-null or empty columns default to numeric (null ⇒ NaN).
            Some(Value::Number(_)) | None => {
                let mut vals = Vec::with_capacity(items.len());
                for v in items {
                    vals.push(match v {
                        Value::Number(n) => *n,
                        Value::Null => f64::NAN,
                        other => {
                            return Err(format!(
                                "column '{name}' mixes numbers with {}",
                                other.kind()
                            ))
                        }
                    });
                }
                df.push_numeric(name.clone(), vals).map_err(|e| format!("column '{name}': {e}"))?;
            }
            Some(other) => {
                return Err(format!(
                    "column '{name}' must hold numbers or strings, found {}",
                    other.kind()
                ))
            }
        }
    }
    Ok(df)
}

/// Decodes a JSON batch body into its frame and its handler fields: the
/// top-level members other than `"columns"`, in body order (so
/// [`get`] finds the first occurrence of a repeated key).
///
/// # Errors
/// The 400 message [`decode_batch_reference`] gives for the body.
pub fn decode_batch(text: &str) -> Result<(DataFrame, Value), String> {
    match scan_batch(text) {
        Some(batch) => Ok(batch),
        // The reference decides (and words) every rejection.
        None => decode_batch_reference(text),
    }
}

/// The reference batch decoder: the whole body as a [`Value`] tree, then
/// [`frame_from_columns`] on its first `"columns"` member.
///
/// # Errors
/// A request-shaped message (for a `400`) when the body is not JSON, has
/// no `"columns"`, or its columns do not make a frame.
pub fn decode_batch_reference(text: &str) -> Result<(DataFrame, Value), String> {
    let body: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let Some(columns) = get(&body, "columns") else {
        return Err("body needs a 'columns' object".to_owned());
    };
    let frame = frame_from_columns(columns)?;
    let Value::Object(mut fields) = body else { unreachable!("get found a member") };
    fields.retain(|(k, _)| k != "columns");
    Ok((frame, Value::Object(fields)))
}

/// The scanning batch decoder behind [`decode_batch`]: one pass over the
/// body, filling the frame's columns from the first `"columns"` member
/// and parsing every other member into the fields object. `None` exactly
/// when [`decode_batch_reference`] rejects the body.
pub fn scan_batch(text: &str) -> Option<(DataFrame, Value)> {
    let mut lx = Lexer::new(text);
    lx.expect(b'{').ok()?;
    let mut frame = None;
    let mut fields = Vec::new();
    loop {
        let key = lx.parse_str().ok()?;
        lx.expect(b':').ok()?;
        if key != "columns" {
            fields.push((key.into_owned(), lx.parse_value().ok()?));
        } else if frame.is_none() {
            frame = Some(scan_columns(&mut lx)?);
        } else {
            // A repeated "columns" only has to be JSON, as in the tree.
            lx.parse_value().ok()?;
        }
        if !lx.more(b'}').ok()? {
            break;
        }
    }
    lx.finish().ok()?;
    Some((frame?, Value::Object(fields)))
}

/// Scans a `"columns"` object into a frame.
fn scan_columns(lx: &mut Lexer<'_>) -> Option<DataFrame> {
    lx.expect(b'{').ok()?;
    let mut df = DataFrame::new();
    if lx.eat(b'}') {
        return Some(df);
    }
    loop {
        let name = lx.parse_str().ok()?;
        lx.expect(b':').ok()?;
        let col = scan_column(lx, df.n_rows())?;
        df.push_column(name.into_owned(), col).ok()?;
        if !lx.more(b'}').ok()? {
            return Some(df);
        }
    }
}

/// Scans one column array. Its kind is that of its first non-null item,
/// as in [`frame_from_columns`]; `rows` sizes the buffers.
fn scan_column(lx: &mut Lexer<'_>, rows: usize) -> Option<Column> {
    lx.expect(b'[').ok()?;
    // Nulls before the first non-null item, which decides the kind.
    let mut nulls = 0;
    let mut col = None;
    if lx.eat(b']') {
        return Some(Column::Numeric(Vec::new()));
    }
    loop {
        match (lx.peek()?, &mut col) {
            (b'n', cells) => {
                if !lx.eat_keyword("null") {
                    return None;
                }
                match cells {
                    None => nulls += 1,
                    Some(Cells::Numbers(xs)) => xs.push(f64::NAN),
                    Some(Cells::Labels(_)) => return None,
                }
            }
            // A string column admits no nulls at all.
            (b'"', None) if nulls == 0 => {
                let mut labels = Vec::with_capacity(rows);
                labels.push(lx.parse_str().ok()?);
                col = Some(Cells::Labels(labels));
            }
            (b'"', Some(Cells::Labels(labels))) => labels.push(lx.parse_str().ok()?),
            (b'"', _) => return None,
            (_, None) => {
                let mut xs = Vec::with_capacity(rows.max(nulls + 1));
                xs.resize(nulls, f64::NAN);
                xs.push(lx.parse_f64().ok()?);
                col = Some(Cells::Numbers(xs));
            }
            (_, Some(Cells::Numbers(xs))) => {
                xs.push(lx.parse_f64().ok()?);
                // The plain numbers that follow, without a pass of this
                // loop each; the loop resumes at the first item the run
                // does not take.
                lx.number_run(xs);
            }
            (_, Some(Cells::Labels(_))) => return None,
        }
        if !lx.more(b']').ok()? {
            break;
        }
    }
    Some(match col {
        None => Column::Numeric(vec![f64::NAN; nulls]),
        Some(Cells::Numbers(xs)) => Column::Numeric(xs),
        // Labels without escapes borrow from the body until coded here.
        Some(Cells::Labels(labels)) => Column::categorical_from_labels(&labels),
    })
}

/// A column's cells once its kind is known.
enum Cells<'a> {
    Numbers(Vec<f64>),
    Labels(Vec<Cow<'a, str>>),
}

/// A compact JSON object written member by member straight into its
/// text, with no [`Value`] per member: the bytes
/// `serde_json::to_string(&obj(pairs))` gives for the same members. The
/// `/v2/check` reply is written with it, so its violations array never
/// becomes a tree.
pub struct ObjectWriter {
    out: String,
}

impl ObjectWriter {
    /// An empty object with room for about `bytes` bytes of text.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push('{');
        ObjectWriter { out }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        serde_json::write_str(key, &mut self.out);
        self.out.push(':');
    }

    /// A string member.
    pub fn string(&mut self, key: &str, s: &str) {
        self.key(key);
        serde_json::write_str(s, &mut self.out);
    }

    /// A number member.
    pub fn number(&mut self, key: &str, x: f64) {
        self.key(key);
        serde_json::write_f64(x, &mut self.out);
    }

    /// A number-array member, as [`num_array`] writes it.
    pub fn numbers(&mut self, key: &str, xs: &[f64]) {
        self.key(key);
        self.out.push('[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            serde_json::write_f64(x, &mut self.out);
        }
        self.out.push(']');
    }

    /// A member of any value.
    pub fn value(&mut self, key: &str, v: &Value) {
        self.key(key);
        serde_json::write_compact(v, &mut self.out);
    }

    /// The finished object's text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnar_frame_roundtrip() {
        let body: Value =
            serde_json::from_str(r#"{"x": [1.5, null, -3.25], "regime": ["a", "b", "a"]}"#)
                .unwrap();
        let df = frame_from_columns(&body).unwrap();
        assert_eq!(df.n_rows(), 3);
        let x = df.numeric("x").unwrap();
        assert_eq!(x[0], 1.5);
        assert!(x[1].is_nan());
        let (codes, dict) = df.categorical("regime").unwrap();
        assert_eq!(dict, &["a".to_owned(), "b".to_owned()]);
        assert_eq!(codes, &[0, 1, 0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let v: Value = serde_json::from_str(r#"{"x": [1, 2, 3], "y": [1]}"#).unwrap();
        assert!(frame_from_columns(&v).is_err());
    }

    #[test]
    fn columns_body_inverts_frame_from_columns() {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.5, f64::NAN, -3.25]).unwrap();
        df.push_categorical("regime", &["a", "b", "a"]).unwrap();
        let body = columns_body(&df);
        let back = frame_from_columns(get(&body, "columns").unwrap()).unwrap();
        assert_eq!(back.numeric("x").unwrap()[0].to_bits(), 1.5f64.to_bits());
        // NaN travels as JSON null and comes back NaN.
        assert!(back.numeric("x").unwrap()[1].is_nan());
        assert_eq!(back.categorical("regime").unwrap(), df.categorical("regime").unwrap());
    }

    #[test]
    fn object_writer_matches_the_tree_writer() {
        let xs = [0.0, -0.0, 1.0, 0.1, 5e-324, f64::NAN, 9_007_199_254_740_993.0, -12.5];
        let nested = obj(vec![("row", Value::Number(3.0)), ("q\"uote", string("a\nb"))]);
        let mut w = ObjectWriter::with_capacity(0);
        w.string("name", "caf\u{e9} \"x\"\t");
        w.number("n", 4096.0);
        w.numbers("empty", &[]);
        w.numbers("xs", &xs);
        w.value("nested", &nested);
        let tree = obj(vec![
            ("name", string("caf\u{e9} \"x\"\t")),
            ("n", Value::Number(4096.0)),
            ("empty", num_array(&[])),
            ("xs", num_array(&xs)),
            ("nested", nested.clone()),
        ]);
        assert_eq!(w.finish(), serde_json::to_string(&tree).unwrap());
        assert_eq!(ObjectWriter::with_capacity(8).finish(), "{}");
    }

    #[test]
    fn mixed_and_malformed_columns_rejected() {
        for bad in [
            r#"{"x": [1, "a"]}"#,
            r#"{"x": ["a", 1]}"#,
            r#"{"x": 5}"#,
            r#"{"x": [true]}"#,
            r#"[1, 2]"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(frame_from_columns(&v).is_err(), "{bad}");
        }
    }
}
