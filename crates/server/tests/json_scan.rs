//! The JSON batch scanner ([`json::scan_batch`], the server's decoder) is
//! pinned to the tree-building reference ([`json::decode_batch_reference`]):
//! on any body both accept or both reject; an accepted body gives
//! bit-identical frames (name order, NaNs, dictionaries, codes) and the
//! same handler fields; a rejected one gives the same 400 bytes.
//!
//! Bodies come from a seeded generator covering nulls, empty and
//! all-null columns, escaped and non-ASCII labels, varied whitespace,
//! extra fields around `"columns"`, duplicate keys and the malformed
//! shapes (mixed kinds, ragged lengths, duplicate columns). Every prefix
//! and many single-byte mutations of one body run through both paths too.

use cc_frame::{Column, DataFrame};
use cc_server::json;
use cc_server::Response;
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// Labels as they appear inside JSON quotes, and what they decode to.
const LABELS: [(&str, &str); 9] = [
    ("a", "a"),
    ("", ""),
    ("µ-unit", "µ-unit"),
    (r"caf\u00e9", "café"),
    (r"\ud83d\ude80", "🚀"),
    ("🚀", "🚀"),
    (r#"q\"t\\b\/s\n"#, "q\"t\\b/s\n"),
    (r"lone \ud83d", "lone \u{fffd}"),
    (r"tab\tx", "tab\tx"),
];

/// Number spellings: shortest round-trip output (16 and 17 digits among
/// them), exponent forms, the shim's lenient leading `+` and bare-dot
/// forms, negative zero, both sides of the number reader's one-pass
/// window (decimal exponent −27..=55, at most 19 digits) and of its
/// exact path inside it (mantissa at most 2^53, exponent within ±22).
const NUMBERS: [&str; 28] = [
    "0",
    "-0",
    "1.5",
    "-3.25e-3",
    "6.02214076E23",
    "+7",
    ".5",
    "5.",
    "1e308",
    "123456789",
    "1e-27",
    "1e-28",
    "1e55",
    "1e56",
    "-9999999999999999999",
    "12345678901234567890",
    "0.000123456789012345678",
    "0.3333333333333333",
    "3.141592653589793",
    "0.30000000000000004",
    "1.0000000000000002",
    "-2.2250738585072014e-308",
    "9007199254740992e-5",
    "9007199254740993e-5",
    "1e-22",
    "1e-23",
    "1e22",
    "1e23",
];

const WHITESPACE: [&str; 5] = ["", "", " ", "\n  ", "\t\r\n"];

/// Extra top-level members, as handlers read them.
const FIELDS: [&str; 9] = [
    r#""threshold": 0.25"#,
    r#""top": 3"#,
    r#""threads": 2"#,
    r#""profile": "main""#,
    r#""means": {"x": 1.5, "y": -2}"#,
    r#""monitor": "m\u00e9""#,
    r#""window": 64"#,
    r#""detector": "cusum""#,
    r#""columns": [1, {"nested": null}]"#,
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// One column's JSON array, with occasional type and length faults.
fn column_json(
    rng: &mut TestRng,
    rows: usize,
    ws: &mut dyn FnMut(&mut TestRng) -> String,
) -> String {
    let kind = rng.below(10);
    let mut n = rows;
    if rng.below(12) == 0 {
        n = rows + 1; // ragged
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let item = match kind {
            // Numbers with nulls.
            0..=4 => {
                if rng.below(5) == 0 {
                    "null".to_owned()
                } else if rng.below(2) == 0 {
                    pick(rng, &NUMBERS).to_owned()
                } else {
                    // Shortest round-trip output of a finite f64.
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_finite() {
                        serde_json::to_string(&x).unwrap()
                    } else {
                        "null".to_owned()
                    }
                }
            }
            // Labels, now and then with a (rejected) null.
            5..=7 if rng.below(30) == 0 => "null".to_owned(),
            5..=7 => format!("\"{}\"", LABELS[rng.below(LABELS.len() as u64) as usize].0),
            // All nulls.
            8 => "null".to_owned(),
            // Mixed kinds and non-cell items.
            _ => pick(rng, &["1", "\"a\"", "null", "true", "[]", "{}"]).to_owned(),
        };
        items.push(item);
    }
    // A stray fault in an otherwise clean column.
    if n > 0 && rng.below(15) == 0 {
        let i = rng.below(n as u64) as usize;
        items[i] = pick(rng, &["\"z\"", "2", "null", "false", "nul", "1x"]).to_owned();
    }
    let sep = format!("{},{}", ws(rng), ws(rng));
    format!("[{}{}{}]", ws(rng), items.join(&sep), ws(rng))
}

/// A whole batch body.
fn body_json(rng: &mut TestRng) -> String {
    let mut ws = |rng: &mut TestRng| pick(rng, &WHITESPACE).to_owned();
    let rows = rng.below(8) as usize;
    let n_cols = rng.below(5) as usize;
    let mut cols = Vec::new();
    for i in 0..n_cols {
        // Now and then a repeated column name.
        let name = if i > 0 && rng.below(10) == 0 { "c0".to_owned() } else { format!("c{i}") };
        let name = if rng.below(6) == 0 { format!(r"{name}\u00e9") } else { name };
        cols.push(format!("\"{name}\"{}:{}{}", ws(rng), ws(rng), column_json(rng, rows, &mut ws)));
    }
    let columns =
        format!("{{{}{}{}}}", ws(rng), cols.join(&format!("{},{}", ws(rng), ws(rng))), ws(rng));
    let mut members: Vec<String> =
        (0..rng.below(4)).map(|_| pick(rng, &FIELDS).to_owned()).collect();
    let at = rng.below(members.len() as u64 + 1) as usize;
    match rng.below(20) {
        0 => {} // no "columns" at all
        1 => members.insert(at, r#""columns": 5"#.to_owned()),
        _ => members.insert(at, format!("\"columns\"{}:{}{columns}", ws(rng), ws(rng))),
    }
    let sep = format!("{},{}", ws(rng), ws(rng));
    let mut body =
        format!("{}{{{}{}{}}}{}", ws(rng), ws(rng), members.join(&sep), ws(rng), ws(rng));
    if rng.below(25) == 0 {
        body.push_str(pick(rng, &["x", "{}", ","]));
    }
    body
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Column-by-column bit identity.
fn same_frame(a: &DataFrame, b: &DataFrame) -> Result<(), String> {
    if a.names() != b.names() {
        return Err(format!("names {:?} vs {:?}", a.names(), b.names()));
    }
    for name in a.names() {
        match (a.column(name).unwrap(), b.column(name).unwrap()) {
            (Column::Numeric(x), Column::Numeric(y)) if bits(x) == bits(y) => {}
            (
                Column::Categorical { codes: c1, dict: d1 },
                Column::Categorical { codes: c2, dict: d2 },
            ) if c1 == c2 && d1 == d2 => {}
            (x, y) => return Err(format!("column '{name}': {x:?} vs {y:?}")),
        }
    }
    Ok(())
}

/// The 400 a rejected body earns.
fn error_bytes(message: &str) -> Vec<u8> {
    Response::error(400, message).serialize(true)
}

/// Runs `body` through the scanner, the server's decoder and the
/// reference, and reports the first disagreement.
fn check(body: &str) -> Result<(), String> {
    let reference = json::decode_batch_reference(body);
    let scanned = json::scan_batch(body);
    let served = json::decode_batch(body);
    match (&scanned, &reference) {
        (Some((frame, fields)), Ok((ref_frame, ref_fields))) => {
            same_frame(frame, ref_frame)?;
            if fields != ref_fields {
                return Err(format!("fields {fields:?} vs {ref_fields:?}"));
            }
            let (served_frame, served_fields) = served.as_ref().expect("scanner accepted");
            same_frame(served_frame, ref_frame)?;
            if served_fields != ref_fields {
                return Err("served fields differ".to_owned());
            }
        }
        (None, Err(message)) => {
            let Err(served) = &served else { return Err("served accepted".to_owned()) };
            if error_bytes(served) != error_bytes(message) {
                return Err(format!("400 {served:?} vs {message:?}"));
            }
        }
        (Some(_), Err(e)) => return Err(format!("scanner accepted, reference rejected: {e}")),
        (None, Ok(_)) => return Err("scanner rejected, reference accepted".to_owned()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scanner_matches_reference(seed in 0u64..u64::MAX) {
        let body = body_json(&mut TestRng::from_case(seed));
        if let Err(e) = check(&body) {
            return Err(TestCaseError::fail(format!("seed {seed}: {e}\nbody: {body}")));
        }
    }
}

/// A small body with every feature: extra fields on both sides, escapes,
/// nulls, an all-null and an empty column.
const SMALL: &str = "{\"top\": 2, \"columns\": {\"x\": [1.5, null, -2e-3], \
    \"g\": [\"a\", \"caf\\u00e9\", \"\\ud83d\\ude80\"], \"n\": [null, null, null]}, \
    \"threshold\": 0.5, \"top\": 9}";

#[test]
fn small_body_decodes_as_written() {
    let (frame, fields) = json::scan_batch(SMALL).unwrap();
    assert_eq!(frame.names(), &["x", "g", "n"]);
    assert_eq!(frame.categorical("g").unwrap().1, &["a", "café", "🚀"]);
    assert!(frame.numeric("n").unwrap().iter().all(|x| x.is_nan()));
    // The first of a repeated field wins, as with `json::get`.
    assert_eq!(json::get(&fields, "top").and_then(json::as_usize), Some(2));
    assert_eq!(json::get(&fields, "threshold").and_then(json::as_f64), Some(0.5));
    assert!(json::get(&fields, "columns").is_none());
    check(SMALL).unwrap();
}

#[test]
fn escaped_labels_decode_to_their_text() {
    for (written, text) in LABELS {
        let body = format!("{{\"columns\": {{\"g\": [\"{written}\", \"{written}\"]}}}}");
        let (frame, _) = json::scan_batch(&body).unwrap();
        assert_eq!(
            frame.categorical("g").unwrap(),
            (&[0, 0][..], &[text.to_owned()][..]),
            "{body}"
        );
        check(&body).unwrap();
    }
}

#[test]
fn every_prefix_matches_reference() {
    for cut in (0..SMALL.len()).filter(|&i| SMALL.is_char_boundary(i)) {
        let prefix = &SMALL[..cut];
        check(prefix).unwrap_or_else(|e| panic!("prefix {prefix:?}: {e}"));
    }
}

#[test]
fn single_byte_mutations_match_reference() {
    let bytes = SMALL.as_bytes();
    for pos in 0..bytes.len() {
        for &b in b"\"\\,:[]{} n1-.eE+tx\x01" {
            let mut mutated = bytes.to_vec();
            mutated[pos] = b;
            let Ok(body) = std::str::from_utf8(&mutated) else { continue };
            check(body).unwrap_or_else(|e| panic!("mutation {body:?}: {e}"));
        }
    }
}

#[test]
fn degenerate_bodies_match_reference() {
    for body in [
        "",
        "{}",
        "[]",
        "null",
        "{\"columns\": {}}",
        "{\"columns\": []}",
        "{\"columns\": {\"x\": []}}",
        "{\"columns\": {\"x\": [null]}}",
        "{\"columns\": {\"x\": [null, \"a\"]}}",
        "{\"columns\": {\"x\": [\"a\", null]}}",
        "{\"columns\": {\"x\": [1], \"x\": [2]}}",
        "{\"columns\": {\"x\": [1], \"y\": []}}",
        "{\"columns\": {}, \"columns\": {\"x\": [1]}}",
        "{\"columns\": {}} {}",
        "{\"columns\": {\"x\": [1,]}}",
        "{\"columns\": {\"x\": [nan]}}",
        "{\"columns\": {\"x\": [\"\\ud83d\\u0041\"]}}",
        "{\"columns\": {\"x\": [\"\\q\"]}}",
    ] {
        check(body).unwrap_or_else(|e| panic!("{body:?}: {e}"));
    }
}

#[test]
fn large_batches_match_reference() {
    // A large dictionary, revisited out of order, next to a long numeric
    // column.
    let mut rng = TestRng::from_case(7);
    let n = 3000;
    let labels: Vec<String> = (0..n).map(|_| format!("\"l{}\"", rng.below(200))).collect();
    let xs: Vec<String> = (0..n)
        .map(|_| serde_json::to_string(&(f64::from_bits(rng.next_u64() >> 2))).unwrap())
        .collect();
    let body =
        format!("{{\"columns\": {{\"g\": [{}], \"x\": [{}]}}}}", labels.join(","), xs.join(","));
    let (frame, _) = json::scan_batch(&body).unwrap();
    assert!(frame.categorical("g").unwrap().1.len() > 100);
    check(&body).unwrap();
}

/// A number column is scanned a run at a time: plain numbers in a tight
/// loop until one item needs the general loop. Interrupting a run at
/// every position — whitespace on either side of a comma, a `null`, an
/// exponent outside the one-pass window, a 20-digit number, a spelling
/// only `str::parse` takes, a string — must leave the frame (or the 400)
/// the reference gives.
#[test]
fn number_runs_interrupted_at_every_position() {
    const RUN: [&str; 6] = ["1.5", "-0.25", "3", "9007199254740993", "2.5e-3", "0"];
    const BREAKS: [&str; 9] =
        [" 7", "7 ", "null", "1e300", "4e-30", "12345678901234567890", "+7", "5.", "\"a\""];
    for at in 0..=RUN.len() {
        for brk in BREAKS {
            let mut items = RUN.to_vec();
            items.insert(at, brk);
            let column = items.join(",");
            let body = format!("{{\"columns\": {{\"x\": [{column}], \"y\": [{column}]}}}}");
            check(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
    }
}
