//! Handler fields in JSON batch bodies: a field written before or after
//! `"columns"` gives the same reply as the same value in the query
//! string, and JSON ingest leaves a monitor exactly where CCOL ingest of
//! the same rows leaves it.

mod common;

use cc_frame::DataFrame;
use cc_server::{json, HttpClient, ServerHandle};
use conformance::CompiledProfile;

/// A server over two profiles, `alt` differing from `main`, so a
/// `profile` field that did not take effect shows in the reply.
fn two_profile_server(tag: &str) -> (ServerHandle, CompiledProfile) {
    let dir = common::temp_dir(tag);
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let alt = common::regime_profile(600, 5.0);
    common::write_profile(&dir, "alt", &alt);
    (common::start_server(&dir, 2), CompiledProfile::compile(&alt))
}

/// The frame's `{…}` columns object as JSON text.
fn columns_text(frame: &DataFrame) -> String {
    let body = json::columns_body(frame);
    serde_json::to_string(json::get(&body, "columns").unwrap()).unwrap()
}

fn parse(bytes: &[u8]) -> serde_json::Value {
    serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap()
}

fn post(client: &mut HttpClient, target: &str, body: &str) -> Vec<u8> {
    let resp = client.request("POST", target, body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{target}: {}", resp.text());
    resp.body
}

/// `fields` before `"columns"`, after it, and as a query string: the
/// three replies, which must agree byte for byte.
fn three_ways(client: &mut HttpClient, path: &str, fields: &[(&str, &str)], cols: &str) -> Vec<u8> {
    let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let members = members.join(", ");
    let before = post(client, path, &format!("{{{members}, \"columns\": {cols}}}"));
    let after = post(client, path, &format!("{{\"columns\": {cols},\n {members}}}"));
    let query: Vec<String> =
        fields.iter().map(|(k, v)| format!("{k}={}", v.trim_matches('"'))).collect();
    let queried =
        post(client, &format!("{path}?{}", query.join("&")), &format!("{{\"columns\": {cols}}}"));
    assert_eq!(before, after, "{path}: before vs after 'columns'");
    assert_eq!(String::from_utf8_lossy(&before), String::from_utf8_lossy(&queried), "{path}");
    before
}

#[test]
fn check_fields_match_query_string() {
    let (handle, _) = two_profile_server("jsonfields_check");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let cols = columns_text(&common::regime_frame(300, 3.0));
    let fields = [("profile", "\"alt\""), ("threshold", "0.05"), ("top", "3"), ("threads", "2")];
    let reply = three_ways(&mut client, "/v2/check", &fields, &cols);
    let v = parse(&reply);
    assert_eq!(json::get(&v, "profile").and_then(json::as_str), Some("alt"));
    assert!(json::get(&v, "unsafe").is_some(), "threshold ignored");
    assert!(json::get(&v, "top").is_some(), "top ignored");
}

#[test]
fn explain_means_read_before_or_after_columns() {
    let (handle, plan) = two_profile_server("jsonfields_explain");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let cols = columns_text(&common::regime_frame(300, 3.0));
    let means: Vec<String> =
        plan.attributes().iter().enumerate().map(|(i, a)| format!("\"{a}\": {i}.5")).collect();
    let means = format!("{{{}}}", means.join(", "));
    let members = format!("\"profile\": \"alt\", \"means\": {means}");
    let before = post(&mut client, "/v2/explain", &format!("{{{members}, \"columns\": {cols}}}"));
    let after = post(&mut client, "/v2/explain", &format!("{{\"columns\": {cols}, {members}}}"));
    assert_eq!(before, after);
    let v = parse(&before);
    assert!(json::get(&v, "responsibility").is_some(), "means ignored");
}

/// Ingests two JSON batches into monitor `m` with its settings as body
/// fields (`before` or after the columns) or as query parameters;
/// returns the replies and the monitor's status afterwards.
fn ingest_json(placement: &str, frames: &[DataFrame]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let (handle, _) = two_profile_server(&format!("jsonfields_ingest_{placement}"));
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let fields =
        [("monitor", "\"m\""), ("window", "64"), ("detector", "\"cusum\""), ("profile", "\"alt\"")];
    let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let members = members.join(", ");
    let query: Vec<String> =
        fields.iter().map(|(k, v)| format!("{k}={}", v.trim_matches('"'))).collect();
    let replies = frames
        .iter()
        .map(|f| {
            let cols = columns_text(f);
            match placement {
                "before" => {
                    post(&mut client, "/v1/ingest", &format!("{{{members}, \"columns\": {cols}}}"))
                }
                "after" => {
                    post(&mut client, "/v1/ingest", &format!("{{\"columns\": {cols}, {members}}}"))
                }
                _ => post(
                    &mut client,
                    &format!("/v1/ingest?{}", query.join("&")),
                    &format!("{{\"columns\": {cols}}}"),
                ),
            }
        })
        .collect();
    (replies, client.get("/v2/monitors/m").unwrap().body)
}

#[test]
fn ingest_fields_and_wire_agree() {
    let frames = [common::regime_frame(200, 0.0), common::regime_frame(150, 4.0)];
    let (replies, status) = ingest_json("before", &frames);
    for placement in ["after", "query"] {
        let (r, s) = ingest_json(placement, &frames);
        assert_eq!(r, replies, "{placement}: ingest replies");
        assert_eq!(s, status, "{placement}: monitor status");
    }
    let v = parse(&status);
    let text = serde_json::to_string(&v).unwrap();
    assert!(text.contains("\"window\":64") && text.contains("\"cusum\""), "{text}");

    // The same rows as CCOL: byte-identical replies and status.
    let (handle, _) = two_profile_server("jsonfields_ingest_ccol");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    for (frame, reply) in frames.iter().zip(&replies) {
        let resp = client
            .post_columnar("/v1/ingest?monitor=m&window=64&detector=cusum&profile=alt", frame)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(&resp.body, reply, "CCOL ingest reply");
    }
    assert_eq!(client.get("/v2/monitors/m").unwrap().body, status, "CCOL monitor status");
}
