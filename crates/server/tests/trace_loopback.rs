//! Tracing over the real loopback path: trace-id echo on every wire
//! combination, phase spans that reconcile against request wall time,
//! `decode`/`evaluate`/`encode` spans nested inside a batch request's
//! `handle`, `/v1/trace` filters, ingest-pipeline spans tagged with the
//! monitor name, and the `--trace-buffer 0` byte-identity guarantee.

mod common;

use cc_server::json::{as_f64, as_str, get as field};
use cc_server::wire::CONTENT_TYPE_COLUMNAR;
use cc_server::{HttpClient, ProfileRegistry, Server, ServerConfig, ServerHandle};
use serde_json::Value;
use std::time::Instant;

/// Starts a server with an explicit flight-recorder capacity (the
/// common helper always uses the default).
fn start_server_traced(dir: &std::path::Path, trace_buffer: usize) -> ServerHandle {
    let registry = ProfileRegistry::from_dir(dir).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        trace_buffer,
        ..ServerConfig::default()
    };
    Server::start(config, registry).unwrap()
}

fn check_body(rows: usize) -> Vec<u8> {
    let frame = common::regime_frame(rows, 0.0);
    serde_json::to_string(&common::columns_body(&frame)).unwrap().into_bytes()
}

fn trace_header_of(resp: &cc_server::ClientResponse) -> Option<&str> {
    resp.headers.iter().find(|(n, _)| n == "x-ccsynth-trace").map(|(_, v)| v.as_str())
}

/// The client's token comes back verbatim on all four
/// content-type × accept combinations of `/v1/check`.
#[test]
fn trace_id_echoes_on_every_wire_combo() {
    let dir = common::temp_dir("trace_echo");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let json_body = check_body(64);
    let columnar_body = cc_server::wire::encode_frame(&common::regime_frame(64, 0.0));
    const JSON: &str = "application/json";
    for (ct, accept) in [
        (JSON, JSON),
        (JSON, CONTENT_TYPE_COLUMNAR),
        (CONTENT_TYPE_COLUMNAR, JSON),
        (CONTENT_TYPE_COLUMNAR, CONTENT_TYPE_COLUMNAR),
    ] {
        let token = format!("cafe{}{}", ct.len(), accept.len());
        let body: &[u8] = if ct == JSON { &json_body } else { &columnar_body };
        let resp = client
            .request_with(
                "POST",
                "/v1/check",
                body,
                &[("content-type", ct), ("accept", accept), ("x-ccsynth-trace", &token)],
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{ct} → {accept}: {}", String::from_utf8_lossy(&resp.body));
        assert_eq!(
            trace_header_of(&resp),
            Some(token.as_str()),
            "{ct} → {accept} must echo the client token"
        );
    }
    // No token supplied: the server generates one (16 hex digits).
    let resp = client.request("POST", "/v1/check", &json_body).unwrap();
    let generated = trace_header_of(&resp).expect("generated trace id");
    assert_eq!(generated.len(), 16, "generated id is 16 hex digits, got '{generated}'");
    assert!(generated.chars().all(|c| c.is_ascii_hexdigit()));
    handle.shutdown();
}

/// The four request phases land in `/v1/trace`, and their durations sum
/// to no more than the wall time the client observed for connect +
/// request.
#[test]
fn phase_spans_sum_within_wall_time() {
    let dir = common::temp_dir("trace_wall");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let token = format!("feed{:012x}", std::process::id());
    let body = check_body(2048);
    let wall_started = Instant::now();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp =
        client.request_with("POST", "/v1/check", &body, &[("x-ccsynth-trace", &token)]).unwrap();
    let wall_us = wall_started.elapsed().as_micros() as u64;
    assert_eq!(resp.status, 200);

    let trace = client.get("/v1/trace?endpoint=/v1/check&top=64&limit=4096").unwrap();
    assert_eq!(trace.status, 200);
    let v = trace.json().unwrap();
    let Some(Value::Array(slowest)) = field(&v, "slowest") else { panic!("slowest table") };
    let row = slowest
        .iter()
        .find(|r| field(r, "trace").and_then(as_str) == Some(token.as_str()))
        .unwrap_or_else(|| panic!("trace {token} missing from slow table"));
    let phases = field(row, "phases").expect("phase breakdown");
    let mut sum = 0.0;
    for phase in ["parse", "queue_wait", "handle", "write"] {
        let dur = field(phases, phase)
            .and_then(as_f64)
            .unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(dur >= 0.0);
        sum += dur;
    }
    assert_eq!(field(row, "endpoint").and_then(as_str), Some("/v1/check"));
    assert_eq!(field(row, "total_us").and_then(as_f64), Some(sum));
    // The phases are disjoint intervals inside the request's wall
    // window; tiny slack absorbs the two clocks' rounding.
    assert!(
        sum <= wall_us as f64 + 500.0,
        "phase sum {sum}µs exceeds request wall time {wall_us}µs"
    );
    handle.shutdown();
}

/// `/v1/ingest` spans carry the request's trace id and the monitor's
/// name; window closes surface as `window_close` events.
#[test]
fn ingest_pipeline_spans_are_tagged_with_monitor_name() {
    let dir = common::temp_dir("trace_ingest");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let frame = common::regime_frame(120, 0.0);
    let Value::Object(mut pairs) = common::columns_body(&frame) else { panic!("object body") };
    pairs.push(("monitor".to_owned(), Value::String("traced_orders".into())));
    pairs.push(("window".to_owned(), Value::Number(100.0)));
    let body = serde_json::to_string(&Value::Object(pairs)).unwrap().into_bytes();
    let token = "beef000000000001";
    let resp =
        client.request_with("POST", "/v1/ingest", &body, &[("x-ccsynth-trace", token)]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    // Satellite: the ingest reply carries the monitor's generation.
    assert!(field(&v, "generation").and_then(as_f64).is_some(), "ingest reply lacks generation");

    let trace = client.get("/v1/trace?monitor=traced_orders&limit=4096").unwrap();
    let v = trace.json().unwrap();
    let Some(Value::Array(spans)) = field(&v, "spans") else { panic!("span list") };
    let mut seen = Vec::new();
    for s in spans {
        assert_eq!(
            field(s, "tag").and_then(as_str),
            Some("traced_orders"),
            "monitor filter must only return spans tagged with the monitor"
        );
        let phase = field(s, "phase").and_then(as_str).unwrap().to_owned();
        if field(s, "trace").and_then(as_str) == Some(token) || phase == "window_close" {
            seen.push(phase);
        }
    }
    for phase in ["score", "admission_wait", "seal", "turn_wait", "commit", "window_close"] {
        assert!(seen.iter().any(|p| p == phase), "missing ingest phase {phase} in {seen:?}");
    }
    handle.shutdown();
}

/// The spans of `/v2/trace`'s list whose trace id is one of `tokens`,
/// as `(phase, dur_us)`. The span rings are process-global, so a count
/// that is not scoped to the test's own ids also counts the requests of
/// sibling tests' daemons.
fn own_spans(trace: &Value, tokens: &[String]) -> Vec<(String, f64)> {
    let Some(Value::Array(spans)) = field(trace, "spans") else { panic!("span list") };
    spans
        .iter()
        .filter(|s| {
            field(s, "trace").and_then(as_str).is_some_and(|t| tokens.iter().any(|k| k == t))
        })
        .map(|s| {
            let phase = field(s, "phase").and_then(as_str).unwrap().to_owned();
            (phase, field(s, "dur_us").and_then(as_f64).unwrap())
        })
        .collect()
}

/// `min_us` filtering drops sub-threshold spans.
#[test]
fn trace_min_us_filter_applies() {
    let dir = common::temp_dir("trace_filter");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let body = check_body(256);
    let tokens: Vec<String> = (1..=3).map(|i| format!("f17e{i:012x}")).collect();
    for token in &tokens {
        let resp =
            client.request_with("POST", "/v1/check", &body, &[("x-ccsynth-trace", token)]).unwrap();
        assert_eq!(resp.status, 200);
    }
    // Every request leaves its lifecycle spans and the batch spans
    // inside its `handle`, all tagged with the endpoint.
    let per_request = cc_trace::Phase::REQUEST.len();
    let v = client.get("/v1/trace?endpoint=/v1/check&min_us=0&limit=4096").unwrap().json().unwrap();
    let all = own_spans(&v, &tokens);
    assert_eq!(all.len(), tokens.len() * per_request, "{all:?}");
    // The /v2 spelling names the same route; a path naming no endpoint
    // is a 400, not an empty match.
    let v = client.get("/v2/trace?endpoint=/v2/check&min_us=0&limit=4096").unwrap().json().unwrap();
    assert_eq!(own_spans(&v, &tokens), all);
    assert_eq!(client.get("/v2/trace?endpoint=/v2/bogus").unwrap().status, 400);
    // A floor at the longest of the test's spans keeps that span and
    // drops every shorter one.
    let longest = all.iter().map(|(_, d)| *d).fold(0.0, f64::max);
    let path = format!("/v1/trace?endpoint=/v1/check&min_us={longest}&limit=4096");
    let kept = own_spans(&client.get(&path).unwrap().json().unwrap(), &tokens);
    let want: Vec<_> = all.iter().filter(|(_, d)| *d >= longest).cloned().collect();
    assert!(!kept.is_empty());
    assert_eq!(kept, want);
    // An hour-long floor matches nothing.
    let v = client.get("/v1/trace?endpoint=/v1/check&min_us=3600000000").unwrap().json().unwrap();
    assert_eq!(field(&v, "matched").and_then(as_f64), Some(0.0));
    let Some(Value::Array(spans)) = field(&v, "spans") else { panic!("span list") };
    assert!(spans.is_empty());
    handle.shutdown();
}

/// On each batch endpoint, `handle` splits into `decode`, `evaluate`
/// and `encode` spans of the same request, which sum to at most the
/// `handle` around them; `/metrics` counts the three phases.
#[test]
fn batch_phases_nest_inside_handle() {
    let dir = common::temp_dir("trace_batch_phases");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let body = check_body(2048);
    for (i, path) in ["/v2/check", "/v2/explain", "/v2/drift"].into_iter().enumerate() {
        let token = format!("ba7c{i:012x}");
        let resp =
            client.request_with("POST", path, &body, &[("x-ccsynth-trace", &token)]).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.text());
        let trace = client.get(&format!("/v2/trace?endpoint={path}&top=64&limit=4096")).unwrap();
        let v = trace.json().unwrap();
        let Some(Value::Array(slowest)) = field(&v, "slowest") else { panic!("slowest table") };
        let row = slowest
            .iter()
            .find(|r| field(r, "trace").and_then(as_str) == Some(token.as_str()))
            .unwrap_or_else(|| panic!("{path}: trace {token} missing from slow table"));
        let phases = field(row, "phases").expect("phase breakdown");
        let us = |phase: &str| {
            field(phases, phase).and_then(as_f64).unwrap_or_else(|| panic!("{path}: no {phase}"))
        };
        let nested = us("decode") + us("evaluate") + us("encode");
        assert!(nested <= us("handle"), "{path}: decode + evaluate + encode {nested} µs > handle");
        // Each of the three was recorded for this request.
        let mine = own_spans(&v, std::slice::from_ref(&token));
        for phase in ["decode", "evaluate", "encode"] {
            assert_eq!(mine.iter().filter(|(p, _)| p == phase).count(), 1, "{path}: {phase}");
        }
        let lifecycle = us("parse") + us("queue_wait") + us("handle") + us("write");
        assert_eq!(field(row, "total_us").and_then(as_f64), Some(lifecycle));
    }
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text();
    for phase in ["decode", "evaluate", "encode"] {
        let needle = format!("cc_server_phase_seconds_count{{phase=\"{phase}\"}}");
        assert!(text.contains(&needle), "metrics exposition lacks {needle}");
    }
    handle.shutdown();
}

/// With `trace_buffer: 0` the `/v1/check` response is byte-identical to
/// the traced server's body with no trace header — tracing off means
/// *off*, not differently-shaped.
#[test]
fn disabled_tracing_is_byte_identical() {
    let dir = common::temp_dir("trace_disabled");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let traced = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let untraced = start_server_traced(&dir, 0);
    let body = check_body(512);
    let mut on = HttpClient::connect(traced.addr()).unwrap();
    let mut off = HttpClient::connect(untraced.addr()).unwrap();
    let with = on.request("POST", "/v1/check", &body).unwrap();
    let without = off.request("POST", "/v1/check", &body).unwrap();
    assert_eq!(with.status, 200);
    assert_eq!(without.status, 200);
    assert!(trace_header_of(&with).is_some(), "traced server must stamp the header");
    assert!(trace_header_of(&without).is_none(), "disabled server must not");
    assert_eq!(with.body, without.body, "bodies must be byte-identical");
    // Header sets differ by exactly the trace header.
    let strip = |r: &cc_server::ClientResponse| {
        r.headers.iter().filter(|(n, _)| n != "x-ccsynth-trace").cloned().collect::<Vec<_>>()
    };
    assert_eq!(strip(&with), strip(&without), "only the trace header may differ");
    // And the disabled daemon reports itself disabled on /v1/trace.
    let v = off.get("/v1/trace").unwrap().json().unwrap();
    assert_eq!(field(&v, "enabled"), Some(&Value::Bool(false)));
    traced.shutdown();
    untraced.shutdown();
}

/// Satellites: `/healthz` reports `uptime_seconds`; `/v1/monitor`
/// carries the generation; `/metrics` exposes the phase histograms and
/// the build-info gauge.
#[test]
fn observability_satellites_over_loopback() {
    let dir = common::temp_dir("trace_satellites");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_server_traced(&dir, cc_trace::DEFAULT_BUFFER);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let health = client.get("/healthz").unwrap().json().unwrap();
    let uptime = field(&health, "uptime_seconds").and_then(as_f64).expect("uptime_seconds");
    assert!(uptime >= 0.0);

    let frame = common::regime_frame(100, 0.0);
    let Value::Object(mut pairs) = common::columns_body(&frame) else { panic!("object body") };
    pairs.push(("monitor".to_owned(), Value::String("gen_probe".into())));
    let resp = client.post_json("/v1/ingest", &Value::Object(pairs)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let status = client.get("/v1/monitor?monitor=gen_probe").unwrap().json().unwrap();
    assert!(
        field(&status, "generation").and_then(as_f64).is_some(),
        "/v1/monitor must carry the generation"
    );

    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text();
    for needle in [
        "cc_server_phase_seconds_bucket{phase=\"handle\"",
        "cc_server_phase_seconds_count{phase=\"parse\"",
        "cc_monitor_phase_seconds_bucket{phase=\"score\"",
        "cc_monitor_phase_seconds_count{phase=\"score\"",
        "cc_server_build_info{version=",
    ] {
        assert!(text.contains(needle), "metrics exposition lacks {needle}");
    }
    handle.shutdown();
}
