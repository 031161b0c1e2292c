//! Self-watch over the real loopback path: the daemon monitors itself
//! with its own detectors. An induced degradation (error storm) must
//! raise the reserved `__self` monitor's alarm and surface everywhere
//! the operator looks — `/healthz` `degraded`, the
//! `cc_server_self_alarm` gauge, and `/v1/self` — while the structured
//! log ring stays queryable via `/v1/logs` and the reserved namespace
//! stays closed to external writers.

mod common;

use cc_server::json::{as_f64, as_str, get as field};
use cc_server::{
    HttpClient, ProfileRegistry, SelfWatchConfig, Server, ServerConfig, ServerHandle, SELF_MONITOR,
};
use serde_json::Value;
use std::time::{Duration, Instant};

/// A server with an aggressive self-watch cadence so the whole
/// synthesize → calibrate → alarm arc fits in test time.
fn start_selfwatch_server(dir: &std::path::Path) -> ServerHandle {
    let registry = ProfileRegistry::from_dir(dir).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        self_watch: Some(SelfWatchConfig {
            interval: Duration::from_millis(25),
            warmup: 4,
            window: 4,
            calibration_windows: 2,
            patience: 2,
        }),
        ..ServerConfig::default()
    };
    Server::start(config, registry).unwrap()
}

fn check_body(rows: usize) -> Vec<u8> {
    let frame = common::regime_frame(rows, 0.0);
    serde_json::to_string(&common::columns_body(&frame)).unwrap().into_bytes()
}

fn self_report(client: &mut HttpClient) -> Value {
    let resp = client.get("/v1/self").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.json().unwrap()
}

fn is_true(v: &Value, key: &str) -> bool {
    matches!(field(v, key), Some(Value::Bool(true)))
}

/// The acceptance arc: steady traffic through warmup + calibration,
/// then an error storm; the `__self` detector must alarm within its
/// patience and the degradation must be visible on every surface.
#[test]
fn induced_degradation_raises_the_self_alarm_everywhere() {
    let dir = common::temp_dir("selfwatch_alarm");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_selfwatch_server(&dir);
    let mut load = HttpClient::connect(handle.addr()).unwrap();
    let mut probe = HttpClient::connect(handle.addr()).unwrap();

    // Steady all-2xx load (varying batch sizes so the folded features
    // are not constant) until the meta-monitor has synthesized its
    // profile and calibrated its detector baseline.
    let deadline = Instant::now() + Duration::from_secs(30);
    let bodies = [check_body(16), check_body(48), check_body(96)];
    let mut i = 0usize;
    loop {
        let resp = load.request("POST", "/v1/check", &bodies[i % bodies.len()]).unwrap();
        assert_eq!(resp.status, 200);
        i += 1;
        let report = self_report(&mut probe);
        if is_true(&report, "calibrated") {
            assert!(is_true(&report, "enabled"));
            assert!(is_true(&report, "synthesized"));
            assert!(!is_true(&report, "degraded"), "steady load must not alarm");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "self-watch never calibrated under steady load: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A calibrated, healthy daemon reports ok on /healthz …
    let health = probe.get("/healthz").unwrap().json().unwrap();
    assert_eq!(field(&health, "status").and_then(as_str), Some("ok"));
    assert!(!is_true(&health, "degraded"));
    // … and exposes an unalarmed self gauge.
    let metrics = probe.get("/metrics").unwrap();
    let text = metrics.text();
    assert!(text.contains("cc_server_self_alarm 0"), "expected quiet gauge in:\n{text}");

    // Degrade the service from the outside: a storm of rejected
    // requests flips the folded error_ratio from ~0 to ~1.
    let deadline = Instant::now() + Duration::from_secs(30);
    let alarmed = loop {
        for _ in 0..8 {
            let resp = load.request("POST", "/v1/check", b"{ not json").unwrap();
            assert_eq!(resp.status, 400);
        }
        let report = self_report(&mut probe);
        let alarms_total = field(&report, "status")
            .and_then(|s| field(s, "alarms_total"))
            .and_then(as_f64)
            .unwrap_or(0.0);
        if alarms_total >= 1.0 {
            break report;
        }
        assert!(Instant::now() < deadline, "error storm never alarmed __self: {report:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(is_true(&alarmed, "synthesized"));

    // While the storm continues, the live alarm must surface on all
    // three operator surfaces (the flag itself clears once healthy
    // windows close again, so keep the degradation flowing).
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut saw_health, mut saw_gauge, mut saw_self) = (false, false, false);
    while !(saw_health && saw_gauge && saw_self) {
        for _ in 0..8 {
            let resp = load.request("POST", "/v1/check", b"{ not json").unwrap();
            assert_eq!(resp.status, 400);
        }
        let health = probe.get("/healthz").unwrap().json().unwrap();
        if is_true(&health, "degraded") {
            assert_eq!(field(&health, "status").and_then(as_str), Some("degraded"));
            saw_health = true;
        }
        let metrics = probe.get("/metrics").unwrap();
        let text = metrics.text();
        if text.contains("cc_server_self_alarm 1") {
            saw_gauge = true;
        }
        assert!(
            text.contains("cc_server_self_alarms_total"),
            "self gauges must be exported once __self exists"
        );
        if is_true(&self_report(&mut probe), "degraded") {
            saw_self = true;
        }
        assert!(
            Instant::now() < deadline,
            "alarm never surfaced everywhere (healthz {saw_health}, gauge {saw_gauge}, self {saw_self})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

/// `/v1/self` reports the sampler's posture long before anything is
/// synthesized, and the reserved namespace is closed to external
/// ingest and delete.
#[test]
fn self_report_and_reserved_namespace_guards() {
    let dir = common::temp_dir("selfwatch_reserved");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = start_selfwatch_server(&dir);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let report = self_report(&mut client);
    assert_eq!(field(&report, "monitor").and_then(as_str), Some(SELF_MONITOR));
    assert!(is_true(&report, "enabled"));
    let Some(Value::Array(features)) = field(&report, "features") else {
        panic!("features array: {report:?}")
    };
    assert!(!features.is_empty());

    // External ingest cannot write into the reserved namespace …
    let frame = common::regime_frame(64, 0.0);
    let Value::Object(mut pairs) = common::columns_body(&frame) else { panic!("object body") };
    pairs.push(("monitor".to_owned(), Value::String(SELF_MONITOR.into())));
    let resp = client.post_json("/v1/ingest", &Value::Object(pairs)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("reserved"), "{}", resp.text());

    // … nor under any name that fails the grammar.
    for bad in ["sp ace", "sla/sh", "", "__other"] {
        let Value::Object(mut pairs) = common::columns_body(&common::regime_frame(8, 0.0)) else {
            panic!("object body")
        };
        pairs.push(("monitor".to_owned(), Value::String((*bad).into())));
        let resp = client.post_json("/v1/ingest", &Value::Object(pairs)).unwrap();
        assert_eq!(resp.status, 400, "name '{bad}' must be rejected: {}", resp.text());
    }

    // DELETE cannot evict the server's own monitor.
    let resp =
        client.request("DELETE", &format!("/v1/monitor?monitor={SELF_MONITOR}"), b"").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("reserved"), "{}", resp.text());
    handle.shutdown();
}

/// A server started without self-watch answers `/v1/self` with
/// `enabled: false` and never grows a `__self` monitor; the self
/// gauges stay out of `/metrics`.
#[test]
fn self_watch_off_is_really_off() {
    let dir = common::temp_dir("selfwatch_off");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = common::start_server(&dir, 2);
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let report = self_report(&mut client);
    assert!(!is_true(&report, "enabled"));
    assert!(!is_true(&report, "synthesized"));
    assert_eq!(field(&report, "status"), Some(&Value::Null));
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text();
    assert!(!text.contains("cc_server_self_alarm"), "no __self monitor, no self gauges");
    assert!(text.contains("cc_server_open_connections"));
    assert!(text.contains("cc_server_compute_queue_depth"));
    handle.shutdown();
}

/// The boot sequence logs through the structured ring with a non-empty
/// trace id, and `/v1/logs` level/trace filters work over loopback.
#[test]
fn boot_logs_are_queryable_with_filters() {
    let dir = common::temp_dir("selfwatch_logs");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let handle = common::start_server(&dir, 2);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let resp = client.get("/v1/logs").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(field(&v, "level").and_then(as_str), Some("info"));
    let Some(Value::Array(logs)) = field(&v, "logs") else { panic!("logs array: {v:?}") };
    let boot = logs
        .iter()
        .find(|r| {
            field(r, "msg").and_then(as_str).is_some_and(|m| m.contains("cc_server listening on"))
        })
        .expect("boot line in the ring");
    let trace = field(boot, "trace").and_then(as_str).expect("trace key");
    assert_eq!(trace.len(), 16, "boot trace must be 16 hex digits, got '{trace}'");
    assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));

    // The trace filter isolates the boot correlation id.
    let v = client.get(&format!("/v1/logs?trace={trace}")).unwrap().json().unwrap();
    let Some(Value::Array(logs)) = field(&v, "logs") else { panic!("logs array") };
    assert!(!logs.is_empty());
    for r in logs {
        assert_eq!(field(r, "trace").and_then(as_str), Some(trace));
    }

    // Level filtering: boot lines are info, so a warn floor hides them.
    let v = client.get("/v1/logs?level=warn").unwrap().json().unwrap();
    let Some(Value::Array(logs)) = field(&v, "logs") else { panic!("logs array") };
    assert!(
        logs.iter().all(|r| {
            field(r, "msg").and_then(as_str).is_none_or(|m| !m.contains("listening on"))
        }),
        "warn floor must hide the info boot line"
    );

    // Unknown level and malformed trace ids are 400s, not surprises.
    assert_eq!(client.get("/v1/logs?level=bogus").unwrap().status, 400);
    assert_eq!(client.get("/v1/logs?trace=zzzz").unwrap().status, 400);
    handle.shutdown();
}
