//! The real `ccsynth serve` binary, spawned as its own process.
//!
//! These tests cover what only a separate process shows:
//!
//! - **Per-process state.** The flight recorder's phase aggregates are
//!   process-global, so an in-process test server shares them with
//!   every traced server in the same test binary; only a separate
//!   process shows what one daemon configuration really counts. The
//!   crash-recovery test is killed with SIGKILL and restarted on the
//!   same state directory.
//! - **The command line.** The daemon configured only by `serve` flags
//!   (logging, self-watch, fleet roles), its boot banner, its SIGTERM
//!   shutdown, and the client subcommands (`check --dump`, `wire`,
//!   `trace`, `ops`, `fleet`) against it: served answers must equal the
//!   CLI's, and N shards must serve the single node's answer.
#![cfg(unix)]

use ccsynth::server::json::{as_f64, as_str, get};
use ccsynth::server::wire::{decode_violations, CONTENT_TYPE_COLUMNAR};
use ccsynth::server::{ClientResponse, HttpClient};
use serde_json::Value;
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsynth_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spawned `ccsynth serve`, stdout and stderr both in `log`.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    log: PathBuf,
}

impl Daemon {
    /// Starts `ccsynth serve --addr 127.0.0.1:0 --workers 2 <args>` and
    /// waits for its `cc_server listening on http://<addr> ` banner.
    fn spawn(args: &[&str], log: &Path) -> Daemon {
        let out = File::create(log).unwrap();
        let err = out.try_clone().unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_ccsynth"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .expect("ccsynth serve starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            let addr = text
                .lines()
                .find_map(|l| l.strip_prefix("cc_server listening on http://"))
                .and_then(|rest| rest.split(' ').next())
                .and_then(|a| a.parse().ok());
            if let Some(addr) = addr {
                return Daemon { child, addr, log: log.to_owned() };
            }
            if let Ok(Some(status)) = child.try_wait() {
                panic!("serve exited with {status} before listening:\n{text}");
            }
            assert!(Instant::now() < deadline, "no listening banner in 30 s:\n{text}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(self.addr).unwrap()
    }

    /// SIGKILL: no shutdown hook runs, no final snapshot is written.
    fn kill_hard(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }

    /// SIGTERM, then the daemon's whole output once it has exited.
    fn terminate(mut self) -> String {
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(sent.success());
        let status = self.child.wait().unwrap();
        assert!(status.success(), "serve exited with {status}");
        std::fs::read_to_string(&self.log).unwrap()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when a test panics with the daemon still up.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `ccsynth <args>` to success and returns its stdout.
fn ccsynth(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ccsynth")).args(args).output().unwrap();
    assert!(out.status.success(), "ccsynth {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// Polls `probe` until it yields a value, for at most 30 s.
fn poll<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn header<'a>(resp: &'a ClientResponse, name: &str) -> Option<&'a str> {
    resp.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

fn json_of(resp: &ClientResponse) -> Value {
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.json().unwrap()
}

fn num(v: &Value, key: &str) -> f64 {
    get(v, key).and_then(as_f64).unwrap_or_else(|| panic!("no number '{key}' in {v:?}"))
}

fn flag(v: &Value, key: &str) -> bool {
    match get(v, key) {
        Some(Value::Bool(b)) => *b,
        other => panic!("no bool '{key}' in {v:?}: {other:?}"),
    }
}

/// The value of one unlabelled-or-labelled sample line in a Prometheus
/// exposition, e.g. `cc_server_phase_seconds_count{phase="handle"}`.
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {series} in:\n{text}"))
}

/// 400 rows of `z = x + (r + 1)·y` with a three-valued `regime` column:
/// the CSV and the matching JSON columns (the same cell text in both).
/// With `shift`, every `z` moves to `3·z + 40`, which breaks the learned
/// invariant.
fn smoke_data(shift: bool) -> (String, String) {
    let mut csv = String::from("x,y,z,regime\n");
    let (mut xs, mut ys, mut zs, mut rs) = (vec![], vec![], vec![], vec![]);
    for i in 0..400 {
        let r = i % 3;
        let x = format!("{:.10}", (i as f64 * 0.37).sin() * 20.0);
        let y = ((i * 13) % 41) as i64 - 20;
        let z = x.parse::<f64>().unwrap() + (r + 1) as f64 * y as f64;
        let z = format!("{:.10}", if shift { z * 3.0 + 40.0 } else { z });
        let regime = ["a", "b", "c"][r];
        csv.push_str(&format!("{x},{y},{z},{regime}\n"));
        xs.push(x);
        ys.push(y.to_string());
        zs.push(z);
        rs.push(format!("\"{regime}\""));
    }
    let columns = format!(
        "{{\"x\":[{}],\"y\":[{}],\"z\":[{}],\"regime\":[{}]}}",
        xs.join(","),
        ys.join(","),
        zs.join(","),
        rs.join(",")
    );
    (csv, columns)
}

/// Writes the smoke CSV to `dir/data.csv` and `ccsynth profile`s it into
/// `dir/profiles/smoke.json`; returns the JSON columns.
fn profile_dir(dir: &Path) -> String {
    let (csv, columns) = smoke_data(false);
    std::fs::write(dir.join("data.csv"), csv).unwrap();
    std::fs::create_dir_all(dir.join("profiles")).unwrap();
    ccsynth(&[
        "profile",
        path(&dir.join("data.csv")),
        "--out",
        path(&dir.join("profiles/smoke.json")),
    ]);
    columns
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// With span rings off (`--trace-buffer 0`), every request still lands
/// in the per-phase latency cells: `/metrics` counts each check's
/// `handle` phase, and self-watch samples a nonzero `handle_ms` under
/// load. `ccsynth trace` reports the recorder disabled.
#[test]
fn untraced_daemon_still_measures_latency() {
    let dir = temp_dir("untraced");
    let columns = profile_dir(&dir);
    let profiles = dir.join("profiles");
    let daemon = Daemon::spawn(
        &["--dir", profiles.to_str().unwrap(), "--trace-buffer", "0", "--self-watch", "25"],
        &dir.join("serve.log"),
    );
    let body = format!("{{\"columns\":{columns}}}");
    let stop = AtomicBool::new(false);
    let checks = AtomicU64::new(0);
    let mut probe = daemon.client();
    let mut seen_handle_ms = 0.0;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut client = daemon.client();
            while !stop.load(Ordering::Relaxed) || checks.load(Ordering::Relaxed) < 200 {
                let resp = client.request("POST", "/v2/check", body.as_bytes()).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                checks.fetch_add(1, Ordering::Relaxed);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            let selfv = json_of(&probe.get("/v2/self").unwrap());
            if let Some(sample) = get(&selfv, "sample") {
                seen_handle_ms = num(sample, "handle_ms");
                if seen_handle_ms > 0.0 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(seen_handle_ms > 0.0, "self-watch sampled handle_ms = 0 under /v2/check load");

    let sent = checks.load(Ordering::Relaxed) as f64;
    let text = probe.get("/metrics").unwrap().text().to_owned();
    let handled = metric(&text, "cc_server_phase_seconds_count{phase=\"handle\"}");
    assert!(handled >= sent, "handle phase counted {handled} of {sent} checks");
    assert!(metric(&text, "cc_server_phase_seconds_count{phase=\"write\"}") >= sent);

    let trace = json_of(&probe.get("/v2/trace").unwrap());
    assert!(!flag(&trace, "enabled"), "--trace-buffer 0 must report tracing disabled");
    let report = ccsynth(&["trace", &daemon.addr.to_string()]);
    assert!(report.contains("trace buffer: 0 spans/thread (disabled)"), "{report}");
    daemon.terminate();
}

/// A durable daemon killed with SIGKILL restarts from its last
/// `/v1/snapshot`: `restored`, the monitor still calibrated with its
/// `windows_closed` unchanged, and a shifted batch alarms at once.
#[test]
fn kill_nine_restart_keeps_calibrated_monitor() {
    let dir = temp_dir("crash");
    let columns = profile_dir(&dir);
    let profiles = dir.join("profiles");
    let state = dir.join("state");
    let args = ["--dir", profiles.to_str().unwrap(), "--state-dir", state.to_str().unwrap()];
    let ingest =
        format!("{{\"monitor\":\"smoke\",\"window\":50,\"calibrate\":2,\"patience\":2,\"columns\":{columns}}}");

    let first =
        Daemon::spawn(&[&args[..], &["--autosave-secs", "600"]].concat(), &dir.join("crash1.log"));
    let mut client = first.client();
    let health = json_of(&client.get("/healthz").unwrap());
    assert!(flag(&health, "durable") && !flag(&health, "restored"));
    // Ingest until the monitor is calibrated.
    let v = json_of(&client.request("POST", "/v1/ingest", ingest.as_bytes()).unwrap());
    assert!(flag(&v, "created"));
    let v = json_of(&client.request("POST", "/v1/ingest", ingest.as_bytes()).unwrap());
    assert!(flag(get(&v, "status").unwrap(), "calibrated") && !flag(&v, "alarm"));
    let windows =
        num(&json_of(&client.get("/v1/monitor?monitor=smoke").unwrap()), "windows_closed");
    assert!(windows >= 16.0, "windows_closed = {windows}");
    let snap = json_of(&client.request("POST", "/v1/snapshot", b"").unwrap());
    assert!(num(&snap, "monitors") == 1.0 && num(&snap, "bytes") > 0.0, "{snap:?}");
    // Recovery must come entirely from the /v1/snapshot file.
    first.kill_hard();

    let second = Daemon::spawn(&args, &dir.join("crash2.log"));
    let mut client = second.client();
    let health = json_of(&client.get("/healthz").unwrap());
    assert!(flag(&health, "durable") && flag(&health, "restored"));
    let status = json_of(&client.get("/v1/monitor?monitor=smoke").unwrap());
    assert!(flag(&status, "calibrated"));
    assert_eq!(num(&status, "windows_closed"), windows);
    // The restored calibration still catches a shift immediately.
    let shifted = format!("{{\"monitor\":\"smoke\",\"columns\":{}}}", smoke_data(true).1);
    let v = json_of(&client.request("POST", "/v1/ingest", shifted.as_bytes()).unwrap());
    assert!(flag(&v, "alarm"), "{v:?}");
    let log = second.terminate();
    assert!(log.contains("shut down cleanly"), "{log}");
    assert!(log.contains("cc_server state: saved"), "{log}");
}

/// The daemon answers what the CLI answers. On the learned batch and on
/// a shifted one, `ccsynth check --dump` on the CSV, `/v2/check` on its
/// JSON columns, and `/v2/check` on `ccsynth wire`'s CCOL encoding of
/// the CSV give bit-identical violations; a client that accepts CCOL
/// gets a CCOL-tagged reply. `ccsynth trace` lists checks by their
/// echoed trace ids.
#[test]
fn served_checks_match_the_cli_on_both_wires() {
    let dir = temp_dir("http_cli");
    profile_dir(&dir);
    let profiles = dir.join("profiles");
    let daemon = Daemon::spawn(&["--dir", path(&profiles)], &dir.join("serve.log"));
    let mut client = daemon.client();
    let health = json_of(&client.get("/healthz").unwrap());
    assert_eq!(get(&health, "status").and_then(as_str), Some("ok"));
    assert!(num(&health, "profiles") == 1.0 && !flag(&health, "durable"), "{health:?}");

    let bits = |v: &Value| -> Vec<u64> {
        assert_eq!(num(v, "rows"), 400.0, "{v:?}");
        let Some(Value::Array(items)) = get(v, "violations") else { panic!("violations: {v:?}") };
        items.iter().map(|x| as_f64(x).unwrap().to_bits()).collect()
    };
    let mut traces = Vec::new();
    for shift in [false, true] {
        let token = format!("c0ffee012345678{}", shift as u8);
        let (csv, columns) = smoke_data(shift);
        let (data, batch) = (dir.join(format!("data_{shift}.csv")), dir.join("batch.bin"));
        std::fs::write(&data, csv).unwrap();
        let dump = ccsynth(&[
            "check",
            path(&data),
            "--profile",
            path(&profiles.join("smoke.json")),
            "--dump",
        ]);
        let cli: Vec<u64> = dump
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<f64>().unwrap().to_bits())
            .collect();
        assert_eq!(cli.iter().any(|&v| v != 0), shift, "only the shifted batch violates");

        let json_body = format!("{{\"columns\":{columns}}}");
        let resp = client
            .request_with("POST", "/v2/check", json_body.as_bytes(), &[("x-ccsynth-trace", &token)])
            .unwrap();
        assert_eq!(bits(&json_of(&resp)), cli, "JSON /v2/check vs check --dump");
        assert_eq!(header(&resp, "x-ccsynth-trace"), Some(token.as_str()));
        traces.push(token);

        ccsynth(&["wire", path(&data), "--out", path(&batch)]);
        let ccol = std::fs::read(&batch).unwrap();
        let resp = client
            .request_with("POST", "/v2/check", &ccol, &[("content-type", CONTENT_TYPE_COLUMNAR)])
            .unwrap();
        assert_eq!(bits(&json_of(&resp)), cli, "CCOL /v2/check vs check --dump");
        traces.extend(header(&resp, "x-ccsynth-trace").map(str::to_owned));
        let both = [("content-type", CONTENT_TYPE_COLUMNAR), ("accept", CONTENT_TYPE_COLUMNAR)];
        let resp = client.request_with("POST", "/v2/check", &ccol, &both).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(header(&resp, "content-type"), Some(CONTENT_TYPE_COLUMNAR));
        assert!(resp.body.starts_with(b"CCOL"), "reply is not a CCOL frame");
        let reply: Vec<u64> =
            decode_violations(&resp.body).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(reply, cli, "CCOL reply vs check --dump");
        traces.extend(header(&resp, "x-ccsynth-trace").map(str::to_owned));
    }
    assert_eq!(traces.len(), 6, "every traced reply echoes its id");

    // The slow table holds three of the six checks, each by an echoed
    // id. /v2/check requests carry the stable `/v1/check` endpoint label.
    let addr = daemon.addr.to_string();
    let report = ccsynth(&["trace", &addr, "--top", "3", "--endpoint", "/v1/check"]);
    assert!(report.contains("trace buffer: 4096 spans/thread (enabled)"), "{report}");
    let listed = report
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|id| traces.iter().any(|t| t == id))
        .count();
    assert_eq!(listed, 3, "three echoed trace ids in:\n{report}");

    let text = client.get("/metrics").unwrap().text().to_owned();
    assert_eq!(metric(&text, "cc_server_requests_total{endpoint=\"/v1/check\",code=\"2xx\"}"), 6.0);
    assert_eq!(metric(&text, "cc_server_wire_requests_total{wire=\"columnar\"}"), 4.0);
    let reload = json_of(&client.request("POST", "/v2/profiles/reload", b"").unwrap());
    assert_eq!(num(&reload, "generation"), 2.0);
    let log = daemon.terminate();
    assert!(log.contains("cc_server shut down cleanly"), "{log}");
}

/// A daemon that logs JSON lines to a file and watches itself, set up by
/// flags alone: the banner names both, the log file holds one boot line
/// with a 16-hex trace id, and once self-watch has calibrated under load
/// `ccsynth ops` reports a healthy, quiet daemon.
#[test]
fn self_watching_daemon_logs_to_file_and_reports_through_ops() {
    let dir = temp_dir("selfwatch");
    let columns = profile_dir(&dir);
    let jsonl = dir.join("selfwatch.jsonl");
    let profiles = dir.join("profiles");
    let daemon = Daemon::spawn(
        &[
            "--dir",
            path(&profiles),
            "--log-level",
            "info",
            "--log-file",
            path(&jsonl),
            "--self-watch",
            "25",
        ],
        &dir.join("serve.log"),
    );
    let logging = format!("logging: level info -> {}", path(&jsonl));
    poll("the logging and self-watch banner lines", || {
        let banner = std::fs::read_to_string(&daemon.log).unwrap();
        (banner.contains("self-watch: sampling every 25ms") && banner.contains(&logging))
            .then_some(())
    });
    let boot: Vec<Value> = poll("the boot line in the log file", || {
        let text = std::fs::read_to_string(&jsonl).unwrap_or_default();
        // Only whole lines: the daemon may be mid-write.
        let whole = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
        let boot: Vec<Value> = whole
            .lines()
            .map(|l| serde_json::from_str::<Value>(l).unwrap())
            .filter(|r| {
                get(r, "msg").and_then(as_str).is_some_and(|m| m.contains("cc_server listening on"))
            })
            .collect();
        (!boot.is_empty()).then_some(boot)
    });
    assert_eq!(boot.len(), 1, "{boot:?}");
    assert_eq!(get(&boot[0], "level").and_then(as_str), Some("info"));
    let trace = get(&boot[0], "trace").and_then(as_str).unwrap_or_default();
    assert!(trace.len() == 16 && trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");

    let body = format!("{{\"columns\":{columns}}}");
    let mut client = daemon.client();
    poll("self-watch to calibrate under /v2/check load", || {
        assert_eq!(client.request("POST", "/v2/check", body.as_bytes()).unwrap().status, 200);
        flag(&json_of(&client.get("/v2/self").unwrap()), "calibrated").then_some(())
    });
    let addr = daemon.addr.to_string();
    let report = ccsynth(&["ops", &addr]);
    for line in ["health: ok", "self-watch: ", "cc_server_self_alarm = 0"] {
        assert!(report.contains(line), "ops report lacks '{line}':\n{report}");
    }
    let joined: Value = serde_json::from_str(&ccsynth(&["ops", &addr, "--json"])).unwrap();
    let selfv = get(&joined, "self").unwrap_or_else(|| panic!("ops --json lacks self: {joined:?}"));
    assert!(flag(selfv, "calibrated") && flag(selfv, "synthesized"), "{selfv:?}");
    assert!(!flag(selfv, "degraded") && !flag(get(selfv, "status").unwrap(), "alarm"), "{selfv:?}");
    let log = daemon.terminate();
    assert!(log.contains("cc_server shut down cleanly"), "{log}");
}

/// A fleet configured only by flags: two `--role shard` daemons and a
/// coordinator over both. Ten 400-row epochs, the last four shifted, go
/// round-robin to the shards and in order to a single node; the
/// coordinator's merged monitor status is then byte-equal to the single
/// node's, `ccsynth fleet` names the coordinator and both shards, and
/// all four daemons shut down cleanly.
#[test]
fn flag_configured_fleet_serves_the_single_node_answer() {
    let dir = temp_dir("fleet");
    let columns = profile_dir(&dir);
    let profiles = dir.join("profiles");
    let start = |name: &str, role: &[&str]| {
        Daemon::spawn(
            &[&["--dir", path(&profiles)], role].concat(),
            &dir.join(format!("{name}.log")),
        )
    };
    let shard_a = start("shard_a", &["--role", "shard"]);
    let shard_b = start("shard_b", &["--role", "shard"]);
    let single = start("single", &[]);
    let (a, b) = (shard_a.addr.to_string(), shard_b.addr.to_string());
    let coordinator = ["--role", "coordinator", "--shard", &a, "--shard", &b, "--pull-ms", "50"];
    let coord = start("coord", &coordinator);

    let ingest = |cols: &str| {
        format!("{{\"window\":400,\"calibrate\":2,\"patience\":2,\"columns\":{cols}}}")
    };
    let (steady, shifted) = (ingest(&columns), ingest(&smoke_data(true).1));
    let mut shards = [shard_a.client(), shard_b.client()];
    let mut oracle = single.client();
    for g in 0..10 {
        let body = if g < 6 { &steady } else { &shifted };
        for client in [&mut shards[g % 2], &mut oracle] {
            let resp =
                client.request("POST", "/v2/monitors/smoke/ingest", body.as_bytes()).unwrap();
            assert_eq!(num(&json_of(&resp), "rows"), 400.0, "epoch {g}");
        }
    }
    let want = oracle.get("/v2/monitors/smoke").unwrap();
    let w = json_of(&want);
    assert_eq!((num(&w, "windows_closed"), num(&w, "rows_ingested")), (10.0, 4000.0));
    assert!(flag(&w, "alarm"), "the shifted tail must alarm: {w:?}");

    let mut client = coord.client();
    let merged = poll("the coordinator to merge all 10 epochs", || {
        let resp = client.get("/v2/monitors/smoke").unwrap();
        (resp.status == 200 && num(&resp.json().unwrap(), "windows_closed") == 10.0).then_some(resp)
    });
    assert_eq!(merged.text(), want.text(), "merged status must be byte-equal to the single node's");

    let report = ccsynth(&["fleet", &coord.addr.to_string()]);
    for needle in ["role: coordinator", &a, &b] {
        assert!(report.contains(needle), "fleet report lacks '{needle}':\n{report}");
    }
    for daemon in [coord, single, shard_a, shard_b] {
        let log = daemon.terminate();
        assert!(log.contains("cc_server shut down cleanly"), "{log}");
    }
}
