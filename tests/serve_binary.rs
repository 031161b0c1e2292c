//! The real `ccsynth serve` binary, spawned as its own process.
//!
//! The flight recorder's phase aggregates are process-global, so an
//! in-process test server shares them with every traced server in the
//! same test binary; only a separate process shows what one daemon
//! configuration really counts. The crash-recovery test needs a process
//! anyway: it is killed with SIGKILL and restarted on the same state
//! directory.
#![cfg(unix)]

use ccsynth::server::json::{as_f64, get};
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
/// the CSV the profile is learned from and the matching JSON columns
/// (the same cell text in both).
fn smoke_data() -> (String, String) {
    let mut csv = String::from("x,y,z,regime\n");
    let (mut xs, mut ys, mut zs, mut rs) = (vec![], vec![], vec![], vec![]);
    for i in 0..400 {
        let r = i % 3;
        let x = format!("{:.10}", (i as f64 * 0.37).sin() * 20.0);
        let y = ((i * 13) % 41) as i64 - 20;
        let z = format!("{:.10}", x.parse::<f64>().unwrap() + (r + 1) as f64 * y as f64);
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

/// Writes the smoke CSV into `dir` and `ccsynth profile`s it into
/// `dir/profiles/smoke.json`; returns the JSON columns.
fn profile_dir(dir: &Path) -> String {
    let (csv, columns) = smoke_data();
    let data = dir.join("data.csv");
    std::fs::write(&data, csv).unwrap();
    std::fs::create_dir_all(dir.join("profiles")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ccsynth"))
        .arg("profile")
        .arg(&data)
        .arg("--out")
        .arg(dir.join("profiles/smoke.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    columns
}

/// With span rings off (`--trace-buffer 0`), every request still lands
/// in the per-phase latency cells: `/metrics` counts each check's
/// `handle` phase, and self-watch samples a nonzero `handle_ms` under
/// load.
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
    let Value::Object(mut cols) = serde_json::from_str::<Value>(&columns).unwrap() else {
        panic!("columns object")
    };
    for (name, col) in &mut cols {
        if name == "z" {
            let Value::Array(zs) = col else { panic!("z array") };
            for z in zs {
                *z = Value::Number(as_f64(z).unwrap() * 3.0 + 40.0);
            }
        }
    }
    let shifted = serde_json::to_string(&Value::Object(vec![
        ("monitor".to_owned(), Value::String("smoke".into())),
        ("columns".to_owned(), Value::Object(cols)),
    ]))
    .unwrap();
    let v = json_of(&client.request("POST", "/v1/ingest", shifted.as_bytes()).unwrap());
    assert!(flag(&v, "alarm"), "{v:?}");
    let log = second.terminate();
    assert!(log.contains("shut down cleanly"), "{log}");
    assert!(log.contains("cc_server state: saved"), "{log}");
}
