//! HTTP serving throughput: the `cc_server` daemon driven over loopback
//! with concurrent keep-alive connections, on both wire encodings.
//!
//! ```text
//! cargo run --release -p cc_bench --bin bench_serve [total_rows] [workers]
//! ```
//!
//! Synthesizes a profile, writes it to a registry directory, starts the
//! daemon in-process on an ephemeral port, then sweeps a
//! wire × connections grid — JSON and binary columnar bodies, each from
//! 1, 2, and 4 concurrent keep-alive clients — pushing `total_rows`
//! tuples through `POST /v1/check` per cell. The measured number is
//! end-to-end wall-clock rows/s **through the HTTP path**: request
//! bytes on the socket, the daemon's decode → compiled-plan evaluation →
//! reply encode, and the client reading the reply.
//!
//! Accounting is reconciled, not assumed: every request the benchmark
//! sends is tallied as either warmup (correctness gates + connection
//! priming, off the clock) or measured, and at the end the daemon's own
//! `cc_server_rows_checked_total` must equal `warmup_rows +
//! measured_rows` exactly — if the driver and the server disagree about
//! how many rows were served, the run aborts rather than reporting a
//! throughput built on miscounted work. One batch per connection per
//! wire is additionally checked bit-identical against the direct library
//! call; the worst observed delta is what lands in the report. The
//! headline `rows_per_sec` (what CI floors) is the best columnar cell.

use cc_bench::median;
use cc_frame::DataFrame;
use cc_server::obs::Level;
use cc_server::wire::CONTENT_TYPE_COLUMNAR;
use cc_server::{HttpClient, ProfileRegistry, SelfWatchConfig, Server, ServerConfig};
use conformance::{synthesize, CompiledProfile, SynthOptions};
use serde_json::Value;
use std::time::Instant;

/// Rows per `/v1/check` request.
const BATCH_ROWS: usize = 4096;

/// Concurrent keep-alive clients, swept per wire encoding.
const CONNECTIONS: [usize; 3] = [1, 2, 4];

/// The serving workload: four numeric channels with one exact invariant
/// (`z = x + 2y + 1`) — representative arithmetic, wire-light enough
/// that the transport (not synthesis) is what's being measured.
fn serve_frame(n: usize, offset: usize) -> DataFrame {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut z = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    for j in 0..n {
        let i = j + offset;
        let t = i as f64 * 0.001;
        let noise = (((i * 2654435761) % 1000) as f64 / 500.0) - 1.0;
        let xv = t.sin() * 40.0 + noise;
        let yv = (t * 0.37).cos() * 25.0;
        x.push(xv);
        y.push(yv);
        z.push(xv + 2.0 * yv + 1.0);
        w.push(noise * 10.0);
    }
    let mut df = DataFrame::new();
    df.push_numeric("x", x).unwrap();
    df.push_numeric("y", y).unwrap();
    df.push_numeric("z", z).unwrap();
    df.push_numeric("w", w).unwrap();
    df
}

fn violations_of(resp: &Value) -> Vec<f64> {
    let Some(Value::Array(items)) = cc_server::json::get(resp, "violations") else {
        panic!("response lacks violations: {resp:?}");
    };
    items.iter().map(|v| cc_server::json::as_f64(v).expect("numeric violation")).collect()
}

/// One wire encoding's request machinery: the prebuilt body bytes per
/// connection and how to issue/decode a `/v1/check` round trip.
struct Wire {
    name: &'static str,
    /// `(body, source frame)` per connection slot.
    payloads: Vec<(Vec<u8>, DataFrame)>,
}

impl Wire {
    fn post(&self, client: &mut HttpClient, body: &[u8]) -> cc_server::ClientResponse {
        let resp = match self.name {
            "json" => client.request("POST", "/v1/check", body).expect("check"),
            _ => client
                .request_with(
                    "POST",
                    "/v1/check",
                    body,
                    &[("content-type", CONTENT_TYPE_COLUMNAR), ("accept", CONTENT_TYPE_COLUMNAR)],
                )
                .expect("check"),
        };
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        resp
    }

    fn violations(&self, resp: &cc_server::ClientResponse) -> Vec<f64> {
        match self.name {
            "json" => violations_of(&resp.json().expect("json response")),
            _ => cc_server::wire::decode_violations(&resp.body).expect("columnar reply"),
        }
    }
}

fn scrape_rows_checked(addr: std::net::SocketAddr) -> f64 {
    let metrics =
        HttpClient::connect(addr).and_then(|mut c| c.get("/metrics")).expect("metrics scrape");
    metrics
        .text()
        .lines()
        .find_map(|l| l.strip_prefix("cc_server_rows_checked_total "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("rows_checked metric")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let total_rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    println!("profiling training frame…");
    let train = serve_frame(50_000, 0);
    let profile = synthesize(&train, &SynthOptions::default()).expect("synthesis");
    let plan = CompiledProfile::compile(&profile);

    let dir = std::env::temp_dir().join(format!("bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp registry dir");
    std::fs::write(
        dir.join("bench.json"),
        serde_json::to_string_pretty(&profile).expect("profile serializes"),
    )
    .expect("write profile");

    let registry = ProfileRegistry::from_dir(&dir).expect("registry loads");
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_owned(), workers, ..ServerConfig::default() };
    let handle = Server::start(config, registry).expect("server starts");
    let addr = handle.addr();
    println!("daemon on http://{addr} ({workers} workers)");

    // Per-connection distinct batches (offset), serialized once up front
    // in both encodings so the timed loops measure the wire + server,
    // not body building.
    let max_conns = *CONNECTIONS.iter().max().expect("nonempty sweep");
    let frames: Vec<DataFrame> =
        (0..max_conns).map(|c| serve_frame(BATCH_ROWS, c * BATCH_ROWS)).collect();
    let wires = [
        Wire {
            name: "json",
            payloads: frames
                .iter()
                .map(|df| {
                    let body = serde_json::to_string(&cc_server::json::columns_body(df))
                        .expect("body serializes")
                        .into_bytes();
                    (body, df.clone())
                })
                .collect(),
        },
        Wire {
            name: "columnar",
            payloads: frames
                .iter()
                .map(|df| (cc_server::wire::encode_frame(df), df.clone()))
                .collect(),
        },
    ];
    for w in &wires {
        println!("{:>8} body: {} bytes / {BATCH_ROWS} rows", w.name, w.payloads[0].0.len());
    }

    // Every request sent is tallied into exactly one of these; the
    // daemon's own rows_checked counter must agree at the end.
    let mut warmup_rows = 0usize;
    let mut measured_rows = 0usize;
    let mut max_abs_delta = 0.0f64;

    // Correctness gate before any clock starts: every connection's batch
    // must round-trip bit-identically to the library path, per wire. The
    // measured (not assumed) worst delta is what lands in the report —
    // the CI jq floor checks the same number this loop computed.
    for wire in &wires {
        for (body, df) in &wire.payloads {
            let mut client = HttpClient::connect(addr).expect("connect");
            let resp = wire.post(&mut client, body);
            warmup_rows += df.n_rows();
            let got = wire.violations(&resp);
            let want = plan.violations(df).expect("library eval");
            assert_eq!(got.len(), want.len());
            let delta = got.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert_eq!(delta, 0.0, "{} HTTP path diverged from the library path", wire.name);
            max_abs_delta = max_abs_delta.max(delta);
        }
    }
    println!("bit-identity gate passed (HTTP ≡ library on both wires, max |Δ| = {max_abs_delta})");

    let mut runs: Vec<Value> = Vec::new();
    let mut best_columnar = 0.0f64;
    let mut best_json = 0.0f64;
    for wire in &wires {
        for &connections in &CONNECTIONS {
            let batches_per_conn = total_rows.div_ceil(BATCH_ROWS).div_ceil(connections);
            let run_rows = batches_per_conn * connections * BATCH_ROWS;
            // Fresh keep-alive connections per cell; one off-the-clock
            // priming request each (connection setup + warm caches).
            let mut clients: Vec<HttpClient> = Vec::with_capacity(connections);
            for c in 0..connections {
                let mut client = HttpClient::connect(addr).expect("connect");
                let (body, df) = &wire.payloads[c];
                wire.post(&mut client, body);
                warmup_rows += df.n_rows();
                clients.push(client);
            }

            let started = Instant::now();
            let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .enumerate()
                    .map(|(c, mut client)| {
                        let body = &wire.payloads[c].0;
                        scope.spawn(move || {
                            let mut lat = Vec::with_capacity(batches_per_conn);
                            for _ in 0..batches_per_conn {
                                let t = Instant::now();
                                wire.post(&mut client, body);
                                lat.push(t.elapsed().as_secs_f64());
                            }
                            lat
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect()
            });
            let seconds = started.elapsed().as_secs_f64();
            measured_rows += run_rows;
            let rows_per_sec = run_rows as f64 / seconds;
            if wire.name == "columnar" {
                best_columnar = best_columnar.max(rows_per_sec);
            } else {
                best_json = best_json.max(rows_per_sec);
            }

            let mut all_lat: Vec<f64> = latencies.into_iter().flatten().collect();
            all_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pct = |p: f64| all_lat[((all_lat.len() - 1) as f64 * p) as usize];
            let p50 = median(all_lat.clone()) * 1e3;
            println!(
                "{:>8} wire × {connections} conn: {run_rows} rows in {seconds:.2}s → {rows_per_sec:.0} rows/s  \
                 (batch p50 {p50:.1}ms, p95 {:.1}ms, p99 {:.1}ms)",
                wire.name,
                pct(0.95) * 1e3,
                pct(0.99) * 1e3,
            );
            runs.push(Value::Object(vec![
                ("wire".into(), Value::String(wire.name.into())),
                ("connections".into(), Value::Number(connections as f64)),
                ("rows".into(), Value::Number(run_rows as f64)),
                ("seconds".into(), Value::Number(seconds)),
                ("rows_per_sec".into(), Value::Number(rows_per_sec)),
                ("latency_p50_ms".into(), Value::Number(p50)),
                ("latency_p95_ms".into(), Value::Number(pct(0.95) * 1e3)),
                ("latency_p99_ms".into(), Value::Number(pct(0.99) * 1e3)),
            ]));
        }
    }

    // Reconcile: the daemon's row counter must equal our tally exactly.
    // Any drift means requests were double-counted, dropped, or retried
    // behind the driver's back — a benchmark-invalidating bug.
    let rows_counted = scrape_rows_checked(addr);
    let expected = (warmup_rows + measured_rows) as f64;
    assert_eq!(
        rows_counted, expected,
        "daemon counted {rows_counted} rows but the driver sent {warmup_rows} warmup + \
         {measured_rows} measured"
    );
    println!(
        "accounting reconciled: {warmup_rows} warmup + {measured_rows} measured = {rows_counted} \
         rows_checked_total"
    );
    println!(
        "best: json {best_json:.0} rows/s, columnar {best_columnar:.0} rows/s ({:.1}× binary speedup)",
        best_columnar / best_json
    );

    // Trace-overhead leg: the same single-connection columnar workload
    // against two fresh daemons — one with the flight recorder disabled
    // (`trace_buffer: 0`), one with the default ring — so the main
    // server's row reconciliation above stays untouched. Legs are
    // interleaved and each side keeps its best-of-N (scheduler noise
    // shows up as slow outliers, never fast ones). `bench_floors.json`
    // gates the resulting `trace_overhead_frac` at ≤ 5%.
    let wire = &wires[1];
    assert_eq!(wire.name, "columnar");
    let overhead_batches = (total_rows / 4).div_ceil(BATCH_ROWS).max(8);
    let start_with = |config: ServerConfig| {
        let registry = ProfileRegistry::from_dir(&dir).expect("registry loads");
        Server::start(config, registry).expect("server starts")
    };
    let start_server = |trace_buffer: usize| {
        start_with(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            trace_buffer,
            ..ServerConfig::default()
        })
    };
    let untraced = start_server(0);
    let traced = start_server(cc_trace::DEFAULT_BUFFER);
    // The gate the overhead numbers rest on: the disabled daemon must
    // answer without any trace header, the traced one with it.
    for (handle, want) in [(&untraced, false), (&traced, true)] {
        let mut client = HttpClient::connect(handle.addr()).expect("connect");
        let resp = wire.post(&mut client, &wire.payloads[0].0);
        assert_eq!(
            resp.headers.iter().any(|(n, _)| n == "x-ccsynth-trace"),
            want,
            "trace header presence must follow trace_buffer"
        );
    }
    let time_leg = |handle: &cc_server::ServerHandle| -> f64 {
        let body = &wire.payloads[0].0;
        let mut client = HttpClient::connect(handle.addr()).expect("connect");
        wire.post(&mut client, body); // prime the connection, off the clock
        let started = Instant::now();
        for _ in 0..overhead_batches {
            wire.post(&mut client, body);
        }
        (overhead_batches * BATCH_ROWS) as f64 / started.elapsed().as_secs_f64()
    };
    const OVERHEAD_REPS: usize = 5;
    let mut untraced_best = 0.0f64;
    let mut traced_best = 0.0f64;
    for _ in 0..OVERHEAD_REPS {
        untraced_best = untraced_best.max(time_leg(&untraced));
        traced_best = traced_best.max(time_leg(&traced));
    }
    untraced.shutdown();
    traced.shutdown();
    let trace_overhead_frac = (1.0 - traced_best / untraced_best).max(0.0);
    println!(
        "trace overhead: untraced {untraced_best:.0} rows/s vs traced {traced_best:.0} rows/s → \
         {:.2}% ({overhead_batches} batches × {OVERHEAD_REPS} reps, best-of)",
        trace_overhead_frac * 100.0
    );

    // Log-overhead leg, same interleaved best-of-N shape: one daemon
    // with the structured logger off entirely, one at the `info`
    // default (per-request completions log at debug, so the steady-
    // state cost is one atomic level check per request plus the boot
    // lines). `bench_floors.json` gates `log_overhead_frac` at ≤ 2%.
    let start_logged = |level: Level| {
        start_with(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            log_level: level,
            ..ServerConfig::default()
        })
    };
    let unlogged = start_logged(Level::Off);
    let logged = start_logged(Level::Info);
    // Gate: the info daemon's ring holds its boot lines, the off
    // daemon's ring stays empty — the legs really differ only in level.
    for (handle, want_logs) in [(&unlogged, false), (&logged, true)] {
        let logs = HttpClient::connect(handle.addr())
            .and_then(|mut c| c.get("/v1/logs"))
            .expect("logs scrape");
        let v = logs.json().expect("logs body");
        let emitted =
            cc_server::json::get(&v, "emitted").and_then(cc_server::json::as_f64).expect("emitted");
        assert_eq!(emitted > 0.0, want_logs, "log emission must follow the configured level");
    }
    let mut unlogged_best = 0.0f64;
    let mut logged_best = 0.0f64;
    for _ in 0..OVERHEAD_REPS {
        unlogged_best = unlogged_best.max(time_leg(&unlogged));
        logged_best = logged_best.max(time_leg(&logged));
    }
    unlogged.shutdown();
    logged.shutdown();
    let log_overhead_frac = (1.0 - logged_best / unlogged_best).max(0.0);
    println!(
        "log overhead: off {unlogged_best:.0} rows/s vs info {logged_best:.0} rows/s → \
         {:.2}% ({overhead_batches} batches × {OVERHEAD_REPS} reps, best-of)",
        log_overhead_frac * 100.0
    );

    // Self-watch stationary leg: a daemon metering itself on a fast
    // cadence under perfectly steady columnar load must never alarm —
    // the meta-monitor's false-positive gate (`self_alarms == 0` in
    // `bench_floors.json`). The load runs until the `__self` detector
    // calibrates, then for the full measured stretch.
    let selfwatched = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        self_watch: Some(SelfWatchConfig {
            interval: std::time::Duration::from_millis(25),
            warmup: 8,
            window: 4,
            calibration_windows: 2,
            patience: 3,
        }),
        ..ServerConfig::default()
    });
    let self_scrape = |field: &str| -> f64 {
        let resp = HttpClient::connect(selfwatched.addr())
            .and_then(|mut c| c.get("/v1/self"))
            .expect("self scrape");
        let v = resp.json().expect("self body");
        match cc_server::json::get(&v, field) {
            Some(Value::Bool(b)) => f64::from(u8::from(*b)),
            other => other.and_then(cc_server::json::as_f64).unwrap_or(0.0),
        }
    };
    let body = &wire.payloads[0].0;
    let mut client = HttpClient::connect(selfwatched.addr()).expect("connect");
    let calibrate_deadline = Instant::now() + std::time::Duration::from_secs(60);
    while self_scrape("calibrated") == 0.0 {
        wire.post(&mut client, body);
        assert!(Instant::now() < calibrate_deadline, "self-watch never calibrated under load");
    }
    let started = Instant::now();
    for _ in 0..overhead_batches {
        wire.post(&mut client, body);
    }
    let selfwatch_rows_per_sec =
        (overhead_batches * BATCH_ROWS) as f64 / started.elapsed().as_secs_f64();
    let self_alarms = {
        let resp = HttpClient::connect(selfwatched.addr())
            .and_then(|mut c| c.get("/v1/self"))
            .expect("self scrape");
        let v = resp.json().expect("self body");
        cc_server::json::get(&v, "status")
            .and_then(|s| cc_server::json::get(s, "alarms_total"))
            .and_then(cc_server::json::as_f64)
            .expect("alarms_total")
    };
    selfwatched.shutdown();
    println!(
        "self-watch stationary leg: {selfwatch_rows_per_sec:.0} rows/s, {self_alarms} self \
         alarm(s) across the run"
    );

    // Headline numbers (what `bench_floors.json` gates) are the best
    // columnar cell; the full grid rides along under "runs".
    let report = Value::Object(vec![
        ("benchmark".into(), Value::String("serve_http_check".into())),
        ("batch_rows".into(), Value::Number(BATCH_ROWS as f64)),
        ("workers".into(), Value::Number(workers as f64)),
        ("constraints".into(), Value::Number(plan.constraint_count() as f64)),
        ("warmup_rows".into(), Value::Number(warmup_rows as f64)),
        ("measured_rows".into(), Value::Number(measured_rows as f64)),
        ("rows_checked_metric".into(), Value::Number(rows_counted)),
        ("max_abs_delta".into(), Value::Number(max_abs_delta)),
        ("rows_per_sec".into(), Value::Number(best_columnar)),
        ("rows_per_sec_json".into(), Value::Number(best_json)),
        ("rows_per_sec_traced".into(), Value::Number(traced_best)),
        ("rows_per_sec_untraced".into(), Value::Number(untraced_best)),
        ("trace_overhead_frac".into(), Value::Number(trace_overhead_frac)),
        ("rows_per_sec_logged".into(), Value::Number(logged_best)),
        ("rows_per_sec_unlogged".into(), Value::Number(unlogged_best)),
        ("log_overhead_frac".into(), Value::Number(log_overhead_frac)),
        ("rows_per_sec_selfwatch".into(), Value::Number(selfwatch_rows_per_sec)),
        ("self_alarms".into(), Value::Number(self_alarms)),
        ("runs".into(), Value::Array(runs)),
    ]);
    std::fs::write(
        "BENCH_serve.json",
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
    .expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
