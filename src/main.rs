//! `ccsynth` — command-line interface to conformance-constraint discovery.
//!
//! ```text
//! ccsynth profile <data.csv> --out <profile.json> [--drop <col>]... [--shards <n>]
//! ccsynth check   <data.csv> --profile <profile.json> [--threshold <t>] [--threads <n>] [--top <k>] [--dump]
//! ccsynth drift   <data.csv> --profile <profile.json> [--threads <n>] [--window <n> [--stride <s>]]
//! ccsynth monitor <data.csv|-> --profile <profile.json> [--window <n>] [--stride <s>] [--detector <d>] [--calibrate <k>] [--threads <t>]
//! ccsynth explain <profile.json> <train.csv> <serve.csv> [--sample <n>]
//! ccsynth sql     <profile.json> <table_name>
//! ccsynth serve   [--dir <profiles-dir>] [--profile <file>]... [--addr <host:port>] [--workers <n>]
//! ccsynth trace   <host:port> [--top <k>] [--min-us <n>] [--endpoint <e>] [--monitor <m>] [--json]
//! ccsynth wire    <data.csv> --out <batch.bin>
//! ```
//!
//! Profiles are stored as JSON, portable across machines, and round-trip
//! **bit-exactly** (shortest-round-trip `f64` formatting): `profile --out`
//! writes the file once, and `check` / `drift` / `serve` evaluate it
//! without ever re-synthesizing. `check`/`drift` also accept the profile
//! as a leading positional (`ccsynth check <profile.json> <data.csv>`),
//! the original spelling. `serve` starts the `cc_server` daemon over a
//! directory of profiles and hot-reloads them on `POST /v1/reload`.
//!
//! Every subcommand takes `--help` (exit 0); usage errors exit 2;
//! runtime failures (missing files, malformed data) exit 1.

use ccsynth::cli::{parse, CliError, Flag, Parsed};
use ccsynth::conformance::explain::mean_responsibility;
use ccsynth::conformance::{
    breakdown_from_plan, dataset_drift_parallel, profile_to_sql, synthesize_parallel, top_k_desc,
    CompiledProfile, ConformanceProfile, DriftAggregator, SynthOptions,
};
use ccsynth::frame::{read_csv, DataFrame};
use ccsynth::monitor::{DetectorKind, MonitorConfig, OnlineMonitor, WindowSpec};
use ccsynth::server::{LogSink, ProfileRegistry, SelfWatchConfig, Server, ServerConfig};
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "usage:
  ccsynth profile <data.csv> --out <profile.json> [--drop <col>]... [--shards <n>]
  ccsynth check   <data.csv> --profile <profile.json> [--threshold <t>] [--threads <n>] [--top <k>] [--dump]
  ccsynth drift   <data.csv> --profile <profile.json> [--threads <n>] [--window <n> [--stride <s>]]
  ccsynth monitor <data.csv|-> (--profile <profile.json> | --resume <snapshot>) [--window <n>] [--stride <s>] [--detector <d>] [--calibrate <k>] [--patience <p>] [--threads <t>] [--propose-out <f>] [--state-out <f>]
  ccsynth explain <profile.json> <train.csv> <serve.csv> [--sample <n>]
  ccsynth sql     <profile.json> <table_name>
  ccsynth serve   [--dir <profiles-dir>] [--profile <file>]... [--addr <host:port>] [--workers <n>] [--max-body-mb <n>] [--state-dir <d>] [--autosave-secs <n>] [--trace-buffer <n>] [--log-level <l>] [--log-file <f>] [--self-watch <ms|off>] [--role standalone|shard|coordinator] [--shard <host:port>]... [--pull-ms <n>] [--export-cap <n>]
  ccsynth trace   <host:port> [--top <k>] [--min-us <n>] [--endpoint <e>] [--monitor <m>] [--limit <n>] [--json]
  ccsynth ops     <host:port> [--json]
  ccsynth fleet   <host:port> [--json]
  ccsynth wire    <data.csv> --out <batch.bin>";

/// Per-subcommand usage lines (printed on `--help` and usage errors).
fn usage_of(cmd: &str) -> &'static str {
    match cmd {
        "profile" => {
            "usage: ccsynth profile <data.csv> --out <profile.json> [--drop <col>]... [--shards <n>]\n
Synthesizes a conformance profile from a CSV and writes it as JSON
(loadable by check/drift/serve and by the cc_server registry).
  --out <file>    output path for the profile JSON (alias: -o)
  --drop <col>    exclude a column from synthesis (repeatable)
  --shards <n>    synthesis shards (bit-identical to sequential)"
        }
        "check" => {
            "usage: ccsynth check <data.csv> --profile <profile.json> [--threshold <t>] [--threads <n>] [--top <k>] [--dump]\n
Scores every tuple through the compiled serving plan.
  --profile <f>   profile JSON written by `ccsynth profile --out`
                  (may also be given as a leading positional)
  --threshold <t> unsafe cutoff in [0,1] (default 0.1)
  --threads <n>   evaluation threads
  --top <k>       print the k worst rows + most-violated constraints
  --dump          emit per-tuple violations as CSV"
        }
        "drift" => {
            "usage: ccsynth drift <data.csv> --profile <profile.json> [--threads <n>] [--window <n> [--stride <s>]]\n
Mean / p95 / max drift of a dataset against a stored profile.
With --window, emits the windowed drift series instead (one line per
complete window; --stride must divide --window, default --window).
  --profile <f>   profile JSON (may also be a leading positional)
  --threads <n>   evaluation threads
  --window <n>    windowed series mode: rows per window
  --stride <s>    rows between window starts (requires --window)"
        }
        "monitor" => {
            "usage: ccsynth monitor <data.csv|-> (--profile <profile.json> | --resume <snapshot>) [--window <n>] [--stride <s>] [--detector <d>] [--calibrate <k>] [--patience <p>] [--threads <t>] [--propose-out <f>] [--state-out <f>]\n
Online conformance monitoring: tails CSV tuples from a file or stdin
('-'), scores each through the compiled profile, closes tumbling or
sliding windows, runs change-point detection on the drift series, and
proposes a resynthesized profile on sustained alarm.
  --profile <f>     profile JSON written by `ccsynth profile --out`
  --resume <f>      resume from a monitor state snapshot (written by
                    --state-out); carries the profile, geometry, detector
                    calibration, windows, and counters — so the geometry/
                    detector flags and --profile conflict with it
  --window <n>      rows per window (default 512)
  --stride <s>      rows between closes; must divide --window (default --window)
  --detector <d>    ewma | cusum | page-hinkley (default cusum)
  --calibrate <k>   windows forming the detector baseline (default 8)
  --patience <p>    consecutive alarmed windows before proposing (default 3)
  --threads <t>     score-phase threads per chunk (default 1; results are
                    bit-identical for every value)
  --propose-out <f> write the pending proposed profile JSON at exit
  --state-out <f>   write the monitor state snapshot at exit (resumable
                    via --resume, bit-identical continuation)"
        }
        "explain" => {
            "usage: ccsynth explain <profile.json> <train.csv> <serve.csv> [--sample <n>]\n
ExTuNe: ranks attributes by responsibility for non-conformance.
  --sample <n>    serving tuples to explain (default 200)"
        }
        "sql" => "usage: ccsynth sql <profile.json> <table_name>\n\nRenders the profile as a SQL CHECK-style guard for a table.",
        "serve" => {
            "usage: ccsynth serve [--dir <profiles-dir>] [--profile <file>]... [--addr <host:port>] [--workers <n>] [--max-body-mb <n>] [--state-dir <d>] [--autosave-secs <n>] [--trace-buffer <n>] [--log-level <l>] [--log-file <f>] [--self-watch <ms|off>] [--role standalone|shard|coordinator] [--shard <host:port>]... [--pull-ms <n>] [--export-cap <n>]\n
Starts the cc_server daemon over a directory (or explicit files) of
profile JSON. Resource routes under /v2: GET/POST /v2/monitors/…,
/v2/profiles/…, /v2/check, /v2/explain, /v2/drift, /v2/snapshot,
/v2/trace, /v2/logs, /v2/self, /v2/fleet/shards; plus GET /healthz and
/metrics. The /v1 routes remain as deprecated aliases (byte-compatible
bodies, Deprecation + successor Link headers).
SIGINT/SIGTERM shut down gracefully (in-flight requests complete).
Batch endpoints also speak the binary columnar wire format
(Content-Type/Accept: application/x-ccsynth-columnar; see
`ccsynth wire`).
  --dir <d>           serve every *.json in d (default: profiles/)
  --profile <f>       serve an explicit profile file (repeatable)
  --addr <a>          bind address (default 127.0.0.1:8642; port 0 = ephemeral)
  --workers <n>       worker threads (default 4); each serves one
                      connection at a time, and idle keep-alive
                      connections take turns in 200 ms slices
  --max-body-mb <n>   request body limit in MiB (default 32)
  --state-dir <d>     durable state: restore on boot (corrupt snapshots
                      quarantined), snapshot on shutdown and on
                      POST /v1/snapshot
  --autosave-secs <n> also snapshot every n seconds (requires --state-dir)
  --trace-buffer <n>  per-thread flight-recorder capacity in spans
                      (default 4096; 0 turns span rings and trace ids
                      off; per-phase latency metrics still count)
  --log-level <l>     structured-log threshold: debug, info (default),
                      warn, error, off; queryable via GET /v1/logs
  --log-file <f>      append JSON log lines to f instead of stderr
  --self-watch <m>    meta-monitor sampling interval in ms (default
                      1000), or 'off'; the server folds its own
                      latency/error/queue telemetry into the reserved
                      '__self' monitor and reports via GET /v1/self
  --role <r>          fleet role: standalone (default), shard (export
                      closed windows as deltas via
                      GET /v2/monitors/{name}/deltas), or coordinator
                      (merge shard deltas; rejects direct ingest)
  --shard <a>         a shard address to poll (coordinator only;
                      repeatable — order fixes epoch ownership:
                      shard s owns global windows g ≡ s mod N)
  --pull-ms <n>       coordinator poll interval in ms (default 500)
  --export-cap <n>    closed windows a shard retains for lagging
                      coordinators (default 1024)"
        }
        "trace" => {
            "usage: ccsynth trace <host:port> [--top <k>] [--min-us <n>] [--endpoint <e>] [--monitor <m>] [--limit <n>] [--json]\n
Fetches GET /v1/trace from a running daemon and prints the slowest
requests (with per-phase breakdown) plus a summary of recent spans.
Trace ids propagate via the X-Ccsynth-Trace request header and are
echoed on every traced response.
  --top <k>       slowest-request rows to show (default 10)
  --min-us <n>    only spans at least n microseconds long
  --endpoint <e>  only server spans for one endpoint (e.g. /v1/check)
  --monitor <m>   only ingest-pipeline spans for one monitor
  --limit <n>     span-list length to request (default 256)
  --json          dump the raw /v1/trace JSON instead of tables"
        }
        "ops" => {
            "usage: ccsynth ops <host:port> [--json]\n
One-stop operational report for a running daemon: joins GET /healthz,
/v1/self, /metrics, and /v1/trace into a single health + self-watch +
throughput + latency summary.
  --json          dump the joined JSON instead of the report"
        }
        "fleet" => {
            "usage: ccsynth fleet <host:port> [--json]\n
Fetches GET /v2/fleet/shards from a running daemon and prints the
node's fleet role, shard membership with poll health and merge lag,
and the merged monitors' epoch cursors.
  --json          dump the raw /v2/fleet/shards JSON instead of tables"
        }
        "wire" => {
            "usage: ccsynth wire <data.csv> --out <batch.bin>\n
Encodes a CSV batch into the binary columnar wire format (magic 'CCOL',
f64 LE column planes, u32 dictionary-code planes) for POSTing to the
daemon's batch endpoints with
  curl --data-binary @batch.bin -H 'content-type: application/x-ccsynth-columnar'
  --out <file>    output path for the encoded batch (alias: -o)"
        }
        _ => USAGE,
    }
}

fn load_csv(path: &str) -> Result<DataFrame, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv(BufReader::new(f)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_profile(path: &str) -> Result<ConformanceProfile, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    serde_json::from_reader(BufReader::new(f))
        .map_err(|e| format!("cannot parse profile {path}: {e}"))
}

/// Resolves the `(profile path, data path)` pair for `check`/`drift`:
/// either `--profile <f> <data.csv>` or the legacy positional form
/// `<profile.json> <data.csv>`.
fn profile_and_data(p: &Parsed, cmd: &str) -> Result<(String, String), CliError> {
    match (p.value("--profile"), p.positionals()) {
        (Some(profile), [data]) => Ok((profile.to_owned(), data.clone())),
        (None, [profile, data]) => Ok((profile.clone(), data.clone())),
        _ => Err(CliError::Usage(format!(
            "{cmd} needs <data.csv> plus --profile <profile.json> (or both as positionals)"
        ))),
    }
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let flags = [Flag::value("--out").alias("-o"), Flag::multi("--drop"), Flag::value("--shards")];
    let p = parse(args, &flags)?;
    let [data_path] = p.positionals() else {
        return Err(CliError::Usage("profile needs exactly one <data.csv>".into()));
    };
    let out_path = p
        .value("--out")
        .ok_or_else(|| CliError::Usage("profile needs --out <profile.json>".into()))?
        .to_owned();
    let shards = p.count_or("--shards", 1)?;
    let df = load_csv(data_path).map_err(CliError::Runtime)?;
    let opts = SynthOptions { drop_attributes: p.values("--drop"), ..Default::default() };
    let profile = synthesize_parallel(&df, &opts, shards)
        .map_err(|e| CliError::Runtime(format!("synthesis failed: {e}")))?;
    let json =
        serde_json::to_string_pretty(&profile).map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut f = File::create(&out_path)
        .map_err(|e| CliError::Runtime(format!("cannot write {out_path}: {e}")))?;
    f.write_all(json.as_bytes()).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "profiled {} rows × {} attributes ({} shard{}) → {} constraints → {out_path}",
        df.n_rows(),
        profile.numeric_attributes.len(),
        shards,
        if shards == 1 { "" } else { "s" },
        profile.constraint_count()
    );
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let flags = [
        Flag::value("--profile"),
        Flag::value("--threshold"),
        Flag::value("--threads"),
        Flag::value("--top"),
        Flag::switch("--dump"),
    ];
    let p = parse(args, &flags)?;
    let (profile_path, data_path) = profile_and_data(&p, "check")?;
    let threshold = p.f64_in_or("--threshold", 0.0, 1.0, 0.1)?;
    let threads = p.count_or("--threads", 1)?;
    let top = p.count_or("--top", 0)?;
    let profile = load_profile(&profile_path).map_err(CliError::Runtime)?;
    let df = load_csv(&data_path).map_err(CliError::Runtime)?;
    // Compile once, evaluate the whole frame through the blocked serving
    // engine (sharded over --threads).
    let plan = CompiledProfile::compile(&profile);
    let violations =
        plan.violations_parallel(&df, threads).map_err(|e| CliError::Runtime(e.to_string()))?;
    if p.has("--dump") {
        // One buffered writer, not a flushed syscall per row.
        let stdout = std::io::stdout();
        let mut w = std::io::BufWriter::new(stdout.lock());
        let mut dump = || -> std::io::Result<()> {
            writeln!(w, "row,violation")?;
            for (i, v) in violations.iter().enumerate() {
                writeln!(w, "{i},{v}")?;
            }
            Ok(())
        };
        return dump().map_err(|e| CliError::Runtime(e.to_string()));
    }
    let n = violations.len();
    let n_unsafe = violations.iter().filter(|&&v| v > threshold).count();
    let mean: f64 = violations.iter().sum::<f64>() / n.max(1) as f64;
    let max = violations.iter().fold(0.0f64, |m, &v| m.max(v));
    println!("rows:            {n}");
    println!("constraints:     {}", plan.constraint_count());
    println!("mean violation:  {mean:.4}");
    println!("max violation:   {max:.4}");
    println!(
        "unsafe (> {threshold}): {n_unsafe} ({:.1}%)",
        100.0 * n_unsafe as f64 / n.max(1) as f64
    );
    if top > 0 {
        // The shared O(n)-select ranking (same as the daemon's ?top=K).
        let order = top_k_desc(&violations, top);
        let top = order.len();
        println!("\ntop {top} offenders:");
        println!("{:<10} violation", "row");
        for &i in &order {
            println!("{i:<10} {:.4}", violations[i]);
        }
        let breakdown =
            breakdown_from_plan(&plan, &df).map_err(|e| CliError::Runtime(e.to_string()))?;
        println!("\nmost-violated constraints (mean weighted contribution):");
        for c in breakdown.iter().take(top) {
            println!("  {:.4}  {}", c.score, c.label);
        }
    }
    Ok(())
}

fn cmd_drift(args: &[String]) -> Result<(), CliError> {
    let flags = [
        Flag::value("--profile"),
        Flag::value("--threads"),
        Flag::value("--window"),
        Flag::value("--stride"),
    ];
    let p = parse(args, &flags)?;
    let (profile_path, data_path) = profile_and_data(&p, "drift")?;
    let threads = p.count_or("--threads", 1)?;
    // Validate the window geometry before touching any file: usage
    // errors must exit 2 regardless of whether the paths exist.
    let windowed = match p.value("--window") {
        Some(_) => {
            let window = p.count_or("--window", 512)?;
            let stride = p.count_or("--stride", window)?;
            Some(WindowSpec::new(window, stride).map_err(|e| CliError::Usage(e.to_string()))?)
        }
        None if p.value("--stride").is_some() => {
            return Err(CliError::Usage("--stride requires --window".into()));
        }
        None => None,
    };
    let profile = load_profile(&profile_path).map_err(CliError::Runtime)?;
    let df = load_csv(&data_path).map_err(CliError::Runtime)?;
    if let Some(spec) = windowed {
        return drift_series_mode(spec, threads, &profile, &df);
    }
    for (name, agg) in [
        ("mean", DriftAggregator::Mean),
        ("p95", DriftAggregator::Quantile(0.95)),
        ("max", DriftAggregator::Max),
    ] {
        let d = dataset_drift_parallel(&profile, &df, agg, threads)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        println!("{name:<5} drift: {d:.4}");
    }
    Ok(())
}

/// `drift --window N [--stride S]`: the windowed drift series over the
/// dataset, one line per complete window, through the monitor's window
/// iterator ([`WindowSpec::ranges`]) and a single compiled evaluation
/// pass.
fn drift_series_mode(
    spec: WindowSpec,
    threads: usize,
    profile: &ConformanceProfile,
    df: &DataFrame,
) -> Result<(), CliError> {
    let plan = CompiledProfile::compile(profile);
    let violations =
        plan.violations_parallel(df, threads).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("{:>7} {:>12} {:>10} {:>10} {:>10}", "window", "rows", "mean", "p95", "max");
    let mut windows = 0usize;
    for (i, range) in spec.ranges(df.n_rows()).enumerate() {
        let slice = &violations[range.clone()];
        let mean = DriftAggregator::Mean.aggregate(slice);
        let p95 = DriftAggregator::Quantile(0.95).aggregate(slice);
        let max = DriftAggregator::Max.aggregate(slice);
        println!(
            "{i:>7} {:>12} {mean:>10.4} {p95:>10.4} {max:>10.4}",
            format!("{}..{}", range.start, range.end)
        );
        windows += 1;
    }
    if windows == 0 {
        println!("(no complete window: {} rows < window {})", df.n_rows(), spec.window());
    }
    Ok(())
}

/// Streaming CSV reader for `ccsynth monitor`: parses lines with the
/// same record splitting as [`read_csv`], but types columns from the
/// profile (attributes the plan evaluates are numeric; everything else
/// categorical) so chunked reads can't flip types mid-stream.
struct CsvTail<R: std::io::BufRead> {
    reader: R,
    header: Vec<String>,
    numeric: Vec<bool>,
    line_no: usize,
}

impl<R: std::io::BufRead> CsvTail<R> {
    fn open(mut reader: R, numeric_attributes: &[String]) -> Result<Self, String> {
        let mut first = String::new();
        if reader.read_line(&mut first).map_err(|e| e.to_string())? == 0 {
            return Err("empty csv input".into());
        }
        let header: Vec<String> =
            ccsynth::frame::csv::split_line(first.trim_end_matches(['\r', '\n']));
        let numeric = header.iter().map(|h| numeric_attributes.contains(h)).collect();
        for a in numeric_attributes {
            if !header.contains(a) {
                return Err(format!("csv lacks profile attribute '{a}'"));
            }
        }
        Ok(CsvTail { reader, header, numeric, line_no: 1 })
    }

    /// Reads up to `max_rows` records into a typed frame; `None` at EOF.
    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<DataFrame>, String> {
        let mut cells: Vec<Vec<String>> = vec![Vec::new(); self.header.len()];
        // Absolute file line of each record, so parse errors point at
        // the real line, not a chunk-relative offset.
        let mut record_lines = Vec::new();
        let mut line = String::new();
        while record_lines.len() < max_rows {
            line.clear();
            if self.reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                break;
            }
            self.line_no += 1;
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            let fields = ccsynth::frame::csv::split_line(trimmed);
            if fields.len() != self.header.len() {
                return Err(format!(
                    "line {}: expected {} fields, got {}",
                    self.line_no,
                    self.header.len(),
                    fields.len()
                ));
            }
            for (col, field) in cells.iter_mut().zip(fields) {
                col.push(field);
            }
            record_lines.push(self.line_no);
        }
        if record_lines.is_empty() {
            return Ok(None);
        }
        let mut df = DataFrame::new();
        for ((name, col), &is_numeric) in self.header.iter().zip(cells).zip(&self.numeric) {
            if is_numeric {
                let mut vals = Vec::with_capacity(col.len());
                for (s, line_no) in col.iter().zip(&record_lines) {
                    let t = s.trim();
                    if t.is_empty() {
                        vals.push(f64::NAN);
                    } else {
                        vals.push(t.parse().map_err(|_| {
                            format!("line {line_no}: column '{name}': '{t}' is not numeric")
                        })?);
                    }
                }
                df.push_numeric(name.clone(), vals).map_err(|e| e.to_string())?;
            } else {
                df.push_categorical(name.clone(), &col).map_err(|e| e.to_string())?;
            }
        }
        Ok(Some(df))
    }
}

fn cmd_monitor(args: &[String]) -> Result<(), CliError> {
    let flags = [
        Flag::value("--profile"),
        Flag::value("--resume"),
        Flag::value("--window"),
        Flag::value("--stride"),
        Flag::value("--detector"),
        Flag::value("--calibrate"),
        Flag::value("--patience"),
        Flag::value("--propose-out"),
        Flag::value("--state-out"),
        Flag::value("--threads"),
    ];
    let p = parse(args, &flags)?;
    // Runtime-only knob (never part of the monitor's state): how many
    // threads the lock-free score phase may use per chunk. Results are
    // bit-identical for every value.
    let threads = p.count_or("--threads", 1)?.clamp(1, 64);
    let [data_path] = p.positionals() else {
        return Err(CliError::Usage("monitor needs exactly one <data.csv> (or '-')".into()));
    };
    let mut monitor = if let Some(resume_path) = p.value("--resume") {
        // A snapshot carries the profile, geometry, detector calibration,
        // and counters — flags that would silently disagree with it are
        // usage errors, not surprises.
        for flag in ["--profile", "--window", "--stride", "--detector", "--calibrate", "--patience"]
        {
            if p.value(flag).is_some() {
                return Err(CliError::Usage(format!(
                    "{flag} conflicts with --resume (the snapshot already carries it)"
                )));
            }
        }
        let state: ccsynth::monitor::MonitorState =
            ccsynth::state::read_snapshot(std::path::Path::new(resume_path))
                .map_err(|e| CliError::Runtime(format!("cannot resume from {resume_path}: {e}")))?;
        OnlineMonitor::from_state(state).map_err(|e| {
            CliError::Runtime(format!("snapshot {resume_path} is inconsistent: {e}"))
        })?
    } else {
        let profile_path = p
            .value("--profile")
            .ok_or_else(|| {
                CliError::Usage(
                    "monitor needs --profile <profile.json> (or --resume <snapshot>)".into(),
                )
            })?
            .to_owned();
        let window = p.count_or("--window", 512)?;
        let stride = p.count_or("--stride", window)?;
        let spec = WindowSpec::new(window, stride).map_err(|e| CliError::Usage(e.to_string()))?;
        let detector = match p.value("--detector") {
            None => DetectorKind::Cusum,
            Some(d) => DetectorKind::parse(d).ok_or_else(|| {
                CliError::Usage(format!("unknown detector '{d}' (ewma, cusum, page-hinkley)"))
            })?,
        };
        let cfg = MonitorConfig {
            spec,
            detector,
            calibration_windows: p.count_or("--calibrate", 8)?,
            patience: p.count_or("--patience", 3)?,
            ..MonitorConfig::default()
        };
        let profile = load_profile(&profile_path).map_err(CliError::Runtime)?;
        OnlineMonitor::new(profile, cfg).map_err(|e| CliError::Usage(e.to_string()))?
    };

    let mut tail: CsvTail<Box<dyn std::io::BufRead>> = {
        let reader: Box<dyn std::io::BufRead> = if data_path == "-" {
            Box::new(BufReader::new(std::io::stdin()))
        } else {
            let f = File::open(data_path)
                .map_err(|e| CliError::Runtime(format!("cannot open {data_path}: {e}")))?;
            Box::new(BufReader::new(f))
        };
        CsvTail::open(reader, monitor.plan().attributes()).map_err(CliError::Runtime)?
    };

    let (window, stride) = (monitor.config().spec.window(), monitor.config().spec.stride());
    let resumed = monitor.rows_ingested();
    println!(
        "monitoring {data_path}: window {window}, stride {stride}, detector {}, calibrate {}{}",
        monitor.config().detector.name(),
        monitor.config().calibration_windows,
        if p.value("--resume").is_some() {
            format!(
                " (resumed at {resumed} rows, {} windows, {})",
                monitor.windows_closed(),
                if monitor.calibrated() { "calibrated" } else { "calibrating" }
            )
        } else {
            String::new()
        }
    );
    println!(
        "{:>7} {:>8} {:>10} {:>10} {:>10}  state",
        "window", "rows", "drift", "stat", "thresh"
    );
    // A long-lived tail's natural stop is SIGINT/SIGTERM — flush the
    // --state-out / --propose-out files on the way down instead of
    // dying with the calibration unwritten (the cold-start loss
    // durability exists to prevent). The flag is checked between
    // chunks; a reader blocked on a quiet stdin flushes as soon as the
    // pipe delivers data or EOF (a killed producer closes it).
    install_shutdown_handler();
    let chunk_rows = stride.min(4096);
    // A mid-stream failure (malformed CSV line, missing column) must
    // also reach the flush below — state accumulated over hours is
    // worth keeping even when the stream goes bad. The error is
    // reported (exit 1) *after* the state is written.
    let mut stream_error: Option<String> = None;
    while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        let batch = match tail.next_chunk(chunk_rows) {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                stream_error = Some(e);
                break;
            }
        };
        let report = match monitor.ingest_with_threads(&batch, threads) {
            Ok(r) => r,
            Err(e) => {
                stream_error = Some(e.to_string());
                break;
            }
        };
        for w in &report.windows {
            let state = match w.phase {
                ccsynth::monitor::WindowPhase::Calibrating => "calibrating",
                ccsynth::monitor::WindowPhase::Ok => "ok",
                ccsynth::monitor::WindowPhase::Alarm => "ALARM",
            };
            let fmt = |x: f64| if x.is_nan() { "-".into() } else { format!("{x:.4}") };
            println!(
                "{:>7} {:>8} {:>10.4} {:>10} {:>10}  {state}",
                w.index,
                w.rows,
                w.drift,
                fmt(w.stat),
                fmt(w.threshold)
            );
            if w.proposed {
                let proposal = monitor.proposal().expect("just proposed");
                println!(
                    "        ^ proposed resynthesized profile: generation {}, {} rows from {} blocks",
                    proposal.generation, proposal.rows, proposal.tiles
                );
            }
        }
        // Keep a tailing pipe readable line by line.
        let _ = std::io::stdout().flush();
    }
    if SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        println!("\nsignal received; flushing state");
    } else if let Some(e) = &stream_error {
        println!("\nstream error ({e}); flushing state before exiting");
    }

    let status = monitor.status();
    println!(
        "\n{} rows, {} windows, {} alarm(s), {} proposal(s); final state: {}",
        status.rows_ingested,
        status.windows_closed,
        status.alarms_total,
        status.proposals_total,
        if status.alarm { "ALARM" } else { "ok" }
    );
    if let Some(out) = p.value("--propose-out") {
        match monitor.proposal() {
            Some(proposal) => {
                let json = serde_json::to_string_pretty(&proposal.profile)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                std::fs::write(out, json)
                    .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
                println!("wrote proposed profile (generation {}) to {out}", proposal.generation);
            }
            None => println!("no pending proposal; {out} not written"),
        }
    }
    if let Some(out) = p.value("--state-out") {
        let bytes = ccsynth::state::write_snapshot(std::path::Path::new(out), &monitor.state())
            .map_err(|e| CliError::Runtime(format!("cannot write state to {out}: {e}")))?;
        println!("wrote monitor state snapshot to {out} ({bytes} bytes; resume with --resume)");
    }
    match stream_error {
        Some(e) => Err(CliError::Runtime(e)),
        None => Ok(()),
    }
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let flags = [Flag::value("--sample")];
    let p = parse(args, &flags)?;
    let sample = p.count_or("--sample", 200)?;
    let [profile_path, train_path, serve_path] = p.positionals() else {
        return Err(CliError::Usage("explain needs <profile.json> <train.csv> <serve.csv>".into()));
    };
    let profile = load_profile(profile_path).map_err(CliError::Runtime)?;
    let train = load_csv(train_path).map_err(CliError::Runtime)?;
    let serve = load_csv(serve_path).map_err(CliError::Runtime)?;
    let sub = serve.take(&(0..sample.min(serve.n_rows())).collect::<Vec<_>>());
    let ranked = mean_responsibility(&profile, &train, &sub)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("{:<20} responsibility", "attribute");
    for r in ranked {
        let bar = "#".repeat((r.score * 40.0).round() as usize);
        println!("{:<20} {:.3}  {bar}", r.attribute, r.score);
    }
    Ok(())
}

fn cmd_sql(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &[])?;
    let [profile_path, table] = p.positionals() else {
        return Err(CliError::Usage("sql needs <profile.json> <table_name>".into()));
    };
    let profile = load_profile(profile_path).map_err(CliError::Runtime)?;
    println!("{}", profile_to_sql(&profile, table, 6));
    Ok(())
}

/// Set by the SIGINT/SIGTERM handler; polled by `cmd_serve`'s main loop
/// and by `cmd_monitor`'s chunk loop (both flush state on the way down).
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_handler() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let flags = [
        Flag::value("--dir"),
        Flag::multi("--profile"),
        Flag::value("--addr"),
        Flag::value("--workers"),
        Flag::value("--max-body-mb"),
        Flag::value("--state-dir"),
        Flag::value("--autosave-secs"),
        Flag::value("--trace-buffer"),
        Flag::value("--log-level"),
        Flag::value("--log-file"),
        Flag::value("--self-watch"),
        Flag::value("--role"),
        Flag::multi("--shard"),
        Flag::value("--pull-ms"),
        Flag::value("--export-cap"),
    ];
    let p = parse(args, &flags)?;
    if !p.positionals().is_empty() {
        return Err(CliError::Usage(format!(
            "serve takes no positionals (got '{}')",
            p.positionals()[0]
        )));
    }
    let files = p.values("--profile");
    let registry = if files.is_empty() {
        ProfileRegistry::from_dir(p.value("--dir").unwrap_or("profiles"))
    } else if p.value("--dir").is_some() {
        return Err(CliError::Usage("give either --dir or --profile files, not both".into()));
    } else {
        ProfileRegistry::from_files(files.iter().map(Into::into).collect())
    }
    .map_err(CliError::Runtime)?;

    let max_body_bytes = p
        .count_or("--max-body-mb", 32)?
        .checked_mul(1024 * 1024)
        .ok_or_else(|| CliError::Usage("--max-body-mb is too large".into()))?;
    let state_dir = p.value("--state-dir").map(std::path::PathBuf::from);
    let autosave = match p.value("--autosave-secs") {
        None => None,
        Some(_) if state_dir.is_none() => {
            return Err(CliError::Usage("--autosave-secs requires --state-dir".into()));
        }
        Some(_) => match p.count_or("--autosave-secs", 0)? {
            0 => return Err(CliError::Usage("--autosave-secs must be positive".into())),
            secs => Some(std::time::Duration::from_secs(secs as u64)),
        },
    };
    // `0` is meaningful here (tracing off), so no `count_or`.
    let trace_buffer = match p.value("--trace-buffer") {
        None => ccsynth::trace::DEFAULT_BUFFER,
        Some(v) => v.parse::<usize>().map_err(|_| {
            CliError::Usage(format!("--trace-buffer needs a non-negative integer, got '{v}'"))
        })?,
    };
    // The process-global flight recorder: sized once, before any request
    // thread can lazily create its ring.
    ccsynth::trace::set_buffer(trace_buffer);
    let log_level = match p.value("--log-level") {
        None => ccsynth::server::obs::Level::Info,
        Some(spelled) => ccsynth::server::obs::Level::parse(spelled).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --log-level '{spelled}' (debug, info, warn, error, off)"
            ))
        })?,
    };
    let log_sink = match p.value("--log-file") {
        None => LogSink::Stderr,
        Some(path) => LogSink::File(std::path::PathBuf::from(path)),
    };
    let self_watch = match p.value("--self-watch") {
        Some(spelled) if spelled.eq_ignore_ascii_case("off") => None,
        spelled => {
            let ms = match spelled {
                None => 1000,
                Some(v) => match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => ms,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "--self-watch needs a positive interval in ms or 'off', got '{v}'"
                        )));
                    }
                },
            };
            Some(SelfWatchConfig {
                interval: std::time::Duration::from_millis(ms),
                ..SelfWatchConfig::default()
            })
        }
    };
    let self_watch_ms = self_watch.as_ref().map(|sw| sw.interval.as_millis());
    let role = match p.value("--role") {
        None => ccsynth::server::Role::Standalone,
        Some(spelled) => ccsynth::server::Role::parse(spelled).ok_or_else(|| {
            CliError::Usage(format!("unknown --role '{spelled}' (standalone, shard, coordinator)"))
        })?,
    };
    let shard_addrs = p.values("--shard");
    if role == ccsynth::server::Role::Coordinator && shard_addrs.is_empty() {
        return Err(CliError::Usage(
            "--role coordinator needs at least one --shard <host:port>".into(),
        ));
    }
    if role != ccsynth::server::Role::Coordinator && !shard_addrs.is_empty() {
        return Err(CliError::Usage("--shard requires --role coordinator".into()));
    }
    let pull_interval = std::time::Duration::from_millis(p.count_or("--pull-ms", 500)? as u64);
    let export_cap = p.count_or("--export-cap", ccsynth::server::DEFAULT_EXPORT_CAP)?;
    let config = ServerConfig {
        addr: p.value("--addr").unwrap_or("127.0.0.1:8642").to_owned(),
        workers: p.count_or("--workers", 4)?,
        max_body_bytes,
        state_dir,
        autosave,
        trace_buffer,
        log_level,
        log_sink,
        self_watch,
        role,
        shard_addrs,
        pull_interval,
        export_cap,
        ..ServerConfig::default()
    };
    let workers = config.workers;
    let handle = Server::start(config, registry)
        .map_err(|e| CliError::Runtime(format!("cannot start server: {e}")))?;
    let snap = handle.registry().snapshot();
    println!(
        "cc_server listening on http://{} ({} profile{}, {workers} workers)",
        handle.addr(),
        snap.entries().len(),
        if snap.entries().len() == 1 { "" } else { "s" },
    );
    if handle.durable() {
        println!(
            "durable state: {}",
            if handle.restored() { "restored from snapshot" } else { "starting fresh" }
        );
    }
    if trace_buffer == 0 {
        println!("tracing: span rings off (--trace-buffer 0); phase latency metrics still count");
    } else {
        println!("tracing: {trace_buffer}-span rings (GET /v1/trace, `ccsynth trace`)");
    }
    println!(
        "logging: level {} -> {} (GET /v1/logs)",
        log_level.name(),
        p.value("--log-file").unwrap_or("stderr")
    );
    match self_watch_ms {
        Some(ms) => println!("self-watch: sampling every {ms}ms into '__self' (GET /v1/self)"),
        None => println!("self-watch: disabled (--self-watch off)"),
    }
    match handle.fleet().role() {
        ccsynth::server::Role::Standalone => {}
        ccsynth::server::Role::Shard => println!(
            "fleet: shard role, exporting up to {} closed windows per monitor",
            handle.fleet().export_cap()
        ),
        ccsynth::server::Role::Coordinator => println!(
            "fleet: coordinator over {} shard(s), polling every {:?} (GET /v2/fleet/shards)",
            handle.fleet().shard_count(),
            handle.fleet().pull_interval()
        ),
    }
    for e in snap.entries() {
        println!("  profile '{}': {} constraints", e.name, e.plan.constraint_count());
    }
    // Line-buffered stdout under a pipe would hold these back forever.
    let _ = std::io::stdout().flush();
    install_shutdown_handler();
    while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("signal received, shutting down…");
    handle.shutdown();
    println!("cc_server shut down cleanly");
    Ok(())
}

/// GETs `targets` in order, over one keep-alive connection, from the
/// daemon at `url` (`host:port` or an `http://` URL); the remote
/// commands `trace`, `ops` and `fleet` read through it. Any reply other
/// than `200` is an error.
fn remote_get<const N: usize>(
    url: &str,
    targets: [&str; N],
) -> Result<[ccsynth::server::ClientResponse; N], CliError> {
    use std::net::ToSocketAddrs;
    let hostport = url.strip_prefix("http://").unwrap_or(url).trim_end_matches('/');
    let addr = hostport
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| CliError::Runtime(format!("cannot resolve '{hostport}'")))?;
    let mut client = ccsynth::server::HttpClient::connect(addr)
        .map_err(|e| CliError::Runtime(format!("cannot connect to {hostport}: {e}")))?;
    let mut replies = Vec::with_capacity(N);
    for target in targets {
        let resp = client
            .get(target)
            .map_err(|e| CliError::Runtime(format!("request to {hostport} failed: {e}")))?;
        if resp.status != 200 {
            return Err(CliError::Runtime(format!(
                "GET {target} answered {}: {}",
                resp.status,
                resp.text().trim()
            )));
        }
        replies.push(resp);
    }
    Ok(replies.try_into().unwrap_or_else(|_| unreachable!("one reply per target")))
}

/// A [`remote_get`] reply body as JSON; `what` names it in the error.
fn reply_json(
    resp: &ccsynth::server::ClientResponse,
    what: &str,
) -> Result<serde_json::Value, CliError> {
    resp.json().map_err(|e| CliError::Runtime(format!("malformed {what} body: {e}")))
}

/// `ccsynth trace <host:port>`: fetch `GET /v1/trace` from a running
/// daemon and render the slowest-requests table (per-phase breakdown)
/// plus a per-phase summary of the recent spans.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let flags = [
        Flag::value("--top"),
        Flag::value("--min-us"),
        Flag::value("--endpoint"),
        Flag::value("--monitor"),
        Flag::value("--limit"),
        Flag::switch("--json"),
    ];
    let p = parse(args, &flags)?;
    let [url] = p.positionals() else {
        return Err(CliError::Usage("trace needs exactly one <host:port> (or http:// url)".into()));
    };
    let mut query: Vec<String> = Vec::new();
    if let Some(v) = p.value("--endpoint") {
        query.push(format!("endpoint={v}"));
    }
    if let Some(v) = p.value("--monitor") {
        query.push(format!("monitor={v}"));
    }
    if let Some(v) = p.value("--min-us") {
        // 0 is a valid threshold, so no `count_or`.
        let n: u64 = v.parse().map_err(|_| {
            CliError::Usage(format!("--min-us needs a non-negative integer, got '{v}'"))
        })?;
        query.push(format!("min_us={n}"));
    }
    if p.value("--top").is_some() {
        query.push(format!("top={}", p.count_or("--top", 10)?));
    }
    if p.value("--limit").is_some() {
        query.push(format!("limit={}", p.count_or("--limit", 256)?));
    }
    let target = if query.is_empty() {
        "/v1/trace".to_owned()
    } else {
        format!("/v1/trace?{}", query.join("&"))
    };
    let [resp] = remote_get(url, [target.as_str()])?;
    let v = reply_json(&resp, "/v1/trace")?;
    if p.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&v).map_err(|e| CliError::Runtime(e.to_string()))?
        );
        return Ok(());
    }
    use ccsynth::server::json::{as_f64, as_str, get};
    let buffer = get(&v, "buffer").and_then(as_f64).unwrap_or(0.0) as usize;
    let enabled = matches!(get(&v, "enabled"), Some(serde_json::Value::Bool(true)));
    let matched = get(&v, "matched").and_then(as_f64).unwrap_or(0.0) as usize;
    println!(
        "trace buffer: {buffer} spans/thread ({}); {matched} span(s) matched",
        if enabled { "enabled" } else { "disabled" }
    );
    if !enabled {
        println!("(daemon runs with --trace-buffer 0; restart without it to record spans)");
        return Ok(());
    }
    let empty = Vec::new();
    let slowest = match get(&v, "slowest") {
        Some(serde_json::Value::Array(rows)) => rows,
        _ => &empty,
    };
    if slowest.is_empty() {
        println!("\nno completed requests in the buffer yet");
    } else {
        println!("\nslowest requests (µs):");
        println!(
            "{:<18} {:<14} {:>9} {:>8} {:>10} {:>8} {:>8}",
            "trace", "endpoint", "total", "parse", "queue", "handle", "write"
        );
        for row in slowest {
            let phase = |name: &str| {
                get(row, "phases").and_then(|ps| get(ps, name)).and_then(as_f64).unwrap_or(0.0)
                    as u64
            };
            println!(
                "{:<18} {:<14} {:>9} {:>8} {:>10} {:>8} {:>8}",
                get(row, "trace").and_then(as_str).unwrap_or("-"),
                get(row, "endpoint").and_then(as_str).unwrap_or("-"),
                get(row, "total_us").and_then(as_f64).unwrap_or(0.0) as u64,
                phase("parse"),
                phase("queue_wait"),
                phase("handle"),
                phase("write"),
            );
        }
    }
    // Per-phase rollup of the span list the server returned.
    let spans = match get(&v, "spans") {
        Some(serde_json::Value::Array(spans)) => spans,
        _ => &empty,
    };
    if !spans.is_empty() {
        let mut agg: Vec<(&str, u64, u64, u64)> = Vec::new(); // (phase, n, total, max)
        for s in spans {
            let Some(phase) = get(s, "phase").and_then(as_str) else { continue };
            let dur = get(s, "dur_us").and_then(as_f64).unwrap_or(0.0) as u64;
            match agg.iter_mut().find(|(p, ..)| *p == phase) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += dur;
                    row.3 = row.3.max(dur);
                }
                None => agg.push((phase, 1, dur, dur)),
            }
        }
        println!("\nrecent spans by phase (µs):");
        println!("{:<16} {:>7} {:>11} {:>9}", "phase", "count", "total", "max");
        for (phase, n, total, max) in agg {
            println!("{phase:<16} {n:>7} {total:>11} {max:>9}");
        }
    }
    Ok(())
}

/// `ccsynth ops <host:port>`: one-stop operational report — joins
/// `GET /healthz`, `/v1/self`, `/metrics`, and `/v1/trace` from a
/// running daemon into a single health + self-watch + throughput +
/// latency summary.
fn cmd_ops(args: &[String]) -> Result<(), CliError> {
    let flags = [Flag::switch("--json")];
    let p = parse(args, &flags)?;
    let [url] = p.positionals() else {
        return Err(CliError::Usage("ops needs exactly one <host:port> (or http:// url)".into()));
    };
    let [health, selfv, trace, metrics] =
        remote_get(url, ["/healthz", "/v1/self", "/v1/trace?top=5", "/metrics"])?;
    let health = reply_json(&health, "/healthz")?;
    let selfv = reply_json(&selfv, "/v1/self")?;
    let trace = reply_json(&trace, "/v1/trace?top=5")?;
    let metrics_text = metrics.text();
    // Single-value series we surface from the Prometheus exposition.
    let gauge = |name: &str| -> Option<f64> {
        metrics_text.lines().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
    };
    let gauges: Vec<(&str, Option<f64>)> = vec![
        ("cc_server_open_connections", gauge("cc_server_open_connections")),
        ("cc_server_compute_queue_depth", gauge("cc_server_compute_queue_depth")),
        ("cc_server_self_alarm", gauge("cc_server_self_alarm")),
        ("cc_server_self_alarms_total", gauge("cc_server_self_alarms_total")),
    ];
    if p.has("--json") {
        let joined = ccsynth::server::json::obj(vec![
            ("health", health),
            ("self", selfv),
            (
                "gauges",
                ccsynth::server::json::obj(
                    gauges
                        .iter()
                        .map(|(n, v)| {
                            (
                                *n,
                                v.map(serde_json::Value::Number).unwrap_or(serde_json::Value::Null),
                            )
                        })
                        .collect(),
                ),
            ),
            ("trace", trace),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&joined).map_err(|e| CliError::Runtime(e.to_string()))?
        );
        return Ok(());
    }
    use ccsynth::server::json::{as_f64, as_str, get};
    let b =
        |v: &serde_json::Value, k: &str| matches!(get(v, k), Some(serde_json::Value::Bool(true)));
    let n = |v: &serde_json::Value, k: &str| get(v, k).and_then(as_f64).unwrap_or(0.0);
    println!(
        "health: {} (degraded {}), {} profile(s) gen {}, up {:.0}s, durable {}",
        get(&health, "status").and_then(as_str).unwrap_or("?"),
        b(&health, "degraded"),
        n(&health, "profiles") as u64,
        n(&health, "generation") as u64,
        n(&health, "uptime_seconds"),
        b(&health, "durable"),
    );
    if b(&selfv, "enabled") {
        println!(
            "self-watch: {} ticks, synthesized {}, calibrated {}, degraded {}, {} synth / {} ingest error(s)",
            n(&selfv, "ticks") as u64,
            b(&selfv, "synthesized"),
            b(&selfv, "calibrated"),
            b(&selfv, "degraded"),
            n(&selfv, "synth_errors") as u64,
            n(&selfv, "ingest_errors") as u64,
        );
        if let Some(sample) = get(&selfv, "sample") {
            let ms = |k: &str| n(sample, k);
            println!(
                "  last sample: handle {:.3}ms, queue {:.3}ms, {:.1} rows/s, error ratio {:.3}, {} conn(s), queue depth {}",
                ms("handle_ms"),
                ms("queue_ms"),
                ms("rows_per_sec"),
                ms("error_ratio"),
                ms("open_conns") as u64,
                ms("queue_depth") as u64,
            );
        }
        if let Some(status) =
            get(&selfv, "status").filter(|s| !matches!(s, serde_json::Value::Null))
        {
            println!(
                "  detector: drift {:.4} (smoothed {:.4}), baseline {:.4}±{:.4}, {} alarm(s) total",
                n(status, "last_drift"),
                n(status, "smoothed_drift"),
                n(status, "baseline_mean"),
                n(status, "baseline_std"),
                n(status, "alarms_total") as u64,
            );
        }
    } else {
        println!("self-watch: disabled (--self-watch off)");
    }
    println!("gauges:");
    for (name, v) in &gauges {
        match v {
            Some(v) => println!("  {name} = {v}"),
            None => println!("  {name} (absent)"),
        }
    }
    let empty = Vec::new();
    let slowest = match get(&trace, "slowest") {
        Some(serde_json::Value::Array(rows)) => rows,
        _ => &empty,
    };
    if slowest.is_empty() {
        println!("trace: no completed requests in the buffer");
    } else {
        println!("slowest requests (µs):");
        for row in slowest {
            println!(
                "  {:<18} {:<14} {:>9}",
                get(row, "trace").and_then(as_str).unwrap_or("-"),
                get(row, "endpoint").and_then(as_str).unwrap_or("-"),
                n(row, "total_us") as u64,
            );
        }
    }
    Ok(())
}

/// `ccsynth fleet <host:port>`: fetch `GET /v2/fleet/shards` from a
/// running daemon and render the node's role, shard membership (poll
/// health, merge lag), and merged-monitor epoch cursors.
fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    let flags = [Flag::switch("--json")];
    let p = parse(args, &flags)?;
    let [url] = p.positionals() else {
        return Err(CliError::Usage("fleet needs exactly one <host:port> (or http:// url)".into()));
    };
    let [resp] = remote_get(url, ["/v2/fleet/shards"])?;
    let v = reply_json(&resp, "/v2/fleet/shards")?;
    if p.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&v).map_err(|e| CliError::Runtime(e.to_string()))?
        );
        return Ok(());
    }
    use ccsynth::server::json::{as_f64, as_str, get};
    let n = |v: &serde_json::Value, k: &str| get(v, k).and_then(as_f64).unwrap_or(0.0);
    println!(
        "role: {} (export cap {}, pull every {}ms)",
        get(&v, "role").and_then(as_str).unwrap_or("?"),
        n(&v, "export_cap") as u64,
        n(&v, "pull_interval_ms") as u64,
    );
    let empty = Vec::new();
    let shards = match get(&v, "shards") {
        Some(serde_json::Value::Array(rows)) => rows,
        _ => &empty,
    };
    if shards.is_empty() {
        println!("no shards (not a coordinator)");
    } else {
        println!("\nshards:");
        println!(
            "{:<6} {:<22} {:>7} {:>7} {:>9} {:>11} {:>5}  last error",
            "index", "url", "polls", "errors", "windows", "rows", "lag"
        );
        for row in shards {
            println!(
                "{:<6} {:<22} {:>7} {:>7} {:>9} {:>11} {:>5}  {}",
                n(row, "index") as u64,
                get(row, "url").and_then(as_str).unwrap_or("-"),
                n(row, "polls") as u64,
                n(row, "errors") as u64,
                n(row, "windows_closed") as u64,
                n(row, "rows_ingested") as u64,
                n(row, "lag_windows") as u64,
                get(row, "last_error").and_then(as_str).unwrap_or("-"),
            );
        }
    }
    let monitors = match get(&v, "monitors") {
        Some(serde_json::Value::Array(rows)) => rows,
        _ => &empty,
    };
    if !monitors.is_empty() {
        println!("\nmerged monitors:");
        for row in monitors {
            let cursors = match get(row, "cursors") {
                Some(serde_json::Value::Array(cs)) => cs
                    .iter()
                    .map(|c| format!("{}", as_f64(c).unwrap_or(0.0) as u64))
                    .collect::<Vec<_>>()
                    .join(", "),
                _ => String::new(),
            };
            println!(
                "  {}: {} epoch(s) merged (per-shard cursors: [{cursors}])",
                get(row, "monitor").and_then(as_str).unwrap_or("-"),
                n(row, "epochs_merged") as u64,
            );
        }
    }
    Ok(())
}

/// `ccsynth wire <data.csv> --out <batch.bin>`: encode a CSV batch into
/// the binary columnar wire format, ready for `curl --data-binary`
/// against the daemon's batch endpoints.
fn cmd_wire(args: &[String]) -> Result<(), CliError> {
    let flags = [Flag::value("--out").alias("-o")];
    let p = parse(args, &flags)?;
    let [data_path] = p.positionals() else {
        return Err(CliError::Usage("wire needs exactly one <data.csv>".into()));
    };
    let Some(out) = p.value("--out") else {
        return Err(CliError::Usage("wire needs --out <batch.bin>".into()));
    };
    let frame = load_csv(data_path).map_err(CliError::Runtime)?;
    let bytes = ccsynth::server::wire::encode_frame(&frame);
    std::fs::write(out, &bytes)
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {out}: {} rows x {} columns, {} bytes (content-type: {})",
        frame.n_rows(),
        frame.n_cols(),
        bytes.len(),
        ccsynth::server::CONTENT_TYPE_COLUMNAR,
    );
    Ok(())
}

/// Restores the default SIGPIPE disposition so `ccsynth … | head` exits
/// quietly like other Unix tools instead of panicking on a closed pipe
/// (Rust's runtime ignores SIGPIPE by default, turning EPIPE into a
/// `println!` panic).
#[cfg(unix)]
fn reset_sigpipe() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "profile" => cmd_profile(rest),
        "check" => cmd_check(rest),
        "drift" => cmd_drift(rest),
        "monitor" => cmd_monitor(rest),
        "explain" => cmd_explain(rest),
        "sql" => cmd_sql(rest),
        "serve" => cmd_serve(rest),
        "trace" => cmd_trace(rest),
        "ops" => cmd_ops(rest),
        "fleet" => cmd_fleet(rest),
        "wire" => cmd_wire(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("error: unknown command '{cmd}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            println!("{}", usage_of(cmd));
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n{}", usage_of(cmd));
            ExitCode::from(2)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
