//! # cc_obs — structured self-observability for the CCSynth daemon
//!
//! A dependency-free leveled JSON-lines logger with per-request trace-id
//! correlation. Every event renders as one JSON object with a pinned,
//! grep-able key set — `ts`, `level`, `trace`, `endpoint`, `msg` — so
//! downstream parsers (`jq`, log shippers, the `/v2/logs` endpoint) never
//! have to guess the schema:
//!
//! ```text
//! {"ts":1754500000123,"level":"info","trace":"9f86d081884c7d65","endpoint":"","msg":"cc_server listening on http://127.0.0.1:8080"}
//! ```
//!
//! Design points:
//!
//! * **Leveled, cheap when silent.** [`Logger::enabled`] is a single atomic
//!   load; callers gate message formatting on it, so a `debug` access log
//!   line costs ~1 ns when the logger runs at `info`.
//! * **Ring-buffered.** The last N records are retained in memory and
//!   queryable (level/endpoint/trace filters) via [`Logger::recent`] —
//!   this backs the daemon's `GET /v2/logs` endpoint.
//! * **Optionally streamed.** A sink (stderr or an append-mode file) can be
//!   attached; sink failures are swallowed — logging never takes the
//!   process down.
//! * **Trace-correlated.** Records carry the same 64-bit trace id that
//!   `cc_trace` mints per request (`X-Ccsynth-Trace`), serialized as 16
//!   hex digits, so one id greps across logs, flight-recorder spans, and
//!   client-side headers.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Default in-memory ring capacity (records retained for `/v2/logs`).
pub const DEFAULT_BUFFER: usize = 1024;

// ---------------------------------------------------------------------------
// Levels.

/// Log severity. `Off` is a threshold only — no record carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-request detail (access log lines).
    Debug = 0,
    /// Lifecycle events (boot, state restore, snapshots, shutdown).
    Info = 1,
    /// Degraded-but-running conditions (fallbacks, 4xx/5xx, timeouts).
    Warn = 2,
    /// Failures that lose work (autosave failure, final snapshot failure).
    Error = 3,
    /// Threshold that silences the logger entirely.
    Off = 4,
}

/// Every level a record can carry (excludes the `Off` threshold).
pub const LEVELS: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

impl Level {
    /// Stable lowercase name, as serialized in log lines.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
            Level::Off => "off",
        }
    }

    /// Parses a level name (case-insensitive). Accepts the `--log-level`
    /// vocabulary: `debug`, `info`, `warn`, `error`, `off`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            "off" | "none" => Some(Level::Off),
            _ => None,
        }
    }

    fn from_raw(raw: u8) -> Level {
        match raw {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            3 => Level::Error,
            _ => Level::Off,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for Level {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_owned())
    }
}

impl Deserialize for Level {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => {
                Level::parse(s).ok_or_else(|| DeError::custom(format!("unknown log level '{s}'")))
            }
            other => Err(DeError::custom(format!("expected level string, found {}", other.kind()))),
        }
    }
}

// ---------------------------------------------------------------------------
// Records.

/// One structured log event.
///
/// The wire format is pinned: exactly the keys `ts`, `level`, `trace`,
/// `endpoint`, `msg`, in that order. `ts` is Unix epoch milliseconds;
/// `trace` is 16 lowercase hex digits (empty string when the event has no
/// request context); `endpoint` is the route label (empty for process-level
/// events).
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Unix epoch milliseconds at emit time.
    pub ts: u64,
    /// Severity.
    pub level: Level,
    /// Correlating trace id (0 = none).
    pub trace: u64,
    /// Route label (e.g. `/v1/ingest`), empty for process-level events.
    pub endpoint: String,
    /// Human-readable message.
    pub msg: String,
}

impl LogRecord {
    /// The trace id as serialized: 16 hex digits, or `""` when absent.
    pub fn trace_hex(&self) -> String {
        if self.trace == 0 {
            String::new()
        } else {
            format!("{:016x}", self.trace)
        }
    }

    /// Renders the record as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

impl Serialize for LogRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ts".to_owned(), Value::Number(self.ts as f64)),
            ("level".to_owned(), self.level.to_value()),
            ("trace".to_owned(), Value::String(self.trace_hex())),
            ("endpoint".to_owned(), Value::String(self.endpoint.clone())),
            ("msg".to_owned(), Value::String(self.msg.clone())),
        ])
    }
}

impl Deserialize for LogRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let trace_str = String::from_value(v.field("trace")?)?;
        let trace = if trace_str.is_empty() {
            0
        } else {
            u64::from_str_radix(&trace_str, 16)
                .map_err(|_| DeError::custom(format!("invalid trace id '{trace_str}'")))?
        };
        Ok(LogRecord {
            ts: u64::from_value(v.field("ts")?)?,
            level: Level::from_value(v.field("level")?)?,
            trace,
            endpoint: String::from_value(v.field("endpoint")?)?,
            msg: String::from_value(v.field("msg")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Query filter.

/// Selection criteria for [`Logger::recent`] (backs `GET /v2/logs`).
#[derive(Clone, Debug)]
pub struct LogFilter {
    /// Keep records at or above this level (`None` = all).
    pub min_level: Option<Level>,
    /// Keep records whose endpoint equals this label exactly.
    pub endpoint: Option<String>,
    /// Keep records carrying this trace id.
    pub trace: Option<u64>,
    /// Most-recent cap applied after the predicate filters.
    pub limit: usize,
}

impl Default for LogFilter {
    fn default() -> Self {
        LogFilter { min_level: None, endpoint: None, trace: None, limit: 256 }
    }
}

impl LogFilter {
    fn matches(&self, rec: &LogRecord) -> bool {
        if let Some(min) = self.min_level {
            if rec.level < min {
                return false;
            }
        }
        if let Some(ep) = &self.endpoint {
            if &rec.endpoint != ep {
                return false;
            }
        }
        if let Some(t) = self.trace {
            if rec.trace != t {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Logger.

enum Sink {
    None,
    Stderr,
    File(File),
}

/// Leveled JSON-lines logger: in-memory ring plus an optional stream sink.
///
/// All methods take `&self`; the logger is designed to sit in an `Arc`
/// shared across acceptor, worker, and sampler threads.
pub struct Logger {
    level: AtomicU8,
    capacity: usize,
    ring: Mutex<VecDeque<LogRecord>>,
    sink: Mutex<Sink>,
    emitted: AtomicU64,
    evicted: AtomicU64,
}

impl Logger {
    /// A logger retaining up to `capacity` records (min 1), no sink.
    pub fn new(level: Level, capacity: usize) -> Logger {
        let capacity = capacity.max(1);
        Logger {
            level: AtomicU8::new(level as u8),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            sink: Mutex::new(Sink::None),
            emitted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// A fully silent logger (threshold `Off`, minimal ring).
    pub fn disabled() -> Logger {
        Logger::new(Level::Off, 1)
    }

    /// Current threshold.
    pub fn level(&self) -> Level {
        Level::from_raw(self.level.load(Ordering::Relaxed))
    }

    /// Adjusts the threshold at runtime.
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether a record at `level` would be kept. One atomic load — gate
    /// expensive message formatting on this.
    pub fn enabled(&self, level: Level) -> bool {
        level != Level::Off && level as u8 >= self.level.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records accepted since construction.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Records evicted from the ring to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Streams every kept record to stderr as JSON lines.
    pub fn stream_to_stderr(&self) {
        *self.sink.lock().unwrap() = Sink::Stderr;
    }

    /// Streams every kept record to `path` (append mode, created if absent).
    ///
    /// # Errors
    /// Propagates the open failure; the previous sink is left in place.
    pub fn stream_to_file(&self, path: &Path) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        *self.sink.lock().unwrap() = Sink::File(file);
        Ok(())
    }

    /// Detaches any stream sink (the ring keeps recording).
    pub fn stream_off(&self) {
        *self.sink.lock().unwrap() = Sink::None;
    }

    /// Emits one record. `trace` = 0 and `endpoint` = "" mean "no request
    /// context". Below-threshold records are dropped before formatting.
    pub fn log(&self, level: Level, trace: u64, endpoint: &str, msg: impl Into<String>) {
        if !self.enabled(level) {
            return;
        }
        let rec = LogRecord {
            ts: now_ms(),
            level,
            trace,
            endpoint: endpoint.to_owned(),
            msg: msg.into(),
        };
        self.emitted.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.ring.lock().unwrap();
            if ring.len() == self.capacity {
                ring.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(rec.clone());
        }
        let mut sink = self.sink.lock().unwrap();
        match &mut *sink {
            Sink::None => {}
            // Sink failures (closed stderr, full disk) must never take the
            // server down; the ring still has the record.
            Sink::Stderr => {
                let _ = writeln!(std::io::stderr(), "{}", rec.to_line());
            }
            Sink::File(f) => {
                let _ = writeln!(f, "{}", rec.to_line());
            }
        }
    }

    /// [`Self::log`] at `debug`.
    pub fn debug(&self, trace: u64, endpoint: &str, msg: impl Into<String>) {
        self.log(Level::Debug, trace, endpoint, msg);
    }

    /// [`Self::log`] at `info`.
    pub fn info(&self, trace: u64, endpoint: &str, msg: impl Into<String>) {
        self.log(Level::Info, trace, endpoint, msg);
    }

    /// [`Self::log`] at `warn`.
    pub fn warn(&self, trace: u64, endpoint: &str, msg: impl Into<String>) {
        self.log(Level::Warn, trace, endpoint, msg);
    }

    /// [`Self::log`] at `error`.
    pub fn error(&self, trace: u64, endpoint: &str, msg: impl Into<String>) {
        self.log(Level::Error, trace, endpoint, msg);
    }

    /// The most recent records matching `filter`, oldest first.
    pub fn recent(&self, filter: &LogFilter) -> Vec<LogRecord> {
        let ring = self.ring.lock().unwrap();
        let mut out: Vec<LogRecord> = ring
            .iter()
            .rev()
            .filter(|r| filter.matches(r))
            .take(filter.limit.max(1))
            .cloned()
            .collect();
        out.reverse();
        out
    }
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(level: Level, trace: u64, endpoint: &str, msg: &str) -> LogRecord {
        LogRecord {
            ts: 1_754_500_000_123,
            level,
            trace,
            endpoint: endpoint.into(),
            msg: msg.into(),
        }
    }

    #[test]
    fn line_format_is_pinned() {
        let line = rec(Level::Info, 0xff, "/v1/check", "hi").to_line();
        assert_eq!(
            line,
            "{\"ts\":1754500000123,\"level\":\"info\",\"trace\":\"00000000000000ff\",\
             \"endpoint\":\"/v1/check\",\"msg\":\"hi\"}"
        );
    }

    #[test]
    fn key_set_is_pinned() {
        let Value::Object(pairs) = rec(Level::Warn, 7, "/metrics", "x").to_value() else {
            panic!("record must serialize as an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["ts", "level", "trace", "endpoint", "msg"]);
    }

    #[test]
    fn serde_round_trip() {
        for level in LEVELS {
            for trace in [0u64, 1, u64::MAX] {
                let r = rec(level, trace, "/v1/ingest", "msg with \"quotes\"\nand newline");
                let back: LogRecord = serde_json::from_str(&r.to_line()).unwrap();
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn zero_trace_serializes_empty() {
        let r = rec(Level::Debug, 0, "", "boot");
        assert!(r.to_line().contains("\"trace\":\"\""));
        let back: LogRecord = serde_json::from_str(&r.to_line()).unwrap();
        assert_eq!(back.trace, 0);
    }

    #[test]
    fn level_names_parse_round_trip() {
        for level in LEVELS {
            assert_eq!(Level::parse(level.name()), Some(level));
        }
        assert_eq!(Level::parse("OFF"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn threshold_gates_and_off_silences() {
        let log = Logger::new(Level::Warn, 8);
        log.debug(0, "", "no");
        log.info(0, "", "no");
        log.warn(0, "", "yes");
        log.error(0, "", "yes");
        assert_eq!(log.emitted(), 2);
        assert!(!log.enabled(Level::Info));
        assert!(log.enabled(Level::Error));

        let off = Logger::disabled();
        off.error(0, "", "dropped");
        assert_eq!(off.emitted(), 0);
        assert!(!off.enabled(Level::Error));
    }

    #[test]
    fn ring_keeps_last_n() {
        let log = Logger::new(Level::Debug, 4);
        for i in 0..10 {
            log.info(0, "", format!("m{i}"));
        }
        let got = log.recent(&LogFilter::default());
        let msgs: Vec<&str> = got.iter().map(|r| r.msg.as_str()).collect();
        assert_eq!(msgs, ["m6", "m7", "m8", "m9"]);
        assert_eq!(log.evicted(), 6);
    }

    #[test]
    fn filters_select_by_level_endpoint_trace() {
        let log = Logger::new(Level::Debug, 32);
        log.debug(1, "/v1/check", "a");
        log.warn(2, "/v1/check", "b");
        log.error(2, "/v1/ingest", "c");

        let warns = log.recent(&LogFilter { min_level: Some(Level::Warn), ..LogFilter::default() });
        assert_eq!(warns.len(), 2);

        let checks =
            log.recent(&LogFilter { endpoint: Some("/v1/check".into()), ..LogFilter::default() });
        assert_eq!(checks.len(), 2);

        let t2 = log.recent(&LogFilter { trace: Some(2), ..LogFilter::default() });
        assert_eq!(t2.len(), 2);
        assert!(t2.iter().all(|r| r.trace == 2));

        let limited = log.recent(&LogFilter { limit: 1, ..LogFilter::default() });
        assert_eq!(limited.len(), 1);
        assert_eq!(limited[0].msg, "c");
    }

    #[test]
    fn file_sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("cc_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.log");
        let _ = std::fs::remove_file(&path);

        let log = Logger::new(Level::Info, 8);
        log.stream_to_file(&path).unwrap();
        log.info(42, "/healthz", "first");
        log.warn(0, "", "second");
        log.stream_off();
        log.info(0, "", "not streamed");

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: LogRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.trace, 42);
        assert_eq!(first.endpoint, "/healthz");
        assert_eq!(first.msg, "first");
        let second: LogRecord = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.level, Level::Warn);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
