//! The TCP layer: listener, connection queue, worker pool, graceful
//! shutdown.
//!
//! One acceptor thread pushes accepted connections onto a bounded queue
//! (overflow beyond [`MAX_PENDING_CONNECTIONS`] is answered `503` and
//! closed, never buffered without limit); `workers` threads pop and
//! drive connections through the incremental parser → router → response
//! cycle. The worker that reads a request also runs it and writes the
//! reply — no cross-thread hand-off on the request path.
//!
//! A worker serves one connection at a time, so keep-alive connections
//! must not pin workers. A connection goes back to the tail of the queue
//! whenever other connections are waiting and it has no request bytes
//! buffered: after each response, and after each 200 ms read tick that
//! passes with no bytes. N persistent clients — busy or idle — thus take
//! turns with everyone else instead of starving the pool. A requeued
//! connection carries its last-activity instant, so the keep-alive clock
//! keeps running while it waits. Everything is `std` — threads, `Mutex` +
//! `Condvar`, blocking sockets with read timeouts (the timeout doubles
//! as the shutdown poll, so no connection can pin a worker forever).
//!
//! Shutdown ([`ServerHandle::shutdown`]) is graceful by construction:
//! the flag flips, the acceptor is unblocked by a wake-up connection and
//! stops accepting, in-flight requests finish (the response is forced
//! `connection: close`), already-accepted idle connections are drained
//! or dropped, and only then do the threads exit — no fully-received
//! request is dropped.

use crate::http::{RequestParser, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::registry::ProfileRegistry;
use crate::selfwatch::{SelfWatchConfig, SelfWatchState};
use crate::state::Durability;
use cc_monitor::MonitorSet;
use cc_obs::{Level, Logger};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where structured log lines are streamed (they are always ring-
/// buffered for `GET /v1/logs` regardless).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum LogSink {
    /// Ring buffer only — the embedding/test default: nothing written
    /// to the process streams.
    #[default]
    None,
    /// One JSON line per record to stderr (the CLI `serve` default).
    Stderr,
    /// One JSON line per record appended to a file (`--log-file`).
    File(PathBuf),
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads. Each serves one connection at a time: it reads
    /// a request, runs it and writes the reply.
    pub workers: usize,
    /// Per-request body ceiling in bytes.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection is held before closing.
    pub keep_alive: Duration,
    /// Durable-state directory. When set, boot restores the snapshot
    /// inside it (quarantining a corrupt file), `POST /v1/snapshot` and
    /// graceful shutdown write one, and `autosave` may write them
    /// periodically.
    pub state_dir: Option<PathBuf>,
    /// Periodic autosave interval (requires `state_dir`; `None` — the
    /// default — saves only on demand and at shutdown).
    pub autosave: Option<Duration>,
    /// Flight-recorder ring capacity per thread (`--trace-buffer`).
    /// `0` disables request tracing for this server: no spans in the
    /// rings, no trace id generation, and responses are byte-identical to
    /// a build without the recorder. The per-phase latency aggregates
    /// (`cc_server_phase_seconds`, self-watch) count every request either
    /// way. The recorder itself is process-global; this knob gates
    /// whether *this server's* requests carry trace ids.
    pub trace_buffer: usize,
    /// Minimum structured-log level. [`Level::Off`] silences the logger
    /// entirely (ring included); request completions log at `debug`
    /// (2xx) / `warn` (4xx) / `error` (5xx), lifecycle lines at `info`.
    pub log_level: Level,
    /// Log ring capacity — the last N records answer `GET /v1/logs`.
    pub log_buffer: usize,
    /// Optional stream for log lines beyond the ring (see [`LogSink`]).
    pub log_sink: LogSink,
    /// Self-watch sampler: when set, a background thread folds the
    /// flight recorder, error counters, and gauges into one numeric row
    /// per tick and streams it into the reserved `__self` monitor so the
    /// server's own detectors watch the server (see [`crate::selfwatch`]).
    /// `None` (the embedding default) spawns nothing.
    pub self_watch: Option<SelfWatchConfig>,
    /// Fleet role (see [`crate::fleet`]): `Shard` arms monitors' export
    /// logs for delta export, `Coordinator` merges shard deltas instead
    /// of ingesting rows. `Standalone` (the default) does neither.
    pub role: crate::fleet::Role,
    /// Shard addresses (`host:port`) the coordinator's pull loop polls.
    /// Order matters: shard `s` owns epochs `g ≡ s (mod N)`.
    pub shard_addrs: Vec<String>,
    /// Coordinator poll cadence (`--pull-ms`).
    pub pull_interval: Duration,
    /// Export-log bound a shard arms its monitors with (`--export-cap`):
    /// how many closed windows are retained for lagging coordinators.
    pub export_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            keep_alive: Duration::from_secs(5),
            state_dir: None,
            autosave: None,
            trace_buffer: cc_trace::DEFAULT_BUFFER,
            log_level: Level::Info,
            log_buffer: cc_obs::DEFAULT_BUFFER,
            log_sink: LogSink::None,
            self_watch: None,
            role: crate::fleet::Role::Standalone,
            shard_addrs: Vec::new(),
            pull_interval: crate::fleet::DEFAULT_PULL_INTERVAL,
            export_cap: crate::fleet::DEFAULT_EXPORT_CAP,
        }
    }
}

/// State shared by the server's threads and the handle.
pub(crate) struct Shared {
    pub(crate) registry: ProfileRegistry,
    pub(crate) monitors: MonitorSet,
    pub(crate) metrics: Metrics,
    pub(crate) durability: Option<Durability>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Connections awaiting a worker.
    queue: Mutex<VecDeque<Parked>>,
    work_ready: Condvar,
    /// The structured logger: ring-buffered for `GET /v1/logs`, with an
    /// optional stderr/file stream.
    pub(crate) logger: Logger,
    /// Self-watch sampler runtime state (ticks even when the sampler is
    /// disabled only in the trivial sense: everything stays zero).
    pub(crate) selfwatch: SelfWatchState,
    /// Fleet role + membership (standalone unless configured); the
    /// router's `/v2/fleet` branches and the pull loop both read it.
    pub(crate) fleet: crate::fleet::FleetState,
}

impl Shared {
    /// Whether this server's request path records trace spans.
    fn tracing(&self) -> bool {
        self.config.trace_buffer > 0 && cc_trace::enabled()
    }

    /// Logs one completed request, leveled by status class: `debug` for
    /// success (so the default `info` level pays one atomic load per
    /// request on the hot path), `warn` for client errors, `error` for
    /// server errors. The level check precedes the format so silenced
    /// lines cost no allocation.
    fn log_request(
        &self,
        trace: u64,
        endpoint: Endpoint,
        method: &str,
        path: &str,
        status: u16,
        elapsed: Duration,
    ) {
        let level = match status {
            s if s >= 500 => Level::Error,
            s if s >= 400 => Level::Warn,
            _ => Level::Debug,
        };
        if self.logger.enabled(level) {
            self.logger.log(
                level,
                trace,
                endpoint.label(),
                format!("{method} {path} -> {status} in {:.3}ms", elapsed.as_secs_f64() * 1e3),
            );
        }
    }
}

/// Per-request trace identity: the numeric span id plus the exact token
/// echoed back on the `x-ccsynth-trace` response header (the client's
/// own token when supplied, the generated id's hex otherwise).
struct TraceCtx {
    id: u64,
    echo: String,
}

/// Response header carrying the trace id.
const TRACE_HEADER: &str = "x-ccsynth-trace";

/// Resolves a request's trace identity: accept `X-Ccsynth-Trace` when
/// present (hex tokens round-trip exactly; other tokens are hashed for
/// span tagging but echoed verbatim), generate otherwise.
fn trace_ctx(req: &crate::http::Request) -> TraceCtx {
    match req.header(TRACE_HEADER).map(str::trim).filter(|v| !v.is_empty()) {
        Some(v) => {
            let mut echo = v.to_owned();
            echo.truncate(64);
            TraceCtx { id: cc_trace::parse_id(&echo), echo }
        }
        None => {
            let id = cc_trace::gen_id();
            TraceCtx { id, echo: cc_trace::id_hex(id) }
        }
    }
}

/// A connection waiting in the queue for a worker.
struct Parked {
    stream: TcpStream,
    /// When it entered the queue — the dwell becomes the next request's
    /// `queue_wait` trace phase.
    queued_at: Instant,
    /// When it was accepted, last read bytes or last sent a response:
    /// the keep-alive clock, which a requeue must not reset.
    last_activity: Instant,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Self::shutdown`] for a graceful stop (tests and the CLI both
/// do).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    autosaver: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
    puller: Option<std::thread::JoinHandle<()>>,
}

/// The server: bind + spawn. All state lives in the returned handle.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the acceptor + worker threads
    /// serving `registry`. With [`ServerConfig::state_dir`] set, the
    /// state snapshot is restored **before** the first connection is
    /// accepted (a corrupt snapshot is quarantined and logged, never
    /// fatal), and an autosave thread starts when
    /// [`ServerConfig::autosave`] is set.
    ///
    /// # Errors
    /// Fails when the address cannot be bound or the state directory
    /// cannot be created.
    pub fn start(config: ServerConfig, registry: ProfileRegistry) -> std::io::Result<ServerHandle> {
        let logger = Logger::new(config.log_level, config.log_buffer);
        match &config.log_sink {
            LogSink::None => {}
            LogSink::Stderr => logger.stream_to_stderr(),
            LogSink::File(path) => logger.stream_to_file(path)?,
        }
        // One trace id ties every boot-lifecycle log line together.
        let boot_trace = cc_trace::gen_id();
        let monitors = MonitorSet::new();
        let metrics = Metrics::new();
        let durability = match &config.state_dir {
            Some(dir) => Some(Durability::new(dir)?),
            None => None,
        };
        if let Some(d) = &durability {
            for note in d.boot(&registry, &monitors, &metrics) {
                logger.info(boot_trace, "", format!("cc_server state: {note}"));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let autosave = config.autosave.filter(|_| durability.is_some());
        let self_watch = config.self_watch.clone();
        let role = config.role;
        let fleet = crate::fleet::FleetState::new(
            role,
            config.shard_addrs.clone(),
            config.export_cap,
            config.pull_interval,
        );
        if role == crate::fleet::Role::Shard {
            // Boot-restored monitors must export too — arm their logs
            // before the first connection can pull deltas.
            let cap = fleet.export_cap();
            for name in monitors.names() {
                if let Some(entry) = monitors.get(&name) {
                    entry.with_monitor(|m| m.set_export_cap(cap));
                }
            }
        }
        let shared = Arc::new(Shared {
            registry,
            monitors,
            metrics,
            durability,
            config,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            logger,
            selfwatch: SelfWatchState::new(),
            fleet,
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        shared.logger.info(
            boot_trace,
            "",
            format!(
                "cc_server listening on http://{addr} ({} worker{})",
                workers.len(),
                if workers.len() == 1 { "" } else { "s" }
            ),
        );
        let autosaver = autosave.map(|interval| {
            let shared = shared.clone();
            std::thread::spawn(move || autosave_loop(&shared, interval))
        });
        let sampler = self_watch.map(|cfg| {
            shared.logger.info(
                boot_trace,
                "",
                format!(
                    "self-watch sampling every {:?} (warmup {}, window {}, patience {})",
                    cfg.interval, cfg.warmup, cfg.window, cfg.patience
                ),
            );
            let shared = shared.clone();
            std::thread::spawn(move || crate::selfwatch::sampler_loop(&shared))
        });
        let puller = (role == crate::fleet::Role::Coordinator && !shared.fleet.shards().is_empty())
            .then(|| {
                shared.logger.info(
                    boot_trace,
                    "",
                    format!(
                        "fleet coordinator polling {} shard(s) every {:?}",
                        shared.fleet.shard_count(),
                        shared.fleet.pull_interval()
                    ),
                );
                let shared = shared.clone();
                std::thread::spawn(move || crate::fleet::pull_loop(&shared.fleet, &shared.shutdown))
            });
        Ok(ServerHandle { addr, shared, acceptor, workers, autosaver, sampler, puller })
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The profile registry (e.g. to trigger reloads in-process).
    pub fn registry(&self) -> &ProfileRegistry {
        &self.shared.registry
    }

    /// The online-monitor registry (`/v1/ingest` streams land here).
    pub fn monitors(&self) -> &MonitorSet {
        &self.shared.monitors
    }

    /// The server metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The structured logger (ring + optional stream).
    pub fn logger(&self) -> &Logger {
        &self.shared.logger
    }

    /// Self-watch sampler state (all zeros when self-watch is off).
    pub fn self_watch(&self) -> &SelfWatchState {
        &self.shared.selfwatch
    }

    /// The fleet role/membership state (standalone unless configured).
    pub fn fleet(&self) -> &crate::fleet::FleetState {
        &self.shared.fleet
    }

    /// Whether a state directory is configured (durable mode).
    pub fn durable(&self) -> bool {
        self.shared.durability.is_some()
    }

    /// Whether boot restored a state snapshot.
    pub fn restored(&self) -> bool {
        self.shared.durability.as_ref().is_some_and(Durability::restored)
    }

    /// Writes a state snapshot now (same as `POST /v1/snapshot`).
    ///
    /// # Errors
    /// `None` when no state directory is configured; otherwise the save
    /// result.
    pub fn save_state(&self) -> Option<Result<crate::state::SaveReport, cc_state::StateError>> {
        self.shared
            .durability
            .as_ref()
            .map(|d| d.save(&self.shared.registry, &self.shared.monitors, &self.shared.metrics))
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// drain queued connections, join every thread — then write a final
    /// state snapshot (durable mode), after the last request has
    /// settled, so the snapshot reflects everything the daemon served.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; harmless if the acceptor already exited. A
        // wildcard bind is not connectable on every platform — aim the
        // wake-up at loopback on the bound port instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(a) = self.autosaver {
            let _ = a.join();
        }
        if let Some(s) = self.sampler {
            let _ = s.join();
        }
        if let Some(p) = self.puller {
            let _ = p.join();
        }
        if let Some(d) = &self.shared.durability {
            match d.save(&self.shared.registry, &self.shared.monitors, &self.shared.metrics) {
                Ok(report) => self.shared.logger.info(
                    0,
                    "",
                    format!(
                        "cc_server state: saved {} ({} bytes, {} monitor{})",
                        report.path.display(),
                        report.bytes,
                        report.monitors,
                        if report.monitors == 1 { "" } else { "s" }
                    ),
                ),
                Err(e) => {
                    self.shared.logger.error(
                        0,
                        "",
                        format!("cc_server state: final snapshot failed: {e}"),
                    );
                }
            }
        }
    }
}

/// Cap on accepted-but-unserved connections. Beyond it the acceptor
/// answers `503` and closes instead of queueing without bound.
pub const MAX_PENDING_CONNECTIONS: usize = 1024;

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                shared.metrics.record_connection();
                shared.metrics.connection_opened();
                let mut queue = shared.queue.lock().expect("server lock never poisoned");
                if queue.len() >= MAX_PENDING_CONNECTIONS {
                    drop(queue);
                    // Shed load with an answer, not a silent hang.
                    let _ = stream
                        .write_all(&Response::error(503, "server is at capacity").serialize(false));
                    shared.metrics.record_request(Endpoint::Other, 503);
                    shared.metrics.connection_closed();
                    shared.logger.warn(0, "", "accept queue full; connection shed with 503");
                    continue;
                }
                let now = Instant::now();
                queue.push_back(Parked { stream, queued_at: now, last_activity: now });
                shared.metrics.set_compute_queue_depth(queue.len());
                drop(queue);
                shared.work_ready.notify_one();
            }
            // Transient accept errors (EMFILE, aborted handshakes):
            // back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let parked = {
            let mut queue = shared.queue.lock().expect("server lock never poisoned");
            loop {
                if let Some(p) = queue.pop_front() {
                    shared.metrics.set_compute_queue_depth(queue.len());
                    break Some(p);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .work_ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("server lock never poisoned");
                queue = q;
            }
        };
        match parked {
            Some(p) => serve_connection(p, shared),
            None => return,
        }
    }
}

/// Periodic state saves. Sleeps in short ticks so shutdown is noticed
/// promptly; a failed save is logged and retried next interval (the
/// previous snapshot file stays intact — atomic replace).
fn autosave_loop(shared: &Shared, interval: Duration) {
    let tick = Duration::from_millis(100).min(interval);
    let mut last_save = Instant::now();
    loop {
        std::thread::sleep(tick);
        if shared.shutdown.load(Ordering::SeqCst) {
            // The final snapshot is shutdown's job (after workers quiesce).
            return;
        }
        if last_save.elapsed() < interval {
            continue;
        }
        if let Some(d) = &shared.durability {
            if let Err(e) = d.save(&shared.registry, &shared.monitors, &shared.metrics) {
                shared.logger.error(0, "", format!("cc_server state: autosave failed: {e}"));
            }
        }
        last_save = Instant::now();
    }
}

/// Read timeout on connection sockets — the cadence at which idle
/// connections notice shutdown and the keep-alive clock, and the slice an
/// idle connection holds a worker while others wait.
const READ_TICK: Duration = Duration::from_millis(200);

/// Ceiling on how long a response write may block on a client that has
/// stopped reading — past it, the connection is dropped so no worker is
/// pinned by a full send buffer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Ceiling on how long one request may take to *arrive* in full. Bounds
/// the slow-trickle client (one byte per tick resets the idle clock but
/// not this one): past it, `408` and close.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Routes one request with panic containment — a handler panic answers
/// `500` instead of killing the calling thread. `trace_id` tags any
/// pipeline spans the handler records (0 when tracing is off).
fn execute(req: &crate::http::Request, shared: &Shared, trace_id: u64) -> (Endpoint, Response) {
    catch_unwind(AssertUnwindSafe(|| {
        crate::api::route(
            req,
            &crate::api::RouteCtx {
                registry: &shared.registry,
                monitors: &shared.monitors,
                metrics: &shared.metrics,
                durability: shared.durability.as_ref(),
                logger: &shared.logger,
                self_watch: shared.config.self_watch.as_ref(),
                self_state: &shared.selfwatch,
                trace_buffer: shared.config.trace_buffer,
                fleet: &shared.fleet,
            },
            trace_id,
        )
    }))
    .unwrap_or_else(|_| (Endpoint::Other, Response::error(500, "handler panicked")))
}

/// Drives one connection: feed → parse → route → respond, until close /
/// idle timeout / request deadline / terminal parse error / shutdown, or
/// until it is requeued. The queue dwell is the first request's
/// `queue_wait` phase (later keep-alive requests on the same pickup
/// report 0: they never waited in the queue).
fn serve_connection(parked: Parked, shared: &Shared) {
    if drive_connection(parked, shared) {
        shared.metrics.connection_closed();
    }
}

/// Parks `stream` at the back of the queue when other connections are
/// waiting for a worker; hands it back when none are.
fn requeue(shared: &Shared, stream: TcpStream, last_activity: Instant) -> Option<TcpStream> {
    let mut queue = shared.queue.lock().expect("server lock never poisoned");
    if queue.is_empty() {
        return Some(stream);
    }
    queue.push_back(Parked { stream, queued_at: Instant::now(), last_activity });
    shared.metrics.set_compute_queue_depth(queue.len());
    drop(queue);
    shared.work_ready.notify_one();
    None
}

/// [`serve_connection`]'s body. Returns whether the connection is done
/// (`false` only on the requeue paths, where the stream moved back into
/// the queue and stays open).
fn drive_connection(parked: Parked, shared: &Shared) -> bool {
    let Parked { mut stream, queued_at, mut last_activity } = parked;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let tracing = shared.tracing();
    let mut parser = RequestParser::new(shared.config.max_body_bytes);
    let mut read_buf = [0u8; 16 * 1024];
    // Set while a request is partially buffered; enforces REQUEST_DEADLINE.
    let mut request_started: Option<Instant> = None;
    // Accept-queue dwell, attributed to the first request only.
    let mut queue_wait: Option<(Instant, Duration)> = Some((queued_at, queued_at.elapsed()));
    // Parser CPU time accumulated toward the next completed request.
    let mut parse_spent = Duration::ZERO;
    loop {
        // Drain every already-buffered request first (pipelining), then
        // read more.
        let parse_started = Instant::now();
        let parsed = parser.try_next();
        parse_spent += parse_started.elapsed();
        match parsed {
            Ok(Some(req)) => {
                request_started = None;
                let trace = tracing.then(|| trace_ctx(&req));
                let trace_id = trace.as_ref().map_or(0, |t| t.id);
                let started = Instant::now();
                let shutting_down = shared.shutdown.load(Ordering::SeqCst);
                let (endpoint, mut response) = execute(&req, shared, trace_id);
                let handle_dur = started.elapsed();
                if let Some(ctx) = trace {
                    response.set_header(TRACE_HEADER, ctx.echo);
                }
                let keep_alive = !req.close && !shutting_down;
                let payload = response.serialize(keep_alive);
                let write_started = Instant::now();
                let ok = stream.write_all(&payload).is_ok();
                shared.metrics.record_request(endpoint, response.status);
                shared.log_request(
                    trace_id,
                    endpoint,
                    &req.method,
                    &req.path,
                    response.status,
                    started.elapsed(),
                );
                // Every request feeds the phase aggregates; trace id 0
                // (tracing off) keeps the spans out of the rings.
                let tag = endpoint.label();
                let (qw_start, qw_dur) = queue_wait.take().unwrap_or((started, Duration::ZERO));
                cc_trace::record(
                    cc_trace::Phase::Parse,
                    trace_id,
                    tag,
                    req.body.len() as u64,
                    parse_started,
                    parse_spent,
                );
                cc_trace::record(cc_trace::Phase::QueueWait, trace_id, tag, 0, qw_start, qw_dur);
                cc_trace::record(cc_trace::Phase::Handle, trace_id, tag, 0, started, handle_dur);
                cc_trace::record(
                    cc_trace::Phase::Write,
                    trace_id,
                    tag,
                    payload.len() as u64,
                    write_started,
                    write_started.elapsed(),
                );
                parse_spent = Duration::ZERO;
                if !keep_alive || !ok {
                    return true;
                }
                last_activity = Instant::now();
                // Fairness: a persistent keep-alive client must not pin
                // this worker while other connections wait. With no
                // pipelined bytes buffered, the connection can be parked
                // at the back of the queue and picked up fresh later.
                if parser.is_empty() {
                    match requeue(shared, stream, last_activity) {
                        Some(s) => stream = s,
                        None => return false,
                    }
                }
                continue;
            }
            Ok(None) => {
                // No complete request buffered. Shutdown drops the
                // connection here — only fully-received requests are
                // "in flight" — and a partially-received request is
                // held to REQUEST_DEADLINE regardless of how steadily
                // the client trickles bytes (each read resets the idle
                // clock, but never this one).
                if shared.shutdown.load(Ordering::SeqCst) {
                    return true;
                }
                match (&mut request_started, parser.is_empty()) {
                    (slot @ None, false) => *slot = Some(Instant::now()),
                    (Some(t), false) if t.elapsed() >= REQUEST_DEADLINE => {
                        let _ = stream.write_all(
                            &Response::error(408, "request took too long to arrive")
                                .serialize(false),
                        );
                        shared.metrics.record_request(Endpoint::Other, 408);
                        shared.logger.warn(0, "", "request deadline exceeded; answered 408");
                        return true;
                    }
                    _ => {}
                }
            }
            Err(e) => {
                // Terminal framing error: report and close.
                let _ = stream.write_all(&Response::error(e.status(), e.reason()).serialize(false));
                shared.metrics.record_request(Endpoint::Other, e.status());
                shared.logger.warn(
                    0,
                    "",
                    format!("request rejected: {} ({})", e.reason(), e.status()),
                );
                return true;
            }
        }
        match stream.read(&mut read_buf) {
            // EOF: clean close between requests, abrupt disconnect
            // mid-request — either way the connection is done.
            Ok(0) => return true,
            Ok(n) => {
                parser.feed(&read_buf[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= shared.config.keep_alive {
                    return true;
                }
                // Fairness again: an idle keep-alive connection yields
                // the worker after one tick when others are waiting.
                if parser.is_empty() {
                    match requeue(shared, stream, last_activity) {
                        Some(s) => stream = s,
                        None => return false,
                    }
                }
            }
            Err(_) => return true,
        }
    }
}
