//! Endpoint routing and handlers.
//!
//! Routing is **table-driven**: one static `ROUTES` table of
//! `(method, pattern, handler)` rows, where a pattern is a sequence of
//! literal and `{param}` segments. The router matches the split request
//! path against the table — no per-endpoint string matching — answering
//! `405` (with an `Allow` header) when a path matches under another
//! method and `404` when nothing matches.
//!
//! ## `/v2` resource routes (current)
//!
//! | Route | Semantics |
//! |---|---|
//! | `GET /healthz` | liveness + profile count + registry generation + fleet role |
//! | `GET /metrics` | Prometheus text exposition (fleet series included) |
//! | `GET /v2/profiles` | the published snapshot's profiles |
//! | `GET /v2/profiles/{name}` | one profile, including its constraint document |
//! | `POST /v2/profiles/reload` | atomically re-publish the profile registry |
//! | `POST /v2/check` | batch violations (`?top=K` offenders) |
//! | `POST /v2/explain` | per-constraint breakdown + ExTuNe responsibility |
//! | `POST /v2/drift` | mean / p95 / max drift of a batch |
//! | `GET /v2/monitors` | every monitor's status snapshot |
//! | `GET /v2/monitors/{name}` | one monitor's status (`400` bad name, `404` absent) |
//! | `DELETE /v2/monitors/{name}` | drop a monitor (`400` reserved names) |
//! | `POST /v2/monitors/{name}/ingest` | route a columnar batch into the monitor |
//! | `GET /v2/monitors/{name}/proposal` | the pending resynthesis proposal |
//! | `POST /v2/monitors/{name}/proposal` | `?action=adopt` \| `discard` the proposal |
//! | `GET /v2/monitors/{name}/deltas` | fleet export: closed windows since `?since=` |
//! | `GET /v2/fleet/shards` | fleet role + shard membership/health |
//! | `POST /v2/fleet/shards/{index}/deltas` | push one shard's delta batch |
//! | `POST /v2/snapshot` | write a durable state snapshot now (needs `--state-dir`) |
//! | `GET /v2/trace` | flight-recorder spans + slowest-request table |
//! | `GET /v2/logs` | recent structured log lines |
//! | `GET /v2/self` | self-watch report |
//!
//! ## `/v1` aliases (deprecated, kept byte-compatible)
//!
//! Every `/v1` route still works and produces the same success bodies it
//! always did — they share handlers with `/v2` — but each response
//! carries `Deprecation: true` plus a `Link: <successor>;
//! rel="successor-version"` header naming its `/v2` replacement:
//! `/v1/monitor` → `/v2/monitors[/{name}]` (resource addressing instead
//! of `?monitor=`), `/v1/ingest` → `/v2/monitors/{name}/ingest`,
//! `/v1/reload` → `/v2/profiles/reload`, and the rest map 1:1.
//!
//! **Name semantics (shared by both versions):** a monitor name that
//! violates the grammar (empty, > 128 bytes, characters outside
//! `[a-zA-Z0-9_.-]`) is `400` everywhere; a well-formed name with no
//! monitor behind it is `404`; writes (ingest, delete) to reserved
//! `__`-prefixed names are `400`, while reads of them stay allowed (the
//! self-watch monitor is observable but not externally writable).
//!
//! Every non-2xx JSON response across both connection cores carries one
//! structured error envelope:
//! `{"error": {"code": "<slug>", "message": "<text>"}}` (see
//! [`Response::error`]).
//!
//! `POST` bodies are JSON objects carrying a columnar `"columns"` batch
//! (see [`crate::json`]) and an optional `"profile"` name — optional
//! because a snapshot with exactly one profile selects it implicitly; the
//! `?profile=` query parameter takes precedence when both are present.
//! Handlers evaluate against a pinned snapshot ([`Snapshot`]), so a
//! concurrent reload never disturbs an in-flight request.
//!
//! The batch endpoints additionally speak the length-prefixed binary
//! columnar encoding ([`crate::wire`]): a request body with
//! `Content-Type: application/x-ccsynth-columnar` **is** the batch (no
//! JSON envelope — `profile`, `threads`, … ride the query string), and
//! `/v2/check` answers in the same encoding when the `Accept` header
//! lists it (a one-column `violations` frame). Violations are
//! bit-identical across all four request/reply encoding combinations.

use crate::fleet::{FleetState, Role};
use crate::http::{Request, Response};
use crate::json::{self, num_array, obj, string};
use crate::metrics::{Endpoint, Metrics};
use crate::registry::{ProfileEntry, ProfileRegistry, Snapshot};
use crate::selfwatch::{SelfWatchConfig, SelfWatchState, SELF_FEATURES, SELF_MONITOR};
use crate::state::Durability;
use cc_frame::DataFrame;
use cc_monitor::{
    validate_monitor_name, validate_monitor_name_grammar, ConfigState, DetectorKind, MonitorConfig,
    MonitorSet, MonitorStatus, OnlineMonitor, ShardDeltaBatch, WindowSpec, RESERVED_NAME_PREFIX,
};
use cc_obs::{Level, LogFilter, Logger};
use conformance::{mean_responsibility_from_plan, DriftAggregator};
use serde::Serialize;
use serde_json::Value;
use std::sync::Arc;

/// Everything a handler may need, borrowed from the server's shared
/// state. One struct instead of a parameter per subsystem: the router
/// fans a request out to handlers that each use a different slice.
pub struct RouteCtx<'a> {
    pub registry: &'a ProfileRegistry,
    pub monitors: &'a MonitorSet,
    pub metrics: &'a Metrics,
    pub durability: Option<&'a Durability>,
    /// The structured logger (`GET /v2/logs` reads its ring).
    pub logger: &'a Logger,
    /// The self-watch sampler config (`None` when self-watch is off).
    pub self_watch: Option<&'a SelfWatchConfig>,
    /// The self-watch sampler's runtime counters.
    pub self_state: &'a SelfWatchState,
    pub trace_buffer: usize,
    /// The fleet role/membership state (standalone unless configured).
    pub fleet: &'a FleetState,
}

/// One path segment of a route pattern.
enum Seg {
    /// Matches this literal segment exactly.
    Lit(&'static str),
    /// Matches any single segment and captures it.
    Param,
}

use Seg::{Lit, Param};

/// A handler: uniform signature so the table can hold plain fn pointers.
/// `params` are the captured `{…}` segments, in pattern order.
type Handler = fn(&Request, &RouteCtx<'_>, &[&str], u64) -> Response;

/// One row of the routing table.
struct RouteDef {
    method: &'static str,
    pattern: &'static [Seg],
    endpoint: Endpoint,
    handler: Handler,
    /// Set on `/v1` aliases: the `/v2` route advertised by the
    /// `Deprecation` + `Link: …; rel="successor-version"` headers.
    successor: Option<&'static str>,
}

const fn route_def(
    method: &'static str,
    pattern: &'static [Seg],
    endpoint: Endpoint,
    handler: Handler,
) -> RouteDef {
    RouteDef { method, pattern, endpoint, handler, successor: None }
}

const fn alias(
    method: &'static str,
    pattern: &'static [Seg],
    endpoint: Endpoint,
    handler: Handler,
    successor: &'static str,
) -> RouteDef {
    RouteDef { method, pattern, endpoint, handler, successor: Some(successor) }
}

/// The routing table. Literal rows precede parameter rows for the same
/// prefix (`/v2/profiles/reload` before `/v2/profiles/{name}`), so the
/// match is first-row-wins without any ambiguity.
const ROUTES: &[RouteDef] = &[
    // Unversioned operational endpoints.
    route_def("GET", &[Lit("healthz")], Endpoint::Healthz, h_healthz),
    route_def("GET", &[Lit("metrics")], Endpoint::Metrics, h_metrics),
    // /v2 resource routes.
    route_def("GET", &[Lit("v2"), Lit("profiles")], Endpoint::Profiles, h_profiles),
    route_def("POST", &[Lit("v2"), Lit("profiles"), Lit("reload")], Endpoint::Reload, h_reload),
    route_def("GET", &[Lit("v2"), Lit("profiles"), Param], Endpoint::Profiles, h_profile_detail),
    route_def("POST", &[Lit("v2"), Lit("check")], Endpoint::Check, h_check),
    route_def("POST", &[Lit("v2"), Lit("explain")], Endpoint::Explain, h_explain),
    route_def("POST", &[Lit("v2"), Lit("drift")], Endpoint::Drift, h_drift),
    route_def("GET", &[Lit("v2"), Lit("monitors")], Endpoint::Monitor, h_monitors_list),
    route_def("GET", &[Lit("v2"), Lit("monitors"), Param], Endpoint::Monitor, h_monitor_get),
    route_def("DELETE", &[Lit("v2"), Lit("monitors"), Param], Endpoint::Monitor, h_monitor_delete),
    route_def(
        "POST",
        &[Lit("v2"), Lit("monitors"), Param, Lit("ingest")],
        Endpoint::Ingest,
        h_monitor_ingest,
    ),
    route_def(
        "GET",
        &[Lit("v2"), Lit("monitors"), Param, Lit("proposal")],
        Endpoint::Proposal,
        h_proposal_get,
    ),
    route_def(
        "POST",
        &[Lit("v2"), Lit("monitors"), Param, Lit("proposal")],
        Endpoint::Proposal,
        h_proposal_post,
    ),
    route_def(
        "GET",
        &[Lit("v2"), Lit("monitors"), Param, Lit("deltas")],
        Endpoint::Deltas,
        h_deltas,
    ),
    route_def("GET", &[Lit("v2"), Lit("fleet"), Lit("shards")], Endpoint::Fleet, h_fleet_shards),
    route_def(
        "POST",
        &[Lit("v2"), Lit("fleet"), Lit("shards"), Param, Lit("deltas")],
        Endpoint::Fleet,
        h_fleet_push,
    ),
    route_def("POST", &[Lit("v2"), Lit("snapshot")], Endpoint::Snapshot, h_snapshot),
    route_def("GET", &[Lit("v2"), Lit("trace")], Endpoint::Trace, h_trace),
    route_def("GET", &[Lit("v2"), Lit("logs")], Endpoint::Logs, h_logs),
    route_def("GET", &[Lit("v2"), Lit("self")], Endpoint::SelfReport, h_self),
    // /v1 aliases: same handlers (byte-identical success bodies), plus
    // Deprecation/Link headers naming the successor route.
    alias("GET", &[Lit("v1"), Lit("profiles")], Endpoint::Profiles, h_profiles, "/v2/profiles"),
    alias("POST", &[Lit("v1"), Lit("check")], Endpoint::Check, h_check, "/v2/check"),
    alias("POST", &[Lit("v1"), Lit("explain")], Endpoint::Explain, h_explain, "/v2/explain"),
    alias("POST", &[Lit("v1"), Lit("drift")], Endpoint::Drift, h_drift, "/v2/drift"),
    alias(
        "POST",
        &[Lit("v1"), Lit("ingest")],
        Endpoint::Ingest,
        h_ingest_legacy,
        "/v2/monitors/{name}/ingest",
    ),
    alias(
        "GET",
        &[Lit("v1"), Lit("monitor")],
        Endpoint::Monitor,
        h_monitor_legacy_get,
        "/v2/monitors",
    ),
    alias(
        "DELETE",
        &[Lit("v1"), Lit("monitor")],
        Endpoint::Monitor,
        h_monitor_legacy_delete,
        "/v2/monitors/{name}",
    ),
    alias("POST", &[Lit("v1"), Lit("reload")], Endpoint::Reload, h_reload, "/v2/profiles/reload"),
    alias("POST", &[Lit("v1"), Lit("snapshot")], Endpoint::Snapshot, h_snapshot, "/v2/snapshot"),
    alias("GET", &[Lit("v1"), Lit("trace")], Endpoint::Trace, h_trace, "/v2/trace"),
    alias("GET", &[Lit("v1"), Lit("logs")], Endpoint::Logs, h_logs, "/v2/logs"),
    alias("GET", &[Lit("v1"), Lit("self")], Endpoint::SelfReport, h_self, "/v2/self"),
];

/// Matches one pattern against the split path, capturing `{…}` segments.
fn match_pattern<'a>(pattern: &[Seg], segs: &[&'a str]) -> Option<Vec<&'a str>> {
    if pattern.len() != segs.len() {
        return None;
    }
    let mut params = Vec::new();
    for (p, s) in pattern.iter().zip(segs) {
        match p {
            Seg::Lit(l) => {
                if l != s {
                    return None;
                }
            }
            Seg::Param => params.push(*s),
        }
    }
    Some(params)
}

/// Routes one request through the table. Never panics outward on bad
/// input — every failure maps to a 4xx/5xx response (the connection loop
/// additionally catches panics and answers 500). `trace_id` is the
/// per-request flight-recorder id resolved by the connection core (0
/// when tracing is off); handlers that spawn deeper pipeline work
/// (ingest) tag their spans with it.
pub fn route(req: &Request, ctx: &RouteCtx<'_>, trace_id: u64) -> (Endpoint, Response) {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Methods that DO serve this path, collected while scanning — they
    // become the 405's message and `Allow` header when no row matches
    // the request's own method.
    let mut allowed: Vec<&'static str> = Vec::new();
    for r in ROUTES {
        let Some(params) = match_pattern(r.pattern, &segs) else { continue };
        if r.method != req.method {
            if !allowed.contains(&r.method) {
                allowed.push(r.method);
            }
            continue;
        }
        let mut resp = (r.handler)(req, ctx, &params, trace_id);
        if let Some(successor) = r.successor {
            resp.set_header("deprecation", "true".to_owned());
            resp.set_header("link", format!("<{successor}>; rel=\"successor-version\""));
        }
        return (r.endpoint, resp);
    }
    if !allowed.is_empty() {
        let mut resp =
            Response::error(405, &format!("use {} for this endpoint", allowed.join(" or ")));
        resp.set_header("allow", allowed.join(", "));
        return (Endpoint::Other, resp);
    }
    (Endpoint::Other, Response::error(404, "no such endpoint"))
}

/// Ceiling on concurrently registered monitors — client-named state must
/// not grow without bound (see `ingest`).
pub const MAX_MONITORS: usize = 256;

// ---------------------------------------------------------------------
// Table adapters: uniform-signature wrappers over the handlers below.
// ---------------------------------------------------------------------

fn h_healthz(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    healthz(ctx)
}

fn h_metrics(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    metrics_text(ctx)
}

fn h_profiles(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    profiles(ctx.registry)
}

fn h_profile_detail(_req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    profile_detail(ctx.registry, p[0])
}

fn h_reload(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    reload(ctx.registry)
}

fn h_check(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    with_batch(req, ctx.registry, ctx.metrics, check)
}

fn h_explain(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    with_batch(req, ctx.registry, ctx.metrics, explain)
}

fn h_drift(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    with_batch(req, ctx.registry, ctx.metrics, drift)
}

fn h_ingest_legacy(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], trace_id: u64) -> Response {
    ingest(req, ctx, trace_id, None)
}

fn h_monitor_ingest(req: &Request, ctx: &RouteCtx<'_>, p: &[&str], trace_id: u64) -> Response {
    ingest(req, ctx, trace_id, Some(p[0]))
}

fn h_monitors_list(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    monitors_list(ctx)
}

fn h_monitor_legacy_get(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    match req.query_param("monitor") {
        Some(name) => monitor_get(ctx, name),
        None => monitors_list(ctx),
    }
}

fn h_monitor_get(_req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    monitor_get(ctx, p[0])
}

fn h_monitor_legacy_delete(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    let Some(name) = req.query_param("monitor") else {
        return Response::error(400, "name the monitor via ?monitor=");
    };
    monitor_delete(ctx.monitors, name)
}

fn h_monitor_delete(_req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    monitor_delete(ctx.monitors, p[0])
}

fn h_proposal_get(_req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    proposal_get(ctx, p[0])
}

fn h_proposal_post(req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    proposal_post(req, ctx, p[0])
}

fn h_deltas(req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    deltas_export(req, ctx, p[0])
}

fn h_fleet_shards(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    Response::json(&ctx.fleet.describe())
}

fn h_fleet_push(req: &Request, ctx: &RouteCtx<'_>, p: &[&str], _t: u64) -> Response {
    fleet_push(req, ctx, p[0])
}

fn h_snapshot(_req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    snapshot(ctx.registry, ctx.monitors, ctx.metrics, ctx.durability)
}

fn h_trace(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    trace(req, ctx.trace_buffer)
}

fn h_logs(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    logs(req, ctx.logger)
}

fn h_self(req: &Request, ctx: &RouteCtx<'_>, _p: &[&str], _t: u64) -> Response {
    self_report(req, ctx)
}

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

fn healthz(ctx: &RouteCtx<'_>) -> Response {
    let snap = ctx.registry.snapshot();
    // The liveness answer stays 200 even when degraded — the process is
    // up and serving; `degraded` reports the self-watch detector's alarm
    // (always false when self-watch never synthesized a `__self` monitor).
    let degraded = ctx.monitors.get(SELF_MONITOR).is_some_and(|e| e.status().alarm);
    Response::json(&obj(vec![
        ("status", string(if degraded { "degraded" } else { "ok" })),
        ("degraded", Value::Bool(degraded)),
        ("role", string(ctx.fleet.role().name())),
        ("profiles", Value::Number(snap.entries().len() as f64)),
        ("generation", Value::Number(snap.generation() as f64)),
        ("uptime_seconds", Value::Number(ctx.metrics.uptime_seconds())),
        // Durability posture: is a state dir configured, and did this
        // boot restore a snapshot from it?
        ("durable", Value::Bool(ctx.durability.is_some())),
        ("restored", Value::Bool(ctx.durability.is_some_and(Durability::restored))),
    ]))
}

/// `POST /v2/snapshot`: write a durable state snapshot immediately.
/// `409` when the daemon was started without a state directory; `500`
/// when the write fails (the previous snapshot file stays intact).
fn snapshot(
    registry: &ProfileRegistry,
    monitors: &MonitorSet,
    metrics: &Metrics,
    durability: Option<&Durability>,
) -> Response {
    let Some(d) = durability else {
        return Response::error(409, "no state directory configured (start with --state-dir)");
    };
    match d.save(registry, monitors, metrics) {
        Ok(report) => Response::json(&obj(vec![
            ("path", string(report.path.display().to_string())),
            ("bytes", Value::Number(report.bytes as f64)),
            ("monitors", Value::Number(report.monitors as f64)),
            ("generation", Value::Number(report.generation as f64)),
        ])),
        Err(e) => Response::error(500, &format!("snapshot failed: {e}")),
    }
}

/// One profile's listing entry (shared by the list and detail routes so
/// the shapes agree).
fn profile_entry_value(e: &ProfileEntry) -> Value {
    obj(vec![
        ("name", string(&e.name)),
        ("attributes", Value::Array(e.profile.numeric_attributes.iter().map(string).collect())),
        ("constraints", Value::Number(e.plan.constraint_count() as f64)),
        ("partitions", Value::Number(e.profile.disjunctive.len() as f64)),
    ])
}

fn profiles(registry: &ProfileRegistry) -> Response {
    let snap = registry.snapshot();
    let list: Vec<Value> = snap.entries().iter().map(|e| profile_entry_value(e)).collect();
    Response::json(&obj(vec![
        ("generation", Value::Number(snap.generation() as f64)),
        ("profiles", Value::Array(list)),
    ]))
}

/// `GET /v2/profiles/{name}`: one profile's listing entry plus the full
/// constraint document (what `ccsynth profile --out` wrote).
fn profile_detail(registry: &ProfileRegistry, name: &str) -> Response {
    let snap = registry.snapshot();
    let Some(e) = snap.entries().iter().find(|e| e.name == name) else {
        return Response::error(404, &format!("no profile named '{name}'"));
    };
    let mut v = profile_entry_value(e);
    if let Value::Object(pairs) = &mut v {
        pairs.push(("generation".to_owned(), Value::Number(snap.generation() as f64)));
        pairs.push(("profile".to_owned(), e.profile.to_value()));
    }
    Response::json(&v)
}

fn reload(registry: &ProfileRegistry) -> Response {
    match registry.reload() {
        Ok(snap) => Response::json(&obj(vec![
            ("generation", Value::Number(snap.generation() as f64)),
            ("profiles", Value::Array(snap.entries().iter().map(|e| string(&e.name)).collect())),
        ])),
        // The old snapshot stays published — a conflict, not a crash.
        Err(e) => Response::error(409, &format!("reload rejected: {e}")),
    }
}

fn metrics_text(ctx: &RouteCtx<'_>) -> Response {
    let snap = ctx.registry.snapshot();
    let as_series = |(name, s): (String, Arc<MonitorStatus>)| crate::metrics::MonitorSeries {
        name,
        rows_ingested: s.rows_ingested,
        windows_closed: s.windows_closed,
        window_lag: s.window_lag,
        alarms_total: s.alarms_total,
        proposals_total: s.proposals_total,
        alarm: s.alarm,
    };
    let mut monitor_series: Vec<crate::metrics::MonitorSeries> =
        ctx.monitors.statuses().into_iter().map(as_series).collect();
    // A coordinator's merged monitors live in the fleet state, not the
    // local registry — same series family either way.
    monitor_series
        .extend(ctx.fleet.monitor_statuses().into_iter().map(|(n, s)| as_series((n, Arc::new(s)))));
    let mut text = ctx.metrics.render_prometheus(
        snap.entries().len(),
        snap.generation(),
        &ctx.registry.compile_counts(),
        &monitor_series,
    );
    ctx.fleet.render_prometheus(&mut text);
    Response::text(200, text)
}

/// `POST /v2/monitors/{name}/ingest` (and the `/v1/ingest` alias, where
/// the name rides `?monitor=` or the body): routes a columnar batch into
/// a named online monitor. The monitor is created on first use, bound to
/// the resolved profile (the `profile` query/body field, or the
/// snapshot's single profile) with the requested window geometry:
///
/// ```json
/// {"columns": {…}, "profile": "alpha",
///  "window": 512, "stride": 256, "detector": "cusum",
///  "calibrate": 8, "patience": 3, "aggregator": "mean"}
/// ```
///
/// Geometry/detector fields only matter on the creating call; later
/// calls ingest into the existing monitor as-is (`threads` is per-call:
/// it sizes the lock-free score phase, clamped to 1..=64). The response
/// carries a report for every window the batch closed plus the status
/// snapshot this commit published (alarm state, proposed-profile
/// generation, …). Concurrent connections may feed one monitor: batches
/// score in parallel and commit in admission order (`start_row` reports
/// where each batch landed), bit-identical to serialized ingest.
///
/// On a fleet shard, a created monitor's export log is armed so a
/// coordinator can pull its closed windows. On a coordinator, ingest is
/// `409`: the coordinator's monitors are merged views, fed by shard
/// deltas, never by direct rows.
fn ingest(req: &Request, ctx: &RouteCtx<'_>, trace_id: u64, path_name: Option<&str>) -> Response {
    if ctx.fleet.role() == Role::Coordinator {
        return Response::error(409, "this node is a coordinator; ingest into its shards instead");
    }
    let (registry, monitors, metrics) = (ctx.registry, ctx.monitors, ctx.metrics);
    let (frame, body) = match batch_payload(req, metrics) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let name = match path_name {
        Some(n) => n.to_owned(),
        None => match req
            .query_param("monitor")
            .or_else(|| json::get(&body, "monitor").and_then(json::as_str))
        {
            Some(n) if !n.is_empty() => n.to_owned(),
            _ => return Response::error(400, "body needs a 'monitor' name"),
        },
    };
    // Grammar + reserved-prefix check up front: it also shields the
    // server's own `__self` stream from external writes.
    if let Err(e) = validate_monitor_name(&name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    let (monitor, created) = match monitors.get(&name) {
        Some(m) => (m, false),
        None => {
            // First use: resolve the profile and build the monitor.
            // Monitor names come from untrusted clients and each monitor
            // holds real state (a compiled plan, open windows, a resynth
            // ring), so creation is capped — the same resource-exhaustion
            // posture as the accept-queue/body limits.
            if monitors.len() >= MAX_MONITORS {
                return Response::error(
                    409,
                    &format!(
                        "monitor registry is full ({MAX_MONITORS}); DELETE /v2/monitors/{{name}} to free one"
                    ),
                );
            }
            let snap: Arc<Snapshot> = registry.snapshot();
            let profile_name = req
                .query_param("profile")
                .or_else(|| json::get(&body, "profile").and_then(json::as_str));
            let Some(entry) = snap.select(profile_name) else {
                let msg = match profile_name {
                    Some(n) => format!("no profile named '{n}'"),
                    None => {
                        format!("{} profiles loaded; name one via 'profile'", snap.entries().len())
                    }
                };
                return Response::error(404, &msg);
            };
            let cfg = match monitor_config_from(req, &body) {
                Ok(c) => c,
                Err(e) => return Response::error(400, &e),
            };
            let profile = entry.profile.clone();
            // The `created` flag comes from get_or_create itself: a
            // concurrent creator may win the race, and only one response
            // may claim the creation (the loser's config was discarded).
            match monitors.get_or_create(&name, || OnlineMonitor::new(profile, cfg)) {
                Ok((m, created)) => (m, created),
                Err(e) => return Response::error(400, &e.to_string()),
            }
        }
    };
    if created && ctx.fleet.role() == Role::Shard {
        // Arm the fleet export log so the coordinator can pull this
        // monitor's closed windows (idempotent; losers of the creation
        // race skip it — the winner armed the cap already).
        let cap = ctx.fleet.export_cap();
        monitor.with_monitor(|m| m.set_export_cap(cap));
    }
    let threads = match field_usize(req, &body, "threads") {
        Ok(t) => t.unwrap_or(1).clamp(1, 64),
        Err(e) => return Response::error(400, &e),
    };
    // Two-phase pipeline: the batch scores lock-free through the entry's
    // published plan (optionally in parallel), then commits in admission
    // order under the short monitor lock. Concurrent connections feeding
    // one monitor serialize only the commit, and the interleaving is
    // bit-identical to serialized ingest.
    match monitor.ingest_traced(&frame, threads, trace_id) {
        Ok((report, status)) => {
            metrics.add_rows_checked(report.rows);
            Response::json(&obj(vec![
                ("monitor", string(&name)),
                ("created", Value::Bool(created)),
                // The committed profile generation, surfaced alongside the
                // nested status so clients can correlate trace events with
                // scorer swaps without digging into the status object.
                ("generation", Value::Number(status.generation as f64)),
                ("rows", Value::Number(report.rows as f64)),
                ("start_row", Value::Number(report.start_row as f64)),
                ("windows", report.windows.to_value()),
                ("alarm", Value::Bool(report.alarm)),
                ("status", status.to_value()),
            ]))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// An integer monitor/handler field: query parameter first (the only
/// channel binary-columnar requests have), then the JSON body.
fn field_usize(req: &Request, body: &Value, key: &str) -> Result<Option<usize>, String> {
    if let Some(s) = req.query_param(key) {
        return match s.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(format!("'{key}' must be a non-negative integer")),
        };
    }
    match json::get(body, key) {
        None => Ok(None),
        Some(v) => match json::as_usize(v) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("'{key}' must be a non-negative integer")),
        },
    }
}

/// A string monitor/handler field: query parameter first, then the JSON
/// body (a present-but-non-string body value reads as `""` so it still
/// hits the field's unknown-value error).
fn field_str<'a>(req: &'a Request, body: &'a Value, key: &str) -> Option<&'a str> {
    req.query_param(key).or_else(|| json::get(body, key).map(|v| json::as_str(v).unwrap_or("")))
}

/// Builds a [`MonitorConfig`] from the ingest request's optional fields
/// (query parameters or JSON body), on top of the crate defaults.
fn monitor_config_from(req: &Request, body: &Value) -> Result<MonitorConfig, String> {
    let mut cfg = MonitorConfig::default();
    let window = field_usize(req, body, "window")?.unwrap_or(cfg.spec.window());
    let stride = field_usize(req, body, "stride")?.unwrap_or(window);
    cfg.spec = WindowSpec::new(window, stride).map_err(|e| e.to_string())?;
    if let Some(spelled) = field_str(req, body, "detector") {
        cfg.detector = DetectorKind::parse(spelled)
            .ok_or_else(|| format!("unknown detector '{spelled}' (ewma, cusum, page-hinkley)"))?;
    }
    if let Some(spelled) = field_str(req, body, "aggregator") {
        cfg.aggregator = match spelled {
            "mean" => DriftAggregator::Mean,
            "max" => DriftAggregator::Max,
            other => return Err(format!("unknown aggregator '{other}' (mean, max)")),
        };
    }
    if let Some(v) = field_usize(req, body, "calibrate")? {
        cfg.calibration_windows = v;
    }
    if let Some(v) = field_usize(req, body, "patience")? {
        cfg.patience = v;
    }
    Ok(cfg)
}

/// `DELETE /v2/monitors/{name}` (and the `?monitor=` alias): drops a
/// monitor (and frees its slot under [`MAX_MONITORS`]). A name outside
/// the grammar is `400`, a well-formed absent name `404`; reserved
/// (`__`-prefixed) monitors belong to the server and cannot be deleted
/// externally (`400`).
fn monitor_delete(monitors: &MonitorSet, name: &str) -> Response {
    if let Err(e) = validate_monitor_name_grammar(name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    if name.starts_with(RESERVED_NAME_PREFIX) {
        return Response::error(
            400,
            &format!("'{name}' is reserved for the server's own monitors"),
        );
    }
    if !monitors.remove(name) {
        return Response::error(404, &format!("no monitor named '{name}'"));
    }
    Response::json(&obj(vec![
        ("deleted", string(name)),
        ("monitors", Value::Number(monitors.len() as f64)),
    ]))
}

/// A monitor status entry: the status snapshot with the name spliced in
/// front (shared by the single and list routes so the shapes agree).
fn status_entry(name: &str, status: &MonitorStatus) -> Value {
    let mut v = status.to_value();
    if let Value::Object(pairs) = &mut v {
        pairs.insert(0, ("monitor".to_owned(), string(name)));
    }
    v
}

/// `GET /v2/monitors/{name}` (and `GET /v1/monitor?monitor=`): one
/// monitor's status. Grammar violations are `400`; a well-formed name
/// with no monitor behind it is `404`. Reserved `__`-prefixed names stay
/// **readable** — observability of the server's own monitors is the
/// point — only writes to them are rejected.
fn monitor_get(ctx: &RouteCtx<'_>, name: &str) -> Response {
    if let Err(e) = validate_monitor_name_grammar(name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    // Published status — never waits behind an in-flight ingest.
    if let Some(m) = ctx.monitors.get(name) {
        return Response::json(&status_entry(name, &m.status()));
    }
    // A coordinator's merged monitors live in the fleet state.
    if let Some(s) = ctx.fleet.monitor_status(name) {
        return Response::json(&status_entry(name, &s));
    }
    Response::error(404, &format!("no monitor named '{name}'"))
}

/// `GET /v2/monitors` (and bare `GET /v1/monitor`): every monitor's
/// status — local ones plus, on a coordinator, the fleet-merged views.
fn monitors_list(ctx: &RouteCtx<'_>) -> Response {
    let mut list: Vec<Value> =
        ctx.monitors.statuses().iter().map(|(n, s)| status_entry(n, s)).collect();
    let fleet_statuses = ctx.fleet.monitor_statuses();
    let count = ctx.monitors.len() + fleet_statuses.len();
    list.extend(fleet_statuses.iter().map(|(n, s)| status_entry(n, s)));
    Response::json(&obj(vec![
        ("monitors", Value::Array(list)),
        ("count", Value::Number(count as f64)),
    ]))
}

/// The proposal resource body shared by GET and the POST outcomes.
fn proposal_body(name: &str, p: Option<&cc_monitor::ProposedProfile>) -> Response {
    let mut fields = vec![("monitor", string(name)), ("pending", Value::Bool(p.is_some()))];
    if let Some(p) = p {
        fields.push(("proposal", p.to_value()));
    }
    Response::json(&obj(fields))
}

/// `GET /v2/monitors/{name}/proposal`: the pending resynthesis proposal
/// (`pending: false` with no proposal — the resource exists whenever the
/// monitor does).
fn proposal_get(ctx: &RouteCtx<'_>, name: &str) -> Response {
    if let Err(e) = validate_monitor_name_grammar(name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    if let Some(e) = ctx.monitors.get(name) {
        let guard = e.lock();
        return proposal_body(name, guard.proposal());
    }
    if let Some(resp) =
        ctx.fleet.with_merged(name, |mm| proposal_body(name, mm.monitor().proposal()))
    {
        return resp;
    }
    Response::error(404, &format!("no monitor named '{name}'"))
}

/// `POST /v2/monitors/{name}/proposal?action=adopt|discard`: resolve the
/// pending proposal. Adoption swaps the monitored profile (generation
/// bump, detector re-calibration) through the entry's pipeline lock so
/// concurrent ingest serializes cleanly around the swap; `409` when no
/// proposal is pending. On a coordinator, adoption is rejected (`409`) —
/// the merged series re-derives from shard deltas, so the profile swap
/// must happen on the shards — while `discard` works anywhere.
fn proposal_post(req: &Request, ctx: &RouteCtx<'_>, name: &str) -> Response {
    if let Err(e) = validate_monitor_name_grammar(name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    let action = match req.query_param("action") {
        Some(a) => a.to_owned(),
        None => {
            let from_body = if req.body.is_empty() {
                None
            } else {
                std::str::from_utf8(&req.body)
                    .ok()
                    .and_then(|t| serde_json::from_str::<Value>(t).ok())
                    .and_then(|b| json::get(&b, "action").and_then(json::as_str).map(str::to_owned))
            };
            match from_body {
                Some(a) => a,
                None => {
                    return Response::error(
                        400,
                        "name an action via ?action= or a JSON body ('adopt' or 'discard')",
                    )
                }
            }
        }
    };
    if action != "adopt" && action != "discard" {
        return Response::error(400, &format!("unknown action '{action}' (adopt, discard)"));
    }
    if let Some(e) = ctx.monitors.get(name) {
        return if action == "adopt" {
            // with_monitor drains the entry's score pipeline and
            // republishes the scorer/status after the closure — exactly
            // what a generation swap needs.
            match e.with_monitor(|m| m.adopt_proposal()) {
                Some(generation) => Response::json(&obj(vec![
                    ("monitor", string(name)),
                    ("adopted", Value::Bool(true)),
                    ("generation", Value::Number(generation as f64)),
                ])),
                None => Response::error(409, "no pending proposal"),
            }
        } else if e.with_monitor(|m| m.discard_proposal()) {
            Response::json(&obj(vec![("monitor", string(name)), ("discarded", Value::Bool(true))]))
        } else {
            Response::error(409, "no pending proposal")
        };
    }
    if let Some(resp) = ctx.fleet.with_merged(name, |mm| {
        if action == "adopt" {
            return Response::error(
                409,
                "adopt proposals on the shards; the coordinator's merged series re-derives \
                 from their deltas",
            );
        }
        if mm.monitor_mut().discard_proposal() {
            Response::json(&obj(vec![("monitor", string(name)), ("discarded", Value::Bool(true))]))
        } else {
            Response::error(409, "no pending proposal")
        }
    }) {
        return resp;
    }
    Response::error(404, &format!("no monitor named '{name}'"))
}

/// `GET /v2/monitors/{name}/deltas?since=N`: the shard half of the fleet
/// catch-up protocol — closed windows from epoch `N` on, wrapped in the
/// `cc_state` envelope ([`cc_state::encode_envelope`]) so the payload
/// carries the snapshot format's magic/version/checksum. `409` when the
/// node is not a shard or the bounded export log no longer covers the
/// cursor (the coordinator marks the shard stale).
fn deltas_export(req: &Request, ctx: &RouteCtx<'_>, name: &str) -> Response {
    if let Err(e) = validate_monitor_name_grammar(name) {
        return Response::error(400, &format!("bad monitor name: {e}"));
    }
    if ctx.fleet.role() != Role::Shard {
        return Response::error(409, "this node does not export deltas (start with --role shard)");
    }
    let since: u64 = match req.query_param("since") {
        None => 0,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => return Response::error(400, "'since' must be a non-negative integer"),
        },
    };
    let Some(entry) = ctx.monitors.get(name) else {
        return Response::error(404, &format!("no monitor named '{name}'"));
    };
    // Read under the monitor lock (serialized with commits, never with
    // lock-free scoring) so the cursor arithmetic sees a settled log.
    let batch = {
        let m = entry.lock();
        m.deltas_since(since).map(|deltas| ShardDeltaBatch {
            monitor: name.to_owned(),
            generation: m.generation(),
            config: ConfigState::from_config(m.config()),
            profile: m.profile().clone(),
            since,
            next: since + deltas.len() as u64,
            windows_closed: m.windows_exported(),
            rows_ingested: m.rows_ingested(),
            deltas,
        })
    };
    match batch {
        Ok(batch) => match cc_state::encode_envelope(&batch) {
            Ok(text) => Response::json_text(text),
            Err(e) => Response::error(500, &format!("delta encoding failed: {e}")),
        },
        Err(e) => Response::error(409, &format!("delta export failed: {e}")),
    }
}

/// `POST /v2/fleet/shards/{index}/deltas`: push-path ingestion of one
/// shard's delta batch into the coordinator's merged monitors — the same
/// absorption the pull loop runs, for shards that prefer to push.
fn fleet_push(req: &Request, ctx: &RouteCtx<'_>, index: &str) -> Response {
    if ctx.fleet.role() != Role::Coordinator {
        return Response::error(
            409,
            "this node is not a coordinator (start with --role coordinator)",
        );
    }
    let Ok(shard): Result<usize, _> = index.parse() else {
        return Response::error(400, "shard index must be a non-negative integer");
    };
    if shard >= ctx.fleet.shard_count() {
        return Response::error(
            404,
            &format!("no shard {shard} (fleet has {} shard(s))", ctx.fleet.shard_count()),
        );
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let batch: ShardDeltaBatch = match cc_state::decode_envelope(text) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &format!("bad delta envelope: {e}")),
    };
    match ctx.fleet.absorb(shard, &batch) {
        Ok(report) => Response::json(&obj(vec![
            ("monitor", string(&report.monitor)),
            ("absorbed", Value::Number(report.absorbed as f64)),
            ("epochs_merged", Value::Number(report.epochs_merged as f64)),
            ("cursor", Value::Number(report.cursor as f64)),
        ])),
        Err(e) => Response::error(409, &e),
    }
}

/// `GET /v2/trace`: the flight recorder's recent spans plus a top-K
/// slowest-requests table with full phase breakdown.
///
/// Query parameters: `endpoint=` keeps only request-lifecycle spans for
/// that endpoint (and scopes the slow table to it), `monitor=` keeps only
/// ingest-pipeline spans for that monitor, `min_us=` drops spans shorter
/// than the threshold, `limit=` bounds the span list (default 256), and
/// `top=` sizes the slow-request table (default 10).
fn trace(req: &Request, trace_buffer: usize) -> Response {
    // Per-server gate AND process-global recorder: both must be on for
    // this daemon's requests to have recorded anything.
    let enabled = trace_buffer > 0 && cc_trace::enabled();
    let endpoint = req.query_param("endpoint");
    let monitor = req.query_param("monitor");
    let min_us: u64 = req.query_param("min_us").and_then(|s| s.parse().ok()).unwrap_or(0);
    let limit: usize =
        req.query_param("limit").and_then(|s| s.parse().ok()).unwrap_or(256).clamp(1, 4096);
    let top: usize =
        req.query_param("top").and_then(|s| s.parse().ok()).unwrap_or(10).clamp(1, 256);

    let all = cc_trace::snapshot(4096);

    // The slow-request table groups request-lifecycle spans by trace id;
    // a request qualifies once its `handle` span is recorded. Phases are
    // sequential, so their sum is the request's total in-server time.
    struct Slow {
        endpoint: String,
        start_us: u64,
        phases: [u64; 4],
        seen_handle: bool,
    }
    let mut by_trace: Vec<(u64, Slow)> = Vec::new();
    for s in &all {
        let Some(idx) = cc_trace::Phase::SERVER.iter().position(|&p| p == s.phase) else {
            continue;
        };
        if endpoint.is_some_and(|e| e != s.tag) {
            continue;
        }
        let slot = match by_trace.iter_mut().find(|(id, _)| *id == s.trace_id) {
            Some((_, slot)) => slot,
            None => {
                by_trace.push((
                    s.trace_id,
                    Slow {
                        endpoint: String::new(),
                        start_us: s.start_us,
                        phases: [0; 4],
                        seen_handle: false,
                    },
                ));
                &mut by_trace.last_mut().expect("just pushed").1
            }
        };
        slot.phases[idx] += s.dur_us;
        slot.start_us = slot.start_us.min(s.start_us);
        if s.phase == cc_trace::Phase::Handle {
            slot.seen_handle = true;
            slot.endpoint = s.tag.clone();
        }
    }
    let mut slow: Vec<(u64, Slow)> = by_trace.into_iter().filter(|(_, s)| s.seen_handle).collect();
    slow.sort_by_key(|(_, s)| std::cmp::Reverse(s.phases.iter().sum::<u64>()));
    slow.truncate(top);
    let slowest: Vec<Value> = slow
        .into_iter()
        .map(|(id, s)| {
            let breakdown: Vec<(&str, Value)> = cc_trace::Phase::SERVER
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name(), Value::Number(s.phases[i] as f64)))
                .collect();
            obj(vec![
                ("trace", string(cc_trace::id_hex(id))),
                ("endpoint", string(&s.endpoint)),
                ("start_us", Value::Number(s.start_us as f64)),
                ("total_us", Value::Number(s.phases.iter().sum::<u64>() as f64)),
                ("phases", obj(breakdown)),
            ])
        })
        .collect();

    let filtered: Vec<&cc_trace::SpanRecord> = all
        .iter()
        .filter(|s| {
            if s.dur_us < min_us {
                return false;
            }
            if let Some(e) = endpoint {
                if !(cc_trace::Phase::SERVER.contains(&s.phase) && s.tag == e) {
                    return false;
                }
            }
            if let Some(m) = monitor {
                let monitor_phase = cc_trace::Phase::MONITOR.contains(&s.phase)
                    || s.phase == cc_trace::Phase::WindowClose;
                if !(monitor_phase && s.tag == m) {
                    return false;
                }
            }
            true
        })
        .collect();
    let spans: Vec<Value> = filtered
        .iter()
        .rev()
        .take(limit)
        .rev()
        .map(|s| {
            obj(vec![
                ("phase", string(s.phase.name())),
                ("trace", string(cc_trace::id_hex(s.trace_id))),
                ("tag", string(&s.tag)),
                ("extra", Value::Number(s.extra as f64)),
                ("start_us", Value::Number(s.start_us as f64)),
                ("dur_us", Value::Number(s.dur_us as f64)),
            ])
        })
        .collect();

    Response::json(&obj(vec![
        ("buffer", Value::Number(if enabled { cc_trace::buffer_capacity() } else { 0 } as f64)),
        ("enabled", Value::Bool(enabled)),
        ("matched", Value::Number(filtered.len() as f64)),
        ("spans", Value::Array(spans)),
        ("slowest", Value::Array(slowest)),
    ]))
}

/// `GET /v2/logs`: the structured log ring, oldest-first.
///
/// Query parameters: `level=` keeps records at or above a level
/// (`debug`/`info`/`warn`/`error`), `endpoint=` matches the record's
/// endpoint label exactly, `trace=` matches a hex trace id, `limit=`
/// bounds the answer (default 256, newest kept).
fn logs(req: &Request, logger: &Logger) -> Response {
    let mut filter = LogFilter::default();
    if let Some(s) = req.query_param("level") {
        match Level::parse(s) {
            Some(l) => filter.min_level = Some(l),
            None => {
                return Response::error(
                    400,
                    &format!("unknown level '{s}' (debug, info, warn, error)"),
                )
            }
        }
    }
    if let Some(e) = req.query_param("endpoint") {
        filter.endpoint = Some(e.to_owned());
    }
    if let Some(t) = req.query_param("trace") {
        match u64::from_str_radix(t, 16) {
            Ok(v) => filter.trace = Some(v),
            Err(_) => return Response::error(400, "'trace' must be a hex trace id"),
        }
    }
    filter.limit =
        req.query_param("limit").and_then(|s| s.parse().ok()).unwrap_or(256).clamp(1, 4096);
    let records = logger.recent(&filter);
    Response::json(&obj(vec![
        ("level", string(logger.level().name())),
        ("capacity", Value::Number(logger.capacity() as f64)),
        ("emitted", Value::Number(logger.emitted() as f64)),
        ("evicted", Value::Number(logger.evicted() as f64)),
        ("count", Value::Number(records.len() as f64)),
        ("logs", Value::Array(records.iter().map(|r| r.to_value()).collect())),
    ]))
}

/// `GET /v2/self`: the self-watch report — sampler configuration and
/// counters, the latest folded sample, the `__self` detector's status,
/// and a tail of its drift history (`?history=` entries, default 64).
fn self_report(req: &Request, ctx: &RouteCtx<'_>) -> Response {
    let entry = ctx.monitors.get(SELF_MONITOR);
    let (synthesized, calibrated, degraded, status) = match &entry {
        Some(e) => {
            let s = e.status();
            (true, s.calibrated, s.alarm, s.to_value())
        }
        None => (false, false, false, Value::Null),
    };
    let mut fields = vec![
        ("monitor", string(SELF_MONITOR)),
        ("enabled", Value::Bool(ctx.self_watch.is_some())),
        ("ticks", Value::Number(ctx.self_state.ticks() as f64)),
        ("synthesized", Value::Bool(synthesized)),
        ("calibrated", Value::Bool(calibrated)),
        ("degraded", Value::Bool(degraded)),
        ("synth_errors", Value::Number(ctx.self_state.synth_errors() as f64)),
        ("ingest_errors", Value::Number(ctx.self_state.ingest_errors() as f64)),
        ("features", Value::Array(SELF_FEATURES.iter().copied().map(string).collect())),
    ];
    if let Some(cfg) = ctx.self_watch {
        fields.push(("interval_ms", Value::Number(cfg.interval.as_secs_f64() * 1e3)));
        fields.push(("warmup", Value::Number(cfg.warmup as f64)));
        fields.push(("window", Value::Number(cfg.window as f64)));
        fields.push(("calibrate", Value::Number(cfg.calibration_windows as f64)));
        fields.push(("patience", Value::Number(cfg.patience as f64)));
    }
    if let Some(sample) = ctx.self_state.last_sample() {
        fields.push((
            "sample",
            obj(SELF_FEATURES
                .iter()
                .copied()
                .zip(sample)
                .map(|(n, v)| (n, Value::Number(v)))
                .collect()),
        ));
    }
    fields.push(("status", status));
    if let Some(e) = &entry {
        let keep: usize =
            req.query_param("history").and_then(|s| s.parse().ok()).unwrap_or(64).clamp(1, 4096);
        let drifts: Vec<f64> = e.lock().history().collect();
        let tail = &drifts[drifts.len().saturating_sub(keep)..];
        fields.push(("history", num_array(tail)));
    }
    Response::json(&obj(fields))
}

/// A parsed batch request: the resolved profile entry, the batch frame,
/// and the body's handler fields (every top-level member but
/// `"columns"`).
struct Batch {
    entry: Arc<ProfileEntry>,
    frame: DataFrame,
    body: Value,
}

/// Decodes a batch request body into its frame by negotiated encoding.
///
/// Binary columnar (`Content-Type: application/x-ccsynth-columnar`)
/// deserializes straight into the SoA `DataFrame` layout the compiled
/// plans gather from — zero float parsing, zero per-row allocation —
/// and returns an empty JSON body (handler fields ride the query
/// string). Anything else is JSON, scanned by [`json::decode_batch`]
/// straight into the frame, with the other top-level members as the
/// handler fields.
fn batch_payload(req: &Request, metrics: &Metrics) -> Result<(DataFrame, Value), Response> {
    if req.body_is_columnar() {
        metrics.record_wire(true);
        let frame = crate::wire::decode_frame(&req.body)
            .map_err(|e| Response::error(400, &format!("bad columnar frame: {e}")))?;
        return Ok((frame, Value::Object(Vec::new())));
    }
    metrics.record_wire(false);
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    json::decode_batch(text).map_err(|e| Response::error(400, &e))
}

/// Shared plumbing for the three batch endpoints: decode the body (JSON
/// or binary columnar), resolve the profile against a pinned snapshot,
/// count the rows into the metrics, then hand off.
fn with_batch(
    req: &Request,
    registry: &ProfileRegistry,
    metrics: &Metrics,
    handler: fn(&Request, Batch) -> Response,
) -> Response {
    let (frame, body) = match batch_payload(req, metrics) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let snap: Arc<Snapshot> = registry.snapshot();
    let name =
        req.query_param("profile").or_else(|| json::get(&body, "profile").and_then(json::as_str));
    let Some(entry) = snap.select(name) else {
        let msg = match name {
            Some(n) => format!("no profile named '{n}'"),
            None => format!("{} profiles loaded; name one via 'profile'", snap.entries().len()),
        };
        return Response::error(404, &msg);
    };
    let rows = frame.n_rows();
    let response = handler(req, Batch { entry: entry.clone(), frame, body });
    // Count rows only when they were actually scored — a 400 whose
    // columns never bound must not inflate the throughput counter.
    if response.status == 200 {
        metrics.add_rows_checked(rows);
    }
    response
}

/// `POST /v2/check`: per-tuple violations through the compiled plan —
/// bit-identical to a direct [`conformance::CompiledProfile::violations`]
/// call on the same frame (the shim's shortest-round-trip `f64` JSON
/// keeps it exact over the wire).
fn check(req: &Request, batch: Batch) -> Response {
    let threads = match field_usize(req, &batch.body, "threads") {
        Ok(t) => t.unwrap_or(1).clamp(1, 64),
        Err(e) => return Response::error(400, &e),
    };
    // An empty batch conforms trivially — and carries no type information
    // for its columns, so it must not reach plan binding.
    let violations = if batch.frame.n_rows() == 0 {
        Vec::new()
    } else {
        match batch.entry.plan.violations_parallel(&batch.frame, threads) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &e.to_string()),
        }
    };
    // Binary reply when asked for: the violations plane as a one-column
    // columnar frame — same f64 bits as the JSON array, no formatting.
    if req.accepts_columnar() {
        return Response::columnar(crate::wire::encode_violations(&violations));
    }
    let n = violations.len();
    let mean = violations.iter().sum::<f64>() / n.max(1) as f64;
    let max = violations.iter().fold(0.0f64, |m, &v| m.max(v));
    let mut fields = vec![
        ("profile", string(&batch.entry.name)),
        ("rows", Value::Number(n as f64)),
        ("constraints", Value::Number(batch.entry.plan.constraint_count() as f64)),
        ("mean", Value::Number(mean)),
        ("max", Value::Number(max)),
        ("violations", num_array(&violations)),
    ];
    let threshold = req
        .query_param("threshold")
        .and_then(|t| t.parse().ok())
        .or_else(|| json::get(&batch.body, "threshold").and_then(json::as_f64));
    if let Some(threshold) = threshold {
        let n_unsafe = violations.iter().filter(|&&v| v > threshold).count();
        fields.push(("unsafe", Value::Number(n_unsafe as f64)));
    }
    let top = req
        .query_param("top")
        .and_then(|t| t.parse().ok())
        .or_else(|| json::get(&batch.body, "top").and_then(json::as_usize))
        .unwrap_or(0);
    if top > 0 {
        fields.push(("top", top_offenders(&violations, top)));
    }
    Response::json(&obj(fields))
}

/// The `k` worst rows as `[{row, violation}]`, worst first — the same
/// [`conformance::top_k_desc`] ranking the CLI's `check --top` uses.
fn top_offenders(violations: &[f64], k: usize) -> Value {
    Value::Array(
        conformance::top_k_desc(violations, k)
            .into_iter()
            .map(|i| {
                obj(vec![
                    ("row", Value::Number(i as f64)),
                    ("violation", Value::Number(violations[i])),
                ])
            })
            .collect(),
    )
}

/// `POST /v2/explain`: per-constraint mean contributions, plus ExTuNe
/// attribute responsibility when the request supplies training means
/// (`"means": {"attr": value, …}` — the daemon holds compiled plans, not
/// training frames).
fn explain(_req: &Request, batch: Batch) -> Response {
    let plan = &batch.entry.plan;
    // Empty batch: nothing to explain (and no column types to bind).
    if batch.frame.n_rows() == 0 {
        return Response::json(&obj(vec![
            ("profile", string(&batch.entry.name)),
            ("rows", Value::Number(0.0)),
            ("breakdown", Value::Array(Vec::new())),
        ]));
    }
    let breakdown = match conformance::breakdown_from_plan(plan, &batch.frame) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let breakdown_json = Value::Array(
        breakdown
            .iter()
            .map(|c| obj(vec![("label", string(&c.label)), ("score", Value::Number(c.score))]))
            .collect(),
    );
    let mut fields = vec![
        ("profile", string(&batch.entry.name)),
        ("rows", Value::Number(batch.frame.n_rows() as f64)),
        ("breakdown", breakdown_json),
    ];
    if let Some(means) = json::get(&batch.body, "means") {
        let mut train_means = Vec::with_capacity(plan.attributes().len());
        for a in plan.attributes() {
            match json::get(means, a).and_then(json::as_f64) {
                Some(m) => train_means.push(m),
                None => {
                    return Response::error(400, &format!("'means' is missing attribute '{a}'"))
                }
            }
        }
        let ranked = match mean_responsibility_from_plan(plan, &train_means, &batch.frame) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        fields.push((
            "responsibility",
            Value::Array(
                ranked
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("attribute", string(&r.attribute)),
                            ("score", Value::Number(r.score)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Response::json(&obj(fields))
}

/// `POST /v2/drift`: the CLI's three aggregators over one batch, against
/// the cached plan (no recompilation per request).
fn drift(_req: &Request, batch: Batch) -> Response {
    let plan = &batch.entry.plan;
    let mut fields = vec![
        ("profile", string(&batch.entry.name)),
        ("rows", Value::Number(batch.frame.n_rows() as f64)),
    ];
    for (label, agg) in [
        ("mean", DriftAggregator::Mean),
        ("p95", DriftAggregator::Quantile(0.95)),
        ("max", DriftAggregator::Max),
    ] {
        // Empty batch: drift 0 by the aggregators' empty-input
        // convention, without binding untyped columns.
        if batch.frame.n_rows() == 0 {
            fields.push((label, Value::Number(0.0)));
            continue;
        }
        match agg.aggregate_compiled(plan, &batch.frame) {
            Ok(d) => fields.push((label, Value::Number(d))),
            Err(e) => return Response::error(400, &e.to_string()),
        }
    }
    Response::json(&obj(fields))
}
