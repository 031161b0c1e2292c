//! Server metrics with a Prometheus text exposition (`GET /metrics`).
//!
//! Counters are plain atomics, bumped per request with relaxed ordering
//! (exactness across concurrent scrapes is not a requirement; never
//! losing increments is). Latency has one store, the flight recorder's
//! per-phase aggregates (`cc_trace`), which count every request whether
//! or not span rings are on. They render as the
//! `cc_server_phase_seconds` and `cc_monitor_phase_seconds` histogram
//! families; a request's in-server time is its `handle` plus `write`
//! phases. The batch endpoints split their `handle` further into
//! `decode`, `evaluate` and `encode`, which render in the server family
//! too and sum to at most `handle`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The fixed endpoint set, used to label request counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/profiles`
    Profiles,
    /// `POST /v1/check`
    Check,
    /// `POST /v1/explain`
    Explain,
    /// `POST /v1/drift`
    Drift,
    /// `POST /v1/reload`
    Reload,
    /// `POST /v1/ingest`
    Ingest,
    /// `GET /v1/monitor`
    Monitor,
    /// `POST /v1/snapshot`
    Snapshot,
    /// `GET /v1/trace`
    Trace,
    /// `GET /v1/logs`
    Logs,
    /// `GET /v1/self`
    SelfReport,
    /// `GET /metrics`
    Metrics,
    /// `GET`/`POST /v2/monitors/{name}/proposal`
    Proposal,
    /// `GET /v2/monitors/{name}/deltas` (shard export).
    Deltas,
    /// `GET /v2/fleet/shards` and `POST /v2/fleet/shards/{index}/deltas`.
    Fleet,
    /// Anything else (404s, parse failures, …).
    Other,
}

const ENDPOINTS: [Endpoint; 17] = [
    Endpoint::Healthz,
    Endpoint::Profiles,
    Endpoint::Check,
    Endpoint::Explain,
    Endpoint::Drift,
    Endpoint::Reload,
    Endpoint::Ingest,
    Endpoint::Monitor,
    Endpoint::Snapshot,
    Endpoint::Trace,
    Endpoint::Logs,
    Endpoint::SelfReport,
    Endpoint::Metrics,
    Endpoint::Proposal,
    Endpoint::Deltas,
    Endpoint::Fleet,
    Endpoint::Other,
];

impl Endpoint {
    /// The stable label used in metric series and trace span tags.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "/healthz",
            Endpoint::Profiles => "/v1/profiles",
            Endpoint::Check => "/v1/check",
            Endpoint::Explain => "/v1/explain",
            Endpoint::Drift => "/v1/drift",
            Endpoint::Reload => "/v1/reload",
            Endpoint::Ingest => "/v1/ingest",
            Endpoint::Monitor => "/v1/monitor",
            Endpoint::Snapshot => "/v1/snapshot",
            Endpoint::Trace => "/v1/trace",
            Endpoint::Logs => "/v1/logs",
            Endpoint::SelfReport => "/v1/self",
            Endpoint::Metrics => "/metrics",
            Endpoint::Proposal => "/v2/monitors/{name}/proposal",
            Endpoint::Deltas => "/v2/monitors/{name}/deltas",
            Endpoint::Fleet => "/v2/fleet",
            Endpoint::Other => "other",
        }
    }

    /// The endpoint whose [`label`](Self::label) is exactly `label`.
    pub fn from_label(label: &str) -> Option<Endpoint> {
        ENDPOINTS.into_iter().find(|e| e.label() == label)
    }

    fn index(self) -> usize {
        ENDPOINTS.iter().position(|e| *e == self).expect("endpoint in table")
    }
}

/// One monitor's scrape-time series, collected from the monitor registry
/// by the caller of [`Metrics::render_prometheus`] (the metrics object
/// itself holds no monitor state — monitors own their counters).
#[derive(Clone, Debug)]
pub struct MonitorSeries {
    /// Monitor name (label value; escaped on render).
    pub name: String,
    /// Rows ingested over the monitor's lifetime.
    pub rows_ingested: u64,
    /// Windows closed over the monitor's lifetime.
    pub windows_closed: u64,
    /// Rows buffered past the most recent window close.
    pub window_lag: u64,
    /// Alarmed windows over the monitor's lifetime.
    pub alarms_total: u64,
    /// Resynthesis proposals over the monitor's lifetime.
    pub proposals_total: u64,
    /// Whether the monitor is currently alarming.
    pub alarm: bool,
}

/// All server metrics.
pub struct Metrics {
    started: Instant,
    /// `requests[endpoint][status class]`, classes `2xx / 4xx / 5xx`.
    requests: [[AtomicU64; 3]; ENDPOINTS.len()],
    rows_checked: AtomicU64,
    connections_accepted: AtomicU64,
    /// Batch-bearing requests by body encoding: `[json, columnar]`.
    wire_requests: [AtomicU64; 2],
    /// Connections currently open (queued or held by a worker).
    open_connections: AtomicU64,
    /// Connections waiting in the queue for a worker.
    compute_queue_depth: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics anchored at "now".
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            rows_checked: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            wire_requests: [AtomicU64::new(0), AtomicU64::new(0)],
            open_connections: AtomicU64::new(0),
            compute_queue_depth: AtomicU64::new(0),
        }
    }

    /// Counts one finished request by endpoint and status class (its
    /// latency goes to the flight recorder's phase aggregates).
    pub fn record_request(&self, endpoint: Endpoint, status: u16) {
        let class = match status {
            200..=299 => 0,
            500..=599 => 2,
            _ => 1,
        };
        self.requests[endpoint.index()][class].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to the cumulative count of rows scored through `/v1/check` /
    /// `/v1/drift` / `/v1/explain`.
    pub fn add_rows_checked(&self, rows: usize) {
        self.rows_checked.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// The cumulative rows-checked counter (persisted by state
    /// snapshots).
    pub fn rows_checked(&self) -> u64 {
        self.rows_checked.load(Ordering::Relaxed)
    }

    /// Boot-time restore of the rows-checked counter from a state
    /// snapshot (runs before the listener accepts traffic, so a plain
    /// store cannot race live increments).
    pub fn restore_rows_checked(&self, rows: u64) {
        self.rows_checked.store(rows, Ordering::Relaxed);
    }

    /// Records one accepted connection.
    pub fn record_connection(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch-bearing request (`/v1/check`-family or
    /// `/v1/ingest`) by body encoding.
    pub fn record_wire(&self, columnar: bool) {
        self.wire_requests[usize::from(columnar)].fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks one accepted connection.
    pub fn connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks one connection closing.
    pub fn connection_closed(&self) {
        // Saturating: a spurious extra close must not wrap the gauge.
        let _ = self
            .open_connections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| Some(n.saturating_sub(1)));
    }

    /// Connections currently open (the `cc_server_open_connections` gauge).
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Publishes the instantaneous compute-queue depth.
    pub fn set_compute_queue_depth(&self, depth: usize) {
        self.compute_queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// Last published compute-queue depth (the
    /// `cc_server_compute_queue_depth` gauge).
    pub fn compute_queue_depth(&self) -> u64 {
        self.compute_queue_depth.load(Ordering::Relaxed)
    }

    /// Lifetime request totals by status class `(2xx, 4xx, 5xx)` — the
    /// self-watch sampler differences successive reads to get
    /// per-interval error rates.
    pub fn request_class_totals(&self) -> (u64, u64, u64) {
        let mut classes = [0u64; 3];
        for by_class in &self.requests {
            for (slot, counter) in classes.iter_mut().zip(by_class) {
                *slot += counter.load(Ordering::Relaxed);
            }
        }
        (classes[0], classes[1], classes[2])
    }

    /// Seconds since this metrics object (i.e. the server) was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Renders the Prometheus text exposition. Registry-scoped series
    /// (profile count, generation, per-profile compile counts) are passed
    /// in by the caller, which owns the registry.
    pub fn render_prometheus(
        &self,
        profiles: usize,
        generation: u64,
        compile_counts: &[(String, u64)],
        monitors: &[MonitorSeries],
    ) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(
            "# HELP cc_server_requests_total Requests served, by endpoint and status class.\n",
        );
        out.push_str("# TYPE cc_server_requests_total counter\n");
        for e in ENDPOINTS {
            for (class, label) in ["2xx", "4xx", "5xx"].iter().enumerate() {
                let n = self.requests[e.index()][class].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "cc_server_requests_total{{endpoint=\"{}\",code=\"{label}\"}} {n}\n",
                        e.label()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP cc_server_rows_checked_total Tuples scored through the serving endpoints.\n",
        );
        out.push_str("# TYPE cc_server_rows_checked_total counter\n");
        out.push_str(&format!(
            "cc_server_rows_checked_total {}\n",
            self.rows_checked.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP cc_server_connections_accepted_total TCP connections accepted.\n");
        out.push_str("# TYPE cc_server_connections_accepted_total counter\n");
        out.push_str(&format!(
            "cc_server_connections_accepted_total {}\n",
            self.connections_accepted.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP cc_server_wire_requests_total Batch-bearing requests, by body encoding.\n",
        );
        out.push_str("# TYPE cc_server_wire_requests_total counter\n");
        for (i, wire) in ["json", "columnar"].iter().enumerate() {
            out.push_str(&format!(
                "cc_server_wire_requests_total{{wire=\"{wire}\"}} {}\n",
                self.wire_requests[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP cc_server_open_connections Connections currently open.\n");
        out.push_str("# TYPE cc_server_open_connections gauge\n");
        out.push_str(&format!(
            "cc_server_open_connections {}\n",
            self.open_connections.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP cc_server_compute_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE cc_server_compute_queue_depth gauge\n");
        out.push_str(&format!(
            "cc_server_compute_queue_depth {}\n",
            self.compute_queue_depth.load(Ordering::Relaxed)
        ));
        render_phase_family(
            &mut out,
            "cc_server_phase_seconds",
            "Request lifecycle time by phase (flight-recorder aggregates).",
            &cc_trace::Phase::REQUEST,
        );
        render_phase_family(
            &mut out,
            "cc_monitor_phase_seconds",
            "Ingest pipeline time by phase (flight-recorder aggregates).",
            &cc_trace::Phase::MONITOR,
        );
        out.push_str("# HELP cc_server_build_info Build metadata (constant 1).\n");
        out.push_str("# TYPE cc_server_build_info gauge\n");
        out.push_str(&format!(
            "cc_server_build_info{{version=\"{}\",git=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            option_env!("CCSYNTH_GIT_SHA").unwrap_or("unknown"),
        ));
        out.push_str("# HELP cc_server_profile_compiles_total Plan compilations per profile, across all (re)loads.\n");
        out.push_str("# TYPE cc_server_profile_compiles_total counter\n");
        for (name, n) in compile_counts {
            out.push_str(&format!(
                "cc_server_profile_compiles_total{{profile=\"{}\"}} {n}\n",
                escape_label(name)
            ));
        }
        out.push_str("# HELP cc_server_monitors Online monitors registered.\n");
        out.push_str("# TYPE cc_server_monitors gauge\n");
        out.push_str(&format!("cc_server_monitors {}\n", monitors.len()));
        if !monitors.is_empty() {
            type SeriesSpec = (&'static str, &'static str, fn(&MonitorSeries) -> u64);
            let series: [SeriesSpec; 6] = [
                ("cc_server_monitor_rows_ingested_total", "counter", |m| m.rows_ingested),
                ("cc_server_monitor_windows_closed_total", "counter", |m| m.windows_closed),
                ("cc_server_monitor_alarms_total", "counter", |m| m.alarms_total),
                ("cc_server_monitor_resynth_proposals_total", "counter", |m| m.proposals_total),
                ("cc_server_monitor_window_lag_rows", "gauge", |m| m.window_lag),
                ("cc_server_monitor_alarm", "gauge", |m| u64::from(m.alarm)),
            ];
            for (metric, kind, value) in series {
                out.push_str(&format!("# TYPE {metric} {kind}\n"));
                for m in monitors {
                    out.push_str(&format!(
                        "{metric}{{monitor=\"{}\"}} {}\n",
                        escape_label(&m.name),
                        value(m)
                    ));
                }
            }
        }
        if let Some(own) = monitors.iter().find(|m| m.name == crate::selfwatch::SELF_MONITOR) {
            out.push_str(
                "# HELP cc_server_self_alarm Self-watch meta-monitor alarm state (1 = degraded).\n",
            );
            out.push_str("# TYPE cc_server_self_alarm gauge\n");
            out.push_str(&format!("cc_server_self_alarm {}\n", u64::from(own.alarm)));
            out.push_str(
                "# HELP cc_server_self_alarms_total Self-watch alarmed windows, lifetime.\n",
            );
            out.push_str("# TYPE cc_server_self_alarms_total counter\n");
            out.push_str(&format!("cc_server_self_alarms_total {}\n", own.alarms_total));
        }
        out.push_str("# HELP cc_server_profiles Profiles in the published registry snapshot.\n");
        out.push_str("# TYPE cc_server_profiles gauge\n");
        out.push_str(&format!("cc_server_profiles {profiles}\n"));
        out.push_str("# HELP cc_server_registry_generation Registry reload generation.\n");
        out.push_str("# TYPE cc_server_registry_generation gauge\n");
        out.push_str(&format!("cc_server_registry_generation {generation}\n"));
        out.push_str("# HELP cc_server_uptime_seconds Time since server start.\n");
        out.push_str("# TYPE cc_server_uptime_seconds gauge\n");
        out.push_str(&format!(
            "cc_server_uptime_seconds {:.3}\n",
            self.started.elapsed().as_secs_f64()
        ));
        out
    }
}

/// Renders one phase-labelled histogram family from the flight
/// recorder's cumulative per-phase aggregates. These are process-global
/// (the recorder is), deterministic, and mergeable across scrapes.
fn render_phase_family(out: &mut String, metric: &str, help: &str, phases: &[cc_trace::Phase]) {
    out.push_str(&format!("# HELP {metric} {help}\n"));
    out.push_str(&format!("# TYPE {metric} histogram\n"));
    for &phase in phases {
        let total = cc_trace::phase_total(phase);
        let label = phase.name();
        let mut cumulative = 0u64;
        for (i, &edge_us) in cc_trace::BUCKET_EDGES_US.iter().enumerate() {
            cumulative += total.buckets[i];
            out.push_str(&format!(
                "{metric}_bucket{{phase=\"{label}\",le=\"{:.6}\"}} {cumulative}\n",
                edge_us as f64 / 1e6
            ));
        }
        out.push_str(&format!(
            "{metric}_bucket{{phase=\"{label}\",le=\"+Inf\"}} {}\n",
            total.count
        ));
        out.push_str(&format!(
            "{metric}_sum{{phase=\"{label}\"}} {:.6}\n",
            total.sum_us as f64 / 1e6
        ));
        out.push_str(&format!("{metric}_count{{phase=\"{label}\"}} {}\n", total.count));
    }
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`). Profile names come from arbitrary file stems; one unescaped
/// quote would invalidate the entire exposition and lose every metric.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_escaped() {
        let m = Metrics::new();
        let text = m.render_prometheus(1, 1, &[("we\"ird\\name\n".into(), 1)], &[]);
        assert!(
            text.contains("cc_server_profile_compiles_total{profile=\"we\\\"ird\\\\name\\n\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn exposition_shape() {
        let m = Metrics::new();
        m.record_request(Endpoint::Check, 200);
        m.record_request(Endpoint::Check, 404);
        m.record_request(Endpoint::Metrics, 200);
        m.add_rows_checked(1234);
        m.record_connection();
        let text = m.render_prometheus(2, 3, &[("alpha".into(), 2)], &[]);
        assert!(text.contains("cc_server_requests_total{endpoint=\"/v1/check\",code=\"2xx\"} 1"));
        assert!(text.contains("cc_server_requests_total{endpoint=\"/v1/check\",code=\"4xx\"} 1"));
        assert!(text.contains("cc_server_rows_checked_total 1234"));
        assert!(text.contains("cc_server_connections_accepted_total 1"));
        assert!(text.contains("cc_server_profile_compiles_total{profile=\"alpha\"} 2"));
        assert!(text.contains("cc_server_profiles 2"));
        assert!(text.contains("cc_server_registry_generation 3"));
        assert!(!text.contains("cc_server_request_duration_seconds"), "{text}");
    }

    #[test]
    fn wire_request_series() {
        let m = Metrics::new();
        m.record_request(Endpoint::Check, 200);
        m.record_wire(false);
        m.record_wire(true);
        m.record_wire(true);
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("cc_server_wire_requests_total{wire=\"json\"} 1"), "{text}");
        assert!(text.contains("cc_server_wire_requests_total{wire=\"columnar\"} 2"));
    }

    #[test]
    fn build_info_and_phase_families_present() {
        let m = Metrics::new();
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("# TYPE cc_server_build_info gauge"));
        assert!(text.contains("cc_server_build_info{version=\""), "{text}");
        assert!(text.contains("# TYPE cc_server_phase_seconds histogram"));
        assert!(text.contains("# TYPE cc_monitor_phase_seconds histogram"));
        for phase in ["parse", "queue_wait", "handle", "write", "decode", "evaluate", "encode"] {
            assert!(
                text.contains(&format!("cc_server_phase_seconds_count{{phase=\"{phase}\"}}")),
                "{text}"
            );
            assert!(text.contains(&format!(
                "cc_server_phase_seconds_bucket{{phase=\"{phase}\",le=\"+Inf\"}}"
            )));
        }
        for phase in ["score", "admission_wait", "seal", "turn_wait", "commit"] {
            assert!(
                text.contains(&format!("cc_monitor_phase_seconds_count{{phase=\"{phase}\"}}")),
                "{text}"
            );
        }
        // Bucket edges render in seconds with fixed precision.
        assert!(text.contains("le=\"0.000010\""), "{text}");
        assert!(text.contains("le=\"10.000000\""), "{text}");
    }

    #[test]
    fn connection_and_queue_gauges() {
        let m = Metrics::new();
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("cc_server_open_connections 0"), "{text}");
        assert!(text.contains("cc_server_compute_queue_depth 0"), "{text}");
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.set_compute_queue_depth(5);
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("cc_server_open_connections 1"), "{text}");
        assert!(text.contains("cc_server_compute_queue_depth 5"), "{text}");
        // Saturating close: never wraps below zero.
        m.connection_closed();
        m.connection_closed();
        assert_eq!(m.open_connections(), 0);
    }

    #[test]
    fn self_alarm_gauge_requires_self_monitor() {
        let m = Metrics::new();
        let user = MonitorSeries {
            name: "flights".into(),
            rows_ingested: 1,
            windows_closed: 1,
            window_lag: 0,
            alarms_total: 2,
            proposals_total: 0,
            alarm: true,
        };
        let text = m.render_prometheus(0, 0, &[], std::slice::from_ref(&user));
        assert!(!text.contains("cc_server_self_alarm"), "{text}");
        let own = MonitorSeries { name: crate::selfwatch::SELF_MONITOR.into(), ..user };
        let text = m.render_prometheus(0, 0, &[], &[own]);
        assert!(text.contains("cc_server_self_alarm 1"), "{text}");
        assert!(text.contains("cc_server_self_alarms_total 2"), "{text}");
    }

    #[test]
    fn request_class_totals_sum_across_endpoints() {
        let m = Metrics::new();
        m.record_request(Endpoint::Check, 200);
        m.record_request(Endpoint::Logs, 200);
        m.record_request(Endpoint::SelfReport, 404);
        m.record_request(Endpoint::Ingest, 500);
        assert_eq!(m.request_class_totals(), (2, 1, 1));
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("cc_server_requests_total{endpoint=\"/v1/logs\",code=\"2xx\"} 1"));
        assert!(text.contains("cc_server_requests_total{endpoint=\"/v1/self\",code=\"4xx\"} 1"));
    }

    #[test]
    fn status_classes() {
        let m = Metrics::new();
        for status in [200, 204, 400, 404, 431, 500, 503] {
            m.record_request(Endpoint::Other, status);
        }
        let text = m.render_prometheus(0, 0, &[], &[]);
        assert!(text.contains("endpoint=\"other\",code=\"2xx\"} 2"));
        assert!(text.contains("endpoint=\"other\",code=\"4xx\"} 3"));
        assert!(text.contains("endpoint=\"other\",code=\"5xx\"} 2"));
    }
}
