//! # cc_server — the conformance serving daemon
//!
//! A long-running HTTP service in front of the compiled serving engine:
//! the paper frames conformance constraints as a *trust layer for
//! deployed data-driven systems* (§1, §2), and a trust layer has to
//! answer check / explain / drift queries online, not per-process. This
//! crate is that layer, **dependency-free**: the workspace is
//! offline/vendored, so the HTTP/1.1 protocol ([`http`]), the worker
//! pool ([`server`]), and the Prometheus exposition ([`metrics`]) are
//! all built directly on `std::net` + `std::thread`, and the daemon runs
//! on every platform `std` supports.
//!
//! ```text
//!            ┌──────────────────────────────────────────────┐
//!  TCP ──►   │ acceptor ─► queue ─► worker pool: each worker│
//!            │   reads (RequestParser) ─► route ─► Response │
//!            │   on one connection, then requeues it while  │
//!            │   others wait                                │
//!            │                 │                            │
//!            │                 ▼ pinned Arc<Snapshot>       │
//!            │ ProfileRegistry: dir of profile JSON ─►      │
//!            │   ConformanceProfile ─► CompiledProfile      │
//!            │   (compiled once, hot-swapped atomically)    │
//!            └──────────────────────────────────────────────┘
//! ```
//!
//! Two request/reply encodings ride the same endpoints: columnar JSON
//! (the compatible default) and the length-prefixed binary columnar
//! format ([`wire`]) negotiated via `Content-Type`/`Accept` — same
//! `f64` bits either way, with zero float parsing on the binary path.
//!
//! The registry ([`registry`]) loads `ccsynth profile --out`-style JSON
//! files, lowers each to its [`conformance::CompiledProfile`] once, and
//! publishes immutable snapshots behind `RwLock<Arc<…>>` — `POST
//! /v1/reload` swaps profiles atomically under live traffic without
//! disturbing in-flight requests. Violations served over HTTP are
//! **bit-identical** to direct [`conformance::CompiledProfile::violations`]
//! calls: the vendored JSON layer formats `f64`s shortest-round-trip, and
//! the loopback equivalence test pins the property end to end.
//!
//! ## Embedding
//!
//! ```no_run
//! use cc_server::{ProfileRegistry, Server, ServerConfig};
//!
//! let registry = ProfileRegistry::from_dir("profiles").unwrap();
//! let handle = Server::start(ServerConfig::default(), registry).unwrap();
//! println!("listening on http://{}", handle.addr());
//! // … traffic …
//! handle.shutdown(); // graceful: in-flight requests complete
//! ```

pub mod api;
pub mod client;
pub mod fleet;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod selfwatch;
pub mod server;
pub mod state;
pub mod wire;

pub use cc_monitor::MonitorSet;
pub use cc_obs as obs;
pub use client::{ClientResponse, HttpClient};
pub use fleet::{FleetState, Role, DEFAULT_EXPORT_CAP, DEFAULT_PULL_INTERVAL};
pub use http::{ParseError, Request, RequestParser, Response, MAX_HEADER_BYTES};
pub use metrics::{Endpoint, Metrics, MonitorSeries};
pub use registry::{ProfileEntry, ProfileRegistry, Snapshot};
pub use selfwatch::{SelfWatchConfig, SelfWatchState, SELF_FEATURES, SELF_MONITOR};
pub use server::{LogSink, Server, ServerConfig, ServerHandle};
pub use state::{Durability, SaveReport, STATE_FILE};
pub use wire::{WireError, CONTENT_TYPE_COLUMNAR};
