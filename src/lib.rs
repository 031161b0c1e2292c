//! # ccsynth — Conformance Constraint Discovery
//!
//! Facade crate for the full CCSynth stack, a Rust reproduction of
//! *"Conformance Constraint Discovery: Measuring Trust in Data-Driven
//! Systems"* (Fariha, Tiwari, Radhakrishna, Gulwani, Meliou — SIGMOD 2021).
//!
//! Re-exports the product crates so downstream users need a single
//! dependency (the paper-reproduction crates `cc_datagen`, `cc_models`,
//! `cc_baselines` and `cc_stats` are not part of it):
//!
//! * [`conformance`] — the core: constraint language, quantitative
//!   semantics, PCA-based synthesis, the compiled serving engine
//!   (`CompiledProfile`: compile once, evaluate many), drift, trusted-ML,
//!   explanations;
//! * [`frame`] — the minimal dataframe the stack operates on;
//! * [`linalg`] — the numeric substrate;
//! * [`monitor`] — online windowed conformance monitoring: streaming
//!   ingest over tumbling/sliding windows, EWMA/CUSUM/Page–Hinkley
//!   change-point detection on the drift series, auto-resynthesis
//!   proposals (CLI: `ccsynth monitor`);
//! * [`server`] — the `cc_server` serving daemon: `std::net` HTTP/1.1,
//!   hot-swappable profile registry, check/explain/drift endpoints,
//!   online monitors (`/v2/monitors/{name}/ingest`, `/v2/monitors/{name}`),
//!   Prometheus metrics (CLI: `ccsynth serve`);
//! * [`state`] — crash-safe durability: versioned, checksummed,
//!   atomically-replaced state snapshots for the daemon and the online
//!   monitors (CLI: `serve --state-dir`, `monitor --resume`).
//!
//! ## Quickstart
//!
//! ```
//! use ccsynth::prelude::*;
//!
//! // Profile a dataset with a hidden invariant…
//! let mut df = DataFrame::new();
//! df.push_numeric("dep", (0..200).map(|i| 300.0 + i as f64).collect()).unwrap();
//! df.push_numeric("dur", (0..200).map(|i| 60.0 + (i % 50) as f64).collect()).unwrap();
//! df.push_numeric("arr", (0..200).map(|i| 300.0 + i as f64 + 60.0 + (i % 50) as f64).collect()).unwrap();
//! let profile = synthesize(&df, &SynthOptions::default()).unwrap();
//!
//! // …and use it as a trust oracle on serving tuples.
//! let envelope = SafetyEnvelope::new(profile, 0.1);
//! let good = envelope.check(&[400.0, 80.0, 480.0], &[]).unwrap();
//! let bad = envelope.check(&[400.0, 80.0, 1000.0], &[]).unwrap();
//! assert!(!good.is_unsafe);
//! assert!(bad.is_unsafe);
//! ```

pub mod cli;

pub use cc_frame as frame;
pub use cc_linalg as linalg;
pub use cc_monitor as monitor;
pub use cc_server as server;
pub use cc_state as state;
pub use cc_trace as trace;
pub use conformance;

/// One-stop imports for typical use.
pub mod prelude {
    pub use cc_frame::{read_csv, write_csv, DataFrame};
    pub use cc_linalg::SufficientStats;
    pub use cc_monitor::{DetectorKind, MonitorConfig, OnlineMonitor, WindowSpec};
    pub use conformance::{
        dataset_drift, dataset_drift_parallel, synthesize, synthesize_parallel, synthesize_simple,
        CompiledProfile, ConformanceProfile, DriftAggregator, Projection, SafetyEnvelope,
        SimpleConstraint, StreamingSynthesizer, SynthOptions,
    };
}
