//! # cc_monitor — online windowed conformance monitoring
//!
//! The paper's flagship application is *quantifying trust in data-driven
//! pipelines* by measuring how far serving data drifts from the
//! conformance constraints learned on training data (§1, §2; the ExTuNe
//! deployment scenario). The core crate can score drift offline —
//! [`conformance::drift_series`] takes whole pre-cut frames — but a
//! deployed trust layer watches a *live tuple stream*. This crate is that
//! layer:
//!
//! * **ingest** ([`ingest`]) — tuples or columnar batches stream in,
//!   through a two-phase pipeline: a **lock-free score phase** evaluates
//!   each batch through the shared `Arc<`[`conformance::CompiledProfile`]`>`
//!   plan (bit-identical to the batch serving path, parallelizable) and
//!   seals it into an immutable [`IngestDelta`]; a short **ordered
//!   commit phase** merges the delta into the open windows. No tuple is
//!   retained past the commit;
//! * **windows** ([`windows`]) — tumbling and sliding windows over
//!   per-window mergeable [`cc_linalg::SufficientStats`] + drift
//!   accumulators, each built tuple-at-a-time so a closed window's
//!   statistics are *bit-identical* to
//!   [`cc_linalg::SufficientStats::from_rows`] on the window's row slice
//!   (the property the proptests pin);
//! * **ring** ([`ring`]) — every `window/stride`-th close tiles the
//!   stream exactly; those blocks land in a bounded ring whose retire
//!   path is drop-and-**re-merge** (bit-identical to merging the retained
//!   blocks from scratch — the subtractive alternative,
//!   [`cc_linalg::SufficientStats::unmerge`], exists precisely to
//!   document why not);
//! * **detectors** ([`detectors`]) — the drift series runs through an
//!   EWMA control band, one-sided CUSUM, or Page–Hinkley, calibrated
//!   from a reference window (see [`OnlineMonitor::with_reference`]);
//! * **resynth** ([`resynth`]) — sustained alarms synthesize a *candidate*
//!   profile from the ring's recent blocks (via
//!   [`conformance::StreamingSynthesizer::absorb_stats`]) and surface it
//!   as a [`ProposedProfile`] — never a silent swap;
//! * **registry** ([`registry`]) — named monitors behind the locking
//!   conventions a serving daemon needs: each [`MonitorEntry`] admits
//!   concurrent batches with tickets (commit order ≡ row order, pinned
//!   bit-identical to serialized ingest) and publishes its latest
//!   [`MonitorStatus`] as a swapped `Arc`, so `/metrics` never queues
//!   behind an ingest;
//! * **report** ([`report`]) — serializable snapshots shared by the
//!   `cc_server` endpoints and the `ccsynth monitor` CLI;
//! * **fleet** ([`fleet`]) — scale-out: shards export closed windows as
//!   epoch-tagged [`WindowDelta`]s and a coordinator's [`MergedMonitor`]
//!   absorbs them in global epoch order, bit-identical to a single node
//!   ingesting the same interleaved stream.
//!
//! ## Quick example
//!
//! ```
//! use cc_frame::DataFrame;
//! use cc_monitor::{MonitorConfig, OnlineMonitor, WindowSpec};
//! use conformance::{synthesize, SynthOptions};
//!
//! // Train on a hidden invariant y = 2x + 1…
//! let frame = |slope: f64, n: usize| {
//!     let xs: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
//!     let ys: Vec<f64> = xs.iter().map(|x| slope * x + 1.0).collect();
//!     let mut df = DataFrame::new();
//!     df.push_numeric("x", xs).unwrap();
//!     df.push_numeric("y", ys).unwrap();
//!     df
//! };
//! let train = frame(2.0, 400);
//! let profile = synthesize(&train, &SynthOptions::default()).unwrap();
//!
//! // …monitor the live stream in 100-row tumbling windows.
//! let cfg = MonitorConfig { spec: WindowSpec::tumbling(100).unwrap(), ..Default::default() };
//! let mut monitor = OnlineMonitor::with_reference(profile, cfg, &train).unwrap();
//! let quiet = monitor.ingest(&frame(2.0, 100)).unwrap();
//! assert!(!quiet.alarm);
//! ```

pub mod detectors;
pub mod fleet;
pub mod ingest;
pub mod monitor;
pub mod registry;
pub mod report;
pub mod resynth;
pub mod ring;
pub mod snapshot;
pub mod windows;

pub use detectors::{Baseline, Decision, Detector, DetectorKind, DetectorParams, DetectorState};
pub use fleet::{MergedMonitor, ShardDeltaBatch, WindowDelta};
pub use ingest::{IngestDelta, IngestScorer, ScoredBatch};
pub use monitor::{MonitorConfig, OnlineMonitor};
pub use registry::{
    lock_monitor, validate_monitor_name, validate_monitor_name_grammar, MonitorEntry, MonitorSet,
    RESERVED_NAME_PREFIX,
};
pub use report::{IngestReport, MonitorStatus, WindowPhase, WindowReport};
pub use resynth::ProposedProfile;
pub use ring::{RingState, StatsRing};
pub use snapshot::{ConfigState, MonitorState};
pub use windows::{
    ClosedWindow, OpenWindowState, PrecomputedWindow, SlidingState, SlidingStats, WindowSpec,
};

/// Monitoring failures.
#[derive(Debug)]
pub enum MonitorError {
    /// The monitor configuration (or a request building one) is invalid.
    Config(String),
    /// The stream lacks attributes the profile needs.
    Profile(conformance::ProfileError),
    /// Candidate synthesis failed.
    Synth(conformance::SynthError),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Config(m) => write!(f, "invalid monitor configuration: {m}"),
            MonitorError::Profile(e) => write!(f, "profile error: {e}"),
            MonitorError::Synth(e) => write!(f, "resynthesis error: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<conformance::ProfileError> for MonitorError {
    fn from(e: conformance::ProfileError) -> Self {
        MonitorError::Profile(e)
    }
}

impl From<conformance::SynthError> for MonitorError {
    fn from(e: conformance::SynthError) -> Self {
        MonitorError::Synth(e)
    }
}
