//! The two-phase ingest pipeline: lock-free scoring, ordered commit.
//!
//! PR 6 made the wire fast; this module makes the *stateful* hot path
//! keep up. Instead of holding the monitor's mutex across plan
//! evaluation, window updates, and detector steps, a batch flows through
//! two phases:
//!
//! ```text
//!   score (lock-free, parallel)              commit (short lock, ordered)
//! ┌──────────────────────────────┐         ┌────────────────────────────┐
//! │ IngestScorer::score          │ ticket  │ OnlineMonitor::commit      │
//! │  Arc<CompiledProfile> eval   │ ──────► │  merge full windows,       │
//! │  + flat row gather           │ (order) │  replay head/tail partials │
//! │ IngestScorer::seal           │         │  close → detector → alarm  │
//! │  precompute covered windows  │         └────────────────────────────┘
//! └──────────────────────────────┘
//! ```
//!
//! **Score** runs entirely through a shared [`Arc<CompiledProfile>`]
//! ([`IngestScorer`]) with no monitor lock held; large batches use
//! [`CompiledProfile::violations_parallel`], whose block-aligned chunks
//! merge in deterministic chunk order (bit-identical for every thread
//! count). [`IngestScorer::seal`] then pins the batch to its admitted
//! start row and precomputes a [`PrecomputedWindow`] for every window the
//! batch fully covers — per-tuple from a fresh accumulator, so adopting
//! one at commit is the same bits as having streamed the rows. The result
//! is an immutable [`IngestDelta`]: exactly the unit a distributed fleet
//! coordinator would ship over the wire.
//!
//! **Commit** ([`OnlineMonitor::commit`](crate::OnlineMonitor::commit))
//! takes the lock only to splice the delta into the open windows —
//! partial head/tail rows replay per-tuple, fully-covered windows merge
//! wholesale — and to run the per-close bookkeeping. Every replay, like
//! the precomputed windows of `seal`, runs through the fixed-width
//! Welford kernel behind [`SufficientStats::update_flat_rows`], which a
//! seeded differential test pins bit for bit to the per-tuple
//! [`SufficientStats::update`] that
//! [`SlidingStats::push`](crate::SlidingStats::push) and
//! [`OnlineMonitor::ingest_rowwise`](crate::OnlineMonitor::ingest_rowwise)
//! still use. Deltas must commit in admission order (their start rows
//! tile the stream); the registry's [`MonitorEntry`](crate::MonitorEntry)
//! enforces that with a ticket sequence. Concurrent sharded ingest is proptest-pinned bit-identical
//! to serialized row-by-row ingest (`tests/pipeline.rs`).

use crate::windows::{PrecomputedWindow, WindowSpec};
use crate::MonitorError;
use cc_frame::DataFrame;
use cc_linalg::SufficientStats;
use conformance::CompiledProfile;
use std::sync::Arc;

/// A shareable scoring handle for one monitor generation: the compiled
/// plan plus the window geometry, detached from the monitor's lock.
/// Cloning is an `Arc` bump; every clone scores identically.
#[derive(Clone, Debug)]
pub struct IngestScorer {
    plan: Arc<CompiledProfile>,
    spec: WindowSpec,
    dim: usize,
    generation: u64,
}

impl IngestScorer {
    pub(crate) fn new(plan: Arc<CompiledProfile>, spec: WindowSpec, generation: u64) -> Self {
        let dim = plan.attributes().len();
        IngestScorer { plan, spec, dim, generation }
    }

    /// The profile generation this scorer evaluates. A delta sealed by
    /// generation g only commits into a generation-g monitor.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared serving plan.
    pub fn plan(&self) -> &CompiledProfile {
        &self.plan
    }

    /// Phase one: score a batch through the shared plan — per-row
    /// violations (split over `threads` scoped threads when > 1;
    /// bit-identical for every thread count) plus a row-major flat gather
    /// of the profile's numeric attributes. Holds no lock, reads no
    /// stream position, and is the only fallible step: a rejected batch
    /// has not been admitted, so it leaves no gap in the row sequence.
    ///
    /// # Errors
    /// Fails when the batch lacks attributes the profile needs.
    pub fn score(&self, batch: &DataFrame, threads: usize) -> Result<ScoredBatch, MonitorError> {
        let n = batch.n_rows();
        if n == 0 {
            return Ok(ScoredBatch { dim: self.dim, tuples: Vec::new(), violations: Vec::new() });
        }
        let violations = if threads > 1 {
            self.plan.violations_parallel(batch, threads).map_err(MonitorError::Profile)?
        } else {
            self.plan.violations(batch).map_err(MonitorError::Profile)?
        };
        let names: Vec<&str> = self.plan.attributes().iter().map(String::as_str).collect();
        let view = batch.numeric_view(&names).expect("violations bound these columns");
        let mut tuples = vec![0.0; n * self.dim];
        for (i, row) in tuples.chunks_exact_mut(self.dim).enumerate() {
            view.fill_row(i, row);
        }
        Ok(ScoredBatch { dim: self.dim, tuples, violations })
    }

    /// Phase two: pin a scored batch to its admitted start row and
    /// precompute every window the batch fully covers (start on a stride
    /// boundary at/after `start_row`, end within the batch) — per-tuple
    /// from a fresh accumulator over the window slice, bit-identical to
    /// [`SufficientStats::from_flat_rows`]. Infallible and still
    /// lock-free; runs after admission, outside the commit turn.
    pub fn seal(&self, scored: ScoredBatch, start_row: u64) -> IngestDelta {
        let n = scored.violations.len();
        let dim = self.dim;
        let window = self.spec.window() as u64;
        let stride = self.spec.stride() as u64;
        let end = start_row + n as u64;
        let mut full_windows = Vec::new();
        let mut s = start_row.next_multiple_of(stride);
        while s + window <= end {
            let lo = (s - start_row) as usize;
            let hi = lo + window as usize;
            let slice = &scored.violations[lo..hi];
            full_windows.push(PrecomputedWindow {
                start_row: s,
                stats: SufficientStats::from_flat_rows(&scored.tuples[lo * dim..hi * dim], dim),
                score_sum: slice.iter().sum(),
                score_max: slice.iter().fold(0.0f64, |m, &v| m.max(v)),
            });
            s += stride;
        }
        IngestDelta {
            generation: self.generation,
            start_row,
            dim,
            tuples: scored.tuples,
            violations: scored.violations,
            full_windows,
        }
    }
}

/// Phase-one output: per-row violations plus the batch's numeric tuples
/// in row-major flat layout. Not yet pinned to a stream position — that
/// happens at admission, via [`IngestScorer::seal`].
#[derive(Clone, Debug)]
pub struct ScoredBatch {
    dim: usize,
    tuples: Vec<f64>,
    violations: Vec<f64>,
}

impl ScoredBatch {
    /// Rows in the batch.
    pub fn rows(&self) -> usize {
        self.violations.len()
    }

    /// Attribute dimensionality of the flat tuples.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// An immutable, committable image of one admitted batch: its row span,
/// per-row drift scores, flat tuples for partial-window replay, and the
/// sealed accumulators of every window it fully covers. Deltas for the
/// same monitor generation commit in `start_row` order and reproduce the
/// serial ingest bit for bit — this is the unit the future fleet
/// coordinator ships between processes.
#[derive(Clone, Debug)]
pub struct IngestDelta {
    generation: u64,
    start_row: u64,
    dim: usize,
    tuples: Vec<f64>,
    violations: Vec<f64>,
    full_windows: Vec<PrecomputedWindow>,
}

impl IngestDelta {
    /// The profile generation the delta was scored against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// First stream row the delta covers (its admission offset).
    pub fn start_row(&self) -> u64 {
        self.start_row
    }

    /// Rows in the delta.
    pub fn rows(&self) -> usize {
        self.violations.len()
    }

    /// Attribute dimensionality of the flat tuples.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row-major flat tuples (for partial-window replay at commit).
    pub fn tuples(&self) -> &[f64] {
        &self.tuples
    }

    /// Per-row violation scores, in row order.
    pub fn violations(&self) -> &[f64] {
        &self.violations
    }

    /// Sealed fully-covered windows, ascending start row.
    pub fn full_windows(&self) -> &[PrecomputedWindow] {
        &self.full_windows
    }
}
