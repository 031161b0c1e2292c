//! Tumbling and sliding windows over a tuple stream.
//!
//! [`WindowSpec`] names the geometry (`window` rows per window, a close
//! every `stride` rows; `stride == window` is tumbling, `stride < window`
//! sliding). [`SlidingStats`] is the accumulator machinery: one open
//! [`SufficientStats`] + drift accumulator per in-flight window, each
//! updated tuple-at-a-time in arrival order from a fresh accumulator — so
//! a closed window's statistics are **bit-identical** to
//! [`SufficientStats::from_rows`] on that window's row slice, and its
//! drift sum/max are bit-identical to the corresponding
//! `DriftAggregator` fold over the window's violation slice. No tuple is
//! retained: memory is `O((window/stride) · m²)` regardless of stream
//! length.

use crate::MonitorError;
use cc_linalg::SufficientStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// Window geometry: `window` rows per window, one window closing every
/// `stride` rows. Constructed via [`WindowSpec::new`] /
/// [`WindowSpec::tumbling`], which enforce `1 ≤ stride ≤ window` and
/// `window % stride == 0` (windows align to stride boundaries, so every
/// `window/stride`-th closed window tiles the stream exactly — the
/// non-overlapping blocks the resynthesis ring collects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    window: usize,
    stride: usize,
}

impl WindowSpec {
    /// A sliding-window spec.
    ///
    /// # Errors
    /// Rejects `window == 0`, `stride == 0`, `stride > window`, and
    /// `window % stride != 0`.
    pub fn new(window: usize, stride: usize) -> Result<Self, MonitorError> {
        if window == 0 {
            return Err(MonitorError::Config("window must be positive".into()));
        }
        if stride == 0 {
            return Err(MonitorError::Config("stride must be positive".into()));
        }
        if stride > window {
            return Err(MonitorError::Config(format!(
                "stride ({stride}) cannot exceed window ({window})"
            )));
        }
        if !window.is_multiple_of(stride) {
            return Err(MonitorError::Config(format!(
                "window ({window}) must be a multiple of stride ({stride})"
            )));
        }
        Ok(WindowSpec { window, stride })
    }

    /// A tumbling-window spec (`stride == window`).
    ///
    /// # Errors
    /// Rejects `window == 0`.
    pub fn tumbling(window: usize) -> Result<Self, MonitorError> {
        WindowSpec::new(window, window)
    }

    /// Rows per window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Rows between consecutive window closes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// How many windows are open at once (`window / stride`); also the
    /// period, in closed windows, of the non-overlapping tiling.
    pub fn overlap(&self) -> usize {
        self.window / self.stride
    }

    /// Row ranges of every *complete* window over a series of `n` rows,
    /// in close order — the iterator the CLI's windowed `drift` mode and
    /// the monitor's reference calibration both reuse.
    pub fn ranges(&self, n: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let (window, stride) = (self.window, self.stride);
        (0..).map(move |i| i * stride..i * stride + window).take_while(move |r| r.end <= n)
    }
}

/// One closed window: its row span, per-tuple-accumulated statistics, and
/// drift folds.
#[derive(Clone, Debug)]
pub struct ClosedWindow {
    /// Close index (0-based): window `i` spans rows
    /// `[i·stride, i·stride + window)`.
    pub index: u64,
    /// First row of the window (stream offset).
    pub start_row: u64,
    /// Rows in the window (always `spec.window()`).
    pub rows: usize,
    /// `SufficientStats` of the window's tuples — bit-identical to
    /// [`SufficientStats::from_rows`] on the window slice (per-tuple
    /// Welford from a fresh accumulator, arrival order, no merges).
    pub stats: SufficientStats,
    /// Plain left-fold sum of the window's scores — bit-identical to
    /// `scores.iter().sum::<f64>()` over the window slice (the
    /// `DriftAggregator::Mean` numerator).
    pub score_sum: f64,
    /// `max` fold of the window's scores from `0.0` — bit-identical to
    /// the `DriftAggregator::Max` fold.
    pub score_max: f64,
}

/// Per-open-window accumulator.
#[derive(Clone, Debug)]
struct OpenWindow {
    start_row: u64,
    rows: usize,
    stats: SufficientStats,
    score_sum: f64,
    score_max: f64,
}

impl OpenWindow {
    /// Absorbs a run of consecutive rows (row-major `tuples`, one score
    /// per row): the statistics through the fixed-width
    /// [`SufficientStats::update_flat_rows`] kernel, the scores as a
    /// left fold in row order. Per accumulator this is exactly the
    /// update sequence of [`SlidingStats::push`] over the same rows.
    fn replay(&mut self, tuples: &[f64], scores: &[f64]) {
        self.stats.update_flat_rows(tuples);
        for &score in scores {
            self.score_sum += score;
            self.score_max = self.score_max.max(score);
        }
        self.rows += scores.len();
    }
}

/// A window fully covered by one admitted batch, accumulated during the
/// lock-free score phase of the ingest pipeline (see `crate::ingest`).
///
/// Its fields carry the exact accumulators a closed window needs, built
/// per-tuple from a fresh accumulator over the window's row slice — so
/// when the commit phase adopts one wholesale, the result is bit-identical
/// to having pushed those rows through [`SlidingStats::push`] one at a
/// time (adopting into an empty window is `SufficientStats::merge`'s
/// empty-left case, a clone).
#[derive(Clone, Debug)]
pub struct PrecomputedWindow {
    /// First stream row of the window.
    pub start_row: u64,
    /// Per-tuple statistics of the window slice (`window` rows).
    pub stats: SufficientStats,
    /// Left-fold sum of the window's scores.
    pub score_sum: f64,
    /// `max` fold of the window's scores from `0.0`.
    pub score_max: f64,
}

/// The sliding accumulator: every in-flight window's statistics, updated
/// one tuple at a time. See the module docs for the bit-identity
/// contract.
#[derive(Clone, Debug)]
pub struct SlidingStats {
    spec: WindowSpec,
    dim: usize,
    rows_seen: u64,
    closed: u64,
    open: VecDeque<OpenWindow>,
}

impl SlidingStats {
    /// Fresh accumulator over `dim`-attribute tuples.
    pub fn new(spec: WindowSpec, dim: usize) -> Self {
        SlidingStats { spec, dim, rows_seen: 0, closed: 0, open: VecDeque::new() }
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Tuples absorbed so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Windows closed so far.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Rows ingested past the most recent window close (the stream's
    /// "window lag": how much data is buffered toward the next close).
    /// Before the first close this counts from the stream start, so it
    /// ranges up to `window`; afterwards it stays below `stride`.
    pub fn lag(&self) -> u64 {
        if self.closed == 0 {
            return self.rows_seen;
        }
        let last_close_end = (self.closed - 1) * self.spec.stride as u64 + self.spec.window as u64;
        self.rows_seen - last_close_end
    }

    /// Absorbs one tuple and its score (e.g. the tuple's conformance
    /// violation), returning the window that closed on this row, if any
    /// (at most one window closes per row).
    ///
    /// # Panics
    /// Panics when the tuple arity differs from the accumulator's `dim`.
    pub fn push(&mut self, tuple: &[f64], score: f64) -> Option<ClosedWindow> {
        assert_eq!(tuple.len(), self.dim, "SlidingStats::push: tuple arity mismatch");
        // A new window opens on every stride boundary.
        if self.rows_seen.is_multiple_of(self.spec.stride as u64) {
            self.open.push_back(OpenWindow {
                start_row: self.rows_seen,
                rows: 0,
                stats: SufficientStats::new(self.dim),
                score_sum: 0.0,
                score_max: 0.0,
            });
        }
        for w in self.open.iter_mut() {
            w.stats.update(tuple);
            w.score_sum += score;
            w.score_max = w.score_max.max(score);
            w.rows += 1;
        }
        self.rows_seen += 1;
        // Only the oldest open window can be full.
        if self.open.front().is_some_and(|w| w.rows == self.spec.window) {
            let w = self.open.pop_front().expect("front window exists");
            let index = self.closed;
            self.closed += 1;
            return Some(ClosedWindow {
                index,
                start_row: w.start_row,
                rows: w.rows,
                stats: w.stats,
                score_sum: w.score_sum,
                score_max: w.score_max,
            });
        }
        None
    }

    /// Applies one admitted batch in a single call — the commit half of
    /// the two-phase ingest pipeline. `tuples` is the batch in row-major
    /// flat layout (`scores.len() × dim`), `scores` the per-row drift
    /// values, and `precomputed` the windows fully covered by this batch
    /// (ascending start row), as sealed by the score phase.
    ///
    /// Bit-identical to pushing the batch row by row through
    /// [`Self::push`], by construction:
    ///
    /// * carried open windows and the batch's tail windows replay their
    ///   covered rows per-tuple through the fixed-width
    ///   [`SufficientStats::update_flat_rows`] kernel, which a seeded
    ///   differential test pins to [`SufficientStats::update`] bit for
    ///   bit — so each accumulator sees exactly the update sequence the
    ///   serial path produces (interleaving across *distinct*
    ///   accumulators never affects any one of them);
    /// * fully-covered windows are adopted wholesale from `precomputed`,
    ///   whose accumulators were built per-tuple from fresh state over
    ///   the same slice — the same bits again;
    /// * closes are emitted in ascending window-start order, which *is*
    ///   the serial close order: a window closes on row
    ///   `start + window − 1`, monotone in `start` for equal-width
    ///   windows, and every carried start precedes every in-batch start.
    ///
    /// # Panics
    /// Panics when the flat shapes disagree with `dim`, when `dim` is
    /// zero (the flat layout cannot count zero-width rows), or when
    /// `precomputed` disagrees with the set of windows the geometry says
    /// this batch fully covers (a scorer/accumulator mismatch — the
    /// pipeline seals deltas against the admitted start row, so this
    /// cannot happen through [`crate::MonitorEntry`]).
    pub fn apply_batch(
        &mut self,
        tuples: &[f64],
        scores: &[f64],
        precomputed: &[PrecomputedWindow],
    ) -> Vec<ClosedWindow> {
        let n = scores.len();
        assert_eq!(tuples.len(), n * self.dim, "SlidingStats::apply_batch: flat shape mismatch");
        if n == 0 {
            assert!(precomputed.is_empty(), "precomputed windows for an empty batch");
            return Vec::new();
        }
        let r0 = self.rows_seen;
        let end = r0 + n as u64;
        let window = self.spec.window as u64;
        let stride = self.spec.stride as u64;
        let mut closes = Vec::new();
        // Carried open windows replay the head rows they cover.
        for w in self.open.iter_mut() {
            let take = ((w.start_row + window).min(end) - r0) as usize;
            w.replay(&tuples[..take * self.dim], &scores[..take]);
        }
        // Carried closes first: every carried start precedes every
        // in-batch start, and the deque is ordered by start already.
        while self.open.front().is_some_and(|w| w.rows == self.spec.window) {
            let w = self.open.pop_front().expect("front window exists");
            let index = self.closed;
            self.closed += 1;
            closes.push(ClosedWindow {
                index,
                start_row: w.start_row,
                rows: w.rows,
                stats: w.stats,
                score_sum: w.score_sum,
                score_max: w.score_max,
            });
        }
        // Windows opening inside the batch, ascending start: adopt the
        // fully-covered ones, replay the tail partials.
        let mut pre = precomputed.iter();
        let mut s = r0.next_multiple_of(stride);
        while s < end {
            if s + window <= end {
                let p = pre.next().expect("apply_batch: fully-covered window not sealed");
                assert_eq!(p.start_row, s, "apply_batch: sealed window misaligned");
                let index = self.closed;
                self.closed += 1;
                closes.push(ClosedWindow {
                    index,
                    start_row: s,
                    rows: self.spec.window,
                    stats: p.stats.clone(),
                    score_sum: p.score_sum,
                    score_max: p.score_max,
                });
            } else {
                let lo = (s - r0) as usize;
                let mut w = OpenWindow {
                    start_row: s,
                    rows: 0,
                    stats: SufficientStats::new(self.dim),
                    score_sum: 0.0,
                    score_max: 0.0,
                };
                w.replay(&tuples[lo * self.dim..], &scores[lo..]);
                self.open.push_back(w);
            }
            s += stride;
        }
        assert!(pre.next().is_none(), "apply_batch: sealed windows beyond the batch");
        self.rows_seen = end;
        closes
    }

    /// Advances the accumulator past one already-closed window without
    /// replaying its rows — the adoption path a fleet coordinator uses to
    /// absorb a window a shard closed. Tumbling geometry only
    /// (`overlap() == 1`): with no overlapping windows, a close leaves no
    /// open accumulators behind, so adopting the close is equivalent to
    /// having pushed the window's rows (the adopted `ClosedWindow` carries
    /// the per-tuple-accumulated statistics).
    ///
    /// # Errors
    /// Rejects non-tumbling geometry, a close that is not the next one in
    /// sequence (`w.index != closed`), a misaligned start row, a wrong
    /// row count, or a call while rows are buffered toward an open
    /// window.
    pub fn adopt_close(&mut self, w: &ClosedWindow) -> Result<(), MonitorError> {
        if self.spec.overlap() != 1 {
            return Err(MonitorError::Config(
                "adopt_close requires tumbling geometry (stride == window)".into(),
            ));
        }
        if !self.open.is_empty() {
            return Err(MonitorError::Config(format!(
                "adopt_close with {} open window(s): rows are buffered mid-window",
                self.open.len()
            )));
        }
        if w.index != self.closed {
            return Err(MonitorError::Config(format!(
                "adopt_close out of order: got epoch {}, expected {}",
                w.index, self.closed
            )));
        }
        if w.start_row != self.rows_seen {
            return Err(MonitorError::Config(format!(
                "adopt_close misaligned: window starts at row {}, stream is at {}",
                w.start_row, self.rows_seen
            )));
        }
        if w.rows != self.spec.window {
            return Err(MonitorError::Config(format!(
                "adopt_close: window holds {} rows, geometry closes at {}",
                w.rows, self.spec.window
            )));
        }
        self.rows_seen += w.rows as u64;
        self.closed += 1;
        Ok(())
    }

    /// Drops every open window (used when the monitored profile is
    /// swapped: half-filled windows scored by the old plan must not leak
    /// into the new one's drift series).
    pub fn reset(&mut self) {
        self.open.clear();
        // Re-anchor stride boundaries at the current row so the next
        // window starts fresh.
        self.rows_seen = 0;
        self.closed = 0;
    }

    /// A serializable snapshot: stream position plus every in-flight
    /// window's accumulators, oldest first.
    pub fn state(&self) -> SlidingState {
        SlidingState {
            rows_seen: self.rows_seen,
            closed: self.closed,
            open: self
                .open
                .iter()
                .map(|w| OpenWindowState {
                    start_row: w.start_row,
                    rows: w.rows,
                    stats: w.stats.clone(),
                    score_sum: w.score_sum,
                    score_max: w.score_max,
                })
                .collect(),
        }
    }

    /// Rebuilds the accumulator from a snapshot. The restored
    /// accumulator's subsequent [`Self::push`] calls are bit-identical
    /// to the original's: open-window `SufficientStats` round-trip
    /// bit-exactly (including Kahan compensation terms).
    ///
    /// # Errors
    /// Rejects snapshots whose open windows disagree with `spec`/`dim`
    /// (wrong arity, more windows than the geometry allows, or rows
    /// already at/past the close threshold).
    pub fn from_state(spec: WindowSpec, dim: usize, s: SlidingState) -> Result<Self, MonitorError> {
        if s.open.len() > spec.overlap() {
            return Err(MonitorError::Config(format!(
                "sliding snapshot holds {} open windows; geometry allows {}",
                s.open.len(),
                spec.overlap()
            )));
        }
        let mut open = VecDeque::with_capacity(s.open.len());
        for w in s.open {
            if w.stats.dim() != dim {
                return Err(MonitorError::Config(format!(
                    "open-window stats have dim {}, expected {dim}",
                    w.stats.dim()
                )));
            }
            if w.rows >= spec.window() {
                return Err(MonitorError::Config(format!(
                    "open window holds {} rows but closes at {}",
                    w.rows,
                    spec.window()
                )));
            }
            if w.stats.count() != w.rows {
                return Err(MonitorError::Config(format!(
                    "open window claims {} rows but its stats hold {}",
                    w.rows,
                    w.stats.count()
                )));
            }
            open.push_back(OpenWindow {
                start_row: w.start_row,
                rows: w.rows,
                stats: w.stats,
                score_sum: w.score_sum,
                score_max: w.score_max,
            });
        }
        Ok(SlidingStats { spec, dim, rows_seen: s.rows_seen, closed: s.closed, open })
    }
}

/// Serializable image of one in-flight window. The score accumulators
/// persist through the lossless `f64` encoding (`serde::lossless`), so
/// restore is bit-exact even for non-finite scores.
#[derive(Clone, Debug)]
pub struct OpenWindowState {
    /// First stream row of the window.
    pub start_row: u64,
    /// Rows accumulated so far (< the window size, or it would have
    /// closed).
    pub rows: usize,
    /// The window's statistics so far.
    pub stats: SufficientStats,
    /// Running score sum (`DriftAggregator::Mean` numerator).
    pub score_sum: f64,
    /// Running score max.
    pub score_max: f64,
}

impl Serialize for OpenWindowState {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("start_row".to_owned(), self.start_row.to_value()),
            ("rows".to_owned(), self.rows.to_value()),
            ("stats".to_owned(), self.stats.to_value()),
            ("score_sum".to_owned(), serde::lossless::f64_to_value(self.score_sum)),
            ("score_max".to_owned(), serde::lossless::f64_to_value(self.score_max)),
        ])
    }
}

impl Deserialize for OpenWindowState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(OpenWindowState {
            start_row: Deserialize::from_value(v.field("start_row")?)?,
            rows: Deserialize::from_value(v.field("rows")?)?,
            stats: Deserialize::from_value(v.field("stats")?)?,
            score_sum: serde::lossless::f64_from_value(v.field("score_sum")?)?,
            score_max: serde::lossless::f64_from_value(v.field("score_max")?)?,
        })
    }
}

/// Serializable image of a [`SlidingStats`] accumulator (geometry and
/// dimensionality travel separately, in the monitor's config).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlidingState {
    /// Tuples absorbed so far.
    pub rows_seen: u64,
    /// Windows closed so far.
    pub closed: u64,
    /// In-flight windows, oldest first.
    pub open: Vec<OpenWindowState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::new(8, 4).is_ok());
        assert!(WindowSpec::new(8, 8).is_ok());
        assert!(WindowSpec::tumbling(1).is_ok());
        for (w, s) in [(0, 1), (4, 0), (4, 8), (8, 3)] {
            assert!(WindowSpec::new(w, s).is_err(), "({w}, {s}) should be rejected");
        }
        let spec = WindowSpec::new(12, 4).unwrap();
        assert_eq!((spec.window(), spec.stride(), spec.overlap()), (12, 4, 3));
    }

    #[test]
    fn ranges_cover_complete_windows_only() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let got: Vec<_> = spec.ranges(9).collect();
        assert_eq!(got, vec![0..4, 2..6, 4..8]);
        assert_eq!(spec.ranges(3).count(), 0);
        assert_eq!(spec.ranges(4).count(), 1);
        let tumbling = WindowSpec::tumbling(3).unwrap();
        let got: Vec<_> = tumbling.ranges(10).collect();
        assert_eq!(got, vec![0..3, 3..6, 6..9]);
    }

    #[test]
    fn closed_windows_match_from_rows_bitwise() {
        let spec = WindowSpec::new(6, 2).unwrap();
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![i as f64 * 0.7, (i * i) as f64 - 3.0]).collect();
        let scores: Vec<f64> = (0..20).map(|i| (i as f64 * 0.31).sin().abs()).collect();
        let mut acc = SlidingStats::new(spec, 2);
        let mut closes = Vec::new();
        for (r, &s) in rows.iter().zip(&scores) {
            if let Some(c) = acc.push(r, s) {
                closes.push(c);
            }
        }
        let expected: Vec<Range<usize>> = spec.ranges(rows.len()).collect();
        assert_eq!(closes.len(), expected.len());
        for (c, range) in closes.iter().zip(&expected) {
            assert_eq!(c.start_row as usize, range.start);
            let oracle = SufficientStats::from_rows(&rows[range.clone()], 2);
            assert_eq!(c.stats.count(), oracle.count());
            for j in 0..2 {
                assert_eq!(c.stats.mean()[j].to_bits(), oracle.mean()[j].to_bits());
                assert_eq!(
                    c.stats.attribute_min()[j].to_bits(),
                    oracle.attribute_min()[j].to_bits()
                );
            }
            for a in 0..2 {
                for b in a..2 {
                    assert_eq!(c.stats.comoment(a, b).to_bits(), oracle.comoment(a, b).to_bits());
                }
            }
            let sum: f64 = scores[range.clone()].iter().sum();
            let max = scores[range.clone()].iter().fold(0.0f64, |m, &v| m.max(v));
            assert_eq!(c.score_sum.to_bits(), sum.to_bits());
            assert_eq!(c.score_max.to_bits(), max.to_bits());
        }
    }

    /// Seals the fully-covered windows of a batch the way the score
    /// phase does: per-tuple from a fresh accumulator over each slice.
    fn seal(
        spec: WindowSpec,
        dim: usize,
        r0: u64,
        tuples: &[f64],
        scores: &[f64],
    ) -> Vec<PrecomputedWindow> {
        let end = r0 + scores.len() as u64;
        let (window, stride) = (spec.window() as u64, spec.stride() as u64);
        let mut out = Vec::new();
        let mut s = r0.next_multiple_of(stride);
        while s + window <= end {
            let lo = (s - r0) as usize;
            let hi = lo + window as usize;
            out.push(PrecomputedWindow {
                start_row: s,
                stats: SufficientStats::from_flat_rows(&tuples[lo * dim..hi * dim], dim),
                score_sum: scores[lo..hi].iter().sum(),
                score_max: scores[lo..hi].iter().fold(0.0f64, |m, &v| m.max(v)),
            });
            s += stride;
        }
        out
    }

    #[test]
    fn apply_batch_matches_push_bitwise() {
        let dim = 2;
        let rows: Vec<Vec<f64>> =
            (0..43).map(|i| vec![(i as f64 * 0.83).sin() * 5.0, i as f64 - 20.0]).collect();
        let scores: Vec<f64> = (0..43).map(|i| (i as f64 * 0.57).cos().abs()).collect();
        for (window, stride) in [(6, 2), (4, 4), (5, 1), (1, 1), (8, 4)] {
            let spec = WindowSpec::new(window, stride).unwrap();
            // Chunkings exercising the edge sizes 0, 1, B−1, B, B+1.
            for chunks in
                [vec![43], vec![0, 1, window - 1, window, window + 1, 40 - 2 * window], vec![7; 6]]
            {
                let mut serial = SlidingStats::new(spec, dim);
                let mut serial_closes = Vec::new();
                let mut batched = SlidingStats::new(spec, dim);
                let mut batched_closes = Vec::new();
                let mut at = 0usize;
                for len in chunks {
                    let hi = (at + len).min(rows.len());
                    let flat: Vec<f64> = rows[at..hi].iter().flatten().copied().collect();
                    let sealed = seal(spec, dim, at as u64, &flat, &scores[at..hi]);
                    batched_closes.extend(batched.apply_batch(&flat, &scores[at..hi], &sealed));
                    for i in at..hi {
                        serial_closes.extend(serial.push(&rows[i], scores[i]));
                    }
                    at = hi;
                }
                assert_eq!(serial.rows_seen(), batched.rows_seen());
                assert_eq!(serial.closed(), batched.closed());
                assert_eq!(serial.lag(), batched.lag());
                assert_eq!(serial_closes.len(), batched_closes.len());
                for (a, b) in serial_closes.iter().zip(&batched_closes) {
                    assert_eq!((a.index, a.start_row, a.rows), (b.index, b.start_row, b.rows));
                    assert_eq!(a.score_sum.to_bits(), b.score_sum.to_bits());
                    assert_eq!(a.score_max.to_bits(), b.score_max.to_bits());
                    for x in 0..dim {
                        assert_eq!(a.stats.mean()[x].to_bits(), b.stats.mean()[x].to_bits());
                        for y in x..dim {
                            assert_eq!(
                                a.stats.comoment(x, y).to_bits(),
                                b.stats.comoment(x, y).to_bits()
                            );
                        }
                    }
                }
                // Open (partial) windows must also agree, via the snapshot.
                let a = serde_json::to_string(&serial.state()).unwrap();
                let b = serde_json::to_string(&batched.state()).unwrap();
                assert_eq!(a, b, "open-window state diverged for ({window}, {stride})");
            }
        }
    }

    /// Bit patterns of every field of `s`, read through its lossless
    /// serde image, with any NaN mapped to one pattern: Rust leaves the
    /// payload of an arithmetic NaN unspecified, so the optimizer may
    /// propagate a different input NaN on each path.
    fn stats_bits(s: &SufficientStats) -> Vec<u64> {
        let v = serde::Serialize::to_value(s);
        let mut out = vec![s.count() as u64];
        for field in ["mean", "comoment", "comp", "min", "max"] {
            let xs = serde::lossless::vec_from_value(v.field(field).unwrap()).unwrap();
            out.extend(xs.iter().map(|&x| nan_blind_bits(x)));
        }
        out
    }

    fn nan_blind_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Seeded apply_batch ≡ push over dims on both sides of the kernel's
    /// width limit, tumbling and sliding geometries, batches shorter
    /// than, equal to and longer than the window, and cells that include
    /// ±∞, NaN, ±0 and subnormals.
    #[test]
    fn apply_batch_matches_push_across_dims_and_wild_values() {
        let mut state = 0x5eed_0bad_cafe_f00du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let wild = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 5e-324, 1e300, -1e300];
        for dim in [1, 3, 8, 16, 17] {
            for (window, stride) in [(8, 8), (8, 4), (6, 2), (5, 1)] {
                let spec = WindowSpec::new(window, stride).unwrap();
                let rows = 60;
                let mut cell = |_| match next() % 64 {
                    0 => wild[(next() % wild.len() as u64) as usize],
                    r => 500.0 + r as f64 * 0.173 - (next() % 1000) as f64 * 1e-3,
                };
                let flat: Vec<f64> = (0..rows * dim).map(&mut cell).collect();
                let scores: Vec<f64> = (0..rows).map(|i| cell(i).abs() * 1e-3).collect();
                // Batch lengths cycle through short, equal and long.
                let lens = [1, window - 1, window, window + 1, 2 * window + 3, 0, 3];
                let mut serial = SlidingStats::new(spec, dim);
                let mut batched = SlidingStats::new(spec, dim);
                let (mut serial_closes, mut batched_closes) = (Vec::new(), Vec::new());
                let fold_bits = |sum: f64, max: f64| [sum, max].map(nan_blind_bits);
                let (mut at, mut k) = (0, 0);
                while at < rows {
                    let hi = (at + lens[k % lens.len()]).min(rows);
                    k += 1;
                    let (tuples, sc) = (&flat[at * dim..hi * dim], &scores[at..hi]);
                    let sealed = seal(spec, dim, at as u64, tuples, sc);
                    batched_closes.extend(batched.apply_batch(tuples, sc, &sealed));
                    for i in at..hi {
                        serial_closes.extend(serial.push(&flat[i * dim..(i + 1) * dim], scores[i]));
                    }
                    at = hi;
                    let ctx = format!("dim {dim}, ({window}, {stride}), after row {at}");
                    assert_eq!(serial_closes.len(), batched_closes.len(), "{ctx}");
                    for (a, b) in serial_closes.iter().zip(&batched_closes) {
                        assert_eq!((a.index, a.start_row, a.rows), (b.index, b.start_row, b.rows));
                        assert_eq!(stats_bits(&a.stats), stats_bits(&b.stats), "{ctx}");
                        assert_eq!(
                            fold_bits(a.score_sum, a.score_max),
                            fold_bits(b.score_sum, b.score_max),
                            "{ctx}"
                        );
                    }
                    let (a, b) = (serial.state(), batched.state());
                    assert_eq!((a.rows_seen, a.closed), (b.rows_seen, b.closed), "{ctx}");
                    assert_eq!(a.open.len(), b.open.len(), "{ctx}");
                    for (x, y) in a.open.iter().zip(&b.open) {
                        assert_eq!((x.start_row, x.rows), (y.start_row, y.rows), "{ctx}");
                        assert_eq!(stats_bits(&x.stats), stats_bits(&y.stats), "{ctx}");
                        assert_eq!(
                            fold_bits(x.score_sum, x.score_max),
                            fold_bits(y.score_sum, y.score_max),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lag_tracks_rows_since_last_close() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut acc = SlidingStats::new(spec, 1);
        let mut lags = Vec::new();
        for i in 0..8 {
            acc.push(&[i as f64], 0.0);
            lags.push(acc.lag());
        }
        // Closes at rows 3, 5, 7 (0-based): lag resets to 0 there.
        assert_eq!(lags, vec![1, 2, 3, 0, 1, 0, 1, 0]);
        acc.reset();
        assert_eq!(acc.lag(), 0);
        assert_eq!(acc.closed(), 0);
    }
}
