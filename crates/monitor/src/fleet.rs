//! Fleet merge: epoch-aligned shard deltas and the coordinator-side
//! merged monitor.
//!
//! The scale-out story for ingest is *epoch ownership*: the global
//! stream is cut into tumbling windows ("epochs"), and epoch `g` is
//! routed wholesale to shard `g mod N` (round-robin over `N` shards).
//! Each shard runs an ordinary [`OnlineMonitor`] over the blocks it
//! receives and retains its closed windows as epoch-tagged
//! [`WindowDelta`]s (see [`OnlineMonitor::set_export_cap`]). A
//! coordinator pulls those deltas, re-maps each shard-local epoch `j`
//! back to its global epoch `j·N + s`, merges the per-epoch
//! contributions via [`SufficientStats::merged`] in deterministic shard
//! order, and absorbs the result into its own [`OnlineMonitor`] in
//! global epoch order ([`OnlineMonitor::absorb_close`]).
//!
//! **Bit-identity.** Because every epoch is wholly owned by exactly one
//! shard, the per-epoch merge is `SufficientStats::merge`'s empty-left
//! case — a clone of statistics that were accumulated per-tuple on the
//! owning shard, which are themselves bit-identical to what a single
//! node would have accumulated over the same rows. The coordinator's
//! drift series, detector verdicts, alarms, and resynthesis proposals
//! are therefore **bit-identical to a single-node monitor ingesting the
//! same interleaved stream** — the invariant `tests/fleet_merge.rs`
//! proptest-pins via full-state JSON equality.
//!
//! Fleet merge is restricted to tumbling geometry (`stride == window`):
//! sliding windows straddle epoch boundaries, so no partition of rows
//! into single-owner epochs exists for them.

use crate::monitor::MonitorConfig;
use crate::report::WindowReport;
use crate::snapshot::ConfigState;
use crate::windows::ClosedWindow;
use crate::{MonitorError, OnlineMonitor};
use cc_linalg::SufficientStats;
use conformance::ConformanceProfile;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One closed window as a shard exports it: the epoch tag (shard-local
/// close index), the window's row span, and the exact accumulators a
/// [`ClosedWindow`] carries. The score folds persist through the
/// lossless `f64` encoding, so a delta that crosses the wire reproduces
/// the shard's bits on the coordinator.
#[derive(Clone, Debug)]
pub struct WindowDelta {
    /// Shard-local close index (the window's epoch on the owning shard).
    pub epoch: u64,
    /// First row of the window in the shard-local stream.
    pub start_row: u64,
    /// Rows in the window.
    pub rows: usize,
    /// Per-tuple-accumulated statistics of the window.
    pub stats: SufficientStats,
    /// Left-fold sum of the window's scores.
    pub score_sum: f64,
    /// `max` fold of the window's scores from `0.0`.
    pub score_max: f64,
}

impl Serialize for WindowDelta {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("epoch".to_owned(), self.epoch.to_value()),
            ("start_row".to_owned(), self.start_row.to_value()),
            ("rows".to_owned(), self.rows.to_value()),
            ("stats".to_owned(), self.stats.to_value()),
            ("score_sum".to_owned(), serde::lossless::f64_to_value(self.score_sum)),
            ("score_max".to_owned(), serde::lossless::f64_to_value(self.score_max)),
        ])
    }
}

impl Deserialize for WindowDelta {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(WindowDelta {
            epoch: Deserialize::from_value(v.field("epoch")?)?,
            start_row: Deserialize::from_value(v.field("start_row")?)?,
            rows: Deserialize::from_value(v.field("rows")?)?,
            stats: Deserialize::from_value(v.field("stats")?)?,
            score_sum: serde::lossless::f64_from_value(v.field("score_sum")?)?,
            score_max: serde::lossless::f64_from_value(v.field("score_max")?)?,
        })
    }
}

/// The shard→coordinator catch-up payload: one monitor's deltas from a
/// cursor onward, plus everything the coordinator needs to construct
/// (or validate) its merged twin — the monitor's configuration and
/// current-generation profile. Travels inside the `cc_state` envelope
/// (`cc_state::encode_envelope`), so the wire format inherits the
/// snapshot format's magic/version/checksum discipline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardDeltaBatch {
    /// Monitor name.
    pub monitor: String,
    /// Profile generation the deltas were scored under.
    pub generation: u64,
    /// The shard monitor's configuration.
    pub config: ConfigState,
    /// The monitored profile (current generation).
    pub profile: ConformanceProfile,
    /// The cursor this batch answers (first epoch included, if any).
    pub since: u64,
    /// One past the last epoch included — the caller's next cursor.
    pub next: u64,
    /// Shard-local windows closed so far (for lag accounting).
    pub windows_closed: u64,
    /// Rows the shard has ingested.
    pub rows_ingested: u64,
    /// The deltas, ascending epoch, contiguous from `since`.
    pub deltas: Vec<WindowDelta>,
}

/// The coordinator's merged view of one monitor across `N` shards.
///
/// Wraps an ordinary [`OnlineMonitor`] (so status, history, proposals,
/// and snapshots all work unchanged) and feeds it closed windows in
/// global epoch order as shard deltas arrive — buffering out-of-turn
/// shards, so ragged shard lag never reorders the drift series.
#[derive(Clone, Debug)]
pub struct MergedMonitor {
    monitor: OnlineMonitor,
    shards: usize,
    /// Per-shard deltas received but not yet absorbed (waiting for their
    /// global epoch's turn), ascending epoch.
    pending: Vec<VecDeque<WindowDelta>>,
    /// Per-shard next expected local epoch (= absorbed + buffered): the
    /// cursor to pass to the shard's `deltas_since`.
    received: Vec<u64>,
}

impl MergedMonitor {
    /// A merged monitor over `shards` shards. Tumbling geometry only —
    /// see the module docs.
    ///
    /// # Errors
    /// Rejects `shards == 0`, sliding geometry, and everything
    /// [`OnlineMonitor::new`] rejects.
    pub fn new(
        profile: ConformanceProfile,
        cfg: MonitorConfig,
        shards: usize,
    ) -> Result<Self, MonitorError> {
        if shards == 0 {
            return Err(MonitorError::Config("a fleet needs at least one shard".into()));
        }
        if cfg.spec.overlap() != 1 {
            return Err(MonitorError::Config(
                "fleet merge requires tumbling geometry (stride == window): \
                 sliding windows straddle epoch boundaries"
                    .into(),
            ));
        }
        let monitor = OnlineMonitor::new(profile, cfg)?;
        Ok(MergedMonitor {
            monitor,
            shards,
            pending: vec![VecDeque::new(); shards],
            received: vec![0; shards],
        })
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The merged monitor itself (status, history, proposal surface).
    pub fn monitor(&self) -> &OnlineMonitor {
        &self.monitor
    }

    /// Mutable access (proposal adoption/discard on the merged series).
    pub fn monitor_mut(&mut self) -> &mut OnlineMonitor {
        &mut self.monitor
    }

    /// The next shard-local epoch to request from shard `s` — what the
    /// pull loop passes as the shard's `since` cursor.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    pub fn cursor(&self, s: usize) -> u64 {
        self.received[s]
    }

    /// Deltas received from shard `s` but still waiting for their global
    /// epoch's turn.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    pub fn buffered(&self, s: usize) -> usize {
        self.pending[s].len()
    }

    /// Global epochs absorbed so far.
    pub fn epochs_merged(&self) -> u64 {
        self.monitor.windows_exported()
    }

    /// Offers a batch of deltas from shard `s`, buffering them and
    /// absorbing every globally-next epoch that is now available.
    /// Replayed epochs (below the shard's cursor) are skipped, so
    /// at-least-once delivery is safe. Returns the window reports of the
    /// epochs absorbed by this call, in global epoch order.
    ///
    /// # Errors
    /// Rejects an out-of-range shard, a gap (a delta past the shard's
    /// cursor — the shard's export log aged out epochs the coordinator
    /// never saw), and malformed deltas (wrong row count, misaligned
    /// start row, wrong arity). The already-absorbed prefix stays
    /// absorbed; the offending delta and everything after it is dropped.
    pub fn offer(
        &mut self,
        s: usize,
        deltas: &[WindowDelta],
    ) -> Result<Vec<WindowReport>, MonitorError> {
        if s >= self.shards {
            return Err(MonitorError::Config(format!(
                "shard index {s} out of range (fleet has {} shards)",
                self.shards
            )));
        }
        let window = self.monitor.config().spec.window();
        let dim = self.monitor.plan().attributes().len();
        for d in deltas {
            if d.epoch < self.received[s] {
                continue; // replay of an epoch already received
            }
            if d.epoch > self.received[s] {
                return Err(MonitorError::Config(format!(
                    "shard {s} delta gap: got epoch {}, expected {} — shard export log no \
                     longer covers this coordinator's cursor",
                    d.epoch, self.received[s]
                )));
            }
            if d.rows != window {
                return Err(MonitorError::Config(format!(
                    "shard {s} epoch {} holds {} rows, geometry closes at {window}",
                    d.epoch, d.rows
                )));
            }
            if d.start_row != d.epoch * window as u64 {
                return Err(MonitorError::Config(format!(
                    "shard {s} epoch {} starts at row {} — not tumbling-aligned",
                    d.epoch, d.start_row
                )));
            }
            if d.stats.dim() != dim {
                return Err(MonitorError::Config(format!(
                    "shard {s} epoch {} carries {}-attribute stats, the profile has {dim}",
                    d.epoch,
                    d.stats.dim()
                )));
            }
            if d.stats.count() != d.rows {
                return Err(MonitorError::Config(format!(
                    "shard {s} epoch {} claims {} rows but its stats hold {}",
                    d.epoch,
                    d.rows,
                    d.stats.count()
                )));
            }
            self.pending[s].push_back(d.clone());
            self.received[s] += 1;
        }
        self.drain()
    }

    /// Absorbs every buffered delta whose global epoch is next, in
    /// order: global epoch `g` is owned by shard `g mod N` and maps to
    /// that shard's local epoch `g / N`.
    fn drain(&mut self) -> Result<Vec<WindowReport>, MonitorError> {
        let dim = self.monitor.plan().attributes().len();
        let window = self.monitor.config().spec.window() as u64;
        let mut reports = Vec::new();
        loop {
            let g = self.monitor.windows_exported();
            let owner = (g % self.shards as u64) as usize;
            let local = g / self.shards as u64;
            let Some(front) = self.pending[owner].front() else { break };
            if front.epoch != local {
                return Err(MonitorError::Config(format!(
                    "shard {owner} buffer head is epoch {}, global epoch {g} needs {local}",
                    front.epoch
                )));
            }
            let d = self.pending[owner].pop_front().expect("front checked above");
            // The per-epoch merge, in deterministic shard order. With
            // single-owner epochs there is exactly one contribution, so
            // the fold is `merge`'s empty-left case — a clone of the
            // shard's per-tuple-accumulated bits.
            let stats = SufficientStats::merged(dim, [&d.stats]);
            let report = self.monitor.absorb_close(ClosedWindow {
                index: g,
                start_row: g * window,
                rows: d.rows,
                stats,
                score_sum: d.score_sum,
                score_max: d.score_max,
            })?;
            reports.push(report);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::WindowSpec;
    use cc_frame::DataFrame;
    use conformance::{synthesize, SynthOptions};

    fn line_frame(slope: f64, offset: f64, n: usize, at: usize) -> DataFrame {
        let xs: Vec<f64> = (0..n).map(|i| (at + i) as f64 / 10.0).collect();
        let ys: Vec<f64> =
            xs.iter().enumerate().map(|(i, x)| slope * x + offset + noise(at + i)).collect();
        let mut df = DataFrame::new();
        df.push_numeric("x", xs).unwrap();
        df.push_numeric("y", ys).unwrap();
        df
    }

    fn noise(i: usize) -> f64 {
        0.02 * (((i * 31) % 13) as f64 - 6.0)
    }

    fn cfg(window: usize) -> MonitorConfig {
        MonitorConfig {
            spec: WindowSpec::tumbling(window).unwrap(),
            calibration_windows: 3,
            patience: 2,
            min_resynth_rows: 8,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn two_shards_merge_bit_identical_to_single_node() {
        let window = 40;
        let blocks = 10;
        let profile = synthesize(&line_frame(2.0, 1.0, 400, 0), &SynthOptions::default()).unwrap();

        // The global stream: `blocks` tumbling windows, a level shift in
        // the tail so the detector has something to alarm on.
        let frames: Vec<DataFrame> = (0..blocks)
            .map(|g| {
                let slope = if g >= 7 { 6.0 } else { 2.0 };
                line_frame(slope, 1.0, window, g * window)
            })
            .collect();

        // Single node ingests everything in order.
        let mut single = OnlineMonitor::new(profile.clone(), cfg(window)).unwrap();
        for f in &frames {
            single.ingest(f).unwrap();
        }

        // Two shards each ingest their round-robin share.
        let shards = 2;
        let mut shard_monitors: Vec<OnlineMonitor> = (0..shards)
            .map(|_| {
                let mut m = OnlineMonitor::new(profile.clone(), cfg(window)).unwrap();
                m.set_export_cap(64);
                m
            })
            .collect();
        for (g, f) in frames.iter().enumerate() {
            shard_monitors[g % shards].ingest(f).unwrap();
        }

        // The coordinator pulls with ragged batch sizes: shard 1 first,
        // then shard 0 in two chunks — order must not matter.
        let mut merged = MergedMonitor::new(profile, cfg(window), shards).unwrap();
        let d1 = shard_monitors[1].deltas_since(0).unwrap();
        assert!(merged.offer(1, &d1).unwrap().is_empty(), "epoch 0 belongs to shard 0");
        assert_eq!(merged.buffered(1), d1.len());
        let d0 = shard_monitors[0].deltas_since(0).unwrap();
        merged.offer(0, &d0[..2]).unwrap();
        merged.offer(0, &d0[2..]).unwrap();

        assert_eq!(merged.epochs_merged(), blocks as u64);
        let a = serde_json::to_string(&single.state()).unwrap();
        let b = serde_json::to_string(&merged.monitor().state()).unwrap();
        assert_eq!(a, b, "merged state diverged from the single-node monitor");
        assert!(merged.monitor().alarms_total() > 0, "the shifted tail should alarm");
    }

    #[test]
    fn replays_are_skipped_and_gaps_rejected() {
        let window = 20;
        let profile = synthesize(&line_frame(2.0, 1.0, 200, 0), &SynthOptions::default()).unwrap();
        let mut shard = OnlineMonitor::new(profile.clone(), cfg(window)).unwrap();
        shard.set_export_cap(16);
        for g in 0..3 {
            shard.ingest(&line_frame(2.0, 1.0, window, g * window)).unwrap();
        }
        let deltas = shard.deltas_since(0).unwrap();
        assert_eq!(deltas.len(), 3);

        let mut merged = MergedMonitor::new(profile, cfg(window), 1).unwrap();
        merged.offer(0, &deltas).unwrap();
        // At-least-once delivery: replaying the same batch is a no-op.
        assert!(merged.offer(0, &deltas).unwrap().is_empty());
        assert_eq!(merged.cursor(0), 3);
        // A gap (epoch 5 when 3 is expected) is an error.
        let mut gapped = deltas[2].clone();
        gapped.epoch = 5;
        assert!(merged.offer(0, std::slice::from_ref(&gapped)).is_err());
    }

    #[test]
    fn wrong_arity_delta_is_rejected_without_wedging() {
        let window = 20;
        let profile = synthesize(&line_frame(2.0, 1.0, 200, 0), &SynthOptions::default()).unwrap();
        let mut shard = OnlineMonitor::new(profile.clone(), cfg(window)).unwrap();
        shard.set_export_cap(16);
        for g in 0..2 {
            shard.ingest(&line_frame(2.0, 1.0, window, g * window)).unwrap();
        }
        let good = shard.deltas_since(0).unwrap();
        let mut wrong = good[0].clone();
        wrong.stats = SufficientStats::from_flat_rows(&vec![1.0; 3 * window], 3);

        let mut merged = MergedMonitor::new(profile.clone(), cfg(window), 1).unwrap();
        let err = merged.offer(0, std::slice::from_ref(&wrong)).unwrap_err();
        assert!(err.to_string().contains("3-attribute stats"), "{err}");
        assert_eq!((merged.cursor(0), merged.buffered(0)), (0, 0), "nothing was received");
        // The correct re-push of the same epoch is absorbed, not skipped
        // as a replay, and the stream carries on.
        assert_eq!(merged.offer(0, &good).unwrap().len(), 2);
        let mut single = OnlineMonitor::new(profile, cfg(window)).unwrap();
        for g in 0..2 {
            single.ingest(&line_frame(2.0, 1.0, window, g * window)).unwrap();
        }
        let a = serde_json::to_string(&single.state()).unwrap();
        let b = serde_json::to_string(&merged.monitor().state()).unwrap();
        assert_eq!(a, b, "recovered coordinator diverged from the single-node monitor");
    }

    #[test]
    fn sliding_geometry_is_rejected() {
        let profile = synthesize(&line_frame(2.0, 1.0, 200, 0), &SynthOptions::default()).unwrap();
        let sliding =
            MonitorConfig { spec: WindowSpec::new(40, 20).unwrap(), ..MonitorConfig::default() };
        assert!(MergedMonitor::new(profile, sliding, 2).is_err());
    }

    #[test]
    fn export_log_caps_and_reports_gaps() {
        let window = 10;
        let profile = synthesize(&line_frame(2.0, 1.0, 100, 0), &SynthOptions::default()).unwrap();
        let mut m = OnlineMonitor::new(profile, cfg(window)).unwrap();
        m.set_export_cap(2);
        for g in 0..5 {
            m.ingest(&line_frame(2.0, 1.0, window, g * window)).unwrap();
        }
        assert_eq!(m.windows_exported(), 5);
        // Only epochs 3 and 4 are retained; a cursor at 0 is a gap.
        assert!(m.deltas_since(0).is_err());
        let tail = m.deltas_since(3).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].epoch, 3);
        // A cursor at the head returns nothing (caught up).
        assert!(m.deltas_since(5).unwrap().is_empty());
        // Disabled export with closed windows is a gap for any cursor
        // behind the head.
        m.set_export_cap(0);
        assert!(m.deltas_since(4).is_err());
        assert!(m.deltas_since(5).unwrap().is_empty());
    }
}
