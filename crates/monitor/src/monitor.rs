//! The online conformance monitor.
//!
//! [`OnlineMonitor`] glues the subsystems together: tuples/batches stream
//! in, each row is scored **once** through the cached
//! [`CompiledProfile`] plan (bit-identical to the batch serving path),
//! windows accumulate in [`SlidingStats`] (bounded memory, no tuple
//! retention), every window close appends one drift point to the series,
//! the armed [`Detector`] judges it, and sustained alarms trigger a
//! resynthesis *proposal* from the [`StatsRing`]'s recent non-overlapping
//! blocks — surfaced, never silently adopted.
//!
//! ```text
//! tuples ─► CompiledProfile (cached) ─► violation per row
//!    │                                        │
//!    └─► SlidingStats (open windows) ◄────────┘
//!              │ window close
//!              ├─► drift point ─► Detector (EWMA / CUSUM / PH) ─► alarm?
//!              ├─► StatsRing (every window/stride-th close = a tile)
//!              └─► sustained alarm ─► resynth::propose ─► ProposedProfile
//! ```

use crate::detectors::{Baseline, Detector, DetectorKind, DetectorParams};
use crate::fleet::WindowDelta;
use crate::ingest::{IngestDelta, IngestScorer};
use crate::report::{IngestReport, MonitorStatus, WindowPhase, WindowReport};
use crate::resynth::{self, ProposedProfile};
use crate::ring::StatsRing;
use crate::snapshot::{ConfigState, MonitorState};
use crate::windows::{ClosedWindow, SlidingStats, WindowSpec};
use crate::MonitorError;
use cc_frame::DataFrame;
use conformance::{CompiledProfile, ConformanceProfile, DriftAggregator, SynthOptions};
use std::collections::VecDeque;
use std::sync::Arc;

/// Monitor tuning. [`Default`] gives a tumbling 512-row window with a
/// CUSUM detector calibrated from the first 8 closed windows.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Window geometry.
    pub spec: WindowSpec,
    /// Which change-point detector judges the drift series.
    pub detector: DetectorKind,
    /// Detector tuning.
    pub params: DetectorParams,
    /// How a window's violations fold into one drift point. Only the
    /// streaming aggregators ([`DriftAggregator::Mean`] /
    /// [`DriftAggregator::Max`]) are accepted — quantiles need the
    /// materialized violation vector the monitor deliberately never
    /// keeps.
    pub aggregator: DriftAggregator,
    /// Closed windows used as the detector's reference sample when the
    /// monitor self-calibrates (ignored by
    /// [`OnlineMonitor::with_reference`]). Minimum 2.
    pub calibration_windows: usize,
    /// Retained drift-history entries (oldest retired first).
    pub history_cap: usize,
    /// Consecutive alarmed windows before a resynthesis proposal fires.
    pub patience: usize,
    /// Statistics blocks retained for resynthesis (each spans `window`
    /// rows; together they bound the candidate's data horizon).
    pub resynth_tiles: usize,
    /// Minimum rows behind a candidate profile (attempts below it are
    /// counted as resynthesis errors, not proposals).
    pub min_resynth_rows: usize,
    /// Whether sustained alarms propose candidates at all.
    pub auto_resynth: bool,
    /// Synthesis options for candidate profiles.
    pub synth: SynthOptions,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            spec: WindowSpec::tumbling(512).expect("512 is a valid window"),
            detector: DetectorKind::Cusum,
            params: DetectorParams::default(),
            aggregator: DriftAggregator::Mean,
            calibration_windows: 8,
            history_cap: 4096,
            patience: 3,
            resynth_tiles: 8,
            min_resynth_rows: 64,
            auto_resynth: true,
            synth: SynthOptions::default(),
        }
    }
}

impl MonitorConfig {
    fn validate(&self) -> Result<(), MonitorError> {
        if matches!(self.aggregator, DriftAggregator::Quantile(_)) {
            return Err(MonitorError::Config(
                "quantile aggregation needs the materialized violation vector; \
                 use mean or max for online monitoring"
                    .into(),
            ));
        }
        if self.calibration_windows < 2 {
            return Err(MonitorError::Config("calibration needs at least 2 windows".into()));
        }
        if self.history_cap == 0 {
            return Err(MonitorError::Config("history cap must be positive".into()));
        }
        if self.patience == 0 {
            return Err(MonitorError::Config("patience must be positive".into()));
        }
        if self.resynth_tiles == 0 {
            return Err(MonitorError::Config("resynth tile count must be positive".into()));
        }
        Ok(())
    }

    fn aggregator_name(&self) -> &'static str {
        match self.aggregator {
            DriftAggregator::Mean => "mean",
            DriftAggregator::Max => "max",
            DriftAggregator::Quantile(_) => "quantile",
        }
    }
}

/// The online windowed conformance monitor. See the module docs.
#[derive(Clone, Debug)]
pub struct OnlineMonitor {
    profile: ConformanceProfile,
    /// Compiled once per profile generation; every scored row reuses it.
    /// Shared (`Arc`) so [`IngestScorer`] handles score batches without
    /// the monitor lock.
    plan: Arc<CompiledProfile>,
    cfg: MonitorConfig,
    sliding: SlidingStats,
    tiles: StatsRing,
    history: VecDeque<f64>,
    calibration: Vec<f64>,
    detector: Option<Detector>,
    rows_ingested: u64,
    windows_closed: u64,
    last_drift: f64,
    consecutive_alarms: u64,
    alarms_total: u64,
    proposal: Option<ProposedProfile>,
    proposals_total: u64,
    resynth_errors: u64,
    generation: u64,
    /// Epoch-tagged closed-window deltas retained for fleet export,
    /// newest last. Empty (and free) unless a shard role enables it via
    /// [`Self::set_export_cap`].
    export_log: VecDeque<WindowDelta>,
    /// Retained export entries (0 = export disabled).
    export_cap: usize,
}

impl OnlineMonitor {
    /// A self-calibrating monitor: the first
    /// [`MonitorConfig::calibration_windows`] closed windows form the
    /// detector's reference sample, after which it arms. Compiles the
    /// profile's serving plan exactly once.
    ///
    /// # Errors
    /// Rejects invalid configurations ([`MonitorError::Config`]).
    pub fn new(profile: ConformanceProfile, cfg: MonitorConfig) -> Result<Self, MonitorError> {
        cfg.validate()?;
        let plan = Arc::new(CompiledProfile::compile(&profile));
        let dim = plan.attributes().len();
        let sliding = SlidingStats::new(cfg.spec, dim);
        let tiles = StatsRing::new(dim, cfg.resynth_tiles);
        Ok(OnlineMonitor {
            profile,
            plan,
            sliding,
            tiles,
            history: VecDeque::with_capacity(cfg.history_cap.min(4096)),
            calibration: Vec::with_capacity(cfg.calibration_windows),
            detector: None,
            rows_ingested: 0,
            windows_closed: 0,
            last_drift: f64::NAN,
            consecutive_alarms: 0,
            alarms_total: 0,
            proposal: None,
            proposals_total: 0,
            resynth_errors: 0,
            generation: 1,
            export_log: VecDeque::new(),
            export_cap: 0,
            cfg,
        })
    }

    /// A monitor pre-calibrated from a reference dataset: the reference is
    /// scored through the plan window-by-window (same geometry, same
    /// aggregator as live ingest) and the resulting drift sample becomes
    /// the detector baseline — the monitor is armed from row one. A
    /// reference shorter than two windows falls back to its whole-frame
    /// self-drift with the floored σ.
    ///
    /// # Errors
    /// Rejects invalid configurations, empty references, and references
    /// lacking profile attributes.
    pub fn with_reference(
        profile: ConformanceProfile,
        cfg: MonitorConfig,
        reference: &DataFrame,
    ) -> Result<Self, MonitorError> {
        let mut monitor = Self::new(profile, cfg)?;
        if reference.n_rows() == 0 {
            return Err(MonitorError::Config("reference dataset is empty".into()));
        }
        let violations = monitor.plan.violations(reference).map_err(MonitorError::Profile)?;
        let spec = monitor.cfg.spec;
        let mut drifts: Vec<f64> =
            spec.ranges(reference.n_rows()).map(|r| monitor.fold_drift(&violations[r])).collect();
        if drifts.len() < 2 {
            drifts = vec![monitor.fold_drift(&violations)];
        }
        monitor.detector = Some(Detector::new(
            monitor.cfg.detector,
            Baseline::from_reference(&drifts),
            monitor.cfg.params,
        ));
        Ok(monitor)
    }

    /// One window's violations folded by the configured aggregator —
    /// exactly [`DriftAggregator::aggregate`] (the sliding accumulator
    /// reproduces the same folds incrementally, which the proptests pin).
    fn fold_drift(&self, violations: &[f64]) -> f64 {
        self.cfg.aggregator.aggregate(violations)
    }

    /// Ingests a columnar batch: every row is scored through the cached
    /// plan (bit-identical to [`CompiledProfile::violations`] on the same
    /// frame) and folded into the open windows. Returns what happened —
    /// including a [`WindowReport`] for every window the batch closed.
    ///
    /// Runs the two-phase pipeline (`crate::ingest`) inline:
    /// [`Self::scorer`] scores and seals the batch, [`Self::commit`]
    /// splices it in — bit-identical to the row-by-row reference path
    /// [`Self::ingest_rowwise`] (proptest-pinned in `tests/pipeline.rs`).
    /// For concurrent callers, score through a shared [`IngestScorer`]
    /// and serialize only the commits (what
    /// [`MonitorEntry`](crate::MonitorEntry) does).
    ///
    /// # Errors
    /// Fails when the batch lacks attributes the profile needs; the
    /// monitor state is unchanged in that case.
    pub fn ingest(&mut self, batch: &DataFrame) -> Result<IngestReport, MonitorError> {
        self.ingest_with_threads(batch, 1)
    }

    /// [`Self::ingest`] with the score phase split over `threads` scoped
    /// threads ([`CompiledProfile::violations_parallel`]; bit-identical
    /// for every thread count).
    ///
    /// # Errors
    /// Fails when the batch lacks attributes the profile needs.
    pub fn ingest_with_threads(
        &mut self,
        batch: &DataFrame,
        threads: usize,
    ) -> Result<IngestReport, MonitorError> {
        let scorer = self.scorer();
        let scored = scorer.score(batch, threads)?;
        let delta = scorer.seal(scored, self.sliding.rows_seen());
        self.commit(&delta)
    }

    /// The serial row-by-row reference path: exactly what `ingest` did
    /// before the two-phase pipeline existed, kept as the oracle the
    /// pipeline is pinned against (the same way the compiled evaluator
    /// keeps `violations_interpreted`).
    ///
    /// # Errors
    /// Fails when the batch lacks attributes the profile needs; the
    /// monitor state is unchanged in that case.
    pub fn ingest_rowwise(&mut self, batch: &DataFrame) -> Result<IngestReport, MonitorError> {
        let n = batch.n_rows();
        let start_row = self.sliding.rows_seen();
        if n == 0 {
            return Ok(IngestReport {
                rows: 0,
                start_row,
                windows: Vec::new(),
                alarm: self.consecutive_alarms > 0,
            });
        }
        let violations = self.plan.violations(batch).map_err(MonitorError::Profile)?;
        let names: Vec<&str> = self.plan.attributes().iter().map(String::as_str).collect();
        let view = batch.numeric_view(&names).expect("violations bound these columns");
        let mut buf = vec![0.0; names.len()];
        let mut windows = Vec::new();
        for (i, &v) in violations.iter().enumerate() {
            view.fill_row(i, &mut buf);
            self.rows_ingested += 1;
            if let Some(closed) = self.sliding.push(&buf, v) {
                windows.push(self.close_window(closed));
            }
        }
        Ok(IngestReport { rows: n, start_row, windows, alarm: self.consecutive_alarms > 0 })
    }

    /// A lock-free scoring handle for the current profile generation.
    /// Clones share the compiled plan by `Arc`; the handle stays valid
    /// (and correct for this generation) after the monitor lock is
    /// released — that is the point.
    pub fn scorer(&self) -> IngestScorer {
        IngestScorer::new(self.plan.clone(), self.cfg.spec, self.generation)
    }

    /// The stream row the next admitted batch starts at (rows absorbed
    /// by the windowing accumulator since the last reset — **not** the
    /// lifetime [`MonitorStatus::rows_ingested`] counter, which survives
    /// generation swaps).
    pub fn stream_position(&self) -> u64 {
        self.sliding.rows_seen()
    }

    /// Commit phase: splices a sealed delta into the monitor — adopts
    /// its fully-covered windows wholesale, replays its head/tail rows
    /// into partial windows, and runs the per-close bookkeeping (drift
    /// series, detector, alarms, resynthesis). Bit-identical to having
    /// ingested the delta's batch row by row at the same position.
    ///
    /// # Errors
    /// Rejects deltas sealed against another generation or another
    /// stream position, with the monitor untouched. The registry's
    /// pipeline lock makes both impossible for entry-routed ingest.
    pub fn commit(&mut self, delta: &IngestDelta) -> Result<IngestReport, MonitorError> {
        if delta.generation() != self.generation {
            return Err(MonitorError::Config(format!(
                "delta scored against generation {}, monitor is at {}",
                delta.generation(),
                self.generation
            )));
        }
        if delta.start_row() != self.sliding.rows_seen() {
            return Err(MonitorError::Config(format!(
                "delta admitted at row {}, stream is at {}",
                delta.start_row(),
                self.sliding.rows_seen()
            )));
        }
        let n = delta.rows();
        // The serial path bumps this per row; no close reads it, so the
        // batch bump is equivalent.
        self.rows_ingested += n as u64;
        let closes =
            self.sliding.apply_batch(delta.tuples(), delta.violations(), delta.full_windows());
        let windows = closes.into_iter().map(|c| self.close_window(c)).collect();
        Ok(IngestReport {
            rows: n,
            start_row: delta.start_row(),
            windows,
            alarm: self.consecutive_alarms > 0,
        })
    }

    /// Ingests a single tuple (`categorical` must cover the profile's
    /// switching attributes). Scored through the plan's resolved
    /// single-tuple path; prefer [`Self::ingest`] for throughput.
    ///
    /// # Errors
    /// Fails when a switching attribute is missing from `categorical`.
    ///
    /// # Panics
    /// Panics when the tuple arity differs from the profile's attribute
    /// count (same contract as [`conformance::StreamingSynthesizer`]).
    pub fn push(
        &mut self,
        tuple: &[f64],
        categorical: &[(&str, &str)],
    ) -> Result<Option<WindowReport>, MonitorError> {
        assert_eq!(
            tuple.len(),
            self.plan.attributes().len(),
            "OnlineMonitor::push: tuple arity mismatch"
        );
        let cases = self.plan.resolve_cases(categorical).map_err(MonitorError::Profile)?;
        let violation = self.plan.violation_resolved(tuple, &cases);
        self.rows_ingested += 1;
        Ok(self.sliding.push(tuple, violation).map(|closed| self.close_window(closed)))
    }

    /// Everything that happens when a window closes: drift point, history
    /// ring, tile ring, detector verdict, alarm bookkeeping, resynthesis.
    fn close_window(&mut self, closed: ClosedWindow) -> WindowReport {
        if self.export_cap > 0 {
            if self.export_log.len() == self.export_cap {
                self.export_log.pop_front();
            }
            self.export_log.push_back(WindowDelta {
                epoch: closed.index,
                start_row: closed.start_row,
                rows: closed.rows,
                stats: closed.stats.clone(),
                score_sum: closed.score_sum,
                score_max: closed.score_max,
            });
        }
        let drift = match self.cfg.aggregator {
            DriftAggregator::Mean => closed.score_sum / closed.rows.max(1) as f64,
            _ => closed.score_max,
        };
        let index = self.windows_closed;
        self.windows_closed += 1;
        self.last_drift = drift;
        if self.history.len() == self.cfg.history_cap {
            self.history.pop_front();
        }
        self.history.push_back(drift);
        // Every overlap-th close tiles the stream exactly (no overlap):
        // those are the resynthesis blocks.
        if closed.index.is_multiple_of(self.cfg.spec.overlap() as u64) {
            self.tiles.push(closed.stats);
        }
        let (phase, stat, threshold, alarm) = match &mut self.detector {
            None => {
                self.calibration.push(drift);
                if self.calibration.len() >= self.cfg.calibration_windows {
                    self.detector = Some(Detector::new(
                        self.cfg.detector,
                        Baseline::from_reference(&self.calibration),
                        self.cfg.params,
                    ));
                    self.calibration.clear();
                }
                (WindowPhase::Calibrating, f64::NAN, f64::NAN, false)
            }
            Some(det) => {
                let d = det.observe(drift);
                let phase = if d.alarm { WindowPhase::Alarm } else { WindowPhase::Ok };
                (phase, d.stat, d.threshold, d.alarm)
            }
        };
        let mut proposed = false;
        if alarm {
            self.consecutive_alarms += 1;
            self.alarms_total += 1;
            // `>=` with a pending-proposal guard, not `==`: a failed
            // attempt (ring still short of min_resynth_rows, degenerate
            // data) retries on the next alarmed window instead of going
            // silent for the rest of the episode.
            if self.cfg.auto_resynth
                && self.proposal.is_none()
                && self.consecutive_alarms >= self.cfg.patience as u64
            {
                proposed = self.try_propose(index);
            }
        } else {
            self.consecutive_alarms = 0;
        }
        WindowReport {
            index,
            start_row: closed.start_row,
            rows: closed.rows,
            drift,
            phase,
            stat,
            threshold,
            proposed,
        }
    }

    fn try_propose(&mut self, at_window: u64) -> bool {
        match resynth::propose(
            &self.tiles,
            self.plan.attributes(),
            &self.cfg.synth,
            self.cfg.min_resynth_rows,
        ) {
            Ok((profile, rows)) => {
                self.proposals_total += 1;
                self.proposal = Some(ProposedProfile {
                    generation: self.generation + 1,
                    profile,
                    tiles: self.tiles.len(),
                    rows,
                    at_window,
                });
                true
            }
            Err(_) => {
                self.resynth_errors += 1;
                false
            }
        }
    }

    /// The pending resynthesis proposal, if any.
    pub fn proposal(&self) -> Option<&ProposedProfile> {
        self.proposal.as_ref()
    }

    /// Adopts the pending proposal: the candidate becomes the monitored
    /// profile (plan recompiled once, generation bumped) and the
    /// windowing / detector state restarts against it (half-filled
    /// windows scored by the old plan must not leak into the new drift
    /// series; the detector re-calibrates). Lifetime counters and the
    /// drift history are kept. Returns the new generation, or `None`
    /// when there was no proposal.
    pub fn adopt_proposal(&mut self) -> Option<u64> {
        let p = self.proposal.take()?;
        self.profile = p.profile;
        self.plan = Arc::new(CompiledProfile::compile(&self.profile));
        self.generation = p.generation;
        self.sliding.reset();
        // Epoch numbering restarts with the windowing accumulator; stale
        // export entries from the old generation must not be re-served.
        self.export_log.clear();
        self.tiles.clear();
        self.calibration.clear();
        self.detector = None;
        self.consecutive_alarms = 0;
        self.last_drift = f64::NAN;
        Some(self.generation)
    }

    /// Discards the pending proposal (e.g. a human rejected it).
    pub fn discard_proposal(&mut self) -> bool {
        self.proposal.take().is_some()
    }

    /// Enables (cap > 0) or disables (cap = 0) the fleet export log:
    /// every window close appends one epoch-tagged [`WindowDelta`],
    /// retaining the newest `cap`. Shrinking drops the oldest entries;
    /// disabling clears the log.
    pub fn set_export_cap(&mut self, cap: usize) {
        self.export_cap = cap;
        while self.export_log.len() > cap {
            self.export_log.pop_front();
        }
    }

    /// Retained export entries (0 = export disabled).
    pub fn export_cap(&self) -> usize {
        self.export_cap
    }

    /// Closed-window deltas with epoch ≥ `since`, oldest first — the
    /// shard half of the fleet catch-up protocol. A coordinator advances
    /// its cursor past what it absorbed and asks again.
    ///
    /// # Errors
    /// Fails when `since` predates the log's oldest retained epoch (the
    /// bounded log already dropped windows the caller still needs): the
    /// coordinator cannot catch up incrementally and must mark the shard
    /// stale.
    pub fn deltas_since(&self, since: u64) -> Result<Vec<WindowDelta>, MonitorError> {
        let Some(front) = self.export_log.front() else {
            // An empty log is only a gap when windows were already closed
            // past the cursor (cap 0, or everything aged out).
            if since < self.windows_exported() {
                return Err(MonitorError::Config(format!(
                    "export log is empty but {} window(s) closed past epoch {since}",
                    self.windows_exported() - since
                )));
            }
            return Ok(Vec::new());
        };
        if since < front.epoch {
            return Err(MonitorError::Config(format!(
                "epoch {since} already aged out of the export log (oldest retained: {})",
                front.epoch
            )));
        }
        let skip = (since - front.epoch) as usize;
        Ok(self.export_log.iter().skip(skip).cloned().collect())
    }

    /// Windows closed in the current generation — the epoch the export
    /// log has reached (one past the newest exportable delta).
    pub fn windows_exported(&self) -> u64 {
        self.sliding.closed()
    }

    /// Absorbs a window another monitor (a fleet shard) closed, without
    /// replaying its rows: the windowing accumulator adopts the close
    /// ([`SlidingStats::adopt_close`] — tumbling geometry, in-epoch-order
    /// arrival) and the full per-close bookkeeping runs — drift series,
    /// detector, alarms, resynthesis — exactly as if this monitor had
    /// ingested the window's rows itself. That is the coordinator's merge
    /// path, and the source of the fleet's bit-identity invariant.
    ///
    /// # Errors
    /// Rejects stats of the wrong arity and everything
    /// [`SlidingStats::adopt_close`] rejects; the monitor is unchanged on
    /// error.
    pub fn absorb_close(&mut self, w: ClosedWindow) -> Result<WindowReport, MonitorError> {
        let dim = self.plan.attributes().len();
        if w.stats.dim() != dim {
            return Err(MonitorError::Config(format!(
                "absorbed window has dim {}, monitor expects {dim}",
                w.stats.dim()
            )));
        }
        self.sliding.adopt_close(&w)?;
        self.rows_ingested += w.rows as u64;
        Ok(self.close_window(w))
    }

    /// The complete serializable state image — everything needed to
    /// resume this monitor elsewhere via [`Self::from_state`] with
    /// bit-identical behaviour (see [`crate::snapshot`]).
    pub fn state(&self) -> MonitorState {
        MonitorState {
            config: ConfigState::from_config(&self.cfg),
            profile: self.profile.clone(),
            sliding: self.sliding.state(),
            tiles: self.tiles.state(),
            history: self.history.iter().copied().collect(),
            calibration: self.calibration.clone(),
            detector: self.detector.as_ref().map(Detector::state),
            rows_ingested: self.rows_ingested,
            windows_closed: self.windows_closed,
            last_drift: self.last_drift,
            consecutive_alarms: self.consecutive_alarms,
            alarms_total: self.alarms_total,
            proposal: self.proposal.clone(),
            proposals_total: self.proposals_total,
            resynth_errors: self.resynth_errors,
            generation: self.generation,
            export: self.export_log.iter().cloned().collect(),
        }
    }

    /// Rebuilds a monitor from a state image. The serving plan is
    /// recompiled from the persisted profile (deterministic), every
    /// accumulator restores bit-exactly, and the next `ingest` continues
    /// exactly where the snapshot left off.
    ///
    /// # Errors
    /// Rejects internally inconsistent state (invalid geometry, window
    /// or ring shapes that disagree with the configuration, history or
    /// calibration samples past their caps).
    pub fn from_state(state: MonitorState) -> Result<Self, MonitorError> {
        let cfg = state.config.into_config()?;
        let mut monitor = OnlineMonitor::new(state.profile, cfg)?;
        let dim = monitor.plan.attributes().len();
        monitor.sliding = SlidingStats::from_state(monitor.cfg.spec, dim, state.sliding)?;
        monitor.tiles = StatsRing::from_state(dim, monitor.cfg.resynth_tiles, state.tiles)?;
        if state.history.len() > monitor.cfg.history_cap {
            return Err(MonitorError::Config(format!(
                "snapshot holds {} history entries, cap is {}",
                state.history.len(),
                monitor.cfg.history_cap
            )));
        }
        monitor.history = state.history.into();
        if state.calibration.len() >= monitor.cfg.calibration_windows {
            return Err(MonitorError::Config(format!(
                "snapshot holds {} calibration samples; {} would already have armed",
                state.calibration.len(),
                monitor.cfg.calibration_windows
            )));
        }
        monitor.calibration = state.calibration;
        monitor.detector = state.detector.map(Detector::from_state);
        monitor.rows_ingested = state.rows_ingested;
        monitor.windows_closed = state.windows_closed;
        monitor.last_drift = state.last_drift;
        monitor.consecutive_alarms = state.consecutive_alarms;
        monitor.alarms_total = state.alarms_total;
        monitor.proposal = state.proposal;
        monitor.proposals_total = state.proposals_total;
        monitor.resynth_errors = state.resynth_errors;
        monitor.generation = state.generation;
        // The log restores with export disabled; a shard role re-arms it
        // via `set_export_cap`, which trims to the new cap.
        monitor.export_log = state.export.into();
        Ok(monitor)
    }

    /// A full serializable snapshot.
    pub fn status(&self) -> MonitorStatus {
        let baseline = self.detector.as_ref().map(Detector::baseline);
        MonitorStatus {
            window: self.cfg.spec.window(),
            stride: self.cfg.spec.stride(),
            detector: self.cfg.detector.name().to_owned(),
            aggregator: self.cfg.aggregator_name().to_owned(),
            rows_ingested: self.rows_ingested,
            windows_closed: self.windows_closed,
            window_lag: self.sliding.lag(),
            calibrated: self.detector.is_some(),
            baseline_mean: baseline.map_or(f64::NAN, |b| b.mean),
            baseline_std: baseline.map_or(f64::NAN, |b| b.std),
            last_drift: self.last_drift,
            smoothed_drift: self.detector.as_ref().map_or(f64::NAN, Detector::smoothed),
            alarm: self.consecutive_alarms > 0,
            consecutive_alarms: self.consecutive_alarms,
            alarms_total: self.alarms_total,
            proposals_total: self.proposals_total,
            proposal_generation: self.proposal.as_ref().map(|p| p.generation),
            resynth_errors: self.resynth_errors,
            generation: self.generation,
            tiles: self.tiles.len(),
            tile_rows: self.tiles.rows(),
            history_len: self.history.len(),
        }
    }

    /// The monitored profile (current generation).
    pub fn profile(&self) -> &ConformanceProfile {
        &self.profile
    }

    /// The cached serving plan.
    pub fn plan(&self) -> &CompiledProfile {
        &self.plan
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Retained drift history, oldest first (bounded by the cap).
    pub fn history(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.history.iter().copied()
    }

    /// Retained drift-history length (≤ the configured cap).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Rows ingested over the monitor's lifetime.
    pub fn rows_ingested(&self) -> u64 {
        self.rows_ingested
    }

    /// Windows closed over the monitor's lifetime.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Rows buffered past the most recent window close.
    pub fn window_lag(&self) -> u64 {
        self.sliding.lag()
    }

    /// Alarmed windows over the monitor's lifetime.
    pub fn alarms_total(&self) -> u64 {
        self.alarms_total
    }

    /// Resynthesis proposals over the monitor's lifetime.
    pub fn proposals_total(&self) -> u64 {
        self.proposals_total
    }

    /// Whether the detector is armed.
    pub fn calibrated(&self) -> bool {
        self.detector.is_some()
    }

    /// Profile generation currently monitored.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conformance::synthesize;

    fn line_frame(slope: f64, offset: f64, n: usize) -> DataFrame {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> =
            xs.iter().enumerate().map(|(i, x)| slope * x + offset + noise(i)).collect();
        let mut df = DataFrame::new();
        df.push_numeric("x", xs).unwrap();
        df.push_numeric("y", ys).unwrap();
        df
    }

    fn noise(i: usize) -> f64 {
        0.02 * (((i * 31) % 13) as f64 - 6.0)
    }

    fn cfg(window: usize, stride: usize) -> MonitorConfig {
        MonitorConfig {
            spec: WindowSpec::new(window, stride).unwrap(),
            calibration_windows: 3,
            patience: 2,
            min_resynth_rows: 8,
            ..MonitorConfig::default()
        }
    }

    fn trained(n: usize) -> ConformanceProfile {
        synthesize(&line_frame(2.0, 1.0, n), &SynthOptions::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        let profile = trained(200);
        let bad = MonitorConfig {
            aggregator: DriftAggregator::Quantile(0.95),
            ..MonitorConfig::default()
        };
        assert!(matches!(OnlineMonitor::new(profile.clone(), bad), Err(MonitorError::Config(_))));
        for break_it in [
            |c: &mut MonitorConfig| c.calibration_windows = 1,
            |c: &mut MonitorConfig| c.history_cap = 0,
            |c: &mut MonitorConfig| c.patience = 0,
            |c: &mut MonitorConfig| c.resynth_tiles = 0,
        ] {
            let mut c = MonitorConfig::default();
            break_it(&mut c);
            assert!(OnlineMonitor::new(profile.clone(), c).is_err());
        }
    }

    #[test]
    fn ingest_matches_batch_drift_bitwise() {
        // One tumbling window per batch: the monitor's drift point must
        // be bit-identical to DriftAggregator::Mean over the plan's
        // violations on the same frame.
        let profile = trained(300);
        let mut monitor = OnlineMonitor::new(profile.clone(), cfg(100, 100)).unwrap();
        let plan = CompiledProfile::compile(&profile);
        for step in 0..4 {
            let batch = line_frame(2.0 + step as f64 * 0.2, 1.0, 100);
            let report = monitor.ingest(&batch).unwrap();
            assert_eq!(report.rows, 100);
            assert_eq!(report.windows.len(), 1);
            let expect = DriftAggregator::Mean.aggregate(&plan.violations(&batch).unwrap());
            assert_eq!(
                report.windows[0].drift.to_bits(),
                expect.to_bits(),
                "window {step} drift diverged from the batch path"
            );
        }
        assert_eq!(monitor.windows_closed(), 4);
        assert_eq!(monitor.rows_ingested(), 400);
    }

    #[test]
    fn push_and_ingest_agree() {
        let profile = trained(300);
        let mut by_batch = OnlineMonitor::new(profile.clone(), cfg(50, 25)).unwrap();
        let mut by_tuple = OnlineMonitor::new(profile, cfg(50, 25)).unwrap();
        let frame = line_frame(2.3, 1.0, 150);
        let report = by_batch.ingest(&frame).unwrap();
        let names: Vec<&str> = by_tuple.plan().attributes().iter().map(String::as_str).collect();
        let rows = frame.numeric_rows(&names).unwrap();
        let mut tuple_windows = Vec::new();
        for r in &rows {
            if let Some(w) = by_tuple.push(r, &[]).unwrap() {
                tuple_windows.push(w);
            }
        }
        assert_eq!(report.windows.len(), tuple_windows.len());
        for (a, b) in report.windows.iter().zip(&tuple_windows) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.drift.to_bits(), b.drift.to_bits(), "window {}", a.index);
        }
    }

    #[test]
    fn calibrates_then_alarms_then_proposes() {
        let profile = trained(400);
        let mut monitor = OnlineMonitor::new(profile, cfg(80, 80)).unwrap();
        assert!(!monitor.calibrated());
        // Stationary prefix: 3 calibration windows + 4 armed quiet ones.
        for _ in 0..7 {
            let report = monitor.ingest(&line_frame(2.0, 1.0, 80)).unwrap();
            assert!(!report.alarm, "stationary data must not alarm");
        }
        assert!(monitor.calibrated());
        assert_eq!(monitor.alarms_total(), 0);
        let before = monitor.status();
        assert!(before.baseline_std > 0.0);
        // A hard level shift: alarms within patience, then proposes.
        let mut proposed_at = None;
        for k in 0..6 {
            let report = monitor.ingest(&line_frame(6.0, 1.0, 80)).unwrap();
            if report.windows.iter().any(|w| w.proposed) {
                proposed_at = Some(k);
                break;
            }
        }
        assert_eq!(proposed_at, Some(1), "patience 2 ⇒ proposal on the 2nd alarmed window");
        assert!(monitor.alarms_total() >= 2);
        let proposal = monitor.proposal().expect("proposal pending");
        assert_eq!(proposal.generation, 2);
        assert!(proposal.rows >= 8);
        let status = monitor.status();
        assert_eq!(status.proposal_generation, Some(2));
        assert!(status.alarm);

        // The candidate fits the *shifted* regime: a tuple on the new
        // trend conforms under it but violates the original profile.
        let candidate = CompiledProfile::compile(&proposal.profile);
        let shifted_tuple = [5.0, 6.0 * 5.0 + 1.0];
        let old = monitor.plan().violation_resolved(&shifted_tuple, &[]);
        let new = candidate.violation_resolved(&shifted_tuple, &[]);
        assert!(old > 0.4, "shifted tuple should violate the old profile, got {old}");
        assert!(new < 0.1, "shifted tuple should conform to the candidate, got {new}");

        // Adoption swaps the profile, bumps the generation, re-calibrates.
        assert_eq!(monitor.adopt_proposal(), Some(2));
        assert_eq!(monitor.generation(), 2);
        assert!(!monitor.calibrated());
        assert!(monitor.proposal().is_none());
        let report = monitor.ingest(&line_frame(6.0, 1.0, 80)).unwrap();
        assert!(!report.alarm, "the adopted profile matches the new regime");
    }

    #[test]
    fn failed_resynthesis_retries_on_the_next_alarmed_window() {
        // min_resynth_rows is set so the FIRST attempt (at patience)
        // finds the ring short and fails; the ring grows by one 50-row
        // tile per close, so the retry on the next alarmed window
        // succeeds. The old `== patience` trigger would have gone silent
        // for the whole episode after the failure.
        let profile = trained(400);
        let mut c = cfg(50, 50);
        c.calibration_windows = 2;
        c.patience = 1;
        c.min_resynth_rows = 170;
        let mut monitor = OnlineMonitor::new(profile, c).unwrap();
        for _ in 0..2 {
            monitor.ingest(&line_frame(2.0, 1.0, 50)).unwrap(); // calibrate
        }
        // 1st alarmed window: 3 tiles × 50 = 150 rows < 170 ⇒ attempt fails.
        let r = monitor.ingest(&line_frame(6.0, 1.0, 50)).unwrap();
        assert!(r.alarm);
        assert!(monitor.proposal().is_none());
        assert_eq!(monitor.status().resynth_errors, 1);
        // 2nd alarmed window: 4 tiles = 200 rows ⇒ the retry succeeds.
        let r = monitor.ingest(&line_frame(6.0, 1.0, 50)).unwrap();
        assert!(r.windows[0].proposed);
        assert!(monitor.proposal().is_some());
        // A pending proposal is not replaced by later alarmed windows.
        monitor.ingest(&line_frame(6.0, 1.0, 50)).unwrap();
        assert_eq!(monitor.proposals_total(), 1);
    }

    #[test]
    fn with_reference_arms_immediately_and_stays_quiet() {
        let train = line_frame(2.0, 1.0, 400);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let mut monitor = OnlineMonitor::with_reference(profile, cfg(80, 80), &train).unwrap();
        assert!(monitor.calibrated());
        for _ in 0..5 {
            let report = monitor.ingest(&line_frame(2.0, 1.0, 80)).unwrap();
            assert!(!report.alarm);
        }
        assert_eq!(monitor.alarms_total(), 0);
        // Short reference (fewer than two windows) still calibrates.
        let short = line_frame(2.0, 1.0, 50);
        let p2 = synthesize(&train, &SynthOptions::default()).unwrap();
        let m2 = OnlineMonitor::with_reference(p2, cfg(80, 80), &short).unwrap();
        assert!(m2.calibrated());
        // Empty reference is a config error.
        let p3 = synthesize(&train, &SynthOptions::default()).unwrap();
        let empty = DataFrame::new();
        assert!(OnlineMonitor::with_reference(p3, cfg(80, 80), &empty).is_err());
    }

    #[test]
    fn history_is_bounded() {
        let profile = trained(300);
        let mut c = cfg(20, 20);
        c.history_cap = 5;
        let mut monitor = OnlineMonitor::new(profile, c).unwrap();
        for _ in 0..12 {
            monitor.ingest(&line_frame(2.0, 1.0, 20)).unwrap();
        }
        assert_eq!(monitor.history_len(), 5);
        assert_eq!(monitor.windows_closed(), 12);
        assert_eq!(monitor.history().len(), 5);
    }

    #[test]
    fn compiles_once_per_generation() {
        let profile = trained(300);
        let before = conformance::compiled::thread_compile_count();
        let mut monitor = OnlineMonitor::new(profile, cfg(50, 50)).unwrap();
        assert_eq!(conformance::compiled::thread_compile_count(), before + 1);
        for step in 0..6 {
            monitor.ingest(&line_frame(2.0 + step as f64, 1.0, 50)).unwrap();
        }
        // Ingest never recompiles — only proposal synthesis/adoption may.
        assert_eq!(conformance::compiled::thread_compile_count(), before + 1);
    }

    #[test]
    fn missing_column_is_a_typed_error_and_state_is_unchanged() {
        let profile = trained(300);
        let mut monitor = OnlineMonitor::new(profile, cfg(50, 50)).unwrap();
        let mut bad = DataFrame::new();
        bad.push_numeric("x", vec![1.0, 2.0]).unwrap();
        assert!(matches!(monitor.ingest(&bad), Err(MonitorError::Profile(_))));
        assert_eq!(monitor.rows_ingested(), 0);
        assert_eq!(monitor.window_lag(), 0);
    }
}
