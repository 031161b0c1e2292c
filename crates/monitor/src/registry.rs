//! Named-monitor registry and the concurrent ingest entry.
//!
//! A serving daemon (or any embedding) runs many monitors — one per
//! stream — keyed by name. Two layers live here:
//!
//! * [`MonitorEntry`] wraps one monitor with the machinery that lets many
//!   connections feed it concurrently without serializing the expensive
//!   work: batches score lock-free through a published
//!   [`IngestScorer`], admission hands out `(ticket, start_row)` pairs
//!   atomically, and only the short commit runs under the monitor's
//!   mutex, in ticket order. The entry also publishes the latest
//!   [`MonitorStatus`] as a swapped `Arc`, so `/metrics` and status reads
//!   never queue behind an ingest.
//! * [`MonitorSet`] is the name → entry map. Lookups take a brief read
//!   lock and clone an `Arc`; creation builds (and compiles) the monitor
//!   **outside** every lock and inserts with a re-check, so a slow
//!   profile compile never stalls unrelated streams.
//!
//! Poisoned locks are recovered throughout (a panic mid-commit on one
//! monitor must not take down every other stream).
//!
//! ## Lock discipline
//!
//! ```text
//! ingest(batch):
//!   pipeline.read ─┐            (held across the whole call: excludes
//!                  │             generation swaps, not other ingests)
//!   scorer.read ───┤ clone Arc, drop lock
//!   score batch    │            ── no monitor lock, parallelizable
//!   gate.lock ─────┤ ticket + start_row, drop lock
//!   seal delta     │            ── no monitor lock
//!   gate.lock ─────┤ wait turn (ticket == next_commit)
//!   monitor.lock ──┤ commit delta, take status, drop lock
//!   status.write ──┤ publish status, still inside the turn
//!   gate.lock ─────┘ next_commit += 1, notify
//! ```
//!
//! Status readers touch only `status.read`; exclusive operations
//! ([`MonitorEntry::with_monitor`]) take `pipeline.write`, which drains
//! every in-flight ingest before the closure runs and republishes the
//! scorer/status afterwards.

use crate::ingest::IngestScorer;
use crate::monitor::OnlineMonitor;
use crate::report::{IngestReport, MonitorStatus};
use crate::MonitorError;
use cc_frame::DataFrame;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Name prefix reserved for internal monitors (e.g. the server's
/// self-watch stream `__self`). [`validate_monitor_name`] rejects it for
/// externally supplied names; internal code registers such monitors via
/// [`MonitorSet::insert`], which performs no validation.
pub const RESERVED_NAME_PREFIX: &str = "__";

/// Validates an externally supplied monitor name against the registry
/// grammar `[a-zA-Z0-9_.-]{1,128}`, with the leading [`RESERVED_NAME_PREFIX`]
/// rejected so client streams can never collide with internal namespaces.
///
/// # Errors
/// A human-readable reason, suitable for a 400 response body.
pub fn validate_monitor_name(name: &str) -> Result<(), String> {
    validate_monitor_name_grammar(name)?;
    if name.starts_with(RESERVED_NAME_PREFIX) {
        return Err(format!(
            "monitor names starting with '{RESERVED_NAME_PREFIX}' are reserved for internal use"
        ));
    }
    Ok(())
}

/// The grammar-only half of [`validate_monitor_name`]: charset and
/// length, without the reserved-prefix policy. Read paths use this so
/// internal (`__`-prefixed) monitors stay addressable for status reads,
/// while a name outside the grammar is a `400` everywhere — never a
/// lookup that "happens" to miss (the 400-vs-404 distinction the HTTP
/// surface documents).
///
/// # Errors
/// A human-readable reason, suitable for a 400 response body.
pub fn validate_monitor_name_grammar(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("monitor name must not be empty".to_owned());
    }
    if name.len() > 128 {
        return Err(format!("monitor name exceeds 128 bytes ({} given)", name.len()));
    }
    if let Some(bad) = name.chars().find(|c| !c.is_ascii_alphanumeric() && !"_.-".contains(*c)) {
        return Err(format!("monitor name may only contain [a-zA-Z0-9_.-] (found {bad:?})"));
    }
    Ok(())
}

/// Recovers a poisoned monitor lock: the monitor's state is a collection
/// of counters and accumulators that stay internally consistent between
/// batch commits, so continuing after a panic is safe (at worst one
/// batch of one window is lost).
pub fn lock_monitor(m: &Mutex<OnlineMonitor>) -> std::sync::MutexGuard<'_, OnlineMonitor> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Admission bookkeeping: tickets order commits, `admitted_rows` is the
/// stream row the next admitted batch starts at.
#[derive(Debug)]
struct GateState {
    next_ticket: u64,
    next_commit: u64,
    admitted_rows: u64,
}

/// One registered monitor plus its concurrency machinery. See the module
/// docs for the lock discipline.
#[derive(Debug)]
pub struct MonitorEntry {
    /// Registry name, used to tag trace spans ("" for anonymous entries).
    name: String,
    monitor: Mutex<OnlineMonitor>,
    /// The published scoring handle for the current generation.
    scorer: RwLock<Arc<IngestScorer>>,
    /// The last committed status — swapped atomically after every
    /// commit, inside the commit turn, so readers observe statuses in
    /// admission order without ever taking the monitor lock.
    status: RwLock<Arc<MonitorStatus>>,
    gate: Mutex<GateState>,
    turn: Condvar,
    /// Read side spans an ingest; write side is exclusive access
    /// ([`Self::with_monitor`]), which may swap the generation or rewind
    /// the stream position under the pipeline's feet.
    pipeline: RwLock<()>,
}

/// Releases the commit turn on drop — a panicking commit must still wake
/// its successors or every later ticket deadlocks.
struct CommitTurn<'a> {
    gate: &'a Mutex<GateState>,
    turn: &'a Condvar,
}

impl Drop for CommitTurn<'_> {
    fn drop(&mut self) {
        let mut g = self.gate.lock().unwrap_or_else(|p| p.into_inner());
        g.next_commit += 1;
        drop(g);
        self.turn.notify_all();
    }
}

impl MonitorEntry {
    /// Wraps a monitor, publishing its scorer and status and anchoring
    /// admission at its current stream position.
    pub fn new(monitor: OnlineMonitor) -> Arc<Self> {
        Self::named("", monitor)
    }

    /// Like [`Self::new`], but tags the entry with its registry name so
    /// ingest-pipeline trace spans are attributable to the monitor.
    pub fn named(name: &str, monitor: OnlineMonitor) -> Arc<Self> {
        let scorer = Arc::new(monitor.scorer());
        let status = Arc::new(monitor.status());
        let position = monitor.stream_position();
        Arc::new(MonitorEntry {
            name: name.to_owned(),
            monitor: Mutex::new(monitor),
            scorer: RwLock::new(scorer),
            status: RwLock::new(status),
            gate: Mutex::new(GateState { next_ticket: 0, next_commit: 0, admitted_rows: position }),
            turn: Condvar::new(),
            pipeline: RwLock::new(()),
        })
    }

    /// The registry name this entry was created under ("" if anonymous).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ingests a batch through the two-phase pipeline: lock-free score,
    /// ticketed in-order commit. Concurrent callers score in parallel
    /// and serialize only the short commit; the interleaving is
    /// bit-identical to having ingested the batches serially in
    /// admission order (`tests/pipeline.rs` pins this). Returns the
    /// report plus the status published by this very commit.
    ///
    /// # Errors
    /// Fails when the batch lacks attributes the profile needs — before
    /// admission, so a rejected batch leaves no gap in the row sequence.
    pub fn ingest(
        &self,
        batch: &DataFrame,
        threads: usize,
    ) -> Result<(IngestReport, Arc<MonitorStatus>), MonitorError> {
        self.ingest_traced(batch, threads, cc_trace::gen_id())
    }

    /// [`Self::ingest`] with a caller-supplied trace id, so the pipeline
    /// phase spans (`score`, `admission_wait`, `turn_wait`, `commit`) and
    /// per-window-close events correlate with the request that carried
    /// the batch.
    pub fn ingest_traced(
        &self,
        batch: &DataFrame,
        threads: usize,
        trace_id: u64,
    ) -> Result<(IngestReport, Arc<MonitorStatus>), MonitorError> {
        let _pipeline = self.pipeline.read().unwrap_or_else(|p| p.into_inner());
        let scorer = self.scorer().clone();
        // Phase one — fallible, position-independent, fully concurrent.
        let score_started = Instant::now();
        let scored = scorer.score(batch, threads)?;
        cc_trace::record(
            cc_trace::Phase::Score,
            trace_id,
            &self.name,
            scored.rows() as u64,
            score_started,
            score_started.elapsed(),
        );
        // Admission: the ticket (commit order) and the start row are
        // claimed in one critical section, so commit order always equals
        // row order.
        let admission_started = Instant::now();
        let (ticket, start_row) = {
            let mut g = self.gate.lock().unwrap_or_else(|p| p.into_inner());
            let ticket = g.next_ticket;
            g.next_ticket += 1;
            let start_row = g.admitted_rows;
            g.admitted_rows += scored.rows() as u64;
            (ticket, start_row)
        };
        cc_trace::record(
            cc_trace::Phase::AdmissionWait,
            trace_id,
            &self.name,
            ticket,
            admission_started,
            admission_started.elapsed(),
        );
        // Phase two — still lock-free; slow sealers only delay tickets
        // behind them, never the scoring of other batches.
        let seal_started = Instant::now();
        let rows = scored.rows() as u64;
        let delta = scorer.seal(scored, start_row);
        cc_trace::record(
            cc_trace::Phase::Seal,
            trace_id,
            &self.name,
            rows,
            seal_started,
            seal_started.elapsed(),
        );
        let turn_started = Instant::now();
        {
            let mut g = self.gate.lock().unwrap_or_else(|p| p.into_inner());
            while g.next_commit != ticket {
                g = self.turn.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        }
        cc_trace::record(
            cc_trace::Phase::TurnWait,
            trace_id,
            &self.name,
            ticket,
            turn_started,
            turn_started.elapsed(),
        );
        let _turn = CommitTurn { gate: &self.gate, turn: &self.turn };
        let commit_started = Instant::now();
        let mut m = lock_monitor(&self.monitor);
        // Generation and position are pinned by the pipeline read lock +
        // admission order, so this cannot fail; if it somehow does, the
        // turn guard still releases the commit sequence.
        let report = m.commit(&delta)?;
        let status = Arc::new(m.status());
        drop(m);
        *self.status.write().unwrap_or_else(|p| p.into_inner()) = status.clone();
        cc_trace::record(
            cc_trace::Phase::Commit,
            trace_id,
            &self.name,
            report.windows.len() as u64,
            commit_started,
            commit_started.elapsed(),
        );
        for window in &report.windows {
            cc_trace::event(cc_trace::Phase::WindowClose, trace_id, &self.name, window.index);
        }
        Ok((report, status))
    }

    /// The published status of the last committed batch — never blocks
    /// on the monitor lock, and consecutive reads observe commits in
    /// admission order.
    pub fn status(&self) -> Arc<MonitorStatus> {
        self.status.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The published scoring handle for the current generation.
    pub fn scorer(&self) -> Arc<IngestScorer> {
        self.scorer.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Exclusive access to the monitor — the adopt/discard-proposal and
    /// reconfiguration surface. Drains every in-flight ingest first
    /// (pipeline write lock), then republishes the scorer and status and
    /// re-anchors admission at the monitor's (possibly reset) stream
    /// position, so the closure may swap generations freely.
    pub fn with_monitor<R>(&self, f: impl FnOnce(&mut OnlineMonitor) -> R) -> R {
        let _pipeline = self.pipeline.write().unwrap_or_else(|p| p.into_inner());
        let mut m = lock_monitor(&self.monitor);
        let out = f(&mut m);
        let scorer = Arc::new(m.scorer());
        let status = Arc::new(m.status());
        let position = m.stream_position();
        drop(m);
        *self.scorer.write().unwrap_or_else(|p| p.into_inner()) = scorer;
        *self.status.write().unwrap_or_else(|p| p.into_inner()) = status;
        self.gate.lock().unwrap_or_else(|p| p.into_inner()).admitted_rows = position;
        out
    }

    /// Locks the monitor directly (brief read-only uses, e.g. snapshot
    /// collection). Commits hold this same mutex, so a guard taken here
    /// always observes a batch boundary.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, OnlineMonitor> {
        lock_monitor(&self.monitor)
    }
}

/// A shared, named set of monitors.
#[derive(Debug, Default)]
pub struct MonitorSet {
    inner: RwLock<BTreeMap<String, Arc<MonitorEntry>>>,
}

impl MonitorSet {
    /// An empty set.
    pub fn new() -> Self {
        MonitorSet::default()
    }

    /// Looks a monitor entry up by name.
    pub fn get(&self, name: &str) -> Option<Arc<MonitorEntry>> {
        self.read().get(name).cloned()
    }

    /// Returns the named entry, creating it with `init` when absent. The
    /// boolean reports whether this call created it. `init` — profile
    /// compilation included — runs **outside** every registry lock;
    /// the result is inserted under the write lock with a re-check, and
    /// a racing loser discards its build and adopts the winner's (the
    /// single-`created`-winner semantics callers rely on). `init`'s
    /// error leaves the set unchanged.
    ///
    /// # Errors
    /// Propagates `init`'s error when the monitor has to be created.
    pub fn get_or_create(
        &self,
        name: &str,
        init: impl FnOnce() -> Result<OnlineMonitor, MonitorError>,
    ) -> Result<(Arc<MonitorEntry>, bool), MonitorError> {
        if let Some(existing) = self.get(name) {
            return Ok((existing, false));
        }
        let built = MonitorEntry::named(name, init()?);
        let mut map = self.write();
        // Re-check under the write lock (another creator may have won
        // while we were compiling).
        if let Some(existing) = map.get(name) {
            return Ok((existing.clone(), false));
        }
        map.insert(name.to_owned(), built.clone());
        Ok((built, true))
    }

    /// Inserts (or replaces) a monitor under `name` — the state-restore
    /// path; live creation goes through [`Self::get_or_create`].
    pub fn insert(&self, name: &str, monitor: OnlineMonitor) {
        let entry = MonitorEntry::named(name, monitor);
        self.write().insert(name.to_owned(), entry);
    }

    /// Removes a monitor; reports whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.write().remove(name).is_some()
    }

    /// `(name, state)` images of every monitor, sorted by name — the
    /// snapshot-collection path (see `cc_state`). Each monitor is locked
    /// briefly; the mutex is only ever held across whole commits, so
    /// every image lands on a batch boundary.
    pub fn states(&self) -> Vec<(String, crate::snapshot::MonitorState)> {
        let entries: Vec<(String, Arc<MonitorEntry>)> =
            self.read().iter().map(|(n, e)| (n.clone(), e.clone())).collect();
        entries.into_iter().map(|(n, e)| (n, e.lock().state())).collect()
    }

    /// Monitor names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// `(name, status)` snapshots of every monitor, sorted by name —
    /// served from each entry's published status, so this never waits on
    /// an in-flight ingest.
    pub fn statuses(&self) -> Vec<(String, Arc<MonitorStatus>)> {
        self.read().iter().map(|(n, e)| (n.clone(), e.status())).collect()
    }

    /// Number of registered monitors.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<MonitorEntry>>> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<MonitorEntry>>> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorConfig;
    use cc_frame::DataFrame;
    use conformance::{synthesize, SynthOptions};

    fn monitor() -> Result<OnlineMonitor, MonitorError> {
        let mut df = DataFrame::new();
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        df.push_numeric("x", xs).unwrap();
        df.push_numeric("y", ys).unwrap();
        let profile = synthesize(&df, &SynthOptions::default()).unwrap();
        OnlineMonitor::new(profile, MonitorConfig::default())
    }

    #[test]
    fn create_lookup_remove() {
        let set = MonitorSet::new();
        assert!(set.is_empty());
        assert!(set.get("a").is_none());
        let (_, created) = set.get_or_create("a", monitor).unwrap();
        assert!(created);
        let (_, created_again) = set.get_or_create("a", || panic!("must not re-create")).unwrap();
        assert!(!created_again);
        assert_eq!(set.names(), vec!["a".to_owned()]);
        assert_eq!(set.len(), 1);
        let statuses = set.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].0, "a");
        assert_eq!(statuses[0].1.rows_ingested, 0);
        assert!(set.remove("a"));
        assert!(!set.remove("a"));
        assert!(set.is_empty());
    }

    #[test]
    fn name_grammar_accepts_and_rejects() {
        for good in ["a", "flights", "a.b-c_d", "A9", &"x".repeat(128), "x__y", "_x"] {
            assert!(validate_monitor_name(good).is_ok(), "{good:?} should be valid");
        }
        for bad in
            ["", "a b", "a/b", "name!", "héllo", &"x".repeat(129), "__self", "__anything", "__"]
        {
            assert!(validate_monitor_name(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(validate_monitor_name("__self").unwrap_err().contains("reserved"));
    }

    #[test]
    fn reserved_names_still_insertable_internally() {
        let set = MonitorSet::new();
        set.insert("__self", monitor().unwrap());
        assert!(set.get("__self").is_some());
        assert_eq!(set.names(), vec!["__self".to_owned()]);
    }

    #[test]
    fn failed_init_leaves_the_set_unchanged() {
        let set = MonitorSet::new();
        let err = set.get_or_create("bad", || Err(MonitorError::Config("nope".into())));
        assert!(err.is_err());
        assert!(set.is_empty());
    }

    #[test]
    fn concurrent_create_yields_one_monitor() {
        let set = Arc::new(MonitorSet::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let set = set.clone();
                scope.spawn(move || {
                    set.get_or_create("shared", monitor).unwrap();
                });
            }
        });
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn init_runs_outside_the_registry_locks() {
        // Regression guard for the old behaviour, where `init` ran under
        // the map's write lock: a closure touching the set (as a slow
        // compile sharing the registry would let other requests do)
        // deadlocked. It must be free to read the registry.
        let set = MonitorSet::new();
        set.get_or_create("other", monitor).unwrap();
        let (_, created) = set
            .get_or_create("a", || {
                assert_eq!(set.len(), 1, "registry must stay readable during init");
                assert!(set.get("other").is_some());
                monitor()
            })
            .unwrap();
        assert!(created);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn status_reads_do_not_block_on_the_monitor_lock() {
        let set = MonitorSet::new();
        let (entry, _) = set.get_or_create("m", monitor).unwrap();
        let before = entry.status();
        // Hold the monitor mutex on another thread; published-status
        // reads must still return immediately.
        let guard_entry = entry.clone();
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let _guard = guard_entry.lock();
                tx.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(100));
            });
            rx.recv().unwrap();
            let during = entry.status();
            assert_eq!(during.rows_ingested, before.rows_ingested);
            let all = set.statuses();
            assert_eq!(all.len(), 1);
        });
    }

    #[test]
    fn with_monitor_republishes_scorer_and_status() {
        let (entry, _) = {
            let set = MonitorSet::new();
            set.get_or_create("m", monitor).unwrap()
        };
        let gen_before = entry.scorer().generation();
        let mut df = DataFrame::new();
        let xs: Vec<f64> = (0..512).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        df.push_numeric("x", xs).unwrap();
        df.push_numeric("y", ys).unwrap();
        let (report, status) = entry.ingest(&df, 1).unwrap();
        assert_eq!(report.rows, 512);
        assert_eq!(report.start_row, 0);
        assert_eq!(status.rows_ingested, 512);
        assert_eq!(entry.status().rows_ingested, 512);
        // Exclusive access that rewinds the stream: admission re-anchors.
        entry.with_monitor(|m| {
            assert_eq!(m.stream_position(), 512);
        });
        assert_eq!(entry.scorer().generation(), gen_before);
        let (report, _) = entry.ingest(&df, 2).unwrap();
        assert_eq!(report.start_row, 512);
    }
}
