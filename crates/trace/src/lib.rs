//! `cc_trace` — a dependency-free flight recorder for the ccsynth stack.
//!
//! Spans and events are written into **lock-free per-thread ring buffers**:
//! fixed capacity, overwrite-oldest, monotonic clocks, and never an
//! allocation or a mutex on the recording path. Each slot is a per-slot
//! seqlock built from plain `AtomicU64` words (odd sequence = write in
//! progress), so a drain can run concurrently with recording and simply
//! discards any slot it catches mid-write — no reader can ever block a
//! writer, and a writer never waits for anything.
//!
//! Alongside the rings, the recorder keeps **cumulative per-phase
//! aggregates** (count / sum / log-bucketed histogram, all atomics): the
//! rings answer "what happened recently, in detail" while the aggregates
//! answer "how do phases distribute over the process lifetime" — these are
//! deterministic and mergeable, which is what a fleet coordinator needs.
//!
//! The recorder is process-global: capacity is set once via
//! [`set_buffer`]. The aggregates count every [`record`] call whatever
//! the capacity, so they are the process's one latency store; only the
//! rings are optional. `0` turns the rings off, and a span with trace id
//! `0` never enters a ring either, which is how a caller that is not
//! traced (e.g. one server instance of two) still feeds the aggregates.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime};

/// Default per-thread ring capacity (spans per thread).
pub const DEFAULT_BUFFER: usize = 4096;

/// Bytes of tag text stored inline in a span (longer tags are truncated).
pub const TAG_CAP: usize = 24;

/// Histogram bucket upper edges in microseconds; the final implicit
/// bucket is +Inf. Decade edges from 10µs to 10s.
pub const BUCKET_EDGES_US: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

const BUCKETS: usize = BUCKET_EDGES_US.len() + 1;

/// The fixed phase taxonomy. Spans carry a phase rather than a free-form
/// name so slots stay POD (a torn read can never fabricate a pointer) and
/// aggregates stay a fixed-size array of atomics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    // Server request lifecycle.
    Parse,
    QueueWait,
    Handle,
    Write,
    // Ingest pipeline (two-phase commit inside `MonitorEntry::ingest`).
    Score,
    AdmissionWait,
    /// `IngestScorer::seal`: precomputing the windows a batch fully
    /// covers, after admission and before the commit turn.
    Seal,
    TurnWait,
    Commit,
    /// Event: a monitor window closed (tag = monitor, extra = window index).
    WindowClose,
    // `cc_state` snapshot writes.
    Serialize,
    Fsync,
    Rename,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 13] = [
        Phase::Parse,
        Phase::QueueWait,
        Phase::Handle,
        Phase::Write,
        Phase::Score,
        Phase::AdmissionWait,
        Phase::Seal,
        Phase::TurnWait,
        Phase::Commit,
        Phase::WindowClose,
        Phase::Serialize,
        Phase::Fsync,
        Phase::Rename,
    ];

    /// The four server request-lifecycle phases, in pipeline order.
    pub const SERVER: [Phase; 4] = [Phase::Parse, Phase::QueueWait, Phase::Handle, Phase::Write];

    /// The five ingest-pipeline phases, in pipeline order.
    pub const MONITOR: [Phase; 5] =
        [Phase::Score, Phase::AdmissionWait, Phase::Seal, Phase::TurnWait, Phase::Commit];

    /// Stable lowercase label (used in `/v2/trace` and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::QueueWait => "queue_wait",
            Phase::Handle => "handle",
            Phase::Write => "write",
            Phase::Score => "score",
            Phase::AdmissionWait => "admission_wait",
            Phase::Seal => "seal",
            Phase::TurnWait => "turn_wait",
            Phase::Commit => "commit",
            Phase::WindowClose => "window_close",
            Phase::Serialize => "serialize",
            Phase::Fsync => "fsync",
            Phase::Rename => "rename",
        }
    }

    fn from_raw(raw: u64) -> Option<Phase> {
        Phase::ALL.get(raw as usize).copied()
    }
}

/// A drained span, decoded from ring slots into owned data.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub phase: Phase,
    pub trace_id: u64,
    pub tag: String,
    pub extra: u64,
    /// Microseconds since the process trace epoch (monotonic).
    pub start_us: u64,
    pub dur_us: u64,
}

/// Cumulative per-phase aggregate: mergeable, never reset.
#[derive(Clone, Debug)]
pub struct PhaseTotal {
    pub phase: Phase,
    pub count: u64,
    pub sum_us: u64,
    pub buckets: [u64; BUCKETS],
}

impl PhaseTotal {
    /// A zeroed total for `phase`.
    pub fn empty(phase: Phase) -> PhaseTotal {
        PhaseTotal { phase, count: 0, sum_us: 0, buckets: [0; BUCKETS] }
    }

    /// Mean span duration in microseconds (`0.0` when no spans recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// What accumulated between `earlier` and `self` — the interval
    /// aggregate a periodic sampler needs from two cumulative snapshots.
    /// Saturating, so a cell observed mid-update (count and sum are
    /// independent atomics) can never produce wrapped garbage.
    ///
    /// # Panics
    /// If the two totals describe different phases.
    pub fn delta_since(&self, earlier: &PhaseTotal) -> PhaseTotal {
        assert_eq!(self.phase, earlier.phase, "delta_since across different phases");
        let mut buckets = [0u64; BUCKETS];
        for (b, (now, then)) in buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets)) {
            *b = now.saturating_sub(*then);
        }
        PhaseTotal {
            phase: self.phase,
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            buckets,
        }
    }
}

/// Pairwise [`PhaseTotal::delta_since`] over two [`phase_totals`]-shaped
/// snapshots (matched by phase; phases absent from `earlier` pass through
/// unchanged).
pub fn phase_deltas(now: &[PhaseTotal], earlier: &[PhaseTotal]) -> Vec<PhaseTotal> {
    now.iter()
        .map(|t| match earlier.iter().find(|e| e.phase == t.phase) {
            Some(e) => t.delta_since(e),
            None => t.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ring storage: per-slot seqlock over plain atomic words.
// ---------------------------------------------------------------------------

/// One span packed into eight u64 words:
/// `[trace_id, phase | tag_len << 16, tag0, tag1, tag2, extra, start_us, dur_us]`.
const WORDS: usize = 8;

struct Slot {
    /// Even = stable, odd = write in progress. A reader accepts a slot
    /// only if it observes the same even value before and after copying.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Slot = Slot {
        seq: AtomicU64::new(0),
        words: [
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ],
    };
}

/// A fixed-capacity overwrite-oldest span ring. Writes are wait-free for
/// a single producer (the owning thread); drains from any thread are
/// non-blocking and skip slots caught mid-write.
pub struct SpanRing {
    slots: Vec<Slot>,
    /// Total spans ever pushed; `head % capacity` is the next write slot.
    head: AtomicU64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::EMPTY);
        }
        SpanRing { slots, head: AtomicU64::new(0) }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans ever pushed (not the currently retained count).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one span. Overwrites the oldest slot once full.
    pub fn push(
        &self,
        phase: Phase,
        trace_id: u64,
        tag: &str,
        extra: u64,
        start_us: u64,
        dur_us: u64,
    ) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];

        let tag = tag.as_bytes();
        let tag_len = tag.len().min(TAG_CAP);
        let mut packed = [0u64; 3];
        for (i, &b) in tag[..tag_len].iter().enumerate() {
            packed[i / 8] |= (b as u64) << ((i % 8) * 8);
        }

        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release); // odd seq visible before any data word
        slot.words[0].store(trace_id, Ordering::Relaxed);
        slot.words[1].store(phase as u64 | ((tag_len as u64) << 16), Ordering::Relaxed);
        slot.words[2].store(packed[0], Ordering::Relaxed);
        slot.words[3].store(packed[1], Ordering::Relaxed);
        slot.words[4].store(packed[2], Ordering::Relaxed);
        slot.words[5].store(extra, Ordering::Relaxed);
        slot.words[6].store(start_us, Ordering::Relaxed);
        slot.words[7].store(dur_us, Ordering::Relaxed);
        fence(Ordering::Release); // all data words visible before even seq
        slot.seq.store(seq.wrapping_add(2), Ordering::Relaxed);
        self.head.store(h.wrapping_add(1), Ordering::Release);
    }

    /// Copy out the retained spans, oldest first. Slots overwritten or
    /// mid-write during the scan are skipped, never torn.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i % cap) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or write in progress
            }
            let mut w = [0u64; WORDS];
            for (j, word) in slot.words.iter().enumerate() {
                w[j] = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while copying
            }
            let Some(phase) = Phase::from_raw(w[1] & 0xffff) else {
                continue;
            };
            let tag_len = ((w[1] >> 16) as usize).min(TAG_CAP);
            let mut tag_bytes = [0u8; TAG_CAP];
            for (k, byte) in tag_bytes[..tag_len].iter_mut().enumerate() {
                *byte = ((w[2 + k / 8] >> ((k % 8) * 8)) & 0xff) as u8;
            }
            let tag = String::from_utf8_lossy(&tag_bytes[..tag_len]).into_owned();
            out.push(SpanRecord {
                phase,
                trace_id: w[0],
                tag,
                extra: w[5],
                start_us: w[6],
                dur_us: w[7],
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Global recorder: capacity knob, per-thread ring registry, clock anchor.
// ---------------------------------------------------------------------------

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_BUFFER);
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Weak<SpanRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<SpanRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    /// (config epoch, this thread's ring). Replaced when `set_buffer`
    /// changes the configuration.
    static RING: RefCell<Option<(u64, Arc<SpanRing>)>> = const { RefCell::new(None) };
}

/// Set the per-thread ring capacity. `0` turns the span rings off; the
/// per-phase aggregates keep counting. Existing rings are retired
/// lazily (each thread swaps to a new ring on its next recorded span).
pub fn set_buffer(capacity: usize) {
    let prev = CAPACITY.swap(capacity, Ordering::Relaxed);
    if prev != capacity {
        EPOCH.fetch_add(1, Ordering::Relaxed);
    }
}

/// Current per-thread ring capacity (`0` = rings off).
pub fn buffer_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Whether spans are kept in the rings (the aggregates always count).
pub fn enabled() -> bool {
    buffer_capacity() > 0
}

/// Microseconds since the process trace epoch for an [`Instant`].
pub fn instant_us(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_micros() as u64
}

/// Microseconds since the process trace epoch, now.
pub fn now_us() -> u64 {
    instant_us(Instant::now())
}

fn with_ring(f: impl FnOnce(&SpanRing)) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let stale = match slot.as_ref() {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let ring = Arc::new(SpanRing::new(CAPACITY.load(Ordering::Relaxed)));
            let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
            reg.retain(|w| w.strong_count() > 0);
            reg.push(Arc::downgrade(&ring));
            *slot = Some((epoch, ring));
        }
        if let Some((_, ring)) = slot.as_ref() {
            f(ring);
        }
    });
}

/// Record a span with an explicit start instant and duration.
///
/// Always adds to `phase`'s aggregate. The span also enters this
/// thread's ring when the rings are [`enabled`] and `trace_id` is not
/// `0` (ids from [`gen_id`] and [`parse_id`] never are).
pub fn record(phase: Phase, trace_id: u64, tag: &str, extra: u64, start: Instant, dur: Duration) {
    let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
    tally(phase, dur_us);
    if trace_id == 0 || !enabled() {
        return;
    }
    let start_us = instant_us(start);
    with_ring(|ring| ring.push(phase, trace_id, tag, extra, start_us, dur_us));
}

/// Record an instantaneous event (duration zero, timestamped now).
pub fn event(phase: Phase, trace_id: u64, tag: &str, extra: u64) {
    record(phase, trace_id, tag, extra, Instant::now(), Duration::ZERO);
}

/// Drain every live thread ring into one bounded view: at most `limit`
/// spans, globally ordered by start time, most recent retained.
pub fn snapshot(limit: usize) -> Vec<SpanRecord> {
    let rings: Vec<Arc<SpanRing>> = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    let mut out = Vec::new();
    for ring in rings {
        out.extend(ring.drain());
    }
    out.sort_by_key(|s| (s.start_us, s.trace_id));
    if out.len() > limit {
        out.drain(..out.len() - limit);
    }
    out
}

// ---------------------------------------------------------------------------
// Cumulative per-phase aggregates.
// ---------------------------------------------------------------------------

struct PhaseCell {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl PhaseCell {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: PhaseCell = PhaseCell {
        count: AtomicU64::new(0),
        sum_us: AtomicU64::new(0),
        buckets: [
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ],
    };
}

static CELLS: [PhaseCell; Phase::ALL.len()] = [PhaseCell::EMPTY; Phase::ALL.len()];

fn tally(phase: Phase, dur_us: u64) {
    let cell = &CELLS[phase as usize];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.sum_us.fetch_add(dur_us, Ordering::Relaxed);
    let mut bucket = BUCKET_EDGES_US.len();
    for (i, &edge) in BUCKET_EDGES_US.iter().enumerate() {
        if dur_us <= edge {
            bucket = i;
            break;
        }
    }
    cell.buckets[bucket].fetch_add(1, Ordering::Relaxed);
}

/// Read the cumulative aggregate for one phase.
pub fn phase_total(phase: Phase) -> PhaseTotal {
    let cell = &CELLS[phase as usize];
    let mut buckets = [0u64; BUCKETS];
    for (i, b) in cell.buckets.iter().enumerate() {
        buckets[i] = b.load(Ordering::Relaxed);
    }
    PhaseTotal {
        phase,
        count: cell.count.load(Ordering::Relaxed),
        sum_us: cell.sum_us.load(Ordering::Relaxed),
        buckets,
    }
}

/// Read the cumulative aggregates for every phase, in [`Phase::ALL`] order.
pub fn phase_totals() -> Vec<PhaseTotal> {
    Phase::ALL.iter().map(|&p| phase_total(p)).collect()
}

// ---------------------------------------------------------------------------
// Trace ids.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Generate a fresh nonzero trace id (wall-clock nanos mixed with a
/// process-wide counter through FNV-1a; unique enough for correlation,
/// no randomness dependency).
pub fn gen_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&t.to_le_bytes());
    bytes[8..].copy_from_slice(&c.to_le_bytes());
    let h = fnv1a(&bytes);
    if h == 0 {
        1
    } else {
        h
    }
}

/// Parse a client-supplied trace id. Hex strings of 1–16 digits map to
/// their u64 value (so generated ids round-trip exactly); anything else
/// is FNV-hashed so arbitrary tokens still correlate consistently.
pub fn parse_id(s: &str) -> u64 {
    let trimmed = s.trim();
    if !trimmed.is_empty() && trimmed.len() <= 16 {
        if let Ok(v) = u64::from_str_radix(trimmed, 16) {
            if v != 0 {
                return v;
            }
        }
    }
    let h = fnv1a(trimmed.as_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

/// Canonical wire form of a trace id (16 lowercase hex digits).
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_last_capacity_spans_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..20u64 {
            ring.push(Phase::Handle, 7, "t", i, i * 10, 1);
        }
        let got = ring.drain();
        assert_eq!(got.len(), 8);
        let extras: Vec<u64> = got.iter().map(|s| s.extra).collect();
        assert_eq!(extras, (12..20).collect::<Vec<u64>>());
        assert!(got.iter().all(|s| s.phase == Phase::Handle && s.trace_id == 7));
    }

    #[test]
    fn tags_truncate_and_round_trip() {
        let ring = SpanRing::new(4);
        ring.push(Phase::Score, 1, "monitor-name", 0, 5, 2);
        ring.push(Phase::Commit, 2, &"x".repeat(60), 0, 6, 3);
        let got = ring.drain();
        assert_eq!(got[0].tag, "monitor-name");
        assert_eq!(got[1].tag, "x".repeat(TAG_CAP));
    }

    #[test]
    fn empty_and_partial_rings_skip_untouched_slots() {
        let ring = SpanRing::new(16);
        assert!(ring.drain().is_empty());
        ring.push(Phase::Fsync, 3, "state", 0, 1, 4);
        let got = ring.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].phase, Phase::Fsync);
    }

    #[test]
    fn phase_totals_accumulate_with_buckets() {
        let before = phase_total(Phase::Rename);
        tally(Phase::Rename, 5);
        tally(Phase::Rename, 50_000);
        let after = phase_total(Phase::Rename);
        assert_eq!(after.count, before.count + 2);
        assert_eq!(after.sum_us, before.sum_us + 50_005);
        assert_eq!(after.buckets[0], before.buckets[0] + 1);
        assert_eq!(after.buckets[4], before.buckets[4] + 1);
    }

    #[test]
    fn delta_since_isolates_the_interval() {
        let before = phase_total(Phase::Fsync);
        tally(Phase::Fsync, 7);
        tally(Phase::Fsync, 200);
        let after = phase_total(Phase::Fsync);
        let delta = after.delta_since(&before);
        assert_eq!(delta.phase, Phase::Fsync);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_us, 207);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        assert!((delta.mean_us() - 103.5).abs() < 1e-9);
        // Same snapshot twice: empty interval, mean well-defined.
        let zero = after.delta_since(&after);
        assert_eq!(zero.count, 0);
        assert_eq!(zero.mean_us(), 0.0);
    }

    #[test]
    fn phase_deltas_match_by_phase() {
        let e1 = PhaseTotal::empty(Phase::Parse);
        let mut now = vec![PhaseTotal::empty(Phase::Parse), PhaseTotal::empty(Phase::Handle)];
        now[0].count = 5;
        now[0].sum_us = 50;
        now[1].count = 3;
        let mut earlier = vec![e1];
        earlier[0].count = 2;
        earlier[0].sum_us = 30;
        let d = phase_deltas(&now, &earlier);
        assert_eq!(d[0].count, 3);
        assert_eq!(d[0].sum_us, 20);
        // Handle had no earlier entry: passes through.
        assert_eq!(d[1].count, 3);
    }

    #[test]
    fn untraced_and_ringless_records_still_tally() {
        // No other test records `Serialize`, so its cell and spans move
        // only here.
        let serialize_spans =
            || snapshot(usize::MAX).iter().filter(|s| s.phase == Phase::Serialize).count();
        let before = phase_total(Phase::Serialize);
        let at = Instant::now();
        record(Phase::Serialize, 0, "untraced", 0, at, Duration::from_micros(40));
        assert_eq!(phase_total(Phase::Serialize).count, before.count + 1);
        assert_eq!(serialize_spans(), 0, "trace id 0 must not enter a ring");
        set_buffer(0);
        record(Phase::Serialize, 9, "ringless", 0, at, Duration::from_micros(60));
        set_buffer(DEFAULT_BUFFER);
        let after = phase_total(Phase::Serialize);
        assert_eq!(after.count, before.count + 2);
        assert_eq!(after.sum_us, before.sum_us + 100);
        assert_eq!(serialize_spans(), 0, "capacity 0 must not fill a ring");
        // Control: a traced record with rings on is kept.
        record(Phase::Serialize, 9, "traced", 0, at, Duration::from_micros(1));
        assert_eq!(phase_total(Phase::Serialize).count, before.count + 3);
        assert_eq!(serialize_spans(), 1);
    }

    #[test]
    fn trace_ids_round_trip_and_hash() {
        let id = gen_id();
        assert_ne!(id, 0);
        assert_ne!(id, gen_id());
        assert_eq!(parse_id(&id_hex(id)), id);
        assert_eq!(parse_id("deadbeef"), 0xdead_beef);
        let h = parse_id("not hex at all");
        assert_ne!(h, 0);
        assert_eq!(h, parse_id("not hex at all"));
    }

    #[test]
    fn concurrent_drain_never_tears() {
        use std::sync::atomic::AtomicBool;
        let ring = Arc::new(SpanRing::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // extra mirrors start_us so a torn slot is detectable.
                    ring.push(Phase::Write, i, "loop", i, i, i);
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            for s in ring.drain() {
                assert_eq!(s.extra, s.start_us);
                assert_eq!(s.extra, s.dur_us);
                assert_eq!(s.extra, s.trace_id);
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
