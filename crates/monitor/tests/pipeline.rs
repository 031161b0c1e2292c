//! Bit-identity pins for the two-phase ingest pipeline.
//!
//! 1. `OnlineMonitor::ingest` (score → seal → commit) ≡ the serial
//!    row-by-row reference path `ingest_rowwise`, per chunk report and
//!    final state, across window/stride combos, chunkings (including
//!    n ∈ {0, 1, B−1, B, B+1}), score-thread counts, and regime shifts
//!    (so detector state, alarms, and resynthesis proposals are all
//!    exercised, not just window statistics).
//! 2. Concurrent sharded ingest through `MonitorEntry` — many threads
//!    racing batches into one monitor — ≡ serialized ingest of the same
//!    batches in admission order: every per-batch report and the entire
//!    final monitor state (window stats, drift series, detector state,
//!    alarms, counters) compare bit-identically via their lossless JSON
//!    serialization, and `rows_ingested` reconciles exactly.

use cc_frame::DataFrame;
use cc_monitor::{MonitorConfig, MonitorEntry, OnlineMonitor, WindowSpec};
use conformance::{synthesize, ConformanceProfile, SynthOptions};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Rows `[start, start+n)` of the deterministic global stream: a noisy
/// linear invariant, with `y` knocked off the invariant from global row
/// `shift_from` on (the regime change that makes detectors fire).
fn stream_frame(start: usize, n: usize, shift_from: usize) -> DataFrame {
    let xs: Vec<f64> = (start..start + n).map(|i| (i as f64 * 0.37).sin() * 3.0 + 5.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, x)| {
            let i = start + k;
            let wobble = ((i * 31) % 13) as f64 * 0.01;
            let shift = if i >= shift_from { 40.0 } else { 0.0 };
            2.0 * x + 1.0 + wobble + shift
        })
        .collect();
    let mut df = DataFrame::new();
    df.push_numeric("x", xs).unwrap();
    df.push_numeric("y", ys).unwrap();
    df
}

/// One profile for every case — synthesis is the expensive part, and the
/// pipeline contract is independent of which profile scores the rows.
fn profile() -> &'static ConformanceProfile {
    static PROFILE: OnceLock<ConformanceProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        synthesize(&stream_frame(0, 400, usize::MAX), &SynthOptions::default()).unwrap()
    })
}

fn cfg(window: usize, stride: usize) -> MonitorConfig {
    MonitorConfig {
        spec: WindowSpec::new(window, stride).expect("valid geometry by construction"),
        calibration_windows: 2,
        patience: 1,
        ..Default::default()
    }
}

fn monitor(window: usize, stride: usize) -> OnlineMonitor {
    OnlineMonitor::new(profile().clone(), cfg(window, stride)).expect("valid config")
}

/// Lossless image of the full monitor state: the manual serde encodes
/// every `f64` (window stats with Kahan terms, drift history, detector
/// state) via shortest-round-trip or hex-bit formatting, so string
/// equality ⇔ bit-identity of everything the monitor is.
fn state_image(m: &OnlineMonitor) -> String {
    serde_json::to_string(&m.state()).expect("state serializes")
}

/// Splits `[0, total)` into chunks of the given lengths (the tail past
/// their sum is dropped), returning `(start, len)` pairs.
fn chunk_spans(total: usize, lens: &[usize]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 0;
    for &len in lens {
        let hi = (at + len).min(total);
        spans.push((at, hi - at));
        at = hi;
    }
    spans
}

/// The serialized oracle: a fresh monitor fed the same chunks row by row
/// (`ingest_rowwise`) in the given order. Returns per-chunk report
/// images and the final state image.
fn replay_rowwise(
    window: usize,
    stride: usize,
    spans: &[(usize, usize)],
    shift_from: usize,
) -> (Vec<String>, String) {
    let mut oracle = monitor(window, stride);
    let reports = spans
        .iter()
        .map(|&(start, len)| {
            let report = oracle.ingest_rowwise(&stream_frame(start, len, shift_from)).unwrap();
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect();
    (reports, state_image(&oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-caller pipeline ≡ row-by-row reference, chunk by chunk,
    /// for every geometry/chunking/thread-count/shift combination.
    #[test]
    fn pipeline_ingest_matches_rowwise_bitwise(
        (stride, overlap) in (1usize..=4, 1usize..=3),
        lens in proptest::collection::vec(0usize..=26, 1..=6),
        threads in 1usize..=4,
        shift_den in 1usize..=4,
    ) {
        let window = stride * overlap;
        let total: usize = lens.iter().sum();
        let shift_from = total / shift_den; // shifts start mid-stream
        let spans = chunk_spans(total, &lens);
        let (want_reports, want_state) = replay_rowwise(window, stride, &spans, shift_from);
        let mut piped = monitor(window, stride);
        for (&(start, len), want) in spans.iter().zip(&want_reports) {
            let report = piped
                .ingest_with_threads(&stream_frame(start, len, shift_from), threads)
                .unwrap();
            let got = serde_json::to_string(&report).expect("report serializes");
            prop_assert_eq!(&got, want);
        }
        prop_assert_eq!(state_image(&piped), want_state);
    }

    /// Concurrent sharded ingest ≡ serialized ingest in admission order,
    /// bit for bit, with exact rows reconciliation.
    #[test]
    fn concurrent_ingest_matches_serialized_bitwise(
        (stride, overlap) in (1usize..=4, 1usize..=3),
        lens in proptest::collection::vec(0usize..=26, 1..=8),
        workers in 2usize..=4,
        shift_den in 1usize..=4,
    ) {
        let window = stride * overlap;
        let total: usize = lens.iter().sum();
        let shift_from = total / shift_den;
        let spans = chunk_spans(total, &lens);
        let entry = MonitorEntry::new(monitor(window, stride));
        // Workers race pre-cut chunks into the entry in arbitrary
        // interleavings; each record keeps the admitted start row.
        let queue: Mutex<VecDeque<(usize, usize)>> = Mutex::new(spans.iter().copied().collect());
        let results: Mutex<Vec<(u64, usize, usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let chunk = queue.lock().unwrap().pop_front();
                    let Some((start, len)) = chunk else { break };
                    let (report, _) =
                        entry.ingest(&stream_frame(start, len, shift_from), 1).unwrap();
                    let image = serde_json::to_string(&report).expect("report serializes");
                    results.lock().unwrap().push((report.start_row, start, len, image));
                });
            }
        });
        let mut by_admission = results.into_inner().unwrap();
        // An empty batch admitted at row r reports r, and so does the
        // batch admitted right after it: among equal start rows the empty
        // batches came first.
        by_admission.sort_by_key(|&(start_row, _, len, _)| (start_row, len > 0));
        // Admitted spans tile the stream: start rows are the running sum
        // of admitted lengths, and the lifetime counter reconciles.
        let mut expect_row = 0u64;
        for &(start_row, _, len, _) in &by_admission {
            prop_assert_eq!(start_row, expect_row);
            expect_row += len as u64;
        }
        prop_assert_eq!(expect_row, total as u64);
        prop_assert_eq!(entry.status().rows_ingested, total as u64);
        // Serialized oracle: the very same chunk frames, ingested row by
        // row in the order the entry admitted them.
        let admitted: Vec<(usize, usize)> =
            by_admission.iter().map(|&(_, start, len, _)| (start, len)).collect();
        let (want_reports, want_state) = replay_rowwise(window, stride, &admitted, shift_from);
        for ((_, _, _, got), want) in by_admission.iter().zip(&want_reports) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(state_image(&entry.lock()), want_state);
    }
}

/// The pinned edge chunk sizes from the issue — n ∈ {0, 1, B−1, B, B+1}
/// for a window of B rows — driven concurrently through a `MonitorEntry`
/// and compared to the serialized oracle.
#[test]
fn edge_chunk_sizes_commit_identically_under_concurrency() {
    for (window, stride) in [(4, 4), (4, 2), (4, 1), (1, 1), (8, 4)] {
        let lens = [0, 1, window - 1, window, window + 1, 3 * window, 0, 1];
        let total: usize = lens.iter().sum();
        let shift_from = total / 2;
        let spans = chunk_spans(total, &lens);
        let entry = MonitorEntry::new(monitor(window, stride));
        let queue: Mutex<VecDeque<(usize, usize)>> = Mutex::new(spans.iter().copied().collect());
        let results: Mutex<Vec<(u64, usize, usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let chunk = queue.lock().unwrap().pop_front();
                    let Some((start, len)) = chunk else { break };
                    let (report, _) =
                        entry.ingest(&stream_frame(start, len, shift_from), 2).unwrap();
                    let image = serde_json::to_string(&report).expect("report serializes");
                    results.lock().unwrap().push((report.start_row, start, len, image));
                });
            }
        });
        let mut by_admission = results.into_inner().unwrap();
        by_admission.sort_by_key(|&(start_row, _, len, _)| (start_row, len > 0));
        assert_eq!(entry.status().rows_ingested, total as u64, "({window},{stride})");
        let admitted: Vec<(usize, usize)> =
            by_admission.iter().map(|&(_, start, len, _)| (start, len)).collect();
        let (want_reports, want_state) = replay_rowwise(window, stride, &admitted, shift_from);
        for ((_, _, _, got), want) in by_admission.iter().zip(&want_reports) {
            assert_eq!(got, want, "({window},{stride}) report diverged");
        }
        assert_eq!(state_image(&entry.lock()), want_state, "({window},{stride}) state diverged");
    }
}

/// A failing batch must not claim a row span: the next good batch lands
/// at the position the failed one would have taken.
#[test]
fn rejected_batches_leave_no_admission_gap() {
    let entry = MonitorEntry::new(monitor(4, 4));
    let (report, _) = entry.ingest(&stream_frame(0, 6, usize::MAX), 1).unwrap();
    assert_eq!(report.start_row, 0);
    let mut bad = DataFrame::new();
    bad.push_numeric("x", vec![1.0, 2.0]).unwrap(); // missing y
    assert!(entry.ingest(&bad, 1).is_err());
    let (report, status) = entry.ingest(&stream_frame(6, 6, usize::MAX), 1).unwrap();
    assert_eq!(report.start_row, 6, "failed batch must not advance admission");
    assert_eq!(status.rows_ingested, 12);
}
