//! The headline durability invariant, proptest-pinned like every prior
//! subsystem: **snapshot → serialize → deserialize → restore → continue
//! ingesting is bit-identical to the uninterrupted run** — window
//! statistics, drift series, detector decisions, alarm state, and
//! resynthesis proposals all included.
//!
//! The strongest form of the check is total: after the stream ends, the
//! *entire* serialized state of the resumed monitor must equal the
//! uninterrupted monitor's byte for byte. Any divergence anywhere — a
//! Kahan compensation term, a CUSUM accumulator, a proposal's profile
//! bounds — shows up as a JSON diff.

use cc_frame::DataFrame;
use cc_monitor::{DetectorKind, MonitorConfig, MonitorState, OnlineMonitor, WindowSpec};
use cc_state::{MonitorEntry, ServerState};
use conformance::{synthesize, DriftAggregator, SynthOptions};
use proptest::prelude::*;

/// Deterministic two-column stream: `y = slope·x + 1 + noise`, with the
/// slope switching mid-stream so detectors calibrate on the prefix and
/// (often) alarm + propose on the suffix.
fn stream(n: usize, shift_at: usize, shifted_slope: f64) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| (i % 997) as f64 / 10.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let slope = if i < shift_at { 2.0 } else { shifted_slope };
            slope * x + 1.0 + 0.02 * (((i * 31) % 13) as f64 - 6.0)
        })
        .collect();
    (xs, ys)
}

fn frame(xs: &[f64], ys: &[f64]) -> DataFrame {
    let mut df = DataFrame::new();
    df.push_numeric("x", xs.to_vec()).unwrap();
    df.push_numeric("y", ys.to_vec()).unwrap();
    df
}

fn trained_profile() -> conformance::ConformanceProfile {
    let (xs, ys) = stream(300, usize::MAX, 2.0);
    synthesize(&frame(&xs, &ys), &SynthOptions::default()).unwrap()
}

/// Serializes a monitor's complete state image compactly.
fn state_json(monitor: &OnlineMonitor) -> String {
    serde_json::to_string(&monitor.state()).expect("state serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The invariant, across window geometries, detectors, aggregators,
    /// cut points (including mid-window, mid-calibration, and
    /// post-alarm cuts), and shift intensities.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        stride_base in 10usize..=25,
        overlap in 1usize..=2,
        detector_idx in 0usize..3,
        agg_idx in 0usize..2,
        cut in 0usize..=420,
        shift_at in 150usize..=300,
        shifted_slope in 4.0..8.0f64,
    ) {
        let window = stride_base * overlap;
        let n = 420;
        let cut = cut.min(n);
        let detector = [DetectorKind::Ewma, DetectorKind::Cusum, DetectorKind::PageHinkley][detector_idx];
        let cfg = || MonitorConfig {
            spec: WindowSpec::new(window, stride_base).unwrap(),
            detector,
            aggregator: if agg_idx == 1 { DriftAggregator::Max } else { DriftAggregator::Mean },
            calibration_windows: 2,
            patience: 1,
            min_resynth_rows: 8,
            ..MonitorConfig::default()
        };
        let profile = trained_profile();
        let (xs, ys) = stream(n, shift_at, shifted_slope);

        // Uninterrupted run: the whole stream in one ingest.
        let mut uninterrupted = OnlineMonitor::new(profile.clone(), cfg()).unwrap();
        let full_report = uninterrupted.ingest(&frame(&xs, &ys)).unwrap();

        // Interrupted run: prefix → snapshot → JSON → restore → suffix.
        let mut before = OnlineMonitor::new(profile, cfg()).unwrap();
        let mut windows = Vec::new();
        if cut > 0 {
            windows.extend(before.ingest(&frame(&xs[..cut], &ys[..cut])).unwrap().windows);
        }
        let json = state_json(&before);
        let restored_state: MonitorState = serde_json::from_str(&json).unwrap();
        let mut resumed = OnlineMonitor::from_state(restored_state).unwrap();
        // The restore itself must already be a fixed point: snapshotting
        // the restored monitor reproduces the same bytes.
        prop_assert_eq!(&state_json(&resumed), &json);
        if cut < n {
            windows.extend(resumed.ingest(&frame(&xs[cut..], &ys[cut..])).unwrap().windows);
        }

        // Every window close matches bit for bit: index, span, drift,
        // detector statistic/threshold, phase, proposal flag.
        prop_assert_eq!(windows.len(), full_report.windows.len());
        for (a, b) in full_report.windows.iter().zip(&windows) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.start_row, b.start_row);
            prop_assert_eq!(a.rows, b.rows);
            prop_assert_eq!(a.drift.to_bits(), b.drift.to_bits());
            prop_assert_eq!(a.stat.to_bits(), b.stat.to_bits());
            prop_assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            prop_assert_eq!(a.phase, b.phase);
            prop_assert_eq!(a.proposed, b.proposed);
        }

        // Total-state equality: counters, history, ring blocks, detector
        // accumulators, pending proposal — everything.
        prop_assert_eq!(state_json(&uninterrupted), state_json(&resumed));
    }
}

/// A second snapshot cycle mid-alarm (after a proposal is pending) also
/// round-trips: the proposal's candidate profile itself survives
/// bit-exactly and `adopt_proposal` behaves identically after restore.
#[test]
fn pending_proposal_survives_and_adopts_identically() {
    let profile = trained_profile();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(50).unwrap(),
        calibration_windows: 2,
        patience: 1,
        min_resynth_rows: 8,
        ..MonitorConfig::default()
    };
    let mut live = OnlineMonitor::new(profile, cfg).unwrap();
    let (xs, ys) = stream(400, 150, 6.0);
    live.ingest(&frame(&xs, &ys)).unwrap();
    assert!(live.proposal().is_some(), "the shifted suffix must produce a proposal");

    let json = state_json(&live);
    let mut resumed =
        OnlineMonitor::from_state(serde_json::from_str::<MonitorState>(&json).unwrap()).unwrap();
    let live_candidate = serde_json::to_string(&live.proposal().unwrap().profile).unwrap();
    let resumed_candidate = serde_json::to_string(&resumed.proposal().unwrap().profile).unwrap();
    assert_eq!(live_candidate, resumed_candidate, "candidate profile diverged");

    assert_eq!(live.adopt_proposal(), resumed.adopt_proposal());
    assert_eq!(live.generation(), resumed.generation());
    // Both adopted monitors continue identically on fresh traffic.
    let (xs2, ys2) = stream(100, 0, 6.0);
    live.ingest(&frame(&xs2, &ys2)).unwrap();
    resumed.ingest(&frame(&xs2, &ys2)).unwrap();
    assert_eq!(state_json(&live), state_json(&resumed));
}

/// Restore validates internal consistency instead of trusting the file.
#[test]
fn inconsistent_state_is_rejected_not_panicked() {
    let profile = trained_profile();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(50).unwrap(),
        calibration_windows: 3,
        ..MonitorConfig::default()
    };
    let mut m = OnlineMonitor::new(profile, cfg).unwrap();
    let (xs, ys) = stream(120, usize::MAX, 2.0);
    m.ingest(&frame(&xs, &ys)).unwrap();

    // Invalid geometry.
    let mut bad = m.state();
    bad.config.stride = 0;
    assert!(OnlineMonitor::from_state(bad).is_err());

    // Ring overflows its configured capacity.
    let mut bad = m.state();
    bad.config.resynth_tiles = 1;
    while bad.tiles.blocks.len() <= 1 {
        bad.tiles.blocks.push(bad.tiles.blocks[0].clone());
    }
    assert!(OnlineMonitor::from_state(bad).is_err());

    // Calibration sample that should already have armed the detector.
    let mut bad = m.state();
    bad.detector = None;
    bad.calibration = vec![0.1; bad.config.calibration_windows];
    assert!(OnlineMonitor::from_state(bad).is_err());

    // History past its cap.
    let mut bad = m.state();
    bad.config.history_cap = 1;
    bad.history = vec![0.1, 0.2];
    assert!(OnlineMonitor::from_state(bad).is_err());
}

/// Daemon-scale durability: 256 monitors, each with a full 8-tile
/// resynthesis ring plus a half-open window, go through one snapshot
/// file and back. Every restored monitor's state equals the live one
/// byte for byte, a continued ingest on every 64th monitor is
/// bit-identical, and the snapshot + restore round trip stays within a
/// minute even in an unoptimized build.
#[test]
fn snapshot_of_256_full_monitors_restores_bit_identically() {
    const MONITORS: usize = 256;
    const WINDOW: usize = 256;
    // `z = x + 2y + 1` with a phase offset per monitor, so every monitor
    // carries a calibrated profile and no two hold identical state.
    let traffic = |n: usize, offset: usize| {
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        for i in offset..offset + n {
            let t = i as f64 * 0.001;
            let noise = (((i * 2654435761) % 1000) as f64 / 500.0) - 1.0;
            let (xv, yv) = (t.sin() * 40.0 + noise, (t * 0.37).cos() * 25.0);
            x.push(xv);
            y.push(yv);
            z.push(xv + 2.0 * yv + 1.0);
        }
        let mut df = DataFrame::new();
        df.push_numeric("x", x).unwrap();
        df.push_numeric("y", y).unwrap();
        df.push_numeric("z", z).unwrap();
        df
    };
    let profile = synthesize(&traffic(20_000, 0), &SynthOptions::default()).unwrap();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(WINDOW).unwrap(),
        calibration_windows: 2,
        ..MonitorConfig::default()
    };
    let tiles = cfg.resynth_tiles;
    assert_eq!(tiles, 8);
    let rows_per_monitor = tiles * WINDOW + WINDOW / 2;
    let live: Vec<OnlineMonitor> = (0..MONITORS)
        .map(|k| {
            let mut m = OnlineMonitor::new(profile.clone(), cfg.clone()).unwrap();
            m.ingest(&traffic(rows_per_monitor, k * 37)).unwrap();
            assert_eq!(m.status().tiles, tiles, "ring must be full");
            assert!(m.calibrated());
            m
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("cc_state_it_scale_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.json");
    let started = std::time::Instant::now();
    let state = ServerState {
        registry_generation: 1,
        rows_checked: (MONITORS * rows_per_monitor) as u64,
        monitors: live
            .iter()
            .enumerate()
            .map(|(k, m)| MonitorEntry { name: format!("m{k:03}"), state: m.state() })
            .collect(),
    };
    assert!(cc_state::write_snapshot(&path, &state).unwrap() > 0);
    let restored: ServerState = cc_state::read_snapshot(&path).unwrap();
    let back: Vec<OnlineMonitor> = restored
        .monitors
        .into_iter()
        .map(|e| OnlineMonitor::from_state(e.state).unwrap())
        .collect();
    let round_trip = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(round_trip.as_secs() < 60, "snapshot + restore took {round_trip:?}");

    assert_eq!(back.len(), MONITORS);
    for (k, (a, b)) in live.iter().zip(&back).enumerate() {
        assert_eq!(state_json(a), state_json(b), "monitor m{k:03} diverged on restore");
    }
    for (i, k) in (0..MONITORS).step_by(64).enumerate() {
        let (mut a, mut b) = (live[k].clone(), back[k].clone());
        let batch = traffic(WINDOW * 2, 1_000_000 + i * 191);
        let (ra, rb) = (a.ingest(&batch).unwrap(), b.ingest(&batch).unwrap());
        assert_eq!(ra.windows.len(), rb.windows.len());
        for (wa, wb) in ra.windows.iter().zip(&rb.windows) {
            assert_eq!(wa.drift.to_bits(), wb.drift.to_bits(), "m{k:03}: continued drift");
            assert_eq!(wa.stat.to_bits(), wb.stat.to_bits(), "m{k:03}: continued stat");
        }
        assert_eq!(state_json(&a), state_json(&b), "m{k:03}: continued state");
    }
}
