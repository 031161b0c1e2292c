//! Detection-delay regression on a synthetic EVL shift: a monitor
//! trained and calibrated on the stationary regime of an EVL stream must
//! raise **zero** false alarms on a long stationary prefix and detect an
//! injected distribution shift within 8 windows, for every detector.

use cc_datagen::evl_dataset;
use ccsynth::monitor::{DetectorKind, MonitorConfig, OnlineMonitor, WindowSpec};
use ccsynth::prelude::*;

/// Stationary windows: the t=0 snapshot of the stream, re-sampled with
/// different seeds (same distribution, fresh noise).
fn stationary_window(name: &str, points: usize, seed: u64) -> DataFrame {
    evl_dataset(name, 2, points, seed).expect("known stream").windows.remove(0)
}

/// Shifted windows: the t=0.5 snapshot — where the oscillating streams
/// (UG-2C-2D and friends) are maximally displaced from their start.
fn shifted_window(name: &str, points: usize, seed: u64) -> DataFrame {
    evl_dataset(name, 3, points, seed).expect("known stream").windows.remove(1)
}

fn run_detection(name: &str, kind: DetectorKind) -> (u64, Option<usize>) {
    let points = 150; // per class ⇒ 300-row windows for 2-class streams
    let train = stationary_window(name, points, 1);
    let rows = train.n_rows();
    let profile = synthesize(&train, &SynthOptions::default()).unwrap();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(rows).unwrap(),
        detector: kind,
        calibration_windows: 6,
        patience: 2,
        ..MonitorConfig::default()
    };
    let mut monitor = OnlineMonitor::new(profile, cfg).unwrap();

    // Stationary prefix: 6 calibration + 12 armed windows.
    for seed in 2..20u64 {
        monitor.ingest(&stationary_window(name, points, seed)).unwrap();
    }
    let false_alarms = monitor.alarms_total();

    // The injected shift: count windows until the first alarm.
    let mut delay = None;
    for (i, seed) in (100..112u64).enumerate() {
        let report = monitor.ingest(&shifted_window(name, points, seed)).unwrap();
        if report.alarm {
            delay = Some(i + 1);
            break;
        }
    }
    (false_alarms, delay)
}

#[test]
fn evl_shift_detected_within_8_windows_with_zero_false_alarms() {
    // UG-2C-2D's two Gaussians are maximally displaced at mid-stream
    // relative to t=0.
    for kind in [DetectorKind::Cusum, DetectorKind::Ewma, DetectorKind::PageHinkley] {
        let (false_alarms, delay) = run_detection("UG-2C-2D", kind);
        assert_eq!(false_alarms, 0, "{kind:?}: stationary prefix must not alarm");
        assert!(
            delay.is_some_and(|d| d <= 8),
            "{kind:?}: shift detected after {delay:?} windows (≤ 8 required)"
        );
    }
}

#[test]
fn evl_shift_triggers_a_resynthesis_proposal() {
    let points = 150;
    let train = stationary_window("1CDT", points, 1);
    let rows = train.n_rows();
    let profile = synthesize(&train, &SynthOptions::default()).unwrap();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(rows).unwrap(),
        calibration_windows: 4,
        patience: 2,
        min_resynth_rows: rows,
        ..MonitorConfig::default()
    };
    let mut monitor = OnlineMonitor::new(profile, cfg).unwrap();
    for seed in 2..10u64 {
        monitor.ingest(&stationary_window("1CDT", points, seed)).unwrap();
    }
    assert_eq!(monitor.alarms_total(), 0);
    for seed in 100..110u64 {
        monitor.ingest(&shifted_window("1CDT", points, seed)).unwrap();
        if monitor.proposal().is_some() {
            break;
        }
    }
    let proposal = monitor.proposal().expect("sustained EVL shift must propose");
    assert_eq!(proposal.generation, 2);
    assert!(proposal.rows >= rows);

    // The candidate must fit the shifted regime better than the original
    // profile does: compare mean drift of a fresh shifted window.
    let probe = shifted_window("1CDT", points, 999);
    let old_drift = dataset_drift(monitor.profile(), &probe, DriftAggregator::Mean).unwrap();
    let new_drift = dataset_drift(&proposal.profile, &probe, DriftAggregator::Mean).unwrap();
    assert!(
        new_drift < old_drift,
        "candidate should fit the shifted regime: old {old_drift} vs new {new_drift}"
    );
}
