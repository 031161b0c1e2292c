//! Local drift detection on human-activity data (the paper's Fig. 6(c)
//! scenario), monitored online: disjunctive conformance constraints
//! notice when individual people change activities, while a global
//! W-PCA profile stays blind. Each "day" of serving data streams through
//! an [`OnlineMonitor`] as one tumbling window.
//!
//! Run with: `cargo run --release --example activity_drift`

use cc_baselines::WPca;
use cc_datagen::{har, HarConfig};
use ccsynth::prelude::*;

fn main() {
    let df = har(&HarConfig { persons: 8, samples_per_pair: 120, seed: 11 });

    // Baseline snapshot: each person performs ONE fixed activity.
    let fixed_activity = |p: usize| ["lying", "sitting", "standing", "walking", "running"][p % 5];
    let snapshot = |switched: usize| {
        let (acodes, adict) = df.categorical("activity").unwrap();
        let (pcodes, pdict) = df.categorical("person").unwrap();
        let idx: Vec<usize> = (0..df.n_rows())
            .filter(|&i| {
                let person: usize = pdict[pcodes[i] as usize][1..].parse().unwrap();
                // Persons below `switched` have moved to the "next" activity.
                let wanted = if person < switched {
                    ["sitting", "standing", "walking", "running", "lying"][person % 5]
                } else {
                    fixed_activity(person)
                };
                adict[acodes[i] as usize] == wanted
            })
            .collect();
        df.take(&idx)
    };

    let initial = snapshot(0);
    let profile = synthesize(&initial, &SynthOptions::default()).unwrap();
    let global = WPca::fit(&initial).unwrap();

    // One tumbling monitor window per snapshot, calibrated from the
    // initial snapshot (every snapshot has the same row count).
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(initial.n_rows()).unwrap(),
        detector: DetectorKind::Ewma,
        ..MonitorConfig::default()
    };
    let mut monitor = OnlineMonitor::with_reference(profile, cfg, &initial).unwrap();

    println!("{:>9} {:>14} {:>12} {:>8}", "#switched", "CCSynth drift", "W-PCA drift", "state");
    for k in [0, 2, 4, 6, 8] {
        let drifted = snapshot(k);
        let report = monitor.ingest(&drifted).unwrap();
        let window = report.windows.last().expect("one window per snapshot");
        let wp = global.drift(&drifted).unwrap();
        let state = if report.alarm { "ALARM" } else { "" };
        println!("{k:>9} {:>14.4} {wp:>12.4} {state:>8}", window.drift);
    }
    println!("\nCCSynth's disjunctive constraints encode WHO does WHAT, so the");
    println!("gradual local drift registers (and the monitor alarms); the");
    println!("global W-PCA profile barely moves.");
}
