//! Online monitoring of an EVL benchmark stream through `cc_monitor`:
//! the profile learned from window 0 is persisted and reloaded (as a
//! deployed monitor would), then the stream is ingested tuple-batch by
//! tuple-batch through an [`OnlineMonitor`] — windows close, the CUSUM
//! detector judges the drift series, and a sustained alarm surfaces a
//! resynthesized candidate profile.
//!
//! Run with: `cargo run --release --example drift_monitor -- UG-2C-2D`

use cc_datagen::{evl_dataset, EVL_NAMES};
use ccsynth::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "UG-2C-2D".to_owned());
    assert!(
        EVL_NAMES.contains(&name.as_str()),
        "unknown stream '{name}'; choose one of {EVL_NAMES:?}"
    );

    let ds = evl_dataset(&name, 21, 300, 99).unwrap();
    let reference = &ds.windows[0];
    let profile = synthesize(reference, &SynthOptions::default()).unwrap();

    // Persist + reload, as a deployment would.
    let path = std::env::temp_dir().join(format!("drift_monitor_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string_pretty(&profile).unwrap()).unwrap();
    let profile: ConformanceProfile =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);

    println!(
        "stream {name}: {} windows × {} rows, {} constraints learned from window 0\n",
        ds.windows.len(),
        reference.n_rows(),
        profile.constraint_count()
    );

    // One tumbling monitor window per EVL window; the detector baseline
    // is calibrated from the reference window itself.
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(reference.n_rows()).unwrap(),
        detector: DetectorKind::Cusum,
        patience: 2,
        ..MonitorConfig::default()
    };
    let mut monitor = OnlineMonitor::with_reference(profile, cfg, reference).unwrap();

    println!(
        "{:>7} {:>10} {:>13} {:>10} {:>10}  state",
        "window", "drift", "ground truth", "stat", "thresh"
    );
    for (w, window) in ds.windows.iter().enumerate() {
        let report = monitor.ingest(window).unwrap();
        for r in &report.windows {
            let state =
                if matches!(r.phase, ccsynth::monitor::WindowPhase::Alarm) { "ALARM" } else { "" };
            println!(
                "{w:>7} {:>10.4} {:>13.3} {:>10.4} {:>10.4}  {state}",
                r.drift, ds.ground_truth[w], r.stat, r.threshold
            );
            if r.proposed {
                let p = monitor.proposal().unwrap();
                println!(
                    "        ^ resynthesis proposal: generation {}, {} rows from {} blocks",
                    p.generation, p.rows, p.tiles
                );
            }
        }
    }

    let status = monitor.status();
    println!(
        "\n{} rows ingested, {} windows, {} alarms, {} proposal(s)",
        status.rows_ingested, status.windows_closed, status.alarms_total, status.proposals_total
    );
}
