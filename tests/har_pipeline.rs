//! Cross-crate integration on HAR: a profile partitioned by activity
//! scores a tuple against its own activity's case.

use cc_bench::{all_numeric_rows, filter_categorical};
use cc_datagen::{har, HarConfig};
use ccsynth::prelude::*;

#[test]
fn disjunctive_profile_knows_who_does_what() {
    let df = har(&HarConfig { persons: 4, samples_per_pair: 60, seed: 9 });
    // Profile partitioned by activity.
    let opts =
        SynthOptions { partition_attributes: Some(vec!["activity".into()]), ..Default::default() };
    let profile = synthesize(&df, &opts).unwrap();
    assert_eq!(profile.disjunctive.len(), 1);
    assert_eq!(profile.disjunctive[0].cases.len(), 5);

    // A running-signature tuple violates the "lying" case far more than the
    // "running" case.
    let running = filter_categorical(&df, "activity", &["running"]);
    let t = all_numeric_rows(&running)[0].clone();
    let d = &profile.disjunctive[0];
    let v_run = d.violation(&t, "running");
    let v_lie = d.violation(&t, "lying");
    assert!(v_lie > v_run + 0.2, "running tuple: lying case {v_lie}, running case {v_run}");
}
