//! Cross-crate integration: the HAR trusted-ML pipeline (mini Fig. 6(a)) —
//! conformance violation tracks classifier accuracy-drop as mobile data
//! leaks into a sedentary serving stream.

use cc_datagen::{har, HarConfig, MOBILE_ACTIVITIES, SEDENTARY_ACTIVITIES};
use cc_models::accuracy;
use cc_models::logreg::{LogRegOptions, LogisticRegression};
use cc_stats::pcc;
use ccsynth::prelude::*;

fn split_by_activity(df: &DataFrame, wanted: &[&str]) -> DataFrame {
    let (codes, dict) = df.categorical("activity").unwrap();
    let keep: Vec<u32> = dict
        .iter()
        .enumerate()
        .filter(|(_, d)| wanted.contains(&d.as_str()))
        .map(|(i, _)| i as u32)
        .collect();
    let idx: Vec<usize> = (0..df.n_rows()).filter(|&i| keep.contains(&codes[i])).collect();
    df.take(&idx)
}

fn person_labels(df: &DataFrame) -> Vec<usize> {
    let (codes, dict) = df.categorical("person").unwrap();
    codes.iter().map(|&c| dict[c as usize][1..].parse().unwrap()).collect()
}

fn channel_rows(df: &DataFrame) -> Vec<Vec<f64>> {
    let names: Vec<&str> = df.numeric_names();
    df.numeric_rows(&names).unwrap()
}

#[test]
fn violation_tracks_accuracy_drop() {
    let persons = 6;
    let df = har(&HarConfig { persons, samples_per_pair: 80, seed: 3 });
    let sedentary = split_by_activity(&df, &SEDENTARY_ACTIVITIES);
    let mobile = split_by_activity(&df, &MOBILE_ACTIVITIES);

    // Learn constraints on sedentary data (activity/person partitions are
    // irrelevant here: use the numeric channels only, globally).
    let opts = SynthOptions { partition_attributes: Some(vec![]), ..Default::default() };
    let profile = synthesize(&sedentary, &opts).unwrap();

    // Train a person classifier on sedentary data.
    let model = LogisticRegression::fit(
        &channel_rows(&sedentary),
        &person_labels(&sedentary),
        persons,
        &LogRegOptions { epochs: 120, ..Default::default() },
    )
    .unwrap();
    let base_acc =
        accuracy(&model.predict_all(&channel_rows(&sedentary)), &person_labels(&sedentary));
    assert!(base_acc > 0.8, "sedentary classifier should work, acc {base_acc}");

    // Mix increasing fractions of mobile data into the serving stream.
    let mut violations = Vec::new();
    let mut drops = Vec::new();
    for pct in [0usize, 25, 50, 75, 100] {
        let n_mob = mobile.n_rows() * pct / 100;
        let mob_idx: Vec<usize> = (0..n_mob).collect();
        let sed_idx: Vec<usize> = (0..(sedentary.n_rows() * (100 - pct) / 100)).collect();
        let serve = if pct == 0 {
            sedentary.take(&sed_idx)
        } else if pct == 100 {
            mobile.take(&mob_idx)
        } else {
            sedentary.take(&sed_idx).vstack(&mobile.take(&mob_idx)).unwrap()
        };
        let v = dataset_drift(&profile, &serve, DriftAggregator::Mean).unwrap();
        let acc = accuracy(&model.predict_all(&channel_rows(&serve)), &person_labels(&serve));
        violations.push(v);
        drops.push(base_acc - acc);
    }

    // Both series should rise together (paper: pcc = 0.99).
    let rho = pcc(&violations, &drops);
    assert!(rho > 0.8, "violation vs accuracy-drop pcc = {rho}, v={violations:?}, d={drops:?}");
    assert!(violations[4] > violations[0] + 0.1, "violations must rise: {violations:?}");
}

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
    let running = split_by_activity(&df, &["running"]);
    let t = channel_rows(&running)[0].clone();
    let d = &profile.disjunctive[0];
    let v_run = d.violation(&t, "running");
    let v_lie = d.violation(&t, "lying");
    assert!(v_lie > v_run + 0.2, "running tuple: lying case {v_lie}, running case {v_run}");
}
