//! Cross-crate integration tests for the extension features: streaming
//! synthesis, tree profiles, SQL export, imputation, model selection, and
//! the quadratic expansion — all driven through the realistic generators.

use cc_datagen::{airlines, har, AirlinesConfig, FlightKind, HarConfig};
use ccsynth::conformance::tree::{synthesize_tree, TreeOptions};
use ccsynth::conformance::{
    impute_all, profile_to_sql, select_model, synthesize_simple, StreamingSynthesizer,
};
use ccsynth::prelude::*;

const FLIGHT_ATTRS: [&str; 4] = ["arr_time", "dep_time", "elapsed_time", "distance"];

#[test]
fn streaming_profile_flags_overnight_flights() {
    let train = airlines(&AirlinesConfig { rows: 5000, kind: FlightKind::Daytime, seed: 61 });
    let rows = train.numeric_rows(&FLIGHT_ATTRS).unwrap();
    let attrs: Vec<String> = FLIGHT_ATTRS.map(String::from).to_vec();

    // Shard the stream across 4 workers, then merge.
    let mut shards: Vec<StreamingSynthesizer> =
        (0..4).map(|_| StreamingSynthesizer::new(attrs.clone())).collect();
    for (i, r) in rows.iter().enumerate() {
        shards[i % 4].update(r);
    }
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge(s);
    }
    let sc = merged.finish(&SynthOptions::default()).unwrap();

    let night = airlines(&AirlinesConfig { rows: 500, kind: FlightKind::Overnight, seed: 62 });
    let night_rows = night.numeric_rows(&FLIGHT_ATTRS).unwrap();
    let mean_v: f64 =
        night_rows.iter().map(|r| sc.violation(r)).sum::<f64>() / night_rows.len() as f64;
    assert!(mean_v > 0.3, "streaming profile must flag overnight flights, got {mean_v}");
}

#[test]
fn tree_profile_on_har_beats_flat_on_nested_structure() {
    let df = har(&HarConfig { persons: 4, samples_per_pair: 60, seed: 63 });
    let tree = synthesize_tree(&df, &TreeOptions::default()).unwrap();
    // The activity attribute is the dominant regime driver; the tree should
    // split at least once.
    assert!(tree.depth() >= 1, "expected at least one split");
    // Training data conforms under the tree.
    let v = tree.violations(&df).unwrap();
    let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
    assert!(mean < 0.05, "training mean violation {mean}");
}

#[test]
fn sql_export_mentions_every_numeric_attribute() {
    let train = airlines(&AirlinesConfig { rows: 2000, kind: FlightKind::Daytime, seed: 64 });
    let opts = SynthOptions {
        drop_attributes: vec!["arrival_delay".into(), "year".into(), "diverted".into()],
        partition_attributes: Some(vec![]),
        ..Default::default()
    };
    let profile = synthesize(&train, &opts).unwrap();
    let sql = profile_to_sql(&profile, "flights", 4);
    for attr in ["dep_time", "arr_time", "elapsed_time", "distance"] {
        assert!(sql.contains(&format!("\"{attr}\"")), "missing {attr} in SQL:\n{sql}");
    }
}

#[test]
fn imputation_recovers_flight_arrivals() {
    let train = airlines(&AirlinesConfig { rows: 5000, kind: FlightKind::Daytime, seed: 65 });
    let rows = train.numeric_rows(&FLIGHT_ATTRS).unwrap();
    let attrs: Vec<String> = FLIGHT_ATTRS.map(String::from).to_vec();
    let sc = synthesize_simple(&rows, &attrs, &SynthOptions::default()).unwrap();

    // Blank out arr_time on held-out daytime flights and impute it.
    let held = airlines(&AirlinesConfig { rows: 200, kind: FlightKind::Daytime, seed: 66 });
    let held_rows = held.numeric_rows(&FLIGHT_ATTRS).unwrap();
    let mut total_err = 0.0;
    for r in &held_rows {
        let mut t = r.clone();
        let truth = t[0];
        t[0] = f64::NAN;
        let filled = impute_all(&sc, &t, 3);
        total_err += (filled[0] - truth).abs();
    }
    let mae = total_err / held_rows.len() as f64;
    // arr = dep + dur holds to ≈ 10 min reporting noise.
    assert!(mae < 20.0, "imputation MAE {mae}");
}

#[test]
fn model_selection_distinguishes_day_and_night_regimes() {
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let p_day = synthesize(
        &airlines(&AirlinesConfig { rows: 4000, kind: FlightKind::Daytime, seed: 67 }),
        &opts,
    )
    .unwrap();
    let p_night = synthesize(
        &airlines(&AirlinesConfig { rows: 4000, kind: FlightKind::Overnight, seed: 68 }),
        &opts,
    )
    .unwrap();
    let serving = airlines(&AirlinesConfig { rows: 800, kind: FlightKind::Overnight, seed: 69 });
    let (idx, v) = select_model(&[p_day, p_night], &serving).unwrap().unwrap();
    assert_eq!(idx, 1, "the overnight-trained profile should be selected");
    assert!(v < 0.1);
}
