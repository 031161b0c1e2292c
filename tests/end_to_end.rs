//! Cross-crate integration: the full trusted-ML pipeline of the paper's
//! Fig. 4, in miniature — generator → synthesis → regression → the
//! violation/error correspondence.

use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_models::{mae, LinearRegression};
use ccsynth::prelude::*;

fn regression_io(df: &DataFrame) -> (Vec<Vec<f64>>, Vec<f64>) {
    let covariates: Vec<&str> =
        df.numeric_names().into_iter().filter(|n| *n != "arrival_delay").collect();
    (df.numeric_rows(&covariates).unwrap(), df.numeric("arrival_delay").unwrap().to_vec())
}

#[test]
fn airlines_tml_pipeline() {
    let train = airlines(&AirlinesConfig { rows: 8000, kind: FlightKind::Daytime, seed: 1 });
    let day = airlines(&AirlinesConfig { rows: 2000, kind: FlightKind::Daytime, seed: 2 });
    let night = airlines(&AirlinesConfig { rows: 2000, kind: FlightKind::Overnight, seed: 3 });

    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();

    // Violations: train ≈ day ≪ night (the Fig-4 table's first row).
    let v_train = dataset_drift(&profile, &train, DriftAggregator::Mean).unwrap();
    let v_day = dataset_drift(&profile, &day, DriftAggregator::Mean).unwrap();
    let v_night = dataset_drift(&profile, &night, DriftAggregator::Mean).unwrap();
    assert!(v_train < 0.02, "train violation {v_train}");
    assert!(v_day < 0.02, "daytime violation {v_day}");
    assert!(v_night > 10.0 * v_day.max(1e-4), "overnight violation {v_night}");

    // Regression MAE mirrors the violations (Fig-4's second row).
    let (x_train, y_train) = regression_io(&train);
    let model = LinearRegression::fit(&x_train, &y_train, 1e-6).unwrap();
    let (x_day, y_day) = regression_io(&day);
    let (x_night, y_night) = regression_io(&night);
    let mae_day = mae(&model.predict_all(&x_day), &y_day);
    let mae_night = mae(&model.predict_all(&x_night), &y_night);
    assert!(
        mae_night > 2.0 * mae_day,
        "overnight MAE ({mae_night:.2}) should far exceed daytime ({mae_day:.2})"
    );
}

#[test]
fn profile_persists_through_json() {
    let train = airlines(&AirlinesConfig { rows: 2000, kind: FlightKind::Daytime, seed: 5 });
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();
    let json = serde_json::to_string(&profile).unwrap();
    let back: ConformanceProfile = serde_json::from_str(&json).unwrap();

    // Identical violations on fresh data after the round-trip.
    let serve = airlines(&AirlinesConfig { rows: 500, kind: FlightKind::Mixed(30), seed: 6 });
    let v1 = profile.violations(&serve).unwrap();
    let v2 = back.violations(&serve).unwrap();
    for (a, b) in v1.iter().zip(&v2) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn envelope_flags_mixture_proportionally() {
    let train = airlines(&AirlinesConfig { rows: 6000, kind: FlightKind::Daytime, seed: 7 });
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();
    let envelope = SafetyEnvelope::new(profile, 0.3);

    let mixed = airlines(&AirlinesConfig { rows: 3000, kind: FlightKind::Mixed(40), seed: 8 });
    let fraction = envelope.unsafe_fraction(&mixed).unwrap();
    assert!((fraction - 0.4).abs() < 0.06, "≈40% of the mixture should be flagged, got {fraction}");
}
