//! Trusted machine learning on the airlines workload (the paper's Fig. 4
//! scenario end to end): train a delay regressor on daytime flights, then
//! watch conformance-constraint violation predict where it fails.
//!
//! Run with: `cargo run --release --example flight_delay_trust`

use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_models::{mae, LinearRegression};
use ccsynth::prelude::*;

fn regression_io(df: &DataFrame) -> (Vec<Vec<f64>>, Vec<f64>) {
    let covariates: Vec<&str> =
        df.numeric_names().into_iter().filter(|n| *n != "arrival_delay").collect();
    let x = df.numeric_rows(&covariates).unwrap();
    let y = df.numeric("arrival_delay").unwrap().to_vec();
    (x, y)
}

fn main() {
    // Train on daytime flights only — exactly the paper's setup: the
    // training data *coincidentally* satisfies arr − dep − dur ≈ 0.
    let train = airlines(&AirlinesConfig { rows: 20_000, kind: FlightKind::Daytime, seed: 1 });
    let serve_day = airlines(&AirlinesConfig { rows: 4_000, kind: FlightKind::Daytime, seed: 2 });
    let serve_night =
        airlines(&AirlinesConfig { rows: 4_000, kind: FlightKind::Overnight, seed: 3 });

    // Learn conformance constraints WITHOUT the target attribute.
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();

    // Train the regressor (it may exploit the coincidental invariant).
    let (x_train, y_train) = regression_io(&train);
    let model = LinearRegression::fit(&x_train, &y_train, 1e-6).unwrap();

    println!("{:<12} {:>18} {:>12}", "serving set", "avg violation (%)", "MAE (min)");
    for (name, df) in [("daytime", &serve_day), ("overnight", &serve_night)] {
        let violation = 100.0 * dataset_drift(&profile, df, DriftAggregator::Mean).unwrap();
        let (x, y) = regression_io(df);
        let err = mae(&model.predict_all(&x), &y);
        println!("{name:<12} {violation:>18.2} {err:>12.2}");
    }

    println!("\nHigh violation ⇒ untrustworthy predictions, without ever");
    println!("looking at the model or the ground-truth delays.");
}
