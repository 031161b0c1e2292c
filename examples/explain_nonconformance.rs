//! ExTuNe-style explanation: which attributes are responsible for a
//! serving set's non-conformance? (The paper's Fig. 12(a) scenario.)
//!
//! Run with: `cargo run --release --example explain_nonconformance`

use cc_datagen::tabular::cardio;
use ccsynth::conformance::explain::mean_responsibility;
use ccsynth::prelude::*;

fn main() {
    // Train on healthy patients, serve cardiovascular-disease patients.
    let (healthy, diseased) = cardio(4000, 21);
    let profile = synthesize(&healthy, &SynthOptions::default()).unwrap();

    let drift = dataset_drift(&profile, &diseased, DriftAggregator::Mean).unwrap();
    println!("dataset-level violation of the diseased cohort: {drift:.3}\n");

    // ExTuNe: mean-intervention responsibility per attribute.
    let serve_sample = diseased.take(&(0..300).collect::<Vec<_>>());
    let ranked = mean_responsibility(&profile, &healthy, &serve_sample).unwrap();
    println!("{:<14} responsibility", "attribute");
    for r in &ranked {
        let bar = "#".repeat((r.score * 40.0).round() as usize);
        println!("{:<14} {:.3}  {bar}", r.attribute, r.score);
    }
    println!("\nBlood pressures (ap_hi / ap_lo) should top the ranking — the");
    println!("generator shifts them most between healthy and diseased cohorts.");
}
