//! SQL guard: learn a profile and emit it as a database-enforceable
//! `CHECK` constraint (the paper's Appendix G/H application: "prevent
//! insertion of unsafe tuples").
//!
//! Run with: `cargo run --release --example sql_guard`

use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use ccsynth::conformance::profile_to_sql;
use ccsynth::prelude::*;

fn main() {
    let train = airlines(&AirlinesConfig { rows: 10_000, kind: FlightKind::Daytime, seed: 8 });

    // Profile the four attributes of the paper's Example 14 (keeping the
    // CHECK readable); partition on carrier for a disjunctive CASE example.
    let keep = ["arr_time", "dep_time", "elapsed_time", "distance"];
    let drop: Vec<String> = train
        .numeric_names()
        .into_iter()
        .filter(|n| !keep.contains(n))
        .map(str::to_owned)
        .collect();
    let opts = SynthOptions {
        drop_attributes: drop,
        partition_attributes: Some(vec!["carrier".into()]),
        ..Default::default()
    };
    let profile = synthesize(&train, &opts).unwrap();

    println!("-- Generated by ccsynth from {} training rows.", train.n_rows());
    println!("-- Tuples violating the daytime flight invariants will be rejected.");
    println!("{}", profile_to_sql(&profile, "flights", 4));

    // Demonstrate what the guard would reject.
    let overnight = [370.0, 1350.0, 458.0, 3800.0]; // Fig. 1's t5
    let v = profile.violation(&overnight, &[("carrier", "AA")]).unwrap();
    println!("\n-- Example: Fig. 1's overnight tuple t5 has violation {v:.3};");
    println!("-- it falls outside every BETWEEN band above and would be rejected.");
}
