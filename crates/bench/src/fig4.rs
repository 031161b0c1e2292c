//! Fig. 4 (table): average conformance-constraint violation and linear-
//! regression MAE across Train / Daytime / Overnight / Mixed airline splits.
//!
//! Paper's reported shape: violation and MAE are both low and equal on
//! Train and Daytime, both explode on Overnight (violation 0.02% → 27.68%,
//! MAE 18.95 → 80.54), and sit in between on Mixed.

use crate::{regression_io, Outcome, Size};
use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_frame::DataFrame;
use cc_models::{mae, LinearRegression};
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let split = |kind, seed| airlines(&AirlinesConfig { rows: 8_000, kind, seed });
    let train = airlines(&AirlinesConfig { rows: 40_000, kind: FlightKind::Daytime, seed: 41 });
    let splits: Vec<DataFrame> = vec![
        train.clone(),
        split(FlightKind::Daytime, 42),
        split(FlightKind::Overnight, 43),
        split(FlightKind::Mixed(30), 44),
    ];

    // Constraints learned on Train, excluding the target attribute `delay`.
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let t0 = std::time::Instant::now();
    let profile = synthesize(&train, &opts).expect("synthesis succeeds");
    let synth_ms = t0.elapsed().as_millis();

    let (x_train, y_train) = regression_io(&train);
    let model = LinearRegression::fit(&x_train, &y_train, 1e-6).expect("fit succeeds");

    o.line(format!(
        "(training rows: {}, constraints: {}, synthesis: {synth_ms} ms)\n",
        train.n_rows(),
        profile.constraint_count()
    ));
    o.line(format!(
        "{:<22} {:>10} {:>10} {:>12} {:>8}",
        "", "Train", "Daytime", "Overnight", "Mixed"
    ));
    let mut violations = Vec::new();
    let mut maes = Vec::new();
    for df in &splits {
        violations.push(100.0 * dataset_drift(&profile, df, DriftAggregator::Mean).expect("eval"));
        let (x, y) = regression_io(df);
        maes.push(mae(&model.predict_all(&x), &y));
    }
    let [v_train, v_day, v_night, v_mixed] = violations[..] else { unreachable!("four splits") };
    o.line(format!(
        "{:<22} {v_train:>9.2}% {v_day:>9.2}% {v_night:>11.2}% {v_mixed:>7.2}%",
        "Average violation"
    ));
    o.line(format!(
        "{:<22} {:>10.2} {:>10.2} {:>12.2} {:>8.2}",
        "MAE", maes[0], maes[1], maes[2], maes[3]
    ));

    o.check("violation on Train < 1%", v_train < 1.0);
    o.check("violation on Daytime < 2%", v_day < 2.0);
    o.check("violation: Train ≈ Daytime (within 1 point)", (v_train - v_day).abs() < 1.0);
    o.check("violation: Overnight > 20 × Daytime", v_night > 20.0 * v_day.max(0.05));
    o.check("violation: Daytime < Mixed < Overnight", v_day < v_mixed && v_mixed < v_night);
    o.check(
        format!("MAE: Overnight > 2 × Daytime (paper ×4.2, here ×{:.1})", maes[2] / maes[1]),
        maes[2] > 2.0 * maes[1],
    );
    o
}
