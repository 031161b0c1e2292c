//! Fig. 5: tuple-level relationship between constraint violation and the
//! regressor's absolute prediction error on 1000 sampled Mixed tuples.
//!
//! Paper's reported shape: sorting tuples by decreasing violation, every
//! high-violation tuple has high error (no false positives) and only a few
//! low-violation tuples have high error (few false negatives).

use crate::{regression_io, Outcome, Size};
use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_frame::sample_indices;
use cc_models::{absolute_errors, LinearRegression};
use cc_stats::pcc;
use conformance::{synthesize, SynthOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let train = airlines(&AirlinesConfig { rows: 30_000, kind: FlightKind::Daytime, seed: 51 });
    let mixed = airlines(&AirlinesConfig { rows: 10_000, kind: FlightKind::Mixed(30), seed: 52 });

    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).expect("synthesis succeeds");
    let (x_train, y_train) = regression_io(&train);
    let model = LinearRegression::fit(&x_train, &y_train, 1e-6).expect("fit succeeds");

    // Sample 1000 Mixed tuples (paper's setup).
    let mut rng = StdRng::seed_from_u64(53);
    let idx = sample_indices(mixed.n_rows(), 1000, &mut rng);
    let sample = mixed.take(&idx);

    let violations = profile.violations(&sample).expect("eval");
    let (x, y) = regression_io(&sample);
    let errors = absolute_errors(&model.predict_all(&x), &y);

    // Order by decreasing violation and summarize by decile.
    let mut order: Vec<usize> = (0..violations.len()).collect();
    order.sort_by(|&a, &b| violations[b].partial_cmp(&violations[a]).expect("finite"));
    o.line(format!("{:>7} {:>15} {:>18}", "decile", "mean violation", "mean abs error"));
    for d in 0..10 {
        let lo = d * order.len() / 10;
        let hi = (d + 1) * order.len() / 10;
        let mv: f64 = order[lo..hi].iter().map(|&i| violations[i]).sum::<f64>() / (hi - lo) as f64;
        let me: f64 = order[lo..hi].iter().map(|&i| errors[i]).sum::<f64>() / (hi - lo) as f64;
        o.line(format!("{:>7} {mv:>15.4} {me:>18.2}", d + 1));
    }

    let rho = pcc(&violations, &errors);
    o.line(format!("\npcc(violation, abs error) = {rho:.3}"));
    // Violation as a detector of high-error tuples (> 3× median error).
    let high_err = 3.0 * cc_stats::quantile(&errors, 0.5);
    let high: Vec<bool> = errors.iter().map(|e| *e > high_err).collect();
    o.line(format!(
        "ROC-AUC(violation → high-error tuple) = {:.3}",
        cc_stats::roc_auc(&violations, &high)
    ));

    // False positives/negatives at the paper's qualitative thresholds.
    let fp = violations.iter().zip(&errors).filter(|(v, e)| **v > 0.5 && **e < high_err).count();
    let fnn = violations.iter().zip(&errors).filter(|(v, e)| **v < 0.1 && **e > high_err).count();
    o.line(format!("high-violation tuples with LOW error (false positives): {fp}"));
    o.line(format!("low-violation tuples with HIGH error (false negatives): {fnn}"));

    o.check(format!("pcc(violation, abs error) = {rho:.3} > 0.5"), rho > 0.5);
    o.check(format!("false positives {fp} ≤ 5"), fp <= 5);
    o
}
