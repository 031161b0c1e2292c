//! Ablations of CCSynth's design choices (beyond the paper's figures):
//!
//! 1. **C factor** (bounds = μ ± C·σ): paper picks C = 4 (§4.1.1). Sweep C
//!    and report the trade-off between training false positives and
//!    serving-drift detection strength.
//! 2. **Importance weighting** γ = 1/log(2+σ) vs uniform: how much the
//!    low-variance weighting helps drift tracking on the EVL streams.
//! 3. **Disjunctive partitioning** on vs off: the local-drift story (4CR).
//! 4. **Quadratic feature expansion**: nonlinear invariants (circle data)
//!    invisible to the linear profile.
//!
//! Ablations 1, 3 and 4 are checked. Ablation 2 is only reported: on these
//! streams the γ-weighted and uniform profiles read the same mean pcc.

use crate::{Outcome, Size};
use cc_datagen::{airlines, evl_dataset, AirlinesConfig, FlightKind};
use cc_frame::DataFrame;
use cc_stats::{min_max_normalize, pcc};
use conformance::{
    dataset_drift, expand_quadratic, expand_tuple, synthesize, DriftAggregator, SimpleConstraint,
    SynthOptions,
};

fn ablate_c_factor(o: &mut Outcome, size: Size) {
    o.line("\n== Ablation 1: bound width C (μ ± C·σ; paper C = 4) ==");
    let (train_n, serve_n) = size.pick((15_000, 4_000), (5_000, 1_500));
    let train = airlines(&AirlinesConfig { rows: train_n, kind: FlightKind::Daytime, seed: 900 });
    let day = airlines(&AirlinesConfig { rows: serve_n, kind: FlightKind::Daytime, seed: 901 });
    let night = airlines(&AirlinesConfig { rows: serve_n, kind: FlightKind::Overnight, seed: 902 });
    o.line(format!(
        "{:>4} {:>22} {:>22} {:>12}",
        "C", "train violation (FP)", "daytime violation", "overnight"
    ));
    let mut train_fp = Vec::new();
    for c in [1.0, 2.0, 4.0, 6.0, 8.0] {
        let opts = SynthOptions {
            c_factor: c,
            drop_attributes: vec!["arrival_delay".into()],
            ..Default::default()
        };
        let profile = synthesize(&train, &opts).expect("synthesis");
        let vt = dataset_drift(&profile, &train, DriftAggregator::Mean).expect("eval");
        let vd = dataset_drift(&profile, &day, DriftAggregator::Mean).expect("eval");
        let vn = dataset_drift(&profile, &night, DriftAggregator::Mean).expect("eval");
        o.line(format!("{c:>4} {vt:>22.4} {vd:>22.4} {vn:>12.4}"));
        train_fp.push(vt);
    }
    o.line("(small C over-fires on clean data; large C dulls detection — C = 4 balances)");
    o.check(
        format!(
            "1: C = 1 over-fires on training data, > 10 × C = 4 ({:.4} vs {:.4})",
            train_fp[0], train_fp[2]
        ),
        train_fp[0] > 10.0 * train_fp[2],
    );
}

/// Rebuilds a simple constraint with uniform weights.
fn uniform_weights(sc: &SimpleConstraint) -> SimpleConstraint {
    let k = sc.conjuncts.len();
    SimpleConstraint::new(sc.conjuncts.clone(), vec![1.0; k])
}

fn ablate_weighting(o: &mut Outcome, size: Size) {
    o.line("\n== Ablation 2: importance weighting γ = 1/log(2+σ) vs uniform ==");
    let points = size.pick(150, 75);
    let mut gamma_sum = 0.0;
    let mut unif_sum = 0.0;
    let streams = ["1CDT", "UG-2C-2D", "4CRE-V1", "MG-2C-2D", "2CHT"];
    o.line(format!("{:<12} {:>12} {:>12}", "stream", "γ-weighted", "uniform"));
    for name in streams {
        let ds = evl_dataset(name, 9, points, 910).expect("stream");
        let profile = synthesize(&ds.windows[0], &SynthOptions::default()).expect("synthesis");
        let mut profile_u = profile.clone();
        if let Some(g) = profile_u.global.take() {
            profile_u.global = Some(uniform_weights(&g));
        }
        for d in profile_u.disjunctive.iter_mut() {
            for (_, case) in d.cases.iter_mut() {
                *case = uniform_weights(case);
            }
        }
        let series = |p: &conformance::ConformanceProfile| {
            let mut v: Vec<f64> = ds
                .windows
                .iter()
                .map(|w| dataset_drift(p, w, DriftAggregator::Mean).expect("eval"))
                .collect();
            min_max_normalize(&mut v);
            v
        };
        let rho_g = pcc(&series(&profile), &ds.ground_truth);
        let rho_u = pcc(&series(&profile_u), &ds.ground_truth);
        gamma_sum += rho_g;
        unif_sum += rho_u;
        o.line(format!("{name:<12} {rho_g:>12.3} {rho_u:>12.3}"));
    }
    o.line(format!(
        "mean pcc: γ-weighted {:.3} vs uniform {:.3}",
        gamma_sum / streams.len() as f64,
        unif_sum / streams.len() as f64
    ));
}

fn ablate_partitioning(o: &mut Outcome, size: Size) {
    o.line("\n== Ablation 3: disjunctive partitioning (the 4CR local-drift case) ==");
    let ds = evl_dataset("4CR", 9, size.pick(150, 75), 920).expect("stream");
    let full = synthesize(&ds.windows[0], &SynthOptions::default()).expect("synthesis");
    let global = synthesize(
        &ds.windows[0],
        &SynthOptions { partition_attributes: Some(vec![]), ..Default::default() },
    )
    .expect("synthesis");
    o.line(format!(
        "{:>7} {:>14} {:>14} {:>14}",
        "window", "ground truth", "disjunctive", "global"
    ));
    let (mut peak_full, mut peak_glob) = (0.0f64, 0.0f64);
    for (w, window) in ds.windows.iter().enumerate() {
        let d_full = dataset_drift(&full, window, DriftAggregator::Mean).expect("eval");
        let d_glob = dataset_drift(&global, window, DriftAggregator::Mean).expect("eval");
        o.line(format!("{w:>7} {:>14.3} {d_full:>14.4} {d_glob:>14.4}", ds.ground_truth[w]));
        peak_full = peak_full.max(d_full);
        peak_glob = peak_glob.max(d_glob);
    }
    o.line("(only the disjunctive profile sees the rotation)");
    o.check(
        format!("3: the global profile stays at 0 on 4CR (peak {peak_glob:.4} < 0.01)"),
        peak_glob < 0.01,
    );
    o.check(
        format!("3: the disjunctive profile rises (peak {peak_full:.3} > 0.25)"),
        peak_full > 0.25,
    );
}

fn ablate_quadratic(o: &mut Outcome) {
    o.line("\n== Ablation 4: quadratic feature expansion (circle invariant) ==");
    let n = 400;
    let mut df = DataFrame::new();
    let xs: Vec<f64> =
        (0..n).map(|i| 5.0 * (i as f64 * std::f64::consts::TAU / n as f64).cos()).collect();
    let ys: Vec<f64> =
        (0..n).map(|i| 5.0 * (i as f64 * std::f64::consts::TAU / n as f64).sin()).collect();
    df.push_numeric("x", xs).unwrap();
    df.push_numeric("y", ys).unwrap();

    let linear = synthesize(&df, &SynthOptions::default()).expect("synthesis");
    let quad_df = expand_quadratic(&df).expect("expansion");
    let quad = synthesize(&quad_df, &SynthOptions::default()).expect("synthesis");

    o.line(format!("{:<24} {:>10} {:>10}", "serving point", "linear", "quadratic"));
    let mut scores = Vec::new();
    for (label, x, y) in
        [("on circle (5, 0)", 5.0, 0.0), ("center (0, 0)", 0.0, 0.0), ("far (12, 0)", 12.0, 0.0)]
    {
        let vl = linear.violation(&[x, y], &[]).expect("eval");
        let vq = quad.violation(&expand_tuple(&[x, y]), &[]).expect("eval");
        o.line(format!("{label:<24} {vl:>10.4} {vq:>10.4}"));
        scores.push((vl, vq));
    }
    o.line("(the linear profile cannot reject the circle's interior; the quadratic one can)");
    let [_, (lin_center, quad_center), (lin_far, quad_far)] = scores[..] else {
        unreachable!("three serving points")
    };
    o.check(
        format!("4: quadratic rejects the center and the far point ({quad_center:.3}, {quad_far:.3} > 0.3)"),
        quad_center > 0.3 && quad_far > 0.3,
    );
    o.check(
        format!("4: linear rejects neither ({lin_center:.3}, {lin_far:.3} < 0.05)"),
        lin_center < 0.05 && lin_far < 0.05,
    );
}

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    ablate_c_factor(&mut o, size);
    ablate_weighting(&mut o, size);
    ablate_partitioning(&mut o, size);
    ablate_quadratic(&mut o);
    o
}
