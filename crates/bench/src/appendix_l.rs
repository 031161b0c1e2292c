//! Appendix L: simple conformance constraints vs least-squares techniques.
//!
//! TLS (orthogonal regression) finds only THE lowest-variance projection;
//! OLS minimizes error on one designated target. Conformance constraints
//! keep the whole spectrum of low-variance projections. On data with TWO
//! independent invariants — the airlines attributes satisfy both
//! AT − DT − DUR ≈ 0 and DUR − 0.12·DIS ≈ 0 — a single-projection detector
//! must under-detect violations of whichever invariant it did not capture.

use crate::{Outcome, Size};
use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_frame::DataFrame;
use cc_stats::Summary;
use conformance::{synthesize_simple, BoundedConstraint, Projection, SynthOptions};

const ATTRS: [&str; 4] = ["arr_time", "dep_time", "elapsed_time", "distance"];

fn rows(df: &DataFrame) -> Vec<Vec<f64>> {
    df.numeric_rows(&ATTRS).expect("columns exist")
}

/// Wraps a single projection as a C=4 bounded constraint over the data.
fn single_projection_constraint(p: &Projection, data: &[Vec<f64>]) -> BoundedConstraint {
    let mut s = Summary::new();
    for r in data {
        s.update(p.evaluate(r));
    }
    let std = s.std().max(1e-9);
    BoundedConstraint {
        projection: p.clone(),
        lb: s.mean() - 4.0 * std,
        ub: s.mean() + 4.0 * std,
        mean: s.mean(),
        std,
        alpha: 1.0 / std,
    }
}

/// Mean violation of a single bounded constraint over rows.
fn mean_violation_single(c: &BoundedConstraint, data: &[Vec<f64>]) -> f64 {
    data.iter().map(|r| c.violation(r)).sum::<f64>() / data.len() as f64
}

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let serve_n = 5_000;
    let train = airlines(&AirlinesConfig { rows: 25_000, kind: FlightKind::Daytime, seed: 300 });
    let train_rows = rows(&train);
    let attrs: Vec<String> = ATTRS.map(String::from).to_vec();

    // Full conformance constraint (all projections).
    let cc = synthesize_simple(&train_rows, &attrs, &SynthOptions::default()).expect("synthesis");
    // "TLS-style" detector: only the single lowest-σ projection.
    let tls_proj = cc
        .conjuncts
        .iter()
        .min_by(|a, b| a.std.partial_cmp(&b.std).expect("finite"))
        .expect("nonempty")
        .projection
        .clone();
    let tls = single_projection_constraint(&tls_proj, &train_rows);

    // Serving set A: break the time invariant (overnight flights).
    let night = airlines(&AirlinesConfig { rows: serve_n, kind: FlightKind::Overnight, seed: 301 });
    let night_rows = rows(&night);

    // Serving set B: break the speed invariant only — keep AT = DT + DUR
    // but rescale distance (e.g. data now reported in km, not miles).
    let km = {
        let mut df =
            airlines(&AirlinesConfig { rows: serve_n, kind: FlightKind::Daytime, seed: 302 });
        let scaled: Vec<f64> =
            df.numeric("distance").expect("col").iter().map(|d| d * 1.609).collect();
        df = df.drop_column("distance").expect("col");
        df.push_numeric("distance", scaled).expect("fresh");
        df
    };
    let km_rows = rows(&km);

    let day =
        rows(&airlines(&AirlinesConfig { rows: serve_n, kind: FlightKind::Daytime, seed: 303 }));

    // Serving set C: corrupt along the SECOND-lowest-variance direction —
    // orthogonal to the TLS projection but inside the invariant subspace.
    // (Example 14: the lowest-σ projection is a composite of both
    // invariants; a single projection is blind to the orthogonal
    // combination, which CCSynth's second conjunct captures.)
    let mut low = cc.conjuncts.clone();
    low.sort_by(|a, b| a.std.partial_cmp(&b.std).expect("finite"));
    // Gram–Schmidt the second direction against the TLS projection (the
    // stripped eigenvectors are only approximately orthogonal).
    let t = &tls_proj.coefficients;
    let w2 = &low[1].projection.coefficients;
    let proj: f64 = w2.iter().zip(t).map(|(a, b)| a * b).sum();
    let w: Vec<f64> = w2.iter().zip(t).map(|(a, b)| a - proj * b).collect();
    let wnorm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
    let w: Vec<f64> = w.iter().map(|x| x / wnorm).collect();
    let ortho_rows: Vec<Vec<f64>> =
        day.iter().map(|r| r.iter().zip(&w).map(|(x, wi)| x + 200.0 * wi).collect()).collect();

    o.line(format!("{:<34} {:>12} {:>14}", "serving set", "full CC", "TLS-single"));
    let mut scores = Vec::new();
    for (label, data) in [
        ("daytime (conforming)", &day),
        ("overnight (time invariant broken)", &night_rows),
        ("km distances (speed inv. broken)", &km_rows),
        ("orthogonal low-variance corruption", &ortho_rows),
    ] {
        let v_cc = data.iter().map(|r| cc.violation(r)).sum::<f64>() / data.len() as f64;
        let v_tls = mean_violation_single(&tls, data);
        o.line(format!("{label:<34} {v_cc:>12.4} {v_tls:>14.4}"));
        scores.push((v_cc, v_tls));
    }

    let [_, (v_cc_night, _), _, (v_cc_ortho, v_tls_ortho)] = scores[..] else {
        unreachable!("four serving sets")
    };
    o.check(format!("full CC flags overnight flights ({v_cc_night:.3} > 0.1)"), v_cc_night > 0.1);
    o.check(
        format!("full CC flags the orthogonal corruption ({v_cc_ortho:.3} > 0.1)"),
        v_cc_ortho > 0.1,
    );
    o.check(
        format!("the single projection is blind to it ({v_tls_ortho:.3} < 0.2 × full CC)"),
        v_tls_ortho < 0.2 * v_cc_ortho,
    );
    o
}
