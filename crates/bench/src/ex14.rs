//! Example 14 / Equations (1)–(3): on daytime airlines data restricted to
//! {AT, DT, DUR, DIS}, Algorithm 1's lowest-variance projection is a linear
//! combination of the two interpretable invariants
//!
//!   (2)  AT − DT − DUR ≈ 0          (arrival = departure + duration)
//!   (3)  DUR − 0.12·DIS ≈ 0         (≈ 500 mph cruise speed)
//!
//! We verify the discovered projection lies in the span of (2) and (3), and
//! report its decomposition coefficients (paper: 0.7·(2) + 0.56·(3)).

use crate::{Outcome, Size};
use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use conformance::{synthesize_simple, Projection, SynthOptions};

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let df = airlines(&AirlinesConfig { rows: 30_000, kind: FlightKind::Daytime, seed: 140 });

    let attrs: Vec<String> =
        ["arr_time", "dep_time", "elapsed_time", "distance"].map(String::from).to_vec();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let rows = df.numeric_rows(&attr_refs).expect("columns exist");

    let sc = synthesize_simple(&rows, &attrs, &SynthOptions::default()).expect("synthesis");
    let best = sc
        .conjuncts
        .iter()
        .min_by(|a, b| a.std.partial_cmp(&b.std).expect("finite"))
        .expect("nonempty");
    o.line(format!("lowest-σ projection (σ = {:.3}):", best.std));
    o.line(format!("  F = {}", best.projection));

    // Decompose onto the two interpretable invariants:
    //   e2 = AT − DT − DUR, e3 = DUR − 0.12·DIS (as unit vectors).
    let e2 = Projection::new(attrs.clone(), vec![1.0, -1.0, -1.0, 0.0]).normalized().unwrap();
    let e3 = Projection::new(attrs.clone(), vec![0.0, 0.0, 1.0, -0.12]).normalized().unwrap();
    // Solve the 2×2 least-squares for F ≈ a·e2 + b·e3.
    let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
    let f = &best.projection.coefficients;
    let (g11, g12, g22) = (
        dot(&e2.coefficients, &e2.coefficients),
        dot(&e2.coefficients, &e3.coefficients),
        dot(&e3.coefficients, &e3.coefficients),
    );
    let (b1, b2) = (dot(f, &e2.coefficients), dot(f, &e3.coefficients));
    let det = g11 * g22 - g12 * g12;
    let a = (b1 * g22 - b2 * g12) / det;
    let b = (g11 * b2 - g12 * b1) / det;

    // Residual outside span{e2, e3}.
    let recon: Vec<f64> =
        e2.coefficients.iter().zip(&e3.coefficients).map(|(x, y)| a * x + b * y).collect();
    let resid: f64 = f.iter().zip(&recon).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();

    o.line("\ndecomposition onto the interpretable invariants:");
    o.line(format!("  F ≈ {a:+.3}·(AT − DT − DUR)/√3  {b:+.3}·(DUR − 0.12·DIS)/‖·‖"));
    o.line(format!("  residual outside span{{(2),(3)}} = {resid:.4}"));
    o.line("  (paper's Example 14: F = 0.7·(2) + 0.56·(3), i.e. both present)");

    o.check(format!("lowest σ = {:.3} < 10", best.std), best.std < 10.0);
    o.check(format!("residual outside span{{(2),(3)}} = {resid:.3} < 0.15"), resid < 0.15);
    o.check(
        format!(
            "both invariants present (|a| = {:.2} > 0.1, |b| = {:.2} > 0.05)",
            a.abs(),
            b.abs()
        ),
        a.abs() > 0.1 && b.abs() > 0.05,
    );
    o
}
