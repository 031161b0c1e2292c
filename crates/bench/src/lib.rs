//! The paper's tables and figures as one table of gated figure functions.
//!
//! Each entry of [`FIGURES`] regenerates one table or figure of the paper's
//! evaluation (or an ablation beyond it) as an [`Outcome`]: the rows and
//! series the paper reports, plus named checks of the claims it makes from
//! them. Two callers run the table:
//!
//! - `cargo bench -p cc_bench [-- <figure>]` (`benches/paper.rs`) runs every
//!   figure whose id contains one of the given filters (all of them when
//!   none is given) at [`Size::Paper`], prints each report and its checks,
//!   and exits non-zero when a check fails;
//! - `cargo test -p cc_bench` (`tests/figures.rs`) runs each figure at
//!   [`Size::Smoke`], one `#[test]` per figure.
//!
//! Serving and ingest throughput are not measured here: the repo
//! benchmark (`bash ccbench/run.sh`) drives the real daemon for those.

use cc_frame::DataFrame;
use cc_models::accuracy;
use cc_models::logreg::{LogRegOptions, LogisticRegression};
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};
use std::fmt;

pub mod ablations;
pub mod appendix_l;
pub mod ex14;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6a;
pub mod fig6b;
pub mod fig6c;
pub mod fig7;
pub mod fig8;
pub mod scalability;

/// How large a figure's inputs are.
///
/// Both sizes use the same seeds and the same check thresholds; `Smoke`
/// only cuts row, repeat or window counts so that a debug `cargo test`
/// stays fast.
#[derive(Clone, Copy, Debug)]
pub enum Size {
    /// The sizes the figure is reported at.
    Paper,
    /// Cut-down sizes for the test suite.
    Smoke,
}

impl Size {
    /// `paper` at [`Size::Paper`], `smoke` at [`Size::Smoke`].
    pub fn pick<T>(self, paper: T, smoke: T) -> T {
        match self {
            Size::Paper => paper,
            Size::Smoke => smoke,
        }
    }
}

/// One named claim of a figure and whether this run upholds it.
#[derive(Debug)]
struct Check {
    claim: String,
    holds: bool,
}

/// What a figure produced: its printed report and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    report: String,
    checks: Vec<Check>,
}

impl Outcome {
    /// Appends one line to the report.
    pub fn line(&mut self, text: impl fmt::Display) {
        self.report.push_str(&text.to_string());
        self.report.push('\n');
    }

    /// Records a claim and whether it holds.
    pub fn check(&mut self, claim: impl Into<String>, holds: bool) {
        self.checks.push(Check { claim: claim.into(), holds });
    }

    /// Whether every check holds.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\nchecks:", self.report)?;
        for c in &self.checks {
            writeln!(f, "  [{}] {}", if c.holds { "ok" } else { "FAIL" }, c.claim)?;
        }
        Ok(())
    }
}

/// One table or figure of the evaluation.
pub struct Figure {
    /// Short id, also the `cargo bench` filter and the test name.
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(Size) -> Outcome,
}

/// Every figure, in the paper's order (ablations and timings last).
pub const FIGURES: &[Figure] = &[
    Figure { id: "fig4", title: "airlines TML: violation tracks regression error", run: fig4::run },
    Figure { id: "fig5", title: "violation vs per-tuple regression error (Mixed)", run: fig5::run },
    Figure { id: "fig6a", title: "HAR: mobile mix vs violation & accuracy-drop", run: fig6a::run },
    Figure { id: "fig6b", title: "HAR: train noise vs violation & accuracy-drop", run: fig6b::run },
    Figure { id: "fig6c", title: "gradual local drift: CCSynth vs W-PCA", run: fig6c::run },
    Figure { id: "fig7", title: "inter-person violation heat map (15×15)", run: fig7::run },
    Figure { id: "fig8", title: "EVL: CCSynth vs PCA-SPLL vs CD-MKL vs CD-Area", run: fig8::run },
    Figure { id: "fig11", title: "inter-activity violation heat map (5×5)", run: fig11::run },
    Figure { id: "fig12", title: "ExTuNe responsibility for non-conformance", run: fig12::run },
    Figure { id: "ex14", title: "the composite airlines projection (Eq. 1–3)", run: ex14::run },
    Figure { id: "appendix_l", title: "CC vs a single lowest-σ projection", run: appendix_l::run },
    Figure { id: "ablations", title: "design choices beyond the paper", run: ablations::run },
    Figure { id: "scalability", title: "synthesis time vs n and m", run: scalability::run },
];

/// Formats a normalized series as a compact sparkline-ish row.
pub fn series_row(label: &str, series: &[f64]) -> String {
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let cells: String =
        series.iter().map(|&v| GLYPHS[((v.clamp(0.0, 1.0)) * 8.0).round() as usize]).collect();
    let nums: Vec<String> = series.iter().map(|v| format!("{v:.2}")).collect();
    format!("{label:<10} |{cells}|  [{}]", nums.join(", "))
}

/// Numeric-row view over all numeric attributes.
pub fn all_numeric_rows(df: &DataFrame) -> Vec<Vec<f64>> {
    let names: Vec<&str> = df.numeric_names();
    df.numeric_rows(&names).expect("numeric columns exist")
}

/// Keeps only the rows of `df` whose `column` value is in `wanted`.
pub fn filter_categorical(df: &DataFrame, column: &str, wanted: &[&str]) -> DataFrame {
    let (codes, dict) = df.categorical(column).expect("categorical column");
    let keep: Vec<u32> = dict
        .iter()
        .enumerate()
        .filter(|(_, d)| wanted.contains(&d.as_str()))
        .map(|(i, _)| i as u32)
        .collect();
    let idx: Vec<usize> = (0..df.n_rows()).filter(|&i| keep.contains(&codes[i])).collect();
    df.take(&idx)
}

/// Airlines regression inputs: every numeric attribute but the target
/// `arrival_delay` as covariates, and the target.
pub fn regression_io(df: &DataFrame) -> (Vec<Vec<f64>>, Vec<f64>) {
    let covariates: Vec<&str> =
        df.numeric_names().into_iter().filter(|n| *n != "arrival_delay").collect();
    (
        df.numeric_rows(&covariates).expect("columns exist"),
        df.numeric("arrival_delay").expect("target exists").to_vec(),
    )
}

/// The first `n` rows of `df` (all of them if it is shorter).
pub fn head(df: &DataFrame, n: usize) -> DataFrame {
    df.take(&(0..n.min(df.n_rows())).collect::<Vec<_>>())
}

/// `df` split into its first half and the rest.
pub fn halves(df: &DataFrame) -> (DataFrame, DataFrame) {
    let half = df.n_rows() / 2;
    (head(df, half), df.take(&(half..df.n_rows()).collect::<Vec<_>>()))
}

/// Heat map of groups against each other: synthesizes a profile from the
/// first half of each group, and cell `[a][b]` is the mean violation of
/// group `b`'s second half against group `a`'s profile.
pub fn cross_violations(groups: &[DataFrame], opts: &SynthOptions) -> Vec<Vec<f64>> {
    let (profiles, held): (Vec<_>, Vec<_>) = groups
        .iter()
        .map(|g| {
            let (train, held) = halves(g);
            (synthesize(&train, opts).expect("synthesis"), held)
        })
        .unzip();
    profiles
        .iter()
        .map(|p| {
            held.iter().map(|h| dataset_drift(p, h, DriftAggregator::Mean).expect("eval")).collect()
        })
        .collect()
}

/// HAR person id of every row (the `person` column holds `p0`, `p1`, …).
pub fn person_labels(df: &DataFrame) -> Vec<usize> {
    let (codes, dict) = df.categorical("person").expect("person column");
    codes.iter().map(|&c| dict[c as usize][1..].parse().expect("pN label")).collect()
}

/// A classifier of the HAR person from all numeric channels of `train`.
pub fn person_classifier(train: &DataFrame, persons: usize, epochs: usize) -> LogisticRegression {
    let opts = LogRegOptions { epochs, ..Default::default() };
    LogisticRegression::fit(&all_numeric_rows(train), &person_labels(train), persons, &opts)
        .expect("classifier trains")
}

/// Accuracy of a person classifier on `df`.
pub fn person_accuracy(model: &LogisticRegression, df: &DataFrame) -> f64 {
    accuracy(&model.predict_all(&all_numeric_rows(df)), &person_labels(df))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_row_renders() {
        let s = series_row("test", &[0.0, 0.5, 1.0]);
        assert!(s.contains("test"));
        assert!(s.contains("1.00"));
    }

    #[test]
    fn filter_categorical_works() {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.0, 2.0, 3.0]).unwrap();
        df.push_categorical("g", &["a", "b", "a"]).unwrap();
        let f = filter_categorical(&df, "g", &["a"]);
        assert_eq!(f.n_rows(), 2);
    }

    #[test]
    fn outcome_passes_only_when_every_check_holds() {
        let mut o = Outcome::default();
        o.line("row");
        o.check("a", true);
        assert!(o.passed());
        o.check("b", false);
        assert!(!o.passed());
        let text = o.to_string();
        assert!(text.starts_with("row\n"));
        assert!(text.contains("[ok] a") && text.contains("[FAIL] b"));
    }
}
