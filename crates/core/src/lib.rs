//! # conformance — Conformance Constraint Discovery (CCSynth)
//!
//! Rust implementation of *"Conformance Constraint Discovery: Measuring
//! Trust in Data-Driven Systems"* (Fariha, Tiwari, Radhakrishna, Gulwani,
//! Meliou — SIGMOD 2021).
//!
//! A **conformance constraint** characterizes the tuples a dataset considers
//! "normal" through bounds on *projections* — linear combinations of the
//! numerical attributes. The paper's central insight: **low-variance
//! projections make strong constraints**, and the low-variance principal
//! components of the (constant-augmented) dataset provide an optimal,
//! mutually-uncorrelated set of them in one shot (Theorem 13).
//!
//! ## Quick example
//!
//! ```
//! use cc_frame::DataFrame;
//! use conformance::{synthesize, SynthOptions};
//!
//! // A dataset where y ≈ 2x + 1 (a hidden invariant).
//! let mut df = DataFrame::new();
//! let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
//! df.push_numeric("x", xs).unwrap();
//! df.push_numeric("y", ys).unwrap();
//!
//! let profile = synthesize(&df, &SynthOptions::default()).unwrap();
//!
//! // A conforming tuple (on the line):
//! let ok = profile.violation(&[5.0, 11.0], &[]).unwrap();
//! // A non-conforming tuple (far off the line):
//! let bad = profile.violation(&[5.0, 40.0], &[]).unwrap();
//! assert!(ok < 0.1, "on-trend tuple should conform, got {ok}");
//! assert!(bad > 0.7, "off-trend tuple should violate, got {bad}");
//! ```
//!
//! ## The unified sufficient-statistics flow
//!
//! Since §4.3.2 everything synthesis needs derives from the augmented Gram
//! matrix, every synthesis surface in this crate is a thin shell over one
//! internal engine (`engine`, crate-private) built on
//! [`cc_linalg::SufficientStats`] — a mergeable accumulator of
//! `(n, μ, centered co-moments, per-attribute min/max)`:
//!
//! ```text
//!  synthesize ───────────┐        tuples, in fixed row blocks
//!  synthesize_parallel ──┼──► SufficientStats ──► eigen ──► profile
//!  StreamingSynthesizer ─┘        (global + one per partition value)
//! ```
//!
//! Accumulation happens in fixed-size row blocks folded in block order, so
//! the three paths are **bit-identical** on the same data:
//! [`synthesize_parallel`] only changes which thread computes each block,
//! and [`StreamingSynthesizer`] replays the same block boundaries one
//! tuple at a time (compound/partitioned constraints included, via
//! [`StreamingSynthesizer::with_partitions`]). Serving-side evaluation
//! shards the same way ([`ConformanceProfile::violations_parallel`],
//! [`dataset_drift_parallel`]).
//!
//! ## Compile-once / evaluate-many serving
//!
//! Discovery runs rarely; *evaluation* sits inline in inference and
//! monitoring. The [`compiled`] module lowers a profile once into a flat
//! [`CompiledProfile`] plan — dense coefficient matrix, parallel
//! `lb/ub/α/γ` arrays, dictionary-code → case-index partition tables —
//! evaluated in fixed row blocks through `cc_linalg`'s blocked kernel,
//! **bit-identical** to the interpreted reference path
//! ([`ConformanceProfile::violations_interpreted`]). Every serving
//! surface (violations, drift, the safety envelope, ExTuNe) routes
//! through it; long-lived monitors (the `cc_monitor` crate's
//! `OnlineMonitor`) cache the plan.
//!
//! ## Module map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`projection`] | §3.1 (projections) |
//! | [`constraint`] | §3.1–3.2 (language + quantitative semantics) |
//! | [`compiled`] | §2, Fig. 11 (compiled serving engine: compile once, evaluate many) |
//! | [`synth`] | §4.1 (Algorithm 1), §4.2 (compound constraints), §4.3.2 (sharded parallelism) |
//! | [`streaming`] | §4.3.2 (one-pass / mergeable synthesis; block absorption for resynthesis) |
//! | [`drift`] | §2, §6.2 (dataset-level drift, parallel evaluation, windowed [`drift_series`]) |
//! | [`tml`] | §5 (trusted machine learning, unsafe tuples) |
//! | [`explain`] | Appendix K (ExTuNe responsibility, per-constraint breakdown) |
//! | [`tree`] | §8 (decision-tree-guided constraints, future work) |
//!
//! Online deployments — tuple-at-a-time ingest, tumbling/sliding windows,
//! change-point detection on the drift series, and auto-resynthesis of
//! candidate profiles — live in the `cc_monitor` crate, which builds on
//! [`drift`] (compiled-plan scoring), [`streaming`]
//! ([`StreamingSynthesizer::absorb_stats`]), and
//! [`cc_linalg::SufficientStats`]'s ring-merge helpers.

pub mod compiled;
pub mod constraint;
pub mod drift;
mod engine;
pub mod explain;
pub mod features;
pub mod impute;
pub mod projection;
pub mod sql;
pub mod streaming;
pub mod synth;
pub mod theory;
pub mod tml;
pub mod tree;

pub use compiled::{CompiledProfile, EVAL_BLOCK_ROWS};
pub use constraint::{
    BoundedConstraint, ConformanceProfile, DisjunctiveConstraint, ProfileError, SimpleConstraint,
};
pub use drift::{dataset_drift, dataset_drift_parallel, drift_series, DriftAggregator};
pub use explain::{
    breakdown_from_plan, mean_responsibility, mean_responsibility_from_plan, profile_breakdown,
    responsibility, top_k_desc, ConstraintContribution, Responsibility,
};
pub use features::{expand_quadratic, expand_tuple};
pub use impute::{impute_all, impute_missing};
pub use projection::Projection;
pub use sql::profile_to_sql;
pub use streaming::StreamingSynthesizer;
pub use synth::{synthesize, synthesize_parallel, synthesize_simple, SynthError, SynthOptions};
pub use tml::{select_model, SafetyEnvelope, SafetyVerdict};
pub use tree::{synthesize_tree, TreeOptions, TreeProfile};

/// η(z) = 1 − e^(−z): the paper's normalization function mapping
/// `[0, ∞) → [0, 1)` (§3.2). Monotone, 0 ↦ 0.
#[inline]
pub fn eta(z: f64) -> f64 {
    1.0 - (-z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_properties() {
        assert_eq!(eta(0.0), 0.0);
        assert!(eta(1e9) <= 1.0);
        assert!((eta(1e9) - 1.0).abs() < 1e-12);
        // Monotone.
        let mut prev = -1.0;
        for i in 0..100 {
            let v = eta(i as f64 / 10.0);
            assert!(v > prev);
            prev = v;
        }
    }
}
