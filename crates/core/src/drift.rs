//! Dataset-level drift quantification (§2, §6.2).
//!
//! Drift of a dataset `D'` from a reference `D` is the aggregation of
//! tuple-level violations of `D`'s conformance constraints over `D'`:
//! (1) learn constraints for `D`, (2) evaluate violations on every tuple of
//! `D'`, (3) aggregate. The paper aggregates by mean; max and quantile
//! aggregators are provided for robustness studies.

use crate::compiled::CompiledProfile;
use crate::constraint::{ConformanceProfile, ProfileError};
use cc_frame::DataFrame;
use serde::{Deserialize, Serialize};

/// How tuple-level violations are folded into one drift magnitude.
/// (Serializable so monitor configurations survive state snapshots.)
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DriftAggregator {
    /// Mean violation — the paper's choice.
    Mean,
    /// Maximum violation (sensitive to single outliers).
    Max,
    /// `p`-quantile of violations (e.g. 0.95 for robust tail drift).
    Quantile(f64),
}

impl DriftAggregator {
    /// Applies the aggregator to a violation vector (0 for empty input).
    pub fn aggregate(&self, violations: &[f64]) -> f64 {
        if violations.is_empty() {
            return 0.0;
        }
        match self {
            DriftAggregator::Mean => violations.iter().sum::<f64>() / violations.len() as f64,
            DriftAggregator::Max => violations.iter().fold(0.0f64, |m, &v| m.max(v)),
            DriftAggregator::Quantile(p) => cc_stats::quantile(violations, *p),
        }
    }

    /// Applies the aggregator to a compiled plan's violations over a
    /// frame, streaming for `Mean` and `Max` (no `O(n)` vector; the
    /// running fold visits rows left to right, bit-identical to
    /// [`Self::aggregate`] on the materialized vector). `Quantile` needs
    /// the full sorted sample and still materializes.
    ///
    /// # Errors
    /// Fails when the frame lacks attributes the plan needs.
    pub fn aggregate_compiled(
        &self,
        plan: &CompiledProfile,
        serving: &DataFrame,
    ) -> Result<f64, ProfileError> {
        match self {
            DriftAggregator::Mean => plan.mean_violation(serving),
            DriftAggregator::Max => {
                // Same fold as `aggregate`: starts at 0.0, so an empty
                // frame yields 0.0 without tracking emptiness.
                let mut max = 0.0f64;
                plan.for_each_violation(serving, |v| max = max.max(v))?;
                Ok(max)
            }
            DriftAggregator::Quantile(_) => Ok(self.aggregate(&plan.violations(serving)?)),
        }
    }
}

/// Drift of `serving` with respect to the profile learned from a reference
/// dataset. Compiles the profile once; callers scoring many windows
/// should compile once themselves ([`CompiledProfile::compile`], as
/// [`drift_series`] and the `cc_monitor` crate's monitors do) and use
/// [`DriftAggregator::aggregate_compiled`].
///
/// # Errors
/// Fails when the serving frame lacks attributes the profile needs.
pub fn dataset_drift(
    profile: &ConformanceProfile,
    serving: &DataFrame,
    aggregator: DriftAggregator,
) -> Result<f64, ProfileError> {
    aggregator.aggregate_compiled(&CompiledProfile::compile(profile), serving)
}

/// [`dataset_drift`] with violation evaluation sharded over `n_threads`
/// scoped threads — the serving-side counterpart of
/// [`crate::synthesize_parallel`] for monitoring large windows. Identical
/// result for every thread count (the parallel path materializes the
/// violation vector and aggregates it whole, so even the fold order
/// matches the sequential path bit for bit).
///
/// # Errors
/// Fails when the serving frame lacks attributes the profile needs.
pub fn dataset_drift_parallel(
    profile: &ConformanceProfile,
    serving: &DataFrame,
    aggregator: DriftAggregator,
    n_threads: usize,
) -> Result<f64, ProfileError> {
    if n_threads <= 1 {
        return dataset_drift(profile, serving, aggregator);
    }
    let plan = CompiledProfile::compile(profile);
    let violations = plan.violations_parallel(serving, n_threads)?;
    Ok(aggregator.aggregate(&violations))
}

/// Drift magnitude of each window in a stream relative to the same
/// reference profile (the shape plotted in the paper's Fig. 8). The
/// profile is compiled once and the plan reused across all windows.
///
/// # Errors
/// Fails when any window lacks attributes the profile needs.
pub fn drift_series(
    profile: &ConformanceProfile,
    windows: &[DataFrame],
    aggregator: DriftAggregator,
) -> Result<Vec<f64>, ProfileError> {
    let plan = CompiledProfile::compile(profile);
    windows.iter().map(|w| aggregator.aggregate_compiled(&plan, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};

    fn line_frame(slope: f64, offset: f64, n: usize) -> DataFrame {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + offset).collect();
        let mut df = DataFrame::new();
        df.push_numeric("x", xs).unwrap();
        df.push_numeric("y", ys).unwrap();
        df
    }

    #[test]
    fn aggregators() {
        let v = [0.0, 0.2, 0.4, 1.0];
        assert!((DriftAggregator::Mean.aggregate(&v) - 0.4).abs() < 1e-12);
        assert_eq!(DriftAggregator::Max.aggregate(&v), 1.0);
        assert!((DriftAggregator::Quantile(0.5).aggregate(&v) - 0.3).abs() < 1e-12);
        assert_eq!(DriftAggregator::Mean.aggregate(&[]), 0.0);
    }

    #[test]
    fn no_drift_for_same_distribution() {
        let train = line_frame(2.0, 1.0, 300);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let serve = line_frame(2.0, 1.0, 100);
        let d = dataset_drift(&profile, &serve, DriftAggregator::Mean).unwrap();
        assert!(d < 1e-6, "expected ≈0 drift, got {d}");
    }

    #[test]
    fn drift_grows_with_deviation() {
        let train = line_frame(2.0, 1.0, 300);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let mut last = -1.0;
        // Increasing slope perturbation ⇒ monotone non-decreasing drift.
        for step in 0..5 {
            let serve = line_frame(2.0 + step as f64 * 0.5, 1.0, 100);
            let d = dataset_drift(&profile, &serve, DriftAggregator::Mean).unwrap();
            assert!(d >= last - 1e-12, "drift not monotone: {d} after {last}");
            last = d;
        }
        assert!(last > 0.3, "large deviation should register, got {last}");
    }

    #[test]
    fn parallel_drift_identical_to_sequential() {
        let train = line_frame(2.0, 1.0, 500);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let serve = line_frame(2.3, 1.0, 333);
        let seq = dataset_drift(&profile, &serve, DriftAggregator::Mean).unwrap();
        for threads in [1, 2, 3, 8] {
            let par =
                dataset_drift_parallel(&profile, &serve, DriftAggregator::Mean, threads).unwrap();
            assert_eq!(seq.to_bits(), par.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn drift_series_shape() {
        let train = line_frame(2.0, 1.0, 300);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let windows: Vec<DataFrame> = (0..4).map(|k| line_frame(2.0 + k as f64, 1.0, 50)).collect();
        let series = drift_series(&profile, &windows, DriftAggregator::Mean).unwrap();
        assert_eq!(series.len(), 4);
        assert!(series[0] < 1e-6);
        assert!(series[3] > series[1]);
    }
}
