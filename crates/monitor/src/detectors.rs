//! Change-point detection on the window drift series.
//!
//! Three classical one-sided (upward — drift grows when data stops
//! conforming) sequential detectors, each calibrated from a reference
//! drift sample (the drift of reference windows against their own
//! profile, see [`crate::OnlineMonitor::with_reference`]):
//!
//! * **EWMA control band** — smooth the series with
//!   `z ← λ·x + (1−λ)·z` and alarm when `z` leaves the band
//!   `μ₀ + L·σ₀·√(λ/(2−λ))` (Roberts' EWMA chart);
//! * **CUSUM** — accumulate `S ← max(0, S + (x − μ₀ − κ·σ₀))` and alarm
//!   at `S > h·σ₀` (Page's cumulative sum);
//! * **Page–Hinkley** — accumulate `m ← m + (x − μ₀ − δ)` and alarm when
//!   `m − min m` exceeds `λ_PH`.
//!
//! All three share a [`Baseline`] (reference mean and floored standard
//! deviation) so their thresholds scale with the reference window's own
//! noise instead of hard-coded magic drift values.

use serde::{Deserialize, Serialize};

/// Which sequential detector scores the drift series.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// EWMA control band.
    Ewma,
    /// One-sided CUSUM.
    Cusum,
    /// Page–Hinkley.
    PageHinkley,
}

impl DetectorKind {
    /// Parses the CLI / HTTP spelling (`ewma`, `cusum`,
    /// `page-hinkley`/`ph`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ewma" => Some(DetectorKind::Ewma),
            "cusum" => Some(DetectorKind::Cusum),
            "page-hinkley" | "ph" => Some(DetectorKind::PageHinkley),
            _ => None,
        }
    }

    /// The canonical spelling ([`Self::parse`]'s first accepted form).
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::Ewma => "ewma",
            DetectorKind::Cusum => "cusum",
            DetectorKind::PageHinkley => "page-hinkley",
        }
    }
}

/// Reference statistics of the stationary drift series: mean and a
/// floored standard deviation (a perfectly flat reference must not
/// produce a zero-width band that alarms on the first rounding wiggle).
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    /// Reference mean drift.
    pub mean: f64,
    /// Floored reference standard deviation (see [`Baseline::floor`]).
    pub std: f64,
}

// Persistence impls are manual so every float survives bit-exactly
// (see `serde::lossless`); this struct lands in state snapshots.
impl Serialize for Baseline {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("mean".to_owned(), serde::lossless::f64_to_value(self.mean)),
            ("std".to_owned(), serde::lossless::f64_to_value(self.std)),
        ])
    }
}

impl Deserialize for Baseline {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Baseline {
            mean: serde::lossless::f64_from_value(v.field("mean")?)?,
            std: serde::lossless::f64_from_value(v.field("std")?)?,
        })
    }
}

impl Baseline {
    /// Minimum usable σ₀: the larger of an absolute floor (drift lives in
    /// `[0, 1]`, so 10⁻⁴ is far below any meaningful shift) and 5% of the
    /// reference mean.
    pub fn floor(mean: f64) -> f64 {
        (0.05 * mean.abs()).max(1e-4)
    }

    /// Calibrates from a reference drift sample (population σ, floored).
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn from_reference(drifts: &[f64]) -> Self {
        assert!(!drifts.is_empty(), "Baseline::from_reference: empty reference sample");
        let n = drifts.len() as f64;
        let mean = drifts.iter().sum::<f64>() / n;
        let var = drifts.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        Baseline { mean, std: var.sqrt().max(Self::floor(mean)) }
    }
}

/// Detector tuning. Defaults are the textbook settings, conservative
/// enough that a stationary reference-like series never alarms while a
/// sustained level shift of a few σ₀ fires within a handful of windows.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DetectorParams {
    /// EWMA smoothing weight λ ∈ (0, 1].
    pub lambda: f64,
    /// EWMA band width in asymptotic σ units (L).
    pub l: f64,
    /// CUSUM slack κ, in σ₀ units.
    pub kappa: f64,
    /// CUSUM decision threshold h, in σ₀ units.
    pub h: f64,
    /// Page–Hinkley tolerance δ, in σ₀ units.
    pub ph_delta: f64,
    /// Page–Hinkley threshold λ_PH, in σ₀ units.
    pub ph_lambda: f64,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams { lambda: 0.3, l: 4.0, kappa: 0.5, h: 6.0, ph_delta: 0.5, ph_lambda: 6.0 }
    }
}

/// One observation's verdict.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Decision {
    /// The detector statistic after this observation (EWMA level, CUSUM
    /// sum, or Page–Hinkley excursion).
    pub stat: f64,
    /// The alarm threshold the statistic is compared against.
    pub threshold: f64,
    /// Whether the statistic breached the threshold.
    pub alarm: bool,
}

/// A calibrated, armed sequential detector.
#[derive(Clone, Debug)]
pub struct Detector {
    kind: DetectorKind,
    baseline: Baseline,
    params: DetectorParams,
    /// EWMA level (also maintained for the other kinds, as the smoothed
    /// drift surfaced in status reports).
    ewma: f64,
    cusum: f64,
    ph_cum: f64,
    ph_min: f64,
}

impl Detector {
    /// Arms a detector of the given kind against a calibrated baseline.
    pub fn new(kind: DetectorKind, baseline: Baseline, params: DetectorParams) -> Self {
        Detector {
            kind,
            baseline,
            params,
            ewma: baseline.mean,
            cusum: 0.0,
            ph_cum: 0.0,
            ph_min: 0.0,
        }
    }

    /// The detector kind.
    pub fn kind(&self) -> DetectorKind {
        self.kind
    }

    /// The calibrated baseline.
    pub fn baseline(&self) -> Baseline {
        self.baseline
    }

    /// The current EWMA-smoothed drift level (maintained for every kind).
    pub fn smoothed(&self) -> f64 {
        self.ewma
    }

    /// Absorbs one drift observation and reports the verdict.
    pub fn observe(&mut self, x: f64) -> Decision {
        let (mu, sigma) = (self.baseline.mean, self.baseline.std);
        let p = self.params;
        self.ewma = p.lambda * x + (1.0 - p.lambda) * self.ewma;
        match self.kind {
            DetectorKind::Ewma => {
                let band = p.l * sigma * (p.lambda / (2.0 - p.lambda)).sqrt();
                let threshold = mu + band;
                Decision { stat: self.ewma, threshold, alarm: self.ewma > threshold }
            }
            DetectorKind::Cusum => {
                self.cusum = (self.cusum + (x - mu - p.kappa * sigma)).max(0.0);
                let threshold = p.h * sigma;
                Decision { stat: self.cusum, threshold, alarm: self.cusum > threshold }
            }
            DetectorKind::PageHinkley => {
                self.ph_cum += x - mu - p.ph_delta * sigma;
                self.ph_min = self.ph_min.min(self.ph_cum);
                let stat = self.ph_cum - self.ph_min;
                let threshold = p.ph_lambda * sigma;
                Decision { stat, threshold, alarm: stat > threshold }
            }
        }
    }

    /// Resets the sequential state (keeps the calibration) — e.g. after
    /// an alarm episode has been acted on.
    pub fn reset(&mut self) {
        self.ewma = self.baseline.mean;
        self.cusum = 0.0;
        self.ph_cum = 0.0;
        self.ph_min = 0.0;
    }

    /// A serializable snapshot of the full detector state (calibration
    /// *and* sequential accumulators).
    pub fn state(&self) -> DetectorState {
        DetectorState {
            kind: self.kind,
            baseline: self.baseline,
            params: self.params,
            ewma: self.ewma,
            cusum: self.cusum,
            ph_cum: self.ph_cum,
            ph_min: self.ph_min,
        }
    }

    /// Rebuilds a detector from a snapshot; the restored detector's next
    /// [`Self::observe`] is bit-identical to the original's.
    pub fn from_state(s: DetectorState) -> Self {
        Detector {
            kind: s.kind,
            baseline: s.baseline,
            params: s.params,
            ewma: s.ewma,
            cusum: s.cusum,
            ph_cum: s.ph_cum,
            ph_min: s.ph_min,
        }
    }
}

/// The serializable image of a [`Detector`] — calibration plus the
/// sequential accumulators (EWMA level, CUSUM sum, Page–Hinkley
/// cumulative/minimum). The accumulators persist through the lossless
/// `f64` encoding (`serde::lossless`), so a snapshot → restore
/// round-trip is bit-exact even for non-finite values.
#[derive(Clone, Copy, Debug)]
pub struct DetectorState {
    /// Detector kind.
    pub kind: DetectorKind,
    /// Calibrated reference statistics.
    pub baseline: Baseline,
    /// Tuning parameters.
    pub params: DetectorParams,
    /// EWMA level (maintained for every kind).
    pub ewma: f64,
    /// CUSUM accumulator.
    pub cusum: f64,
    /// Page–Hinkley cumulative sum.
    pub ph_cum: f64,
    /// Page–Hinkley running minimum.
    pub ph_min: f64,
}

impl Serialize for DetectorState {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kind".to_owned(), self.kind.to_value()),
            ("baseline".to_owned(), self.baseline.to_value()),
            ("params".to_owned(), self.params.to_value()),
            ("ewma".to_owned(), serde::lossless::f64_to_value(self.ewma)),
            ("cusum".to_owned(), serde::lossless::f64_to_value(self.cusum)),
            ("ph_cum".to_owned(), serde::lossless::f64_to_value(self.ph_cum)),
            ("ph_min".to_owned(), serde::lossless::f64_to_value(self.ph_min)),
        ])
    }
}

impl Deserialize for DetectorState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(DetectorState {
            kind: Deserialize::from_value(v.field("kind")?)?,
            baseline: Deserialize::from_value(v.field("baseline")?)?,
            params: Deserialize::from_value(v.field("params")?)?,
            ewma: serde::lossless::f64_from_value(v.field("ewma")?)?,
            cusum: serde::lossless::f64_from_value(v.field("cusum")?)?,
            ph_cum: serde::lossless::f64_from_value(v.field("ph_cum")?)?,
            ph_min: serde::lossless::f64_from_value(v.field("ph_min")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stationary series around `mean` with deterministic ±`amp` noise.
    fn stationary(mean: f64, amp: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| mean + amp * ((i * 31 % 13) as f64 / 6.0 - 1.0)).collect()
    }

    fn run(kind: DetectorKind, series: &[f64], baseline: &[f64]) -> Vec<bool> {
        let mut det = Detector::new(kind, Baseline::from_reference(baseline), Default::default());
        series.iter().map(|&x| det.observe(x).alarm).collect()
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(DetectorKind::parse("ewma"), Some(DetectorKind::Ewma));
        assert_eq!(DetectorKind::parse("cusum"), Some(DetectorKind::Cusum));
        assert_eq!(DetectorKind::parse("ph"), Some(DetectorKind::PageHinkley));
        assert_eq!(DetectorKind::parse("page-hinkley"), Some(DetectorKind::PageHinkley));
        assert_eq!(DetectorKind::parse("bogus"), None);
        assert_eq!(DetectorKind::PageHinkley.name(), "page-hinkley");
    }

    #[test]
    fn baseline_floors_sigma() {
        let flat = Baseline::from_reference(&[0.2; 16]);
        assert!((flat.mean - 0.2).abs() < 1e-12);
        assert!(flat.std >= 0.05 * flat.mean);
        let noisy = Baseline::from_reference(&stationary(0.2, 0.05, 64));
        assert!(noisy.std > flat.std);
    }

    #[test]
    fn no_alarms_on_stationary_series() {
        let reference = stationary(0.1, 0.02, 32);
        let series = stationary(0.1, 0.02, 200);
        for kind in [DetectorKind::Ewma, DetectorKind::Cusum, DetectorKind::PageHinkley] {
            let alarms = run(kind, &series, &reference);
            assert!(alarms.iter().all(|a| !a), "{kind:?} false-alarmed on stationary data");
        }
    }

    #[test]
    fn level_shift_detected_quickly_by_all_kinds() {
        let reference = stationary(0.1, 0.02, 32);
        let mut series = stationary(0.1, 0.02, 40);
        series.extend(stationary(0.45, 0.02, 20)); // a large sustained shift
        for kind in [DetectorKind::Ewma, DetectorKind::Cusum, DetectorKind::PageHinkley] {
            let alarms = run(kind, &series, &reference);
            assert!(alarms[..40].iter().all(|a| !a), "{kind:?} alarmed before the shift");
            let delay = alarms[40..].iter().position(|&a| a);
            assert!(
                delay.is_some_and(|d| d <= 8),
                "{kind:?} took {delay:?} windows to notice the shift"
            );
        }
    }

    #[test]
    fn reset_clears_sequential_state() {
        let reference = stationary(0.1, 0.02, 32);
        let mut det = Detector::new(
            DetectorKind::Cusum,
            Baseline::from_reference(&reference),
            Default::default(),
        );
        for _ in 0..20 {
            det.observe(0.5);
        }
        assert!(det.observe(0.5).alarm);
        det.reset();
        assert!(!det.observe(0.1).alarm);
        assert_eq!(det.smoothed(), 0.3 * 0.1 + 0.7 * det.baseline().mean);
    }
}
