//! Fig. 8: drift quantification on all 16 EVL benchmark streams —
//! CCSynth vs PCA-SPLL (25% cumulative variance), CD-MKL and CD-Area —
//! each method's normalized drift curve against the stream's ground truth.
//!
//! Paper's reported shape: CCSynth tracks the ground truth on every
//! stream, including the *local-only* drifts (4CR, 4CRE-V2, FG-2C-2D)
//! where PCA-SPLL fails; CD variants are noisier and often miss magnitude
//! structure.

use crate::{series_row, Outcome, Size};
use cc_baselines::cd::CdOptions;
use cc_baselines::{CdDivergence, ChangeDetection, PcaSpll};
use cc_datagen::{evl_dataset, EVL_NAMES};
use cc_frame::DataFrame;
use cc_stats::{min_max_normalize, pcc};
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let n_windows = 11;
    let points = 200;

    const METHODS: [&str; 4] = ["CCSynth", "PCA-SPLL", "CD-MKL", "CD-Area"];
    let mut pcc_sums = [0.0f64; 4];
    let mut cc_wins = 0usize;
    let mut weak: Vec<String> = Vec::new();

    for name in EVL_NAMES {
        let ds = evl_dataset(name, n_windows, points, 800).expect("known stream");
        let reference = &ds.windows[0];

        let profile = synthesize(reference, &SynthOptions::default()).expect("synthesis");
        let spll = PcaSpll::fit(reference, &Default::default()).expect("spll fit");
        let cd = |divergence| {
            ChangeDetection::fit(reference, &CdOptions { divergence, ..Default::default() })
                .expect("cd fit")
        };
        let (mkl, area) = (cd(CdDivergence::MaxKl), cd(CdDivergence::Area));

        // Each method's drift per window, min-max normalized.
        let curve = |drift: &dyn Fn(&DataFrame) -> f64| {
            let mut series: Vec<f64> = ds.windows.iter().map(drift).collect();
            min_max_normalize(&mut series);
            series
        };
        let curves = [
            curve(&|w| dataset_drift(&profile, w, DriftAggregator::Mean).expect("eval")),
            curve(&|w| spll.drift(w).expect("eval")),
            curve(&|w| mkl.drift(w).expect("eval")),
            curve(&|w| area.drift(w).expect("eval")),
        ];
        let rhos = curves.each_ref().map(|c| pcc(c, &ds.ground_truth));
        for (sum, r) in pcc_sums.iter_mut().zip(rhos) {
            *sum += r;
        }
        if rhos[0] >= rhos[1].max(rhos[2]).max(rhos[3]) - 1e-9 {
            cc_wins += 1;
        }
        if rhos[0] < 0.75 {
            weak.push(format!("{name} {:.2}", rhos[0]));
        }

        o.line(format!("\n--- {name} ---"));
        o.line(series_row("truth", &ds.ground_truth));
        for ((method, c), r) in METHODS.iter().zip(&curves).zip(rhos) {
            o.line(format!("{}  pcc={r:+.2}", series_row(method, c)));
        }
    }

    let n = EVL_NAMES.len() as f64;
    let means = pcc_sums.map(|s| s / n);
    o.line("\n===== summary (mean pcc vs ground truth over 16 streams) =====");
    for (method, mean) in METHODS.iter().zip(means) {
        o.line(format!("{method:<8}: {mean:+.3}"));
    }
    o.line(format!("CCSynth best-or-tied on {cc_wins}/16 streams"));
    // Note: CC's curve is a hockey-stick by construction (zero violation
    // until drift exits the 4σ conformance zone, then a steep ramp), which
    // bounds pcc against smoothly-ramping ground truths — the paper's own
    // Fig-8 CC curves show the same lag.
    o.check(
        "CCSynth has the highest mean pcc of the four methods",
        means[0] >= means[1].max(means[2]).max(means[3]),
    );
    o.check(format!("CCSynth mean pcc = {:.3} > 0.85", means[0]), means[0] > 0.85);
    o.check(format!("CCSynth pcc ≥ 0.75 on every stream (below: {weak:?})"), weak.is_empty());
    o
}
