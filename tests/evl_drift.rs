//! Cross-crate integration: drift quantification on EVL streams (mini
//! Fig. 8) — CCSynth's drift curve must track each stream's ground truth,
//! including the purely-local 4CR rotation where global methods stay flat.

use cc_baselines::{CdDivergence, ChangeDetection, PcaSpll};
use cc_datagen::{evl_dataset, EVL_NAMES};
use cc_stats::{min_max_normalize, pcc};
use ccsynth::prelude::*;

fn cc_series(name: &str) -> (Vec<f64>, Vec<f64>) {
    let ds = evl_dataset(name, 9, 200, 5).unwrap();
    let profile = synthesize(&ds.windows[0], &SynthOptions::default()).unwrap();
    let mut series: Vec<f64> = ds
        .windows
        .iter()
        .map(|w| dataset_drift(&profile, w, DriftAggregator::Mean).unwrap())
        .collect();
    min_max_normalize(&mut series);
    (series, ds.ground_truth)
}

#[test]
fn ccsynth_tracks_ground_truth_on_all_streams() {
    let mut weak: Vec<(String, f64)> = Vec::new();
    for name in EVL_NAMES {
        let (series, gt) = cc_series(name);
        let rho = pcc(&series, &gt);
        if rho < 0.75 {
            weak.push((name.to_owned(), rho));
        }
    }
    assert!(weak.is_empty(), "CCSynth should track ground truth on every stream; weak: {weak:?}");
}

#[test]
fn local_drift_4cr_defeats_global_baselines() {
    let ds = evl_dataset("4CR", 9, 200, 11).unwrap();
    let reference = &ds.windows[0];
    let quarter = &ds.windows[2]; // θ = π/2: labels permuted, union unchanged

    let profile = synthesize(reference, &SynthOptions::default()).unwrap();
    let cc = dataset_drift(&profile, quarter, DriftAggregator::Mean).unwrap();

    // CD on the union distribution: barely moves at the quarter turn.
    let cd = ChangeDetection::fit(
        reference,
        &cc_baselines::cd::CdOptions { divergence: CdDivergence::Area, ..Default::default() },
    )
    .unwrap();
    let cd_q = cd.drift(quarter).unwrap();
    let cd_ref = cd.drift(reference).unwrap();

    assert!(cc > 0.3, "CCSynth must flag the label permutation, got {cc}");
    assert!(
        cd_q < cd_ref + 0.15,
        "CD sees (almost) no global change at the quarter turn: ref {cd_ref}, quarter {cd_q}"
    );
}

#[test]
fn spll_and_cd_see_global_translation() {
    // Sanity for the baselines. Note PCA-SPLL's known blind spot: it keeps
    // only LOW-variance components, so translation along the top PC (1CDT's
    // diagonal) is invisible to it — we check it on an expansion stream
    // (4CRE-V1) instead, where every direction changes.
    let ds = evl_dataset("1CDT", 6, 200, 13).unwrap();
    let reference = &ds.windows[0];
    let last = ds.windows.last().unwrap();

    let expand = evl_dataset("4CRE-V1", 6, 200, 13).unwrap();
    let spll = PcaSpll::fit(&expand.windows[0], &Default::default()).unwrap();
    assert!(
        spll.drift(expand.windows.last().unwrap()).unwrap()
            > 2.0 * spll.drift(&expand.windows[0]).unwrap()
    );

    for div in [CdDivergence::MaxKl, CdDivergence::Area] {
        let cd = ChangeDetection::fit(
            reference,
            &cc_baselines::cd::CdOptions { divergence: div, ..Default::default() },
        )
        .unwrap();
        let d_last = cd.drift(last).unwrap();
        let d_ref = cd.drift(reference).unwrap();
        assert!(d_last > d_ref + 0.1, "{div:?}: {d_ref} → {d_last}");
    }
}
