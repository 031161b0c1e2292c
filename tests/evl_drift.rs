//! Cross-crate integration: drift on EVL streams — CCSynth flags the
//! purely-local 4CR rotation where global methods stay flat, and the
//! baselines see a global change.

use cc_baselines::{CdDivergence, ChangeDetection, PcaSpll};
use cc_datagen::evl_dataset;
use ccsynth::prelude::*;

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
