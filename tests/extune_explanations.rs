//! Cross-crate integration: ExTuNe responsibility rankings on the Fig-12
//! tabular datasets recover the attributes the generators actually shift.

use cc_datagen::tabular::{cardio, house, mobile};
use ccsynth::conformance::explain::mean_responsibility;
use ccsynth::prelude::*;

fn top_attributes(train: &DataFrame, serve: &DataFrame, k: usize) -> Vec<String> {
    let profile = synthesize(train, &SynthOptions::default()).unwrap();
    let sample = serve.take(&(0..150.min(serve.n_rows())).collect::<Vec<_>>());
    let ranked = mean_responsibility(&profile, train, &sample).unwrap();
    ranked.into_iter().take(k).map(|r| r.attribute).collect()
}

#[test]
fn cardio_blames_blood_pressure() {
    let (healthy, diseased) = cardio(3000, 31);
    let top = top_attributes(&healthy, &diseased, 3);
    assert!(
        top.iter().any(|a| a == "ap_hi" || a == "ap_lo"),
        "blood pressure should rank top-3, got {top:?}"
    );
}

#[test]
fn mobile_blames_ram() {
    let (cheap, expensive) = mobile(3000, 32);
    let top = top_attributes(&cheap, &expensive, 3);
    assert!(top.iter().any(|a| a == "ram"), "ram should rank top-3, got {top:?}");
}

#[test]
fn house_blame_is_spread() {
    let (cheap, expensive) = house(3000, 33);
    let profile = synthesize(&cheap, &SynthOptions::default()).unwrap();
    let sample = expensive.take(&(0..150).collect::<Vec<_>>());
    let ranked = mean_responsibility(&profile, &cheap, &sample).unwrap();
    // "Holistic": several attributes carry non-trivial responsibility
    // (the paper's Fig. 12(c) shows a long flat tail, unlike (a)/(b)).
    let substantial = ranked.iter().filter(|r| r.score > 0.05).count();
    assert!(substantial >= 5, "expected spread responsibility, got {ranked:?}");
}

#[test]
fn conforming_serving_set_blames_nobody() {
    let (healthy, _) = cardio(2000, 34);
    let profile = synthesize(&healthy, &SynthOptions::default()).unwrap();
    let sample = healthy.take(&(0..100).collect::<Vec<_>>());
    let ranked = mean_responsibility(&profile, &healthy, &sample).unwrap();
    assert!(
        ranked.iter().all(|r| r.score < 0.1),
        "healthy-on-healthy should have ≈0 responsibility: {ranked:?}"
    );
}
