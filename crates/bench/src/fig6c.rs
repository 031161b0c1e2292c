//! Fig. 6(c): gradual local drift on HAR. Start from a snapshot where each
//! of the 15 persons performs one fixed activity; as K = 1..15 persons
//! switch activities, CCSynth's disjunctive constraints register steadily
//! growing drift while the global W-PCA baseline stays nearly flat (it only
//! sees "a group of people performing some activities").

use crate::{person_labels, Outcome, Size};
use cc_baselines::WPca;
use cc_datagen::{har, HarConfig, ACTIVITIES};
use cc_frame::DataFrame;
use cc_stats::pcc;
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

/// Snapshot where persons `0..switched` have moved to the "next" activity
/// and everyone else performs their initial one.
fn snapshot(df: &DataFrame, persons: usize, switched: usize) -> DataFrame {
    let (acodes, adict) = df.categorical("activity").expect("activity column");
    let idx: Vec<usize> = person_labels(df)
        .into_iter()
        .enumerate()
        .filter(|&(i, person)| {
            if person >= persons {
                return false;
            }
            let initial = ACTIVITIES[person % 5];
            let next = ACTIVITIES[(person + 1) % 5];
            let wanted = if person < switched { next } else { initial };
            adict[acodes[i] as usize] == wanted
        })
        .map(|(i, _)| i)
        .collect();
    df.take(&idx)
}

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    let persons = 15;
    let repeats = size.pick(3, 1);
    let ks: Vec<usize> = (1..=persons).collect();

    let mut cc_mean = vec![0.0; ks.len()];
    let mut wp_mean = vec![0.0; ks.len()];
    for rep in 0..repeats {
        let df = har(&HarConfig { persons, samples_per_pair: 60, seed: 700 + rep as u64 });
        let initial = snapshot(&df, persons, 0);
        let profile = synthesize(&initial, &SynthOptions::default()).expect("synthesis");
        let wpca = WPca::fit(&initial).expect("wpca fit");
        for (i, &k) in ks.iter().enumerate() {
            let drifted = snapshot(&df, persons, k);
            cc_mean[i] += dataset_drift(&profile, &drifted, DriftAggregator::Mean).expect("eval")
                / repeats as f64;
            wp_mean[i] += wpca.drift(&drifted).expect("eval") / repeats as f64;
        }
    }

    o.line(format!("{:>10} {:>14} {:>12}", "#persons", "CCSynth", "W-PCA"));
    for (i, &k) in ks.iter().enumerate() {
        o.line(format!("{k:>10} {:>14.4} {:>12.4}", cc_mean[i], wp_mean[i]));
    }

    let kf: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let rho_cc = pcc(&kf, &cc_mean);
    o.line(format!("\npcc(K, CCSynth drift) = {rho_cc:.3}"));

    let (cc_last, wp_last) = (cc_mean[ks.len() - 1], wp_mean[ks.len() - 1]);
    o.check(format!("pcc(K, CCSynth drift) = {rho_cc:.3} > 0.95"), rho_cc > 0.95);
    o.check(
        format!("at K = {persons}, CCSynth > 3 × W-PCA ({cc_last:.3} vs {wp_last:.3})"),
        cc_last > 3.0 * wp_last.max(0.02),
    );
    o.check(
        format!("CCSynth rises by > 0.1 from K = 1 to K = {persons}"),
        cc_last > cc_mean[0] + 0.1,
    );
    o
}
