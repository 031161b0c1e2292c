//! Fig. 6(b): noise sensitivity. Mixing mobile-activity "noise" into the
//! sedentary TRAINING set weakens the learned constraints, so violations of
//! a mobile serving set shrink — and the classifier simultaneously becomes
//! more robust (smaller accuracy-drop). Both curves decrease together
//! (paper: pcc = 0.82).

use crate::{filter_categorical, halves, head, person_accuracy, person_classifier, Outcome, Size};
use cc_datagen::{har, HarConfig, MOBILE_ACTIVITIES, SEDENTARY_ACTIVITIES};
use cc_stats::pcc;
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    let persons = 15;
    let (repeats, samples_per_pair) = size.pick((3, 60), (1, 20));
    let noise_levels: Vec<usize> = (5..=55).step_by(10).collect();

    let mut mean_viol = vec![0.0; noise_levels.len()];
    let mut mean_drop = vec![0.0; noise_levels.len()];

    for rep in 0..repeats {
        let df = har(&HarConfig { persons, samples_per_pair, seed: 660 + rep as u64 });
        let sedentary = filter_categorical(&df, "activity", &SEDENTARY_ACTIVITIES);
        let mobile = filter_categorical(&df, "activity", &MOBILE_ACTIVITIES);
        let (noise_pool, serve) = halves(&mobile);

        for (i, &noise) in noise_levels.iter().enumerate() {
            // Training set: sedentary + noise% mobile rows.
            let n_noise = (sedentary.n_rows() * noise / 100).min(noise_pool.n_rows());
            let train = sedentary.vstack(&head(&noise_pool, n_noise)).expect("same schema");

            let opts = SynthOptions { partition_attributes: Some(vec![]), ..Default::default() };
            let profile = synthesize(&train, &opts).expect("synthesis succeeds");
            let model = person_classifier(&train, persons, 80);

            let base_acc = person_accuracy(&model, &train);
            let acc = person_accuracy(&model, &serve);
            let v = dataset_drift(&profile, &serve, DriftAggregator::Mean).expect("eval");
            mean_viol[i] += v / repeats as f64;
            mean_drop[i] += (base_acc - acc) / repeats as f64;
        }
    }

    o.line(format!("{:>14} {:>14} {:>15}", "train noise %", "CC violation", "accuracy-drop"));
    for (i, &noise) in noise_levels.iter().enumerate() {
        o.line(format!("{noise:>14} {:>14.4} {:>15.4}", mean_viol[i], mean_drop[i]));
    }
    let rho = pcc(&mean_viol, &mean_drop);
    o.line(format!("\npcc(violation, accuracy-drop) = {rho:.3}  (paper: 0.82)"));

    let (first, last) = (mean_viol[0], mean_viol[noise_levels.len() - 1]);
    o.check(
        format!("violation falls as training noise grows ({first:.3} → {last:.3})"),
        first > last,
    );
    o.check(format!("pcc(violation, accuracy-drop) = {rho:.3} > 0.5"), rho > 0.5);
    o
}
