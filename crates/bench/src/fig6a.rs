//! Fig. 6(a): as a larger fraction of mobile-activity data is mixed into a
//! sedentary serving stream, conformance violation and the person-
//! classifier's accuracy-drop rise together (paper: pcc = 0.99).

use crate::{filter_categorical, halves, head, person_accuracy, person_classifier, Outcome, Size};
use cc_datagen::{har, HarConfig, MOBILE_ACTIVITIES, SEDENTARY_ACTIVITIES};
use cc_stats::pcc;
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    let persons = 15;
    let repeats = size.pick(3, 1);
    let fractions: Vec<usize> = (10..=90).step_by(10).collect();

    let mut mean_viol = vec![0.0; fractions.len()];
    let mut mean_drop = vec![0.0; fractions.len()];
    let mut min_base_acc = f64::INFINITY;

    for rep in 0..repeats {
        let df = har(&HarConfig { persons, samples_per_pair: 60, seed: 600 + rep as u64 });
        let sedentary = filter_categorical(&df, "activity", &SEDENTARY_ACTIVITIES);
        let mobile = filter_categorical(&df, "activity", &MOBILE_ACTIVITIES);
        let (train, held) = halves(&sedentary);

        let opts = SynthOptions { partition_attributes: Some(vec![]), ..Default::default() };
        let profile = synthesize(&train, &opts).expect("synthesis succeeds");
        let model = person_classifier(&train, persons, 100);
        let base_acc = person_accuracy(&model, &held);
        min_base_acc = min_base_acc.min(base_acc);

        for (i, pct) in fractions.iter().enumerate() {
            let n_mob = mobile.n_rows() * pct / 100;
            let n_sed = held.n_rows() * (100 - pct) / 100;
            let serve = head(&held, n_sed).vstack(&head(&mobile, n_mob)).expect("same schema");
            let v = dataset_drift(&profile, &serve, DriftAggregator::Mean).expect("eval");
            let acc = person_accuracy(&model, &serve);
            mean_viol[i] += v / repeats as f64;
            mean_drop[i] += (base_acc - acc) / repeats as f64;
        }
    }

    o.line(format!("{:>12} {:>14} {:>15}", "mobile %", "CC violation", "accuracy-drop"));
    for (i, pct) in fractions.iter().enumerate() {
        o.line(format!("{pct:>12} {:>14.4} {:>15.4}", mean_viol[i], mean_drop[i]));
    }
    let rho = pcc(&mean_viol, &mean_drop);
    o.line(format!("\npcc(violation, accuracy-drop) = {rho:.3}  (paper: 0.99)"));

    let (first, last) = (mean_viol[0], mean_viol[fractions.len() - 1]);
    o.check(
        format!("held-out sedentary accuracy > 0.8 in every repeat (min {min_base_acc:.3})"),
        min_base_acc > 0.8,
    );
    o.check(format!("pcc(violation, accuracy-drop) = {rho:.3} > 0.9"), rho > 0.9);
    o.check(
        format!("violation rises by > 0.1 from 10% to 90% mobile ({first:.3} → {last:.3})"),
        last > first + 0.1,
    );
    o
}
