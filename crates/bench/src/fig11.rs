//! Fig. 11 (appendix): inter-activity violation heat map. Constraints are
//! learned per activity (over all persons); the cell (a, b) is how much
//! activity b's held-out data violates activity a's constraints.
//!
//! Paper's reported shape: asymmetry — mobile activities violate the
//! sedentary activities' constraints much more than the reverse, because
//! mobile data acts as a "safety envelope" superset of sedentary postures.

use crate::{cross_violations, filter_categorical, Outcome, Size};
use cc_datagen::{har, HarConfig, ACTIVITIES, MOBILE_ACTIVITIES, SEDENTARY_ACTIVITIES};
use cc_frame::DataFrame;
use conformance::SynthOptions;

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let df = har(&HarConfig { persons: 15, samples_per_pair: 80, seed: 111 });

    let activities: Vec<DataFrame> =
        ACTIVITIES.iter().map(|act| filter_categorical(&df, "activity", &[act])).collect();
    let opts = SynthOptions { partition_attributes: Some(vec![]), ..Default::default() };
    let matrix = cross_violations(&activities, &opts);

    let header: String = ACTIVITIES.iter().map(|b| format!(" {b:>9}")).collect();
    o.line(format!("{:<10}{header}   (column = data, row = constraints)", ""));
    for (a, row) in matrix.iter().enumerate() {
        let cells: String = row.iter().map(|v| format!(" {v:>9.3}")).collect();
        o.line(format!("{:<10}{cells}", ACTIVITIES[a]));
    }

    // Asymmetry: mean violation of mobile data against sedentary
    // constraints vs the reverse.
    let idx = |name: &str| ACTIVITIES.iter().position(|a| *a == name).expect("known");
    let mut mobile_on_sed = 0.0;
    let mut sed_on_mobile = 0.0;
    let mut pairs = 0.0;
    for s in SEDENTARY_ACTIVITIES {
        for m in MOBILE_ACTIVITIES {
            mobile_on_sed += matrix[idx(s)][idx(m)];
            sed_on_mobile += matrix[idx(m)][idx(s)];
            pairs += 1.0;
        }
    }
    mobile_on_sed /= pairs;
    sed_on_mobile /= pairs;
    let n = ACTIVITIES.len();
    let diag: f64 = (0..n).map(|a| matrix[a][a]).sum::<f64>() / n as f64;

    o.line(format!("\nmean self-violation (diagonal)             = {diag:.4}"));
    o.line(format!("mobile data on sedentary constraints (avg) = {mobile_on_sed:.4}"));
    o.line(format!("sedentary data on mobile constraints (avg) = {sed_on_mobile:.4}"));

    o.check(
        "mobile data on sedentary constraints > 1.5 × the reverse",
        mobile_on_sed > 1.5 * sed_on_mobile,
    );
    o.check(format!("mean self-violation {diag:.3} < 0.2"), diag < 0.2);
    o
}
