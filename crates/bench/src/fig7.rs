//! Fig. 7: inter-person drift heat map. Constraints learned from half of
//! each person's data (disjunctive over activities); the cell (p, q) is how
//! much person q's held-out data violates person p's constraints,
//! activity-wise averaged. The diagonal (self-drift) must be near zero; the
//! off-diagonal structure correlates with the generator's latent
//! fitness/BMI distances.

use crate::{cross_violations, person_labels, Outcome, Size};
use cc_datagen::har::person_latents;
use cc_datagen::{har, HarConfig};
use cc_frame::DataFrame;
use cc_stats::pcc;
use conformance::SynthOptions;

/// Runs whole at either [`Size`]: it takes under two seconds in a debug build.
pub fn run(_: Size) -> Outcome {
    let mut o = Outcome::default();
    let persons = 15;
    let df = har(&HarConfig { persons, samples_per_pair: 60, seed: 77 });
    let labels = person_labels(&df);

    // Row p = person p's constraints (disjunctive over activities), column
    // q = person q's held-out data.
    let persons_data: Vec<DataFrame> = (0..persons)
        .map(|p| df.take(&(0..df.n_rows()).filter(|&i| labels[i] == p).collect::<Vec<_>>()))
        .collect();
    let opts =
        SynthOptions { partition_attributes: Some(vec!["activity".into()]), ..Default::default() };
    let matrix = cross_violations(&persons_data, &opts);

    let header: String = (0..persons).map(|q| format!("  p{q:<3}")).collect();
    o.line(format!("     {header}"));
    for (p, row) in matrix.iter().enumerate() {
        let cells: String = row.iter().map(|v| format!(" {v:>5.2}")).collect();
        o.line(format!("p{p:<4}{cells}"));
    }

    // Diagnostics matching the paper's observations.
    let diag: f64 = (0..persons).map(|p| matrix[p][p]).sum::<f64>() / persons as f64;
    let off: f64 = (0..persons)
        .flat_map(|p| (0..persons).filter(move |&q| q != p).map(move |q| (p, q)))
        .map(|(p, q)| matrix[p][q])
        .sum::<f64>()
        / (persons * (persons - 1)) as f64;
    o.line(format!("\nmean self-violation (diagonal)   = {diag:.4}"));
    o.line(format!("mean cross-violation (off-diag.) = {off:.4}"));

    // Correlation with latent fitness/BMI distance (the paper's "hidden
    // ground truth" remark).
    let mut latent_d = Vec::new();
    let mut drift_d = Vec::new();
    // Indices double as person ids for `person_latents`; an iterator-based
    // form would obscure the (p, q) pairing.
    #[allow(clippy::needless_range_loop)]
    for p in 0..persons {
        for q in 0..persons {
            if p == q {
                continue;
            }
            let (f1, b1) = person_latents(p);
            let (f2, b2) = person_latents(q);
            latent_d.push(((f1 - f2).powi(2) + ((b1 - b2) / 14.0).powi(2)).sqrt());
            drift_d.push(matrix[p][q]);
        }
    }
    let rho = pcc(&latent_d, &drift_d);
    o.line(format!("pcc(latent fitness/BMI distance, drift) = {rho:.3}"));

    o.check(format!("diagonal < off-diagonal / 3 ({diag:.3} vs {off:.3})"), diag * 3.0 < off);
    o.check(format!("pcc(latent distance, drift) = {rho:.3} > 0.2"), rho > 0.2);
    o
}
