//! Fig. 12 (appendix): ExTuNe responsibility analysis.
//!
//! (a) cardio: train on healthy, serve diseased → blood pressures (ap_hi /
//!     ap_lo) top the responsibility ranking;
//! (b) mobile: train cheap, serve expensive → ram tops;
//! (c) house: train cheap, serve expensive → responsibility is spread
//!     ("holistic");
//! (d) LED stream: drift + per-LED responsibility per window follows the
//!     malfunction schedule (LEDs 4&5, then 1&3, then 2/6/7).

use crate::{head, Outcome, Size};
use cc_datagen::led::{led_windows, malfunction_schedule, LedConfig};
use cc_datagen::tabular::{cardio, house, mobile};
use cc_frame::DataFrame;
use conformance::explain::{mean_responsibility, Responsibility};
use conformance::{dataset_drift, synthesize, DriftAggregator, SynthOptions};

/// Prints and returns the responsibility ranking of `sample` serving rows.
fn ranking(
    o: &mut Outcome,
    title: &str,
    train: &DataFrame,
    serve: &DataFrame,
    sample: usize,
) -> Vec<Responsibility> {
    o.line(format!("\n--- {title} ---"));
    let profile = synthesize(train, &SynthOptions::default()).expect("synthesis");
    let ranked = mean_responsibility(&profile, train, &head(serve, sample)).expect("explain");
    for r in ranked.iter() {
        let bar = "#".repeat((r.score * 50.0).round() as usize);
        o.line(format!("{:<14} {:.3}  {bar}", r.attribute, r.score));
    }
    ranked
}

/// Whether one of `wanted` ranks in the top three.
fn in_top3(ranked: &[Responsibility], wanted: &[&str]) -> bool {
    ranked.iter().take(3).any(|r| wanted.contains(&r.attribute.as_str()))
}

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    let (n, sample) = size.pick((2500, 200), (1000, 60));
    let (n_windows, windows_per_phase, rows_per_window, window_sample) =
        size.pick((20, 5, 1000, 150), (8, 2, 400, 10));

    let (healthy, diseased) = cardio(n, 121);
    let a = ranking(&mut o, "(a) cardiovascular: healthy → diseased", &healthy, &diseased, sample);

    let (cheap_m, exp_m) = mobile(n, 122);
    let b = ranking(&mut o, "(b) mobile prices: cheap → expensive", &cheap_m, &exp_m, sample);

    let (cheap_h, exp_h) = house(n, 123);
    let c = ranking(&mut o, "(c) house prices: cheap → expensive", &cheap_h, &exp_h, sample);
    let substantial = c.iter().filter(|r| r.score > 0.05).count();

    // (d) LED drift windows.
    o.line("\n--- (d) LED stream: drift + top responsible LEDs per window ---");
    let windows = led_windows(&LedConfig {
        n_windows,
        windows_per_phase,
        rows_per_window,
        ..Default::default()
    });
    let train = &windows[0];
    let profile = synthesize(train, &SynthOptions::default()).expect("synthesis");
    o.line(format!(
        "{:>7} {:>10} {:>24} {:>16}",
        "window", "violation", "top-2 responsible LEDs", "scheduled fault"
    ));
    let mut faulty_windows = 0usize;
    let mut drift_windows = 0usize;
    let mut schedule_hits = 0usize;
    for (w, window) in windows.iter().enumerate() {
        let v = dataset_drift(&profile, window, DriftAggregator::Mean).expect("eval");
        let ranked =
            mean_responsibility(&profile, train, &head(window, window_sample)).expect("explain");
        let top: Vec<&str> = ranked
            .iter()
            .filter(|r| r.attribute.starts_with("led"))
            .take(2)
            .map(|r| r.attribute.as_str())
            .collect();
        let scheduled = malfunction_schedule(w / windows_per_phase);
        faulty_windows += usize::from(!scheduled.is_empty());
        let sched_str =
            if scheduled.is_empty() { "none".to_owned() } else { format!("{scheduled:?}") };
        if !scheduled.is_empty() && v > 0.01 {
            drift_windows += 1;
            // Did the top responsible LEDs include a scheduled one?
            if top.iter().any(|t| scheduled.iter().any(|l| t == &format!("led{l}"))) {
                schedule_hits += 1;
            }
        }
        o.line(format!("{w:>7} {v:>10.4} {:>24} {sched_str:>16}", top.join(",")));
    }
    o.line(format!(
        "\nresponsibility matched the malfunction schedule in {schedule_hits}/{drift_windows} drifted windows"
    ));

    o.check("(a) cardio: ap_hi or ap_lo ranks in the top 3", in_top3(&a, &["ap_hi", "ap_lo"]));
    o.check("(b) mobile: ram ranks in the top 3", in_top3(&b, &["ram"]));
    o.check(
        format!("(c) house: blame is spread, {substantial} attributes score > 0.05 (≥ 5)"),
        substantial >= 5,
    );
    o.check(
        format!("(d) LED: {drift_windows} of {faulty_windows} faulty windows drift (≥ 80%)"),
        drift_windows * 10 >= faulty_windows * 8,
    );
    o.check(
        format!("(d) LED: schedule recovered in {schedule_hits}/{drift_windows} ≥ 80%"),
        schedule_hits * 10 >= drift_windows * 8,
    );
    o
}
