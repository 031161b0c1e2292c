//! §6 "Efficiency" + §4.3 complexity claims, as a plain timing harness:
//!
//! * synthesis time is **linear in the number of rows** (sweep n);
//! * synthesis time is dominated by an O(m³) eigensolve plus O(n·m²)
//!   accumulation (sweep m);
//! * the Gram matrix parallelizes (serial vs std::thread-parallel).
//!
//! No external benchmark framework: the offline build has no criterion, so
//! each case reports the median of a few wall-clock repetitions. Only the
//! row sweep is checked, on per-row time, which is loose enough to hold on
//! a noisy host yet fails on quadratic growth; the attribute sweep and the
//! Gram speed-up depend on the host and are only reported.

use crate::{Outcome, Size};
use cc_linalg::gram::gram_parallel;
use cc_linalg::Gram;
use conformance::{synthesize_simple, SynthOptions};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic synthetic rows with mild cross-attribute structure.
fn rows(n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..m)
                .map(|j| {
                    let t = i as f64 * 0.013 + j as f64;
                    (t.sin() * 10.0) + (i % (j + 2)) as f64
                })
                .collect()
        })
        .collect()
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Median seconds to synthesize a simple constraint over `rows(n, m)`.
fn synth_secs(n: usize, m: usize, reps: usize) -> f64 {
    let data = rows(n, m);
    let names: Vec<String> = (0..m).map(|j| format!("a{j}")).collect();
    time_median(reps, || {
        synthesize_simple(&data, &names, &SynthOptions::default()).expect("synthesis")
    })
}

fn rows_scaling(o: &mut Outcome, size: Size, reps: usize) {
    o.line("== synthesis time vs row count (m = 12) ==");
    let ns = size.pick([2_000usize, 8_000, 32_000], [1_000, 4_000, 16_000]);
    let mut per_row = Vec::new();
    for n in ns {
        let secs = synth_secs(n, 12, reps);
        o.line(format!(
            "n = {n:>6}: {:8.2} ms  ({:.1} Melem/s)",
            secs * 1e3,
            n as f64 / secs / 1e6
        ));
        per_row.push(secs / n as f64);
    }
    let growth = per_row[2] / per_row[0];
    o.check(
        format!("time per row at n = {} is ≤ 2 × that at n = {} (×{growth:.2})", ns[2], ns[0]),
        growth <= 2.0,
    );
}

fn attr_scaling(o: &mut Outcome, size: Size, reps: usize) {
    let n = size.pick(5_000, 2_000);
    o.line(format!("\n== synthesis time vs attribute count (n = {n}) =="));
    for m in [4usize, 8, 16, 32] {
        o.line(format!("m = {m:>3}: {:8.2} ms", synth_secs(n, m, reps) * 1e3));
    }
}

fn gram_parallel_speedup(o: &mut Outcome, size: Size, reps: usize) {
    let (n, m) = (size.pick(40_000, 10_000), 24);
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    o.line(format!("\n== Gram accumulation: serial vs parallel ({n} × {m}, {cpus} CPUs) =="));
    let data = rows(n, m);
    let serial = time_median(reps, || {
        let mut acc = Gram::new(m);
        for r in &data {
            acc.update(r);
        }
        acc.finish()
    });
    o.line(format!("serial streaming: {:8.2} ms", serial * 1e3));
    for threads in [2usize, 4, 8] {
        let secs = time_median(reps, || gram_parallel(&data, m, threads));
        o.line(format!(
            "parallel ×{threads}:      {:8.2} ms  (speedup {:.2}×)",
            secs * 1e3,
            serial / secs
        ));
    }
}

pub fn run(size: Size) -> Outcome {
    let mut o = Outcome::default();
    let reps = size.pick(5, 3);
    rows_scaling(&mut o, size, reps);
    attr_scaling(&mut o, size, reps);
    gram_parallel_speedup(&mut o, size, reps);
    o
}
