//! Equivalence guarantees of the unified sufficient-statistics engine:
//! batch ≡ streaming ≡ sharded-merged synthesis, and merge algebra of
//! [`SufficientStats`] — on the paper's synthetic datasets (cc_datagen
//! tabular + HAR), not just toy rows.

use cc_datagen::har::{har, HarConfig};
use cc_datagen::tabular::cardio;
use ccsynth::frame::DataFrame;
use ccsynth::linalg::SufficientStats;
use ccsynth::prelude::*;
use proptest::prelude::*;

/// Violation probes spanning the conforming and violating regions.
fn probes(dim: usize) -> Vec<Vec<f64>> {
    vec![
        vec![0.0; dim],
        (0..dim).map(|j| j as f64).collect(),
        (0..dim).map(|j| 10.0 * (j as f64 + 1.0)).collect(),
        (0..dim).map(|j| if j % 2 == 0 { -5.0 } else { 7.5 }).collect(),
    ]
}

/// Every constraint set of a profile, labelled: the global one, then
/// each partition case as `attribute=value`.
fn labelled_constraints(p: &ConformanceProfile) -> Vec<(String, SimpleConstraint)> {
    let mut v: Vec<(String, SimpleConstraint)> = Vec::new();
    if let Some(g) = &p.global {
        v.push(("<global>".to_string(), g.clone()));
    }
    for d in &p.disjunctive {
        for (val, c) in &d.cases {
            v.push((format!("{}={}", d.attribute, val), c.clone()));
        }
    }
    v
}

/// Asserts two profiles agree to ≤ `tol` on every projection coefficient,
/// bound, and probe violation (the engine actually delivers bit-identity
/// for same-block-structure paths; see
/// `sharded_synthesis_is_bit_identical_at_scale`).
fn assert_profiles_close(a: &ConformanceProfile, b: &ConformanceProfile, tol: f64) {
    assert_eq!(a.numeric_attributes, b.numeric_attributes);
    let (pa, pb) = (labelled_constraints(a), labelled_constraints(b));
    assert_eq!(pa.len(), pb.len(), "constraint-set shapes differ");
    for ((ka, ca), (kb, cb)) in pa.iter().zip(&pb) {
        assert_eq!(ka, kb);
        assert_eq!(ca.len(), cb.len(), "{ka}: conjunct counts differ");
        for (x, y) in ca.conjuncts.iter().zip(&cb.conjuncts) {
            for (wa, wb) in x.projection.coefficients.iter().zip(&y.projection.coefficients) {
                assert!((wa - wb).abs() <= tol, "{ka}: coefficient {wa} vs {wb}");
            }
            assert!((x.lb - y.lb).abs() <= tol * (1.0 + x.lb.abs()), "{ka}: lb");
            assert!((x.ub - y.ub).abs() <= tol * (1.0 + x.ub.abs()), "{ka}: ub");
        }
    }
    // Probe only the global constraint; partition cases were compared
    // pairwise above (probing them through `violation()` would need
    // categorical values).
    let dim = a.numeric_attributes.len();
    for probe in probes(dim) {
        if let (Some(ga), Some(gb)) = (&a.global, &b.global) {
            let va = ga.violation(&probe);
            let vb = gb.violation(&probe);
            assert!((va - vb).abs() <= tol, "violation {va} vs {vb}");
        }
    }
}

/// Replays a frame's rows through a streaming synthesizer with the given
/// partition attributes.
fn stream_frame(df: &DataFrame, partitions: &[&str]) -> StreamingSynthesizer {
    let numeric: Vec<String> = df.numeric_names().iter().map(|s| s.to_string()).collect();
    let mut s = StreamingSynthesizer::with_partitions(
        numeric.clone(),
        partitions.iter().map(|p| p.to_string()).collect(),
    );
    type CatCol<'a> = (&'a str, (&'a [u32], &'a [String]));
    let cols: Vec<&[f64]> = numeric.iter().map(|n| df.numeric(n).unwrap()).collect();
    let cats: Vec<CatCol> = partitions.iter().map(|p| (*p, df.categorical(p).unwrap())).collect();
    let mut buf = vec![0.0; cols.len()];
    for i in 0..df.n_rows() {
        for (slot, c) in buf.iter_mut().zip(&cols) {
            *slot = c[i];
        }
        let values: Vec<(&str, &str)> = cats
            .iter()
            .map(|(name, (codes, dict))| (*name, dict[codes[i] as usize].as_str()))
            .collect();
        s.update_with(&buf, &values);
    }
    s
}

#[test]
fn har_batch_streaming_sharded_agree() {
    // HAR: 15-channel accelerometer frame with activity/person categoricals
    // — the paper's Fig. 6/7 dataset. All three synthesis paths must agree
    // to ≤ 1e-9 (they are in fact bit-identical).
    let df = har(&HarConfig { persons: 5, samples_per_pair: 180, seed: 77 });
    let opts = SynthOptions::default();

    let batch = synthesize(&df, &opts).unwrap();
    assert!(!batch.disjunctive.is_empty(), "HAR must partition on categoricals");

    for shards in [2usize, 4, 8] {
        let par = synthesize_parallel(&df, &opts, shards).unwrap();
        assert_profiles_close(&batch, &par, 1e-9);
    }

    let partition_attrs: Vec<&str> =
        batch.disjunctive.iter().map(|d| d.attribute.as_str()).collect();
    let streamed = stream_frame(&df, &partition_attrs).finish_profile(&opts).unwrap();
    assert_profiles_close(&batch, &streamed, 1e-9);
}

#[test]
fn cardio_batch_streaming_sharded_agree() {
    let (train, _serve) = cardio(1500, 42);
    let opts = SynthOptions::default();
    let batch = synthesize(&train, &opts).unwrap();
    for shards in [3usize, 5] {
        let par = synthesize_parallel(&train, &opts, shards).unwrap();
        assert_profiles_close(&batch, &par, 1e-9);
    }
    let partition_attrs: Vec<&str> =
        batch.disjunctive.iter().map(|d| d.attribute.as_str()).collect();
    let streamed = stream_frame(&train, &partition_attrs).finish_profile(&opts).unwrap();
    assert_profiles_close(&batch, &streamed, 1e-9);

    // violation() agreement on real serving tuples.
    let serve_rows = {
        let names: Vec<&str> = train.numeric_names();
        _serve.numeric_rows(&names).unwrap()
    };
    if let (Some(gb), Some(gs)) = (&batch.global, &streamed.global) {
        for r in serve_rows.iter().take(200) {
            assert!((gb.violation(r) - gs.violation(r)).abs() <= 1e-9);
        }
    }
}

/// The macro-benchmark shape (also what `ccbench` trains on): 8 numeric
/// channels (one exact invariant, one per-regime invariant, mild noise
/// elsewhere) plus a 4-value categorical regime column. Deterministic
/// in `n`.
fn macro_frame(n: usize) -> DataFrame {
    const REGIMES: [&str; 4] = ["north", "south", "east", "west"];
    let mut cols: Vec<Vec<f64>> = (0..8).map(|_| Vec::with_capacity(n)).collect();
    let mut regime = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * 0.001;
        let noise = (((i * 2654435761) % 1000) as f64 / 500.0) - 1.0;
        let r = i % 4;
        let a = t.sin() * 40.0 + noise;
        let b = (t * 0.37).cos() * 25.0;
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(a + 2.0 * b + 1.0); // exact invariant
        cols[3].push((1.0 + r as f64) * a - b); // per-regime invariant
        cols[4].push(noise * 10.0);
        cols[5].push(t % 97.0);
        cols[6].push((a - b) * 0.5 + noise);
        cols[7].push(3.0 * t - 2.0 * noise);
        regime.push(REGIMES[r]);
    }
    let mut df = DataFrame::new();
    for (j, col) in cols.into_iter().enumerate() {
        df.push_numeric(format!("c{j}"), col).unwrap();
    }
    df.push_categorical("regime", &regime).unwrap();
    df
}

/// Sharded synthesis is exact, not merely close: on 100k rows (many
/// engine blocks per shard) every coefficient and bound of the 2- and
/// 4-shard profiles equals the sequential profile's to the bit.
#[test]
fn sharded_synthesis_is_bit_identical_at_scale() {
    let df = macro_frame(100_000);
    let opts = SynthOptions::default();
    let bits = |p: &ConformanceProfile| -> Vec<(String, Vec<u64>)> {
        let mut out = Vec::new();
        for (label, c) in labelled_constraints(p) {
            for b in &c.conjuncts {
                let mut words: Vec<u64> =
                    b.projection.coefficients.iter().map(|w| w.to_bits()).collect();
                words.extend([b.lb.to_bits(), b.ub.to_bits()]);
                out.push((label.clone(), words));
            }
        }
        out
    };
    let sequential = synthesize(&df, &opts).unwrap();
    assert!(!sequential.disjunctive.is_empty(), "the regime column must partition");
    let want = bits(&sequential);
    for shards in [2usize, 4] {
        let sharded = synthesize_parallel(&df, &opts, shards).unwrap();
        assert_eq!(bits(&sharded), want, "{shards} shards diverged from sequential");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SufficientStats::merge is associative and order-independent (up to
    /// fp rounding ≪ 1e-9) for arbitrary random splits of random data.
    #[test]
    fn merge_associative_and_order_independent(
        (rows, m) in (2usize..5).prop_flat_map(|m| {
            (proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, m..=m),
                30..200,
            ), Just(m))
        }),
        cut_a in 1usize..15,
        cut_b in 16usize..29,
    ) {
        let n = rows.len();
        let (i, j) = ((cut_a * n) / 30, (cut_b * n) / 30);
        let a = SufficientStats::from_rows(&rows[..i], m);
        let b = SufficientStats::from_rows(&rows[i..j], m);
        let c = SufficientStats::from_rows(&rows[j..], m);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        // (c ⊕ a) ⊕ b — a genuinely different order.
        let mut ca = c.clone();
        ca.merge(&a);
        ca.merge(&b);

        let whole = SufficientStats::from_rows(&rows, m);
        for other in [&left, &right, &ca] {
            prop_assert_eq!(other.count(), whole.count());
            for x in 0..m {
                prop_assert!((other.mean()[x] - whole.mean()[x]).abs() < 1e-9);
                prop_assert_eq!(other.attribute_min()[x], whole.attribute_min()[x]);
                prop_assert_eq!(other.attribute_max()[x], whole.attribute_max()[x]);
                for y in x..m {
                    let scale = 1.0 + whole.comoment(x, y).abs();
                    prop_assert!(
                        (other.comoment(x, y) - whole.comoment(x, y)).abs() / scale < 1e-9,
                        "M[{},{}] diverged", x, y
                    );
                }
            }
        }
    }

    /// Batch, streaming, and sharded synthesis agree on random tabular data:
    /// same projections, same bounds, same violations (≤ 1e-9; the engine
    /// gives bit-identity).
    #[test]
    fn synthesis_paths_agree_on_random_frames(
        (rows, m) in (2usize..5).prop_flat_map(|m| {
            (proptest::collection::vec(
                proptest::collection::vec(-50.0..50.0f64, m..=m),
                20..120,
            ), Just(m))
        }),
        shards in 2usize..6,
    ) {
        let mut df = DataFrame::new();
        for j in 0..m {
            df.push_numeric(format!("a{j}"), rows.iter().map(|r| r[j]).collect()).unwrap();
        }
        let opts = SynthOptions::default();
        let batch = synthesize(&df, &opts).unwrap();
        let par = synthesize_parallel(&df, &opts, shards).unwrap();
        let streamed = stream_frame(&df, &[]).finish_profile(&opts).unwrap();

        let (gb, gp, gs) = (
            batch.global.as_ref().unwrap(),
            par.global.as_ref().unwrap(),
            streamed.global.as_ref().unwrap(),
        );
        prop_assert_eq!(gb.len(), gp.len());
        prop_assert_eq!(gb.len(), gs.len());
        for ((b, p), s) in gb.conjuncts.iter().zip(&gp.conjuncts).zip(&gs.conjuncts) {
            for ((wb, wp), ws) in b
                .projection
                .coefficients
                .iter()
                .zip(&p.projection.coefficients)
                .zip(&s.projection.coefficients)
            {
                prop_assert!((wb - wp).abs() <= 1e-9);
                prop_assert!((wb - ws).abs() <= 1e-9);
            }
            prop_assert!((b.lb - p.lb).abs() <= 1e-9 * (1.0 + b.lb.abs()));
            prop_assert!((b.ub - s.ub).abs() <= 1e-9 * (1.0 + b.ub.abs()));
        }
        for r in rows.iter().take(25) {
            let vb = gb.violation(r);
            prop_assert!((vb - gp.violation(r)).abs() <= 1e-9);
            prop_assert!((vb - gs.violation(r)).abs() <= 1e-9);
        }
    }
}
