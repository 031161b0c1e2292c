//! Differential test: the fixed-width kernel behind
//! `SufficientStats::update_flat_rows` against the per-tuple
//! `SufficientStats::update` loop it must reproduce bit for bit.
//!
//! Every `dim` in 1..=17 runs, so both the const-generic kernel (1..=16)
//! and the wide fallback (17) are covered. Streams mix arbitrary f64 bit
//! patterns (NaN payloads, ±∞, subnormals, ±0, ±1e300) with ordinary
//! values, and are cut at random split points — empty slices, a lone
//! first row (the `count == 1` step), and resumes from an accumulator
//! restored through serde. After every slice, `count` and all five
//! vectors (mean, co-moment, Kahan terms, min, max) must agree by bits.
//! Everything derives from one seed, printed on failure.
//!
//! One carve-out: a NaN matches any NaN. Rust leaves the sign and payload
//! of a NaN that arithmetic produces unspecified (see the `f64` docs on
//! NaN bit patterns), and the optimizer does commute the operands of `+`
//! and `*`, which changes which input NaN propagates. Every other value,
//! `±0`, `±∞` and subnormals included, must match bit for bit.

use cc_linalg::SufficientStats;
use serde::Serialize;

/// SplitMix64: tiny, seedable, and good enough to pick test inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SPECIALS: [f64; 14] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -2.225_073_858_507_201e-308,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    1.0,
    -1.0,
];

/// One cell. `wild` is the per-stream share (in 1/16ths) of cells that
/// are not ordinary finite values.
fn cell(rng: &mut SplitMix, wild: usize) -> f64 {
    if rng.below(16) >= wild {
        // Ordinary data around a per-call offset and scale, so the mean
        // and co-moments carry real cancellation.
        let scale = [1e-3, 1.0, 1e3, 1e6][rng.below(4)];
        return 1e4 + (rng.unit() - 0.5) * scale;
    }
    match rng.below(3) {
        // Arbitrary bit patterns: NaN payloads, subnormals, everything.
        0 => f64::from_bits(rng.next()),
        // A NaN with a random payload and sign.
        1 => f64::from_bits(0x7ff8_0000_0000_0000 | (rng.next() & 0x8007_ffff_ffff_ffff)),
        _ => SPECIALS[rng.below(SPECIALS.len())],
    }
}

const NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// `count` plus the bit patterns of the five vectors, read through the
/// lossless serde image (the only view that exposes the Kahan terms),
/// with every NaN mapped to one pattern (see the module docs).
fn fingerprint(s: &SufficientStats) -> (usize, Vec<(&'static str, Vec<u64>)>) {
    let v = s.to_value();
    let fields = ["mean", "comoment", "comp", "min", "max"]
        .into_iter()
        .map(|name| {
            let xs = serde::lossless::vec_from_value(v.field(name).expect("field present"))
                .expect("lossless vector");
            let bits = xs.into_iter().map(|x| if x.is_nan() { NAN_BITS } else { x.to_bits() });
            (name, bits.collect())
        })
        .collect();
    (s.count(), fields)
}

fn assert_same(kernel: &SufficientStats, oracle: &SufficientStats, ctx: &str) {
    let (kc, kf) = fingerprint(kernel);
    let (oc, of) = fingerprint(oracle);
    assert_eq!(kc, oc, "count differs: {ctx}");
    for ((name, k), (_, o)) in kf.iter().zip(&of) {
        for (i, (a, b)) in k.iter().zip(o).enumerate() {
            assert_eq!(
                a,
                b,
                "{name}[{i}] differs: kernel {:e} ({a:#x}) vs update {:e} ({b:#x}) ({ctx})",
                f64::from_bits(*a),
                f64::from_bits(*b)
            );
        }
    }
}

fn restore(s: &SufficientStats) -> SufficientStats {
    serde_json::from_str(&serde_json::to_string(s).unwrap()).unwrap()
}

/// Random cut points over `rows` rows: sorted, with repeats (empty
/// slices) allowed, and row 1 forced in half the time so the first
/// tuple (`count == 1`) lands in a slice of its own.
fn cuts(rng: &mut SplitMix, rows: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(rows + 1)).collect();
    if rows > 0 && rng.below(2) == 0 {
        cuts.push(1);
    }
    cuts.push(rows);
    cuts.sort_unstable();
    cuts
}

fn run_stream(seed: u64, dim: usize) {
    let mut rng = SplitMix(seed);
    let rows = [0, 1, 2, 3, 17, 64, 257][rng.below(7)];
    let wild = [0, 0, 1, 4, 16][rng.below(5)];
    let data: Vec<f64> = (0..rows * dim).map(|_| cell(&mut rng, wild)).collect();
    let mut kernel = SufficientStats::new(dim);
    let mut oracle = SufficientStats::new(dim);
    let mut at = 0;
    for (k, cut) in cuts(&mut rng, rows).into_iter().enumerate() {
        if rng.below(4) == 0 {
            kernel = restore(&kernel);
            oracle = restore(&oracle);
        }
        let slice = &data[at * dim..cut * dim];
        kernel.update_flat_rows(slice);
        for tuple in slice.chunks_exact(dim) {
            oracle.update(tuple);
        }
        let ctx = format!("seed {seed:#x}, dim {dim}, slice {k} = rows {at}..{cut} of {rows}");
        assert_same(&kernel, &oracle, &ctx);
        at = cut;
    }
    assert_eq!(kernel.count(), rows);
    let whole = SufficientStats::from_flat_rows(&data, dim);
    let mut serial = SufficientStats::new(dim);
    for tuple in data.chunks_exact(dim) {
        serial.update(tuple);
    }
    assert_same(&whole, &serial, &format!("seed {seed:#x}, dim {dim}, from_flat_rows"));
}

#[test]
fn kernel_matches_update_bitwise_for_every_dim() {
    for dim in 1..=17 {
        for stream in 0..48u64 {
            run_stream(0xcc5e_ed00_0000_0000 ^ ((dim as u64) << 16) ^ stream, dim);
        }
    }
}

#[test]
fn kernel_resumes_after_a_single_row_and_from_non_finite_state() {
    // A lone first row, then a long slice: the `count == 1` step happens
    // inside the kernel on one call and is resumed on the next.
    for dim in [1, 2, 8, 16, 17] {
        let row: Vec<f64> = (0..dim).map(|i| i as f64 - 0.5).collect();
        let rest: Vec<f64> = (0..40 * dim).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let mut kernel = SufficientStats::new(dim);
        kernel.update_flat_rows(&row);
        kernel.update_flat_rows(&[]);
        kernel.update_flat_rows(&rest);
        let mut oracle = SufficientStats::new(dim);
        for tuple in row.chunks_exact(dim).chain(rest.chunks_exact(dim)) {
            oracle.update(tuple);
        }
        assert_same(&kernel, &oracle, &format!("dim {dim}, single row then 40"));
        // Poison the state with ±∞ and NaN, restore through serde, and
        // keep going: the non-finite terms must propagate identically.
        let poison: Vec<f64> = (0..2 * dim)
            .map(|i| [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -0.0][i % 4])
            .collect();
        kernel.update_flat_rows(&poison);
        for tuple in poison.chunks_exact(dim) {
            oracle.update(tuple);
        }
        let (mut kernel, mut oracle) = (restore(&kernel), restore(&oracle));
        kernel.update_flat_rows(&rest);
        for tuple in rest.chunks_exact(dim) {
            oracle.update(tuple);
        }
        assert_same(&kernel, &oracle, &format!("dim {dim}, after poison and restore"));
    }
}
