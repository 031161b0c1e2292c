//! Mergeable sufficient statistics for conformance-constraint synthesis.
//!
//! §4.3.2 of the paper observes that the entire synthesis — eigenvectors
//! *and* per-projection bounds — derives from the augmented Gram matrix
//! `[1⃗;X]ᵀ[1⃗;X]`, which decomposes over horizontal partitions of the data
//! and is therefore "embarrassingly parallel". [`SufficientStats`] is the
//! one accumulator every synthesis path (batch, streaming, partitioned,
//! sharded) in this workspace now runs on.
//!
//! ## Representation: centered, not raw
//!
//! Internally the type does **not** store the raw Gram matrix. It tracks
//! the algebraically equivalent triple
//!
//! ```text
//! n,   μ = (Σᵢ tᵢ)/n,   M = Σᵢ (tᵢ − μ)(tᵢ − μ)ᵀ     (+ per-attribute min/max)
//! ```
//!
//! updated by Welford's recurrence and merged by the Chan et al. pairwise
//! rule, with Kahan compensation on the co-moment entries. The raw Gram
//! matrix is recovered exactly as `G[0,0] = n`, `G[0,j] = n·μⱼ`,
//! `G[i,j] = M[i,j] + n·μᵢμⱼ` — see [`SufficientStats::augmented_gram`] —
//! so nothing is lost. What is *gained* is numerical stability: projection
//! variances come from `wᵀMw` directly instead of the catastrophic
//! cancellation `E[F²] − μ(F)²` that the raw-Gram formulation suffers when
//! a projection is (nearly) invariant — precisely the projections the
//! paper cares most about.
//!
//! ## Determinism contract
//!
//! `update` and `merge` are pure floating-point folds: accumulating the
//! same tuples in the same order, with the same merge tree, yields
//! bit-identical statistics. The synthesis layer exploits this by fixing a
//! block size ([`BLOCK_ROWS`]) and a linear merge order, making sequential,
//! streaming, and N-way sharded synthesis produce *identical* constraints
//! (not merely close ones).

use crate::eigen::{symmetric_eigen, EigenDecomposition, EigenError};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Row-block granularity shared by every synthesis path.
///
/// Accumulation happens in blocks of this many tuples; per-block partial
/// statistics are merged in block order. Because shard boundaries are
/// always aligned to this granularity, an N-shard parallel run replays the
/// exact merge sequence of the sequential run and produces bit-identical
/// results.
pub const BLOCK_ROWS: usize = 4096;

/// Mergeable sufficient statistics of a tuple set: count, mean vector,
/// centered co-moment matrix (packed upper triangle, Kahan-compensated),
/// and per-attribute min/max.
///
/// ## Persistence
///
/// `Serialize`/`Deserialize` are manual so that restored accumulators
/// are *bit-identical* to the originals for **every** `f64`, not just
/// finite ones: finite values round-trip exactly through the shim's
/// shortest-round-trip formatting, while non-finite values — the `±∞`
/// min/max sentinels of an empty accumulator, infinities absorbed from
/// the data, NaNs from missing cells — are encoded as hex bit-pattern
/// strings (`"0x7ff0…"`) instead of JSON's lossy `null`. Field lengths
/// are validated against `dim`, so a hand-edited snapshot can never
/// produce an accumulator whose invariants are broken.
#[derive(Clone, Debug)]
pub struct SufficientStats {
    dim: usize,
    count: usize,
    mean: Vec<f64>,
    /// Packed upper triangle (row-major, diagonal included) of
    /// `M = Σ (t−μ)(t−μ)ᵀ`.
    comoment: Vec<f64>,
    /// Kahan compensation terms for `comoment`.
    comp: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

#[inline]
fn packed_len(dim: usize) -> usize {
    dim * (dim + 1) / 2
}

/// Index of `(a, b)` with `a ≤ b` in the packed upper triangle.
#[inline]
fn packed_idx(dim: usize, a: usize, b: usize) -> usize {
    debug_assert!(a <= b && b < dim);
    a * dim - a * (a + 1) / 2 + b
}

#[inline]
fn kahan_add(acc: &mut f64, comp: &mut f64, x: f64) {
    let y = x - *comp;
    let t = *acc + y;
    *comp = (t - *acc) - y;
    *acc = t;
}

impl SufficientStats {
    /// Empty statistics over `dim` numeric attributes.
    pub fn new(dim: usize) -> Self {
        SufficientStats {
            dim,
            count: 0,
            mean: vec![0.0; dim],
            comoment: vec![0.0; packed_len(dim)],
            comp: vec![0.0; packed_len(dim)],
            min: vec![f64::INFINITY; dim],
            max: vec![f64::NEG_INFINITY; dim],
        }
    }

    /// Statistics of a row slice (tuples in `rows` order).
    pub fn from_rows(rows: &[Vec<f64>], dim: usize) -> Self {
        let mut s = SufficientStats::new(dim);
        for r in rows {
            s.update(r);
        }
        s
    }

    /// Statistics of a row-major flat slice (`data.len() / dim` tuples
    /// back to back). Bit-identical to [`SufficientStats::from_rows`]
    /// over the same tuples — the same per-tuple [`SufficientStats::update`]
    /// sequence from a fresh accumulator, no merges — so batch pipelines
    /// can carry one contiguous buffer instead of a `Vec` per row.
    ///
    /// # Panics
    /// Panics when `dim` is zero or does not divide `data.len()`.
    pub fn from_flat_rows(data: &[f64], dim: usize) -> Self {
        let mut s = SufficientStats::new(dim);
        s.update_flat_rows(data);
        s
    }

    /// Absorbs a row-major flat slice tuple by tuple, in slice order
    /// (see [`SufficientStats::from_flat_rows`]).
    ///
    /// Bit-identical to calling [`SufficientStats::update`] on each tuple.
    /// For `dim` in 1..=16 the slice runs through a fixed-width kernel
    /// that keeps the accumulator in fixed-size locals for the whole
    /// slice and performs exactly `update`'s operations per tuple, in the
    /// same order (no fused multiply-add, no reassociation). Wider tuples
    /// take the per-tuple `update` loop. A seeded differential test
    /// (`tests/flat_rows_kernel.rs`) pins the kernel to `update` bit for
    /// bit, `±∞`, `±0` and subnormals included; a NaN result only has to
    /// be a NaN, since Rust leaves the sign and payload of arithmetic
    /// NaNs unspecified.
    ///
    /// # Panics
    /// Panics when `dim` is zero or does not divide `data.len()`.
    pub fn update_flat_rows(&mut self, data: &[f64]) {
        assert!(self.dim > 0, "SufficientStats::update_flat_rows: zero-dimensional");
        assert!(
            data.len().is_multiple_of(self.dim),
            "SufficientStats::update_flat_rows: {} values do not tile dim {}",
            data.len(),
            self.dim
        );
        match self.dim {
            1 => self.update_fixed::<1, 1>(data),
            2 => self.update_fixed::<2, 3>(data),
            3 => self.update_fixed::<3, 6>(data),
            4 => self.update_fixed::<4, 10>(data),
            5 => self.update_fixed::<5, 15>(data),
            6 => self.update_fixed::<6, 21>(data),
            7 => self.update_fixed::<7, 28>(data),
            8 => self.update_fixed::<8, 36>(data),
            9 => self.update_fixed::<9, 45>(data),
            10 => self.update_fixed::<10, 55>(data),
            11 => self.update_fixed::<11, 66>(data),
            12 => self.update_fixed::<12, 78>(data),
            13 => self.update_fixed::<13, 91>(data),
            14 => self.update_fixed::<14, 105>(data),
            15 => self.update_fixed::<15, 120>(data),
            16 => self.update_fixed::<16, 136>(data),
            _ => {
                for tuple in data.chunks_exact(self.dim) {
                    self.update(tuple);
                }
            }
        }
    }

    /// The fixed-width body of [`Self::update_flat_rows`]: `D` attributes,
    /// `P = D(D+1)/2` packed co-moment entries. Each tuple goes through
    /// [`Self::update`]'s operations verbatim; only the storage differs
    /// (stack arrays of known length instead of heap vectors, written
    /// back once at the end).
    fn update_fixed<const D: usize, const P: usize>(&mut self, data: &[f64]) {
        debug_assert_eq!((self.dim, P), (D, packed_len(D)));
        if data.is_empty() {
            return;
        }
        let mut mean: [f64; D] = self.mean[..].try_into().expect("mean has dim entries");
        let mut comoment: [f64; P] = self.comoment[..].try_into().expect("packed length");
        let mut comp: [f64; P] = self.comp[..].try_into().expect("packed length");
        let mut min: [f64; D] = self.min[..].try_into().expect("min has dim entries");
        let mut max: [f64; D] = self.max[..].try_into().expect("max has dim entries");
        let mut count = self.count;
        for tuple in data.chunks_exact(D) {
            let t: &[f64; D] = tuple.try_into().expect("chunks_exact yields D values");
            count += 1;
            let n = count as f64;
            for (mu, x) in mean.iter_mut().zip(t) {
                *mu += (x - *mu) / n;
            }
            if count > 1 {
                let blowup = n / (n - 1.0);
                let mut idx = 0;
                for a in 0..D {
                    let da = (t[a] - mean[a]) * blowup;
                    for (x, mu) in t[a..].iter().zip(&mean[a..]) {
                        let d2b = x - mu;
                        kahan_add(&mut comoment[idx], &mut comp[idx], da * d2b);
                        idx += 1;
                    }
                }
            }
            for ((lo, hi), x) in min.iter_mut().zip(max.iter_mut()).zip(t) {
                *lo = lo.min(*x);
                *hi = hi.max(*x);
            }
        }
        self.count = count;
        self.mean.copy_from_slice(&mean);
        self.comoment.copy_from_slice(&comoment);
        self.comp.copy_from_slice(&comp);
        self.min.copy_from_slice(&min);
        self.max.copy_from_slice(&max);
    }

    /// Number of accumulated tuples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Attribute dimensionality (excluding the implicit constant column).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when no tuples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of each attribute (zeros when empty).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-attribute minimum (`+∞` when empty).
    pub fn attribute_min(&self) -> &[f64] {
        &self.min
    }

    /// Per-attribute maximum (`−∞` when empty).
    pub fn attribute_max(&self) -> &[f64] {
        &self.max
    }

    /// Absorbs one tuple (Welford's recurrence).
    ///
    /// # Panics
    /// Panics when the tuple arity differs from `dim`.
    pub fn update(&mut self, tuple: &[f64]) {
        assert_eq!(tuple.len(), self.dim, "SufficientStats::update: arity mismatch");
        self.count += 1;
        let n = self.count as f64;
        for (mu, x) in self.mean.iter_mut().zip(tuple) {
            *mu += (x - *mu) / n;
        }
        // M += δ·δ2ᵀ where δ = t − μ_old and δ2 = t − μ_new. Since
        // δ = δ2 · n/(n−1), both residuals come from the updated mean
        // without storing the old one. n = 1 contributes nothing (δ2 = 0).
        if self.count > 1 {
            let blowup = n / (n - 1.0);
            let mut idx = 0;
            for a in 0..self.dim {
                let da = (tuple[a] - self.mean[a]) * blowup;
                for (x, mu) in tuple[a..].iter().zip(&self.mean[a..]) {
                    let d2b = x - mu;
                    kahan_add(&mut self.comoment[idx], &mut self.comp[idx], da * d2b);
                    idx += 1;
                }
            }
        }
        for ((lo, hi), x) in self.min.iter_mut().zip(self.max.iter_mut()).zip(tuple) {
            *lo = lo.min(*x);
            *hi = hi.max(*x);
        }
    }

    /// Merges another accumulator (Chan et al. pairwise combination).
    /// Associative and order-independent up to floating-point rounding;
    /// bit-deterministic for a fixed merge order.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn merge(&mut self, other: &SufficientStats) {
        assert_eq!(self.dim, other.dim, "SufficientStats::merge: dimension mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let mut delta = vec![0.0; self.dim];
        for (d, (mb, ma)) in delta.iter_mut().zip(other.mean.iter().zip(&self.mean)) {
            *d = mb - ma;
        }
        let mut idx = 0;
        for a in 0..self.dim {
            for b in a..self.dim {
                kahan_add(&mut self.comoment[idx], &mut self.comp[idx], other.comoment[idx]);
                kahan_add(&mut self.comoment[idx], &mut self.comp[idx], -other.comp[idx]);
                kahan_add(
                    &mut self.comoment[idx],
                    &mut self.comp[idx],
                    delta[a] * delta[b] * na * nb / n,
                );
                idx += 1;
            }
        }
        for (ma, d) in self.mean.iter_mut().zip(&delta) {
            *ma += d * nb / n;
        }
        for (lo, o) in self.min.iter_mut().zip(&other.min) {
            *lo = lo.min(*o);
        }
        for (hi, o) in self.max.iter_mut().zip(&other.max) {
            *hi = hi.max(*o);
        }
        self.count += other.count;
    }

    /// Entry `(a, b)` of the centered co-moment matrix `M`.
    pub fn comoment(&self, a: usize, b: usize) -> f64 {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.comoment[packed_idx(self.dim, a, b)]
    }

    /// Reconstructs the augmented Gram matrix `[1⃗;X]ᵀ[1⃗;X]` of shape
    /// `(dim+1) × (dim+1)` (index 0 is the constant column).
    pub fn augmented_gram(&self) -> Matrix {
        let m = self.dim;
        let n = self.count as f64;
        let mut g = Matrix::zeros(m + 1, m + 1);
        g[(0, 0)] = n;
        for j in 0..m {
            let s = n * self.mean[j];
            g[(0, j + 1)] = s;
            g[(j + 1, 0)] = s;
        }
        for a in 0..m {
            for b in a..m {
                let v = self.comoment(a, b) + n * self.mean[a] * self.mean[b];
                g[(a + 1, b + 1)] = v;
                g[(b + 1, a + 1)] = v;
            }
        }
        g
    }

    /// Eigendecomposition of the augmented Gram matrix (Algorithm 1,
    /// lines 2–3).
    ///
    /// # Errors
    /// Propagates eigensolver failures (non-finite data).
    pub fn eigen(&self) -> Result<EigenDecomposition, EigenError> {
        symmetric_eigen(&self.augmented_gram())
    }

    /// Mean of the projection `w·t` over the accumulated tuples
    /// (`w` indexes data attributes, not the constant column).
    ///
    /// # Panics
    /// Panics when `w.len() != dim`.
    pub fn projection_mean(&self, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.dim, "projection_mean: arity mismatch");
        w.iter().zip(&self.mean).map(|(c, mu)| c * mu).sum()
    }

    /// Population variance of the projection `w·t`: `wᵀMw / n`.
    /// Zero when fewer than two tuples have been accumulated.
    ///
    /// # Panics
    /// Panics when `w.len() != dim`.
    pub fn projection_variance(&self, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.dim, "projection_variance: arity mismatch");
        if self.count < 2 {
            return 0.0;
        }
        let mut quad = 0.0;
        for a in 0..self.dim {
            // Diagonal term once, off-diagonal terms twice (symmetry).
            quad += w[a] * w[a] * self.comoment(a, a);
            for b in (a + 1)..self.dim {
                quad += 2.0 * w[a] * w[b] * self.comoment(a, b);
            }
        }
        (quad / self.count as f64).max(0.0)
    }

    /// The canonical in-order fold of a sequence of accumulators: an
    /// empty accumulator merged with each element, oldest first. This is
    /// the **ring merge** helper every windowed consumer (the monitor's
    /// block ring, sharded synthesis re-merges) routes through, so "merge
    /// these blocks from scratch" is one well-defined operation: two
    /// calls over the same blocks in the same order are bit-identical.
    pub fn merged<'a, I>(dim: usize, blocks: I) -> Self
    where
        I: IntoIterator<Item = &'a SufficientStats>,
    {
        let mut acc = SufficientStats::new(dim);
        for b in blocks {
            acc.merge(b);
        }
        acc
    }

    /// Subtractive inverse of [`Self::merge`]: removes a previously-merged
    /// accumulator, algebraically inverting the Chan combination for
    /// `count`, `mean`, and the co-moments.
    ///
    /// **Deliberately not used on any retire path.** Two caveats make
    /// drop-and-re-merge (see [`Self::merged`]) the correct way to retire
    /// a block from a window, and this helper exists to document and test
    /// exactly why:
    ///
    /// * floating-point subtraction re-introduces the cancellation the
    ///   centered representation avoids — repeated unmerges drift away
    ///   from the re-merged truth (bounded, but **not bit-identical**);
    /// * per-attribute min/max are not invertible: the bounds keep the
    ///   retired block's extremes (conservative, never too tight).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or when `other` holds more
    /// tuples than `self`.
    pub fn unmerge(&mut self, other: &SufficientStats) {
        assert_eq!(self.dim, other.dim, "SufficientStats::unmerge: dimension mismatch");
        assert!(
            other.count <= self.count,
            "SufficientStats::unmerge: removing {} tuples from {}",
            other.count,
            self.count
        );
        if other.count == 0 {
            return;
        }
        if other.count == self.count {
            // Keep min/max (conservative); everything else resets.
            self.count = 0;
            self.mean.fill(0.0);
            self.comoment.fill(0.0);
            self.comp.fill(0.0);
            return;
        }
        let n = self.count as f64;
        let nb = other.count as f64;
        let na = n - nb;
        // Invert the mean combination: μ_a = (n·μ − n_b·μ_b) / n_a.
        let mut mean_a = vec![0.0; self.dim];
        for (ma, (m, mb)) in mean_a.iter_mut().zip(self.mean.iter().zip(&other.mean)) {
            *ma = (n * m - nb * mb) / na;
        }
        // Invert the co-moment combination:
        // M_a = M − M_b − δδᵀ·n_a·n_b/n with δ = μ_b − μ_a.
        let mut idx = 0;
        for a in 0..self.dim {
            let da = other.mean[a] - mean_a[a];
            for (mb, ma) in other.mean[a..].iter().zip(&mean_a[a..]) {
                let db = mb - ma;
                kahan_add(&mut self.comoment[idx], &mut self.comp[idx], -other.comoment[idx]);
                kahan_add(&mut self.comoment[idx], &mut self.comp[idx], other.comp[idx]);
                kahan_add(&mut self.comoment[idx], &mut self.comp[idx], -(da * db * na * nb / n));
                idx += 1;
            }
        }
        self.mean = mean_a;
        self.count -= other.count;
    }

    /// A scale proxy for the projection `w·t`: `Σⱼ |wⱼ|·max(|minⱼ|, |maxⱼ|)`.
    /// Used by the synthesizer to floor σ for (near-)equality constraints.
    /// Zero when empty.
    ///
    /// # Panics
    /// Panics when `w.len() != dim`.
    pub fn projection_scale(&self, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.dim, "projection_scale: arity mismatch");
        if self.count == 0 {
            return 0.0;
        }
        w.iter()
            .zip(self.min.iter().zip(&self.max))
            .map(|(c, (lo, hi))| c.abs() * lo.abs().max(hi.abs()))
            .sum()
    }
}

impl Serialize for SufficientStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("dim".to_owned(), self.dim.to_value()),
            ("count".to_owned(), self.count.to_value()),
            ("mean".to_owned(), serde::lossless::vec_to_value(&self.mean)),
            ("comoment".to_owned(), serde::lossless::vec_to_value(&self.comoment)),
            ("comp".to_owned(), serde::lossless::vec_to_value(&self.comp)),
            ("min".to_owned(), serde::lossless::vec_to_value(&self.min)),
            ("max".to_owned(), serde::lossless::vec_to_value(&self.max)),
        ])
    }
}

impl Deserialize for SufficientStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let stats = SufficientStats {
            dim: Deserialize::from_value(v.field("dim")?)?,
            count: Deserialize::from_value(v.field("count")?)?,
            mean: serde::lossless::vec_from_value(v.field("mean")?)?,
            comoment: serde::lossless::vec_from_value(v.field("comoment")?)?,
            comp: serde::lossless::vec_from_value(v.field("comp")?)?,
            min: serde::lossless::vec_from_value(v.field("min")?)?,
            max: serde::lossless::vec_from_value(v.field("max")?)?,
        };
        let (dim, packed) = (stats.dim, packed_len(stats.dim));
        for (name, len, want) in [
            ("mean", stats.mean.len(), dim),
            ("comoment", stats.comoment.len(), packed),
            ("comp", stats.comp.len(), packed),
            ("min", stats.min.len(), dim),
            ("max", stats.max.len(), dim),
        ] {
            if len != want {
                return Err(serde::DeError::custom(format!(
                    "SufficientStats: '{name}' has {len} entries, expected {want} for dim {dim}"
                )));
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let x = i as f64 / 7.0;
                vec![x, 2.0 * x + 1.0 + ((i * 31) % 13) as f64 * 0.05, ((i * 17) % 29) as f64]
            })
            .collect()
    }

    #[test]
    fn gram_matches_naive() {
        let rows = sample_rows(137);
        let s = SufficientStats::from_rows(&rows, 3);
        let g = s.augmented_gram();
        // Naive [1;X]ᵀ[1;X].
        let mut naive = Matrix::zeros(4, 4);
        for r in &rows {
            let aug = [1.0, r[0], r[1], r[2]];
            for a in 0..4 {
                for b in 0..4 {
                    naive[(a, b)] += aug[a] * aug[b];
                }
            }
        }
        for a in 0..4 {
            for b in 0..4 {
                let scale = 1.0 + naive[(a, b)].abs();
                assert!(
                    (g[(a, b)] - naive[(a, b)]).abs() / scale < 1e-12,
                    "G[{a},{b}] = {} vs naive {}",
                    g[(a, b)],
                    naive[(a, b)]
                );
            }
        }
    }

    #[test]
    fn flat_rows_are_bit_identical_to_from_rows() {
        for n in [0, 1, 2, 57] {
            let rows = sample_rows(n);
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let nested = SufficientStats::from_rows(&rows, 3);
            let packed = SufficientStats::from_flat_rows(&flat, 3);
            assert_eq!(nested.count(), packed.count());
            for j in 0..3 {
                assert_eq!(nested.mean()[j].to_bits(), packed.mean()[j].to_bits());
                assert_eq!(
                    nested.attribute_min()[j].to_bits(),
                    packed.attribute_min()[j].to_bits()
                );
                assert_eq!(
                    nested.attribute_max()[j].to_bits(),
                    packed.attribute_max()[j].to_bits()
                );
                for b in j..3 {
                    assert_eq!(nested.comoment(j, b).to_bits(), packed.comoment(j, b).to_bits());
                }
            }
            // Resuming an existing accumulator is the same per-tuple fold.
            let mut resumed = SufficientStats::from_flat_rows(&flat, 3);
            resumed.update_flat_rows(&flat);
            let mut twice = nested.clone();
            for r in &rows {
                twice.update(r);
            }
            assert_eq!(resumed.count(), twice.count());
            for b in 0..3 {
                assert_eq!(resumed.comoment(0, b).to_bits(), twice.comoment(0, b).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn flat_rows_reject_ragged_lengths() {
        SufficientStats::from_flat_rows(&[1.0, 2.0, 3.0, 4.0], 3);
    }

    #[test]
    fn projection_moments_match_direct() {
        let rows = sample_rows(200);
        let s = SufficientStats::from_rows(&rows, 3);
        let w = [0.6, -0.7, 0.2];
        let vals: Vec<f64> =
            rows.iter().map(|r| r.iter().zip(&w).map(|(x, c)| x * c).sum()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        assert!((s.projection_mean(&w) - mean).abs() < 1e-10);
        assert!((s.projection_variance(&w) - var).abs() / (1.0 + var) < 1e-10);
    }

    #[test]
    fn variance_of_exact_invariant_is_tiny() {
        // y = 2x + 1 exactly: the projection (2, −1)/√5 has zero variance.
        // The centered representation must keep it ≈ 0 (raw-Gram
        // cancellation would give ~1e-8 here).
        let rows: Vec<Vec<f64>> =
            (0..10_000).map(|i| vec![i as f64, 2.0 * i as f64 + 1.0]).collect();
        let s = SufficientStats::from_rows(&rows, 2);
        let w = [2.0 / 5.0f64.sqrt(), -1.0 / 5.0f64.sqrt()];
        let var = s.projection_variance(&w);
        assert!(var < 1e-12, "variance {var}");
    }

    #[test]
    fn merge_matches_single_pass() {
        let rows = sample_rows(1000);
        let whole = SufficientStats::from_rows(&rows, 3);
        for cut in [1, 9, 500, 999] {
            let mut left = SufficientStats::from_rows(&rows[..cut], 3);
            let right = SufficientStats::from_rows(&rows[cut..], 3);
            left.merge(&right);
            assert_eq!(left.count(), whole.count());
            for j in 0..3 {
                assert!((left.mean()[j] - whole.mean()[j]).abs() < 1e-12);
                assert_eq!(left.attribute_min()[j], whole.attribute_min()[j]);
                assert_eq!(left.attribute_max()[j], whole.attribute_max()[j]);
            }
            for a in 0..3 {
                for b in a..3 {
                    // Cross-moments near zero cancel heavily; 1e-11 relative
                    // is the realistic fp agreement (contract is 1e-9).
                    let scale = 1.0 + whole.comoment(a, b).abs();
                    assert!(
                        (left.comoment(a, b) - whole.comoment(a, b)).abs() / scale < 1e-11,
                        "cut {cut}: M[{a},{b}]"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_is_associative_and_empty_is_identity() {
        let rows = sample_rows(300);
        let a = SufficientStats::from_rows(&rows[..100], 3);
        let b = SufficientStats::from_rows(&rows[100..200], 3);
        let c = SufficientStats::from_rows(&rows[200..], 3);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        for x in 0..3 {
            for y in x..3 {
                let scale = 1.0 + ab_c.comoment(x, y).abs();
                assert!((ab_c.comoment(x, y) - a_bc.comoment(x, y)).abs() / scale < 1e-12);
            }
        }

        let mut with_empty = a.clone();
        with_empty.merge(&SufficientStats::new(3));
        assert_eq!(with_empty.count(), a.count());
        let mut from_empty = SufficientStats::new(3);
        from_empty.merge(&a);
        assert_eq!(from_empty.count(), a.count());
        assert_eq!(from_empty.mean(), a.mean());
    }

    #[test]
    fn merged_is_the_canonical_fold() {
        let rows = sample_rows(700);
        let blocks: Vec<SufficientStats> =
            rows.chunks(150).map(|c| SufficientStats::from_rows(c, 3)).collect();
        // merged ≡ hand-rolled left fold, bit for bit.
        let by_hand = {
            let mut acc = SufficientStats::new(3);
            for b in &blocks {
                acc.merge(b);
            }
            acc
        };
        let canon = SufficientStats::merged(3, &blocks);
        assert_eq!(canon.count(), by_hand.count());
        assert_eq!(canon.mean(), by_hand.mean());
        for a in 0..3 {
            for b in a..3 {
                assert_eq!(canon.comoment(a, b).to_bits(), by_hand.comoment(a, b).to_bits());
            }
        }
        // Retire-and-re-merge ≡ merging the retained blocks from scratch:
        // the property the monitor's window ring is built on.
        let retained = SufficientStats::merged(3, &blocks[1..]);
        let again = SufficientStats::merged(3, &blocks[1..]);
        assert_eq!(retained.mean(), again.mean());
        assert_eq!(retained.comoment(0, 2).to_bits(), again.comoment(0, 2).to_bits());
        assert_eq!(SufficientStats::merged(3, []).count(), 0);
    }

    #[test]
    fn unmerge_inverts_merge_approximately() {
        let rows = sample_rows(600);
        let a = SufficientStats::from_rows(&rows[..400], 3);
        let b = SufficientStats::from_rows(&rows[400..], 3);
        let mut ab = a.clone();
        ab.merge(&b);
        ab.unmerge(&b);
        assert_eq!(ab.count(), a.count());
        for j in 0..3 {
            assert!((ab.mean()[j] - a.mean()[j]).abs() < 1e-10, "mean[{j}]");
        }
        for x in 0..3 {
            for y in x..3 {
                let scale = 1.0 + a.comoment(x, y).abs();
                assert!(
                    (ab.comoment(x, y) - a.comoment(x, y)).abs() / scale < 1e-9,
                    "M[{x},{y}]: {} vs {}",
                    ab.comoment(x, y),
                    a.comoment(x, y)
                );
            }
        }
        // …but only approximately: min/max keep the removed block's
        // extremes, which is exactly why retire paths re-merge instead.
        assert!(ab.attribute_max()[2] >= a.attribute_max()[2]);

        // Removing everything resets the moments but keeps conservative
        // bounds; removing an empty accumulator is the identity.
        let mut all = a.clone();
        let a2 = a.clone();
        all.unmerge(&a2);
        assert_eq!(all.count(), 0);
        assert_eq!(all.projection_variance(&[1.0, 0.0, 0.0]), 0.0);
        let mut same = a.clone();
        same.unmerge(&SufficientStats::new(3));
        assert_eq!(same.count(), a.count());
        assert_eq!(same.mean(), a.mean());
    }

    #[test]
    #[should_panic(expected = "unmerge")]
    fn unmerge_rejects_oversized_removal() {
        let rows = sample_rows(10);
        let small = SufficientStats::from_rows(&rows[..3], 3);
        let big = SufficientStats::from_rows(&rows, 3);
        let mut s = small;
        s.unmerge(&big);
    }

    #[test]
    fn empty_stats_shape() {
        let s = SufficientStats::new(2);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        let g = s.augmented_gram();
        assert_eq!(g.trace(), 0.0);
        assert_eq!(s.projection_variance(&[1.0, 0.0]), 0.0);
        assert_eq!(s.projection_scale(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        let s = SufficientStats::from_rows(&sample_rows(50), 3);
        let json = serde_json::to_string(&s).unwrap();
        let back: SufficientStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), s.count());
        for j in 0..3 {
            assert_eq!(back.mean()[j].to_bits(), s.mean()[j].to_bits());
            assert_eq!(back.attribute_min()[j].to_bits(), s.attribute_min()[j].to_bits());
            assert_eq!(back.attribute_max()[j].to_bits(), s.attribute_max()[j].to_bits());
        }
        for a in 0..3 {
            for b in a..3 {
                assert_eq!(back.comoment(a, b).to_bits(), s.comoment(a, b).to_bits());
            }
        }
        // The restored accumulator *continues* identically, not just
        // reads identically: further updates land on the same Kahan
        // compensation state.
        let (mut live, mut restored) = (s, back);
        for r in sample_rows(20) {
            live.update(&r);
            restored.update(&r);
        }
        for a in 0..3 {
            for b in a..3 {
                assert_eq!(live.comoment(a, b).to_bits(), restored.comoment(a, b).to_bits());
            }
        }
    }

    #[test]
    fn serde_roundtrips_nonfinite_values_bit_exactly() {
        // Infinities and NaNs from the data stream (a CSV "inf" cell, a
        // missing value) must survive persistence with their exact bit
        // patterns — JSON null would collapse all of them to NaN.
        let mut s = SufficientStats::new(2);
        s.update(&[1.0, f64::INFINITY]);
        s.update(&[f64::NAN, -3.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: SufficientStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), 2);
        for j in 0..2 {
            assert_eq!(back.mean()[j].to_bits(), s.mean()[j].to_bits());
            assert_eq!(back.attribute_min()[j].to_bits(), s.attribute_min()[j].to_bits());
            assert_eq!(back.attribute_max()[j].to_bits(), s.attribute_max()[j].to_bits());
        }
        assert_eq!(back.attribute_max()[1], f64::INFINITY, "historical +∞ max must survive");
        for a in 0..2 {
            for b in a..2 {
                assert_eq!(back.comoment(a, b).to_bits(), s.comoment(a, b).to_bits());
            }
        }
    }

    #[test]
    fn serde_restores_empty_and_rejects_bad_shapes() {
        // Empty stats: the ±∞ sentinels round-trip through the hex
        // bit-pattern encoding.
        let empty = SufficientStats::new(2);
        let json = serde_json::to_string(&empty).unwrap();
        let back: SufficientStats = serde_json::from_str(&json).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.attribute_min(), &[f64::INFINITY; 2]);
        assert_eq!(back.attribute_max(), &[f64::NEG_INFINITY; 2]);
        let mut grown = back;
        grown.update(&[1.0, 2.0]);
        assert_eq!(grown.attribute_min(), &[1.0, 2.0]);

        // A snapshot whose vector lengths disagree with dim is an error,
        // never a broken accumulator.
        let full = serde_json::to_string(&SufficientStats::from_rows(&sample_rows(5), 3)).unwrap();
        let skewed = full.replace("\"dim\":3", "\"dim\":4");
        assert!(serde_json::from_str::<SufficientStats>(&skewed).is_err());
    }
}
