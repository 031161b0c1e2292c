//! The compiled serving engine: compile a profile once, evaluate it many
//! times.
//!
//! Discovery (synthesis) runs rarely; constraint *evaluation* sits inline
//! in ML inference and drift monitoring and must be orders of magnitude
//! cheaper (§2, Fig. 11). The interpreted path in [`crate::constraint`]
//! walks rows one at a time, re-resolving columns by name per call,
//! re-checking projection arity per tuple, and string-matching partition
//! cases per row. [`CompiledProfile`] removes all of that by lowering a
//! [`ConformanceProfile`] once into a flat, cache-friendly plan:
//!
//! * a dense row-major `k × m` coefficient matrix over **all** bounded
//!   constraints (global conjuncts first, then every disjunctive case's
//!   conjuncts, in profile order), with parallel `lb / ub / alpha / weight`
//!   arrays — arity is validated here, once, not per tuple;
//! * group tables mapping plan rows back to the profile's top-level
//!   conjunction (the global simple constraint and each disjunctive
//!   constraint's cases);
//! * per frame, a **dictionary-code → case-index table** per switching
//!   attribute, so partition dispatch is an array load, never a string
//!   comparison.
//!
//! Evaluation walks the frame in fixed row blocks of [`EVAL_BLOCK_ROWS`]:
//! each block is gathered into an SoA scratch buffer
//! ([`cc_frame::NumericView::gather_chunk`]), pushed through the blocked
//! matrix–vector kernel ([`cc_linalg::block_matvec`]), and finished with a
//! fused bound-excess → η → γ-weight epilogue. Steady state allocates
//! nothing per block.
//!
//! **Hard invariant:** every output is **bit-identical** to the
//! interpreted reference path
//! ([`ConformanceProfile::violations_interpreted`]). The kernel preserves
//! the scalar left-to-right accumulation order, the epilogue evaluates the
//! exact same expressions, and group sums fold in the same order — the
//! only arithmetic shortcut (skipping `η` when the bound excess is exactly
//! zero) is bit-exact because `η(α·0) = 0`. `tests/eval_equivalence.rs`
//! enforces this property over random profiles, partitions, thread
//! counts, and block-boundary row counts.

use crate::constraint::{ConformanceProfile, ProfileError, SimpleConstraint};
use crate::eta;
use cc_frame::{DataFrame, NumericView};
use cc_linalg::block_matvec;
use std::cell::Cell;
use std::ops::Range;

/// Rows per evaluation block. Sized so the SoA gather scratch plus the
/// per-constraint value matrix of a typical profile (tens of constraints ×
/// 8 f64) stay L2-resident.
pub const EVAL_BLOCK_ROWS: usize = 512;

thread_local! {
    static COMPILES: Cell<usize> = const { Cell::new(0) };
}

/// Number of [`CompiledProfile::compile`] runs on the calling thread.
///
/// Diagnostic for cache-regression tests: serving surfaces that claim to
/// compile once (e.g. `cc_monitor`'s `OnlineMonitor`) assert this stays flat
/// across repeated observations. Thread-local so concurrent tests do not
/// interfere.
pub fn thread_compile_count() -> usize {
    COMPILES.with(Cell::get)
}

/// One disjunctive constraint, lowered: case labels (for binding) and the
/// plan-row range of each case's conjuncts.
#[derive(Clone, Debug)]
struct CompiledDisjunctive {
    /// The switching attribute.
    attribute: String,
    /// Case labels, in profile order.
    labels: Vec<String>,
    /// Plan-row range per case, aligned with `labels`.
    cases: Vec<Range<usize>>,
}

/// A [`ConformanceProfile`] lowered into a flat serving plan.
///
/// Compile once (cheap: `O(k·m)` for `k` bounded constraints over `m`
/// attributes), evaluate many times against any frame carrying the
/// profile's attributes. All evaluation surfaces are bit-identical to the
/// interpreted reference path.
#[derive(Clone, Debug)]
pub struct CompiledProfile {
    /// Numeric attribute names, fixing column resolution order.
    attributes: Vec<String>,
    /// Attribute count (`m`).
    m: usize,
    /// Total bounded constraints (`k`).
    k: usize,
    /// Row-major `k × m` projection coefficients.
    coeffs: Vec<f64>,
    /// Lower bound per constraint.
    lb: Vec<f64>,
    /// Upper bound per constraint.
    ub: Vec<f64>,
    /// Scaling factor α per constraint.
    alpha: Vec<f64>,
    /// Normalized importance factor γ per constraint (within its simple
    /// constraint).
    weight: Vec<f64>,
    /// Plan-row range of the global simple constraint, if any.
    global: Option<Range<usize>>,
    /// Lowered disjunctive constraints, in profile order.
    disjunctive: Vec<CompiledDisjunctive>,
    /// Top-level conjunction size: `global` (0/1) + disjunctive count.
    parts: usize,
}

/// One bound switching attribute: the frame's code column plus the
/// `code → case index` table (`None` = value unseen in training ⇒
/// violation 1).
type BoundCases<'a> = Vec<(&'a [u32], Vec<Option<usize>>)>;

/// A plan bound to one frame: columns resolved once, partition cases
/// lowered to per-dictionary-code case indices.
struct BoundFrame<'a> {
    view: NumericView<'a>,
    n_rows: usize,
    /// Per disjunctive: the code column and case-index table.
    cats: BoundCases<'a>,
}

/// Reusable per-thread evaluation buffers.
struct Scratch {
    /// SoA gather target, `m × b`.
    block: Vec<f64>,
    /// Projection values for the kernel rows, `rows × b`.
    vals: Vec<f64>,
    /// Per-row group accumulator, `b`.
    acc: Vec<f64>,
    /// Per-case row buckets for partition dispatch (row offsets within
    /// the block), one per case of the widest disjunctive.
    buckets: Vec<Vec<u32>>,
    /// Case-local dense SoA gather target, `m × max bucket size`.
    sub_block: Vec<f64>,
    /// Case-local projection values, `max case length × max bucket size`.
    sub_vals: Vec<f64>,
    /// Case-local per-row accumulator.
    sub_acc: Vec<f64>,
}

impl Scratch {
    /// `kernel_rows` is how many plan rows go through the whole-block
    /// kernel (the global rows on the serving path; all `k` for
    /// per-constraint analysis).
    fn new(plan: &CompiledProfile, kernel_rows: usize) -> Self {
        let max_cases = plan.disjunctive.iter().map(|d| d.cases.len()).max().unwrap_or(0);
        let max_case_len =
            plan.disjunctive.iter().flat_map(|d| d.cases.iter().map(Range::len)).max().unwrap_or(0);
        Scratch {
            block: Vec::with_capacity(plan.m * EVAL_BLOCK_ROWS),
            vals: vec![0.0; kernel_rows * EVAL_BLOCK_ROWS],
            acc: vec![0.0; EVAL_BLOCK_ROWS],
            buckets: vec![Vec::with_capacity(EVAL_BLOCK_ROWS); max_cases],
            sub_block: vec![0.0; plan.m * EVAL_BLOCK_ROWS],
            sub_vals: vec![0.0; max_case_len * EVAL_BLOCK_ROWS],
            sub_acc: vec![0.0; EVAL_BLOCK_ROWS],
        }
    }
}

impl CompiledProfile {
    /// Lowers a profile into a serving plan.
    ///
    /// Validates **once** that every projection's arity matches the
    /// profile's attribute list — the per-tuple arity assertion the
    /// interpreted path used to pay is hoisted here (and demoted to a
    /// debug assertion in [`crate::Projection::evaluate`]).
    ///
    /// # Panics
    /// Panics when a projection's coefficient count disagrees with
    /// `profile.numeric_attributes` — such a profile is malformed and
    /// would panic (in debug) or silently truncate in the interpreted
    /// path's hot loop.
    pub fn compile(profile: &ConformanceProfile) -> Self {
        let m = profile.numeric_attributes.len();
        let mut plan = CompiledProfile {
            attributes: profile.numeric_attributes.clone(),
            m,
            k: 0,
            coeffs: Vec::new(),
            lb: Vec::new(),
            ub: Vec::new(),
            alpha: Vec::new(),
            weight: Vec::new(),
            global: None,
            disjunctive: Vec::new(),
            parts: 0,
        };
        if let Some(g) = &profile.global {
            plan.global = Some(plan.push_simple(g, "<global>"));
            plan.parts += 1;
        }
        for d in &profile.disjunctive {
            let mut labels = Vec::with_capacity(d.cases.len());
            let mut cases = Vec::with_capacity(d.cases.len());
            for (value, c) in &d.cases {
                cases.push(plan.push_simple(c, &format!("{}={}", d.attribute, value)));
                labels.push(value.clone());
            }
            plan.disjunctive.push(CompiledDisjunctive {
                attribute: d.attribute.clone(),
                labels,
                cases,
            });
            plan.parts += 1;
        }
        COMPILES.with(|c| c.set(c.get() + 1));
        plan
    }

    /// Appends one simple constraint's conjuncts to the plan, returning
    /// their plan-row range.
    fn push_simple(&mut self, sc: &SimpleConstraint, group: &str) -> Range<usize> {
        let start = self.k;
        for (c, &w) in sc.conjuncts.iter().zip(&sc.weights) {
            assert_eq!(
                c.projection.coefficients.len(),
                self.m,
                "CompiledProfile::compile: projection arity mismatch in {group}"
            );
            self.coeffs.extend_from_slice(&c.projection.coefficients);
            self.lb.push(c.lb);
            self.ub.push(c.ub);
            self.alpha.push(c.alpha);
            self.weight.push(w);
            self.k += 1;
        }
        start..self.k
    }

    /// The numeric attributes the plan evaluates, in tuple order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Total bounded constraints in the plan.
    pub fn constraint_count(&self) -> usize {
        self.k
    }

    /// Human-readable label of each plan row: the owning group
    /// (`<global>` or `attribute=value`) plus the projection expression.
    /// Rendered on demand — the serving surfaces that compile per call
    /// never pay for label formatting.
    pub fn constraint_labels(&self) -> Vec<String> {
        let mut out = vec![String::new(); self.k];
        let mut fill = |range: Range<usize>, group: &str| {
            for c in range {
                let coeffs = self.coeffs[c * self.m..(c + 1) * self.m].to_vec();
                let expr = crate::Projection::new(self.attributes.clone(), coeffs).expression();
                out[c] = format!("{group}: {expr}");
            }
        };
        if let Some(g) = &self.global {
            fill(g.clone(), "<global>");
        }
        for d in &self.disjunctive {
            for (label, case) in d.labels.iter().zip(&d.cases) {
                fill(case.clone(), &format!("{}={label}", d.attribute));
            }
        }
        out
    }

    /// Resolves the columns this plan needs from a frame and lowers each
    /// switching attribute's dictionary to a `code → case index` table.
    fn bind<'a>(&self, df: &'a DataFrame) -> Result<BoundFrame<'a>, ProfileError> {
        // Check attribute-by-attribute so the error names the missing
        // column, matching the interpreted path.
        for a in &self.attributes {
            df.numeric(a).map_err(|_| ProfileError::MissingNumeric(a.clone()))?;
        }
        let names: Vec<&str> = self.attributes.iter().map(String::as_str).collect();
        let view = df.numeric_view(&names).expect("columns checked above");
        Ok(BoundFrame { view, n_rows: df.n_rows(), cats: self.bind_cases(df)? })
    }

    /// The categorical half of [`Self::bind`]: per disjunctive, the code
    /// column and dictionary-code → case-index table.
    fn bind_cases<'a>(&self, df: &'a DataFrame) -> Result<BoundCases<'a>, ProfileError> {
        let mut cats = Vec::with_capacity(self.disjunctive.len());
        for d in &self.disjunctive {
            let (codes, dict) = df
                .categorical(&d.attribute)
                .map_err(|_| ProfileError::MissingCategorical(d.attribute.clone()))?;
            // One string scan per dictionary entry — never per row.
            let table: Vec<Option<usize>> =
                dict.iter().map(|label| d.labels.iter().position(|l| l == label)).collect();
            cats.push((codes, table));
        }
        Ok(cats)
    }

    /// Evaluates rows `range` of a bound frame into `out` (aligned with
    /// the range). The core blocked pipeline: gather → kernel → fused
    /// epilogue → group fold.
    fn eval_range(
        &self,
        bound: &BoundFrame<'_>,
        range: Range<usize>,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), range.len());
        let mut done = 0;
        let mut start = range.start;
        while start < range.end {
            let stop = (start + EVAL_BLOCK_ROWS).min(range.end);
            let b = stop - start;
            self.eval_block(bound, start..stop, scratch, &mut out[done..done + b]);
            done += b;
            start = stop;
        }
    }

    /// Kernel row count on the serving path: the global rows sit first in
    /// the plan, so they form the contiguous prefix the blocked kernel
    /// processes. Disjunctive case rows are evaluated per selected row
    /// only (see [`Self::eval_block`]).
    fn kernel_rows(&self) -> usize {
        self.global.as_ref().map_or(0, |g| g.end)
    }

    /// One block: at most [`EVAL_BLOCK_ROWS`] rows.
    fn eval_block(
        &self,
        bound: &BoundFrame<'_>,
        rows: Range<usize>,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        let b = rows.len();
        debug_assert!(b <= EVAL_BLOCK_ROWS && out.len() == b);
        let Scratch { block, vals, acc, buckets, sub_block, sub_vals, sub_acc } = scratch;
        // 1. Gather the block into SoA scratch (one contiguous copy per
        //    attribute).
        bound.view.gather_chunk(rows.clone(), block);
        out.fill(0.0);
        if self.parts == 0 {
            return;
        }
        // 2. The global rows — which every tuple evaluates — through the
        //    blocked kernel, then the fused epilogue (see
        //    `accumulate_group_terms`). Group sums land in the per-row
        //    accumulator in ascending constraint order, the interpreted
        //    path's exact fold, then clamp into the output — the
        //    interpreted top-level conjunction folds global first.
        let g_end = self.kernel_rows();
        if g_end > 0 {
            let vals = &mut vals[..g_end * b];
            block_matvec(&self.coeffs[..g_end * self.m], g_end, self.m, block, b, vals);
            let acc = &mut acc[..b];
            acc.fill(0.0);
            self.accumulate_group_terms(0..g_end, vals, acc);
            for (o, &a) in out.iter_mut().zip(acc.iter()) {
                *o += a.clamp(0.0, 1.0);
            }
        }
        // 3. Disjunctive constraints, partition-aware: a tuple evaluates
        //    only the case its dictionary code selects, so pushing every
        //    case through the kernel over all rows would waste both the
        //    arithmetic and — far worse — the η calls for the (typically
        //    wildly violated) cases the tuple does not belong to. Bucket
        //    the block's rows by case index, gather each bucket into a
        //    dense case-local sub-block, and run the same kernel + fused
        //    epilogue over just those rows.
        for (d, (codes, table)) in self.disjunctive.iter().zip(&bound.cats) {
            let codes = &codes[rows.clone()];
            for bucket in buckets[..d.cases.len()].iter_mut() {
                bucket.clear();
            }
            for (i, (o, &code)) in out.iter_mut().zip(codes).enumerate() {
                match table[code as usize] {
                    Some(ci) => buckets[ci].push(i as u32),
                    // Unseen in training ⇒ this part contributes exactly 1.
                    None => *o += 1.0,
                }
            }
            for (ci, bucket) in buckets[..d.cases.len()].iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let case = d.cases[ci].clone();
                let bl = bucket.len();
                // Dense case-local SoA gather: the bucket's rows become
                // contiguous, so the kernel and epilogue sweep linearly.
                let sub_block = &mut sub_block[..self.m * bl];
                for (j, col) in block.chunks_exact(b).enumerate() {
                    for (s, &i) in sub_block[j * bl..(j + 1) * bl].iter_mut().zip(bucket.iter()) {
                        *s = col[i as usize];
                    }
                }
                let sub_vals = &mut sub_vals[..case.len() * bl];
                block_matvec(
                    &self.coeffs[case.start * self.m..case.end * self.m],
                    case.len(),
                    self.m,
                    sub_block,
                    bl,
                    sub_vals,
                );
                let sub_acc = &mut sub_acc[..bl];
                sub_acc.fill(0.0);
                self.accumulate_group_terms(case, sub_vals, sub_acc);
                // Scatter the clamped case sums back to their rows. Each
                // row selects exactly one case per disjunctive, so this
                // adds each disjunctive's contribution once, in group
                // order.
                for (&i, &a) in bucket.iter().zip(sub_acc.iter()) {
                    out[i as usize] += a.clamp(0.0, 1.0);
                }
            }
        }
        let parts = self.parts as f64;
        for o in out.iter_mut() {
            *o /= parts;
        }
    }

    /// The fused epilogue for one constraint group: for each plan row `c`
    /// of `group` (whose projection values occupy `vals[local·n..]` in
    /// ascending order), turn projection values into bound excesses and
    /// fold the γ-weighted η terms into the per-row accumulator — in
    /// ascending `c`, the interpreted path's exact order.
    ///
    /// Two-pass per constraint: the excess pass is branch-free and
    /// vectorizes; the η pass — the only place `exp` lives — runs only
    /// when some row actually violates the constraint. Skipping it
    /// otherwise is bit-exact: every skipped term is exactly `+0.0`, and
    /// the accumulator is never `-0.0` (it starts at `+0.0` and only ever
    /// adds non-negative terms), so `acc + 0.0 ≡ acc`. The excess itself
    /// is never NaN — `f64::max` returns the non-NaN operand, so the
    /// trailing `.max(0.0)` collapses NaN inputs to exactly `0.0` — and
    /// the interpreted path computes the identical expression, so a NaN
    /// tuple scores as conforming on both paths alike.
    fn accumulate_group_terms(&self, group: Range<usize>, vals: &mut [f64], acc: &mut [f64]) {
        let n = acc.len();
        debug_assert_eq!(vals.len(), group.len() * n);
        for (c, row) in group.clone().zip(vals.chunks_exact_mut(n)) {
            let (lb, ub, alpha, w) = (self.lb[c], self.ub[c], self.alpha[c], self.weight[c]);
            let mut fired = false;
            for v in row.iter_mut() {
                let e = (*v - ub).max(lb - *v).max(0.0);
                *v = e;
                fired |= e != 0.0;
            }
            if fired {
                for (a, &e) in acc.iter_mut().zip(row.iter()) {
                    *a += if e == 0.0 { 0.0 } else { w * eta(alpha * e) };
                }
            }
        }
    }

    /// Per-tuple violations for every row of a frame. Bit-identical to
    /// [`ConformanceProfile::violations_interpreted`].
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn violations(&self, df: &DataFrame) -> Result<Vec<f64>, ProfileError> {
        let bound = self.bind(df)?;
        let mut out = vec![0.0; bound.n_rows];
        let mut scratch = Scratch::new(self, self.kernel_rows());
        self.eval_range(&bound, 0..bound.n_rows, &mut scratch, &mut out);
        Ok(out)
    }

    /// [`Self::violations`] with the rows split over `n_threads` scoped
    /// threads at block-aligned boundaries. Row results are independent,
    /// so the output is identical for every thread count.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    ///
    /// # Panics
    /// Panics when `n_threads` is zero.
    pub fn violations_parallel(
        &self,
        df: &DataFrame,
        n_threads: usize,
    ) -> Result<Vec<f64>, ProfileError> {
        assert!(n_threads > 0, "violations_parallel: need at least one thread");
        let bound = self.bind(df)?;
        let n = bound.n_rows;
        let mut out = vec![0.0; n];
        if n_threads == 1 || n < 2 * EVAL_BLOCK_ROWS {
            let mut scratch = Scratch::new(self, self.kernel_rows());
            self.eval_range(&bound, 0..n, &mut scratch, &mut out);
            return Ok(out);
        }
        let n_blocks = n.div_ceil(EVAL_BLOCK_ROWS);
        let per_thread = n_blocks.div_ceil(n_threads) * EVAL_BLOCK_ROWS;
        std::thread::scope(|scope| {
            let bound = &bound;
            let mut rest: &mut [f64] = &mut out;
            let mut start = 0;
            while start < n {
                let stop = (start + per_thread).min(n);
                let (mine, tail) = rest.split_at_mut(stop - start);
                rest = tail;
                let range = start..stop;
                scope.spawn(move || {
                    let mut scratch = Scratch::new(self, self.kernel_rows());
                    self.eval_range(bound, range, &mut scratch, mine);
                });
                start = stop;
            }
        });
        Ok(out)
    }

    /// Streams every row's violation, in row order, to `f` — the
    /// aggregation surface that never materializes an `O(n)` vector.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn for_each_violation(
        &self,
        df: &DataFrame,
        mut f: impl FnMut(f64),
    ) -> Result<(), ProfileError> {
        let bound = self.bind(df)?;
        let mut scratch = Scratch::new(self, self.kernel_rows());
        let mut block_out = vec![0.0; EVAL_BLOCK_ROWS.min(bound.n_rows.max(1))];
        let mut start = 0;
        while start < bound.n_rows {
            let stop = (start + EVAL_BLOCK_ROWS).min(bound.n_rows);
            let out = &mut block_out[..stop - start];
            self.eval_block(&bound, start..stop, &mut scratch, out);
            for &v in out.iter() {
                f(v);
            }
            start = stop;
        }
        Ok(())
    }

    /// Mean violation, streamed — the running sum visits rows left to
    /// right, so the result is bit-identical to
    /// `violations(df).iter().sum::<f64>() / n` without the `O(n)`
    /// allocation.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn mean_violation(&self, df: &DataFrame) -> Result<f64, ProfileError> {
        let mut sum = 0.0;
        let mut n = 0usize;
        self.for_each_violation(df, |v| {
            sum += v;
            n += 1;
        })?;
        if n == 0 {
            return Ok(0.0);
        }
        Ok(sum / n as f64)
    }

    /// Resolves, once, the case index each disjunctive constraint selects
    /// for a tuple with the given categorical values (`None` = unseen).
    /// Pair with [`Self::violation_resolved`] for repeated single-tuple
    /// evaluation (e.g. ExTuNe's intervention search, which re-scores the
    /// same tuple with different numeric values).
    ///
    /// # Errors
    /// Fails when a switching attribute is missing from `categorical`.
    pub fn resolve_cases(
        &self,
        categorical: &[(&str, &str)],
    ) -> Result<Vec<Option<usize>>, ProfileError> {
        self.disjunctive
            .iter()
            .map(|d| {
                let value = categorical
                    .iter()
                    .find(|(a, _)| *a == d.attribute)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| ProfileError::MissingCategorical(d.attribute.clone()))?;
                Ok(d.labels.iter().position(|l| l == value))
            })
            .collect()
    }

    /// Per-disjunctive, per-row case indices for a whole frame, via the
    /// dictionary-code tables (no string matching per row). Touches only
    /// the categorical columns — callers pairing this with their own
    /// numeric resolution don't pay for it twice.
    ///
    /// # Errors
    /// Fails when the frame lacks a switching attribute.
    pub fn resolve_frame_cases(
        &self,
        df: &DataFrame,
    ) -> Result<Vec<Vec<Option<usize>>>, ProfileError> {
        Ok(self
            .bind_cases(df)?
            .iter()
            .map(|(codes, table)| codes.iter().map(|&c| table[c as usize]).collect())
            .collect())
    }

    /// Single-tuple violation with pre-resolved disjunctive cases —
    /// bit-identical to [`ConformanceProfile::violation`] for the
    /// categorical values the cases were resolved from, with no name
    /// resolution or string matching.
    ///
    /// # Panics
    /// Debug-asserts the tuple arity and case count.
    pub fn violation_resolved(&self, numeric: &[f64], cases: &[Option<usize>]) -> f64 {
        debug_assert_eq!(numeric.len(), self.m, "violation_resolved: tuple arity mismatch");
        debug_assert_eq!(cases.len(), self.disjunctive.len());
        if self.parts == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        if let Some(g) = &self.global {
            total += self.scalar_group(g.clone(), numeric);
        }
        for (d, case) in self.disjunctive.iter().zip(cases) {
            total += match case {
                Some(ci) => self.scalar_group(d.cases[*ci].clone(), numeric),
                None => 1.0,
            };
        }
        total / self.parts as f64
    }

    /// One group's clamped, γ-weighted violation for a single tuple, in
    /// the interpreted path's exact accumulation order.
    fn scalar_group(&self, rows: Range<usize>, numeric: &[f64]) -> f64 {
        let mut acc = 0.0;
        for c in rows {
            let coeffs = &self.coeffs[c * self.m..(c + 1) * self.m];
            let v: f64 = numeric.iter().zip(coeffs).map(|(x, w)| x * w).sum();
            let excess = (v - self.ub[c]).max(self.lb[c] - v).max(0.0);
            acc += if excess == 0.0 { 0.0 } else { self.weight[c] * eta(self.alpha[c] * excess) };
        }
        acc.clamp(0.0, 1.0)
    }

    /// Mean γ-weighted contribution of every plan constraint over a frame
    /// — the per-constraint output mode backing
    /// [`crate::explain::profile_breakdown`]. A disjunctive case's
    /// constraints accumulate only over the rows that select that case
    /// (other rows never evaluate them); all means divide by the full row
    /// count. Entry order matches [`Self::constraint_labels`].
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn mean_constraint_contributions(&self, df: &DataFrame) -> Result<Vec<f64>, ProfileError> {
        let bound = self.bind(df)?;
        let n = bound.n_rows;
        let mut totals = vec![0.0; self.k];
        let mut scratch = Scratch::new(self, self.k);
        let mut start = 0;
        while start < n {
            let stop = (start + EVAL_BLOCK_ROWS).min(n);
            let b = stop - start;
            bound.view.gather_chunk(start..stop, &mut scratch.block);
            let vals = &mut scratch.vals[..self.k * b];
            block_matvec(&self.coeffs, self.k, self.m, &scratch.block, b, vals);
            for c in 0..self.k {
                let (lb, ub, alpha, w) = (self.lb[c], self.ub[c], self.alpha[c], self.weight[c]);
                for v in &mut vals[c * b..(c + 1) * b] {
                    let excess = (*v - ub).max(lb - *v).max(0.0);
                    *v = if excess == 0.0 { 0.0 } else { w * eta(alpha * excess) };
                }
            }
            if let Some(g) = &self.global {
                for c in g.clone() {
                    totals[c] += vals[c * b..(c + 1) * b].iter().sum::<f64>();
                }
            }
            for (d, (codes, table)) in self.disjunctive.iter().zip(&bound.cats) {
                let codes = &codes[start..stop];
                for (i, &code) in codes.iter().enumerate() {
                    if let Some(ci) = table[code as usize] {
                        for c in d.cases[ci].clone() {
                            totals[c] += vals[c * b + i];
                        }
                    }
                }
            }
            start = stop;
        }
        let denom = n.max(1) as f64;
        for t in &mut totals {
            *t /= denom;
        }
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};

    /// A frame with one exact invariant, a per-regime invariant, and a
    /// categorical regime column — exercises global + disjunctive paths.
    fn regime_frame(n: usize) -> DataFrame {
        const REGIMES: [&str; 3] = ["a", "b", "c"];
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut regime = Vec::new();
        for i in 0..n {
            let r = i % 3;
            let xv = (i as f64 * 0.37).sin() * 20.0;
            let yv = ((i * 13) % 41) as f64 - 20.0;
            x.push(xv);
            y.push(yv);
            z.push(xv + (r as f64 + 1.0) * yv);
            regime.push(REGIMES[r]);
        }
        let mut df = DataFrame::new();
        df.push_numeric("x", x).unwrap();
        df.push_numeric("y", y).unwrap();
        df.push_numeric("z", z).unwrap();
        df.push_categorical("regime", &regime).unwrap();
        df
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i}: {x} vs {y}");
        }
    }

    #[test]
    fn compiled_matches_interpreted_bitwise() {
        let train = regime_frame(900);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        assert!(!profile.disjunctive.is_empty(), "need a partitioned profile");
        let plan = CompiledProfile::compile(&profile);
        // Block-boundary row counts, including the degenerate ones.
        for n in [0, 1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 900] {
            let serve = regime_frame(n);
            let interpreted = profile.violations_interpreted(&serve).unwrap();
            let compiled = plan.violations(&serve).unwrap();
            assert_bits_eq(&interpreted, &compiled);
            for threads in [1, 2, 3, 7] {
                assert_bits_eq(&interpreted, &plan.violations_parallel(&serve, threads).unwrap());
            }
        }
    }

    #[test]
    fn unseen_partition_value_scores_one() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let mut serve = DataFrame::new();
        serve.push_numeric("x", vec![0.0; 4]).unwrap();
        serve.push_numeric("y", vec![0.0; 4]).unwrap();
        serve.push_numeric("z", vec![0.0; 4]).unwrap();
        serve.push_categorical("regime", &["a", "zzz", "b", "never-seen"]).unwrap();
        let interpreted = profile.violations_interpreted(&serve).unwrap();
        let compiled = plan.violations(&serve).unwrap();
        assert_bits_eq(&interpreted, &compiled);
        // Unseen values must drive their disjunctive part to exactly 1.
        assert!(compiled[1] > compiled[0]);
    }

    #[test]
    fn streaming_mean_matches_materialized() {
        let train = regime_frame(700);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let serve = regime_frame(EVAL_BLOCK_ROWS + 37);
        let v = plan.violations(&serve).unwrap();
        let expect = v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(plan.mean_violation(&serve).unwrap().to_bits(), expect.to_bits());
        // Empty frame → 0.
        let empty = regime_frame(0);
        assert_eq!(plan.mean_violation(&empty).unwrap(), 0.0);
    }

    #[test]
    fn resolved_single_tuple_matches_interpreted() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        for (tuple, value) in [
            (vec![1.0, 2.0, 3.0], "a"),
            (vec![5.0, -3.0, 100.0], "b"),
            (vec![0.0, 0.0, 0.0], "zzz"),
        ] {
            let cats = [("regime", value)];
            let cases = plan.resolve_cases(&cats).unwrap();
            let interpreted = profile.violation(&tuple, &cats).unwrap();
            let compiled = plan.violation_resolved(&tuple, &cases);
            assert_eq!(interpreted.to_bits(), compiled.to_bits());
        }
        // Missing switching attribute is the same typed error.
        assert!(matches!(plan.resolve_cases(&[]), Err(ProfileError::MissingCategorical(_))));
    }

    #[test]
    fn missing_columns_are_typed_errors() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let no_numeric = train.drop_column("y").unwrap();
        assert!(matches!(plan.violations(&no_numeric), Err(ProfileError::MissingNumeric(_))));
        let no_cat = train.drop_column("regime").unwrap();
        assert!(matches!(plan.violations(&no_cat), Err(ProfileError::MissingCategorical(_))));
    }

    #[test]
    fn empty_profile_evaluates_to_zero() {
        let profile = ConformanceProfile {
            numeric_attributes: vec!["x".into()],
            global: None,
            disjunctive: vec![],
        };
        let plan = CompiledProfile::compile(&profile);
        assert_eq!(plan.constraint_count(), 0);
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(plan.violations(&df).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn contribution_labels_align_and_sum() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        assert_eq!(plan.constraint_labels().len(), plan.constraint_count());
        assert!(plan.constraint_labels()[0].starts_with("<global>"));
        let serve = regime_frame(200);
        let contributions = plan.mean_constraint_contributions(&serve).unwrap();
        assert_eq!(contributions.len(), plan.constraint_count());
        // Conforming data: contributions are all (near) zero.
        assert!(contributions.iter().all(|&c| (0.0..0.05).contains(&c)), "{contributions:?}");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn compile_rejects_malformed_profiles() {
        use crate::constraint::{BoundedConstraint, SimpleConstraint};
        use crate::projection::Projection;
        let bad = ConformanceProfile {
            numeric_attributes: vec!["x".into(), "y".into()],
            global: Some(SimpleConstraint::new(
                vec![BoundedConstraint {
                    projection: Projection::new(vec!["x".into()], vec![1.0]),
                    lb: -1.0,
                    ub: 1.0,
                    mean: 0.0,
                    std: 1.0,
                    alpha: 1.0,
                }],
                vec![1.0],
            )),
            disjunctive: vec![],
        };
        CompiledProfile::compile(&bad);
    }
}
