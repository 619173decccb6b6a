//! The exact-argmax kernel behind both exact similarity scans.
//!
//! The cache's flat scan ([`EmbeddingIndex::nearest`]) and the affinity
//! clusterer's exact leader probe must return *bit-identical* results to
//! their sequential f64 scans: the same winner (first strict maximum in
//! scan order) and the same similarity bits. Those bits pin each row's dot
//! product to one sequential chain of `dim` dependent f64 adds, which
//! cannot be vectorised, and a 10k × 64 table streams 5.1 MB of rows.
//!
//! [`ShadowMatrix`] keeps an f32 copy (*shadow*) of the rows beside the
//! caller's f64 rows, in a blocked, transposed layout: [`ShadowMatrix::LANES`]
//! rows per block, stored dimension-major, so each dimension's 16 values are
//! adjacent. Scoring a block is then the fixed-width vertical loop
//! `acc[j] += q[d] * col[j]`, which LLVM vectorises on the baseline target:
//! sixteen rows' chains advance side by side, over half the bytes.
//!
//! [`ShadowMatrix::argmax`] turns those approximate scores into the exact
//! answer. It walks the rows in the caller's order and rescores a row with
//! the caller's own f64 similarity **unless** its f32 score proves the row
//! cannot win: `f32 + ε < best-so-far`. The bound ε (see [`score_slack`])
//! covers every rounding of both computations, so a pruned row's f64
//! score cannot exceed the running best, and the sequential
//! first-strict-max rule picks the same row with the same bits.
//!
//! [`EmbeddingIndex::nearest`]: crate::EmbeddingIndex::nearest

use std::ops::Range;

/// Unit roundoff of f32, 2⁻²⁴.
const U32: f64 = f32::EPSILON as f64 / 2.0;
/// Unit roundoff of f64, 2⁻⁵³.
const U64: f64 = f64::EPSILON / 2.0;

/// Higham's `γ_n = n·u / (1 − n·u)`, infinite once `n·u ≥ 1` (no bound).
fn gamma(n: f64, u: f64) -> f64 {
    if n * u < 1.0 {
        n * u / (1.0 - n * u)
    } else {
        f64::INFINITY
    }
}

/// A bound ε on `|f32 score − f64 score|` for one row, so that a row whose
/// f32 score is below `best − ε` cannot beat `best` in f64.
///
/// Let `q̃`, `r̃` be the f64 vectors the shadow narrows (the raw components
/// for the flat index; components times an f64 reciprocal norm for the
/// clusterer), `q̂ = fl32(q̃)`, `r̂ = fl32(r̃)`, and let `query_norm` ≥ ‖q̂‖
/// and `row_norm` ≥ ‖r̂‖.
///
/// * **f32 score.** Each narrowing is one rounding, and the sequential f32
///   dot of `dim` products adds `dim` more, so by the standard dot-product
///   analysis `|t − Σ q̃ r̃| ≤ γ₃₂(dim+2) · Σ|q̃ r̃|` with
///   `γ₃₂(n) = n·u/(1 − n·u)`, `u = 2⁻²⁴`.
/// * **f64 score.** The sequential f64 dot adds `γ₆₄(dim)`; the
///   clusterer's norm division and the reciprocal-norm scaling of its
///   shadow add at most eight more f64 roundings, so `γ₆₄(dim+8)` covers
///   both consumers.
/// * `Σ|q̃ r̃| ≤ ‖q̂‖‖r̂‖ / (1−u)²` by Cauchy–Schwarz. For unit or zero
///   [`Embedding`](crate::Embedding)s both norms are 1 to within
///   `~dim·2⁻⁵³`, so ε ≈ (dim+2)·u/(1 − (dim+2)·u): 3.9e-6 at dim 64.
/// * Subnormal f32 products and narrowings lose at most 2⁻¹⁵⁰ absolute
///   each; `(dim+2)(‖q̂‖+‖r̂‖+1)·2⁻¹⁴⁰` bounds them with room to spare.
///
/// The final factor `1 + 2⁻²⁰` absorbs `1/(1−u)²` and the f64 rounding of
/// this formula and of the two norms. The f64 scans clamp their scores to
/// `[-1, 1]`; that only lowers a score, or raises one to −1, which beats no
/// best. A non-finite norm yields an infinite or NaN ε, and no row is ever
/// pruned against it.
pub fn score_slack(dim: usize, query_norm: f64, row_norm: f64) -> f64 {
    let n = dim as f64;
    let relative = gamma(n + 2.0, U32) + gamma(n + 8.0, U64);
    let underflow = (n + 2.0) * (query_norm + row_norm + 1.0) * 2f64.powi(-140);
    (relative * query_norm * row_norm + underflow) * (1.0 + 2f64.powi(-20))
}

/// Blocked f32 shadow of slot-indexed f64 rows, plus the certified
/// exact-argmax scan over them (see the module docs).
///
/// Slot `s` lives in block `s / LANES`, lane `s % LANES`; component `d` of
/// that row is at `block·dim·LANES + d·LANES + lane`. Blocks are
/// zero-filled when first touched, so unset lanes score 0.
#[derive(Debug, Clone)]
pub struct ShadowMatrix {
    dim: usize,
    data: Vec<f32>,
    /// Largest f32 row norm ever stored: a monotone upper bound on the
    /// norm of every live row, feeding [`score_slack`].
    max_row_norm: f64,
}

impl ShadowMatrix {
    /// Rows per block: the fixed width of the vertical inner loop.
    pub const LANES: usize = 16;

    /// An empty shadow of `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        ShadowMatrix {
            dim,
            data: Vec::new(),
            max_row_norm: 0.0,
        }
    }

    /// Reserves room for `rows` slots in one allocation, so a table that
    /// fills to a known capacity never reallocates. Best effort: an
    /// overflowing or unsatisfiable request leaves the shadow to grow
    /// lazily and returns false.
    pub fn try_reserve_rows(&mut self, rows: usize) -> bool {
        rows.div_ceil(Self::LANES)
            .checked_mul(Self::LANES * self.dim)
            .and_then(|n| n.checked_sub(self.data.len()))
            .is_some_and(|extra| self.data.try_reserve_exact(extra).is_ok())
    }

    /// Stores the shadow of `values / norm` at `slot` (`norm` 0 stores a
    /// zero row, like [`unit_f32`](crate::probe::unit_f32)).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim`.
    pub fn set_row(&mut self, slot: usize, values: &[f64], norm: f64) {
        assert_eq!(values.len(), self.dim, "shadow row dimension mismatch");
        let block_len = Self::LANES * self.dim;
        let base = slot / Self::LANES * block_len;
        if self.data.len() < base + block_len {
            self.data.resize(base + block_len, 0.0);
        }
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        let lane = slot % Self::LANES;
        let mut sq = 0.0f64;
        for (d, &x) in values.iter().enumerate() {
            let v = (x * inv) as f32;
            self.data[base + d * Self::LANES + lane] = v;
            sq += f64::from(v) * f64::from(v);
        }
        self.max_row_norm = self.max_row_norm.max(sq.sqrt());
    }

    /// The f32 scores of `q32` against the 16 rows of `block`. Kept out
    /// of line: inlined into a generic scan, LLVM scalarises the sixteen
    /// accumulators instead of vectorising them.
    #[inline(never)]
    fn block_scores(&self, block: usize, q32: &[f32]) -> [f32; Self::LANES] {
        let block_len = Self::LANES * self.dim;
        let cols = &self.data[block * block_len..(block + 1) * block_len];
        let mut acc = [0.0f32; Self::LANES];
        for (col, &x) in cols.chunks_exact(Self::LANES).zip(q32) {
            let col: &[f32; Self::LANES] = col.try_into().expect("LANES-wide column");
            for j in 0..Self::LANES {
                acc[j] += x * col[j];
            }
        }
        acc
    }

    /// The first strict maximum of `exact(slot)` over the slots of
    /// `ranges`, visited in order, skipping slots for which `live` returns
    /// `None`: bit-identical to scoring every live slot with `exact` in
    /// that order, keeping a slot only when it scores strictly above the
    /// best so far. Returns the winner's `live` item and its exact score.
    ///
    /// `q32` is the query's shadow (the f32 image of the query, scaled as
    /// the rows were), and `exact` must be the similarity whose rounding
    /// [`score_slack`] bounds, with results clamped to `[-1, 1]`. Blocks
    /// whose sixteen scores all fall below the cut are skipped whole. Every
    /// slot in `ranges` must have been written with
    /// [`ShadowMatrix::set_row`]; dead slots' stale rows are scored with
    /// their block but never consulted.
    ///
    /// # Panics
    ///
    /// Panics if `q32.len() != dim` or a range reaches past the last
    /// stored block.
    pub fn argmax<T>(
        &self,
        q32: &[f32],
        ranges: impl IntoIterator<Item = Range<usize>>,
        mut live: impl FnMut(usize) -> Option<T>,
        mut exact: impl FnMut(usize) -> f64,
    ) -> Option<(T, f64)> {
        assert_eq!(q32.len(), self.dim, "shadow query dimension mismatch");
        let query_norm = q32
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        let slack = score_slack(self.dim, query_norm, self.max_row_norm);
        let mut best: Option<(T, f64)> = None;
        // Rows scoring below `cut` are pruned; nothing is before a best exists.
        let mut cut = f32::NEG_INFINITY;
        for range in ranges {
            if range.is_empty() {
                continue;
            }
            for block in range.start / Self::LANES..=(range.end - 1) / Self::LANES {
                let scores = self.block_scores(block, q32);
                if scores.iter().all(|&t| t < cut) {
                    continue;
                }
                let first = block * Self::LANES;
                let lanes = range.start.max(first)..range.end.min(first + Self::LANES);
                for slot in lanes {
                    if scores[slot - first] < cut {
                        continue;
                    }
                    let Some(item) = live(slot) else { continue };
                    let sim = exact(slot);
                    if best.as_ref().is_none_or(|(_, b)| sim > *b) {
                        cut = prune_cut(sim, slack);
                        best = Some((item, sim));
                    }
                }
            }
        }
        best
    }
}

/// The f32 cut below which a row cannot beat `best`: `t < cut` implies
/// `t + slack < best` in exact arithmetic, so the row's f64 score is below
/// `best` (or, if it clamps up to −1, not above it). `best − slack` is
/// lowered by four f64 ulps of its operands to cover the subtraction's
/// rounding, then rounded down to f32. A NaN `best` or `slack` gives a
/// NaN cut, and nothing compares below it.
fn prune_cut(best: f64, slack: f64) -> f32 {
    let cut = best - slack - 4.0 * f64::EPSILON * (best.abs() + slack);
    let narrowed = cut as f32;
    if f64::from(narrowed) > cut {
        narrowed.next_down()
    } else {
        narrowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_matches_the_closed_form_at_unit_norms() {
        let u = 2f64.powi(-24);
        let closed = 66.0 * u / (1.0 - 66.0 * u);
        let eps = score_slack(64, 1.0, 1.0);
        assert!(eps >= closed && eps < closed * 1.0001, "{eps} vs {closed}");
        assert!(score_slack(usize::MAX, 1.0, 1.0).is_infinite());
        assert!(score_slack(64, f64::NAN, 1.0).is_nan());
    }

    #[test]
    fn reserve_is_checked() {
        let mut shadow = ShadowMatrix::new(64);
        assert!(!shadow.try_reserve_rows(usize::MAX / 2));
        assert!(shadow.try_reserve_rows(1_000));
        shadow.set_row(999, &[0.0; 64], 1.0);
    }
}
