//! A mergeable quantile sketch in the UDDSketch style: log-spaced buckets
//! with exact integer counts, collapsed by doubling the relative-error
//! base whenever the bucket budget overflows.
//!
//! ## Why this design (and not a t-digest)
//!
//! PS3's budgeted answering combines per-partition summaries across a
//! *picked* subset of partitions, and the serving layer's determinism
//! contract demands that the combination be **order-invariant down to the
//! bit**: the merged sketch over partitions `{3, 1, 7}` must equal the
//! merge over `{7, 3, 1}` and the single-pass sketch over the concatenated
//! rows. A t-digest cannot give that — its centroids depend on insertion
//! and merge order. This sketch can, because its state is *confluent*:
//!
//! - A value's level-0 bucket index is a pure function of the value
//!   (`ceil(log_γ |v|)`, computed once — never recomputed at a coarser
//!   level, where a fresh log could land one bucket off).
//! - Folding one level up is the exact integer map
//!   `idx ↦ (idx + 1).div_euclid(2)`; folds compose, so the state at level
//!   `ℓ` is always exactly "the level-0 multiset folded `ℓ` times".
//! - The collapse rule (raise the level while the sketch holds more than
//!   [`QuantileSketch::MAX_BUCKETS`] buckets) lands every construction
//!   order at the same level: the final level is the smallest `ℓ` whose
//!   folded support fits the budget — a property of the *multiset*, not of
//!   the order it arrived in.
//!
//! Hence the final state — and its serialized bytes — is a pure function
//! of the inserted multiset. Merge is fold-to-common-level + add counts +
//! collapse, which by the same argument is associative, commutative, and
//! agrees with single-pass construction. The property suite in
//! `tests/merge_laws.rs` pins all three laws against an exact oracle.
//!
//! ## Error model
//!
//! At level `ℓ` the bucket base is `γ^(2^ℓ)` and every representative
//! value is within relative error `α_ℓ = (γ_ℓ − 1)/(γ_ℓ + 1)` of any
//! member of its bucket ([`QuantileSketch::alpha`]). Rank error is zero —
//! counts are exact — so a quantile query's uncertainty decomposes into
//! the value-side `α_ℓ` (reported by the sketch) plus whatever rank
//! uncertainty partition *sampling* introduces (reported by the serving
//! layer). Non-finite values are carried in exact side counts: NaNs are
//! the engine's NULL and are excluded from the ranked population; `±inf`
//! sort to the ends; `±0.0` collapse into one zero count.

use std::collections::BTreeMap;

/// Mergeable log-bucket quantile sketch with exact counts (UDD style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Collapse level: bucket base is `γ₀^(2^level)`.
    level: u32,
    /// Buckets over positive values: level-adjusted index → count.
    pos: BTreeMap<i64, u64>,
    /// Buckets over `|v|` for negative values.
    neg: BTreeMap<i64, u64>,
    /// Exact count of `±0.0` values.
    zeros: u64,
    /// Exact count of NaNs (excluded from the ranked population).
    nans: u64,
    /// Exact count of `+inf`.
    pos_inf: u64,
    /// Exact count of `-inf`.
    neg_inf: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Initial relative-error target `α₀`: 0.1% at level 0.
    pub const INITIAL_ALPHA: f64 = 0.001;

    /// Bucket budget; exceeding it doubles the bucket base (level + 1).
    pub const MAX_BUCKETS: usize = 256;

    /// Level-0 log base `γ₀ = (1 + α₀) / (1 − α₀)`.
    fn gamma0() -> f64 {
        (1.0 + Self::INITIAL_ALPHA) / (1.0 - Self::INITIAL_ALPHA)
    }

    /// An empty sketch at level 0.
    pub fn new() -> Self {
        Self {
            level: 0,
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zeros: 0,
            nans: 0,
            pos_inf: 0,
            neg_inf: 0,
        }
    }

    /// Level-0 bucket index of a strictly positive finite magnitude:
    /// `ceil(log_γ₀ m)`. Computed exactly once per value — the confluence
    /// argument needs higher-level indices to come from integer folds of
    /// this one, never from a fresh log at a coarser base.
    fn index0(m: f64) -> i64 {
        let raw = m.ln() / Self::gamma0().ln();
        let idx = raw.ceil();
        // Guard against the representative of an exact power landing one
        // bucket high through float slop: `ceil` is correct iff
        // γ^(idx-1) < m ≤ γ^idx; nudge down when the check fails.
        let idx = idx as i64;
        if pow_gamma(Self::gamma0(), idx - 1) >= m {
            idx - 1
        } else {
            idx
        }
    }

    /// Fold a bucket index one level up: exact integer halving with the
    /// UDD pairing `{2k−1, 2k} ↦ k`.
    #[inline]
    fn fold1(idx: i64) -> i64 {
        (idx + 1).div_euclid(2)
    }

    /// Fold an index `levels` times.
    fn fold(mut idx: i64, levels: u32) -> i64 {
        for _ in 0..levels {
            idx = Self::fold1(idx);
        }
        idx
    }

    /// Insert one value.
    pub fn insert(&mut self, v: f64) {
        if v.is_nan() {
            self.nans += 1;
        } else if v == 0.0 {
            self.zeros += 1;
        } else if v == f64::INFINITY {
            self.pos_inf += 1;
        } else if v == f64::NEG_INFINITY {
            self.neg_inf += 1;
        } else {
            let (map, m) = if v > 0.0 {
                (&mut self.pos, v)
            } else {
                (&mut self.neg, -v)
            };
            let idx = Self::fold(Self::index0(m), self.level);
            *map.entry(idx).or_insert(0) += 1;
            self.collapse();
        }
    }

    /// Raise the level until the bucket budget holds.
    fn collapse(&mut self) {
        while self.pos.len() + self.neg.len() > Self::MAX_BUCKETS {
            self.level += 1;
            self.pos = fold_map(&self.pos);
            self.neg = fold_map(&self.neg);
        }
    }

    /// Fold this sketch's buckets up to `level` (no-op when already there).
    fn raise_to(&mut self, level: u32) {
        if level > self.level {
            let dl = level - self.level;
            self.pos = fold_map_by(&self.pos, dl);
            self.neg = fold_map_by(&self.neg, dl);
            self.level = level;
        }
    }

    /// Merge another sketch into this one. The result is bit-identical to
    /// a single-pass sketch over the union multiset, whatever the merge
    /// order (see the module docs for why).
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        let level = self.level.max(other.level);
        self.raise_to(level);
        let mut o = other.clone();
        o.raise_to(level);
        for (idx, c) in &o.pos {
            *self.pos.entry(*idx).or_insert(0) += c;
        }
        for (idx, c) in &o.neg {
            *self.neg.entry(*idx).or_insert(0) += c;
        }
        self.zeros += o.zeros;
        self.nans += o.nans;
        self.pos_inf += o.pos_inf;
        self.neg_inf += o.neg_inf;
        self.collapse();
    }

    /// Total values inserted, including NaNs.
    pub fn count(&self) -> u64 {
        self.ranked_count() + self.nans
    }

    /// Values participating in the ranked population (everything but NaN).
    pub fn ranked_count(&self) -> u64 {
        self.zeros
            + self.pos_inf
            + self.neg_inf
            + self.pos.values().sum::<u64>()
            + self.neg.values().sum::<u64>()
    }

    /// NaN count (the engine's NULLs; excluded from quantiles).
    pub fn nan_count(&self) -> u64 {
        self.nans
    }

    /// Current collapse level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Current per-value relative-error bound `α_ℓ = (γ_ℓ−1)/(γ_ℓ+1)`.
    pub fn alpha(&self) -> f64 {
        let g = gamma_at(Self::gamma0(), self.level);
        (g - 1.0) / (g + 1.0)
    }

    /// The estimated `p`-quantile (`0 ≤ p ≤ 1`) of the ranked population
    /// (NaNs excluded), by exact rank walk over the ordered buckets:
    /// `-inf`, negatives (most negative first), zeros, positives, `+inf`.
    /// Returns NaN when the ranked population is empty. Bucketed values
    /// come back as the bucket representative `2γ^i/(γ+1)`, within
    /// [`alpha`](Self::alpha) relative error of the true value; zeros and
    /// infinities come back exactly.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.ranked_count();
        if n == 0 || !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        // Nearest-rank (1-based): k = max(1, ceil(p·n)), clamped to n. The
        // arithmetic is exact for n < 2^53, and p = 0 / p = 1 hit the
        // population min / max exactly.
        let k = ((p * n as f64).ceil() as u64).clamp(1, n);
        let g = gamma_at(Self::gamma0(), self.level);
        let mut seen = 0u64;
        seen += self.neg_inf;
        if k <= seen {
            return f64::NEG_INFINITY;
        }
        // Negative values in ascending value order = descending index.
        for (&idx, &c) in self.neg.iter().rev() {
            seen += c;
            if k <= seen {
                return -representative(g, idx);
            }
        }
        seen += self.zeros;
        if k <= seen {
            return 0.0;
        }
        for (&idx, &c) in self.pos.iter() {
            seen += c;
            if k <= seen {
                return representative(g, idx);
            }
        }
        f64::INFINITY
    }

    /// Raw parts for the codec: `(level, zeros, nans, pos_inf, neg_inf,
    /// neg buckets ascending, pos buckets ascending)`.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (u32, u64, u64, u64, u64, Vec<(i64, u64)>, Vec<(i64, u64)>) {
        (
            self.level,
            self.zeros,
            self.nans,
            self.pos_inf,
            self.neg_inf,
            self.neg.iter().map(|(&i, &c)| (i, c)).collect(),
            self.pos.iter().map(|(&i, &c)| (i, c)).collect(),
        )
    }

    /// Rebuild from codec parts. The caller (the codec) has validated
    /// ascending bucket order, nonzero counts, and the bucket budget.
    #[allow(clippy::type_complexity)]
    pub fn from_raw_parts(
        level: u32,
        zeros: u64,
        nans: u64,
        pos_inf: u64,
        neg_inf: u64,
        neg: Vec<(i64, u64)>,
        pos: Vec<(i64, u64)>,
    ) -> Self {
        Self {
            level,
            pos: pos.into_iter().collect(),
            neg: neg.into_iter().collect(),
            zeros,
            nans,
            pos_inf,
            neg_inf,
        }
    }
}

/// Fold every index in a bucket map one level up, summing collided counts.
fn fold_map(m: &BTreeMap<i64, u64>) -> BTreeMap<i64, u64> {
    fold_map_by(m, 1)
}

/// Fold a bucket map by `levels` levels in one pass.
fn fold_map_by(m: &BTreeMap<i64, u64>, levels: u32) -> BTreeMap<i64, u64> {
    let mut out = BTreeMap::new();
    for (&idx, &c) in m {
        *out.entry(QuantileSketch::fold(idx, levels)).or_insert(0) += c;
    }
    out
}

/// `γ₀^(2^level)` by repeated squaring (deterministic, no libm pow).
fn gamma_at(gamma0: f64, level: u32) -> f64 {
    let mut g = gamma0;
    for _ in 0..level {
        g *= g;
    }
    g
}

/// `γ^idx` for integer `idx` by binary exponentiation.
fn pow_gamma(gamma: f64, idx: i64) -> f64 {
    let mut base = if idx < 0 { 1.0 / gamma } else { gamma };
    let mut e = idx.unsigned_abs();
    let mut acc = 1.0;
    while e > 0 {
        if e & 1 == 1 {
            acc *= base;
        }
        base *= base;
        e >>= 1;
    }
    acc
}

/// Representative value of bucket `idx` at base `γ`: the bucket covers
/// `(γ^(idx−1), γ^idx]`; the point minimizing worst-case relative error is
/// `2γ^idx/(γ+1)`.
fn representative(gamma: f64, idx: i64) -> f64 {
    2.0 * pow_gamma(gamma, idx) / (gamma + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.insert(v);
        }
        s
    }

    #[test]
    fn empty_quantile_is_nan() {
        let s = QuantileSketch::new();
        assert!(s.quantile(0.5).is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value_all_quantiles() {
        let s = built(&[42.0]);
        for p in [0.0, 0.25, 0.5, 1.0] {
            let q = s.quantile(p);
            assert!((q - 42.0).abs() / 42.0 <= s.alpha(), "p={p} q={q}");
        }
    }

    #[test]
    fn quantiles_track_exact_within_alpha() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 1.7).collect();
        let s = built(&values);
        for p in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let k = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[k - 1];
            let est = s.quantile(p);
            assert!(
                (est - exact).abs() / exact.abs() <= s.alpha() + 1e-12,
                "p={p} exact={exact} est={est} alpha={}",
                s.alpha()
            );
        }
    }

    #[test]
    fn insertion_order_invariance_bitwise() {
        let mut values: Vec<f64> = (0..5000)
            .map(|i| ((i * 2654435761u64 % 10007) as f64) * 0.013 - 40.0)
            .collect();
        let fwd = built(&values);
        values.reverse();
        let rev = built(&values);
        assert_eq!(fwd, rev, "state must be a pure function of the multiset");
    }

    #[test]
    fn merge_equals_single_pass() {
        let a: Vec<f64> = (0..3000).map(|i| (i as f64).sin() * 100.0).collect();
        let b: Vec<f64> = (0..2000).map(|i| (i as f64).cos() * 1e6).collect();
        let whole = built(&a.iter().chain(&b).copied().collect::<Vec<_>>());
        let mut merged = built(&a);
        merged.merge_from(&built(&b));
        assert_eq!(whole, merged);
        // And the other merge order.
        let mut merged2 = built(&b);
        merged2.merge_from(&built(&a));
        assert_eq!(whole, merged2);
    }

    #[test]
    fn special_values_are_exact_side_counts() {
        let s = built(&[
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
        ]);
        assert_eq!(s.nan_count(), 1);
        assert_eq!(s.count(), 7);
        assert_eq!(s.ranked_count(), 6);
        // Order: -inf, -1, 0, 0, 1, +inf.
        assert_eq!(s.quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn all_nan_population_is_nan() {
        let s = built(&[f64::NAN, f64::NAN]);
        assert_eq!(s.count(), 2);
        assert!(s.quantile(0.5).is_nan());
    }

    #[test]
    fn collapse_bounds_buckets_and_widens_alpha() {
        // Values spanning many decades force collapses.
        let values: Vec<f64> = (0..20_000).map(|i| 1.0001f64.powi(i) * 1e-10).collect();
        let s = built(&values);
        let (_, _, _, _, _, neg, pos) = s.raw_parts();
        assert!(pos.len() + neg.len() <= QuantileSketch::MAX_BUCKETS);
        assert!(s.level() > 0, "wide data must have collapsed");
        assert!(s.alpha() > QuantileSketch::INITIAL_ALPHA);
        assert!(s.alpha() < 1.0);
    }

    #[test]
    fn out_of_range_p_is_nan() {
        let s = built(&[1.0]);
        assert!(s.quantile(-0.1).is_nan());
        assert!(s.quantile(1.1).is_nan());
        assert!(s.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn index0_inverts_representatives() {
        // The guard in index0 must keep γ^(idx−1) < m ≤ γ^idx.
        let g = QuantileSketch::gamma0();
        for idx in [-1000i64, -3, -1, 0, 1, 2, 57, 1000] {
            let m = pow_gamma(g, idx);
            let got = QuantileSketch::index0(m);
            assert!(
                pow_gamma(g, got - 1) < m && m <= pow_gamma(g, got),
                "idx={idx} m={m} got={got}"
            );
        }
    }
}
