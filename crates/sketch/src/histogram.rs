//! Equi-depth histograms (§3.1): 10 buckets by default, each covering the
//! same number of rows. For string columns the histogram is built over the
//! 64-bit hashes of the strings.
//!
//! The histogram answers *selectivity* questions — what fraction of the
//! partition's rows satisfy `c op v` — by locating `v` among the bucket
//! boundaries and interpolating inside the bucket (standard equi-depth
//! estimation).

/// An equi-depth histogram over `n` values with `b` buckets.
///
/// Stores `b + 1` boundaries; bucket `i` covers `[bounds[i], bounds[i+1]]`
/// and holds `n / b` rows (± rounding, tracked exactly per bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    bounds: Vec<f64>,
    /// Exact row count per bucket (depths differ by at most one).
    depths: Vec<u64>,
    total: u64,
}

/// Default bucket count, per the paper.
pub const DEFAULT_BUCKETS: usize = 10;

impl EquiDepthHistogram {
    /// Build from values (sorts a copy: O(R log R), the one super-linear
    /// sketch in Table 1).
    pub fn from_values(values: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Self::from_sorted(&sorted, buckets)
    }

    /// Build from already-sorted, NaN-free values.
    pub fn from_sorted(sorted: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let n = sorted.len();
        if n == 0 {
            return Self {
                bounds: vec![0.0, 0.0],
                depths: vec![0],
                total: 0,
            };
        }
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut depths = Vec::with_capacity(buckets);
        bounds.push(sorted[0]);
        let base = n / buckets;
        let extra = n % buckets;
        let mut cursor = 0usize;
        for i in 0..buckets {
            let take = base + usize::from(i < extra);
            cursor += take;
            bounds.push(sorted[cursor - 1]);
            depths.push(take as u64);
        }
        Self {
            bounds,
            depths,
            total: n as u64,
        }
    }

    /// The histogram's parts borrowed as a [`HistogramView`], which every
    /// probe below answers through.
    pub fn view(&self) -> HistogramView<'_> {
        HistogramView {
            bounds: &self.bounds,
            depths: &self.depths,
            total: self.total,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.view().buckets()
    }

    /// Total rows summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest summarized value.
    pub fn min(&self) -> f64 {
        self.view().min()
    }

    /// Largest summarized value.
    pub fn max(&self) -> f64 {
        self.view().max()
    }

    /// See [`HistogramView::fraction_below`].
    pub fn fraction_below(&self, v: f64, inclusive: bool) -> f64 {
        self.view().fraction_below(v, inclusive)
    }

    /// See [`HistogramView::range_selectivity`].
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        self.view().range_selectivity(lo, hi)
    }

    /// See [`HistogramView::equality_selectivity`].
    pub fn equality_selectivity(&self, v: f64, distinct_estimate: f64) -> f64 {
        self.view().equality_selectivity(v, distinct_estimate)
    }

    /// See [`HistogramView::cover_upper`].
    pub fn cover_upper(&self, lo: f64, hi: f64) -> f64 {
        self.view().cover_upper(lo, hi)
    }

    /// The raw encoding parts `(bounds, depths, total)` for the codec.
    pub fn raw_parts(&self) -> (&[f64], &[u64], u64) {
        (&self.bounds, &self.depths, self.total)
    }

    /// Rebuild from raw parts (codec use).
    ///
    /// # Panics
    /// Panics if the shapes are inconsistent.
    pub fn from_raw_parts(bounds: Vec<f64>, depths: Vec<u64>, total: u64) -> Self {
        assert_eq!(
            bounds.len(),
            depths.len() + 1,
            "bounds/depths shape mismatch"
        );
        assert_eq!(
            depths.iter().sum::<u64>(),
            total,
            "depths must sum to total"
        );
        Self {
            bounds,
            depths,
            total,
        }
    }
}

/// A histogram's boundaries, depths and total, borrowed wherever they are
/// stored, and the selectivity probes over them. An [`EquiDepthHistogram`]
/// answers through its own view; a caller that lays many histograms out in
/// flat arrays builds views over slices of those arrays and gets the same
/// answers, bit for bit, from the same code.
#[derive(Debug, Clone, Copy)]
pub struct HistogramView<'a> {
    bounds: &'a [f64],
    depths: &'a [u64],
    total: u64,
}

impl<'a> HistogramView<'a> {
    /// View `depths.len()` buckets bounded by `bounds`, holding `total`
    /// rows: the parts [`EquiDepthHistogram::raw_parts`] returns.
    ///
    /// # Panics
    /// Panics (in debug builds) if `bounds` is not one longer than
    /// `depths`.
    pub fn new(bounds: &'a [f64], depths: &'a [u64], total: u64) -> Self {
        debug_assert_eq!(bounds.len(), depths.len() + 1, "bounds/depths shape");
        Self {
            bounds,
            depths,
            total,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.depths.len()
    }

    /// Smallest summarized value.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Largest summarized value.
    pub fn max(&self) -> f64 {
        *self.bounds.last().expect("bounds non-empty")
    }

    /// Estimated fraction of rows with value `< v` (strict) when
    /// `inclusive == false`, or `<= v` when `inclusive == true`.
    ///
    /// Uses linear interpolation inside buckets; exact at bucket boundaries.
    /// Skewed data produces several degenerate buckets sharing one boundary
    /// value, so accumulation must continue across every bucket whose upper
    /// bound is covered by `v` rather than stopping at the first hit.
    /// Always within `[0, 1]`.
    pub fn fraction_below(&self, v: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if v < self.min() {
            return 0.0;
        }
        if v > self.max() {
            return 1.0;
        }
        let mut acc = 0.0f64;
        for i in 0..self.depths.len() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            let d = self.depths[i] as f64;
            if hi < v || (inclusive && hi == v) {
                acc += d;
            } else if lo < v && hi > lo {
                // v falls strictly inside (lo, hi): interpolate the below-v
                // share of this bucket and stop.
                acc += d * ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                break;
            } else {
                break;
            }
        }
        (acc / self.total as f64).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `value ∈ [lo, hi]` (both inclusive).
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        (self.fraction_below(hi, true) - self.fraction_below(lo, false)).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of an equality `value == v`, given an estimate
    /// of the column's distinct count (used to spread a bucket's depth over
    /// the distinct values it is believed to hold).
    pub fn equality_selectivity(&self, v: f64, distinct_estimate: f64) -> f64 {
        if self.total == 0 || v < self.min() || v > self.max() {
            return 0.0;
        }
        let per_bucket_distinct = (distinct_estimate / self.buckets() as f64).max(1.0);
        // Accumulate the depth of every bucket whose range contains v. A
        // value spanning several (degenerate) buckets is effectively a heavy
        // hitter: all that mass equals v, so no distinct-value spreading.
        let mut mass = 0.0f64;
        let mut containing = 0usize;
        for i in 0..self.depths.len() {
            let (lo, hi) = (self.bounds[i], self.bounds[i + 1]);
            if v >= lo && v <= hi {
                mass += self.depths[i] as f64;
                containing += 1;
            }
        }
        if containing == 0 {
            return 0.0;
        }
        let frac = mass / self.total as f64;
        if containing > 1 {
            frac.clamp(0.0, 1.0)
        } else {
            (frac / per_bucket_distinct).clamp(0.0, 1.0)
        }
    }

    /// A *guaranteed* upper bound on the selectivity of `value ∈ [lo, hi]`:
    /// the total depth of every bucket whose range intersects the interval.
    ///
    /// No interpolation, so rows inside an intersecting bucket can never be
    /// missed — this is what gives `selectivity_upper` its perfect recall
    /// (§3.2): it returns 0 only when provably no value falls in the range.
    pub fn cover_upper(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0 || hi < lo || hi < self.min() || lo > self.max() {
            return 0.0;
        }
        let mut mass = 0u64;
        for i in 0..self.depths.len() {
            let (b_lo, b_hi) = (self.bounds[i], self.bounds[i + 1]);
            if b_hi >= lo && b_lo <= hi {
                mass += self.depths[i];
            }
        }
        (mass as f64 / self.total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_0_99() -> EquiDepthHistogram {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        EquiDepthHistogram::from_values(&values, DEFAULT_BUCKETS)
    }

    #[test]
    fn bucket_structure() {
        let h = uniform_0_99();
        assert_eq!(h.buckets(), 10);
        assert_eq!(h.total(), 100);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 99.0);
    }

    #[test]
    fn fraction_below_on_uniform_data() {
        let h = uniform_0_99();
        assert!((h.fraction_below(50.0, false) - 0.5).abs() < 0.05);
        assert_eq!(h.fraction_below(-1.0, false), 0.0);
        assert_eq!(h.fraction_below(1000.0, false), 1.0);
        assert_eq!(h.fraction_below(99.0, true), 1.0);
    }

    #[test]
    fn range_selectivity_uniform() {
        let h = uniform_0_99();
        let s = h.range_selectivity(25.0, 74.0);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
        assert_eq!(h.range_selectivity(200.0, 300.0), 0.0);
        assert_eq!(h.range_selectivity(10.0, 5.0), 0.0);
    }

    #[test]
    fn skewed_data_equi_depth() {
        // 90 copies of 1.0 and the values 2..=11: first ~9 buckets are all 1.0.
        let mut values = vec![1.0; 90];
        values.extend((2..=11).map(f64::from));
        let h = EquiDepthHistogram::from_values(&values, 10);
        // Almost everything is ≤ 1.
        assert!(h.fraction_below(1.0, true) >= 0.85);
        // Range [2, 11] holds exactly 10 of 100 rows.
        let s = h.range_selectivity(2.0, 11.0);
        assert!((s - 0.1).abs() < 0.06, "got {s}");
    }

    #[test]
    fn equality_selectivity_bounds() {
        let h = uniform_0_99();
        let s = h.equality_selectivity(42.0, 100.0);
        assert!(s > 0.0 && s <= 0.2, "got {s}");
        assert_eq!(h.equality_selectivity(-5.0, 100.0), 0.0);
    }

    #[test]
    fn empty_and_constant_columns() {
        let empty = EquiDepthHistogram::from_values(&[], 10);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.range_selectivity(0.0, 1.0), 0.0);

        let constant = EquiDepthHistogram::from_values(&[7.0; 50], 10);
        assert_eq!(constant.range_selectivity(7.0, 7.0), 1.0);
        assert_eq!(constant.range_selectivity(8.0, 9.0), 0.0);
        assert_eq!(constant.fraction_below(7.0, false), 0.0);
    }

    #[test]
    fn nan_values_are_ignored() {
        let h = EquiDepthHistogram::from_values(&[1.0, f64::NAN, 3.0], 2);
        assert_eq!(h.total(), 2);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn cover_upper_bounds_interpolation() {
        let h = uniform_0_99();
        for (lo, hi) in [(10.0, 20.0), (0.0, 99.0), (55.5, 55.5), (-5.0, 3.0)] {
            assert!(h.cover_upper(lo, hi) >= h.range_selectivity(lo, hi) - 1e-12);
        }
        assert_eq!(h.cover_upper(200.0, 300.0), 0.0);
        assert_eq!(h.cover_upper(5.0, 1.0), 0.0);
    }

    proptest! {
        // Perfect recall: if any value lies in [lo, hi], cover_upper > 0.
        #[test]
        fn cover_upper_has_perfect_recall(
            values in prop::collection::vec(-1e3f64..1e3, 1..200),
            lo in -1.2e3f64..1.2e3,
            width in 0.0f64..500.0,
        ) {
            let h = EquiDepthHistogram::from_values(&values, 10);
            let hi = lo + width;
            let any_inside = values.iter().any(|&v| v >= lo && v <= hi);
            if any_inside {
                prop_assert!(h.cover_upper(lo, hi) > 0.0);
            }
        }

        #[test]
        fn selectivities_are_probabilities(
            values in prop::collection::vec(-1e4f64..1e4, 1..300),
            lo in -2e4f64..2e4,
            width in 0.0f64..1e4,
        ) {
            let h = EquiDepthHistogram::from_values(&values, 10);
            let s = h.range_selectivity(lo, lo + width);
            prop_assert!((0.0..=1.0).contains(&s));
            let f = h.fraction_below(lo, true);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn fraction_below_is_monotone(
            values in prop::collection::vec(-1e3f64..1e3, 2..200),
            a in -2e3f64..2e3,
            b in -2e3f64..2e3,
        ) {
            let h = EquiDepthHistogram::from_values(&values, 10);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(h.fraction_below(lo, true) <= h.fraction_below(hi, true) + 1e-9);
        }

        #[test]
        fn range_estimate_close_on_uniform(lo in 0.0f64..500.0, width in 1.0f64..500.0) {
            // Dense uniform integers: equi-depth interpolation should be
            // within a bucket's width of the truth.
            let values: Vec<f64> = (0..1000).map(f64::from).collect();
            let h = EquiDepthHistogram::from_values(&values, 10);
            let hi = lo + width;
            let truth = values.iter().filter(|&&v| v >= lo && v <= hi).count() as f64 / 1000.0;
            let est = h.range_selectivity(lo, hi);
            prop_assert!((est - truth).abs() < 0.21, "est {est} truth {truth}");
        }
    }
}
