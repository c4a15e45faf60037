//! Quantile binning: map each feature to at most 256 integer bins, chosen at
//! (approximate) quantiles of the training distribution. Histogram-based
//! split finding then costs O(rows + bins) per feature per node instead of
//! O(rows log rows).
//!
//! A training set is binned once, into a [`BinnedSet`]; every model trained
//! on the same rows shares it.

/// Per-feature quantile bin edges.
///
/// A value `x` of feature `f` falls in the first bin whose upper edge is
/// `>= x`; values above the last edge share the top bin, and so does NaN. A
/// split "at bin b" means the predicate `x <= edges[f][b]`, which NaN fails:
/// the split search and [`crate::Tree::predict_with`] both send NaN right.
#[derive(Debug, Clone)]
pub struct Binner {
    /// `edges[f]` = sorted, deduplicated upper edges (≤ max_bins entries).
    edges: Vec<Vec<f64>>,
}

impl Binner {
    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins used by feature `f`.
    pub fn bins(&self, f: usize) -> usize {
        self.edges[f].len()
    }

    /// Bin index of value `x` for feature `f`.
    #[inline]
    pub fn bin_value(&self, f: usize, x: f64) -> u8 {
        bin_of(&self.edges[f], x)
    }

    /// The split threshold of `(feature, bin)`: rows go left iff
    /// `x <= threshold`.
    pub fn threshold(&self, f: usize, bin: u8) -> f64 {
        self.edges[f][usize::from(bin)]
    }
}

/// The bin of `x` under `edges`: the first edge `>= x`, clamped to the top
/// bin; NaN takes the top bin, right of every split.
#[inline]
fn bin_of(edges: &[f64], x: f64) -> u8 {
    let top = edges.len() - 1;
    if x.is_nan() {
        return top as u8;
    }
    edges.partition_point(|&e| e < x).min(top) as u8
}

/// Upper edges of one column from its non-NaN values, sorted by
/// `f64::total_cmp` and deduplicated (so row order does not matter): every
/// distinct value if there are at most `max_bins`, else evenly spaced
/// quantiles over the distinct values. The top edge is the column maximum.
fn fit_edges(sorted_distinct: &[f64], max_bins: usize) -> Vec<f64> {
    let len = sorted_distinct.len();
    if len == 0 {
        return vec![0.0];
    }
    if len <= max_bins {
        return sorted_distinct.to_vec();
    }
    let mut edges: Vec<f64> = (1..=max_bins)
        .map(|b| sorted_distinct[b * len / max_bins - 1])
        .collect();
    edges.dedup();
    edges
}

/// A training set binned once: column-major `u8` bins plus the [`Binner`]
/// fitted on the same values. The split search reads the bins, and the
/// boosting loop predicts training rows in bin space (`bin <= split bin`),
/// which for every value the set was fitted on is `x <= threshold`: each
/// threshold is an edge, and the top edge is the column maximum.
#[derive(Debug, Clone)]
pub struct BinnedSet {
    binner: Binner,
    max_bins: usize,
    n: usize,
    /// `[feature][row]`, flat: feature `f`'s bins are `bins[f·n..(f+1)·n]`.
    bins: Vec<u8>,
}

impl BinnedSet {
    /// Fit and bin `num_features` columns of `n` rows with at most
    /// `max_bins` bins each. `column(f, out)` appends feature `f`'s `n`
    /// values to the empty `out`, in row order; appending nothing declares
    /// the column all `0.0`, which is binned without sorting.
    ///
    /// # Panics
    /// Panics if `max_bins` is outside `2..=256` or a column appends a
    /// count other than `0` or `n`.
    pub fn from_columns(
        n: usize,
        num_features: usize,
        max_bins: usize,
        mut column: impl FnMut(usize, &mut Vec<f64>),
    ) -> Self {
        assert!((2..=256).contains(&max_bins), "bins must be in 2..=256");
        let mut edges = Vec::with_capacity(num_features);
        let mut bins = vec![0u8; n * num_features];
        let mut values = Vec::with_capacity(n);
        let mut sorted = Vec::with_capacity(n);
        for f in 0..num_features {
            values.clear();
            column(f, &mut values);
            if values.is_empty() {
                // All 0.0: one edge, and every row already sits in bin 0.
                edges.push(vec![0.0]);
                continue;
            }
            assert_eq!(values.len(), n, "feature {f}: expected {n} values");
            sorted.clear();
            sorted.extend(values.iter().copied().filter(|v| !v.is_nan()));
            // Values `total_cmp` calls equal are the same bits, so an
            // unstable sort leaves the order a stable one would.
            sorted.sort_unstable_by(f64::total_cmp);
            sorted.dedup();
            let fe = fit_edges(&sorted, max_bins);
            for (b, &x) in bins[f * n..(f + 1) * n].iter_mut().zip(&values) {
                *b = bin_of(&fe, x);
            }
            edges.push(fe);
        }
        Self {
            binner: Binner { edges },
            max_bins,
            n,
            bins,
        }
    }

    /// Fit and bin row-major `rows` (every row as wide as the first).
    pub fn from_rows(rows: &[Vec<f64>], max_bins: usize) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        Self::from_columns(rows.len(), dim, max_bins, |f, out| {
            out.extend(rows.iter().map(|r| r[f]));
        })
    }

    /// The edges the set was binned with.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// The bin budget per feature the set was fitted with.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.binner.num_features()
    }

    /// Feature `f`'s bin in every row.
    #[inline]
    pub fn column(&self, f: usize) -> &[u8] {
        &self.bins[f * self.n..(f + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rows(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn small_domains_bin_exactly() {
        let set = BinnedSet::from_rows(&rows(&[3.0, 1.0, 2.0, 1.0, 3.0]), 16);
        let b = set.binner();
        assert_eq!(b.bins(0), 3);
        assert_eq!(b.bin_value(0, 1.0), 0);
        assert_eq!(b.bin_value(0, 2.0), 1);
        assert_eq!(b.bin_value(0, 3.0), 2);
        // Out-of-range values clamp to the extremes.
        assert_eq!(b.bin_value(0, -10.0), 0);
        assert_eq!(b.bin_value(0, 10.0), 2);
    }

    #[test]
    fn binning_respects_order() {
        let data: Vec<Vec<f64>> = (0..1000).map(|i| vec![f64::from(i)]).collect();
        let set = BinnedSet::from_rows(&data, 32);
        let b = set.binner();
        assert!(b.bins(0) <= 32);
        let mut last = 0u8;
        for i in 0..1000 {
            let bin = b.bin_value(0, f64::from(i));
            assert!(bin >= last);
            last = bin;
        }
        assert_eq!(last as usize, b.bins(0) - 1);
    }

    #[test]
    fn thresholds_separate_bins() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let set = BinnedSet::from_rows(&data, 10);
        let b = set.binner();
        for bin in 0..b.bins(0) as u8 {
            let thr = b.threshold(0, bin);
            // Everything at or below thr bins at or below `bin`.
            assert!(b.bin_value(0, thr) <= bin);
        }
    }

    #[test]
    fn column_major_layout() {
        let data = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let set = BinnedSet::from_rows(&data, 8);
        assert_eq!((set.num_rows(), set.num_features()), (3, 2));
        assert_eq!(set.column(0), [0, 1, 2]);
        assert_eq!(set.column(1), [0, 1, 2]);
    }

    #[test]
    fn constant_feature() {
        let set = BinnedSet::from_rows(&rows(&[5.0; 20]), 8);
        assert_eq!(set.binner().bins(0), 1);
        assert_eq!(set.binner().bin_value(0, 5.0), 0);
    }

    #[test]
    fn an_empty_column_reads_zero() {
        let data = [[-1.0, 0.0, 2.0], [0.0, 0.0, 0.0]];
        let set = BinnedSet::from_columns(3, 2, 8, |f, out| {
            if f == 0 {
                out.extend_from_slice(&data[0]);
            }
        });
        let dense = BinnedSet::from_rows(&[vec![-1.0, 0.0], vec![0.0, 0.0], vec![2.0, 0.0]], 8);
        for f in 0..2 {
            assert_eq!(set.column(f), dense.column(f));
            assert_eq!(set.binner().bins(f), dense.binner().bins(f));
        }
        assert_eq!(set.binner().threshold(1, 0).to_bits(), 0.0f64.to_bits());
    }

    /// NaN takes the top bin, so no split sends it left, as `NaN <= t`
    /// never does; it is left out of the edges.
    #[test]
    fn nan_bins_right_of_every_split() {
        let set = BinnedSet::from_rows(&rows(&[1.0, f64::NAN, 2.0, 3.0]), 8);
        let b = set.binner();
        assert_eq!(b.bins(0), 3);
        assert_eq!(set.column(0), [0, 2, 1, 2]);
        assert_eq!(b.bin_value(0, f64::NAN), 2);
        let all_nan = BinnedSet::from_rows(&rows(&[f64::NAN; 3]), 8);
        assert_eq!(all_nan.binner().bins(0), 1);
        assert_eq!(all_nan.column(0), [0, 0, 0]);
    }

    proptest! {
        #[test]
        fn bin_is_monotone_in_value(values in prop::collection::vec(-1e5f64..1e5, 2..300),
                                    a in -1e5f64..1e5, b_ in -1e5f64..1e5) {
            let set = BinnedSet::from_rows(&rows(&values), 64);
            let b = set.binner();
            let (lo, hi) = if a <= b_ { (a, b_) } else { (b_, a) };
            prop_assert!(b.bin_value(0, lo) <= b.bin_value(0, hi));
        }

        /// The edges depend on the values, not their order.
        #[test]
        fn edges_ignore_row_order(mut values in prop::collection::vec(
            prop_oneof![-1e3f64..1e3, Just(0.0), Just(-0.0)], 1..300)) {
            let before = BinnedSet::from_rows(&rows(&values), 16);
            values.reverse();
            let after = BinnedSet::from_rows(&rows(&values), 16);
            let edges = |s: &BinnedSet| -> Vec<u64> {
                (0..s.binner().bins(0) as u8).map(|b| s.binner().threshold(0, b).to_bits()).collect()
            };
            prop_assert_eq!(edges(&before), edges(&after));
        }
    }
}
