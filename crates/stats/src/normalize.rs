//! Feature normalization (Appendix B): a log transform tames the skew of all
//! summary statistics except the selectivity estimates, which get a cube
//! root; each dimension is then divided by its average over the training set
//! (the average is more outlier-robust than the max).
//!
//! Only the four selectivity slots of a feature row depend on the query —
//! 462 of a row's 466 dimensions on the 11-column Aria table are static
//! statistics — so nothing here builds a query's raw feature rows.
//! [`Normalizer::fit`] reads the static statistics in place, restricted to
//! each training query's live blocks, plus the query's raw selectivity
//! estimates. A query's normalized matrix is built in two parts, the same
//! way for training and serving. [`Normalizer::normalize_statics`]
//! transforms every partition's static row **once per system generation**
//! into one shared [`NormalizedStatics`] table;
//! [`NormalizedStatics::query_columns`] normalizes a query's selectivity
//! estimates and keeps what the query adds — its live static blocks, its
//! `partitions × 4` normalized estimates, and the raw `selectivity_upper`
//! column — and [`NormalizedStatics::gather`] assembles the compact
//! [`FeatureMatrix`] from the two. That matrix is the only feature matrix:
//! a pick reads it, and so does everything that learns. The full-width
//! transform and fit are kept as test references in [`crate::oracle`]; the
//! fitted means and the gathered values are the ones they produce on the
//! full-width rows, bit for bit.

use ps3_query::Query;

use crate::builder::TableStats;
use crate::features::{
    compact_cols, live_blocks, FeatureMatrix, FeatureSchema, SELECTIVITY_FEATURES,
};
use crate::selectivity::SelectivityFeatures;

/// Fitted normalization state: per-dimension training means of the
/// transformed features.
#[derive(Debug, Clone)]
pub struct Normalizer {
    schema: FeatureSchema,
    /// Per-dimension mean of transformed values; 1.0 where the mean was 0
    /// (constant-zero features pass through unchanged).
    means: Vec<f64>,
}

/// The per-value transform: cube root for selectivity features, signed
/// `ln(1+|x|)` otherwise.
#[inline]
pub(crate) fn transform(x: f64, is_selectivity: bool) -> f64 {
    if is_selectivity {
        x.cbrt()
    } else {
        x.signum() * x.abs().ln_1p()
    }
}

/// [`transform`] of selectivity values, `f64::cbrt`, remembered per input
/// bits: a query's estimates repeat across partitions (an all-pass clause
/// gives 1.0, a disjoint one 0.0), and equal bits have equal roots.
/// Direct-mapped on the bits; a collision costs only a recomputation.
struct CbrtMemo {
    slots: Vec<(u64, f64)>,
}

impl CbrtMemo {
    /// Slots, a power of two.
    const SLOTS: usize = 1024;

    /// Every slot starts as `+0.0`'s entry (bits 0, root `+0.0`), which is
    /// a true one.
    fn new() -> Self {
        Self {
            slots: vec![(0, 0.0); Self::SLOTS],
        }
    }

    /// `x.cbrt()`, bit for bit.
    #[inline]
    fn cbrt(&mut self, x: f64) -> f64 {
        let bits = x.to_bits();
        let at = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Self::SLOTS.trailing_zeros());
        let slot = &mut self.slots[at as usize];
        if slot.0 != bits {
            *slot = (bits, transform(x, true));
        }
        slot.1
    }
}

impl Normalizer {
    /// Fit means over a training workload on `stats`: each query with its
    /// raw selectivity features on every partition, in partition order.
    ///
    /// A query's feature row holds the static blocks its mask leaves live
    /// and then its four estimates; every other dimension is `0.0`, which
    /// would add `+0.0` to a sum of absolute values and change nothing. So
    /// each dimension sums only those values, query-major, partition-minor
    /// — the order a pass over full-width rows takes — and the row count
    /// includes every row.
    ///
    /// # Panics
    /// Panics when a query's estimates do not cover every partition.
    pub fn fit<'a>(
        stats: &TableStats,
        workload: impl IntoIterator<Item = (&'a Query, &'a [SelectivityFeatures])>,
    ) -> Self {
        let schema = *stats.feature_schema();
        let sel = schema.selectivity_offset();
        let mut sums = vec![0.0f64; schema.dim()];
        let mut n = 0usize;
        for (query, estimates) in workload {
            assert_eq!(estimates.len(), stats.num_partitions(), "partition count");
            let blocks = live_blocks(&schema, query);
            for (statics, est) in stats.static_features().iter().zip(estimates) {
                for i in blocks.iter().flat_map(Clone::clone) {
                    sums[i] += transform(statics[i], false).abs();
                }
                for (sum, x) in sums[sel..].iter_mut().zip(est.as_array()) {
                    *sum += transform(x, true).abs();
                }
            }
            n += estimates.len();
        }
        let means = sums
            .into_iter()
            .map(|s| {
                let mean = if n > 0 { s / n as f64 } else { 0.0 };
                if mean.abs() < 1e-12 {
                    1.0
                } else {
                    mean
                }
            })
            .collect();
        Self { schema, means }
    }

    /// Normalize the static (query-independent) features of every partition
    /// of `stats`, once, for [`NormalizedStatics::gather`] to read from.
    ///
    /// # Panics
    /// Panics when `stats` has a different feature layout.
    pub fn normalize_statics(&self, stats: &TableStats) -> NormalizedStatics {
        assert_eq!(*stats.feature_schema(), self.schema, "feature layout");
        let stride = self.schema.selectivity_offset();
        let (static_means, sel_means) = self.means.split_at(stride);
        let mut data = Vec::with_capacity(stats.num_partitions() * stride);
        for row in stats.static_features() {
            data.extend(
                row[..stride]
                    .iter()
                    .zip(static_means)
                    .map(|(&x, mean)| transform(x, false) / mean),
            );
        }
        NormalizedStatics {
            schema: self.schema,
            data,
            sel_means: sel_means.to_vec(),
        }
    }

    /// The feature layout this normalizer was fitted for.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The fitted per-dimension means, for persistence.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Rebuild a fitted normalizer from persisted parts. Fails when the
    /// mean vector does not match the schema's dimension (a corrupt
    /// artifact), since normalizing indexes `means` by dimension.
    pub fn from_raw_parts(schema: FeatureSchema, means: Vec<f64>) -> Result<Self, &'static str> {
        if means.len() != schema.dim() {
            return Err("normalizer mean vector does not match feature dimension");
        }
        Ok(Self { schema, means })
    }
}

/// Every partition's static features through a fitted [`Normalizer`],
/// computed once per system generation and read by every query (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct NormalizedStatics {
    schema: FeatureSchema,
    /// `partitions × schema.selectivity_offset()` normalized static
    /// features, row-major.
    data: Vec<f64>,
    /// Training means of the transformed selectivity features.
    sel_means: Vec<f64>,
}

/// What one query adds to the shared [`NormalizedStatics`]: the part of its
/// normalized feature matrix that depends on the query, and all a feature
/// cache entry needs to own.
#[derive(Debug)]
pub struct QueryColumns {
    /// The static blocks the query's mask leaves live — its column map.
    blocks: Vec<std::ops::Range<usize>>,
    /// `partitions × 4` normalized selectivity estimates, row-major.
    selectivity: Vec<f64>,
    /// Every partition's raw `selectivity_upper` (§3.2).
    upper: Vec<f64>,
}

impl QueryColumns {
    /// Every partition's raw `selectivity_upper`: all the filter and the
    /// exactness check read of the raw features.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Heap bytes owned — the shared static table is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<std::ops::Range<usize>>()
            + (self.selectivity.capacity() + self.upper.capacity()) * std::mem::size_of::<f64>()
    }
}

impl NormalizedStatics {
    /// Static features per partition.
    fn stride(&self) -> usize {
        self.schema.selectivity_offset()
    }

    /// Keep what `query` adds: its live static blocks, its raw selectivity
    /// `estimates` (one per partition, in partition order, as
    /// [`crate::SelectivityPlan::estimate_all`] yields them) normalized,
    /// and their raw upper bounds.
    ///
    /// # Panics
    /// Panics when `estimates` does not cover exactly the partitions these
    /// statics were normalized from.
    pub fn query_columns(
        &self,
        query: &Query,
        estimates: impl IntoIterator<Item = SelectivityFeatures>,
    ) -> QueryColumns {
        let estimates = estimates.into_iter();
        let n = estimates.size_hint().0;
        let mut selectivity = Vec::with_capacity(n * SELECTIVITY_FEATURES);
        let mut upper = Vec::with_capacity(n);
        let mut roots = CbrtMemo::new();
        for sel in estimates {
            upper.push(sel.upper);
            selectivity.extend(
                (sel.as_array().iter().zip(&self.sel_means)).map(|(&x, mean)| roots.cbrt(x) / mean),
            );
        }
        assert_eq!(
            upper.len() * self.stride(),
            self.data.len(),
            "partition count"
        );
        QueryColumns {
            blocks: live_blocks(&self.schema, query),
            selectivity,
            upper,
        }
    }

    /// The query's normalized compact feature matrix — what the funnel, LSS
    /// and clustering read — gathered from the shared static rows and
    /// `columns`' selectivity block.
    pub fn gather(&self, columns: &QueryColumns) -> FeatureMatrix {
        let (stride, n) = (self.stride(), columns.upper.len());
        assert_eq!(n * stride, self.data.len(), "partition count");
        let cols = compact_cols(&self.schema, &columns.blocks);
        let mut data = Vec::with_capacity(n * cols.len());
        let rows = self.data.chunks_exact(stride);
        for (statics, sel) in rows.zip(columns.selectivity.chunks_exact(SELECTIVITY_FEATURES)) {
            for b in &columns.blocks {
                data.extend_from_slice(&statics[b.clone()]);
            }
            data.extend_from_slice(sel);
        }
        FeatureMatrix::new(cols, self.schema.dim(), n, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tests::fixture;
    use crate::features::PER_COL;
    use crate::oracle::apply_row;
    use crate::selectivity::SelectivityPlan;
    use ps3_query::{AggExpr, ScalarExpr};
    use ps3_storage::ColId;

    fn tiny_schema() -> FeatureSchema {
        FeatureSchema::new(1)
    }

    #[test]
    fn transform_shapes() {
        assert_eq!(transform(0.0, false), 0.0);
        assert!(transform(100.0, false) < 100.0);
        assert!(transform(-5.0, false) < 0.0);
        assert!((transform(0.125, true) - 0.5).abs() < 1e-12);
    }

    /// The raw selectivity features of a query with no predicate on every
    /// partition of `stats`: the queries here filter nothing.
    fn all_pass(stats: &TableStats) -> Vec<SelectivityFeatures> {
        SelectivityPlan::new(None).estimate_all(stats).collect()
    }

    fn sum_of(col: usize) -> Query {
        Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(col)))],
            None,
            vec![],
        )
    }

    #[test]
    fn fit_then_apply_scales_to_unit_mean() {
        let (_, stats) = fixture();
        let (q, sel) = (sum_of(0), all_pass(&stats));
        let norm = Normalizer::fit(&stats, [(&q, sel.as_slice())]);
        let statics = norm.normalize_statics(&stats);
        let m = statics.gather(&statics.query_columns(&q, sel.iter().copied()));
        // Every stored dimension that is not constant zero averages 1 in
        // magnitude over the rows it was fitted on: mean(a), and the slots.
        for slot in [0, m.width() - SELECTIVITY_FEATURES] {
            let avg =
                (0..m.num_rows()).map(|p| m.row(p)[slot].abs()).sum::<f64>() / m.num_rows() as f64;
            assert!((avg - 1.0).abs() < 1e-9, "slot {slot}: avg {avg}");
        }
    }

    #[test]
    fn unstored_columns_count_as_zero_rows() {
        // One query stores column a's block, the other column b's: a's
        // fitted means divide by all sixteen rows.
        let (_, stats) = fixture();
        let schema = *stats.feature_schema();
        let sel = all_pass(&stats);
        let (qa, qb) = (sum_of(0), sum_of(1));
        let norm = Normalizer::fit(&stats, [(&qa, sel.as_slice()), (&qb, sel.as_slice())]);
        let a_sum: f64 = (stats.static_features().iter())
            .map(|row| transform(row[0], false).abs())
            .sum();
        assert_eq!(norm.means()[0], a_sum / 16.0);
        let g = schema.col_offset(ColId(2));
        assert!(norm.means()[g..g + PER_COL].iter().all(|&m| m == 1.0));
    }

    #[test]
    fn zero_dimensions_pass_through() {
        let (_, stats) = fixture();
        let schema = *stats.feature_schema();
        let (q, sel) = (sum_of(0), all_pass(&stats));
        let norm = Normalizer::fit(&stats, [(&q, sel.as_slice())]);
        // Columns b and g were never live: their means stay 1.0.
        let b = schema.col_offset(ColId(1));
        assert!(norm.means()[b..schema.selectivity_offset()]
            .iter()
            .all(|&m| m == 1.0));
        let mut row = vec![0.0; schema.dim()];
        apply_row(&norm, &mut row);
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn selectivity_uses_cube_root() {
        let schema = tiny_schema();
        let norm = Normalizer::from_raw_parts(schema, vec![1.0; schema.dim()]).unwrap();
        let mut row = vec![0.0; schema.dim()];
        let sel = schema.selectivity_offset();
        row[sel] = 0.001;
        apply_row(&norm, &mut row);
        assert!((row[sel] - 0.1).abs() < 1e-12);
        assert_eq!(sel + SELECTIVITY_FEATURES, schema.dim());
    }

    /// The memo gives `cbrt`'s bits for every input, however the inputs
    /// repeat and collide: NaN of both signs, ±0.0, 1.0, subnormals, and
    /// more distinct values than it has slots.
    #[test]
    fn cbrt_memo_is_cbrt_bit_for_bit() {
        let special = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            -5e-324,
            f64::INFINITY,
            0.125,
        ];
        let spread = (0..3 * CbrtMemo::SLOTS as u32).map(|i| f64::from(i) / 4096.0);
        let values: Vec<f64> = special.iter().copied().chain(spread).collect();
        let mut memo = CbrtMemo::new();
        for round in 0..3 {
            for &x in values.iter().chain(&special) {
                let want = x.cbrt().to_bits();
                assert_eq!(memo.cbrt(x).to_bits(), want, "{x:e}, round {round}");
            }
        }
    }

    /// `query_columns` normalizes each estimate as `cbrt(x) / mean`, the
    /// memo unseen: repeated and special values included.
    #[test]
    fn query_columns_divides_each_root_by_its_mean() {
        let (_, stats) = fixture();
        let (q, sel) = (sum_of(0), all_pass(&stats));
        let norm = Normalizer::fit(&stats, [(&q, sel.as_slice())]);
        let statics = norm.normalize_statics(&stats);
        let palette = [0.0, -0.0, 1.0, 5e-324, f64::NAN, -f64::NAN, 0.3, 0.3];
        let estimates: Vec<SelectivityFeatures> = (0..sel.len())
            .map(|p| SelectivityFeatures {
                upper: palette[p % palette.len()],
                indep: palette[(p + 3) % palette.len()],
                min: palette[(p * 5) % palette.len()],
                max: 1.0,
            })
            .collect();
        let columns = statics.query_columns(&q, estimates.iter().copied());
        let want: Vec<u64> = (estimates.iter())
            .flat_map(|e| e.as_array().into_iter().zip(&statics.sel_means))
            .map(|(x, mean)| (x.cbrt() / mean).to_bits())
            .collect();
        let got: Vec<u64> = columns.selectivity.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn identity_keeps_scale_free_of_training_set() {
        let schema = tiny_schema();
        let norm = Normalizer::from_raw_parts(schema, vec![1.0; schema.dim()]).unwrap();
        let mut row = vec![1.0; schema.dim()];
        apply_row(&norm, &mut row);
        // ln(2) for non-selectivity dims.
        assert!((row[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
