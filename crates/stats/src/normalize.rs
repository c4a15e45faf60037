//! Feature normalization (Appendix B): a log transform tames the skew of all
//! summary statistics except the selectivity estimates, which get a cube
//! root; each dimension is then divided by its average over the training set
//! (the average is more outlier-robust than the max).
//!
//! [`Normalizer::fit`] reads the training workload's raw compact matrices.
//! Only the four selectivity slots of a feature row depend on the query —
//! 462 of a row's 466 dimensions on the 11-column Aria table are static
//! statistics — so a query's normalized matrix is built in two parts, the
//! same way for training and serving. [`Normalizer::normalize_statics`]
//! transforms every partition's static row **once per system generation**
//! into one shared [`NormalizedStatics`] table;
//! [`NormalizedStatics::query_columns`] keeps what a query adds — its live
//! static blocks, its `partitions × 4` selectivity estimates normalized
//! once, and the raw `selectivity_upper` column — and
//! [`NormalizedStatics::gather`] assembles the compact [`FeatureMatrix`]
//! from the two. That matrix is the only normalized feature matrix: a pick
//! reads it, and so does everything that learns. The full-width transform
//! is kept as a test reference in [`crate::oracle`]; the gathered values
//! are the ones it produces on the full-width row, bit for bit.

use ps3_query::{CompiledPredicate, Query};

use crate::builder::TableStats;
use crate::features::{
    compact_cols, live_blocks, FeatureMatrix, FeatureSchema, SELECTIVITY_FEATURES,
};
use crate::selectivity::SelectivityPlan;

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

impl Normalizer {
    /// Fit means over a set of raw compact training feature matrices.
    ///
    /// Each dimension sums its stored values query-major, partition-minor —
    /// the order a full-width pass would take. A column a matrix does not
    /// store is `0.0` there, and would add `+0.0` to a sum of absolute
    /// values, which changes nothing; the row count includes every row.
    ///
    /// # Panics
    /// Panics when a matrix is not a projection of `schema`'s full width.
    pub fn fit<'a>(
        schema: FeatureSchema,
        matrices: impl IntoIterator<Item = &'a FeatureMatrix>,
    ) -> Self {
        let dim = schema.dim();
        let is_sel: Vec<bool> = (0..dim)
            .map(|i| schema.type_of(i).is_selectivity())
            .collect();
        let mut sums = vec![0.0f64; dim];
        let mut n = 0usize;
        for m in matrices {
            assert_eq!(m.full_dim(), dim, "feature layout");
            for p in 0..m.num_rows() {
                for (&i, &x) in m.cols().iter().zip(m.row(p)) {
                    sums[i] += transform(x, is_sel[i]).abs();
                }
            }
            n += m.num_rows();
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

    /// An identity normalizer (transform only, no scaling).
    pub fn identity(schema: FeatureSchema) -> Self {
        Self {
            means: vec![1.0; schema.dim()],
            schema,
        }
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

    /// Estimate `query`'s selectivity on every partition of `stats` (the
    /// table these statics were normalized from) through `pred`, its
    /// compiled predicate, and keep what the query adds: its live static
    /// blocks, the four estimates normalized, and the raw upper bounds.
    ///
    /// # Panics
    /// Panics when `stats` has a different feature layout or partition
    /// count.
    pub fn query_columns(
        &self,
        stats: &TableStats,
        query: &Query,
        pred: Option<&CompiledPredicate>,
    ) -> QueryColumns {
        assert_eq!(*stats.feature_schema(), self.schema, "feature layout");
        let n = stats.num_partitions();
        assert_eq!(n * self.stride(), self.data.len(), "partition count");
        let plan = SelectivityPlan::new(pred);
        let mut selectivity = Vec::with_capacity(n * SELECTIVITY_FEATURES);
        let mut upper = Vec::with_capacity(n);
        for sel in plan.estimate_all(stats) {
            upper.push(sel.upper);
            selectivity.extend(
                (sel.as_array().iter().zip(&self.sel_means))
                    .map(|(&x, mean)| transform(x, true) / mean),
            );
        }
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
    use crate::features::SELECTIVITY_FEATURES;
    use crate::oracle::apply_row;

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

    #[test]
    fn fit_then_apply_scales_to_unit_mean() {
        let schema = tiny_schema();
        let dim = schema.dim();
        let mut m = vec![vec![0.0; dim]; 4];
        // Dimension 0 (mean(x)) takes values 1..4.
        for (i, row) in m.iter_mut().enumerate() {
            row[0] = (i + 1) as f64;
        }
        let norm = Normalizer::fit(schema, [&FeatureMatrix::from_dense(&m)]);
        for row in &mut m {
            apply_row(&norm, row);
        }
        let avg: f64 = m.iter().map(|r| r[0]).sum::<f64>() / 4.0;
        assert!((avg - 1.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn unstored_columns_count_as_zero_rows() {
        // One matrix stores dimension 0 only, the other every dimension:
        // the fitted mean divides by all six rows.
        let schema = tiny_schema();
        let dim = schema.dim();
        let narrow = FeatureMatrix::new(vec![0], dim, 2, vec![1.0, 3.0]);
        let wide = FeatureMatrix::from_dense(&vec![vec![0.0; dim]; 4]);
        let norm = Normalizer::fit(schema, [&narrow, &wide]);
        let expected = (transform(1.0, false) + transform(3.0, false)) / 6.0;
        assert_eq!(norm.means()[0], expected);
        assert!(norm.means()[1..].iter().all(|&m| m == 1.0));
    }

    #[test]
    fn zero_dimensions_pass_through() {
        let schema = tiny_schema();
        let m = FeatureMatrix::from_dense(&vec![vec![0.0; schema.dim()]; 3]);
        let norm = Normalizer::fit(schema, [&m]);
        let mut row = vec![0.0; schema.dim()];
        apply_row(&norm, &mut row);
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn selectivity_uses_cube_root() {
        let schema = tiny_schema();
        let norm = Normalizer::identity(schema);
        let mut row = vec![0.0; schema.dim()];
        let sel = schema.selectivity_offset();
        row[sel] = 0.001;
        apply_row(&norm, &mut row);
        assert!((row[sel] - 0.1).abs() < 1e-12);
        assert_eq!(sel + SELECTIVITY_FEATURES, schema.dim());
    }

    #[test]
    fn identity_keeps_scale_free_of_training_set() {
        let schema = tiny_schema();
        let norm = Normalizer::identity(schema);
        let mut row = vec![1.0; schema.dim()];
        apply_row(&norm, &mut row);
        // ln(2) for non-selectivity dims.
        assert!((row[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
