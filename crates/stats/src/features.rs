//! Feature vectors from summary statistics (§3.2, Table 2).
//!
//! Every partition gets a fixed-schema vector determined entirely by the
//! table's schema: a 42-wide block per column (17 scalar statistics + a
//! 25-bit heavy-hitter occurrence bitmap) plus 4 query-specific selectivity
//! features at the end.
//!
//! At query time a mask zeroes the blocks of columns the query does not use,
//! bitmap bits survive only for the query's group-by columns, and the four
//! selectivity slots are filled per partition. `live_blocks` is that mask,
//! the one column layout the normalizer's fit ([`crate::Normalizer::fit`])
//! and the normalized gather ([`crate::NormalizedStatics::gather`], what
//! training and serving read) both use.

use std::ops::Range;

use ps3_query::{CompiledPredicate, Query};
use ps3_storage::{ColId, Table};

use crate::builder::TableStats;
use crate::selectivity::{SelectivityFeatures, SelectivityPlan};

/// Scalar statistics per column (before the bitmap).
pub const SCALARS_PER_COL: usize = 17;
/// Occurrence-bitmap width: the paper caps global heavy hitters at 25/column.
pub const BITMAP_BITS: usize = 25;
/// Total feature slots per column.
pub const PER_COL: usize = SCALARS_PER_COL + BITMAP_BITS;
/// Trailing query-level selectivity features.
pub const SELECTIVITY_FEATURES: usize = 4;

/// The *kind* of a feature — the granularity at which the paper's
/// feature-selection procedure (Algorithm 3) includes or excludes features
/// (one kind spans all columns), and at which Figure 5 groups importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureType {
    /// mean(x)
    Mean,
    /// min(x)
    Min,
    /// max(x)
    Max,
    /// mean(x²)
    SecondMoment,
    /// std(x)
    Std,
    /// mean(log x)
    LogMean,
    /// mean(log²x)
    LogSecondMoment,
    /// min(log x)
    LogMin,
    /// max(log x)
    LogMax,
    /// number of distinct values
    Ndv,
    /// avg freq. of distinct values
    DvAvg,
    /// max freq. of distinct values
    DvMax,
    /// min freq. of distinct values
    DvMin,
    /// sum freq. of distinct values
    DvSum,
    /// number of heavy hitters
    HhCount,
    /// avg freq. of heavy hitters
    HhAvg,
    /// max freq. of heavy hitters
    HhMax,
    /// heavy-hitter occurrence bitmap (all 25 bits)
    HhBitmap,
    /// selectivity_upper
    SelUpper,
    /// selectivity_indep
    SelIndep,
    /// selectivity_min
    SelMin,
    /// selectivity_max
    SelMax,
}

impl FeatureType {
    /// Every feature type, in schema order.
    pub const ALL: [FeatureType; 22] = [
        FeatureType::Mean,
        FeatureType::Min,
        FeatureType::Max,
        FeatureType::SecondMoment,
        FeatureType::Std,
        FeatureType::LogMean,
        FeatureType::LogSecondMoment,
        FeatureType::LogMin,
        FeatureType::LogMax,
        FeatureType::Ndv,
        FeatureType::DvAvg,
        FeatureType::DvMax,
        FeatureType::DvMin,
        FeatureType::DvSum,
        FeatureType::HhCount,
        FeatureType::HhAvg,
        FeatureType::HhMax,
        FeatureType::HhBitmap,
        FeatureType::SelUpper,
        FeatureType::SelIndep,
        FeatureType::SelMin,
        FeatureType::SelMax,
    ];

    /// Stable display name (matches the paper's Algorithm-3 vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            FeatureType::Mean => "x",
            FeatureType::Min => "min(x)",
            FeatureType::Max => "max(x)",
            FeatureType::SecondMoment => "x2",
            FeatureType::Std => "std",
            FeatureType::LogMean => "log(x)",
            FeatureType::LogSecondMoment => "log2(x)",
            FeatureType::LogMin => "min(log(x))",
            FeatureType::LogMax => "max(log(x))",
            FeatureType::Ndv => "# dv",
            FeatureType::DvAvg => "avg dv",
            FeatureType::DvMax => "max dv",
            FeatureType::DvMin => "min dv",
            FeatureType::DvSum => "sum dv",
            FeatureType::HhCount => "# hh",
            FeatureType::HhAvg => "avg hh",
            FeatureType::HhMax => "max hh",
            FeatureType::HhBitmap => "hh bitmap",
            FeatureType::SelUpper => "selectivity_upper",
            FeatureType::SelIndep => "selectivity_indep",
            FeatureType::SelMin => "selectivity_min",
            FeatureType::SelMax => "selectivity_max",
        }
    }

    /// Whether this is one of the four selectivity features.
    pub fn is_selectivity(self) -> bool {
        matches!(
            self,
            FeatureType::SelUpper
                | FeatureType::SelIndep
                | FeatureType::SelMin
                | FeatureType::SelMax
        )
    }

    /// The Figure-5 category this feature belongs to.
    pub fn category(self) -> FeatureCategory {
        match self {
            FeatureType::Mean
            | FeatureType::Min
            | FeatureType::Max
            | FeatureType::SecondMoment
            | FeatureType::Std
            | FeatureType::LogMean
            | FeatureType::LogSecondMoment
            | FeatureType::LogMin
            | FeatureType::LogMax => FeatureCategory::Measure,
            FeatureType::Ndv
            | FeatureType::DvAvg
            | FeatureType::DvMax
            | FeatureType::DvMin
            | FeatureType::DvSum => FeatureCategory::DistinctValue,
            FeatureType::HhCount
            | FeatureType::HhAvg
            | FeatureType::HhMax
            | FeatureType::HhBitmap => FeatureCategory::HeavyHitter,
            FeatureType::SelUpper
            | FeatureType::SelIndep
            | FeatureType::SelMin
            | FeatureType::SelMax => FeatureCategory::Selectivity,
        }
    }
}

/// The four sketch-derived feature categories of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureCategory {
    /// Histogram-derived selectivity estimates.
    Selectivity,
    /// Heavy-hitter statistics and bitmaps.
    HeavyHitter,
    /// Distinct-value (AKMV) statistics.
    DistinctValue,
    /// Moment/min/max measures.
    Measure,
}

impl FeatureCategory {
    /// All categories in Figure-5 order.
    pub const ALL: [FeatureCategory; 4] = [
        FeatureCategory::Selectivity,
        FeatureCategory::HeavyHitter,
        FeatureCategory::DistinctValue,
        FeatureCategory::Measure,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            FeatureCategory::Selectivity => "selectivity",
            FeatureCategory::HeavyHitter => "hh",
            FeatureCategory::DistinctValue => "dv",
            FeatureCategory::Measure => "measure",
        }
    }
}

/// Index arithmetic over the feature vector layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSchema {
    num_cols: usize,
}

impl FeatureSchema {
    /// Schema for a table with `num_cols` columns.
    pub fn new(num_cols: usize) -> Self {
        Self { num_cols }
    }

    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        self.num_cols * PER_COL + SELECTIVITY_FEATURES
    }

    /// Number of table columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Start of column `c`'s block.
    pub fn col_offset(&self, c: ColId) -> usize {
        c.index() * PER_COL
    }

    /// Offset of the four selectivity features.
    pub fn selectivity_offset(&self) -> usize {
        self.num_cols * PER_COL
    }

    /// The feature type of dimension `idx`.
    pub fn type_of(&self, idx: usize) -> FeatureType {
        let sel = self.selectivity_offset();
        if idx >= sel {
            return match idx - sel {
                0 => FeatureType::SelUpper,
                1 => FeatureType::SelIndep,
                2 => FeatureType::SelMin,
                3 => FeatureType::SelMax,
                _ => panic!("feature index {idx} out of range"),
            };
        }
        let within = idx % PER_COL;
        if within >= SCALARS_PER_COL {
            FeatureType::HhBitmap
        } else {
            FeatureType::ALL[within]
        }
    }

    /// All dimensions carrying feature type `ft`.
    pub fn indices_of(&self, ft: FeatureType) -> Vec<usize> {
        (0..self.dim()).filter(|&i| self.type_of(i) == ft).collect()
    }

    /// Per-dimension mask of `types`: entry `i` is true when dimension `i`
    /// carries one of them — Algorithm 3's exclusions as the projection
    /// clustering drops.
    pub fn mask_of(&self, types: &[FeatureType]) -> Vec<bool> {
        (0..self.dim())
            .map(|i| types.contains(&self.type_of(i)))
            .collect()
    }

    /// Human-readable name of dimension `idx` given the table schema.
    pub fn name(&self, idx: usize, table: &Table) -> String {
        let sel = self.selectivity_offset();
        if idx >= sel {
            return self.type_of(idx).label().to_owned();
        }
        let col = idx / PER_COL;
        let within = idx % PER_COL;
        let col_name = &table.schema().col(ColId(col)).name;
        if within >= SCALARS_PER_COL {
            format!("{col_name}.bitmap[{}]", within - SCALARS_PER_COL)
        } else {
            format!("{col_name}.{}", FeatureType::ALL[within].label())
        }
    }
}

/// The static blocks of the full feature vector that `query`'s mask leaves
/// live (§3.2), ascending (`used_columns` is sorted): the scalar statistics
/// of every column the query uses, and the occurrence bitmap too for a
/// column it groups by. The compact matrix stores these and then the four
/// selectivity slots.
pub(crate) fn live_blocks(schema: &FeatureSchema, query: &Query) -> Vec<Range<usize>> {
    (query.used_columns().iter())
        .map(|c| {
            let off = schema.col_offset(*c);
            if query.group_by.contains(c) {
                off..off + PER_COL
            } else {
                off..off + SCALARS_PER_COL
            }
        })
        .collect()
}

/// The compact column map of [`live_blocks`]: each block's full feature
/// indices, then the four selectivity slots.
pub(crate) fn compact_cols(schema: &FeatureSchema, blocks: &[Range<usize>]) -> Vec<usize> {
    let sel = schema.selectivity_offset();
    (blocks.iter().flat_map(Range::clone))
        .chain(sel..sel + SELECTIVITY_FEATURES)
        .collect()
}

/// A flat, row-major, *compact* feature matrix: one row per partition,
/// holding only the columns a query's mask leaves live, plus the map between
/// compact columns and full feature indices. Every column that is not listed
/// reads as `0.0` — exactly what the full-width masked row holds there — so
/// a compact matrix and its [`Self::to_dense`] expansion describe the same
/// `F ∈ R^{N×M}` at a tenth of the bytes.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// Full feature index of each compact column, ascending.
    cols: Vec<usize>,
    /// Full feature index → compact column; [`Self::ABSENT`] where masked.
    slot_of: Vec<usize>,
    n: usize,
    /// `n × cols.len()` values, row-major.
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// `slot_of` marker for a full feature index the matrix does not store.
    const ABSENT: usize = usize::MAX;

    /// Assemble from parts. `cols` must ascend within `full_dim` and `data`
    /// must hold `n × cols.len()` values.
    pub(crate) fn new(cols: Vec<usize>, full_dim: usize, n: usize, data: Vec<f64>) -> Self {
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "column map must ascend"
        );
        assert!(cols.last().is_none_or(|&c| c < full_dim));
        assert_eq!(data.len(), n * cols.len());
        let mut slot_of = vec![Self::ABSENT; full_dim];
        for (slot, &c) in cols.iter().enumerate() {
            slot_of[c] = slot;
        }
        Self {
            cols,
            slot_of,
            n,
            data,
        }
    }

    /// Pack full-width rows as they are: every column stored, identity map.
    /// The boundary for callers that hold dense rows (tests).
    ///
    /// # Panics
    /// Panics if rows disagree on length.
    pub fn from_dense(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "ragged feature matrix");
            data.extend_from_slice(r);
        }
        Self::new((0..dim).collect(), dim, rows.len(), data)
    }

    /// Number of rows (partitions).
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Number of stored columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Width of the full feature vector this matrix is a projection of.
    pub fn full_dim(&self) -> usize {
        self.slot_of.len()
    }

    /// The full feature index of each stored column, ascending.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Row `p`'s stored values, in [`Self::cols`] order.
    #[inline]
    pub fn row(&self, p: usize) -> &[f64] {
        let w = self.cols.len();
        &self.data[p * w..(p + 1) * w]
    }

    /// Row `p`'s value at *full* feature index `idx` — `0.0` for a column the
    /// mask dropped. This is how the importance models read a compact row.
    #[inline]
    pub fn feature(&self, p: usize, idx: usize) -> f64 {
        match self.slot_of[idx] {
            Self::ABSENT => 0.0,
            slot => self.data[p * self.cols.len() + slot],
        }
    }

    /// Row `p` expanded to the full width.
    pub fn dense_row(&self, p: usize) -> Vec<f64> {
        let mut dense = vec![0.0; self.full_dim()];
        for (&c, &x) in self.cols.iter().zip(self.row(p)) {
            dense[c] = x;
        }
        dense
    }

    /// Every row expanded to the full width — what a GBDT's binner consumes.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        (0..self.n).map(|p| self.dense_row(p)).collect()
    }

    /// Heap bytes held (values plus both column maps).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
            + (self.cols.capacity() + self.slot_of.capacity()) * std::mem::size_of::<usize>()
    }
}

/// A query's raw selectivity features from the query alone: the four
/// query-dependent slots of its feature rows (§3.2), before normalization.
/// Training and serving estimate them through the predicate they already
/// compiled ([`SelectivityPlan::estimate_all`]) and normalize them with
/// [`crate::NormalizedStatics::query_columns`]; [`Self::compute`] compiles
/// the predicate itself, for a caller that holds only the query (the
/// `ps3_e2e` trace times it as its `stats.features` span).
#[derive(Debug)]
pub struct QueryFeatures;

impl QueryFeatures {
    /// Compile `query`'s predicate against `table` and estimate it on every
    /// partition of `stats`, in partition order.
    pub fn compute(stats: &TableStats, table: &Table, query: &Query) -> Vec<SelectivityFeatures> {
        let compiled = (query.predicate.as_ref()).map(|p| CompiledPredicate::compile(table, p));
        SelectivityPlan::new(compiled.as_ref())
            .estimate_all(stats)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::{StatsConfig, TableStats};
    use crate::normalize::{Normalizer, QueryColumns};
    use ps3_query::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    /// 200 rows in 8 partitions: numeric `a` (0..200), numeric `b`
    /// (0..13 repeating), categorical `g` alternating "x"/"y".
    pub(crate) fn fixture() -> (PartitionedTable, TableStats) {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Numeric),
            ColumnMeta::new("b", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut builder = TableBuilder::new(schema);
        for i in 0..200 {
            builder.push_row(&[i as f64, (i % 13) as f64], &[["x", "y"][i % 2]]);
        }
        let pt = PartitionedTable::with_equal_partitions(builder.finish(), 8);
        let stats = TableStats::build(&pt, &StatsConfig::default());
        (pt, stats)
    }

    /// `query`'s entry and gathered matrix as serving builds them, through
    /// a normalizer with unit means: the log and cube-root transforms keep
    /// zero, sign and order, so masking and selectivity read through them.
    fn gathered(
        pt: &PartitionedTable,
        stats: &TableStats,
        query: &Query,
    ) -> (QueryColumns, FeatureMatrix) {
        let schema = *stats.feature_schema();
        let unit = Normalizer::from_raw_parts(schema, vec![1.0; schema.dim()]).unwrap();
        let statics = unit.normalize_statics(stats);
        let pred = (query.predicate.as_ref()).map(|p| CompiledPredicate::compile(pt.table(), p));
        let columns = statics.query_columns(
            query,
            SelectivityPlan::new(pred.as_ref()).estimate_all(stats),
        );
        let matrix = statics.gather(&columns);
        (columns, matrix)
    }

    #[test]
    fn mask_zeroes_unused_columns() {
        let (pt, stats) = fixture();
        let schema = *stats.feature_schema();
        // Query touches only column a (aggregate) — b and g must be zeroed.
        let q = Query::new(vec![AggExpr::sum(ScalarExpr::col(ColId(0)))], None, vec![]);
        let (_, m) = gathered(&pt, &stats, &q);
        // Compact: column a's 17 scalars and the 4 selectivity slots.
        assert_eq!(m.width(), SCALARS_PER_COL + SELECTIVITY_FEATURES);
        for row in &m.to_dense() {
            let b_off = schema.col_offset(ColId(1));
            assert!(row[b_off..b_off + PER_COL].iter().all(|&x| x == 0.0));
            let g_off = schema.col_offset(ColId(2));
            assert!(row[g_off..g_off + PER_COL].iter().all(|&x| x == 0.0));
            // Column a's block carries signal (mean of a differs from 0).
            let a_off = schema.col_offset(ColId(0));
            assert!(row[a_off] != 0.0);
        }
    }

    #[test]
    fn bitmaps_survive_only_for_group_by_columns() {
        let (pt, stats) = fixture();
        let schema = *stats.feature_schema();
        // g used as a predicate column but NOT grouped: bitmap must be zero.
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::str_eq(ColId(2), "x"))),
            vec![],
        );
        let (_, m) = gathered(&pt, &stats, &q);
        let off = schema.col_offset(ColId(2)) + SCALARS_PER_COL;
        for row in &m.to_dense() {
            assert!(row[off..off + BITMAP_BITS].iter().all(|&x| x == 0.0));
            // But scalar hh/dv features of g survive (column is used).
            assert!(row[schema.col_offset(ColId(2)) + 9] > 0.0, "ndv masked out");
        }
        // Same query grouped by g: bitmap bits appear ("x"/"y" are heavy).
        let q = Query::new(vec![AggExpr::count()], None, vec![ColId(2)]);
        let (_, m) = gathered(&pt, &stats, &q);
        let any_bit =
            (m.to_dense().iter()).any(|row| row[off..off + BITMAP_BITS].iter().any(|&x| x != 0.0));
        assert!(any_bit, "group-by column lost its occurrence bitmap");
    }

    #[test]
    fn selectivity_slots_reflect_predicate() {
        let (pt, stats) = fixture();
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 50.0,
            })),
            vec![],
        );
        let (columns, m) = gathered(&pt, &stats, &q);
        // Rows 0..50 live in the first two partitions (25 rows each).
        assert!(columns.upper()[0] > 0.9);
        assert!(columns.upper()[7] == 0.0);
        // The normalized slot keeps the raw bound's zero.
        assert_eq!(m.row(7)[m.width() - SELECTIVITY_FEATURES], 0.0);
        // No predicate: all-pass.
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let (columns, _) = gathered(&pt, &stats, &q);
        assert_eq!(columns.upper()[3], 1.0);
        assert_eq!(QueryFeatures::compute(&stats, pt.table(), &q)[3].upper, 1.0);
    }

    #[test]
    fn compact_columns_ascend_and_absent_columns_read_zero() {
        let (pt, stats) = fixture();
        let schema = *stats.feature_schema();
        // a aggregated, g grouped: a's scalars, g's scalars + bitmap, 4 slots.
        let q = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0)))],
            None,
            vec![ColId(2)],
        );
        let (_, m) = gathered(&pt, &stats, &q);
        assert_eq!(m.width(), SCALARS_PER_COL + PER_COL + SELECTIVITY_FEATURES);
        assert!(m.cols().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(m.full_dim(), schema.dim());
        let dense = m.to_dense();
        for (p, row) in dense.iter().enumerate() {
            for (idx, &x) in row.iter().enumerate() {
                assert_eq!(m.feature(p, idx).to_bits(), x.to_bits());
            }
            let sel = &m.row(p)[m.width() - SELECTIVITY_FEATURES..];
            assert_eq!(sel, &row[schema.selectivity_offset()..]);
        }
        // Column b is masked: its block reads 0.0 through the map.
        assert_eq!(m.feature(3, schema.col_offset(ColId(1))), 0.0);
        // An identity-mapped dense matrix round-trips.
        let again = FeatureMatrix::from_dense(&dense);
        assert_eq!(again.width(), again.full_dim());
        assert_eq!(again.to_dense(), dense);
    }

    #[test]
    fn layout_arithmetic() {
        let s = FeatureSchema::new(3);
        assert_eq!(s.dim(), 3 * PER_COL + 4);
        assert_eq!(s.col_offset(ColId(2)), 2 * PER_COL);
        assert_eq!(s.selectivity_offset(), 3 * PER_COL);
    }

    #[test]
    fn type_of_every_dimension() {
        let s = FeatureSchema::new(2);
        assert_eq!(s.type_of(0), FeatureType::Mean);
        assert_eq!(s.type_of(16), FeatureType::HhMax);
        assert_eq!(s.type_of(17), FeatureType::HhBitmap);
        assert_eq!(s.type_of(41), FeatureType::HhBitmap);
        assert_eq!(s.type_of(PER_COL), FeatureType::Mean);
        assert_eq!(s.type_of(s.selectivity_offset()), FeatureType::SelUpper);
        assert_eq!(s.type_of(s.selectivity_offset() + 3), FeatureType::SelMax);
    }

    #[test]
    fn indices_of_covers_dim_exactly_once() {
        let s = FeatureSchema::new(2);
        let mut seen = vec![0u32; s.dim()];
        for ft in FeatureType::ALL {
            for i in s.indices_of(ft) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn mask_of_marks_exactly_the_indices_of_its_types() {
        let s = FeatureSchema::new(2);
        let types = [FeatureType::HhBitmap, FeatureType::SelMin, FeatureType::Std];
        let mask = s.mask_of(&types);
        assert_eq!(mask.len(), s.dim());
        let mut expected = vec![false; s.dim()];
        for ft in types {
            for i in s.indices_of(ft) {
                expected[i] = true;
            }
        }
        assert_eq!(mask, expected);
        assert!(s.mask_of(&[]).iter().all(|&m| !m));
    }

    #[test]
    fn bitmap_indices_per_column() {
        let s = FeatureSchema::new(2);
        let idx = s.indices_of(FeatureType::HhBitmap);
        assert_eq!(idx.len(), 2 * BITMAP_BITS);
    }

    #[test]
    fn categories_partition_types() {
        use std::collections::HashMap;
        let mut counts: HashMap<FeatureCategory, usize> = HashMap::new();
        for ft in FeatureType::ALL {
            *counts.entry(ft.category()).or_default() += 1;
        }
        assert_eq!(counts[&FeatureCategory::Measure], 9);
        assert_eq!(counts[&FeatureCategory::DistinctValue], 5);
        assert_eq!(counts[&FeatureCategory::HeavyHitter], 4);
        assert_eq!(counts[&FeatureCategory::Selectivity], 4);
    }
}
