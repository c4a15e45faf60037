//! The selectivity index: what the §3.2 selectivity probes read of every
//! partition's sketches, laid out flat per column.
//!
//! A cold query estimates its predicate on every partition. Read from the
//! [`ColumnStats`] bundles, that walks every partition's scattered heap
//! allocations — histogram vectors, exact dictionaries, heavy-hitter lists,
//! the AKMV's map — and scans each exact dictionary whole. The index is
//! derived from those bundles when a [`TableStats`](crate::TableStats) is
//! constructed, is never persisted, and keeps only what a probe reads, in
//! contiguous arrays per column:
//!
//! * a column with a histogram (numeric-like) answers interval and `<>`
//!   clauses. Per partition it keeps the column's row count, its distinct
//!   estimate, its histogram, and its exact dictionary's non-NaN values
//!   sorted by `total_cmp` with cumulative counts, so an interval's exact
//!   count is two binary searches and one subtraction;
//! * a column without one (categorical) answers membership. Per partition it
//!   keeps the distinct estimate, the exact dictionary's sorted codes with
//!   their frequencies, and the heavy hitters in stored order with their
//!   summed frequency.
//!
//! Every probe returns what the per-[`ColumnStats`] probe in
//! [`crate::oracle`] returns on the same sketches, bit for bit.

use std::mem::size_of;
use std::ops::Range;

use ps3_query::CmpOp;
use ps3_sketch::HistogramView;

use crate::column_stats::ColumnStats;
use crate::selectivity::Interval;

const MIXED_KINDS: &str = "stats column has a histogram in some partitions only";
const EXACT_TOO_LARGE: &str = "stats exact-dictionary rows exceed the selectivity index";
const NOT_A_CODE: &str = "stats categorical sketch key is not a dictionary code";

/// Every column's probe inputs across all partitions (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct SelectivityIndex {
    columns: Vec<ColumnIndex>,
}

#[derive(Debug, Clone)]
enum ColumnIndex {
    /// A column with a histogram in every partition.
    Numeric(NumericIndex),
    /// A column with a histogram in none.
    Categorical(CategoricalIndex),
}

#[derive(Debug, Clone)]
struct NumericIndex {
    parts: Vec<NumericPart>,
    /// Every partition's histogram boundaries, back to back.
    bounds: Vec<f64>,
    /// Every partition's histogram depths, back to back.
    depths: Vec<u64>,
    /// Every exact dictionary's non-NaN values, one run per partition,
    /// each run sorted by `total_cmp`.
    values: Vec<f64>,
    /// `cum[i]`: the rows holding `values[i]` or a value before it in its
    /// run.
    cum: Vec<u32>,
}

#[derive(Debug, Clone)]
struct NumericPart {
    /// The column's rows, at least 1: what an exact count is divided by.
    rows: f64,
    distinct: f64,
    /// The histogram's rows.
    total: u64,
    /// Where the histogram's depths start; its bounds start `p` entries
    /// later, one extra boundary per earlier partition.
    hist: usize,
    buckets: usize,
    /// The exact dictionary's run, when the partition keeps one.
    exact: Option<Range<usize>>,
}

#[derive(Debug, Clone)]
struct CategoricalIndex {
    parts: Vec<CategoricalPart>,
    /// Every exact dictionary's codes, one ascending run per partition.
    codes: Vec<u32>,
    /// `freqs[i]`: the fraction of its dictionary's rows holding `codes[i]`.
    freqs: Vec<f64>,
    /// Every partition's heavy-hitter codes, in stored order.
    hh_codes: Vec<u32>,
    hh_freqs: Vec<f64>,
}

#[derive(Debug, Clone)]
struct CategoricalPart {
    distinct: f64,
    /// The heavy hitters' summed frequency.
    hh_mass: f64,
    hh: Range<usize>,
    exact: Option<Range<usize>>,
}

/// Heap bytes of a vector's allocation.
fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

fn code(key: u64) -> Result<u32, &'static str> {
    u32::try_from(key).map_err(|_| NOT_A_CODE)
}

impl SelectivityIndex {
    /// Index `partitions[p][c]` for every partition `p` and column
    /// `c < num_cols`. A column is numeric when its first partition has a
    /// histogram. Fails when a column's partitions disagree on that, when a
    /// categorical key is wider than a dictionary code, or when an exact
    /// dictionary holds more rows than a `u32` counts.
    pub(crate) fn new(
        partitions: &[Vec<ColumnStats>],
        num_cols: usize,
    ) -> Result<Self, &'static str> {
        let columns = (0..num_cols)
            .map(|c| {
                let column: Vec<&ColumnStats> = partitions.iter().map(|part| &part[c]).collect();
                let numeric = column.first().is_some_and(|s| s.histogram.is_some());
                if column.iter().any(|s| s.histogram.is_some() != numeric) {
                    return Err(MIXED_KINDS);
                }
                match numeric {
                    true => NumericIndex::new(&column).map(ColumnIndex::Numeric),
                    false => CategoricalIndex::new(&column).map(ColumnIndex::Categorical),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { columns })
    }

    /// Heap bytes the index owns.
    pub(crate) fn heap_bytes(&self) -> usize {
        let columns = self.columns.iter().map(|c| match c {
            ColumnIndex::Numeric(n) => {
                bytes(&n.parts)
                    + bytes(&n.bounds)
                    + bytes(&n.depths)
                    + bytes(&n.values)
                    + bytes(&n.cum)
            }
            ColumnIndex::Categorical(k) => {
                bytes(&k.parts)
                    + bytes(&k.codes)
                    + bytes(&k.freqs)
                    + bytes(&k.hh_codes)
                    + bytes(&k.hh_freqs)
            }
        });
        bytes(&self.columns) + columns.sum::<usize>()
    }

    /// `(upper, estimate)` for `iv` on column `col` of partition `p`.
    pub(crate) fn interval(&self, col: usize, p: usize, iv: &Interval) -> (f64, f64) {
        if iv.is_empty() {
            return (0.0, 0.0);
        }
        match &self.columns[col] {
            ColumnIndex::Numeric(c) => c.interval(p, iv),
            // No histogram to read: claim nothing.
            ColumnIndex::Categorical(_) => (1.0, 0.5),
        }
    }

    /// `(upper, estimate)` for `x <> value`: the complement of equality.
    pub(crate) fn not_equal(&self, col: usize, p: usize, value: f64) -> (f64, f64) {
        let eq = Interval::from_cmp(CmpOp::Eq, value).expect("equality is an interval");
        let (eq_upper, eq_est) = self.interval(col, p, &eq);
        let est = (1.0 - eq_est).clamp(0.0, 1.0);
        let distinct = match &self.columns[col] {
            ColumnIndex::Numeric(c) => c.parts[p].distinct,
            ColumnIndex::Categorical(c) => c.parts[p].distinct,
        };
        // Every row may differ from `value` unless the column is constant
        // at it (then equality covers everything).
        let upper = if eq_upper >= 1.0 && distinct <= 1.0 {
            0.0
        } else {
            1.0
        };
        (upper, est)
    }

    /// `(upper, estimate)` for membership in the dictionary codes `codes`.
    pub(crate) fn in_set(&self, col: usize, p: usize, codes: &[u32], negated: bool) -> (f64, f64) {
        match &self.columns[col] {
            ColumnIndex::Categorical(c) => c.in_set(p, codes, negated),
            // Membership compiles against categorical columns only, and a
            // thawed system's statistics must agree with its schema on which
            // columns those are: no plan gets here.
            ColumnIndex::Numeric(_) => (1.0, 0.5),
        }
    }
}

impl NumericIndex {
    fn new(column: &[&ColumnStats]) -> Result<Self, &'static str> {
        let hists = column.iter().filter_map(|s| s.histogram.as_ref());
        let buckets: usize = hists.map(|h| h.buckets()).sum();
        let exact = column.iter().filter_map(|s| s.exact.as_ref());
        let entries: usize = exact.map(|x| x.distinct()).sum();
        let mut index = Self {
            parts: Vec::with_capacity(column.len()),
            bounds: Vec::with_capacity(buckets + column.len()),
            depths: Vec::with_capacity(buckets),
            values: Vec::with_capacity(entries),
            cum: Vec::with_capacity(entries),
        };
        let mut run = Vec::new();
        for stats in column {
            let hist = stats.histogram.as_ref().ok_or(MIXED_KINDS)?;
            let (bounds, depths, total) = hist.raw_parts();
            let at = index.depths.len();
            index.bounds.extend_from_slice(bounds);
            index.depths.extend_from_slice(depths);
            let exact = match &stats.exact {
                None => None,
                Some(x) => {
                    run.clear();
                    run.extend(
                        x.iter()
                            .map(|(key, count)| (f64::from_bits(key), count))
                            .filter(|(v, _)| !v.is_nan()),
                    );
                    run.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let start = index.values.len();
                    let mut acc = 0u64;
                    for &(v, count) in &run {
                        acc = acc.checked_add(count).ok_or(EXACT_TOO_LARGE)?;
                        index.values.push(v);
                        index
                            .cum
                            .push(u32::try_from(acc).map_err(|_| EXACT_TOO_LARGE)?);
                    }
                    Some(start..index.values.len())
                }
            };
            index.parts.push(NumericPart {
                rows: stats.rows.max(1) as f64,
                distinct: stats.akmv.distinct_estimate(),
                total,
                hist: at,
                buckets: depths.len(),
                exact,
            });
        }
        Ok(index)
    }

    fn histogram(&self, p: usize) -> HistogramView<'_> {
        let part = &self.parts[p];
        let (at, k) = (part.hist, part.buckets);
        let bounds = &self.bounds[at + p..=at + p + k];
        HistogramView::new(bounds, &self.depths[at..at + k], part.total)
    }

    fn interval(&self, p: usize, iv: &Interval) -> (f64, f64) {
        let part = &self.parts[p];
        if let Some(run) = &part.exact {
            let (values, cum) = (&self.values[run.clone()], &self.cum[run.clone()]);
            // Both bound tests are monotone over `total_cmp` order: ±0.0
            // compare equal to either zero bound, NaN values are not stored,
            // and a NaN bound admits nothing. So the admitted values are
            // the one run `from..to`.
            let from = values.partition_point(|&v| !(v > iv.lo || (iv.lo_incl && v == iv.lo)));
            let to = values.partition_point(|&v| v < iv.hi || (iv.hi_incl && v == iv.hi));
            let before = |i: usize| if i == 0 { 0 } else { cum[i - 1] };
            let count = if to > from {
                before(to) - before(from)
            } else {
                0
            };
            let sel = f64::from(count) / part.rows;
            return (sel, sel);
        }
        let hist = self.histogram(p);
        let upper = hist.cover_upper(iv.lo, iv.hi);
        let est = if iv.lo == iv.hi {
            hist.equality_selectivity(iv.lo, part.distinct)
        } else {
            (hist.fraction_below(iv.hi, iv.hi_incl) - hist.fraction_below(iv.lo, !iv.lo_incl))
                .clamp(0.0, 1.0)
        };
        (upper, est.min(upper))
    }
}

impl CategoricalIndex {
    fn new(column: &[&ColumnStats]) -> Result<Self, &'static str> {
        let exact = column.iter().filter_map(|s| s.exact.as_ref());
        let entries: usize = exact.map(|x| x.distinct()).sum();
        let hitters: usize = column.iter().map(|s| s.heavy_hitters.len()).sum();
        let mut index = Self {
            parts: Vec::with_capacity(column.len()),
            codes: Vec::with_capacity(entries),
            freqs: Vec::with_capacity(entries),
            hh_codes: Vec::with_capacity(hitters),
            hh_freqs: Vec::with_capacity(hitters),
        };
        for stats in column {
            let hh_start = index.hh_codes.len();
            for h in &stats.heavy_hitters {
                index.hh_codes.push(code(h.key)?);
                index.hh_freqs.push(h.frequency);
            }
            let exact = match &stats.exact {
                None => None,
                Some(x) => {
                    let start = index.codes.len();
                    for &(key, count) in x.entries() {
                        index.codes.push(code(key)?);
                        index.freqs.push(match x.rows() {
                            0 => 0.0,
                            rows => count as f64 / rows as f64,
                        });
                    }
                    Some(start..index.codes.len())
                }
            };
            index.parts.push(CategoricalPart {
                distinct: stats.akmv.distinct_estimate(),
                hh_mass: stats.heavy_hitters.iter().map(|h| h.frequency).sum(),
                hh: hh_start..index.hh_codes.len(),
                exact,
            });
        }
        Ok(index)
    }

    fn in_set(&self, p: usize, codes: &[u32], negated: bool) -> (f64, f64) {
        let part = &self.parts[p];
        // Exact dictionary: both the bound and the estimate are exact.
        if let Some(run) = &part.exact {
            let (keys, freqs) = (&self.codes[run.clone()], &self.freqs[run.clone()]);
            let sel = codes
                .iter()
                .map(|k| keys.binary_search(k).map_or(0.0, |i| freqs[i]))
                .sum::<f64>()
                .clamp(0.0, 1.0);
            let sel = if negated { 1.0 - sel } else { sel };
            return (sel, sel);
        }
        if negated {
            // Cannot rule anything out without an exact dictionary.
            let (_, pos_est) = self.in_set(p, codes, false);
            return (1.0, (1.0 - pos_est).clamp(0.0, 1.0));
        }
        let (hh, hh_freqs) = (
            &self.hh_codes[part.hh.clone()],
            &self.hh_freqs[part.hh.clone()],
        );
        let ndv = part.distinct.max(1.0);
        let non_hh = (ndv - hh.len() as f64).max(1.0);
        // Average frequency of a non-heavy-hitter value.
        let tail_avg = ((1.0 - part.hh_mass).max(0.0) / non_hh).clamp(0.0, 1.0);
        // Not-a-local-heavy-hitter caps frequency at the support threshold.
        let support = 0.01_f64.max(tail_avg);
        let (mut upper, mut est) = (0.0, 0.0);
        for k in codes {
            match hh.iter().position(|h| h == k) {
                Some(i) => {
                    upper += hh_freqs[i] + 0.001; // lossy-counting undercount allowance (ε)
                    est += hh_freqs[i];
                }
                None => {
                    upper += support;
                    est += tail_avg;
                }
            }
        }
        (upper.clamp(0.0, 1.0), est.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{StatsConfig, TableStats};
    use crate::column_stats::ColumnStatsParams;
    use crate::oracle;
    use crate::selectivity::SelectivityPlan;
    use ps3_query::{Clause, CompiledPredicate, Predicate};
    use ps3_sketch::ExactDict;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

    const EDGES: [f64; 9] = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        1.0,
        f64::INFINITY,
        f64::NAN,
        -f64::NAN,
        2.5,
    ];

    /// Two partitions whose `x` takes every edge value (twice for ±0.0),
    /// and a categorical `tag`.
    fn edge_table() -> PartitionedTable {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]));
        for part in 0..2 {
            for (i, &x) in EDGES.iter().chain(&[-0.0, 0.0]).enumerate() {
                b.push_row(&[x], &[["a", "b", "c"][(i + part) % 3]]);
            }
        }
        PartitionedTable::with_equal_partitions(b.finish(), 2)
    }

    fn built(pt: &PartitionedTable, exact_dict_limit: usize) -> TableStats {
        let column_params = ColumnStatsParams {
            exact_dict_limit,
            ..Default::default()
        };
        let cfg = StatsConfig {
            column_params,
            ..Default::default()
        };
        TableStats::build(pt, &cfg)
    }

    #[test]
    fn every_comparison_with_an_edge_constant_matches_the_oracle() {
        let pt = edge_table();
        for stats in [built(&pt, 256), built(&pt, 0)] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                for value in EDGES {
                    let pred = Predicate::Clause(Clause::Cmp {
                        col: ColId(0),
                        op,
                        value,
                    });
                    let not = Predicate::Not(Box::new(pred.clone()));
                    for pred in [pred, not] {
                        let compiled = CompiledPredicate::compile(pt.table(), &pred);
                        let plan = SelectivityPlan::new(Some(&compiled));
                        for (p, f) in plan.estimate_all(&stats).enumerate() {
                            let reference = oracle::selectivity_features_compiled(
                                Some(&compiled),
                                stats.partition(p),
                            );
                            assert_eq!(
                                f.as_array().map(f64::to_bits),
                                reference.as_array().map(f64::to_bits),
                                "{pred:?} on partition {p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exact_counts_skip_nan_and_keep_signed_zeros_together() {
        let pt = edge_table();
        let stats = built(&pt, 256);
        let index = stats.selectivity_index();
        // 11 rows a partition: ±0.0 three times each, NaN twice.
        let zero = Interval::from_cmp(CmpOp::Eq, -0.0).unwrap();
        assert_eq!(index.interval(0, 0, &zero), (4.0 / 11.0, 4.0 / 11.0));
        let all = Interval::from_cmp(CmpOp::Ge, f64::NEG_INFINITY).unwrap();
        assert_eq!(index.interval(0, 1, &all), (9.0 / 11.0, 9.0 / 11.0));
        let nan = Interval::from_cmp(CmpOp::Le, f64::NAN).unwrap();
        assert_eq!(index.interval(0, 1, &nan), (0.0, 0.0));
        // Each run keeps the 7 non-NaN keys of its 9, in `total_cmp` order.
        let ColumnIndex::Numeric(x) = &index.columns[0] else {
            panic!("x has a histogram");
        };
        let sorted = |run: &[f64]| run.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt());
        assert_eq!(x.values.len(), 14);
        assert!(x.values.chunks(7).all(sorted));
        assert!(x.values.iter().all(|v| !v.is_nan()));
    }

    /// Column `c` of one partition of `edge_table`.
    fn column(c: usize) -> ColumnStats {
        built(&edge_table(), 256).partition(0)[c].clone()
    }

    #[test]
    fn a_column_with_a_histogram_in_some_partitions_only_is_rejected() {
        let mut bare = column(0);
        bare.histogram = None;
        for parts in [[column(0), bare.clone()], [bare, column(0)]] {
            let partitions: Vec<Vec<ColumnStats>> = parts.into_iter().map(|c| vec![c]).collect();
            let err = SelectivityIndex::new(&partitions, 1).unwrap_err();
            assert_eq!(err, MIXED_KINDS);
        }
    }

    #[test]
    fn categorical_keys_wider_than_a_code_are_rejected() {
        let mut hh = column(1);
        hh.heavy_hitters[0].key = 1 << 32;
        let mut exact = column(1);
        exact.exact = Some(ExactDict::from_raw_parts(vec![(1 << 32, 11)], 11));
        for col in [hh, exact] {
            let err = SelectivityIndex::new(&[vec![col]], 1).unwrap_err();
            assert_eq!(err, NOT_A_CODE);
        }
    }

    #[test]
    fn exact_dictionaries_past_u32_rows_are_rejected() {
        let mut col = column(0);
        let rows = u64::from(u32::MAX) + 1;
        col.exact = Some(ExactDict::from_raw_parts(
            vec![(1.0f64.to_bits(), rows)],
            rows,
        ));
        let err = SelectivityIndex::new(&[vec![col]], 1).unwrap_err();
        assert_eq!(err, EXACT_TOO_LARGE);
    }
}
