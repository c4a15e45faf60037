//! The sketch bundle computed for one column of one partition.

use ps3_sketch::hash::{hash_f64, hash_u64};
use ps3_sketch::{Akmv, EquiDepthHistogram, ExactDict, HeavyHitter, HeavyHitters, Measures};
use ps3_storage::column::order_key;
use ps3_storage::{ColumnData, ColumnType};

/// Sketches for one column of one partition (§3.1) — everything the
/// artifact's statistics section stores per partition and column, and
/// everything the picker's features are computed from.
///
/// Heavy-hitter and exact-dictionary *keys* are comparable across partitions:
/// dictionary codes for categorical columns (the dictionary is table-global)
/// and `f64` bit patterns for numeric columns.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Moments/min/max; numeric-like columns only.
    pub measures: Option<Measures>,
    /// Equi-depth histogram: over values for numeric columns, absent for
    /// categorical ones (their selectivity runs through dictionaries).
    pub histogram: Option<EquiDepthHistogram>,
    /// Distinct values + tracked frequencies.
    pub akmv: Akmv,
    /// Reported heavy hitters (key → frequency), most frequent first.
    pub heavy_hitters: Vec<HeavyHitter>,
    /// Exact value→count dictionary when the partition's distinct count for
    /// this column is small; `None` otherwise.
    pub exact: Option<ExactDict>,
    /// Rows in the partition.
    pub rows: u64,
}

/// `(key, row)` for every row of a partition column, sorted by key: equal
/// keys form runs (their rows in no particular order).
fn sorted_pairs(keys: impl ExactSizeIterator<Item = u64>) -> Vec<(u64, u32)> {
    let rows = u32::try_from(keys.len()).expect("a partition holds under 2^32 rows");
    let mut pairs: Vec<(u64, u32)> = keys.zip(0..rows).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    pairs
}

/// The bit pattern [`order_key`] was taken of.
fn key_bits(key: u64) -> u64 {
    let bits = key ^ (1 << 63);
    bits ^ (((bits as i64) >> 63) as u64 >> 1)
}

/// Tuning knobs mirrored from [`crate::builder::StatsConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnStatsParams {
    /// Histogram buckets (paper default: 10).
    pub histogram_buckets: usize,
    /// AKMV k (paper default: 128).
    pub akmv_k: usize,
    /// Heavy-hitter support (paper default: 1%).
    pub hh_support: f64,
    /// Lossy-counting error (default: support / 10).
    pub hh_epsilon: f64,
    /// Max distinct values stored exactly.
    pub exact_dict_limit: usize,
}

impl Default for ColumnStatsParams {
    fn default() -> Self {
        Self {
            histogram_buckets: 10,
            akmv_k: 128,
            hh_support: 0.01,
            hh_epsilon: 0.001,
            exact_dict_limit: 256,
        }
    }
}

impl ColumnStats {
    /// Build all sketches for `column[rows]` from one sort of the
    /// partition column's `(key, row)` pairs (numeric keys in `total_cmp`
    /// order, categorical keys by code). Each run of equal keys is one
    /// distinct value: the histogram reads the sorted non-NaN values, the
    /// exact dictionary and the AKMV sketch read the runs' counts, and
    /// heavy hitters replay lossy counting over each run's rows. Only the
    /// measures pass over the rows in row order, since their sums must add
    /// in that order.
    ///
    /// Every sketch is the one the streaming constructions build
    /// ([`crate::oracle::streaming_column_stats`]), byte for byte. Under
    /// `PS3_STRICT_KERNELS=1` ([`ps3_runtime::strict_kernels`]) each call
    /// also builds that bundle and asserts it encodes to the same bytes.
    ///
    /// # Panics
    /// Panics if the column's physical type disagrees with `ctype`, or
    /// (strict mode only) if the two bundles' bytes differ.
    pub fn build(
        column: &ColumnData,
        ctype: ColumnType,
        rows: std::ops::Range<usize>,
        params: &ColumnStatsParams,
    ) -> Self {
        let stats = match (ctype.is_numeric_like(), column) {
            (true, ColumnData::Numeric(values)) => {
                let slice = &values[rows.clone()];
                let sorted = sorted_pairs(slice.iter().map(|&v| order_key(v)));
                // NaNs sort to both ends of the `total_cmp` order; the
                // histogram reads what lies between.
                let finite: Vec<f64> = sorted
                    .iter()
                    .map(|&(k, _)| f64::from_bits(key_bits(k)))
                    .filter(|v| !v.is_nan())
                    .collect();
                Self {
                    measures: Some(Measures::from_values(slice)),
                    histogram: Some(EquiDepthHistogram::from_sorted(
                        &finite,
                        params.histogram_buckets,
                    )),
                    ..Self::from_runs(&sorted, key_bits, |b| hash_f64(f64::from_bits(b)), params)
                }
            }
            (false, ColumnData::Categorical { codes, .. }) => {
                let sorted = sorted_pairs(codes[rows.clone()].iter().map(|&c| u64::from(c)));
                Self::from_runs(&sorted, |c| c, hash_u64, params)
            }
            _ => panic!("column physical type disagrees with declared type"),
        };
        if ps3_runtime::strict_kernels() {
            let reference = crate::oracle::streaming_column_stats(column, ctype, rows, params);
            assert!(
                crate::persist::column_stats_bytes(&stats)
                    == crate::persist::column_stats_bytes(&reference),
                "strict kernels: a one-sort sketch bundle diverged from the streaming one"
            );
        }
        stats
    }

    /// The key-derived sketches of a partition column sorted into
    /// `(order key, row)` pairs, without measures or histogram: `key` maps
    /// an order key to the sketches' key (the raw bits or the code), and
    /// `hash` maps that key to its AKMV hash.
    fn from_runs(
        sorted: &[(u64, u32)],
        key: impl Fn(u64) -> u64,
        hash: impl Fn(u64) -> u64,
        params: &ColumnStatsParams,
    ) -> Self {
        let n = sorted.len() as u64;
        let runs: Vec<(u64, &[(u64, u32)])> = sorted
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (key(run[0].0), run))
            .collect();
        let counts = || runs.iter().map(|&(k, run)| (k, run.len() as u64));
        let akmv = Akmv::from_distinct(
            params.akmv_k,
            n,
            counts().map(|(k, count)| (hash(k), count)).collect(),
        );
        let heavy_hitters = HeavyHitters::report_from_runs(
            params.hh_support,
            params.hh_epsilon,
            n,
            runs.iter()
                .map(|&(k, run)| (k, run.iter().map(|&(_, row)| u64::from(row)))),
        );
        Self {
            measures: None,
            histogram: None,
            akmv,
            heavy_hitters,
            exact: ExactDict::from_runs(counts(), params.exact_dict_limit),
            rows: n,
        }
    }

    /// Whether `key` is one of this partition's heavy hitters.
    pub fn is_heavy_hitter(&self, key: u64) -> bool {
        self.heavy_hitters.iter().any(|h| h.key == key)
    }

    /// Frequency of `key` among the heavy hitters, if reported.
    pub fn hh_frequency(&self, key: u64) -> Option<f64> {
        self.heavy_hitters
            .iter()
            .find(|h| h.key == key)
            .map(|h| h.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn numeric_col() -> ColumnData {
        ColumnData::Numeric((0..100).map(|i| f64::from(i % 10)).collect())
    }

    fn categorical_col() -> ColumnData {
        let mut dict = ps3_storage::Dictionary::new();
        let codes: Vec<u32> = (0..100u32)
            .map(|i| dict.intern(&format!("v{}", i % 4)))
            .collect();
        ColumnData::Categorical {
            codes: codes.into(),
            dict: Arc::new(dict),
        }
    }

    #[test]
    fn numeric_bundle_has_all_sketches() {
        let s = ColumnStats::build(
            &numeric_col(),
            ColumnType::Numeric,
            0..100,
            &ColumnStatsParams::default(),
        );
        assert!(s.measures.is_some());
        assert!(s.histogram.is_some());
        assert_eq!(s.akmv.distinct_estimate(), 10.0);
        // Each of the 10 values holds 10% of rows: all are heavy hitters.
        assert_eq!(s.heavy_hitters.len(), 10);
        assert!(s.exact.is_some());
        assert_eq!(s.rows, 100);
    }

    #[test]
    fn categorical_bundle_skips_measures() {
        let s = ColumnStats::build(
            &categorical_col(),
            ColumnType::Categorical,
            0..100,
            &ColumnStatsParams::default(),
        );
        assert!(s.measures.is_none());
        assert!(s.histogram.is_none());
        assert_eq!(s.akmv.distinct_estimate(), 4.0);
        assert_eq!(s.heavy_hitters.len(), 4);
        // Keys are dictionary codes.
        assert!(s.is_heavy_hitter(0));
        assert!((s.hh_frequency(0).unwrap() - 0.25).abs() < 0.01);
        assert!(!s.is_heavy_hitter(99));
    }

    #[test]
    fn sub_range_build() {
        let s = ColumnStats::build(
            &numeric_col(),
            ColumnType::Numeric,
            0..10,
            &ColumnStatsParams::default(),
        );
        assert_eq!(s.rows, 10);
        assert_eq!(s.measures.as_ref().unwrap().max(), 9.0);
    }
}
