//! The sketch bundle computed for one column of one partition.

use ps3_sketch::hash::{hash_f64, hash_u64};
use ps3_sketch::{Akmv, EquiDepthHistogram, ExactDict, HeavyHitter, HeavyHitters, Measures};
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
    /// Build all sketches for `column[rows]` in one pass (plus the
    /// histogram's sort).
    pub fn build(
        column: &ColumnData,
        ctype: ColumnType,
        rows: std::ops::Range<usize>,
        params: &ColumnStatsParams,
    ) -> Self {
        let n = rows.len() as u64;
        match (ctype.is_numeric_like(), column) {
            (true, ColumnData::Numeric(values)) => {
                let slice = &values[rows];
                let measures = Measures::from_values(slice);
                let histogram = EquiDepthHistogram::from_values(slice, params.histogram_buckets);
                let mut akmv = Akmv::new(params.akmv_k);
                let mut hh = HeavyHitters::with_params(params.hh_support, params.hh_epsilon);
                for &v in slice {
                    akmv.update(hash_f64(v));
                    hh.update(v.to_bits());
                }
                let exact =
                    ExactDict::build(slice.iter().map(|v| v.to_bits()), params.exact_dict_limit);
                Self {
                    measures: Some(measures),
                    histogram: Some(histogram),
                    akmv,
                    heavy_hitters: hh.heavy_hitters(),
                    exact,
                    rows: n,
                }
            }
            (false, ColumnData::Categorical { codes, .. }) => {
                let slice = &codes[rows];
                let mut akmv = Akmv::new(params.akmv_k);
                let mut hh = HeavyHitters::with_params(params.hh_support, params.hh_epsilon);
                for &c in slice {
                    akmv.update(hash_u64(u64::from(c)));
                    hh.update(u64::from(c));
                }
                let exact =
                    ExactDict::build(slice.iter().map(|&c| u64::from(c)), params.exact_dict_limit);
                Self {
                    measures: None,
                    histogram: None,
                    akmv,
                    heavy_hitters: hh.heavy_hitters(),
                    exact,
                    rows: n,
                }
            }
            _ => panic!("column physical type disagrees with declared type"),
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

    /// Serialized bytes per sketch family: `(measures, histogram, akmv, hh,
    /// exact)` — the Table 4 accounting.
    pub fn storage_bytes(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.measures.as_ref().map_or(0, Measures::serialized_size),
            self.histogram
                .as_ref()
                .map_or(0, EquiDepthHistogram::serialized_size),
            self.akmv.serialized_size(),
            self.heavy_hitters.len() * 16 + 8,
            self.exact.as_ref().map_or(0, ExactDict::serialized_size),
        )
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

    #[test]
    fn storage_accounting_positive() {
        let s = ColumnStats::build(
            &numeric_col(),
            ColumnType::Numeric,
            0..100,
            &ColumnStatsParams::default(),
        );
        let (m, h, a, hh, e) = s.storage_bytes();
        assert!(m > 0 && h > 0 && a > 0 && hh > 0 && e > 0);
    }
}
