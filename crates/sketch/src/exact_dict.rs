//! Exact value→frequency dictionary for low-cardinality columns.
//!
//! The paper (§3.2): "if a string column has a small number of distinct
//! values, all distinct values and their frequencies are stored exactly; this
//! can support regex-style textual filters". The dictionary abandons itself
//! (returns `None` from the builder) once the distinct count exceeds its
//! budget, so storage stays bounded.

use std::collections::HashMap;

/// Default maximum distinct values stored exactly.
pub const DEFAULT_LIMIT: usize = 256;

/// Exact per-partition frequency table for one column, keyed the same way as
/// [`crate::HeavyHitters`] (dictionary codes / f64 bit patterns).
///
/// Entries live in one contiguous vector sorted by key: selectivity probes
/// walk it cache-linearly (the `ps3_stats` interval probe visits every
/// entry per partition — a hot query-feature path), point lookups binary
/// search, and iteration order is deterministic.
#[derive(Debug, Clone, Default)]
pub struct ExactDict {
    /// `(key, count)` pairs, sorted by key, keys unique.
    entries: Vec<(u64, u64)>,
    rows: u64,
}

impl ExactDict {
    /// Build from keys, giving up (`None`) past `limit` distinct values.
    pub fn build(keys: impl IntoIterator<Item = u64>, limit: usize) -> Option<Self> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut rows = 0u64;
        for k in keys {
            rows += 1;
            *counts.entry(k).or_insert(0) += 1;
            if counts.len() > limit {
                return None;
            }
        }
        let mut entries: Vec<(u64, u64)> = counts.into_iter().collect();
        entries.sort_unstable();
        Some(Self { entries, rows })
    }

    /// Build from `(key, count)` runs, each distinct key once, giving up
    /// (`None`) past `limit` of them: [`Self::build`] over the same rows.
    pub fn from_runs(runs: impl IntoIterator<Item = (u64, u64)>, limit: usize) -> Option<Self> {
        let mut entries = Vec::new();
        for run in runs {
            if entries.len() == limit {
                return None;
            }
            entries.push(run);
        }
        let rows = entries.iter().map(|&(_, c)| c).sum();
        Some(Self::from_raw_parts(entries, rows))
    }

    /// Rows summarized.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of distinct values (exact).
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Exact frequency (fraction of rows) of `key`; 0 when absent.
    pub fn frequency(&self, key: u64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0.0, |i| self.entries[i].1 as f64 / self.rows as f64)
    }

    /// Exact selectivity of `key IN keys` (keys assumed distinct).
    pub fn in_selectivity(&self, keys: &[u64]) -> f64 {
        keys.iter()
            .map(|&k| self.frequency(k))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Iterate over `(key, count)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted `(key, count)` entries.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Rebuild from raw `(key, count)` parts (codec use).
    pub fn from_raw_parts(mut entries: Vec<(u64, u64)>, rows: u64) -> Self {
        entries.sort_unstable();
        Self { entries, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_frequencies() {
        let d = ExactDict::build([1, 1, 2, 3, 3, 3], 16).unwrap();
        assert_eq!(d.rows(), 6);
        assert_eq!(d.distinct(), 3);
        assert!((d.frequency(3) - 0.5).abs() < 1e-12);
        assert_eq!(d.frequency(99), 0.0);
        assert!((d.in_selectivity(&[1, 2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_runs_is_build_over_the_same_rows() {
        let built = ExactDict::from_runs([(5, 3), (1, 2), (9, 1)], 16).unwrap();
        let streamed = ExactDict::build([5u64, 1, 5, 9, 1, 5], 16).unwrap();
        assert_eq!(built.entries(), streamed.entries());
        assert_eq!(built.rows(), streamed.rows());
        assert!(ExactDict::from_runs((0..51u64).map(|k| (k, 1)), 50).is_none());
        assert!(ExactDict::from_runs((0..50u64).map(|k| (k, 1)), 50).is_some());
    }

    #[test]
    fn gives_up_past_limit() {
        assert!(ExactDict::build(0..100u64, 50).is_none());
        assert!(ExactDict::build(0..50u64, 50).is_some());
    }

    #[test]
    fn empty() {
        let d = ExactDict::build(std::iter::empty(), 8).unwrap();
        assert_eq!(d.distinct(), 0);
        assert_eq!(d.frequency(0), 0.0);
        assert_eq!(d.in_selectivity(&[1, 2, 3]), 0.0);
    }

    proptest! {
        #[test]
        fn frequencies_sum_to_one(keys in prop::collection::vec(0u64..20, 1..200)) {
            let d = ExactDict::build(keys.iter().copied(), 64).unwrap();
            let total: f64 = (0..20).map(|k| d.frequency(k)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn in_selectivity_matches_manual(keys in prop::collection::vec(0u64..10, 1..100)) {
            let d = ExactDict::build(keys.iter().copied(), 64).unwrap();
            let probe = [0u64, 3, 7];
            let manual = keys.iter().filter(|k| probe.contains(k)).count() as f64
                / keys.len() as f64;
            prop_assert!((d.in_selectivity(&probe) - manual).abs() < 1e-9);
        }
    }
}
