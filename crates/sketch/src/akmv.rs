//! AKMV: the *augmented k-minimum-values* distinct-count sketch of Beyer et
//! al. (SIGMOD'07), as used by PS3 (§3.1, k = 128 by default).
//!
//! The sketch keeps the k smallest **distinct** hashed values of a column and,
//! for each, the number of times that value appeared ("augmented" with
//! counts). Distinct count is estimated as `(k − 1) / u_k` where `u_k` is the
//! k-th smallest hash mapped to `[0, 1)`; below k distinct values the count
//! is exact. The per-value counts feed the paper's
//! `avg/max/min/sum freq. of distinct values` features (Table 2).
//!
//! # One sketch, two constructions
//!
//! [`Akmv::update`] folds a stream in row by row. [`Akmv::from_distinct`]
//! builds the same sketch from a column's distinct hashes and their full
//! counts — what a sorted column yields run by run — by keeping the k
//! smallest. The two agree exactly, because the streaming sketch ends
//! holding the k smallest distinct hashes, each with its full count:
//!
//! * Once the sketch is full its largest tracked hash only ever falls
//!   (an insertion evicts the largest and brings in a smaller one).
//! * A hash `h` among the k smallest distinct hashes of the whole stream
//!   is inserted at its first occurrence: either fewer than k hashes are
//!   tracked, or fewer than k hashes below `h` exist, so some tracked
//!   hash is larger than `h`. It is never evicted, since an eviction
//!   removes the largest of k + 1 distinct hashes, and at most k − 1 of
//!   those can be smaller than `h`. So every later occurrence finds it
//!   and counts.
//! * A hash outside the k smallest is never kept at the end: the k
//!   smallest are all tracked by then, and the sketch holds at most k.

use crate::hash::to_unit;

/// Default k, per the paper.
pub const DEFAULT_K: usize = 128;

/// Augmented KMV sketch.
#[derive(Debug, Clone)]
pub struct Akmv {
    k: usize,
    /// The smallest `k` distinct hashes with their occurrence counts, in
    /// ascending hash order.
    entries: Vec<(u64, u64)>,
    /// Total rows folded in (not just tracked ones).
    rows: u64,
}

impl Akmv {
    /// An empty sketch with capacity `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "AKMV needs k >= 2");
        Self {
            k,
            entries: Vec::new(),
            rows: 0,
        }
    }

    /// Build from pre-hashed values.
    pub fn from_hashes(hashes: impl IntoIterator<Item = u64>, k: usize) -> Self {
        let mut s = Self::new(k);
        for h in hashes {
            s.update(h);
        }
        s
    }

    /// The sketch of `rows` rows whose distinct hashes occur `counts`
    /// times: `counts` holds one `(hash, count)` pair per distinct key, in
    /// any order. Pairs with equal hashes merge (two keys that hash alike
    /// are one value to the sketch, as in [`Self::update`]), and the k
    /// smallest hashes are kept with their full counts. This is the sketch
    /// folding the rows in one at a time ends with (module docs).
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn from_distinct(k: usize, rows: u64, mut counts: Vec<(u64, u64)>) -> Self {
        assert!(k >= 2, "AKMV needs k >= 2");
        counts.sort_unstable_by_key(|&(h, _)| h);
        counts.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        counts.truncate(k);
        counts.shrink_to_fit();
        Self {
            k,
            entries: counts,
            rows,
        }
    }

    /// Fold one hashed value in.
    #[inline]
    pub fn update(&mut self, hash: u64) {
        self.rows += 1;
        match self.entries.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) if self.entries.len() < self.k => self.entries.insert(i, (hash, 1)),
            // Full: a hash below the current k-th minimum evicts it.
            Err(i) if i < self.k => {
                self.entries.pop();
                self.entries.insert(i, (hash, 1));
            }
            Err(_) => {}
        }
    }

    /// Number of rows folded in.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The sketch capacity k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Estimated number of distinct values.
    ///
    /// Exact while fewer than k distinct hashes have been seen.
    pub fn distinct_estimate(&self) -> f64 {
        let m = self.entries.len();
        if m < self.k {
            return m as f64;
        }
        let u_k = to_unit(self.entries.last().expect("non-empty").0);
        if u_k <= 0.0 {
            return m as f64;
        }
        (self.k as f64 - 1.0) / u_k
    }

    /// Frequency statistics `(avg, max, min, sum)` over the tracked distinct
    /// values' counts. `None` when empty.
    ///
    /// When the sketch saturates, the tracked values are a uniform sample of
    /// the distinct domain (hash order is value-independent), so these are
    /// unbiased estimates of the per-distinct-value frequency distribution.
    pub fn freq_stats(&self) -> Option<FreqStats> {
        if self.entries.is_empty() {
            return None;
        }
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut min = u64::MAX;
        for &(_, c) in &self.entries {
            sum += c;
            max = max.max(c);
            min = min.min(c);
        }
        let avg = sum as f64 / self.entries.len() as f64;
        Some(FreqStats {
            avg,
            max: max as f64,
            min: min as f64,
            sum: sum as f64,
        })
    }

    /// Merge a sketch over disjoint rows: union the entry sets, sum counts of
    /// shared hashes, keep the k smallest.
    pub fn merge(&mut self, other: &Akmv) {
        let mut counts = std::mem::take(&mut self.entries);
        counts.extend_from_slice(&other.entries);
        *self = Self::from_distinct(self.k, self.rows + other.rows, counts);
    }

    /// The tracked `(hash, count)` pairs in ascending hash order (codec use).
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Rebuild from raw parts (codec use). `entries` must be strictly
    /// ascending in hash and at most `k` long.
    ///
    /// # Panics
    /// Panics on shape violations.
    pub fn from_raw_parts(k: usize, rows: u64, entries: Vec<(u64, u64)>) -> Self {
        assert!(k >= 2 && entries.len() <= k, "entry count exceeds k");
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "hashes not ascending"
        );
        Self { k, entries, rows }
    }
}

/// Frequency statistics over tracked distinct values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqStats {
    /// Mean occurrences per distinct value.
    pub avg: f64,
    /// Max occurrences.
    pub max: f64,
    /// Min occurrences.
    pub min: f64,
    /// Total occurrences across tracked values.
    pub sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use proptest::prelude::*;

    #[test]
    fn exact_below_k() {
        let s = Akmv::from_hashes((0..50u64).map(hash_u64), 128);
        assert_eq!(s.distinct_estimate(), 50.0);
        assert_eq!(s.rows(), 50);
    }

    #[test]
    fn duplicate_counting() {
        let hashes: Vec<u64> = [1u64, 1, 1, 2, 2, 3].iter().map(|&x| hash_u64(x)).collect();
        let s = Akmv::from_hashes(hashes, 16);
        assert_eq!(s.distinct_estimate(), 3.0);
        let f = s.freq_stats().unwrap();
        assert_eq!(f.sum, 6.0);
        assert_eq!(f.max, 3.0);
        assert_eq!(f.min, 1.0);
        assert!((f.avg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_accuracy_at_scale() {
        // 20k distinct values through a k=128 sketch: expect ~±20% accuracy.
        let s = Akmv::from_hashes((0..20_000u64).map(hash_u64), DEFAULT_K);
        let est = s.distinct_estimate();
        assert!(
            (est - 20_000.0).abs() / 20_000.0 < 0.25,
            "estimate {est} too far from 20000"
        );
    }

    #[test]
    fn merge_equals_bulk() {
        let a_hashes: Vec<u64> = (0..5_000u64).map(hash_u64).collect();
        let b_hashes: Vec<u64> = (2_500..7_500u64).map(hash_u64).collect();
        let mut a = Akmv::from_hashes(a_hashes.iter().copied(), 64);
        let b = Akmv::from_hashes(b_hashes.iter().copied(), 64);
        a.merge(&b);
        let bulk = Akmv::from_hashes(a_hashes.into_iter().chain(b_hashes), 64);
        assert_eq!(a.rows(), bulk.rows());
        // Same tracked minima ⇒ same estimate.
        assert_eq!(a.distinct_estimate(), bulk.distinct_estimate());
    }

    #[test]
    fn empty_sketch() {
        let s = Akmv::new(8);
        assert_eq!(s.distinct_estimate(), 0.0);
        assert!(s.freq_stats().is_none());
    }

    proptest! {
        // The k smallest distinct hashes with their full counts are what
        // the stream ends with, whatever the arrival order. Splitting a
        // count over two pairs with one hash must not change the sketch.
        #[test]
        fn from_distinct_is_the_streamed_sketch(
            values in prop::collection::vec(0u64..300, 0..600),
            k in 2usize..40,
            split in any::<bool>(),
        ) {
            let streamed = Akmv::from_hashes(values.iter().map(|&v| hash_u64(v)), k);
            let mut counts = std::collections::BTreeMap::<u64, u64>::new();
            for &v in &values {
                *counts.entry(v).or_default() += 1;
            }
            let mut pairs = Vec::new();
            for (v, c) in counts {
                if split && c > 1 {
                    pairs.extend([(hash_u64(v), 1), (hash_u64(v), c - 1)]);
                } else {
                    pairs.push((hash_u64(v), c));
                }
            }
            let built = Akmv::from_distinct(k, values.len() as u64, pairs);
            prop_assert_eq!(built.entries(), streamed.entries());
            prop_assert_eq!(built.rows(), streamed.rows());
        }

        #[test]
        fn never_exact_overcount_below_k(values in prop::collection::vec(0u64..500, 0..400)) {
            let s = Akmv::from_hashes(values.iter().map(|&v| hash_u64(v)), 1024);
            let truth = values.iter().collect::<std::collections::HashSet<_>>().len();
            // k larger than the domain ⇒ exact.
            prop_assert_eq!(s.distinct_estimate() as usize, truth);
        }

        #[test]
        fn estimate_within_bound(n in 500u64..5000) {
            let s = Akmv::from_hashes((0..n).map(hash_u64), DEFAULT_K);
            let est = s.distinct_estimate();
            // KMV standard error is ~1/sqrt(k-2) ≈ 9%; allow 5 sigma.
            let rel = (est - n as f64).abs() / n as f64;
            prop_assert!(rel < 0.45, "est {} truth {}", est, n);
        }

        #[test]
        fn freq_sum_counts_tracked_rows(values in prop::collection::vec(0u64..50, 1..300)) {
            let s = Akmv::from_hashes(values.iter().map(|&v| hash_u64(v)), 1024);
            // Domain is tiny, so every row is tracked.
            prop_assert_eq!(s.freq_stats().unwrap().sum as u64, values.len() as u64);
        }
    }
}
