//! Heavy hitters via **lossy counting** (Manku & Motwani, VLDB'02), as used
//! by PS3 (§3.1): items appearing in at least `support` (default 1%) of a
//! partition's rows, with estimated frequencies.
//!
//! Lossy counting guarantees, for error parameter ε:
//! * every item with true frequency ≥ `support · N` is reported (no false
//!   negatives),
//! * reported counts undercount by at most `ε · N`,
//! * at most `(1/ε)·log(εN)` counters are kept.
//!
//! The paper caps the dictionary at 100 items (support 1% ⇒ at most 100 true
//! heavy hitters exist).
//!
//! # One report, two constructions
//!
//! [`HeavyHitters::update`] folds a stream in row by row.
//! [`HeavyHitters::report_from_runs`] reports from each distinct key's row
//! positions — what a column sorted by `(key, row)` yields run by run — by
//! replaying lossy counting one key at a time. The two reports agree
//! exactly, because a key's counter never depends on any other key:
//!
//! * A counter is created at its key's occurrence in row `r` (1-based)
//!   with count 1 and `Δ = ⌈r / w⌉ − 1`, where `w = ⌈1/ε⌉` is the bucket
//!   width; `Δ` depends on `r` alone.
//! * Each later occurrence adds 1 to the count.
//! * After every `w`-th row, at bucket boundary `j`, the counter is dropped
//!   if `count + Δ ≤ j`. That test reads only the counter and `j`, and
//!   the boundaries fall at fixed rows whatever the keys are.
//!
//! So replaying a key's occurrences against the boundaries alone gives the
//! counter the stream ends with, or none. Between two occurrences the
//! counter does not change while `j` grows, so it survives that stretch
//! iff it survives the stretch's last boundary. The report's output rule
//! is then shared. Below `w` rows no boundary is reached and every count is
//! the key's exact occurrence count.

use std::collections::HashMap;

/// Default support threshold (1% of rows).
pub const DEFAULT_SUPPORT: f64 = 0.01;
/// Default error parameter (ε = support / 10).
pub const DEFAULT_EPSILON: f64 = 0.001;
/// Hard cap on reported dictionary size, per the paper.
pub const MAX_ITEMS: usize = 100;

/// A reported heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The item key: a dictionary code for categorical columns or an `f64`
    /// bit pattern for numeric ones.
    pub key: u64,
    /// Estimated fraction of the partition's rows holding this value.
    pub frequency: f64,
}

/// Streaming lossy-counting sketch.
#[derive(Debug, Clone)]
pub struct HeavyHitters {
    support: f64,
    epsilon: f64,
    bucket_width: u64,
    current_bucket: u64,
    rows: u64,
    /// key → (count since insertion, max undercount Δ at insertion).
    counters: HashMap<u64, (u64, u64)>,
}

impl HeavyHitters {
    /// New sketch with the paper's defaults (support 1%, ε 0.1%).
    pub fn new() -> Self {
        Self::with_params(DEFAULT_SUPPORT, DEFAULT_EPSILON)
    }

    /// New sketch with explicit parameters.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon <= support < 1`.
    pub fn with_params(support: f64, epsilon: f64) -> Self {
        Self {
            support,
            epsilon,
            bucket_width: bucket_width(support, epsilon),
            current_bucket: 1,
            rows: 0,
            counters: HashMap::new(),
        }
    }

    /// Build from keys in one pass.
    pub fn from_keys(keys: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::new();
        for k in keys {
            s.update(k);
        }
        s
    }

    /// What [`Self::heavy_hitters`] reports once `rows` rows are folded
    /// in with [`Self::update`], from each distinct key's rows instead:
    /// `runs` yields every key once, with the 0-based rows it occurs in, in
    /// any order. Each key's counter is replayed over its own occurrences
    /// and the bucket boundaries (module docs); below one bucket's width of
    /// rows only the occurrences are counted.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon <= support < 1`.
    pub fn report_from_runs<R, P>(
        support: f64,
        epsilon: f64,
        rows: u64,
        runs: R,
    ) -> Vec<HeavyHitter>
    where
        R: IntoIterator<Item = (u64, P)>,
        P: IntoIterator<Item = u64, IntoIter: ExactSizeIterator>,
    {
        let w = bucket_width(support, epsilon);
        let mut scratch = Vec::new();
        let counts = runs
            .into_iter()
            .filter_map(|(key, positions)| Some((key, replay(positions, rows, w, &mut scratch)?)));
        report(support, epsilon, rows, counts)
    }

    /// Fold one item in.
    #[inline]
    pub fn update(&mut self, key: u64) {
        self.rows += 1;
        self.counters
            .entry(key)
            .and_modify(|(c, _)| *c += 1)
            .or_insert((1, self.current_bucket - 1));
        if self.rows.is_multiple_of(self.bucket_width) {
            let b = self.current_bucket;
            self.counters.retain(|_, &mut (c, delta)| c + delta > b);
            self.current_bucket += 1;
        }
    }

    /// Rows folded in so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The support threshold.
    pub fn support(&self) -> f64 {
        self.support
    }

    /// Report items with estimated frequency ≥ support, most frequent first,
    /// capped at [`MAX_ITEMS`].
    ///
    /// Uses the classic output rule `count ≥ (support − ε) · N`, which keeps
    /// the no-false-negative guarantee.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let counts = self.counters.iter().map(|(&key, &(c, _))| (key, c));
        report(self.support, self.epsilon, self.rows, counts)
    }

    /// Estimated frequency of `key` if it is a reported heavy hitter.
    pub fn frequency_of(&self, key: u64) -> Option<f64> {
        self.heavy_hitters()
            .iter()
            .find(|h| h.key == key)
            .map(|h| h.frequency)
    }
}

/// The bucket width `⌈1/ε⌉`.
///
/// # Panics
/// Panics unless `0 < epsilon <= support < 1`.
fn bucket_width(support: f64, epsilon: f64) -> u64 {
    assert!(epsilon > 0.0 && epsilon <= support && support < 1.0);
    (1.0 / epsilon).ceil() as u64
}

/// The count one key's counter ends with after `rows` rows at bucket
/// width `w`, from the key's 0-based rows in any order (sorted in
/// `scratch`); `None` when the last counter created for it was dropped.
fn replay(
    positions: impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator>,
    rows: u64,
    w: u64,
    scratch: &mut Vec<u64>,
) -> Option<u64> {
    let positions = positions.into_iter();
    if rows < w {
        return Some(positions.len() as u64);
    }
    scratch.clear();
    scratch.extend(positions);
    scratch.sort_unstable();
    let mut positions = scratch.iter().copied().peekable();
    let mut counter = None;
    while let Some(p) = positions.next() {
        // Row p + 1 is this occurrence: count it, or start a counter with
        // Δ = ⌈(p + 1) / w⌉ − 1.
        let (count, delta) = counter.map_or((1, p / w), |(c, d)| (c + 1, d));
        // The boundaries before the next occurrence (or the end) are the
        // rows j·w with p < j·w ≤ until; the last of them is the tightest.
        let until = positions.peek().copied().unwrap_or(rows);
        let last = until / w;
        let pruned = last * w > p && count + delta <= last;
        counter = (!pruned).then_some((count, delta));
    }
    counter.map(|(count, _)| count)
}

/// The output rule: keys whose count reaches `(support − ε) · rows`, most
/// frequent first (ties by key), capped at [`MAX_ITEMS`].
fn report(
    support: f64,
    epsilon: f64,
    rows: u64,
    counts: impl Iterator<Item = (u64, u64)>,
) -> Vec<HeavyHitter> {
    if rows == 0 {
        return Vec::new();
    }
    let n = rows as f64;
    let threshold = (support - epsilon) * n;
    let mut out: Vec<HeavyHitter> = counts
        .filter(|&(_, c)| c as f64 >= threshold)
        .map(|(key, c)| HeavyHitter {
            key,
            frequency: c as f64 / n,
        })
        .collect();
    out.sort_by(|a, b| b.frequency.total_cmp(&a.frequency).then(a.key.cmp(&b.key)));
    out.truncate(MAX_ITEMS);
    out
}

impl Default for HeavyHitters {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[test]
    fn finds_obvious_heavy_hitter() {
        // Key 7 holds 50% of 10k rows; the rest are unique.
        let mut keys = vec![7u64; 5_000];
        keys.extend(1_000_000..1_005_000u64);
        let s = HeavyHitters::from_keys(keys);
        let hh = s.heavy_hitters();
        assert_eq!(hh[0].key, 7);
        assert!(
            (hh[0].frequency - 0.5).abs() < 0.01,
            "freq {}",
            hh[0].frequency
        );
    }

    #[test]
    fn infrequent_items_not_reported() {
        // 200 distinct keys, each 0.5% of rows: nothing reaches 1% support.
        let mut keys = Vec::new();
        for k in 0..200u64 {
            keys.extend(std::iter::repeat_n(k, 50));
        }
        let mut rng = StdRng::seed_from_u64(1);
        keys.shuffle(&mut rng);
        let s = HeavyHitters::from_keys(keys);
        for h in s.heavy_hitters() {
            assert!(h.frequency < 0.01 + DEFAULT_EPSILON);
        }
    }

    #[test]
    fn counter_space_is_bounded() {
        // 1M unique keys: counters must stay ~1/ε·log(εN), far below 1M.
        let mut s = HeavyHitters::new();
        for k in 0..1_000_000u64 {
            s.update(k);
        }
        assert!(
            s.counters.len() < 20_000,
            "kept {} counters",
            s.counters.len()
        );
        assert!(s.heavy_hitters().is_empty());
    }

    #[test]
    fn empty_input() {
        let s = HeavyHitters::new();
        assert!(s.heavy_hitters().is_empty());
    }

    #[test]
    fn cap_at_max_items() {
        // 100 keys at ~1% each (10k rows / 100 keys): all qualify; cap holds.
        let mut keys = Vec::new();
        for k in 0..100u64 {
            keys.extend(std::iter::repeat_n(k, 100));
        }
        let s = HeavyHitters::from_keys(keys);
        assert!(s.heavy_hitters().len() <= MAX_ITEMS);
        assert!(!s.heavy_hitters().is_empty());
    }

    #[test]
    fn replay_matches_the_stream_at_bucket_edges() {
        // Key 7 occurs once or twice around the first two bucket boundaries
        // (0-based rows w − 2 ..= w + 1 and 2w − 2 ..= 2w + 1), then on every
        // 20th row from row 2,500, among keys that occur once: whether the
        // early occurrences survive a boundary decides its reported count.
        let w = (1.0 / DEFAULT_EPSILON).ceil() as u64;
        let n = 4 * w;
        for first in [
            w - 2,
            w - 1,
            w,
            w + 1,
            2 * w - 2,
            2 * w - 1,
            2 * w,
            2 * w + 1,
        ] {
            for second in [None, Some(first + 1), Some(first + w - 1), Some(first + w)] {
                let is_seven = |row: u64| {
                    row == first || Some(row) == second || (row >= 2_500 && row.is_multiple_of(20))
                };
                let keys: Vec<u64> = (0..n)
                    .map(|row| if is_seven(row) { 7 } else { 1_000_000 + row })
                    .collect();
                let streamed = HeavyHitters::from_keys(keys.iter().copied()).heavy_hitters();
                let runs = [(7, (0..n).filter(|&row| is_seven(row)).collect::<Vec<_>>())];
                let replayed =
                    HeavyHitters::report_from_runs(DEFAULT_SUPPORT, DEFAULT_EPSILON, n, runs);
                assert_eq!(replayed, streamed, "first {first}, second {second:?}");
            }
        }
    }

    proptest! {
        // Replaying each key's rows against the bucket boundaries reports
        // what the stream reports: 1–6,000 rows cross 0–6 boundaries, and
        // each key's rows are handed over in any order. Keys are skewed
        // toward a point that drifts along the stream, so a key that is
        // rare early (pruned at a boundary) can turn heavy later, and its
        // reported count then falls short of its true count.
        #[test]
        fn report_from_runs_is_the_streamed_report(
            n in 1usize..6_000,
            pool in 1u64..2_000,
            drift in 0u64..400,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<u64> = (0..n)
                .map(|i| {
                    let at = (i as u64 * drift) / n as u64;
                    at + (rng.gen::<f64>().powi(3) * pool as f64) as u64
                })
                .collect();
            let streamed = HeavyHitters::from_keys(keys.iter().copied()).heavy_hitters();
            let mut runs: HashMap<u64, Vec<u64>> = HashMap::new();
            for (row, &k) in keys.iter().enumerate() {
                runs.entry(k).or_default().push(row as u64);
            }
            for rows in runs.values_mut() {
                rows.shuffle(&mut rng);
            }
            let replayed =
                HeavyHitters::report_from_runs(DEFAULT_SUPPORT, DEFAULT_EPSILON, n as u64, runs);
            prop_assert_eq!(replayed, streamed);
        }

        // The lossy-counting recall guarantee: any key whose true frequency
        // is ≥ support must be reported, regardless of arrival order.
        #[test]
        fn recall_guarantee(seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5_000usize;
            // Two planted heavy keys at 5% and 2%, noise elsewhere.
            let mut keys: Vec<u64> = Vec::with_capacity(n);
            keys.extend(std::iter::repeat_n(1u64, n / 20));
            keys.extend(std::iter::repeat_n(2u64, n / 50));
            while keys.len() < n {
                keys.push(rand::Rng::gen_range(&mut rng, 100..100_000));
            }
            keys.shuffle(&mut rng);
            let s = HeavyHitters::from_keys(keys);
            let reported: Vec<u64> = s.heavy_hitters().iter().map(|h| h.key).collect();
            prop_assert!(reported.contains(&1));
            prop_assert!(reported.contains(&2));
        }

        // Reported frequencies undercount truth by at most ε (plus nothing).
        #[test]
        fn count_error_bound(reps in 60usize..400, noise in 500usize..3000) {
            let mut keys = vec![42u64; reps];
            keys.extend((0..noise as u64).map(|i| 1000 + i));
            let mut rng = StdRng::seed_from_u64(7);
            keys.shuffle(&mut rng);
            let n = keys.len() as f64;
            let truth = reps as f64 / n;
            let s = HeavyHitters::from_keys(keys);
            if let Some(freq) = s.frequency_of(42) {
                prop_assert!(freq <= truth + 1e-9, "over-count: {} > {}", freq, truth);
                prop_assert!(freq >= truth - DEFAULT_EPSILON - 1e-9, "under by more than eps");
            } else {
                // Only allowed to drop it if it was genuinely below support.
                prop_assert!(truth < DEFAULT_SUPPORT, "dropped a true heavy hitter at {}", truth);
            }
        }
    }
}
