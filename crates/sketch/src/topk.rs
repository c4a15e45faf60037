//! A mergeable heavy-hitter summary: exact sparse key counts with
//! read-time top-k extraction.
//!
//! This is the *exact corner* of the space-saving design space: instead of
//! a lossy fixed-capacity table (whose evictions depend on arrival order,
//! breaking the bit-identity contract budgeted answering relies on), the
//! summary keeps an exact sorted `key → count` map and truncates to the
//! requested `k` only when asked. Counts are integers, merge is a sorted
//! merge-join sum — associative, commutative, order-invariant, and equal
//! to a single-pass count over the union multiset, byte for byte.
//!
//! Memory is bounded by the number of distinct keys actually seen. The
//! statistics layer only prebuilds these for dictionary-coded columns
//! (cardinality bounded by the dictionary); ad-hoc numeric `TOP_K` scans
//! are bounded by the rows a request actually reads.

/// Exact sparse heavy-hitter summary over `u64` keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopKSketch {
    /// `(key, count)` pairs, ascending by key, counts nonzero.
    entries: Vec<(u64, u64)>,
}

impl TopKSketch {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one occurrence of `key`. Keys for numeric columns should be
    /// canonical value bits ([`crate::hash::canon_f64_bits`]) so `-0.0`
    /// and NaN payload variants count as one value; dictionary codes are
    /// already canonical.
    pub fn insert(&mut self, key: u64) {
        self.insert_count(key, 1);
    }

    /// Insert `count` occurrences of `key`.
    pub fn insert_count(&mut self, key: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.entries[i].1 += count,
            Err(i) => self.entries.insert(i, (key, count)),
        }
    }

    /// Merge: sorted merge-join sum of counts.
    pub fn merge_from(&mut self, other: &TopKSketch) {
        if other.entries.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ka, ca) = self.entries[i];
            let (kb, cb) = other.entries[j];
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    out.push((ka, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((kb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((ka, ca + cb));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.entries[i..]);
        out.extend_from_slice(&other.entries[j..]);
        self.entries = out;
    }

    /// The `k` heaviest keys as `(key, count)`, ordered by descending
    /// count with ascending key as the deterministic tie-break.
    pub fn top(&self, k: usize) -> Vec<(u64, u64)> {
        let mut ranked = self.entries.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Exact count of one key (0 when unseen).
    pub fn count_of(&self, key: u64) -> u64 {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Total occurrences across all keys.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw sorted entries (codec + tests).
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Rebuild from entries; the codec validates ascending keys and
    /// nonzero counts before calling.
    pub fn from_entries(entries: Vec<(u64, u64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Self { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(keys: &[u64]) -> TopKSketch {
        let mut s = TopKSketch::new();
        for &k in keys {
            s.insert(k);
        }
        s
    }

    #[test]
    fn counts_are_exact() {
        let s = built(&[5, 1, 5, 9, 5, 1]);
        assert_eq!(s.count_of(5), 3);
        assert_eq!(s.count_of(1), 2);
        assert_eq!(s.count_of(9), 1);
        assert_eq!(s.count_of(7), 0);
        assert_eq!(s.total(), 6);
        assert_eq!(s.distinct(), 3);
    }

    #[test]
    fn top_orders_by_count_then_key() {
        let s = built(&[3, 3, 8, 8, 1, 2]);
        // Counts: 3→2, 8→2, 1→1, 2→1. Ties break by ascending key.
        assert_eq!(s.top(3), vec![(3, 2), (8, 2), (1, 1)]);
        assert_eq!(s.top(0), vec![]);
        assert_eq!(s.top(10).len(), 4);
    }

    #[test]
    fn merge_equals_single_pass_any_order() {
        let a = [1u64, 2, 2, 3, 100];
        let b = [2u64, 3, 3, 4];
        let whole = built(&a.iter().chain(&b).copied().collect::<Vec<_>>());
        let mut ab = built(&a);
        ab.merge_from(&built(&b));
        let mut ba = built(&b);
        ba.merge_from(&built(&a));
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn empty_merge_is_identity() {
        let s = built(&[7, 7, 9]);
        let mut m = s.clone();
        m.merge_from(&TopKSketch::new());
        assert_eq!(m, s);
        let mut e = TopKSketch::new();
        e.merge_from(&s);
        assert_eq!(e, s);
    }

    #[test]
    fn zero_count_insert_is_a_no_op() {
        let mut s = TopKSketch::new();
        s.insert_count(4, 0);
        assert!(s.is_empty());
    }
}
