//! Columnar data: numeric vectors and dictionary-encoded categoricals.
//!
//! Column payloads are [`Bytes`] — either heap-owned vectors (built tables)
//! or typed windows into a mapped artifact (thawed tables). Everything that
//! consumes columns goes through slices, so the two storage modes are
//! indistinguishable downstream.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::mmap::Bytes;

/// Rows per kernel chunk: one `u64` selection-mask word covers one chunk.
pub const CHUNK_ROWS: usize = 64;

/// Split a column slice into full 64-row chunks plus the tail, the shape
/// the `ps3_query` kernels consume: each full chunk is a fixed-size array,
/// which lets LLVM unroll and autovectorize the per-chunk mask loops.
pub fn chunks64<T>(data: &[T]) -> (impl Iterator<Item = &[T; CHUNK_ROWS]>, &[T]) {
    let it = data.chunks_exact(CHUNK_ROWS);
    let tail = it.remainder();
    (
        it.map(|c| <&[T; CHUNK_ROWS]>::try_from(c).expect("chunks_exact yields full chunks")),
        tail,
    )
}

/// A table-global dictionary for one categorical column.
///
/// Codes are assigned in first-seen order and are consistent across all
/// partitions of the table. This matters downstream: heavy-hitter sketches
/// keyed by code can be unioned across partitions to form the *global* heavy
/// hitter list (§3.2) without re-reading any strings.
#[derive(Debug, Default)]
pub struct Dictionary {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a dictionary from its values in code order (the artifact
    /// decode path). Fails on duplicates instead of silently remapping.
    pub fn from_values(values: Vec<String>) -> Result<Self, &'static str> {
        let mut d = Self::new();
        for (i, v) in values.iter().enumerate() {
            if d.intern(v) as usize != i {
                return Err("duplicate dictionary value");
            }
        }
        Ok(d)
    }

    /// Return the code for `s`, inserting it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = u32::try_from(self.values.len()).expect("dictionary overflow");
        self.values.push(s.to_owned());
        self.index.insert(s.to_owned(), c);
        c
    }

    /// Look up the code of `s` without inserting.
    pub fn code(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string for a code.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over all `(code, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v.as_str()))
    }

    /// Codes of all dictionary entries that contain `needle` as a substring.
    ///
    /// Supports the paper's regex-style textual filters (`'%promo%'`, §3.2):
    /// with a dictionary in hand, a `LIKE '%needle%'` clause is just an `IN`
    /// over the matching codes.
    pub fn codes_containing(&self, needle: &str) -> Vec<u32> {
        self.iter()
            .filter(|(_, v)| v.contains(needle))
            .map(|(c, _)| c)
            .collect()
    }
}

/// Physical storage for one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Numeric (or date) values.
    Numeric(Bytes<f64>),
    /// Dictionary codes plus the shared dictionary.
    Categorical {
        /// Per-row dictionary codes.
        codes: Bytes<u32>,
        /// The shared dictionary (one `Arc` per column, shared across
        /// permutations and retrain generations).
        dict: Arc<Dictionary>,
    },
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Numeric(v) => v.len(),
            ColumnData::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Numeric values, if this is a numeric column.
    pub fn as_numeric(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Numeric(v) => Some(v),
            ColumnData::Categorical { .. } => None,
        }
    }

    /// Codes and dictionary, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<(&[u32], &Dictionary)> {
        match self {
            ColumnData::Numeric(_) => None,
            ColumnData::Categorical { codes, dict } => Some((codes, dict)),
        }
    }

    /// Numeric values of a row range, ready for [`chunks64`] iteration.
    ///
    /// # Panics
    /// Panics if the column is categorical or the range is out of bounds.
    pub fn numeric_range(&self, rows: Range<usize>) -> &[f64] {
        &self.as_numeric().expect("numeric column")[rows]
    }

    /// Dictionary codes of a row range, ready for [`chunks64`] iteration.
    ///
    /// # Panics
    /// Panics if the column is numeric or the range is out of bounds.
    pub fn codes_range(&self, rows: Range<usize>) -> &[u32] {
        &self.as_categorical().expect("categorical column").0[rows]
    }

    /// Reorder rows by `perm` (row `i` of the result is old row `perm[i]`).
    ///
    /// The permuted payload is always owned (a mapped source stays mapped
    /// and untouched); the dictionary is shared, never deep-copied.
    pub fn permute(&self, perm: &[usize]) -> ColumnData {
        match self {
            ColumnData::Numeric(v) => {
                ColumnData::Numeric(perm.iter().map(|&i| v[i]).collect::<Vec<_>>().into())
            }
            ColumnData::Categorical { codes, dict } => ColumnData::Categorical {
                codes: perm.iter().map(|&i| codes[i]).collect::<Vec<_>>().into(),
                dict: Arc::clone(dict),
            },
        }
    }

    /// One key per row whose unsigned order is the order a sorted layout
    /// puts rows in: numeric columns by value ([`f64::total_cmp`], through
    /// [`order_key`]), categorical columns by their dictionary string — the
    /// rank of the row's value among the dictionary's values — so layouts
    /// sorted on a categorical column group equal values together, like the
    /// paper's Aria layout sorted by `TenantId`.
    pub fn sort_keys(&self) -> Vec<u64> {
        match self {
            ColumnData::Numeric(v) => v.iter().map(|&x| order_key(x)).collect(),
            ColumnData::Categorical { codes, dict } => {
                let mut by_value: Vec<(&str, u32)> = dict.iter().map(|(c, v)| (v, c)).collect();
                by_value.sort_unstable();
                let mut rank = vec![0u64; dict.len()];
                for (r, &(_, code)) in by_value.iter().enumerate() {
                    rank[code as usize] = r as u64;
                }
                codes.iter().map(|&c| rank[c as usize]).collect()
            }
        }
    }
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s: negative values
/// have their magnitude bits flipped, and the sign bit is flipped for all.
pub fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64 >> 1) | (1 << 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_interning_is_stable() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.code("b"), Some(1));
        assert_eq!(d.code("c"), None);
        assert_eq!(d.value(1), "b");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn substring_lookup() {
        let mut d = Dictionary::new();
        for s in ["PROMO BRUSHED", "STANDARD", "SMALL PROMO", "ECONOMY"] {
            d.intern(s);
        }
        let mut hits = d.codes_containing("PROMO");
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
        assert!(d.codes_containing("zzz").is_empty());
    }

    #[test]
    fn permute_numeric_and_categorical() {
        let num = ColumnData::Numeric(vec![10.0, 20.0, 30.0].into());
        let out = num.permute(&[2, 0, 1]);
        assert_eq!(out.as_numeric().unwrap(), &[30.0, 10.0, 20.0]);

        let mut d = Dictionary::new();
        let codes = vec![d.intern("x"), d.intern("y"), d.intern("x")];
        let cat = ColumnData::Categorical {
            codes: codes.into(),
            dict: Arc::new(d),
        };
        let out = cat.permute(&[1, 1, 0]);
        let (codes, dict) = out.as_categorical().unwrap();
        assert_eq!(codes, &[1, 1, 0]);
        assert_eq!(dict.value(0), "x");
    }

    #[test]
    fn sort_keys_order() {
        let num = ColumnData::Numeric(vec![2.0, 1.0].into());
        let keys = num.sort_keys();
        assert!(keys[1] < keys[0]);

        let mut d = Dictionary::new();
        // Interning order differs from lexicographic order on purpose.
        let codes = vec![d.intern("zeta"), d.intern("alpha"), d.intern("zeta")];
        let cat = ColumnData::Categorical {
            codes: codes.into(),
            dict: Arc::new(d),
        };
        assert_eq!(cat.sort_keys(), [1, 0, 1]);
    }

    #[test]
    fn chunked_access() {
        let data: Vec<f64> = (0..150).map(f64::from).collect();
        let col = ColumnData::Numeric(data.into());
        let range = col.numeric_range(10..150);
        let (chunks, tail) = chunks64(range);
        let chunks: Vec<_> = chunks.collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0][0], 10.0);
        assert_eq!(chunks[1][63], 137.0);
        assert_eq!(tail.len(), 140 % CHUNK_ROWS);
        assert_eq!(tail[0], 138.0);

        let mut d = Dictionary::new();
        let codes: Vec<u32> = (0..70)
            .map(|i| d.intern(if i % 2 == 0 { "a" } else { "b" }))
            .collect();
        let col = ColumnData::Categorical {
            codes: codes.into(),
            dict: Arc::new(d),
        };
        assert_eq!(col.codes_range(0..3), &[0, 1, 0]);
        let (chunks, tail) = chunks64(col.codes_range(0..70));
        assert_eq!(chunks.count(), 1);
        assert_eq!(tail.len(), 6);
    }

    #[test]
    fn order_keys_follow_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
