//! [`SelVec`]: a 64-bit-word selection bitmask over one partition's rows.
//!
//! The compiled kernels ([`crate::kernel`]) evaluate predicates into a
//! `SelVec` instead of a `Vec<bool>`: one `u64` word covers a 64-row chunk
//! (`ps3_storage::CHUNK_ROWS`), so boolean combinators are word-wide
//! AND/OR/NOT and the fused aggregate kernels can skip all-false chunks and
//! fast-path all-true ones.
//!
//! **Invariant:** bits at positions `>= len` are always zero. Every mutating
//! operation re-establishes this, so `count()`/`any()` never see ghost rows.

/// A selection bitmask over `len` rows, one bit per row, LSB-first within
/// each 64-bit word (row `i` lives at `words[i / 64]` bit `i % 64`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec {
    words: Vec<u64>,
    len: usize,
}

impl SelVec {
    /// All rows selected.
    pub fn all(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// No rows selected.
    pub fn none(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of rows covered (not the number selected).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words. Callers writing the last word may set tail
    /// bits; call [`SelVec::mask_tail`] afterwards to restore the invariant.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Zero any bits at positions `>= len` in the last word.
    pub fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Whether row `i` is selected.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any row is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Whether every row is selected.
    pub fn all_set(&self) -> bool {
        self.count() == self.len
    }

    /// `self &= other`.
    pub fn and_assign(&mut self, other: &SelVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &SelVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self = !self` (tail bits stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Visit every selected row index in ascending order.
    ///
    /// Accumulation order is part of the kernel/interpreter bit-identity
    /// contract, so this must stay strictly ascending.
    pub fn for_each_selected(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            if w == u64::MAX {
                // A full word is a plain counted loop, no bit scan per row.
                (wi * 64..wi * 64 + 64).for_each(&mut f);
                continue;
            }
            let mut m = w;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                f(wi * 64 + bit);
                m &= m - 1;
            }
        }
    }

    /// Expand to one bool per row (interpreter-compatibility shim).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let a = SelVec::all(70);
        assert_eq!(a.len(), 70);
        assert_eq!(a.count(), 70);
        assert!(a.any());
        assert!(a.all_set());
        assert!(a.get(69));
        // Tail bits beyond len are masked.
        assert_eq!(a.words()[1], (1u64 << 6) - 1);

        let n = SelVec::none(70);
        assert_eq!(n.count(), 0);
        assert!(!n.any());
        assert!(!n.all_set());
    }

    #[test]
    fn boolean_ops_preserve_tail_invariant() {
        let mut a = SelVec::none(67);
        a.words_mut()[1] = 0b101; // rows 64 and 66
        a.mask_tail();
        assert_eq!(a.count(), 2);

        let mut b = a.clone();
        b.not_assign();
        assert_eq!(b.count(), 65);
        assert!(!b.get(64));
        assert!(b.get(65));
        // Double negation restores the original including the zero tail.
        b.not_assign();
        assert_eq!(a, b);

        let mut c = SelVec::all(67);
        c.and_assign(&a);
        assert_eq!(c, a);
        let mut d = SelVec::none(67);
        d.or_assign(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn ascending_selected_iteration() {
        let mut v = SelVec::none(130);
        for i in [0usize, 63, 64, 100, 129] {
            v.words_mut()[i / 64] |= 1 << (i % 64);
        }
        let mut seen = Vec::new();
        v.for_each_selected(|i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 100, 129]);
        assert_eq!(v.to_bools().iter().filter(|&&b| b).count(), 5);
    }

    #[test]
    fn empty_mask() {
        let v = SelVec::all(0);
        assert!(v.is_empty());
        assert_eq!(v.count(), 0);
        assert!(!v.any());
        assert!(v.words().is_empty());
        v.for_each_selected(|_| panic!("no rows to visit"));
    }
}
