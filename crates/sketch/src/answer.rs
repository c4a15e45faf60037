//! The tagged union of *answer sketches* — the mergeable summaries that
//! carry sketch-class query answers (`PERCENTILE`, `DISTINCT`, `TOP_K`)
//! across partitions, processes, and the wire.
//!
//! Unlike the statistics sketches ([`crate::akmv`] etc.), which exist to
//! *pick* partitions, answer sketches *are* the answer: the serving layer
//! builds one per picked partition, merges them in any order (each kind is
//! confluent — see the module docs of [`crate::quantile`],
//! [`crate::distinct`], and [`crate::topk`]), and extracts the scalar
//! answer plus an honest error statement from the merged state. The wire
//! protocol ships the merged sketch itself alongside the scalar rows so
//! clients can merge further or re-query at other parameters.

use crate::distinct::DistinctSketch;
use crate::quantile::QuantileSketch;
use crate::topk::TopKSketch;

/// A mergeable answer sketch of any kind.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerSketch {
    /// Quantile sketch (answers `PERCENTILE`).
    Quantile(QuantileSketch),
    /// Distinct counter (answers `DISTINCT`).
    Distinct(DistinctSketch),
    /// Heavy-hitter summary (answers `TOP_K`).
    TopK(TopKSketch),
}

impl AnswerSketch {
    /// Merge `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics when the kinds differ — kinds are fixed per query class, so
    /// a mismatch is a programming error, never a data condition.
    pub fn merge_from(&mut self, other: &AnswerSketch) {
        match (self, other) {
            (AnswerSketch::Quantile(a), AnswerSketch::Quantile(b)) => a.merge_from(b),
            (AnswerSketch::Distinct(a), AnswerSketch::Distinct(b)) => a.merge_from(b),
            (AnswerSketch::TopK(a), AnswerSketch::TopK(b)) => a.merge_from(b),
            _ => panic!("cannot merge answer sketches of different kinds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_dispatches_per_kind() {
        let mut a = AnswerSketch::TopK({
            let mut s = TopKSketch::new();
            s.insert(1);
            s
        });
        let b = AnswerSketch::TopK({
            let mut s = TopKSketch::new();
            s.insert(1);
            s.insert(2);
            s
        });
        a.merge_from(&b);
        match a {
            AnswerSketch::TopK(s) => {
                assert_eq!(s.count_of(1), 2);
                assert_eq!(s.count_of(2), 1);
            }
            other => panic!("kind changed: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_panics() {
        let mut a = AnswerSketch::Distinct(DistinctSketch::new());
        a.merge_from(&AnswerSketch::Quantile(QuantileSketch::new()));
    }
}
