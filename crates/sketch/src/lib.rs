//! The four lightweight sketches of PS3 (§3.1, Table 1), built per
//! partition when a partition is sealed:
//!
//! | Sketch | Construction | Storage | Used for |
//! |---|---|---|---|
//! | [`Measures`] | O(R) | O(1) | min/max/moments, log-moments |
//! | [`EquiDepthHistogram`] | O(R log R) | O(#buckets) | selectivity estimates |
//! | [`Akmv`] | O(R) | O(k) | distinct values + their frequencies |
//! | [`HeavyHitters`] | O(R) | O(1/support) | heavy hitters, occurrence bitmaps |
//!
//! Plus the [`ExactDict`], the paper's special case for string columns with
//! few distinct values (stored exactly; enables regex-style filters).
//!
//! The table's costs are the streaming constructions' (`update` per row).
//! The statistics builder (`ps3_stats`) sorts each partition column once
//! instead and builds every key sketch from the runs of equal keys:
//! [`EquiDepthHistogram::from_sorted`], [`Akmv::from_distinct`],
//! [`HeavyHitters::report_from_runs`] and [`ExactDict::from_runs`], each
//! equal to its streaming twin (the arguments are in [`akmv`] and
//! [`heavy_hitter`]), which stays as the oracle.
//!
//! Beyond the paper's statistics, the crate hosts the *answer sketches* —
//! mergeable summaries that carry whole query answers for the sketch query
//! classes (`PERCENTILE`, `DISTINCT`, `TOP_K`) across picked partitions:
//!
//! | Sketch | Answers | Merge law |
//! |---|---|---|
//! | [`QuantileSketch`] | `PERCENTILE(col, p)` | confluent log buckets |
//! | [`DistinctSketch`] | `DISTINCT(col)` | register-wise max (HLL) |
//! | [`TopKSketch`] | `TOP_K(col, k)` | exact sorted count merge |
//!
//! All three are **confluent**: the state (and its serialized bytes) is a
//! pure function of the inserted multiset, so merging per-partition
//! sketches in any pick order is bit-identical to one pass over the
//! concatenated rows — the invariant budgeted answering is built on.
//! `tests/merge_laws.rs` pins the laws against exact oracles.
//!
//! The statistics sketches' footprint (the Table-4 storage-overhead
//! experiment) is read off their encodings ([`codec`]). Answer sketches
//! are never stored: they are built per picked partition at query time,
//! so they have no footprint to account.

pub mod akmv;
pub mod answer;
pub mod codec;
pub mod distinct;
pub mod exact_dict;
pub mod hash;
pub mod heavy_hitter;
pub mod histogram;
pub mod measures;
pub mod quantile;
pub mod topk;

pub use akmv::Akmv;
pub use answer::AnswerSketch;
pub use distinct::DistinctSketch;
pub use exact_dict::ExactDict;
pub use heavy_hitter::{HeavyHitter, HeavyHitters};
pub use histogram::{EquiDepthHistogram, HistogramView};
pub use measures::{Measures, MeasuresRaw};
pub use quantile::QuantileSketch;
pub use topk::TopKSketch;
