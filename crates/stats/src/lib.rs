//! The statistics builder (§2.3.1, §3): per-partition summary statistics and
//! the query-time feature vectors derived from them.
//!
//! * [`column_stats`] — the per-(partition, column) sketch bundle.
//! * [`builder`] — builds [`TableStats`] for a whole partitioned table
//!   (in parallel), and derives from its sketches the global heavy-hitter
//!   lists and the per-partition occurrence bitmaps of §3.2 — one
//!   derivation, run at build and at thaw.
//! * [`selectivity`] — the four selectivity features (`upper`, `indep`,
//!   `min`, `max`) estimated from histograms/dictionaries, with
//!   `selectivity_upper`'s perfect-recall guarantee, through a plan built
//!   once per query and run over the table's selectivity index: the
//!   probes' inputs laid out flat per column, derived when a
//!   [`TableStats`] is constructed and never persisted.
//! * [`features`] — the feature-vector schema of Table 2 and query-dependent
//!   masking.
//! * [`normalize`] — Appendix B normalization (log / cube-root transform,
//!   then division by training-set means), and the serving path's split of
//!   a query's normalized features into the shared static table and what
//!   the query adds.
//! * [`persist`] — bit-exact byte codec for the catalog's sketches (the
//!   `STATS` section of the flat artifact format).

pub mod builder;
pub mod column_stats;
pub mod features;
mod index;
pub mod normalize;
#[doc(hidden)]
pub mod oracle;
pub mod persist;
pub mod selectivity;

pub use builder::{StatsConfig, StorageBreakdown, TableStats};
pub use column_stats::ColumnStats;
pub use features::{FeatureMatrix, FeatureSchema, FeatureType, QueryFeatures};
pub use normalize::{NormalizedStatics, Normalizer, QueryColumns};
pub use selectivity::{SelectivityFeatures, SelectivityPlan};
