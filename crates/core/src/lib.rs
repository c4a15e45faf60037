//! The PS3 partition picker (§4) and the evaluation baselines.
//!
//! Given a query, a sampling budget and the per-partition summary statistics
//! of [`ps3_stats`], the picker returns a weighted set of partitions whose
//! combined partial answers approximate the full answer (§2.4). The picker
//! composes four ideas:
//!
//! 1. **Selectivity filter** — partitions with `selectivity_upper == 0`
//!    provably contain no qualifying rows and are dropped (perfect recall).
//! 2. **Outliers** (§4.4, [`outlier`]) — partitions whose heavy-hitter
//!    occurrence bitmaps mark rare group distributions are read exactly,
//!    with weight 1, from a reserved budget slice.
//! 3. **Learned importance** (§4.3, [`importance`]) — k gradient-boosted
//!    regressors sort the remaining partitions into importance groups
//!    through a funnel (Algorithm 2); the budget decays by α across groups
//!    ([`allocate`]).
//! 4. **Clustering** (§4.2) — within each group, similar partitions are
//!    clustered and one exemplar represents each cluster with weight equal
//!    to the cluster size; feature selection (Algorithm 3,
//!    [`feature_selection`]) prunes feature types that hurt clustering.
//!
//! [`baselines`] implements uniform random sampling, filtered random
//! sampling, and the modified Learned Stratified Sampling of Appendix C.1.
//! [`system`] wires everything into the [`Ps3System`] facade — an immutable,
//! `Arc`-shareable deployment whose query path is `&self`. [`router`] is the
//! multi-tenant serving front end over many systems: named table routing, a
//! bounded request queue with backpressure, per-tenant quotas, and an answer
//! cache keyed by `(table, fingerprint, method, budget, seed)` — and the only
//! in-process front door: [`Router::answer_now`] answers a [`QueryRequest`]
//! ([`request`]) synchronously on the caller, through the same cache.

pub mod allocate;
pub mod baselines;
pub mod config;
pub mod estimator;
pub mod feature_selection;
pub mod importance;
pub mod outlier;
pub mod persist;
pub mod picker;
pub mod planner;
pub mod request;
pub mod router;
pub mod system;
pub mod train;

pub use config::{ExemplarRule, Ps3Config};
pub use estimator::{AggError, ErrorEstimate};
pub use picker::{PickOutcome, Picker};
pub use planner::{Budget, BudgetPlan, PlannerStats, FALLBACK_FRAC, PLAN_GRID};
pub use request::QueryRequest;
pub use router::{
    RouteError, Router, RouterBuilder, RouterStats, TableId, TableRoute, Tenant, Ticket,
};
pub use system::{
    spec_rng, AnswerMeta, AnswerOutcome, Method, ProgressUpdate, Ps3System, LSS_BUDGET_GRID,
};
pub use train::{bin_workload, normalize_workload, TrainedPs3, TrainingData};

/// Executable copy of `docs/FORMAT.md`: every Rust block in the artifact
/// format spec runs as a doc-test here, so the documented container bytes
/// and section grammars can never drift from what [`persist`] and
/// `ps3_storage::format` actually write.
#[doc = include_str!("../../../docs/FORMAT.md")]
#[cfg(doctest)]
pub struct FormatDocTests;
