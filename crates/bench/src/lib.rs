//! The experiment harness that regenerates every table and figure of the
//! PS3 evaluation (§5).
//!
//! * [`harness`] — prepares a dataset + trained system + per-test-query
//!   caches, and evaluates any method at any budget *without re-reading the
//!   data* (answers combine cached per-partition partials).
//! * [`report`] — fixed-width table/series printing shared by every bench.
//! * [`variance`] — the Appendix-D.2 variance estimators for partition- vs
//!   row-level sampling.
//!
//! Each `benches/*.rs` target is a standalone `main` (no criterion harness)
//! printing the same rows/series the paper reports; `benches/micro_*.rs`
//! are criterion microbenchmarks backing Table 1's complexity claims.
//! Scale comes from `ScaleProfile::from_env()` — set `PS3_FULL=1` for the
//! larger configuration.

pub mod harness;
pub mod report;
pub mod variance;

pub use harness::{auc, Experiment, BUDGETS};
pub use report::{print_header, print_metric_table, Table};
