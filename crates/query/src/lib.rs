//! Query AST and execution engine for the PS3 query scope (§2.2):
//!
//! * **Aggregates**: `SUM`, `COUNT(*)`, `AVG` over columns or linear
//!   projections (`+`, `-`, and `*`, `/` where applicable), including
//!   aggregates with `CASE` conditions rewritten as aggregate-over-predicate.
//! * **Predicates**: conjunctions, disjunctions and negations over
//!   single-column clauses (`c op v`): comparisons on numeric/date columns,
//!   equality and `IN` on categoricals, substring (`LIKE '%x%'`) matches.
//! * **Group by**: one or more stored attributes of moderate cardinality.
//!
//! Execution is exact per partition; the whole point of PS3 is to evaluate a
//! query on a *subset* of partitions and combine the per-partition answers
//! with weights (§2.4): `Ã_g = Σ_j w_j · A_{g,p_j}`.
//!
//! Execution runs on compiled columnar kernels ([`kernel`]): predicates
//! lower once per `(query, table)` into mask programs over a 64-bit
//! [`SelVec`] selection vector, and fused kernels accumulate aggregate
//! slots straight from column chunks — see the kernel module docs for the
//! bit-identity contract with the reference interpreter.
//!
//! The AST has one byte form, [`codec`]: the grammar a request travels in
//! on the wire and a training workload is frozen in on disk, with the
//! schema check both boundaries run before a query reaches a kernel.

pub mod ast;
pub mod codec;
pub mod exec;
pub mod kernel;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod predicate;
#[cfg(test)]
mod proptests;
pub mod selvec;
pub mod sketch;

pub use ast::{AggExpr, AggFunc, BinOp, Clause, CmpOp, Predicate, Query, ScalarExpr};
pub use exec::{
    execute_partials_on, execute_partition, execute_partitions,
    execute_partitions_compiled_totals_on, execute_table, GroupKey, PartialAnswer, QueryAnswer,
    WeightedPart,
};
pub use kernel::{CompiledPredicate, CompiledQuery, TargetSet};
pub use selvec::SelVec;
pub use sketch::{CompiledSketchQuery, QuerySpec, SketchFunc, SketchQuery};
