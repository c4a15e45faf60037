//! The serving request: one query, where to run it, what to spend, and the
//! seed that makes the answer reproducible.
//!
//! Each request carries its own seed, so answers are a pure function of
//! `(table, query, method, budget, seed)` no matter which thread or pool
//! worker executes them — and because the [`Router`](crate::router::Router)'s
//! answer cache is keyed by exactly that tuple, repeated requests and re-run
//! budget sweeps skip partition execution entirely while staying
//! bit-identical to the uncached path.

use ps3_query::QuerySpec;

use crate::planner::Budget;
use crate::router::TableRoute;
use crate::system::Method;

/// One serving request: what to answer, where, how, and the seed that
/// makes the answer reproducible.
///
/// The budget is *typed* ([`Budget`]): an explicit partition fraction, an
/// error target, or a latency target. No constructor takes a positional
/// bare fraction — fraction-shaped call sites go through
/// `impl Into<Budget>` (`f64` converts to [`Budget::Fraction`]), and
/// declarative budgets use [`Self::with_error_target`] /
/// [`Self::with_latency_target`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query — scalar ([`ps3_query::Query`]) or sketch-class
    /// ([`ps3_query::SketchQuery`]); both convert into [`QuerySpec`].
    pub query: QuerySpec,
    /// The sampling method.
    pub method: Method,
    /// What to spend or tolerate: a fraction, an error target, or a
    /// latency target (resolved by the router's planner).
    pub budget: Budget,
    /// Per-request randomness seed; equal seeds give bit-identical answers.
    pub seed: u64,
    /// Which table to execute on. `Default` targets a router's sole table.
    pub table: TableRoute,
    /// Ask for refining partial answers while the request executes (the
    /// network server streams them as `Partial` frames). Does not affect
    /// the final answer, which stays bit-identical to a non-progressive
    /// run — so this flag is *not* part of the answer-cache key.
    pub progressive: bool,
}

impl QueryRequest {
    /// A request under `method` with `budget`, routed to the default table.
    pub fn new(
        query: impl Into<QuerySpec>,
        method: Method,
        budget: impl Into<Budget>,
        seed: u64,
    ) -> Self {
        Self {
            query: query.into(),
            method,
            budget: budget.into(),
            seed,
            table: TableRoute::Default,
            progressive: false,
        }
    }

    /// A PS3 request with `budget` (a bare `f64` reads that fraction of
    /// the partitions).
    pub fn ps3(query: impl Into<QuerySpec>, budget: impl Into<Budget>, seed: u64) -> Self {
        Self::new(query, Method::Ps3, budget, seed)
    }

    /// Route this request to a specific table.
    pub fn on_table(mut self, route: impl Into<TableRoute>) -> Self {
        self.table = route.into();
        self
    }

    /// Replace the budget with an error target: spend as little as
    /// possible while keeping the predicted relative error ≤ `rel_err`.
    pub fn with_error_target(mut self, rel_err: f64) -> Self {
        self.budget = Budget::ErrorTarget { rel_err };
        self
    }

    /// Replace the budget with a latency target: the largest budget whose
    /// predicted execution time fits in `ms` milliseconds.
    pub fn with_latency_target(mut self, ms: f64) -> Self {
        self.budget = Budget::LatencyTarget { ms };
        self
    }

    /// Ask for refining partial answers during execution.
    pub fn progressive(mut self) -> Self {
        self.progressive = true;
        self
    }
}
