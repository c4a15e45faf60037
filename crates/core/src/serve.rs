//! The single-table serving layer: many callers, one trained system.
//!
//! [`ServeHandle`] is the single-table special case of the multi-tenant
//! [`Router`]: it pins one registered table and
//! answers synchronously on the caller, through the router's shared answer
//! cache but without queueing (the caller blocks either way, so the
//! single-table path keeps the pre-router latency profile). Each request
//! carries its own seed, so answers are a pure function of
//! `(table, query, method, budget, seed)` no matter which thread or pool
//! worker executes them — and because the answer cache is keyed by exactly
//! that tuple, repeated requests and re-run budget sweeps skip partition
//! execution entirely while staying bit-identical to the uncached path.

use std::sync::Arc;

use ps3_query::{Query, QuerySpec};
use ps3_runtime::ThreadPool;

use crate::planner::Budget;
use crate::router::{Router, TableId, TableRoute};
use crate::system::{AnswerOutcome, Method, Ps3System};

/// One serving request: what to answer, where, how, and the seed that
/// makes the answer reproducible.
///
/// The budget is *typed* ([`Budget`]): an explicit partition fraction, an
/// error target, or a latency target. No constructor takes a positional
/// bare fraction — fraction-shaped call sites go through
/// `impl Into<Budget>` (`f64` converts to [`Budget::Fraction`]), and
/// declarative budgets use [`Self::with_error_target`] /
/// [`Self::with_latency_target`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query — scalar ([`Query`]) or sketch-class
    /// ([`ps3_query::SketchQuery`]); both convert into [`QuerySpec`].
    pub query: QuerySpec,
    /// The sampling method.
    pub method: Method,
    /// What to spend or tolerate: a fraction, an error target, or a
    /// latency target (resolved by the router's planner).
    pub budget: Budget,
    /// Per-request randomness seed; equal seeds give bit-identical answers.
    pub seed: u64,
    /// Which table to execute on. `Default` targets a router's sole table
    /// (or a [`ServeHandle`]'s pinned table).
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

    /// Replace the seed (benchmarks derive per-iteration cold seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

/// A shareable serving front door over one table. Clone it freely; every
/// clone answers against the same router, the same answer cache, and the
/// same per-system feature cache.
#[derive(Clone)]
pub struct ServeHandle {
    router: Arc<Router>,
    table: TableId,
}

impl ServeHandle {
    /// Serve `system` as the sole table of a fresh single-table router on
    /// the shared workspace pool.
    pub fn new(system: Arc<Ps3System>) -> Self {
        let router = Router::single(system);
        let table = router.table_id("default").expect("single-table router");
        Self { router, table }
    }

    /// Serve with a dedicated execution pool (benchmarks pin worker counts
    /// this way; answers are bit-identical across pools).
    pub fn with_pool(system: Arc<Ps3System>, pool: Arc<ThreadPool>) -> Self {
        let router = Router::builder()
            .table("default", system)
            .exec_pool(pool)
            .build();
        let table = router.table_id("default").expect("single-table router");
        Self { router, table }
    }

    /// A handle pinned to one of `router`'s tables — the multi-table way to
    /// get the synchronous single-table API. `None` if `name` is not
    /// registered.
    pub fn for_table(router: Arc<Router>, name: &str) -> Option<Self> {
        let table = router.table_id(name)?;
        Some(Self { router, table })
    }

    /// The underlying router (register tenants, read stats).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The shared system currently behind the pinned table (an `Arc`
    /// snapshot — [`Router::replace_table`] may swap it at any time).
    pub fn system(&self) -> Arc<Ps3System> {
        self.router.system(self.table)
    }

    /// Resolve a request's route, falling back to the pinned table.
    fn route(&self, req: &QueryRequest) -> TableId {
        match req.table {
            TableRoute::Default => self.table,
            _ => self
                .router
                .resolve(&req.table)
                .expect("request routed to an unregistered table"),
        }
    }

    /// Answer one request. Safe to call from any number of threads at
    /// once; the result depends only on the request. Repeats of the same
    /// request are served from the router's answer cache, bit-identical to
    /// the uncached computation (the cached value *is* that computation's
    /// output).
    ///
    /// Clones the outcome out of the cache; use [`Self::answer_shared`] on
    /// hot warm paths to skip the copy. Panics if the request explicitly
    /// routes to a table the router does not know (the fallible
    /// alternative is [`Tenant::submit`](crate::router::Tenant::submit),
    /// which hands the request back in a `RouteError`).
    pub fn answer(&self, req: &QueryRequest) -> AnswerOutcome {
        (*self.answer_shared(req)).clone()
    }

    /// [`Self::answer`] without the copy: the cache's own `Arc`. Warm
    /// dashboards calling this repeatedly allocate nothing per request.
    /// This is the canonical answering path — every other `ServeHandle`
    /// entry point delegates here.
    pub fn answer_shared(&self, req: &QueryRequest) -> Arc<AnswerOutcome> {
        self.router.answer_now(self.route(req), req)
    }

    /// [`Self::answer_shared`] plus the plan that resolved the request's
    /// [`Budget`] to a concrete fraction — how declarative callers learn
    /// what was spent on their behalf (and whether the planner had signal).
    pub fn answer_planned(
        &self,
        req: &QueryRequest,
    ) -> (Arc<AnswerOutcome>, crate::planner::BudgetPlan) {
        self.router.answer_planned(self.route(req), req)
    }

    /// Answer a batch concurrently over the pool, results in request order.
    ///
    /// On a single-worker pool the hand-off buys no parallelism and costs a
    /// queue round-trip per request, so the batch runs serially on the
    /// caller instead — same results, same order, no injection.
    pub fn answer_many(&self, reqs: &[QueryRequest]) -> Vec<AnswerOutcome> {
        let pool = self.router.pool();
        if pool.workers() <= 1 {
            return reqs.iter().map(|req| self.answer(req)).collect();
        }
        pool.map(reqs, |req| self.answer(req))
    }

    /// Answer one query across a budget sweep, fanned out over the pool
    /// with results in budget order. Each budget derives its RNG the same
    /// way the serial path did (`spec_rng(spec, seed)` afresh per
    /// budget), so the fan-out is bit-identical to a serial sweep. The
    /// query's artifacts are warmed once up front, which keeps the
    /// features-computed-once guarantee even with budgets racing.
    pub fn sweep(
        &self,
        query: &Query,
        method: Method,
        budgets: &[f64],
        seed: u64,
    ) -> Vec<AnswerOutcome> {
        if budgets.is_empty() {
            return Vec::new();
        }
        self.system().artifacts_for(query);
        let reqs: Vec<QueryRequest> = budgets
            .iter()
            .map(|&frac| QueryRequest::new(query.clone(), method, frac, seed))
            .collect();
        self.answer_many(&reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::AggExpr;
    use ps3_stats::{StatsConfig, TableStats};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    use crate::config::Ps3Config;
    use crate::system::spec_rng;

    fn handle() -> ServeHandle {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..320 {
            b.push_row(&[f64::from(i)], &[["a", "b", "c", "d"][(i / 80) as usize]]);
        }
        let pt = Arc::new(PartitionedTable::with_equal_partitions(b.finish(), 16));
        let stats = Arc::new(TableStats::build(&pt, &StatsConfig::default()));
        let queries = vec![
            Query::new(
                vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                    ps3_storage::ColId(0),
                ))],
                None,
                vec![ps3_storage::ColId(1)],
            ),
            Query::new(vec![AggExpr::count()], None, vec![]),
        ];
        let mut cfg = Ps3Config::default().with_seed(9);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        ServeHandle::new(Arc::new(Ps3System::train(pt, stats, &queries, cfg)))
    }

    #[test]
    fn batch_results_are_in_request_order_and_reproducible() {
        let h = handle();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let reqs: Vec<QueryRequest> = (0..12)
            .map(|i| QueryRequest::ps3(q.clone(), 0.25, i as u64))
            .collect();
        let batch = h.answer_many(&reqs);
        assert_eq!(batch.len(), reqs.len());
        for (req, out) in reqs.iter().zip(&batch) {
            let again = h.answer(req);
            assert_eq!(out.answer, again.answer, "seed {}", req.seed);
        }
    }

    #[test]
    fn single_worker_batch_skips_the_pool_hand_off() {
        let system = handle().system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| QueryRequest::ps3(q.clone(), 0.25, i as u64))
            .collect();

        let serial_pool = Arc::new(ThreadPool::new(1));
        let serial = ServeHandle::with_pool(Arc::clone(&system), Arc::clone(&serial_pool));
        // Warm the cache so the fast-path run itself executes nothing that
        // could inject work (partition execution fans out over the pool).
        for req in &reqs {
            serial.answer(req);
        }
        let before = serial_pool.tasks_injected();
        let fast = serial.answer_many(&reqs);
        assert_eq!(
            serial_pool.tasks_injected(),
            before,
            "1-worker batch must run inline, never touching the injector"
        );

        let wide_pool = Arc::new(ThreadPool::new(2));
        let wide = ServeHandle::with_pool(system, Arc::clone(&wide_pool));
        for req in &reqs {
            wide.answer(req);
        }
        let before = wide_pool.tasks_injected();
        let fanned = wide.answer_many(&reqs);
        assert_eq!(
            wide_pool.tasks_injected() - before,
            reqs.len() as u64,
            "multi-worker batch still fans out over the pool"
        );

        for (f, w) in fast.iter().zip(&fanned) {
            assert_eq!(f.answer, w.answer, "fast path must not change answers");
        }
    }

    #[test]
    fn sweep_reuses_one_feature_computation() {
        let h = handle();
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![ps3_storage::ColId(1)],
        );
        let before = h.system().feature_cache_stats().misses;
        let outs = h.sweep(&q, Method::Ps3, &[0.05, 0.1, 0.2, 0.35, 0.5, 0.75], 4);
        assert_eq!(outs.len(), 6);
        let after = h.system().feature_cache_stats().misses;
        assert_eq!(after - before, 1, "one compute for the whole sweep");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_the_serial_path() {
        let h = handle();
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![ps3_storage::ColId(1)],
        );
        let budgets = [0.05, 0.1, 0.2, 0.35, 0.5, 0.75];
        let fanned = h.sweep(&q, Method::Ps3, &budgets, 11);
        let spec = QuerySpec::from(&q);
        // The pre-fan-out reference: budgets executed serially on the
        // caller, each deriving its RNG afresh — no caches involved.
        let serial: Vec<AnswerOutcome> = budgets
            .iter()
            .map(|&frac| {
                let mut rng = spec_rng(&spec, 11);
                h.system()
                    .answer_spec_on(&spec, Method::Ps3, frac, &mut rng, h.router().pool())
            })
            .collect();
        assert_eq!(fanned.len(), serial.len());
        for (i, (f, s)) in fanned.iter().zip(&serial).enumerate() {
            assert_eq!(f.answer, s.answer, "budget {} diverged", budgets[i]);
            let fb: Vec<(usize, u64)> = f
                .selection
                .iter()
                .map(|w| (w.partition.index(), w.weight.to_bits()))
                .collect();
            let sb: Vec<(usize, u64)> = s
                .selection
                .iter()
                .map(|w| (w.partition.index(), w.weight.to_bits()))
                .collect();
            assert_eq!(fb, sb, "budget {} selection diverged", budgets[i]);
        }
    }

    #[test]
    fn warm_sweep_skips_partition_execution_entirely() {
        let h = handle();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let budgets = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
        let cold = h.sweep(&q, Method::Ps3, &budgets, 2);
        let executed_cold = h.router().stats().executions;
        assert_eq!(executed_cold, budgets.len() as u64);
        let warm = h.sweep(&q, Method::Ps3, &budgets, 2);
        let stats = h.router().stats();
        assert_eq!(
            stats.executions, executed_cold,
            "warm re-run must perform zero additional executions"
        );
        assert!(stats.answers.hits >= budgets.len() as u64);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.answer, w.answer, "cached replay must be bit-identical");
        }
    }

    #[test]
    fn handle_for_router_table_answers_like_a_fresh_single_table_handle() {
        let h = handle();
        let system = h.system();
        let router = Router::builder().table("tbl", Arc::clone(&system)).build();
        let pinned = ServeHandle::for_table(Arc::clone(&router), "tbl").unwrap();
        assert!(ServeHandle::for_table(router, "missing").is_none());
        let req = QueryRequest::ps3(Query::new(vec![AggExpr::count()], None, vec![]), 0.25, 3);
        assert_eq!(pinned.answer(&req).answer, h.answer(&req).answer);
        // Explicit routing to the pinned table agrees with Default.
        let routed = req.clone().on_table("tbl");
        assert_eq!(pinned.answer(&routed).answer, pinned.answer(&req).answer);
    }
}
