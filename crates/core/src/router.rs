//! The multi-tenant serving front end: one front door over many trained
//! tables.
//!
//! A [`Router`] owns a registry of named tables (each an independent,
//! shared-nothing `Arc<Ps3System>`), a bounded [`RequestQueue`] with
//! capacity backpressure, and a bounded **answer cache** keyed by
//! `(table, generation, query fingerprint, method, budget bits, seed)`.
//! Because every answer is already a pure function of that tuple (see
//! [`crate::system::spec_rng`]), replaying a cached [`AnswerOutcome`] is
//! bit-identical to re-executing it — repeated requests and re-run budget
//! sweeps skip partition execution entirely.
//!
//! Two properties matter once requests arrive over a network instead of
//! from in-process callers:
//!
//! - **Single-flight coalescing** — N requests racing on one never-seen
//!   key execute it once; the rest join the leader's in-flight execution
//!   ([`SingleFlight`]) and share its `Arc`'d outcome.
//!   [`RouterStats::executions`] counts 1 for the whole stampede.
//! - **Swap-in-place** — [`Router::replace_table`] (or
//!   [`Router::load_table`], which thaws the system first) swaps a table's
//!   system and invalidates that table's cached answers (generation bump +
//!   targeted eviction) without touching other tables or pausing serving.
//!
//! Layering (top to bottom):
//!
//! 1. **[`Tenant`]** — a named submission handle with an optional in-flight
//!    quota ([`Semaphore`]). Admission starts at the answer cache: a
//!    request at an explicit fraction whose answer is cached is resolved
//!    on the submitting thread and comes back as a [`Ticket`] that is
//!    already ready — no permit, no queue slot, no pump. Everything else
//!    is a miss to queue: `submit` blocks on quota and queue capacity;
//!    `try_submit` rejects instead.
//! 2. **[`RequestQueue`]** — the bounded buffer between tenants and pumps.
//! 3. **Pumps** — detached [`ThreadPool`] tasks (spawned lazily on the
//!    first tenant) that drain the queue and execute requests, each from
//!    the key its submission already looked up (one counted lookup per
//!    request, wherever it runs). A request that panics delivers its
//!    payload to the submitting tenant's `Ticket::wait`, never to the
//!    pump.
//! 4. **[`Ps3System`]** — per-table execution, fanned out on the router's
//!    execution pool.
//!
//! In-process callers that want no queue call [`Router::answer_now`]: it
//! answers synchronously on the caller, through the same answer cache.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Instant;

use ps3_query::codec::check_schema;
use ps3_runtime::{
    CacheStats, Permit, RequestQueue, Semaphore, SharedLru, SingleFlight,
    SubmitError as QueueError, ThreadPool,
};
use ps3_storage::codec::CodecError;

use crate::planner::{plan_error_target, plan_latency_target, Budget, BudgetPlan, PlannerStats};
use crate::request::QueryRequest;
use crate::system::{spec_rng, AnswerOutcome, ProgressUpdate, Ps3System};

/// Index of a registered table within one router. Only meaningful for the
/// router that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(u32);

impl TableId {
    /// Registry index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a request should execute. `Default` routes to the router's sole
/// table (an error on a multi-table router, which has no implicit table);
/// names resolve at submission time. Both routes mean the same thing on
/// either side of a wire, so every request can be sent as a frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TableRoute {
    /// The single registered table (single-table routers only).
    #[default]
    Default,
    /// A table name to resolve at submission.
    Named(String),
}

impl From<&str> for TableRoute {
    fn from(name: &str) -> Self {
        TableRoute::Named(name.to_owned())
    }
}

/// Why a tenant's submission was not admitted. The request rides back in
/// the error so nothing is lost (boxed, to keep the `Err` variant small on
/// the all-`Ok` fast path).
#[derive(Debug)]
pub enum RouteError {
    /// The route named no registered table.
    UnknownTable(Box<QueryRequest>),
    /// The queue is at capacity (`try_submit` only).
    QueueFull(Box<QueryRequest>),
    /// The tenant's in-flight quota is exhausted (`try_submit` only).
    QuotaExhausted(Box<QueryRequest>),
    /// The router has shut down.
    Closed(Box<QueryRequest>),
    /// The query does not fit the routed table's schema (a column the table
    /// does not have, `PERCENTILE` over a categorical column), or its
    /// budget is not one a plan can honour (see [`Tenant::try_submit`]);
    /// the reason rides beside the request.
    InvalidQuery(Box<QueryRequest>, CodecError),
}

impl RouteError {
    /// Recover the request that was not admitted.
    pub fn into_request(self) -> QueryRequest {
        match self {
            RouteError::UnknownTable(r)
            | RouteError::QueueFull(r)
            | RouteError::QuotaExhausted(r)
            | RouteError::Closed(r)
            | RouteError::InvalidQuery(r, _) => *r,
        }
    }
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownTable(r) => write!(f, "no table matches route {:?}", r.table),
            RouteError::QueueFull(_) => write!(f, "request queue is full"),
            RouteError::QuotaExhausted(_) => write!(f, "tenant in-flight quota exhausted"),
            RouteError::Closed(_) => write!(f, "router is shut down"),
            RouteError::InvalidQuery(_, why) => write!(f, "invalid query: {why}"),
        }
    }
}

/// The answer-cache key. Answers are a pure function of this tuple, so a
/// cached replay is bit-identical to re-execution. `generation` bumps on
/// [`Router::replace_table`], which makes every pre-swap entry (and
/// pre-swap in-flight execution) unreachable to post-swap lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AnswerKey {
    table: u32,
    generation: u64,
    fingerprint: u64,
    method: crate::system::Method,
    budget_bits: u64,
    seed: u64,
}

impl AnswerKey {
    /// Built once per request — this is the one place the request's
    /// [`Query::fingerprint`](ps3_query::Query::fingerprint) is hashed.
    /// `budget_bits` is the explicit fraction when the budget is one; a
    /// declarative budget's key is completed with [`AnswerKey::at`] once
    /// the planner names a fraction.
    fn new(table: TableId, generation: u64, req: &QueryRequest) -> Self {
        Self {
            table: table.0,
            generation,
            fingerprint: req.query.fingerprint(),
            method: req.method,
            budget_bits: req.budget.as_fraction().map_or(0, f64::to_bits),
            seed: req.seed,
        }
    }

    /// The same request at `frac` — the **planned** fraction it executes
    /// at, not the requested [`Budget`] — so an explicit `Fraction(0.2)`
    /// and an error target the planner resolved to `0.2` share one cache
    /// entry and are bit-identical.
    fn at(self, frac: f64) -> Self {
        Self {
            budget_bits: frac.to_bits(),
            ..self
        }
    }

    /// The fraction this key executes at.
    fn frac(&self) -> f64 {
        f64::from_bits(self.budget_bits)
    }
}

/// Router effectiveness counters.
#[derive(Debug, Clone, Copy)]
pub struct RouterStats {
    /// Answer-cache hit/miss/occupancy. A request at an explicit fraction
    /// is one counted lookup (a tenant's happens at submission, and a hit
    /// there never queues); a planned request is one per probe plus one
    /// for the final answer. Hits are served without executing; misses
    /// proceed to the single-flight execution path.
    pub answers: CacheStats,
    /// Times the router actually ran partition selection + execution (the
    /// uncached path). A warm re-run adds zero, and a cold-key stampede
    /// adds exactly one however many requests race on it.
    pub executions: u64,
    /// Cold requests another request's execution served instead of their
    /// own (single-flight coalescing): they joined it in flight, or found
    /// its answer cached by the time they came to execute. Every miss in
    /// [`Self::answers`] ends as one of `executions` or `coalesced`.
    pub coalesced: u64,
    /// Requests currently queued or executing.
    pub in_flight: usize,
    /// Budget-planner activity (plans, probes, probe cache hits,
    /// no-signal fallbacks).
    pub planner: PlannerStats,
}

struct TableEntry {
    name: String,
    /// Swappable so [`Router::replace_table`] can swap it in place; the
    /// query path takes one read-lock + `Arc` clone per uncached execution.
    system: RwLock<Arc<Ps3System>>,
    /// Bumped on every [`Router::replace_table`]; part of [`AnswerKey`].
    generation: AtomicU64,
    /// EWMA of measured execution cost (ms per partition read), fed by
    /// every uncached leader execution; the latency planner's signal.
    /// `None` until the first execution lands.
    cost_ms_per_part: Mutex<Option<f64>>,
}

impl TableEntry {
    /// Fold one measured execution into the cost EWMA. The smoothing
    /// constant 0.3 follows the usual serving-telemetry convention: recent
    /// executions dominate within ~a dozen samples, but one outlier cannot
    /// swing the plan.
    fn observe_cost(&self, elapsed_ms: f64, partitions: usize) {
        if partitions == 0 || !elapsed_ms.is_finite() {
            return;
        }
        let per_part = elapsed_ms / partitions as f64;
        let mut slot = self.cost_ms_per_part.lock().unwrap();
        *slot = Some(match *slot {
            Some(prev) => 0.3 * per_part + 0.7 * prev,
            None => per_part,
        });
    }
}

/// Result of one routed request: the shared outcome, or the panic payload
/// of a request that blew up while executing.
type JobResult = std::thread::Result<Arc<AnswerOutcome>>;

/// What rides inside a ticket's mutex: the (eventual) result, whether a
/// consumer already took it, the undelivered refinements of a progressive
/// execution, and the consumer's [`Ticket::on_event`] hook.
#[derive(Default)]
struct TicketSlot {
    result: Option<JobResult>,
    taken: bool,
    /// Refining partial answers, oldest first, awaiting
    /// [`Ticket::take_progress`]. Only the leader of a cold progressive
    /// execution streams; everything else delivers its final answer alone.
    progress: Vec<ProgressUpdate>,
    hook: Option<Arc<dyn Fn() + Send + Sync>>,
}

#[derive(Default)]
struct TicketState {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

impl TicketState {
    /// Queue a refinement and fire the hook. This runs on the executing
    /// thread, inside the request: a panicking hook fails the request, and
    /// the panic reaches the ticket like any other.
    fn push_progress(&self, update: ProgressUpdate) {
        let hook = {
            let mut slot = self.slot.lock().unwrap();
            slot.progress.push(update);
            slot.hook.clone()
        };
        // Outside the lock: the hook may call back into the ticket.
        if let Some(hook) = hook {
            hook();
        }
    }

    fn fulfill(&self, result: JobResult) {
        let hook = {
            let mut slot = self.slot.lock().unwrap();
            slot.result = Some(result);
            slot.hook.take()
        };
        self.ready.notify_all();
        if let Some(hook) = hook {
            // The result is stored, so a panic here has nobody left to
            // report to; letting it unwind would skip the caller's
            // bookkeeping and end the pump that runs it.
            let _ = catch_unwind(AssertUnwindSafe(|| hook()));
        }
    }
}

/// A claim on one submitted request. [`Ticket::wait`] blocks until the
/// request has executed (or was served from the answer cache) and returns
/// the shared outcome; if the request panicked while executing, the panic
/// resumes *here*, in the submitting tenant. Non-blocking consumers (the
/// network event loop) ask [`Ticket::poll_take`] first — a request the
/// answer cache already held comes back ready from submission — and
/// otherwise register a hook with [`Ticket::on_event`] and collect
/// whatever waits (refinements, the result) each time it fires.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    /// An answer-cache hit, resolved by the submitter: the ticket owns its
    /// outcome and shares no state with the router — nothing was queued,
    /// counted pending or charged to a quota.
    Ready {
        outcome: Arc<AnswerOutcome>,
        /// Set by the one `poll_take` that yields the outcome.
        taken: AtomicBool,
    },
    /// A miss, queued for the pumps, which deliver through the shared
    /// state.
    Queued(Arc<TicketState>),
}

impl Ticket {
    fn ready(outcome: Arc<AnswerOutcome>) -> Self {
        Self {
            inner: TicketInner::Ready {
                outcome,
                taken: AtomicBool::new(false),
            },
        }
    }

    /// Block until the outcome is ready.
    ///
    /// # Panics
    ///
    /// Resumes the request's own panic if it panicked while executing, and
    /// panics if the result was already consumed by [`Ticket::poll_take`]
    /// (a ticket's outcome is delivered exactly once).
    pub fn wait(self) -> Arc<AnswerOutcome> {
        let state = match self.inner {
            TicketInner::Ready { outcome, taken } => {
                assert!(
                    !taken.into_inner(),
                    "ticket result already taken via poll_take"
                );
                return outcome;
            }
            TicketInner::Queued(state) => state,
        };
        let mut slot = state.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.result.take() {
                slot.taken = true;
                drop(slot);
                match result {
                    Ok(out) => return out,
                    Err(payload) => resume_unwind(payload),
                }
            }
            assert!(!slot.taken, "ticket result already taken via poll_take");
            slot = state.ready.wait(slot).unwrap();
        }
    }

    /// True once the outcome (or panic) has been delivered.
    pub fn is_ready(&self) -> bool {
        match &self.inner {
            TicketInner::Ready { .. } => true,
            TicketInner::Queued(state) => {
                let slot = state.slot.lock().unwrap();
                slot.result.is_some() || slot.taken
            }
        }
    }

    /// Take the outcome if it has been delivered; never blocks. A request
    /// that panicked surfaces as the `Err` payload instead of resuming
    /// here — the event-loop consumer turns it into a wire error rather
    /// than dying. Returns `None` while the request is still in flight and
    /// after the result has been taken (by this method or by
    /// [`Ticket::wait`]).
    pub fn poll_take(&self) -> Option<std::thread::Result<Arc<AnswerOutcome>>> {
        match &self.inner {
            TicketInner::Ready { outcome, taken } => {
                // SeqCst: the swap alone decides which caller gets the
                // outcome; it publishes nothing else.
                (!taken.swap(true, Ordering::SeqCst)).then(|| Ok(Arc::clone(outcome)))
            }
            TicketInner::Queued(state) => {
                let mut slot = state.slot.lock().unwrap();
                let result = slot.result.take();
                if result.is_some() {
                    slot.taken = true;
                }
                result
            }
        }
    }

    /// Register the hook that tells a non-blocking consumer something is
    /// waiting: it fires after every [`ProgressUpdate`] a progressive
    /// execution queues and once when the outcome (or panic) is delivered
    /// — and immediately, on the caller, if something already waits: always
    /// for a ticket that came back ready from submission (an answer-cache
    /// hit), which is why a non-blocking consumer asks [`Ticket::poll_take`]
    /// before paying for a hook. Otherwise the hook runs on whatever thread
    /// executes the request (a queue pump, a draining caller), so keep it
    /// tiny and non-blocking; the network server's hook records the ticket
    /// and wakes its poll loop. A second registration replaces the first.
    pub fn on_event(&self, hook: impl Fn() + Send + Sync + 'static) {
        let hook: Arc<dyn Fn() + Send + Sync> = Arc::new(hook);
        let waiting = match &self.inner {
            TicketInner::Ready { taken, .. } => !taken.load(Ordering::SeqCst),
            TicketInner::Queued(state) => {
                let mut slot = state.slot.lock().unwrap();
                if slot.result.is_none() && !slot.taken {
                    slot.hook = Some(Arc::clone(&hook));
                }
                slot.result.is_some() || !slot.progress.is_empty()
            }
        };
        if waiting {
            hook();
        }
    }

    /// Drain every queued [`ProgressUpdate`], oldest first. Never blocks;
    /// empty for non-progressive requests, cache hits, and coalesced
    /// joiners (the final answer is still delivered through the ticket).
    pub fn take_progress(&self) -> Vec<ProgressUpdate> {
        match &self.inner {
            TicketInner::Ready { .. } => Vec::new(),
            TicketInner::Queued(state) => std::mem::take(&mut state.slot.lock().unwrap().progress),
        }
    }
}

/// One queued unit of work. The quota permit rides along and frees when
/// the job finishes (not when the ticket is eventually read).
struct Job {
    table: TableId,
    req: QueryRequest,
    /// The answer-cache key submission already looked up and missed
    /// (explicit fractions); `None` for a declarative budget, whose
    /// fraction only the planner, on the pump, can name.
    missed: Option<AnswerKey>,
    ticket: Arc<TicketState>,
    _permit: Option<Permit>,
}

/// State shared between the router handle and its pump tasks.
struct RouterCore {
    tables: Vec<TableEntry>,
    by_name: HashMap<String, TableId>,
    exec_pool: Arc<ThreadPool>,
    queue: RequestQueue<Job>,
    answers: SharedLru<AnswerKey, Arc<AnswerOutcome>>,
    /// Coalesces concurrent cold requests on one key into one execution.
    inflight: SingleFlight<AnswerKey, Arc<AnswerOutcome>>,
    executions: AtomicU64,
    coalesced: AtomicU64,
    /// Budget-planner counters (see [`PlannerStats`]).
    planner_plans: AtomicU64,
    planner_probes: AtomicU64,
    planner_probe_hits: AtomicU64,
    planner_fallbacks: AtomicU64,
    /// Accepted-but-unfinished request count; `all_done` signals zero.
    pending: Mutex<usize>,
    all_done: Condvar,
}

impl RouterCore {
    /// The key `req` resolves under right now: the table's current
    /// generation, the query hashed once.
    fn key_for(&self, table: TableId, req: &QueryRequest) -> AnswerKey {
        let generation = self.tables[table.index()].generation.load(Ordering::SeqCst);
        AnswerKey::new(table, generation, req)
    }

    /// The resolve half of resolve-or-execute: the request path's one
    /// counted answer-cache lookup. A tenant's submission runs it on the
    /// submitter (a hit never reaches the queue), everything else on
    /// whichever thread executes; either way a request at a known fraction
    /// is looked up exactly once, and a miss goes on to
    /// [`Self::execute_missed`] with the same key.
    fn lookup(&self, key: &AnswerKey) -> Option<Arc<AnswerOutcome>> {
        self.answers.get(key)
    }

    /// The execute half: what a request does once [`Self::lookup`] missed,
    /// coalescing concurrent misses. Bit-identical to a direct
    /// `Ps3System::answer_spec_on` with a [`spec_rng`]-derived RNG: the
    /// value it caches *is* that computation's output, keyed by everything
    /// the computation depends on.
    ///
    /// A cold-key stampede — N requests racing on one never-seen key —
    /// executes exactly once: the first racer leads, the rest join its
    /// [`SingleFlight`] flight (or find the cache filled, if they arrive
    /// after the leader finished) and share the same `Arc`'d outcome.
    ///
    /// Progressive streaming only happens for the cold leader of a
    /// progressive request; joiners deliver the final answer alone.
    fn execute_missed(
        &self,
        key: AnswerKey,
        req: &QueryRequest,
        progress: Option<&TicketState>,
    ) -> Arc<AnswerOutcome> {
        let progress = progress.filter(|_| req.progressive);
        let entry = &self.tables[key.table as usize];
        // A key made at submission can be a generation behind by the time a
        // pump gets to it. The request executes on the system current
        // *now*, so it moves to the generation current now: it joins that
        // generation's flights, and its answer lands where later requests
        // look (the re-check below is its lookup there). Never the other
        // way round — see the ordering argument in `replace_table`.
        let key = AnswerKey {
            generation: entry.generation.load(Ordering::SeqCst),
            ..key
        };
        let mut found_cached = false;
        let flight = self.inflight.run(key, || {
            // Another request's execution may have filled the cache between
            // our miss (at submission, for a queued job) and this closure
            // winning the key; re-check (uncounted — this request was
            // already counted as a miss) before executing.
            if let Some(hit) = self.answers.peek(&key) {
                found_cached = true;
                return hit;
            }
            self.executions.fetch_add(1, Ordering::Relaxed);
            // Clone out of the lock: execution must not hold the table
            // entry locked (a swap may replace the system mid-flight; this
            // request finishes on the system it resolved).
            let system = Arc::clone(&entry.system.read().unwrap());
            let mut rng = spec_rng(&req.query, req.seed);
            let started = Instant::now();
            // The progressive leader streams refining updates into its
            // ticket; the outcome is bit-identical with or without a sink,
            // so the cached value is path-independent.
            let mut forward = progress.map(|ticket| |update| ticket.push_progress(update));
            let sink = forward
                .as_mut()
                .map(|f| f as &mut dyn FnMut(ProgressUpdate));
            let out = Arc::new(system.answer_spec_sink_on(
                &req.query,
                req.method,
                key.frac(),
                &mut rng,
                &self.exec_pool,
                sink,
            ));
            entry.observe_cost(started.elapsed().as_secs_f64() * 1e3, out.selection.len());
            self.answers.insert(key, Arc::clone(&out));
            out
        });
        if flight.was_joined() || found_cached {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        flight.into_value()
    }

    /// Resolve a request's [`Budget`] to the concrete fraction it will
    /// execute at. Explicit fractions pass through untouched; error targets
    /// binary-search the budget grid with *probe executions* that go
    /// through the normal cached path (so planning warms exactly the
    /// entries the final answer reads, and a warm planner costs a few cache
    /// hits); latency targets consult the table's cost EWMA without
    /// executing anything. `key` is the request's key; probes re-aim it
    /// with [`AnswerKey::at`].
    fn plan_budget(&self, key: AnswerKey, req: &QueryRequest) -> BudgetPlan {
        match req.budget {
            Budget::Fraction(frac) => BudgetPlan::passthrough(frac),
            Budget::ErrorTarget { rel_err } => {
                self.planner_plans.fetch_add(1, Ordering::Relaxed);
                let probe = |frac: f64| {
                    let key = key.at(frac);
                    self.planner_probes.fetch_add(1, Ordering::Relaxed);
                    let out = match self.lookup(&key) {
                        Some(hit) => {
                            self.planner_probe_hits.fetch_add(1, Ordering::Relaxed);
                            hit
                        }
                        None => self.execute_missed(key, req, None),
                    };
                    out.meta.error_estimate.rel_err
                };
                let (frac, planned, probes) = plan_error_target(rel_err, probe);
                if !planned {
                    self.planner_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                BudgetPlan {
                    requested: req.budget,
                    frac,
                    planned,
                    probes,
                }
            }
            Budget::LatencyTarget { ms } => {
                self.planner_plans.fetch_add(1, Ordering::Relaxed);
                let entry = &self.tables[key.table as usize];
                let cost = *entry.cost_ms_per_part.lock().unwrap();
                let parts = entry.system.read().unwrap().num_partitions();
                let (frac, planned) = plan_latency_target(ms, cost, parts);
                if !planned {
                    self.planner_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                BudgetPlan {
                    requested: req.budget,
                    frac,
                    planned,
                    probes: 0,
                }
            }
        }
    }

    /// Plan the budget, then resolve-or-execute at the planned fraction.
    fn execute(
        &self,
        table: TableId,
        req: &QueryRequest,
        progress: Option<&TicketState>,
    ) -> (Arc<AnswerOutcome>, BudgetPlan) {
        let key = self.key_for(table, req);
        let plan = self.plan_budget(key, req);
        let key = key.at(plan.frac);
        let out = match self.lookup(&key) {
            Some(hit) => hit,
            None => self.execute_missed(key, req, progress),
        };
        (out, plan)
    }

    /// Execute one queued job, deliver its outcome (or panic) to the
    /// ticket, release the quota permit, and retire it from `pending`.
    fn run_job(&self, job: Job) {
        let Job {
            table,
            req,
            missed,
            ticket,
            _permit,
        } = job;
        let progress = Some(&*ticket);
        let result = catch_unwind(AssertUnwindSafe(|| match missed {
            // Submission ran the lookup; pick up where it left off.
            Some(key) => self.execute_missed(key, &req, progress),
            None => self.execute(table, &req, progress).0,
        }));
        ticket.fulfill(result);
        drop(_permit);
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }
}

/// Configures and builds a [`Router`]. Obtained from [`Router::builder`].
pub struct RouterBuilder {
    tables: Vec<TableEntry>,
    queue_cap: usize,
    pump_workers: Option<usize>,
    answer_cache_cap: usize,
    exec_pool: Option<Arc<ThreadPool>>,
}

impl RouterBuilder {
    /// Register a named table. Registration order assigns [`TableId`]s.
    pub fn table(mut self, name: impl Into<String>, system: Arc<Ps3System>) -> Self {
        self.tables.push(TableEntry {
            name: name.into(),
            system: RwLock::new(system),
            generation: AtomicU64::new(0),
            cost_ms_per_part: Mutex::new(None),
        });
        self
    }

    /// Bound on queued (accepted, not yet executing) requests. Default 256.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Number of pump tasks draining the queue. Defaults to the execution
    /// pool's worker count. `0` means no pumps: queued work runs only via
    /// [`Router::drain_queued`] / [`Router::shutdown`] (deterministic mode,
    /// used by the backpressure tests).
    pub fn pump_workers(mut self, n: usize) -> Self {
        self.pump_workers = Some(n);
        self
    }

    /// Bound on cached answers. Default 1024.
    pub fn answer_cache_capacity(mut self, cap: usize) -> Self {
        self.answer_cache_cap = cap.max(1);
        self
    }

    /// Pin partition execution to `pool` (benchmarks pin worker counts this
    /// way; answers are bit-identical across pools).
    pub fn exec_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.exec_pool = Some(pool);
        self
    }

    /// Register a named table from a frozen artifact on disk
    /// ([`crate::persist::thaw`]): the cold-start boot path. Column
    /// payloads stay mmapped; a malformed artifact is rejected here with a
    /// typed error before the router exists.
    ///
    /// Whatever the process freed before booting (a dataset it generated,
    /// a system it trained and froze) goes back to the OS first
    /// ([`ps3_runtime::release_free_heap`]). Otherwise the thaw's decode
    /// buffers land on top of that freed-but-resident heap or in its holes,
    /// depending on how earlier threads split it between arenas, and the
    /// boot's peak resident size varies by tens of MB from run to run.
    pub fn table_from_artifact(
        self,
        name: impl Into<String>,
        path: &std::path::Path,
    ) -> Result<Self, ps3_storage::format::FormatError> {
        ps3_runtime::release_free_heap();
        let system = crate::persist::thaw(path)?;
        Ok(self.table(name, Arc::new(system)))
    }

    /// Build the router. Panics if no table was registered or a name was
    /// registered twice.
    ///
    /// This is where a process turns from loading its tables (generating,
    /// training, thawing — each frees far more than it keeps) to serving
    /// them, so the freed heap goes back to the OS here
    /// ([`ps3_runtime::release_free_heap`]): what the server holds resident
    /// is then its live data, not whichever holes its loading history left
    /// and a later allocation did or did not happen to fit.
    pub fn build(self) -> Arc<Router> {
        assert!(!self.tables.is_empty(), "router needs at least one table");
        let mut by_name = HashMap::with_capacity(self.tables.len());
        for (i, entry) in self.tables.iter().enumerate() {
            let prev = by_name.insert(entry.name.clone(), TableId(i as u32));
            assert!(prev.is_none(), "duplicate table name {:?}", entry.name);
        }
        ps3_runtime::release_free_heap();
        let exec_pool = self.exec_pool.unwrap_or_else(ThreadPool::global);
        let pump_workers = self
            .pump_workers
            .unwrap_or_else(|| exec_pool.workers().max(1));
        Arc::new(Router {
            core: Arc::new(RouterCore {
                tables: self.tables,
                by_name,
                exec_pool,
                queue: RequestQueue::new(self.queue_cap),
                answers: SharedLru::new(self.answer_cache_cap),
                inflight: SingleFlight::new(),
                executions: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                planner_plans: AtomicU64::new(0),
                planner_probes: AtomicU64::new(0),
                planner_probe_hits: AtomicU64::new(0),
                planner_fallbacks: AtomicU64::new(0),
                pending: Mutex::new(0),
                all_done: Condvar::new(),
            }),
            pumps: OnceLock::new(),
            pump_workers,
        })
    }
}

/// The cross-table serving front end. Always used behind an `Arc` (tenants
/// hold clones); dropping the last handle closes the queue, lets the pumps
/// drain accepted work, and joins them.
pub struct Router {
    core: Arc<RouterCore>,
    /// Pump pool, spawned lazily by the first [`Router::tenant`] call so
    /// single-table synchronous use never starts extra threads.
    pumps: OnceLock<Arc<ThreadPool>>,
    pump_workers: usize,
}

impl Router {
    /// Start configuring a router.
    pub fn builder() -> RouterBuilder {
        RouterBuilder {
            tables: Vec::new(),
            queue_cap: 256,
            pump_workers: None,
            answer_cache_cap: 1024,
            exec_pool: None,
        }
    }

    /// The single-table special case: one table named `"default"` on the
    /// global pool.
    pub fn single(system: Arc<Ps3System>) -> Arc<Router> {
        Router::builder().table("default", system).build()
    }

    /// Resolve a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.core.by_name.get(name).copied()
    }

    /// Registered `(name, id)` pairs, in registration order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, TableId)> {
        self.core
            .tables
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.as_str(), TableId(i as u32)))
    }

    /// The system currently behind a registered table (an `Arc` snapshot —
    /// [`Router::replace_table`] may swap the table's system at any time).
    /// Panics on a foreign id.
    pub fn system(&self, table: TableId) -> Arc<Ps3System> {
        Arc::clone(&self.core.tables[table.index()].system.read().unwrap())
    }

    /// Swap the system behind `table` for `system` and invalidate every
    /// cached answer of that table — and *only* that table; other tables'
    /// entries survive untouched. Returns the replaced system.
    ///
    /// Requests already executing finish on the system they resolved, and
    /// their answers land under the old cache generation, where no
    /// post-replacement lookup can reach them (stale entries age out of
    /// the bounded LRU). Requests arriving after the swap execute on the
    /// new system.
    ///
    /// Every swap goes through here, [`Router::load_table`]'s included. A
    /// warm retrain onto a (possibly grown) table is
    /// `router.replace_table(t, Arc::new(Ps3System::retrain_from(&router.system(t), pt, stats)))`,
    /// and `router.system(t).freeze(path)` persists the generation now serving.
    pub fn replace_table(&self, table: TableId, system: Arc<Ps3System>) -> Arc<Ps3System> {
        let entry = &self.core.tables[table.index()];
        let old = {
            let mut slot = entry.system.write().unwrap();
            std::mem::replace(&mut *slot, system)
        };
        // Order matters: swap first, then bump. An executor that observed
        // the *new* generation necessarily read the table entry after the
        // bump, hence after the swap — so no old-system answer can ever be
        // cached under a current-generation key.
        let current = entry.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.core
            .answers
            .retain(|k| k.table != table.0 || k.generation >= current);
        old
    }

    /// Replace the system behind `table` with one thawed from the artifact
    /// at `path`, invalidating the table's cached answers exactly like any
    /// other [`Router::replace_table`]. Returns the replaced system. A
    /// malformed artifact leaves the table serving its current system.
    pub fn load_table(
        &self,
        table: TableId,
        path: &std::path::Path,
    ) -> Result<Arc<Ps3System>, ps3_storage::format::FormatError> {
        let system = crate::persist::thaw(path)?;
        Ok(self.replace_table(table, Arc::new(system)))
    }

    /// The execution pool partition fan-out runs on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.core.exec_pool
    }

    /// Resolve a route against the registry. `Default` is only valid on a
    /// single-table router.
    pub fn resolve(&self, route: &TableRoute) -> Option<TableId> {
        match route {
            TableRoute::Default => (self.core.tables.len() == 1).then_some(TableId(0)),
            TableRoute::Named(name) => self.table_id(name),
        }
    }

    /// Answer synchronously on the caller, through the answer cache but
    /// bypassing the queue. Bit-identical to the queued path and to a direct
    /// `Ps3System::answer_spec_on` with a [`spec_rng`]-derived RNG. Declarative
    /// budgets are planned first; [`Self::answer_planned`] additionally
    /// returns the plan.
    pub fn answer_now(&self, table: TableId, req: &QueryRequest) -> Arc<AnswerOutcome> {
        self.core.execute(table, req, None).0
    }

    /// [`Self::answer_now`] plus the [`BudgetPlan`] that resolved the
    /// request's budget: the fraction executed at, whether the planner had
    /// signal, and how many probes it spent.
    pub fn answer_planned(
        &self,
        table: TableId,
        req: &QueryRequest,
    ) -> (Arc<AnswerOutcome>, BudgetPlan) {
        self.core.execute(table, req, None)
    }

    /// A named submission handle. `max_in_flight` caps this tenant's
    /// queued-plus-executing requests (`None` = unlimited). Creating the
    /// first tenant starts the queue pumps.
    pub fn tenant(
        self: &Arc<Self>,
        name: impl Into<String>,
        max_in_flight: Option<usize>,
    ) -> Tenant {
        self.ensure_pumps();
        Tenant {
            router: Arc::clone(self),
            name: name.into(),
            quota: max_in_flight.map(|n| Arc::new(Semaphore::new(n))),
        }
    }

    /// Spawn the pump tasks once. With `pump_workers == 0` this is a no-op
    /// and queued work waits for [`Self::drain_queued`] / [`Self::shutdown`].
    fn ensure_pumps(&self) {
        if self.pump_workers == 0 {
            return;
        }
        self.pumps.get_or_init(|| {
            let pool = Arc::new(ThreadPool::new(self.pump_workers));
            for _ in 0..self.pump_workers {
                let core = Arc::clone(&self.core);
                pool.spawn(move || {
                    while let Some(job) = core.queue.recv() {
                        core.run_job(job);
                    }
                });
            }
            pool
        });
    }

    /// Run up to `max_jobs` queued requests on the *calling* thread
    /// (caller-helping, like the pool's scope waits). Returns how many ran.
    pub fn drain_queued(&self, max_jobs: usize) -> usize {
        let mut ran = 0;
        while ran < max_jobs {
            match self.core.queue.try_recv() {
                Some(job) => {
                    self.core.run_job(job);
                    ran += 1;
                }
                None => break,
            }
        }
        ran
    }

    /// Graceful shutdown: stop admitting requests, execute everything
    /// already accepted (helping on the caller), and return once no request
    /// is queued or executing. Idempotent; later submissions get
    /// [`RouteError::Closed`].
    pub fn shutdown(&self) {
        self.core.queue.close();
        self.drain_queued(usize::MAX);
        let mut pending = self.core.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.core.all_done.wait(pending).unwrap();
        }
    }

    /// Queued (accepted, not yet executing) request count.
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// The queue's capacity bound.
    pub fn queue_capacity(&self) -> usize {
        self.core.queue.capacity()
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            answers: self.core.answers.stats(),
            executions: self.core.executions.load(Ordering::Relaxed),
            coalesced: self.core.coalesced.load(Ordering::Relaxed),
            in_flight: *self.core.pending.lock().unwrap(),
            planner: PlannerStats {
                plans: self.core.planner_plans.load(Ordering::Relaxed),
                probes: self.core.planner_probes.load(Ordering::Relaxed),
                probe_hits: self.core.planner_probe_hits.load(Ordering::Relaxed),
                fallbacks: self.core.planner_fallbacks.load(Ordering::Relaxed),
            },
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Close before the pump pool drops: pumps wake, drain accepted
        // work, exit their loops, and the pool's own Drop joins its
        // workers. The inline drain covers routers with no pumps
        // (`pump_workers(0)`), whose queued jobs nobody else would run —
        // either way, every accepted ticket is fulfilled and no
        // `Ticket::wait` hangs.
        self.core.queue.close();
        self.drain_queued(usize::MAX);
    }
}

/// A per-tenant submission handle: the front door multi-tenant callers
/// share a router through. Cloneable; clones share the quota.
#[derive(Clone)]
pub struct Tenant {
    router: Arc<Router>,
    name: String,
    quota: Option<Arc<Semaphore>>,
}

impl Tenant {
    /// The tenant's name (for logs and quotas dashboards).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The router this tenant submits to.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Submit a request, blocking on the tenant quota and on queue
    /// capacity (backpressure). Fails only on an unknown route, a closed
    /// router, or a query that does not fit the table's schema. A request
    /// the answer cache already holds waits for neither:
    /// see [`Tenant::try_submit`].
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, RouteError> {
        self.submit_inner(req, true)
    }

    /// Submit without blocking: rejects with [`RouteError::QuotaExhausted`]
    /// or [`RouteError::QueueFull`] instead of waiting.
    ///
    /// Admission starts at the answer cache. A request at an explicit
    /// fraction whose answer is cached comes back as a ticket that is
    /// already ready, resolved here on the caller: it takes no quota
    /// permit and no queue slot, so it is never refused for quota or
    /// capacity, never counts in [`RouterStats::in_flight`], and streams no
    /// partial answers. Only misses (and declarative budgets, which a pump
    /// must plan first) are admitted to the queue and held to both limits.
    /// An unknown route or a closed router refuses hits and misses alike, as
    /// does a budget that is not finite, a fraction at or below zero or a
    /// negative target ([`RouteError::InvalidQuery`], before the cache is
    /// consulted); a miss whose query names a column the routed table does
    /// not have is refused the same way before it is queued.
    pub fn try_submit(&self, req: QueryRequest) -> Result<Ticket, RouteError> {
        self.submit_inner(req, false)
    }

    /// Submit and wait: the synchronous convenience path.
    pub fn answer(&self, req: QueryRequest) -> Result<Arc<AnswerOutcome>, RouteError> {
        self.submit(req).map(Ticket::wait)
    }

    fn submit_inner(&self, req: QueryRequest, blocking: bool) -> Result<Ticket, RouteError> {
        let Some(table) = self.router.resolve(&req.table) else {
            return Err(RouteError::UnknownTable(Box::new(req)));
        };
        let core = &self.router.core;
        // Closed before cached: a shut-down router refuses everything,
        // including what it could still answer.
        if core.queue.is_closed() {
            return Err(RouteError::Closed(Box::new(req)));
        }
        // Before the cache: a NaN budget must neither execute nor key an
        // entry of its own.
        if let Err(why) = check_budget(req.budget) {
            return Err(RouteError::InvalidQuery(Box::new(req), why));
        }
        let missed = match req.budget {
            Budget::Fraction(_) => {
                let key = core.key_for(table, &req);
                if let Some(hit) = core.lookup(&key) {
                    return Ok(Ticket::ready(hit));
                }
                Some(key)
            }
            Budget::ErrorTarget { .. } | Budget::LatencyTarget { .. } => None,
        };
        // Only what will execute is checked: a hit was checked when it
        // first missed. The kernels index columns unchecked, so this is
        // what keeps a hostile column id a typed refusal, not a panic.
        let entry = &core.tables[table.index()];
        let checked = check_schema(&req.query, entry.system.read().unwrap().pt.table().schema());
        if let Err(why) = checked {
            return Err(RouteError::InvalidQuery(Box::new(req), why));
        }
        let permit = match &self.quota {
            None => None,
            Some(quota) if blocking => Some(quota.acquire()),
            Some(quota) => match quota.try_acquire() {
                Some(p) => Some(p),
                None => return Err(RouteError::QuotaExhausted(Box::new(req))),
            },
        };
        let state = Arc::new(TicketState::default());
        let job = Job {
            table,
            req,
            missed,
            ticket: Arc::clone(&state),
            _permit: permit,
        };
        // Count the job as pending *before* it is visible to pumps, so a
        // shutdown racing with this submit cannot observe zero early.
        *core.pending.lock().unwrap() += 1;
        let enqueued = if blocking {
            core.queue.submit(job)
        } else {
            core.queue.try_submit(job)
        };
        match enqueued {
            Ok(()) => Ok(Ticket {
                inner: TicketInner::Queued(state),
            }),
            Err(err) => {
                let mut pending = core.pending.lock().unwrap();
                *pending -= 1;
                if *pending == 0 {
                    core.all_done.notify_all();
                }
                drop(pending);
                Err(match err {
                    QueueError::Full(job) => RouteError::QueueFull(Box::new(job.req)),
                    QueueError::Closed(job) => RouteError::Closed(Box::new(job.req)),
                })
            }
        }
    }
}

/// Refuse a budget no plan can honour: a value that is not finite, a
/// fraction at or below zero, a negative error or latency target.
fn check_budget(budget: Budget) -> Result<(), CodecError> {
    let ok = match budget {
        Budget::Fraction(frac) => frac.is_finite() && frac > 0.0,
        Budget::ErrorTarget { rel_err: target } | Budget::LatencyTarget { ms: target } => {
            target.is_finite() && target >= 0.0
        }
    };
    if ok {
        Ok(())
    } else {
        Err(CodecError::Invalid(
            "budget must be finite: a fraction above 0 or a target at or above 0",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ps3Config;
    use crate::system::Method;
    use ps3_query::{AggExpr, Query};
    use ps3_stats::{StatsConfig, TableStats};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    fn tiny_system(seed: u64, rows: u32) -> Arc<Ps3System> {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(
                &[f64::from(i)],
                &[["a", "b", "c", "d"][(i as usize / 40) % 4]],
            );
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
        let mut cfg = Ps3Config::default().with_seed(seed);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        Arc::new(Ps3System::train(pt, stats, &queries, cfg))
    }

    fn count_query() -> Query {
        Query::new(vec![AggExpr::count()], None, vec![])
    }

    /// SUM(x) with x = row index: partition totals differ, so sampling
    /// error estimates are real (COUNT on equal partitions is degenerate —
    /// zero cross-partition variance, zero-width CIs).
    fn sum_query() -> Query {
        Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![],
        )
    }

    #[test]
    fn routes_resolve_by_name_and_default() {
        let single = Router::single(tiny_system(1, 160));
        assert_eq!(single.resolve(&TableRoute::Default), Some(TableId(0)));
        assert_eq!(single.table_id("default"), Some(TableId(0)));
        assert_eq!(single.table_id("nope"), None);

        let multi = Router::builder()
            .table("a", tiny_system(2, 160))
            .table("b", tiny_system(3, 160))
            .build();
        assert_eq!(
            multi.resolve(&TableRoute::Default),
            None,
            "multi-table routers have no implicit table"
        );
        assert_eq!(multi.resolve(&TableRoute::from("b")), multi.table_id("b"));
        assert_eq!(multi.resolve(&TableRoute::from("a")), Some(TableId(0)));
        assert_eq!(multi.resolve(&TableRoute::from("nope")), None);
        assert_eq!(multi.tables().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_table_names_are_rejected() {
        let sys = tiny_system(4, 160);
        let _ = Router::builder()
            .table("t", Arc::clone(&sys))
            .table("t", sys)
            .build();
    }

    #[test]
    fn answer_now_is_cached_and_bit_identical_to_direct_execution() {
        let sys = tiny_system(5, 160);
        let router = Router::single(Arc::clone(&sys));
        let req = QueryRequest::ps3(count_query(), 0.25, 9);
        let table = router.table_id("default").unwrap();

        let direct = {
            let mut rng = spec_rng(&req.query, req.seed);
            let frac = req.budget.as_fraction().unwrap();
            sys.answer_spec_on(&req.query, req.method, frac, &mut rng, router.pool())
        };
        let first = router.answer_now(table, &req);
        assert_eq!(first.answer, direct.answer);
        assert_eq!(router.stats().executions, 1);

        let second = router.answer_now(table, &req);
        assert!(Arc::ptr_eq(&first, &second), "second hit shares the entry");
        let stats = router.stats();
        assert_eq!(stats.executions, 1, "warm replay must not re-execute");
        assert_eq!(stats.answers.hits, 1);
    }

    #[test]
    fn distinct_seeds_budgets_and_tables_get_distinct_cache_entries() {
        let router = Router::builder()
            .table("a", tiny_system(6, 160))
            .table("b", tiny_system(6, 160))
            .build();
        let (a, b) = (router.table_id("a").unwrap(), router.table_id("b").unwrap());
        let q = count_query();
        let _ = router.answer_now(a, &QueryRequest::ps3(q.clone(), 0.25, 1));
        let _ = router.answer_now(a, &QueryRequest::ps3(q.clone(), 0.25, 2));
        let _ = router.answer_now(a, &QueryRequest::ps3(q.clone(), 0.5, 1));
        let _ = router.answer_now(b, &QueryRequest::ps3(q.clone(), 0.25, 1));
        let stats = router.stats();
        assert_eq!(stats.executions, 4, "four distinct keys, four executions");
        assert_eq!(stats.answers.misses, 4);
    }

    #[test]
    fn tenant_submission_through_the_queue_matches_answer_now() {
        let router = Router::single(tiny_system(7, 160));
        let tenant = router.tenant("acme", Some(4));
        let table = router.table_id("default").unwrap();
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| QueryRequest::ps3(count_query(), 0.25, 100 + i))
            .collect();
        let tickets: Vec<Ticket> = reqs
            .iter()
            .map(|r| tenant.submit(r.clone()).expect("submit"))
            .collect();
        for (req, ticket) in reqs.iter().zip(tickets) {
            let queued = ticket.wait();
            let direct = router.answer_now(table, req);
            assert_eq!(queued.answer, direct.answer, "seed {}", req.seed);
        }
        router.shutdown();
        assert!(matches!(
            tenant.submit(reqs[0].clone()),
            Err(RouteError::Closed(_))
        ));
    }

    #[test]
    fn quota_try_submit_rejects_when_exhausted() {
        // No pumps: submitted jobs stay queued, pinning their permits.
        let router = Router::builder()
            .table("t", tiny_system(8, 160))
            .pump_workers(0)
            .queue_capacity(16)
            .build();
        let tenant = router.tenant("small", Some(2));
        let t1 = tenant
            .try_submit(QueryRequest::ps3(count_query(), 0.25, 1))
            .unwrap();
        let _t2 = tenant
            .try_submit(QueryRequest::ps3(count_query(), 0.25, 2))
            .unwrap();
        let rejected = tenant.try_submit(QueryRequest::ps3(count_query(), 0.25, 3));
        assert!(matches!(rejected, Err(RouteError::QuotaExhausted(_))));
        // Draining one job frees its permit.
        assert_eq!(router.drain_queued(1), 1);
        assert!(t1.is_ready());
        tenant
            .try_submit(QueryRequest::ps3(count_query(), 0.25, 3))
            .unwrap();
        router.shutdown();
    }

    #[test]
    fn budgets_no_plan_can_honour_are_refused_before_the_cache() {
        let router = Router::builder()
            .table("t", tiny_system(10, 160))
            .pump_workers(0)
            .build();
        let tenant = router.tenant("hostile", None);
        let req = |seed| QueryRequest::ps3(count_query(), 0.25, seed);
        let frac = |frac: f64, seed| QueryRequest::ps3(count_query(), frac, seed);
        let refused = [
            frac(f64::NAN, 1),
            frac(f64::NAN, 2),
            frac(-3.0, 3),
            frac(0.0, 4),
            frac(f64::INFINITY, 5),
            req(6).with_error_target(-0.05),
            req(7).with_error_target(f64::NAN),
            req(8).with_latency_target(-1.0),
            req(9).with_latency_target(f64::INFINITY),
        ];
        for bad in refused {
            let budget = bad.budget;
            match tenant.try_submit(bad) {
                Err(RouteError::InvalidQuery(_, CodecError::Invalid(_))) => {}
                other => panic!(
                    "{budget:?}: expected InvalidQuery, got {:?}",
                    other.map(|_| "ticket")
                ),
            }
        }
        let stats = router.stats();
        assert_eq!((router.queue_len(), stats.in_flight), (0, 0));
        assert_eq!(
            (stats.answers.hits, stats.answers.misses, stats.answers.len),
            (0, 0, 0),
            "a refused budget never reaches the answer cache"
        );
        // The edges stay servable: a full read and zero-valued targets.
        for ok in [
            frac(1.0, 10),
            req(11).with_error_target(0.0),
            req(12).with_latency_target(0.0),
        ] {
            tenant
                .try_submit(ok)
                .expect("a servable budget is admitted");
        }
        assert_eq!(router.queue_len(), 3);
        router.shutdown();
    }

    #[test]
    fn panicking_request_propagates_to_the_ticket_not_the_pump() {
        let router = Router::builder()
            .table("t", tiny_system(9, 160))
            .pump_workers(0)
            .build();
        let tenant = router.tenant("risky", None);
        let sum_of = |col| {
            let expr = ps3_query::ScalarExpr::col(ps3_storage::ColId(col));
            Query::new(vec![AggExpr::sum(expr)], None, vec![])
        };
        // ColId(7) does not exist in the 2-column schema, and ColId(1) is
        // the categorical one, which SUM cannot add: both are refused at
        // admission, the request riding back, nothing queued.
        for (col, refusal) in [
            (7, "column 7 is not in the table's schema"),
            (
                1,
                "column 1 is not numeric, which an aggregate's expression needs",
            ),
        ] {
            match tenant.submit(QueryRequest::ps3(sum_of(col), 0.25, 1)) {
                Err(RouteError::InvalidQuery(req, why)) => {
                    assert_eq!(req.seed, 1);
                    assert_eq!(why.to_string(), refusal);
                }
                other => panic!("expected InvalidQuery, got {:?}", other.map(|_| "ticket")),
            }
            assert_eq!((router.queue_len(), router.stats().in_flight), (0, 0));
        }
        // No admissible query panics a kernel, so the panic is this test's
        // own: a progress hook, which the executing thread calls from
        // inside the request, blows up on the first refinement.
        let ticket = tenant
            .submit(QueryRequest::new(sum_query(), Method::Random, 0.5, 21).progressive())
            .unwrap();
        ticket.on_event(|| panic!("progress hook blew up"));
        let pump = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || router.drain_queued(1))
        };
        let blew_up = catch_unwind(AssertUnwindSafe(|| ticket.wait()));
        assert!(blew_up.is_err(), "panic must resume in the submitter");
        // The pump survived: it returns from the job that panicked, and a
        // well-formed request still completes.
        assert_eq!(pump.join().expect("the pump thread must not unwind"), 1);
        let ok = tenant
            .submit(QueryRequest::ps3(count_query(), 0.25, 2))
            .unwrap();
        assert_eq!(router.drain_queued(1), 1);
        assert!(ok.wait().answer.num_groups() > 0);
        router.shutdown();
    }

    #[test]
    fn a_panicking_completion_hook_neither_ends_the_pump_nor_hangs_shutdown() {
        use std::time::Duration;
        let router = Router::builder()
            .table("t", tiny_system(12, 160))
            .pump_workers(1)
            .build();
        let tenant = router.tenant("careless", None);
        // Holding the table's cost EWMA parks the pump after it has
        // executed the first request and before it fulfills the ticket,
        // so the hook is registered before the result can arrive.
        let parked = router.core.tables[0].cost_ms_per_part.lock().unwrap();
        let first = tenant
            .submit(QueryRequest::ps3(count_query(), 0.25, 1))
            .unwrap();
        first.on_event(|| panic!("completion hook blew up"));
        let second = tenant
            .submit(QueryRequest::ps3(count_query(), 0.25, 2))
            .unwrap();
        drop(parked);

        let deadline = Instant::now() + Duration::from_secs(5);
        while !second.is_ready() {
            assert!(
                Instant::now() < deadline,
                "the only pump must survive the hook and run the second request"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = first.poll_take().expect("stored before the hook ran");
        assert!(
            out.expect("the request itself succeeded")
                .answer
                .num_groups()
                > 0
        );
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let closer = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                router.shutdown();
                done_tx.send(router.stats().in_flight).unwrap();
            })
        };
        let in_flight = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown must return");
        assert_eq!(in_flight, 0);
        closer.join().unwrap();
    }

    #[test]
    fn cold_key_stampede_executes_exactly_once() {
        // 8 tenants race the same never-seen key through 4 pumps. Whatever
        // the interleaving — leader, single-flight joiner, or late cache
        // hit — the execution count must be exactly 1 and every outcome
        // must be the same shared Arc.
        let router = Router::builder()
            .table("t", tiny_system(20, 160))
            .pump_workers(4)
            .queue_capacity(32)
            .build();
        let req = QueryRequest::ps3(count_query(), 0.25, 77);
        let tickets: Vec<Ticket> = (0..8)
            .map(|t| {
                router
                    .tenant(format!("racer-{t}"), None)
                    .submit(req.clone())
                    .expect("open")
            })
            .collect();
        let outcomes: Vec<Arc<AnswerOutcome>> = tickets.into_iter().map(Ticket::wait).collect();
        let stats = router.stats();
        assert_eq!(
            stats.executions, 1,
            "a cold-key stampede must execute exactly once \
             (coalesced {} / cache hits {})",
            stats.coalesced, stats.answers.hits
        );
        for out in &outcomes[1..] {
            assert!(
                Arc::ptr_eq(&outcomes[0], out),
                "every racer shares the one computed outcome"
            );
        }
        assert_eq!(
            stats.coalesced + stats.answers.hits,
            7,
            "the other 7 racers either joined the flight or hit the cache"
        );
        assert_eq!(
            stats.answers.misses,
            stats.executions + stats.coalesced,
            "every miss either executes or is served by one that did"
        );
        router.shutdown();
    }

    #[test]
    fn replace_table_invalidates_only_that_table() {
        let router = Router::builder()
            .table("a", tiny_system(21, 160))
            .table("b", tiny_system(22, 160))
            .build();
        let (a, b) = (router.table_id("a").unwrap(), router.table_id("b").unwrap());
        let q = count_query();
        // Warm two entries per table.
        for seed in [1, 2] {
            let _ = router.answer_now(a, &QueryRequest::ps3(q.clone(), 0.25, seed));
            let _ = router.answer_now(b, &QueryRequest::ps3(q.clone(), 0.25, seed));
        }
        let warm = router.stats();
        assert_eq!(warm.executions, 4);
        assert_eq!(warm.answers.len, 4);

        // Swap table `a` (a differently-seeded system stands in for a
        // real retrain on fresh data).
        let replacement = tiny_system(23, 160);
        let old = router.replace_table(a, Arc::clone(&replacement));
        assert!(
            !Arc::ptr_eq(&old, &replacement),
            "the swap hands back the replaced system"
        );
        assert_eq!(
            router.stats().answers.len,
            2,
            "only table a's two entries were invalidated"
        );

        // Table b replays from cache: zero new executions.
        let before = router.stats().executions;
        let _ = router.answer_now(b, &QueryRequest::ps3(q.clone(), 0.25, 1));
        assert_eq!(
            router.stats().executions,
            before,
            "table b's cache survived table a's swap"
        );

        // Table a re-executes — on the *new* system, bit-identical to
        // direct execution against it.
        let req = QueryRequest::ps3(q.clone(), 0.25, 1);
        let served = router.answer_now(a, &req);
        assert_eq!(router.stats().executions, before + 1);
        let direct = {
            let mut rng = spec_rng(&req.query, req.seed);
            let frac = req.budget.as_fraction().unwrap();
            replacement.answer_spec_on(&req.query, req.method, frac, &mut rng, router.pool())
        };
        assert_eq!(
            served.answer, direct.answer,
            "post-swap answers come from the replacement system"
        );
        assert!(
            Arc::ptr_eq(&router.system(a), &replacement),
            "the registry now serves the replacement"
        );
    }

    #[test]
    fn a_warm_retrain_swapped_in_answers_as_before_and_freezes_to_the_same_answers() {
        let router = Router::single(tiny_system(40, 160));
        let table = router.table_id("default").unwrap();
        let req = QueryRequest::ps3(sum_query(), 0.25, 3);
        let before = router.answer_now(table, &req);

        // Retrain in place on the unchanged table (the append-only
        // degenerate case): zero model refits.
        let sys = router.system(table);
        let (pt, stats) = (Arc::clone(&sys.pt), Arc::clone(&sys.stats));
        let old = router.replace_table(table, Arc::new(Ps3System::retrain_from(&sys, pt, stats)));
        assert!(Arc::ptr_eq(&old, &sys), "the replaced system comes back");
        assert_eq!(
            router.stats().answers.len,
            0,
            "the table's cache was invalidated"
        );

        // Post-swap answers re-execute on the new generation and are
        // bit-identical to the previous one's.
        let execs = router.stats().executions;
        let after = router.answer_now(table, &req);
        assert_eq!(router.stats().executions, execs + 1, "cold after the swap");
        assert_eq!(after.answer, before.answer);
        assert_eq!(after.meta.error_estimate, before.meta.error_estimate);

        // The generation now serving freezes through the system itself and
        // thaws to the same answers; a write that fails is the caller's
        // error and leaves serving alone.
        let dir = std::env::temp_dir().join(format!("ps3_router_warm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ps3");
        router.system(table).freeze(&path).unwrap();
        let thawed = Ps3System::thaw(&path).unwrap();
        let q = sum_query();
        let a = router.system(table).answer_seeded(&q, Method::Ps3, 0.25, 1);
        let b = thawed.answer_seeded(&q, Method::Ps3, 0.25, 1);
        assert_eq!(a.answer, b.answer);
        assert!(router
            .system(table)
            .freeze(&dir.join("missing/nested/t.ps3"))
            .is_err());
        assert!(Arc::ptr_eq(&router.answer_now(table, &req), &after));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ticket_poll_take_and_on_event_drive_nonblocking_consumers() {
        use std::sync::atomic::AtomicBool;
        let router = Router::builder()
            .table("t", tiny_system(24, 160))
            .pump_workers(0)
            .build();
        let tenant = router.tenant("poller", None);
        let ticket = tenant
            .submit(QueryRequest::ps3(count_query(), 0.25, 1))
            .unwrap();
        assert!(ticket.poll_take().is_none(), "nothing ready yet");

        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            ticket.on_event(move || fired.store(true, Ordering::SeqCst));
        }
        assert!(!fired.load(Ordering::SeqCst), "hook waits for delivery");
        router.drain_queued(1);
        assert!(fired.load(Ordering::SeqCst), "delivery fires the hook");
        let out = ticket
            .poll_take()
            .expect("result delivered")
            .expect("request succeeded");
        assert!(out.answer.num_groups() > 0);
        assert!(ticket.poll_take().is_none(), "results deliver exactly once");

        // A hook registered after delivery fires immediately.
        let t2 = tenant
            .submit(QueryRequest::ps3(count_query(), 0.25, 2))
            .unwrap();
        router.drain_queued(1);
        let fired2 = Arc::new(AtomicBool::new(false));
        {
            let fired2 = Arc::clone(&fired2);
            t2.on_event(move || fired2.store(true, Ordering::SeqCst));
        }
        assert!(fired2.load(Ordering::SeqCst), "late hooks fire on the spot");
        router.shutdown();
    }

    #[test]
    fn ticket_events_fire_outside_the_slot_lock_and_catch_up_when_registered_late() {
        let update = |seq| ProgressUpdate {
            seq,
            partitions_done: seq + 1,
            partitions_total: 4,
            answer: ps3_query::QueryAnswer::default(),
            rel_err: f64::NAN,
        };
        let state = Arc::new(TicketState::default());
        let ticket = Ticket {
            inner: TicketInner::Queued(Arc::clone(&state)),
        };
        state.push_progress(update(0));
        let fired = Arc::new(AtomicU64::new(0));
        {
            let (fired, state) = (Arc::clone(&fired), Arc::clone(&state));
            // Re-entering the slot would deadlock a hook run under its lock.
            ticket.on_event(move || {
                fired.fetch_add(1, Ordering::SeqCst);
                drop(state.slot.lock().unwrap());
            });
        }
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "a late hook fires at once for the refinement already waiting"
        );
        state.push_progress(update(1));
        state.fulfill(Err(Box::new("boom")));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            3,
            "one event per refinement, one for the outcome"
        );
        let seqs: Vec<u32> = ticket.take_progress().iter().map(|u| u.seq).collect();
        assert_eq!(
            seqs,
            vec![0, 1],
            "refinements wait in the slot, oldest first"
        );
        assert!(ticket.poll_take().expect("delivered").is_err());
    }

    #[test]
    fn cached_request_is_answered_at_submission_past_quota_and_queue() {
        // Deterministic mode: nothing runs unless the test drains it.
        let router = Router::builder()
            .table("t", tiny_system(25, 160))
            .pump_workers(0)
            .queue_capacity(1)
            .build();
        let table = router.table_id("t").unwrap();
        let tenant = router.tenant("dash", Some(1));
        let warm_req = QueryRequest::ps3(count_query(), 0.25, 1);
        let cached = router.answer_now(table, &warm_req);

        // One miss takes the tenant's only permit and the only queue slot.
        let parked = tenant
            .try_submit(QueryRequest::ps3(count_query(), 0.25, 2))
            .unwrap();
        assert!(!parked.is_ready());
        let before = router.stats();
        assert_eq!((router.queue_len(), before.in_flight), (1, 1));

        // The cached request needs neither, and honours the whole ticket
        // contract without anything draining the queue.
        let hit = tenant.try_submit(warm_req.clone().progressive()).unwrap();
        assert!(hit.is_ready());
        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            hit.on_event(move || fired.store(true, Ordering::SeqCst));
        }
        assert!(
            fired.load(Ordering::SeqCst),
            "a ready ticket's hook runs now"
        );
        assert!(hit.take_progress().is_empty(), "a hit streams no partials");
        let out = hit.poll_take().expect("ready").expect("not a panic");
        assert!(Arc::ptr_eq(&out, &cached), "the cached outcome itself");
        assert!(hit.poll_take().is_none(), "results deliver exactly once");
        assert!(hit.is_ready(), "taken still reads as delivered");
        let again = tenant.submit(warm_req).unwrap().wait();
        assert!(Arc::ptr_eq(&again, &cached), "wait returns at once");
        let after = router.stats();
        assert_eq!(router.queue_len(), 1);
        assert_eq!(after.in_flight, before.in_flight);
        assert_eq!(after.executions, before.executions);
        assert_eq!(after.answers.hits, before.answers.hits + 2);

        // Misses are still held to both limits.
        assert!(matches!(
            tenant.try_submit(QueryRequest::ps3(count_query(), 0.25, 3)),
            Err(RouteError::QuotaExhausted(_))
        ));
        assert!(matches!(
            router
                .tenant("other", None)
                .try_submit(QueryRequest::ps3(count_query(), 0.25, 3)),
            Err(RouteError::QueueFull(_))
        ));
        router.shutdown();
        assert!(parked.is_ready());
    }

    #[test]
    fn every_request_is_one_counted_lookup_hit_or_miss() {
        let router = Router::builder()
            .table("t", tiny_system(26, 160))
            .pump_workers(0)
            .queue_capacity(16)
            .build();
        let tenant = router.tenant("counter", None);
        let req = |seed| QueryRequest::ps3(count_query(), 0.25, seed);
        // 5 cold requests: one lookup each, at submission, none on the pump.
        let cold: Vec<Ticket> = (0..5).map(|s| tenant.submit(req(s)).unwrap()).collect();
        assert_eq!(router.stats().answers.misses, 5);
        assert_eq!(router.drain_queued(usize::MAX), 5);
        for t in cold {
            t.wait();
        }
        // 12 warm requests over those keys.
        for i in 0..12 {
            assert!(tenant.submit(req(i % 5)).unwrap().is_ready());
        }
        let stats = router.stats();
        assert_eq!((stats.answers.hits, stats.answers.misses), (12, 5));
        assert_eq!(stats.executions, 5);
        assert_eq!(router.queue_len(), 0);
    }

    #[test]
    fn a_job_keyed_before_a_swap_runs_on_the_generation_current_when_it_runs() {
        let router = Router::builder()
            .table("t", tiny_system(27, 160))
            .pump_workers(0)
            .build();
        let table = router.table_id("t").unwrap();
        let tenant = router.tenant("swapper", None);
        let req = QueryRequest::ps3(sum_query(), 0.25, 4);
        let old_answer = router.answer_now(table, &req);

        // A generation bump between warm-up and submit: the key is built
        // from the generation read at submit, so the warm entry is out of
        // reach and the request queues like any miss.
        let replacement = tiny_system(28, 160);
        router.replace_table(table, Arc::clone(&replacement));
        let queued = tenant.submit(req.clone()).unwrap();
        assert!(!queued.is_ready(), "a pre-swap answer must not be served");
        assert_eq!(router.queue_len(), 1);

        // A second swap while the job waits: it was keyed under generation
        // 1, runs under generation 2, on the system installed last — and
        // its answer is cached where generation-2 requests look.
        let last = tiny_system(29, 160);
        router.replace_table(table, Arc::clone(&last));
        assert_eq!(router.drain_queued(1), 1);
        let served = queued.wait();
        let direct = {
            let mut rng = spec_rng(&req.query, req.seed);
            last.answer_spec_on(&req.query, req.method, 0.25, &mut rng, router.pool())
        };
        assert_eq!(served.answer, direct.answer);
        assert!(!Arc::ptr_eq(&served, &old_answer));
        let executions = router.stats().executions;
        let repeat = tenant.submit(req).unwrap();
        assert!(repeat.is_ready(), "cached under the current generation");
        assert!(Arc::ptr_eq(&repeat.wait(), &served));
        assert_eq!(router.stats().executions, executions);
        router.shutdown();
    }

    #[test]
    fn error_target_plans_the_cheapest_satisfying_fraction_and_shares_cache() {
        let router = Router::single(tiny_system(30, 160));
        let table = router.table_id("default").unwrap();
        // A generous target: the cheapest rung with a finite estimate wins.
        let req = QueryRequest::new(sum_query(), Method::Random, 0.5, 5).with_error_target(10.0);
        let (out, plan) = router.answer_planned(table, &req);
        assert!(plan.planned, "random-weighted estimates give real signal");
        assert!(plan.probes >= 1);
        assert!(
            out.meta.error_estimate.rel_err <= 10.0,
            "chosen plan must meet the target: {}",
            out.meta.error_estimate.rel_err
        );
        assert_eq!(out.meta.planned_frac, plan.frac);
        let stats = router.stats();
        assert_eq!(stats.planner.plans, 1);
        assert_eq!(stats.planner.probes, u64::from(plan.probes));

        // An explicit request at the planned fraction shares the entry:
        // zero additional executions, same Arc.
        let executions = router.stats().executions;
        let explicit = QueryRequest::new(sum_query(), Method::Random, plan.frac, 5);
        let again = router.answer_now(table, &explicit);
        assert_eq!(router.stats().executions, executions);
        assert!(
            Arc::ptr_eq(&out, &again),
            "planned and explicit requests at one frac share a cache entry"
        );

        // Replanning the same target is all cache hits.
        let (_, plan2) = router.answer_planned(table, &req);
        assert_eq!(plan2.frac, plan.frac, "plans are deterministic");
        assert_eq!(router.stats().executions, executions, "warm replan");
        assert!(router.stats().planner.probe_hits >= 1);
    }

    #[test]
    fn impossible_error_target_escalates_to_the_exact_full_read() {
        let router = Router::single(tiny_system(31, 160));
        let table = router.table_id("default").unwrap();
        let req = QueryRequest::new(sum_query(), Method::Random, 1.0, 3).with_error_target(0.0);
        let (out, plan) = router.answer_planned(table, &req);
        assert_eq!(plan.frac, 1.0, "only a full read has zero error");
        assert!(plan.planned);
        assert!(out.meta.exact);
        assert_eq!(out.meta.error_estimate.rel_err, 0.0);
        // SUM of 0..160 — exact, not an estimate.
        assert_eq!(out.answer.global(0).unwrap(), (0..160).sum::<i32>() as f64);
    }

    #[test]
    fn latency_target_without_signal_falls_back_then_plans_once_warm() {
        let router = Router::single(tiny_system(32, 160));
        let table = router.table_id("default").unwrap();
        // Cold: no execution has landed, the cost EWMA is empty.
        let req = QueryRequest::ps3(count_query(), 1.0, 7).with_latency_target(1e6);
        let (_, cold_plan) = router.answer_planned(table, &req);
        assert!(
            !cold_plan.planned,
            "no signal yet: must be marked unplanned"
        );
        assert_eq!(cold_plan.frac, crate::planner::PLAN_GRID[0]);
        assert_eq!(router.stats().planner.fallbacks, 1);

        // That execution fed the EWMA: the same request now plans, and a
        // huge budget buys the largest rung.
        let (_, warm_plan) = router.answer_planned(table, &req);
        assert!(warm_plan.planned, "EWMA signal after one execution");
        assert_eq!(warm_plan.frac, 1.0, "a 1000s budget fits a full read");
        assert_eq!(router.stats().planner.fallbacks, 1, "no new fallback");
    }

    #[test]
    fn progressive_ticket_streams_refinements_with_a_bit_identical_final() {
        let router = Router::builder()
            .table("t", tiny_system(33, 160))
            .pump_workers(0)
            .build();
        let tenant = router.tenant("streamer", None);
        let req = QueryRequest::new(sum_query(), Method::Random, 0.5, 21).progressive();
        let ticket = tenant.submit(req.clone()).unwrap();
        let progressed = Arc::new(AtomicU64::new(0));
        {
            let progressed = Arc::clone(&progressed);
            ticket.on_event(move || {
                progressed.fetch_add(1, Ordering::SeqCst);
            });
        }
        router.drain_queued(1);
        let updates = ticket.take_progress();
        assert!(!updates.is_empty(), "a cold 8-partition read must refine");
        assert_eq!(
            progressed.load(Ordering::SeqCst),
            updates.len() as u64 + 1,
            "one event per refinement, one for the outcome"
        );
        let mut prev = 0;
        for u in &updates {
            assert!(u.partitions_done > prev, "monotone in partitions read");
            assert!(u.partitions_done < u.partitions_total);
            prev = u.partitions_done;
        }
        let streamed = ticket.wait();

        // The one-shot path on a fresh router (cold cache, same seed) is
        // bit-identical — progressiveness never perturbs the answer.
        let fresh = Router::builder()
            .table("t", tiny_system(33, 160))
            .pump_workers(0)
            .build();
        let one_shot = fresh.answer_now(
            fresh.table_id("t").unwrap(),
            &QueryRequest::new(sum_query(), Method::Random, 0.5, 21),
        );
        assert_eq!(streamed.answer, one_shot.answer);
        // Bit-identical up to the wall-clock picker timing.
        assert_eq!(streamed.meta.error_estimate, one_shot.meta.error_estimate);
        assert_eq!(streamed.meta.partitions_read, one_shot.meta.partitions_read);
        assert_eq!(streamed.meta.planned_frac, one_shot.meta.planned_frac);
        assert_eq!(streamed.meta.exact, one_shot.meta.exact);

        // A warm repeat is a cache hit, answered at submission: final
        // answer only, no updates, progressive flag or not — one event,
        // for the outcome.
        let warm = tenant.submit(req).unwrap();
        assert!(warm.is_ready(), "nothing drained the queue for this one");
        assert_eq!(router.queue_len(), 0);
        let progressed = Arc::new(AtomicU64::new(0));
        {
            let progressed = Arc::clone(&progressed);
            warm.on_event(move || {
                progressed.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(warm.take_progress().is_empty(), "cache hits do not stream");
        assert!(Arc::ptr_eq(&warm.wait(), &streamed));
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
        router.shutdown();
    }

    #[test]
    fn dropping_a_pumpless_router_still_fulfills_accepted_tickets() {
        let router = Router::builder()
            .table("t", tiny_system(11, 160))
            .pump_workers(0)
            .queue_capacity(8)
            .build();
        let tenant = router.tenant("orphan", None);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| {
                tenant
                    .submit(QueryRequest::ps3(count_query(), 0.25, i))
                    .unwrap()
            })
            .collect();
        drop(tenant);
        drop(router);
        for t in tickets {
            assert!(
                t.wait().answer.num_groups() > 0,
                "Drop must drain accepted work so tickets never hang"
            );
        }
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let router = Router::builder()
            .table("t", tiny_system(10, 160))
            .pump_workers(0)
            .queue_capacity(32)
            .build();
        let tenant = router.tenant("drainee", None);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                tenant
                    .submit(QueryRequest::ps3(count_query(), 0.25, i))
                    .unwrap()
            })
            .collect();
        assert_eq!(router.queue_len(), 8);
        router.shutdown();
        assert_eq!(router.queue_len(), 0);
        assert_eq!(router.stats().in_flight, 0);
        for t in tickets {
            let out = t.wait();
            assert!(out.answer.num_groups() > 0, "drained ticket must be served");
        }
    }

    #[test]
    fn snapshot_boot_and_load_are_bit_identical() {
        let dir = std::env::temp_dir().join(format!("ps3_router_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ps3");

        let system = tiny_system(3, 160);
        let trained = Router::single(Arc::clone(&system));
        let tid = trained.table_id("default").unwrap();
        trained.system(tid).freeze(&path).unwrap();

        // Boot a fresh router straight from the artifact.
        let booted = Router::builder()
            .table_from_artifact("default", &path)
            .unwrap()
            .build();
        let bid = booted.table_id("default").unwrap();
        for seed in [0u64, 7] {
            let req = QueryRequest::ps3(sum_query(), 0.25, seed);
            let a = trained.answer_now(tid, &req);
            let b = booted.answer_now(bid, &req);
            assert_eq!(a.answer, b.answer, "seed {seed}");
        }

        // Hot-swap from disk invalidates cached answers like any replace.
        let other = Router::single(tiny_system(9, 160));
        let oid = other.table_id("default").unwrap();
        let _ = other.answer_now(oid, &QueryRequest::ps3(sum_query(), 0.25, 0));
        other.load_table(oid, &path).unwrap();
        let swapped = other.answer_now(oid, &QueryRequest::ps3(sum_query(), 0.25, 0));
        let reference = trained.answer_now(tid, &QueryRequest::ps3(sum_query(), 0.25, 0));
        assert_eq!(swapped.answer, reference.answer);

        // Corrupt artifact: typed error, table keeps serving.
        let bad_path = dir.join("bad.ps3");
        std::fs::write(&bad_path, b"PS3FLAT\0garbage").unwrap();
        assert!(other.load_table(oid, &bad_path).is_err());
        let still = other.answer_now(oid, &QueryRequest::ps3(sum_query(), 0.25, 0));
        assert_eq!(still.answer, reference.answer);

        std::fs::remove_dir_all(&dir).ok();
    }
}
