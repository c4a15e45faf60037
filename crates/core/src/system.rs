//! The top-level facade: train once per (dataset, layout, workload), then
//! answer queries under any method and budget.
//!
//! A trained [`Ps3System`] is immutable shared state: every query-path
//! method takes `&self` and threads an explicit RNG, so one system behind an
//! `Arc` serves any number of threads concurrently (see
//! [`crate::router::Router`]). Per-query randomness comes either from a
//! caller-owned [`StdRng`] or from a seed via [`spec_rng`], which makes
//! results a pure function of `(query, method, budget, seed)` — the same
//! request answered on eight threads is bit-identical on all of them.
//!
//! There is one answer pipeline, [`Ps3System::answer_spec_sink_on`]: select
//! partitions, run a per-partition kernel, fold the partials in selection
//! order, estimate the error. Query classes plug in as an `AnswerFold`;
//! pools and progress sinks are arguments, not separate code paths.
//!
//! Per-query [`QueryArtifacts`] are served from a bounded LRU keyed by
//! [`Query::fingerprint`], so budget sweeps and repeated predicate shapes
//! estimate selectivity and compile once, and the diagnostics path
//! ([`Ps3System::pick_outcome`]) sees exactly the features the serving path
//! used. An entry owns only what is per-query ([`QueryColumns`]): the
//! query's column map, its `partitions × 4` normalized selectivity
//! estimates and the raw `selectivity_upper` column. The static statistics
//! are normalized once per system generation into one table
//! ([`NormalizedStatics`]) that every query shares; a pick gathers the flat,
//! compact, normalized [`FeatureMatrix`] the picker reads from the two, for
//! the partitions its filter keeps only, and the uniform baselines gather
//! nothing.

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ps3_query::{
    execute_partials_on, execute_table, AggExpr, AggFunc, CompiledQuery, CompiledSketchQuery,
    GroupKey, PartialAnswer, Query, QueryAnswer, QuerySpec, SketchFunc, SketchQuery, WeightedPart,
};
use ps3_runtime::{CacheStats, SharedLru, ThreadPool};
use ps3_sketch::{AnswerSketch, DistinctSketch};
use ps3_stats::{FeatureMatrix, NormalizedStatics, QueryColumns, SelectivityPlan, TableStats};
use ps3_storage::{PartitionedTable, Table};

use crate::baselines::{random_filter_selection, random_selection, LssModel};
use crate::config::Ps3Config;
use crate::estimator::{estimate_from_totals, AggError, ErrorEstimate};
use crate::picker::{PickOutcome, Picker};
use crate::train::{bin_workload, normalize_workload, TrainedPs3, TrainingData};

/// The sampling methods compared throughout the evaluation (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Uniform partition sampling.
    Random,
    /// Uniform sampling over partitions passing the selectivity filter.
    RandomFilter,
    /// Modified Learned Stratified Sampling (Appendix C.1).
    Lss,
    /// The full PS3 picker.
    Ps3,
}

impl Method {
    /// All methods in plot order.
    pub const ALL: [Method; 4] = [
        Method::Random,
        Method::RandomFilter,
        Method::Lss,
        Method::Ps3,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::Random => "random",
            Method::RandomFilter => "random+filter",
            Method::Lss => "LSS",
            Method::Ps3 => "PS3",
        }
    }
}

/// Everything a caller can know about *how good* an answer is and *what it
/// cost* — one shape shared by in-process outcomes ([`AnswerOutcome`]) and
/// wire answers (`ps3_net`'s `RemoteAnswer`), so both surfaces read
/// identical metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerMeta {
    /// How many partitions were read.
    pub partitions_read: u32,
    /// Picker latency (ms); 0 for the trivial baselines.
    pub picker_ms: f64,
    /// Estimated sampling error, per aggregate and summarized.
    pub error_estimate: ErrorEstimate,
    /// The fraction the answer was executed at (after any planning).
    pub planned_frac: f64,
    /// True when the answer is exact: a full read, or a selection covering
    /// every partition that could contain qualifying rows at weight 1.
    pub exact: bool,
}

/// One approximate answer plus how it was produced.
#[derive(Debug, Clone)]
pub struct AnswerOutcome {
    /// The combined approximate answer.
    pub answer: QueryAnswer,
    /// The weighted partitions that were read.
    pub selection: Vec<WeightedPart>,
    /// Quality and cost metadata (shared shape with the wire client).
    pub meta: AnswerMeta,
    /// For sketch-class queries, the *unweighted* merge of the picked
    /// partitions' answer sketches — confluent, so bit-identical to a
    /// single pass over the concatenated picked rows regardless of pick
    /// order. `None` for scalar queries. The wire layer ships it so remote
    /// clients can merge further or re-derive quantiles at other `p`.
    pub sketch: Option<AnswerSketch>,
}

/// One refining answer, as delivered to a progress sink
/// ([`Ps3System::answer_spec_sink_on`]): the weighted combination of the
/// first `partitions_done` selected partitions, with the error estimate
/// over that prefix. The *final* refinement is not emitted as an update —
/// it is the ordinary [`AnswerOutcome`], bit-identical with or without a
/// sink.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressUpdate {
    /// 0-based update sequence number.
    pub seq: u32,
    /// Partitions combined so far (monotone increasing across updates).
    pub partitions_done: u32,
    /// Total partitions in the selection.
    pub partitions_total: u32,
    /// The prefix combination, finalized.
    pub answer: QueryAnswer,
    /// Summary relative error of the prefix (NaN = no signal yet).
    pub rel_err: f64,
}

/// The deterministic per-request RNG used by the seeded entry points:
/// mixes the caller's seed with the spec's fingerprint (one key space for
/// both query classes) so distinct queries draw independent streams while
/// `(spec, seed)` fully determines the result.
pub fn spec_rng(spec: &QuerySpec, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ spec.fingerprint().rotate_left(17))
}

/// The scalar proxy a sketch query selects partitions through: `COUNT(*)`
/// under the same predicate. Partition *relevance* is a property of the
/// predicate alone, so the picker, feature cache, and exclusion machinery
/// apply to sketch queries without modification — and two sketch queries
/// sharing a predicate share one cached feature computation.
fn sketch_proxy(query: &SketchQuery) -> Query {
    Query::new(vec![AggExpr::count()], query.predicate.clone(), vec![])
}

/// A one-value global-group answer (the shape `PERCENTILE` / `DISTINCT`
/// results take).
fn global_answer(v: f64) -> QueryAnswer {
    QueryAnswer {
        groups: std::iter::once((GroupKey::global(), vec![v])).collect(),
    }
}

/// Everything the serving path derives from one query shape, computed once
/// per [`Query::fingerprint`] and cached: what the query adds to the shared
/// normalized statics (its column map, normalized selectivity estimates and
/// the raw `selectivity_upper` column the filter and the exactness check
/// read), and the query compiled to columnar kernels (what
/// `execute_partition` runs).
#[derive(Debug)]
pub struct QueryArtifacts {
    /// The per-query columns of the normalized feature matrix (Appendix B).
    pub columns: QueryColumns,
    /// The query lowered to kernel programs against this table.
    pub compiled: CompiledQuery,
}

impl QueryArtifacts {
    /// Heap bytes of the feature side of one cache entry: only what the
    /// entry owns, never the shared static table (the compiled query is a
    /// few hundred bytes of kernel programs and is not counted either).
    pub fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }
}

/// A trained PS3 deployment over one partitioned table. Immutable after
/// training; share it with `Arc<Ps3System>` and call the `&self` query
/// methods from any number of threads.
pub struct Ps3System {
    /// The data.
    pub pt: Arc<PartitionedTable>,
    /// Its summary statistics.
    pub stats: Arc<TableStats>,
    /// Trained picker state.
    pub trained: TrainedPs3,
    /// Trained LSS baseline.
    pub lss: LssModel,
    /// The training workload: the queries the learned parts were trained
    /// on. A frozen artifact persists them, and a warm retrain shares them
    /// with the generation it builds.
    pub training: Arc<[Query]>,
    /// `stats`' static features through `trained.normalizer`, computed once
    /// per generation; every pick gathers its rows from it.
    normalized_statics: NormalizedStatics,
    /// Bounded per-query artifact cache, keyed by [`Query::fingerprint`].
    features: SharedLru<u64, Arc<QueryArtifacts>>,
}

/// Budget fractions the LSS strata sweep is trained at (the harness grid).
pub const LSS_BUDGET_GRID: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

/// Convert a budget fraction into a partition count (≥ 1) for a table of
/// `num_partitions` partitions.
pub fn budget_partitions(frac: f64, num_partitions: usize) -> usize {
    ((frac * num_partitions as f64).round() as usize).clamp(1, num_partitions)
}

impl Ps3System {
    /// Train every learned component on `train_queries`. The workload's
    /// normalized compact matrices are binned once, column by column
    /// ([`bin_workload`]), and the k importance models and the LSS
    /// regressor all train on that one set: no full-width feature row is
    /// built.
    ///
    /// Training frees several times what the trained system keeps (the
    /// workload's exact partials and raw selectivity features, the
    /// normalized matrices and their bins, GBDT scratch, per-task scratch);
    /// that goes back to the OS before this returns
    /// ([`ps3_runtime::release_free_heap`]), so what the caller does next —
    /// freeze, serve — starts from the system's live size instead of
    /// building on whichever of training's holes fit.
    pub fn train(
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
        train_queries: &[Query],
        cfg: Ps3Config,
    ) -> Self {
        let training = TrainingData::compute(&pt, &stats, train_queries, cfg.threads);
        let normalizer = training.fit_normalizer(&stats);
        let (statics, normalized) = normalize_workload(&normalizer, &stats, &training, cfg.threads);
        let set = bin_workload(&normalized, ps3_learn::MAX_BINS);
        let trained = TrainedPs3::train(&training, normalizer, &normalized, &set, cfg.clone());
        let lss = LssModel::train(
            &training,
            &normalized,
            &set,
            &cfg.gbdt,
            &LSS_BUDGET_GRID,
            cfg.fs_eval_queries,
            cfg.seed,
        );
        drop((set, normalized, training));
        let system = Self::assemble(pt, stats, trained, lss, train_queries.into(), statics);
        ps3_runtime::release_free_heap();
        system
    }

    /// Assemble a system generation from already-trained parts — the thaw
    /// path in [`crate::persist`] builds one this way. The static features
    /// are normalized here, once; the feature LRU starts empty at the
    /// configuration's capacity; everything else is used as given, so a
    /// system rebuilt from its own parts answers bit-identically.
    pub fn from_parts(
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
        trained: TrainedPs3,
        lss: LssModel,
        training: Arc<[Query]>,
    ) -> Self {
        let normalized_statics = trained.normalizer.normalize_statics(&stats);
        Self::assemble(pt, stats, trained, lss, training, normalized_statics)
    }

    /// [`Self::from_parts`] over statics already normalized through
    /// `trained.normalizer`: [`Self::train`] gathered its training rows from
    /// this table, and hands it on instead of normalizing the generation's
    /// statics a second time.
    fn assemble(
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
        trained: TrainedPs3,
        lss: LssModel,
        training: Arc<[Query]>,
        normalized_statics: NormalizedStatics,
    ) -> Self {
        let features = SharedLru::new(trained.config.feature_cache_cap);
        Self {
            pt,
            stats,
            trained,
            lss,
            training,
            normalized_statics,
            features,
        }
    }

    /// Write this trained system to `path` as one flat artifact
    /// ([`crate::persist::freeze`]).
    pub fn freeze(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::persist::freeze(self, path)
    }

    /// Map the artifact at `path` back into a serving-ready system
    /// ([`crate::persist::thaw`]).
    pub fn thaw(path: &std::path::Path) -> Result<Self, ps3_storage::format::FormatError> {
        crate::persist::thaw(path)
    }

    /// Warm incremental retrain: the next-generation system for (possibly
    /// grown) `pt`/`stats`, built by [`Self::from_parts`] from `prev`'s
    /// learned parts (`trained`, `lss`) and its training queries, shared.
    /// Nothing is re-executed or re-fitted; the new table's static features
    /// go through `prev`'s normalizer once. On an unchanged table the new
    /// system's answers are bit-identical to `prev`'s.
    pub fn retrain_from(
        prev: &Ps3System,
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
    ) -> Self {
        let (trained, lss) = (prev.trained.clone(), prev.lss.clone());
        Self::from_parts(pt, stats, trained, lss, Arc::clone(&prev.training))
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.pt.num_partitions()
    }

    /// Convert a budget fraction into a partition count (≥ 1).
    pub fn budget_partitions(&self, frac: f64) -> usize {
        budget_partitions(frac, self.num_partitions())
    }

    /// The exact answer (reads everything).
    pub fn exact_answer(&self, query: &Query) -> QueryAnswer {
        execute_table(&self.pt, query)
    }

    /// Per-query artifacts (per-query feature columns + compiled kernels),
    /// served from the bounded LRU cache. Both the serving path
    /// ([`Self::answer_spec_on`]) and the diagnostics path ([`Self::pick_outcome`])
    /// resolve artifacts here, so they always agree; a budget sweep over
    /// one query estimates and compiles everything exactly once. On a miss
    /// the query is compiled, and its predicate's selectivity is estimated
    /// on every partition through one plan.
    pub fn artifacts_for(&self, query: &Query) -> Arc<QueryArtifacts> {
        self.features.get_or_insert_with(query.fingerprint(), || {
            let compiled = CompiledQuery::compile(self.pt.table(), query);
            let plan = SelectivityPlan::new(compiled.predicate());
            let columns =
                (self.normalized_statics).query_columns(query, plan.estimate_all(&self.stats));
            Arc::new(QueryArtifacts { columns, compiled })
        })
    }

    /// The partitions that pass a query's selectivity filter (§3.2), in
    /// partition order, and their normalized compact feature rows — what
    /// the funnel, LSS and clustering read — gathered for one pick: row
    /// `i` is partition `candidates[i]`.
    fn candidates_of(&self, artifacts: &QueryArtifacts) -> (Vec<usize>, FeatureMatrix) {
        let candidates = passing_filter(artifacts.columns.upper());
        let rows = candidates.iter().copied();
        let features = self.normalized_statics.gather(&artifacts.columns, rows);
        (candidates, features)
    }

    /// Hit/miss/occupancy counters of the artifact cache. `misses` equals
    /// the number of selectivity estimations (and `CompiledQuery::compile`
    /// calls) made on behalf of the query path.
    pub fn feature_cache_stats(&self) -> CacheStats {
        self.features.stats()
    }

    /// Select partitions for `query` under `method` at `frac` of the data,
    /// from the cached artifacts every other entry point uses. `oracle`
    /// optionally substitutes true contributions for the learned funnel.
    /// All randomness is drawn from the caller's `rng`, so the selection is
    /// a pure function of the arguments. Returns the selection and the
    /// picker latency in milliseconds (0 for the baselines).
    pub fn select(
        &self,
        query: &Query,
        method: Method,
        frac: f64,
        oracle: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> (Vec<WeightedPart>, f64) {
        self.select_from(query, &self.artifacts_for(query), method, frac, oracle, rng)
    }

    /// [`Self::select`] over artifacts the caller already resolved.
    fn select_from(
        &self,
        query: &Query,
        artifacts: &QueryArtifacts,
        method: Method,
        frac: f64,
        oracle: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> (Vec<WeightedPart>, f64) {
        let budget = self.budget_partitions(frac);
        match method {
            Method::Random => (random_selection(self.num_partitions(), budget, rng), 0.0),
            Method::RandomFilter => {
                let candidates = passing_filter(artifacts.columns.upper());
                (random_filter_selection(&candidates, budget, rng), 0.0)
            }
            Method::Lss => {
                let (candidates, features) = self.candidates_of(artifacts);
                let sel = self.lss.pick(&features, &candidates, budget, frac, rng);
                (sel, 0.0)
            }
            Method::Ps3 => {
                let (candidates, features) = self.candidates_of(artifacts);
                let picker = self.picker();
                let out =
                    picker.pick_normalized(query, &candidates, &features, budget, rng, oracle);
                (out.selection, out.total_ms)
            }
        }
    }

    fn picker(&self) -> Picker<'_> {
        Picker {
            trained: &self.trained,
            stats: &self.stats,
        }
    }

    /// Full pick diagnostics for PS3 (Table 5 timing, Figure 4 lesion).
    /// Features come from the same cache the serving path uses.
    pub fn pick_outcome(&self, query: &Query, frac: f64, rng: &mut StdRng) -> PickOutcome {
        let artifacts = self.artifacts_for(query);
        let budget = self.budget_partitions(frac);
        let (candidates, features) = self.candidates_of(&artifacts);
        (self.picker()).pick_normalized(query, &candidates, &features, budget, rng, None)
    }

    /// Answer `spec` approximately at `frac` of the data — **the** answer
    /// pipeline; every other entry point is this one with arguments filled
    /// in. Select partitions from summary statistics, run the class's
    /// kernel on each picked partition, fold the partials in selection
    /// order with their weights (§2.4), estimate the error. Callable
    /// concurrently on a shared system; the outcome is a pure function of
    /// the arguments and the RNG state — bit-identical across pools (a
    /// 1-worker pool executes serially on the caller) and with or without
    /// a sink.
    ///
    /// Scalar and sketch specs differ only in their `AnswerFold`. With a
    /// `sink` attached to a scalar spec, the selection executes in at most
    /// four batches and after each non-final batch the sink receives the
    /// estimate over the prefix read so far (online aggregation: a running
    /// prefix of the same estimator, not a second algorithm). Sketch specs
    /// emit no updates — a partial sketch merge is not a partial answer of
    /// the same shape.
    pub fn answer_spec_sink_on(
        &self,
        spec: &QuerySpec,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
        pool: &ThreadPool,
        sink: Option<&mut dyn FnMut(ProgressUpdate)>,
    ) -> AnswerOutcome {
        // A sketch query is *picked* as `COUNT(*)` under its predicate, so
        // every method, feature computation, and exclusion applies as is.
        let proxy;
        let picked_as = match spec {
            QuerySpec::Scalar(q) => q,
            QuerySpec::Sketch(q) => {
                proxy = sketch_proxy(q);
                &proxy
            }
        };
        let artifacts = self.artifacts_for(picked_as);
        let (selection, picker_ms) =
            self.select_from(picked_as, &artifacts, method, frac, None, rng);
        let covering = selection_is_exact(artifacts.columns.upper(), frac, &selection);
        let (answer, error_estimate, exact, sketch) = match spec {
            QuerySpec::Scalar(_) => {
                let compiled = &artifacts.compiled;
                let mut fold = ScalarFold {
                    compiled,
                    acc: PartialAnswer::with_slots(compiled.slot_count()),
                    totals: Vec::new(),
                    weights: Vec::new(),
                };
                let (a, e, x) = self.fold_selection(&mut fold, &selection, covering, pool, sink);
                (a, e, x, None)
            }
            QuerySpec::Sketch(q) => {
                let compiled = CompiledSketchQuery::compile(self.pt.table(), q);
                let mut fold = SketchFold {
                    merged: compiled.empty_sketch(),
                    compiled,
                    parts: Vec::new(),
                };
                let (a, e, x) = self.fold_selection(&mut fold, &selection, covering, pool, None);
                (a, e, x, Some(fold.merged))
            }
        };
        AnswerOutcome {
            answer,
            meta: AnswerMeta {
                partitions_read: selection.len() as u32,
                picker_ms,
                error_estimate,
                planned_frac: frac,
                exact,
            },
            selection,
            sketch,
        }
    }

    /// [`Self::answer_spec_sink_on`] with nobody listening — the router's
    /// uncached execution path.
    pub fn answer_spec_on(
        &self,
        spec: &QuerySpec,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
        pool: &ThreadPool,
    ) -> AnswerOutcome {
        self.answer_spec_sink_on(spec, method, frac, rng, pool, None)
    }

    /// The class-independent middle of the pipeline: run `fold`'s kernel
    /// over `selection` through the one executor, fold in selection order,
    /// and estimate — in one batch unless a sink is listening for prefixes.
    /// Batching never reorders an `f64` accumulation.
    fn fold_selection<F: AnswerFold>(
        &self,
        fold: &mut F,
        selection: &[WeightedPart],
        covering: bool,
        pool: &ThreadPool,
        mut sink: Option<&mut dyn FnMut(ProgressUpdate)>,
    ) -> (QueryAnswer, ErrorEstimate, bool) {
        let (m, n) = (selection.len(), self.num_partitions());
        let batch = if sink.is_some() { m.div_ceil(4) } else { m };
        let mut done = 0;
        for (seq, chunk) in selection.chunks(batch.max(1)).enumerate() {
            let partials = execute_partials_on(&self.pt, chunk, pool, |rows| {
                fold.kernel(self.pt.table(), rows)
            });
            for (wp, part) in chunk.iter().zip(partials) {
                fold.fold(wp.weight, part);
            }
            done += chunk.len();
            if let (Some(sink), true) = (sink.as_mut(), done < m) {
                let (answer, estimate, _) = fold.estimate(false, n);
                sink(ProgressUpdate {
                    seq: seq as u32,
                    partitions_done: done as u32,
                    partitions_total: m as u32,
                    answer,
                    rel_err: estimate.rel_err,
                });
            }
        }
        fold.estimate(covering, n)
    }

    /// The single-pass whole-table answer sketch for `query` — the oracle
    /// every covering merge must equal bit-for-bit (confluence).
    pub fn exact_sketch(&self, query: &SketchQuery) -> AnswerSketch {
        let table = self.pt.table();
        CompiledSketchQuery::compile(table, query).sketch_partition(table, 0..table.num_rows())
    }

    /// [`Self::answer_spec_on`] on the shared workspace pool, with the RNG
    /// derived from `(spec, seed)` via [`spec_rng`] — the library entry
    /// point: same request, same seed, same answer, from any thread.
    pub fn answer_seeded(
        &self,
        spec: impl Into<QuerySpec>,
        method: Method,
        frac: f64,
        seed: u64,
    ) -> AnswerOutcome {
        let spec = spec.into();
        let mut rng = spec_rng(&spec, seed);
        self.answer_spec_on(&spec, method, frac, &mut rng, &ThreadPool::global())
    }
}

/// The partitions whose selectivity upper bound is positive, ascending:
/// the filter has perfect recall, so the rest hold no qualifying row.
fn passing_filter(selectivity_upper: &[f64]) -> Vec<usize> {
    (0..selectivity_upper.len())
        .filter(|&p| selectivity_upper[p] > 0.0)
        .collect()
}

/// True when `selection` provably reproduces the exact answer: the budget is
/// a full read, or every partition that could contain a qualifying row
/// (positive selectivity upper bound) is in the selection at weight exactly
/// 1 — zero-upper-bound partitions contribute nothing at any weight.
fn selection_is_exact(selectivity_upper: &[f64], frac: f64, selection: &[WeightedPart]) -> bool {
    if frac >= 1.0 {
        return true;
    }
    // More candidates than picks: one of them was not read. The usual
    // partial-budget case, decided without allocating.
    let candidates = selectivity_upper.iter().filter(|&&u| u > 0.0).count();
    if candidates > selection.len() {
        return false;
    }
    let mut weight_of = vec![f64::NAN; selectivity_upper.len()];
    for wp in selection {
        weight_of[wp.partition.index()] = wp.weight;
    }
    (selectivity_upper.iter().zip(&weight_of))
        .filter(|(&upper, _)| upper > 0.0)
        .all(|(_, &weight)| weight == 1.0)
}

/// The three pieces of the answer pipeline
/// ([`Ps3System::answer_spec_sink_on`]) that depend on the query class: the
/// per-partition kernel, the selection-order fold, and the error estimate.
/// Everything else — artifacts, selection, the executor, batching,
/// progress, metadata — is shared.
trait AnswerFold: Sync {
    /// What the kernel produces for one partition.
    type Partial: Send;

    /// The per-partition kernel: one picked partition's partial result.
    fn kernel(&self, table: &Table, rows: Range<usize>) -> Self::Partial;

    /// The fold: absorb the next partition's partial at its selection
    /// weight. Called in selection order, always.
    fn fold(&mut self, weight: f64, part: Self::Partial);

    /// The estimate over everything folded so far: `(answer, error, exact)`.
    /// `covering` is true when the folded selection provably reproduces a
    /// full read; `n` is the table's partition count.
    fn estimate(&self, covering: bool, n: usize) -> (QueryAnswer, ErrorEstimate, bool);
}

/// Linear aggregates (`SUM` / `COUNT` / `AVG`): the kernel is the compiled
/// columnar program, the fold is the §2.4 weighted combination, and the
/// estimate reads the spread of per-partition slot totals.
struct ScalarFold<'a> {
    compiled: &'a CompiledQuery,
    acc: PartialAnswer,
    /// Per folded partition: unweighted slot totals and selection weight.
    totals: Vec<Vec<f64>>,
    weights: Vec<f64>,
}

impl AnswerFold for ScalarFold<'_> {
    type Partial = PartialAnswer;

    fn kernel(&self, table: &Table, rows: Range<usize>) -> PartialAnswer {
        self.compiled.execute_partition(table, rows)
    }

    fn fold(&mut self, weight: f64, part: PartialAnswer) {
        self.totals.push(part.slot_totals());
        self.weights.push(weight);
        self.acc.add_weighted(&part, weight);
    }

    fn estimate(&self, covering: bool, n: usize) -> (QueryAnswer, ErrorEstimate, bool) {
        let funcs = self.compiled.funcs();
        let estimate = if covering {
            ErrorEstimate::exact_for(funcs.len())
        } else {
            estimate_from_totals(funcs, &self.totals, &self.weights, n)
        };
        (self.compiled.finalize(&self.acc), estimate, covering)
    }
}

/// Sketch-class aggregates (`PERCENTILE` / `COUNT(DISTINCT)` / `TOP_K`):
/// the kernel builds one answer sketch per partition, the fold merges them
/// *unweighted* — confluent, so bit-identical to a single pass over the
/// concatenated picked rows whatever order the picker produced — and the
/// estimate follows [`ErrorEstimate`]'s honesty rules per function (see the
/// match arms): only `TOP_K`, whose counts are exact, can be exact.
struct SketchFold {
    compiled: CompiledSketchQuery,
    merged: AnswerSketch,
    /// Per folded partition: selection weight and its own sketch (`TOP_K`
    /// weights per-partition counts).
    parts: Vec<(f64, AnswerSketch)>,
}

impl AnswerFold for SketchFold {
    type Partial = AnswerSketch;

    fn kernel(&self, table: &Table, rows: Range<usize>) -> AnswerSketch {
        self.compiled.sketch_partition(table, rows)
    }

    fn fold(&mut self, weight: f64, part: AnswerSketch) {
        self.merged.merge_from(&part);
        self.parts.push((weight, part));
    }

    fn estimate(&self, covering: bool, n: usize) -> (QueryAnswer, ErrorEstimate, bool) {
        let one = |hw: f64, rel: f64| ErrorEstimate {
            per_agg: vec![AggError {
                ci_half_width: hw,
                rel_err: rel,
            }],
            rel_err: rel,
        };
        match (&self.merged, self.compiled.func()) {
            (AnswerSketch::Quantile(s), SketchFunc::Percentile(p)) => {
                let v = s.quantile(p);
                let ranked = s.ranked_count();
                let est = if ranked == 0 {
                    ErrorEstimate::no_signal(1)
                } else {
                    // Rank uncertainty of the p-th order statistic over the
                    // observed values (p ± 1.96·√(p(1−p)/n)), read back
                    // through the sketch itself, plus the sketch's own
                    // relative value error `alpha`.
                    let se = (p * (1.0 - p) / ranked as f64).sqrt();
                    let (lo, hi) = (
                        s.quantile((p - 1.96 * se).clamp(0.0, 1.0)),
                        s.quantile((p + 1.96 * se).clamp(0.0, 1.0)),
                    );
                    let rank_hw = if covering {
                        0.0
                    } else {
                        (v - lo).abs().max((hi - v).abs())
                    };
                    let hw = rank_hw + v.abs() * s.alpha();
                    one(hw, if v == 0.0 { f64::NAN } else { hw / v.abs() })
                };
                (global_answer(v), est, false)
            }
            (AnswerSketch::Distinct(s), SketchFunc::Distinct) => {
                let v = s.estimate();
                let est = if covering && v != 0.0 {
                    let rel = 1.96 * DistinctSketch::standard_error();
                    one(rel * v, rel)
                } else {
                    // Distinct counts do not extrapolate linearly: a
                    // partial merge undercounts by an amount no sketch
                    // statistic bounds — no signal, by design; the planner
                    // escalates to a covering read.
                    ErrorEstimate::no_signal(1)
                };
                (global_answer(v), est, false)
            }
            (AnswerSketch::TopK(_), SketchFunc::TopK(k)) => {
                let tops = || {
                    self.parts.iter().map(|(w, part)| match part {
                        AnswerSketch::TopK(t) => (*w, t),
                        _ => unreachable!("a TOP_K kernel builds top-k sketches"),
                    })
                };
                // Weighted per-key count estimates: Σ_j w_j · count_j(key),
                // ranked by estimate (desc) with ascending key tie-break.
                let mut weighted: std::collections::HashMap<u64, f64> = Default::default();
                for (w, t) in tops() {
                    for &(key, count) in t.entries() {
                        *weighted.entry(key).or_insert(0.0) += w * count as f64;
                    }
                }
                let mut ranked: Vec<(u64, f64)> = weighted.into_iter().collect();
                ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranked.truncate(k as usize);
                let answer = QueryAnswer {
                    groups: ranked
                        .iter()
                        .map(|&(key, est)| (GroupKey(Box::new([key])), vec![est]))
                        .collect(),
                };
                let est = if covering {
                    ErrorEstimate::exact_for(ranked.len())
                } else {
                    let funcs = vec![AggFunc::Count; ranked.len()];
                    let (weights, totals): (Vec<f64>, Vec<Vec<f64>>) = tops()
                        .map(|(w, t)| {
                            let counts = ranked.iter().map(|&(key, _)| t.count_of(key) as f64);
                            (w, counts.collect())
                        })
                        .unzip();
                    estimate_from_totals(&funcs, &totals, &weights, n)
                };
                (answer, est, covering)
            }
            _ => unreachable!("compiled sketch kind always matches the query func"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ps3_query::AggExpr;
    use ps3_stats::StatsConfig;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, Schema};

    #[test]
    fn method_labels() {
        assert_eq!(Method::Ps3.label(), "PS3");
        assert_eq!(Method::ALL.len(), 4);
    }

    fn tiny_system() -> Ps3System {
        system_of(160)
    }

    /// 16 equal partitions over `rows` rows: `x` = row index, `g` = which
    /// half of the table the row is in.
    pub(crate) fn system_of(rows: u32) -> Ps3System {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(
                &[f64::from(i)],
                &[["a", "b"][(i / (rows / 2)) as usize % 2]],
            );
        }
        let pt = std::sync::Arc::new(PartitionedTable::with_equal_partitions(b.finish(), 16));
        let stats = std::sync::Arc::new(ps3_stats::TableStats::build(&pt, &StatsConfig::default()));
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
        let mut cfg = Ps3Config::default().with_seed(5);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        Ps3System::train(pt, stats, &queries, cfg)
    }

    #[test]
    fn budget_partitions_clamps() {
        let sys = tiny_system();
        assert_eq!(sys.budget_partitions(0.0), 1);
        assert_eq!(sys.budget_partitions(0.5), 8);
        assert_eq!(sys.budget_partitions(1.0), 16);
        assert_eq!(sys.budget_partitions(5.0), 16);
    }

    #[test]
    fn same_seed_restores_stochastic_behavior() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let a = sys.answer_seeded(&q, Method::Random, 0.25, 77);
        let b = sys.answer_seeded(&q, Method::Random, 0.25, 77);
        let ka: Vec<usize> = a.selection.iter().map(|w| w.partition.index()).collect();
        let kb: Vec<usize> = b.selection.iter().map(|w| w.partition.index()).collect();
        assert_eq!(ka, kb);
        // Different seeds draw different uniform samples (16 choose 4 makes
        // a collision vanishingly unlikely for these two fixed seeds).
        let c = sys.answer_seeded(&q, Method::Random, 0.25, 78);
        let kc: Vec<usize> = c.selection.iter().map(|w| w.partition.index()).collect();
        assert_ne!(ka, kc);
    }

    #[test]
    fn lss_grid_covers_training_budgets() {
        let sys = tiny_system();
        assert_eq!(sys.lss.strata_by_budget.len(), LSS_BUDGET_GRID.len());
        // Lookup picks the nearest swept budget.
        let s = sys.lss.strata_size_for(0.04);
        assert_eq!(s, sys.lss.strata_by_budget[1].1);
    }

    #[test]
    fn answer_outcome_reports_selection() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let out = sys.answer_seeded(&q, Method::Ps3, 0.25, 0);
        assert!(!out.selection.is_empty());
        assert!(out.meta.picker_ms >= 0.0);
        assert_eq!(out.meta.partitions_read as usize, out.selection.len());
        assert_eq!(out.meta.planned_frac, 0.25);
        // COUNT(*) estimate should be near 160 at a 25% budget with weights.
        let est = out.answer.global(0).unwrap();
        assert!((est - 160.0).abs() < 80.0, "count estimate {est}");
    }

    #[test]
    fn budget_sweep_computes_features_once() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        assert_eq!(sys.feature_cache_stats().misses, 0);
        for frac in LSS_BUDGET_GRID {
            sys.answer_seeded(&q, Method::Ps3, frac, 1);
        }
        let stats = sys.feature_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "a 6-budget sweep must estimate selectivity exactly once"
        );
        assert_eq!(stats.hits, LSS_BUDGET_GRID.len() as u64 - 1);
    }

    #[test]
    fn full_read_is_flagged_exact_with_zero_error() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let out = sys.answer_seeded(&q, Method::Ps3, 1.0, 0);
        assert!(out.meta.exact);
        assert!(out.meta.error_estimate.is_exact());
        assert_eq!(out.answer.global(0).unwrap(), 160.0);
        // A partial read is not exact and reports a real (or NaN) estimate.
        let part = sys.answer_seeded(&q, Method::Ps3, 0.25, 0);
        assert!(!part.meta.exact);
        assert!(!part.meta.error_estimate.is_exact());
    }

    #[test]
    fn selection_exactness_truth_table() {
        let part = |p: usize, weight: f64| WeightedPart {
            partition: ps3_storage::PartitionId(p),
            weight,
        };
        // Partitions 1 and 3 could hold qualifying rows; 0 and 2 cannot.
        let upper = [0.0, 0.4, 0.0, 1.0];
        // Covering at weight 1 (order and extra zero-bound picks are free).
        assert!(selection_is_exact(
            &upper,
            0.5,
            &[part(3, 1.0), part(1, 1.0)]
        ));
        assert!(selection_is_exact(
            &upper,
            0.5,
            &[part(0, 2.0), part(1, 1.0), part(3, 1.0)]
        ));
        // Covering, but one candidate stands for more than itself.
        assert!(!selection_is_exact(
            &upper,
            0.5,
            &[part(1, 1.0), part(3, 2.0)]
        ));
        // One candidate missing: outnumbered, and not outnumbered.
        assert!(!selection_is_exact(&upper, 0.5, &[part(1, 1.0)]));
        assert!(!selection_is_exact(
            &upper,
            0.5,
            &[part(1, 1.0), part(2, 1.0)]
        ));
        // A full read is exact whatever was picked; no candidates, vacuously.
        assert!(selection_is_exact(&upper, 1.0, &[]));
        assert!(selection_is_exact(&[0.0, 0.0], 0.5, &[part(0, 2.0)]));
    }

    #[test]
    fn estimate_tightens_as_the_budget_grows() {
        let sys = tiny_system();
        // SUM(x) with x = row index: per-partition totals differ, so the
        // sample variance is real. (COUNT(*) on equal partitions has zero
        // cross-partition variance and a degenerate 0-width CI.)
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![],
        );
        // Random sampling with HT weights: more partitions, smaller CI.
        let small = sys.answer_seeded(&q, Method::Random, 0.2, 11);
        let large = sys.answer_seeded(&q, Method::Random, 0.8, 11);
        let (s, l) = (
            small.meta.error_estimate.per_agg[0].ci_half_width,
            large.meta.error_estimate.per_agg[0].ci_half_width,
        );
        assert!(s.is_finite() && l.is_finite());
        assert!(l < s, "CI must tighten with budget: {l} !< {s}");
    }

    #[test]
    fn warm_retrain_on_unchanged_table_is_bit_identical_to_prev_generation() {
        let sys = tiny_system();
        let warm = Ps3System::retrain_from(&sys, Arc::clone(&sys.pt), Arc::clone(&sys.stats));
        assert!(
            Arc::ptr_eq(&warm.training, &sys.training),
            "training data is shared, not recomputed"
        );

        // Answers across methods and seeds are bit-identical: the entire
        // query-answer surface carried over unchanged.
        let queries = [
            Query::new(vec![AggExpr::count()], None, vec![]),
            Query::new(
                vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                    ps3_storage::ColId(0),
                ))],
                None,
                vec![ps3_storage::ColId(1)],
            ),
        ];
        for q in &queries {
            for method in Method::ALL {
                for seed in [0u64, 7] {
                    let a = sys.answer_seeded(q, method, 0.25, seed);
                    let b = warm.answer_seeded(q, method, 0.25, seed);
                    assert_eq!(a.answer, b.answer, "{method:?} seed {seed}");
                    assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                }
            }
        }
    }

    #[test]
    fn pick_outcome_and_answer_share_the_feature_cache() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sys.pick_outcome(&q, 0.25, &mut rng);
        assert_eq!(sys.feature_cache_stats().misses, 1);
        let _ = sys.answer_seeded(&q, Method::Ps3, 0.25, 3);
        let stats = sys.feature_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "diagnostics and serving must share one feature computation"
        );
    }

    fn sample_sketch_queries() -> Vec<SketchQuery> {
        vec![
            SketchQuery::percentile(ps3_storage::ColId(0), 0.5),
            SketchQuery::percentile(ps3_storage::ColId(0), 0.9).filtered(
                ps3_query::Predicate::Clause(ps3_query::Clause::Cmp {
                    col: ps3_storage::ColId(0),
                    op: ps3_query::CmpOp::Lt,
                    value: 120.0,
                }),
            ),
            SketchQuery::distinct(ps3_storage::ColId(1)),
            SketchQuery::distinct(ps3_storage::ColId(0)),
            SketchQuery::top_k(ps3_storage::ColId(1), 2),
        ]
    }

    /// The acceptance criterion: the merged sketch over the picked set is
    /// bit-identical (via the codec) to a fresh merge of per-partition
    /// sketches over the same selection in any order, across every picker
    /// method × budget × seed; and a covering selection equals the
    /// single-pass whole-table oracle.
    #[test]
    fn sketch_merges_are_order_invariant_and_covering_merges_match_the_oracle() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);
        let bytes = ps3_sketch::codec::answer_sketch_to_bytes;
        for query in &sample_sketch_queries() {
            let oracle = sys.exact_sketch(query);
            let compiled = CompiledSketchQuery::compile(sys.pt.table(), query);
            for method in Method::ALL {
                for frac in [0.25, 0.5, 1.0] {
                    for seed in [1u64, 7] {
                        let spec = QuerySpec::from(query.clone());
                        let mut rng = spec_rng(&spec, seed);
                        let out = sys.answer_spec_on(&spec, method, frac, &mut rng, &pool);
                        let merged = out.sketch.as_ref().expect("sketch answers carry a sketch");

                        // Re-merge the same selection in reverse order:
                        // confluence makes the result bit-identical.
                        let mut reversed = compiled.empty_sketch();
                        for wp in out.selection.iter().rev() {
                            reversed.merge_from(
                                &compiled
                                    .sketch_partition(sys.pt.table(), sys.pt.rows(wp.partition)),
                            );
                        }
                        assert_eq!(
                            bytes(merged),
                            bytes(&reversed),
                            "{method:?} frac {frac} seed {seed}: merge order leaked into bytes"
                        );

                        if frac >= 1.0 {
                            assert_eq!(
                                bytes(merged),
                                bytes(&oracle),
                                "{method:?} seed {seed}: covering merge != single-pass oracle"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sketch_answers_are_deterministic_functions_of_the_request() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);
        for query in &sample_sketch_queries() {
            let spec = QuerySpec::from(query.clone());
            let mut rng_a = spec_rng(&spec, 42);
            let mut rng_b = spec_rng(&spec, 42);
            let a = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng_a, &pool);
            let b = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng_b, &pool);
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.sketch, b.sketch);
            assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
        }
    }

    #[test]
    fn covering_sketch_answers_report_honest_error_classes() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);

        // PERCENTILE: finite CI at full coverage, never flagged exact
        // (the sketch itself approximates). Value: median of 0..160.
        let spec = QuerySpec::from(SketchQuery::percentile(ps3_storage::ColId(0), 0.5));
        let mut rng = spec_rng(&spec, 3);
        let out = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        let v = out.answer.groups[&ps3_query::GroupKey::global()][0];
        assert!((v - 79.5).abs() < 8.0, "median of 0..160 ≈ 79.5, got {v}");
        assert!(!out.meta.exact);
        assert!(out.meta.error_estimate.per_agg[0].ci_half_width.is_finite());

        // DISTINCT: covering → the standard HLL relative error; partial →
        // an honest NaN (unscalable), never a made-up number.
        let spec = QuerySpec::from(SketchQuery::distinct(ps3_storage::ColId(1)));
        let mut rng = spec_rng(&spec, 3);
        let full = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        let d = full.answer.groups[&ps3_query::GroupKey::global()][0];
        assert!((d - 2.0).abs() < 0.5, "two categories, got {d}");
        let rel = full.meta.error_estimate.rel_err;
        assert!((rel - 1.96 * DistinctSketch::standard_error()).abs() < 1e-12);
        let mut rng = spec_rng(&spec, 3);
        let part = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng, &pool);
        assert!(
            part.meta.error_estimate.rel_err.is_nan(),
            "partial distinct coverage must report no signal"
        );

        // TOP_K: counts are exact in the sketch, so a covering read is an
        // exact answer with the true per-key counts.
        let spec = QuerySpec::from(SketchQuery::top_k(ps3_storage::ColId(1), 2));
        let mut rng = spec_rng(&spec, 3);
        let out = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        assert!(out.meta.exact);
        assert!(out.meta.error_estimate.is_exact());
        // 160 rows split 80/80 over dictionary codes 0 and 1.
        for code in [0u64, 1] {
            let key = ps3_query::GroupKey(Box::new([code]));
            assert_eq!(out.answer.groups[&key], vec![80.0], "code {code}");
        }
    }

    /// Answer, selection, every `meta` field but the wall-clock
    /// `picker_ms`, and the sketch's codec bytes, as comparable bits.
    fn outcome_bits(out: &AnswerOutcome) -> impl PartialEq + std::fmt::Debug {
        let bits = |vals: &Vec<f64>| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let rows: Vec<_> = (out.answer.groups.iter())
            .map(|(key, vals)| (key.clone(), bits(vals)))
            .collect();
        let selection: Vec<_> = (out.selection.iter())
            .map(|wp| (wp.partition.index(), wp.weight.to_bits()))
            .collect();
        let AnswerMeta {
            partitions_read,
            picker_ms: _,
            error_estimate,
            planned_frac,
            exact,
        } = out.meta.clone();
        let meta = (
            partitions_read,
            error_estimate,
            planned_frac.to_bits(),
            exact,
        );
        let sketch = (out.sketch.as_ref()).map(ps3_sketch::codec::answer_sketch_to_bytes);
        (rows, selection, meta, sketch)
    }

    /// The one identity table for the one pipeline: across methods ×
    /// fractions × seeds × query classes, the outcome is the same bits on a
    /// 1-worker pool, on a 4-worker pool (which a full read of this table
    /// really fans out over), and with a sink attached; the sink sees a
    /// strictly refining stream for scalar specs and nothing for sketch
    /// specs.
    #[test]
    fn one_pipeline_is_bit_identical_across_pools_and_sinks() {
        let sys = system_of(ps3_query::exec::PARALLEL_EXEC_MIN_ROWS as u32 + 64);
        let (solo, wide) = (ThreadPool::new(1), ThreadPool::new(4));
        let (x, g) = (ps3_storage::ColId(0), ps3_storage::ColId(1));
        let sum_by_g = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(x))],
            None,
            vec![g],
        );
        let specs: [QuerySpec; 4] = [
            sum_by_g.into(),
            SketchQuery::percentile(x, 0.5).into(),
            SketchQuery::distinct(x).into(),
            SketchQuery::top_k(g, 2).into(),
        ];
        // One case: returns how many refinements the sink saw.
        let check = |spec: &QuerySpec, method, frac, seed| {
            let case = format!("{spec:?} {method:?} frac {frac} seed {seed}");
            let mut updates = Vec::new();
            let mut sink = |u: ProgressUpdate| updates.push(u);
            let on = |pool, sink| {
                let mut rng = spec_rng(spec, seed);
                sys.answer_spec_sink_on(spec, method, frac, &mut rng, pool, sink)
            };
            let reference = outcome_bits(&on(&solo, None));
            assert_eq!(
                reference,
                outcome_bits(&on(&wide, None)),
                "{case}: 4 workers"
            );
            let listened = on(&wide, Some(&mut sink));
            assert_eq!(reference, outcome_bits(&listened), "{case}: with a sink");
            assert_eq!(listened.sketch.is_some(), spec.as_sketch().is_some());
            if spec.as_sketch().is_some() {
                assert!(updates.is_empty(), "{case}: sketch specs do not refine");
            }
            let mut prev_done = 0;
            for (i, u) in updates.iter().enumerate() {
                assert_eq!(u.seq as usize, i, "{case}: seq strictly increasing");
                assert!(u.partitions_done > prev_done, "{case}: monotone");
                assert!(u.partitions_done < u.partitions_total, "{case}: final");
                assert_eq!(u.partitions_total, listened.meta.partitions_read);
                prev_done = u.partitions_done;
            }
            updates.len()
        };
        let mut refined = 0;
        for spec in &specs {
            for method in Method::ALL {
                for frac in [0.1, 0.5, 1.0] {
                    for seed in [0u64, 7, 9] {
                        refined += check(spec, method, frac, seed);
                    }
                }
            }
        }
        assert!(refined > 0, "multi-partition scalar reads must refine");
        assert!(wide.tasks_injected() > 0, "full reads must fan out");
        assert_eq!(solo.tasks_injected(), 0, "one worker runs on the caller");
    }

    /// One fan-out policy for every class: 16 ten-row partitions are far
    /// under `PARALLEL_EXEC_MIN_ROWS`, so a sketch query hands the pool
    /// nothing — exactly like a scalar query on the same rows.
    #[test]
    fn tiny_table_sketch_answers_skip_the_pool_hand_off() {
        let sys = tiny_system();
        let spec = QuerySpec::from(SketchQuery::percentile(ps3_storage::ColId(0), 0.5));
        let (solo, wide) = (ThreadPool::new(1), ThreadPool::new(4));
        let on = |pool| sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut spec_rng(&spec, 3), pool);
        let pooled = on(&wide);
        assert_eq!(pooled.selection.len(), 16);
        assert_eq!(wide.tasks_injected(), 0, "160 rows must run on the caller");
        assert_eq!(outcome_bits(&on(&solo)), outcome_bits(&pooled));
    }
}
