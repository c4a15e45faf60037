//! Concurrency contract of the serving layer: one trained
//! `Arc<Ps3System>` shared by many threads answers every seeded request
//! bit-identically to a single-threaded reference, the bounded feature
//! cache computes features once per query shape, and eviction under
//! pressure never perturbs an answer. Loom-free by design: determinism is
//! checked end to end through real threads (`std::thread::spawn` — the
//! pool owns the only `thread::scope` in the workspace).

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use ps3::core::{Method, Ps3Config, Ps3System, QueryRequest, Router};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::exec::{PARALLEL_EXEC_MIN_PARTS, PARALLEL_EXEC_MIN_ROWS};
use ps3::runtime::ThreadPool;

fn trained(seed: u64, cache_cap: usize) -> (Dataset, Arc<Ps3System>) {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(seed);
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    cfg.feature_cache_cap = cache_cap;
    let system = Arc::new(ds.train_system(cfg));
    (ds, system)
}

/// The acceptance bar of the shared-nothing refactor: the same
/// (query, seed, budget) request returns a bit-identical `QueryAnswer`
/// from 8 threads sharing one `Arc<Ps3System>`.
#[test]
fn eight_threads_share_one_system_with_bit_identical_answers() {
    let (ds, system) = trained(21, 256);
    let router = Router::single(system);
    let table = router.table_id("default").expect("single-table router");

    let reqs: Arc<Vec<QueryRequest>> = Arc::new(
        (0..6)
            .flat_map(|i| {
                let q = ds.sample_test_query(i);
                [
                    QueryRequest::ps3(q.clone(), 0.2, 42),
                    QueryRequest::new(q, Method::Lss, 0.1, 7),
                ]
            })
            .collect(),
    );
    // Single-threaded reference answers.
    let expected: Arc<Vec<_>> =
        Arc::new(reqs.iter().map(|r| router.answer_now(table, r)).collect());

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let router = Arc::clone(&router);
            let reqs = Arc::clone(&reqs);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                // Each thread walks the requests in a different order so
                // cache hits/misses interleave differently per thread.
                for k in 0..reqs.len() {
                    let i = (k + t * 5) % reqs.len();
                    let out = router.answer_now(table, &reqs[i]);
                    assert_eq!(
                        out.answer, expected[i].answer,
                        "thread {t}: request {i} diverged from the single-thread reference"
                    );
                    let sel: Vec<(usize, u64)> = out
                        .selection
                        .iter()
                        .map(|w| (w.partition.index(), w.weight.to_bits()))
                        .collect();
                    let exp_sel: Vec<(usize, u64)> = expected[i]
                        .selection
                        .iter()
                        .map(|w| (w.partition.index(), w.weight.to_bits()))
                        .collect();
                    assert_eq!(sel, exp_sel, "thread {t}: selection {i} diverged");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("serving thread panicked");
    }
}

/// The cache acceptance bar: a 6-budget sweep estimates a query's
/// selectivity (one `artifacts_for` miss) exactly once per query.
#[test]
fn budget_sweep_computes_features_once_per_query() {
    let (ds, system) = trained(22, 256);
    let router = Router::single(Arc::clone(&system));
    let table = router.table_id("default").expect("single-table router");
    let budgets = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

    assert_eq!(system.feature_cache_stats().misses, 0);
    let queries: Vec<_> = (0..4).map(|i| ds.sample_test_query(i)).collect();
    for (i, q) in queries.iter().enumerate() {
        let outs: Vec<_> = budgets
            .iter()
            .map(|&frac| router.answer_now(table, &QueryRequest::ps3(q.clone(), frac, i as u64)))
            .collect();
        assert_eq!(outs.len(), budgets.len());
    }
    let stats = system.feature_cache_stats();
    assert_eq!(
        stats.misses,
        queries.len() as u64,
        "each query's 6-budget sweep must compute features exactly once"
    );
    // Each sweep's first budget computes the artifacts (the miss above);
    // every later budget's execution resolves them from the cache.
    assert_eq!(
        stats.hits,
        (queries.len() * (budgets.len() - 1)) as u64,
        "every post-warm lookup must hit the cache"
    );
}

/// The size guard on what the cache holds: at the benchmark's 512
/// partitions (466 features wide) one entry owns only what the query adds —
/// its column map, the 512 × 4 normalized selectivity block and the raw
/// upper bounds, about 21 KB — and stays under 64 KiB, so the shipped
/// 256-entry cache holds ~6 MB. The normalized static rows are one shared
/// table, gathered at pick time and never counted per entry; an entry that
/// kept its own gathered matrix was ~410 KB.
#[test]
fn a_cache_entry_on_a_512_partition_table_stays_under_64_kibibytes() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_partitions(512)
        .with_rows(512 * 16)
        .build(24);
    let mut cfg = Ps3Config::default().with_seed(24);
    cfg.gbdt.n_trees = 2;
    cfg.feature_selection = false;
    let system = Ps3System::train(
        Arc::clone(&ds.pt),
        Arc::clone(&ds.stats),
        &ds.train_queries[..4],
        cfg,
    );
    let full_width = ds.stats.feature_schema().dim();
    assert_eq!(full_width, 466);
    for q in &ds.test_queries {
        let entry = system.artifacts_for(q);
        assert_eq!(entry.columns.upper().len(), 512);
        assert!(
            entry.heap_bytes() < 64 << 10,
            "{} bytes cached for one query",
            entry.heap_bytes(),
        );
    }
}

/// The size guard on what a served table holds beside its sketches: the
/// selectivity index, derived from them and never stored, stays under 60%
/// of their bytes. It measures 44% (1.87 MB) on this 512-partition table,
/// whose 16-row partitions keep nearly every value in an exact dictionary;
/// at the benchmark's 512 rows a partition it is 28% (3.56 MiB).
#[test]
fn the_selectivity_index_stays_under_60_percent_of_the_sketch_bytes() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_partitions(512)
        .with_rows(512 * 16)
        .build(24);
    let sketch_bytes = ds.stats.storage_breakdown().total_kb() * 1024.0 * 512.0;
    let index_bytes = ds.stats.selectivity_index_bytes() as f64;
    assert!(
        index_bytes < 0.6 * sketch_bytes,
        "selectivity index: {index_bytes} bytes beside {sketch_bytes} of sketches"
    );
}

/// Eviction pressure: a cache far smaller than the working set still
/// serves deterministic answers from many threads, and stays bounded.
#[test]
fn tiny_cache_under_concurrent_pressure_stays_correct_and_bounded() {
    let (ds, system) = trained(23, 4);
    let router = Router::single(Arc::clone(&system));
    let table = router.table_id("default").expect("single-table router");

    let reqs: Arc<Vec<QueryRequest>> = Arc::new(
        (0..12)
            .map(|i| QueryRequest::ps3(ds.sample_test_query(i), 0.15, i as u64))
            .collect(),
    );
    let expected: Arc<Vec<_>> =
        Arc::new(reqs.iter().map(|r| router.answer_now(table, r)).collect());

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let router = Arc::clone(&router);
            let reqs = Arc::clone(&reqs);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                for round in 0..3 {
                    for k in 0..reqs.len() {
                        let i = (k + t + round) % reqs.len();
                        let out = router.answer_now(table, &reqs[i]);
                        assert_eq!(
                            out.answer, expected[i].answer,
                            "thread {t} round {round}: eviction perturbed request {i}"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("stress thread panicked");
    }

    let stats = system.feature_cache_stats();
    assert!(
        stats.len <= 4,
        "cache exceeded its bound: {} entries",
        stats.len
    );
    assert!(stats.misses >= 12, "12 shapes cannot fit in 4 slots");
}

/// Batch serving fans out over the pool but keeps request order, matching
/// the one-at-a-time path exactly.
#[test]
fn answer_many_matches_sequential_answers() {
    let (ds, system) = trained(24, 256);
    let router = Router::single(system);
    let table = router.table_id("default").expect("single-table router");
    let reqs: Vec<QueryRequest> = (0..10)
        .map(|i| QueryRequest::ps3(ds.sample_test_query(i), 0.25, 100 + i as u64))
        .collect();
    let batch = router.pool().map(&reqs, |r| router.answer_now(table, r));
    assert_eq!(batch.len(), reqs.len());
    for (req, out) in reqs.iter().zip(&batch) {
        let solo = router.answer_now(table, req);
        assert_eq!(out.answer, solo.answer, "seed {}", req.seed);
    }
}

/// A batch that repeats one cold key, fanned out over the router's own
/// pool, returns. Each execution fans its partitions out over that pool and
/// helps run queued tasks while it waits, so the thread leading the key's
/// flight can pick up a duplicate of the key it leads: that duplicate must
/// run, not wait on its own thread. 16 of 32 partitions × 4,096 rows
/// crosses both parallel-execution thresholds, so every execution really
/// fans out. The batch runs on its own thread under a bound, so a
/// regression fails instead of hanging.
#[test]
fn a_batch_repeating_a_cold_key_over_the_routers_pool_returns() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_partitions(32)
        .with_rows(32 * 4096)
        .build(25);
    let mut cfg = Ps3Config::default().with_seed(25);
    cfg.gbdt.n_trees = 2;
    cfg.feature_selection = false;
    let (pt, stats) = (Arc::clone(&ds.pt), Arc::clone(&ds.stats));
    let system = Arc::new(Ps3System::train(pt, stats, &ds.train_queries[..4], cfg));
    let pool = Arc::new(ThreadPool::new(2));
    let router = Router::builder()
        .table("t", Arc::clone(&system))
        .exec_pool(pool)
        .build();
    let table = router.table_id("t").expect("registered");
    let req = QueryRequest::new(ds.sample_test_query(0), Method::Random, 0.5, 7);
    let reqs = vec![req.clone(); 8];

    let (tx, rx) = mpsc::channel();
    let batcher = Arc::clone(&router);
    thread::spawn(move || tx.send(batcher.pool().map(&reqs, |r| batcher.answer_now(table, r))));
    let batch = rx.recv_timeout(Duration::from_secs(60));
    let batch = batch.expect("a batch repeating a cold key must not wait on itself");

    let fresh = Router::single(system);
    let solo = fresh.answer_now(fresh.table_id("default").unwrap(), &req);
    let parts = solo.selection.len();
    assert!(parts >= PARALLEL_EXEC_MIN_PARTS && parts * 4096 >= PARALLEL_EXEC_MIN_ROWS);
    for out in &batch {
        assert_eq!(out.answer, solo.answer);
        assert_eq!(out.meta.error_estimate, solo.meta.error_estimate);
    }
}
