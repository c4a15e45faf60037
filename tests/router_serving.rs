//! Acceptance tests for the multi-tenant serving front end
//! (router → queue → pumps → systems):
//!
//! (a) the same `(table, query, method, frac, seed)` routed through the
//!     bounded queue by 8 concurrent tenants is bit-identical to a direct
//!     `Ps3System::answer_spec_on` call;
//! (b) re-running a 6-budget sweep after a warm first run performs zero
//!     additional partition executions (answer-cache counters prove it);
//! (c) submissions beyond queue capacity observe backpressure
//!     (`try_submit` rejects, `submit` blocks then completes) and shutdown
//!     drains everything already accepted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ps3::core::{spec_rng, Method, Ps3Config, Ps3System, QueryRequest, RouteError, Router, Ticket};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::QuerySpec;

fn trained(kind: DatasetKind, seed: u64) -> (Dataset, Arc<Ps3System>) {
    let ds = DatasetConfig::new(kind, ScaleProfile::Tiny).build(seed);
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    let system = Arc::new(ds.train_system(cfg));
    (ds, system)
}

fn selection_bits(out: &ps3::core::AnswerOutcome) -> Vec<(usize, u64)> {
    out.selection
        .iter()
        .map(|w| (w.partition.index(), w.weight.to_bits()))
        .collect()
}

/// (a) Eight tenants hammer one request through the queue concurrently;
/// every ticket matches a direct, cache-free `answer_spec_on` bit for bit.
#[test]
fn eight_concurrent_tenants_through_the_queue_match_direct_execution() {
    let (ds, system) = trained(DatasetKind::Aria, 31);
    let router = Router::builder()
        .table("aria", Arc::clone(&system))
        .queue_capacity(64)
        .build();

    let reqs: Arc<Vec<QueryRequest>> = Arc::new(
        (0..4)
            .map(|i| {
                QueryRequest::new(ds.sample_test_query(i), Method::Ps3, 0.2, 42).on_table("aria")
            })
            .collect(),
    );
    // The ground truth: direct execution on the system, no router, no
    // caches, fresh RNG per call.
    let direct: Arc<Vec<_>> = Arc::new(
        reqs.iter()
            .map(|r| {
                let mut rng = spec_rng(&r.query, r.seed);
                let frac = r.budget.as_fraction().expect("explicit fraction");
                system.answer_spec_on(&r.query, r.method, frac, &mut rng, router.pool())
            })
            .collect(),
    );

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let tenant = router.tenant(format!("tenant-{t}"), Some(4));
            let reqs = Arc::clone(&reqs);
            let direct = Arc::clone(&direct);
            thread::spawn(move || {
                for k in 0..reqs.len() * 3 {
                    let i = (k + t) % reqs.len();
                    let out = tenant.submit(reqs[i].clone()).expect("open").wait();
                    assert_eq!(
                        out.answer, direct[i].answer,
                        "tenant {t}: request {i} diverged from direct answer_spec_on"
                    );
                    assert_eq!(
                        selection_bits(&out),
                        selection_bits(&direct[i]),
                        "tenant {t}: selection {i} diverged"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("tenant thread panicked");
    }
    router.shutdown();
}

/// (b) A warm 6-budget sweep performs zero additional partition
/// executions: the answer cache serves every budget.
#[test]
fn warm_budget_sweep_executes_nothing() {
    let (ds, system) = trained(DatasetKind::Aria, 32);
    let router = Router::single(system);
    let table = router.table_id("default").expect("single-table router");
    let budgets = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
    let query = ds.sample_test_query(2);
    let sweep = || -> Vec<_> {
        budgets
            .iter()
            .map(|&frac| router.answer_now(table, &QueryRequest::ps3(query.clone(), frac, 7)))
            .collect()
    };

    let cold = sweep();
    let after_cold = router.stats();
    assert_eq!(
        after_cold.executions,
        budgets.len() as u64,
        "cold sweep executes each budget once"
    );

    let warm = sweep();
    let after_warm = router.stats();
    assert_eq!(
        after_warm.executions, after_cold.executions,
        "warm sweep must perform zero additional partition executions"
    );
    assert_eq!(
        after_warm.answers.hits,
        after_cold.answers.hits + budgets.len() as u64,
        "every warm budget must be an answer-cache hit"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.answer, w.answer, "cached replay must be bit-identical");
        assert_eq!(selection_bits(c), selection_bits(w));
    }
}

/// (c) Backpressure and graceful shutdown, deterministically: a router
/// with no pumps never drains on its own, so capacity arithmetic is exact.
#[test]
fn queue_backpressure_and_shutdown_drain() {
    let (ds, system) = trained(DatasetKind::Aria, 33);
    let router = Router::builder()
        .table("aria", Arc::clone(&system))
        .queue_capacity(2)
        .pump_workers(0)
        .build();
    let tenant = router.tenant("pushy", None);
    let req = |seed: u64| QueryRequest::ps3(ds.sample_test_query(0), 0.2, seed).on_table("aria");

    // Fill the queue, then observe try_submit rejecting.
    let t1 = tenant.try_submit(req(1)).expect("slot 1");
    let t2 = tenant.try_submit(req(2)).expect("slot 2");
    let rejected = tenant.try_submit(req(3));
    match rejected {
        Err(RouteError::QueueFull(r)) => assert_eq!(r.seed, 3, "request rides back"),
        other => panic!("expected QueueFull, got {:?}", other.map(|_| "ticket")),
    }

    // A blocking submit parks: nothing drains this queue, so the submitter
    // cannot have completed until we free a slot.
    let enqueued = Arc::new(AtomicBool::new(false));
    let submitter = {
        let tenant = tenant.clone();
        let enqueued = Arc::clone(&enqueued);
        let req = req(4);
        thread::spawn(move || {
            let ticket = tenant
                .submit(req)
                .expect("submit must complete once space frees");
            enqueued.store(true, Ordering::SeqCst);
            ticket
        })
    };
    thread::sleep(Duration::from_millis(50));
    assert!(
        !enqueued.load(Ordering::SeqCst),
        "submit must block while the queue is at capacity"
    );

    // Caller-helping drains one job; the blocked submit completes.
    assert_eq!(router.drain_queued(1), 1);
    let t4: Ticket = submitter.join().expect("submitter thread");
    assert!(enqueued.load(Ordering::SeqCst));
    assert_eq!(router.queue_len(), 2, "slot 4 took the freed capacity");

    // Graceful shutdown: everything accepted is executed, nothing hangs.
    router.shutdown();
    assert_eq!(router.queue_len(), 0);
    assert_eq!(router.stats().in_flight, 0);
    for ticket in [t1, t2, t4] {
        assert!(
            ticket.wait().answer.num_groups() > 0,
            "accepted work served"
        );
    }
    assert!(
        matches!(tenant.submit(req(9)), Err(RouteError::Closed(_))),
        "post-shutdown submissions are refused"
    );
}

/// Cross-table routing: two differently-shaped tables behind one router,
/// each request lands on the right system, and unknown routes fail clean.
#[test]
fn multi_table_routing_hits_the_right_system() {
    let (aria_ds, aria) = trained(DatasetKind::Aria, 34);
    let (tpch_ds, tpch) = trained(DatasetKind::TpcH, 35);
    let router = Router::builder()
        .table("telemetry", Arc::clone(&aria))
        .table("lineitem", Arc::clone(&tpch))
        .build();
    let tenant = router.tenant("dashboards", Some(8));

    for i in 0..3 {
        let qa = aria_ds.sample_test_query(i);
        let qt = tpch_ds.sample_test_query(i);
        let out_a = tenant
            .submit(QueryRequest::ps3(qa.clone(), 0.25, 5).on_table("telemetry"))
            .expect("open")
            .wait();
        let out_t = tenant
            .submit(QueryRequest::ps3(qt.clone(), 0.25, 5).on_table("lineitem"))
            .expect("open")
            .wait();
        let (qa, qt) = (QuerySpec::from(qa), QuerySpec::from(qt));
        let mut rng = spec_rng(&qa, 5);
        let direct_a = aria.answer_spec_on(&qa, Method::Ps3, 0.25, &mut rng, router.pool());
        let mut rng = spec_rng(&qt, 5);
        let direct_t = tpch.answer_spec_on(&qt, Method::Ps3, 0.25, &mut rng, router.pool());
        assert_eq!(out_a.answer, direct_a.answer, "telemetry query {i}");
        assert_eq!(out_t.answer, direct_t.answer, "lineitem query {i}");
    }

    // Default routes are ambiguous on a multi-table router, and unknown
    // names are refused with the request handed back.
    let q = aria_ds.sample_test_query(0);
    assert!(matches!(
        tenant.submit(QueryRequest::ps3(q.clone(), 0.25, 1)),
        Err(RouteError::UnknownTable(_))
    ));
    assert!(matches!(
        tenant.submit(QueryRequest::ps3(q, 0.25, 1).on_table("nope")),
        Err(RouteError::UnknownTable(_))
    ));
    router.shutdown();
}
