//! Planner honesty, end to end: declarative error budgets are kept
//! against ground truth, and progressive streams refine monotonically
//! into a bit-identical final answer.
//!
//! (a) For a grid of seeded held-out queries, `with_error_target(t)`
//!     answers whose planner had signal actually land within `t` of the
//!     exact (full-read) answer on ≥ 90% of the grid — the reported
//!     confidence intervals are estimates, not decorations;
//! (b) a progressive request over the wire streams partials whose
//!     coverage strictly grows, and its final frame is bit-identical to
//!     both a one-shot wire request and direct in-process execution.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::sync::Arc;

use ps3::core::{spec_rng, Method, Ps3Config, QueryRequest, Router, PLAN_GRID};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::net::{NetClient, NetServer};
use ps3::query::{Query, QueryAnswer, QuerySpec, SketchFunc, SketchQuery};
use ps3::storage::ColId;

/// Canonical bit-exact view of an answer: sorted key words → value bits.
fn answer_bits(answer: &QueryAnswer) -> BTreeMap<Vec<u64>, Vec<u64>> {
    answer
        .groups
        .iter()
        .map(|(k, v)| (k.0.to_vec(), v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

/// The query with its GROUP BY stripped, so every answer has one global
/// group and "relative error" is single-valued per aggregate.
fn globalized(q: &Query) -> Query {
    Query {
        aggregates: q.aggregates.clone(),
        predicate: q.predicate.clone(),
        group_by: vec![],
    }
}

#[test]
fn error_targets_are_met_against_ground_truth_on_the_held_out_grid() {
    const TARGET: f64 = 0.2;
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(7);
    let mut cfg = Ps3Config::default().with_seed(7);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    let system = Arc::new(ds.train_system(cfg));
    let router = Router::single(Arc::clone(&system));
    let table = router.table_id("default").expect("single-table router");

    let mut judged = 0u32;
    let mut met = 0u32;
    let mut planned = 0u32;
    for i in 0..10 {
        let query = globalized(&ds.sample_test_query(i));
        let seed = 40 + i as u64;
        let req =
            QueryRequest::new(query.clone(), Method::Random, 1.0, seed).with_error_target(TARGET);
        let (out, plan) = router.answer_planned(table, &req);
        assert_eq!(
            out.meta.planned_frac, plan.frac,
            "the answer reports the fraction the planner chose"
        );
        assert!(plan.frac > 0.0 && plan.frac <= 1.0);
        if plan.planned {
            planned += 1;
            assert!(plan.probes >= 1, "a planned budget spent probes");
        }

        // Ground truth: the same query at the full fraction is exact.
        let exact_req = QueryRequest::new(query.clone(), Method::Random, 1.0, seed);
        let exact = router.answer_now(table, &exact_req);
        assert!(exact.meta.exact, "frac 1.0 reads every partition");

        // A query only judges the grid when the planner claimed signal and
        // ground truth gives a nonzero denominator.
        if !plan.planned {
            continue;
        }
        let mut worst: Option<f64> = None;
        for agg in 0..query.aggregates.len() {
            let (Some(est), Some(truth)) = (out.answer.global(agg), exact.answer.global(agg))
            else {
                continue;
            };
            if !truth.is_finite() || truth == 0.0 || !est.is_finite() {
                continue;
            }
            let rel = (est - truth).abs() / truth.abs();
            worst = Some(worst.map_or(rel, |w: f64| w.max(rel)));
        }
        if let Some(worst) = worst {
            judged += 1;
            if worst <= TARGET {
                met += 1;
            }
        }
    }

    assert!(
        planned >= 7,
        "the planner found signal on most of the grid (planned {planned}/10)"
    );
    assert!(
        judged >= 7,
        "ground truth judged most of the grid (judged {judged}/10)"
    );
    assert!(
        met * 10 >= judged * 9,
        "error targets held on {met}/{judged} judged queries (< 90%)"
    );

    let stats = router.stats().planner;
    assert_eq!(stats.plans as u32, planned, "one plan per planned answer");
    assert!(stats.probes >= stats.plans, "plans spend probe executions");
}

/// (a) for the sketch classes: `with_error_target` plans PERCENTILE /
/// COUNT(DISTINCT) / TOP_K through the same probe search, the planned
/// answers land within the target of the covering-read ground truth, and
/// DISTINCT — whose partial merges honestly report NaN (undercounts have
/// no bounded error) — escalates to the covering rung instead of
/// pretending a partial merge extrapolates.
#[test]
fn sketch_error_targets_plan_and_answer_honestly() {
    const TARGET: f64 = 0.25;
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(11);
    let mut cfg = Ps3Config::default().with_seed(11);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    let system = Arc::new(ds.train_system(cfg));
    let router = Router::single(Arc::clone(&system));
    let table = router.table_id("default").expect("single-table router");

    // Aria (appendix A): cols 0..=6 numeric, 7..=10 categorical.
    let specs: Vec<QuerySpec> = vec![
        // Col 6 (IngestionTime) would be adversarial here: timestamps
        // correlate with partition order, so a small random partition
        // sample biases the median in a way no within-sample rank CI can
        // see. The count/size columns mix across partitions.
        SketchQuery::percentile(ColId(0), 0.5).into(),
        SketchQuery::percentile(ColId(3), 0.9).into(),
        SketchQuery::distinct(ColId(7)).into(),
        SketchQuery::distinct(ColId(9)).into(),
        SketchQuery::top_k(ColId(7), 3).into(),
        SketchQuery::top_k(ColId(10), 2).into(),
    ];

    let mut judged = 0u32;
    let mut met = 0u32;
    for (i, spec) in specs.iter().enumerate() {
        let seed = 60 + i as u64;
        let req =
            QueryRequest::new(spec.clone(), Method::Random, 1.0, seed).with_error_target(TARGET);
        let (out, plan) = router.answer_planned(table, &req);
        assert_eq!(out.meta.planned_frac, plan.frac);
        assert!(plan.frac > 0.0 && plan.frac <= 1.0);
        assert!(
            plan.planned,
            "sketch class found no planner signal: {spec:?}"
        );
        assert!(plan.probes >= 1, "a planned budget spent probes");

        if matches!(spec, QuerySpec::Sketch(q) if q.func == SketchFunc::Distinct) {
            assert_eq!(
                plan.frac,
                *PLAN_GRID.last().unwrap(),
                "partial DISTINCT merges report NaN, so the planner must \
                 escalate to the covering rung"
            );
        }

        // Ground truth: the covering read. (For PERCENTILE and DISTINCT
        // this is the single-pass whole-table sketch — the oracle the
        // approximation is judged against; for TOP_K it is exact.)
        let truth_req = QueryRequest::new(spec.clone(), Method::Random, 1.0, seed);
        let truth = router.answer_now(table, &truth_req);

        // Judge every group the truth ranks that the planned answer also
        // produced (TOP_K at a partial budget may rank a different tail).
        for (key, tv) in &truth.answer.groups {
            let (Some(est), truth_v) = (out.answer.groups.get(key).map(|v| v[0]), tv[0]) else {
                continue;
            };
            if !truth_v.is_finite() || truth_v == 0.0 || !est.is_finite() {
                continue;
            }
            judged += 1;
            if (est - truth_v).abs() / truth_v.abs() <= TARGET {
                met += 1;
            }
        }
    }

    assert!(
        judged >= specs.len() as u32,
        "ground truth judged at least one group per query (judged {judged})"
    );
    assert!(
        met * 10 >= judged * 9,
        "sketch error targets held on {met}/{judged} judged groups (< 90%)"
    );

    let stats = router.stats().planner;
    assert_eq!(stats.plans as u32, specs.len() as u32);
    assert!(stats.probes >= stats.plans);
    router.shutdown();
}

#[test]
fn progressive_streams_grow_monotonically_and_finish_bit_identical() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(9);
    let mut cfg = Ps3Config::default().with_seed(9);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    let system = Arc::new(ds.train_system(cfg));
    let router = Router::builder()
        .table("telemetry", Arc::clone(&system))
        .build();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let query = ds.sample_test_query(2);
    let req = QueryRequest::new(query.clone(), Method::Random, 0.5, 77).on_table("telemetry");
    let streamed = client.request_streaming(&req).expect("streamed");

    // A cold half-budget read over 64 partitions streams real refinements.
    assert!(
        !streamed.partials.is_empty(),
        "a cold progressive request streams partials"
    );
    let total = streamed.partials[0].partitions_total;
    assert_eq!(
        total as usize, streamed.answer.meta.partitions_read as usize,
        "partials count down the same selection the final answer reads"
    );
    let mut last_done = 0;
    for (i, p) in streamed.partials.iter().enumerate() {
        assert_eq!(p.seq as usize, i, "contiguous stream sequence");
        assert!(
            p.partitions_done > last_done,
            "each partial covers strictly more partitions"
        );
        assert!(
            p.partitions_done < total,
            "the full prefix arrives as the final response, never a partial"
        );
        assert_eq!(p.partitions_total, total);
        last_done = p.partitions_done;
    }

    // The final frame is bit-identical to direct in-process execution…
    let mut rng = spec_rng(&req.query, req.seed);
    let direct = system.answer_spec_on(&req.query, Method::Random, 0.5, &mut rng, router.pool());
    assert_eq!(
        answer_bits(&streamed.answer.answer),
        answer_bits(&direct.answer),
        "the final streamed frame matches answer_spec_on bit for bit"
    );

    // …and to a one-shot wire request, which is now a cache hit and
    // therefore streams nothing.
    let one_shot = client.request(&req).expect("served");
    assert_eq!(
        answer_bits(&one_shot.answer),
        answer_bits(&streamed.answer.answer)
    );
    let warm = client.request_streaming(&req).expect("warm stream");
    assert!(
        warm.partials.is_empty(),
        "a cache hit answers in a single frame"
    );
    assert_eq!(
        answer_bits(&warm.answer.answer),
        answer_bits(&streamed.answer.answer)
    );

    drop(server);
    router.shutdown();
}
