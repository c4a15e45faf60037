//! Behavioral tests of the picker's decision rules (Algorithm 1 + the
//! Appendix-B.1 fallbacks), observed through its public diagnostics.

use ps3::core::{Method, Ps3Config};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_config(seed: u64) -> Ps3Config {
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 8;
    cfg.feature_selection = false;
    cfg
}

#[test]
fn complex_predicates_skip_clustering() {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(1);
    let system = ds.train_system(fast_config(1));
    let mut rng = StdRng::seed_from_u64(1);
    let schema = ds.pt.table().schema();
    let col = schema.expect_col("src_bytes");
    // 12 clauses > the 10-clause fallback limit.
    let clauses: Vec<Clause> = (0..12)
        .map(|i| Clause::Cmp {
            col,
            op: CmpOp::Ge,
            value: f64::from(i),
        })
        .collect();
    let q = Query::new(
        vec![AggExpr::count()],
        Some(Predicate::all(clauses)),
        vec![],
    );
    let out = system.pick_outcome(&q, 0.3, &mut rng);
    assert_eq!(
        out.clustering_ms, 0.0,
        "Appendix B.1: >10 clauses must fall back to random sampling"
    );
    assert!(!out.selection.is_empty());

    // A simple predicate on the same column does cluster.
    let q = Query::new(
        vec![AggExpr::count()],
        Some(Predicate::Clause(Clause::Cmp {
            col,
            op: CmpOp::Ge,
            value: 0.0,
        })),
        vec![],
    );
    let out = system.pick_outcome(&q, 0.3, &mut rng);
    assert!(out.clustering_ms > 0.0, "simple predicates should cluster");
}

#[test]
fn filter_excludes_provably_empty_partitions() {
    let ds = DatasetConfig::new(DatasetKind::TpcH, ScaleProfile::Tiny).build(2);
    let system = ds.train_system(fast_config(2));
    let schema = ds.pt.table().schema();
    // Ship-date layout: a narrow date range touches few partitions.
    let ship = schema.expect_col("l_shipdate");
    let q = Query::new(
        vec![AggExpr::sum(ScalarExpr::col(
            schema.expect_col("l_extendedprice"),
        ))],
        Some(Predicate::all(vec![
            Clause::Cmp {
                col: ship,
                op: CmpOp::Ge,
                value: 1000.0,
            },
            Clause::Cmp {
                col: ship,
                op: CmpOp::Lt,
                value: 1100.0,
            },
        ])),
        vec![],
    );
    // The raw upper bounds the filter reads, from the query's cache entry.
    let artifacts = system.artifacts_for(&q);
    let candidates: Vec<usize> = (0..ds.pt.num_partitions())
        .filter(|&p| artifacts.columns.upper()[p] > 0.0)
        .collect();
    assert!(
        candidates.len() < ds.pt.num_partitions() / 2,
        "narrow range should eliminate most partitions, kept {}",
        candidates.len()
    );
    // Every method that filters must select only candidates.
    for method in [Method::RandomFilter, Method::Lss, Method::Ps3] {
        let out = system.answer_seeded(&q, method, 0.5, 2);
        for wp in &out.selection {
            assert!(
                candidates.contains(&wp.partition.index()),
                "{} selected a provably-empty partition",
                method.label()
            );
        }
    }
}

#[test]
fn outlier_budget_cap_is_enforced() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(3);
    let system = ds.train_system(fast_config(3));
    let mut rng = StdRng::seed_from_u64(3);
    let schema = ds.pt.table().schema();
    let q = Query::new(
        vec![AggExpr::count()],
        None,
        vec![schema.expect_col("AppInfo_Version")],
    );
    for frac in [0.1, 0.25, 0.5] {
        let budget = system.budget_partitions(frac);
        let out = system.pick_outcome(&q, frac, &mut rng);
        let cap = (0.1 * budget as f64).floor() as usize;
        assert!(
            out.num_outliers <= cap,
            "outliers {} exceed 10% cap {cap} at budget {budget}",
            out.num_outliers
        );
    }
}

#[test]
fn group_by_queries_produce_weighted_groups() {
    let ds = DatasetConfig::new(DatasetKind::TpcDs, ScaleProfile::Tiny).build(4);
    let system = ds.train_system(fast_config(4));
    let schema = ds.pt.table().schema();
    let q = Query::new(
        vec![AggExpr::sum(ScalarExpr::col(
            schema.expect_col("cs_net_profit"),
        ))],
        None,
        vec![schema.expect_col("i_category")],
    );
    let exact = system.exact_answer(&q);
    let out = system.answer_seeded(&q, Method::Ps3, 0.3, 4);
    // Weights must cover the partition space: Σ weights ≈ N (outliers are
    // counted once; clusters carry their sizes).
    let total_weight: f64 = out.selection.iter().map(|w| w.weight).sum();
    let n = system.num_partitions() as f64;
    assert!(
        total_weight <= n + 1e-6,
        "weights {total_weight} exceed partition count {n}"
    );
    assert!(
        total_weight >= 0.5 * n,
        "weights {total_weight} cover too little of {n}"
    );
    // All 10 categories are heavy hitters in every partition; none missed.
    assert_eq!(exact.num_groups(), out.answer.num_groups());
}

#[test]
fn oracle_mode_prioritizes_true_contributors() {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(5);
    let system = ds.train_system(fast_config(5));
    let mut rng = StdRng::seed_from_u64(5);
    let schema = ds.pt.table().schema();
    let q = Query::new(
        vec![AggExpr::sum(ScalarExpr::col(
            schema.expect_col("src_bytes"),
        ))],
        None,
        vec![],
    );
    // Fake contributions concentrated on partitions 0..4.
    let n = system.num_partitions();
    let mut contributions = vec![0.0; n];
    for c in contributions.iter_mut().take(5) {
        *c = 1.0;
    }
    let (sel, _) = system.select(&q, Method::Ps3, 0.1, Some(&contributions), &mut rng);
    // α=2 over the k+1 funnel groups gives the top group a 2^k = 16x
    // sampling *rate*; with a ~6-partition budget the top-5 partitions must
    // be sampled at a far higher rate than the other 59, though not
    // necessarily exhaustively.
    let picked: std::collections::HashSet<usize> =
        sel.iter().map(|w| w.partition.index()).collect();
    let hit = (0..5).filter(|p| picked.contains(p)).count();
    let top_rate = hit as f64 / 5.0;
    let rest_rate = (picked.len() - hit) as f64 / (n - 5) as f64;
    assert!(
        hit >= 2,
        "oracle picked only {hit}/5 true contributors: {picked:?}"
    );
    assert!(
        top_rate > 4.0 * rest_rate,
        "top-group rate {top_rate:.2} should dwarf rest rate {rest_rate:.3}"
    );
}

/// The clustering cost of one fixed pick, counted rather than timed: the
/// `dist_sq` evaluations its k-means fits made. On the 512-partition shape
/// `golden_selections.rs` pins, test query 8 passes the filter everywhere,
/// so the pick clusters one group holding the whole table. The count is a
/// pure function of the system, query and seed, so it is pinned exactly.
/// When k-means++ seeding evaluated all n·k seed distances (512 × 51 here)
/// this pick cost 31,732 evaluations; seeding that skips the distances the
/// triangle inequality bounds must stay under 0.6× that.
#[test]
fn kmeans_distance_evaluations_of_a_pinned_pick() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_partitions(512)
        .with_rows(512 * 16)
        .build(24);
    let mut cfg = Ps3Config::default().with_seed(24);
    cfg.gbdt.n_trees = 2;
    cfg.feature_selection = false;
    let system = ps3::core::Ps3System::train(
        std::sync::Arc::clone(&ds.pt),
        std::sync::Arc::clone(&ds.stats),
        &ds.train_queries[..4],
        cfg,
    );
    let q = ds.sample_test_query(8);
    let run = || system.pick_outcome(&q, 0.1, &mut StdRng::seed_from_u64(7));
    let out = run();
    assert!(out.group_sizes.iter().any(|&g| g >= 512));
    assert_eq!(run().distance_evals, out.distance_evals);
    assert!(out.distance_evals * 10 <= 31_732 * 6);
    assert_eq!(out.distance_evals, 16_735);
}
