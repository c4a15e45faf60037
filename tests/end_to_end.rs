//! End-to-end integration tests: dataset → statistics → training → picking
//! → weighted answers, across crates.

use ps3::core::{Method, Ps3Config};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::metrics::ErrorMetrics;
use ps3::query::{execute_partitions, WeightedPart};
use ps3::runtime::ThreadPool;
use ps3::storage::PartitionId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny(kind: DatasetKind, seed: u64) -> ps3::data::Dataset {
    DatasetConfig::new(kind, ScaleProfile::Tiny).build(seed)
}

fn fast_config(seed: u64) -> Ps3Config {
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 10;
    cfg.fs_restarts = 1;
    cfg.fs_eval_queries = 4;
    cfg
}

#[test]
fn full_budget_reproduces_exact_answers_for_every_method() {
    let ds = tiny(DatasetKind::Aria, 1);
    let system = ds.train_system(fast_config(1));
    let query = ds.sample_test_query(1);
    let exact = system.exact_answer(&query);
    for method in Method::ALL {
        let out = system.answer_seeded(&query, method, 1.0, 1);
        let m = ErrorMetrics::compute(&exact, &out.answer);
        // Reading 100% of partitions must be exact up to float round-off,
        // for every sampling scheme (all weights become 1).
        assert!(
            m.avg_rel_err < 1e-6,
            "{} at 100% budget has error {}",
            method.label(),
            m.avg_rel_err
        );
        assert_eq!(m.missed_groups, 0.0, "{}", method.label());
    }
}

#[test]
fn ps3_beats_uniform_random_on_skewed_layout() {
    // Aria sorted by tenant is the paper's motivating case: group
    // distributions differ wildly across partitions.
    let ds = tiny(DatasetKind::Aria, 2);
    let system = ds.train_system(fast_config(2));
    let mut rng = StdRng::seed_from_u64(2);
    let pool = ThreadPool::global();
    let budget = 0.15;
    let (mut ps3_err, mut rand_err) = (0.0, 0.0);
    let queries: Vec<_> = (0..8).map(|i| ds.sample_test_query(i)).collect();
    for q in &queries {
        let exact = system.exact_answer(q);
        if exact.num_groups() == 0 {
            continue;
        }
        let ps3 = system.answer_spec_on(&q.into(), Method::Ps3, budget, &mut rng, &pool);
        ps3_err += ps3::query::metrics::avg_relative_error(&exact, &ps3.answer);
        // Average random over a few runs to be fair to its variance.
        let mut r = 0.0;
        for _ in 0..5 {
            let out = system.answer_spec_on(&q.into(), Method::Random, budget, &mut rng, &pool);
            r += ps3::query::metrics::avg_relative_error(&exact, &out.answer);
        }
        rand_err += r / 5.0;
    }
    assert!(
        ps3_err < rand_err,
        "PS3 total error {ps3_err:.4} should beat random {rand_err:.4}"
    );
}

#[test]
fn selection_budgets_are_respected() {
    let ds = tiny(DatasetKind::Kdd, 3);
    let system = ds.train_system(fast_config(3));
    let mut rng = StdRng::seed_from_u64(3);
    let pool = ThreadPool::global();
    let n = system.num_partitions();
    for frac in [0.05, 0.2, 0.5] {
        let budget = system.budget_partitions(frac);
        for method in Method::ALL {
            let q = ds.sample_test_query(0);
            let out = system.answer_spec_on(&(&q).into(), method, frac, &mut rng, &pool);
            assert!(
                out.selection.len() <= budget.max(1),
                "{} read {} partitions with budget {budget}",
                method.label(),
                out.selection.len()
            );
            // No partition is read twice.
            let distinct: std::collections::HashSet<usize> =
                out.selection.iter().map(|w| w.partition.index()).collect();
            assert_eq!(distinct.len(), out.selection.len(), "{}", method.label());
            assert!(distinct.iter().all(|&p| p < n));
            assert!(out.selection.iter().all(|w| w.weight >= 1.0 - 1e-9));
        }
    }
}

#[test]
fn weighted_combination_is_linear_in_weights() {
    let ds = tiny(DatasetKind::TpcDs, 4);
    let q = ds.sample_test_query(2);
    // Manually double one partition's weight and check linearity.
    let single = [WeightedPart {
        partition: PartitionId(5),
        weight: 1.0,
    }];
    let double = [WeightedPart {
        partition: PartitionId(5),
        weight: 2.0,
    }];
    let a = execute_partitions(&ds.pt, &q, &single);
    let b = execute_partitions(&ds.pt, &q, &double);
    for (key, vals) in &a.groups {
        let dvals = &b.groups[key];
        for (i, agg) in q.aggregates.iter().enumerate() {
            match agg.func {
                ps3::query::AggFunc::Avg => {
                    // Ratios are weight-invariant for a single partition.
                    assert!((vals[i] - dvals[i]).abs() < 1e-9);
                }
                _ => assert!((vals[i] * 2.0 - dvals[i]).abs() < 1e-9),
            }
        }
    }
}

#[test]
fn trained_system_is_deterministic_for_ps3_median_estimator() {
    let ds = tiny(DatasetKind::TpcH, 5);
    let q = ds.sample_test_query(3);
    let sys_a = ds.train_system(fast_config(5));
    let sys_b = ds.train_system(fast_config(5));
    let a = sys_a.answer_seeded(&q, Method::Ps3, 0.2, 5);
    let b = sys_b.answer_seeded(&q, Method::Ps3, 0.2, 5);
    let mut sel_a: Vec<(usize, u64)> = a
        .selection
        .iter()
        .map(|w| (w.partition.index(), w.weight.to_bits()))
        .collect();
    let mut sel_b: Vec<(usize, u64)> = b
        .selection
        .iter()
        .map(|w| (w.partition.index(), w.weight.to_bits()))
        .collect();
    sel_a.sort_unstable();
    sel_b.sort_unstable();
    assert_eq!(sel_a, sel_b);
}

#[test]
fn picker_diagnostics_are_consistent() {
    let ds = tiny(DatasetKind::Aria, 6);
    let system = ds.train_system(fast_config(6));
    let q = ds.sample_test_query(4);
    let mut rng = StdRng::seed_from_u64(6);
    let out = system.pick_outcome(&q, 0.25, &mut rng);
    assert!(out.total_ms >= 0.0);
    assert!(out.clustering_ms <= out.total_ms + 1e-6);
    // Group sizes cover at most all partitions.
    let total: usize = out.group_sizes.iter().sum();
    assert!(total <= system.num_partitions());
    if !q.group_by.is_empty() {
        assert!(out.num_outliers <= system.budget_partitions(0.25) / 10 + 1);
    }
}

#[test]
fn lesion_configs_still_answer_queries() {
    let ds = tiny(DatasetKind::Kdd, 7);
    for (name, cfg) in [
        ("no-cluster", {
            let mut c = fast_config(7);
            c.use_clustering = false;
            c
        }),
        ("no-outlier", {
            let mut c = fast_config(7);
            c.use_outliers = false;
            c
        }),
        ("no-regressor", {
            let mut c = fast_config(7);
            c.use_regressors = false;
            c
        }),
    ] {
        let system = ds.train_system(cfg);
        let q = ds.sample_test_query(1);
        let exact = system.exact_answer(&q);
        let out = system.answer_seeded(&q, Method::Ps3, 1.0, 7);
        let err = ps3::query::metrics::avg_relative_error(&exact, &out.answer);
        assert!(err < 1e-6, "{name}: full budget should be exact, got {err}");
    }
}
