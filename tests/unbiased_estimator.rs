//! Appendix D.1: the random-exemplar estimator is unbiased — averaged over
//! many draws, the clustered estimate converges to the exact answer — while
//! the median-exemplar estimator has zero variance.

use ps3::cluster::{cluster, random_exemplar, ClusterAlgo, PointMatrix};
use ps3::core::{ExemplarRule, Method, Ps3Config};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::runtime::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn random_exemplar_estimator_is_unbiased_within_clusters() {
    // Direct check of the stratified-sampling identity: for any fixed
    // clustering, E[size_i * value(random member)] = sum of cluster values.
    let values: Vec<f64> = (0..40).map(|i| f64::from(i * i)).collect();
    let points = PointMatrix::from_flat(values.clone(), values.len(), 1);
    let mut rng = StdRng::seed_from_u64(3);
    let (clusters, _) = cluster(&points, 6, ClusterAlgo::HacWard, &mut rng);
    let truth: f64 = values.iter().sum();

    let draws = 40_000;
    let mut mean_est = 0.0;
    for _ in 0..draws {
        let mut est = 0.0;
        for c in &clusters {
            let m = random_exemplar(c, &mut rng);
            est += c.len() as f64 * values[m];
        }
        mean_est += est;
    }
    mean_est /= draws as f64;
    let rel = (mean_est - truth).abs() / truth;
    assert!(
        rel < 0.02,
        "unbiased estimator off by {rel:.4} after {draws} draws"
    );
}

#[test]
fn median_estimator_has_zero_variance_and_random_does_not() {
    let ds = DatasetConfig::new(DatasetKind::TpcDs, ScaleProfile::Tiny).build(9);
    let mut cfg = Ps3Config::default().with_seed(9);
    cfg.gbdt.n_trees = 8;
    cfg.feature_selection = false;
    // A broad grouped query: every partition passes the selectivity filter,
    // so the picker actually clusters and the exemplar rule matters. (A
    // sampled test query can be arbitrarily selective — an Eq clause on a
    // continuous column may leave a single candidate partition, which would
    // make any estimator trivially deterministic.)
    let schema = ds.pt.table().schema();
    let query = ps3::query::Query::new(
        vec![
            ps3::query::AggExpr::sum(ps3::query::ScalarExpr::col(
                schema.expect_col("cs_net_profit"),
            )),
            ps3::query::AggExpr::count(),
        ],
        None,
        vec![schema.expect_col("i_category")],
    );

    // Median estimator: identical answers across repeated runs for a fixed
    // seed (k-means++ seeding is the only stochastic step, so pin it).
    let system = ds.train_system(cfg.clone());
    let a = system.answer_seeded(&query, Method::Ps3, 0.2, 123);
    let b = system.answer_seeded(&query, Method::Ps3, 0.2, 123);
    assert_eq!(a.answer, b.answer, "median exemplar must be deterministic");

    // Random estimator: answers vary across exemplar draws even with the
    // same clustering (with overwhelming probability on 64 partitions).
    cfg.estimator = ExemplarRule::Random;
    let system = ds.train_system(cfg);
    let mut rng = StdRng::seed_from_u64(9);
    let pool = ThreadPool::global();
    let outs: Vec<_> = (0..6)
        .map(|_| system.answer_spec_on(&(&query).into(), Method::Ps3, 0.2, &mut rng, &pool))
        .collect();
    let all_same = outs.windows(2).all(|w| w[0].answer == w[1].answer);
    assert!(
        !all_same,
        "random exemplar produced identical answers 6 times"
    );
}

#[test]
fn unbiased_mean_approaches_truth_on_real_pipeline() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(17);
    let mut cfg = Ps3Config::default().with_seed(17);
    cfg.gbdt.n_trees = 8;
    cfg.feature_selection = false;
    cfg.estimator = ExemplarRule::Random;
    // Disable the (biased, weight-1) outlier slice so the pure stratified
    // estimator property holds exactly.
    cfg.use_outliers = false;
    cfg.use_regressors = false;
    let system = ds.train_system(cfg);
    let mut rng = StdRng::seed_from_u64(17);
    let pool = ThreadPool::global();

    // A COUNT(*) query with no predicate: every partition contributes, and
    // the true answer is the row count.
    let query = ps3::query::Query::new(vec![ps3::query::AggExpr::count()], None, vec![]);
    let truth = ds.pt.table().num_rows() as f64;
    let mut mean = 0.0;
    let runs = 300;
    for _ in 0..runs {
        let out = system.answer_spec_on(&(&query).into(), Method::Ps3, 0.25, &mut rng, &pool);
        mean += out.answer.global(0).unwrap();
    }
    mean /= runs as f64;
    let rel = (mean - truth).abs() / truth;
    assert!(
        rel < 0.05,
        "mean estimate {mean} vs truth {truth} (rel {rel:.4})"
    );
}
