//! Workspace smoke test: the umbrella crate wires all nine subcrates
//! together, and the headline claim of the paper holds end to end — PS3's
//! picker beats uniform partition sampling on held-out queries at a small
//! partition budget. Fully seeded, so a regression here is a real behaviour
//! change, not noise.

use ps3::core::{Method, Ps3Config};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::metrics::avg_relative_error;
use ps3::runtime::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn ps3_beats_uniform_sampling_at_ten_percent_budget() {
    // Aria sorted by tenant: the paper's motivating skewed layout.
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(11);
    let mut cfg = Ps3Config::default().with_seed(11);
    cfg.gbdt.n_trees = 10;
    cfg.fs_restarts = 1;
    cfg.fs_eval_queries = 4;
    let system = ds.train_system(cfg);

    let budget = 0.10;
    let mut rng = StdRng::seed_from_u64(11);
    let pool = ThreadPool::global();
    let mut ps3_err = 0.0;
    let mut rand_err = 0.0;
    let mut evaluated = 0;
    for i in 0..8 {
        let query = ds.sample_test_query(i);
        let exact = system.exact_answer(&query);
        if exact.num_groups() == 0 {
            continue;
        }
        evaluated += 1;

        let ps3 = system.answer_spec_on(&(&query).into(), Method::Ps3, budget, &mut rng, &pool);
        ps3_err += avg_relative_error(&exact, &ps3.answer);

        // Uniform sampling is stochastic; average it over several seeded
        // draws so the comparison is fair to its variance.
        let runs = 5;
        let mut r = 0.0;
        for _ in 0..runs {
            let out =
                system.answer_spec_on(&(&query).into(), Method::Random, budget, &mut rng, &pool);
            r += avg_relative_error(&exact, &out.answer);
        }
        rand_err += r / runs as f64;
    }

    assert!(
        evaluated >= 4,
        "too few evaluable test queries ({evaluated})"
    );
    let ps3_avg = ps3_err / evaluated as f64;
    let rand_avg = rand_err / evaluated as f64;
    assert!(
        ps3_avg < rand_avg,
        "PS3 avg rel err {ps3_avg:.4} should beat uniform sampling {rand_avg:.4} \
         at a 10% partition budget"
    );
}

#[test]
fn umbrella_crate_reexports_every_layer() {
    // One token use of each re-exported subcrate, so a broken workspace
    // edge fails here rather than deep inside an experiment.
    let values = [1.0, 2.0, 3.0, 4.0];
    let m = ps3::sketch::Measures::from_values(&values);
    assert_eq!(m.count(), 4);

    let schema = ps3::storage::Schema::new(vec![ps3::storage::ColumnMeta::new(
        "x",
        ps3::storage::ColumnType::Numeric,
    )]);
    let mut b = ps3::storage::table::TableBuilder::new(schema);
    for v in values {
        b.push_row(&[v], &[]);
    }
    let pt = ps3::storage::PartitionedTable::with_equal_partitions(b.finish(), 2);
    assert_eq!(pt.num_partitions(), 2);

    let stats = ps3::stats::TableStats::build(&pt, &ps3::stats::StatsConfig::default());
    assert_eq!(stats.num_partitions(), 2);

    let query = ps3::query::Query::new(vec![ps3::query::AggExpr::count()], None, vec![]);
    let answer = ps3::query::execute_table(&pt, &query);
    assert_eq!(answer.global(0), Some(4.0));

    let labels = ps3::learn::make_labels(&[0.9, 0.1], 0.5);
    assert_eq!(labels.len(), 2);

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let (clusters, _) = ps3::cluster::cluster(
        &ps3::cluster::PointMatrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0]]),
        2,
        ps3::cluster::ClusterAlgo::KMeans,
        &mut rng,
    );
    assert_eq!(clusters.iter().map(Vec::len).sum::<usize>(), 3);

    assert!(ps3::core::Ps3Config::default().use_clustering);
    assert_eq!(ps3::data::DatasetKind::ALL.len(), 4);
}
