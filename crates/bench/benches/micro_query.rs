//! Criterion microbenchmarks for per-partition query execution and the
//! picker's clustering stage — the two hot paths at query time — plus the
//! compiled-kernel primitives they are built from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ps3_cluster::simd::SweepState;
use ps3_cluster::{cluster, ClusterAlgo, PointMatrix};
use ps3_core::allocate::allocate_samples;
use ps3_core::picker::cluster_select;
use ps3_core::{Ps3Config, Ps3System};
use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3_query::{
    execute_partition, AggExpr, Clause, CmpOp, CompiledPredicate, CompiledQuery, Predicate, Query,
    ScalarExpr,
};
use ps3_stats::features::{PER_COL, SCALARS_PER_COL};
use ps3_stats::SelectivityPlan;
use ps3_storage::table::TableBuilder;
use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionId, Schema, Table};

/// The compiled-kernel primitives: predicate compilation, mask evaluation,
/// and the fused predicate→aggregate partition scan. All of these are
/// sub-10µs (report-only in the perf gate) but their trajectories expose
/// kernel regressions directly rather than through the composite paths.
fn bench_kernels(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(1);
    let table = ds.pt.table();
    let query = ds.sample_test_query(0);
    let rows = ds.pt.rows(PartitionId(0));

    // A numeric range + categorical membership predicate over real columns.
    let schema = table.schema();
    let num_col = (0..schema.len())
        .map(ColId)
        .find(|&c| table.column(c).as_numeric().is_some())
        .expect("numeric column");
    let cat_col = (0..schema.len())
        .map(ColId)
        .find(|&c| table.column(c).as_categorical().is_some())
        .expect("categorical column");
    let (_, dict) = table.categorical(cat_col);
    let in_values: Vec<String> = dict.iter().step_by(2).map(|(_, v)| v.to_owned()).collect();
    let cmp_pred = Predicate::Clause(Clause::Cmp {
        col: num_col,
        op: CmpOp::Ge,
        value: 1.0,
    });
    let in_pred = Predicate::Clause(Clause::In {
        col: cat_col,
        values: in_values,
        negated: false,
    });

    let mut g = c.benchmark_group("kernel");
    g.sample_size(50);
    g.bench_function("compile_query", |b| {
        b.iter(|| CompiledQuery::compile(table, &query))
    });
    let cmp = CompiledPredicate::compile(table, &cmp_pred);
    g.bench_function("cmp_mask_partition", |b| {
        b.iter(|| cmp.eval(table, rows.clone()))
    });
    let inset = CompiledPredicate::compile(table, &in_pred);
    g.bench_function("in_mask_partition", |b| {
        b.iter(|| inset.eval(table, rows.clone()))
    });
    let cq = CompiledQuery::compile(table, &query);
    g.bench_function("fused_partition_scan", |b| {
        b.iter(|| cq.execute_partition(table, rows.clone()))
    });

    // Mask-dominated variant: a global SUM+COUNT (no group-by) behind the
    // cmp AND membership predicate above, so the blocked 8-lane mask
    // kernels are most of the scan. Its trajectory isolates the SIMD mask
    // path the way `fused_partition_scan` covers the aggregate mix.
    let mask_query = Query::new(
        vec![AggExpr::sum(ScalarExpr::col(num_col)), AggExpr::count()],
        Some(Predicate::And(vec![cmp_pred.clone(), in_pred.clone()])),
        vec![],
    );
    let mask_cq = CompiledQuery::compile(table, &mask_query);
    g.bench_function("fused_partition_scan_simd", |b| {
        b.iter(|| mask_cq.execute_partition(table, rows.clone()))
    });
    g.finish();
}

/// 512 rows of `x` beside a 24-value key and a (4-value, 6-value) key pair,
/// scattered by a fixed multiplicative walk so neighbouring rows rarely
/// share a group.
fn grouped_partition() -> Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("zone", ColumnType::Categorical),
        ColumnMeta::new("net", ColumnType::Categorical),
        ColumnMeta::new("tier", ColumnType::Categorical),
    ]));
    for i in 0..512usize {
        let k = (i * 37 + i / 24) % 24;
        b.push_row(
            &[i as f64 * 0.25],
            &[
                &format!("z{k:02}"),
                &format!("n{}", k % 4),
                &format!("t{}", k / 4),
            ],
        );
    }
    b.finish()
}

fn bench_query_paths(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(1);
    let query = ds.sample_test_query(0);
    // A one-entry feature cache: caching any other query evicts `query`.
    let mut cfg = Ps3Config::default().with_seed(1).minimal();
    cfg.feature_cache_cap = 1;
    let system = ds.train_system(cfg);
    let evict = ds.sample_test_query(1);
    assert_ne!(query.fingerprint(), evict.fingerprint());

    let mut g = c.benchmark_group("query_time");
    g.sample_size(30);
    g.bench_function("execute_one_partition", |b| {
        b.iter(|| execute_partition(ds.pt.table(), ds.pt.rows(PartitionId(0)), &query))
    });
    // A cold `artifacts_for` on the serving path: compile, estimate every
    // partition's selectivity through one plan, normalize the n × 4 block.
    // Only the miss is timed; the eviction that makes the next one cold is
    // not.
    g.bench_function("query_artifacts", |b| {
        b.iter_custom(|iters| {
            let mut cold = Duration::ZERO;
            for _ in 0..iters {
                let started = Instant::now();
                black_box(system.artifacts_for(&query));
                cold += started.elapsed();
                system.artifacts_for(&evict);
            }
            cold
        })
    });

    // Grouped execution of one 512-row partition holding 24 groups, SUM +
    // AVG over a stored column, compiled once as the server does: one key
    // column, and the same 24 groups as a (4-value, 6-value) pair.
    let grouped = grouped_partition();
    let x = || ScalarExpr::col(ColId(0));
    for (name, group_by) in [
        ("execute_grouped_1col", vec![ColId(1)]),
        ("execute_grouped_2col", vec![ColId(2), ColId(3)]),
    ] {
        let q = Query::new(vec![AggExpr::sum(x()), AggExpr::avg(x())], None, group_by);
        let cq = CompiledQuery::compile(&grouped, &q);
        assert_eq!(cq.execute_partition(&grouped, 0..512).num_groups(), 24);
        g.bench_function(name, |b| b.iter(|| cq.execute_partition(&grouped, 0..512)));
    }

    // Clustering 64 partitions' raw feature rows into 8 clusters, fed flat
    // and compact the way the picker's group projection feeds it: per
    // partition, the static blocks the query's mask leaves live (scalars of
    // each used column, the bitmap too for a grouped one), then its four
    // selectivity estimates.
    let stats = &ds.stats;
    let schema = *stats.feature_schema();
    let compiled = CompiledQuery::compile(ds.pt.table(), &query);
    let plan = SelectivityPlan::new(compiled.predicate());
    let mut flat = Vec::new();
    for (statics, sel) in stats.static_features().iter().zip(plan.estimate_all(stats)) {
        for c in query.used_columns() {
            let off = schema.col_offset(c);
            let len = if query.group_by.contains(&c) {
                PER_COL
            } else {
                SCALARS_PER_COL
            };
            flat.extend_from_slice(&statics[off..off + len]);
        }
        flat.extend_from_slice(&sel.as_array());
    }
    let n = stats.num_partitions();
    let width = flat.len() / n;
    let points = PointMatrix::from_flat(flat, n, width);
    g.bench_function("kmeans_64x8", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            cluster(&points, 8, ClusterAlgo::KMeans, &mut rng)
        })
    });
    g.bench_function("hac_ward_64x8", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            cluster(&points, 8, ClusterAlgo::HacWard, &mut rng)
        })
    });
    g.finish();

    // The training-path primitive underneath: one assign-then-update sweep
    // over the blocked kernels.
    let mut g = c.benchmark_group("cluster");
    g.sample_size(30);
    let first_eight: Vec<f64> = (0..8).flat_map(|i| points.row(i)).copied().collect();
    let centroids = PointMatrix::from_flat(first_eight, 8, width);
    // A blank state has no bounds to prune with, so this stays what it
    // always was: one full n·k assign-update sweep.
    g.bench_function("assign_step_simd", |b| {
        b.iter(|| {
            let mut state = SweepState::blank(points.n(), 8, width);
            state.sweep(&points, &centroids);
            state
        })
    });
    bench_select_512_tiny_q8(&mut g);
    g.finish();

    let mut g = c.benchmark_group("picker");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("full_pick_25pct", |b| {
        b.iter(|| system.pick_outcome(&query, 0.25, &mut rng))
    });
    g.finish();
}

/// `cluster_select` at the shape a cold pick clusters: the 512-partition
/// Aria Tiny twin, test query 8 at 10% — the pick
/// `tests/picker_behaviors.rs` pins, one importance group holding the whole
/// table. Projection, k-means++ seeding, bounded Lloyd and one median
/// exemplar per cluster, exactly the call the picker makes (its `dist_sq`
/// count is checked against the pick's before timing).
fn bench_select_512_tiny_q8(g: &mut criterion::BenchmarkGroup<'_>) {
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
    let query = ds.sample_test_query(8);
    let frac = 0.1;
    let pick = system.pick_outcome(&query, frac, &mut StdRng::seed_from_u64(7));
    let n = system.num_partitions();
    assert_eq!(
        pick.group_sizes.iter().max(),
        Some(&n),
        "one group holds the table"
    );
    let trained = &system.trained;
    let budget = system.budget_partitions(frac) - pick.num_outliers;
    let alloc = allocate_samples(&pick.group_sizes, budget, trained.config.alpha);
    let k = alloc[pick.group_sizes.iter().position(|&s| s == n).unwrap()];
    let statics = trained.normalizer.normalize_statics(&system.stats);
    let compiled = CompiledQuery::compile(system.pt.table(), &query);
    let plan = SelectivityPlan::new(compiled.predicate());
    let features = statics.gather(&statics.query_columns(&query, plan.estimate_all(&system.stats)));
    let group: Vec<usize> = (0..n).collect();
    let select = || {
        cluster_select(
            &group,
            &features,
            &trained.excluded_dims,
            k,
            trained.config.cluster_algo,
            trained.config.estimator,
            &mut StdRng::seed_from_u64(7),
        )
    };
    assert_eq!(select().1, pick.distance_evals, "not the pick's clustering");
    g.bench_function("select_512_tiny_q8", |b| b.iter(select));
}

criterion_group!(benches, bench_kernels, bench_query_paths);
criterion_main!(benches);
