//! Criterion microbenchmarks for both sketch families, one group each.
//!
//! `sketch/*` — the answer-sketch hot paths behind the sketch query
//! classes: the fused predicate→sketch partition update kernels and the
//! cross-partition merge that assembles the served answer. Their
//! trajectories gate the per-partition cost a sketch query pays on every
//! picked partition and the per-pick cost of merging.
//!
//! `sketch_construction/*` — Table 1: building the picker's feature
//! sketches is O(R) (measures, AKMV, heavy hitters) or O(R log R)
//! (equi-depth histogram), with small constants.
//!
//! `stats/build_table` — the same sketches as set-up builds them:
//! `TableStats::build` over the Aria Default table (160 partitions of 300
//! rows, 11 columns), every column of every partition sketched from one
//! sort, then the catalog derived from the bundles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3_query::{Clause, CmpOp, CompiledSketchQuery, Predicate, SketchQuery};
use ps3_sketch::hash::hash_f64;
use ps3_sketch::{Akmv, AnswerSketch, EquiDepthHistogram, HeavyHitters, Measures};
use ps3_stats::{StatsConfig, TableStats};
use ps3_storage::{ColId, PartitionId};

fn bench_sketch(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(1);
    let table = ds.pt.table();
    let rows = ds.pt.rows(PartitionId(0));
    let num_col = (0..table.schema().len())
        .map(ColId)
        .find(|&c| table.column(c).as_numeric().is_some())
        .expect("numeric column");
    let cat_col = (0..table.schema().len())
        .map(ColId)
        .find(|&c| table.column(c).as_categorical().is_some())
        .expect("categorical column");

    let mut g = c.benchmark_group("sketch");
    g.sample_size(50);

    // The fused 64-row chunked predicate→quantile update over one real
    // partition — the cost a PERCENTILE query pays per picked partition.
    let percentile =
        SketchQuery::percentile(num_col, 0.5).filtered(Predicate::Clause(Clause::Cmp {
            col: num_col,
            op: CmpOp::Ge,
            value: 1.0,
        }));
    let compiled_p = CompiledSketchQuery::compile(table, &percentile);
    g.bench_function("quantile_update_fused", |b| {
        b.iter(|| compiled_p.sketch_partition(table, rows.clone()))
    });

    // HLL register update over a categorical partition scan.
    let distinct = SketchQuery::distinct(cat_col);
    let compiled_d = CompiledSketchQuery::compile(table, &distinct);
    g.bench_function("distinct_update", |b| {
        b.iter(|| compiled_d.sketch_partition(table, rows.clone()))
    });

    // Merging 64 per-partition quantile sketches into the served answer —
    // the per-pick assembly cost of a full-read PERCENTILE.
    let parts: Vec<AnswerSketch> = (0..ds.pt.num_partitions().min(64))
        .map(|p| compiled_p.sketch_partition(table, ds.pt.rows(PartitionId(p))))
        .collect();
    let parts: Vec<AnswerSketch> = parts.iter().cycle().take(64).cloned().collect();
    g.bench_function("merge_64", |b| {
        b.iter(|| {
            let mut merged = compiled_p.empty_sketch();
            for p in &parts {
                merged.merge_from(p);
            }
            merged
        })
    });
    g.finish();
}

fn bench_sketch_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch_construction");
    g.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e6)).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("measures", n), &values, |b, v| {
            b.iter(|| Measures::from_values(v))
        });
        g.bench_with_input(BenchmarkId::new("histogram", n), &values, |b, v| {
            b.iter(|| EquiDepthHistogram::from_values(v, 10))
        });
        g.bench_with_input(BenchmarkId::new("akmv", n), &values, |b, v| {
            b.iter(|| Akmv::from_hashes(v.iter().map(|&x| hash_f64(x)), 128))
        });
        g.bench_with_input(BenchmarkId::new("heavy_hitters", n), &values, |b, v| {
            b.iter(|| HeavyHitters::from_keys(v.iter().map(|&x| x.to_bits())))
        });
    }
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Default).build(1);
    let mut g = c.benchmark_group("stats");
    g.sample_size(10);
    g.bench_function("build_table", |b| {
        b.iter(|| TableStats::build(&ds.pt, &StatsConfig::default()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sketch,
    bench_sketch_construction,
    bench_stats
);
criterion_main!(benches);
