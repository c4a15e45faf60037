//! Training-path micros: what a cold deployment costs to build and what the
//! warm incremental retrain saves over rebuilding it.
//!
//! Two rows land in `BENCH_micro.json` via `PS3_BENCH_TSV`:
//!
//! - `train/train_cold` — `Ps3System::train` from scratch on a tiny
//!   dataset: every training query compiled once, executed and its
//!   selectivity estimated on every partition, the normalizer fitted on the
//!   live static statistics and those estimates, every training query's
//!   normalized rows gathered from the shared static table as a pick
//!   gathers them, one full-width row set for the importance models and
//!   LSS, and thresholds.
//! - `train/retrain_warm` — `Ps3System::retrain_from` against the same
//!   table: the static table normalized once through the previous
//!   normalizer, every learned part reused, nothing gathered or fitted.
//!
//! The perf gate asserts `retrain_warm` stays an order of magnitude under
//! `train_cold` — the whole point of the incremental path.

use criterion::{criterion_group, criterion_main, Criterion};

use ps3_core::{Ps3Config, Ps3System};
use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};

fn bench_train(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(7);
    let mut cfg = Ps3Config::default().with_seed(7);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;

    let mut g = c.benchmark_group("train");
    g.sample_size(10);
    g.bench_function("train_cold", |b| {
        b.iter(|| {
            Ps3System::train(
                ds.pt.clone(),
                ds.stats.clone(),
                &ds.train_queries,
                cfg.clone(),
            )
        })
    });

    let system = ds.train_system(cfg);
    g.bench_function("retrain_warm", |b| {
        b.iter(|| Ps3System::retrain_from(&system, ds.pt.clone(), ds.stats.clone()))
    });
    g.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
