//! Persistence-path micros: what freezing a trained deployment costs and
//! what booting from the artifact saves over retraining.
//!
//! Four rows land in `BENCH_micro.json` via `PS3_BENCH_TSV`:
//!
//! - `persist/freeze` — `Ps3System::freeze`: encode every section
//!   (columns, stats, models, workload) and write the container
//!   atomically.
//! - `persist/open_artifact` — `Artifact::open` alone: map the file and
//!   check the header, section table and every section's checksum, the
//!   part of a thaw that reads every byte.
//! - `persist/thaw_cold` — `Ps3System::thaw`: map, validate checksums,
//!   decode models, rebuild the system. Column payloads stay mapped —
//!   no bulk copy.
//! - `persist/boot_from_artifact` — thaw **plus** answering the first
//!   query on the thawed system: the cold-start path a rebooted server
//!   walks before serving traffic.
//!
//! The perf gate asserts `boot_from_artifact` stays an order of magnitude
//! under `train/train_cold` (same dataset, same config) — the whole point
//! of the persistence layer.

use criterion::{criterion_group, criterion_main, Criterion};

use ps3_core::{Method, Ps3Config, Ps3System};
use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3_storage::format::Artifact;

fn bench_persist(c: &mut Criterion) {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(7);
    let mut cfg = Ps3Config::default().with_seed(7);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;
    let system = ds.train_system(cfg);

    let dir = std::env::temp_dir().join(format!("ps3_bench_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("kdd.ps3");
    let query = ds.sample_test_query(0);

    let mut g = c.benchmark_group("persist");
    g.sample_size(10);
    g.bench_function("freeze", |b| {
        b.iter(|| system.freeze(&path).expect("freeze"))
    });

    system.freeze(&path).expect("freeze");
    g.bench_function("open_artifact", |b| {
        b.iter(|| Artifact::open(&path).expect("open"))
    });

    g.bench_function("thaw_cold", |b| {
        b.iter(|| Ps3System::thaw(&path).expect("thaw"))
    });

    g.bench_function("boot_from_artifact", |b| {
        b.iter(|| {
            let thawed = std::sync::Arc::new(Ps3System::thaw(&path).expect("thaw"));
            thawed.answer_seeded(&query, Method::Ps3, 0.2, 1)
        })
    });
    g.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
