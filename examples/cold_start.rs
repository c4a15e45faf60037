//! Cold start from a frozen artifact: train once, freeze to disk, then
//! boot a fresh [`Router`] straight from the file — no training, no stats
//! build, column payloads mapped zero-copy — and verify the booted
//! deployment answers **bit-identically** to the one that trained.
//!
//! Prints the train-vs-thaw wall clock; thawing is the point of the
//! persistence layer, typically orders of magnitude faster than training
//! (the `micro_persist` bench gates `persist/boot_from_artifact` at ≥10x
//! over `train/train_cold`).
//!
//! Runs headlessly (temp-dir artifact, no arguments) — CI executes it on
//! every build:
//!
//! ```sh
//! cargo run --release --example cold_start
//! ```

use std::sync::Arc;
use std::time::Instant;

use ps3::core::{Method, Ps3Config, Ps3System, QueryRequest, Router};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("ps3_cold_start_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let artifact = dir.join("telemetry.ps3");

    // --- Generation 0: the once-per-deployment cost.
    println!("building the dataset...");
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(71);
    let train_started = Instant::now();
    let system = Arc::new(ds.train_system(Ps3Config::default().with_seed(71)));
    let train_ms = train_started.elapsed().as_secs_f64() * 1e3;
    println!("trained in {train_ms:.1} ms");

    let freeze_started = Instant::now();
    system.freeze(&artifact)?;
    let freeze_ms = freeze_started.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&artifact)?.len();
    println!(
        "frozen to {} ({bytes} bytes) in {freeze_ms:.1} ms",
        artifact.display()
    );

    // The trained deployment, for reference answers.
    let trained_router = Router::builder()
        .table("telemetry", Arc::clone(&system))
        .build();
    let trained_id = trained_router.table_id("telemetry").expect("registered");

    // --- Generation 0, rebooted: a brand-new process would start here.
    let thaw_started = Instant::now();
    let booted_router = Router::builder()
        .table_from_artifact("telemetry", &artifact)
        .expect("artifact thaws")
        .build();
    let thaw_ms = thaw_started.elapsed().as_secs_f64() * 1e3;
    let booted_id = booted_router.table_id("telemetry").expect("registered");
    println!(
        "booted from artifact in {thaw_ms:.1} ms ({:.0}x faster than training)",
        train_ms / thaw_ms.max(1e-6)
    );

    // --- Every method, several budgets and seeds: bit-identical answers.
    let mut checked = 0u32;
    for i in 0..6 {
        let query = ds.sample_test_query(i);
        for method in Method::ALL {
            for (frac, seed) in [(0.1, 3u64), (0.25, 17)] {
                let req = QueryRequest::new(query.clone(), method, frac, seed);
                let trained_answer = trained_router.answer_now(trained_id, &req);
                let booted_answer = booted_router.answer_now(booted_id, &req);
                assert_eq!(
                    trained_answer.answer, booted_answer.answer,
                    "booted deployment must answer bit-identically"
                );
                checked += 1;
            }
        }
    }
    println!("{checked} (query, method, budget, seed) answers bit-identical after reboot");

    // --- The thawed system retrains like any other generation.
    let thawed = Ps3System::thaw(&artifact).expect("thaws");
    let warm = Ps3System::retrain_from(&thawed, Arc::clone(&thawed.pt), Arc::clone(&thawed.stats));
    let q = ds.sample_test_query(0);
    assert_eq!(
        warm.answer_seeded(&q, Method::Ps3, 0.25, 9).answer,
        thawed.answer_seeded(&q, Method::Ps3, 0.25, 9).answer,
        "warm retrain on an unchanged table preserves answers"
    );
    println!("warm retrain from the thawed generation answers as it did");

    std::fs::remove_dir_all(&dir).ok();
    println!("cold start OK");
    Ok(())
}
