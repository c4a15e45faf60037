//! Freeze's peak heap, counted: `Ps3System::freeze` streams each section
//! to the file as it is encoded, so the artifact never exists in memory.
//! The column words go out a fixed-size chunk at a time, the statistics
//! one `(partition, column)` record at a time (a thawed catalog's section
//! straight from the mapping), and only the small trained, LSS and training
//! sections are encoded ahead of the write.
//!
//! Counted, not timed: a global allocator (`counting_heap`) tracks the live
//! heap of every thread and its high-water mark, and freeze runs on the
//! calling thread alone, so the mark repeats exactly.

use std::sync::Arc;

use ps3::core::{Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};

mod counting_heap;
use counting_heap::peak_rise_in;

/// Freeze may hold at most this share of the artifact's length on the heap
/// at once. Encoding every section into memory first rose 3,676,032 bytes
/// above the starting heap for the built system below and 2,639,117 bytes
/// for its thawed copy, against a 2,549,957-byte artifact. Streaming, the
/// two rise 193,568 and 187,874 bytes, 131,072 of them the file buffer.
const MAX_RISE_PER_ARTIFACT_BYTE: usize = 8;

#[test]
fn freeze_holds_under_an_eighth_of_the_artifact_on_the_heap() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(42);
    let mut cfg = Ps3Config::default().with_seed(42);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;
    cfg.threads = 1;
    let built = Ps3System::train(
        Arc::clone(&ds.pt),
        Arc::clone(&ds.stats),
        &ds.train_queries[..8],
        cfg,
    );

    let dir = std::env::temp_dir().join(format!("ps3_freeze_heap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (first, second) = (dir.join("built.ps3"), dir.join("thawed.ps3"));
    let (built_rise, frozen) = peak_rise_in(|| built.freeze(&first));
    frozen.expect("freeze the built system");
    let thawed = Ps3System::thaw(&first).expect("thaw");
    let (thawed_rise, frozen) = peak_rise_in(|| thawed.freeze(&second));
    frozen.expect("freeze the thawed system");

    let artifact = std::fs::read(&first).expect("read the first artifact");
    assert!(
        artifact == std::fs::read(&second).expect("read the second artifact"),
        "freezing the thawed system must reproduce the artifact"
    );
    let cap = artifact.len() / MAX_RISE_PER_ARTIFACT_BYTE;
    for (system, rise) in [("built", built_rise), ("thawed", thawed_rise)] {
        assert!(
            rise <= cap,
            "freezing the {system} system rose {rise} B above its starting heap, over \
             1/{MAX_RISE_PER_ARTIFACT_BYTE} of the {} B artifact ({cap} B)",
            artifact.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
