//! A served table holds only what serving reads. Serving reads the
//! selectivity index, the occurrence bitmaps and the static rows that
//! `TableStats::from_sketches` derives from the per-partition sketch
//! bundles, never the bundles themselves. A thawed catalog keeps the mapped
//! statistics section instead of the bundles and decodes them again, once,
//! only when asked (the strict selectivity oracle, `storage_breakdown`).
//!
//! Counted, not timed: the heap a catalog holds is the bytes its drop
//! frees, which a counting allocator sees on the dropping thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ps3::core::{Ps3Config, Ps3System};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::stats::persist::encode_table_stats;
use ps3::stats::{StatsConfig, TableStats};

/// The system allocator, counting the bytes the calling thread frees.
struct Counting;

thread_local! {
    static FREED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|n| n.set(n.get() + layout.size() as u64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap `stats` holds: what dropping it frees.
fn heap_of(stats: TableStats) -> u64 {
    let before = FREED.with(Cell::get);
    drop(stats);
    FREED.with(Cell::get) - before
}

/// Aria with 128 partitions of 512 rows, trained small on 8 queries once
/// for every test here.
fn trained() -> &'static (Dataset, Ps3System) {
    static TRAINED: OnceLock<(Dataset, Ps3System)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
            .with_partitions(128)
            .with_rows(128 * 512)
            .build(42);
        let mut cfg = Ps3Config::default().with_seed(42);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        let system = Ps3System::train(
            Arc::clone(&ds.pt),
            Arc::clone(&ds.stats),
            &ds.train_queries[..8],
            cfg,
        );
        (ds, system)
    })
}

/// The trained system frozen to a file of its own.
fn frozen(tag: &str) -> (&'static Dataset, PathBuf) {
    let (ds, system) = trained();
    let path = std::env::temp_dir().join(format!("ps3_served_{tag}_{}.ps3", std::process::id()));
    system.freeze(&path).expect("freeze");
    (ds, path)
}

/// The thawed catalog, once the rest of its system is gone.
fn thawed_stats(path: &Path) -> TableStats {
    let system = Ps3System::thaw(path).expect("thaw");
    let stats = Arc::clone(&system.stats);
    drop(system);
    Arc::into_inner(stats).expect("the system held the only other reference")
}

#[test]
fn a_thawed_catalog_holds_under_30_percent_of_the_built_heap() {
    let (ds, path) = frozen("heap");
    let built = heap_of(TableStats::build(&ds.pt, &StatsConfig::default()));
    let thawed = heap_of(thawed_stats(&path));
    let share = thawed as f64 / built as f64;
    assert!(
        share <= 0.30,
        "a thawed catalog holds {thawed} B, {:.1}% of the built {built} B",
        100.0 * share
    );
    // Asking for the sketches decodes them back: the heap is the built one
    // plus what the section keeps.
    let stats = thawed_stats(&path);
    let _ = stats.partition(0);
    let decoded = heap_of(stats);
    assert!(
        decoded > built / 2,
        "{decoded} B after decoding, built {built} B"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn thawed_sketches_decode_on_demand_to_the_built_bundles_bit_for_bit() {
    let (ds, path) = frozen("bits");
    let stats = thawed_stats(&path);
    let n = stats.num_partitions();
    assert_eq!(n, ds.stats.num_partitions());
    // Freezing writes the kept section back without decoding anything.
    assert_eq!(encode_table_stats(&stats), encode_table_stats(&ds.stats));
    // The bundles decoded on demand re-encode, through the one codec, to
    // the built catalog's bytes, and derive the same catalog.
    let sketches = (0..n).map(|p| stats.partition(p).to_vec()).collect();
    let num_cols = stats.feature_schema().num_cols();
    let rebuilt = TableStats::from_sketches(sketches, num_cols).expect("derives");
    assert_eq!(encode_table_stats(&rebuilt), encode_table_stats(&ds.stats));
    let bits = |s: &TableStats| -> Vec<u64> {
        (s.static_features().iter().flatten())
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(bits(&stats), bits(&ds.stats));
    assert_eq!(bits(&rebuilt), bits(&ds.stats));
    assert_eq!(stats.storage_breakdown(), ds.stats.storage_breakdown());
    std::fs::remove_file(&path).ok();
}
