//! A catalog holds only what serving reads, and its section. Serving reads
//! the selectivity index, the occurrence bitmaps and the static rows that
//! `TableStats::from_sketches` derives from the per-partition sketch
//! bundles, never the bundles themselves. So a catalog, built or thawed,
//! keeps the encoded statistics section instead of the bundles (a built
//! one on the heap, a thawed one in the artifact's mapping) and decodes
//! them again, once, only when asked (the strict selectivity oracle);
//! `storage_breakdown` reads their sizes off the section and decodes none.
//!
//! Counted, not timed: the heap a catalog holds is the bytes its drop
//! frees, which a counting allocator sees on the dropping thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ps3::core::{Ps3Config, Ps3System};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::stats::{StatsConfig, TableStats};
use ps3::storage::format::{Artifact, SEC_STATS};

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

/// A catalog built from the table again.
fn built_stats(ds: &Dataset) -> TableStats {
    TableStats::build(&ds.pt, &StatsConfig::default())
}

#[test]
fn a_thawed_catalog_holds_under_30_percent_of_the_decoded_bundle_heap() {
    let (_, path) = frozen("heap");
    let thawed = heap_of(thawed_stats(&path));
    // Asking for the sketches decodes every bundle back onto the heap.
    let stats = thawed_stats(&path);
    let _ = stats.partition(0);
    let decoded = heap_of(stats);
    let share = thawed as f64 / decoded as f64;
    assert!(
        share <= 0.30,
        "a thawed catalog holds {thawed} B, {:.1}% of the {decoded} B it holds with its bundles decoded",
        100.0 * share
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_built_catalog_holds_the_thawed_heap_plus_its_section() {
    let (ds, path) = frozen("built");
    let stats = built_stats(ds);
    let section = stats.section().len() as u64;
    let built = heap_of(stats);
    let thawed = heap_of(thawed_stats(&path));
    let expected = (thawed + section) as f64;
    assert!(
        (built as f64 - expected).abs() <= 0.01 * expected,
        "built {built} B, thawed {thawed} B + section {section} B"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn storage_breakdown_leaves_the_heap_unchanged() {
    let (ds, path) = frozen("breakdown");
    // Two catalogs of each kind, alike but for the breakdown asked of one.
    let (asked, untouched) = (built_stats(ds), built_stats(ds));
    assert_eq!(asked.storage_breakdown(), ds.stats.storage_breakdown());
    assert_eq!(heap_of(asked), heap_of(untouched), "built");
    let (asked, untouched) = (thawed_stats(&path), thawed_stats(&path));
    assert_eq!(asked.storage_breakdown(), ds.stats.storage_breakdown());
    assert_eq!(heap_of(asked), heap_of(untouched), "thawed");
    std::fs::remove_file(&path).ok();
}

#[test]
fn freezing_a_built_system_writes_its_section_byte_for_byte() {
    let (ds, path) = frozen("section");
    let artifact = Artifact::open(&path).expect("open");
    assert_eq!(
        artifact.section(SEC_STATS).expect("stats"),
        ds.stats.section()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn thawed_sketches_decode_on_demand_to_the_built_bundles_bit_for_bit() {
    let (ds, path) = frozen("bits");
    let stats = thawed_stats(&path);
    let n = stats.num_partitions();
    assert_eq!(n, ds.stats.num_partitions());
    // Freezing wrote the built section, and thawing keeps it.
    assert_eq!(stats.section(), ds.stats.section());
    // The bundles decoded on demand re-encode, through the one codec, to
    // the built catalog's bytes, and derive the same catalog.
    let sketches = (0..n).map(|p| stats.partition(p).to_vec()).collect();
    let num_cols = stats.feature_schema().num_cols();
    let rebuilt = TableStats::from_sketches(sketches, num_cols).expect("derives");
    assert_eq!(rebuilt.section(), ds.stats.section());
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

/// `storage_breakdown` reads sizes off the section's record headers and
/// blob length prefixes; its figures are, bit for bit, the ones summing
/// each decoded sketch's payload gave, for a built and a thawed catalog.
#[test]
fn storage_breakdown_bits_are_the_recorded_ones() {
    let (ds, path) = frozen("breakdown_bits");
    for (kind, stats) in [("built", built_stats(ds)), ("thawed", thawed_stats(&path))] {
        let b = stats.storage_breakdown();
        let bits = [b.histogram_kb, b.hh_kb, b.akmv_kb, b.measures_kb].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x401E_E520_0000_0000, // 7.7237548828125 histogram + exact
                0x4004_E200_0000_0000, // 2.6103515625 heavy hitters
                0x402D_2AA0_0000_0000, // 14.583251953125 AKMV
                0x3FDF_F000_0000_0000, // 0.4990234375 measures
            ],
            "{kind}"
        );
        assert_eq!(b.total_kb().to_bits(), 0x4039_6A98_0000_0000, "{kind}");
    }
    std::fs::remove_file(&path).ok();
}
