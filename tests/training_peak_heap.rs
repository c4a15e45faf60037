//! Training's peak heap, counted: `Ps3System::train` bins the workload's
//! compact matrices once, column by column, and never builds the
//! full-width row set (one `f64` per row and feature) the GBDT binner used
//! to take.
//!
//! Counted, not timed: a global allocator (`counting_heap`) tracks the live
//! heap of every thread and its high-water mark. Training runs serially
//! (`threads = 1`), so the mark is a pure function of the code and repeats
//! exactly.

use std::sync::Arc;

use ps3::core::{Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};

mod counting_heap;
use counting_heap::peak_rise_in;

/// When the k importance models and the LSS regressor trained on one
/// full-width row set (512 rows × 466 features here, 1,908,736 bytes of
/// values), each re-binning it, training this twin rose 3,015,826 bytes
/// above its starting heap. Binning the compact matrices once must save at
/// least that row set's values: `rows × full_dim × 8` bytes. It saves
/// 1,922,992 (training now rises 1,092,834 bytes).
const PEAK_RISE_WITH_FULL_WIDTH_ROWS: usize = 3_015_826;

#[test]
fn training_peaks_at_least_one_full_width_row_set_lower() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(42);
    let queries = &ds.train_queries[..8];
    let mut cfg = Ps3Config::default().with_seed(42);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;
    cfg.threads = 1;
    let (rise, _system) =
        peak_rise_in(|| Ps3System::train(Arc::clone(&ds.pt), Arc::clone(&ds.stats), queries, cfg));
    let rows = queries.len() * ds.pt.num_partitions();
    let full_width = rows * ds.stats.feature_schema().dim() * std::mem::size_of::<f64>();
    assert!(
        rise + full_width <= PEAK_RISE_WITH_FULL_WIDTH_ROWS,
        "training rose {rise} B above its starting heap: not {full_width} B under the \
         {PEAK_RISE_WITH_FULL_WIDTH_ROWS} B it rose with a full-width row set"
    );
}
