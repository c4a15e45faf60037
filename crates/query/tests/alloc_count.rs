//! A deterministic cost gate for grouped execution: heap allocations are
//! counted, not timed. One partition's grouped kernel may allocate for its
//! groups and a fixed set of per-partition buffers, never per row; folding
//! a partial whose groups are all present already may not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ps3_query::{AggExpr, CompiledQuery, PartialAnswer, Query, ScalarExpr};
use ps3_storage::table::TableBuilder;
use ps3_storage::{ColId, ColumnMeta, ColumnType, Schema, Table};

/// The system allocator, counting the calling thread's allocations (the
/// test harness runs each test on a thread of its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const GROUPS: usize = 16;

/// 4,096 rows whose every 16-row run holds all 16 values of `tag16` and all
/// 16 `(k, tag4)` pairs, so any prefix from 16 rows up has the same groups.
fn table() -> Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("k", ColumnType::Numeric),
        ColumnMeta::new("tag16", ColumnType::Categorical),
        ColumnMeta::new("tag4", ColumnType::Categorical),
    ]));
    for i in 0..4096usize {
        b.push_row(
            &[i as f64 * 0.5, (i % 4) as f64],
            &[&format!("t{}", i % 16), &format!("u{}", (i / 4) % 4)],
        );
    }
    b.finish()
}

fn sum_avg_by(group_by: Vec<ColId>) -> Query {
    let x = || ScalarExpr::col(ColId(0));
    Query::new(vec![AggExpr::sum(x()), AggExpr::avg(x())], None, group_by)
}

#[test]
fn grouped_execution_allocates_per_group_not_per_row() {
    let t = table();
    for group_by in [vec![ColId(2)], vec![ColId(1), ColId(3)]] {
        let query = sum_avg_by(group_by);
        let cq = CompiledQuery::compile(&t, &query);
        let (small, part) = allocations_in(|| cq.execute_partition(&t, 0..512));
        let (large, _) = allocations_in(|| cq.execute_partition(&t, 0..4096));
        assert_eq!(
            part.slot_totals()[2],
            512.0,
            "every row is selected: {query:?}"
        );
        assert_eq!(
            small, large,
            "eight times the rows over the same {GROUPS} groups: {query:?}"
        );
        assert!(
            small <= 16 + GROUPS as u64,
            "{small} allocations for {GROUPS} groups: {query:?}"
        );
    }
}

#[test]
fn folding_groups_already_present_allocates_nothing() {
    let t = table();
    for group_by in [vec![], vec![ColId(2)], vec![ColId(1), ColId(3)]] {
        let query = sum_avg_by(group_by);
        let cq = CompiledQuery::compile(&t, &query);
        let first = cq.execute_partition(&t, 0..512);
        let second = cq.execute_partition(&t, 512..1024);
        let mut acc = PartialAnswer::empty(&query);
        acc.add_weighted(&first, 2.0);
        let (allocations, ()) = allocations_in(|| acc.add_weighted(&second, 3.0));
        assert_eq!(allocations, 0, "{query:?}");
    }
}
