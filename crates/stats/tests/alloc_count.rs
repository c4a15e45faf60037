//! A deterministic cost gate for selectivity estimation: heap allocations
//! are counted, not timed. Planning a predicate and estimating every
//! partition through the plan allocates as often for 512 partitions as for
//! 64 — nothing per partition — where the recursive evaluator it replaced
//! allocates on every one. Sizing a statistics section allocates nothing,
//! and decoding one pre-allocates no more than its bytes could hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use ps3_query::{Clause, CmpOp, CompiledPredicate, Predicate};
use ps3_stats::persist::decode_table_stats;
use ps3_stats::{oracle, SelectivityPlan, StatsConfig, TableStats};
use ps3_storage::format::FormatError;
use ps3_storage::table::TableBuilder;
use ps3_storage::{Bytes, ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

/// The system allocator, counting the calling thread's allocations and
/// the bytes they request (the test harness runs each test on a thread of
/// its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread-local `Cell`s with no destructor, so touching
// them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far `counter` moved while `f` ran.
fn counted_in<T>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> T) -> (u64, T) {
    let before = counter.with(Cell::get);
    let out = f();
    (counter.with(Cell::get) - before, out)
}

/// `parts` partitions of 16 rows: `x` = row index, `y` = row index mod 7,
/// and a categorical `tag` cycling through 24 values.
fn stats_of(parts: usize) -> (PartitionedTable, TableStats) {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
    ]));
    for i in 0..parts * 16 {
        b.push_row(&[i as f64, (i % 7) as f64], &[&format!("t{}", i % 24)]);
    }
    let pt = PartitionedTable::with_equal_partitions(b.finish(), parts);
    let stats = TableStats::build(&pt, &StatsConfig::default());
    (pt, stats)
}

fn cmp(col: usize, op: CmpOp, value: f64) -> Predicate {
    Predicate::Clause(Clause::Cmp {
        col: ColId(col),
        op,
        value,
    })
}

fn tags(values: &[&str]) -> Predicate {
    Predicate::Clause(Clause::In {
        col: ColId(2),
        values: values.iter().map(|v| (*v).to_owned()).collect(),
        negated: false,
    })
}

/// An AND of intervals (two on `x` that merge into one), an OR, and an
/// `IN`.
fn predicates() -> Vec<(&'static str, Predicate)> {
    vec![
        (
            "AND of intervals",
            Predicate::And(vec![
                cmp(0, CmpOp::Ge, 100.0),
                cmp(1, CmpOp::Gt, 2.0),
                cmp(0, CmpOp::Lt, 4000.0),
            ]),
        ),
        (
            "OR",
            Predicate::Or(vec![
                cmp(0, CmpOp::Lt, 100.0),
                tags(&["t1"]),
                cmp(1, CmpOp::Ne, 3.0),
            ]),
        ),
        ("IN", tags(&["t1", "t3", "t5"])),
    ]
}

#[test]
fn estimating_every_partition_allocates_nothing_per_partition() {
    let (small, large) = (stats_of(64), stats_of(512));
    for (name, pred) in predicates() {
        let planned = |(pt, stats): &(PartitionedTable, TableStats)| {
            let compiled = CompiledPredicate::compile(pt.table(), &pred);
            counted_in(&ALLOCATIONS, || {
                let plan = SelectivityPlan::new(Some(&compiled));
                plan.estimate_all(stats).map(|f| f.upper).sum::<f64>()
            })
        };
        let ((few, _), (many, upper)) = (planned(&small), planned(&large));
        assert!(upper > 0.0, "{name}: some partition qualifies");
        if ps3_runtime::strict_kernels() {
            // Strict mode re-runs the recursive oracle on every partition,
            // and that allocates: proof the check ran on all 448 more.
            assert!(many >= few + 448, "{name}: {few} → {many} allocations");
        } else {
            assert_eq!(few, many, "{name}: 8× the partitions, same allocations");
            assert!(many <= 8, "{name}: {many} allocations for one plan");
        }

        // The recursive evaluator allocates on every partition.
        let (pt, stats) = &large;
        let compiled = CompiledPredicate::compile(pt.table(), &pred);
        let (recursive, ()) = counted_in(&ALLOCATIONS, || {
            for p in 0..stats.num_partitions() {
                oracle::selectivity_features_compiled(Some(&compiled), stats.partition(p));
            }
        });
        assert!(
            recursive >= stats.num_partitions() as u64,
            "{name}: the oracle made {recursive} allocations"
        );
    }
}

/// The Table-4 footprint is read off the section's record headers and
/// blob lengths: asking for it allocates nothing, where decoding the
/// sketches to size them allocated at least one per record.
#[test]
fn storage_breakdown_allocates_no_sketch() {
    let (_, stats) = stats_of(64);
    let (allocations, breakdown) = counted_in(&ALLOCATIONS, || stats.storage_breakdown());
    assert!(breakdown.total_kb() > 0.0);
    assert_eq!(allocations, 0, "{allocations} allocations");
}

/// `[n][num_cols]` followed by `rest`.
fn stats_section(n: u32, num_cols: u32, rest: &[u8]) -> Bytes<u8> {
    let mut bytes = [n.to_le_bytes(), num_cols.to_le_bytes()].concat();
    bytes.extend_from_slice(rest);
    bytes.into()
}

/// A table schema of `num_cols` numeric columns.
fn numeric_schema(num_cols: usize) -> Schema {
    Schema::new(
        (0..num_cols)
            .map(|c| ColumnMeta::new(format!("x{c}"), ColumnType::Numeric))
            .collect(),
    )
}

/// Headers claiming 4,194,304 partitions fail without reserving room for
/// the partitions they claim: one column followed by four zero bytes
/// where the first record should be is a short payload (a version-4
/// decoder read those bytes as an empty heavy-hitter list and reserved
/// 16 MiB of bitmaps), and partitions of no columns are refused outright.
#[test]
fn stats_sections_claiming_more_than_they_hold_allocate_next_to_nothing() {
    // Each section is decoded for the schema of the columns it claims.
    let decode = |bytes: Bytes<u8>, schema: &Schema| {
        let (allocated, result) =
            counted_in(&BYTES, || decode_table_stats(bytes, schema).map(|_| ()));
        assert!(allocated < 64 * 1024, "{allocated} bytes allocated");
        result
    };
    let result = decode(stats_section(1 << 22, 1, &[0; 4]), &numeric_schema(1));
    assert!(
        matches!(result, Err(FormatError::Truncated("stats"))),
        "{result:?}"
    );
    let result = decode(stats_section(1 << 22, 0, &[]), &numeric_schema(0));
    assert!(
        matches!(
            result,
            Err(FormatError::Corrupt("stats partitions without columns"))
        ),
        "{result:?}"
    );
}
