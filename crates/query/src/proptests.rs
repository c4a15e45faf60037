//! Kernel-vs-oracle property tests.
//!
//! The compiled kernel engine ([`crate::kernel`]) must be **bit-identical**
//! to the pre-refactor scalar interpreter (kept in [`crate::oracle`]) on
//! arbitrary in-scope queries and tables: identical group keys, identical
//! accumulator slot bits (NaNs compared by bit pattern, not `==`, a NaN's
//! sign aside — see [`slot_bits`]), and the serial and pooled execution
//! paths must agree with each other per seed.

use proptest::prelude::*;

use crate::ast::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr};
use crate::exec::{
    execute_partials_on, execute_partitions, GroupKey, PartialAnswer, QueryAnswer, WeightedPart,
};
use crate::kernel::{cmp_kernel, membership_kernel, CompiledQuery, TargetSet, DENSE_DICT_LIMIT};
use crate::oracle::execute_partition_oracle;
use crate::selvec::SelVec;
use ps3_storage::table::TableBuilder;
use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionId, PartitionedTable, Schema};

const TAGS: [&str; 6] = ["alpha", "beta", "gamma", "promo one", "promo two", "zz"];

/// The number of distinct values `big` draws from.
const BIG_VALUES: usize = 1000;

/// A small random table: numeric `x` and `y` (with NaN of both signs and
/// ±0.0 sprinkled in, to exercise the canonicalization contract and the
/// projections' zero divisors), categorical `tag` over [`TAGS`] and
/// categorical `big` over up to [`BIG_VALUES`] values. `tag`'s codes
/// index groups directly at every arity the queries use; `big`'s
/// dictionary holds about as many values as the table has rows, so a
/// two-key code space over it passes the kernel's code-space limit and
/// those groups take the hashed ids.
fn arb_table() -> impl Strategy<Value = PartitionedTable> {
    let edge = || prop_oneof![Just(0.0), Just(-0.0), Just(f64::NAN), Just(-f64::NAN)];
    let x = prop_oneof![-20.0f64..120.0, -20.0f64..120.0, edge()];
    let y = prop_oneof![-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0, edge()];
    (
        prop::collection::vec((x, y, 0usize..TAGS.len(), 0usize..BIG_VALUES), 20..180),
        1usize..9,
    )
        .prop_map(|(rows, parts)| {
            let schema = Schema::new(vec![
                ColumnMeta::new("x", ColumnType::Numeric),
                ColumnMeta::new("y", ColumnType::Numeric),
                ColumnMeta::new("tag", ColumnType::Categorical),
                ColumnMeta::new("big", ColumnType::Categorical),
            ]);
            let mut b = TableBuilder::new(schema);
            for (x, y, t, big) in rows {
                b.push_row(&[x, y], &[TAGS[t], &format!("b{big}")]);
            }
            let t = b.finish();
            let parts = parts.min(t.num_rows());
            PartitionedTable::with_equal_partitions(t, parts)
        })
}

/// A random predicate over the fixed schema: comparisons (all six ops),
/// multi-value `IN`/`NOT IN`, substring `Contains`, combined with AND / OR
/// / NOT-of-AND shapes.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let clause = prop_oneof![
        (
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne)
            ],
            -30.0f64..130.0
        )
            .prop_map(|(op, v)| Clause::Cmp {
                col: ColId(0),
                op,
                value: v
            }),
        (
            prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Ge)],
            -60.0f64..60.0
        )
            .prop_map(|(op, v)| {
                Clause::Cmp {
                    col: ColId(1),
                    op,
                    value: v,
                }
            }),
        (
            prop::collection::vec(0usize..TAGS.len() + 1, 1..4),
            any::<bool>()
        )
            .prop_map(|(ts, neg)| Clause::In {
                col: ColId(2),
                values: ts
                    .into_iter()
                    .map(|t| if t < TAGS.len() {
                        TAGS[t].to_owned()
                    } else {
                        "missing".to_owned()
                    })
                    .collect(),
                negated: neg,
            }),
        (0usize..3, any::<bool>()).prop_map(|(n, neg)| Clause::Contains {
            col: ColId(2),
            needle: ["promo", "a", "zzz"][n].to_owned(),
            negated: neg,
        }),
    ];
    prop::collection::vec(clause, 1..5).prop_flat_map(|clauses| {
        (0..3u8).prop_map(move |shape| match shape {
            0 => Predicate::all(clauses.clone()),
            1 => Predicate::any(clauses.clone()),
            _ => Predicate::Not(Box::new(Predicate::any(clauses.clone()))),
        })
    })
}

/// `Option<Predicate>` strategy (the vendored proptest has no
/// `proptest::option` module).
fn arb_opt_predicate() -> impl Strategy<Value = Option<Predicate>> {
    prop_oneof![Just(None), arb_predicate().prop_map(Some)]
}

/// A random query: 1–3 aggregates (SUM over a column or projection, COUNT,
/// AVG; sometimes CASE-conditioned), optional WHERE, optional GROUP BY over
/// the numeric and/or categorical columns — up to three keys, some named
/// twice, and categorical-only key lists whose code space is within the
/// kernel's limit or (through `big`, usually) past it.
fn arb_query() -> impl Strategy<Value = Query> {
    let (x, y) = (|| ScalarExpr::col(ColId(0)), || ScalarExpr::col(ColId(1)));
    let expr = prop_oneof![
        Just(x()),
        Just(y()),
        Just(x().mul(y())),
        Just(y().div(x())),
        Just(x().add(ScalarExpr::Literal(2.5))),
        Just(x().sub(y())),
        Just(x().div(y())),
        Just(x().add(y()).div(x().sub(y()))),
        Just(ScalarExpr::Literal(0.1)),
    ];
    let agg = (0u8..3, expr, arb_opt_predicate()).prop_map(|(func, expr, cond)| {
        let base = match func {
            0 => AggExpr::sum(expr),
            1 => AggExpr::count(),
            _ => AggExpr::avg(expr),
        };
        match cond {
            Some(p) => base.filtered(p),
            None => base,
        }
    });
    let (tag, big) = (ColId(2), ColId(3));
    (
        prop::collection::vec(agg, 1..4),
        arb_opt_predicate(),
        0u8..12,
    )
        .prop_map(move |(aggs, pred, group)| {
            let group_by = match group {
                0 => vec![],
                1 => vec![tag],
                2 => vec![ColId(0)],
                3 => vec![ColId(0), tag],
                4 => vec![tag, ColId(0), ColId(1)],
                5 => vec![tag, ColId(0), tag],
                6 => vec![big],
                7 => vec![tag, big],
                8 => vec![big, big],
                9 => vec![tag, tag, tag],
                10 => vec![big, tag, big],
                _ => vec![tag, big, ColId(0)],
            };
            Query::new(aggs, pred, group_by)
        })
}

/// A slot's bit pattern, a NaN's sign set aside. Rust leaves the sign of
/// a NaN made from two NaNs of opposite sign to the compiler — x86 keeps
/// the first operand's, and LLVM may put either operand first, so a debug
/// and a release build of one sum disagree — and the tables here hold NaN
/// of both signs. Every other bit, a NaN's payload included, must match.
fn slot_bits(x: f64) -> u64 {
    if x.is_nan() {
        x.to_bits() & !(1 << 63)
    } else {
        x.to_bits()
    }
}

/// Bit-level equality of partial answers: same groups, and every slot pair
/// has identical [`slot_bits`] (so NaN == NaN and +0.0 != -0.0).
fn bits_eq_partial(a: &PartialAnswer, b: &PartialAnswer) -> Result<(), String> {
    if a.slots() != b.slots() {
        return Err(format!("slot arity {} vs {}", a.slots(), b.slots()));
    }
    if a.num_groups() != b.num_groups() {
        return Err(format!("{} groups vs {}", a.num_groups(), b.num_groups()));
    }
    for (key, va) in a.groups() {
        let Some(vb) = b.get(key) else {
            return Err(format!("group {key:?} missing on one side"));
        };
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            if slot_bits(*x) != slot_bits(*y) {
                return Err(format!(
                    "group {key:?} slot {i}: {x:?} vs {y:?} (bits differ)"
                ));
            }
        }
    }
    Ok(())
}

/// Bit-level equality of finalized answers.
fn bits_eq_answer(a: &QueryAnswer, b: &QueryAnswer) -> Result<(), String> {
    if a.groups.len() != b.groups.len() {
        return Err(format!("{} groups vs {}", a.groups.len(), b.groups.len()));
    }
    for (key, va) in &a.groups {
        let Some(vb) = b.groups.get(key) else {
            return Err(format!("group {key:?} missing on one side"));
        };
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            if slot_bits(*x) != slot_bits(*y) {
                return Err(format!(
                    "group {key:?} agg {i}: {x:?} vs {y:?} (bits differ)"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-partition: compiled kernels == the pre-refactor interpreter,
    /// bit for bit, on every partition of a random table.
    #[test]
    fn kernel_matches_oracle_per_partition(pt in arb_table(), query in arb_query()) {
        let cq = CompiledQuery::compile(pt.table(), &query);
        for p in 0..pt.num_partitions() {
            let rows = pt.rows(PartitionId(p));
            let oracle = execute_partition_oracle(pt.table(), rows.clone(), &query);
            let kernel = cq.execute_partition(pt.table(), rows);
            if let Err(e) = bits_eq_partial(&oracle, &kernel) {
                prop_assert!(false, "partition {p}: {e}\nquery {query:?}");
            }
        }
    }

    /// Combined: serial interpretation, the serial reference, and the
    /// pooled partials folded in selection order all produce bit-identical
    /// weighted answers.
    #[test]
    fn serial_parallel_kernel_agree(pt in arb_table(), query in arb_query(), wseed in 0u32..1000) {
        let selection: Vec<WeightedPart> = (0..pt.num_partitions())
            .map(|p| WeightedPart {
                partition: PartitionId(p),
                weight: 0.5 + ((wseed as usize + p) % 7) as f64 * 0.75,
            })
            .collect();
        let cq = CompiledQuery::compile(pt.table(), &query);

        // Oracle combine, same order and weights.
        let mut acc = PartialAnswer::empty(&query);
        for wp in &selection {
            let part = execute_partition_oracle(pt.table(), pt.rows(wp.partition), &query);
            acc.add_weighted(&part, wp.weight);
        }
        let oracle = acc.finalize(&query);

        let serial = execute_partitions(&pt, &query, &selection);
        let pool = ps3_runtime::ThreadPool::new(3);
        let mut acc = PartialAnswer::empty(&query);
        for (wp, part) in selection.iter().zip(execute_partials_on(&pt, &selection, &pool, |rows| cq.execute_partition(pt.table(), rows))) {
            acc.add_weighted(&part, wp.weight);
        }
        let pooled = cq.finalize(&acc);

        for (name, ans) in [("serial", &serial), ("pooled", &pooled)] {
            if let Err(e) = bits_eq_answer(&oracle, ans) {
                prop_assert!(false, "{name} diverged from oracle: {e}\nquery {query:?}");
            }
        }
    }
}

#[test]
fn empty_partition_yields_empty_answer() {
    let schema = Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..8 {
        b.push_row(&[f64::from(i), 1.0], &[TAGS[i as usize % 6]]);
    }
    let t = b.finish();
    let query = Query::new(
        vec![AggExpr::count(), AggExpr::avg(ScalarExpr::col(ColId(0)))],
        None,
        vec![ColId(2)],
    );
    let cq = CompiledQuery::compile(&t, &query);
    // A zero-row range is a legal (empty) partition.
    let kernel = cq.execute_partition(&t, 3..3);
    let oracle = execute_partition_oracle(&t, 3..3, &query);
    assert!(kernel.is_empty());
    bits_eq_partial(&oracle, &kernel).unwrap();
}

#[test]
fn all_false_predicate_selects_nothing() {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
    ]));
    for i in 0..100 {
        b.push_row(&[f64::from(i), 0.5], &[TAGS[i as usize % 6]]);
    }
    let t = b.finish();
    for (query_pred, group_by) in [
        (
            Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Gt,
                value: 1e9,
            }),
            vec![],
        ),
        (
            Predicate::Clause(Clause::str_eq(ColId(2), "not-in-dict")),
            vec![ColId(2)],
        ),
    ] {
        let query = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0))), AggExpr::count()],
            Some(query_pred),
            group_by,
        );
        let cq = CompiledQuery::compile(&t, &query);
        let kernel = cq.execute_partition(&t, 0..100);
        let oracle = execute_partition_oracle(&t, 0..100, &query);
        assert!(kernel.is_empty(), "all-false must yield no groups");
        bits_eq_partial(&oracle, &kernel).unwrap();
    }
}

#[test]
fn single_row_ranges_match_oracle() {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
    ]));
    for i in 0..67 {
        b.push_row(&[f64::from(i) - 3.0, -1.5], &[TAGS[i as usize % 6]]);
    }
    let t = b.finish();
    let query = Query::new(
        vec![
            AggExpr::sum(ScalarExpr::col(ColId(0)).mul(ScalarExpr::col(ColId(1)))),
            AggExpr::avg(ScalarExpr::col(ColId(1))),
        ],
        Some(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Ge,
            value: 0.0,
        })),
        vec![ColId(2)],
    );
    let cq = CompiledQuery::compile(&t, &query);
    for row in 0..67 {
        let kernel = cq.execute_partition(&t, row..row + 1);
        let oracle = execute_partition_oracle(&t, row..row + 1, &query);
        bits_eq_partial(&oracle, &kernel).unwrap_or_else(|e| panic!("row {row}: {e}"));
    }
}

/// `x, y, tag` tables for the deterministic edge cases below.
fn xy_tag_table(rows: impl IntoIterator<Item = (f64, f64, &'static str)>) -> ps3_storage::Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
    ]));
    for (x, y, tag) in rows {
        b.push_row(&[x, y], &[tag]);
    }
    b.finish()
}

#[test]
fn zero_signs_and_nan_payloads_share_a_group_at_every_arity() {
    let odd_nan = f64::from_bits(0x7FF8_0000_0000_0001);
    let t = xy_tag_table([
        (0.0, 1.0, "alpha"),
        (-0.0, 2.0, "alpha"),
        (f64::NAN, 4.0, "alpha"),
        (odd_nan, 8.0, "alpha"),
        (-0.0, 16.0, "beta"),
        (1.5, 32.0, "beta"),
        (-f64::NAN, 64.0, "beta"),
    ]);
    let sum_y = || vec![AggExpr::sum(ScalarExpr::col(ColId(1)))];
    for (group_by, sums) in [
        (vec![ColId(0)], vec![19.0, 32.0, 76.0]),
        (vec![ColId(0), ColId(2)], vec![3.0, 16.0, 32.0, 12.0, 64.0]),
        (
            vec![ColId(2), ColId(0), ColId(2)],
            vec![3.0, 12.0, 16.0, 32.0, 64.0],
        ),
    ] {
        let query = Query::new(sum_y(), None, group_by);
        let kernel = CompiledQuery::compile(&t, &query).execute_partition(&t, 0..7);
        bits_eq_partial(&execute_partition_oracle(&t, 0..7, &query), &kernel).unwrap();
        let got: Vec<f64> = kernel.groups().map(|(_, vals)| vals[0]).collect();
        assert_eq!(got, sums, "{:?}", query.group_by);
    }
}

#[test]
fn a_group_whose_every_case_fails_keeps_its_zero_slots() {
    // Rows pass WHERE, no row passes any CASE: the groups exist (a row was
    // selected) and every slot is the `0.0` it started from.
    let t = xy_tag_table((0..40).map(|i| (f64::from(i), 1.0, TAGS[i as usize % 3])));
    let never = || {
        Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: 1e9,
        })
    };
    let query = Query::new(
        vec![
            AggExpr::sum(ScalarExpr::col(ColId(0))).filtered(never()),
            AggExpr::avg(ScalarExpr::col(ColId(1))).filtered(never()),
            AggExpr::count().filtered(never()),
        ],
        Some(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Ge,
            value: 10.0,
        })),
        vec![ColId(2)],
    );
    let kernel = CompiledQuery::compile(&t, &query).execute_partition(&t, 0..40);
    bits_eq_partial(&execute_partition_oracle(&t, 0..40, &query), &kernel).unwrap();
    assert_eq!(kernel.num_groups(), 3);
    for (key, vals) in kernel.groups() {
        assert!(
            vals.iter().all(|v| v.to_bits() == 0),
            "group {key:?}: {vals:?}"
        );
    }
}

#[test]
fn five_hundred_thirteen_keys_in_one_partition_grow_the_group_table() {
    // 513 distinct numeric keys (several doublings of the probe table), in
    // an order that is neither ascending nor first-seen-sorted, each key on
    // two rows.
    let t = xy_tag_table((0..1026u32).map(|i| {
        let key = (i * 7) % 513;
        (f64::from(key) - 200.0, f64::from(i), TAGS[key as usize % 6])
    }));
    for group_by in [vec![ColId(0)], vec![ColId(0), ColId(2)]] {
        let query = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(1))), AggExpr::count()],
            None,
            group_by,
        );
        let kernel = CompiledQuery::compile(&t, &query).execute_partition(&t, 0..1026);
        bits_eq_partial(&execute_partition_oracle(&t, 0..1026, &query), &kernel).unwrap();
        assert_eq!(kernel.num_groups(), 513);
        assert!(kernel.groups().all(|(_, vals)| vals[1] == 2.0));
        let keys: Vec<&[u64]> = kernel.groups().map(|(key, _)| key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending key order");
    }
}

/// `x, y, tag, big` over `n` rows: `x = i`, `y = 1`, `tag` cycling through
/// [`TAGS`] and `big` through 200 values, each dictionary coding its values
/// in first-appearance order. One `big` key is within the code-space limit;
/// `tag` beside it (1,200 code tuples) is past it.
fn tag_big_table(n: u32) -> ps3_storage::Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("y", ColumnType::Numeric),
        ColumnMeta::new("tag", ColumnType::Categorical),
        ColumnMeta::new("big", ColumnType::Categorical),
    ]));
    for i in 0..n {
        b.push_row(
            &[f64::from(i), 1.0],
            &[TAGS[i as usize % TAGS.len()], &format!("b{}", i % 200)],
        );
    }
    b.finish()
}

/// The key lists the unit tests below run: code ids at arity 1–3, one key
/// named twice, and hashed ids for a categorical pair past the limit.
fn categorical_key_lists() -> [Vec<ColId>; 5] {
    let (tag, big) = (ColId(2), ColId(3));
    [
        vec![tag],
        vec![big],
        vec![tag, tag, tag],
        vec![tag, big],
        vec![big, tag, ColId(0)],
    ]
}

#[test]
fn the_dictionarys_largest_code_is_a_group_of_its_own() {
    // Rows 390..400 hold `big` codes 190..=199 (199 the dictionary's last)
    // and every `tag` code (5 the last).
    let t = tag_big_table(400);
    let (_, big_dict) = t.categorical(ColId(3));
    assert_eq!(big_dict.code("b199"), Some(199));
    assert_eq!(big_dict.len(), 200);
    for group_by in categorical_key_lists() {
        let query = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0))), AggExpr::count()],
            None,
            group_by,
        );
        let kernel = CompiledQuery::compile(&t, &query).execute_partition(&t, 390..400);
        bits_eq_partial(&execute_partition_oracle(&t, 390..400, &query), &kernel)
            .unwrap_or_else(|e| panic!("{:?}: {e}", query.group_by));
        let last = kernel.groups().last().map(|(key, _)| key.to_vec());
        let want: Vec<u64> = match query.group_by.as_slice() {
            [ColId(2)] => vec![5],
            [ColId(3)] => vec![199],
            [_, _, ColId(2)] => vec![5, 5, 5],
            [ColId(2), ColId(3)] => vec![5, 195],
            _ => vec![199, 3, 399f64.to_bits()],
        };
        assert_eq!(last, Some(want), "{:?}", query.group_by);
    }
}

#[test]
fn a_partition_where_no_row_passes_where_has_no_groups() {
    // Only rows 0..10 pass: the first partition has groups, the other
    // three none, whichever way their keys get ids.
    let t = tag_big_table(400);
    let pred = Predicate::Clause(Clause::Cmp {
        col: ColId(0),
        op: CmpOp::Lt,
        value: 10.0,
    });
    for group_by in categorical_key_lists() {
        let query = Query::new(
            vec![AggExpr::avg(ScalarExpr::col(ColId(0))), AggExpr::count()],
            Some(pred.clone()),
            group_by,
        );
        let cq = CompiledQuery::compile(&t, &query);
        for start in [0, 100, 200, 300] {
            let rows = start..start + 100;
            let kernel = cq.execute_partition(&t, rows.clone());
            bits_eq_partial(&execute_partition_oracle(&t, rows, &query), &kernel).unwrap();
            assert_eq!(kernel.is_empty(), start > 0, "{:?}", query.group_by);
        }
    }
}

#[test]
fn a_case_failing_on_every_row_of_one_group_leaves_that_group_zero() {
    // Every row passes WHERE; the CASE `tag NOT IN ('alpha')` fails on
    // every row of the groups keyed by "alpha", and those groups stay.
    let t = tag_big_table(400);
    let case = || {
        Predicate::Clause(Clause::In {
            col: ColId(2),
            values: vec!["alpha".to_owned()],
            negated: true,
        })
    };
    for group_by in categorical_key_lists() {
        let query = Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ColId(0)).sub(ScalarExpr::col(ColId(1))))
                    .filtered(case()),
                AggExpr::count().filtered(case()),
            ],
            None,
            group_by.clone(),
        );
        let kernel = CompiledQuery::compile(&t, &query).execute_partition(&t, 0..400);
        bits_eq_partial(&execute_partition_oracle(&t, 0..400, &query), &kernel).unwrap();
        let tag_at = group_by.iter().position(|&c| c == ColId(2));
        for (key, vals) in kernel.groups() {
            let alpha = match tag_at {
                Some(at) => key[at] == 0,
                // Keyed by `big` alone: `b{k}` is rows k and k + 200, and
                // 200 ≡ 2 (mod 6) keeps one of them off "alpha".
                None => false,
            };
            assert_eq!(
                vals.iter().all(|v| v.to_bits() == 0),
                alpha,
                "{group_by:?} group {key:?}: {vals:?}"
            );
        }
    }
}

/// Random partial answers over one small key universe (so partials overlap,
/// bring new groups in front of, between and behind the ones already
/// folded, and sometimes are empty), with a selection weight each.
#[allow(clippy::type_complexity)]
fn arb_partials() -> impl Strategy<Value = (usize, Vec<(f64, Vec<(Vec<u64>, Vec<f64>)>)>)> {
    let value = || prop_oneof![-100.0f64..100.0, Just(0.0), Just(-0.0), Just(f64::INFINITY)];
    (0usize..4, 1usize..4).prop_flat_map(move |(arity, slots)| {
        let group = (
            prop::collection::vec(0u64..4, arity..=arity),
            prop::collection::vec(value(), slots..=slots),
        );
        let partial = prop::collection::vec(group, 0..10).prop_map(|mut groups| {
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            groups.dedup_by(|a, b| a.0 == b.0);
            groups
        });
        prop::collection::vec((0.25f64..4.0, partial), 1..8)
            .prop_map(move |partials| (slots, partials))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fold law: `add_weighted` over any selection of partials is, bit
    /// for bit, the keyed fold it replaced (`entry(key).or_insert(0.0…)`,
    /// `+= weight · b`, in selection order), `slot_totals` is the sum in
    /// ascending key order, and the flat layout is canonical —
    /// rebuilding from the groups gives back an equal value.
    #[test]
    fn add_weighted_and_slot_totals_match_the_keyed_reference_fold(
        (slots, partials) in arb_partials(),
    ) {
        use std::collections::{BTreeMap, HashMap};
        let mut acc = PartialAnswer::with_slots(slots);
        let mut reference: HashMap<Vec<u64>, Vec<f64>> = HashMap::new();
        for (weight, groups) in &partials {
            // `from_groups` takes any order: hand it the reverse.
            let keyed = groups.iter().rev().map(|(k, v)| (GroupKey(k.clone().into()), v.clone()));
            let part = PartialAnswer::from_groups(slots, keyed);
            prop_assert_eq!(part.num_groups(), groups.len());
            let rebuilt = PartialAnswer::from_groups(
                slots,
                part.groups().map(|(k, v)| (GroupKey(k.into()), v.to_vec())),
            );
            prop_assert_eq!(&rebuilt, &part);

            let sorted: BTreeMap<&Vec<u64>, &Vec<f64>> = groups.iter().map(|(k, v)| (k, v)).collect();
            let mut totals = vec![0.0; slots];
            for vals in sorted.values() {
                totals.iter_mut().zip(*vals).for_each(|(t, v)| *t += v);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&part.slot_totals()), bits(&totals));

            acc.add_weighted(&part, *weight);
            for (key, vals) in groups {
                let into = reference.entry(key.clone()).or_insert_with(|| vec![0.0; slots]);
                into.iter_mut().zip(vals).for_each(|(a, b)| *a += weight * b);
            }
            prop_assert_eq!(acc.num_groups(), reference.len());
            for (key, vals) in acc.groups() {
                prop_assert_eq!(bits(vals), bits(&reference[key]), "group {:?}", key);
            }
        }
        let keys: Vec<&[u64]> = acc.groups().map(|(key, _)| key).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending, distinct keys");
    }
}

/// Mutate the first literal found in a predicate (a comparison constant,
/// an `IN` list, or a `Contains` needle) — an edit that must never share
/// an answer- or feature-cache entry with the original.
fn bump_first_literal(p: &mut Predicate) -> bool {
    match p {
        Predicate::Clause(Clause::Cmp { value, .. }) => {
            *value += 1.0;
            true
        }
        Predicate::Clause(Clause::In { values, .. }) => {
            values.push("fingerprint-edit".to_owned());
            true
        }
        Predicate::Clause(Clause::Contains { needle, .. }) => {
            needle.push('!');
            true
        }
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter_mut().any(bump_first_literal),
        Predicate::Not(inner) => bump_first_literal(inner),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The serving layer's cache-key contract, part 1: `Query::fingerprint`
    /// is a pure function of query *structure* — stable across clones,
    /// field-by-field rebuilds, and repeated calls.
    #[test]
    fn fingerprint_is_stable_across_clone_and_rebuild(query in arb_query()) {
        let fp = query.fingerprint();
        prop_assert_eq!(fp, query.clone().fingerprint());
        let rebuilt = Query::new(
            query.aggregates.clone(),
            query.predicate.clone(),
            query.group_by.clone(),
        );
        prop_assert_eq!(fp, rebuilt.fingerprint(), "rebuild changed the fingerprint");
        prop_assert_eq!(fp, query.fingerprint(), "fingerprint is not idempotent");
    }

    /// Part 2: edits that must not share a cache entry — literal tweaks,
    /// extra aggregates, group-by changes, added predicates — all move the
    /// fingerprint. (A 64-bit collision is possible in principle; these
    /// deterministic generated cases document that none of the *systematic*
    /// edits collide.)
    #[test]
    fn fingerprint_changes_under_literal_and_structure_edits(query in arb_query()) {
        let fp = query.fingerprint();

        let mut extra_agg = query.clone();
        extra_agg.aggregates.push(AggExpr::avg(ScalarExpr::col(ColId(1))));
        prop_assert!(fp != extra_agg.fingerprint(), "extra aggregate must change it");

        let mut regrouped = query.clone();
        regrouped.group_by.push(ColId(1));
        prop_assert!(fp != regrouped.fingerprint(), "group-by edit must change it");

        let mut edited = query.clone();
        match &mut edited.predicate {
            Some(p) => {
                prop_assert!(bump_first_literal(p), "every generated predicate has a literal");
                prop_assert!(fp != edited.fingerprint(), "literal edit must change it");
            }
            None => {
                edited.predicate = Some(Predicate::Clause(Clause::Cmp {
                    col: ColId(0),
                    op: CmpOp::Lt,
                    value: 1.0,
                }));
                prop_assert!(fp != edited.fingerprint(), "added predicate must change it");
            }
        }

        // Structure vs. literal: AND and OR of the same clauses are
        // different plans and must hash apart.
        if let Some(Predicate::And(ps)) = &query.predicate {
            let mut flipped = query.clone();
            flipped.predicate = Some(Predicate::Or(ps.clone()));
            prop_assert!(fp != flipped.fingerprint(), "AND vs OR must change it");
        }
    }
}

/// Values dense in the IEEE-754 edges the comparison ops care about: NaN
/// (every op must see it as false except `Ne`), ±0.0 (equal under `==`
/// despite distinct bit patterns), both infinities, and ordinary finites.
fn arb_edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -100.0f64..100.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The blocked 8-lane comparison kernel is bit-identical to a
    /// row-at-a-time scalar evaluation on NaN/±0.0/∞-dense data at
    /// arbitrary lengths — including lengths that leave ragged tails
    /// shorter than a 64-row mask word.
    #[test]
    fn simd_cmp_mask_matches_scalar_rows(
        data in prop::collection::vec(arb_edge_f64(), 0..200),
        op in prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
        ],
        value in arb_edge_f64(),
    ) {
        let mut out = SelVec::none(data.len());
        cmp_kernel(&data, op, value, &mut out);
        let scalar: Vec<bool> = data
            .iter()
            .map(|&x| match op {
                CmpOp::Lt => x < value,
                CmpOp::Le => x <= value,
                CmpOp::Gt => x > value,
                CmpOp::Ge => x >= value,
                CmpOp::Eq => x == value,
                CmpOp::Ne => x != value,
            })
            .collect();
        prop_assert_eq!(out.to_bools(), scalar);
    }

    /// The blocked membership kernel agrees with a naive per-row probe for
    /// both target-set representations: the dense bitset (small dictionary)
    /// and the sorted binary-search fallback (dictionary past the dense
    /// limit) — same codes, same mask, bit for bit.
    #[test]
    fn simd_membership_mask_matches_naive_probe(
        codes in prop::collection::vec(0u32..300, 0..200),
        targets in prop::collection::vec(0u32..300, 0..8),
    ) {
        let naive: Vec<bool> = codes.iter().map(|c| targets.contains(c)).collect();
        for dict_len in [300usize, DENSE_DICT_LIMIT + 1] {
            let set = TargetSet::build(targets.clone(), dict_len);
            let mut out = SelVec::none(codes.len());
            membership_kernel(&codes, &set, &mut out);
            prop_assert_eq!(out.to_bools(), naive.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// The byte codec ([`crate::codec`]): its properties are held here once, for
// both boundaries that speak it (wire requests, frozen training workloads).

mod codec_props {
    use super::*;
    use crate::codec::{check_query_schema, check_schema, decode_query_spec, encode_query_spec};
    use crate::sketch::{QuerySpec, SketchQuery};
    use ps3_storage::codec::{CodecError, Reader, Writer};

    fn encode(spec: &QuerySpec) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_query_spec(&mut Writer::new(&mut bytes), spec).expect("in-cap specs encode");
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<QuerySpec, CodecError> {
        decode_query_spec(&mut Reader::new(bytes))
    }

    fn arb_spec() -> impl Strategy<Value = QuerySpec> {
        let sketch = (
            0u8..3,
            0usize..3,
            0.0f64..1.0,
            1u32..50,
            arb_opt_predicate(),
        )
            .prop_map(|(func, col, p, k, predicate)| {
                let base = match func {
                    0 => SketchQuery::percentile(ColId(col), p),
                    1 => SketchQuery::distinct(ColId(col)),
                    _ => SketchQuery::top_k(ColId(col), k),
                };
                QuerySpec::Sketch(SketchQuery { predicate, ..base })
            });
        prop_oneof![arb_query().prop_map(QuerySpec::Scalar), sketch]
    }

    /// The inputs the two retired per-boundary suites round-tripped:
    /// `persist`'s training pair and `proto`'s sketch queries.
    fn fixed_specs() -> Vec<QuerySpec> {
        let lt = |col, value| {
            let op = CmpOp::Lt;
            Predicate::Clause(Clause::Cmp { col, op, value })
        };
        let tag_in = |values: &[&str], negated| {
            let values = values.iter().map(|v| v.to_string()).collect();
            Predicate::Clause(Clause::In {
                col: ColId(2),
                values,
                negated,
            })
        };
        let x = || ScalarExpr::col(ColId(0));
        let not_or = Predicate::Or(vec![lt(ColId(0), 20.0), tag_in(&["a", "b"], true)]);
        let doubled = AggExpr::avg(x().mul(ScalarExpr::Literal(2.0)));
        let tagged = Predicate::Clause(Clause::Contains {
            col: ColId(2),
            needle: "a".into(),
            negated: false,
        });
        vec![
            Query::new(
                vec![AggExpr::sum(x())],
                Some(Predicate::Not(Box::new(not_or))),
                vec![ColId(2)],
            )
            .into(),
            Query::new(
                vec![AggExpr::count(), doubled.filtered(tagged)],
                None,
                vec![],
            )
            .into(),
            SketchQuery::percentile(ColId(0), 0.5).into(),
            SketchQuery::percentile(ColId(0), 1.0)
                .filtered(lt(ColId(1), 9.5))
                .into(),
            SketchQuery::distinct(ColId(2)).into(),
            SketchQuery::top_k(ColId(2), 5)
                .filtered(lt(ColId(1), 9.5))
                .into(),
        ]
    }

    /// decode(encode) is `==` with the same fingerprint, every strict
    /// prefix is an `Err`, and garbage at any position errors or decodes —
    /// nothing panics.
    fn check_spec_bytes(spec: &QuerySpec) -> Result<(), String> {
        let bytes = encode(spec);
        let back = decode(&bytes).map_err(|e| format!("valid bytes refused: {e}"))?;
        if &back != spec || back.fingerprint() != spec.fingerprint() {
            return Err(format!("round trip changed the query: {back:?}"));
        }
        for cut in 0..bytes.len() {
            if let Ok(short) = decode(&bytes[..cut]) {
                return Err(format!("prefix of {cut} bytes decoded: {short:?}"));
            }
            let mut bad = bytes.clone();
            bad[cut] ^= 0xFF;
            let _ = decode(&bad);
        }
        Ok(())
    }

    #[test]
    fn fixed_specs_round_trip_and_their_prefixes_are_errors() {
        for spec in fixed_specs() {
            check_spec_bytes(&spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_specs_round_trip_and_their_prefixes_are_errors(spec in arb_spec()) {
            if let Err(e) = check_spec_bytes(&spec) {
                prop_assert!(false, "{e}\nspec {spec:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Each case runs raw and behind a valid spec tag, so the grammar
        /// under the dispatch is reached too.
        #[test]
        fn random_bytes_never_panic_the_decoder(
            mut bytes in prop::collection::vec(any::<u8>(), 1..96),
            tag in 0u8..2,
        ) {
            let _ = decode(&bytes);
            bytes[0] = tag;
            let _ = decode(&bytes);
        }
    }

    /// `COUNT(*) WHERE NOT^depth (col0 < 1)`: 64 deep is accepted, 65 is
    /// refused at the cap, long before the stack; expressions likewise.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let not_chain = |depth: usize| {
            let mut bytes = vec![0, 1, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 1];
            bytes.extend(std::iter::repeat_n(6, depth));
            bytes.extend([1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0]);
            bytes
        };
        let spec = decode(&not_chain(64)).expect("64 deep is accepted");
        assert_eq!(encode(&spec), not_chain(64));
        let too_deep = Err(CodecError::Invalid("predicate nested too deeply"));
        assert_eq!(decode(&not_chain(65)), too_deep);
        assert_eq!(decode(&not_chain(100_000)), too_deep);
        let mut deep_expr = vec![0u8, 1, 0, 0];
        deep_expr.extend(std::iter::repeat_n([3u8, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0], 66).flatten());
        assert_eq!(
            decode(&deep_expr),
            Err(CodecError::Invalid("expression nested too deeply"))
        );
    }

    #[test]
    fn hostile_sketch_params_and_tags_are_typed_errors() {
        // [spec tag][func tag][p: f64 | k: u32][col: u32][has_pred]
        let patched = |spec: SketchQuery, at: usize, with: &[u8]| {
            let mut bytes = encode(&spec.into());
            bytes[at..at + with.len()].copy_from_slice(with);
            decode(&bytes)
        };
        let bad_p = Err(CodecError::Invalid("percentile fraction must be in [0, 1]"));
        for p in [2.0, -0.5, f64::NAN] {
            let pct = SketchQuery::percentile(ColId(0), 0.5);
            assert_eq!(patched(pct, 2, &p.to_bits().to_le_bytes()), bad_p);
        }
        let topk = || SketchQuery::top_k(ColId(0), 3);
        assert_eq!(
            patched(topk(), 2, &[0; 4]),
            Err(CodecError::Invalid("TOP_K needs k >= 1"))
        );
        let bad_tag = |what, tag| Err(CodecError::BadTag { what, tag });
        assert_eq!(patched(topk(), 1, &[9]), bad_tag("sketch function", 9));
        assert_eq!(patched(topk(), 0, &[7]), bad_tag("query spec", 7));
        assert_eq!(
            decode(&[0, 0, 0]),
            Err(CodecError::Invalid("query needs at least one aggregate"))
        );
    }

    #[test]
    fn schema_check_walks_every_column_of_the_ast() {
        let schema = |n: usize| {
            let cols = [
                ColumnMeta::new("x", ColumnType::Numeric),
                ColumnMeta::new("d", ColumnType::Date),
                ColumnMeta::new("tag", ColumnType::Categorical),
            ];
            Schema::new(cols[..n].to_vec())
        };
        let bad = |col, why| Err(CodecError::BadColumn { col, why });
        let unknown = |col| bad(col, "is not in the table's schema");
        // Valid against a 2-column schema, invalid against a 1-column one.
        let q = Query::new(vec![AggExpr::sum(ScalarExpr::col(ColId(1)))], None, vec![]);
        assert_eq!(check_query_schema(&q, &schema(2)), Ok(()));
        assert_eq!(check_query_schema(&q, &schema(1)), unknown(1));
        for spec in fixed_specs() {
            assert_eq!(check_schema(&spec, &schema(3)), Ok(()), "{spec:?}");
        }

        // Every position a column id can hide in — including the ones
        // `used_columns()` skips.
        let far = ColId(9999);
        let on_far = Predicate::Clause(Clause::str_eq(far, "a"));
        let count = |agg: AggExpr, pred, group_by| Query::new(vec![agg], pred, group_by).into();
        let mut count_far = AggExpr::count();
        count_far.expr = ScalarExpr::Literal(1.0).add(ScalarExpr::col(far));
        let nested = Predicate::Not(Box::new(Predicate::Or(vec![on_far.clone()])));
        let hidden: [QuerySpec; 6] = [
            count(count_far, None, vec![]),
            count(AggExpr::count().filtered(on_far.clone()), None, vec![]),
            count(AggExpr::count(), Some(nested), vec![]),
            count(AggExpr::count(), None, vec![ColId(0), far]),
            SketchQuery::distinct(far).into(),
            SketchQuery::top_k(ColId(2), 3).filtered(on_far).into(),
        ];
        for spec in hidden {
            assert_eq!(check_schema(&spec, &schema(3)), unknown(9999), "{spec:?}");
        }

        // PERCENTILE needs numeric storage: dates qualify, dictionaries
        // do not; DISTINCT and TOP_K take either.
        let pct = |col| check_schema(&SketchQuery::percentile(ColId(col), 0.9).into(), &schema(3));
        assert_eq!(pct(1), Ok(()));
        assert_eq!(pct(2), bad(2, "is not numeric, which PERCENTILE needs"));

        // An operator over the other kind of column, in every position the
        // kernels would ask the table for the wrong representation.
        let arithmetic = "is not numeric, which an aggregate's expression needs";
        let comparison = "is not numeric, which a comparison needs";
        let membership = "is not categorical, which IN and LIKE need";
        let tag = ColId(2);
        let tag_lt = Predicate::Clause(Clause::Cmp {
            col: tag,
            op: CmpOp::Lt,
            value: 1.0,
        });
        let date_like = Predicate::Clause(Clause::Contains {
            col: ColId(1),
            needle: "19".into(),
            negated: true,
        });
        let x_in = Predicate::Not(Box::new(Predicate::Clause(Clause::str_eq(ColId(0), "a"))));
        let x_plus_tag = ScalarExpr::col(ColId(0)).add(ScalarExpr::col(tag));
        let mut count_tag = AggExpr::count();
        count_tag.expr = ScalarExpr::col(tag);
        let misfits: [(QuerySpec, usize, &str); 9] = [
            (
                count(AggExpr::sum(ScalarExpr::col(tag)), None, vec![]),
                2,
                arithmetic,
            ),
            (count(AggExpr::avg(x_plus_tag), None, vec![]), 2, arithmetic),
            (count(count_tag, None, vec![]), 2, arithmetic),
            (
                count(AggExpr::count(), Some(tag_lt.clone()), vec![]),
                2,
                comparison,
            ),
            (
                count(AggExpr::count().filtered(tag_lt.clone()), None, vec![]),
                2,
                comparison,
            ),
            (
                count(AggExpr::count(), Some(x_in.clone()), vec![tag]),
                0,
                membership,
            ),
            (
                count(AggExpr::count(), Some(date_like), vec![]),
                1,
                membership,
            ),
            (
                SketchQuery::distinct(tag).filtered(tag_lt).into(),
                2,
                comparison,
            ),
            (
                SketchQuery::percentile(ColId(0), 0.5).filtered(x_in).into(),
                0,
                membership,
            ),
        ];
        for (spec, col, why) in misfits {
            assert_eq!(check_schema(&spec, &schema(3)), bad(col, why), "{spec:?}");
        }
        // GROUP BY, DISTINCT and TOP_K read either kind.
        let either: [QuerySpec; 3] = [
            count(AggExpr::count(), None, vec![ColId(0), ColId(1), tag]),
            SketchQuery::distinct(ColId(0)).into(),
            SketchQuery::top_k(ColId(1), 2).into(),
        ];
        for spec in either {
            assert_eq!(check_schema(&spec, &schema(3)), Ok(()), "{spec:?}");
        }
    }
}
