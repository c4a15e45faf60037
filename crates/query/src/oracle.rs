//! The pre-kernel scalar interpreter, kept **test-only** as the oracle the
//! property tests compare the compiled kernels against bit-for-bit.
//!
//! This is the original `Vec<bool>`/`Vec<f64>`-materializing executor,
//! unchanged except for the two deliberate semantic fixes that now define
//! the contract in both paths: group keys canonicalize through
//! [`GroupKey::canon_num_bits`], and AVG finalization (shared
//! [`PartialAnswer::finalize`]) yields NaN for zero-count groups.

use std::collections::HashMap;
use std::ops::Range;

use ps3_storage::Table;

use crate::ast::{AggFunc, BinOp, Clause, CmpOp, Predicate, Query, ScalarExpr};
use crate::exec::{GroupKey, PartialAnswer};

/// Row-at-a-time predicate evaluation into one bool per row.
pub fn eval_predicate_rows(table: &Table, rows: Range<usize>, pred: &Predicate) -> Vec<bool> {
    match pred {
        Predicate::Clause(c) => eval_clause_rows(table, rows, c),
        Predicate::Not(p) => {
            let mut v = eval_predicate_rows(table, rows, p);
            for b in &mut v {
                *b = !*b;
            }
            v
        }
        Predicate::And(ps) => {
            let mut acc = vec![true; rows.len()];
            for p in ps {
                let v = eval_predicate_rows(table, rows.clone(), p);
                for (a, b) in acc.iter_mut().zip(v) {
                    *a &= b;
                }
            }
            acc
        }
        Predicate::Or(ps) => {
            let mut acc = vec![false; rows.len()];
            for p in ps {
                let v = eval_predicate_rows(table, rows.clone(), p);
                for (a, b) in acc.iter_mut().zip(v) {
                    *a |= b;
                }
            }
            acc
        }
    }
}

/// Single-clause evaluation, with the naive linear-scan `IN` membership the
/// compiled [`crate::kernel::TargetSet`] replaced.
pub fn eval_clause_rows(table: &Table, rows: Range<usize>, clause: &Clause) -> Vec<bool> {
    match clause {
        Clause::Cmp { col, op, value } => {
            let data = &table.numeric(*col)[rows];
            let v = *value;
            match op {
                CmpOp::Eq => data.iter().map(|&x| x == v).collect(),
                CmpOp::Ne => data.iter().map(|&x| x != v).collect(),
                CmpOp::Lt => data.iter().map(|&x| x < v).collect(),
                CmpOp::Le => data.iter().map(|&x| x <= v).collect(),
                CmpOp::Gt => data.iter().map(|&x| x > v).collect(),
                CmpOp::Ge => data.iter().map(|&x| x >= v).collect(),
            }
        }
        Clause::In {
            col,
            values,
            negated,
        } => {
            let (codes, dict) = table.categorical(*col);
            let codes = &codes[rows];
            // Values absent from the dictionary match no rows.
            let targets: Vec<u32> = values.iter().filter_map(|v| dict.code(v)).collect();
            codes
                .iter()
                .map(|c| targets.contains(c) != *negated)
                .collect()
        }
        Clause::Contains {
            col,
            needle,
            negated,
        } => {
            let (codes, dict) = table.categorical(*col);
            let codes = &codes[rows];
            let targets = dict.codes_containing(needle);
            codes
                .iter()
                .map(|c| targets.contains(c) != *negated)
                .collect()
        }
    }
}

/// Scalar projection over `rows`, one materialized vector per node;
/// division by zero yields 0.
pub fn eval_scalar(table: &Table, rows: Range<usize>, expr: &ScalarExpr) -> Vec<f64> {
    match expr {
        ScalarExpr::Column(c) => table.numeric(*c)[rows].to_vec(),
        ScalarExpr::Literal(x) => vec![*x; rows.len()],
        ScalarExpr::BinOp(op, l, r) => {
            let mut lv = eval_scalar(table, rows.clone(), l);
            let rv = eval_scalar(table, rows, r);
            for (a, b) in lv.iter_mut().zip(rv) {
                *a = match op {
                    BinOp::Add => *a + b,
                    BinOp::Sub => *a - b,
                    BinOp::Mul => *a * b,
                    BinOp::Div if b == 0.0 => 0.0,
                    BinOp::Div => *a / b,
                };
            }
            lv
        }
    }
}

/// The original materializing per-partition executor.
pub fn execute_partition_oracle(table: &Table, rows: Range<usize>, query: &Query) -> PartialAnswer {
    let n = rows.len();
    let selected: Vec<bool> = match &query.predicate {
        Some(p) => eval_predicate_rows(table, rows.clone(), p),
        None => vec![true; n],
    };

    // Group keys per row.
    let keys: Vec<GroupKey> = if query.group_by.is_empty() {
        Vec::new()
    } else {
        let cols: Vec<RowKeyCol<'_>> = query
            .group_by
            .iter()
            .map(|&c| match table.column(c) {
                ps3_storage::ColumnData::Numeric(_) => {
                    RowKeyCol::Num(&table.numeric(c)[rows.clone()])
                }
                ps3_storage::ColumnData::Categorical { .. } => {
                    RowKeyCol::Cat(&table.categorical(c).0[rows.clone()])
                }
            })
            .collect();
        (0..n)
            .map(|i| {
                GroupKey(
                    cols.iter()
                        .map(|c| match c {
                            RowKeyCol::Num(v) => GroupKey::canon_num_bits(v[i]),
                            RowKeyCol::Cat(v) => u64::from(v[i]),
                        })
                        .collect(),
                )
            })
            .collect()
    };

    // Per-aggregate row values and optional CASE-condition masks.
    let mut slot_values: Vec<Vec<f64>> = Vec::new();
    for agg in &query.aggregates {
        let cond: Option<Vec<bool>> = agg
            .condition
            .as_ref()
            .map(|p| eval_predicate_rows(table, rows.clone(), p));
        let apply_cond = |mut vals: Vec<f64>| -> Vec<f64> {
            if let Some(c) = &cond {
                for (v, &keep) in vals.iter_mut().zip(c) {
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
            vals
        };
        match agg.func {
            AggFunc::Sum => {
                slot_values.push(apply_cond(eval_scalar(table, rows.clone(), &agg.expr)));
            }
            AggFunc::Count => {
                slot_values.push(apply_cond(vec![1.0; n]));
            }
            AggFunc::Avg => {
                slot_values.push(apply_cond(eval_scalar(table, rows.clone(), &agg.expr)));
                slot_values.push(apply_cond(vec![1.0; n]));
            }
        }
    }

    let slots = PartialAnswer::slot_count(query);
    let mut groups: HashMap<GroupKey, Vec<f64>> = HashMap::new();
    if query.group_by.is_empty() {
        let mut acc = vec![0.0; slots];
        for i in 0..n {
            if selected[i] {
                for (s, col) in acc.iter_mut().zip(&slot_values) {
                    *s += col[i];
                }
            }
        }
        // A group exists only if at least one row passed the predicate.
        if selected.iter().any(|&b| b) {
            groups.insert(GroupKey::global(), acc);
        }
    } else {
        for i in 0..n {
            if selected[i] {
                let slot = groups
                    .entry(keys[i].clone())
                    .or_insert_with(|| vec![0.0; slots]);
                for (s, col) in slot.iter_mut().zip(&slot_values) {
                    *s += col[i];
                }
            }
        }
    }
    PartialAnswer::from_groups(slots, groups)
}

enum RowKeyCol<'a> {
    Num(&'a [f64]),
    Cat(&'a [u32]),
}
