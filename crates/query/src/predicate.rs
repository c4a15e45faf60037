//! Predicate and scalar evaluation entry points.
//!
//! Predicate evaluation routes through the compiled kernel layer
//! ([`crate::kernel`]): the predicate is lowered once (NNF, resolved
//! membership target sets) and evaluated as 64-bit mask words over the
//! partition's row range, then expanded to one bool per row for callers
//! that want row vectors. Hot paths should compile once with
//! [`crate::kernel::CompiledPredicate::compile`] and keep the [`SelVec`]
//! instead. Scalar evaluation is the kernels' own: one operation at a time
//! over the whole row range, as aggregates over a projection use it.
//!
//! [`SelVec`]: crate::selvec::SelVec

use ps3_storage::Table;
use std::ops::Range;

use crate::ast::{Clause, Predicate, ScalarExpr};
use crate::kernel::{eval_expr_into, CompiledPredicate};

/// Evaluate `pred` over `rows`, returning one bool per row in the range.
pub fn eval_predicate(table: &Table, rows: Range<usize>, pred: &Predicate) -> Vec<bool> {
    CompiledPredicate::compile(table, pred)
        .eval(table, rows)
        .to_bools()
}

/// Evaluate a single clause over `rows`.
pub fn eval_clause(table: &Table, rows: Range<usize>, clause: &Clause) -> Vec<bool> {
    eval_predicate(table, rows, &Predicate::Clause(clause.clone()))
}

/// Evaluate a scalar expression over `rows` into an f64 vector.
///
/// Division by zero yields 0 rather than ±inf/NaN so that SUM aggregates stay
/// finite — matching how production engines null-guard divides.
pub fn eval_scalar(table: &Table, rows: Range<usize>, expr: &ScalarExpr) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len());
    eval_expr_into(expr, table, rows, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("y", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = ps3_storage::table::TableBuilder::new(schema);
        b.push_row(&[1.0, 10.0], &["red"]);
        b.push_row(&[2.0, 0.0], &["green"]);
        b.push_row(&[3.0, 30.0], &["red delight"]);
        b.push_row(&[4.0, 40.0], &["blue"]);
        b.finish()
    }

    #[test]
    fn comparison_ops() {
        let t = table();
        let c = |op, v| {
            eval_clause(
                &t,
                0..4,
                &Clause::Cmp {
                    col: ColId(0),
                    op,
                    value: v,
                },
            )
        };
        assert_eq!(c(CmpOp::Gt, 2.0), vec![false, false, true, true]);
        assert_eq!(c(CmpOp::Le, 2.0), vec![true, true, false, false]);
        assert_eq!(c(CmpOp::Eq, 3.0), vec![false, false, true, false]);
        assert_eq!(c(CmpOp::Ne, 3.0), vec![true, true, false, true]);
    }

    #[test]
    fn in_and_contains() {
        let t = table();
        let v = eval_clause(
            &t,
            0..4,
            &Clause::In {
                col: ColId(2),
                values: vec!["red".into(), "blue".into()],
                negated: false,
            },
        );
        assert_eq!(v, vec![true, false, false, true]);
        let v = eval_clause(
            &t,
            0..4,
            &Clause::Contains {
                col: ColId(2),
                needle: "red".into(),
                negated: false,
            },
        );
        assert_eq!(v, vec![true, false, true, false]);
        let v = eval_clause(
            &t,
            0..4,
            &Clause::In {
                col: ColId(2),
                values: vec!["missing".into()],
                negated: false,
            },
        );
        assert_eq!(v, vec![false; 4]);
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::And(vec![
            Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Ge,
                value: 2.0,
            }),
            Predicate::Not(Box::new(Predicate::Clause(Clause::str_eq(
                ColId(2),
                "blue",
            )))),
        ]);
        assert_eq!(eval_predicate(&t, 0..4, &p), vec![false, true, true, false]);
        let q = Predicate::Or(vec![
            Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 2.0,
            }),
            Predicate::Clause(Clause::str_eq(ColId(2), "blue")),
        ]);
        assert_eq!(eval_predicate(&t, 0..4, &q), vec![true, false, false, true]);
    }

    #[test]
    fn nnf_preserves_semantics() {
        let t = table();
        let p = Predicate::Not(Box::new(Predicate::Or(vec![
            Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 3.0,
            }),
            Predicate::Not(Box::new(Predicate::Clause(Clause::str_eq(
                ColId(2),
                "blue",
            )))),
        ])));
        assert_eq!(
            eval_predicate(&t, 0..4, &p),
            eval_predicate(&t, 0..4, &p.to_nnf())
        );
    }

    #[test]
    fn scalar_arithmetic() {
        let t = table();
        let x = ScalarExpr::col(ColId(0));
        let y = ScalarExpr::col(ColId(1));
        assert_eq!(
            eval_scalar(&t, 0..4, &x.clone().add(y.clone())),
            vec![11.0, 2.0, 33.0, 44.0]
        );
        assert_eq!(
            eval_scalar(&t, 0..4, &y.clone().sub(x.clone())),
            vec![9.0, -2.0, 27.0, 36.0]
        );
        assert_eq!(
            eval_scalar(&t, 1..3, &x.clone().mul(y.clone())),
            vec![0.0, 90.0]
        );
        // y=0 row: division guarded to 0.
        assert_eq!(eval_scalar(&t, 0..4, &x.div(y)), vec![0.1, 0.0, 0.1, 0.1]);
    }

    #[test]
    fn subrange_evaluation() {
        let t = table();
        let v = eval_clause(
            &t,
            2..4,
            &Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Gt,
                value: 3.0,
            },
        );
        assert_eq!(v, vec![false, true]);
    }
}
