//! The one byte grammar of the query AST.
//!
//! A [`QuerySpec`] crosses two byte boundaries — the request on the socket
//! (`docs/PROTOCOL.md` § Request payload) and the training workload frozen
//! into a `*.ps3` artifact (`docs/FORMAT.md`, `SEC_TRAINING`) — and both
//! speak the grammar defined here: tagged pre-order, little-endian, `f64`s
//! by bit pattern, lists and strings behind a `u16` length. The grammar is
//! all this module owns: its fields are written and read with the
//! workspace's one byte codec, [`ps3_storage::codec`], the same
//! [`Writer`]/[`Reader`] that frame the request around the query and the
//! artifact section around the training workload.
//!
//! Decoding caps nesting at [`MAX_DEPTH`], validates sketch parameters
//! before construction, and fails with a [`CodecError`], never a panic.
//! Whether the decoded columns exist, and are of the kind their operators
//! read, is a question for a table, not for the bytes: [`check_schema`]
//! answers it at both boundaries, before the query reaches a kernel.

use ps3_storage::codec::{CodecError, Reader, Writer};
use ps3_storage::{ColId, Schema};

use crate::ast::{AggExpr, AggFunc, BinOp, Clause, CmpOp, Predicate, Query, ScalarExpr};
use crate::sketch::{QuerySpec, SketchFunc, SketchQuery};

/// Nesting bound for decoded predicates/expressions: deeper input is
/// rejected ([`CodecError::Invalid`]) instead of overflowing the decoder's
/// stack.
pub const MAX_DEPTH: u32 = 64;

/// Operator tag tables: a variant's tag byte is its index here, which is
/// also its discriminant (what the encoders write).
const BIN_OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const AGG_FUNCS: [AggFunc; 3] = [AggFunc::Sum, AggFunc::Count, AggFunc::Avg];

fn write_col(w: &mut Writer<'_>, c: ColId) {
    w.u32(c.index() as u32);
}

fn read_col(r: &mut Reader<'_>) -> Result<ColId, CodecError> {
    Ok(ColId(r.u32()? as usize))
}

/// A tag byte indexing `table`; anything past it is a [`CodecError::BadTag`].
fn read_tag<T: Copy>(r: &mut Reader<'_>, what: &'static str, table: &[T]) -> Result<T, CodecError> {
    let tag = r.u8()?;
    table
        .get(usize::from(tag))
        .copied()
        .ok_or(CodecError::BadTag { what, tag })
}

/// A `u16` count, then that many `item`s.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    (0..r.u16()?).map(|_| item(r)).collect()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_scalar(w: &mut Writer<'_>, e: &ScalarExpr) {
    match e {
        ScalarExpr::Column(c) => {
            w.u8(1);
            write_col(w, *c);
        }
        ScalarExpr::Literal(x) => {
            w.u8(2);
            w.f64(*x);
        }
        ScalarExpr::BinOp(op, l, r) => {
            w.u8(3);
            w.u8(*op as u8);
            encode_scalar(w, l);
            encode_scalar(w, r);
        }
    }
}

fn encode_predicate(w: &mut Writer<'_>, p: &Predicate) -> Result<(), CodecError> {
    match p {
        Predicate::Clause(Clause::Cmp { col, op, value }) => {
            w.u8(1);
            write_col(w, *col);
            w.u8(*op as u8);
            w.f64(*value);
        }
        Predicate::Clause(Clause::In {
            col,
            values,
            negated,
        }) => {
            w.u8(2);
            write_col(w, *col);
            w.u8(u8::from(*negated));
            w.u16_len(values.len(), "IN lists cap at 65535 values")?;
            for v in values {
                w.str(v)?;
            }
        }
        Predicate::Clause(Clause::Contains {
            col,
            needle,
            negated,
        }) => {
            w.u8(3);
            write_col(w, *col);
            w.u8(u8::from(*negated));
            w.str(needle)?;
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            let (tag, cap) = match p {
                Predicate::And(_) => (4, "AND arms cap at 65535"),
                _ => (5, "OR arms cap at 65535"),
            };
            w.u8(tag);
            w.u16_len(ps.len(), cap)?;
            for q in ps {
                encode_predicate(w, q)?;
            }
        }
        Predicate::Not(q) => {
            w.u8(6);
            encode_predicate(w, q)?;
        }
    }
    Ok(())
}

/// `[has: u8 (0|1)][predicate]`.
fn encode_opt_predicate(w: &mut Writer<'_>, p: &Option<Predicate>) -> Result<(), CodecError> {
    w.u8(u8::from(p.is_some()));
    p.iter().try_for_each(|p| encode_predicate(w, p))
}

/// The scalar-query grammar: `[n_aggs: u16]` aggregates (`[func: u8]
/// [expr][has_cond: u8][condition]`), `[has_pred: u8][predicate]`,
/// `[n_group: u16]` group-by columns (`u32` each).
pub fn encode_query(w: &mut Writer<'_>, q: &Query) -> Result<(), CodecError> {
    w.u16_len(q.aggregates.len(), "aggregate lists cap at 65535")?;
    for agg in &q.aggregates {
        w.u8(agg.func as u8);
        encode_scalar(w, &agg.expr);
        encode_opt_predicate(w, &agg.condition)?;
    }
    encode_opt_predicate(w, &q.predicate)?;
    w.u16_len(q.group_by.len(), "GROUP BY lists cap at 65535")?;
    q.group_by.iter().for_each(|c| write_col(w, *c));
    Ok(())
}

/// A query of either class: `[spec: u8]`, then `0` the scalar grammar or
/// `1` the sketch grammar `[func: u8][params…][col: u32][has_pred: u8]
/// [predicate]` — `1` PERCENTILE carries its fraction as `f64` bits, `2`
/// DISTINCT nothing, `3` TOP_K its `k` as a `u32`.
pub fn encode_query_spec(w: &mut Writer<'_>, spec: &QuerySpec) -> Result<(), CodecError> {
    let q = match spec {
        QuerySpec::Scalar(q) => {
            w.u8(0);
            return encode_query(w, q);
        }
        QuerySpec::Sketch(q) => q,
    };
    w.u8(1);
    match q.func {
        SketchFunc::Percentile(p) => {
            w.u8(1);
            w.f64(p);
        }
        SketchFunc::Distinct => w.u8(2),
        SketchFunc::TopK(k) => {
            w.u8(3);
            w.u32(k);
        }
    }
    write_col(w, q.col);
    encode_opt_predicate(w, &q.predicate)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_scalar(r: &mut Reader, depth: u32) -> Result<ScalarExpr, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Invalid("expression nested too deeply"));
    }
    Ok(match r.u8()? {
        1 => ScalarExpr::Column(read_col(r)?),
        2 => ScalarExpr::Literal(r.f64()?),
        3 => {
            let op = read_tag(r, "binary operator", &BIN_OPS)?;
            let l = decode_scalar(r, depth + 1)?;
            let right = decode_scalar(r, depth + 1)?;
            ScalarExpr::BinOp(op, Box::new(l), Box::new(right))
        }
        tag => {
            let what = "scalar expression";
            return Err(CodecError::BadTag { what, tag });
        }
    })
}

fn decode_predicate(r: &mut Reader, depth: u32) -> Result<Predicate, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Invalid("predicate nested too deeply"));
    }
    Ok(match r.u8()? {
        1 => Predicate::Clause(Clause::Cmp {
            col: read_col(r)?,
            op: read_tag(r, "comparison operator", &CMP_OPS)?,
            value: r.f64()?,
        }),
        2 => Predicate::Clause(Clause::In {
            col: read_col(r)?,
            negated: r.u8()? != 0,
            values: read_list(r, Reader::str)?,
        }),
        3 => Predicate::Clause(Clause::Contains {
            col: read_col(r)?,
            negated: r.u8()? != 0,
            needle: r.str()?,
        }),
        4 => Predicate::And(read_list(r, |r| decode_predicate(r, depth + 1))?),
        5 => Predicate::Or(read_list(r, |r| decode_predicate(r, depth + 1))?),
        6 => Predicate::Not(Box::new(decode_predicate(r, depth + 1)?)),
        tag => {
            let what = "predicate";
            return Err(CodecError::BadTag { what, tag });
        }
    })
}

fn decode_opt_predicate(
    r: &mut Reader,
    what: &'static str,
) -> Result<Option<Predicate>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_predicate(r, 0)?)),
        tag => Err(CodecError::BadTag { what, tag }),
    }
}

/// Decode one scalar query ([`encode_query`]'s inverse).
pub fn decode_query(r: &mut Reader) -> Result<Query, CodecError> {
    let aggregates = read_list(r, |r| {
        Ok(AggExpr {
            func: read_tag(r, "aggregate function", &AGG_FUNCS)?,
            expr: decode_scalar(r, 0)?,
            condition: decode_opt_predicate(r, "condition presence flag")?,
        })
    })?;
    if aggregates.is_empty() {
        return Err(CodecError::Invalid("query needs at least one aggregate"));
    }
    Ok(Query {
        aggregates,
        predicate: decode_opt_predicate(r, "predicate presence flag")?,
        group_by: read_list(r, read_col)?,
    })
}

/// Decode one query spec ([`encode_query_spec`]'s inverse). Sketch
/// parameters are validated before construction: the builders assert, and
/// hostile bytes must never panic the decoder.
pub fn decode_query_spec(r: &mut Reader) -> Result<QuerySpec, CodecError> {
    match r.u8()? {
        0 => return Ok(QuerySpec::Scalar(decode_query(r)?)),
        1 => {}
        tag => {
            let what = "query spec";
            return Err(CodecError::BadTag { what, tag });
        }
    }
    let func = match r.u8()? {
        1 => SketchFunc::Percentile(r.f64()?),
        2 => SketchFunc::Distinct,
        3 => SketchFunc::TopK(r.u32()?),
        tag => {
            let what = "sketch function";
            return Err(CodecError::BadTag { what, tag });
        }
    };
    match func {
        SketchFunc::Percentile(p) if !(0.0..=1.0).contains(&p) => {
            return Err(CodecError::Invalid("percentile fraction must be in [0, 1]"))
        }
        SketchFunc::TopK(0) => return Err(CodecError::Invalid("TOP_K needs k >= 1")),
        _ => {}
    }
    Ok(QuerySpec::Sketch(SketchQuery {
        func,
        col: read_col(r)?,
        predicate: decode_opt_predicate(r, "predicate presence flag")?,
    }))
}

// ---------------------------------------------------------------------------
// Schema check
// ---------------------------------------------------------------------------

/// What an operator needs of the column it reads, with the refusal's
/// wording when the column is of the other kind.
#[derive(Clone, Copy)]
enum Needs {
    /// Any stored column (`GROUP BY`, `DISTINCT`, `TOP_K`).
    Stored,
    /// `f64` storage: arithmetic, comparisons, `PERCENTILE`.
    Numeric(&'static str),
    /// Dictionary codes: `IN` and `LIKE`.
    Categorical(&'static str),
}

fn check_col(col: ColId, needs: Needs, schema: &Schema) -> Result<(), CodecError> {
    let bad = |why| {
        Err(CodecError::BadColumn {
            col: col.index(),
            why,
        })
    };
    if col.index() >= schema.len() {
        return bad("is not in the table's schema");
    }
    let numeric = schema.col(col).ctype.is_numeric_like();
    match needs {
        Needs::Numeric(why) if !numeric => bad(why),
        Needs::Categorical(why) if numeric => bad(why),
        _ => Ok(()),
    }
}

fn check_expr(expr: &ScalarExpr, schema: &Schema) -> Result<(), CodecError> {
    match expr {
        ScalarExpr::Column(c) => check_col(
            *c,
            Needs::Numeric("is not numeric, which an aggregate's expression needs"),
            schema,
        ),
        ScalarExpr::Literal(_) => Ok(()),
        ScalarExpr::BinOp(_, l, r) => {
            check_expr(l, schema)?;
            check_expr(r, schema)
        }
    }
}

fn check_predicate(pred: &Predicate, schema: &Schema) -> Result<(), CodecError> {
    match pred {
        Predicate::Clause(Clause::Cmp { col, .. }) => check_col(
            *col,
            Needs::Numeric("is not numeric, which a comparison needs"),
            schema,
        ),
        Predicate::Clause(Clause::In { col, .. } | Clause::Contains { col, .. }) => check_col(
            *col,
            Needs::Categorical("is not categorical, which IN and LIKE need"),
            schema,
        ),
        Predicate::Not(p) => check_predicate(p, schema),
        Predicate::And(ps) | Predicate::Or(ps) => {
            ps.iter().try_for_each(|p| check_predicate(p, schema))
        }
    }
}

/// Every column `q` names exists in `schema` and is of the kind its
/// operator reads: arithmetic and comparisons take numeric storage, `IN`
/// and `LIKE` a dictionary, `GROUP BY` either. Walks the whole AST — a
/// `COUNT`'s (ignored) expression and aggregate conditions included, which
/// [`Query::used_columns`] skips — so nothing downstream can index a column
/// the table does not have or ask one for the wrong representation.
pub fn check_query_schema(q: &Query, schema: &Schema) -> Result<(), CodecError> {
    for &col in &q.group_by {
        check_col(col, Needs::Stored, schema)?;
    }
    for agg in &q.aggregates {
        check_expr(&agg.expr, schema)?;
        agg.condition
            .iter()
            .try_for_each(|p| check_predicate(p, schema))?;
    }
    q.predicate
        .iter()
        .try_for_each(|p| check_predicate(p, schema))
}

/// [`check_query_schema`] for either query class; a sketch query
/// additionally needs a numeric column under `PERCENTILE`. This is the
/// admission check of both byte boundaries: the router runs it on a decoded
/// request before queueing it, `thaw` on every persisted training query.
pub fn check_schema(spec: &QuerySpec, schema: &Schema) -> Result<(), CodecError> {
    let q = match spec {
        QuerySpec::Scalar(q) => return check_query_schema(q, schema),
        QuerySpec::Sketch(q) => q,
    };
    let needs = match q.func {
        SketchFunc::Percentile(_) => Needs::Numeric("is not numeric, which PERCENTILE needs"),
        _ => Needs::Stored,
    };
    check_col(q.col, needs, schema)?;
    q.predicate
        .iter()
        .try_for_each(|p| check_predicate(p, schema))
}
