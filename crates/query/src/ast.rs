//! The query abstract syntax tree.

use std::fmt;

use ps3_storage::{ColId, Schema, Value};

/// A scalar expression in a `SELECT` aggregate: a column or a linear
/// projection over columns (§2.2; `*`/`/` per footnote 2).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A stored column.
    Column(ColId),
    /// A numeric literal.
    Literal(f64),
    /// `lhs op rhs`.
    BinOp(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
}

/// Arithmetic operators allowed in projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (NaN-guarded at evaluation).
    Div,
}

// The builder methods intentionally mirror SQL arithmetic by name; they are
// by-value builders, not the std::ops traits (which would force Box noise on
// every call site).
#[allow(clippy::should_implement_trait)]
impl ScalarExpr {
    /// `col(id)` shorthand.
    pub fn col(id: ColId) -> Self {
        ScalarExpr::Column(id)
    }

    /// `self + other`.
    pub fn add(self, other: ScalarExpr) -> Self {
        ScalarExpr::BinOp(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    pub fn sub(self, other: ScalarExpr) -> Self {
        ScalarExpr::BinOp(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    pub fn mul(self, other: ScalarExpr) -> Self {
        ScalarExpr::BinOp(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`.
    pub fn div(self, other: ScalarExpr) -> Self {
        ScalarExpr::BinOp(BinOp::Div, Box::new(self), Box::new(other))
    }

    /// All columns referenced by this expression, appended to `out`.
    pub fn collect_columns(&self, out: &mut Vec<ColId>) {
        match self {
            ScalarExpr::Column(c) => out.push(*c),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::BinOp(_, l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
        }
    }
}

/// Aggregate functions in scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(expr)`.
    Sum,
    /// `COUNT(*)` (the expression is ignored).
    Count,
    /// `AVG(expr)` — internally carried as (sum, count) so weighted
    /// combination stays correct.
    Avg,
}

/// One aggregate in the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Its argument (ignored for `COUNT(*)`).
    pub expr: ScalarExpr,
    /// Optional `CASE WHEN pred THEN expr ELSE 0` condition — the paper's
    /// aggregate-over-predicate rewrite (§2.2), used by e.g. TPC-H Q8/Q14.
    pub condition: Option<Predicate>,
}

impl AggExpr {
    /// `SUM(expr)`.
    pub fn sum(expr: ScalarExpr) -> Self {
        Self {
            func: AggFunc::Sum,
            expr,
            condition: None,
        }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self {
            func: AggFunc::Count,
            expr: ScalarExpr::Literal(1.0),
            condition: None,
        }
    }

    /// `AVG(expr)`.
    pub fn avg(expr: ScalarExpr) -> Self {
        Self {
            func: AggFunc::Avg,
            expr,
            condition: None,
        }
    }

    /// Attach a `CASE WHEN` condition.
    pub fn filtered(mut self, condition: Predicate) -> Self {
        self.condition = Some(condition);
        self
    }
}

/// Comparison operators for predicate clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator accepting exactly the complementary rows.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A single-column predicate clause `c op v` (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// Numeric/date comparison against a constant.
    Cmp { col: ColId, op: CmpOp, value: f64 },
    /// Categorical membership: `col IN (values)`; `negated` for `NOT IN` /
    /// `<>`. Values are dictionary strings.
    In {
        col: ColId,
        values: Vec<String>,
        negated: bool,
    },
    /// Regex-style substring filter on a categorical column
    /// (`col LIKE '%needle%'`).
    Contains {
        col: ColId,
        needle: String,
        negated: bool,
    },
}

impl Clause {
    /// Single-value equality on a categorical column.
    pub fn str_eq(col: ColId, value: impl Into<String>) -> Self {
        Clause::In {
            col,
            values: vec![value.into()],
            negated: false,
        }
    }

    /// The clause's column.
    pub fn column(&self) -> ColId {
        match self {
            Clause::Cmp { col, .. } | Clause::In { col, .. } | Clause::Contains { col, .. } => *col,
        }
    }

    /// The clause accepting exactly the complementary rows.
    pub fn negate(&self) -> Clause {
        match self {
            Clause::Cmp { col, op, value } => Clause::Cmp {
                col: *col,
                op: op.negate(),
                value: *value,
            },
            Clause::In {
                col,
                values,
                negated,
            } => Clause::In {
                col: *col,
                values: values.clone(),
                negated: !negated,
            },
            Clause::Contains {
                col,
                needle,
                negated,
            } => Clause::Contains {
                col: *col,
                needle: needle.clone(),
                negated: !negated,
            },
        }
    }
}

/// A predicate: arbitrary and/or/not combinations of clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// A leaf clause.
    Clause(Clause),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: conjunction of clauses.
    pub fn all(clauses: Vec<Clause>) -> Self {
        Predicate::And(clauses.into_iter().map(Predicate::Clause).collect())
    }

    /// Convenience: disjunction of clauses.
    pub fn any(clauses: Vec<Clause>) -> Self {
        Predicate::Or(clauses.into_iter().map(Predicate::Clause).collect())
    }

    /// Push negations down to the leaves, yielding an equivalent NNF
    /// predicate built only from `And`/`Or`/`Clause`.
    ///
    /// Selectivity estimation (ps3-stats) only handles positive structures;
    /// clause-level negation is exact (`Lt ↔ Ge`, `IN ↔ NOT IN`), so this
    /// transformation loses nothing.
    pub fn to_nnf(&self) -> Predicate {
        fn walk(p: &Predicate, neg: bool) -> Predicate {
            match p {
                Predicate::Clause(c) => Predicate::Clause(if neg { c.negate() } else { c.clone() }),
                Predicate::Not(inner) => walk(inner, !neg),
                Predicate::And(ps) => {
                    let parts = ps.iter().map(|q| walk(q, neg)).collect();
                    if neg {
                        Predicate::Or(parts)
                    } else {
                        Predicate::And(parts)
                    }
                }
                Predicate::Or(ps) => {
                    let parts = ps.iter().map(|q| walk(q, neg)).collect();
                    if neg {
                        Predicate::And(parts)
                    } else {
                        Predicate::Or(parts)
                    }
                }
            }
        }
        walk(self, false)
    }

    /// Number of leaf clauses (the picker's clustering fallback triggers on
    /// predicates with more than 10 clauses, Appendix B.1).
    pub fn clause_count(&self) -> usize {
        match self {
            Predicate::Clause(_) => 1,
            Predicate::Not(p) => p.clause_count(),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().map(Predicate::clause_count).sum(),
        }
    }

    /// All columns referenced, appended to `out`.
    pub fn collect_columns(&self, out: &mut Vec<ColId>) {
        match self {
            Predicate::Clause(c) => out.push(c.column()),
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }
}

/// A complete query: aggregates + optional predicate + group-by columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT` aggregates, in order.
    pub aggregates: Vec<AggExpr>,
    /// `WHERE` predicate.
    pub predicate: Option<Predicate>,
    /// `GROUP BY` columns (empty = one global group).
    pub group_by: Vec<ColId>,
}

impl Query {
    /// Build a query; must have at least one aggregate.
    pub fn new(
        aggregates: Vec<AggExpr>,
        predicate: Option<Predicate>,
        group_by: Vec<ColId>,
    ) -> Self {
        assert!(!aggregates.is_empty(), "query needs at least one aggregate");
        Self {
            aggregates,
            predicate,
            group_by,
        }
    }

    /// A stable 64-bit structural fingerprint of the whole query —
    /// aggregates, predicate shape *and* literals, and group-by columns.
    /// Structurally identical queries always share a fingerprint, and the
    /// serving layer uses it as the feature-cache key: equal fingerprints
    /// are treated as implying equal feature-cache entries (features depend
    /// only on the query and the table statistics). As with any 64-bit
    /// hash, distinct queries can collide in principle; the chance across
    /// a bounded cache is ~`n²/2⁶⁴` — negligible for the few hundred
    /// entries a deployment holds.
    ///
    /// The hash is deterministic across runs and platforms (no
    /// `RandomState`), which keeps cached serving deterministic too.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.word(self.aggregates.len() as u64);
        for agg in &self.aggregates {
            fp.word(match agg.func {
                AggFunc::Sum => 1,
                AggFunc::Count => 2,
                AggFunc::Avg => 3,
            });
            fp.scalar(&agg.expr);
            match &agg.condition {
                Some(p) => {
                    fp.word(0xC0DE);
                    fp.predicate(p);
                }
                None => fp.word(0),
            }
        }
        match &self.predicate {
            Some(p) => {
                fp.word(0xF117E5);
                fp.predicate(p);
            }
            None => fp.word(0),
        }
        fp.word(self.group_by.len() as u64);
        for c in &self.group_by {
            fp.word(c.index() as u64);
        }
        fp.finish()
    }

    /// Deduplicated set of all columns the query touches (aggregates,
    /// predicate, group-by) — drives the feature mask (§3.2).
    pub fn used_columns(&self) -> Vec<ColId> {
        let mut cols = Vec::new();
        for a in &self.aggregates {
            if a.func != AggFunc::Count {
                a.expr.collect_columns(&mut cols);
            }
            if let Some(c) = &a.condition {
                c.collect_columns(&mut cols);
            }
        }
        if let Some(p) = &self.predicate {
            p.collect_columns(&mut cols);
        }
        cols.extend(self.group_by.iter().copied());
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Render as SQL-ish text for logs and reports.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            schema,
        }
    }
}

/// Accumulator for [`Query::fingerprint`]: FNV-1a over a tagged pre-order
/// walk of the AST, finished with a SplitMix64-style avalanche so nearby
/// structures land far apart in the cache's hash space. `pub(crate)` so
/// the sketch-query AST ([`crate::sketch`]) fingerprints with the same
/// scheme (and a distinct leading tag) into the same cache key space.
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub(crate) fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn scalar(&mut self, e: &ScalarExpr) {
        match e {
            ScalarExpr::Column(c) => {
                self.word(0x10);
                self.word(c.index() as u64);
            }
            ScalarExpr::Literal(x) => {
                self.word(0x11);
                self.word(x.to_bits());
            }
            ScalarExpr::BinOp(op, l, r) => {
                self.word(0x12 + *op as u64);
                self.scalar(l);
                self.scalar(r);
            }
        }
    }

    pub(crate) fn predicate(&mut self, p: &Predicate) {
        match p {
            Predicate::Clause(Clause::Cmp { col, op, value }) => {
                self.word(0x20 + *op as u64);
                self.word(col.index() as u64);
                self.word(value.to_bits());
            }
            Predicate::Clause(Clause::In {
                col,
                values,
                negated,
            }) => {
                self.word(if *negated { 0x31 } else { 0x30 });
                self.word(col.index() as u64);
                self.word(values.len() as u64);
                for v in values {
                    self.text(v);
                }
            }
            Predicate::Clause(Clause::Contains {
                col,
                needle,
                negated,
            }) => {
                self.word(if *negated { 0x41 } else { 0x40 });
                self.word(col.index() as u64);
                self.text(needle);
            }
            Predicate::And(ps) => {
                self.word(0x50);
                self.word(ps.len() as u64);
                for q in ps {
                    self.predicate(q);
                }
            }
            Predicate::Or(ps) => {
                self.word(0x51);
                self.word(ps.len() as u64);
                for q in ps {
                    self.predicate(q);
                }
            }
            Predicate::Not(q) => {
                self.word(0x52);
                self.predicate(q);
            }
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Helper for [`Query::display`].
pub struct QueryDisplay<'a> {
    query: &'a Query,
    schema: &'a Schema,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn expr(e: &ScalarExpr, s: &Schema) -> String {
            match e {
                ScalarExpr::Column(c) => s.col(*c).name.clone(),
                ScalarExpr::Literal(x) => format!("{x}"),
                ScalarExpr::BinOp(op, l, r) => {
                    let sym = match op {
                        BinOp::Add => "+",
                        BinOp::Sub => "-",
                        BinOp::Mul => "*",
                        BinOp::Div => "/",
                    };
                    format!("({} {} {})", expr(l, s), sym, expr(r, s))
                }
            }
        }
        fn pred(p: &Predicate, s: &Schema) -> String {
            match p {
                Predicate::Clause(Clause::Cmp { col, op, value }) => {
                    let sym = match op {
                        CmpOp::Eq => "=",
                        CmpOp::Ne => "<>",
                        CmpOp::Lt => "<",
                        CmpOp::Le => "<=",
                        CmpOp::Gt => ">",
                        CmpOp::Ge => ">=",
                    };
                    format!("{} {} {}", s.col(*col).name, sym, value)
                }
                Predicate::Clause(Clause::In {
                    col,
                    values,
                    negated,
                }) => format!(
                    "{} {}IN ({})",
                    s.col(*col).name,
                    if *negated { "NOT " } else { "" },
                    values.join(", ")
                ),
                Predicate::Clause(Clause::Contains {
                    col,
                    needle,
                    negated,
                }) => format!(
                    "{} {}LIKE '%{}%'",
                    s.col(*col).name,
                    if *negated { "NOT " } else { "" },
                    needle
                ),
                Predicate::And(ps) => {
                    let parts: Vec<String> = ps.iter().map(|p| pred(p, s)).collect();
                    format!("({})", parts.join(" AND "))
                }
                Predicate::Or(ps) => {
                    let parts: Vec<String> = ps.iter().map(|p| pred(p, s)).collect();
                    format!("({})", parts.join(" OR "))
                }
                Predicate::Not(p) => format!("NOT {}", pred(p, s)),
            }
        }
        let aggs: Vec<String> = self
            .query
            .aggregates
            .iter()
            .map(|a| {
                let base = match a.func {
                    AggFunc::Sum => format!("SUM({})", expr(&a.expr, self.schema)),
                    AggFunc::Count => "COUNT(*)".to_owned(),
                    AggFunc::Avg => format!("AVG({})", expr(&a.expr, self.schema)),
                };
                match &a.condition {
                    Some(c) => format!("{base} FILTER ({})", pred(c, self.schema)),
                    None => base,
                }
            })
            .collect();
        write!(f, "SELECT {}", aggs.join(", "))?;
        if let Some(p) = &self.query.predicate {
            write!(f, " WHERE {}", pred(p, self.schema))?;
        }
        if !self.query.group_by.is_empty() {
            let cols: Vec<&str> = self
                .query
                .group_by
                .iter()
                .map(|&c| self.schema.col(c).name.as_str())
                .collect();
            write!(f, " GROUP BY {}", cols.join(", "))?;
        }
        Ok(())
    }
}

/// Literal re-export used by workload generators when building clauses.
pub type LiteralValue = Value;

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_storage::{ColumnMeta, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("y", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ])
    }

    #[test]
    fn used_columns_dedup() {
        let q = Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ColId(0)).add(ScalarExpr::col(ColId(1)))),
                AggExpr::count(),
            ],
            Some(Predicate::all(vec![
                Clause::Cmp {
                    col: ColId(0),
                    op: CmpOp::Gt,
                    value: 1.0,
                },
                Clause::str_eq(ColId(2), "a"),
            ])),
            vec![ColId(2)],
        );
        assert_eq!(q.used_columns(), vec![ColId(0), ColId(1), ColId(2)]);
    }

    #[test]
    fn count_ignores_expr_columns() {
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        assert!(q.used_columns().is_empty());
    }

    #[test]
    fn nnf_pushes_negation_to_leaves() {
        let p = Predicate::Not(Box::new(Predicate::And(vec![
            Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 5.0,
            }),
            Predicate::Not(Box::new(Predicate::Clause(Clause::str_eq(ColId(2), "a")))),
        ])));
        let nnf = p.to_nnf();
        match nnf {
            Predicate::Or(ps) => {
                assert_eq!(ps.len(), 2);
                assert!(matches!(
                    &ps[0],
                    Predicate::Clause(Clause::Cmp { op: CmpOp::Ge, .. })
                ));
                assert!(matches!(
                    &ps[1],
                    Predicate::Clause(Clause::In { negated: false, .. })
                ));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn clause_counting() {
        let p = Predicate::And(vec![
            Predicate::Or(vec![
                Predicate::Clause(Clause::Cmp {
                    col: ColId(0),
                    op: CmpOp::Gt,
                    value: 0.0,
                }),
                Predicate::Clause(Clause::Cmp {
                    col: ColId(1),
                    op: CmpOp::Lt,
                    value: 2.0,
                }),
            ]),
            Predicate::Not(Box::new(Predicate::Clause(Clause::str_eq(ColId(2), "b")))),
        ]);
        assert_eq!(p.clause_count(), 3);
    }

    #[test]
    fn display_roundtrip_smoke() {
        let s = schema();
        let q = Query::new(
            vec![AggExpr::sum(
                ScalarExpr::col(ColId(0)).mul(ScalarExpr::col(ColId(1))),
            )],
            Some(Predicate::any(vec![
                Clause::Cmp {
                    col: ColId(1),
                    op: CmpOp::Le,
                    value: 3.5,
                },
                Clause::In {
                    col: ColId(2),
                    values: vec!["a".into(), "b".into()],
                    negated: true,
                },
            ])),
            vec![ColId(2)],
        );
        let text = q.display(&s).to_string();
        assert!(text.contains("SUM((x * y))"), "{text}");
        assert!(text.contains("tag NOT IN (a, b)"), "{text}");
        assert!(text.contains("GROUP BY tag"), "{text}");
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_literals() {
        let base = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0)))],
            Some(Predicate::Clause(Clause::Cmp {
                col: ColId(1),
                op: CmpOp::Lt,
                value: 5.0,
            })),
            vec![ColId(2)],
        );
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        // A different literal, operator, aggregate, or group-by each moves
        // the fingerprint.
        let mut other = base.clone();
        other.predicate = Some(Predicate::Clause(Clause::Cmp {
            col: ColId(1),
            op: CmpOp::Lt,
            value: 6.0,
        }));
        assert_ne!(base.fingerprint(), other.fingerprint());

        let mut other = base.clone();
        other.predicate = Some(Predicate::Clause(Clause::Cmp {
            col: ColId(1),
            op: CmpOp::Le,
            value: 5.0,
        }));
        assert_ne!(base.fingerprint(), other.fingerprint());

        let mut other = base.clone();
        other.aggregates = vec![AggExpr::avg(ScalarExpr::col(ColId(0)))];
        assert_ne!(base.fingerprint(), other.fingerprint());

        let mut other = base.clone();
        other.group_by = vec![];
        assert_ne!(base.fingerprint(), other.fingerprint());

        // And/Or shape matters even with identical leaves.
        let leaves = vec![
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Gt,
                value: 1.0,
            },
            Clause::str_eq(ColId(2), "a"),
        ];
        let anded = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::all(leaves.clone())),
            vec![],
        );
        let ored = Query::new(vec![AggExpr::count()], Some(Predicate::any(leaves)), vec![]);
        assert_ne!(anded.fingerprint(), ored.fingerprint());
    }

    #[test]
    fn negate_op_is_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }
}
