//! Sketch-answered query classes: `PERCENTILE(col, p)`, `DISTINCT(col)`,
//! `TOP_K(col, k)`.
//!
//! These queries are not linear aggregates — their answers cannot be
//! combined across partitions by weighted sums — but they *are* mergeable:
//! each class has a confluent answer sketch in [`ps3_sketch`] whose merge
//! across picked partitions is bit-identical to a single pass over the
//! concatenated rows. [`CompiledSketchQuery`] lowers a [`SketchQuery`]
//! against one table into the same [`CompiledPredicate`] mask programs the
//! scalar kernels use, fused with per-chunk sketch-update loops over
//! 64-row [`SelVec`] words (all-true words take a straight slice loop,
//! sparse words iterate set bits).
//!
//! [`QuerySpec`] is the serving layer's query type: scalar and sketch
//! queries share one fingerprint space (distinct leading tags), one cache
//! key scheme, and one wire encoding dispatch.

use std::ops::Range;

use ps3_sketch::hash::{canon_f64_bits, hash_f64, hash_u64};
use ps3_sketch::{AnswerSketch, DistinctSketch, QuantileSketch, TopKSketch};
use ps3_storage::{chunks64, ColId, ColumnData, Schema, Table};

use crate::ast::{Fingerprint, Predicate, Query};
use crate::kernel::CompiledPredicate;
use crate::selvec::SelVec;

/// The sketch-answered functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchFunc {
    /// `PERCENTILE(col, p)` with `0 ≤ p ≤ 1` — the p-quantile of the
    /// column over qualifying rows (NaNs excluded, the engine's NULL).
    Percentile(f64),
    /// `COUNT(DISTINCT col)` over qualifying rows. NaN counts as one
    /// value; `-0.0` and `0.0` are the same value.
    Distinct,
    /// `TOP_K(col, k)` — the `k` most frequent values with their counts,
    /// ranked by descending count with ascending key as the tie-break.
    TopK(u32),
}

/// A sketch-class query: one function over one column, with an optional
/// `WHERE` predicate drawn from the same language as scalar queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchQuery {
    /// The function.
    pub func: SketchFunc,
    /// The target column.
    pub col: ColId,
    /// `WHERE` predicate.
    pub predicate: Option<Predicate>,
}

impl SketchQuery {
    /// `PERCENTILE(col, p)`; `p` must be a finite fraction in `[0, 1]`.
    pub fn percentile(col: ColId, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile fraction must be in [0, 1], got {p}"
        );
        Self {
            func: SketchFunc::Percentile(p),
            col,
            predicate: None,
        }
    }

    /// `COUNT(DISTINCT col)`.
    pub fn distinct(col: ColId) -> Self {
        Self {
            func: SketchFunc::Distinct,
            col,
            predicate: None,
        }
    }

    /// `TOP_K(col, k)`; `k` must be positive.
    pub fn top_k(col: ColId, k: u32) -> Self {
        assert!(k > 0, "TOP_K needs k >= 1");
        Self {
            func: SketchFunc::TopK(k),
            col,
            predicate: None,
        }
    }

    /// Attach a `WHERE` predicate.
    pub fn filtered(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Stable structural fingerprint, sharing [`Query::fingerprint`]'s
    /// scheme and key space but starting from a sketch-class tag so a
    /// sketch query can never collide with a scalar query by construction.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.word(0x5C_E7C4);
        match self.func {
            SketchFunc::Percentile(p) => {
                fp.word(1);
                fp.word(p.to_bits());
            }
            SketchFunc::Distinct => fp.word(2),
            SketchFunc::TopK(k) => {
                fp.word(3);
                fp.word(u64::from(k));
            }
        }
        fp.word(self.col.index() as u64);
        match &self.predicate {
            Some(p) => {
                fp.word(0xF117E5);
                fp.predicate(p);
            }
            None => fp.word(0),
        }
        fp.finish()
    }

    /// Deduplicated set of columns the query touches.
    pub fn used_columns(&self) -> Vec<ColId> {
        let mut cols = vec![self.col];
        if let Some(p) = &self.predicate {
            p.collect_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Render as SQL-ish text for logs and reports.
    pub fn display_with(&self, schema: &Schema) -> String {
        let col = &schema.col(self.col).name;
        let head = match self.func {
            SketchFunc::Percentile(p) => format!("PERCENTILE({col}, {p})"),
            SketchFunc::Distinct => format!("COUNT(DISTINCT {col})"),
            SketchFunc::TopK(k) => format!("TOP_K({col}, {k})"),
        };
        match &self.predicate {
            Some(p) => {
                let proxy = Query::new(vec![crate::ast::AggExpr::count()], Some(p.clone()), vec![]);
                let text = proxy.display(schema).to_string();
                let wh = text.split_once(" WHERE ").map(|(_, w)| w).unwrap_or("");
                format!("SELECT {head} WHERE {wh}")
            }
            None => format!("SELECT {head}"),
        }
    }
}

/// A query of either class — the serving layer's request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// A linear-aggregate query answered by weighted combination.
    Scalar(Query),
    /// A sketch-class query answered by sketch merge.
    Sketch(SketchQuery),
}

impl From<Query> for QuerySpec {
    fn from(q: Query) -> Self {
        QuerySpec::Scalar(q)
    }
}

impl From<SketchQuery> for QuerySpec {
    fn from(q: SketchQuery) -> Self {
        QuerySpec::Sketch(q)
    }
}

impl From<&Query> for QuerySpec {
    fn from(q: &Query) -> Self {
        QuerySpec::Scalar(q.clone())
    }
}

impl From<&SketchQuery> for QuerySpec {
    fn from(q: &SketchQuery) -> Self {
        QuerySpec::Sketch(q.clone())
    }
}

impl QuerySpec {
    /// The stable fingerprint of either class (one key space; sketch
    /// queries carry a leading class tag so the spaces cannot collide
    /// structurally).
    pub fn fingerprint(&self) -> u64 {
        match self {
            QuerySpec::Scalar(q) => q.fingerprint(),
            QuerySpec::Sketch(q) => q.fingerprint(),
        }
    }

    /// Deduplicated set of columns the query touches.
    pub fn used_columns(&self) -> Vec<ColId> {
        match self {
            QuerySpec::Scalar(q) => q.used_columns(),
            QuerySpec::Sketch(q) => q.used_columns(),
        }
    }

    /// The `WHERE` predicate, whichever class.
    pub fn predicate(&self) -> Option<&Predicate> {
        match self {
            QuerySpec::Scalar(q) => q.predicate.as_ref(),
            QuerySpec::Sketch(q) => q.predicate.as_ref(),
        }
    }

    /// The scalar query, when this is one.
    pub fn as_scalar(&self) -> Option<&Query> {
        match self {
            QuerySpec::Scalar(q) => Some(q),
            QuerySpec::Sketch(_) => None,
        }
    }

    /// The sketch query, when this is one.
    pub fn as_sketch(&self) -> Option<&SketchQuery> {
        match self {
            QuerySpec::Scalar(_) => None,
            QuerySpec::Sketch(q) => Some(q),
        }
    }
}

/// How the target column feeds its sketch, resolved against the table's
/// physical layout at compile time so the row loop is branch-free.
#[derive(Debug, Clone, Copy)]
enum ColKind {
    Numeric,
    Categorical,
}

/// A sketch query compiled against one table: the WHERE mask program plus
/// the resolved update kernel. Build once per `(query, table)` —
/// [`SketchQuery::fingerprint`] is the cache key — then sketch any number
/// of partitions concurrently (`&self`).
#[derive(Debug, Clone)]
pub struct CompiledSketchQuery {
    pred: Option<CompiledPredicate>,
    func: SketchFunc,
    col: ColId,
    kind: ColKind,
}

impl CompiledSketchQuery {
    /// Lower `query` against `table`.
    ///
    /// # Panics
    ///
    /// Panics when `PERCENTILE` targets a categorical column — quantiles
    /// of dictionary codes are meaningless, so this is a programming
    /// error, not a data condition.
    pub fn compile(table: &Table, query: &SketchQuery) -> Self {
        let kind = match table.column(query.col) {
            ColumnData::Numeric(_) => ColKind::Numeric,
            ColumnData::Categorical { .. } => ColKind::Categorical,
        };
        if matches!(query.func, SketchFunc::Percentile(_)) {
            assert!(
                matches!(kind, ColKind::Numeric),
                "PERCENTILE requires a numeric column"
            );
        }
        Self {
            pred: query
                .predicate
                .as_ref()
                .map(|p| CompiledPredicate::compile(table, p)),
            func: query.func,
            col: query.col,
            kind,
        }
    }

    /// The compiled function.
    pub fn func(&self) -> SketchFunc {
        self.func
    }

    /// An empty sketch of the right kind (the merge identity).
    pub fn empty_sketch(&self) -> AnswerSketch {
        match self.func {
            SketchFunc::Percentile(_) => AnswerSketch::Quantile(QuantileSketch::new()),
            SketchFunc::Distinct => AnswerSketch::Distinct(DistinctSketch::new()),
            SketchFunc::TopK(_) => AnswerSketch::TopK(TopKSketch::new()),
        }
    }

    /// Build the sketch of one partition's qualifying rows. Confluence of
    /// the sketches makes this *the* unit of combination: merging these
    /// across any picked set, in any order, is bit-identical to one pass
    /// over the concatenated rows.
    pub fn sketch_partition(&self, table: &Table, rows: Range<usize>) -> AnswerSketch {
        let n = rows.len();
        let sel = match &self.pred {
            Some(p) => p.eval(table, rows.clone()),
            None => SelVec::all(n),
        };
        let mut sketch = self.empty_sketch();
        if n == 0 || !sel.any() {
            return sketch;
        }
        match (&mut sketch, self.kind) {
            (AnswerSketch::Quantile(q), ColKind::Numeric) => {
                update_chunked(table.column(self.col).numeric_range(rows), &sel, |v| {
                    q.insert(v)
                });
            }
            (AnswerSketch::Quantile(_), ColKind::Categorical) => {
                unreachable!("compile() rejects categorical PERCENTILE")
            }
            (AnswerSketch::Distinct(d), ColKind::Numeric) => {
                update_chunked(table.column(self.col).numeric_range(rows), &sel, |v| {
                    d.insert_hash(hash_f64(v))
                });
            }
            (AnswerSketch::Distinct(d), ColKind::Categorical) => {
                update_chunked(table.column(self.col).codes_range(rows), &sel, |c| {
                    d.insert_hash(hash_u64(u64::from(c)))
                });
            }
            (AnswerSketch::TopK(t), ColKind::Numeric) => {
                update_chunked(table.column(self.col).numeric_range(rows), &sel, |v| {
                    t.insert(canon_f64_bits(v))
                });
            }
            (AnswerSketch::TopK(t), ColKind::Categorical) => {
                update_chunked(table.column(self.col).codes_range(rows), &sel, |c| {
                    t.insert(u64::from(c))
                });
            }
        }
        sketch
    }
}

/// Fused masked sketch update: walk the column in 64-row chunks against
/// the selection words — all-true words take a straight slice loop, sparse
/// words iterate set bits, all-false words are skipped. Ascending row
/// order throughout (irrelevant to the confluent sketches, but it keeps
/// the loop shape identical to `sum_col`'s proven pattern).
fn update_chunked<T: Copy, F: FnMut(T)>(data: &[T], sel: &SelVec, mut f: F) {
    let words = sel.words();
    let (chunks, tail) = chunks64(data);
    let mut wi = 0;
    for chunk in chunks {
        let w = words[wi];
        wi += 1;
        if w == u64::MAX {
            for &x in chunk {
                f(x);
            }
        } else if w != 0 {
            let mut m = w;
            while m != 0 {
                f(chunk[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
        }
    }
    if !tail.is_empty() {
        let mut m = words[wi];
        while m != 0 {
            f(tail[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Clause, CmpOp};
    use crate::predicate::eval_predicate;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType};

    /// Row-wise oracle: evaluate the predicate with the reference
    /// interpreter, then update the sketch one qualifying row at a time.
    fn oracle_sketch(table: &Table, rows: Range<usize>, query: &SketchQuery) -> AnswerSketch {
        let keep = match &query.predicate {
            Some(p) => eval_predicate(table, rows.clone(), p),
            None => vec![true; rows.len()],
        };
        let compiled = CompiledSketchQuery::compile(table, query);
        let mut sketch = compiled.empty_sketch();
        for (i, row) in rows.clone().enumerate() {
            if !keep[i] {
                continue;
            }
            match (&mut sketch, table.column(query.col)) {
                (AnswerSketch::Quantile(q), ColumnData::Numeric(_)) => {
                    q.insert(table.numeric(query.col)[row]);
                }
                (AnswerSketch::Distinct(d), ColumnData::Numeric(_)) => {
                    d.insert_hash(hash_f64(table.numeric(query.col)[row]));
                }
                (AnswerSketch::Distinct(d), ColumnData::Categorical { .. }) => {
                    let (codes, _) = table.categorical(query.col);
                    d.insert_hash(hash_u64(u64::from(codes[row])));
                }
                (AnswerSketch::TopK(t), ColumnData::Numeric(_)) => {
                    t.insert(canon_f64_bits(table.numeric(query.col)[row]));
                }
                (AnswerSketch::TopK(t), ColumnData::Categorical { .. }) => {
                    let (codes, _) = table.categorical(query.col);
                    t.insert(u64::from(codes[row]));
                }
                _ => unreachable!(),
            }
        }
        sketch
    }

    /// 200 rows: x numeric with IEEE specials sprinkled in, tag
    /// dict-coded with 7 values.
    fn edge_table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..200usize {
            let x = match i % 11 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => (i as f64 - 100.0) * 1.37,
            };
            b.push_row(&[x], &[&format!("t{}", i % 7)]);
        }
        b.finish()
    }

    fn all_specs() -> Vec<SketchQuery> {
        let pred = Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: -50.0,
        });
        vec![
            SketchQuery::percentile(ColId(0), 0.5),
            SketchQuery::percentile(ColId(0), 0.0),
            SketchQuery::percentile(ColId(0), 1.0),
            SketchQuery::percentile(ColId(0), 0.5).filtered(pred.clone()),
            SketchQuery::distinct(ColId(0)),
            SketchQuery::distinct(ColId(1)),
            SketchQuery::distinct(ColId(1)).filtered(pred.clone()),
            SketchQuery::top_k(ColId(0), 3),
            SketchQuery::top_k(ColId(1), 3),
            SketchQuery::top_k(ColId(1), 3).filtered(pred),
        ]
    }

    #[test]
    fn fused_kernel_matches_row_wise_oracle() {
        let t = edge_table();
        for q in all_specs() {
            let cq = CompiledSketchQuery::compile(&t, &q);
            // Several range shapes: full, empty, ragged word boundaries.
            for rows in [0..200usize, 0..0, 3..67, 64..128, 130..200] {
                let fused = cq.sketch_partition(&t, rows.clone());
                let oracle = oracle_sketch(&t, rows.clone(), &q);
                assert_eq!(fused, oracle, "query {q:?} rows {rows:?}");
            }
        }
    }

    #[test]
    fn merge_of_partition_sketches_equals_whole_pass() {
        let t = edge_table();
        for q in all_specs() {
            let cq = CompiledSketchQuery::compile(&t, &q);
            let whole = cq.sketch_partition(&t, 0..200);
            // 5 uneven partitions merged in two different orders.
            let cuts = [0usize, 13, 64, 65, 130, 200];
            let parts: Vec<AnswerSketch> = cuts
                .windows(2)
                .map(|w| cq.sketch_partition(&t, w[0]..w[1]))
                .collect();
            let mut fwd = cq.empty_sketch();
            for p in &parts {
                fwd.merge_from(p);
            }
            let mut rev = cq.empty_sketch();
            for p in parts.iter().rev() {
                rev.merge_from(p);
            }
            assert_eq!(fwd, whole, "forward merge, query {q:?}");
            assert_eq!(rev, whole, "reverse merge, query {q:?}");
        }
    }

    #[test]
    fn all_false_mask_yields_empty_sketch() {
        let t = edge_table();
        // Nothing compares greater than +inf (the table holds +inf rows,
        // which a large finite threshold would still pass).
        let never = Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: f64::INFINITY,
        });
        for q in [
            SketchQuery::percentile(ColId(0), 0.5).filtered(never.clone()),
            SketchQuery::distinct(ColId(1)).filtered(never.clone()),
            SketchQuery::top_k(ColId(1), 5).filtered(never),
        ] {
            let cq = CompiledSketchQuery::compile(&t, &q);
            let s = cq.sketch_partition(&t, 0..200);
            assert_eq!(s, cq.empty_sketch(), "query {q:?}");
        }
    }

    #[test]
    fn single_value_column_percentile_endpoints() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Numeric)]);
        let mut b = TableBuilder::new(schema);
        for _ in 0..100 {
            b.push_row(&[7.5], &[]);
        }
        let t = b.finish();
        for p in [0.0, 0.5, 1.0] {
            let cq = CompiledSketchQuery::compile(&t, &SketchQuery::percentile(ColId(0), p));
            match cq.sketch_partition(&t, 0..100) {
                AnswerSketch::Quantile(s) => {
                    let q = s.quantile(p);
                    assert!((q - 7.5).abs() / 7.5 <= s.alpha(), "p={p} q={q}");
                }
                other => panic!("wrong kind {other:?}"),
            }
        }
    }

    #[test]
    fn dict_coded_distinct_and_topk_count_codes() {
        let t = edge_table(); // 7 distinct tags, ~29 rows each
        let cq = CompiledSketchQuery::compile(&t, &SketchQuery::distinct(ColId(1)));
        match cq.sketch_partition(&t, 0..200) {
            AnswerSketch::Distinct(d) => {
                assert!((d.estimate() - 7.0).abs() < 1.0, "est {}", d.estimate());
            }
            other => panic!("wrong kind {other:?}"),
        }
        let cq = CompiledSketchQuery::compile(&t, &SketchQuery::top_k(ColId(1), 2));
        match cq.sketch_partition(&t, 0..200) {
            AnswerSketch::TopK(s) => {
                assert_eq!(s.distinct(), 7);
                assert_eq!(s.total(), 200);
                // 200 = 7*28 + 4: tags t0..t3 appear 29 times, t4..t6 28.
                assert_eq!(s.top(2), vec![(0, 29), (1, 29)]);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn numeric_topk_canonicalizes_zero_and_nan() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Numeric)]);
        let mut b = TableBuilder::new(schema);
        for x in [
            0.0,
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
        ] {
            b.push_row(&[x], &[]);
        }
        let t = b.finish();
        let cq = CompiledSketchQuery::compile(&t, &SketchQuery::top_k(ColId(0), 5));
        match cq.sketch_partition(&t, 0..5) {
            AnswerSketch::TopK(s) => {
                assert_eq!(s.distinct(), 2, "±0.0 one key, NaN payloads one key");
                assert_eq!(s.count_of(canon_f64_bits(0.0)), 3);
                assert_eq!(s.count_of(canon_f64_bits(f64::NAN)), 2);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = SketchQuery::percentile(ColId(0), 0.5);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Function, parameter, column, and predicate each move it.
        assert_ne!(
            a.fingerprint(),
            SketchQuery::percentile(ColId(0), 0.9).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            SketchQuery::percentile(ColId(1), 0.5).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            SketchQuery::distinct(ColId(0)).fingerprint()
        );
        assert_ne!(
            SketchQuery::top_k(ColId(0), 3).fingerprint(),
            SketchQuery::top_k(ColId(0), 4).fingerprint()
        );
        let pred = Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Lt,
            value: 1.0,
        });
        assert_ne!(a.fingerprint(), a.clone().filtered(pred).fingerprint());
        // And the spec dispatch matches the inner fingerprints.
        let spec: QuerySpec = a.clone().into();
        assert_eq!(spec.fingerprint(), a.fingerprint());
    }

    #[test]
    #[should_panic(expected = "numeric column")]
    fn categorical_percentile_is_rejected_at_compile() {
        let t = edge_table();
        CompiledSketchQuery::compile(&t, &SketchQuery::percentile(ColId(1), 0.5));
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn out_of_range_percentile_is_rejected() {
        SketchQuery::percentile(ColId(0), 1.5);
    }

    #[test]
    fn used_columns_include_predicate() {
        let q = SketchQuery::distinct(ColId(1)).filtered(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: 0.0,
        }));
        assert_eq!(q.used_columns(), vec![ColId(0), ColId(1)]);
        let spec = QuerySpec::from(q);
        assert_eq!(spec.used_columns(), vec![ColId(0), ColId(1)]);
        assert!(spec.predicate().is_some());
        assert!(spec.as_sketch().is_some());
        assert!(spec.as_scalar().is_none());
    }

    #[test]
    fn display_renders_the_class() {
        let schema = Schema::new(vec![
            ColumnMeta::new("lat_ms", ColumnType::Numeric),
            ColumnMeta::new("user", ColumnType::Categorical),
        ]);
        let q = SketchQuery::percentile(ColId(0), 0.99);
        assert_eq!(q.display_with(&schema), "SELECT PERCENTILE(lat_ms, 0.99)");
        let q = SketchQuery::distinct(ColId(1)).filtered(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: 10.0,
        }));
        assert_eq!(
            q.display_with(&schema),
            "SELECT COUNT(DISTINCT user) WHERE lat_ms > 10"
        );
    }
}
