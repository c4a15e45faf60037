//! Compiled columnar kernels for the partition-execution hot path.
//!
//! [`CompiledQuery`] lowers a [`Query`] into flat kernel programs that run
//! over 64-row chunks of column data, producing a [`SelVec`] selection mask
//! and accumulating aggregate slots directly from column slices — no per-row
//! `Vec<bool>` / `Vec<f64>` materialization. Compilation happens **once per
//! `(query, table)`** (the serving layer caches it by
//! [`Query::fingerprint`]); execution is `&self` and thread-safe.
//!
//! What compilation buys:
//!
//! * Predicates are normalized to NNF and `IN`/`LIKE '%x%'` clauses resolve
//!   their dictionary targets into a [`TargetSet`] (dense bitset for small
//!   dictionaries, sorted codes otherwise) — membership is O(1)-ish per row
//!   instead of a linear scan per row per partition, and `Contains` stops
//!   re-scanning the dictionary on every partition.
//! * Numeric comparisons and membership probes run over fixed-size 64-row
//!   chunks ([`ps3_storage::chunks64`]) writing one `u64` mask word per
//!   chunk through an explicit 8-lane blocked shape (eight independent
//!   bit-accumulator lanes, pairwise-combined — the `ps3_cluster::simd`
//!   style), which LLVM vectorizes; lanes set disjoint bits, so the SIMD
//!   shape is bit-identical to the sequential one by construction.
//! * Fused predicate→aggregate kernels accumulate SUM/COUNT/AVG slots from
//!   the column slices under the mask, fast-pathing all-true words and
//!   skipping all-false ones. A projection (`SUM(received − sent)`) is
//!   evaluated a column at a time — each operation over the partition's
//!   whole range into one buffer — and then summed like a stored column.
//! * `GROUP BY` runs a column at a time: the key columns give each selected
//!   row a partition-local group id, then every aggregate adds its values
//!   into a flat accumulator indexed by that id — no map, no allocation per
//!   row — and the groups leave in ascending key order, the layout
//!   [`PartialAnswer`] folds by merging. A dictionary-coded key is its own
//!   id: one key's code, or several keys' codes read as one mixed-radix
//!   number while their code space stays within 1,024 codes. Those ids
//!   ascend as the key tuples do, so the groups leave by a scan of the code
//!   space, with no sort. A numeric key, or a code space past the limit,
//!   gets dense ids from a hash table from that key on, and those groups
//!   are sorted by key.
//!
//! **Bit-identity contract:** for every query and partition, the compiled
//! path produces results bit-identical to the reference scalar interpreter
//! (kept as the `#[cfg(test)]` oracle in `crate::oracle`): aggregates are
//! accumulated in ascending row order, skipped rows correspond exactly to
//! the interpreter's `+= 0.0` no-ops, and COUNT slots are popcounts or row
//! counts (a sum of `1.0`s is exact below 2^53). Group keys canonicalize
//! `-0.0` to `0.0` and all NaN payloads to one canonical NaN (see
//! [`GroupKey::canon_num_bits`]) in both paths. Division by zero yields `0`
//! (see [`crate::predicate::eval_scalar`]); NaN comparisons follow IEEE 754
//! (`NaN op v` is false for everything but `Ne`). The one bit neither path
//! fixes is the sign of a NaN made from two NaNs of opposite sign, which
//! Rust leaves to the compiler.

use std::ops::Range;

use ps3_storage::{chunks64, ColId, Table};

use crate::ast::{AggFunc, BinOp, Clause, CmpOp, Predicate, Query, ScalarExpr};
use crate::exec::{GroupKey, PartialAnswer, QueryAnswer};
use crate::selvec::SelVec;

/// Dictionaries at most this large get a dense membership bitset (8 KiB at
/// the limit); larger ones fall back to binary search over sorted codes.
pub const DENSE_DICT_LIMIT: usize = 1 << 16;

/// A precompiled membership target set over dictionary codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSet {
    /// Sorted, deduplicated target codes (also feeds selectivity probes).
    codes: Vec<u32>,
    /// Dense bitset over the dictionary's code space, when small enough.
    bits: Option<Vec<u64>>,
}

impl TargetSet {
    /// Build from raw target codes for a dictionary of `dict_len` entries.
    pub fn build(mut codes: Vec<u32>, dict_len: usize) -> Self {
        codes.sort_unstable();
        codes.dedup();
        let bits = (dict_len <= DENSE_DICT_LIMIT).then(|| {
            let mut words = vec![0u64; dict_len.div_ceil(64)];
            for &c in &codes {
                words[c as usize / 64] |= 1 << (c % 64);
            }
            words
        });
        Self { codes, bits }
    }

    /// Whether `code` is a target. O(1) with the dense bitset, O(log n)
    /// otherwise.
    #[inline]
    pub fn contains(&self, code: u32) -> bool {
        match &self.bits {
            Some(words) => {
                let i = code as usize;
                // Codes come from the same dictionary, so they are in range.
                (words[i / 64] >> (i % 64)) & 1 == 1
            }
            None => self.codes.binary_search(&code).is_ok(),
        }
    }

    /// The sorted target codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of target codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no code matches.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// A predicate lowered to NNF with precompiled leaves. Negation lives only
/// in the leaves — as **mask complement flags**, not operator rewrites:
/// `NOT (x < v)` must also accept NaN rows (IEEE: `NaN < v` is false), so
/// rewriting it to `x >= v` would diverge from the row-wise interpreter.
/// The De Morgan push-down itself is an exact boolean identity per row.
#[derive(Debug, Clone)]
pub enum CompiledPredicate {
    /// Numeric comparison against a constant, optionally complemented.
    Cmp {
        /// The numeric column.
        col: ColId,
        /// The comparison.
        op: CmpOp,
        /// The constant.
        value: f64,
        /// Whether the mask is complemented (exact under NaN, unlike
        /// [`CmpOp::negate`]).
        negated: bool,
    },
    /// Categorical membership in a precompiled target set (covers both
    /// `IN (...)` and `LIKE '%needle%'`, negated or not).
    InSet {
        /// The categorical column.
        col: ColId,
        /// Precompiled targets.
        set: TargetSet,
        /// Whether the mask is complemented.
        negated: bool,
    },
    /// Conjunction.
    And(Vec<CompiledPredicate>),
    /// Disjunction.
    Or(Vec<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Compile `pred` against `table`'s schema and dictionaries, pushing
    /// negations down to leaf complement flags (De Morgan).
    pub fn compile(table: &Table, pred: &Predicate) -> Self {
        Self::from_pred(table, pred, false)
    }

    fn from_pred(table: &Table, pred: &Predicate, neg: bool) -> Self {
        match pred {
            Predicate::Clause(c) => Self::from_clause(table, c, neg),
            Predicate::Not(p) => Self::from_pred(table, p, !neg),
            Predicate::And(ps) => {
                let parts = ps.iter().map(|p| Self::from_pred(table, p, neg)).collect();
                if neg {
                    CompiledPredicate::Or(parts)
                } else {
                    CompiledPredicate::And(parts)
                }
            }
            Predicate::Or(ps) => {
                let parts = ps.iter().map(|p| Self::from_pred(table, p, neg)).collect();
                if neg {
                    CompiledPredicate::And(parts)
                } else {
                    CompiledPredicate::Or(parts)
                }
            }
        }
    }

    fn from_clause(table: &Table, clause: &Clause, neg: bool) -> Self {
        match clause {
            Clause::Cmp { col, op, value } => CompiledPredicate::Cmp {
                col: *col,
                op: *op,
                value: *value,
                negated: neg,
            },
            Clause::In {
                col,
                values,
                negated,
            } => {
                let (_, dict) = table.categorical(*col);
                // Values absent from the dictionary match no rows.
                let codes: Vec<u32> = values.iter().filter_map(|v| dict.code(v)).collect();
                CompiledPredicate::InSet {
                    col: *col,
                    set: TargetSet::build(codes, dict.len()),
                    negated: *negated != neg,
                }
            }
            Clause::Contains {
                col,
                needle,
                negated,
            } => {
                let (_, dict) = table.categorical(*col);
                CompiledPredicate::InSet {
                    col: *col,
                    set: TargetSet::build(dict.codes_containing(needle), dict.len()),
                    negated: *negated != neg,
                }
            }
        }
    }

    /// Evaluate over `rows` into a fresh selection mask.
    pub fn eval(&self, table: &Table, rows: Range<usize>) -> SelVec {
        let mut out = SelVec::none(rows.len());
        self.eval_into(table, rows, &mut out);
        out
    }

    /// Evaluate into `out`, overwriting it completely.
    fn eval_into(&self, table: &Table, rows: Range<usize>, out: &mut SelVec) {
        match self {
            CompiledPredicate::Cmp {
                col,
                op,
                value,
                negated,
            } => {
                cmp_kernel(table.column(*col).numeric_range(rows), *op, *value, out);
                if *negated {
                    out.not_assign();
                }
            }
            CompiledPredicate::InSet { col, set, negated } => {
                membership_kernel(table.column(*col).codes_range(rows), set, out);
                if *negated {
                    out.not_assign();
                }
            }
            CompiledPredicate::And(ps) => match ps.split_first() {
                None => *out = SelVec::all(rows.len()),
                Some((first, rest)) => {
                    first.eval_into(table, rows.clone(), out);
                    let mut scratch = SelVec::none(rows.len());
                    for p in rest {
                        p.eval_into(table, rows.clone(), &mut scratch);
                        out.and_assign(&scratch);
                    }
                }
            },
            CompiledPredicate::Or(ps) => match ps.split_first() {
                None => *out = SelVec::none(rows.len()),
                Some((first, rest)) => {
                    first.eval_into(table, rows.clone(), out);
                    let mut scratch = SelVec::none(rows.len());
                    for p in rest {
                        p.eval_into(table, rows.clone(), &mut scratch);
                        out.or_assign(&scratch);
                    }
                }
            },
        }
    }
}

/// Lane width of the explicit SIMD-structured mask kernels — the same
/// 8-lane blocked shape as `ps3_cluster::simd`, wide enough for one AVX-512
/// double vector or two AVX2 ones.
pub(crate) const MASK_LANES: usize = 8;

/// One full 64-row chunk → one mask word, evaluated as eight independent
/// bit-accumulator lanes over `chunks_exact(8)` octets. Lane `j` only ever
/// sets bits `8g + j`, so the lanes are disjoint and the fixed pairwise
/// OR-combine tree is *exactly* the sequential mask whatever order the
/// hardware evaluates lanes in — bit-identity is structural here, unlike
/// the float summation in `sum_col`, which stays strictly sequential. The
/// shape hands LLVM eight independent compare-and-shift dependency chains
/// to vectorize.
#[inline(always)]
fn mask_word64<T: Copy, F: Fn(T) -> bool>(chunk: &[T; 64], f: F) -> u64 {
    let mut lanes = [0u64; MASK_LANES];
    for (g, octet) in chunk.chunks_exact(MASK_LANES).enumerate() {
        let base = g * MASK_LANES;
        for j in 0..MASK_LANES {
            lanes[j] |= u64::from(f(octet[j])) << (base + j);
        }
    }
    // Pairwise combine tree (log2 depth), matching ps3_cluster::simd.
    ((lanes[0] | lanes[4]) | (lanes[1] | lanes[5]))
        | ((lanes[2] | lanes[6]) | (lanes[3] | lanes[7]))
}

/// Ragged-tail mask word: scalar, ascending bit order.
#[inline(always)]
fn mask_tail<T: Copy, F: Fn(T) -> bool>(tail: &[T], f: F) -> u64 {
    let mut m = 0u64;
    for (i, &x) in tail.iter().enumerate() {
        m |= u64::from(f(x)) << i;
    }
    m
}

/// Comparison kernel: one mask word per 64-row chunk via the 8-lane
/// [`mask_word64`] shape; the tail is handled scalar. NaN semantics are
/// whatever the per-element comparison closure says (IEEE 754), identical
/// in both shapes. `pub(crate)` so the oracle property suite can pin the
/// kernel directly against the row-wise interpreter.
pub(crate) fn cmp_kernel(data: &[f64], op: CmpOp, value: f64, out: &mut SelVec) {
    #[inline(always)]
    fn fill<F: Fn(f64, f64) -> bool>(data: &[f64], v: f64, out: &mut SelVec, f: F) {
        let words = out.words_mut();
        let (chunks, tail) = chunks64(data);
        let mut wi = 0;
        for chunk in chunks {
            words[wi] = mask_word64(chunk, |x| f(x, v));
            wi += 1;
        }
        if !tail.is_empty() {
            words[wi] = mask_tail(tail, |x| f(x, v));
        }
    }
    match op {
        CmpOp::Eq => fill(data, value, out, |x, v| x == v),
        CmpOp::Ne => fill(data, value, out, |x, v| x != v),
        CmpOp::Lt => fill(data, value, out, |x, v| x < v),
        CmpOp::Le => fill(data, value, out, |x, v| x <= v),
        CmpOp::Gt => fill(data, value, out, |x, v| x > v),
        CmpOp::Ge => fill(data, value, out, |x, v| x >= v),
    }
}

/// Membership kernel over dictionary codes, same 8-lane shape as
/// [`cmp_kernel`]. The dense-bitset/sorted-codes dispatch is hoisted out
/// of the row loop so each variant runs a branch-free per-element probe.
pub(crate) fn membership_kernel(codes: &[u32], set: &TargetSet, out: &mut SelVec) {
    #[inline(always)]
    fn fill<F: Fn(u32) -> bool>(codes: &[u32], out: &mut SelVec, f: F) {
        let words = out.words_mut();
        let (chunks, tail) = chunks64(codes);
        let mut wi = 0;
        for chunk in chunks {
            words[wi] = mask_word64(chunk, &f);
            wi += 1;
        }
        if !tail.is_empty() {
            words[wi] = mask_tail(tail, &f);
        }
    }
    match &set.bits {
        // Codes come from the same dictionary the bitset was sized for, so
        // they are in range.
        Some(bits) => fill(codes, out, |c| {
            let i = c as usize;
            (bits[i / 64] >> (i % 64)) & 1 == 1
        }),
        None => fill(codes, out, |c| set.codes.binary_search(&c).is_ok()),
    }
}

/// Fused masked column sum: all-true words take a straight sequential loop
/// over the 64-row chunk, sparse words iterate set bits — both in ascending
/// row order, so the accumulation is bit-identical to the scalar path.
fn sum_col(data: &[f64], sel: &SelVec) -> f64 {
    let mut acc = 0.0;
    let words = sel.words();
    let (chunks, tail) = chunks64(data);
    let mut wi = 0;
    for chunk in chunks {
        let w = words[wi];
        wi += 1;
        if w == u64::MAX {
            for &x in chunk {
                acc += x;
            }
        } else if w != 0 {
            let mut m = w;
            while m != 0 {
                acc += chunk[m.trailing_zeros() as usize];
                m &= m - 1;
            }
        }
    }
    if !tail.is_empty() {
        let mut m = words[wi];
        while m != 0 {
            acc += tail[m.trailing_zeros() as usize];
            m &= m - 1;
        }
    }
    acc
}

/// `expr`'s value on every row of `rows`, a column at a time: a bare
/// stored column is its own slice, anything else is evaluated into `buf`
/// (see [`eval_expr_into`]).
fn expr_values<'a>(
    expr: &ScalarExpr,
    table: &'a Table,
    rows: Range<usize>,
    buf: &'a mut Vec<f64>,
) -> &'a [f64] {
    match expr {
        ScalarExpr::Column(c) => table.column(*c).numeric_range(rows),
        e => {
            eval_expr_into(e, table, rows, buf);
            buf
        }
    }
}

/// Evaluate `expr` over `rows` into `out` (overwritten), one operation
/// over the whole range at a time: each row's value is what the same
/// operations on that row alone give, and a division by zero yields `0`
/// (see [`crate::predicate::eval_scalar`]).
pub(crate) fn eval_expr_into(
    expr: &ScalarExpr,
    table: &Table,
    rows: Range<usize>,
    out: &mut Vec<f64>,
) {
    out.clear();
    match expr {
        ScalarExpr::Column(c) => out.extend_from_slice(table.column(*c).numeric_range(rows)),
        ScalarExpr::Literal(x) => out.resize(rows.len(), *x),
        ScalarExpr::BinOp(op, l, r) => {
            eval_expr_into(l, table, rows.clone(), out);
            let mut scratch = Vec::new();
            let rhs = expr_values(r, table, rows, &mut scratch);
            let pairs = out.iter_mut().zip(rhs);
            match op {
                BinOp::Add => pairs.for_each(|(a, &b)| *a += b),
                BinOp::Sub => pairs.for_each(|(a, &b)| *a -= b),
                BinOp::Mul => pairs.for_each(|(a, &b)| *a *= b),
                BinOp::Div => pairs.for_each(|(a, &b)| *a = if b == 0.0 { 0.0 } else { *a / b }),
            }
        }
    }
}

/// One compiled aggregate: an optional `CASE WHEN` mask plus the fused slot
/// kernel kind.
#[derive(Debug, Clone)]
struct AggKernel {
    cond: Option<CompiledPredicate>,
    kind: AggKind,
}

#[derive(Debug, Clone)]
enum AggKind {
    /// `COUNT(*)` — one slot, a popcount.
    Count,
    /// `SUM(expr)` — one slot.
    Sum(ScalarExpr),
    /// `AVG(expr)` — two slots (sum, count).
    Avg(ScalarExpr),
}

impl AggKind {
    /// The summed projection, if any, and whether a count slot follows it.
    fn slots(&self) -> (Option<&ScalarExpr>, bool) {
        match self {
            AggKind::Count => (None, true),
            AggKind::Sum(expr) => (Some(expr), false),
            AggKind::Avg(expr) => (Some(expr), true),
        }
    }
}

/// Key code spaces at most this large give a group its id straight from
/// its dictionary codes: the accumulator then holds a cell for every code
/// tuple, 8 KiB a slot at the limit.
const CODE_SPACE_LIMIT: usize = 1 << 10;

/// A query compiled against one table: the WHERE program, fused aggregate
/// kernels and the group-by columns. Build once per `(query, table)` —
/// [`Query::fingerprint`] is the intended cache key — then execute any
/// number of partitions concurrently.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pred: Option<CompiledPredicate>,
    aggs: Vec<AggKernel>,
    group_by: Vec<ColId>,
    funcs: Vec<AggFunc>,
    slots: usize,
}

impl CompiledQuery {
    /// Lower `query` into kernel programs against `table`.
    pub fn compile(table: &Table, query: &Query) -> Self {
        let pred = query
            .predicate
            .as_ref()
            .map(|p| CompiledPredicate::compile(table, p));
        let aggs = query
            .aggregates
            .iter()
            .map(|a| AggKernel {
                cond: a
                    .condition
                    .as_ref()
                    .map(|p| CompiledPredicate::compile(table, p)),
                kind: match a.func {
                    AggFunc::Count => AggKind::Count,
                    AggFunc::Sum => AggKind::Sum(a.expr.clone()),
                    AggFunc::Avg => AggKind::Avg(a.expr.clone()),
                },
            })
            .collect();
        Self {
            pred,
            aggs,
            group_by: query.group_by.clone(),
            funcs: query.aggregates.iter().map(|a| a.func).collect(),
            slots: PartialAnswer::slot_count(query),
        }
    }

    /// Number of internal accumulator slots.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The aggregate functions, in `SELECT` order (drives AVG finalization).
    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    /// The compiled WHERE predicate, if any (selectivity probes reuse it).
    pub fn predicate(&self) -> Option<&CompiledPredicate> {
        self.pred.as_ref()
    }

    /// Execute exactly over one partition's row range.
    pub fn execute_partition(&self, table: &Table, rows: Range<usize>) -> PartialAnswer {
        let n = rows.len();
        let sel = match &self.pred {
            Some(p) => p.eval(table, rows.clone()),
            None => SelVec::all(n),
        };
        if !sel.any() {
            // A group exists only if at least one row passed the predicate —
            // otherwise an all-filtered partition would fabricate a zero
            // group.
            return PartialAnswer::with_slots(self.slots);
        }
        // Per-aggregate effective masks: selected AND condition.
        let eff: Vec<Option<SelVec>> = self
            .aggs
            .iter()
            .map(|a| {
                a.cond.as_ref().map(|c| {
                    let mut m = c.eval(table, rows.clone());
                    m.and_assign(&sel);
                    m
                })
            })
            .collect();

        if self.group_by.is_empty() {
            let mut acc = Vec::with_capacity(self.slots);
            let mut buf = Vec::new();
            for (agg, eff) in self.aggs.iter().zip(&eff) {
                let mask = eff.as_ref().unwrap_or(&sel);
                let (expr, counted) = agg.kind.slots();
                if let Some(expr) = expr {
                    acc.push(sum_col(
                        expr_values(expr, table, rows.clone(), &mut buf),
                        mask,
                    ));
                }
                if counted {
                    // Sequentially summing 1.0 per row equals the exact
                    // popcount below 2^53 rows.
                    acc.push(mask.count() as f64);
                }
            }
            return PartialAnswer::from_sorted(self.slots, 1, Vec::new(), acc);
        }

        self.execute_grouped(table, rows, &sel, &eff)
    }

    /// Grouped accumulation, a column at a time. The key columns first:
    /// each turns the rows' ids-so-far into ids of one column longer key
    /// prefixes, so after the last one `gid[row]` is the group id of every
    /// selected row. While every key so far is a dictionary code and their
    /// code space stays within [`CODE_SPACE_LIMIT`], the id is the codes
    /// read as one mixed-radix number (`prefix · dict_len + code`, over
    /// every row, no lookup); from the first key that is not — a numeric
    /// column, or a dictionary past the limit — an [`IdTable`] hands out
    /// dense ids. One pass over the selected rows counts each id's rows:
    /// the count says which ids are groups and is the value of every count
    /// slot no `CASE` masks. Then each other slot makes its own pass over
    /// its effective mask, adding into `acc[gid · slots + slot]` with its
    /// values resolved once — a stored column's slice, or a projection
    /// evaluated over the range into one buffer. Rows are visited in
    /// ascending order in every
    /// pass, so each `(group, slot)` sees exactly the additions the
    /// row-at-a-time interpreter makes, in its order, from `0.0`. Groups
    /// come out in ascending key order — [`PartialAnswer`]'s layout: code
    /// ids ascend as their key tuples do, so those groups leave by a scan
    /// of the code space; dense ids are sorted by their key tuples.
    fn execute_grouped(
        &self,
        table: &Table,
        rows: Range<usize>,
        sel: &SelVec,
        eff: &[Option<SelVec>],
    ) -> PartialAnswer {
        let (arity, slots) = (self.group_by.len(), self.slots);
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "a partition holds fewer than 2^32 rows"
        );
        let key_columns: Vec<KeyColumn<'_>> = self
            .group_by
            .iter()
            .map(|&col| match table.column(col).as_categorical() {
                Some((codes, dict)) => KeyColumn::Cat(&codes[rows.clone()], dict.len()),
                None => KeyColumn::Num(table.column(col).numeric_range(rows.clone())),
            })
            .collect();

        // gid[i], for selected rows: the id of row i's key prefix, one
        // column longer every round. `radix` holds the dictionary lengths
        // while the ids are code tuples, whose space is their product (a
        // code is below its dictionary's length: `Table::new` asserts it).
        // Once they are not, `first[id]` is the first row showing id: a
        // prefix id and the next column's word share one u64 IdTable key —
        // a dictionary code is 32 bits wide already, a numeric key gets a
        // dense id of its own first.
        let mut gid = vec![0u32; rows.len()];
        let mut radix: Option<Vec<usize>> = Some(Vec::with_capacity(arity));
        let mut space = 1;
        let mut first: Vec<u32> = Vec::new();
        for column in &key_columns {
            if let (KeyColumn::Cat(codes, len), Some(lens)) = (column, &mut radix) {
                if space * len <= CODE_SPACE_LIMIT {
                    if space == 1 {
                        gid.copy_from_slice(codes);
                    } else {
                        let len32 = *len as u32;
                        for (g, &code) in gid.iter_mut().zip(*codes) {
                            *g = *g * len32 + code;
                        }
                    }
                    lens.push(*len);
                    space *= len;
                    continue;
                }
            }
            // Ids still all 0: a numeric key's own word can be the key.
            let whole = radix.take().is_some() && space == 1;
            let mut prefixes = IdTable::new();
            first.clear();
            let mut prefix_id = |i: usize, key: u64| {
                let id = prefixes.id_of(key);
                if id as usize == first.len() {
                    first.push(i as u32);
                }
                id
            };
            match column {
                KeyColumn::Num(data) if whole => sel.for_each_selected(|i| {
                    gid[i] = prefix_id(i, GroupKey::canon_num_bits(data[i]));
                }),
                KeyColumn::Num(data) => {
                    let mut values = IdTable::new();
                    sel.for_each_selected(|i| {
                        let value = values.id_of(GroupKey::canon_num_bits(data[i]));
                        gid[i] = prefix_id(i, u64::from(gid[i]) << 32 | u64::from(value));
                    });
                }
                KeyColumn::Cat(codes, _) => sel.for_each_selected(|i| {
                    gid[i] = prefix_id(i, u64::from(gid[i]) << 32 | u64::from(codes[i]));
                }),
            }
        }
        let cells = if radix.is_some() { space } else { first.len() };

        // Selected rows per cell: whether a code tuple is a group, and the
        // value of every count slot that only WHERE masks (adding `1.0` a
        // row from `0.0` is the exact count below 2^53).
        let mut rows_in = vec![0u32; cells];
        sel.for_each_selected(|i| rows_in[gid[i] as usize] += 1);

        let mut acc = vec![0.0; cells * slots];
        let mut buf = Vec::new();
        let mut si = 0;
        for (agg, eff) in self.aggs.iter().zip(eff) {
            let (expr, counted) = agg.kind.slots();
            if let Some(expr) = expr {
                let values = expr_values(expr, table, rows.clone(), &mut buf);
                let mask = eff.as_ref().unwrap_or(sel);
                mask.for_each_selected(|i| acc[gid[i] as usize * slots + si] += values[i]);
                si += 1;
            }
            if counted {
                match eff {
                    Some(mask) => {
                        mask.for_each_selected(|i| acc[gid[i] as usize * slots + si] += 1.0);
                    }
                    None => {
                        for (cell, &n) in acc.chunks_exact_mut(slots).zip(&rows_in) {
                            cell[si] = f64::from(n);
                        }
                    }
                }
                si += 1;
            }
        }

        let Some(radix) = radix else {
            return sorted_groups(&key_columns, &first, &acc, slots);
        };
        // A code tuple is a group if a selected row carries it. Ascending
        // ids are ascending tuples, so one scan of the code space emits the
        // groups in order, the tuple counted up beside the id.
        let groups = rows_in.iter().filter(|&&n| n > 0).count();
        let mut keys = Vec::with_capacity(groups * arity);
        let mut vals = Vec::with_capacity(groups * slots);
        let mut tuple = vec![0u64; arity];
        for (cell, &n) in acc.chunks_exact(slots).zip(&rows_in) {
            if n > 0 {
                keys.extend_from_slice(&tuple);
                vals.extend_from_slice(cell);
            }
            for (code, &len) in tuple.iter_mut().zip(&radix).rev() {
                *code += 1;
                if *code < len as u64 {
                    break;
                }
                *code = 0;
            }
        }
        PartialAnswer::from_sorted(slots, groups, keys, vals)
    }

    /// Resolve AVG slots into final values (see [`PartialAnswer::finalize`]
    /// for the zero-count contract).
    pub fn finalize(&self, acc: &PartialAnswer) -> QueryAnswer {
        acc.finalize_funcs(&self.funcs)
    }
}

/// Groups with dense ids, in ascending key order: every group's key tuple
/// read back at its first row, then sorted.
fn sorted_groups(
    key_columns: &[KeyColumn<'_>],
    first: &[u32],
    acc: &[f64],
    slots: usize,
) -> PartialAnswer {
    let (arity, groups) = (key_columns.len(), first.len());
    let mut tuples = vec![0u64; groups * arity];
    for (c, column) in key_columns.iter().enumerate() {
        for (g, &row) in first.iter().enumerate() {
            tuples[g * arity + c] = column.key_at(row as usize);
        }
    }
    let tuple = |g: u32| &tuples[g as usize * arity..(g as usize + 1) * arity];
    let mut order: Vec<u32> = (0..groups as u32).collect();
    order.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
    let mut keys = Vec::with_capacity(groups * arity);
    let mut vals = Vec::with_capacity(groups * slots);
    for &g in &order {
        keys.extend_from_slice(tuple(g));
        vals.extend_from_slice(&acc[g as usize * slots..(g as usize + 1) * slots]);
    }
    PartialAnswer::from_sorted(slots, groups, keys, vals)
}

/// One group-by column's rows of the partition, as stored: a numeric
/// column's values, or a categorical one's codes and dictionary length.
enum KeyColumn<'a> {
    Num(&'a [f64]),
    Cat(&'a [u32], usize),
}

impl KeyColumn<'_> {
    /// The canonical key word of row `i` (what a [`GroupKey`] holds).
    fn key_at(&self, i: usize) -> u64 {
        match self {
            KeyColumn::Num(data) => GroupKey::canon_num_bits(data[i]),
            KeyColumn::Cat(codes, _) => u64::from(codes[i]),
        }
    }
}

/// Dense ids for the distinct `u64` keys one partition shows, handed out
/// in first-appearance order: an open-addressing table with the key stored
/// in its cell, linear probing at load ≤ ½ from the top bits of a
/// multiplicative hash (integer-valued doubles — all-zero low mantissa
/// bits — and small codes both spread). The keys are this table's own
/// column values, never a request's, and a partition's row count bounds
/// what a hostile column could cost one probe sequence.
struct IdTable {
    /// `(key, id + 1)`, `(_, 0)` when free; a power of two long.
    cells: Vec<(u64, u32)>,
    len: u32,
}

impl IdTable {
    fn new() -> Self {
        Self {
            cells: vec![(0, 0); 64],
            len: 0,
        }
    }

    #[inline]
    fn home(key: u64, cells: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - cells.trailing_zeros())) as usize
    }

    /// The id of `key`, a fresh one on first sight.
    #[inline]
    fn id_of(&mut self, key: u64) -> u32 {
        let mask = self.cells.len() - 1;
        let mut at = Self::home(key, self.cells.len());
        loop {
            match self.cells[at] {
                (_, 0) => break,
                (k, id) if k == key => return id - 1,
                _ => at = (at + 1) & mask,
            }
        }
        self.cells[at] = (key, self.len + 1);
        self.len += 1;
        if self.len as usize * 2 > self.cells.len() {
            self.grow();
        }
        self.len - 1
    }

    /// Double the cells and re-seat every key.
    fn grow(&mut self) {
        let cells = self.cells.len() * 2;
        let old = std::mem::replace(&mut self.cells, vec![(0, 0); cells]);
        for (key, id) in old.into_iter().filter(|&(_, id)| id != 0) {
            let mut at = Self::home(key, cells);
            while self.cells[at].1 != 0 {
                at = (at + 1) & (cells - 1);
            }
            self.cells[at] = (key, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggExpr;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, Schema};

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..n {
            b.push_row(&[i as f64], &[&format!("t{}", i % 7)]);
        }
        b.finish()
    }

    #[test]
    fn target_set_dense_and_sparse_agree() {
        let codes = vec![3, 99, 7, 3, 250];
        let dense = TargetSet::build(codes.clone(), 300);
        let sparse = TargetSet {
            codes: {
                let mut c = codes;
                c.sort_unstable();
                c.dedup();
                c
            },
            bits: None,
        };
        assert_eq!(dense.codes(), sparse.codes());
        assert_eq!(dense.len(), 4);
        for c in 0..300u32 {
            assert_eq!(dense.contains(c), sparse.contains(c), "code {c}");
        }
        assert!(TargetSet::build(vec![], 10).is_empty());
    }

    #[test]
    fn cmp_kernel_matches_scalar_on_odd_lengths() {
        let t = table(130);
        for (op, v) in [
            (CmpOp::Lt, 65.0),
            (CmpOp::Ge, 128.5),
            (CmpOp::Eq, 0.0),
            (CmpOp::Ne, 129.0),
        ] {
            let cp = CompiledPredicate::Cmp {
                col: ColId(0),
                op,
                value: v,
                negated: false,
            };
            let sel = cp.eval(&t, 3..130);
            let data = t.numeric(ColId(0));
            for (i, row) in (3..130).enumerate() {
                let expect = match op {
                    CmpOp::Eq => data[row] == v,
                    CmpOp::Ne => data[row] != v,
                    CmpOp::Lt => data[row] < v,
                    CmpOp::Le => data[row] <= v,
                    CmpOp::Gt => data[row] > v,
                    CmpOp::Ge => data[row] >= v,
                };
                assert_eq!(sel.get(i), expect, "op {op:?} row {row}");
            }
        }
    }

    #[test]
    fn nan_comparisons_are_ieee() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Numeric)]);
        let mut b = TableBuilder::new(schema);
        for x in [1.0, f64::NAN, -0.0] {
            b.push_row(&[x], &[]);
        }
        let t = b.finish();
        let eval = |op, v| {
            CompiledPredicate::Cmp {
                col: ColId(0),
                op,
                value: v,
                negated: false,
            }
            .eval(&t, 0..3)
            .to_bools()
        };
        assert_eq!(eval(CmpOp::Lt, 2.0), vec![true, false, true]);
        assert_eq!(eval(CmpOp::Ne, 1.0), vec![false, true, true]);
        // IEEE: -0.0 == 0.0.
        assert_eq!(eval(CmpOp::Eq, 0.0), vec![false, false, true]);
    }

    #[test]
    fn not_of_cmp_accepts_nan_rows() {
        // NOT must complement the mask, not rewrite the operator: NaN
        // fails `x < v` AND `x >= v`, but passes `NOT (x < v)`.
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Numeric)]);
        let mut b = TableBuilder::new(schema);
        for x in [1.0, f64::NAN, 50.0] {
            b.push_row(&[x], &[]);
        }
        let t = b.finish();
        let lt = Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Lt,
            value: 10.0,
        };
        let not_lt = Predicate::Not(Box::new(Predicate::Clause(lt.clone())));
        let sel = CompiledPredicate::compile(&t, &not_lt).eval(&t, 0..3);
        assert_eq!(sel.to_bools(), vec![false, true, true]);
        // Operator rewriting would have dropped the NaN row.
        let ge = Predicate::Clause(lt.negate());
        let sel = CompiledPredicate::compile(&t, &ge).eval(&t, 0..3);
        assert_eq!(sel.to_bools(), vec![false, false, true]);
    }

    #[test]
    fn hundred_value_in_list_matches_naive_scan() {
        // Satellite regression: a 100-value IN list through the compiled
        // TargetSet must match the naive `targets.contains(c)` linear scan.
        let schema = Schema::new(vec![ColumnMeta::new("tag", ColumnType::Categorical)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..500usize {
            b.push_row(&[], &[&format!("v{}", i % 211)]);
        }
        let t = b.finish();
        let values: Vec<String> = (0..100).map(|i| format!("v{}", i * 2)).collect();
        for negated in [false, true] {
            let clause = Clause::In {
                col: ColId(0),
                values: values.clone(),
                negated,
            };
            let compiled = CompiledPredicate::compile(&t, &Predicate::Clause(clause));
            let sel = compiled.eval(&t, 0..500);
            // Naive reference: resolve codes, linear-scan membership.
            let (codes, dict) = t.categorical(ColId(0));
            let targets: Vec<u32> = values.iter().filter_map(|v| dict.code(v)).collect();
            let naive: Vec<bool> = codes
                .iter()
                .map(|c| targets.contains(c) != negated)
                .collect();
            assert_eq!(sel.to_bools(), naive, "negated={negated}");
        }
    }

    #[test]
    fn contains_compiles_dictionary_once_per_query() {
        let t = table(100);
        let p = Predicate::Clause(Clause::Contains {
            col: ColId(1),
            needle: "t1".into(),
            negated: false,
        });
        let cp = CompiledPredicate::compile(&t, &p);
        // The compiled set holds exactly the matching codes; evaluating many
        // partitions reuses it without touching the dictionary again.
        match &cp {
            CompiledPredicate::InSet { set, negated, .. } => {
                assert!(!negated);
                assert_eq!(set.len(), 1);
            }
            other => panic!("expected InSet, got {other:?}"),
        }
        let a = cp.eval(&t, 0..50);
        let b = cp.eval(&t, 50..100);
        assert_eq!(a.count() + b.count(), 100 / 7 + 1);
    }

    #[test]
    fn fused_global_aggregates() {
        let t = table(200);
        let q = Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ColId(0))),
                AggExpr::count(),
                AggExpr::avg(ScalarExpr::col(ColId(0))),
            ],
            Some(Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 100.0,
            })),
            vec![],
        );
        let cq = CompiledQuery::compile(&t, &q);
        let ans = cq.finalize(&cq.execute_partition(&t, 0..200));
        assert_eq!(ans.global(0).unwrap(), (0..100).sum::<usize>() as f64);
        assert_eq!(ans.global(1).unwrap(), 100.0);
        assert_eq!(ans.global(2).unwrap(), 49.5);
    }

    #[test]
    fn empty_and_or_nodes() {
        let t = table(10);
        let all = CompiledPredicate::And(vec![]);
        assert_eq!(all.eval(&t, 0..10).count(), 10);
        let none = CompiledPredicate::Or(vec![]);
        assert_eq!(none.eval(&t, 0..10).count(), 0);
    }

    /// The scalar twin of [`cmp_kernel`]: one row at a time, no chunks, no
    /// lanes — the reference the SIMD shape must match bit for bit.
    fn scalar_cmp_mask(data: &[f64], op: CmpOp, v: f64) -> Vec<bool> {
        data.iter()
            .map(|&x| match op {
                CmpOp::Eq => x == v,
                CmpOp::Ne => x != v,
                CmpOp::Lt => x < v,
                CmpOp::Le => x <= v,
                CmpOp::Gt => x > v,
                CmpOp::Ge => x >= v,
            })
            .collect()
    }

    const ALL_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn simd_cmp_kernel_is_bit_identical_on_float_edge_data() {
        // Every length class the lane structure can get wrong (empty, one
        // octet, a lane-ragged chunk, exact words, ragged tails) × a value
        // set where NaN, ±0.0 and infinities appear on both sides of the
        // comparison. The kernel must equal the row-wise scalar twin
        // everywhere — the SIMD shape is only admissible because it cannot
        // change a single mask bit.
        let edge_pool = [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            1e-300,
            -1e308,
            0.5,
        ];
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 130, 200] {
            let data: Vec<f64> = (0..len).map(|i| edge_pool[i % edge_pool.len()]).collect();
            for op in ALL_OPS {
                for v in [f64::NAN, -0.0, 0.0, 1.0, f64::INFINITY, -1e308] {
                    let mut out = SelVec::none(len);
                    cmp_kernel(&data, op, v, &mut out);
                    assert_eq!(
                        out.to_bools(),
                        scalar_cmp_mask(&data, op, v),
                        "len={len} op={op:?} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_cmp_kernel_handles_all_true_and_all_false_words() {
        // Saturated mask words are the fused-scan fast paths downstream
        // (sum_col branches on w == u64::MAX and w == 0); the lane combine
        // must produce them exactly, including over a ragged tail.
        for len in [64usize, 128, 130] {
            let data = vec![5.0; len];
            let mut out = SelVec::none(len);
            cmp_kernel(&data, CmpOp::Lt, 10.0, &mut out);
            assert_eq!(out.count(), len, "all-true at len {len}");
            assert!(out.words()[..len / 64].iter().all(|&w| w == u64::MAX));
            cmp_kernel(&data, CmpOp::Gt, 10.0, &mut out);
            assert_eq!(out.count(), 0, "all-false at len {len}");
            assert!(out.words().iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn simd_membership_kernel_is_bit_identical_for_dense_and_sparse_sets() {
        // Dictionary-code edge data: codes at word boundaries (0, 63, 64),
        // octet boundaries (7, 8), and the top of the space, over every
        // ragged length class. The dense-bitset and binary-search variants
        // must agree with each other and with the naive scalar probe.
        let target_codes = vec![0u32, 7, 8, 63, 64, 65, 255, 299];
        let dense = TargetSet::build(target_codes.clone(), 300);
        assert!(dense.bits.is_some(), "dict of 300 stays dense");
        let sparse = TargetSet::build(target_codes.clone(), DENSE_DICT_LIMIT + 1);
        assert!(sparse.bits.is_none(), "oversized dict falls back to search");

        for len in [0usize, 1, 8, 63, 64, 65, 128, 130, 200] {
            let codes: Vec<u32> = (0..len).map(|i| (i as u32 * 13) % 300).collect();
            let naive: Vec<bool> = codes.iter().map(|c| target_codes.contains(c)).collect();
            for set in [&dense, &sparse] {
                let mut out = SelVec::none(len);
                membership_kernel(&codes, set, &mut out);
                assert_eq!(
                    out.to_bools(),
                    naive,
                    "len={len} dense={}",
                    set.bits.is_some()
                );
            }
        }
    }
}
