//! Exact per-partition execution and weighted combination of partial answers.
//!
//! Execution is compiled: [`execute_partition`] and friends lower the query
//! through [`crate::kernel::CompiledQuery`] (once per call — cache the
//! compiled program by [`Query::fingerprint`] to amortize across partitions
//! and requests, as [`execute_partitions`] and the serving layer do). The
//! original scalar interpreter survives as the `#[cfg(test)]` oracle the
//! property tests compare against bit-for-bit.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use ps3_storage::{ColId, PartitionId, PartitionedTable, Table};

use crate::ast::{AggFunc, Query};
use crate::kernel::CompiledQuery;

/// A group-by key: one `u64` per group-by column (canonicalized f64 bit
/// pattern for numeric columns, dictionary code for categoricals). Empty
/// for queries without `GROUP BY`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey(pub Box<[u64]>);

impl GroupKey {
    /// The key of the single global group.
    pub fn global() -> Self {
        GroupKey(Box::new([]))
    }

    /// Canonical bit pattern for a numeric group-by value: `-0.0` collapses
    /// to `0.0` (they compare equal, so they are one group) and every NaN
    /// payload collapses to the one canonical NaN (grouping is by
    /// *distinct value*, not by bit pattern). All other values group by
    /// their exact bits.
    #[inline]
    pub fn canon_num_bits(x: f64) -> u64 {
        if x == 0.0 {
            0.0f64.to_bits()
        } else if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Render using a table's schema (for reports).
    pub fn render(&self, table: &Table, group_by: &[ColId]) -> String {
        if self.0.is_empty() {
            return "<all>".to_owned();
        }
        let parts: Vec<String> = self
            .0
            .iter()
            .zip(group_by)
            .map(|(&raw, &col)| match table.column(col) {
                ps3_storage::ColumnData::Numeric(_) => format!("{}", f64::from_bits(raw)),
                ps3_storage::ColumnData::Categorical { dict, .. } => {
                    dict.value(raw as u32).to_owned()
                }
            })
            .collect();
        parts.join("|")
    }
}

/// Per-partition (or combined) aggregate state, before AVG finalization.
///
/// Internally each aggregate occupies one slot (`SUM`, `COUNT`) or two
/// (`AVG` = sum + count) so that the §2.4 weighted combination
/// `Ã_g = Σ w_j · A_{g,p_j}` is linear in every slot.
///
/// The value is flat and canonical: group `g`'s key is the `arity` words at
/// `keys[g · arity..]` (what a [`GroupKey`] holds), its accumulators the
/// `slots` values at `vals[g · slots..]`, and groups sit in ascending
/// lexicographic key order — [`GroupKey`]'s `Ord`. One group set has one
/// representation, so `==` is structural, [`Self::add_weighted`] is a merge
/// of two sorted lists and [`Self::slot_totals`] sums in the reproducible
/// order without sorting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialAnswer {
    /// Accumulator slots per group (derived from the query).
    slots: usize,
    /// Number of groups. Not derivable from `keys`: the global group of a
    /// query without `GROUP BY` has an empty key.
    len: usize,
    keys: Vec<u64>,
    vals: Vec<f64>,
}

impl PartialAnswer {
    /// Number of internal slots for a query.
    pub fn slot_count(query: &Query) -> usize {
        query
            .aggregates
            .iter()
            .map(|a| if a.func == AggFunc::Avg { 2 } else { 1 })
            .sum()
    }

    /// An empty answer shaped for `query`.
    pub fn empty(query: &Query) -> Self {
        Self::with_slots(Self::slot_count(query))
    }

    /// An empty answer with `slots` accumulators per group.
    pub fn with_slots(slots: usize) -> Self {
        Self {
            slots,
            ..Self::default()
        }
    }

    /// The answer holding exactly `groups`, in any order (keys distinct, of
    /// one length; `slots` values each).
    pub fn from_groups(
        slots: usize,
        groups: impl IntoIterator<Item = (GroupKey, Vec<f64>)>,
    ) -> Self {
        let mut groups: Vec<(GroupKey, Vec<f64>)> = groups.into_iter().collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert!(
            groups.windows(2).all(|w| w[0].0 != w[1].0),
            "group keys must be distinct"
        );
        let arity = groups.first().map_or(0, |(key, _)| key.0.len());
        let mut out = Self::with_slots(slots);
        out.len = groups.len();
        for (key, vals) in &groups {
            assert_eq!(key.0.len(), arity, "group keys must be of one length");
            assert_eq!(vals.len(), slots, "slot arity mismatch");
            out.keys.extend_from_slice(&key.0);
            out.vals.extend_from_slice(vals);
        }
        out
    }

    /// From parts already in the canonical layout: `len` groups, `keys` and
    /// `vals` strided by the key arity and by `slots`, keys strictly
    /// ascending.
    pub(crate) fn from_sorted(slots: usize, len: usize, keys: Vec<u64>, vals: Vec<f64>) -> Self {
        let out = Self {
            slots,
            len,
            keys,
            vals,
        };
        debug_assert_eq!(out.vals.len(), len * slots);
        debug_assert_eq!(out.keys.len(), len * out.arity());
        debug_assert!(out
            .groups()
            .zip(out.groups().skip(1))
            .all(|(a, b)| a.0 < b.0));
        out
    }

    /// Words per group key: the number of group-by columns (0 while empty).
    fn arity(&self) -> usize {
        self.keys.len().checked_div(self.len).unwrap_or(0)
    }

    /// Accumulator slots per group.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.len
    }

    /// Whether no row passed the predicate (no group exists).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every group as `(key words, accumulator slots)`, in ascending key
    /// order.
    pub fn groups(&self) -> impl DoubleEndedIterator<Item = (&[u64], &[f64])> {
        let (arity, slots) = (self.arity(), self.slots);
        (0..self.len).map(move |g| {
            (
                key_at(&self.keys, arity, g),
                &self.vals[g * slots..(g + 1) * slots],
            )
        })
    }

    /// The accumulator slots of the group with key words `key`, if present.
    pub fn get(&self, key: &[u64]) -> Option<&[f64]> {
        let arity = self.arity();
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match key_at(&self.keys, arity, mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(&self.vals[mid * self.slots..][..self.slots]),
            }
        }
        None
    }

    /// Add `weight ×` another partial answer into this one: a merge of the
    /// two sorted key lists, one addition per `(group, slot)`, a group new
    /// here starting from `0.0`. Allocates only when `other` brings such a
    /// group (the buffers grow once, by exactly those groups).
    pub fn add_weighted(&mut self, other: &PartialAnswer, weight: f64) {
        debug_assert_eq!(self.slots, other.slots, "slot arity mismatch");
        let (arity, slots) = (other.arity(), self.slots);
        debug_assert!(
            self.len == 0 || other.len == 0 || self.arity() == arity,
            "key arity mismatch"
        );
        let mut missing = 0;
        let mut i = 0;
        for (key, vals) in other.groups() {
            while i < self.len && key_at(&self.keys, arity, i) < key {
                i += 1;
            }
            if i < self.len && key_at(&self.keys, arity, i) == key {
                for (a, &b) in self.vals[i * slots..(i + 1) * slots].iter_mut().zip(vals) {
                    *a += weight * b;
                }
            } else {
                missing += 1;
            }
        }
        if missing == 0 {
            return;
        }
        // Open the new groups' places from the back, so nothing is
        // overwritten before it moves.
        let mut src = self.len;
        self.len += missing;
        let mut dst = self.len;
        self.keys.resize(dst * arity, 0);
        self.vals.resize(dst * slots, 0.0);
        for (key, vals) in other.groups().rev() {
            while src > 0 && key_at(&self.keys, arity, src - 1) > key {
                src -= 1;
                dst -= 1;
                self.keys
                    .copy_within(src * arity..(src + 1) * arity, dst * arity);
                self.vals
                    .copy_within(src * slots..(src + 1) * slots, dst * slots);
            }
            if src == 0 || key_at(&self.keys, arity, src - 1) != key {
                dst -= 1;
                self.keys[dst * arity..(dst + 1) * arity].copy_from_slice(key);
                for (a, &b) in self.vals[dst * slots..(dst + 1) * slots]
                    .iter_mut()
                    .zip(vals)
                {
                    *a = 0.0 + weight * b;
                }
            }
        }
    }

    /// Per-slot totals summed over every group: `totals[s] = Σ_g slots[g][s]`.
    ///
    /// This is the scalar summary the serving layer's error estimator feeds
    /// on — for a linear aggregate, the sum over groups of a partition's
    /// contribution is itself a per-partition draw of the table total, so
    /// the spread of these totals across selected partitions bounds the
    /// sampling error without retaining whole per-partition answers.
    pub fn slot_totals(&self) -> Vec<f64> {
        // f64 addition is not associative: the sum runs in ascending key
        // order, which is the order the groups are stored in.
        let mut totals = vec![0.0; self.slots];
        for (_, vals) in self.groups() {
            for (t, &v) in totals.iter_mut().zip(vals) {
                *t += v;
            }
        }
        totals
    }

    /// Resolve AVG slots into final per-aggregate values.
    ///
    /// **AVG contract:** a group whose combined AVG count is not positive
    /// (no row passed the aggregate's `CASE` condition in any selected
    /// partition) finalizes that aggregate to **NaN** — the engine's NULL.
    /// It used to be `0.0`, which silently conflated "no qualifying rows"
    /// with "average is zero"; error metrics treat NaN-vs-NaN as agreement
    /// and NaN-vs-number as a full miss (see [`crate::metrics`]).
    pub fn finalize(&self, query: &Query) -> QueryAnswer {
        let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
        self.finalize_funcs(&funcs)
    }

    /// [`PartialAnswer::finalize`] from the aggregate functions alone (the
    /// compiled path carries these instead of the full query). The one
    /// place the flat groups become a keyed map.
    pub fn finalize_funcs(&self, funcs: &[AggFunc]) -> QueryAnswer {
        let mut out = HashMap::with_capacity(self.len);
        for (key, slots) in self.groups() {
            let mut vals = Vec::with_capacity(funcs.len());
            let mut i = 0;
            for func in funcs {
                match func {
                    AggFunc::Sum | AggFunc::Count => {
                        vals.push(slots[i]);
                        i += 1;
                    }
                    AggFunc::Avg => {
                        let (sum, cnt) = (slots[i], slots[i + 1]);
                        vals.push(if cnt > 0.0 { sum / cnt } else { f64::NAN });
                        i += 2;
                    }
                }
            }
            out.insert(GroupKey(key.into()), vals);
        }
        QueryAnswer { groups: out }
    }
}

/// Group `g`'s key words in an `arity`-strided key list.
#[inline]
fn key_at(keys: &[u64], arity: usize, g: usize) -> &[u64] {
    &keys[g * arity..(g + 1) * arity]
}

/// A finalized answer: group key → one value per aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryAnswer {
    /// group key → aggregate values.
    pub groups: HashMap<GroupKey, Vec<f64>>,
}

impl QueryAnswer {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Value of aggregate `agg` for the global group (no-GROUP-BY queries).
    pub fn global(&self, agg: usize) -> Option<f64> {
        self.groups.get(&GroupKey::global()).map(|v| v[agg])
    }
}

/// One weighted partition choice `(p_j, w_j)` from the picker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPart {
    /// Which partition to read.
    pub partition: PartitionId,
    /// Its weight in the combined answer.
    pub weight: f64,
}

/// Execute `query` exactly over one row range.
///
/// Compiles the query first; callers touching many partitions should
/// compile once via [`CompiledQuery::compile`] (or use
/// [`execute_partitions`], which does) and call
/// [`CompiledQuery::execute_partition`] directly.
pub fn execute_partition(table: &Table, rows: Range<usize>, query: &Query) -> PartialAnswer {
    CompiledQuery::compile(table, query).execute_partition(table, rows)
}

/// Execute exactly over the whole table (the ground truth).
pub fn execute_table(pt: &PartitionedTable, query: &Query) -> QueryAnswer {
    let cq = CompiledQuery::compile(pt.table(), query);
    let mut acc = PartialAnswer::empty(query);
    for pid in pt.partitioning().ids() {
        let part = cq.execute_partition(pt.table(), pt.rows(pid));
        acc.add_weighted(&part, 1.0);
    }
    cq.finalize(&acc)
}

/// Execute over a weighted selection of partitions and combine (§2.4),
/// serially on the caller — the reference every pooled path must equal bit
/// for bit.
pub fn execute_partitions(
    pt: &PartitionedTable,
    query: &Query,
    selection: &[WeightedPart],
) -> QueryAnswer {
    let cq = CompiledQuery::compile(pt.table(), query);
    let mut acc = PartialAnswer::empty(query);
    for wp in selection {
        let part = cq.execute_partition(pt.table(), pt.rows(wp.partition));
        acc.add_weighted(&part, wp.weight);
    }
    cq.finalize(&acc)
}

/// Selections smaller than this always run serially — with fewer tasks the
/// fan-out cannot win.
pub const PARALLEL_EXEC_MIN_PARTS: usize = 8;

/// Selections touching fewer total rows than this run serially even when
/// they span many partitions: per-partition execution at benchmark scale is
/// sub-microsecond, so pool task overhead would dominate tiny tables.
pub const PARALLEL_EXEC_MIN_ROWS: usize = 65_536;

/// The one executor: run `kernel` over the row range of every selected
/// partition and return the per-partition partials in selection order.
/// Fans out over `pool` only when that pays for itself — the pool has real
/// parallelism (>1 worker) and the selection clears both thresholds above;
/// serial on the caller otherwise. Every query class's per-partition work
/// goes through here, so "serial vs pool" is decided in exactly one place.
///
/// Weights are *not* applied — callers fold the partials in selection
/// order, so parallelism never perturbs an `f64` accumulation.
pub fn execute_partials_on<T: Send>(
    pt: &PartitionedTable,
    selection: &[WeightedPart],
    pool: &ps3_runtime::ThreadPool,
    kernel: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let rows: usize = selection.iter().map(|wp| pt.rows(wp.partition).len()).sum();
    if pool.workers() <= 1
        || selection.len() < PARALLEL_EXEC_MIN_PARTS
        || rows < PARALLEL_EXEC_MIN_ROWS
    {
        return selection
            .iter()
            .map(|wp| kernel(pt.rows(wp.partition)))
            .collect();
    }
    pool.map(selection, |wp| kernel(pt.rows(wp.partition)))
}

/// The weighted combination of [`execute_partials_on`]'s partials, plus
/// each selected partition's *unweighted* per-slot totals (in selection
/// order). Combined in selection order, so the answer is bit-identical to
/// [`execute_partitions`].
pub fn execute_partitions_compiled_totals_on(
    pt: &PartitionedTable,
    cq: &CompiledQuery,
    selection: &[WeightedPart],
    pool: &ps3_runtime::ThreadPool,
) -> (QueryAnswer, Vec<Vec<f64>>) {
    let partials = execute_partials_on(pt, selection, pool, |rows| {
        cq.execute_partition(pt.table(), rows)
    });
    let totals: Vec<Vec<f64>> = partials.iter().map(PartialAnswer::slot_totals).collect();
    let mut acc = PartialAnswer::with_slots(cq.slot_count());
    for (wp, part) in selection.iter().zip(&partials) {
        acc.add_weighted(part, wp.weight);
    }
    (cq.finalize(&acc), totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggExpr, Clause, CmpOp, Predicate, ScalarExpr};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, Schema};

    fn pt() -> PartitionedTable {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        // 8 rows, 4 partitions of 2.
        for (x, g) in [
            (1.0, "a"),
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "b"),
            (5.0, "a"),
            (6.0, "b"),
            (7.0, "a"),
            (8.0, "c"),
        ] {
            b.push_row(&[x], &[g]);
        }
        PartitionedTable::with_equal_partitions(b.finish(), 4)
    }

    fn sum_by_group() -> Query {
        Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ps3_storage::ColId(0))),
                AggExpr::count(),
            ],
            None,
            vec![ps3_storage::ColId(1)],
        )
    }

    #[test]
    fn ground_truth_matches_manual() {
        let t = pt();
        let ans = execute_table(&t, &sum_by_group());
        assert_eq!(ans.num_groups(), 3);
        let (codes, dict) = t.table().categorical(ps3_storage::ColId(1));
        let _ = codes;
        let a = GroupKey(Box::new([u64::from(dict.code("a").unwrap())]));
        let b = GroupKey(Box::new([u64::from(dict.code("b").unwrap())]));
        let c = GroupKey(Box::new([u64::from(dict.code("c").unwrap())]));
        assert_eq!(ans.groups[&a], vec![1.0 + 2.0 + 5.0 + 7.0, 4.0]);
        assert_eq!(ans.groups[&b], vec![3.0 + 4.0 + 6.0, 3.0]);
        assert_eq!(ans.groups[&c], vec![8.0, 1.0]);
    }

    #[test]
    fn full_selection_with_unit_weights_is_exact() {
        let t = pt();
        let q = sum_by_group();
        let sel: Vec<WeightedPart> = t
            .partitioning()
            .ids()
            .map(|p| WeightedPart {
                partition: p,
                weight: 1.0,
            })
            .collect();
        assert_eq!(execute_partitions(&t, &q, &sel), execute_table(&t, &q));
    }

    #[test]
    fn weighted_combination_scales_linearly() {
        let t = pt();
        let q = sum_by_group();
        // Partition 0 (rows 0,1 — both group a) at weight 4: sum = 4*(1+2).
        let sel = [WeightedPart {
            partition: PartitionId(0),
            weight: 4.0,
        }];
        let ans = execute_partitions(&t, &q, &sel);
        let (_, dict) = t.table().categorical(ps3_storage::ColId(1));
        let a = GroupKey(Box::new([u64::from(dict.code("a").unwrap())]));
        assert_eq!(ans.groups[&a], vec![12.0, 8.0]);
        assert_eq!(ans.num_groups(), 1);
    }

    #[test]
    fn avg_is_weighted_ratio_not_average_of_averages() {
        let t = pt();
        let q = Query::new(
            vec![AggExpr::avg(ScalarExpr::col(ps3_storage::ColId(0)))],
            None,
            vec![],
        );
        // Partitions 0 and 2 at weight 2 each: est sum = 2*(1+2)+2*(5+6)=28,
        // est count = 8 → avg 3.5. Averaging the two partition AVGs would
        // give (1.5 + 5.5)/2 = 3.5 here, but with different weights it
        // diverges; check the slot math directly.
        let sel = [
            WeightedPart {
                partition: PartitionId(0),
                weight: 3.0,
            },
            WeightedPart {
                partition: PartitionId(2),
                weight: 1.0,
            },
        ];
        let ans = execute_partitions(&t, &q, &sel);
        let expect = (3.0 * 3.0 + 11.0) / (3.0 * 2.0 + 2.0);
        assert!((ans.global(0).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn predicate_filters_groups_out() {
        let t = pt();
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::Cmp {
                col: ps3_storage::ColId(0),
                op: CmpOp::Ge,
                value: 7.0,
            })),
            vec![ps3_storage::ColId(1)],
        );
        let ans = execute_table(&t, &q);
        // Only rows 7.0 (a) and 8.0 (c) qualify.
        assert_eq!(ans.num_groups(), 2);
    }

    #[test]
    fn empty_global_group_when_nothing_matches() {
        let t = pt();
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::Cmp {
                col: ps3_storage::ColId(0),
                op: CmpOp::Gt,
                value: 100.0,
            })),
            vec![],
        );
        let ans = execute_table(&t, &q);
        assert_eq!(ans.num_groups(), 0);
    }

    #[test]
    fn case_condition_aggregates() {
        let t = pt();
        // SUM(x) FILTER (g = 'a') without a WHERE: 1+2+5+7 = 15.
        let q = Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ps3_storage::ColId(0))).filtered(Predicate::Clause(
                    Clause::str_eq(ps3_storage::ColId(1), "a"),
                )),
            ],
            None,
            vec![],
        );
        let ans = execute_table(&t, &q);
        assert_eq!(ans.global(0).unwrap(), 15.0);
    }

    #[test]
    fn parallel_execution_matches_serial_bitwise() {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        // Just over PARALLEL_EXEC_MIN_ROWS, so the executor really fans out.
        let mut b = TableBuilder::new(schema);
        for i in 0..PARALLEL_EXEC_MIN_ROWS + 16 {
            b.push_row(&[i as f64 * 0.37], &[["a", "b", "c"][i % 3]]);
        }
        let t = PartitionedTable::with_equal_partitions(b.finish(), 16);
        let q = sum_by_group();
        // Above PARALLEL_EXEC_MIN_PARTS, with non-trivial weights.
        let sel: Vec<WeightedPart> = (0..16)
            .map(|p| WeightedPart {
                partition: PartitionId(p),
                weight: 1.0 + p as f64 * 0.25,
            })
            .collect();
        let serial = execute_partitions(&t, &q, &sel);
        let cq = CompiledQuery::compile(t.table(), &q);
        let pool = ps3_runtime::ThreadPool::new(4);
        let (parallel, _) = execute_partitions_compiled_totals_on(&t, &cq, &sel, &pool);
        assert!(pool.tasks_injected() > 0, "the selection must fan out");
        assert_eq!(serial, parallel, "parallel combine must be bit-identical");
        // Under either threshold, or on a 1-worker pool, nothing is handed off.
        let before = pool.tasks_injected();
        let few = &sel[..PARALLEL_EXEC_MIN_PARTS - 1];
        let (pooled_few, _) = execute_partitions_compiled_totals_on(&t, &cq, few, &pool);
        assert_eq!(execute_partitions(&t, &q, few), pooled_few);
        assert_eq!(
            pool.tasks_injected(),
            before,
            "a small selection stays serial"
        );
        let solo = ps3_runtime::ThreadPool::new(1);
        let (on_one, _) = execute_partitions_compiled_totals_on(&t, &cq, &sel, &solo);
        assert_eq!(serial, on_one);
        assert_eq!(
            solo.tasks_injected(),
            0,
            "a 1-worker pool runs on the caller"
        );
    }

    #[test]
    fn totals_path_is_bit_identical_and_totals_sum_the_groups() {
        let t = pt();
        let q = sum_by_group();
        let sel: Vec<WeightedPart> = t
            .partitioning()
            .ids()
            .map(|p| WeightedPart {
                partition: p,
                weight: 1.0 + p.0 as f64 * 0.3,
            })
            .collect();
        let pool = ps3_runtime::ThreadPool::new(2);
        let cq = CompiledQuery::compile(t.table(), &q);
        let plain = execute_partitions(&t, &q, &sel);
        let (ans, totals) = execute_partitions_compiled_totals_on(&t, &cq, &sel, &pool);
        assert_eq!(plain, ans, "totals variant must not perturb the answer");
        assert_eq!(totals.len(), sel.len());
        // Partition 0 holds rows (1.0, a), (2.0, a): SUM slot 3.0, COUNT 2.
        assert_eq!(totals[0], vec![3.0, 2.0]);
        // Unweighted totals: Σ_j totals[j] over all partitions = whole table.
        let table_sum: f64 = totals.iter().map(|t| t[0]).sum();
        assert_eq!(table_sum, 36.0);
        // And slot_totals is deterministic across repeated executions of
        // the same partition (sorted-key summation order).
        let again = cq.execute_partition(t.table(), t.rows(PartitionId(1)));
        assert_eq!(again.slot_totals(), totals[1]);
    }

    #[test]
    fn negative_zero_and_nan_group_with_their_value() {
        // Satellite regression: -0.0 and 0.0 compare equal and must land in
        // one group (raw to_bits split them); NaN payloads likewise.
        let schema = Schema::new(vec![
            ColumnMeta::new("k", ColumnType::Numeric),
            ColumnMeta::new("x", ColumnType::Numeric),
        ]);
        let mut b = TableBuilder::new(schema);
        for (k, x) in [
            (0.0, 1.0),
            (-0.0, 2.0),
            (1.5, 4.0),
            (f64::NAN, 8.0),
            (f64::from_bits(0x7FF8_0000_0000_0001), 16.0), // NaN, odd payload
        ] {
            b.push_row(&[k, x], &[]);
        }
        let t = PartitionedTable::with_equal_partitions(b.finish(), 1);
        let q = Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ps3_storage::ColId(1)))],
            None,
            vec![ps3_storage::ColId(0)],
        );
        let ans = execute_table(&t, &q);
        assert_eq!(ans.num_groups(), 3, "0.0/-0.0 and the NaNs must merge");
        let zero = GroupKey(Box::new([GroupKey::canon_num_bits(-0.0)]));
        assert_eq!(ans.groups[&zero], vec![3.0]);
        let nan = GroupKey(Box::new([GroupKey::canon_num_bits(f64::NAN)]));
        assert_eq!(ans.groups[&nan], vec![24.0]);
        assert_eq!(
            GroupKey::canon_num_bits(-0.0),
            GroupKey::canon_num_bits(0.0)
        );
    }

    #[test]
    fn avg_with_zero_qualifying_rows_is_nan() {
        // Satellite regression: AVG over a CASE condition no row satisfies
        // must finalize to NaN (the engine's NULL), not a silent 0.0.
        let t = pt();
        let q = Query::new(
            vec![
                AggExpr::count(),
                AggExpr::avg(ScalarExpr::col(ps3_storage::ColId(0))).filtered(Predicate::Clause(
                    Clause::Cmp {
                        col: ps3_storage::ColId(0),
                        op: CmpOp::Gt,
                        value: 1e9,
                    },
                )),
            ],
            None,
            vec![],
        );
        let ans = execute_table(&t, &q);
        assert_eq!(ans.global(0).unwrap(), 8.0);
        assert!(ans.global(1).unwrap().is_nan(), "empty AVG must be NaN");
        // An AVG with qualifying rows is unaffected.
        let q = Query::new(
            vec![AggExpr::avg(ScalarExpr::col(ps3_storage::ColId(0)))],
            None,
            vec![],
        );
        assert_eq!(execute_table(&t, &q).global(0).unwrap(), 4.5);
    }

    #[test]
    fn group_key_rendering() {
        let t = pt();
        let (_, dict) = t.table().categorical(ps3_storage::ColId(1));
        let key = GroupKey(Box::new([u64::from(dict.code("b").unwrap())]));
        assert_eq!(key.render(t.table(), &[ps3_storage::ColId(1)]), "b");
        assert_eq!(GroupKey::global().render(t.table(), &[]), "<all>");
    }
}
