//! Per-partition selectivity estimation from summary statistics (§3.2).
//!
//! Four features describe a predicate's selectivity on a partition:
//!
//! 1. `selectivity_upper` — a bound with **perfect recall**: it is zero only
//!    when provably no row of the partition satisfies the predicate. ANDs
//!    take the min of clause uppers; ORs the capped sum.
//! 2. `selectivity_indep` — assumes independence between clauses: product
//!    for ANDs, min for ORs (the paper's stated rule).
//! 3. `selectivity_min` / `selectivity_max` — min and max over the
//!    individual clause estimates.
//!
//! Clauses on the same numeric column inside one AND node are *evaluated
//! jointly* (e.g. `X > 1 AND X < 5` intersects to one range before consulting
//! the histogram), per §3.2.
//!
//! A predicate is estimated through a [`SelectivityPlan`], built once per
//! query from the compiled predicate: the tree flattened into a postfix
//! program whose same-column AND intervals are intersected when the plan is
//! built. [`SelectivityPlan::estimate_all`] runs it over every partition,
//! its leaves probing the table's selectivity index (`crate::index`), so
//! estimating a partition walks one slice, reads flat per-column arrays
//! rather than the partition's sketch bundles, and allocates nothing. The
//! recursive evaluator it replaced, with the per-[`ColumnStats`] probes, is
//! [`crate::oracle`]: the reference the property tests, and strict mode,
//! hold the plan to, bit for bit.
//!
//! [`ColumnStats`]: crate::ColumnStats

use ps3_query::{CmpOp, CompiledPredicate};
use ps3_storage::ColId;

use crate::builder::TableStats;
use crate::index::SelectivityIndex;
use crate::oracle;

/// The four selectivity features for one (query, partition) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityFeatures {
    /// Perfect-recall upper bound.
    pub upper: f64,
    /// Independence-assumption estimate.
    pub indep: f64,
    /// Min over individual clause estimates.
    pub min: f64,
    /// Max over individual clause estimates.
    pub max: f64,
}

impl SelectivityFeatures {
    /// The no-predicate case: everything qualifies.
    pub fn all_pass() -> Self {
        Self {
            upper: 1.0,
            indep: 1.0,
            min: 1.0,
            max: 1.0,
        }
    }

    /// As a fixed-order array `[upper, indep, min, max]`.
    pub fn as_array(&self) -> [f64; 4] {
        [self.upper, self.indep, self.min, self.max]
    }
}

/// A half-open/closed numeric interval used for joint clause evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    pub(crate) lo: f64,
    pub(crate) lo_incl: bool,
    pub(crate) hi: f64,
    pub(crate) hi_incl: bool,
}

impl Interval {
    fn full() -> Self {
        Self {
            lo: f64::NEG_INFINITY,
            lo_incl: true,
            hi: f64::INFINITY,
            hi_incl: true,
        }
    }

    /// The interval `op v` accepts; `None` for `Ne`, which is not one.
    pub(crate) fn from_cmp(op: CmpOp, v: f64) -> Option<Self> {
        let mut i = Self::full();
        match op {
            CmpOp::Lt => {
                i.hi = v;
                i.hi_incl = false;
            }
            CmpOp::Le => {
                i.hi = v;
                i.hi_incl = true;
            }
            CmpOp::Gt => {
                i.lo = v;
                i.lo_incl = false;
            }
            CmpOp::Ge => {
                i.lo = v;
                i.lo_incl = true;
            }
            CmpOp::Eq => {
                i.lo = v;
                i.hi = v;
            }
            // Ne is not an interval; evaluated separately.
            CmpOp::Ne => return None,
        }
        Some(i)
    }

    pub(crate) fn intersect(&self, other: &Interval) -> Interval {
        let (lo, lo_incl) = if self.lo > other.lo {
            (self.lo, self.lo_incl)
        } else if other.lo > self.lo {
            (other.lo, other.lo_incl)
        } else {
            (self.lo, self.lo_incl && other.lo_incl)
        };
        let (hi, hi_incl) = if self.hi < other.hi {
            (self.hi, self.hi_incl)
        } else if other.hi < self.hi {
            (other.hi, other.hi_incl)
        } else {
            (self.hi, self.hi_incl && other.hi_incl)
        };
        Interval {
            lo,
            lo_incl,
            hi,
            hi_incl,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && !(self.lo_incl && self.hi_incl))
    }
}

/// The effective comparison operator of a compiled `Cmp` leaf: a mask
/// complement estimates like the complemented operator (selectivity has no
/// NaN rows to worry about — only the executor needs exact NaN semantics).
pub(crate) fn effective_op(op: CmpOp, negated: bool) -> CmpOp {
    if negated {
        op.negate()
    } else {
        op
    }
}

/// One instruction of a [`SelectivityPlan`]. A leaf pushes one clause's
/// `(upper, estimate)` pair; a combiner pops its children's pairs and
/// pushes the node's.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// A numeric interval: a lone range comparison, or every interval
    /// comparison on one column of an AND, intersected.
    Interval { col: usize, iv: Interval },
    /// `x <> value`, the one comparison that is not an interval.
    NotEqual { col: usize, value: f64 },
    /// Categorical membership in precompiled dictionary codes.
    InSet {
        col: usize,
        codes: &'a [u32],
        negated: bool,
    },
    /// AND of the top `n` pairs: min of the uppers, product of the
    /// estimates.
    And(usize),
    /// OR of the top `n` pairs: capped sum of the uppers, min of the
    /// estimates (the paper's stated rule).
    Or(usize),
}

/// A compiled predicate's selectivity estimator, built once per query and
/// run on every partition.
///
/// The predicate tree becomes a postfix program in exactly the order the
/// recursive evaluation visits it: an AND's same-column interval clauses
/// first, merged into one interval per column (columns in order of first
/// appearance, each intersected in clause order), then its other children
/// in order; an OR's children in order. Every fold (min, product, capped
/// sum, the running clause min/max) runs over its operands in that same
/// order, so the features are bit-identical to [`crate::oracle`]'s.
#[derive(Debug)]
pub struct SelectivityPlan<'a> {
    /// The predicate planned, for the strict-mode oracle check.
    pred: Option<&'a CompiledPredicate>,
    /// Empty when there is no predicate: everything passes.
    steps: Vec<Step<'a>>,
    /// Leaf steps; with none, `min` and `max` read 1.0.
    leaves: usize,
    /// The most pairs the evaluation stack holds at once.
    depth: usize,
}

impl<'a> SelectivityPlan<'a> {
    /// Plan `pred`, or the all-pass estimate when there is none.
    pub fn new(pred: Option<&'a CompiledPredicate>) -> Self {
        let mut plan = Self {
            pred,
            steps: Vec::new(),
            leaves: 0,
            depth: 0,
        };
        if let Some(pred) = pred {
            plan.push_node(pred, &mut 0);
        }
        plan
    }

    fn push(&mut self, step: Step<'a>, height: &mut usize) {
        match step {
            Step::And(n) | Step::Or(n) => *height = *height + 1 - n,
            _ => {
                self.leaves += 1;
                *height += 1;
            }
        }
        self.depth = self.depth.max(*height);
        self.steps.push(step);
    }

    fn push_node(&mut self, pred: &'a CompiledPredicate, height: &mut usize) {
        match pred {
            CompiledPredicate::Cmp {
                col,
                op,
                value,
                negated,
            } => {
                let col = col.index();
                let step = match Interval::from_cmp(effective_op(*op, *negated), *value) {
                    Some(iv) => Step::Interval { col, iv },
                    None => Step::NotEqual { col, value: *value },
                };
                self.push(step, height);
            }
            CompiledPredicate::InSet { col, set, negated } => {
                let step = Step::InSet {
                    col: col.index(),
                    codes: set.codes(),
                    negated: *negated,
                };
                self.push(step, height);
            }
            CompiledPredicate::And(children) => {
                let mut grouped: Vec<(ColId, Interval)> = Vec::new();
                let mut rest: Vec<&'a CompiledPredicate> = Vec::new();
                for ch in children {
                    if let CompiledPredicate::Cmp {
                        col,
                        op,
                        value,
                        negated,
                    } = ch
                    {
                        if let Some(iv) = Interval::from_cmp(effective_op(*op, *negated), *value) {
                            match grouped.iter_mut().find(|(c, _)| c == col) {
                                Some((_, acc)) => *acc = acc.intersect(&iv),
                                None => grouped.push((*col, iv)),
                            }
                            continue;
                        }
                    }
                    rest.push(ch);
                }
                let arity = grouped.len() + rest.len();
                for (col, iv) in grouped {
                    self.push(
                        Step::Interval {
                            col: col.index(),
                            iv,
                        },
                        height,
                    );
                }
                for ch in rest {
                    self.push_node(ch, height);
                }
                self.push(Step::And(arity), height);
            }
            CompiledPredicate::Or(children) => {
                for ch in children {
                    self.push_node(ch, height);
                }
                self.push(Step::Or(children.len()), height);
            }
        }
    }

    /// Every partition's four features, in partition order, read from
    /// `stats`' selectivity index. One scratch stack, reserved up front,
    /// serves them all: nothing is allocated per partition.
    ///
    /// Under `PS3_STRICT_KERNELS=1` ([`ps3_runtime::strict_kernels`]) each
    /// partition's features are also computed by the recursive
    /// [`crate::oracle`] from its column statistics, and must match bit for
    /// bit.
    ///
    /// # Panics
    /// Panics (strict mode only) if a partition's features diverge from the
    /// oracle's.
    pub fn estimate_all<'s>(
        &'s self,
        stats: &'s TableStats,
    ) -> impl ExactSizeIterator<Item = SelectivityFeatures> + use<'s, 'a> {
        let mut stack = Vec::with_capacity(self.depth);
        let strict = ps3_runtime::strict_kernels();
        let index = stats.selectivity_index();
        (0..stats.num_partitions()).map(move |p| {
            let features = self.run(index, p, &mut stack);
            if strict {
                let reference =
                    oracle::selectivity_features_compiled(self.pred, stats.partition(p));
                assert_eq!(
                    features.as_array().map(f64::to_bits),
                    reference.as_array().map(f64::to_bits),
                    "strict kernels: partition {p}'s selectivity diverged from the oracle"
                );
            }
            features
        })
    }

    fn run(
        &self,
        index: &SelectivityIndex,
        p: usize,
        stack: &mut Vec<(f64, f64)>,
    ) -> SelectivityFeatures {
        if self.steps.is_empty() {
            return SelectivityFeatures::all_pass();
        }
        stack.clear();
        let (mut min, mut max) = (1.0_f64, 0.0_f64);
        for step in &self.steps {
            let leaf = match *step {
                Step::Interval { col, iv } => index.interval(col, p, &iv),
                Step::NotEqual { col, value } => index.not_equal(col, p, value),
                Step::InSet {
                    col,
                    codes,
                    negated,
                } => index.in_set(col, p, codes, negated),
                Step::And(n) | Step::Or(n) => {
                    let at = stack.len() - n;
                    let parts = &stack[at..];
                    let pair = if matches!(step, Step::And(_)) {
                        (
                            parts.iter().map(|p| p.0).fold(1.0_f64, f64::min),
                            parts.iter().map(|p| p.1).product::<f64>(),
                        )
                    } else {
                        (
                            parts.iter().map(|p| p.0).sum::<f64>().min(1.0),
                            parts.iter().map(|p| p.1).fold(1.0_f64, f64::min),
                        )
                    };
                    stack.truncate(at);
                    stack.push(pair);
                    continue;
                }
            };
            min = min.min(leaf.1);
            max = max.max(leaf.1);
            stack.push(leaf);
        }
        let (upper, indep) = stack[0];
        SelectivityFeatures {
            upper: upper.clamp(0.0, 1.0),
            indep: indep.clamp(0.0, 1.0),
            min: if self.leaves == 0 { 1.0 } else { min },
            max: if self.leaves == 0 { 1.0 } else { max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StatsConfig;
    use ps3_query::{AggExpr, Clause, Predicate, Query, ScalarExpr};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    /// One partition of 200 rows: `x` = row index, `tag` alternating
    /// `even` / `odd`.
    fn make() -> (PartitionedTable, TableStats) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..200 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(&[f64::from(i)], &[tag]);
        }
        let pt = PartitionedTable::with_equal_partitions(b.finish(), 1);
        let stats = TableStats::build(&pt, &StatsConfig::default());
        (pt, stats)
    }

    /// `q`'s features on the one partition, through a plan of its
    /// compiled predicate.
    fn features(pt: &PartitionedTable, stats: &TableStats, q: &Query) -> SelectivityFeatures {
        let compiled = (q.predicate.as_ref()).map(|p| CompiledPredicate::compile(pt.table(), p));
        let plan = SelectivityPlan::new(compiled.as_ref());
        let all: Vec<SelectivityFeatures> = plan.estimate_all(stats).collect();
        assert_eq!(all.len(), 1);
        all[0]
    }

    fn query(pred: Predicate) -> Query {
        Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0)))],
            Some(pred),
            vec![],
        )
    }

    #[test]
    fn no_predicate_is_all_pass() {
        let (pt, stats) = make();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let f = features(&pt, &stats, &q);
        assert_eq!(f, SelectivityFeatures::all_pass());
    }

    #[test]
    fn range_predicate_estimates() {
        let (pt, stats) = make();
        let q = query(Predicate::all(vec![
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Ge,
                value: 50.0,
            },
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 150.0,
            },
        ]));
        let f = features(&pt, &stats, &q);
        // True selectivity 0.5; joint evaluation should land close.
        assert!((f.indep - 0.5).abs() < 0.15, "indep {}", f.indep);
        assert!(f.upper >= f.indep);
    }

    #[test]
    fn impossible_range_has_zero_upper() {
        let (pt, stats) = make();
        let q = query(Predicate::all(vec![
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Gt,
                value: 150.0,
            },
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 50.0,
            },
        ]));
        let f = features(&pt, &stats, &q);
        assert_eq!(f.upper, 0.0);
        assert_eq!(f.indep, 0.0);
    }

    #[test]
    fn out_of_domain_value_zero_upper() {
        let (pt, stats) = make();
        let q = query(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Gt,
            value: 1e6,
        }));
        let f = features(&pt, &stats, &q);
        assert_eq!(f.upper, 0.0);
    }

    #[test]
    fn categorical_exact_dict_is_exact() {
        let (pt, stats) = make();
        let q = query(Predicate::Clause(Clause::str_eq(ColId(1), "even")));
        let f = features(&pt, &stats, &q);
        assert!((f.indep - 0.5).abs() < 1e-9, "indep {}", f.indep);
        assert!((f.upper - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_string_value_zero() {
        let (pt, stats) = make();
        let q = query(Predicate::Clause(Clause::str_eq(ColId(1), "nope")));
        let f = features(&pt, &stats, &q);
        assert_eq!(f.upper, 0.0);
        assert_eq!(f.indep, 0.0);
    }

    #[test]
    fn or_upper_is_capped_sum() {
        let (pt, stats) = make();
        let q = query(Predicate::any(vec![
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 100.0,
            },
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Ge,
                value: 100.0,
            },
        ]));
        let f = features(&pt, &stats, &q);
        assert!(f.upper > 0.9);
        assert!(f.upper <= 1.0);
        // Paper rule: indep of an OR is the min of the clause estimates.
        assert!(f.indep <= 0.6);
    }

    #[test]
    fn negation_through_nnf() {
        let (pt, stats) = make();
        let q = query(Predicate::Not(Box::new(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Lt,
            value: 100.0,
        }))));
        let f = features(&pt, &stats, &q);
        assert!((f.indep - 0.5).abs() < 0.15, "indep {}", f.indep);
    }

    #[test]
    fn min_max_track_clause_estimates() {
        let (pt, stats) = make();
        let q = query(Predicate::all(vec![
            Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 20.0,
            }, // ~0.1
            Clause::str_eq(ColId(1), "even"), // 0.5
        ]));
        let f = features(&pt, &stats, &q);
        assert!(f.min < 0.2);
        assert!((f.max - 0.5).abs() < 0.05);
    }

    #[test]
    fn contains_matches_dictionary() {
        let (pt, stats) = make();
        let q = query(Predicate::Clause(Clause::Contains {
            col: ColId(1),
            needle: "ev".into(),
            negated: false,
        }));
        let f = features(&pt, &stats, &q);
        assert!((f.indep - 0.5).abs() < 1e-9);
    }
}
