//! Reference implementations the property tests hold the shipped code to,
//! bit for bit.
//!
//! * The recursive selectivity evaluator, the oracle for
//!   [`SelectivityPlan`](crate::selectivity::SelectivityPlan). This is the
//!   tree walk the plan replaced, unchanged: it re-groups an AND's
//!   same-column comparisons and allocates its child and clause lists on
//!   every partition. It also owns the per-clause probes (interval, `<>`
//!   and membership), which read one partition's [`ColumnStats`] directly:
//!   the plan reads the flat selectivity index instead, so the two share
//!   no leaf code above the histogram's own probes. Under
//!   `PS3_STRICT_KERNELS=1` every plan run re-checks itself against this
//!   evaluator.
//! * The full-width Appendix-B normalizer, the oracle for
//!   [`Normalizer::fit`] over live blocks and raw estimates, and for the rows
//!   [`NormalizedStatics::gather`](crate::NormalizedStatics::gather)
//!   assembles: [`fit_normalizer`] sums every dimension of every dense row,
//!   zeros included, and [`apply_row`] transforms and divides one dense
//!   row. It shares only the per-value transform with the shipped code.
//! * The streaming sketch bundle, the oracle for [`ColumnStats::build`]:
//!   [`streaming_column_stats`] folds a partition column into the AKMV,
//!   heavy-hitter and exact-dictionary sketches row by row and sorts a
//!   copy for the histogram, as the builder did before it derived every
//!   sketch from one sort. Under `PS3_STRICT_KERNELS=1` every build
//!   re-checks itself against it, byte for byte.
//!
//! This module is `#[doc(hidden)]` public so integration tests can reach
//! it; it is not part of the crate's API.

use ps3_query::{CmpOp, CompiledPredicate};
use ps3_sketch::hash::{hash_f64, hash_u64};
use ps3_sketch::{Akmv, EquiDepthHistogram, ExactDict, HeavyHitters, Measures};
use ps3_storage::{ColId, ColumnData, ColumnType};

use crate::column_stats::{ColumnStats, ColumnStatsParams};
use crate::features::FeatureSchema;
use crate::normalize::{transform, Normalizer};
use crate::selectivity::{effective_op, Interval, SelectivityFeatures};

/// `(upper, estimate)` for `x <> value`: the complement of equality.
fn ne_selectivity(value: f64, stats: &ColumnStats) -> (f64, f64) {
    let (eq_upper, eq_est) =
        interval_selectivity(&Interval::from_cmp(CmpOp::Eq, value).unwrap(), stats);
    let est = (1.0 - eq_est).clamp(0.0, 1.0);
    // Upper: all rows might differ from v unless the column is constant at v
    // (then eq covers everything).
    let upper = if eq_upper >= 1.0 && stats.akmv.distinct_estimate() <= 1.0 {
        0.0
    } else {
        1.0
    };
    (upper, est)
}

/// `(upper, estimate)` for a numeric interval.
fn interval_selectivity(iv: &Interval, stats: &ColumnStats) -> (f64, f64) {
    if iv.is_empty() {
        return (0.0, 0.0);
    }
    let Some(hist) = &stats.histogram else {
        // No histogram (shouldn't happen for numeric columns): stay safe.
        return (1.0, 0.5);
    };
    // Exact path: tiny domains keep a full dictionary of value bit patterns.
    if let Some(exact) = &stats.exact {
        let mut sel = 0.0;
        for (key, count) in exact.iter() {
            let v = f64::from_bits(key);
            let lo_ok = v > iv.lo || (iv.lo_incl && v == iv.lo);
            let hi_ok = v < iv.hi || (iv.hi_incl && v == iv.hi);
            if lo_ok && hi_ok {
                sel += count as f64;
            }
        }
        let sel = sel / stats.rows.max(1) as f64;
        return (sel, sel);
    }
    let upper = hist.cover_upper(iv.lo, iv.hi);
    let est = if iv.lo == iv.hi {
        hist.equality_selectivity(iv.lo, stats.akmv.distinct_estimate())
    } else {
        (hist.fraction_below(iv.hi, iv.hi_incl) - hist.fraction_below(iv.lo, !iv.lo_incl))
            .clamp(0.0, 1.0)
    };
    (upper, est.min(upper))
}

/// `(upper, estimate)` for a categorical membership test over the
/// precompiled dictionary-code targets.
fn in_selectivity(keys: &[u32], negated: bool, stats: &ColumnStats) -> (f64, f64) {
    // Exact dictionary: both the bound and the estimate are exact.
    if let Some(exact) = &stats.exact {
        let sel = keys
            .iter()
            .map(|&k| exact.frequency(u64::from(k)))
            .sum::<f64>()
            .clamp(0.0, 1.0);
        let sel = if negated { 1.0 - sel } else { sel };
        return (sel, sel);
    }
    if negated {
        // Cannot rule anything out without an exact dictionary.
        let (_, pos_est) = in_selectivity(keys, false, stats);
        return (1.0, (1.0 - pos_est).clamp(0.0, 1.0));
    }
    let hh_mass: f64 = stats.heavy_hitters.iter().map(|h| h.frequency).sum();
    let ndv = stats.akmv.distinct_estimate().max(1.0);
    let non_hh = (ndv - stats.heavy_hitters.len() as f64).max(1.0);
    // Average frequency of a non-heavy-hitter value.
    let tail_avg = ((1.0 - hh_mass).max(0.0) / non_hh).clamp(0.0, 1.0);
    // Not-a-local-heavy-hitter caps frequency at the support threshold.
    let support = 0.01_f64.max(tail_avg);
    let mut upper = 0.0;
    let mut est = 0.0;
    for &k in keys {
        match stats.hh_frequency(u64::from(k)) {
            Some(f) => {
                upper += f + 0.001; // lossy-counting undercount allowance (ε)
                est += f;
            }
            None => {
                // Not a local heavy hitter: frequency is below support, but
                // presence cannot be excluded.
                upper += support;
                est += tail_avg;
            }
        }
    }
    (upper.clamp(0.0, 1.0), est.clamp(0.0, 1.0))
}

/// `(upper, estimate)` for a numeric comparison (post-negation operator).
fn cmp_selectivity(op: CmpOp, value: f64, stats: &ColumnStats) -> (f64, f64) {
    match Interval::from_cmp(op, value) {
        Some(iv) => interval_selectivity(&iv, stats),
        None => ne_selectivity(value, stats),
    }
}

/// Recursive estimate of a compiled predicate node: returns
/// `(upper, indep)`, appending per-clause estimates to `clause_ests`.
fn estimate_node(
    pred: &CompiledPredicate,
    stats: &[ColumnStats],
    clause_ests: &mut Vec<f64>,
) -> (f64, f64) {
    match pred {
        CompiledPredicate::Cmp {
            col,
            op,
            value,
            negated,
        } => {
            let pair = cmp_selectivity(effective_op(*op, *negated), *value, &stats[col.index()]);
            clause_ests.push(pair.1);
            pair
        }
        CompiledPredicate::InSet { col, set, negated } => {
            let pair = in_selectivity(set.codes(), *negated, &stats[col.index()]);
            clause_ests.push(pair.1);
            pair
        }
        CompiledPredicate::And(children) => {
            let parts = jointly_evaluate(children, stats, true, clause_ests);
            let upper = parts.iter().map(|p| p.0).fold(1.0_f64, f64::min);
            let indep = parts.iter().map(|p| p.1).product::<f64>();
            (upper, indep)
        }
        CompiledPredicate::Or(children) => {
            let parts = jointly_evaluate(children, stats, false, clause_ests);
            let upper = parts.iter().map(|p| p.0).sum::<f64>().min(1.0);
            // Paper's stated rule for ORs: the min of the clause estimates.
            let indep = parts.iter().map(|p| p.1).fold(1.0_f64, f64::min);
            (upper, indep)
        }
    }
}

/// Evaluate a node's children, merging same-column `Cmp` clauses first.
///
/// Only AND nodes can merge into a single intersection; OR children stay
/// individual (their union is handled by the parent's sum/min combination).
fn jointly_evaluate(
    children: &[CompiledPredicate],
    stats: &[ColumnStats],
    is_and: bool,
    clause_ests: &mut Vec<f64>,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(children.len());
    if is_and {
        // Group interval-able Cmp clauses by column.
        let mut grouped: Vec<(ColId, Interval)> = Vec::new();
        let mut rest: Vec<&CompiledPredicate> = Vec::new();
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
        for (col, iv) in grouped {
            let pair = interval_selectivity(&iv, &stats[col.index()]);
            clause_ests.push(pair.1);
            out.push(pair);
        }
        for ch in rest {
            out.push(estimate_node(ch, stats, clause_ests));
        }
    } else {
        for ch in children {
            out.push(estimate_node(ch, stats, clause_ests));
        }
    }
    out
}

/// The four selectivity features of a pre-compiled predicate on one
/// partition, by recursive descent. `None` means no `WHERE` clause:
/// everything passes.
pub fn selectivity_features_compiled(
    pred: Option<&CompiledPredicate>,
    stats: &[ColumnStats],
) -> SelectivityFeatures {
    let Some(pred) = pred else {
        return SelectivityFeatures::all_pass();
    };
    let mut clause_ests = Vec::new();
    let (upper, indep) = estimate_node(pred, stats, &mut clause_ests);
    let (min, max) = clause_ests
        .iter()
        .fold((1.0_f64, 0.0_f64), |(mn, mx), &e| (mn.min(e), mx.max(e)));
    SelectivityFeatures {
        upper: upper.clamp(0.0, 1.0),
        indep: indep.clamp(0.0, 1.0),
        min: if clause_ests.is_empty() { 1.0 } else { min },
        max: if clause_ests.is_empty() { 1.0 } else { max },
    }
}

/// Fit a [`Normalizer`] on full-width rows: per dimension, the mean over
/// every row of every matrix of the transformed value's magnitude, `1.0`
/// where that mean is below `1e-12`.
pub fn fit_normalizer(schema: FeatureSchema, matrices: &[Vec<Vec<f64>>]) -> Normalizer {
    let dim = schema.dim();
    let mut sums = vec![0.0f64; dim];
    let mut n = 0usize;
    for m in matrices {
        for row in m {
            assert_eq!(row.len(), dim, "feature layout");
            for (i, &x) in row.iter().enumerate() {
                sums[i] += transform(x, schema.type_of(i).is_selectivity()).abs();
            }
            n += 1;
        }
    }
    let means = sums
        .into_iter()
        .map(|s| {
            let mean = if n > 0 { s / n as f64 } else { 0.0 };
            if mean.abs() < 1e-12 {
                1.0
            } else {
                mean
            }
        })
        .collect();
    Normalizer::from_raw_parts(schema, means).expect("one mean per dimension")
}

/// Normalize one full-width feature row in place.
pub fn apply_row(norm: &Normalizer, row: &mut [f64]) {
    let schema = norm.schema();
    assert_eq!(row.len(), schema.dim(), "feature layout");
    for (i, (x, mean)) in row.iter_mut().zip(norm.means()).enumerate() {
        *x = transform(*x, schema.type_of(i).is_selectivity()) / mean;
    }
}

/// Normalize every full-width row of a matrix in place.
pub fn apply_matrix(norm: &Normalizer, rows: &mut [Vec<f64>]) {
    for row in rows {
        apply_row(norm, row);
    }
}

/// The sketch bundle of `column[rows]` as the streaming sketches build it:
/// one pass folding every row into the AKMV, heavy-hitter and
/// exact-dictionary sketches, the measures over the same rows, and a sorted
/// copy for the histogram.
///
/// # Panics
/// Panics if the column's physical type disagrees with `ctype`.
pub fn streaming_column_stats(
    column: &ColumnData,
    ctype: ColumnType,
    rows: std::ops::Range<usize>,
    params: &ColumnStatsParams,
) -> ColumnStats {
    let n = rows.len() as u64;
    match (ctype.is_numeric_like(), column) {
        (true, ColumnData::Numeric(values)) => {
            let slice = &values[rows];
            let measures = Measures::from_values(slice);
            let histogram = EquiDepthHistogram::from_values(slice, params.histogram_buckets);
            let mut akmv = Akmv::new(params.akmv_k);
            let mut hh = HeavyHitters::with_params(params.hh_support, params.hh_epsilon);
            for &v in slice {
                akmv.update(hash_f64(v));
                hh.update(v.to_bits());
            }
            let exact =
                ExactDict::build(slice.iter().map(|v| v.to_bits()), params.exact_dict_limit);
            ColumnStats {
                measures: Some(measures),
                histogram: Some(histogram),
                akmv,
                heavy_hitters: hh.heavy_hitters(),
                exact,
                rows: n,
            }
        }
        (false, ColumnData::Categorical { codes, .. }) => {
            let slice = &codes[rows];
            let mut akmv = Akmv::new(params.akmv_k);
            let mut hh = HeavyHitters::with_params(params.hh_support, params.hh_epsilon);
            for &c in slice {
                akmv.update(hash_u64(u64::from(c)));
                hh.update(u64::from(c));
            }
            let exact =
                ExactDict::build(slice.iter().map(|&c| u64::from(c)), params.exact_dict_limit);
            ColumnStats {
                measures: None,
                histogram: None,
                akmv,
                heavy_hitters: hh.heavy_hitters(),
                exact,
                rows: n,
            }
        }
        _ => panic!("column physical type disagrees with declared type"),
    }
}
