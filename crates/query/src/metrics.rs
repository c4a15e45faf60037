//! The three error metrics of §5.1.4.
//!
//! * **Missed groups** — fraction of true groups absent from the estimate.
//! * **Average relative error** — mean over every (group, aggregate) pair of
//!   `|est − true| / |true|`, counting missed groups as 1.
//! * **Absolute error over true** — per aggregate, the mean absolute error
//!   across groups divided by the mean true value, averaged over aggregates.
//!
//! Each sum walks `truth.groups`, a `BTreeMap`, so it runs in ascending
//! [`GroupKey`](crate::exec::GroupKey) order whatever order the answer was
//! built in: a metric's last bits are the same in every process, and
//! Algorithm 3's greedy steps compare these metrics.

use crate::exec::QueryAnswer;

/// Fraction of groups in `truth` that `estimate` misses. 0 for an empty truth.
pub fn missed_groups(truth: &QueryAnswer, estimate: &QueryAnswer) -> f64 {
    if truth.groups.is_empty() {
        return 0.0;
    }
    let missed = truth
        .groups
        .keys()
        .filter(|k| !estimate.groups.contains_key(*k))
        .count();
    missed as f64 / truth.groups.len() as f64
}

/// Average relative error across all (group, aggregate) pairs of the truth;
/// missed groups count as relative error 1 for each aggregate (§5.1.4).
///
/// A zero true value scores 0 when the estimate is also (near) zero and 1
/// otherwise, mirroring the missed-group convention.
pub fn avg_relative_error(truth: &QueryAnswer, estimate: &QueryAnswer) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (key, tvals) in &truth.groups {
        match estimate.groups.get(key) {
            None => {
                total += tvals.len() as f64;
                n += tvals.len();
            }
            Some(evals) => {
                for (&t, &e) in tvals.iter().zip(evals) {
                    total += relative_error(t, e);
                    n += 1;
                }
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Relative error of a single value pair.
///
/// NaN is the engine's NULL (an AVG over zero qualifying rows — see
/// [`crate::exec::PartialAnswer::finalize`]): NaN-vs-NaN is perfect
/// agreement (0), NaN-vs-number is a full miss (1).
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    if truth.is_nan() || estimate.is_nan() {
        return if truth.is_nan() == estimate.is_nan() {
            0.0
        } else {
            1.0
        };
    }
    if truth == 0.0 {
        if estimate.abs() < 1e-12 {
            0.0
        } else {
            1.0
        }
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Average absolute error of an aggregate across groups divided by the
/// average true value of the aggregate across groups, averaged over
/// aggregates (§5.1.4). Missed groups contribute their full true value as
/// absolute error.
pub fn abs_error_over_true(truth: &QueryAnswer, estimate: &QueryAnswer) -> f64 {
    let num_aggs = truth.groups.values().next().map_or(0, Vec::len);
    if num_aggs == 0 {
        return 0.0;
    }
    let g = truth.groups.len() as f64;
    let mut per_agg = Vec::with_capacity(num_aggs);
    for a in 0..num_aggs {
        let mut abs_err = 0.0;
        let mut true_mag = 0.0;
        for (key, tvals) in &truth.groups {
            let t = tvals[a];
            let e = estimate.groups.get(key).map_or(0.0, |v| v[a]);
            if t.is_nan() || e.is_nan() {
                // NaN is the engine's NULL: agreement costs nothing, a
                // mismatch counts the defined side's magnitude as error.
                if t.is_nan() != e.is_nan() {
                    abs_err += if t.is_nan() { e.abs() } else { t.abs() };
                    true_mag += if t.is_nan() { 0.0 } else { t.abs() };
                }
            } else {
                abs_err += (e - t).abs();
                true_mag += t.abs();
            }
        }
        let mean_err = abs_err / g;
        let mean_true = true_mag / g;
        per_agg.push(if mean_true > 0.0 {
            mean_err / mean_true
        } else if mean_err > 0.0 {
            1.0
        } else {
            0.0
        });
    }
    per_agg.iter().sum::<f64>() / num_aggs as f64
}

/// All three metrics at once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorMetrics {
    /// Fraction of missed groups.
    pub missed_groups: f64,
    /// Average relative error.
    pub avg_rel_err: f64,
    /// Absolute error over true.
    pub abs_over_true: f64,
}

impl ErrorMetrics {
    /// Compute all metrics for one (truth, estimate) pair.
    pub fn compute(truth: &QueryAnswer, estimate: &QueryAnswer) -> Self {
        Self {
            missed_groups: missed_groups(truth, estimate),
            avg_rel_err: avg_relative_error(truth, estimate),
            abs_over_true: abs_error_over_true(truth, estimate),
        }
    }

    /// Element-wise mean of a set of metrics (used to average over queries).
    pub fn mean(all: &[ErrorMetrics]) -> ErrorMetrics {
        if all.is_empty() {
            return ErrorMetrics::default();
        }
        let n = all.len() as f64;
        ErrorMetrics {
            missed_groups: all.iter().map(|m| m.missed_groups).sum::<f64>() / n,
            avg_rel_err: all.iter().map(|m| m.avg_rel_err).sum::<f64>() / n,
            abs_over_true: all.iter().map(|m| m.abs_over_true).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GroupKey;

    fn answer(entries: &[(&[u64], &[f64])]) -> QueryAnswer {
        let groups = entries
            .iter()
            .map(|(k, v)| (GroupKey((*k).into()), v.to_vec()));
        QueryAnswer {
            groups: groups.collect(),
        }
    }

    #[test]
    fn perfect_estimate_scores_zero() {
        let t = answer(&[(&[1], &[10.0, 2.0]), (&[2], &[5.0, 1.0])]);
        let m = ErrorMetrics::compute(&t, &t);
        assert_eq!(m.missed_groups, 0.0);
        assert_eq!(m.avg_rel_err, 0.0);
        assert_eq!(m.abs_over_true, 0.0);
    }

    #[test]
    fn missed_group_counts_as_one() {
        let t = answer(&[(&[1], &[10.0]), (&[2], &[20.0])]);
        let e = answer(&[(&[1], &[10.0])]);
        assert_eq!(missed_groups(&t, &e), 0.5);
        // group 1 perfect (0), group 2 missed (1) → 0.5.
        assert_eq!(avg_relative_error(&t, &e), 0.5);
        // abs err = (0 + 20)/2 = 10; mean true = 15 → 2/3.
        assert!((abs_error_over_true(&t, &e) - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn extra_groups_in_estimate_do_not_count() {
        let t = answer(&[(&[1], &[10.0])]);
        let e = answer(&[(&[1], &[10.0]), (&[9], &[99.0])]);
        let m = ErrorMetrics::compute(&t, &e);
        assert_eq!(m.missed_groups, 0.0);
        assert_eq!(m.avg_rel_err, 0.0);
    }

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(10.0, 12.0), 0.2);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 5.0), 1.0);
        assert_eq!(relative_error(-10.0, -5.0), 0.5);
    }

    #[test]
    fn nan_is_null_in_every_metric() {
        // Matching NaNs (both sides say "no qualifying rows") are free.
        assert_eq!(relative_error(f64::NAN, f64::NAN), 0.0);
        // One-sided NaN is a full miss.
        assert_eq!(relative_error(f64::NAN, 3.0), 1.0);
        assert_eq!(relative_error(3.0, f64::NAN), 1.0);

        let t = answer(&[(&[1], &[10.0, f64::NAN]), (&[2], &[20.0, f64::NAN])]);
        let e = answer(&[(&[1], &[10.0, f64::NAN]), (&[2], &[20.0, f64::NAN])]);
        let m = ErrorMetrics::compute(&t, &e);
        assert_eq!(m.avg_rel_err, 0.0);
        assert_eq!(m.abs_over_true, 0.0);

        // A NaN truth met by a number contributes error, not NaN poison.
        let e = answer(&[(&[1], &[10.0, 5.0]), (&[2], &[20.0, f64::NAN])]);
        let m = ErrorMetrics::compute(&t, &e);
        assert!((m.avg_rel_err - 0.25).abs() < 1e-12, "{}", m.avg_rel_err);
        assert!(m.abs_over_true.is_finite());
    }

    /// One answer, built from every rotation of its insertion order,
    /// scores one bit pattern: the key-order sum. Group 20's error is 3,
    /// whose ulp is 2^-51: a 2^-52 error added after it ties and rounds
    /// away, while two or more summed before it get past the tie. So a sum
    /// in insertion order would depend on where group 20 was inserted.
    #[test]
    fn metrics_sum_in_key_order_whatever_the_map_order() {
        let tiny = 1.0 + f64::EPSILON;
        let cells: Vec<(u64, f64, f64)> = (0..41u64)
            .map(|g| {
                if g == 20 {
                    (g, 1.0, 4.0)
                } else {
                    (g, 1.0, tiny)
                }
            })
            .collect();
        let build = |at: usize, rot: usize| {
            let mut entries: Vec<([u64; 1], [f64; 1])> =
                cells.iter().map(|&(g, t, e)| ([g], [[t, e][at]])).collect();
            entries.rotate_left(rot);
            let entries: Vec<(&[u64], &[f64])> =
                entries.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            answer(&entries)
        };
        let (mut rel, mut abs, mut mag) = (0.0f64, 0.0f64, 0.0f64);
        for &(_, t, e) in &cells {
            rel += relative_error(t, e);
            abs += (e - t).abs();
            mag += t.abs();
        }
        let n = cells.len() as f64;
        let reference = ((rel / n).to_bits(), ((abs / n) / (mag / n)).to_bits());
        for rot in 0..cells.len() {
            let m = ErrorMetrics::compute(&build(0, rot), &build(1, rot));
            assert_eq!(
                (m.avg_rel_err.to_bits(), m.abs_over_true.to_bits()),
                reference
            );
        }
    }

    #[test]
    fn overestimates_can_exceed_one() {
        let t = answer(&[(&[1], &[1.0])]);
        let e = answer(&[(&[1], &[5.0])]);
        assert_eq!(avg_relative_error(&t, &e), 4.0);
    }

    #[test]
    fn empty_truth() {
        let t = answer(&[]);
        let e = answer(&[(&[1], &[1.0])]);
        let m = ErrorMetrics::compute(&t, &e);
        assert_eq!(m.missed_groups, 0.0);
        assert_eq!(m.avg_rel_err, 0.0);
        assert_eq!(m.abs_over_true, 0.0);
    }

    #[test]
    fn mean_over_queries() {
        let a = ErrorMetrics {
            missed_groups: 0.2,
            avg_rel_err: 0.4,
            abs_over_true: 0.6,
        };
        let b = ErrorMetrics {
            missed_groups: 0.0,
            avg_rel_err: 0.2,
            abs_over_true: 0.0,
        };
        let m = ErrorMetrics::mean(&[a, b]);
        assert!((m.missed_groups - 0.1).abs() < 1e-12);
        assert!((m.avg_rel_err - 0.3).abs() < 1e-12);
        assert!((m.abs_over_true - 0.3).abs() < 1e-12);
        assert_eq!(ErrorMetrics::mean(&[]), ErrorMetrics::default());
    }
}
