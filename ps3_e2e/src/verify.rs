//! The verify pass: after the timed phase, judge the answers the server
//! actually sent against the exact answers, and check a sample of them bit
//! for bit against in-process execution. The keys judged are those of the
//! first requests of the list, a fixed number of them and the same set for
//! every seed (`requests.rs`), so the quality metrics repeat exactly whatever
//! the machine did during the timed phase.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ps3_core::{spec_rng, Budget, Method, Ps3System, QueryRequest};
use ps3_net::RemoteAnswer;
use ps3_query::metrics::relative_error;
use ps3_query::{AggFunc, GroupKey, QueryAnswer, QuerySpec, SketchFunc};
use ps3_runtime::ThreadPool;
use ps3_sketch::AnswerSketch;

use crate::requests::{Req, Workload};
use crate::summary::mean;

/// What the verify pass found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Mean `avg_relative_error` of the served answers over the judged keys.
    pub rel_err_mean: f64,
    /// `rel_err_mean` over the same mean for `Method::Random` at each key's
    /// planned fraction and seed.
    pub err_vs_uniform_ratio: f64,
    /// Share of finite-CI, non-exact aggregate cells whose truth lies inside
    /// the reported 95% half-width.
    pub ci_cover_ratio: f64,
    /// Mean `partitions_read` over the partition count (`LatencyTarget` keys
    /// excluded).
    pub parts_read_frac: f64,
    /// Mean planned fraction of the judged keys.
    pub planned_frac_mean: f64,
    /// Share of `ErrorTarget` keys whose true error met the target.
    pub target_met_ratio: f64,
    /// Replies compared bit for bit with in-process execution.
    pub identity_checked: usize,
    /// Of those, how many differed.
    pub identity_mismatches: usize,
    /// Seconds spent computing exact answers.
    pub truth_s: f64,
}

/// The exact answer to `spec`, in the shape a served answer takes.
fn truth_of(system: &Ps3System, spec: &QuerySpec) -> (QueryAnswer, Option<AnswerSketch>) {
    match spec {
        QuerySpec::Scalar(q) => (system.exact_answer(q), None),
        QuerySpec::Sketch(q) => {
            let sketch = system.exact_sketch(q);
            let groups = match (&sketch, q.func) {
                (AnswerSketch::Quantile(s), SketchFunc::Percentile(p)) => {
                    vec![(GroupKey::global(), vec![s.quantile(p)])]
                }
                (AnswerSketch::Distinct(s), SketchFunc::Distinct) => {
                    vec![(GroupKey::global(), vec![s.estimate()])]
                }
                (AnswerSketch::TopK(s), SketchFunc::TopK(k)) => s
                    .top(k as usize)
                    .into_iter()
                    .map(|(key, count)| (GroupKey(Box::new([key])), vec![count as f64]))
                    .collect(),
                _ => unreachable!("exact_sketch returns the query's own kind"),
            };
            (
                QueryAnswer {
                    groups: groups.into_iter().collect(),
                },
                Some(sketch),
            )
        }
    }
}

/// `ps3_query::metrics::avg_relative_error` — the mean over every (group,
/// aggregate) pair of the truth of `|est - true| / |true|`, a missed group
/// counting 1 per aggregate — summed in group-key order. The library walks
/// the truth's `HashMap`, whose order changes from process to process, and
/// the last digit of the sum with it; the quality metrics have to repeat to
/// that digit.
fn avg_relative_error(truth: &QueryAnswer, estimate: &QueryAnswer) -> f64 {
    let mut groups: Vec<(&GroupKey, &Vec<f64>)> = truth.groups.iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);
    let (mut total, mut cells) = (0.0, 0usize);
    for (key, truths) in groups {
        cells += truths.len();
        total += match estimate.groups.get(key) {
            None => truths.len() as f64,
            Some(estimates) => truths
                .iter()
                .zip(estimates)
                .map(|(&t, &e)| relative_error(t, e))
                .sum(),
        };
    }
    if cells == 0 {
        0.0
    } else {
        total / cells as f64
    }
}

/// Aggregate `agg` summed over groups: the quantity a scalar answer's
/// per-aggregate confidence interval is stated for.
fn total_over_groups(answer: &QueryAnswer, agg: usize) -> f64 {
    let mut groups: Vec<(&GroupKey, &Vec<f64>)> = answer.groups.iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);
    groups.iter().map(|(_, v)| v[agg]).sum()
}

/// `(cells whose truth is inside the interval, cells with an interval)`.
fn ci_cells(
    spec: &QuerySpec,
    truth: &(QueryAnswer, Option<AnswerSketch>),
    reply: &RemoteAnswer,
) -> (usize, usize) {
    if reply.meta.exact {
        return (0, 0);
    }
    let per_agg = &reply.meta.error_estimate.per_agg;
    let mut cells: Vec<(f64, f64, f64)> = Vec::new();
    match spec {
        QuerySpec::Scalar(q) => {
            for (a, agg) in q.aggregates.iter().enumerate() {
                // A grouped AVG's interval is for the ratio of totals, which
                // the per-group averages of an answer cannot reproduce.
                if agg.func == AggFunc::Avg && !q.group_by.is_empty() {
                    continue;
                }
                cells.push((
                    total_over_groups(&truth.0, a),
                    total_over_groups(&reply.answer, a),
                    per_agg[a].ci_half_width,
                ));
            }
        }
        QuerySpec::Sketch(q) => match (q.func, &truth.1) {
            (SketchFunc::TopK(_), Some(AnswerSketch::TopK(exact))) => {
                // `per_agg` follows the answer's ranking: estimate
                // descending, key ascending.
                let mut ranked: Vec<(u64, f64)> = reply
                    .answer
                    .groups
                    .iter()
                    .map(|(key, v)| (key.0[0], v[0]))
                    .collect();
                ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                for ((key, estimate), err) in ranked.into_iter().zip(per_agg) {
                    cells.push((exact.count_of(key) as f64, estimate, err.ci_half_width));
                }
            }
            _ => cells.push((
                total_over_groups(&truth.0, 0),
                total_over_groups(&reply.answer, 0),
                per_agg[0].ci_half_width,
            )),
        },
    }
    let judged = cells.iter().filter(|c| c.2.is_finite() && c.0.is_finite());
    let covered = judged
        .clone()
        .filter(|(truth, estimate, half)| (truth - estimate).abs() <= *half)
        .count();
    (covered, judged.count())
}

/// Bit-level equality of a served answer and an in-process outcome: rows,
/// partitions read, planned fraction, exactness, error estimate, sketch.
/// `picker_ms` is a stopwatch reading and is not compared.
fn same_bits(reply: &RemoteAnswer, local: &ps3_core::AnswerOutcome) -> bool {
    let rows_equal = reply.answer.groups.len() == local.answer.groups.len()
        && reply.answer.groups.iter().all(|(key, values)| {
            local.answer.groups.get(key).is_some_and(|other| {
                values.len() == other.len()
                    && values
                        .iter()
                        .zip(other)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
    rows_equal
        && reply.meta.partitions_read == local.meta.partitions_read
        && reply.meta.planned_frac.to_bits() == local.meta.planned_frac.to_bits()
        && reply.meta.exact == local.meta.exact
        && reply.meta.error_estimate == local.meta.error_estimate
        && reply.sketch == local.sketch
}

/// Judge `recorded` (the first requests of the list and the answers the
/// server gave them).
pub fn verify(
    system: &Ps3System,
    workload: &Workload,
    recorded: &[(Req, Option<RemoteAnswer>)],
    identity_checks: usize,
) -> Verdict {
    let pool = ThreadPool::new(1);
    let partitions = system.num_partitions() as f64;
    let mut verdict = Verdict::default();
    let mut truths: HashMap<u32, (QueryAnswer, Option<AnswerSketch>)> = HashMap::new();
    // Distinct answered keys in (template, seed) order, whatever order the
    // seed sent them in: sums over them repeat to the last digit.
    let mut seen: HashSet<Req> = HashSet::new();
    let mut keys: Vec<(Req, &RemoteAnswer)> = recorded
        .iter()
        .filter_map(|(req, reply)| Some((*req, reply.as_ref()?)))
        .filter(|(req, _)| seen.insert(*req))
        .collect();
    keys.sort_by_key(|(req, _)| (req.template, req.seed));
    let (mut served_err, mut uniform_err) = (Vec::new(), Vec::new());
    let (mut parts, mut fracs) = (Vec::new(), Vec::new());
    let (mut covered, mut judged) = (0usize, 0usize);
    let (mut targets, mut targets_met) = (0usize, 0usize);

    for (req, reply) in keys {
        let template: &QueryRequest = &workload.templates[req.template as usize];
        let local = |method: Method| {
            let mut rng = spec_rng(&template.query, req.seed);
            let frac = reply.meta.planned_frac;
            system.answer_spec_on(&template.query, method, frac, &mut rng, &pool)
        };
        if verdict.identity_checked < identity_checks {
            verdict.identity_checked += 1;
            if !same_bits(reply, &local(template.method)) {
                verdict.identity_mismatches += 1;
            }
        }
        fracs.push(reply.meta.planned_frac);
        // A latency target promises a deadline, not an error, and reads what
        // the clock allowed: it is in neither the error means nor
        // `parts_read_frac`, which must repeat.
        if matches!(template.budget, Budget::LatencyTarget { .. }) {
            continue;
        }
        parts.push(f64::from(reply.meta.partitions_read) / partitions);
        let truth = truths.entry(req.template).or_insert_with(|| {
            let started = Instant::now();
            let truth = truth_of(system, &template.query);
            verdict.truth_s += started.elapsed().as_secs_f64();
            truth
        });
        let err = avg_relative_error(&truth.0, &reply.answer);
        served_err.push(err);
        uniform_err.push(avg_relative_error(&truth.0, &local(Method::Random).answer));
        let (c, j) = ci_cells(&template.query, truth, reply);
        covered += c;
        judged += j;
        if let Budget::ErrorTarget { rel_err } = template.budget {
            targets += 1;
            targets_met += usize::from(err <= rel_err);
        }
    }

    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    verdict.rel_err_mean = mean(&served_err);
    // Both exact (a smoke run that planned only full reads): on a par.
    verdict.err_vs_uniform_ratio = match mean(&uniform_err) {
        uniform if uniform > 0.0 => mean(&served_err) / uniform,
        _ => 1.0,
    };
    verdict.ci_cover_ratio = ratio(covered, judged);
    verdict.parts_read_frac = mean(&parts);
    verdict.planned_frac_mean = mean(&fracs);
    verdict.target_met_ratio = ratio(targets_met, targets);
    verdict
}
