//! The comparison methods of §5.1.3: uniform random partition sampling,
//! random sampling behind the selectivity filter, and the modified Learned
//! Stratified Sampling (LSS) of Appendix C.1.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ps3_learn::{BinnedSet, Gbdt, GbdtParams};
use ps3_query::metrics::avg_relative_error;
use ps3_query::{PartialAnswer, WeightedPart};
use ps3_stats::FeatureMatrix;
use ps3_storage::PartitionId;

use crate::train::TrainingData;

/// Uniform partition sample of size `budget`; every pick carries weight
/// `N / budget` so aggregates scale to the full table.
pub fn random_selection(n_parts: usize, budget: usize, rng: &mut StdRng) -> Vec<WeightedPart> {
    let budget = budget.min(n_parts).max(1);
    let mut ids: Vec<usize> = (0..n_parts).collect();
    ids.shuffle(rng);
    ids.truncate(budget);
    let w = n_parts as f64 / budget as f64;
    ids.into_iter()
        .map(|p| WeightedPart {
            partition: PartitionId(p),
            weight: w,
        })
        .collect()
}

/// Uniform sample over the partitions passing the selectivity filter;
/// weight `|candidates| / budget`.
pub fn random_filter_selection(
    candidates: &[usize],
    budget: usize,
    rng: &mut StdRng,
) -> Vec<WeightedPart> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let budget = budget.min(candidates.len()).max(1);
    let mut ids = candidates.to_vec();
    ids.shuffle(rng);
    ids.truncate(budget);
    let w = candidates.len() as f64 / budget as f64;
    ids.into_iter()
        .map(|p| WeightedPart {
            partition: PartitionId(p),
            weight: w,
        })
        .collect()
}

/// Modified LSS (Appendix C.1): one offline regressor predicts partition
/// contribution; partitions are ranked by prediction and cut into
/// consecutive equal-size strata; samples are allocated proportionally and
/// drawn uniformly within each stratum (Horvitz–Thompson weights).
#[derive(Clone)]
pub struct LssModel {
    /// The contribution regressor.
    pub model: Gbdt,
    /// `(budget fraction, strata size)` selected by the training sweep
    /// (Table 8).
    pub strata_by_budget: Vec<(f64, usize)>,
}

impl LssModel {
    /// Train the regressor and sweep strata sizes per budget on the
    /// training set. `normalized[q]` is training query `q`'s normalized
    /// compact feature matrix, and `set` that workload binned once
    /// ([`crate::train::bin_workload`]), which the regressor trains on.
    pub fn train(
        td: &TrainingData,
        normalized: &[FeatureMatrix],
        set: &BinnedSet,
        gbdt: &GbdtParams,
        budget_fracs: &[f64],
        eval_queries: usize,
        seed: u64,
    ) -> Self {
        let model = Gbdt::train_binned(set, &td.pooled_contributions(), gbdt);

        let n = td.num_partitions();
        let sizes = strata_size_grid(n);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x1551));
        let mut eval_qs: Vec<usize> = (0..td.queries.len())
            .filter(|&q| !td.runs[q].total.is_empty())
            .collect();
        eval_qs.shuffle(&mut rng);
        eval_qs.truncate(eval_queries.max(1));

        // Cache per-query predictions on the normalized rows.
        let preds: Vec<Vec<f64>> = (eval_qs.iter())
            .map(|&q| predictions(&model, &normalized[q]))
            .collect();

        let mut strata_by_budget = Vec::with_capacity(budget_fracs.len());
        for &frac in budget_fracs {
            let budget = ((frac * n as f64).round() as usize).max(1);
            let mut best = (sizes[0], f64::INFINITY);
            for &s in &sizes {
                let mut errs = Vec::with_capacity(eval_qs.len());
                for (qi, &q) in eval_qs.iter().enumerate() {
                    let candidates: Vec<usize> = (0..n)
                        .filter(|&p| td.selectivity[q][p].upper > 0.0)
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let picks = lss_pick(&preds[qi], &candidates, budget, s, &mut rng);
                    let (query, run) = (&td.queries[q], &td.runs[q]);
                    let mut acc = PartialAnswer::empty(query);
                    for wp in &picks {
                        acc.add_weighted(&run.partials[wp.partition.index()], wp.weight);
                    }
                    let truth = run.total.finalize(query);
                    errs.push(avg_relative_error(&truth, &acc.finalize(query)));
                }
                let mean = if errs.is_empty() {
                    f64::INFINITY
                } else {
                    errs.iter().sum::<f64>() / errs.len() as f64
                };
                if mean < best.1 {
                    best = (s, mean);
                }
            }
            strata_by_budget.push((frac, best.0));
        }
        Self {
            model,
            strata_by_budget,
        }
    }

    /// The swept strata size for (approximately) this budget fraction.
    pub fn strata_size_for(&self, frac: f64) -> usize {
        self.strata_by_budget
            .iter()
            .min_by(|a, b| (a.0 - frac).abs().total_cmp(&(b.0 - frac).abs()))
            .map_or(10, |&(_, s)| s)
    }

    /// Pick a weighted selection for a query given its normalized feature
    /// matrix and filter-passing candidates.
    pub fn pick(
        &self,
        normalized: &FeatureMatrix,
        candidates: &[usize],
        budget: usize,
        frac: f64,
        rng: &mut StdRng,
    ) -> Vec<WeightedPart> {
        let preds = predictions(&self.model, normalized);
        lss_pick(&preds, candidates, budget, self.strata_size_for(frac), rng)
    }
}

/// `model`'s prediction for every row of a normalized compact matrix, read
/// through its column map.
fn predictions(model: &Gbdt, normalized: &FeatureMatrix) -> Vec<f64> {
    (0..normalized.num_rows())
        .map(|p| model.predict_with(|f| normalized.feature(p, f)))
        .collect()
}

/// The size grid the sweep explores, scaled to the partition count.
fn strata_size_grid(n: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = [n / 40, n / 20, n / 10, n / 5, n / 3, n / 2]
        .into_iter()
        .map(|s| s.max(2))
        .collect();
    sizes.dedup();
    sizes
}

/// Core LSS selection: rank by prediction, chunk into strata of `size`,
/// allocate proportionally, sample uniformly within strata.
fn lss_pick(
    preds: &[f64],
    candidates: &[usize],
    budget: usize,
    size: usize,
    rng: &mut StdRng,
) -> Vec<WeightedPart> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let budget = budget.min(candidates.len()).max(1);
    let mut ranked = candidates.to_vec();
    ranked.sort_by(|&a, &b| preds[b].total_cmp(&preds[a]).then(a.cmp(&b)));
    let strata: Vec<&[usize]> = ranked.chunks(size.max(1)).collect();
    let total = ranked.len() as f64;

    // Proportional allocation with largest remainders.
    let exact: Vec<f64> = strata
        .iter()
        .map(|s| budget as f64 * s.len() as f64 / total)
        .collect();
    let mut alloc: Vec<usize> = exact
        .iter()
        .zip(&strata)
        .map(|(&e, s)| (e.floor() as usize).min(s.len()))
        .collect();
    let mut assigned: usize = alloc.iter().sum();
    let mut order: Vec<usize> = (0..strata.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let mut cursor = 0;
    while assigned < budget && cursor < 10 * strata.len() * (budget + 1) {
        let i = order[cursor % strata.len()];
        if alloc[i] < strata[i].len() {
            alloc[i] += 1;
            assigned += 1;
        }
        cursor += 1;
    }

    let mut out = Vec::with_capacity(budget);
    for (stratum, &k) in strata.iter().zip(&alloc) {
        if k == 0 {
            continue;
        }
        let mut pool = stratum.to_vec();
        pool.shuffle(rng);
        pool.truncate(k);
        let w = stratum.len() as f64 / k as f64;
        for p in pool {
            out.push(WeightedPart {
                partition: PartitionId(p),
                weight: w,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_selection_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let sel = random_selection(100, 10, &mut rng);
        assert_eq!(sel.len(), 10);
        for wp in &sel {
            assert_eq!(wp.weight, 10.0);
        }
        // Distinct partitions.
        let set: std::collections::HashSet<usize> =
            sel.iter().map(|w| w.partition.index()).collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn filter_selection_stays_inside_candidates() {
        let mut rng = StdRng::seed_from_u64(2);
        let candidates = vec![5, 6, 7, 8];
        let sel = random_filter_selection(&candidates, 2, &mut rng);
        assert_eq!(sel.len(), 2);
        for wp in &sel {
            assert!(candidates.contains(&wp.partition.index()));
            assert_eq!(wp.weight, 2.0);
        }
        assert!(random_filter_selection(&[], 3, &mut rng).is_empty());
    }

    #[test]
    fn budget_capped_at_population() {
        let mut rng = StdRng::seed_from_u64(3);
        let sel = random_selection(5, 50, &mut rng);
        assert_eq!(sel.len(), 5);
        assert_eq!(sel[0].weight, 1.0);
    }

    #[test]
    fn lss_pick_covers_strata_proportionally() {
        let mut rng = StdRng::seed_from_u64(4);
        // 20 candidates, predictions descending with index.
        let preds: Vec<f64> = (0..20).map(|i| f64::from(20 - i)).collect();
        let candidates: Vec<usize> = (0..20).collect();
        let sel = lss_pick(&preds, &candidates, 10, 5, &mut rng);
        assert_eq!(sel.len(), 10);
        // Weights: 4 strata of 5 → each gets ~2.5 → weight 5/n_i ∈ {2.5, 5/3}.
        let total_weight: f64 = sel.iter().map(|w| w.weight).sum();
        assert!(
            (total_weight - 20.0).abs() < 1e-9,
            "HT weights must cover N"
        );
    }

    #[test]
    fn lss_pick_handles_tiny_budgets() {
        let mut rng = StdRng::seed_from_u64(5);
        let preds = vec![1.0, 2.0, 3.0];
        let sel = lss_pick(&preds, &[0, 1, 2], 1, 2, &mut rng);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn strata_grid_is_sane() {
        for n in [10usize, 100, 1000] {
            let g = strata_size_grid(n);
            assert!(!g.is_empty());
            assert!(g.iter().all(|&s| s >= 2 && s <= n));
        }
    }
}
