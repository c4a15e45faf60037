//! Feature selection for clustering (§4.2, Algorithm 3): greedily exclude
//! feature *types* (a type spans all columns) while that improves clustering
//! error on the training workload; repeat from several random orderings and
//! keep the best exclusion set.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ps3_query::metrics::avg_relative_error;
use ps3_query::PartialAnswer;
use ps3_stats::features::FeatureType;
use ps3_stats::FeatureMatrix;

use crate::config::{ExemplarRule, Ps3Config};
use crate::picker::cluster_select;
use crate::train::TrainingData;

/// Run Algorithm 3; returns the feature types to exclude from clustering.
///
/// `normalized[q]` must be training query `q`'s normalized compact feature
/// matrix (shared with model training).
pub fn select_features(
    td: &TrainingData,
    normalized: &[FeatureMatrix],
    cfg: &Ps3Config,
) -> Vec<FeatureType> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));

    // Evaluation subset: training queries with a non-empty answer.
    let mut eval_qs: Vec<usize> = (0..td.queries.len())
        .filter(|&q| !td.runs[q].total.is_empty())
        .collect();
    eval_qs.shuffle(&mut rng);
    eval_qs.truncate(cfg.fs_eval_queries.max(1));
    if eval_qs.is_empty() {
        return Vec::new();
    }

    let mut evaluator = Evaluator::new(td, normalized, cfg, eval_qs);

    let mut feats: Vec<FeatureType> = FeatureType::ALL.to_vec();
    let mut best: Vec<FeatureType> = Vec::new();
    let mut best_err = evaluator.error(&best, &mut rng);

    for _ in 0..cfg.fs_restarts.max(1) {
        feats.shuffle(&mut rng);
        let mut excluded: Vec<FeatureType> = Vec::new();
        let mut current_err = evaluator.error(&excluded, &mut rng);
        for &f in &feats {
            let mut trial = excluded.clone();
            trial.push(f);
            if trial.len() == FeatureType::ALL.len() {
                continue; // never exclude everything
            }
            let err = evaluator.error(&trial, &mut rng);
            if err < current_err {
                excluded = trial;
                current_err = err;
            }
        }
        if current_err < best_err {
            best = excluded;
            best_err = current_err;
        }
    }
    best
}

/// Memoizing clustering-error evaluator.
struct Evaluator<'a> {
    td: &'a TrainingData,
    normalized: &'a [FeatureMatrix],
    cfg: &'a Ps3Config,
    eval_qs: Vec<usize>,
    cache: HashMap<Vec<u8>, f64>,
}

impl<'a> Evaluator<'a> {
    fn new(
        td: &'a TrainingData,
        normalized: &'a [FeatureMatrix],
        cfg: &'a Ps3Config,
        eval_qs: Vec<usize>,
    ) -> Self {
        Self {
            td,
            normalized,
            cfg,
            eval_qs,
            cache: HashMap::new(),
        }
    }

    /// Mean avg-relative-error of clustering-only sampling with the given
    /// exclusions, across the evaluation queries and budgets.
    fn error(&mut self, excluded: &[FeatureType], rng: &mut StdRng) -> f64 {
        let key = exclusion_key(excluded);
        if let Some(&e) = self.cache.get(&key) {
            return e;
        }
        let e = clustering_error(
            self.td,
            self.normalized,
            &self.eval_qs,
            excluded,
            &self.cfg.fs_eval_budgets,
            self.cfg,
            rng,
        );
        self.cache.insert(key, e);
        e
    }
}

fn exclusion_key(excluded: &[FeatureType]) -> Vec<u8> {
    let mut key = vec![0u8; FeatureType::ALL.len()];
    for f in excluded {
        let idx = FeatureType::ALL
            .iter()
            .position(|t| t == f)
            .expect("known type");
        key[idx] = 1;
    }
    key
}

/// Clustering-only estimate error, reused by Tables 6/7.
///
/// For each query and budget: filter candidates by `selectivity_upper > 0`,
/// drop the excluded feature dims, cluster `normalized[q]`'s rows into
/// `budget·N` clusters, read one exemplar per cluster, and score the
/// weighted combination against the exact answer.
pub fn clustering_error(
    td: &TrainingData,
    normalized: &[FeatureMatrix],
    eval_qs: &[usize],
    excluded: &[FeatureType],
    budgets: &[f64],
    cfg: &Ps3Config,
    rng: &mut StdRng,
) -> f64 {
    // Exclusions become a clustering-time projection (distance-identical
    // to zeroing the dims, without copying the matrix).
    let excluded_dims = td.schema.mask_of(excluded);
    let n_parts = td.num_partitions();
    let mut errs = Vec::with_capacity(eval_qs.len() * budgets.len());
    for &q in eval_qs {
        let candidates: Vec<usize> = (0..n_parts)
            .filter(|&p| td.selectivity[q][p].upper > 0.0)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let (query, run) = (&td.queries[q], &td.runs[q]);
        let truth = run.total.finalize(query);
        for &frac in budgets {
            let k = ((frac * n_parts as f64).round() as usize).clamp(1, candidates.len());
            let (picks, _) = cluster_select(
                &candidates,
                &normalized[q],
                &excluded_dims,
                k,
                cfg.cluster_algo,
                ExemplarRule::Median,
                rng,
            );
            let mut acc = PartialAnswer::empty(query);
            for wp in &picks {
                acc.add_weighted(&run.partials[wp.partition.index()], wp.weight);
            }
            errs.push(avg_relative_error(&truth, &acc.finalize(query)));
        }
    }
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_key_is_order_independent() {
        let a = exclusion_key(&[FeatureType::Mean, FeatureType::Ndv]);
        let b = exclusion_key(&[FeatureType::Ndv, FeatureType::Mean]);
        assert_eq!(a, b);
        assert_ne!(a, exclusion_key(&[FeatureType::Mean]));
        assert_eq!(exclusion_key(&[]).iter().sum::<u8>(), 0);
    }
}
