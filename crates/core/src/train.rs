//! Offline training (§2.3.2, §4.3): execute the training workload per
//! partition, derive partition contributions, fit the feature normalizer,
//! train the k importance models, and run feature selection.
//!
//! Everything that learns reads the matrices serving reads: the normalizer
//! is fitted on the workload's raw compact matrices, and each training
//! query's normalized rows are gathered from the shared
//! [`NormalizedStatics`] exactly as a pick gathers them
//! ([`normalize_workload`]). Only the GBDT binner takes full-width rows.
//!
//! Nothing here clusters partitions ahead of a query: the picker clusters a
//! query's candidates when it arrives (§4.2). So a [`TrainedPs3`] is tied to
//! no table, and a warm retrain (`Ps3System::retrain_from`) carries it to a
//! new table as it is.

use ps3_learn::{choose_thresholds, make_labels, Gbdt};
use ps3_query::{CompiledPredicate, CompiledQuery, PartialAnswer, Query};
use ps3_stats::features::FeatureType;
use ps3_stats::{FeatureMatrix, NormalizedStatics, Normalizer, QueryFeatures, TableStats};
use ps3_storage::{PartitionId, PartitionedTable};

use crate::config::Ps3Config;
use crate::feature_selection::select_features;

/// Everything computed once per (dataset, layout, workload): per-query,
/// per-partition answers, feature matrices and contributions. Reused by
/// model training, LSS strata sweeps, feature selection and the experiment
/// harness.
#[derive(Debug)]
pub struct TrainingData {
    /// The training queries.
    pub queries: Vec<Query>,
    /// `partials[q][p]` = partition p's exact partial answer to query q.
    pub partials: Vec<Vec<PartialAnswer>>,
    /// `totals[q]` = the exact combined answer (all partitions, weight 1).
    pub totals: Vec<PartialAnswer>,
    /// Raw (unnormalized, masked) compact feature matrices per query.
    pub features: Vec<QueryFeatures>,
    /// `contributions[q][p]` in \[0,1\]: partition p's §4.3 contribution to q.
    pub contributions: Vec<Vec<f64>>,
}

impl TrainingData {
    /// Execute every query on every partition (parallel over queries via
    /// the shared pool) and derive features and contributions.
    pub fn compute(
        pt: &PartitionedTable,
        stats: &TableStats,
        queries: &[Query],
        threads: usize,
    ) -> Self {
        let per_query: Vec<(Vec<PartialAnswer>, PartialAnswer, QueryFeatures)> =
            ps3_runtime::fan_out(threads, queries.len(), |qi| {
                let q = &queries[qi];
                // One compiled program per query serves every partition.
                let cq = CompiledQuery::compile(pt.table(), q);
                let partials: Vec<PartialAnswer> = (0..pt.num_partitions())
                    .map(|p| cq.execute_partition(pt.table(), pt.rows(PartitionId(p))))
                    .collect();
                let mut total = PartialAnswer::empty(q);
                for part in &partials {
                    total.add_weighted(part, 1.0);
                }
                let feats = QueryFeatures::compute(stats, pt.table(), q);
                (partials, total, feats)
            });

        let mut partials = Vec::with_capacity(queries.len());
        let mut totals = Vec::with_capacity(queries.len());
        let mut features = Vec::with_capacity(queries.len());
        let mut contributions = Vec::with_capacity(queries.len());
        for (p, t, f) in per_query {
            contributions.push(contributions_for(&p, &t));
            partials.push(p);
            totals.push(t);
            features.push(f);
        }
        Self {
            queries: queries.to_vec(),
            partials,
            totals,
            features,
            contributions,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partials.first().map_or(0, Vec::len)
    }

    /// Fit the Appendix-B normalizer on the workload's raw feature matrices.
    ///
    /// # Panics
    /// Panics on an empty workload.
    pub fn fit_normalizer(&self) -> Normalizer {
        let first = self.features.first();
        let schema = *first.expect("need at least one training query").schema();
        Normalizer::fit(schema, self.features.iter().map(QueryFeatures::matrix))
    }
}

/// Normalize a workload the way serving normalizes a query: `stats`' static
/// features through `normalizer` once, then each query's compact matrix
/// gathered from that table by the same
/// [`NormalizedStatics::query_columns`] + [`NormalizedStatics::gather`] a
/// pick runs, in parallel over queries. Returns the table and
/// `matrices[q]` for `queries[q]`.
pub fn normalize_workload(
    normalizer: &Normalizer,
    pt: &PartitionedTable,
    stats: &TableStats,
    queries: &[Query],
    threads: usize,
) -> (NormalizedStatics, Vec<FeatureMatrix>) {
    let statics = normalizer.normalize_statics(stats);
    let matrices = ps3_runtime::fan_out(threads, queries.len(), |qi| {
        let q = &queries[qi];
        let pred = (q.predicate.as_ref()).map(|p| CompiledPredicate::compile(pt.table(), p));
        statics.gather(&statics.query_columns(stats, q, pred.as_ref()))
    });
    (statics, matrices)
}

/// Partition contribution (§4.3): the max over groups and aggregate slots of
/// `|A_{g,i}| / |A_g|`, clamped to \[0,1\]. Zero-magnitude totals are skipped.
pub fn contributions_for(partials: &[PartialAnswer], total: &PartialAnswer) -> Vec<f64> {
    partials
        .iter()
        .map(|part| {
            let mut best = 0.0f64;
            for (key, vals) in part.groups() {
                let Some(tvals) = total.get(key) else {
                    continue;
                };
                for (&v, &t) in vals.iter().zip(tvals) {
                    if t.abs() > 1e-9 {
                        best = best.max((v / t).abs());
                    }
                }
            }
            best.clamp(0.0, 1.0)
        })
        .collect()
}

/// The trained picker state: k models, their thresholds, the normalizer and
/// the clustering feature exclusions.
#[derive(Clone)]
pub struct TrainedPs3 {
    /// The k importance regressors, least restrictive first.
    pub models: Vec<Gbdt>,
    /// The contribution thresholds the models were trained against.
    pub thresholds: Vec<f64>,
    /// Appendix-B feature normalization fitted on the training workload.
    pub normalizer: Normalizer,
    /// Feature types excluded from clustering by Algorithm 3.
    pub excluded: Vec<FeatureType>,
    /// Per-dimension projection of `excluded` (true = drop from clustering
    /// distances), precomputed so the picker never rewrites feature rows.
    pub excluded_dims: Vec<bool>,
    /// The configuration used.
    pub config: Ps3Config,
}

impl TrainedPs3 {
    /// Train the full picker from precomputed [`TrainingData`], the
    /// `normalizer` fitted on it ([`TrainingData::fit_normalizer`]) and
    /// `normalized[q]`, training query `q`'s matrix through that normalizer
    /// ([`normalize_workload`]). `rows` is the workload's one full-width row
    /// set — every normalized row expanded, query-major — which only the
    /// GBDT binner reads.
    pub fn train(
        td: &TrainingData,
        normalizer: Normalizer,
        normalized: &[FeatureMatrix],
        rows: &[Vec<f64>],
        config: Ps3Config,
    ) -> Self {
        // Exponentially spaced thresholds from the pooled contributions.
        let pooled: Vec<f64> = td.contributions.iter().flatten().copied().collect();
        let thresholds = choose_thresholds(&pooled, config.k_models);

        let mut models = Vec::with_capacity(config.k_models);
        for (i, &t) in thresholds.iter().enumerate() {
            let mut labels: Vec<f64> = Vec::with_capacity(pooled.len());
            for contribs in &td.contributions {
                labels.extend(make_labels(contribs, t));
            }
            let mut params = config.gbdt;
            params.seed = config.gbdt.seed.wrapping_add(i as u64);
            models.push(Gbdt::train(rows, &labels, &params));
        }

        let excluded = if config.feature_selection {
            select_features(td, normalized, &config)
        } else {
            Vec::new()
        };
        let excluded_dims = normalizer.schema().mask_of(&excluded);

        Self {
            models,
            thresholds,
            normalizer,
            excluded,
            excluded_dims,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::GroupKey;

    fn partial(entries: &[(&[u64], &[f64])]) -> PartialAnswer {
        PartialAnswer::from_groups(
            entries.first().map_or(1, |e| e.1.len()),
            entries
                .iter()
                .map(|(k, v)| (GroupKey((*k).into()), v.to_vec())),
        )
    }

    #[test]
    fn contribution_is_max_share() {
        let total = partial(&[(&[1], &[100.0, 10.0]), (&[2], &[50.0, 5.0])]);
        // Partition holds 10% of group 1's first slot but 40% of group 2's
        // second slot → contribution 0.4.
        let p = partial(&[(&[1], &[10.0, 1.0]), (&[2], &[5.0, 2.0])]);
        let c = contributions_for(&[p], &total);
        assert!((c[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_partition_contributes_zero() {
        let total = partial(&[(&[1], &[100.0])]);
        let p = PartialAnswer::with_slots(1);
        assert_eq!(contributions_for(&[p], &total), vec![0.0]);
    }

    #[test]
    fn zero_totals_are_skipped() {
        let total = partial(&[(&[1], &[0.0])]);
        let p = partial(&[(&[1], &[5.0])]);
        assert_eq!(contributions_for(&[p], &total), vec![0.0]);
    }

    #[test]
    fn contribution_clamped_to_one() {
        // Negative cancellation: a partition can exceed the total.
        let total = partial(&[(&[1], &[10.0])]);
        let p = partial(&[(&[1], &[25.0])]);
        assert_eq!(contributions_for(&[p], &total), vec![1.0]);
    }
}
