//! Offline training (§2.3.2, §4.3): execute the training workload per
//! partition, derive partition contributions, fit the feature normalizer,
//! train the k importance models, and run feature selection.
//!
//! Each training query is compiled once; that one program executes every
//! partition ([`execute_exact`]) and its predicate estimates every
//! partition's selectivity once. Everything that learns reads the matrices
//! serving reads: the normalizer is fitted on the static statistics the
//! workload's masks leave live plus those raw estimates, and each training
//! query's normalized rows are gathered from the shared
//! [`NormalizedStatics`] exactly as a pick gathers them
//! ([`normalize_workload`]). Those compact matrices are binned once, column
//! by column ([`bin_workload`]), and every GBDT trains on that one set; no
//! full-width row is ever built.
//!
//! Nothing here clusters partitions ahead of a query: the picker clusters a
//! query's candidates when it arrives (§4.2). So a [`TrainedPs3`] is tied to
//! no table, and a warm retrain (`Ps3System::retrain_from`) carries it to a
//! new table as it is.

use ps3_learn::{choose_thresholds, make_labels, BinnedSet, Gbdt};
use ps3_query::{CompiledQuery, PartialAnswer, Query};
use ps3_stats::features::FeatureType;
use ps3_stats::{
    FeatureMatrix, FeatureSchema, NormalizedStatics, Normalizer, SelectivityFeatures,
    SelectivityPlan, TableStats,
};
use ps3_storage::{PartitionId, PartitionedTable};

use crate::config::Ps3Config;
use crate::feature_selection::select_features;

/// Number of importance models k (§4.3). A thawed system serves with
/// however many models it holds.
pub const K_MODELS: usize = 4;

/// Everything computed once per (dataset, layout, workload): per query, its
/// exact per-partition answers and contributions and its raw selectivity
/// features. Model training, LSS strata sweeps and feature selection read
/// it while [`crate::Ps3System::train`] runs; the system keeps only the
/// queries.
#[derive(Debug)]
pub struct TrainingData {
    /// The training queries.
    pub queries: Vec<Query>,
    /// The feature layout of the table the workload ran on.
    pub schema: FeatureSchema,
    /// `runs[q]` = query q executed exactly on every partition.
    pub runs: Vec<ExactRun>,
    /// `selectivity[q][p]` = query q's raw selectivity features on
    /// partition p (§3.2): what the normalizer is fitted on, and the
    /// `selectivity_upper` the training-time filters read.
    pub selectivity: Vec<Vec<SelectivityFeatures>>,
}

impl TrainingData {
    /// Execute every query on every partition and estimate its selectivity
    /// there (parallel over queries via the shared pool), each through the
    /// one program the query compiles to.
    pub fn compute(
        pt: &PartitionedTable,
        stats: &TableStats,
        queries: &[Query],
        threads: usize,
    ) -> Self {
        let (runs, selectivity) = ps3_runtime::fan_out(threads, queries.len(), |qi| {
            let q = &queries[qi];
            let compiled = CompiledQuery::compile(pt.table(), q);
            let plan = SelectivityPlan::new(compiled.predicate());
            (
                execute_exact(pt, q, &compiled),
                plan.estimate_all(stats).collect(),
            )
        })
        .into_iter()
        .unzip();
        Self {
            queries: queries.to_vec(),
            schema: *stats.feature_schema(),
            runs,
            selectivity,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.runs.first().map_or(0, |r| r.partials.len())
    }

    /// Every query's contributions, query-major: one label per training row.
    pub fn pooled_contributions(&self) -> Vec<f64> {
        (self.runs.iter())
            .flat_map(|r| r.contributions.iter().copied())
            .collect()
    }

    /// Fit the Appendix-B normalizer on the workload: `stats`' static
    /// features under each query's mask, plus its raw selectivity features.
    pub fn fit_normalizer(&self, stats: &TableStats) -> Normalizer {
        let workload = (self.queries.iter()).zip(self.selectivity.iter().map(Vec::as_slice));
        Normalizer::fit(stats, workload)
    }
}

/// Normalize a workload the way serving normalizes a query: `stats`' static
/// features through `normalizer` once, then each query's compact matrix
/// gathered from that table by the same
/// [`NormalizedStatics::query_columns`] + [`NormalizedStatics::gather`] a
/// pick runs, over the raw selectivity features `td` already holds, in
/// parallel over queries. Returns the table and `matrices[q]` for
/// `td.queries[q]`.
pub fn normalize_workload(
    normalizer: &Normalizer,
    stats: &TableStats,
    td: &TrainingData,
    threads: usize,
) -> (NormalizedStatics, Vec<FeatureMatrix>) {
    let statics = normalizer.normalize_statics(stats);
    let matrices = ps3_runtime::fan_out(threads, td.queries.len(), |qi| {
        let sel = td.selectivity[qi].iter().copied();
        statics.gather(&statics.query_columns(&td.queries[qi], sel))
    });
    (statics, matrices)
}

/// Bin the normalized workload once for every GBDT trained on it: one row
/// per (query, partition), query-major — the order of
/// [`TrainingData::pooled_contributions`] — over the full feature width.
/// Each feature's column is read straight from the compact matrices, `0.0`
/// where a matrix does not store it (what its full-width row holds there),
/// and a feature no matrix stores is binned without reading anything.
pub fn bin_workload(normalized: &[FeatureMatrix], max_bins: usize) -> BinnedSet {
    let n = normalized.iter().map(FeatureMatrix::num_rows).sum();
    let dim = normalized.first().map_or(0, FeatureMatrix::full_dim);
    BinnedSet::from_columns(n, dim, max_bins, |f, out| {
        if normalized.iter().any(|m| m.stores(f)) {
            for m in normalized {
                m.extend_column(f, out);
            }
        }
    })
}

/// One query executed exactly on every partition.
#[derive(Debug)]
pub struct ExactRun {
    /// `partials[p]` = partition p's exact partial answer.
    pub partials: Vec<PartialAnswer>,
    /// The exact combined answer (all partitions, weight 1).
    pub total: PartialAnswer,
    /// `contributions[p]` in \[0,1\]: partition p's §4.3 contribution.
    pub contributions: Vec<f64>,
}

/// Run `compiled`, query `q`'s one program, on every partition of `pt`, sum
/// the partials at weight 1 and derive each partition's contribution.
pub fn execute_exact(pt: &PartitionedTable, q: &Query, compiled: &CompiledQuery) -> ExactRun {
    let partials: Vec<PartialAnswer> = (0..pt.num_partitions())
        .map(|p| compiled.execute_partition(pt.table(), pt.rows(PartitionId(p))))
        .collect();
    let mut total = PartialAnswer::empty(q);
    for part in &partials {
        total.add_weighted(part, 1.0);
    }
    let contributions = contributions_for(&partials, &total);
    ExactRun {
        partials,
        total,
        contributions,
    }
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
    /// ([`normalize_workload`]). `set` is that workload binned once
    /// ([`bin_workload`]); the k importance models all train on it.
    pub fn train(
        td: &TrainingData,
        normalizer: Normalizer,
        normalized: &[FeatureMatrix],
        set: &BinnedSet,
        config: Ps3Config,
    ) -> Self {
        // Exponentially spaced thresholds from the pooled contributions.
        let pooled = td.pooled_contributions();
        let thresholds = choose_thresholds(&pooled, K_MODELS);

        let mut models = Vec::with_capacity(K_MODELS);
        for (i, &t) in thresholds.iter().enumerate() {
            let mut labels: Vec<f64> = Vec::with_capacity(pooled.len());
            for run in &td.runs {
                labels.extend(make_labels(&run.contributions, t));
            }
            let mut params = config.gbdt;
            params.seed = config.gbdt.seed.wrapping_add(i as u64);
            models.push(Gbdt::train_binned(set, &labels, &params));
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
