//! Algorithm 1: the full partition picker.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use ps3_cluster::{cluster, median_exemplar, random_exemplar, ClusterAlgo, PointMatrix};
use ps3_query::{Query, WeightedPart};
use ps3_stats::{FeatureMatrix, TableStats};
use ps3_storage::PartitionId;

use crate::allocate::allocate_samples;
use crate::config::ExemplarRule;
use crate::importance::{importance_groups, ImportanceSource};
use crate::outlier::find_outliers;
use crate::train::TrainedPs3;

/// The picker's output: the weighted selection plus diagnostics the
/// evaluation (Tables 5, Figure 4) reads.
#[derive(Debug, Clone)]
pub struct PickOutcome {
    /// Weighted partition choices; weights of exemplars equal their cluster
    /// sizes, outliers carry weight 1.
    pub selection: Vec<WeightedPart>,
    /// Total picker latency in milliseconds.
    pub total_ms: f64,
    /// Time spent clustering, in milliseconds (Table 5 breaks this out).
    pub clustering_ms: f64,
    /// Importance-group sizes, least important first.
    pub group_sizes: Vec<usize>,
    /// How many outlier partitions were selected.
    pub num_outliers: usize,
    /// `dist_sq` evaluations the pick's k-means fits made, seeding included
    /// (0 for HAC and random sampling): a pure function of the query, the
    /// trained state and the RNG, so it gates clustering cost where
    /// wall-clock cannot.
    pub distance_evals: u64,
}

/// The query-time picker: borrows the trained state and the statistics.
pub struct Picker<'a> {
    /// Trained models + normalizer + config.
    pub trained: &'a TrainedPs3,
    /// Table statistics (bitmaps for outlier detection).
    pub stats: &'a TableStats,
}

impl Picker<'_> {
    /// Run Algorithm 1 over a query's normalized compact feature matrix
    /// (row `p` = partition `p`) and the raw `selectivity_upper` of every
    /// partition — all the filter needs of the raw features — both borrowed
    /// read-only: callers normalize once per query, not per pick. `oracle`
    /// substitutes true contributions for the learned models (Appendix
    /// C.2). Algorithm-3 feature exclusions are applied as a
    /// clustering-time projection instead of rewriting the rows.
    pub fn pick_normalized(
        &self,
        query: &Query,
        selectivity_upper: &[f64],
        normalized: &FeatureMatrix,
        budget: usize,
        rng: &mut StdRng,
        oracle: Option<&[f64]>,
    ) -> PickOutcome {
        let start = Instant::now();
        let cfg = &self.trained.config;
        let n_parts = selectivity_upper.len();
        let budget = budget.min(n_parts);

        // Selectivity filter: perfect recall, so dropping upper == 0 is safe.
        let candidates: Vec<usize> = if cfg.use_filter {
            (0..n_parts)
                .filter(|&p| selectivity_upper[p] > 0.0)
                .collect()
        } else {
            (0..n_parts).collect()
        };

        let mut selection: Vec<WeightedPart> = Vec::with_capacity(budget);

        // Outliers (§4.4): weight 1, capped at outlier_budget_frac · budget.
        let mut chosen_outliers: Vec<usize> = Vec::new();
        if cfg.use_outliers && !query.group_by.is_empty() && budget > 0 {
            let cap = (cfg.outlier_budget_frac * budget as f64).floor() as usize;
            if cap > 0 {
                let outliers = find_outliers(
                    self.stats,
                    &query.group_by,
                    &candidates,
                    cfg.outlier_abs_limit,
                    cfg.outlier_rel_limit,
                );
                chosen_outliers = outliers.into_iter().take(cap).collect();
                for &p in &chosen_outliers {
                    selection.push(WeightedPart {
                        partition: PartitionId(p),
                        weight: 1.0,
                    });
                }
            }
        }
        let taken: HashSet<usize> = chosen_outliers.iter().copied().collect();
        let inliers: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|p| !taken.contains(p))
            .collect();
        let rest_budget = budget - chosen_outliers.len();

        // Importance funnel (Algorithm 2) — reads the normalized rows.
        let groups: Vec<Vec<usize>> = if cfg.use_regressors {
            let source = match oracle {
                Some(contributions) => ImportanceSource::Oracle {
                    contributions,
                    thresholds: &self.trained.thresholds,
                },
                None => ImportanceSource::Learned(&self.trained.models),
            };
            importance_groups(&inliers, normalized, &source)
        } else {
            vec![inliers]
        };
        let group_sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let alloc = allocate_samples(&group_sizes, rest_budget, cfg.alpha);

        // Clustering fallback: very complex predicates make the features
        // unrepresentative (Appendix B.1).
        let clause_count = query.predicate.as_ref().map_or(0, |p| p.clause_count());
        let cluster_ok = cfg.use_clustering && clause_count <= cfg.fallback_clause_limit;

        // Algorithm-3 feature exclusions apply only to clustering (the
        // funnel wants the full vectors): they are projected away inside
        // `cluster_select` via the precomputed dimension mask, which is
        // distance-identical to the old row-zeroing without touching rows.
        let excluded_dims: &[bool] = if cluster_ok {
            &self.trained.excluded_dims
        } else {
            &[]
        };

        let mut clustering_ms = 0.0;
        let mut distance_evals = 0u64;
        for (group, &k) in groups.iter().zip(&alloc) {
            if k == 0 || group.is_empty() {
                continue;
            }
            if k >= group.len() {
                for &p in group {
                    selection.push(WeightedPart {
                        partition: PartitionId(p),
                        weight: 1.0,
                    });
                }
            } else if cluster_ok {
                let t = Instant::now();
                let (picks, evals) = cluster_select(
                    group,
                    normalized,
                    excluded_dims,
                    k,
                    cfg.cluster_algo,
                    cfg.estimator,
                    rng,
                );
                clustering_ms += t.elapsed().as_secs_f64() * 1e3;
                distance_evals += evals;
                selection.extend(picks);
            } else {
                let mut pool = group.clone();
                pool.shuffle(rng);
                pool.truncate(k);
                let w = group.len() as f64 / k as f64;
                for p in pool {
                    selection.push(WeightedPart {
                        partition: PartitionId(p),
                        weight: w,
                    });
                }
            }
        }

        PickOutcome {
            selection,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
            clustering_ms,
            group_sizes,
            num_outliers: chosen_outliers.len(),
            distance_evals,
        }
    }
}

/// Cluster one importance group into `k` clusters and emit one weighted
/// exemplar per cluster (§4.2), with the `dist_sq` evaluations the
/// clustering spent (see [`cluster`]).
///
/// The group's rows are projected into one flat [`PointMatrix`] — the only
/// copy between the gathered features and k-means — keeping, in ascending
/// order, the stored columns that are not `excluded` (the Algorithm-3
/// feature exclusions, indexed by *full* feature index; pass `&[]` for none)
/// and are non-zero somewhere in the group. A column that is zero across the
/// group, like one the query mask never stored, adds exactly 0.0 to every
/// distance, so dropping it changes no distance. This is the one place
/// dimensions are pruned; [`cluster`] takes the matrix as given.
pub fn cluster_select(
    group: &[usize],
    features: &FeatureMatrix,
    excluded: &[bool],
    k: usize,
    algo: ClusterAlgo,
    estimator: ExemplarRule,
    rng: &mut StdRng,
) -> (Vec<WeightedPart>, u64) {
    // NaN != 0.0, so NaN-carrying columns are always kept.
    let mut nonzero = vec![false; features.width()];
    for &p in group {
        for (seen, &x) in nonzero.iter_mut().zip(features.row(p)) {
            *seen |= x != 0.0;
        }
    }
    let live: Vec<usize> = (features.cols().iter().zip(&nonzero).enumerate())
        .filter(|(_, (&full, &seen))| seen && !excluded.get(full).copied().unwrap_or(false))
        .map(|(slot, _)| slot)
        .collect();
    let mut data = Vec::with_capacity(group.len() * live.len());
    for &p in group {
        let row = features.row(p);
        data.extend(live.iter().map(|&slot| row[slot]));
    }
    let points = PointMatrix::from_flat(data, group.len(), live.len());
    let (clusters, evals) = cluster(&points, k, algo, rng);
    let picks = clusters
        .iter()
        .map(|members| {
            let local = match estimator {
                ExemplarRule::Median => median_exemplar(&points, members),
                ExemplarRule::Random => random_exemplar(members, rng),
            };
            WeightedPart {
                partition: PartitionId(group[local]),
                weight: members.len() as f64,
            }
        })
        .collect();
    (picks, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cluster_select_weights_sum_to_group_size() {
        // 12 partitions in two obvious feature blobs.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                vec![
                    if i < 6 { 0.0 } else { 100.0 },
                    f64::from(i % 6) * 0.01,
                    0.0,
                ]
            })
            .collect();
        let rows = FeatureMatrix::from_dense(&rows);
        let group: Vec<usize> = (0..12).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let (picks, _) = cluster_select(
            &group,
            &rows,
            &[],
            2,
            ClusterAlgo::KMeans,
            ExemplarRule::Median,
            &mut rng,
        );
        assert_eq!(picks.len(), 2);
        let total: f64 = picks.iter().map(|p| p.weight).sum();
        assert_eq!(total, 12.0);
        // One exemplar from each blob.
        let sides: HashSet<bool> = picks.iter().map(|p| p.partition.index() < 6).collect();
        assert_eq!(sides.len(), 2);
    }

    /// A budget of k clusters over distinct points is spent in full: an
    /// emptied cluster is reseeded, never dropped, so exactly k exemplars
    /// come back — at a group size past anything the Tiny tables reach.
    #[test]
    fn cluster_select_spends_its_whole_budget() {
        // 600 distinct rows in 12 loose clumps, far fewer than the budget.
        let rows: Vec<Vec<f64>> = (0..600u32)
            .map(|i| {
                vec![
                    f64::from(i % 12) * 3.0 + f64::from(i * 37 % 101) * 0.01,
                    f64::from(i % 4) * 5.0 + f64::from(i) * 0.001,
                    f64::from(i * 17 % 29) * 0.05,
                ]
            })
            .collect();
        let rows = FeatureMatrix::from_dense(&rows);
        let group: Vec<usize> = (0..600).collect();
        for seed in 0..8 {
            let (picks, _) = cluster_select(
                &group,
                &rows,
                &[],
                60,
                ClusterAlgo::KMeans,
                ExemplarRule::Median,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(picks.len(), 60, "seed {seed}: budget under-spent");
            let total: f64 = picks.iter().map(|p| p.weight).sum();
            assert_eq!(total, 600.0, "seed {seed}");
        }
    }

    /// Algorithm 1 on a trained system's own compact features, through to
    /// k-means. Under `PS3_STRICT_KERNELS=1` (a CI step runs this module
    /// that way) every `kmeans_fit` reached here re-asserts kernel = oracle
    /// on the flat matrix the group projection built.
    #[test]
    fn trained_picker_clusters_its_compact_features() {
        let system = crate::system::tests::system_of(160);
        let q = Query::new(vec![ps3_query::AggExpr::count()], None, vec![]);
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = system.pick_outcome(&q, 0.25, &mut rng);
            assert!(
                out.clustering_ms > 0.0,
                "seed {seed}: nothing was clustered"
            );
            let total: f64 = out.selection.iter().map(|p| p.weight).sum();
            assert_eq!(total, 16.0, "seed {seed}: weights must cover the table");
            assert!(out.selection.len() <= 4);
        }
    }

    /// A column that is zero across the group — stored or masked out —
    /// never reaches k-means and never changes a pick.
    #[test]
    fn zero_columns_are_projected_away_without_changing_picks() {
        let live: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                vec![
                    f64::from(i % 2) * 10.0 + f64::from(i) * 0.01,
                    f64::from(i % 5),
                ]
            })
            .collect();
        let padded: Vec<Vec<f64>> = (live.iter())
            .map(|r| vec![0.0, r[0], 0.0, -0.0, r[1], 0.0])
            .collect();
        let group: Vec<usize> = (0..20).collect();
        for algo in [ClusterAlgo::KMeans, ClusterAlgo::HacWard] {
            let picks = |rows: &[Vec<f64>]| -> Vec<(usize, u64)> {
                let mut rng = StdRng::seed_from_u64(9);
                let m = FeatureMatrix::from_dense(rows);
                cluster_select(&group, &m, &[], 4, algo, ExemplarRule::Median, &mut rng)
                    .0
                    .iter()
                    .map(|p| (p.partition.index(), p.weight.to_bits()))
                    .collect()
            };
            assert_eq!(picks(&padded), picks(&live), "{algo:?}");
        }
    }

    #[test]
    fn cluster_select_on_subset_of_partitions() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let rows = FeatureMatrix::from_dense(&rows);
        let group = vec![2, 3, 8, 9];
        let mut rng = StdRng::seed_from_u64(0);
        let (picks, _) = cluster_select(
            &group,
            &rows,
            &[],
            2,
            ClusterAlgo::HacWard,
            ExemplarRule::Median,
            &mut rng,
        );
        // Exemplars must come from the group.
        for p in &picks {
            assert!(group.contains(&p.partition.index()));
        }
        let total: f64 = picks.iter().map(|p| p.weight).sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    fn random_estimator_picks_members() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i)]).collect();
        let rows = FeatureMatrix::from_dense(&rows);
        let group: Vec<usize> = (0..6).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let (picks, _) = cluster_select(
            &group,
            &rows,
            &[],
            3,
            ClusterAlgo::KMeans,
            ExemplarRule::Random,
            &mut rng,
        );
        assert_eq!(picks.len(), 3);
        for p in &picks {
            assert!(p.partition.index() < 6);
        }
    }
}
