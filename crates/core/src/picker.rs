//! Algorithm 1: the full partition picker.

use std::collections::HashSet;
use std::ops::Range;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use ps3_cluster::{
    cluster, median_exemplar, random_exemplar, ClusterAlgo, MedianScratch, PointMatrix,
};
use ps3_query::{Query, WeightedPart};
use ps3_stats::{FeatureMatrix, TableStats};
use ps3_storage::PartitionId;

use crate::allocate::allocate_samples;
use crate::config::ExemplarRule;
use crate::importance::{importance_groups, ImportanceSource};
use crate::outlier::{find_outliers, OUTLIER_ABS_LIMIT, OUTLIER_BUDGET_FRAC, OUTLIER_REL_LIMIT};
use crate::train::TrainedPs3;

/// Predicates with more clauses than this skip clustering and sample inside
/// importance groups at random: their features no longer describe the
/// partitions well (Appendix B.1).
pub const FALLBACK_CLAUSE_LIMIT: usize = 10;

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
    /// Run Algorithm 1 over the partitions that pass a query's selectivity
    /// filter (`candidates`, ascending; the filter has perfect recall, so
    /// the rest are never read) and their normalized compact feature rows
    /// (row `i` = partition `candidates[i]`), both borrowed read-only.
    /// `budget` is at most the table's partition count. `oracle`
    /// substitutes true contributions, indexed by partition, for the
    /// learned models (Appendix C.2). Algorithm-3 feature exclusions are
    /// applied as a clustering-time projection instead of rewriting the
    /// rows.
    ///
    /// The funnel and clustering work on rows; a partition id is looked up
    /// only when a row joins the selection.
    pub fn pick_normalized(
        &self,
        query: &Query,
        candidates: &[usize],
        normalized: &FeatureMatrix,
        budget: usize,
        rng: &mut StdRng,
        oracle: Option<&[f64]>,
    ) -> PickOutcome {
        let start = Instant::now();
        let cfg = &self.trained.config;
        assert_eq!(
            normalized.num_rows(),
            candidates.len(),
            "one row per candidate"
        );
        let part = |row: usize| PartitionId(candidates[row]);

        let mut selection: Vec<WeightedPart> = Vec::with_capacity(budget);

        // Outliers (§4.4): weight 1, capped at OUTLIER_BUDGET_FRAC · budget.
        let mut chosen_outliers: Vec<usize> = Vec::new();
        if cfg.use_outliers && !query.group_by.is_empty() && budget > 0 {
            let cap = (OUTLIER_BUDGET_FRAC * budget as f64).floor() as usize;
            if cap > 0 {
                let outliers = find_outliers(
                    self.stats,
                    &query.group_by,
                    candidates,
                    OUTLIER_ABS_LIMIT,
                    OUTLIER_REL_LIMIT,
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
        let inliers: Vec<usize> = (0..candidates.len())
            .filter(|&row| !taken.contains(&candidates[row]))
            .collect();
        let rest_budget = budget - chosen_outliers.len();

        // Importance funnel (Algorithm 2) — reads the normalized rows.
        let oracle_rows: Vec<f64>;
        let groups: Vec<Vec<usize>> = if cfg.use_regressors {
            let source = match oracle {
                Some(contributions) => {
                    oracle_rows = candidates.iter().map(|&p| contributions[p]).collect();
                    ImportanceSource::Oracle {
                        contributions: &oracle_rows,
                        thresholds: &self.trained.thresholds,
                    }
                }
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
        let cluster_ok = cfg.use_clustering && clause_count <= FALLBACK_CLAUSE_LIMIT;

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
                for &row in group {
                    selection.push(WeightedPart {
                        partition: part(row),
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
                selection.extend(picks.into_iter().map(|wp| WeightedPart {
                    partition: part(wp.partition.index()),
                    ..wp
                }));
            } else {
                let mut pool = group.clone();
                pool.shuffle(rng);
                pool.truncate(k);
                let w = group.len() as f64 / k as f64;
                for row in pool {
                    selection.push(WeightedPart {
                        partition: part(row),
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

/// Cluster one importance group — `group` lists rows of `features` — into
/// `k` clusters and emit one weighted exemplar per cluster (§4.2), with the
/// `dist_sq` evaluations the clustering spent (see [`cluster`]). Each
/// pick's `partition` is the row it chose: the partition itself where row
/// `p` is partition `p` (training's matrices), a position the caller maps
/// back where the rows are a pick's candidates.
///
/// The group's rows are projected into one flat [`PointMatrix`] — the only
/// copy between the gathered features and k-means — keeping, in ascending
/// order, the stored columns that are not `excluded` (the Algorithm-3
/// feature exclusions, indexed by *full* feature index; pass `&[]` for none)
/// and are non-zero somewhere in the group. A column that is zero across the
/// group, like one the query mask never stored, adds exactly 0.0 to every
/// distance, so dropping it changes no distance. This is the one place
/// dimensions are pruned; [`cluster`] takes the matrix as given. Every
/// median exemplar reuses one [`MedianScratch`].
pub fn cluster_select(
    group: &[usize],
    features: &FeatureMatrix,
    excluded: &[bool],
    k: usize,
    algo: ClusterAlgo,
    estimator: ExemplarRule,
    rng: &mut StdRng,
) -> (Vec<WeightedPart>, u64) {
    let points = project(group, features, excluded);
    let (clusters, evals) = cluster(&points, k, algo, rng);
    let mut scratch = MedianScratch::default();
    let picks = clusters
        .iter()
        .map(|members| {
            let local = match estimator {
                ExemplarRule::Median => median_exemplar(&points, members, &mut scratch),
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

/// The projection [`cluster_select`] describes: one pass over the rows
/// finds the non-zero columns, and the kept columns then form a few runs of
/// adjacent ones, each copied from a row as one slice.
fn project(group: &[usize], features: &FeatureMatrix, excluded: &[bool]) -> PointMatrix {
    // Each column's bits ORed over the group, the sign shifted out: zero
    // exactly when every value is ±0.0 (NaN is not), as `x != 0.0` says,
    // in a pass that vectorizes.
    let mut bits = vec![0u64; features.width()];
    for &p in group {
        for (b, &x) in bits.iter_mut().zip(features.row(p)) {
            *b |= x.to_bits() << 1;
        }
    }
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (slot, (&full, &b)) in features.cols().iter().zip(&bits).enumerate() {
        if b == 0 || excluded.get(full).copied().unwrap_or(false) {
            continue;
        }
        match runs.last_mut() {
            Some(run) if run.end == slot => run.end += 1,
            _ => runs.push(slot..slot + 1),
        }
    }
    let width = runs.iter().map(ExactSizeIterator::len).sum();
    let mut data = Vec::with_capacity(group.len() * width);
    for &p in group {
        let row = features.row(p);
        for run in &runs {
            data.extend_from_slice(&row[run.clone()]);
        }
    }
    PointMatrix::from_flat(data, group.len(), width)
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

    /// The run projection copies what a value-by-value projection of the
    /// live columns copies, bit for bit: a group (a subset of the rows, out
    /// of order) with columns that are zero across it — one of them
    /// non-zero outside the group, one all `-0.0` — between the live runs,
    /// an excluded column inside a run, and NaN kept.
    #[test]
    fn run_projection_is_the_value_by_value_projection() {
        let cols = vec![0, 1, 2, 4, 5, 6, 7, 9, 10, 11];
        let (n, width, full_dim) = (7, cols.len(), 12);
        let data: Vec<f64> = (0..n * width)
            .map(|i| {
                let (row, slot) = (i / width, i % width);
                match slot {
                    2 if row == 1 => 4.0,
                    2 => 0.0,
                    5 => -0.0,
                    8 if row == 3 => f64::NAN,
                    _ => (i as f64 * 0.37).sin(),
                }
            })
            .collect();
        let features = FeatureMatrix::new(cols, full_dim, n, data);
        let mut excluded = vec![false; full_dim];
        excluded[9] = true;
        let group = [4, 0, 2, 6, 3];

        let live: Vec<usize> = (0..width)
            .filter(|&slot| group.iter().any(|&p| features.row(p)[slot] != 0.0))
            .filter(|&slot| !excluded[features.cols()[slot]])
            .collect();
        assert_eq!(
            live,
            [0, 1, 3, 4, 6, 8, 9],
            "the runs this group is built to have"
        );
        let by_value: Vec<u64> = (group.iter())
            .flat_map(|&p| {
                live.iter()
                    .map(|&slot| features.row(p)[slot])
                    .collect::<Vec<_>>()
            })
            .map(f64::to_bits)
            .collect();

        let points = project(&group, &features, &excluded);
        assert_eq!((points.n(), points.dim()), (group.len(), live.len()));
        let by_run: Vec<u64> = (0..points.n())
            .flat_map(|i| points.row(i).to_vec())
            .map(f64::to_bits)
            .collect();
        assert_eq!(by_run, by_value);
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
