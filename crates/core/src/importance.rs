//! The importance funnel (§4.3, Algorithm 2): partitions advance to more
//! important groups only by passing every preceding model, limiting the
//! damage any one inaccurate model can do.

use ps3_learn::{Gbdt, BATCH};
use ps3_stats::FeatureMatrix;

/// Where the funnel's pass/fail decisions come from.
pub enum ImportanceSource<'a> {
    /// Trained regressors: partition passes model i iff prediction > 0.
    Learned(&'a [Gbdt]),
    /// An oracle with perfect precision/recall (Appendix C.2): row `r`
    /// passes model i iff its *true* contribution `contributions[r]`
    /// exceeds threshold i.
    Oracle {
        contributions: &'a [f64],
        thresholds: &'a [f64],
    },
}

/// Sort `rows` (rows of `features`, one per candidate partition) into
/// importance groups, least important first (Algorithm 2). The learned
/// models read a row through the matrix's column map, a masked-out column
/// being `0.0`.
///
/// A candidate is asked the models in order until one fails it, and joins
/// the group of that model (the last group if it passes all `K`). Groups
/// keep the order of `rows`, and each model is asked exactly the
/// candidates that passed every model before it.
///
/// The learned funnel runs model-major: each model is resolved against the
/// matrix's column map once ([`Gbdt::resolve`]) and walks the candidates
/// still in, [`BATCH`] at a time. Under `PS3_STRICT_KERNELS=1` every call
/// re-runs the per-candidate walk through [`Gbdt::predict_with`] and
/// asserts the same groups.
pub fn importance_groups(
    rows: &[usize],
    features: &FeatureMatrix,
    source: &ImportanceSource<'_>,
) -> Vec<Vec<usize>> {
    match source {
        ImportanceSource::Learned(models) => {
            let groups = learned_groups(rows, features, models);
            if ps3_runtime::strict_kernels() {
                assert_eq!(
                    groups,
                    walked_groups(rows, features, models),
                    "strict kernels: the model-major funnel diverged from the per-row walk"
                );
            }
            groups
        }
        ImportanceSource::Oracle {
            contributions,
            thresholds,
        } => {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); thresholds.len() + 1];
            for &r in rows {
                let first_failed = (thresholds.iter())
                    .take_while(|&&t| contributions[r] > t)
                    .count();
                groups[first_failed].push(r);
            }
            groups
        }
    }
}

/// The learned funnel, model by model: model `i` walks the rows that
/// passed models `0..i`, in order, [`BATCH`] at a time (a short last batch
/// repeats its last row and ignores the copies).
fn learned_groups(rows: &[usize], features: &FeatureMatrix, models: &[Gbdt]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); models.len() + 1];
    let mut alive = rows.to_vec();
    let mut passed = Vec::with_capacity(rows.len());
    for (model, failed) in models.iter().zip(&mut groups) {
        let model = model.resolve(|f| features.slot(f));
        for batch in alive.chunks(BATCH) {
            let last = batch.len() - 1;
            let batch_rows = std::array::from_fn(|j| features.row(batch[j.min(last)]));
            let preds = model.predict_batch(&batch_rows);
            for (&r, pred) in batch.iter().zip(preds) {
                if pred > 0.0 {
                    passed.push(r);
                } else {
                    failed.push(r);
                }
            }
        }
        std::mem::swap(&mut alive, &mut passed);
        passed.clear();
    }
    groups[models.len()] = alive;
    groups
}

/// The funnel's specification, one candidate at a time: each row asked
/// the models in order through [`Gbdt::predict_with`] and the column map
/// until one fails it. [`importance_groups`] is held to it in strict mode
/// and by the tests.
fn walked_groups(rows: &[usize], features: &FeatureMatrix, models: &[Gbdt]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); models.len() + 1];
    for &r in rows {
        let first_failed = (models.iter())
            .take_while(|m| m.predict_with(|f| features.feature(r, f)) > 0.0)
            .count();
        groups[first_failed].push(r);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ps3_learn::{NodeSpec, Tree};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A value a row or a threshold may hold: NaN of both signs, ±0.0,
    /// ±∞, two values shared between rows and thresholds, or a draw.
    fn edge_value(rng: &mut StdRng) -> f64 {
        const EDGES: [f64; 8] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            -1.0,
        ];
        if rng.gen_bool(0.6) {
            EDGES[rng.gen_range(0..EDGES.len())]
        } else {
            rng.gen_range(-2.0..2.0)
        }
    }

    /// A random tree over features `0..dim` in persisted pre-order: a leaf
    /// at every depth up to `MAX_DEPTH`, leaf weights whose sums round
    /// differently in another order.
    fn random_tree(rng: &mut StdRng, dim: usize) -> Tree {
        fn grow(rng: &mut StdRng, dim: usize, depth: usize, nodes: &mut Vec<NodeSpec>) -> usize {
            let idx = nodes.len();
            if depth == ps3_learn::tree::MAX_DEPTH || rng.gen_bool(0.3) {
                const WEIGHTS: [f64; 6] = [1e17, -1e17, 0.3, -0.7, 1e-3, 2.5];
                let value = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
                nodes.push(NodeSpec::Leaf { value });
                return idx;
            }
            nodes.push(NodeSpec::Leaf { value: 0.0 });
            let left = grow(rng, dim, depth + 1, nodes);
            let right = grow(rng, dim, depth + 1, nodes);
            nodes[idx] = NodeSpec::Split {
                feature: rng.gen_range(0..dim),
                threshold: edge_value(rng),
                left,
                right,
            };
            idx
        }
        let mut nodes = Vec::new();
        grow(rng, dim, 0, &mut nodes);
        Tree::from_nodes(nodes, dim).expect("a well-formed tree")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The model-major funnel is the per-row walk: every resolved
        /// prediction has `Gbdt::predict_with`'s bits through the column
        /// map, and the groups hold the same rows in the same order. The
        /// trees are 0–4 deep with leaves at every depth and split on
        /// columns the matrix does not store; rows and thresholds hold NaN
        /// of both signs, ±0.0 and ±∞.
        #[test]
        fn model_major_funnel_is_the_per_row_walk(
            seed in any::<u64>(),
            dim in 1usize..10,
            n in 0usize..40,
            models in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<usize> = (0..dim).filter(|_| rng.gen_bool(0.6)).collect();
            let data: Vec<f64> = (0..n * cols.len()).map(|_| edge_value(&mut rng)).collect();
            let features = FeatureMatrix::new(cols, dim, n, data);
            let models: Vec<Gbdt> = (0..models)
                .map(|_| {
                    let count = rng.gen_range(0..6);
                    let trees = (0..count).map(|_| random_tree(&mut rng, dim)).collect();
                    let base = rng.gen_range(-1.0..1.0);
                    Gbdt::from_raw_parts(trees, base, vec![0.0; dim])
                })
                .collect();
            let mut rows: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.8)).collect();
            rows.shuffle(&mut rng);

            for model in &models {
                let resolved = model.resolve(|f| features.slot(f));
                for batch in rows.chunks(BATCH) {
                    let at = std::array::from_fn(|j| features.row(batch[j.min(batch.len() - 1)]));
                    let preds = resolved.predict_batch(&at);
                    for (&r, pred) in batch.iter().zip(preds) {
                        let walked = model.predict_with(|f| features.feature(r, f));
                        prop_assert_eq!(pred.to_bits(), walked.to_bits(), "row {}", r);
                    }
                }
            }
            prop_assert_eq!(
                learned_groups(&rows, &features, &models),
                walked_groups(&rows, &features, &models)
            );
        }
    }

    #[test]
    fn oracle_funnel_partitions_by_threshold() {
        let contributions = vec![0.0, 0.005, 0.05, 0.5, 0.9];
        let thresholds = vec![0.0, 0.01, 0.1];
        let candidates: Vec<usize> = (0..5).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &contributions,
                thresholds: &thresholds,
            },
        );
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0]); // fails c > 0
        assert_eq!(groups[1], vec![1]); // passes c>0, fails c>0.01
        assert_eq!(groups[2], vec![2]); // passes c>0.01, fails c>0.1
        assert_eq!(groups[3], vec![3, 4]); // passes everything
    }

    #[test]
    fn groups_partition_the_candidates() {
        let contributions = vec![0.3; 10];
        let thresholds = vec![0.1, 0.2, 0.5];
        let candidates: Vec<usize> = (0..10).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &contributions,
                thresholds: &thresholds,
            },
        );
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, candidates);
        // Everything passes thresholds 0.1 and 0.2 but fails 0.5.
        assert!(groups[0].is_empty());
        assert!(groups[1].is_empty());
        assert_eq!(groups[2].len(), 10);
        assert!(groups[3].is_empty());
    }

    #[test]
    fn learned_funnel_uses_prediction_sign() {
        // A model trained on an obvious signal: label +1 for feature > 50.
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<f64> = (0..100).map(|i| if i > 50 { 1.0 } else { -1.0 }).collect();
        let model = ps3_learn::Gbdt::train(
            &data,
            &labels,
            &ps3_learn::GbdtParams {
                colsample: 1.0,
                ..Default::default()
            },
        );
        let candidates: Vec<usize> = (0..100).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&data),
            &ImportanceSource::Learned(&[model]),
        );
        assert_eq!(groups.len(), 2);
        assert!(
            groups[1].iter().all(|&p| p > 45),
            "picked group has small rows"
        );
        assert!(groups[1].len() > 40);
    }

    #[test]
    fn empty_candidates() {
        let groups = importance_groups(
            &[],
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &[],
                thresholds: &[0.0],
            },
        );
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(Vec::is_empty));
    }
}
