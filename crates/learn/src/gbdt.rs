//! The boosting loop: squared-error gradient boosting with shrinkage,
//! column subsampling, and gain-based feature importance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binner::BinnedSet;
use crate::tree::{SplitRecord, Tree};

/// Shrinkage η applied to every tree, in training and at prediction time.
pub const LEARNING_RATE: f64 = 0.2;

/// Quantile bins per feature that [`Gbdt::train`] fits, and that training
/// bins a workload with (`ps3_core::bin_workload`).
pub const MAX_BINS: usize = 64;

/// The training values a caller chooses. Everything else — depth,
/// regularization, shrinkage, bins — is fixed at values that behave like a
/// small XGBoost configuration at PS3's data scale (hundreds of partitions
/// × a few hundred features): [`LEARNING_RATE`], [`MAX_BINS`] and the tree
/// constants in [`crate::tree`].
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Fraction of features sampled per tree.
    pub colsample: f64,
    /// RNG seed for the column subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_trees: 40,
            colsample: 0.8,
            seed: 0,
        }
    }
}

/// A trained gradient-boosted model.
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<Tree>,
    base: f64,
    /// Accumulated split gain per feature — XGBoost's "gain" importance [9].
    importance: Vec<f64>,
}

impl Gbdt {
    /// Train on row-major `data` with squared-error loss against `labels`:
    /// bin `data` into a [`BinnedSet`], then [`Self::train_binned`].
    ///
    /// # Panics
    /// Panics on empty data or a row-count mismatch.
    pub fn train(data: &[Vec<f64>], labels: &[f64], params: &GbdtParams) -> Self {
        Self::train_binned(&BinnedSet::from_rows(data, MAX_BINS), labels, params)
    }

    /// Train on a binned training set with squared-error loss against
    /// `labels` (one per row of `set`). Models trained on the same rows
    /// share one `set`: it is all training reads, since each round's
    /// predictions of the training rows are made in bin space.
    ///
    /// # Panics
    /// Panics on an empty set or a row-count mismatch.
    pub fn train_binned(set: &BinnedSet, labels: &[f64], params: &GbdtParams) -> Self {
        let n = set.num_rows();
        assert!(n > 0, "empty training set");
        assert_eq!(n, labels.len(), "row/label count mismatch");
        let num_features = set.num_features();

        let base = labels.iter().sum::<f64>() / n as f64;
        let mut preds = vec![base; n];
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Every tree trains on every row.
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let all_features: Vec<usize> = (0..num_features).collect();
        let mut grad = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut importance = vec![0.0; num_features];
        let mut splits: Vec<SplitRecord> = Vec::new();

        for _ in 0..params.n_trees {
            for i in 0..n {
                grad[i] = preds[i] - labels[i];
            }
            // Drawn over every feature, single-bin ones included, so the
            // RNG stream is independent of the binning.
            let features: Vec<usize> = if params.colsample < 1.0 {
                let take = ((num_features as f64 * params.colsample) as usize)
                    .max(1)
                    .min(num_features);
                let mut shuffled = all_features.clone();
                shuffled.shuffle(&mut rng);
                shuffled.truncate(take);
                shuffled
            } else {
                all_features.clone()
            };

            splits.clear();
            let tree = Tree::grow(set, &grad, &all_rows, &features, &mut splits);
            if splits.is_empty() {
                // Residuals have no splittable structure left; further
                // rounds would only re-fit the same constant.
                break;
            }
            for s in &splits {
                importance[s.feature] += s.gain;
            }
            tree.add_binned_predictions(set, LEARNING_RATE, &mut preds);
            trees.push(tree);
        }

        Self {
            trees,
            base,
            importance,
        }
    }

    /// Predict one raw feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_with(|feature| row[feature])
    }

    /// Predict one row read through `value_of(feature index)`; see
    /// [`Tree::predict_with`].
    pub fn predict_with(&self, value_of: impl Fn(usize) -> f64) -> f64 {
        let mut p = self.base;
        for t in &self.trees {
            p += LEARNING_RATE * t.predict_with(&value_of);
        }
        p
    }

    /// Gain-based feature importance (unnormalized; index = feature).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of trees actually grown.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The trees, for persistence.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The base (mean-label) prediction.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Reassemble a model from persisted parts. Trees are assumed already
    /// validated via [`Tree::from_nodes`]; `importance` fixes the feature
    /// width (one slot per feature).
    pub fn from_raw_parts(trees: Vec<Tree>, base: f64, importance: Vec<f64>) -> Self {
        Self {
            trees,
            base,
            importance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10·(x0 > 0.5 XOR x1 > 0.5) — needs depth ≥ 2 interactions.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            let x0 = f64::from(i % 20) / 20.0;
            let x1 = f64::from(i / 20) / 20.0;
            let y = if (x0 > 0.5) != (x1 > 0.5) { 10.0 } else { 0.0 };
            data.push(vec![x0, x1]);
            labels.push(y);
        }
        (data, labels)
    }

    #[test]
    fn fits_linear_signal() {
        let data: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<f64> = (0..200).map(|i| 2.0 * f64::from(i) + 5.0).collect();
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        let mse: f64 = data
            .iter()
            .zip(&labels)
            .map(|(r, &y)| (model.predict_row(r) - y).powi(2))
            .sum::<f64>()
            / 200.0;
        // Label variance is ~13,333; the fit must explain almost all of it.
        assert!(mse < 200.0, "mse {mse}");
    }

    #[test]
    fn fits_interactions() {
        let (data, labels) = xor_like();
        // Interactions need both features in every tree.
        let params = GbdtParams {
            n_trees: 60,
            colsample: 1.0,
            ..Default::default()
        };
        let model = Gbdt::train(&data, &labels, &params);
        let correct = data
            .iter()
            .zip(&labels)
            .filter(|(r, &y)| (model.predict_row(r) > 5.0) == (y > 5.0))
            .count();
        assert!(correct > 360, "only {correct}/400 correct");
    }

    #[test]
    fn importance_concentrates_on_signal_features() {
        // Feature 1 carries the signal; features 0 and 2 are noise-free
        // constants.
        let data: Vec<Vec<f64>> = (0..300).map(|i| vec![1.0, f64::from(i), 2.0]).collect();
        let labels: Vec<f64> = (0..300).map(|i| if i > 150 { 1.0 } else { 0.0 }).collect();
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        let imp = model.feature_importance();
        assert!(imp[1] > 0.0);
        assert_eq!(imp[0], 0.0);
        assert_eq!(imp[2], 0.0);
    }

    #[test]
    fn constant_labels_stop_early() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let labels = vec![4.2; 100];
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        assert_eq!(model.num_trees(), 0);
        assert!((model.predict_row(&[7.0]) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, labels) = xor_like();
        // One of the two features per tree, drawn from the seed.
        let params = GbdtParams {
            colsample: 0.5,
            seed: 9,
            ..Default::default()
        };
        let a = Gbdt::train(&data, &labels, &params);
        let b = Gbdt::train(&data, &labels, &params);
        for r in data.iter().take(20) {
            assert_eq!(a.predict_row(r), b.predict_row(r));
        }
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i * 2)]).collect();
        let labels: Vec<f64> = data
            .iter()
            .map(|r| if r[0] > 100.0 { 1.0 } else { -1.0 })
            .collect();
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        // Odd values never seen in training.
        assert!(model.predict_row(&[31.0]) < 0.0);
        assert!(model.predict_row(&[151.0]) > 0.0);
    }
}
