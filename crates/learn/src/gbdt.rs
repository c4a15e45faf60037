//! The boosting loop: squared-error gradient boosting with shrinkage, row
//! and column subsampling, and gain-based feature importance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binner::Binner;
use crate::tree::{SplitRecord, Tree, TreeParams};

/// Training hyperparameters, defaulting to values that behave like a small
/// XGBoost configuration at PS3's data scale (hundreds of partitions × a few
/// hundred features).
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Shrinkage η.
    pub learning_rate: f64,
    /// L2 regularization λ.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Quantile bins per feature (≤ 256).
    pub max_bins: usize,
    /// Fraction of rows sampled per tree.
    pub subsample: f64,
    /// Fraction of features sampled per tree.
    pub colsample: f64,
    /// RNG seed for the subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_trees: 40,
            max_depth: 4,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            max_bins: 64,
            subsample: 1.0,
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
    learning_rate: f64,
    /// Accumulated split gain per feature — XGBoost's "gain" importance [9].
    importance: Vec<f64>,
}

impl Gbdt {
    /// Train on row-major `data` with squared-error loss against `labels`.
    ///
    /// # Panics
    /// Panics on empty data or a row-count mismatch.
    pub fn train(data: &[Vec<f64>], labels: &[f64], params: &GbdtParams) -> Self {
        assert!(!data.is_empty(), "empty training set");
        assert_eq!(data.len(), labels.len(), "row/label count mismatch");
        let n = data.len();
        let num_features = data[0].len();

        let binner = Binner::fit(data, params.max_bins);
        let binned = binner.bin_dataset(data);

        let base = labels.iter().sum::<f64>() / n as f64;
        let mut preds = vec![base; n];
        let mut rng = StdRng::seed_from_u64(params.seed);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };

        let all_rows: Vec<u32> = (0..n as u32).collect();
        let all_features: Vec<usize> = (0..num_features).collect();
        let hess = vec![1.0; n];
        let mut grad = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut importance = vec![0.0; num_features];
        let mut splits: Vec<SplitRecord> = Vec::new();

        for _ in 0..params.n_trees {
            for i in 0..n {
                grad[i] = preds[i] - labels[i];
            }
            let rows: Vec<u32> = if params.subsample < 1.0 {
                let take = ((n as f64 * params.subsample) as usize).max(2).min(n);
                let mut shuffled = all_rows.clone();
                shuffled.shuffle(&mut rng);
                shuffled.truncate(take);
                shuffled
            } else {
                all_rows.clone()
            };
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
            let tree = Tree::grow(
                &binned,
                &binner,
                &grad,
                &hess,
                &rows,
                &features,
                &tree_params,
                &mut splits,
            );
            if splits.is_empty() {
                // Residuals have no splittable structure left; further
                // rounds would only re-fit the same constant.
                break;
            }
            for s in &splits {
                importance[s.feature] += s.gain;
            }
            for (i, row) in data.iter().enumerate() {
                preds[i] += params.learning_rate * tree.predict_row(row);
            }
            trees.push(tree);
        }

        Self {
            trees,
            base,
            learning_rate: params.learning_rate,
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
            p += self.learning_rate * t.predict_with(&value_of);
        }
        p
    }

    /// Predict many rows.
    pub fn predict(&self, data: &[Vec<f64>]) -> Vec<f64> {
        data.iter().map(|r| self.predict_row(r)).collect()
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

    /// The shrinkage applied per tree at prediction time.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Reassemble a model from persisted parts. Trees are assumed already
    /// validated via [`Tree::from_nodes`]; `importance` fixes the feature
    /// width (one slot per feature).
    pub fn from_raw_parts(
        trees: Vec<Tree>,
        base: f64,
        learning_rate: f64,
        importance: Vec<f64>,
    ) -> Self {
        Self {
            trees,
            base,
            learning_rate,
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
            max_depth: 3,
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
        let params = GbdtParams {
            subsample: 0.7,
            colsample: 1.0,
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
