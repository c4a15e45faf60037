//! A single regression tree grown with XGBoost's exact gain criterion over
//! binned features.

use crate::binner::Binner;

/// Regularization and stopping parameters used while growing a tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
}

/// A flattened binary tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Raw-value threshold: rows with `x <= threshold` go left.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// One recorded split, for feature-importance accounting.
#[derive(Debug, Clone, Copy)]
pub struct SplitRecord {
    /// The split feature.
    pub feature: usize,
    /// Its gain.
    pub gain: f64,
}

impl Tree {
    /// Grow a tree on binned columns.
    ///
    /// * `binned` — column-major `[feature][row]` bins from a [`Binner`].
    /// * `grad`/`hess` — per-row gradient/hessian of the loss.
    /// * `rows` — indices of the rows this tree trains on (subsampling).
    /// * `features` — candidate feature indices (column subsampling).
    ///
    /// Records every accepted split in `splits` (for importance).
    #[allow(clippy::too_many_arguments)]
    pub fn grow(
        binned: &[Vec<u8>],
        binner: &Binner,
        grad: &[f64],
        hess: &[f64],
        rows: &[u32],
        features: &[usize],
        params: &TreeParams,
        splits: &mut Vec<SplitRecord>,
    ) -> Self {
        let mut nodes = Vec::new();
        let mut tree = Tree { nodes: Vec::new() };
        build_node(
            binned, binner, grad, hess, rows, features, params, 0, &mut nodes, splits,
        );
        tree.nodes = nodes;
        tree
    }

    /// Predict on a raw (un-binned) feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_with(|feature| row[feature])
    }

    /// Predict on a row read through `value_of(feature index)` — how a
    /// compact row is walked through its column map (a masked-out column
    /// reads `0.0`) without expanding it.
    #[inline]
    pub fn predict_with(&self, value_of: impl Fn(usize) -> f64) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if value_of(*feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The flattened nodes, for persistence.
    pub fn nodes_spec(&self) -> Vec<NodeSpec> {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { value } => NodeSpec::Leaf { value: *value },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeSpec::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }

    /// Rebuild a tree from persisted nodes, validating every structural
    /// invariant [`predict_row`](Self::predict_row) relies on.
    ///
    /// `grow` appends children strictly after their parent, so a well-formed
    /// tree has `left > parent` and `right > parent` for every split —
    /// which also guarantees traversal terminates. Split features must index
    /// into a `num_features`-wide row. Violations (a corrupt or adversarial
    /// artifact) return an error instead of risking a panic or an infinite
    /// prediction loop.
    pub fn from_nodes(nodes: Vec<NodeSpec>, num_features: usize) -> Result<Self, &'static str> {
        if nodes.is_empty() {
            return Err("tree has no nodes");
        }
        for (i, n) in nodes.iter().enumerate() {
            if let NodeSpec::Split {
                feature,
                left,
                right,
                ..
            } = n
            {
                if *feature >= num_features {
                    return Err("split feature out of range");
                }
                if *left <= i || *left >= nodes.len() || *right <= i || *right >= nodes.len() {
                    return Err("split child index out of range");
                }
            }
        }
        Ok(Self {
            nodes: nodes
                .into_iter()
                .map(|n| match n {
                    NodeSpec::Leaf { value } => Node::Leaf { value },
                    NodeSpec::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    },
                })
                .collect(),
        })
    }
}

/// A tree node in persistable form — the exact state of the private node
/// array, exposed for `ps3_core`'s artifact codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSpec {
    /// A leaf carrying its prediction value.
    Leaf {
        /// The leaf weight.
        value: f64,
    },
    /// An internal split.
    Split {
        /// Feature index the split tests.
        feature: usize,
        /// Rows with `x <= threshold` go left.
        threshold: f64,
        /// Index of the left child (always greater than this node's index).
        left: usize,
        /// Index of the right child (always greater than this node's index).
        right: usize,
    },
}

/// Recursively build the node for `rows`, returning its index.
#[allow(clippy::too_many_arguments)]
fn build_node(
    binned: &[Vec<u8>],
    binner: &Binner,
    grad: &[f64],
    hess: &[f64],
    rows: &[u32],
    features: &[usize],
    params: &TreeParams,
    depth: usize,
    nodes: &mut Vec<Node>,
    splits: &mut Vec<SplitRecord>,
) -> usize {
    let g: f64 = rows.iter().map(|&r| grad[r as usize]).sum();
    let h: f64 = rows.iter().map(|&r| hess[r as usize]).sum();

    let leaf = |nodes: &mut Vec<Node>| {
        let idx = nodes.len();
        nodes.push(Node::Leaf {
            value: -g / (h + params.lambda),
        });
        idx
    };

    if depth >= params.max_depth || rows.len() < 2 || h < 2.0 * params.min_child_weight {
        return leaf(nodes);
    }

    // Histogram split search.
    let parent_score = g * g / (h + params.lambda);
    let mut best: Option<(f64, usize, u8)> = None; // (gain, feature, bin)
    let mut hist_g = [0.0f64; 256];
    let mut hist_h = [0.0f64; 256];
    for &f in features {
        let nbins = binner.bins(f);
        if nbins < 2 {
            continue;
        }
        hist_g[..nbins].fill(0.0);
        hist_h[..nbins].fill(0.0);
        let col = &binned[f];
        for &r in rows {
            let b = usize::from(col[r as usize]);
            hist_g[b] += grad[r as usize];
            hist_h[b] += hess[r as usize];
        }
        let mut gl = 0.0;
        let mut hl = 0.0;
        // Split after bin b: left = bins 0..=b.
        for b in 0..nbins - 1 {
            gl += hist_g[b];
            hl += hist_h[b];
            let gr = g - gl;
            let hr = h - hl;
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score)
                - params.gamma;
            if gain > best.map_or(0.0, |(g, _, _)| g) {
                best = Some((gain, f, b as u8));
            }
        }
    }

    let Some((gain, feature, bin)) = best else {
        return leaf(nodes);
    };

    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = rows
        .iter()
        .partition(|&&r| binned[feature][r as usize] <= bin);
    if left_rows.is_empty() || right_rows.is_empty() {
        return leaf(nodes);
    }
    splits.push(SplitRecord { feature, gain });

    let idx = nodes.len();
    nodes.push(Node::Leaf { value: 0.0 }); // placeholder; patched below
    let left = build_node(
        binned,
        binner,
        grad,
        hess,
        &left_rows,
        features,
        params,
        depth + 1,
        nodes,
        splits,
    );
    let right = build_node(
        binned,
        binner,
        grad,
        hess,
        &right_rows,
        features,
        params,
        depth + 1,
        nodes,
        splits,
    );
    nodes[idx] = Node::Split {
        feature,
        threshold: binner.threshold(feature, bin),
        left,
        right,
    };
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_params() -> TreeParams {
        TreeParams {
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }

    /// Squared loss at prediction 0: grad = −y, hess = 1.
    fn grad_hess(ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (ys.iter().map(|&y| -y).collect(), vec![1.0; ys.len()])
    }

    #[test]
    fn learns_a_step_function() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let binner = Binner::fit(&data, 64);
        let binned = binner.bin_dataset(&data);
        let (g, h) = grad_hess(&ys);
        let rows: Vec<u32> = (0..100).collect();
        let mut splits = Vec::new();
        let tree = Tree::grow(
            &binned,
            &binner,
            &g,
            &h,
            &rows,
            &[0],
            &default_params(),
            &mut splits,
        );
        assert!(!splits.is_empty());
        assert!(tree.predict_row(&[10.0]) < 1.0);
        assert!(tree.predict_row(&[90.0]) > 9.0);
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let data: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let ys = vec![3.0; 50];
        let binner = Binner::fit(&data, 32);
        let binned = binner.bin_dataset(&data);
        let (g, h) = grad_hess(&ys);
        let rows: Vec<u32> = (0..50).collect();
        let mut splits = Vec::new();
        let tree = Tree::grow(
            &binned,
            &binner,
            &g,
            &h,
            &rows,
            &[0],
            &default_params(),
            &mut splits,
        );
        assert!(splits.is_empty());
        assert_eq!(tree.num_nodes(), 1);
        // Leaf value shrinks toward 0 by λ: 50·3/(50+1).
        let expect = 150.0 / 51.0;
        assert!((tree.predict_row(&[25.0]) - expect).abs() < 1e-9);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise-free signal; feature 1 is constant.
        let data: Vec<Vec<f64>> = (0..80).map(|i| vec![f64::from(i % 2), 7.0]).collect();
        let ys: Vec<f64> = (0..80).map(|i| f64::from(i % 2) * 4.0).collect();
        let binner = Binner::fit(&data, 8);
        let binned = binner.bin_dataset(&data);
        let (g, h) = grad_hess(&ys);
        let rows: Vec<u32> = (0..80).collect();
        let mut splits = Vec::new();
        let tree = Tree::grow(
            &binned,
            &binner,
            &g,
            &h,
            &rows,
            &[0, 1],
            &default_params(),
            &mut splits,
        );
        assert!(splits.iter().all(|s| s.feature == 0));
        assert!(tree.predict_row(&[1.0, 7.0]) > tree.predict_row(&[0.0, 7.0]));
    }

    #[test]
    fn depth_limit_respected() {
        let data: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..64).map(f64::from).collect();
        let binner = Binner::fit(&data, 64);
        let binned = binner.bin_dataset(&data);
        let (g, h) = grad_hess(&ys);
        let rows: Vec<u32> = (0..64).collect();
        let mut splits = Vec::new();
        let params = TreeParams {
            max_depth: 1,
            ..default_params()
        };
        let tree = Tree::grow(&binned, &binner, &g, &h, &rows, &[0], &params, &mut splits);
        // Depth 1 = one split, two leaves.
        assert_eq!(tree.num_nodes(), 3);
        assert_eq!(splits.len(), 1);
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let data: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        // Barely-informative labels.
        let ys: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 0.01 }).collect();
        let binner = Binner::fit(&data, 32);
        let binned = binner.bin_dataset(&data);
        let (g, h) = grad_hess(&ys);
        let rows: Vec<u32> = (0..40).collect();
        let mut splits = Vec::new();
        let params = TreeParams {
            gamma: 10.0,
            ..default_params()
        };
        let tree = Tree::grow(&binned, &binner, &g, &h, &rows, &[0], &params, &mut splits);
        assert_eq!(tree.num_nodes(), 1, "gamma should veto the split");
    }
}
