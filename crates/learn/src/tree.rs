//! A single regression tree grown with XGBoost's exact gain criterion over
//! binned features.

use std::sync::OnceLock;

use crate::binner::BinnedSet;

/// Maximum tree depth.
pub const MAX_DEPTH: usize = 4;

/// L2 regularization λ on leaf weights and in the split gain.
pub const LAMBDA: f64 = 1.0;

/// Minimum hessian mass per child. The squared loss's hessian is 1 per
/// row, so this is a row count: no child is empty. (There is no minimum
/// split gain, XGBoost's γ: any positive gain splits.)
pub const MIN_CHILD_WEIGHT: f64 = 1.0;

/// A flattened binary tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    /// The same tree as a complete tree of depth [`MAX_DEPTH`], built once
    /// when the tree is grown or thawed, for [`crate::Gbdt::resolve`].
    complete: Complete,
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

/// Splits of a complete binary tree of depth [`MAX_DEPTH`], in heap order
/// (the children of position `i` are `2i + 1` and `2i + 2`), plus one
/// unused slot so that every position has a power-of-two mask.
pub(crate) const SPLITS: usize = 1 << MAX_DEPTH;

/// Leaves of a complete binary tree of depth [`MAX_DEPTH`].
pub(crate) const LEAVES: usize = 1 << MAX_DEPTH;

/// A tree as a complete binary tree of depth [`MAX_DEPTH`]: split `i` sends
/// a row to position `2i + 1` when `x <= threshold` and to `2i + 2`
/// otherwise (NaN goes right), and the positions past the splits are the
/// leaves. A leaf of the grown tree above the bottom level becomes a
/// *pass*, a position whose two subtrees are the same, so every row takes
/// exactly [`MAX_DEPTH`] steps and each step is arithmetic on a compare,
/// not a branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Complete {
    /// The full feature index each split reads, or [`PASS`].
    pub(crate) features: [usize; SPLITS],
    pub(crate) thresholds: [f64; SPLITS],
    pub(crate) leaves: [f64; LEAVES],
}

/// [`Complete::features`] marker of a pass, whose subtrees are equal.
pub(crate) const PASS: usize = usize::MAX;

impl Complete {
    /// Lay out the grown tree rooted at `nodes[0]`; fails when a path
    /// passes more than [`MAX_DEPTH`] splits, which `grow` never makes.
    fn of(nodes: &[Node]) -> Result<Self, &'static str> {
        fn place(
            c: &mut Complete,
            nodes: &[Node],
            node: usize,
            at: usize,
            depth: usize,
        ) -> Result<(), &'static str> {
            match nodes[node] {
                Node::Leaf { value } if depth == MAX_DEPTH => c.leaves[at - (SPLITS - 1)] = value,
                Node::Split { .. } if depth == MAX_DEPTH => {
                    return Err("tree deeper than MAX_DEPTH")
                }
                Node::Leaf { .. } => {
                    c.features[at] = PASS;
                    place(c, nodes, node, 2 * at + 1, depth + 1)?;
                    place(c, nodes, node, 2 * at + 2, depth + 1)?;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    (c.features[at], c.thresholds[at]) = (feature, threshold);
                    place(c, nodes, left, 2 * at + 1, depth + 1)?;
                    place(c, nodes, right, 2 * at + 2, depth + 1)?;
                }
            }
            Ok(())
        }
        let mut c = Complete {
            features: [PASS; SPLITS],
            thresholds: [0.0; SPLITS],
            leaves: [0.0; LEAVES],
        };
        place(&mut c, nodes, 0, 0, 0)?;
        Ok(c)
    }
}

/// A tree resolved against one compact row layout ([`Tree::resolve`]):
/// the layout of [`Complete`], each split reading a compact column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved {
    /// The compact column each split reads; `0` on a pass, which reads a
    /// value and goes either way to the same place.
    pub(crate) slots: [u32; SPLITS],
    pub(crate) thresholds: [f64; SPLITS],
    pub(crate) leaves: [f64; LEAVES],
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
    /// Grow a tree on a binned training set.
    ///
    /// * `grad` — per-row gradient of the squared loss. Its hessian is 1 in
    ///   every row, so a node's hessian mass is its row count.
    /// * `rows` — indices of the rows this tree trains on.
    /// * `features` — candidate feature indices (column subsampling); those
    ///   with a single bin cannot split and are dropped once, here.
    ///
    /// Records every accepted split in `splits` (for importance).
    pub fn grow(
        set: &BinnedSet,
        grad: &[f64],
        rows: &[u32],
        features: &[usize],
        splits: &mut Vec<SplitRecord>,
    ) -> Self {
        let candidates: Vec<usize> = (features.iter().copied())
            .filter(|&f| set.binner().bins(f) >= 2)
            .collect();
        let mut grower = Grower {
            set,
            grad,
            candidates,
            nodes: Vec::new(),
            splits,
            lanes: Box::new([Lane::EMPTY; LANES]),
        };
        grower.node(rows, 0);
        let complete = Complete::of(&grower.nodes).expect("grow stops at MAX_DEPTH");
        Tree {
            nodes: grower.nodes,
            complete,
        }
    }

    /// Add `scale` × this tree's prediction of every row of `set` to
    /// `preds`, walking bins instead of values: a row goes left iff its bin
    /// is at most the split's. That is `x <= threshold` for every value the
    /// set was fitted on, since each threshold is an edge of its feature
    /// (so its bin is that edge's index) and NaN bins right of every split.
    pub(crate) fn add_binned_predictions(&self, set: &BinnedSet, scale: f64, preds: &mut [f64]) {
        let split_bins: Vec<u8> = (self.nodes.iter())
            .map(|n| match n {
                Node::Split {
                    feature, threshold, ..
                } => set.binner().bin_value(*feature, *threshold),
                Node::Leaf { .. } => 0,
            })
            .collect();
        for (r, pred) in preds.iter_mut().enumerate() {
            let mut idx = 0usize;
            let value = loop {
                match &self.nodes[idx] {
                    Node::Leaf { value } => break *value,
                    Node::Split {
                        feature,
                        left,
                        right,
                        ..
                    } => {
                        idx = if set.column(*feature)[r] <= split_bins[idx] {
                            *left
                        } else {
                            *right
                        };
                    }
                }
            };
            *pred += scale * value;
        }
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

    /// This tree with every split's full feature index resolved through
    /// `slot_of`. A split on a feature `slot_of` maps to `None` reads `0.0`
    /// in every row, so it is folded: it becomes a pass, both of whose
    /// subtrees are the one `0.0 <= threshold` chooses.
    pub(crate) fn resolve(&self, slot_of: &impl Fn(usize) -> Option<usize>) -> Resolved {
        let c = &self.complete;
        let mut r = Resolved {
            slots: [0; SPLITS],
            thresholds: [0.0; SPLITS],
            leaves: [0.0; LEAVES],
        };
        // `from[i]`: the position of `c` that position `i` of `r` copies.
        let mut from = [0usize; SPLITS + LEAVES - 1];
        for to in 0..SPLITS - 1 {
            let at = from[to];
            let (left, right) = (2 * at + 1, 2 * at + 2);
            let read = Some(c.features[at]).filter(|&f| f != PASS).map(slot_of);
            let (left, right) = match read {
                Some(Some(slot)) => {
                    r.slots[to] = u32::try_from(slot).expect("compact columns fit u32");
                    r.thresholds[to] = c.thresholds[at];
                    (left, right)
                }
                // Both subtrees of a pass are the same.
                None => (left, left),
                Some(None) if 0.0 <= c.thresholds[at] => (left, left),
                Some(None) => (right, right),
            };
            (from[2 * to + 1], from[2 * to + 2]) = (left, right);
        }
        for (leaf, &at) in r.leaves.iter_mut().zip(&from[SPLITS - 1..]) {
            *leaf = c.leaves[at - (SPLITS - 1)];
        }
        r
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
    /// invariant [`predict_row`](Self::predict_row) and the fixed-depth walk
    /// rely on.
    ///
    /// `grow` appends children strictly after their parent, so a well-formed
    /// tree has `left > parent` and `right > parent` for every split —
    /// which also guarantees traversal terminates — and no path from the
    /// root passes more than [`MAX_DEPTH`] splits. Split features must index
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
        let nodes: Vec<Node> = (nodes.into_iter())
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
            .collect();
        let complete = Complete::of(&nodes)?;
        Ok(Self { nodes, complete })
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

/// Features whose histograms one pass over a node's rows fills.
const LANES: usize = 4;

/// One feature's histogram at a node: the gradient sum and the row count of
/// each bin. A count is the hessian mass exactly (a sum of 1.0s is exact in
/// `f64` below 2^53).
struct Lane {
    grad: [f64; 256],
    count: [u32; 256],
}

impl Lane {
    const EMPTY: Self = Self {
        grad: [0.0; 256],
        count: [0; 256],
    };
}

/// The best split found so far: `(gain, feature, bin)`.
type Best = Option<(f64, usize, u8)>;

/// The state of growing one tree.
struct Grower<'a> {
    set: &'a BinnedSet,
    grad: &'a [f64],
    /// The tree's candidate features with at least two bins, in the order
    /// given (ties between equal gains go to the earlier feature).
    candidates: Vec<usize>,
    nodes: Vec<Node>,
    splits: &'a mut Vec<SplitRecord>,
    /// Histogram scratch, reused by every node.
    lanes: Box<[Lane; LANES]>,
}

impl Grower<'_> {
    /// Recursively build the node for `rows`, returning its index.
    fn node(&mut self, rows: &[u32], depth: usize) -> usize {
        let g: f64 = rows.iter().map(|&r| self.grad[r as usize]).sum();
        let h = rows.len() as f64;
        let leaf = |nodes: &mut Vec<Node>| {
            let idx = nodes.len();
            nodes.push(Node::Leaf {
                value: -g / (h + LAMBDA),
            });
            idx
        };

        if depth >= MAX_DEPTH || rows.len() < 2 || h < 2.0 * MIN_CHILD_WEIGHT {
            return leaf(&mut self.nodes);
        }
        let best = self.best_split(rows, g, h);
        if strict_kernels() {
            let reference = scalar_best_split(self.set, self.grad, rows, &self.candidates);
            assert_eq!(
                best_bits(best),
                best_bits(reference),
                "strict kernels: blocked split search diverged from the scalar oracle"
            );
        }
        let Some((gain, feature, bin)) = best else {
            return leaf(&mut self.nodes);
        };

        let col = self.set.column(feature);
        let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
            rows.iter().partition(|&&r| col[r as usize] <= bin);
        if left_rows.is_empty() || right_rows.is_empty() {
            return leaf(&mut self.nodes);
        }
        self.splits.push(SplitRecord { feature, gain });

        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder; patched below
        let left = self.node(&left_rows, depth + 1);
        let right = self.node(&right_rows, depth + 1);
        self.nodes[idx] = Node::Split {
            feature,
            threshold: self.set.binner().threshold(feature, bin),
            left,
            right,
        };
        idx
    }

    /// The histogram split search over every candidate, [`LANES`] features
    /// per pass over `rows`. Each (feature, bin) still sums its gradients
    /// in row order, so every sum, and so the chosen split, is the scalar
    /// per-feature search's bit for bit.
    fn best_split(&mut self, rows: &[u32], g: f64, h: f64) -> Best {
        let mut best = None;
        for group in self.candidates.chunks(LANES) {
            let lanes = &mut self.lanes[..group.len()];
            for (lane, &f) in lanes.iter_mut().zip(group) {
                let nbins = self.set.binner().bins(f);
                lane.grad[..nbins].fill(0.0);
                lane.count[..nbins].fill(0);
            }
            match group.len() {
                4 => fill::<4>(self.set, group, self.grad, rows, lanes),
                3 => fill::<3>(self.set, group, self.grad, rows, lanes),
                2 => fill::<2>(self.set, group, self.grad, rows, lanes),
                _ => fill::<1>(self.set, group, self.grad, rows, lanes),
            }
            for (lane, &f) in lanes.iter().zip(group) {
                let nbins = self.set.binner().bins(f);
                let (grads, counts) = (&lane.grad[..nbins], &lane.count[..nbins]);
                scan(grads, counts, f, (g, h), &mut best);
            }
        }
        best
    }
}

/// Fill the histograms of the `W` features in `group` in one pass over
/// `rows`.
fn fill<const W: usize>(
    set: &BinnedSet,
    group: &[usize],
    grad: &[f64],
    rows: &[u32],
    lanes: &mut [Lane],
) {
    let cols: [&[u8]; W] = std::array::from_fn(|k| set.column(group[k]));
    let lanes: &mut [Lane; W] = lanes.try_into().expect("one lane per feature");
    for &r in rows {
        let r = r as usize;
        let g = grad[r];
        for (lane, col) in lanes.iter_mut().zip(cols) {
            let b = usize::from(col[r]);
            lane.grad[b] += g;
            lane.count[b] += 1;
        }
    }
}

/// Scan one feature's histogram (`grads[b]`, `hess[b]` per bin) at a node
/// with gradient sum `g` and hessian mass `h` for the best split after each
/// bin but the last (left = bins `0..=b`), updating `best` on a strictly
/// larger gain.
fn scan<H: Copy + Into<f64>>(
    grads: &[f64],
    hess: &[H],
    feature: usize,
    (g, h): (f64, f64),
    best: &mut Best,
) {
    let parent_score = g * g / (h + LAMBDA);
    let (mut gl, mut hl) = (0.0, 0.0);
    for b in 0..grads.len() - 1 {
        gl += grads[b];
        hl += hess[b].into();
        let (gr, hr) = (g - gl, h - hl);
        if hl < MIN_CHILD_WEIGHT || hr < MIN_CHILD_WEIGHT {
            continue;
        }
        let gain = 0.5 * (gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - parent_score);
        if gain > best.map_or(0.0, |(g, _, _)| g) {
            *best = Some((gain, feature, b as u8));
        }
    }
}

/// A split's bits, for exact comparison.
fn best_bits(best: Best) -> Option<(u64, usize, u8)> {
    best.map(|(gain, f, b)| (gain.to_bits(), f, b))
}

/// The scalar split-search oracle: one pass over `rows` per feature, the
/// hessian summed as `f64` 1.0s, node totals summed afresh. Under
/// `PS3_STRICT_KERNELS=1` every node re-runs it and asserts the blocked
/// search chose the same split with the same gain bits.
fn scalar_best_split(set: &BinnedSet, grad: &[f64], rows: &[u32], features: &[usize]) -> Best {
    let g: f64 = rows.iter().map(|&r| grad[r as usize]).sum();
    let h: f64 = rows.iter().map(|_| 1.0).sum();
    let mut best = None;
    let mut hist_g = [0.0f64; 256];
    let mut hist_h = [0.0f64; 256];
    for &f in features {
        let nbins = set.binner().bins(f);
        if nbins < 2 {
            continue;
        }
        hist_g[..nbins].fill(0.0);
        hist_h[..nbins].fill(0.0);
        let col = set.column(f);
        for &r in rows {
            let b = usize::from(col[r as usize]);
            hist_g[b] += grad[r as usize];
            hist_h[b] += 1.0;
        }
        let (grads, hess) = (&hist_g[..nbins], &hist_h[..nbins]);
        scan(grads, hess, f, (g, h), &mut best);
    }
    best
}

/// Whether `PS3_STRICT_KERNELS=1` is set — the switch
/// `ps3_runtime::strict_kernels` reads for the other kernels, read here so
/// this crate needs no runtime. Read once per process.
fn strict_kernels() -> bool {
    static STRICT: OnceLock<bool> = OnceLock::new();
    *STRICT.get_or_init(|| std::env::var("PS3_STRICT_KERNELS").is_ok_and(|v| v == "1"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Grow one tree on `data` against labels `ys` at prediction 0 (squared
    /// loss: grad = −y), on every row, over `features`.
    fn grow(
        data: &[Vec<f64>],
        ys: &[f64],
        max_bins: usize,
        features: &[usize],
    ) -> (Tree, Vec<SplitRecord>) {
        let set = BinnedSet::from_rows(data, max_bins);
        let grad: Vec<f64> = ys.iter().map(|&y| -y).collect();
        let rows: Vec<u32> = (0..data.len() as u32).collect();
        let mut splits = Vec::new();
        let tree = Tree::grow(&set, &grad, &rows, features, &mut splits);
        (tree, splits)
    }

    #[test]
    fn learns_a_step_function() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let (tree, splits) = grow(&data, &ys, 64, &[0]);
        assert!(!splits.is_empty());
        assert!(tree.predict_row(&[10.0]) < 1.0);
        assert!(tree.predict_row(&[90.0]) > 9.0);
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let data: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let (tree, splits) = grow(&data, &[3.0; 50], 32, &[0]);
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
        let (tree, splits) = grow(&data, &ys, 8, &[0, 1]);
        assert!(splits.iter().all(|s| s.feature == 0));
        assert!(tree.predict_row(&[1.0, 7.0]) > tree.predict_row(&[0.0, 7.0]));
    }

    #[test]
    fn depth_limit_respected() {
        // 64 distinct labels would take depth 6 to fit exactly.
        let data: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..64).map(f64::from).collect();
        let (tree, splits) = grow(&data, &ys, 64, &[0]);
        // The deepest leaf, counted in splits from the root.
        fn depth(nodes: &[NodeSpec], idx: usize) -> usize {
            match nodes[idx] {
                NodeSpec::Leaf { .. } => 0,
                NodeSpec::Split { left, right, .. } => {
                    1 + depth(nodes, left).max(depth(nodes, right))
                }
            }
        }
        assert!(!splits.is_empty());
        assert_eq!(depth(&tree.nodes_spec(), 0), MAX_DEPTH);
    }

    /// NaN goes right at every split, in the split search as in
    /// prediction: NaN rows labelled 10 share the top bin with x = 49
    /// (labelled 0), so the tree puts them in that leaf, and a NaN row
    /// predicts what x = 49 predicts, in bin space as on values.
    #[test]
    fn nan_takes_the_same_side_in_the_search_and_in_prediction() {
        let mut data: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let mut ys = vec![0.0; 50];
        data.extend(std::iter::repeat_n(vec![f64::NAN], 20));
        ys.extend([10.0; 20]);
        let (tree, splits) = grow(&data, &ys, 64, &[0]);
        assert!(!splits.is_empty());
        let nan = tree.predict_row(&[f64::NAN]);
        assert_eq!(nan.to_bits(), tree.predict_row(&[49.0]).to_bits());
        assert!(nan > 5.0, "NaN rows must land in their own side's leaf");
        let set = BinnedSet::from_rows(&data, 64);
        let mut binned = vec![0.0; data.len()];
        tree.add_binned_predictions(&set, 1.0, &mut binned);
        for (row, p) in data.iter().zip(&binned) {
            assert_eq!(p.to_bits(), tree.predict_row(row).to_bits());
        }
    }

    /// `from_nodes` keeps a path through exactly `MAX_DEPTH` splits and
    /// refuses a longer one — a shape `grow` never makes, on which the
    /// fixed-depth walk would stop at a split.
    #[test]
    fn from_nodes_refuses_a_path_past_max_depth() {
        // Split `2i` has leaf `2i + 1` on its left and the next split (or
        // the last leaf) on its right.
        let chain = |splits: usize| -> Vec<NodeSpec> {
            let mut nodes = Vec::new();
            for i in 0..splits {
                nodes.push(NodeSpec::Split {
                    feature: 0,
                    threshold: i as f64,
                    left: 2 * i + 1,
                    right: 2 * i + 2,
                });
                nodes.push(NodeSpec::Leaf { value: i as f64 });
            }
            nodes.push(NodeSpec::Leaf { value: -1.0 });
            nodes
        };
        let deepest = Tree::from_nodes(chain(MAX_DEPTH), 1).expect("MAX_DEPTH splits");
        assert_eq!(deepest.predict_row(&[10.0]).to_bits(), (-1.0f64).to_bits());
        assert!(Tree::from_nodes(chain(MAX_DEPTH + 1), 1).is_err());
    }

    proptest! {
        /// Predicting a binned set in bin space is predicting its values,
        /// for rows the tree trained on and rows it did not, over values
        /// with ±0.0, ±∞ and NaN, at few bins and at many.
        #[test]
        fn bin_space_prediction_equals_value_prediction(
            values in prop::collection::vec(prop_oneof![
                -50.0f64..50.0,
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
            ], 40..200),
            max_bins in 2usize..40,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<Vec<f64>> = values.chunks_exact(2).map(<[f64]>::to_vec).collect();
            let set = BinnedSet::from_rows(&data, max_bins);
            let grad: Vec<f64> = (0..data.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let rows: Vec<u32> = (0..data.len() as u32).filter(|_| rng.gen_bool(0.6)).collect();
            let mut splits = Vec::new();
            let tree = Tree::grow(&set, &grad, &rows, &[0, 1], &mut splits);
            let mut binned = vec![0.0; data.len()];
            tree.add_binned_predictions(&set, 1.0, &mut binned);
            for (row, p) in data.iter().zip(&binned) {
                prop_assert_eq!(p.to_bits(), tree.predict_row(row).to_bits());
            }
        }
    }

    /// The blocked search over 1–9 candidates (every remainder of four,
    /// zero to two full blocks) chooses the scalar per-feature search's
    /// split with the same gain bits, on random bins, gradients, row
    /// subsets and candidate orders, single-bin features included.
    #[test]
    fn blocked_split_search_equals_the_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        for candidates in 1..=9usize {
            for _ in 0..20 {
                let dim = 12;
                let data: Vec<Vec<f64>> = (0..300)
                    .map(|_| {
                        (0..dim)
                            .map(|f| match f % 3 {
                                0 => f64::from(rng.gen_range(0..5u8)),
                                1 => rng.gen_range(-1.0..1.0),
                                _ if f == 2 => 1.0,
                                _ => f64::from(rng.gen_range(0..300u16)),
                            })
                            .collect()
                    })
                    .collect();
                let set = BinnedSet::from_rows(&data, 32);
                let grad: Vec<f64> = (0..300).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let rows: Vec<u32> = (0..300u32).filter(|_| rng.gen_bool(0.7)).collect();
                let mut features: Vec<usize> = (0..dim).collect();
                features.shuffle(&mut rng);
                features.truncate(candidates);
                let mut splits = Vec::new();
                let mut grower = Grower {
                    set: &set,
                    grad: &grad,
                    candidates: features.clone(),
                    nodes: Vec::new(),
                    splits: &mut splits,
                    lanes: Box::new([Lane::EMPTY; LANES]),
                };
                let g: f64 = rows.iter().map(|&r| grad[r as usize]).sum();
                let blocked = grower.best_split(&rows, g, rows.len() as f64);
                let scalar = scalar_best_split(&set, &grad, &rows, &features);
                assert_eq!(
                    best_bits(blocked),
                    best_bits(scalar),
                    "{candidates} candidates"
                );
            }
        }
    }
}
