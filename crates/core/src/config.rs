//! Picker configuration: what the paper's evaluation varies. Defaults
//! follow the paper: α = 2, K-Means clustering with the biased median
//! exemplar, every component on. What the paper fixes is a constant in the
//! module that reads it: the k = 4 importance models
//! ([`K_MODELS`](crate::train::K_MODELS)), the outlier budget share and
//! limits of §4.4 ([`crate::outlier`]), Appendix B.1's clause limit
//! ([`FALLBACK_CLAUSE_LIMIT`](crate::picker::FALLBACK_CLAUSE_LIMIT)),
//! Algorithm 3's evaluation budgets
//! ([`FS_EVAL_BUDGETS`](crate::feature_selection::FS_EVAL_BUDGETS)) and the
//! boosted trees' shape ([`ps3_learn::GbdtParams`]).

use ps3_cluster::ClusterAlgo;
use ps3_learn::GbdtParams;

/// Which cluster exemplar estimator to use (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemplarRule {
    /// Deterministic: the member nearest the cluster's median feature vector
    /// (biased, zero variance; the paper's default).
    Median,
    /// Uniform random member (unbiased).
    Random,
}

/// Full picker configuration.
#[derive(Debug, Clone)]
pub struct Ps3Config {
    /// Budget decay rate α between adjacent importance groups (default 2).
    pub alpha: f64,
    /// Clustering algorithm (default K-Means; §5.5.5 compares HAC variants).
    pub cluster_algo: ClusterAlgo,
    /// Exemplar estimator (default the biased median rule).
    pub estimator: ExemplarRule,
    /// Gradient-boosting hyperparameters for the importance models.
    pub gbdt: GbdtParams,
    /// Run Algorithm-3 feature selection for clustering (default on).
    pub feature_selection: bool,
    /// Random restarts of the greedy feature-selection loop (paper: 10).
    pub fs_restarts: usize,
    /// Training queries sampled per feature-selection evaluation.
    pub fs_eval_queries: usize,
    /// Lesion toggle: use clustering for sample selection (§5.4.1).
    pub use_clustering: bool,
    /// Lesion toggle: reserve budget for outliers.
    pub use_outliers: bool,
    /// Lesion toggle: use the learned importance funnel.
    pub use_regressors: bool,
    /// RNG seed for everything stochastic in training and picking.
    pub seed: u64,
    /// Fan-out policy for training-data computation: `1` runs serially,
    /// anything else (including the 0 default) uses the shared pool.
    pub threads: usize,
    /// Bound on the serving-time artifact cache (entries, keyed by query
    /// fingerprint). An entry owns only what a query adds to the shared
    /// normalized statics ([`QueryColumns`](ps3_stats::QueryColumns)): its
    /// column map, 4 normalized selectivity values and one raw upper bound
    /// per partition — 8 bytes × 5 × partitions, about 21 KB at 512
    /// partitions (under 64 KiB is tested) — plus its compiled kernels, so
    /// the default 256 entries ≈ 6 MB.
    pub feature_cache_cap: usize,
}

impl Default for Ps3Config {
    fn default() -> Self {
        Self {
            alpha: 2.0,
            cluster_algo: ClusterAlgo::KMeans,
            estimator: ExemplarRule::Median,
            gbdt: GbdtParams {
                colsample: 0.5,
                ..GbdtParams::default()
            },
            feature_selection: true,
            fs_restarts: 2,
            fs_eval_queries: 12,
            use_clustering: true,
            use_outliers: true,
            use_regressors: true,
            seed: 0,
            threads: 0,
            feature_cache_cap: 256,
        }
    }
}

impl Ps3Config {
    /// Set the seed (threaded through GBDT training too).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.gbdt.seed = seed;
        self
    }

    /// Disable the learned components and feature selection — useful for
    /// fast tests and the lesion/factor analyses.
    pub fn minimal(mut self) -> Self {
        self.feature_selection = false;
        self.use_regressors = false;
        self.use_outliers = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Ps3Config::default();
        assert_eq!(crate::train::K_MODELS, 4);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(crate::outlier::OUTLIER_BUDGET_FRAC, 0.1);
        assert_eq!(crate::outlier::OUTLIER_ABS_LIMIT, 10);
        assert_eq!(crate::picker::FALLBACK_CLAUSE_LIMIT, 10);
        assert_eq!(c.cluster_algo, ClusterAlgo::KMeans);
        assert_eq!(c.estimator, ExemplarRule::Median);
    }

    #[test]
    fn seed_propagates_to_gbdt() {
        let c = Ps3Config::default().with_seed(42);
        assert_eq!(c.seed, 42);
        assert_eq!(c.gbdt.seed, 42);
    }

    #[test]
    fn minimal_strips_learning() {
        let c = Ps3Config::default().minimal();
        assert!(!c.use_regressors);
        assert!(!c.use_outliers);
        assert!(!c.feature_selection);
        assert!(c.use_clustering);
    }
}
