//! Picker configuration. Defaults follow the paper: k = 4 models, α = 2,
//! up to 10% of the budget for outliers, K-Means clustering with the biased
//! median exemplar.

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
    /// Number of importance models k (paper default 4).
    pub k_models: usize,
    /// Budget decay rate α between adjacent importance groups (default 2).
    pub alpha: f64,
    /// Fraction of the budget reserved for outlier partitions (default 0.1).
    pub outlier_budget_frac: f64,
    /// A bitmap group is outlying only if smaller than this (default 10).
    pub outlier_abs_limit: usize,
    /// … and smaller than this fraction of the largest group (default 0.1).
    pub outlier_rel_limit: f64,
    /// Clustering algorithm (default K-Means; §5.5.5 compares HAC variants).
    pub cluster_algo: ClusterAlgo,
    /// Exemplar estimator (default the biased median rule).
    pub estimator: ExemplarRule,
    /// Predicates with more clauses than this fall back to random sampling
    /// inside importance groups (Appendix B.1; default 10).
    pub fallback_clause_limit: usize,
    /// Gradient-boosting hyperparameters for the importance models.
    pub gbdt: GbdtParams,
    /// Run Algorithm-3 feature selection for clustering (default on).
    pub feature_selection: bool,
    /// Random restarts of the greedy feature-selection loop (paper: 10).
    pub fs_restarts: usize,
    /// Training queries sampled per feature-selection evaluation.
    pub fs_eval_queries: usize,
    /// Budgets (fractions) the feature selection evaluates at.
    pub fs_eval_budgets: Vec<f64>,
    /// Lesion toggle: use clustering for sample selection (§5.4.1).
    pub use_clustering: bool,
    /// Lesion toggle: reserve budget for outliers.
    pub use_outliers: bool,
    /// Lesion toggle: use the learned importance funnel.
    pub use_regressors: bool,
    /// Lesion toggle: use the selectivity_upper filter.
    pub use_filter: bool,
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
            k_models: 4,
            alpha: 2.0,
            outlier_budget_frac: 0.1,
            outlier_abs_limit: 10,
            outlier_rel_limit: 0.1,
            cluster_algo: ClusterAlgo::KMeans,
            estimator: ExemplarRule::Median,
            fallback_clause_limit: 10,
            gbdt: GbdtParams {
                colsample: 0.5,
                ..GbdtParams::default()
            },
            feature_selection: true,
            fs_restarts: 2,
            fs_eval_queries: 12,
            fs_eval_budgets: vec![0.05, 0.15],
            use_clustering: true,
            use_outliers: true,
            use_regressors: true,
            use_filter: true,
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
        assert_eq!(c.k_models, 4);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.outlier_budget_frac, 0.1);
        assert_eq!(c.outlier_abs_limit, 10);
        assert_eq!(c.fallback_clause_limit, 10);
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
