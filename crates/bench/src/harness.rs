//! Experiment preparation and cached evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ps3_core::train::execute_exact;
use ps3_core::{Method, Ps3Config, Ps3System};
use ps3_data::Dataset;
use ps3_query::metrics::ErrorMetrics;
use ps3_query::predicate::eval_predicate;
use ps3_query::{CompiledQuery, PartialAnswer, Query, QueryAnswer, WeightedPart};

/// The budget grid (fractions of partitions read) used across experiments.
pub const BUDGETS: [f64; 8] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75];

/// Everything cached for one test query so method evaluation is pure
/// arithmetic: per-partition partials, the exact answer, and the
/// predicate's true selectivity. (Its features live in the system's own
/// artifact cache.)
pub struct QueryCache {
    /// The query.
    pub query: Query,
    /// Exact per-partition partial answers.
    pub partials: Vec<PartialAnswer>,
    /// Exact full answer.
    pub truth: QueryAnswer,
    /// True fraction of rows satisfying the predicate (1.0 if none).
    pub selectivity: f64,
    /// True per-partition contributions (for the Figure-10 oracle).
    pub contributions: Vec<f64>,
}

/// A prepared experiment: dataset + trained system + test-query caches.
/// The experiment owns one RNG that all stochastic evaluations draw from,
/// mirroring the paper's repeated-run averaging; the system itself is
/// immutable shared state.
pub struct Experiment {
    /// The dataset.
    pub ds: Dataset,
    /// The trained system (all methods).
    pub system: Ps3System,
    /// One cache per test query.
    pub cache: Vec<QueryCache>,
    rng: StdRng,
}

impl Experiment {
    /// Train the system and cache every test query's per-partition answers.
    pub fn prepare(ds: Dataset, cfg: Ps3Config) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xA75));
        let system = ds.train_system(cfg);
        let cache = build_cache(&ds, &ds.test_queries);
        Self {
            ds,
            system,
            cache,
            rng,
        }
    }

    /// Prepare with an explicit test-query list (generalization test).
    pub fn prepare_with_tests(ds: Dataset, cfg: Ps3Config, tests: &[Query]) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xA75));
        let system = ds.train_system(cfg);
        let cache = build_cache(&ds, tests);
        Self {
            ds,
            system,
            cache,
            rng,
        }
    }

    /// Reset the experiment RNG (keeps repeated runs independent but
    /// reproducible).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Evaluate `method` at budget `frac` on one cached query; the answer is
    /// assembled from cached partials (no data re-read).
    pub fn evaluate_query(&mut self, qi: usize, method: Method, frac: f64) -> ErrorMetrics {
        let qc = &self.cache[qi];
        let (selection, _) = self
            .system
            .select(&qc.query, method, frac, None, &mut self.rng);
        metrics_for(qc, &selection)
    }

    /// Like [`Self::evaluate_query`] but with the oracle importance source
    /// (true contributions) instead of the learned models.
    pub fn evaluate_query_oracle(&mut self, qi: usize, frac: f64) -> ErrorMetrics {
        let qc = &self.cache[qi];
        let (selection, _) = self.system.select(
            &qc.query,
            Method::Ps3,
            frac,
            Some(&qc.contributions),
            &mut self.rng,
        );
        metrics_for(&self.cache[qi], &selection)
    }

    /// Mean metrics over all cached queries; `runs` averages the stochastic
    /// methods (the paper reports the average of 10 runs). PS3's clustering
    /// is randomized through k-means++ seeding, so it is averaged too.
    pub fn evaluate(&mut self, method: Method, frac: f64, runs: usize) -> ErrorMetrics {
        let runs = runs.max(1);
        let mut all = Vec::with_capacity(self.cache.len() * runs);
        for qi in 0..self.cache.len() {
            if self.cache[qi].truth.groups.is_empty() {
                continue;
            }
            for _ in 0..runs {
                all.push(self.evaluate_query(qi, method, frac));
            }
        }
        ErrorMetrics::mean(&all)
    }

    /// Error curve across the budget grid.
    pub fn error_curve(
        &mut self,
        method: Method,
        budgets: &[f64],
        runs: usize,
    ) -> Vec<ErrorMetrics> {
        budgets
            .iter()
            .map(|&b| self.evaluate(method, b, runs))
            .collect()
    }
}

/// Combine a weighted selection against one query cache and score it.
pub fn metrics_for(qc: &QueryCache, selection: &[WeightedPart]) -> ErrorMetrics {
    let mut acc = PartialAnswer::empty(&qc.query);
    for wp in selection {
        acc.add_weighted(&qc.partials[wp.partition.index()], wp.weight);
    }
    ErrorMetrics::compute(&qc.truth, &acc.finalize(&qc.query))
}

/// Execute and cache a set of queries (parallel over queries via the
/// shared workspace pool).
pub fn build_cache(ds: &Dataset, queries: &[Query]) -> Vec<QueryCache> {
    let pt = &ds.pt;
    ps3_runtime::fan_out(0, queries.len(), |qi| {
        let q = &queries[qi];
        let compiled = CompiledQuery::compile(pt.table(), q);
        let run = execute_exact(pt, q, &compiled);
        let selectivity = match &q.predicate {
            None => 1.0,
            Some(p) => {
                let hits = eval_predicate(pt.table(), 0..pt.table().num_rows(), p)
                    .iter()
                    .filter(|&&b| b)
                    .count();
                hits as f64 / pt.table().num_rows() as f64
            }
        };
        QueryCache {
            query: q.clone(),
            truth: run.total.finalize(q),
            partials: run.partials,
            selectivity,
            contributions: run.contributions,
        }
    })
}

/// Trapezoidal area under an error curve over the budget axis — the metric
/// of Tables 6 and 7 (scaled ×100 there, matching the paper's magnitudes).
pub fn auc(budgets: &[f64], errors: &[f64]) -> f64 {
    assert_eq!(budgets.len(), errors.len());
    let mut area = 0.0;
    for i in 1..budgets.len() {
        area += 0.5 * (errors[i] + errors[i - 1]) * (budgets[i] - budgets[i - 1]);
    }
    area
}

/// Number of runs to average for stochastic methods (paper: 10).
pub fn default_runs() -> usize {
    if std::env::var("PS3_FULL").is_ok_and(|v| v == "1") {
        8
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};

    #[test]
    fn reseed_makes_stochastic_evaluation_reproducible() {
        let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(3);
        let mut cfg = Ps3Config::default().with_seed(3);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        let mut exp = Experiment::prepare(ds, cfg);
        let sweep = |exp: &mut Experiment| -> Vec<u64> {
            (0..exp.cache.len())
                .map(|qi| {
                    exp.evaluate_query(qi, Method::Random, 0.2)
                        .avg_rel_err
                        .to_bits()
                })
                .collect()
        };
        exp.reseed(99);
        let first = sweep(&mut exp);
        let drifted = sweep(&mut exp);
        exp.reseed(99);
        let replay = sweep(&mut exp);
        assert_eq!(
            first, replay,
            "reseeding must restore the evaluation RNG stream"
        );
        // Without reseeding the stream advances: some query's uniform draw
        // must differ (sanity that the assert above is not vacuous).
        assert_ne!(first, drifted);
    }

    #[test]
    fn auc_of_constant_curve() {
        let b = [0.0, 0.5, 1.0];
        let e = [0.2, 0.2, 0.2];
        assert!((auc(&b, &e) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn auc_monotone_in_error() {
        let b = [0.1, 0.3, 0.6];
        let low = [0.1, 0.05, 0.01];
        let high = [0.3, 0.2, 0.1];
        assert!(auc(&b, &low) < auc(&b, &high));
    }
}
