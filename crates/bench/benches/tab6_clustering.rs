//! Table 6: area under the error curve for clustering-only sampling with
//! HAC(single), HAC(ward) and KMeans, on TPC-DS*, Aria and KDD (§5.5.5).
//! AUC values are scaled ×100, matching the paper's magnitudes.

use ps3_bench::harness::BUDGETS;
use ps3_bench::report::{print_header, Table};
use ps3_cluster::ClusterAlgo;
use ps3_core::feature_selection::clustering_error;
use ps3_core::{normalize_workload, Ps3Config, TrainingData};
use ps3_data::{DatasetConfig, DatasetKind, ScaleProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = ScaleProfile::from_env();
    print_header(
        "Table 6: AUC (x100) for different clustering algorithms; smaller is better",
        &format!("scale={scale:?}"),
    );
    let algos = [
        ClusterAlgo::HacSingle,
        ClusterAlgo::HacWard,
        ClusterAlgo::KMeans,
    ];
    let mut t = Table::new(&["Dataset", "HAC(single)", "HAC(ward)", "KMeans"]);
    for kind in [DatasetKind::TpcDs, DatasetKind::Aria, DatasetKind::Kdd] {
        let ds = DatasetConfig::new(kind, scale).build(42);
        let td = TrainingData::compute(&ds.pt, &ds.stats, &ds.train_queries, 0);
        let (_, normalized) = normalize_workload(&td.fit_normalizer(&ds.stats), &ds.stats, &td, 0);
        let eval_qs: Vec<usize> = (0..td.queries.len())
            .filter(|&q| !td.runs[q].total.is_empty())
            .take(16)
            .collect();
        let mut row = vec![kind.label().to_string()];
        for algo in algos {
            let mut cfg = Ps3Config::default().with_seed(42);
            cfg.cluster_algo = algo;
            let mut rng = StdRng::seed_from_u64(42);
            // AUC over per-budget clustering-only error.
            let errs: Vec<f64> = BUDGETS
                .iter()
                .map(|&b| clustering_error(&td, &normalized, &eval_qs, &[], &[b], &cfg, &mut rng))
                .collect();
            row.push(format!("{:.2}", 100.0 * ps3_bench::auc(&BUDGETS, &errs)));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\n  Expectation from the paper: HAC(ward) ≈ KMeans, both beating \
         HAC(single) — clustering quality is linkage-, not algorithm-, bound."
    );
}
