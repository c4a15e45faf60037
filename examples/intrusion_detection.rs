//! Network-intrusion triage on a KDD-style connection log: a security
//! analyst sizes attack waves with error-rate aggregates grouped by
//! service/flag, under a strict I/O budget.
//!
//! Demonstrates the learned importance models: DoS partitions contribute
//! disproportionately to `SUM(src_bytes)`-style aggregates and get sampled
//! at a higher rate (§4.3).
//!
//! ```sh
//! cargo run --release --example intrusion_detection
//! ```

use ps3::core::{Method, Ps3Config};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::metrics::avg_relative_error;
use ps3::query::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr};

fn main() {
    let ds = DatasetConfig::new(DatasetKind::Kdd, ScaleProfile::Tiny).build(23);
    let schema = ds.pt.table().schema().clone();
    let col = |n: &str| schema.expect_col(n);

    println!("training PS3 on the intrusion workload...");
    let system = ds.train_system(Ps3Config::default().with_seed(23));

    // Investigation: how much SYN-flood traffic (high serror_rate) is each
    // service seeing, and from how many connections?
    let flood_by_service = Query::new(
        vec![
            AggExpr::count(),
            AggExpr::sum(ScalarExpr::col(col("src_bytes"))),
            AggExpr::avg(ScalarExpr::col(col("serror_rate"))),
        ],
        Some(Predicate::Clause(Clause::Cmp {
            col: col("serror_rate"),
            op: CmpOp::Gt,
            value: 0.5,
        })),
        vec![col("service")],
    );
    let exact = system.exact_answer(&flood_by_service);
    println!(
        "\nSYN-flood candidates by service (exact: {} services)",
        exact.num_groups()
    );
    println!("{:>9} {:>12} {:>12}", "budget", "PS3 err", "random err");
    for frac in [0.05, 0.1, 0.25] {
        let ps3 = system.answer_seeded(&flood_by_service, Method::Ps3, frac, 23);
        let rnd = system.answer_seeded(&flood_by_service, Method::Random, frac, 23);
        println!(
            "{:>8.0}% {:>12.5} {:>12.5}",
            frac * 100.0,
            avg_relative_error(&exact, &ps3.answer),
            avg_relative_error(&exact, &rnd.answer)
        );
    }

    // Where the budget goes: PS3's importance funnel.
    let mut rng = ps3::core::spec_rng(&(&flood_by_service).into(), 23);
    let out = system.pick_outcome(&flood_by_service, 0.1, &mut rng);
    println!(
        "\nat a 10% budget PS3 read {} partitions ({} outliers); funnel group \
         sizes (least→most important): {:?}",
        out.selection.len(),
        out.num_outliers,
        out.group_sizes
    );
    println!(
        "picker latency: {:.1} ms total, {:.1} ms clustering",
        out.total_ms, out.clustering_ms
    );
}
