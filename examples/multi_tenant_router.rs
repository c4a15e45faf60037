//! Two trained tables — TPC-H lineitem and Aria-style telemetry — behind
//! one serving front door: a [`Router`] with named-table routing, a bounded
//! request queue, per-tenant quotas, and the answer cache that makes
//! repeated dashboards and budget sweeps nearly free.
//!
//! Three tenants share the router: a BI team sweeping budgets on TPC-H, an
//! ops dashboard polling telemetry (the same queries over and over — pure
//! cache hits after the first round), and an ad-hoc analyst hopping across
//! both tables.
//!
//! ```sh
//! cargo run --release --example multi_tenant_router
//! ```

use std::sync::Arc;

use ps3::core::{Ps3Config, QueryRequest, Router, Ticket};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};

fn main() {
    println!("training two tables (this is the once-per-deployment cost)...");
    let tpch = DatasetConfig::new(DatasetKind::TpcH, ScaleProfile::Tiny).build(41);
    let aria = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(42);
    let tpch_sys = Arc::new(tpch.train_system(Ps3Config::default().with_seed(41)));
    let aria_sys = Arc::new(aria.train_system(Ps3Config::default().with_seed(42)));

    let router = Router::builder()
        .table("lineitem", tpch_sys)
        .table("telemetry", aria_sys)
        .queue_capacity(128)
        .answer_cache_capacity(4096)
        .build();
    println!(
        "router serves {} tables: {}",
        router.tables().count(),
        router
            .tables()
            .map(|(name, _)| name)
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- Tenant 1: ops dashboard, quota 4, polls the same telemetry
    // panels every refresh. Only the first round executes partitions.
    let ops = router.tenant("ops-dashboard", Some(4));
    for round in 0..3 {
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                let req = QueryRequest::ps3(aria.sample_test_query(i), 0.1, i as u64)
                    .on_table("telemetry");
                ops.submit(req).expect("router open")
            })
            .collect();
        let groups: usize = tickets
            .into_iter()
            .map(|t| t.wait().answer.num_groups())
            .sum();
        let stats = router.stats();
        println!(
            "ops round {round}: {groups} result groups | executions so far {} | answer cache {} hits",
            stats.executions, stats.answers.hits
        );
    }

    // --- Tenant 2: BI team runs a 6-budget accuracy sweep on TPC-H twice
    // (analysts re-render plots constantly); the re-run is all cache.
    let lineitem = router.table_id("lineitem").expect("registered");
    let budgets = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
    let q = tpch.sample_test_query(1);
    let sweep = || {
        for &frac in &budgets {
            router.answer_now(lineitem, &QueryRequest::ps3(q.clone(), frac, 7));
        }
    };
    let before = router.stats().executions;
    sweep();
    let cold = router.stats().executions - before;
    sweep();
    let warm = router.stats().executions - before - cold;
    println!("bi sweep: {cold} executions cold, {warm} executions warm (re-render is free)");

    // --- Tenant 3: ad-hoc analyst crossing tables through one handle.
    let analyst = router.tenant("analyst", Some(2));
    for (table, query, seed) in [
        ("lineitem", tpch.sample_test_query(3), 11u64),
        ("telemetry", aria.sample_test_query(3), 12),
    ] {
        let out = analyst
            .submit(QueryRequest::ps3(query, 0.2, seed).on_table(table))
            .expect("router open")
            .wait();
        println!(
            "analyst on {table}: {} groups from {} partitions read",
            out.answer.num_groups(),
            out.selection.len()
        );
    }

    let stats = router.stats();
    println!(
        "\nfront-end totals: {} partition-selection executions, answer cache {}/{} entries, {} hits / {} misses",
        stats.executions, stats.answers.len, stats.answers.cap, stats.answers.hits, stats.answers.misses
    );
    router.shutdown();
    println!("router drained and shut down cleanly");
}
