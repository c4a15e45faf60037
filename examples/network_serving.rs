//! The full network serving stack on one machine: a trained table behind
//! a [`Router`], a TCP front door (`ps3_net`) on a loopback port, and a
//! handful of concurrent clients speaking the wire protocol — including
//! one that stampedes a cold key to show single-flight coalescing, and a
//! table swap that invalidates exactly that table's cached answers.
//!
//! Runs headlessly (port 0, no arguments) — CI executes it on every build:
//!
//! ```sh
//! cargo run --release --example network_serving
//! ```

use std::sync::Arc;
use std::thread;

use ps3::core::{spec_rng, Method, Ps3Config, QueryRequest, Router};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::net::{NetClient, NetServer};

fn main() -> std::io::Result<()> {
    println!("training the table (the once-per-deployment cost)...");
    let ds = Arc::new(DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(71));
    let system = Arc::new(ds.train_system(Ps3Config::default().with_seed(71)));

    let router = Router::builder()
        .table("telemetry", Arc::clone(&system))
        .queue_capacity(128)
        .build();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0")?;
    let addr = server.addr();
    println!("serving on {addr}");

    // --- 4 concurrent dashboard clients, each asking 3 queries. Every
    // answer must be bit-identical to direct in-process execution.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let ds = Arc::clone(&ds);
            let system = Arc::clone(&system);
            let router = Arc::clone(&router);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for i in 0..3 {
                    let query = ds.sample_test_query(i);
                    let req = QueryRequest::ps3(query, 0.2, i as u64).on_table("telemetry");
                    let remote = client.request(&req).expect("served");
                    let mut rng = spec_rng(&req.query, req.seed);
                    let frac = req.budget.as_fraction().expect("explicit fraction");
                    let direct = system.answer_spec_on(
                        &req.query,
                        Method::Ps3,
                        frac,
                        &mut rng,
                        router.pool(),
                    );
                    assert_eq!(
                        remote.answer, direct.answer,
                        "wire answers must be bit-identical to direct execution"
                    );
                }
                c
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = router.stats();
    println!(
        "4 clients x 3 queries: {} executions ({} cache hits, {} coalesced) — \
         identical requests executed once, verified bit-identical to in-process",
        stats.executions, stats.answers.hits, stats.coalesced
    );

    // --- Cold-key stampede: 6 clients fire the same never-seen request at
    // once; the router executes it exactly once.
    let before = router.stats().executions;
    let stampede = QueryRequest::ps3(ds.sample_test_query(9), 0.25, 999).on_table("telemetry");
    let racers: Vec<_> = (0..6)
        .map(|_| {
            let req = stampede.clone();
            thread::spawn(move || {
                NetClient::connect(addr)
                    .expect("connect")
                    .request(&req)
                    .expect("served")
                    .answer
                    .num_groups()
            })
        })
        .collect();
    for r in racers {
        r.join().expect("racer");
    }
    println!(
        "stampede: 6 clients, {} execution(s) — single-flight coalescing",
        router.stats().executions - before
    );
    assert_eq!(router.stats().executions - before, 1);

    // --- Swap in a retrained system: the table's cached answers are
    // invalidated (and only its own — here, all of them).
    let cached_before = router.stats().answers.len;
    let table = router.table_id("telemetry").expect("registered");
    let retrained = ds.train_system(Ps3Config::default().with_seed(72));
    router.replace_table(table, Arc::new(retrained));
    let cached_after = router.stats().answers.len;
    println!(
        "swap: answer cache {cached_before} -> {cached_after} entries (telemetry invalidated)"
    );
    assert!(cached_before > 0, "the clients above warmed the cache");
    assert_eq!(cached_after, 0, "the swap drops every telemetry entry");
    let mut client = NetClient::connect(addr)?;
    let req = QueryRequest::ps3(ds.sample_test_query(0), 0.2, 0).on_table("telemetry");
    let before = router.stats().executions;
    client.request(&req).expect("served post-swap");
    assert_eq!(router.stats().executions, before + 1, "executed anew");
    println!("post-swap request served from the new system");

    // --- Declarative budget: ask for ≤20% relative error and let the
    // server's planner pick the cheapest fraction that delivers it.
    let req = QueryRequest::ps3(ds.sample_test_query(3), 1.0, 17)
        .on_table("telemetry")
        .with_error_target(0.2);
    let planned = client.request(&req).expect("planned");
    println!(
        "error target 20%: planner chose frac {} ({} partitions, \
         estimated rel err {:.4}, exact: {})",
        planned.meta.planned_frac,
        planned.meta.partitions_read,
        planned.meta.error_estimate.rel_err,
        planned.meta.exact,
    );
    let pstats = router.stats().planner;
    println!(
        "planner: {} plans, {} probes ({} cache hits), {} fallbacks",
        pstats.plans, pstats.probes, pstats.probe_hits, pstats.fallbacks
    );

    // --- Progressive answers: a cold request streams refining estimates
    // before the (bit-identical) final frame.
    let req = QueryRequest::ps3(ds.sample_test_query(5), 0.5, 23).on_table("telemetry");
    let streamed = client.request_streaming(&req).expect("streamed");
    for p in &streamed.partials {
        println!(
            "  partial {}: {}/{} partitions, rel err {:.4}",
            p.seq, p.partitions_done, p.partitions_total, p.rel_err
        );
    }
    let one_shot = client.request(&req).expect("served");
    assert_eq!(
        streamed.answer.answer, one_shot.answer,
        "the final streamed frame is bit-identical to the one-shot answer"
    );
    println!(
        "progressive: {} partials, final answer bit-identical to one-shot",
        streamed.partials.len()
    );

    let sstats = server.stats();
    println!(
        "server totals: {} connections accepted, {} requests, {} errors",
        sstats.accepted, sstats.requests, sstats.errors
    );
    drop(server);
    router.shutdown();
    println!("front door closed, router drained; bye");
    Ok(())
}
