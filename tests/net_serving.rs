//! End-to-end acceptance tests for the network front door
//! (client → wire protocol → event loop → tenant → router → systems):
//!
//! (a) 8 concurrent TCP clients get answers **bit-identical** to direct
//!     `Ps3System::answer_spec_on` calls for the same
//!     `(table, query, method, budget, seed)`;
//! (b) a cold-key stampede from 8 clients records exactly **one**
//!     execution (answer cache + single-flight coalescing);
//! (c) a client that disconnects mid-request leaves the server and the
//!     router pumps fully serviceable;
//! (d) protocol failures surface as typed error frames with the
//!     documented open/closed connection behavior, and the router's
//!     admission control (quota) is visible on the wire;
//! (d') a decoded request naming a column the table does not have is
//!     refused at admission with `Malformed`, the connection left open;
//!     so is one whose budget no plan can honour (NaN, infinite, a
//!     fraction at or below zero, a negative target), before the answer
//!     cache sees it;
//! (e) a request the answer cache holds is answered on the event loop
//!     that read it — 256 pipelined hits come back bit-identical over a
//!     router whose queue nothing drains;
//! (e') a warm reply, read off a raw socket, is byte for byte the owned
//!     response frame of the in-process outcome — scalar, grouped and
//!     sketch answers alike;
//! (f) replies parked while the client waited for another id come back
//!     from `recv` in the order they arrived;
//! (g) progressive requests pipelined on one connection each stream their
//!     own contiguous partials, all ahead of a bit-identical final;
//! (h) a request frame larger than a shard's 256 KiB read buffer is
//!     reassembled across reads and answered bit-identically.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ps3::core::{spec_rng, Method, Ps3Config, Ps3System, QueryRequest, Router};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::net::proto::{
    decode_body, encode_frame, ErrorCode, Frame, FrameBuffer, RequestFrame, ResponseFrame,
    DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use ps3::net::{ClientError, NetClient, NetServer, ServerConfig, ServerReply};
use ps3::query::{
    AggExpr, Clause, CmpOp, Predicate, Query, QueryAnswer, QuerySpec, ScalarExpr, SketchQuery,
};
use ps3::sketch::codec::answer_sketch_to_bytes;
use ps3::storage::ColId;

fn trained(kind: DatasetKind, seed: u64) -> (Dataset, Arc<Ps3System>) {
    let ds = DatasetConfig::new(kind, ScaleProfile::Tiny).build(seed);
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 6;
    cfg.feature_selection = false;
    let system = Arc::new(ds.train_system(cfg));
    (ds, system)
}

/// A server config pinned to an explicit shard count (ignoring the
/// `PS3_NET_SHARDS` env override the default would read) so the sharded
/// and single-loop paths are both exercised deterministically.
fn shards(net_shards: usize) -> ServerConfig {
    ServerConfig {
        net_shards,
        ..ServerConfig::default()
    }
}

/// Bit-exact view of an answer, in its key order: key words → value bits.
fn answer_bits(answer: &QueryAnswer) -> Vec<(Vec<u64>, Vec<u64>)> {
    answer
        .groups
        .iter()
        .map(|(k, vs)| (k.0.to_vec(), vs.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// One length-prefixed frame, as the bytes that crossed the socket.
fn read_wire_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut wire = vec![0u8; 4];
    stream.read_exact(&mut wire).expect("frame length");
    let body_len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
    wire.resize(4 + body_len, 0);
    stream.read_exact(&mut wire[4..]).expect("frame body");
    wire
}

/// The request frame for `req` under correlation id `id`, as wire bytes.
fn request_wire(id: u64, req: &QueryRequest) -> Vec<u8> {
    encode_frame(&Frame::Request(
        RequestFrame::from_request(id, req).unwrap(),
    ))
    .unwrap()
}

/// (a) Eight concurrent clients, each firing every request twice, all
/// bit-identical to direct cache-free execution — run at both shard
/// counts: answers must not depend on which event loop owns a socket.
fn eight_concurrent_tcp_clients_match_direct_execution_at(net_shards: usize) {
    let (ds, system) = trained(DatasetKind::Aria, 51);
    let router = Router::builder()
        .table("aria", Arc::clone(&system))
        .queue_capacity(128)
        .build();
    let server =
        NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(net_shards)).expect("bind");
    let addr = server.addr();

    let reqs: Arc<Vec<QueryRequest>> = Arc::new(
        (0..4)
            .map(|i| {
                QueryRequest::new(ds.sample_test_query(i), Method::Ps3, 0.2, 42).on_table("aria")
            })
            .collect(),
    );
    // Ground truth: direct execution on the system — no router, no caches,
    // no wire — with the same derived RNG.
    let direct: Arc<Vec<(QueryAnswer, usize)>> = Arc::new(
        reqs.iter()
            .map(|r| {
                let mut rng = spec_rng(&r.query, r.seed);
                let frac = r.budget.as_fraction().expect("explicit fraction");
                let out = system.answer_spec_on(&r.query, r.method, frac, &mut rng, router.pool());
                (out.answer, out.selection.len())
            })
            .collect(),
    );

    let clients: Vec<_> = (0..8)
        .map(|t| {
            let reqs = Arc::clone(&reqs);
            let direct = Arc::clone(&direct);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for round in 0..2 {
                    for (i, req) in reqs.iter().enumerate() {
                        let remote = client.request(req).expect("served");
                        assert_eq!(
                            answer_bits(&remote.answer),
                            answer_bits(&direct[i].0),
                            "client {t} round {round}: request {i} diverged \
                             from direct answer_spec_on, bit for bit"
                        );
                        assert_eq!(
                            remote.meta.partitions_read as usize, direct[i].1,
                            "the served selection size matches direct execution"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.requests, 64, "8 clients × 4 requests × 2 rounds");
    assert_eq!(stats.errors, 0);
    drop(server);
    router.shutdown();
}

#[test]
fn eight_concurrent_tcp_clients_match_direct_execution() {
    eight_concurrent_tcp_clients_match_direct_execution_at(1);
}

#[test]
fn eight_concurrent_tcp_clients_match_direct_execution_sharded() {
    eight_concurrent_tcp_clients_match_direct_execution_at(4);
}

/// (a) for the sketch classes: PERCENTILE / COUNT(DISTINCT) / TOP_K
/// requests travel the same wire (protocol v3 spec tag + answer-sketch
/// blob) and come back bit-identical to direct in-process execution —
/// the answer, the deterministic metadata, and the merged answer sketch
/// itself, compared through the codec — at both shard counts.
fn sketch_queries_over_the_wire_match_direct_execution_at(net_shards: usize) {
    let (_ds, system) = trained(DatasetKind::Aria, 58);
    let router = Router::builder().table("aria", Arc::clone(&system)).build();
    let server =
        NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(net_shards)).expect("bind");

    // Aria (appendix A): cols 0..=6 numeric, 7..=10 categorical.
    let specs: Vec<QuerySpec> = vec![
        SketchQuery::percentile(ColId(0), 0.5).into(),
        SketchQuery::percentile(ColId(3), 0.9)
            .filtered(Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Ge,
                value: 1.0,
            }))
            .into(),
        SketchQuery::distinct(ColId(7)).into(),
        SketchQuery::top_k(ColId(7), 3).into(),
    ];

    let mut client = NetClient::connect(server.addr()).expect("connect");
    for (i, spec) in specs.iter().enumerate() {
        for method in [Method::Random, Method::Ps3] {
            let req = QueryRequest::new(spec.clone(), method, 0.25, 70 + i as u64).on_table("aria");
            let mut rng = spec_rng(&req.query, req.seed);
            let direct = system.answer_spec_on(&req.query, method, 0.25, &mut rng, router.pool());
            let remote = client.request(&req).expect("served");

            assert_eq!(
                answer_bits(&remote.answer),
                answer_bits(&direct.answer),
                "spec {i} {method:?}: wire answer diverged from answer_spec_on"
            );
            assert_eq!(remote.meta.partitions_read, direct.meta.partitions_read);
            assert_eq!(remote.meta.error_estimate, direct.meta.error_estimate);
            assert_eq!(remote.meta.exact, direct.meta.exact);
            let served = remote.sketch.expect("sketch answers carry their sketch");
            assert_eq!(
                answer_sketch_to_bytes(&served),
                answer_sketch_to_bytes(direct.sketch.as_ref().expect("direct sketch")),
                "spec {i} {method:?}: the sketch blob must survive the wire bit-for-bit"
            );
        }
    }
    assert_eq!(server.stats().errors, 0);
    drop(server);
    router.shutdown();
}

#[test]
fn sketch_queries_over_the_wire_match_direct_execution() {
    sketch_queries_over_the_wire_match_direct_execution_at(1);
}

#[test]
fn sketch_queries_over_the_wire_match_direct_execution_sharded() {
    sketch_queries_over_the_wire_match_direct_execution_at(4);
}

/// (b) Eight clients stampede one never-seen key; the router executes it
/// exactly once however the arrivals interleave (single-flight coalesces
/// racers, the answer cache serves stragglers) — including when the
/// racers arrive on four different event loops.
fn cold_key_stampede_from_eight_clients_executes_once_at(net_shards: usize) {
    let (ds, system) = trained(DatasetKind::Aria, 52);
    let router = Router::builder()
        .table("aria", Arc::clone(&system))
        .queue_capacity(64)
        .build();
    let server =
        NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(net_shards)).expect("bind");
    let addr = server.addr();

    let req = QueryRequest::new(ds.sample_test_query(1), Method::Ps3, 0.2, 909).on_table("aria");
    let before = router.stats().executions;
    let barrier = Arc::new(Barrier::new(8));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let req = req.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                barrier.wait();
                client.request(&req).expect("served").answer
            })
        })
        .collect();
    let answers: Vec<QueryAnswer> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(
        router.stats().executions - before,
        1,
        "a cold-key stampede must execute exactly once (coalesced {})",
        router.stats().coalesced
    );
    for a in &answers[1..] {
        assert_eq!(answer_bits(a), answer_bits(&answers[0]));
    }
    drop(server);
    router.shutdown();
}

#[test]
fn cold_key_stampede_from_eight_clients_executes_once() {
    cold_key_stampede_from_eight_clients_executes_once_at(1);
}

#[test]
fn cold_key_stampede_from_eight_clients_executes_once_sharded() {
    cold_key_stampede_from_eight_clients_executes_once_at(4);
}

/// (c) Disconnects — clean, mid-frame, and mid-request — never wedge any
/// event loop or the router pumps, whichever shard the victims landed on.
fn client_disconnects_do_not_wedge_the_server_at(net_shards: usize) {
    let (ds, system) = trained(DatasetKind::Aria, 53);
    let router = Router::builder().table("aria", system).build();
    let server =
        NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(net_shards)).expect("bind");
    let addr = server.addr();
    // Query 3 groups by a categorical column: the answer provably has rows.
    let req = QueryRequest::new(ds.sample_test_query(3), Method::Ps3, 0.2, 7).on_table("aria");

    // Disconnect with a request in flight: send, then hang up without
    // reading the response.
    {
        let mut quitter = NetClient::connect(addr).expect("connect");
        quitter.send(&req).expect("send");
    }
    // Disconnect mid-frame: write half a frame's length prefix and bail.
    {
        let mut half = TcpStream::connect(addr).expect("connect");
        half.write_all(&[0x40, 0x00]).expect("partial prefix");
    }
    // Disconnect immediately after connecting.
    drop(TcpStream::connect(addr).expect("connect"));

    // The server must still answer a well-behaved client promptly —
    // including the very key the quitter abandoned (its execution finished
    // in the router and warmed the cache for everyone).
    let mut survivor = NetClient::connect(addr).expect("connect");
    let remote = survivor.request(&req).expect("served after disconnects");
    assert!(remote.answer.num_groups() > 0);
    assert_eq!(
        router.stats().executions,
        1,
        "one key was ever requested; whether the quitter's copy was \
         admitted or discarded, it executed at most once"
    );
    // Dead connections are reaped (give the event loops a moment to notice).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().open_connections > 1 {
        assert!(Instant::now() < deadline, "disconnected conns never reaped");
        thread::sleep(Duration::from_millis(10));
    }
    drop(server);
    router.shutdown();
}

#[test]
fn client_disconnects_do_not_wedge_the_server() {
    client_disconnects_do_not_wedge_the_server_at(1);
}

#[test]
fn client_disconnects_do_not_wedge_the_server_sharded() {
    client_disconnects_do_not_wedge_the_server_at(4);
}

/// The round-robin deal actually spreads load: with four shards and eight
/// concurrently-open connections, every shard ends up owning some of them
/// (shard 0 accepts; the others receive theirs via waker handoff).
#[test]
fn connections_distribute_across_shards() {
    let (ds, system) = trained(DatasetKind::Aria, 57);
    let router = Router::builder().table("aria", system).build();
    let server = NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(4)).expect("bind");
    let addr = server.addr();

    let req = QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, 3).on_table("aria");
    // Hold all eight connections open at once; a served request proves the
    // owning shard registered (handoffs drained) and polls the socket.
    let mut clients: Vec<NetClient> = (0..8).map(|_| NetClient::connect(addr).unwrap()).collect();
    for client in &mut clients {
        client.request(&req).expect("served");
    }
    let per_shard = server.accepted_by_shard();
    assert_eq!(per_shard.len(), 4);
    assert_eq!(
        per_shard.iter().sum::<u64>(),
        8,
        "all accepts accounted for"
    );
    for (shard, &n) in per_shard.iter().enumerate() {
        assert!(
            n >= 1,
            "shard {shard} owns no connections: {per_shard:?} — the \
             round-robin deal is not reaching every event loop"
        );
    }
    drop(clients);
    drop(server);
    router.shutdown();
}

/// (e) A cache hit never hops. The router has no pumps, so a queued
/// request can only finish when this test drains it: 256 pipelined
/// requests over 8 warm keys nevertheless come back, each frame bit for
/// bit the encoding of the in-process answer, while a never-seen key on
/// the same connection waits for the drain. Binds with the default config
/// so the `PS3_NET_SHARDS=4` CI step runs it sharded.
#[test]
fn cached_requests_are_answered_without_the_queue() {
    let (ds, system) = trained(DatasetKind::Aria, 58);
    let router = Router::builder()
        .table("aria", system)
        .pump_workers(0)
        .build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let req = |seed: u64| {
        QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, seed).on_table("aria")
    };
    let warm: Vec<_> = (0..8).map(|k| router.answer_now(table, &req(k))).collect();
    let warmed = router.stats();

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let burst: Vec<u8> = (1..=256u64)
        .flat_map(|id| request_wire(id, &req(id % 8)))
        .collect();
    stream.write_all(&burst).expect("pipelined burst");
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..256 {
        let wire = read_wire_frame(&mut stream);
        let Frame::Response(resp) = decode_body(&wire[4..]).expect("decodes") else {
            panic!("a warm request must be answered, not refused");
        };
        let id = resp.request_id;
        let expected = ResponseFrame::from_outcome(id, &warm[(id % 8) as usize]);
        assert_eq!(
            wire,
            encode_frame(&Frame::Response(expected)).unwrap(),
            "reply {id} differs from the in-process answer's encoding"
        );
        assert!(seen.insert(id), "reply {id} delivered twice");
    }
    let stats = router.stats();
    assert_eq!(stats.answers.hits - warmed.answers.hits, 256);
    assert_eq!(stats.answers.misses, warmed.answers.misses);
    assert_eq!(stats.executions, warmed.executions);
    assert_eq!((router.queue_len(), stats.in_flight), (0, 0));

    // A never-seen key queues and stays unanswered: once the job is
    // visible in the queue the server is done with the request, and only
    // a drain can produce its reply.
    stream.write_all(&request_wire(257, &req(99))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.queue_len() == 0 {
        assert!(
            Instant::now() < deadline,
            "the miss never reached the queue"
        );
        thread::sleep(Duration::from_millis(1));
    }
    stream.set_nonblocking(true).unwrap();
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("a queued miss was answered before any drain: {other:?}"),
    }
    stream.set_nonblocking(false).unwrap();
    assert_eq!(router.drain_queued(1), 1);
    let wire = read_wire_frame(&mut stream);
    let served = router.answer_now(table, &req(99));
    assert_eq!(
        wire,
        encode_frame(&Frame::Response(ResponseFrame::from_outcome(257, &served))).unwrap()
    );
    assert_eq!(router.stats().executions, warmed.executions + 1);
    let served_stats = server.stats();
    assert_eq!((served_stats.requests, served_stats.errors), (257, 0));
    drop(server);
    router.shutdown();
}

/// (e') The server encodes a warm reply straight from the cache's shared
/// outcome. Over a raw socket, for a grouped query and a sketch query, the
/// bytes must be exactly the owned frame of `router.answer_now`'s outcome
/// for the same request.
#[test]
fn warm_replies_are_the_owned_frame_bytes_on_the_socket() {
    let (ds, system) = trained(DatasetKind::Aria, 60);
    let router = Router::builder().table("aria", system).build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    // Aria (appendix A): col 0 numeric, col 7 categorical.
    let grouped = Query::new(
        vec![AggExpr::sum(ScalarExpr::col(ColId(0))), AggExpr::count()],
        None,
        vec![ColId(7)],
    );
    let specs: Vec<QuerySpec> = vec![
        ds.sample_test_query(3).into(),
        grouped.into(),
        SketchQuery::percentile(ColId(0), 0.9).into(),
    ];
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for (i, spec) in specs.into_iter().enumerate() {
        let req = QueryRequest::new(spec, Method::Ps3, 0.25, 40 + i as u64).on_table("aria");
        let outcome = router.answer_now(table, &req);
        match i {
            1 => assert!(outcome.answer.groups.len() > 1, "a grouped answer"),
            2 => assert!(outcome.sketch.is_some(), "a sketch answer"),
            _ => {}
        }
        let executed = router.stats().executions;
        let id = 900 + i as u64;
        stream.write_all(&request_wire(id, &req)).expect("request");
        assert_eq!(
            read_wire_frame(&mut stream),
            encode_frame(&Frame::Response(ResponseFrame::from_outcome(id, &outcome))).unwrap(),
            "spec {i}: the served reply differs from the owned frame"
        );
        assert_eq!(router.stats().executions, executed, "spec {i}: a cache hit");
    }
    assert_eq!(server.stats().errors, 0);
    drop(server);
    router.shutdown();
}

/// (f) Sixteen warm requests pipelined on one connection to a one-shard
/// server: each is a cache hit answered on the event loop in read order,
/// so replies arrive as ids 1..=16. Waiting for 16 parks the other
/// fifteen; `recv` then hands them back in that arrival order.
#[test]
fn recv_returns_parked_replies_in_arrival_order() {
    let (ds, system) = trained(DatasetKind::Aria, 59);
    let router = Router::builder().table("aria", system).build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind_with(Arc::clone(&router), "127.0.0.1:0", shards(1)).expect("bind");
    let req = |seed: u64| {
        QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, seed).on_table("aria")
    };
    for seed in 1..=16 {
        router.answer_now(table, &req(seed));
    }
    let warmed = router.stats();

    let mut client = NetClient::connect(server.addr()).expect("connect");
    for seed in 1..=16 {
        assert_eq!(client.send(&req(seed)).expect("queued"), seed);
    }
    assert_eq!(client.recv_for(16).expect("reply").request_id(), 16);
    let ids: Vec<u64> = (0..15)
        .map(|_| client.recv().expect("parked reply").request_id())
        .collect();
    assert_eq!(ids, (1..=15).collect::<Vec<_>>());
    assert_eq!(router.stats().executions, warmed.executions, "all hits");
    drop(client);
    drop(server);
    router.shutdown();
}

/// (g) Eight cold progressive requests sent on one connection before any
/// reply is read: their executions interleave on the pumps, yet each id's
/// partials arrive contiguous from seq 0, strictly refining, and before
/// its final answer, which is bit-identical to direct execution. Built on
/// the default config, so CI's `PS3_NET_SHARDS=4` step runs it sharded.
#[test]
fn pipelined_progressive_streams_stay_ordered_per_request() {
    let (ds, system) = trained(DatasetKind::Aria, 61);
    let router = Router::builder().table("aria", Arc::clone(&system)).build();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let query = ds.sample_test_query(2);
    let reqs: Vec<QueryRequest> = (0..8)
        .map(|seed| {
            QueryRequest::new(query.clone(), Method::Random, 0.5, 300 + seed)
                .on_table("aria")
                .progressive()
        })
        .collect();
    let ids: Vec<u64> = reqs
        .iter()
        .map(|req| client.send(req).expect("queued"))
        .collect();

    for (req, &id) in reqs.iter().zip(&ids) {
        let answer = match client.recv_for(id).expect("reply") {
            ServerReply::Answer(answer) => answer,
            other => panic!("request {id} refused: {other:?}"),
        };
        let partials = client.take_partials(id);
        assert!(!partials.is_empty(), "request {id} streams partials");
        let mut last_done = 0;
        for (i, p) in partials.iter().enumerate() {
            assert_eq!(p.seq as usize, i, "request {id}: contiguous sequence");
            assert!(p.partitions_done > last_done, "request {id}: refining");
            assert!(p.partitions_done < p.partitions_total, "request {id}");
            last_done = p.partitions_done;
        }
        let mut rng = spec_rng(&req.query, req.seed);
        let direct =
            system.answer_spec_on(&req.query, Method::Random, 0.5, &mut rng, router.pool());
        assert_eq!(
            answer_bits(&answer.answer),
            answer_bits(&direct.answer),
            "request {id}: the final is bit-identical to direct execution"
        );
    }
    // One more round trip reads everything the server wrote before its
    // reply, so a partial that trailed its final would be stashed by now.
    let repeat = QueryRequest::new(query, Method::Random, 0.5, 300).on_table("aria");
    client.request(&repeat).expect("a cache hit");
    for &id in &ids {
        assert!(client.take_partials(id).is_empty(), "request {id}");
    }
    assert_eq!(server.stats().errors, 0);
    drop(client);
    drop(server);
    router.shutdown();
}

/// (d-1) Router refusals are typed, leave the connection open, and the
/// tenant quota is visible on the wire.
#[test]
fn typed_errors_and_wire_visible_admission_control() {
    let (ds, system) = trained(DatasetKind::Aria, 54);
    // No pumps: accepted work sits queued until the test drains it, which
    // makes the quota arithmetic deterministic.
    let router = Router::builder()
        .table("aria", system)
        .pump_workers(0)
        .queue_capacity(16)
        .build();
    let server = NetServer::bind_with(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            per_conn_quota: Some(1),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let good = |seed: u64| {
        QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, seed).on_table("aria")
    };

    // Unknown table: typed refusal, connection stays open.
    let err = client
        .request(&good(1).on_table("nope"))
        .expect_err("unknown table");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::UnknownTable),
        other => panic!("expected server refusal, got {other}"),
    }

    // Pipelined pair against a quota of 1: the first is accepted (and sits
    // in the pumpless queue), the second is refused on the wire.
    let id1 = client.send(&good(2)).expect("send 1");
    let id2 = client.send(&good(3)).expect("send 2");
    let refusal = client.recv_for(id2).expect("reply 2");
    match refusal {
        ps3::net::ServerReply::Error(e) => assert_eq!(e.code, ErrorCode::QuotaExhausted),
        other => panic!("expected QuotaExhausted, got {other:?}"),
    }
    // Draining the queue completes the accepted request.
    let drainer = {
        let router = Arc::clone(&router);
        thread::spawn(move || {
            while router.drain_queued(usize::MAX) == 0 {
                thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let reply = client.recv_for(id1).expect("reply 1");
    match reply {
        ps3::net::ServerReply::Answer(a) => assert_eq!(a.request_id, id1),
        other => panic!("expected answer, got {other:?}"),
    }
    drainer.join().unwrap();
    drop(server);
    router.shutdown();
}

/// (d-1b) A well-formed request whose query does not fit the routed
/// table's schema — a column it lacks, or an operator over the wrong kind
/// of column (`AVG` of a dictionary, `<` on one, `IN` on a numeric one) —
/// is refused at admission — typed, naming the column, with nothing
/// executed and no pool worker panicked — and the connection it arrived on
/// goes on serving. Binds with the default config so the
/// `PS3_NET_SHARDS=4` CI step runs it sharded.
#[test]
fn out_of_schema_queries_are_refused_at_admission_not_panicked() {
    use ps3::query::{AggExpr, CmpOp, Query, ScalarExpr};
    use ps3::storage::ColumnType;

    let (ds, system) = trained(DatasetKind::Aria, 59);
    let router = Router::builder().table("aria", Arc::clone(&system)).build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let schema = ds.pt.table().schema();
    let categorical = schema.cols_of_type(ColumnType::Categorical)[0];
    let numeric = schema.cols_of_type(ColumnType::Numeric)[0];
    let far = ColId(9999);
    let on_far = Predicate::Clause(Clause::str_eq(far, "x"));
    let count_where = |clause| Query::new(vec![AggExpr::count()], Some(clause), vec![]);
    let avg_of = |col| AggExpr::avg(ScalarExpr::col(col));
    let lt_3 = |col| {
        let (op, value) = (CmpOp::Lt, 3.0);
        Predicate::Clause(Clause::Cmp { col, op, value })
    };
    let refused: [(QuerySpec, ColId); 9] = [
        (
            Query::new(vec![AggExpr::sum(ScalarExpr::col(far))], None, vec![]).into(),
            far,
        ),
        (
            Query::new(vec![AggExpr::count()], Some(on_far), vec![]).into(),
            far,
        ),
        (
            Query::new(vec![AggExpr::count()], None, vec![far]).into(),
            far,
        ),
        (SketchQuery::percentile(far, 0.5).into(), far),
        (SketchQuery::distinct(far).into(), far),
        (
            SketchQuery::percentile(categorical, 0.5).into(),
            categorical,
        ),
        // In the schema, of the kind the operator cannot read: these
        // passed admission and panicked in `Table::numeric` /
        // `Table::categorical`, which name the column by name.
        (
            Query::new(vec![avg_of(categorical)], None, vec![numeric]).into(),
            categorical,
        ),
        (count_where(lt_3(categorical)).into(), categorical),
        (
            count_where(Predicate::Clause(Clause::str_eq(numeric, "7"))).into(),
            numeric,
        ),
    ];
    let before = router.stats();
    for (i, (spec, col)) in refused.into_iter().enumerate() {
        let req = QueryRequest::new(spec, Method::Ps3, 0.2, i as u64).on_table("aria");
        let Err(ClientError::Server(e)) = client.request(&req) else {
            panic!("case {i}: expected a typed refusal");
        };
        assert_eq!(e.code, ErrorCode::Malformed, "case {i}: {}", e.message);
        let names_it = e.message.contains(&format!("column {} ", col.index()));
        let by_name = (col != far).then(|| schema.col(col).name.as_str());
        let leaks = ["index out of bounds", "panicked"]
            .into_iter()
            .chain(by_name)
            .any(|text| e.message.contains(text));
        assert!(names_it && !leaks, "case {i}: {}", e.message);
    }
    let after = router.stats();
    assert_eq!(after.executions, before.executions, "nothing may execute");
    assert_eq!((router.queue_len(), after.in_flight), (0, 0));
    assert_eq!(server.stats().errors, 9);

    // The same connection then answers a valid request, bit-identically
    // to in-process.
    let good = QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, 7).on_table("aria");
    let remote = client.request(&good).expect("the connection stayed open");
    let local = router.answer_now(table, &good);
    assert_eq!(answer_bits(&remote.answer), answer_bits(&local.answer));
    assert_eq!(remote.meta.partitions_read as usize, local.selection.len());
    drop(server);
    router.shutdown();
}

/// (d') Budgets no plan can honour are refused with `Malformed` before the
/// answer cache: nothing executes, nothing is cached (three NaN payloads
/// used to key three entries), and the connection stays open for a valid
/// request.
#[test]
fn unservable_budgets_are_refused_and_the_connection_stays_open() {
    let (ds, system) = trained(DatasetKind::Aria, 61);
    let router = Router::builder().table("aria", system).build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let query = ds.sample_test_query(2);
    let req = |budget: f64, seed| {
        QueryRequest::new(query.clone(), Method::Ps3, budget, seed).on_table("aria")
    };
    let refused = [
        req(f64::NAN, 1),
        req(f64::NAN, 2),
        req(f64::NAN, 3),
        req(-3.0, 4),
        req(0.0, 5),
        req(f64::INFINITY, 6),
        req(0.2, 7).with_error_target(-0.05),
        req(0.2, 8).with_latency_target(f64::NAN),
    ];
    let n_refused = refused.len() as u64;
    let before = router.stats();
    for (i, bad) in refused.iter().enumerate() {
        let Err(ClientError::Server(e)) = client.request(bad) else {
            panic!("case {i} ({:?}): expected a typed refusal", bad.budget);
        };
        assert_eq!(e.code, ErrorCode::Malformed, "case {i}: {}", e.message);
        assert!(e.message.contains("budget"), "case {i}: {}", e.message);
    }
    let after = router.stats();
    assert_eq!(after.executions, before.executions, "nothing may execute");
    assert_eq!(
        after.answers.len, before.answers.len,
        "nothing may be cached"
    );
    assert_eq!((router.queue_len(), after.in_flight), (0, 0));
    assert_eq!(server.stats().errors, n_refused);

    let good = req(0.2, 9);
    let remote = client.request(&good).expect("the connection stayed open");
    let local = router.answer_now(table, &good);
    assert_eq!(answer_bits(&remote.answer), answer_bits(&local.answer));
    assert_eq!(remote.meta.partitions_read as usize, local.selection.len());
    drop(server);
    router.shutdown();
}

/// (h) Requests bigger than a shard's 256 KiB read buffer: an `IN` list of
/// 40,000 values (≈ 320 KB on the wire, under the codec's 65,535 cap), real
/// dictionary values among the misses, arrive over more than one read and
/// are answered bit-identically to in-process.
#[test]
fn a_request_larger_than_the_read_buffer_is_reassembled() {
    use ps3::storage::ColumnType;

    let (ds, system) = trained(DatasetKind::Aria, 62);
    let router = Router::builder().table("aria", system).build();
    let table = router.table_id("aria").unwrap();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let schema = ds.pt.table().schema();
    let col = schema.cols_of_type(ColumnType::Categorical)[0];
    let numeric = schema.cols_of_type(ColumnType::Numeric)[0];
    let (_, dict) = ds.pt.table().categorical(col);
    let real: Vec<&str> = dict.iter().map(|(_, v)| v).take(400).collect();
    let values: Vec<String> = (0..40_000)
        .map(|i| match real.get(i / 100).filter(|_| i % 100 == 0) {
            Some(v) => (*v).to_owned(),
            None => format!("x{i:05}"),
        })
        .collect();
    let in_list = Predicate::Clause(Clause::In {
        col,
        values,
        negated: false,
    });
    let aggs = vec![AggExpr::count(), AggExpr::sum(ScalarExpr::col(numeric))];
    let query = Query::new(aggs, Some(in_list), vec![]);
    let reqs: Vec<QueryRequest> = (0..4)
        .map(|seed| QueryRequest::new(query.clone(), Method::Ps3, 0.25, seed).on_table("aria"))
        .collect();
    let wire_len = request_wire(1, &reqs[0]).len();
    assert!(
        wire_len > 256 * 1024,
        "the frame must outgrow the read buffer ({wire_len} bytes)"
    );

    // Pipelined, so frames pile up in the socket while the loop decodes
    // the one before: a read then fills the whole buffer and the loop
    // reads again before it decodes.
    let ids: Vec<u64> = reqs.iter().map(|r| client.send(r).expect("send")).collect();
    for (req, id) in reqs.iter().zip(ids) {
        let Ok(ServerReply::Answer(remote)) = client.recv_for(id) else {
            panic!("request {id} was not answered");
        };
        let local = router.answer_now(table, req);
        assert!(
            local.answer.groups.values().any(|v| v[0] > 0.0),
            "the real dictionary values match rows"
        );
        assert_eq!(answer_bits(&remote.answer), answer_bits(&local.answer));
        assert_eq!(remote.meta.partitions_read as usize, local.selection.len());
    }
    assert_eq!(server.stats().errors, 0);
    drop(server);
    router.shutdown();
}

/// (d-2) Framing failures answer with the documented code and close the
/// connection.
#[test]
fn framing_failures_send_typed_errors_and_close() {
    let (ds, system) = trained(DatasetKind::Aria, 55);
    let router = Router::builder().table("aria", system).build();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Reads one error frame — itself a PROTO_VERSION frame, whatever the
    // peer sent — then expects EOF.
    let expect_error_then_close = |mut stream: TcpStream, want: ErrorCode| {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut buf = FrameBuffer::new(DEFAULT_MAX_FRAME);
        let mut chunk = [0u8; 4096];
        let mut first_bytes = Vec::new();
        let frame = loop {
            if let Some(frame) = buf.next_frame().expect("server frames decode") {
                break frame;
            }
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed before the error frame arrived");
            buf.push(&chunk[..n]);
            first_bytes.extend_from_slice(&chunk[..n]);
        };
        assert_eq!(first_bytes[4], PROTO_VERSION, "every server frame is v3");
        match frame {
            Frame::Error(e) => assert_eq!(e.code, want),
            other => panic!("expected error frame, got {other:?}"),
        }
        // And then EOF.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(_) => continue, // drain any straggling bytes
                Err(e) => panic!("expected clean close, got {e}"),
            }
        }
    };

    // A frame whose version byte is wrong — the retired dialects 1 and 2
    // are refused exactly like a version that never existed.
    for version in [1u8, 2, 9] {
        let mut s = TcpStream::connect(addr).expect("connect");
        let body = [version, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        s.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&body).unwrap();
        expect_error_then_close(s, ErrorCode::UnsupportedVersion);
    }
    // A length prefix exceeding the server's cap.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        expect_error_then_close(s, ErrorCode::FrameTooLarge);
    }
    // A well-versed frame with a garbage kind.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let body = [PROTO_VERSION, 77, 0, 0, 0, 0, 0, 0, 0, 0]; // kind 77
        s.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&body).unwrap();
        expect_error_then_close(s, ErrorCode::Malformed);
    }

    // After all that abuse, a well-behaved client is still served.
    let mut client = NetClient::connect(addr).expect("connect");
    let req = QueryRequest::new(ds.sample_test_query(3), Method::Ps3, 0.2, 1).on_table("aria");
    client.request(&req).expect("served");
    assert_eq!(router.stats().executions, 1, "the request really executed");
    drop(server);
    router.shutdown();
}

/// A request that refuses to encode client-side — here a table name
/// longer than a wire string's 65,535 bytes — consumes no correlation id
/// and leaves no partial frame in the outgoing queue.
#[test]
fn refused_requests_consume_no_id_and_queue_no_bytes() {
    let (ds, system) = trained(DatasetKind::Aria, 56);
    let router = Router::builder().table("aria", system).build();
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let long_name = "a".repeat(usize::from(u16::MAX) + 1);
    let req = QueryRequest::new(ds.sample_test_query(0), Method::Ps3, 0.2, 1);
    match client.send(&req.clone().on_table(long_name.as_str())) {
        Err(ClientError::Proto(_)) => {}
        other => panic!("an over-long table name must refuse to encode, got {other:?}"),
    }
    // The refusal consumed no id and queued no bytes: the next request is
    // id 1, and the server reads it as the first frame on the connection.
    let named = client
        .send(&req.on_table("aria"))
        .expect("named routes encode");
    assert_eq!(named, 1, "a refused request must not consume an id");
    match client.recv().expect("the server answers") {
        ServerReply::Answer(answer) => assert_eq!(answer.request_id, 1),
        ServerReply::Error(e) => panic!("the queue held stray bytes: {e:?}"),
    }
    drop(server);
    router.shutdown();
}
