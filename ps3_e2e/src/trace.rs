//! The traced run: the first requests of a workload's list replayed through
//! nested public entry points, outermost first —
//!
//! `NetClient::request` ⊃ `Tenant::submit` + `Ticket::wait` ⊃
//! `Router::answer_planned` ⊃ `Ps3System::answer_spec_on` ⊃ { features,
//! compile, pick, execute, estimate }
//!
//! — each level against a router or system of its own, thawed from the
//! artifact and warmed the way the workload warms its server, so no level is
//! served from a cache another level filled. Request `i` does the same work
//! at every level, one level right after the other, which makes
//! `level[i] - child level[i]` that request's self time in the outer layer.
//! Spans are recorded from here, around the calls into each layer; spans
//! inside the program are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ps3_core::estimator::estimate_from_totals;
use ps3_core::{spec_rng, AnswerOutcome, Budget, BudgetPlan, Ps3System, QueryRequest};
use ps3_net::proto::{decode_body, encode_frame, Frame, RequestFrame, ResponseFrame};
use ps3_net::NetClient;
use ps3_query::{
    execute_partitions_compiled_totals_on, AggExpr, AggFunc, CompiledQuery, CompiledSketchQuery,
    Query, QuerySpec,
};
use ps3_runtime::ThreadPool;
use ps3_sketch::codec::{answer_sketch_from_bytes, answer_sketch_to_bytes};
use ps3_stats::{QueryFeatures, StatsConfig, TableStats};

use crate::drive::warm_up;
use crate::fixture::{Fixture, Scale, Served};
use crate::requests::{head, Req, Workload};
use crate::spec::Kind;
use crate::summary::{mean, median, quantile};

/// One timed interval: which call, when, inside which outer call, for which
/// request of the replayed list.
struct Span {
    name: &'static str,
    parent: &'static str,
    request: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace; times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result and duration in µs.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = std::hint::black_box(f());
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        (result, (end_ns - start_ns) as f64 / 1e3)
    }

    /// Write the spans as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"request\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}}}{comma}",
                s.name, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// What the traced replay measured.
pub struct Traced {
    /// Layer medians, keyed by per-layer metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Median of the outermost span, to set against the untraced run.
    pub net_request_p50_us: f64,
}

/// Median of the values at `indices`; 0 when there are none.
fn median_at(values: &[f64], indices: &[usize]) -> f64 {
    median(&mut indices.iter().map(|&i| values[i]).collect::<Vec<_>>())
}

/// Median over `indices` of `outer[i] - inner[i]`.
fn median_gap(outer: &[f64], inner: &[f64], indices: &[usize]) -> f64 {
    median(
        &mut indices
            .iter()
            .map(|&i| outer[i] - inner[i])
            .collect::<Vec<_>>(),
    )
}

/// The scalar query the picker sees for `spec`: the query itself, or
/// `COUNT(*)` under a sketch query's predicate (what `answer_sketch_on`
/// picks through).
fn picker_query(spec: &QuerySpec) -> Query {
    match spec {
        QuerySpec::Scalar(q) => q.clone(),
        QuerySpec::Sketch(q) => Query::new(vec![AggExpr::count()], q.predicate.clone(), vec![]),
    }
}

/// Per-request component times of the innermost level, in µs.
#[derive(Default)]
struct Components {
    features: Vec<f64>,
    compile: Vec<f64>,
    pick: Vec<f64>,
    clustering: Vec<f64>,
    outliers: Vec<f64>,
    execute: Vec<f64>,
    execute_ns_per_row: Vec<f64>,
    estimate: Vec<f64>,
    sketch_partition: Vec<f64>,
    merge: Vec<f64>,
    codec_encode: Vec<f64>,
    codec_decode: Vec<f64>,
    blob_bytes: Vec<f64>,
    pick_at_half: Vec<f64>,
    /// Sum of the timed components of each cold request.
    total: Vec<f64>,
}

/// Time the pieces `answer_spec_on` is made of, for one cold request.
#[allow(clippy::too_many_arguments)]
fn components_of(
    tracer: &mut Tracer,
    system: &Ps3System,
    pool: &ThreadPool,
    rows_per_partition: usize,
    request: usize,
    req: &QueryRequest,
    frac: f64,
    c: &mut Components,
) {
    const PARENT: &str = "system.answer_spec_on";
    let table = system.pt.table();
    let query = picker_query(&req.query);
    let mut total = 0.0;
    // A query the feature cache still holds costs the real path neither
    // features nor compilation.
    let misses = system.feature_cache_stats().misses;
    let artifacts = system.artifacts_for(&query);
    if system.feature_cache_stats().misses > misses {
        let (_, us) = tracer.span("stats.features", PARENT, request, || {
            QueryFeatures::compute(&system.stats, table, &query)
        });
        c.features.push(us);
        total += us;
        let (_, us) = tracer.span("query.compile", PARENT, request, || {
            CompiledQuery::compile(table, &query)
        });
        c.compile.push(us);
        total += us;
    }
    let mut rng = spec_rng(&req.query, req.seed);
    let (picked, us) = tracer.span("picker.pick", PARENT, request, || {
        system.pick_outcome(&query, frac, &mut rng)
    });
    c.pick.push(us);
    c.clustering.push(picked.clustering_ms * 1e3);
    c.outliers.push(picked.num_outliers as f64);
    total += us;
    if c.pick_at_half.len() < 32 {
        // The planner's upper rungs, where clustering is steepest. Outside
        // any span: no request of the list runs it.
        let mut rng = spec_rng(&req.query, req.seed);
        let started = Instant::now();
        std::hint::black_box(system.pick_outcome(&query, 0.5, &mut rng));
        c.pick_at_half.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let selection = &picked.selection;
    match &req.query {
        QuerySpec::Scalar(_) => {
            let ((_, totals), us) = tracer.span("query.execute", PARENT, request, || {
                execute_partitions_compiled_totals_on(
                    &system.pt,
                    &artifacts.compiled,
                    selection,
                    pool,
                )
            });
            c.execute.push(us);
            c.execute_ns_per_row
                .push(us * 1e3 / (selection.len() * rows_per_partition).max(1) as f64);
            total += us;
            let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
            let weights: Vec<f64> = selection.iter().map(|wp| wp.weight).collect();
            let (_, us) = tracer.span("estimator.estimate", PARENT, request, || {
                estimate_from_totals(&funcs, &totals, &weights, system.num_partitions())
            });
            c.estimate.push(us);
            total += us;
        }
        QuerySpec::Sketch(sq) => {
            let compiled = CompiledSketchQuery::compile(table, sq);
            let (parts, us) = tracer.span("query.sketch_partitions", PARENT, request, || {
                selection
                    .iter()
                    .map(|wp| compiled.sketch_partition(table, system.pt.rows(wp.partition)))
                    .collect::<Vec<_>>()
            });
            c.sketch_partition.push(us / selection.len().max(1) as f64);
            total += us;
            let (merged, us) = tracer.span("sketch.merge", PARENT, request, || {
                let mut merged = compiled.empty_sketch();
                for part in &parts {
                    merged.merge_from(part);
                }
                merged
            });
            c.merge.push(us);
            total += us;
            // The codec runs inside the response frame, outside
            // `answer_spec_on`: timed, not summed.
            let (blob, us) = tracer.span("sketch.codec_encode", "net.request", request, || {
                answer_sketch_to_bytes(&merged)
            });
            c.codec_encode.push(us);
            c.blob_bytes.push(blob.len() as f64);
            let (_, us) = tracer.span("sketch.codec_decode", "net.request", request, || {
                answer_sketch_from_bytes(&blob).expect("own encoding decodes")
            });
            c.codec_decode.push(us);
        }
    }
    c.total.push(total);
}

/// Time `f` in ns without a span (frame codecs: too short for one each).
fn nanos<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_nanos() as f64)
}

/// Replay the head of `kind`'s list through every level and return the layer
/// medians. `trace.coverage_ratio` is the sum of the layers' self times over
/// the outermost span, taken over the requests that executed (cold ones).
pub fn traced_layers(
    tracer: &mut Tracer,
    fixture: &Fixture,
    scale: &Scale,
    kind: Kind,
    seed: u64,
    seconds: f64,
) -> Traced {
    let n = scale.trace_requests[Kind::ALL.iter().position(|&k| k == kind).expect("listed")];
    let workload = Workload::new(kind, fixture, scale, seed);
    let reqs: Vec<Req> = head(kind, fixture, scale, seed, seconds, n);
    let request_of = |req: Req| workload.with_request(req, QueryRequest::clone);
    let requests: Vec<QueryRequest> = reqs.iter().map(|&r| request_of(r)).collect();
    // Every level is warmed like the measured server: set-up's warm-up,
    // then the untimed requests that fill the feature cache.
    let warm_reqs: Vec<Req> = [&workload.warmup[..], &workload.settle[..]].concat();
    let warmup: Vec<QueryRequest> = warm_reqs.iter().map(|&r| request_of(r)).collect();

    // One instance of every level, each warmed like the measured server:
    // the socket; the queue without the socket; the router on the caller's
    // thread without the queue; the system, at the fraction the router
    // planned; and what `answer_spec_on` is made of. A level keeps the
    // features of 64 queries, which is all the warm workloads and
    // `planned_open` ever ask, or of 32 on `adhoc_cold`, which misses every
    // time whatever the capacity: the shipped 256 would have each of the five
    // levels touch 800 MB of fresh pages before its heap stops growing.
    let cache = if kind == Kind::AdhocCold { 32 } else { 64 };
    let warm_reqs = &warm_reqs[warm_reqs.len().saturating_sub(cache)..];
    let warmup = &warmup[warmup.len().saturating_sub(cache)..];
    let level = || fixture.thaw_with_cache(cache);
    let served = Served::bind(fixture.router_over(level()));
    let mut client = NetClient::connect(served.server.addr()).expect("connect");
    warm_up(&mut client, &workload, warm_reqs);
    let queue = fixture.router_over(level());
    let tenant = queue.router.tenant("trace", Some(64));
    for req in warmup {
        tenant.answer(req.clone()).expect("warm-up admitted");
    }
    let direct = fixture.router_over(level());
    for req in warmup {
        direct.router.answer_now(direct.table, req);
    }
    let pool = ThreadPool::new(1);
    let (whole, parts) = (level(), level());
    for system in [&whole, &parts] {
        for req in warmup {
            let frac = req
                .budget
                .as_fraction()
                .expect("warm-up keys are fractions");
            let mut rng = spec_rng(&req.query, req.seed);
            system.answer_spec_on(&req.query, req.method, frac, &mut rng, &pool);
        }
    }

    // Request by request, one level after the other: the levels of a request
    // run within a few tens of milliseconds of each other, so a slow minute
    // of the box lands on all of them and cancels in their differences.
    let (mut net, mut queued, mut routed_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut plans: Vec<BudgetPlan> = Vec::with_capacity(n);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut answered = vec![0.0; n];
    let mut outcomes: Vec<(usize, AnswerOutcome)> = Vec::new();
    let mut c = Components::default();
    for (i, req) in requests.iter().enumerate() {
        let (reply, us) = tracer.span("net.request", "", i, || client.request(req));
        reply.expect("traced request served");
        net.push(us);
        let (_, us) = tracer.span("router.submit_wait", "net.request", i, || {
            tenant.submit(req.clone()).expect("admitted").wait()
        });
        queued.push(us);
        let before = direct.router.stats().executions;
        let ((_, plan), us) = tracer.span("router.answer_planned", "router.submit_wait", i, || {
            direct.router.answer_planned(direct.table, req)
        });
        routed_us.push(us);
        let executed = direct.router.stats().executions > before;
        plans.push(plan);
        if !executed {
            warm.push(i);
            continue;
        }
        cold.push(i);
        let mut rng = spec_rng(&req.query, req.seed);
        let (outcome, us) =
            tracer.span("system.answer_spec_on", "router.answer_planned", i, || {
                whole.answer_spec_on(&req.query, req.method, plan.frac, &mut rng, &pool)
            });
        answered[i] = us;
        outcomes.push((i, outcome));
        components_of(
            tracer,
            &parts,
            &pool,
            fixture.rows_per_partition,
            i,
            req,
            plan.frac,
            &mut c,
        );
    }
    let started = Instant::now();
    std::hint::black_box(TableStats::build(&parts.pt, &StatsConfig::default()));
    let stats_build_s = started.elapsed().as_secs_f64();
    let declared = |i: &usize| !matches!(requests[*i].budget, Budget::Fraction(_));
    let cold_fraction: Vec<usize> = cold.iter().copied().filter(|i| !declared(i)).collect();
    let cold_planned: Vec<usize> = cold.iter().copied().filter(declared).collect();
    let warm_planned: Vec<usize> = warm.iter().copied().filter(declared).collect();

    // Frames: the workload's own requests and the answers they got.
    let (mut enc_req, mut dec_req, mut req_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, req) in requests.iter().enumerate() {
        let frame = Frame::Request(RequestFrame::from_request(i as u64 + 1, req).expect("fits"));
        let (wire, ns) = nanos(|| encode_frame(&frame).expect("encodes"));
        enc_req.push(ns);
        req_bytes.push(wire.len() as f64);
        dec_req.push(nanos(|| decode_body(&wire[4..]).expect("decodes")).1);
    }
    let (mut enc_resp, mut dec_resp, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, outcome) in &outcomes {
        let frame = Frame::Response(ResponseFrame::from_outcome(*i as u64 + 1, outcome));
        let (wire, ns) = nanos(|| encode_frame(&frame).expect("encodes"));
        enc_resp.push(ns);
        resp_bytes.push(wire.len() as f64);
        dec_resp.push(nanos(|| decode_body(&wire[4..]).expect("decodes")).1);
    }

    let everyone: Vec<usize> = (0..n).collect();
    let net_self = median_gap(&net, &queued, &everyone);
    let queue_hop = median_gap(&queued, &routed_us, &everyone);
    let router_self = median_gap(&routed_us, &answered, &cold_fraction);
    let answered_cold: Vec<f64> = cold.iter().map(|&i| answered[i]).collect();
    let system_self = median(
        &mut answered_cold
            .iter()
            .zip(&c.total)
            .map(|(whole, parts)| whole - parts)
            .collect::<Vec<_>>(),
    );
    let med = |v: &[f64]| median(&mut v.to_vec());
    let outermost = median_at(&net, &cold);
    // Self times of the four outer layers plus the summed leaf components.
    let covered: f64 = [net_self, queue_hop, router_self, system_self, med(&c.total)]
        .iter()
        .map(|v| v.max(0.0))
        .sum();
    let mut sorted_net = net.clone();
    sorted_net.sort_by(f64::total_cmp);

    let layers = vec![
        ("net.encode_req_ns", med(&enc_req)),
        ("net.decode_req_ns", med(&dec_req)),
        ("net.encode_resp_ns", med(&enc_resp)),
        ("net.decode_resp_ns", med(&dec_resp)),
        ("net.req_bytes_mean", mean(&req_bytes)),
        ("net.resp_bytes_mean", mean(&resp_bytes)),
        ("net.self_us", net_self),
        ("router.queue_hop_us", queue_hop),
        ("router.answer_now_warm_us", median_at(&routed_us, &warm)),
        ("router.self_cold_us", router_self),
        ("planner.plan_cold_us", median_at(&routed_us, &cold_planned)),
        ("planner.plan_warm_us", median_at(&routed_us, &warm_planned)),
        ("stats.features_us", med(&c.features)),
        ("stats.build_s", stats_build_s),
        ("picker.pick_us", med(&c.pick)),
        ("picker.clustering_us", med(&c.clustering)),
        ("picker.pick_us_at_frac50", med(&c.pick_at_half)),
        ("picker.outliers_mean", mean(&c.outliers)),
        ("query.compile_us", med(&c.compile)),
        ("query.execute_us", med(&c.execute)),
        ("query.execute_ns_per_row", med(&c.execute_ns_per_row)),
        ("query.sketch_partition_us", med(&c.sketch_partition)),
        ("estimator.estimate_us", med(&c.estimate)),
        ("system.answer_on_us", med(&answered_cold)),
        ("system.self_us", system_self),
        ("sketch.merge_us", med(&c.merge)),
        ("sketch.codec_encode_us", med(&c.codec_encode)),
        ("sketch.codec_decode_us", med(&c.codec_decode)),
        ("sketch.blob_bytes_mean", mean(&c.blob_bytes)),
        (
            "trace.coverage_ratio",
            if outermost > 0.0 {
                covered / outermost
            } else {
                0.0
            },
        ),
    ];
    Traced {
        layers,
        net_request_p50_us: quantile(&sorted_net, 0.5),
    }
}
