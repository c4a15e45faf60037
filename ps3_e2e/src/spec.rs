//! The benchmark's contract in one place: workload names and reasons,
//! metric names, units, directions and regression bounds. `BENCHMARK.json`
//! at the repository root says the same by hand, and `tests/e2e_smoke.rs`
//! fails when the two disagree on a name, a unit, a direction or a bound.

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 25;

/// The four traffic mixes. Names are normative: later issues cite them.
/// `BENCHMARK.json` lists the first two ([`Kind::DRIVEN`]); the other two
/// run by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, 1 in flight, every request misses every cache.
    AdhocCold,
    /// Closed loop, 32 in flight, every request is an answer-cache hit.
    DashboardWarm,
    /// Open loop at a fixed rate; declarative budgets and sketch specs.
    PlannedOpen,
    /// Closed loop, 8 in flight, beside a thread that swaps the table.
    SwapUnderRead,
}

impl Kind {
    /// Every workload, in reporting order (`--workload all`).
    pub const ALL: [Kind; 4] = [
        Kind::AdhocCold,
        Kind::DashboardWarm,
        Kind::PlannedOpen,
        Kind::SwapUnderRead,
    ];

    /// The workloads `BENCHMARK.json` lists, and the driver runs and holds
    /// to the bounds. The driver makes 4 + 22 runs per listed workload inside
    /// 3420 s; four workloads left a run 12 s to measure in, and at 12 s the
    /// same code disagreed with itself by more than any bound the driver
    /// allows. Two leave 25 s and room for three set-ups. These two are the
    /// pair a change is judged on: `adhoc_cold` runs features, picker and
    /// executor on every request, `dashboard_warm` runs none of them.
    /// `planned_open` and `swap_under_read` keep more threads or sockets
    /// busy than the box has cores to give, or read a tail off a few hundred
    /// requests; they run by hand (`--workload <name>`), print the same
    /// metrics, and are held to nothing.
    pub const DRIVEN: [Kind; 2] = [Kind::AdhocCold, Kind::DashboardWarm];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AdhocCold => "adhoc_cold",
            Kind::DashboardWarm => "dashboard_warm",
            Kind::PlannedOpen => "planned_open",
            Kind::SwapUnderRead => "swap_under_read",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists, in one line (recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::AdhocCold => {
                "never-seen keys over a pool twice the feature cache, cycled in order: features, \
                 compile, pick, execute and estimate all run on every request (the paper's path)"
            }
            Kind::DashboardWarm => {
                "64 pre-warmed keys pipelined 32 deep: every request is an answer-cache hit, so \
                 only framing, event loop, queue hop and cache lookup are timed"
            }
            Kind::PlannedOpen => {
                "open loop paced at 12 req/s of error/latency targets and filtered sketch specs \
                 on never-seen keys: every request plans (3 probes), sketch merge and codec"
            }
            Kind::SwapUnderRead => {
                "warm reads 8 deep beside a thread that reloads the table 2000 replies after the \
                 last reload: thaw, generation bump and eviction turn the warm set cold each time"
            }
        }
    }

    /// The frozen latency limit behind `slo_ok_ratio`, as the clock reads
    /// (no speed correction: a limit is a promise in real time). On the two
    /// driven workloads it is 4x the median `req_p95_us` of ten runs at the
    /// commit that added the benchmark (13.2 ms and 0.81 ms; NOISE.md),
    /// rounded up to two significant digits. A request answered later than
    /// this, refused or failed misses the limit. The two hand-run workloads
    /// keep the limits they were given before the process was pinned to one
    /// processor: 4x the p95 of `planned_open` then (85.5 ms), and 4x the
    /// p99 of `swap_under_read`, whose tail is the recovery after a swap and
    /// whose p99 is six times its p95.
    pub fn limit_us(self) -> f64 {
        match self {
            Kind::AdhocCold => 53_000.0,
            Kind::DashboardWarm => 3_300.0,
            Kind::PlannedOpen => 350_000.0,
            Kind::SwapUnderRead => 120_000.0,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a client of the server sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The twelve end-to-end metrics; every workload reports all of them.
///
/// The issue asked for no bound above 0.10. The metrics that repeat exactly
/// (or nearly: `peak_rss_mb`, `slo_ok_ratio`) carry the issue's bounds. A
/// timing's bound has to clear two things measured on the shared 2-core VM
/// this was written on (NOISE.md), as reported, that is on one processor and
/// at the speed of a calm box (`speed.rs`): three times what ten runs of the
/// same code spread by between their quartiles (0.03 to 0.05 for
/// `req_p50_us` and `throughput_rps`, up to 0.08 for `req_p95_us`), and,
/// with room to spare, what the medians of two such series moved by between
/// a calm hour of the host and a slow one (0.08, 0.09 and 0.15). `setup_s`
/// is as the clock read, waits for the disk, and has the widest bound the
/// driver allows.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_p50_us", "us", Better::Lower, 0.2),
    e2e("req_p95_us", "us", Better::Lower, 0.25),
    e2e("throughput_rps", "1/s", Better::Higher, 0.2),
    e2e("ok_ratio", "ratio", Better::Higher, 0.001),
    e2e("slo_ok_ratio", "ratio", Better::Higher, 0.01),
    e2e("rel_err_mean", "ratio", Better::Lower, 0.05),
    e2e("err_vs_uniform_ratio", "ratio", Better::Lower, 0.05),
    e2e("ci_cover_ratio", "ratio", Better::Higher, 0.02),
    e2e("parts_read_frac", "ratio", Better::Lower, 0.02),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("stats_kb_per_part", "KB", Better::Lower, 0.02),
];

/// One per-layer metric from the traced run (no bound).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by the layer it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by the crate they time.
pub const PER_LAYER: [Layer; 59] = [
    // ps3_net: framing, event loop, client.
    lo("net.encode_req_ns", "ns"),
    lo("net.decode_req_ns", "ns"),
    lo("net.encode_resp_ns", "ns"),
    lo("net.decode_resp_ns", "ns"),
    lo("net.req_bytes_mean", "B"),
    lo("net.resp_bytes_mean", "B"),
    lo("net.self_us", "us"),
    lo("net.req_p99_us", "us"),
    hi("net.server_requests", "count"),
    lo("net.server_errors", "count"),
    lo("net.gen_late_p99_us", "us"),
    // ps3_core::router: queue, answer cache, swaps.
    lo("router.queue_hop_us", "us"),
    lo("router.answer_now_warm_us", "us"),
    lo("router.self_cold_us", "us"),
    hi("router.cache_hit_ratio", "ratio"),
    lo("router.executions", "count"),
    hi("router.coalesced", "count"),
    lo("router.refused", "count"),
    hi("router.swaps", "count"),
    lo("router.load_table_ms", "ms"),
    lo("router.post_swap_p95_us", "us"),
    // ps3_core::planner.
    hi("planner.plans", "count"),
    lo("planner.probes_per_plan", "count"),
    hi("planner.probe_hit_ratio", "ratio"),
    lo("planner.fallbacks", "count"),
    lo("planner.plan_cold_us", "us"),
    lo("planner.plan_warm_us", "us"),
    lo("planner.planned_frac_mean", "ratio"),
    hi("planner.target_met_ratio", "ratio"),
    hi("planner.latency_target_met_ratio", "ratio"),
    // ps3_stats.
    lo("stats.features_us", "us"),
    hi("stats.feature_cache_hit_ratio", "ratio"),
    lo("stats.build_s", "s"),
    // ps3_core::picker.
    lo("picker.pick_us", "us"),
    lo("picker.clustering_us", "us"),
    lo("picker.pick_us_at_frac50", "us"),
    lo("picker.outliers_mean", "count"),
    // ps3_query.
    lo("query.compile_us", "us"),
    lo("query.execute_us", "us"),
    lo("query.execute_ns_per_row", "ns"),
    lo("query.sketch_partition_us", "us"),
    // ps3_core::estimator and ps3_core::system.
    lo("estimator.estimate_us", "us"),
    lo("system.answer_on_us", "us"),
    lo("system.self_us", "us"),
    // ps3_sketch.
    lo("sketch.merge_us", "us"),
    lo("sketch.codec_encode_us", "us"),
    lo("sketch.codec_decode_us", "us"),
    lo("sketch.blob_bytes_mean", "B"),
    // ps3_core::persist and the fixture's set-up stages.
    lo("persist.freeze_ms", "ms"),
    lo("persist.thaw_ms", "ms"),
    lo("persist.artifact_mb", "MB"),
    lo("setup.generate_s", "s"),
    lo("setup.train_s", "s"),
    lo("setup.truth_s", "s"),
    // ps3_runtime, the box, and the trace itself.
    lo("runtime.pool_tasks_injected", "count"),
    lo("box.reference_us", "us"),
    hi("box.speed_ratio", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    hi("trace.coverage_ratio", "ratio"),
];
