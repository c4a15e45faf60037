//! One workload, end to end: set up, warm up, the timed phase, the verify
//! pass, and the twelve end-to-end metrics.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use ps3_core::{Router, RouterStats, TableId};
use ps3_net::{NetClient, ServerStats};
use ps3_runtime::CacheStats;

use crate::drive::{closed_loop, open_loop, warm_up, Phase, RawConn, Sample, Status};
use crate::fixture::{Fixture, Scale, Served};
use crate::requests::{open_requests, Req, Workload};
use crate::spec::Kind;
use crate::speed::{Reference, REF_NOMINAL_US};
use crate::summary::{median, peak_rss_mb, quantile};
use crate::verify::{verify, Verdict};

/// A served fixture with its warm-up done: everything `setup_s` pays for.
pub struct Ready {
    /// The frozen table and query pool.
    pub fixture: Fixture,
    /// The server under test.
    pub served: Served,
    /// The one connection the load arrives on.
    pub client: NetClient,
    /// The seeded request list.
    pub workload: Workload,
}

/// Build the fixture, boot the server, connect and warm up. Returns how
/// long that took.
pub fn set_up(scale: &Scale, kind: Kind, seed: u64, dir: &Path) -> (Ready, f64) {
    let started = Instant::now();
    let fixture = Fixture::build(scale, dir);
    let served = fixture.serve();
    let workload = Workload::new(kind, &fixture, scale, seed);
    let mut client = NetClient::connect(served.server.addr()).expect("connect to the server");
    warm_up(&mut client, &workload, &workload.warmup);
    let ready = Ready {
        fixture,
        served,
        client,
        workload,
    };
    (ready, started.elapsed().as_secs_f64())
}

/// Public counters of the server under test, read before and after the
/// timed phase.
#[derive(Clone, Copy)]
pub struct Counters {
    /// `Router::stats`.
    pub router: RouterStats,
    /// `NetServer::stats`.
    pub server: ServerStats,
    /// `Ps3System::feature_cache_stats` of the table's current system.
    pub features: CacheStats,
    /// `ThreadPool::tasks_injected` of the execution pool.
    pub injected: u64,
}

impl Counters {
    fn read(served: &Served) -> Counters {
        let routed = &served.routed;
        Counters {
            router: routed.router.stats(),
            server: served.server.stats(),
            features: routed.router.system(routed.table).feature_cache_stats(),
            injected: routed.exec_pool.tasks_injected(),
        }
    }
}

/// Requests a workload keeps in flight (the open loop keeps none back).
fn window(kind: Kind) -> usize {
    match kind {
        Kind::AdhocCold | Kind::PlannedOpen => 1,
        Kind::DashboardWarm => 32,
        Kind::SwapUnderRead => 8,
    }
}

/// One table swap of `swap_under_read`.
#[derive(Debug, Clone, Copy)]
pub struct Swap {
    /// When `load_table` returned, ns from the start of the phase.
    pub done_ns: u64,
    /// How long `load_table` took.
    pub load_ms: f64,
}

/// The timed phase of one workload and what was counted around it.
pub struct Measured {
    /// Samples, recorded answers, block ends, wall-clock.
    pub phase: Phase,
    /// Counters before the phase.
    pub before: Counters,
    /// Counters after it.
    pub after: Counters,
    /// Table swaps, in order.
    pub swaps: Vec<Swap>,
    /// `VmHWM` when the phase ended.
    pub peak_rss_mb: f64,
}

/// Reload the table from its artifact each time the reader asks, on a thread
/// of its own, until the channel closes; `landed` counts the swaps done.
fn swapper(
    router: &Router,
    table: TableId,
    artifact: &Path,
    started: Instant,
    asked: mpsc::Receiver<()>,
    landed: &AtomicUsize,
) -> Vec<Swap> {
    asked
        .iter()
        .map(|()| {
            let began = Instant::now();
            router
                .load_table(table, artifact)
                .expect("reload the artifact this process froze");
            // Release: the reader that sees the count sees the new table.
            landed.fetch_add(1, Ordering::Release);
            Swap {
                done_ns: started.elapsed().as_nanos() as u64,
                load_ms: began.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Run the timed phase of `ready`'s workload for about `seconds`.
pub fn measure(ready: &mut Ready, scale: &Scale, seconds: f64) -> Measured {
    let Ready {
        fixture,
        served,
        client,
        workload,
    } = ready;
    let before = Counters::read(served);
    let window = window(workload.kind);
    let mut swaps = Vec::new();
    let reference = &mut Reference::new();
    let phase = match workload.kind {
        Kind::AdhocCold => {
            // Fill the feature cache first, untimed: until it is full every
            // request grows the server's heap by an entry (3 MB), and costs
            // what the page faults cost.
            let started = Instant::now();
            warm_up(client, workload, &workload.settle);
            println!(
                "# adhoc_cold settle: {} untimed requests, {:.3} s",
                workload.settle.len(),
                started.elapsed().as_secs_f64()
            );
            let (block, record) = (scale.cold_block, scale.cold_judged);
            closed_loop(
                client,
                workload,
                window,
                seconds,
                record,
                reference,
                |done| done.is_multiple_of(block),
            )
        }
        Kind::DashboardWarm => {
            let (block, record) = (scale.warm_block, scale.warm_judged);
            closed_loop(
                client,
                workload,
                window,
                seconds,
                record,
                reference,
                |done| done.is_multiple_of(block),
            )
        }
        // A block is the stretch between two swaps landing: the re-picks
        // right after one, the warm stretch, the next thaw beside it. The
        // reader asks for the next swap `swap_every` replies after the last
        // one landed.
        Kind::SwapUnderRead => {
            let (tx, rx) = mpsc::channel();
            let landed = AtomicUsize::new(0);
            let (mut seen, mut since, mut asked) = (0, 0, false);
            let (router, table) = (&*served.routed.router, served.routed.table);
            let started = Instant::now();
            std::thread::scope(|scope| {
                let handle =
                    scope.spawn(|| swapper(router, table, &fixture.artifact, started, rx, &landed));
                let record = scale.warm_judged;
                let phase =
                    closed_loop(client, workload, window, seconds, record, reference, |_| {
                        since += 1;
                        if !asked && since >= scale.swap_every {
                            tx.send(()).expect("swapper is running");
                            asked = true;
                        }
                        let now = landed.load(Ordering::Acquire);
                        let swapped = now > seen;
                        if swapped {
                            (seen, since, asked) = (now, 0, false);
                        }
                        swapped
                    });
                drop(tx);
                swaps = handle.join().expect("swapper thread");
                phase
            })
        }
        // Too few requests for blocks: the whole schedule is one.
        Kind::PlannedOpen => {
            let schedule = workload.schedule(open_requests(seconds));
            let reqs: Vec<Req> = schedule.iter().map(|&(req, _)| req).collect();
            let due_ns: Vec<u64> = schedule.iter().map(|&(_, due)| due).collect();
            let mut conn = RawConn::connect(served.server.addr(), workload, &reqs)
                .expect("connect to the server");
            // The sender must keep to the clock, so the reference work runs
            // beside the schedule, not inside it: eight times before, eight
            // times after.
            let mut ref_us: Vec<f64> = (0..8).map(|_| reference.run()).collect();
            let mut phase = open_loop(&mut conn, &reqs, &due_ns);
            ref_us.extend((0..8).map(|_| reference.run()));
            phase.ref_us = ref_us;
            phase.ends.push(reqs.len());
            phase
        }
    };
    let after = Counters::read(served);
    Measured {
        phase,
        before,
        after,
        swaps,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// How many requests of each outcome a phase saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Answered.
    pub ok: usize,
    /// Refused by the queue or the quota.
    pub refused: usize,
    /// Any other error frame.
    pub errored: usize,
}

impl Tally {
    /// Count `samples`.
    pub fn of(samples: &[Sample]) -> Tally {
        let count = |status| samples.iter().filter(|s| s.status == status).count();
        Tally {
            attempted: samples.len(),
            ok: count(Status::Ok),
            refused: count(Status::Refused),
            errored: count(Status::Errored),
        }
    }
}

/// Sorted latencies of the OK replies among `samples`.
pub fn ok_latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut ok: Vec<f64> = samples
        .filter(|s| s.status == Status::Ok)
        .map(|s| s.latency_us)
        .collect();
    ok.sort_by(f64::total_cmp);
    ok
}

/// The three timings of a measured phase, as the clock read them and as
/// reported.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Median latency of OK replies, us: per block, then the median over
    /// blocks.
    pub raw_p50_us: f64,
    /// 95th percentile, same.
    pub raw_p95_us: f64,
    /// OK replies over the wall-clock of the phase (the reference work left
    /// out), 1/s.
    pub raw_rate: f64,
    /// Median of what the reference work took during the phase, us.
    pub ref_us: f64,
    /// Open loop: the schedule sets the rate, not the server, whatever the
    /// speed of the box.
    pub paced: bool,
}

impl Timings {
    /// How fast the box ran during the phase against a calm box: below 1
    /// in a slow stretch of the host.
    pub fn speed(&self) -> f64 {
        REF_NOMINAL_US / self.ref_us
    }

    /// `(req_p50_us, req_p95_us, throughput_rps)`: the raw timings at the
    /// speed of a calm box (`speed.rs`).
    pub fn reported(&self) -> (f64, f64, f64) {
        let speed = self.speed();
        (
            self.raw_p50_us * speed,
            self.raw_p95_us * speed,
            if self.paced {
                self.raw_rate
            } else {
                self.raw_rate / speed
            },
        )
    }
}

/// The timings of a measured phase.
///
/// The rate is OK replies over the wall-clock of the phase. The latencies
/// are the median and the 95th percentile of the OK replies of each whole
/// block (`Phase::ends`), every sample counted, and then the median of those
/// over the blocks: a stall of the shared box that falls into one block of
/// a hundred does not decide the run's tail, and a change that slows some
/// requests of every block shows in full. (`planned_open` sends too few
/// requests for blocks; its percentiles are over the whole run.)
pub fn timings(measured: &Measured) -> Timings {
    let samples = &measured.phase.samples;
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let mut start = 0;
    for &end in &measured.phase.ends {
        let ok = ok_latencies(samples[start..end].iter());
        p50s.push(quantile(&ok, 0.5));
        p95s.push(quantile(&ok, 0.95));
        start = end;
    }
    Timings {
        raw_p50_us: median(&mut p50s),
        raw_p95_us: median(&mut p95s),
        raw_rate: Tally::of(samples).ok as f64 / measured.phase.busy_s,
        ref_us: median(&mut measured.phase.ref_us.clone()),
        paced: !measured.phase.late_us.is_empty(),
    }
}

/// The verify pass over the answers the timed phase recorded, against a
/// freshly thawed copy of the table.
pub fn judge(ready: &Ready, measured: &Measured, identity_checks: usize) -> Verdict {
    verify(
        &ready.fixture.thaw_with_cache(2),
        &ready.workload,
        &measured.phase.recorded,
        identity_checks,
    )
}

/// The end-to-end metrics of one run, in `spec::END_TO_END` order, plus what
/// the verify pass found.
pub fn end_to_end(
    kind: Kind,
    ready: &Ready,
    measured: &Measured,
    setup_s: f64,
    identity_checks: usize,
) -> (Vec<f64>, Verdict) {
    let samples = &measured.phase.samples;
    let tally = Tally::of(samples);
    let within_limit = samples
        .iter()
        .filter(|s| s.status == Status::Ok && s.latency_us <= kind.limit_us())
        .count();
    let (p50, p95, rate) = timings(measured).reported();
    let verdict = judge(ready, measured, identity_checks);
    let values = vec![
        setup_s,
        p50,
        p95,
        rate,
        tally.ok as f64 / tally.attempted as f64,
        within_limit as f64 / tally.attempted as f64,
        verdict.rel_err_mean,
        verdict.err_vs_uniform_ratio,
        verdict.ci_cover_ratio,
        verdict.parts_read_frac,
        measured.peak_rss_mb,
        ready.fixture.stats_kb_per_part,
    ];
    (values, verdict)
}
