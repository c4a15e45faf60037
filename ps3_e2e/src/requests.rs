//! Seeded request lists. A request is a template (query, method, budget,
//! table) plus the sampling seed it is sent with; the same `--seed` gives
//! the same list, byte for byte on the wire.
//!
//! The seed decides what a server cannot know in advance: the order of the
//! keys, which warm key comes next, when a request arrives. It does not
//! decide *which* keys a workload asks: every run of a workload sends the
//! same set of (query, budget, sampling seed) keys over the same pool
//! (`fixture.rs` says why), so the answers the verify pass judges are the
//! same whatever the seed. Wherever a workload needs keys nobody asked
//! before, it sends sampling seeds nobody used before.

use ps3_core::{Budget, Method, QueryRequest};
use ps3_query::{Predicate, Query, SketchQuery};
use ps3_storage::ColId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{Fixture, Scale, TABLE};
use crate::spec::Kind;

/// Keys of the warm set (`dashboard_warm`, `swap_under_read`): far fewer
/// than the answer cache holds (1024), and no more queries than the feature
/// cache holds, so neither evicts by capacity.
pub const WARM_KEYS: usize = 64;
/// The sampling seed every warm key is requested with.
const WARM_SEED: u64 = 5;
/// Sampling seeds of the keys a workload asks once: `ONCE_BASE + n`.
const ONCE_BASE: u64 = 1 << 32;
/// One request in 200 of `swap_under_read` is a key never asked before. At
/// the issue's one in twenty the single pump spends nearly all its time on
/// those keys (9 ms each against 15 us for a warm one), four requests in ten
/// queue behind one, and the median sits on the edge between the two kinds:
/// 0.4 to 2 ms between its 40th and 60th percentile.
const FRESH_EVERY: u64 = 200;
/// Queries `planned_open` plans over.
const PLANNED_KEYS: usize = 48;
/// Arrival rate of `planned_open`, requests a second. Every request plans
/// and executes (about 30 ms of the single pump on average), so this keeps
/// the pump near a third busy.
pub const OPEN_RATE: f64 = 12.0;

/// One request of a list: which template, sent with which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// Index into [`Workload::templates`].
    pub template: u32,
    /// The sampling seed.
    pub seed: u64,
}

/// The seeded generator of one workload's request list.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The requests' fixed parts. A [`Req`] names one and supplies the seed.
    pub templates: Vec<QueryRequest>,
    /// Requests sent during set-up: the warm set for the warm workloads,
    /// never-measured cold keys otherwise.
    pub warmup: Vec<Req>,
    /// `adhoc_cold` only: one request per feature-cache entry, sent untimed
    /// between set-up and the timed phase (see `run::measure`).
    pub settle: Vec<Req>,
    rng: StdRng,
    /// The templates in sending order, cycled: the pool order of
    /// `adhoc_cold` (a seeded permutation, cycled in order so a feature
    /// cache smaller than the pool never hits), one block of seeded draws
    /// from the warm set for the two warm workloads.
    order: Vec<u32>,
    sent: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The templates of `planned_open`: by key index, 60% scalar queries under
/// `ErrorTarget(0.15)`, 10% under a 10 ms `LatencyTarget`, 30% sketch specs
/// under `ErrorTarget(0.1)`. Scalar plans cost tens of milliseconds, sketch
/// and latency plans about one; with the issue's 50/10/40 split the median
/// sat on the edge between the two kinds and swung by half between runs, so
/// the expensive kind is given a clear majority. Every sketch spec is
/// filtered by a pool predicate — an unfiltered one reads a single partition
/// and would time nothing.
fn planned_templates(pool: &[Query]) -> Vec<QueryRequest> {
    let predicates: Vec<&Predicate> = pool.iter().filter_map(|q| q.predicate.as_ref()).collect();
    let mut sketches = 0usize;
    (0..PLANNED_KEYS)
        .map(|j| {
            let req = match (j * 9) % 10 {
                0..=5 => QueryRequest::ps3(pool[j].clone(), 0.1, 0).with_error_target(0.15),
                6 => QueryRequest::ps3(pool[j].clone(), 0.1, 0).with_latency_target(10.0),
                _ => {
                    // Aria columns: 3 = olsize and 5 = infl (numeric),
                    // 8 = AppInfo_Version and 7 = TenantId (categorical).
                    let spec = match sketches % 4 {
                        0 => SketchQuery::percentile(ColId(3), 0.5),
                        1 => SketchQuery::percentile(ColId(5), 0.9),
                        2 => SketchQuery::distinct(ColId(8)),
                        _ => SketchQuery::top_k(ColId(7), 3),
                    }
                    .filtered(predicates[sketches % predicates.len()].clone());
                    sketches += 1;
                    QueryRequest::new(spec, Method::Ps3, Budget::ErrorTarget { rel_err: 0.1 }, 0)
                }
            };
            req.on_table(TABLE)
        })
        .collect()
}

impl Workload {
    /// The request list of `kind` for `seed`, over the fixture's query pool.
    pub fn new(kind: Kind, fixture: &Fixture, scale: &Scale, seed: u64) -> Workload {
        let pool = &fixture.pool[..];
        let mut rng = StdRng::seed_from_u64(splitmix(seed ^ kind as u64));
        // Seeds of untimed requests: far from WARM_SEED and ONCE_BASE.
        let untimed_base = 1 << 48;
        let plain = |q: &Query| QueryRequest::ps3(q.clone(), 0.1, WARM_SEED).on_table(TABLE);
        let mut order = Vec::new();
        let mut settle = Vec::new();
        let (templates, warmup): (Vec<QueryRequest>, Vec<Req>) = match kind {
            Kind::AdhocCold => {
                // The judged half of the pool first, then the other half,
                // each in a seeded order: the keys the verify pass judges
                // (the first `cold_judged` requests) are the same set
                // whatever the seed.
                order = (0..pool.len() as u32).collect();
                let (judged, rest) = order.split_at_mut(scale.cold_judged.min(pool.len()));
                shuffle(judged, &mut rng);
                shuffle(rest, &mut rng);
                // Warm-up and settling walk the end of the order: evicted
                // from the feature cache again before the timed list comes
                // round to those queries.
                let tail = |first: usize, count: usize| -> Vec<Req> {
                    (first..first + count)
                        .map(|j| Req {
                            template: order[order.len() - 1 - j % order.len()],
                            seed: untimed_base + j as u64,
                        })
                        .collect()
                };
                settle = tail(scale.warmup, fixture.feature_cache);
                settle.reverse();
                (pool.iter().map(plain).collect(), tail(0, scale.warmup))
            }
            Kind::DashboardWarm | Kind::SwapUnderRead => {
                order = (0..scale.warm_block)
                    .map(|_| rng.gen_range(0..WARM_KEYS as u32))
                    .collect();
                let warmup = (0..WARM_KEYS as u32)
                    .map(|template| Req {
                        template,
                        seed: WARM_SEED,
                    })
                    .collect();
                (pool[..WARM_KEYS].iter().map(plain).collect(), warmup)
            }
            Kind::PlannedOpen => {
                // Warm the code paths and the latency planner's cost model
                // on scalar keys the timed list never asks.
                let mut templates = planned_templates(pool);
                let extras = 8;
                let first_extra = templates.len() as u32;
                templates.extend(pool[PLANNED_KEYS..PLANNED_KEYS + extras].iter().map(plain));
                let warmup = (0..scale.warmup)
                    .map(|j| Req {
                        template: first_extra + (j % extras) as u32,
                        seed: untimed_base + j as u64,
                    })
                    .collect();
                (templates, warmup)
            }
        };
        Workload {
            kind,
            templates,
            warmup,
            settle,
            rng,
            order,
            sent: 0,
        }
    }

    /// The next request of a closed-loop list.
    pub fn next_req(&mut self) -> Req {
        let i = self.sent;
        self.sent += 1;
        match self.kind {
            // Every pass asks every pool query once, each time with a
            // sampling seed nobody used before.
            Kind::AdhocCold => {
                let pool = self.order.len() as u64;
                let template = self.order[(i % pool) as usize];
                Req {
                    template,
                    seed: ONCE_BASE + (i / pool) * pool + u64::from(template),
                }
            }
            Kind::DashboardWarm => Req {
                template: self.order[(i % self.order.len() as u64) as usize],
                seed: WARM_SEED,
            },
            // Draws from the warm set, and every 200th request a key never
            // asked before over one of the same queries (so the feature
            // cache holds them all).
            Kind::SwapUnderRead => {
                if i % FRESH_EVERY == FRESH_EVERY - 1 {
                    let nth = i / FRESH_EVERY;
                    Req {
                        template: (nth % WARM_KEYS as u64) as u32,
                        seed: ONCE_BASE + nth,
                    }
                } else {
                    Req {
                        template: self.order[(i % self.order.len() as u64) as usize],
                        seed: WARM_SEED,
                    }
                }
            }
            Kind::PlannedOpen => panic!("planned_open is a schedule, not a closed loop"),
        }
    }

    /// The open-loop schedule of `planned_open`: `n` requests with due
    /// times in ns from the start of the phase. It asks the queries one
    /// after another in a seeded order (all 48, then again), every time with
    /// a sampling seed nobody used before: no answer is ever served from the
    /// cache, every request plans and executes, and after a query's first
    /// sighting its features are cached. Popularity is flat on purpose: plan
    /// costs run from 0.6 to 90 ms by query, and with Zipf quotas a quarter
    /// of the requests were one query, a lump whose edge the median sat on.
    pub fn schedule(&self, n: usize) -> Vec<(Req, u64)> {
        assert_eq!(self.kind, Kind::PlannedOpen);
        let mut rng = self.rng.clone();
        let mut order: Vec<u32> = (0..PLANNED_KEYS as u32).collect();
        shuffle(&mut order, &mut rng);
        // Paced arrivals: one request every `1 / rate` seconds, each moved
        // by up to a tenth of the gap either way. With exponential gaps, which
        // requests queued behind which decided the 95th percentile, and two
        // seeds disagreed by a third; paced, a request waits only when the
        // server falls behind the clock, which is what an open loop is for.
        let gap_ns = 1e9 / OPEN_RATE;
        (0..n)
            .map(|slot| {
                let req = Req {
                    template: order[slot % PLANNED_KEYS],
                    // Unique per (query, occurrence).
                    seed: ONCE_BASE + (slot / PLANNED_KEYS) as u64,
                };
                let jitter = rng.gen_range(-0.1..0.1);
                (req, ((slot as f64 + 0.5 + jitter) * gap_ns) as u64)
            })
            .collect()
    }

    /// Call `f` with the request `req` names. Warm keys borrow their
    /// template, so a 30k req/s loop clones no query.
    pub fn with_request<R>(&self, req: Req, f: impl FnOnce(&QueryRequest) -> R) -> R {
        let template = &self.templates[req.template as usize];
        if template.seed == req.seed {
            f(template)
        } else {
            let mut fresh = template.clone();
            fresh.seed = req.seed;
            f(&fresh)
        }
    }
}

/// Requests `planned_open` sends in a run of `seconds`; at least 24, so that
/// even a smoke run plans a few of each kind.
pub fn open_requests(seconds: f64) -> usize {
    ((OPEN_RATE * seconds).round() as usize).max(24)
}

/// The first `n` requests `kind` sends for `seed` in a run of `seconds`.
pub fn head(
    kind: Kind,
    fixture: &Fixture,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    n: usize,
) -> Vec<Req> {
    let mut workload = Workload::new(kind, fixture, scale, seed);
    match kind {
        Kind::PlannedOpen => {
            let schedule = workload.schedule(open_requests(seconds));
            schedule.into_iter().take(n).map(|(r, _)| r).collect()
        }
        _ => (0..n).map(|_| workload.next_req()).collect(),
    }
}
