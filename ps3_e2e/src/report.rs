//! Turning a run into named numbers: the per-layer values that come from
//! counters and the verify pass, and the lines and the JSON object the
//! driver reads.

use std::fmt::Write as _;

use ps3_core::Budget;

use crate::drive::Status;
use crate::fixture::Fixture;
use crate::requests::Workload;
use crate::run::{ok_latencies, Measured, Tally, Timings};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::summary::{median, quantile};
use crate::trace::Traced;
use crate::verify::Verdict;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric of one traced run, in `spec::PER_LAYER` order.
/// Counters are differences over the timed phase; the layer timings come
/// from the replay in `traced`.
pub fn per_layer(
    fixture: &Fixture,
    workload: &Workload,
    measured: &Measured,
    untraced: &Timings,
    verdict: &Verdict,
    traced: &Traced,
    thaw_ms: f64,
) -> Vec<f64> {
    let (before, after) = (&measured.before, &measured.after);
    let samples = &measured.phase.samples;
    let router = |f: fn(&ps3_core::RouterStats) -> u64| f(&after.router) - f(&before.router);
    let answers_hit = router(|r| r.answers.hits);
    let answers_miss = router(|r| r.answers.misses);
    let plans = router(|r| r.planner.plans);
    let probes = router(|r| r.planner.probes);
    // A swapped-in system starts its feature cache from zero.
    let feature_delta = |f: fn(&ps3_runtime::CacheStats) -> u64| {
        f(&after.features).saturating_sub(if measured.swaps.is_empty() {
            f(&before.features)
        } else {
            0
        })
    };
    let (feature_hits, feature_misses) = (feature_delta(|c| c.hits), feature_delta(|c| c.misses));

    // LatencyTarget requests answered within the deadline they asked for,
    // by the client's clock.
    let mut deadlines = (0u64, 0u64);
    for ((req, _), sample) in measured.phase.recorded.iter().zip(samples) {
        if let Budget::LatencyTarget { ms } = workload.templates[req.template as usize].budget {
            deadlines.1 += 1;
            deadlines.0 += u64::from(sample.status == Status::Ok && sample.latency_us <= ms * 1e3);
        }
    }
    // The first 64 requests sent after each swap landed.
    let post_swap = ok_latencies(measured.swaps.iter().flat_map(|swap| {
        let first = samples.partition_point(|s| s.start_ns < swap.done_ns);
        samples[first..].iter().take(64)
    }));
    let mut late = measured.phase.late_us.clone();
    late.sort_by(f64::total_cmp);
    let load_table_ms = median(&mut measured.swaps.iter().map(|s| s.load_ms).collect::<Vec<_>>());

    let counted = |name: &str| -> Option<f64> {
        Some(match name {
            "net.req_p99_us" => quantile(&ok_latencies(samples.iter()), 0.99),
            "net.server_requests" => (after.server.requests - before.server.requests) as f64,
            "net.server_errors" => (after.server.errors - before.server.errors) as f64,
            "net.gen_late_p99_us" => quantile(&late, 0.99),
            "router.cache_hit_ratio" => ratio(answers_hit, answers_hit + answers_miss),
            "router.executions" => router(|r| r.executions) as f64,
            "router.coalesced" => router(|r| r.coalesced) as f64,
            "router.refused" => Tally::of(samples).refused as f64,
            "router.swaps" => measured.swaps.len() as f64,
            "router.load_table_ms" => load_table_ms,
            "router.post_swap_p95_us" => quantile(&post_swap, 0.95),
            "planner.plans" => plans as f64,
            "planner.probes_per_plan" => ratio(probes, plans),
            "planner.probe_hit_ratio" => ratio(router(|r| r.planner.probe_hits), probes),
            "planner.fallbacks" => router(|r| r.planner.fallbacks) as f64,
            "planner.planned_frac_mean" => verdict.planned_frac_mean,
            "planner.target_met_ratio" => verdict.target_met_ratio,
            "planner.latency_target_met_ratio" => ratio(deadlines.0, deadlines.1),
            "stats.feature_cache_hit_ratio" => ratio(feature_hits, feature_hits + feature_misses),
            "persist.freeze_ms" => fixture.times.freeze_ms,
            "persist.thaw_ms" => thaw_ms,
            "persist.artifact_mb" => fixture.artifact_mb,
            "setup.generate_s" => fixture.times.dataset_s,
            "setup.train_s" => fixture.times.train_s,
            "setup.truth_s" => verdict.truth_s,
            "runtime.pool_tasks_injected" => (after.injected - before.injected) as f64,
            "box.reference_us" => untraced.ref_us,
            "box.speed_ratio" => untraced.speed(),
            "trace.overhead_ratio" => traced.net_request_p50_us / untraced.raw_p50_us,
            _ => return None,
        })
    };
    PER_LAYER
        .iter()
        .map(|m| {
            counted(m.name)
                .or_else(|| {
                    traced
                        .layers
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .map(|&(_, v)| v)
                })
                .unwrap_or_else(|| panic!("no source for per-layer metric {}", m.name))
        })
        .collect()
}

/// Print `workload/metric value unit`, one line a metric.
pub fn print_metrics(workload: &str, metrics: &[(&str, &str, f64)]) {
    for (name, unit, value) in metrics {
        println!("{workload}/{name} {value} {unit}");
    }
}

/// The JSON object the driver reads from the last line of standard output.
/// Values keep every digit `f64` prints; a value that is not finite is
/// written as 0 and makes the run incorrect at the caller.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// `(name, unit, value)` rows for the end-to-end metrics.
pub fn end_to_end_rows(values: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, &v)| (m.name, m.unit, v))
        .collect()
}

/// `(name, unit, value)` rows for the per-layer metrics.
pub fn per_layer_rows(values: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, &v)| (m.name, m.unit, v))
        .collect()
}
