//! Command line of the benchmark. The driver runs
//! `ps3_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `--workload all`, `--smoke` and `--repeat N` are for people.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ps3_e2e::fixture::Scale;
use ps3_e2e::repeat::repeat;
use ps3_e2e::report::{end_to_end_rows, json_line, per_layer, per_layer_rows, print_metrics};
use ps3_e2e::run::{
    end_to_end, judge, measure, ok_latencies, set_up, timings, Measured, Ready, Tally,
};
use ps3_e2e::spec::{Kind, RUN_SECONDS};
use ps3_e2e::speed::{Processors, REF_NOMINAL_US};
use ps3_e2e::summary::{median, quantile};
use ps3_e2e::trace::{traced_layers, Tracer};

/// The driver allows a run 180 s; give up, loudly, before it has to kill us.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    fixture_seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ps3_e2e --workload <adhoc_cold|dashboard_warm|planned_open|swap_under_read|all> \
         --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--repeat <n>] [--fixture-seed <n>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        fixture_seed: None,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workloads = if name == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::from_name(&name).unwrap_or_else(|| usage())]
                };
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--fixture-seed" => {
                args.fixture_seed = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--seconds" => args.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace = value() == "1",
            "--repeat" => args.repeat = Some(value().parse().unwrap_or_else(|_| usage())),
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.workloads.is_empty() {
        usage();
    }
    args
}

/// Scratch space of this process under the build's target directory (which
/// `.gitignore` covers): `<target>/e2e/run-<pid>/`, removed on the way out.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn e2e_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    // <target>/<profile>/ps3_e2e
    exe.parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .join("e2e")
}

/// Record what the timed phase sent and got, the percentiles of all its OK
/// replies taken together, and the timings as the clock read them beside
/// the speed of the box they are reported at.
fn describe(kind: Kind, measured: &Measured) {
    let samples = &measured.phase.samples;
    let t = Tally::of(samples);
    let ok = ok_latencies(samples.iter());
    println!(
        "# {} measured: attempted={} ok={} refused={} errored={} wall_s={:.3} \
         all_p50_us={:.1} all_p95_us={:.1} all_p99_us={:.1} all_p999_us={:.1}",
        kind.name(),
        t.attempted,
        t.ok,
        t.refused,
        t.errored,
        measured.phase.wall_s,
        quantile(&ok, 0.5),
        quantile(&ok, 0.95),
        quantile(&ok, 0.99),
        quantile(&ok, 0.999)
    );
    let timed = timings(measured);
    println!(
        "# {} as the clock read: req_p50_us={:.1} req_p95_us={:.1} throughput_rps={:.1} over \
         {} blocks; the reference work took {:.1} us (median of {}) against {REF_NOMINAL_US} on \
         a calm box: timings are reported at speed {:.4}",
        kind.name(),
        timed.raw_p50_us,
        timed.raw_p95_us,
        timed.raw_rate,
        measured.phase.ends.len(),
        timed.ref_us,
        measured.phase.ref_us.len(),
        timed.speed()
    );
}

/// Print a run's metrics and the JSON object the driver reads; pass
/// `correct` through.
fn report(
    kind: Kind,
    correct: bool,
    samples: &[ps3_e2e::drive::Sample],
    rows: &[(&str, &str, f64)],
) -> bool {
    print_metrics(kind.name(), rows);
    let tally = Tally::of(samples);
    println!(
        "{}",
        json_line(correct, tally.attempted, tally.attempted - tally.ok, rows)
    );
    correct
}

/// One untraced run: end-to-end metrics only.
fn run_untraced(kind: Kind, scale: &Scale, seed: u64, seconds: f64, dir: &Path) -> bool {
    // Several complete set-ups, the last one kept: `setup_s` is their
    // median, so one slow artifact write does not read as a regression.
    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..scale.setup_reps {
        drop(ready.take());
        let (r, setup_s) = set_up(scale, kind, seed, dir);
        setups.push(setup_s);
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up");
    let times = ready.fixture.times;
    println!(
        "# {} set-up: {} warm-up requests, {} set-ups of {:?} s; the last one spent {:.3} s \
         generating, {:.3} s training, {:.3} s freezing",
        kind.name(),
        ready.workload.warmup.len(),
        setups.len(),
        setups,
        times.dataset_s,
        times.train_s,
        times.freeze_ms / 1e3
    );
    let setup_s = median(&mut setups);
    let measured = measure(&mut ready, scale, seconds);
    describe(kind, &measured);
    let started = Instant::now();
    let (values, verdict) = end_to_end(kind, &ready, &measured, setup_s, scale.identity_checks);
    println!(
        "# {} verify: {:.3} s, {} replies compared bit for bit with answer_spec_on, {} differ; \
         open-loop backlog {}",
        kind.name(),
        started.elapsed().as_secs_f64(),
        verdict.identity_checked,
        verdict.identity_mismatches,
        if measured.phase.valid {
            "settled"
        } else {
            "STILL GROWING: run invalid"
        }
    );
    let correct = verdict.identity_checked > 0
        && verdict.identity_mismatches == 0
        && measured.phase.valid
        && values.iter().all(|v| v.is_finite());
    report(
        kind,
        correct,
        &measured.phase.samples,
        &end_to_end_rows(&values),
    )
}

/// One traced run: per-layer metrics only. A third of the timed phase gives
/// the counters and the untraced median; the replay gives the layer times.
fn run_traced(kind: Kind, scale: &Scale, seed: u64, seconds: f64, dir: &Path) -> bool {
    let (mut ready, _) = set_up(scale, kind, seed, dir);
    let thaw_ms = ready.served.routed.thaw_ms;
    let measured = measure(&mut ready, scale, seconds / 3.0);
    describe(kind, &measured);
    let untraced = timings(&measured);
    let verdict = judge(&ready, &measured, scale.identity_checks);
    // Stop the measured server before the replay starts its own five.
    let Ready {
        fixture, workload, ..
    } = ready;
    let mut tracer = Tracer::new();
    let traced = traced_layers(&mut tracer, &fixture, scale, kind, seed, seconds);
    let values = per_layer(
        &fixture, &workload, &measured, &untraced, &verdict, &traced, thaw_ms,
    );
    let trace_file = e2e_dir().join(format!("{}.trace.json", kind.name()));
    tracer.write(&trace_file).expect("write the trace file");
    println!("# {} trace: {}", kind.name(), trace_file.display());
    let correct = verdict.identity_mismatches == 0 && measured.phase.valid;
    report(
        kind,
        correct,
        &measured.phase.samples,
        &per_layer_rows(&values),
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    let started_on = Processors::allowed();
    let mut scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    if let Some(seed) = args.fixture_seed {
        scale.fixture_seed = seed;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.25
    } else {
        f64::from(RUN_SECONDS)
    });

    if let Some(n) = args.repeat {
        // Every workload runs, whatever the ones before it found.
        let failed = args
            .workloads
            .iter()
            .filter(|&&kind| !repeat(kind, n, args.seed, seconds, args.smoke))
            .count();
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let scratch = Scratch(e2e_dir().join(format!("run-{}", std::process::id())));
    let doomed = scratch.0.clone();
    if args.workloads.len() == 1 {
        std::thread::spawn(move || {
            std::thread::sleep(WATCHDOG);
            eprintln!("ps3_e2e: no result after {WATCHDOG:?}; giving up");
            let _ = std::fs::remove_dir_all(&doomed);
            std::process::exit(3);
        });
    }
    let mut all_correct = true;
    for &kind in &args.workloads {
        // Before the workload starts its threads: they inherit it. The open
        // loop keeps every processor: its sender must leave on the clock
        // while the server plans.
        let pinned = match (&started_on, kind) {
            (Some(cpus), Kind::PlannedOpen) => cpus.unpin().then_some("every processor".into()),
            (Some(cpus), _) => cpus.pin_to_one().map(|cpu| format!("processor {cpu}")),
            (None, _) => None,
        };
        println!(
            "# {} runs on {}",
            kind.name(),
            pinned.unwrap_or("wherever the scheduler puts it: the kernel refused to pin".into())
        );
        all_correct &= if args.trace {
            run_traced(kind, &scale, args.seed, seconds, &scratch.0)
        } else {
            run_untraced(kind, &scale, args.seed, seconds, &scratch.0)
        };
    }
    drop(scratch);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
