//! `--repeat N`: the noise self-check. Runs a workload N times in fresh
//! processes, each with another seed, and sets every end-to-end metric's
//! spread beside its bound. The spread judged is the one the driver that
//! accepts or rejects this benchmark computes: the distance between the first
//! and third quartile as a share of the median. (max-min)/median, which the
//! issue asked for, is printed beside it. Under the judged rows the table
//! has the three timings as the clock read them and what the reference work
//! took (`speed.rs`): what the spread would be without the correction.

use std::process::Command;

use crate::spec::{Kind, END_TO_END};
use crate::summary::quartiles;

/// Pull `"name": {"value": x` out of a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Pull `key<number>` out of the `# ... as the clock read:` line of a run.
fn clock_field(stdout: &str, key: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.contains("as the clock read:"))?;
    let rest = &line[line.find(key)? + key.len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// One table row: quartiles and both spreads of `values`.
fn row(name: &str, unit: &str, values: &[f64]) -> (String, f64) {
    let [q1, q2, q3] = quartiles(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let spread = (q3 - q1) / q2;
    let cells = format!(
        "| {name} | {unit} | {q1:.5} | {q2:.5} | {q3:.5} | {spread:.4} | {:.4} |",
        (hi - lo) / q2
    );
    (cells, spread)
}

/// Run `kind` `n` times with seeds `seed..seed + n` and print a Markdown
/// table of the spreads. Returns false when a spread other than that of
/// `setup_s` exceeds its bound, or a run failed.
pub fn repeat(kind: Kind, n: usize, seed: u64, seconds: f64, smoke: bool) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut runs: Vec<String> = Vec::new();
    let mut clock: Vec<[f64; 4]> = Vec::new();
    for i in 0..n as u64 {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name(), "--trace", "0"])
            .args(["--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string()]);
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().expect("run one repetition");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_owned();
        if !out.status.success() || !last.contains("\"correct\": true") {
            eprintln!("{} run {i} failed: {last}", kind.name());
            return false;
        }
        runs.push(last);
        let keys = [
            "req_p50_us=",
            "req_p95_us=",
            "throughput_rps=",
            "work took ",
        ];
        clock.push(keys.map(|k| clock_field(&stdout, k).expect("every run prints its clock line")));
    }
    println!(
        "\n### {} ({n} runs, seeds {seed}..{})\n",
        kind.name(),
        seed + n as u64 - 1
    );
    println!("| metric | unit | q1 | median | q3 | (q3-q1)/median | (max-min)/median | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for m in &END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .map(|line| metric_in(line, m.name).expect("every run prints every metric"))
            .collect();
        let (cells, spread) = row(m.name, m.unit, &values);
        // The driver holds every metric but `setup_s` to this rule (it
        // compares set-up medians only): an over-bound `setup_s` is marked,
        // and does not fail the check.
        let mark = match (spread <= m.bound, m.name) {
            (true, _) => "ok",
            (false, "setup_s") => "OVER (not judged)",
            (false, _) => "OVER",
        };
        all_within &= mark != "OVER";
        println!("{cells} {} | {mark} |", m.bound);
    }
    let as_read = [
        ("req_p50_us as the clock read", "us"),
        ("req_p95_us as the clock read", "us"),
        ("throughput_rps as the clock read", "1/s"),
        ("reference work", "us"),
    ];
    for (i, (name, unit)) in as_read.into_iter().enumerate() {
        let values: Vec<f64> = clock.iter().map(|c| c[i]).collect();
        println!("{} | |", row(name, unit, &values).0);
    }
    all_within
}
