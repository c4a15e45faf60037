//! The benchmark checked against its own contract at `--smoke` scale: equal
//! seeds give equal request lists, quality metrics repeat exactly, and the
//! binary prints exactly the metrics `BENCHMARK.json` names.
//!
//! Run with `cargo test --release`: a debug build trains the Tiny table ten
//! times slower.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use ps3_e2e::fixture::{Fixture, Scale};
use ps3_e2e::requests::{head, Workload};
use ps3_e2e::spec::{Kind, END_TO_END, PER_LAYER, RUN_SECONDS};
use ps3_net::proto::{encode_frame, Frame, RequestFrame};

/// The wire bytes of the first 300 requests `kind` sends for `seed`.
fn wire_bytes(fixture: &Fixture, scale: &Scale, kind: Kind, seed: u64) -> Vec<u8> {
    let workload = Workload::new(kind, fixture, scale, seed);
    let mut bytes = Vec::new();
    for (i, req) in head(kind, fixture, scale, seed, 12.0, 300)
        .into_iter()
        .enumerate()
    {
        workload.with_request(req, |r| {
            let frame = Frame::Request(RequestFrame::from_request(i as u64 + 1, r).unwrap());
            bytes.extend(encode_frame(&frame).unwrap());
        });
    }
    bytes
}

#[test]
fn equal_seeds_give_byte_identical_request_lists() {
    let scale = Scale::smoke();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("request-lists");
    let fixture = Fixture::build(&scale, &dir);
    for kind in Kind::ALL {
        let first = wire_bytes(&fixture, &scale, kind, 7);
        assert!(!first.is_empty());
        assert_eq!(
            first,
            wire_bytes(&fixture, &scale, kind, 7),
            "{}",
            kind.name()
        );
        assert_ne!(
            first,
            wire_bytes(&fixture, &scale, kind, 8),
            "{}",
            kind.name()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Run the binary at smoke scale; return its `workload/metric value unit`
/// lines as `(workload/metric, value)`.
fn smoke_run(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_ps3_e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("run ps3_e2e");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "ps3_e2e failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let mut words = l.split(' ');
            (
                words.next().unwrap().to_owned(),
                words.next().unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn quality_metrics_repeat_exactly_on_the_closed_loop_workloads() {
    const EXACT: [&str; 5] = [
        "rel_err_mean",
        "err_vs_uniform_ratio",
        "ci_cover_ratio",
        "parts_read_frac",
        "stats_kb_per_part",
    ];
    for workload in ["adhoc_cold", "dashboard_warm", "swap_under_read"] {
        let quality = |run: Vec<(String, String)>| -> Vec<(String, String)> {
            run.into_iter()
                .filter(|(name, _)| EXACT.iter().any(|m| name.ends_with(&format!("/{m}"))))
                .collect()
        };
        let (first, second) = (
            quality(smoke_run(workload, "0")),
            quality(smoke_run(workload, "0")),
        );
        assert_eq!(first.len(), EXACT.len());
        assert_eq!(first, second, "{workload}: to the last printed digit");
    }
}

/// The entries of `section` in `BENCHMARK.json`, one a line, without the
/// trailing comma.
fn entries_in(json: &str, section: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .skip(1)
        .map(|line| line.trim().trim_end_matches(',').to_owned())
        .filter(|line| !line.is_empty())
        .collect()
}

#[test]
fn the_binary_prints_exactly_the_metrics_benchmark_json_names() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    let workloads: BTreeSet<String> = Kind::DRIVEN
        .iter()
        .map(|k| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", k.name(), k.why()))
        .collect();
    assert_eq!(entries_in(&committed, "workloads"), workloads);
    let end_to_end: BTreeSet<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    assert_eq!(entries_in(&committed, "end_to_end"), end_to_end);
    let per_layer: BTreeSet<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    assert_eq!(entries_in(&committed, "per_layer"), per_layer);

    let legal = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(END_TO_END.iter().all(|m| legal(m.name)));
    assert!(PER_LAYER.iter().all(|m| legal(m.name)));
    assert!(Kind::ALL.iter().all(|k| legal(k.name())));

    for (trace, listed) in [
        ("0", &END_TO_END.map(|m| m.name)[..]),
        ("1", &PER_LAYER.map(|m| m.name)[..]),
    ] {
        let listed: BTreeSet<String> = listed.iter().map(|&name| name.to_owned()).collect();
        for kind in Kind::ALL {
            let printed: BTreeSet<String> = smoke_run(kind.name(), trace)
                .into_iter()
                .map(|(name, _)| {
                    let (workload, metric) = name.split_once('/').unwrap();
                    assert_eq!(workload, kind.name());
                    metric.to_owned()
                })
                .collect();
            assert_eq!(printed, listed, "{} --trace {trace}", kind.name());
        }
    }
}
