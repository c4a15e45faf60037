//! Byte identity of everything PS3 writes: a frozen artifact, the server's
//! response / partial / error frames, and the answer-sketch encodings.
//!
//! Each check is the FNV-1a digest (`ps3_storage::format::fnv1a`) of bytes
//! built from fixed inputs, recorded before the byte codecs were folded into
//! one and asserted ever since. A digest that moves means a byte on disk or
//! on the wire moved. (Request frames are pinned beside their encoder, by
//! `ps3_net::proto`'s `request_wire_bytes_match_the_recorded_digest`.)
//!
//! The three artifact digests were re-recorded when format version 4
//! dropped the partition strata from `SEC_TRAINED`. Before re-recording,
//! each artifact was frozen by the version-3 code and by the version-4
//! code and compared section by section. `SEC_TABLE`, `SEC_PARTITIONING`,
//! `SEC_COLDATA`, `SEC_STATS`, `SEC_LSS` and `SEC_TRAINING` were
//! byte-identical. The new
//! `SEC_TRAINED` was the old one minus exactly two things: the strata block
//! (k, dim, centroids, assignment count, assignments, sweeps) and the
//! config's `strata_k` word. The rest of the file is the container's
//! header and section table, which record the new version and sizes.

use std::sync::Arc;

use ps3::core::{AggError, AnswerMeta, ErrorEstimate, ProgressUpdate, Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::net::proto::{encode_frame, ErrorCode, ErrorFrame, Frame, PartialFrame, ResponseFrame};
use ps3::query::{GroupKey, QueryAnswer};
use ps3::sketch::codec::answer_sketch_to_bytes;
use ps3::sketch::hash::hash_u64;
use ps3::sketch::{AnswerSketch, DistinctSketch, QuantileSketch, TopKSketch};
use ps3::storage::format::fnv1a;

/// One answer sketch of each kind, from fixed inputs that reach every field
/// of its encoding (signed buckets, zeros, NaN and infinities for the
/// quantile sketch; several register ranks; ascending top-k keys).
fn sketches() -> [AnswerSketch; 3] {
    let mut q = QuantileSketch::new();
    for i in 0..400 {
        q.insert(f64::from(i) * 0.75 - 120.0);
    }
    for v in [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-300,
    ] {
        q.insert(v);
    }
    let mut d = DistinctSketch::new();
    for i in 0..5_000u64 {
        d.insert_hash(hash_u64(i % 1_700));
    }
    let mut t = TopKSketch::new();
    for i in 0..300u64 {
        t.insert(i % 23 * 1_000 + i % 3);
    }
    [
        AnswerSketch::Quantile(q),
        AnswerSketch::Distinct(d),
        AnswerSketch::TopK(t),
    ]
}

/// An answer collected from `rows` given in *descending* key order, the
/// reverse of the order the wire writes: the recorded bytes must not
/// depend on how an answer was built.
fn answer(rows: &[(&[u64], &[f64])]) -> QueryAnswer {
    assert!(rows.windows(2).all(|w| w[0].0 > w[1].0), "descending keys");
    let groups = rows
        .iter()
        .map(|(k, v)| (GroupKey((*k).into()), v.to_vec()));
    QueryAnswer {
        groups: groups.collect(),
    }
}

fn response(request_id: u64, sketch: Option<AnswerSketch>) -> ResponseFrame {
    ResponseFrame {
        request_id,
        // Keys of mixed arity: the wire orders them lexicographically.
        answer: answer(&[
            (&[3, u64::MAX], &[2.0, 4.0, 8.0]),
            (&[], &[1.5, f64::from_bits(0x7FF8_0000_0000_1234), -0.0]),
        ]),
        meta: AnswerMeta {
            partitions_read: 12,
            picker_ms: 0.25,
            error_estimate: ErrorEstimate {
                per_agg: vec![
                    AggError {
                        ci_half_width: 3.0,
                        rel_err: 0.1,
                    },
                    AggError::no_signal(),
                    AggError {
                        ci_half_width: 0.5,
                        rel_err: 0.02,
                    },
                ],
                rel_err: 0.1,
            },
            planned_frac: 0.2,
            exact: request_id.is_multiple_of(2),
        },
        sketch,
    }
}

#[test]
fn answer_sketch_bytes_match_the_recorded_digests() {
    let digests = sketches().map(|s| fnv1a(&answer_sketch_to_bytes(&s)));
    assert_eq!(
        digests,
        [
            0x2284_2038_5EF8_36BF,
            0x2AB1_9851_1689_C94C,
            0xEEC9_9E55_39DA_4754,
        ],
        "answer-sketch bytes moved"
    );
}

#[test]
fn server_frame_bytes_match_the_recorded_digest() {
    let mut frames = vec![Frame::Response(response(1, None))];
    for (i, s) in sketches().into_iter().enumerate() {
        frames.push(Frame::Response(response(2 + i as u64, Some(s))));
    }
    frames.push(Frame::Partial(PartialFrame {
        request_id: 5,
        update: ProgressUpdate {
            seq: 2,
            partitions_done: 6,
            partitions_total: 8,
            answer: answer(&[(&[2], &[f64::NAN, 4.0]), (&[1], &[3.5, -0.0])]),
            rel_err: 0.125,
        },
    }));
    frames.push(Frame::Partial(PartialFrame {
        request_id: 6,
        update: ProgressUpdate {
            seq: 0,
            partitions_done: 1,
            partitions_total: 4,
            answer: answer(&[]),
            rel_err: f64::NAN,
        },
    }));
    for (i, code) in [
        ErrorCode::QueueFull,
        ErrorCode::Malformed,
        ErrorCode::Internal,
    ]
    .into_iter()
    .enumerate()
    {
        frames.push(Frame::Error(ErrorFrame {
            request_id: 7 + i as u64,
            code,
            message: ["busy", "", "column 3 is not in the table's schema"][i].into(),
        }));
    }
    let mut wire = Vec::new();
    for f in &frames {
        wire.extend(encode_frame(f).expect("encodes"));
    }
    assert_eq!(
        fnv1a(&wire),
        0x6849_4277_5331_8FE2,
        "server frame bytes moved"
    );
}

/// The digest of `system` frozen to a fresh temporary file named `name`.
fn artifact_digest(system: &Ps3System, name: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("ps3_byte_identity_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.ps3"));
    system.freeze(&path).expect("freeze");
    let bytes = std::fs::read(&path).expect("read artifact");
    std::fs::remove_dir_all(&dir).ok();
    fnv1a(&bytes)
}

/// Aria Tiny, trained cold with four trees and Algorithm 3 off.
fn aria_tiny_system() -> Ps3System {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(5);
    let mut cfg = Ps3Config::default().with_seed(5);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;
    ds.train_system(cfg)
}

/// The digest of [`aria_tiny_system`] frozen.
const ARIA_TINY: u64 = 0x63A2_1EF7_77EB_62C8;

#[test]
fn frozen_aria_tiny_artifact_matches_the_recorded_digest() {
    let digest = artifact_digest(&aria_tiny_system(), "aria_tiny");
    assert_eq!(digest, ARIA_TINY, "artifact bytes moved");
}

/// Algorithm 3 on: the artifact carries feature exclusions, and every
/// learned section (normalizer means, forests, LSS strata sizes)
/// was trained on a workload whose clustering error it evaluated.
#[test]
fn frozen_tpch_tiny_artifact_with_feature_selection_matches_the_recorded_digest() {
    let ds = DatasetConfig::new(DatasetKind::TpcH, ScaleProfile::Tiny).build(11);
    let mut cfg = Ps3Config::default().with_seed(11);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = true;
    let system = ds.train_system(cfg);
    assert!(
        !system.trained.excluded.is_empty(),
        "fixture must exercise the exclusions"
    );
    let digest = artifact_digest(&system, "tpch_tiny_fs");
    assert_eq!(digest, 0xA7F3_7032_E6BE_9FBE, "artifact bytes moved");
}

/// A warm retrain onto another Aria Tiny draw: every learned part carries
/// over, and only the table and its statistics are new. (On the unchanged
/// table the warm artifact is the cold one, byte for byte.)
#[test]
fn warm_retrained_aria_tiny_artifact_matches_the_recorded_digest() {
    let system = aria_tiny_system();
    let same = Ps3System::retrain_from(&system, Arc::clone(&system.pt), Arc::clone(&system.stats));
    assert_eq!(artifact_digest(&same, "aria_tiny_same"), ARIA_TINY);
    let next = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(6);
    let warm = Ps3System::retrain_from(&system, next.pt, next.stats);
    let digest = artifact_digest(&warm, "aria_tiny_warm");
    assert_eq!(digest, 0xA9B5_BA2A_4D4C_B4C8, "artifact bytes moved");
}
