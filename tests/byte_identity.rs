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
//!
//! They were re-recorded again when format version 5 dropped what
//! `SEC_STATS` held beside the sketches: the global heavy-hitter keys, the
//! occurrence bitmaps and the static feature matrix, all of which thaw now
//! re-derives from the sketches. The same three artifacts were frozen by
//! the version-4 code and by the version-5 code and compared section by
//! section. `SEC_TABLE`, `SEC_PARTITIONING`, `SEC_COLDATA`, `SEC_TRAINED`,
//! `SEC_LSS` and `SEC_TRAINING` were byte-identical. The new `SEC_STATS`
//! was the old one with exactly bytes `[8, 8 + fixed)` removed, where
//! `fixed` is the old derived prefix: per column a `u32` key count and its
//! `u64` keys, then `4 × columns × partitions` bitmap bytes, then the `u32`
//! dimension and `8 × partitions × dimension` static-row bytes. That is
//! 243,488 bytes for both Aria artifacts (64 partitions, 11 columns, 254
//! keys, dimension 466) and 637,176 for TPC-H (64 partitions, 29 columns,
//! 496 keys, dimension 1,222). The removed bytes were also re-encoded from
//! the version-5 thaw of each artifact, from the keys, bitmaps and rows it
//! re-derives: they matched the version-4 bytes exactly. The rest of the
//! file is again the header and section table, with the new version,
//! offsets and sizes.
//!
//! They were re-recorded a third time when format version 6 replaced the
//! byte-serial FNV-1a section and table checksums with the word-wise
//! `ps3_storage::format::checksum`. The same three artifacts were frozen by
//! the version-5 code and by the version-6 code and compared byte for byte:
//! they were the same length, and the only bytes that differed were the
//! version word (bytes 8–12), the section-table checksum (24–32) and the
//! checksum word of each of the seven section-table entries. Every section
//! payload was unchanged, and `every_section_payload_matches_the_recorded_digests`
//! pins each one, as recorded from the version-5 code.
//!
//! They were re-recorded a fourth time when format version 7 dropped from
//! `SEC_TRAINED` and `SEC_LSS` the values that became constants. The same
//! three artifacts were frozen by the version-6 code and by the version-7
//! code, and each section payload was compared on its own. `SEC_TABLE`,
//! `SEC_PARTITIONING`, `SEC_COLDATA`, `SEC_STATS` and `SEC_TRAINING` were
//! byte-identical, and their pinned digests did not move. The new
//! `SEC_TRAINED` was the old one minus exactly 129 bytes, found by walking
//! the version-6 grammar: each of the four models' `learning_rate` word
//! (4 × 8 bytes, each 0.2), and from the config `k_models` (4),
//! `outlier_budget_frac` (0.1), `outlier_abs_limit` (10),
//! `outlier_rel_limit` (0.1), `fallback_clause_limit` (10), the boosting
//! words `max_depth` (4), `learning_rate` (0.2), `lambda` (1.0), `gamma`
//! (0.0), `min_child_weight` (1.0), `max_bins` (64) and `subsample` (1.0),
//! the `fs_eval_budgets` count and its two values (0.05, 0.15), and the
//! `use_filter` byte (1). The new `SEC_LSS` was the old one minus its
//! model's `learning_rate` word (8 bytes, 0.2). That held for all three
//! artifacts: 22,051 → 21,922 and 5,584 → 5,576 bytes for both Aria
//! artifacts, 55,278 → 55,149 and 11,152 → 11,144 for TPC-H. The rest of
//! each file is again the header and section table, with the new version,
//! offsets, sizes and checksums.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use ps3::core::{AggError, AnswerMeta, ErrorEstimate, ProgressUpdate, Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::net::proto::{encode_frame, ErrorCode, ErrorFrame, Frame, PartialFrame, ResponseFrame};
use ps3::query::{GroupKey, QueryAnswer};
use ps3::sketch::codec::answer_sketch_to_bytes;
use ps3::sketch::hash::hash_u64;
use ps3::sketch::{AnswerSketch, DistinctSketch, QuantileSketch, TopKSketch};
use ps3::storage::format::{
    fnv1a, Artifact, SEC_COLDATA, SEC_LSS, SEC_PARTITIONING, SEC_STATS, SEC_TABLE, SEC_TRAINED,
    SEC_TRAINING,
};
use ps3::storage::{ColId, ColumnData, PartitionId};

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

/// `read` applied to `system` frozen to a fresh temporary file named `name`.
fn with_frozen<T>(system: &Ps3System, name: &str, read: impl FnOnce(&Path) -> T) -> T {
    let dir = std::env::temp_dir().join(format!("ps3_byte_identity_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.ps3"));
    system.freeze(&path).expect("freeze");
    let out = read(&path);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// The digest of `system` frozen.
fn artifact_digest(system: &Ps3System, name: &str) -> u64 {
    with_frozen(system, name, |path| {
        fnv1a(&std::fs::read(path).expect("read artifact"))
    })
}

/// The digest of each section payload of `system` frozen, by kind
/// ([`SEC_TABLE`] first, [`SEC_TRAINING`] last).
fn section_digests(system: &Ps3System, name: &str) -> [u64; 7] {
    with_frozen(system, name, |path| {
        let artifact = Artifact::open(path).expect("open artifact");
        let kinds = [
            SEC_TABLE,
            SEC_PARTITIONING,
            SEC_COLDATA,
            SEC_STATS,
            SEC_TRAINED,
            SEC_LSS,
            SEC_TRAINING,
        ];
        kinds.map(|kind| fnv1a(artifact.section(kind).expect("section present")))
    })
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
const ARIA_TINY: u64 = 0x6AE7_08EC_4741_B8EA;

#[test]
fn frozen_aria_tiny_artifact_matches_the_recorded_digest() {
    let digest = artifact_digest(&aria_tiny_system(), "aria_tiny");
    assert_eq!(digest, ARIA_TINY, "artifact bytes moved");
}

/// TPC-H Tiny, trained cold with four trees and Algorithm 3 on: the artifact
/// carries feature exclusions, and every learned section (normalizer means,
/// forests, LSS strata sizes) was trained on a workload whose clustering
/// error it evaluated.
fn tpch_tiny_fs_system() -> Ps3System {
    let ds = DatasetConfig::new(DatasetKind::TpcH, ScaleProfile::Tiny).build(11);
    let mut cfg = Ps3Config::default().with_seed(11);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = true;
    let system = ds.train_system(cfg);
    assert!(
        !system.trained.excluded.is_empty(),
        "fixture must exercise the exclusions"
    );
    system
}

#[test]
fn frozen_tpch_tiny_artifact_with_feature_selection_matches_the_recorded_digest() {
    let digest = artifact_digest(&tpch_tiny_fs_system(), "tpch_tiny_fs");
    assert_eq!(digest, 0x49D4_F9C4_EC1C_6A84, "artifact bytes moved");
}

/// Every section payload of the two cold artifacts, pinned on its own:
/// recorded from format 5, whose checksum was byte-serial FNV-1a, before
/// format 6 changed the checksum, except `SEC_TRAINED` and `SEC_LSS`,
/// recorded from format 7, which dropped words from both. A whole-artifact
/// digest above moves when only the header and section table do; these
/// move when a payload does.
#[test]
fn every_section_payload_matches_the_recorded_digests() {
    assert_eq!(
        section_digests(&aria_tiny_system(), "aria_tiny_sections"),
        [
            0x7B17_9DCA_D453_6BEF,
            0x4AB9_0EB3_6A6E_4C12,
            0xA0E4_CB2B_B460_4758,
            0xDF40_6C8A_65BB_C3AF,
            0x1174_0301_72D7_3C9E,
            0x4A63_1C13_B002_F914,
            0xFC22_7989_1BC8_D64A,
        ],
        "an Aria Tiny section payload moved"
    );
    assert_eq!(
        section_digests(&tpch_tiny_fs_system(), "tpch_tiny_fs_sections"),
        [
            0x0D4A_6FC4_6175_1BA8,
            0x4AB9_0EB3_6A6E_4C12,
            0x96F2_287E_7CF3_5E66,
            0x4E80_0302_87A0_8B72,
            0x589A_4873_4717_4E9D,
            0x80FE_FFB9_4D20_6CD9,
            0x9BF9_0B0B_35C1_713C,
        ],
        "a TPC-H Tiny section payload moved"
    );
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
    assert_eq!(digest, 0x8E67_9B8D_14DF_D8A6, "artifact bytes moved");
}

/// `Ps3System::train` computes and normalizes its training data in a
/// fan-out over the shared pool; with `threads = 1` it runs serially. Both
/// freeze to the same bytes, with Algorithm 3 off and on. (The config word
/// that records `threads` is set to the default before freezing: it is the
/// caller's choice, not something training learned.)
#[test]
fn serial_and_parallel_training_freeze_to_the_same_bytes() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(42);
    for feature_selection in [false, true] {
        let frozen = |threads: usize| {
            let mut cfg = Ps3Config::default().with_seed(42);
            cfg.gbdt.n_trees = 4;
            cfg.feature_selection = feature_selection;
            cfg.threads = threads;
            let pt = Arc::clone(&ds.pt);
            let mut system = Ps3System::train(pt, Arc::clone(&ds.stats), &ds.train_queries, cfg);
            system.trained.config.threads = Ps3Config::default().threads;
            let name = format!("threads_{threads}_fs_{feature_selection}");
            with_frozen(&system, &name, |path| {
                std::fs::read(path).expect("read artifact")
            })
        };
        assert!(
            frozen(1) == frozen(Ps3Config::default().threads),
            "feature_selection = {feature_selection}: serial and parallel training differ"
        );
    }
}

/// The statistics section of a TPC-H table with 4,000 rows per partition,
/// recorded before the per-column sketches were derived from one sort.
/// Lossy counting drops a counter at a bucket boundary (every 1,000th row)
/// when its count is too low for the rows seen, and restarts it if the key
/// recurs, so a reported count can fall short of the key's true count. No
/// artifact above reaches a boundary (128–512 rows per partition), and on
/// most tables that do, no reported count ever falls short (an Aria table
/// of the same shape reports every heavy hitter exactly). This one does.
#[test]
fn statistics_section_with_pruned_heavy_hitters_matches_the_recorded_digest() {
    let ds = DatasetConfig::new(DatasetKind::TpcH, ScaleProfile::Tiny)
        .with_rows(64_000)
        .with_partitions(16)
        .build(5);
    let table = ds.pt.table();
    let undercounted = (0..ds.pt.num_partitions()).any(|p| {
        let rows = ds.pt.rows(PartitionId(p));
        ds.stats.partition(p).iter().enumerate().any(|(c, col)| {
            let keys: Vec<u64> = match table.column(ColId(c)) {
                ColumnData::Numeric(v) => v[rows.clone()].iter().map(|x| x.to_bits()).collect(),
                ColumnData::Categorical { codes, .. } => {
                    codes[rows.clone()].iter().map(|&c| u64::from(c)).collect()
                }
            };
            let mut exact: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                *exact.entry(k).or_default() += 1;
            }
            let n = keys.len() as f64;
            col.heavy_hitters
                .iter()
                .any(|h| h.frequency < exact[&h.key] as f64 / n)
        })
    });
    assert!(
        undercounted,
        "fixture must report a count lossy counting pruned"
    );
    assert_eq!(
        fnv1a(ds.stats.section()),
        0x0AFB_BB83_870D_EF79,
        "statistics bytes moved"
    );
}
