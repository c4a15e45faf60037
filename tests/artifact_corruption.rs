//! The persistence layer's two load-bearing promises, tested end-to-end:
//!
//! 1. **Bit-identity** — a frozen-then-thawed system answers every
//!    `(query, method, budget, seed)` bit-identically to the system that
//!    was frozen, across all four methods and multiple seeds.
//! 2. **No panics on malformed input** — bit flips, truncations, version
//!    bumps, and random garbage produce typed [`FormatError`]s, never a
//!    panic: a corrupted artifact can never take down a server that tries
//!    to load it.
//!
//! Both promises extend to the sketch query classes and to the stats
//! payload itself: `PERCENTILE` / `DISTINCT` / `TOP_K` answers — built at
//! query time from the picked partitions' rows, nothing of them is stored
//! — are bit-identical after a freeze/thaw round trip, and corruption
//! aimed directly at the encoded stats blob (measures, histogram, AKMV,
//! heavy-hitter and exact-dictionary records per partition and column)
//! yields typed errors only.
//!
//! A third, about honesty rather than safety: the per-partition storage
//! the system *reports* (`storage_breakdown`, Table 4) is what the stats
//! section *stores*, within framing.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use ps3::core::{spec_rng, Method, Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::{AggExpr, Clause, CmpOp, Predicate, Query, QuerySpec, ScalarExpr, SketchQuery};
use ps3::runtime::ThreadPool;
use ps3::sketch::codec::answer_sketch_to_bytes;
use ps3::stats::persist::decode_table_stats;
use ps3::stats::{StatsConfig, TableStats};
use ps3::storage::format::{Artifact, FormatError, FORMAT_VERSION, MAGIC};
use ps3::storage::table::TableBuilder;
use ps3::storage::{Bytes, ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps3_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn train_queries() -> Vec<Query> {
    vec![
        Query::new(
            vec![AggExpr::sum(ScalarExpr::col(ColId(0)))],
            Some(Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Ge,
                value: 40.0,
            })),
            vec![ColId(1)],
        ),
        Query::new(vec![AggExpr::count()], None, vec![]),
        Query::new(
            vec![AggExpr::avg(ScalarExpr::col(ColId(0)))],
            Some(Predicate::Clause(Clause::In {
                col: ColId(1),
                values: vec!["b".into(), "c".into()],
                negated: false,
            })),
            vec![],
        ),
    ]
}

fn tiny_system(seed: u64) -> Ps3System {
    let schema = Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("g", ColumnType::Categorical),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..320u32 {
        b.push_row(
            &[f64::from(i % 97) * 1.37 - 20.0],
            &[["a", "b", "c", "d"][(i as usize / 20) % 4]],
        );
    }
    let pt = Arc::new(PartitionedTable::with_equal_partitions(b.finish(), 16));
    let stats = Arc::new(TableStats::build(&pt, &StatsConfig::default()));
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 4;
    cfg.feature_selection = false;
    Ps3System::train(pt, stats, &train_queries(), cfg)
}

/// Promise 1: the thawed system is observationally identical — every
/// method, several budgets, several seeds, bit-for-bit (including the
/// error estimates, which run through the same persisted models).
#[test]
fn freeze_thaw_answers_bit_identical_across_methods_and_seeds() {
    let dir = scratch_dir("identity");
    for train_seed in [5u64, 23] {
        let system = tiny_system(train_seed);
        let path = dir.join(format!("sys_{train_seed}.ps3"));
        system.freeze(&path).expect("freeze");
        let thawed = Ps3System::thaw(&path).expect("thaw");

        for query in train_queries() {
            for method in Method::ALL {
                for frac in [0.1, 0.25, 1.0] {
                    for seed in [0u64, 7, 99] {
                        let a = system.answer_seeded(&query, method, frac, seed);
                        let b = thawed.answer_seeded(&query, method, frac, seed);
                        assert_eq!(
                            a.answer, b.answer,
                            "{method:?} frac {frac} seed {seed} (train seed {train_seed})"
                        );
                        // Everything deterministic in the metadata must
                        // survive bit-exactly; picker_ms is wall-clock.
                        assert_eq!(a.meta.partitions_read, b.meta.partitions_read);
                        assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                        assert_eq!(a.meta.planned_frac.to_bits(), b.meta.planned_frac.to_bits());
                        assert_eq!(a.meta.exact, b.meta.exact);
                        assert_eq!(a.selection, b.selection);
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn sketch_queries() -> Vec<SketchQuery> {
    vec![
        SketchQuery::percentile(ColId(0), 0.5),
        SketchQuery::percentile(ColId(0), 0.9).filtered(Predicate::Clause(Clause::Cmp {
            col: ColId(0),
            op: CmpOp::Lt,
            value: 60.0,
        })),
        SketchQuery::distinct(ColId(1)),
        SketchQuery::top_k(ColId(1), 3),
    ]
}

/// Promise 1 for the sketch classes: `PERCENTILE` / `COUNT(DISTINCT)` /
/// `TOP_K` answers — value, error estimate, selection, and the merged
/// answer sketch itself (compared through the codec, so bit-for-bit) —
/// survive freeze/thaw across every method, plus the single-pass oracle.
#[test]
fn freeze_thaw_sketch_answers_bit_identical() {
    let dir = scratch_dir("sketch_identity");
    let system = tiny_system(5);
    let path = dir.join("sys.ps3");
    system.freeze(&path).expect("freeze");
    let thawed = Ps3System::thaw(&path).expect("thaw");
    let pool = ThreadPool::new(2);

    for query in sketch_queries() {
        assert_eq!(
            answer_sketch_to_bytes(&system.exact_sketch(&query)),
            answer_sketch_to_bytes(&thawed.exact_sketch(&query)),
            "single-pass oracle must survive thaw bit-for-bit"
        );
        let spec = QuerySpec::from(query);
        for method in Method::ALL {
            for frac in [0.25, 1.0] {
                for seed in [0u64, 7] {
                    let mut rng_a = spec_rng(&spec, seed);
                    let mut rng_b = spec_rng(&spec, seed);
                    let a = system.answer_spec_on(&spec, method, frac, &mut rng_a, &pool);
                    let b = thawed.answer_spec_on(&spec, method, frac, &mut rng_b, &pool);
                    assert_eq!(a.answer, b.answer, "{method:?} frac {frac} seed {seed}");
                    assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                    assert_eq!(a.meta.exact, b.meta.exact);
                    assert_eq!(a.selection, b.selection);
                    let (sa, sb) = (a.sketch.expect("sketch"), b.sketch.expect("sketch"));
                    assert_eq!(
                        answer_sketch_to_bytes(&sa),
                        answer_sketch_to_bytes(&sb),
                        "{method:?} frac {frac} seed {seed}: thawed sketch drifted"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Freezing the thawed system reproduces the artifact byte-for-byte: the
/// encoding is canonical, so artifacts can be compared by checksum.
#[test]
fn refreeze_is_byte_identical() {
    let dir = scratch_dir("refreeze");
    let system = tiny_system(11);
    let first = dir.join("first.ps3");
    let second = dir.join("second.ps3");
    system.freeze(&first).expect("freeze");
    let thawed = Ps3System::thaw(&first).expect("thaw");
    thawed.freeze(&second).expect("refreeze");
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "freeze(thaw(artifact)) must reproduce the artifact exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic corruption cases with known typed outcomes.
#[test]
fn corruption_cases_yield_the_documented_errors() {
    let dir = scratch_dir("typed");
    let system = tiny_system(5);
    let path = dir.join("sys.ps3");
    system.freeze(&path).expect("freeze");
    let good = std::fs::read(&path).unwrap();
    let case = dir.join("case.ps3");

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&case, &bad).unwrap();
    assert!(matches!(
        Artifact::open(&case).unwrap_err(),
        FormatError::BadMagic
    ));

    // Any version but this build's — the next one, and the retired one
    // whose sections were checksummed byte by byte with FNV-1a.
    for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&case, &bad).unwrap();
        match Artifact::open(&case).unwrap_err() {
            FormatError::UnsupportedVersion { found } => assert_eq!(found, version),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        match Ps3System::thaw(&case) {
            Err(FormatError::UnsupportedVersion { found }) => assert_eq!(found, version),
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("a version-{version} artifact must not thaw"),
        }
    }

    // Truncation to every interesting prefix class.
    for keep in [0, 4, 63, 64, 200] {
        std::fs::write(&case, &good[..keep.min(good.len())]).unwrap();
        assert!(
            Ps3System::thaw(&case).is_err(),
            "truncated to {keep} bytes must not thaw"
        );
    }

    // Payload bit flip: caught by a section checksum.
    let mut bad = good.clone();
    let mid = good.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&case, &bad).unwrap();
    match Ps3System::thaw(&case) {
        Err(FormatError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("expected ChecksumMismatch, got {other:?}"),
        Ok(_) => panic!("corrupted payload must not thaw"),
    }

    // Not an artifact at all.
    std::fs::write(&case, b"definitely not a PS3 artifact").unwrap();
    match Ps3System::thaw(&case) {
        Err(FormatError::BadMagic | FormatError::Truncated(_)) => {}
        Err(other) => panic!("expected BadMagic/Truncated, got {other:?}"),
        Ok(_) => panic!("garbage must not thaw"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Shared frozen artifact for the proptests (train once, not per case).
fn frozen_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = scratch_dir("prop_seed");
        let path = dir.join("sys.ps3");
        tiny_system(5).freeze(&path).expect("freeze");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

/// Promise 3: `storage_breakdown()` counts everything `SEC_STATS` holds
/// per partition. Encoded bytes minus the two counts ahead of them are the
/// per-partition sketch records; the reported KB must equal them up to
/// flags and length prefixes. Measured on the e2e fixture's shape (Aria,
/// 512-row partitions), where framing is ~1.3% — on a 20-row partition it
/// would be 5–16% of almost nothing. A sketch family that is built and
/// persisted but left out of the accounting fails this by its whole size.
#[test]
fn reported_storage_is_what_the_stats_section_stores() {
    let n = 16;
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_rows(n * 512)
        .with_partitions(n)
        .build(3);
    let stats = &ds.stats;
    // The partition and column counts; the sketch records follow.
    let fixed = 8;
    let stored = (stats.section().len() - fixed) as f64;
    let reported = stats.storage_breakdown().total_kb() * 1024.0 * n as f64;
    assert!(
        reported <= stored && stored <= reported * 1.02,
        "reported {reported} B vs stored {stored} B per {n} partitions"
    );
}

/// The schema of the stats blob below.
fn stats_blob_schema() -> Schema {
    Schema::new(vec![
        ColumnMeta::new("x", ColumnType::Numeric),
        ColumnMeta::new("g", ColumnType::Categorical),
    ])
}

/// `bytes` decoded as a statistics section for the table it was built
/// from.
fn decode_stats_blob(bytes: &[u8]) -> Result<TableStats, FormatError> {
    decode_table_stats(Bytes::from(bytes.to_vec()), &stats_blob_schema())
}

/// Shared encoded stats blob for the blob-targeted proptests.
fn stats_blob_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut b = TableBuilder::new(stats_blob_schema());
        for i in 0..320u32 {
            b.push_row(
                &[f64::from(i % 97) * 1.37 - 20.0],
                &[["a", "b", "c", "d"][(i as usize / 20) % 4]],
            );
        }
        let pt = PartitionedTable::with_equal_partitions(b.finish(), 16);
        let stats = TableStats::build(&pt, &StatsConfig::default());
        let bytes = stats.section().to_vec();
        // Sanity: the pristine blob round-trips, so every proptest failure
        // below is attributable to the injected corruption.
        decode_stats_blob(&bytes).expect("pristine stats blob decodes");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promise 2a: no single bit flip anywhere in a valid artifact can
    /// panic the loader. (Most flips fail a checksum; flips in padding
    /// may legitimately still thaw.)
    #[test]
    fn bit_flips_never_panic(byte_idx in 0usize..1_000_000, bit in 0u8..8) {
        let good = frozen_bytes();
        let idx = byte_idx % good.len();
        let mut bad = good.to_vec();
        bad[idx] ^= 1 << bit;
        let dir = scratch_dir("prop_flip");
        let path = dir.join("flip.ps3");
        std::fs::write(&path, &bad).unwrap();
        let _ = Ps3System::thaw(&path); // Ok or typed Err — never a panic.
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Promise 2b: no truncation point can panic the loader, and any
    /// proper prefix must be rejected (the header records the file length).
    #[test]
    fn truncations_never_panic_and_never_thaw(keep_frac in 0.0f64..1.0) {
        let good = frozen_bytes();
        let keep = ((good.len() as f64) * keep_frac) as usize;
        let dir = scratch_dir("prop_trunc");
        let path = dir.join("trunc.ps3");
        std::fs::write(&path, &good[..keep]).unwrap();
        prop_assert!(Ps3System::thaw(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Promise 2d: corruption aimed directly at the encoded stats blob
    /// yields `Ok` or a typed error from the stats decoder, never a panic.
    /// (Inside a full artifact these flips are usually absorbed by the
    /// section checksum first; decoding the blob alone exercises the
    /// embedded sketch parsers themselves.)
    #[test]
    fn stats_blob_bit_flips_never_panic(byte_idx in 0usize..1_000_000, bit in 0u8..8) {
        let good = stats_blob_bytes();
        let idx = byte_idx % good.len();
        let mut bad = good.to_vec();
        bad[idx] ^= 1 << bit;
        let _ = decode_stats_blob(&bad); // Ok or typed Err — never a panic.
    }

    /// Promise 2e: no truncation point in the stats blob can panic the
    /// embedded sketch parsers, and any proper prefix is rejected.
    #[test]
    fn stats_blob_truncations_never_panic_and_never_decode(keep_frac in 0.0f64..1.0) {
        let good = stats_blob_bytes();
        let keep = ((good.len() as f64) * keep_frac) as usize;
        if keep < good.len() {
            prop_assert!(decode_stats_blob(&good[..keep]).is_err());
        }
    }

    /// Promise 2c: random garbage never panics the loader.
    #[test]
    fn random_garbage_never_panics(mut bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        // Half the cases get a valid magic so decoding runs deeper.
        if bytes.len() >= 8 && bytes[0] & 1 == 0 {
            bytes[..8].copy_from_slice(&MAGIC);
        }
        let dir = scratch_dir("prop_garbage");
        let path = dir.join("garbage.ps3");
        std::fs::write(&path, &bytes).unwrap();
        let _ = Ps3System::thaw(&path);
        std::fs::remove_dir_all(&dir).ok();
    }
}
