//! Byte codec for [`TableStats`] — the statistics catalog section of the
//! flat artifact format (`docs/FORMAT.md`), and the one stored form of
//! every catalog.
//!
//! This is the one byte encoding of [`Measures`]: it persists the *raw
//! accumulator sums* via [`Measures::raw_parts`], so a thawed system
//! reproduces every feature value bit-for-bit. The other sketches
//! (histogram, AKMV, heavy hitters, exact dictionary) round-trip exactly
//! through [`ps3_sketch::codec`] and are embedded as length-prefixed blobs
//! of those encodings, written in place by the one byte codec
//! ([`ps3_storage::codec`]). The section is the partition and column
//! counts followed by one such record per `(partition, column)`, and
//! nothing else: the global heavy-hitter keys, occurrence bitmaps, static
//! feature rows and selectivity index are derived from the sketches, and
//! answer sketches are built at query time from the picked partitions'
//! rows.
//!
//! Every length and shape is validated before allocation-proportional
//! work, and nothing is allocated ahead of the records decoded; malformed
//! bytes surface as [`FormatError`] (a short payload as
//! `Truncated("stats")`), never a panic.

use ps3_sketch::codec::{decode_heavy_hitters, encode_heavy_hitters};
use ps3_sketch::{Akmv, EquiDepthHistogram, ExactDict, Measures, MeasuresRaw};
use ps3_storage::codec::{decode_section, CodecError, Reader, Writer};
use ps3_storage::format::FormatError;
use ps3_storage::{Bytes, Schema};

use crate::builder::TableStats;
use crate::column_stats::ColumnStats;

/// Upper bound on the partition count accepted from an artifact.
const MAX_PARTITIONS: usize = 1 << 22;
/// Upper bound on the column count accepted from an artifact.
const MAX_COLS: usize = 1 << 16;

const FLAG_MEASURES: u8 = 1;
const FLAG_HISTOGRAM: u8 = 1 << 1;
const FLAG_EXACT: u8 = 1 << 2;
const KNOWN_FLAGS: u8 = FLAG_MEASURES | FLAG_HISTOGRAM | FLAG_EXACT;

const BLOB: &str = "sketch blobs cap at 4 GiB";
/// Section bytes written between two returns of freed pages to the system.
const RELEASE_EVERY: usize = 4 << 20;

/// Encode the statistics section of `partitions[p][c]`, consuming the
/// bundles: each partition's are dropped once written, and the pages they
/// freed handed back as the section grows (the allocator keeps them
/// otherwise), so the bundles and the whole section are never both
/// resident.
pub(crate) fn encode_sketches(
    partitions: Vec<Vec<ColumnStats>>,
    num_cols: usize,
) -> Result<Bytes<u8>, &'static str> {
    let mut bytes = Vec::new();
    let mut w = Writer::new(&mut bytes);
    w.u32(partitions.len() as u32);
    w.u32(num_cols as u32);
    let mut released = 0;
    for cols in partitions {
        for col in &cols {
            encode_column_stats(&mut Writer::new(&mut bytes), col).map_err(|_| BLOB)?;
        }
        drop(cols);
        if bytes.len() - released >= RELEASE_EVERY {
            ps3_runtime::release_free_heap();
            released = bytes.len();
        }
    }
    // A built catalog holds the section for as long as it lives.
    bytes.shrink_to_fit();
    Ok(bytes.into())
}

/// One `(partition, column)` record of the section, as
/// [`TableStats::from_sketches`] writes it.
pub fn column_stats_bytes(col: &ColumnStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_column_stats(&mut Writer::new(&mut bytes), col).expect(BLOB);
    bytes
}

/// One `(partition, column)` record; each sketch goes in place behind a
/// back-patched `u32` length.
fn encode_column_stats(w: &mut Writer<'_>, col: &ColumnStats) -> Result<(), CodecError> {
    let mut flags = 0u8;
    if col.measures.is_some() {
        flags |= FLAG_MEASURES;
    }
    if col.histogram.is_some() {
        flags |= FLAG_HISTOGRAM;
    }
    if col.exact.is_some() {
        flags |= FLAG_EXACT;
    }
    w.u8(flags);
    w.u64(col.rows);
    if let Some(m) = &col.measures {
        let raw = m.raw_parts();
        w.u64(raw.count);
        w.f64(raw.sum);
        w.f64(raw.sum_sq);
        w.f64(raw.min);
        w.f64(raw.max);
        w.f64(raw.log_sum);
        w.f64(raw.log_sum_sq);
        w.f64(raw.log_min);
        w.f64(raw.log_max);
        w.u8(u8::from(raw.all_positive));
    }
    if let Some(h) = &col.histogram {
        w.blob(BLOB, |w| h.encode(w))?;
    }
    w.blob(BLOB, |w| col.akmv.encode(w))?;
    w.blob(BLOB, |w| {
        encode_heavy_hitters(&col.heavy_hitters, col.rows, w)
    })?;
    if let Some(x) = &col.exact {
        w.blob(BLOB, |w| x.encode(w))?;
    }
    Ok(())
}

/// The catalog a statistics section holds, for the table of `schema`.
/// Rejects every malformed shape with a typed error before constructing
/// the catalog, so [`TableStats`] accessors can never panic on thawed
/// state. The sketches are decoded to check their kinds against `schema`
/// and to derive the catalog, then dropped: the catalog keeps `section`
/// (for an artifact, a window onto its mapping) and decodes them again
/// only when asked ([`TableStats::partition`]).
pub fn decode_table_stats(section: Bytes<u8>, schema: &Schema) -> Result<TableStats, FormatError> {
    let (partitions, num_cols) = decode_sketches(&section)?;
    if num_cols != schema.len() {
        return Err(FormatError::Corrupt(
            "stats column count disagrees with table schema",
        ));
    }
    // Selectivity estimation reads a column's histogram for comparisons and
    // its dictionaries for membership: which one a column has must follow
    // its declared type, as it does when statistics are built.
    let kinds_agree = partitions.iter().all(|cols| {
        (cols.iter().zip(schema.iter()))
            .all(|(col, (_, meta))| col.histogram.is_some() == meta.ctype.is_numeric_like())
    });
    if !kinds_agree {
        return Err(FormatError::Corrupt(
            "stats column kinds disagree with table schema",
        ));
    }
    TableStats::derive(partitions, num_cols, |_| Ok(section)).map_err(FormatError::Corrupt)
}

/// The section's sketch bundles (`partitions[p][c]`) and its column count:
/// the records alone, before anything is derived from them.
pub(crate) fn decode_sketches(bytes: &[u8]) -> Result<(Vec<Vec<ColumnStats>>, usize), FormatError> {
    let mut partitions: Vec<Vec<ColumnStats>> = Vec::new();
    let num_cols = walk_records(bytes, |p, r| {
        if p == partitions.len() {
            // Every partition after the first holds as many as the last.
            let cols = partitions.last().map_or(0, Vec::len);
            partitions.push(Vec::with_capacity(cols));
        }
        partitions[p].push(decode_column_stats(r)?);
        Ok(())
    })?;
    Ok((partitions, num_cols))
}

/// Bytes of the fixed measures fields: the count, eight `f64` sums and
/// extremes, and the all-positive flag.
const MEASURES_BYTES: usize = 8 + 8 * 8 + 1;
/// Bytes of a sketch blob that are not its payload fields: the kind tag
/// and the one `u32` entry count.
const BLOB_HEADER: usize = 1 + 4;

/// Each record's Table-4 footprint, `(measures, histogram, akmv, hh,
/// exact)` in bytes, in section order — read off the record's flags and
/// its blobs' length prefixes, decoding no sketch: measures are their
/// fixed fields, and each blob counts its length less [`BLOB_HEADER`].
pub(crate) fn for_each_footprint(
    bytes: &[u8],
    mut record: impl FnMut([usize; 5]),
) -> Result<(), FormatError> {
    walk_records(bytes, |_, r| {
        let flags = r.u8()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(CodecError::Invalid("column stats: unknown flag bits"));
        }
        r.u64()?; // rows
        let measures = match flags & FLAG_MEASURES {
            0 => 0,
            _ => r.take(MEASURES_BYTES)?.len(),
        };
        let mut blob = |present: bool| -> Result<usize, CodecError> {
            if !present {
                return Ok(0);
            }
            let len = r.u32()? as usize;
            r.take(len)?;
            Ok(len.saturating_sub(BLOB_HEADER))
        };
        record([
            measures,
            blob(flags & FLAG_HISTOGRAM != 0)?,
            blob(true)?,
            blob(true)?,
            blob(flags & FLAG_EXACT != 0)?,
        ]);
        Ok(())
    })
    .map(drop)
}

/// The one loop over a section's records: checks the partition and column
/// counts, then hands `record` a reader at each `(partition, column)`
/// record in order, partition-major, with its partition; `record` reads
/// the whole record. Returns the column count.
fn walk_records<'a>(
    bytes: &'a [u8],
    mut record: impl FnMut(usize, &mut Reader<'a>) -> Result<(), CodecError>,
) -> Result<usize, FormatError> {
    decode_section("stats", bytes, |r| {
        let n = r.u32()? as usize;
        let num_cols = r.u32()? as usize;
        if n > MAX_PARTITIONS {
            return Err(CodecError::Invalid("stats partition count implausible"));
        }
        if num_cols > MAX_COLS {
            return Err(CodecError::Invalid("stats column count implausible"));
        }
        if n > 0 && num_cols == 0 {
            return Err(CodecError::Invalid("stats partitions without columns"));
        }
        for p in 0..n {
            for _ in 0..num_cols {
                record(p, r)?;
            }
        }
        Ok(num_cols)
    })
}

fn decode_column_stats(r: &mut Reader<'_>) -> Result<ColumnStats, CodecError> {
    let flags = r.u8()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(CodecError::Invalid("column stats: unknown flag bits"));
    }
    let rows = r.u64()?;
    let measures = if flags & FLAG_MEASURES != 0 {
        let raw = MeasuresRaw {
            count: r.u64()?,
            sum: r.f64()?,
            sum_sq: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
            log_sum: r.f64()?,
            log_sum_sq: r.f64()?,
            log_min: r.f64()?,
            log_max: r.f64()?,
            all_positive: r.u8()? != 0,
        };
        Some(Measures::from_raw_parts(raw))
    } else {
        None
    };
    let histogram = (flags & FLAG_HISTOGRAM != 0)
        .then(|| r.blob(EquiDepthHistogram::decode))
        .transpose()?;
    let akmv = r.blob(Akmv::decode)?;
    let (heavy_hitters, hh_rows) = r.blob(decode_heavy_hitters)?;
    if hh_rows != rows {
        return Err(CodecError::Invalid(
            "column stats: heavy-hitter row count disagrees",
        ));
    }
    let exact = (flags & FLAG_EXACT != 0)
        .then(|| r.blob(ExactDict::decode))
        .transpose()?;
    Ok(ColumnStats {
        measures,
        histogram,
        akmv,
        heavy_hitters,
        exact,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StatsConfig;
    use crate::column_stats::ColumnStatsParams;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionId, PartitionedTable};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ])
    }

    fn table() -> PartitionedTable {
        let mut b = TableBuilder::new(schema());
        for i in 0..400 {
            let tag = ["a", "b", "c", "hot"][if i < 200 { 3 } else { i % 3 }];
            b.push_row(&[f64::from(i as u32).sqrt()], &[tag]);
        }
        PartitionedTable::with_equal_partitions(b.finish(), 4)
    }

    fn make() -> TableStats {
        TableStats::build(&table(), &StatsConfig::default())
    }

    fn decode(bytes: &[u8]) -> Result<TableStats, FormatError> {
        decode_table_stats(Bytes::from(bytes.to_vec()), &schema())
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let pt = table();
        let stats = TableStats::build(&pt, &StatsConfig::default());
        let d = decode(stats.section()).unwrap();
        assert_eq!(d.num_partitions(), stats.num_partitions());
        assert_eq!(d.section(), stats.section());
        let bits = |s: &TableStats| -> Vec<Vec<u64>> {
            (s.static_features().iter())
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&d), bits(&stats));
        for c in 0..2 {
            assert_eq!(
                d.global_heavy_hitters(ColId(c)),
                stats.global_heavy_hitters(ColId(c))
            );
            for p in 0..4 {
                assert_eq!(d.bitmap(ColId(c), p), stats.bitmap(ColId(c), p));
            }
        }
        // The sketches decoded from the section are the ones built.
        let table = pt.table();
        for p in 0..4 {
            let rows = pt.rows(PartitionId(p));
            for (dc, (id, meta)) in d.partition(p).iter().zip(table.schema().iter()) {
                let params = ColumnStatsParams::default();
                let sc = ColumnStats::build(table.column(id), meta.ctype, rows.clone(), &params);
                assert_eq!(dc.rows, sc.rows);
                assert_eq!(dc.heavy_hitters, sc.heavy_hitters);
                assert_eq!(dc.histogram, sc.histogram);
                assert_eq!(
                    dc.akmv.distinct_estimate().to_bits(),
                    sc.akmv.distinct_estimate().to_bits()
                );
                match (&dc.measures, &sc.measures) {
                    (Some(a), Some(b)) => assert_eq!(a.raw_parts(), b.raw_parts()),
                    (None, None) => {}
                    _ => panic!("measures presence diverged"),
                }
                assert_eq!(dc.exact.is_some(), sc.exact.is_some());
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let stats = make();
        let bytes = stats.section();
        for cut in [0, 3, 16, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FormatError::Truncated(_) | FormatError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut bytes = make().section().to_vec();
        // The first column-stats record follows the two counts.
        let first_flags = 8;
        assert_eq!(
            bytes[first_flags],
            FLAG_MEASURES | FLAG_HISTOGRAM | FLAG_EXACT
        );
        // Bits 3 and 4 are what a version-2 writer set for its quantile and
        // top-k blobs; bit 7 was never assigned.
        for bit in [3, 4, 7] {
            bytes[first_flags] ^= 1 << bit;
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(err, FormatError::Corrupt("column stats: unknown flag bits")),
                "bit {bit}: {err}"
            );
            bytes[first_flags] ^= 1 << bit;
        }
        // Flips elsewhere may or may not decode; they must never panic.
        for i in (0..bytes.len()).step_by(97) {
            bytes[i] ^= 0x80;
            let _ = decode(&bytes);
            bytes[i] ^= 0x80;
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = make().section().to_vec();
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, FormatError::Corrupt(_)), "{err}");
    }
}
