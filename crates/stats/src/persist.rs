//! Byte codec for [`TableStats`] — the statistics catalog section of the
//! flat artifact format (`docs/FORMAT.md`).
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
//! feature rows and selectivity index are re-derived from the decoded
//! sketches by [`TableStats::from_sketches`], the derivation
//! [`TableStats::build`] runs, and answer sketches are built at query time
//! from the picked partitions' rows.
//!
//! Every length and shape is validated before allocation-proportional
//! work, and no pre-allocation exceeds the bytes left to read; malformed
//! bytes surface as [`FormatError`] (a short payload as
//! `Truncated("stats")`), never a panic.

use std::io::{self, Write};

use ps3_sketch::codec::{decode_heavy_hitters, encode_heavy_hitters};
use ps3_sketch::{Akmv, EquiDepthHistogram, ExactDict, Measures, MeasuresRaw};
use ps3_storage::codec::{decode_section, CodecError, Reader, Writer};
use ps3_storage::format::FormatError;
use ps3_storage::{Bytes, Schema};

use crate::builder::TableStats;
use crate::column_stats::ColumnStats;

/// Upper bound on the partition count accepted from an artifact; guards
/// allocation size before any per-partition bytes are read.
const MAX_PARTITIONS: usize = 1 << 22;
/// Upper bound on the column count accepted from an artifact.
const MAX_COLS: usize = 1 << 16;

const FLAG_MEASURES: u8 = 1;
const FLAG_HISTOGRAM: u8 = 1 << 1;
const FLAG_EXACT: u8 = 1 << 2;
const KNOWN_FLAGS: u8 = FLAG_MEASURES | FLAG_HISTOGRAM | FLAG_EXACT;

/// Write a full statistics catalog (the `STATS` section payload) to `out`,
/// one `(partition, column)` record at a time through one reused record
/// buffer. A thawed catalog writes back the section it keeps, byte for
/// byte and straight from the mapping: the encoding is canonical, so that
/// is what encoding its sketches would write. A record too large for its
/// blob lengths is an `InvalidInput` error.
pub fn write_table_stats<W: Write + ?Sized>(stats: &TableStats, out: &mut W) -> io::Result<()> {
    if let Some(encoded) = stats.encoded() {
        return out.write_all(encoded);
    }
    let n = stats.num_partitions();
    let mut record = Vec::new();
    let mut w = Writer::new(&mut record);
    w.u32(n as u32);
    w.u32(stats.feature_schema().num_cols() as u32);
    out.write_all(&record)?;
    for p in 0..n {
        for col in stats.partition(p) {
            record.clear();
            encode_column_stats(&mut Writer::new(&mut record), col)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            out.write_all(&record)?;
        }
    }
    Ok(())
}

/// [`write_table_stats`] into one byte vector.
pub fn encode_table_stats(stats: &TableStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_table_stats(stats, &mut bytes).expect("sketch blobs fit a u32 length");
    bytes
}

/// One `(partition, column)` record of the section, as
/// [`write_table_stats`] writes it.
pub fn column_stats_bytes(col: &ColumnStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_column_stats(&mut Writer::new(&mut bytes), col).expect("sketch blobs fit a u32 length");
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
    const BLOB: &str = "sketch blobs cap at 4 GiB";
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

/// Decode a statistics catalog from a `STATS` section payload. Rejects
/// every malformed shape with a typed error before constructing the
/// catalog, so [`TableStats`] accessors can never panic on thawed state.
/// The catalog owns its decoded sketch bundles, as a built one does.
pub fn decode_table_stats(bytes: &[u8]) -> Result<TableStats, FormatError> {
    let (partitions, num_cols) = decode_sketches(bytes)?;
    TableStats::from_sketches(partitions, num_cols).map_err(FormatError::Corrupt)
}

/// The serving form of [`decode_table_stats`], for a section still mapped:
/// the sketches are decoded to derive the catalog and to check their kinds
/// against `schema`, then dropped. The catalog keeps `section` and decodes
/// them again only when asked ([`TableStats::partition`]), and encoding it
/// writes `section` back unchanged.
pub fn thaw_table_stats(section: Bytes<u8>, schema: &Schema) -> Result<TableStats, FormatError> {
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
    let stats = TableStats::from_sketches(partitions, num_cols).map_err(FormatError::Corrupt)?;
    Ok(stats.served_from(section))
}

/// The section's sketch bundles (`partitions[p][c]`) and its column count:
/// the records alone, before anything is derived from them.
pub(crate) fn decode_sketches(bytes: &[u8]) -> Result<(Vec<Vec<ColumnStats>>, usize), FormatError> {
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
        // Every partition holds at least one record of at least one byte,
        // so the bytes left bound what a well-formed payload can hold.
        let mut partitions = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let mut cols = Vec::with_capacity(num_cols.min(r.remaining()));
            for _ in 0..num_cols {
                cols.push(decode_column_stats(r)?);
            }
            partitions.push(cols);
        }
        Ok((partitions, num_cols))
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
    let histogram = if flags & FLAG_HISTOGRAM != 0 {
        Some(r.blob(EquiDepthHistogram::decode)?)
    } else {
        None
    };
    let akmv = r.blob(Akmv::decode)?;
    let (heavy_hitters, hh_rows) = r.blob(decode_heavy_hitters)?;
    if hh_rows != rows {
        return Err(CodecError::Invalid(
            "column stats: heavy-hitter row count disagrees",
        ));
    }
    let exact = if flags & FLAG_EXACT != 0 {
        Some(r.blob(ExactDict::decode)?)
    } else {
        None
    };
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
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

    fn make() -> TableStats {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..400 {
            let tag = ["a", "b", "c", "hot"][if i < 200 { 3 } else { i % 3 }];
            b.push_row(&[f64::from(i as u32).sqrt()], &[tag]);
        }
        let pt = PartitionedTable::with_equal_partitions(b.finish(), 4);
        TableStats::build(&pt, &StatsConfig::default())
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let stats = make();
        let bytes = encode_table_stats(&stats);
        let d = decode_table_stats(&bytes).unwrap();
        assert_eq!(d.num_partitions(), stats.num_partitions());
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
        for p in 0..4 {
            for (dc, sc) in d.partition(p).iter().zip(stats.partition(p)) {
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
        let bytes = encode_table_stats(&make());
        for cut in [0, 3, 16, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_table_stats(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FormatError::Truncated(_) | FormatError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn unknown_flags_rejected() {
        let stats = make();
        let mut bytes = encode_table_stats(&stats);
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
            let err = decode_table_stats(&bytes).unwrap_err();
            assert!(
                matches!(err, FormatError::Corrupt("column stats: unknown flag bits")),
                "bit {bit}: {err}"
            );
            bytes[first_flags] ^= 1 << bit;
        }
        // Flips elsewhere may or may not decode; they must never panic.
        for i in (0..bytes.len()).step_by(97) {
            bytes[i] ^= 0x80;
            let _ = decode_table_stats(&bytes);
            bytes[i] ^= 0x80;
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_table_stats(&make());
        bytes.push(0);
        let err = decode_table_stats(&bytes).unwrap_err();
        assert!(matches!(err, FormatError::Corrupt(_)), "{err}");
    }
}
