//! Binary serialization for the sketches.
//!
//! The deployment story (§2.3.1) stores statistics *separately from the
//! partitions* — a statistics catalog that query optimization reads without
//! touching data. This module gives every sketch but
//! [`Measures`](crate::Measures) a compact little-endian binary encoding
//! with explicit, dependency-free readers/writers (`Measures` is ten fixed
//! fields, written raw by `ps3_stats::persist`). The `serialized_size()`
//! methods of the five statistics sketches (`Measures`, `EquiDepthHistogram`, `Akmv`,
//! `HeavyHitters`, `ExactDict`) account for the payload fields; tags, entry
//! counts and the catalog's length prefixes come on top (about 1%).
//!
//! Format: every sketch starts with a 1-byte tag (for catalog files that
//! interleave kinds) followed by fixed-width fields and length-prefixed
//! repeated groups. No varints — partition catalogs are small and fixed
//! width keeps the codec trivially auditable.

use crate::akmv::Akmv;
use crate::answer::AnswerSketch;
use crate::distinct::DistinctSketch;
use crate::exact_dict::ExactDict;
use crate::heavy_hitter::HeavyHitter;
use crate::histogram::EquiDepthHistogram;
use crate::quantile::QuantileSketch;
use crate::topk::TopKSketch;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Leading tag byte did not match the expected sketch kind.
    WrongTag {
        /// Tag expected for this sketch kind.
        expected: u8,
        /// Tag actually found.
        found: u8,
    },
    /// A length or invariant was violated (corrupt input).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::WrongTag { expected, found } => {
                write!(
                    f,
                    "wrong sketch tag: expected {expected:#x}, found {found:#x}"
                )
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt sketch encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sketch kind tags.
pub mod tags {
    /// [`super::EquiDepthHistogram`]
    pub const HISTOGRAM: u8 = 0x02;
    /// [`super::Akmv`]
    pub const AKMV: u8 = 0x03;
    /// Heavy-hitter dictionary (`Vec<HeavyHitter>`).
    pub const HEAVY_HITTERS: u8 = 0x04;
    /// [`super::ExactDict`]
    pub const EXACT_DICT: u8 = 0x05;
    /// [`super::QuantileSketch`]
    pub const QUANTILE: u8 = 0x06;
    /// [`super::DistinctSketch`]
    pub const DISTINCT: u8 = 0x07;
    /// [`super::TopKSketch`]
    pub const TOPK: u8 = 0x08;
}

/// A little-endian byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next byte without consuming it (tag dispatch for unions).
    pub fn peek_u8(&self) -> Result<u8, DecodeError> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::Truncated)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes (bulk payloads like register arrays).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    fn expect_tag(&mut self, expected: u8) -> Result<(), DecodeError> {
        let found = self.u8()?;
        if found != expected {
            return Err(DecodeError::WrongTag { expected, found });
        }
        Ok(())
    }
}

/// A byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a little-endian f64.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Append raw bytes (bulk payloads like register arrays).
    pub fn bytes(&mut self, x: &[u8]) {
        self.buf.extend_from_slice(x);
    }
}

impl EquiDepthHistogram {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::HISTOGRAM);
        let (bounds, depths, total) = self.raw_parts();
        w.u64(total);
        w.u32(bounds.len() as u32);
        for &b in bounds {
            w.f64(b);
        }
        for &d in depths {
            w.u64(d);
        }
    }

    /// Decode from bytes into an identical histogram.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::HISTOGRAM)?;
        let total = r.u64()?;
        let nb = r.u32()? as usize;
        if !(2..=1 << 20).contains(&nb) {
            return Err(DecodeError::Corrupt("histogram: bad boundary count"));
        }
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.f64()?);
        }
        let mut depths = Vec::with_capacity(nb - 1);
        let mut sum = 0u64;
        for _ in 0..nb - 1 {
            let d = r.u64()?;
            sum += d;
            depths.push(d);
        }
        if sum != total {
            return Err(DecodeError::Corrupt(
                "histogram: depths disagree with total",
            ));
        }
        Ok(EquiDepthHistogram::from_raw_parts(bounds, depths, total))
    }
}

impl Akmv {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::AKMV);
        w.u32(self.k() as u32);
        w.u64(self.rows());
        let entries = self.entries();
        w.u32(entries.len() as u32);
        for (h, c) in entries {
            w.u64(h);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::AKMV)?;
        let k = r.u32()? as usize;
        let rows = r.u64()?;
        let n = r.u32()? as usize;
        if k < 2 || n > k {
            return Err(DecodeError::Corrupt("akmv: entry count exceeds k"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let h = r.u64()?;
            let c = r.u64()?;
            if let Some(prev) = last {
                if h <= prev {
                    return Err(DecodeError::Corrupt("akmv: hashes not ascending"));
                }
            }
            last = Some(h);
            entries.push((h, c));
        }
        Ok(Akmv::from_raw_parts(k, rows, entries))
    }
}

/// Encode a heavy-hitter dictionary.
pub fn encode_heavy_hitters(hh: &[HeavyHitter], rows: u64, w: &mut Writer) {
    w.u8(tags::HEAVY_HITTERS);
    w.u64(rows);
    w.u32(hh.len() as u32);
    for h in hh {
        w.u64(h.key);
        w.f64(h.frequency);
    }
}

/// Decode a heavy-hitter dictionary; returns `(items, rows)`.
pub fn decode_heavy_hitters(r: &mut Reader<'_>) -> Result<(Vec<HeavyHitter>, u64), DecodeError> {
    let found = r.u8()?;
    if found != tags::HEAVY_HITTERS {
        return Err(DecodeError::WrongTag {
            expected: tags::HEAVY_HITTERS,
            found,
        });
    }
    let rows = r.u64()?;
    let n = r.u32()? as usize;
    if n > 10_000 {
        return Err(DecodeError::Corrupt("heavy hitters: implausible count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let frequency = r.f64()?;
        if !(0.0..=1.0).contains(&frequency) {
            return Err(DecodeError::Corrupt(
                "heavy hitters: frequency out of range",
            ));
        }
        out.push(HeavyHitter { key, frequency });
    }
    Ok((out, rows))
}

impl ExactDict {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::EXACT_DICT);
        w.u64(self.rows());
        let mut entries: Vec<(u64, u64)> = self.iter().collect();
        entries.sort_unstable();
        w.u32(entries.len() as u32);
        for (k, c) in entries {
            w.u64(k);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical dictionary.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::EXACT_DICT)?;
        let rows = r.u64()?;
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        let mut total = 0u64;
        for _ in 0..n {
            let k = r.u64()?;
            let c = r.u64()?;
            total += c;
            entries.push((k, c));
        }
        if total != rows {
            return Err(DecodeError::Corrupt(
                "exact dict: counts disagree with rows",
            ));
        }
        Ok(ExactDict::from_raw_parts(entries, rows))
    }
}

impl QuantileSketch {
    /// Encode to bytes. The sketch's state is a pure function of its
    /// inserted multiset (see the module docs), so these bytes are too —
    /// the wire's bit-identity checks rely on that.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::QUANTILE);
        let (level, zeros, nans, pos_inf, neg_inf, neg, pos) = self.raw_parts();
        w.u32(level);
        w.u64(zeros);
        w.u64(nans);
        w.u64(pos_inf);
        w.u64(neg_inf);
        w.u32(neg.len() as u32);
        w.u32(pos.len() as u32);
        for &(idx, c) in neg.iter().chain(pos.iter()) {
            w.u64(idx as u64);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::QUANTILE)?;
        let level = r.u32()?;
        if level > 64 {
            return Err(DecodeError::Corrupt("quantile: implausible level"));
        }
        let zeros = r.u64()?;
        let nans = r.u64()?;
        let pos_inf = r.u64()?;
        let neg_inf = r.u64()?;
        let n_neg = r.u32()? as usize;
        let n_pos = r.u32()? as usize;
        if n_neg + n_pos > QuantileSketch::MAX_BUCKETS {
            return Err(DecodeError::Corrupt("quantile: bucket budget exceeded"));
        }
        let mut read_buckets = |n: usize| -> Result<Vec<(i64, u64)>, DecodeError> {
            let mut out = Vec::with_capacity(n);
            let mut last: Option<i64> = None;
            for _ in 0..n {
                let idx = r.u64()? as i64;
                let c = r.u64()?;
                if c == 0 {
                    return Err(DecodeError::Corrupt("quantile: zero bucket count"));
                }
                if last.is_some_and(|prev| idx <= prev) {
                    return Err(DecodeError::Corrupt("quantile: buckets not ascending"));
                }
                last = Some(idx);
                out.push((idx, c));
            }
            Ok(out)
        };
        let neg = read_buckets(n_neg)?;
        let pos = read_buckets(n_pos)?;
        Ok(QuantileSketch::from_raw_parts(
            level, zeros, nans, pos_inf, neg_inf, neg, pos,
        ))
    }
}

impl DistinctSketch {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::DISTINCT);
        w.u8(Self::PRECISION as u8);
        w.bytes(self.registers());
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::DISTINCT)?;
        let p = r.u8()?;
        if u32::from(p) != Self::PRECISION {
            return Err(DecodeError::Corrupt("distinct: unsupported precision"));
        }
        let raw = r.bytes(Self::REGISTERS)?;
        if raw.iter().any(|&v| u32::from(v) > 64 - Self::PRECISION + 1) {
            return Err(DecodeError::Corrupt("distinct: register rank too large"));
        }
        Ok(DistinctSketch::from_registers(
            raw.to_vec().into_boxed_slice(),
        ))
    }
}

impl TopKSketch {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(tags::TOPK);
        let entries = self.entries();
        w.u32(entries.len() as u32);
        for &(k, c) in entries {
            w.u64(k);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(tags::TOPK)?;
        let n = r.u32()? as usize;
        // Bound the allocation by the bytes actually present: a corrupt
        // length must fail typed, not OOM.
        if r.remaining() < n * 16 {
            return Err(DecodeError::Truncated);
        }
        let mut entries = Vec::with_capacity(n);
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let k = r.u64()?;
            let c = r.u64()?;
            if c == 0 {
                return Err(DecodeError::Corrupt("topk: zero count"));
            }
            if last.is_some_and(|prev| k <= prev) {
                return Err(DecodeError::Corrupt("topk: keys not ascending"));
            }
            last = Some(k);
            entries.push((k, c));
        }
        Ok(TopKSketch::from_entries(entries))
    }
}

/// Encode an [`AnswerSketch`]: the inner sketch's tag discriminates the
/// kind, so the union adds no bytes of its own.
pub fn encode_answer_sketch(s: &AnswerSketch, w: &mut Writer) {
    match s {
        AnswerSketch::Quantile(q) => q.encode(w),
        AnswerSketch::Distinct(d) => d.encode(w),
        AnswerSketch::TopK(t) => t.encode(w),
    }
}

/// Decode an [`AnswerSketch`] by peeking the kind tag.
pub fn decode_answer_sketch(r: &mut Reader<'_>) -> Result<AnswerSketch, DecodeError> {
    match r.peek_u8()? {
        tags::QUANTILE => Ok(AnswerSketch::Quantile(QuantileSketch::decode(r)?)),
        tags::DISTINCT => Ok(AnswerSketch::Distinct(DistinctSketch::decode(r)?)),
        tags::TOPK => Ok(AnswerSketch::TopK(TopKSketch::decode(r)?)),
        found => Err(DecodeError::WrongTag {
            expected: tags::QUANTILE,
            found,
        }),
    }
}

/// [`AnswerSketch`] to standalone bytes (persistence blobs, wire frames).
pub fn answer_sketch_to_bytes(s: &AnswerSketch) -> Vec<u8> {
    let mut w = Writer::new();
    encode_answer_sketch(s, &mut w);
    w.into_bytes()
}

/// [`AnswerSketch`] from standalone bytes, requiring full consumption.
pub fn answer_sketch_from_bytes(bytes: &[u8]) -> Result<AnswerSketch, DecodeError> {
    let mut r = Reader::new(bytes);
    let s = decode_answer_sketch(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Corrupt("answer sketch: trailing bytes"));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use crate::heavy_hitter::HeavyHitters;

    #[test]
    fn histogram_roundtrip_preserves_selectivity() {
        let values: Vec<f64> = (0..500).map(|i| f64::from(i % 37)).collect();
        let h = EquiDepthHistogram::from_values(&values, 10);
        let mut w = Writer::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        let d = EquiDepthHistogram::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d, h);
        for probe in [(0.0, 10.0), (5.0, 5.0), (-3.0, 100.0)] {
            assert_eq!(
                d.range_selectivity(probe.0, probe.1),
                h.range_selectivity(probe.0, probe.1)
            );
        }
    }

    #[test]
    fn akmv_roundtrip() {
        let a = Akmv::from_hashes((0..1000u64).map(hash_u64), 64);
        let mut w = Writer::new();
        a.encode(&mut w);
        let d = Akmv::decode(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(d.distinct_estimate(), a.distinct_estimate());
        assert_eq!(d.rows(), a.rows());
        assert_eq!(d.freq_stats(), a.freq_stats());
    }

    #[test]
    fn heavy_hitters_roundtrip() {
        let mut keys = vec![1u64; 300];
        keys.extend(std::iter::repeat_n(2u64, 100));
        keys.extend(3000..3600u64);
        let s = HeavyHitters::from_keys(keys);
        let hh = s.heavy_hitters();
        let mut w = Writer::new();
        encode_heavy_hitters(&hh, s.rows(), &mut w);
        let (d, rows) = decode_heavy_hitters(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(d, hh);
        assert_eq!(rows, s.rows());
    }

    #[test]
    fn exact_dict_roundtrip() {
        let e = ExactDict::build([5u64, 5, 7, 9, 9, 9], 16).unwrap();
        let mut w = Writer::new();
        e.encode(&mut w);
        let d = ExactDict::decode(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(d.rows(), e.rows());
        assert_eq!(d.distinct(), e.distinct());
        assert_eq!(d.frequency(9), e.frequency(9));
    }

    #[test]
    fn wrong_tag_is_detected() {
        let a = Akmv::from_hashes((0..10u64).map(hash_u64), 16);
        let mut w = Writer::new();
        a.encode(&mut w);
        let err = EquiDepthHistogram::decode(&mut Reader::new(&w.into_bytes())).unwrap_err();
        assert!(matches!(err, DecodeError::WrongTag { .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let h = EquiDepthHistogram::from_values(&[1.0, 2.0, 3.0], 2);
        let mut w = Writer::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, bytes.len() - 1] {
            let err = EquiDepthHistogram::decode(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "no error at cut {cut}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let a = Akmv::from_hashes((0..100u64).map(hash_u64), 16);
        let mut w = Writer::new();
        a.encode(&mut w);
        let mut bytes = w.into_bytes();
        // Zero the last entry's hash: it must now be <= its predecessor,
        // breaking the ascending-hash invariant.
        let n = bytes.len();
        bytes[n - 16..n - 8].fill(0);
        let r = Akmv::decode(&mut Reader::new(&bytes));
        assert!(r.is_err());
    }
}
