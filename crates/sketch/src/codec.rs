//! Binary serialization for the sketches.
//!
//! The deployment story (§2.3.1) stores statistics *separately from the
//! partitions* — a statistics catalog that query optimization reads without
//! touching data. This module gives every sketch but
//! [`Measures`](crate::Measures) a compact little-endian binary encoding,
//! written and read with the workspace's one byte codec,
//! [`ps3_storage::codec`], whose [`CodecError`] every decoder here returns
//! (`Measures` is ten fixed fields, written raw by `ps3_stats::persist`).
//! Each encoder writes into the caller's buffer, so a sketch embedded in an
//! artifact section or a response frame is written in place. These
//! encodings are the one description of what a partition stores: the
//! Table-4 footprint (`ps3_stats::TableStats::storage_breakdown`) is each
//! blob's length less its kind tag and `u32` entry count.
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
use ps3_storage::codec::{CodecError, Reader, Writer};

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

/// Consume the kind tag `expected`, or fail naming the sketch (`what`).
fn expect_tag(r: &mut Reader<'_>, what: &'static str, expected: u8) -> Result<(), CodecError> {
    match r.u8()? {
        tag if tag == expected => Ok(()),
        tag => Err(CodecError::BadTag { what, tag }),
    }
}

impl EquiDepthHistogram {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer<'_>) {
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
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "histogram", tags::HISTOGRAM)?;
        let total = r.u64()?;
        let nb = r.u32()? as usize;
        if !(2..=1 << 20).contains(&nb) {
            return Err(CodecError::Invalid("histogram: bad boundary count"));
        }
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.f64()?);
        }
        let mut depths = Vec::with_capacity(nb - 1);
        let mut sum = 0u64;
        for _ in 0..nb - 1 {
            let d = r.u64()?;
            sum = sum
                .checked_add(d)
                .ok_or(CodecError::Invalid("histogram: depths overflow"))?;
            depths.push(d);
        }
        if sum != total {
            return Err(CodecError::Invalid("histogram: depths disagree with total"));
        }
        Ok(EquiDepthHistogram::from_raw_parts(bounds, depths, total))
    }
}

impl Akmv {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.u8(tags::AKMV);
        w.u32(self.k() as u32);
        w.u64(self.rows());
        let entries = self.entries();
        w.u32(entries.len() as u32);
        for &(h, c) in entries {
            w.u64(h);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "AKMV", tags::AKMV)?;
        let k = r.u32()? as usize;
        let rows = r.u64()?;
        let n = r.u32()? as usize;
        if k < 2 || n > k {
            return Err(CodecError::Invalid("akmv: entry count exceeds k"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let h = r.u64()?;
            let c = r.u64()?;
            if let Some(prev) = last {
                if h <= prev {
                    return Err(CodecError::Invalid("akmv: hashes not ascending"));
                }
            }
            last = Some(h);
            entries.push((h, c));
        }
        Ok(Akmv::from_raw_parts(k, rows, entries))
    }
}

/// Encode a heavy-hitter dictionary.
pub fn encode_heavy_hitters(hh: &[HeavyHitter], rows: u64, w: &mut Writer<'_>) {
    w.u8(tags::HEAVY_HITTERS);
    w.u64(rows);
    w.u32(hh.len() as u32);
    for h in hh {
        w.u64(h.key);
        w.f64(h.frequency);
    }
}

/// Decode a heavy-hitter dictionary; returns `(items, rows)`.
pub fn decode_heavy_hitters(r: &mut Reader<'_>) -> Result<(Vec<HeavyHitter>, u64), CodecError> {
    expect_tag(r, "heavy hitters", tags::HEAVY_HITTERS)?;
    let rows = r.u64()?;
    let n = r.u32()? as usize;
    if n > 10_000 {
        return Err(CodecError::Invalid("heavy hitters: implausible count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let frequency = r.f64()?;
        if !(0.0..=1.0).contains(&frequency) {
            return Err(CodecError::Invalid("heavy hitters: frequency out of range"));
        }
        out.push(HeavyHitter { key, frequency });
    }
    Ok((out, rows))
}

impl ExactDict {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer<'_>) {
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
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "exact dict", tags::EXACT_DICT)?;
        let rows = r.u64()?;
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        let mut total = 0u64;
        for _ in 0..n {
            let k = r.u64()?;
            let c = r.u64()?;
            total = total
                .checked_add(c)
                .ok_or(CodecError::Invalid("exact dict: counts overflow"))?;
            entries.push((k, c));
        }
        if total != rows {
            return Err(CodecError::Invalid("exact dict: counts disagree with rows"));
        }
        Ok(ExactDict::from_raw_parts(entries, rows))
    }
}

impl QuantileSketch {
    /// Encode to bytes. The sketch's state is a pure function of its
    /// inserted multiset (see the module docs), so these bytes are too —
    /// the wire's bit-identity checks rely on that.
    pub fn encode(&self, w: &mut Writer<'_>) {
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
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "quantile sketch", tags::QUANTILE)?;
        let level = r.u32()?;
        if level > 64 {
            return Err(CodecError::Invalid("quantile: implausible level"));
        }
        let zeros = r.u64()?;
        let nans = r.u64()?;
        let pos_inf = r.u64()?;
        let neg_inf = r.u64()?;
        let n_neg = r.u32()? as usize;
        let n_pos = r.u32()? as usize;
        if n_neg + n_pos > QuantileSketch::MAX_BUCKETS {
            return Err(CodecError::Invalid("quantile: bucket budget exceeded"));
        }
        let mut read_buckets = |n: usize| -> Result<Vec<(i64, u64)>, CodecError> {
            let mut out = Vec::with_capacity(n);
            let mut last: Option<i64> = None;
            for _ in 0..n {
                let idx = r.u64()? as i64;
                let c = r.u64()?;
                if c == 0 {
                    return Err(CodecError::Invalid("quantile: zero bucket count"));
                }
                if last.is_some_and(|prev| idx <= prev) {
                    return Err(CodecError::Invalid("quantile: buckets not ascending"));
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
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.u8(tags::DISTINCT);
        w.u8(Self::PRECISION as u8);
        w.bytes(self.registers());
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "distinct sketch", tags::DISTINCT)?;
        let p = r.u8()?;
        if u32::from(p) != Self::PRECISION {
            return Err(CodecError::Invalid("distinct: unsupported precision"));
        }
        let raw = r.take(Self::REGISTERS)?;
        if raw.iter().any(|&v| u32::from(v) > 64 - Self::PRECISION + 1) {
            return Err(CodecError::Invalid("distinct: register rank too large"));
        }
        Ok(DistinctSketch::from_registers(
            raw.to_vec().into_boxed_slice(),
        ))
    }
}

impl TopKSketch {
    /// Encode to bytes.
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.u8(tags::TOPK);
        let entries = self.entries();
        w.u32(entries.len() as u32);
        for &(k, c) in entries {
            w.u64(k);
            w.u64(c);
        }
    }

    /// Decode from bytes into an identical sketch.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, "top-k sketch", tags::TOPK)?;
        let n = r.u32()? as usize;
        // Bound the allocation by the bytes actually present: a corrupt
        // length must fail typed, not OOM.
        if r.remaining() < n * 16 {
            return Err(CodecError::Truncated);
        }
        let mut entries = Vec::with_capacity(n);
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let k = r.u64()?;
            let c = r.u64()?;
            if c == 0 {
                return Err(CodecError::Invalid("topk: zero count"));
            }
            if last.is_some_and(|prev| k <= prev) {
                return Err(CodecError::Invalid("topk: keys not ascending"));
            }
            last = Some(k);
            entries.push((k, c));
        }
        Ok(TopKSketch::from_entries(entries))
    }
}

/// Encode an [`AnswerSketch`]: the inner sketch's tag discriminates the
/// kind, so the union adds no bytes of its own.
pub fn encode_answer_sketch(s: &AnswerSketch, w: &mut Writer<'_>) {
    match s {
        AnswerSketch::Quantile(q) => q.encode(w),
        AnswerSketch::Distinct(d) => d.encode(w),
        AnswerSketch::TopK(t) => t.encode(w),
    }
}

/// Decode an [`AnswerSketch`] by peeking the kind tag.
pub fn decode_answer_sketch(r: &mut Reader<'_>) -> Result<AnswerSketch, CodecError> {
    match r.peek_u8()? {
        tags::QUANTILE => Ok(AnswerSketch::Quantile(QuantileSketch::decode(r)?)),
        tags::DISTINCT => Ok(AnswerSketch::Distinct(DistinctSketch::decode(r)?)),
        tags::TOPK => Ok(AnswerSketch::TopK(TopKSketch::decode(r)?)),
        tag => {
            let what = "answer sketch";
            Err(CodecError::BadTag { what, tag })
        }
    }
}

/// [`AnswerSketch`] to standalone bytes (persistence blobs, wire frames).
pub fn answer_sketch_to_bytes(s: &AnswerSketch) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_answer_sketch(s, &mut Writer::new(&mut bytes));
    bytes
}

/// [`AnswerSketch`] from standalone bytes, requiring full consumption.
pub fn answer_sketch_from_bytes(bytes: &[u8]) -> Result<AnswerSketch, CodecError> {
    let mut r = Reader::new(bytes);
    let s = decode_answer_sketch(&mut r)?;
    r.finish("answer sketch: trailing bytes")?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use crate::heavy_hitter::HeavyHitters;

    /// The bytes `encode` writes.
    fn encoded(encode: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(&mut Writer::new(&mut bytes));
        bytes
    }

    #[test]
    fn histogram_roundtrip_preserves_selectivity() {
        let values: Vec<f64> = (0..500).map(|i| f64::from(i % 37)).collect();
        let h = EquiDepthHistogram::from_values(&values, 10);
        let bytes = encoded(|w| h.encode(w));
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
        let d = Akmv::decode(&mut Reader::new(&encoded(|w| a.encode(w)))).unwrap();
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
        let bytes = encoded(|w| encode_heavy_hitters(&hh, s.rows(), w));
        let (d, rows) = decode_heavy_hitters(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d, hh);
        assert_eq!(rows, s.rows());
    }

    #[test]
    fn exact_dict_roundtrip() {
        let e = ExactDict::build([5u64, 5, 7, 9, 9, 9], 16).unwrap();
        let d = ExactDict::decode(&mut Reader::new(&encoded(|w| e.encode(w)))).unwrap();
        assert_eq!(d.rows(), e.rows());
        assert_eq!(d.distinct(), e.distinct());
        assert_eq!(d.frequency(9), e.frequency(9));
    }

    #[test]
    fn wrong_tag_is_detected() {
        let a = Akmv::from_hashes((0..10u64).map(hash_u64), 16);
        let bytes = encoded(|w| a.encode(w));
        let err = EquiDepthHistogram::decode(&mut Reader::new(&bytes)).unwrap_err();
        let (what, tag) = ("histogram", tags::AKMV);
        assert_eq!(err, CodecError::BadTag { what, tag });
    }

    #[test]
    fn truncation_is_detected() {
        // Every encoding, cut at every byte offset, fails typed.
        type Decode = fn(&mut Reader<'_>) -> Result<(), CodecError>;
        let hist = EquiDepthHistogram::from_values(&[1.0, 2.0, 3.0, 7.5, -1.0], 3);
        let akmv = Akmv::from_hashes((0..100u64).map(hash_u64), 16);
        let hh = HeavyHitters::from_keys([1u64, 1, 1, 2, 3]);
        let exact = ExactDict::build([5u64, 5, 7, 9], 16).unwrap();
        let mut quantile = QuantileSketch::new();
        for v in [-2.5, 0.0, 1.0, 3.0, f64::NAN, f64::INFINITY] {
            quantile.insert(v);
        }
        let mut distinct = DistinctSketch::new();
        (0..50u64).for_each(|i| distinct.insert_hash(hash_u64(i)));
        let mut topk = TopKSketch::new();
        for k in [4u64, 4, 9, 1] {
            topk.insert(k);
        }
        let cases: [(Vec<u8>, Decode); 7] = [
            (encoded(|w| hist.encode(w)), |r| {
                EquiDepthHistogram::decode(r).map(drop)
            }),
            (encoded(|w| akmv.encode(w)), |r| Akmv::decode(r).map(drop)),
            (
                encoded(|w| encode_heavy_hitters(&hh.heavy_hitters(), hh.rows(), w)),
                |r| decode_heavy_hitters(r).map(drop),
            ),
            (encoded(|w| exact.encode(w)), |r| {
                ExactDict::decode(r).map(drop)
            }),
            (encoded(|w| quantile.encode(w)), |r| {
                QuantileSketch::decode(r).map(drop)
            }),
            (encoded(|w| distinct.encode(w)), |r| {
                DistinctSketch::decode(r).map(drop)
            }),
            (encoded(|w| topk.encode(w)), |r| {
                TopKSketch::decode(r).map(drop)
            }),
        ];
        for (i, (bytes, decode)) in cases.iter().enumerate() {
            assert_eq!(decode(&mut Reader::new(bytes)), Ok(()), "encoding {i}");
            for cut in 0..bytes.len() {
                let err = decode(&mut Reader::new(&bytes[..cut]));
                assert!(err.is_err(), "encoding {i}: no error at cut {cut}");
            }
        }
    }

    #[test]
    fn histogram_depths_that_overflow_are_rejected() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.u8(tags::HISTOGRAM);
        w.u64(0); // total: what two depths of 2^63 wrap to
        w.u32(3);
        [0.0, 1.0, 2.0].into_iter().for_each(|b| w.f64(b));
        [1 << 63, 1 << 63].into_iter().for_each(|d| w.u64(d));
        let err = EquiDepthHistogram::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CodecError::Invalid("histogram: depths overflow"));
    }

    #[test]
    fn exact_dict_counts_that_overflow_are_rejected() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.u8(tags::EXACT_DICT);
        w.u64(0); // rows: what two counts of 2^63 wrap to
        w.u32(2);
        for key in [1, 2] {
            w.u64(key);
            w.u64(1 << 63);
        }
        let err = ExactDict::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CodecError::Invalid("exact dict: counts overflow"));
    }

    #[test]
    fn corruption_is_detected() {
        let a = Akmv::from_hashes((0..100u64).map(hash_u64), 16);
        let mut bytes = encoded(|w| a.encode(w));
        // Zero the last entry's hash: it must now be <= its predecessor,
        // breaking the ascending-hash invariant.
        let n = bytes.len();
        bytes[n - 16..n - 8].fill(0);
        let r = Akmv::decode(&mut Reader::new(&bytes));
        assert!(r.is_err());
    }
}
