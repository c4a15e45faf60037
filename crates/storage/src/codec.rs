//! The one byte reader and writer of the workspace, and its one decode error.
//!
//! PS3 carries bytes across three boundaries: the statistics catalog and
//! trained state in a `*.ps3` artifact (`docs/FORMAT.md`), the answer
//! sketches embedded in both, and the request/response frames on the socket
//! (`docs/PROTOCOL.md`). All of them are little-endian, fixed-width, `f64`s
//! by bit pattern, and all of them are written by [`Writer`] and read by
//! [`Reader`]. Two length grammars share the pair: the wire's strings and
//! lists sit behind a `u16` ([`Writer::str`], [`Writer::u16_len`]), the
//! artifact's strings and blobs behind a `u32` ([`Writer::str32`],
//! [`Writer::blob`]). An embedded blob is written in place behind a
//! back-patched length, never through a buffer of its own.
//!
//! Every read past the end is [`CodecError::Truncated`], and every decoder
//! built on the pair fails with a [`CodecError`], never a panic. What the
//! error means depends on the boundary it crosses:
//!
//! - **On the wire** (`ps3_net::proto`) it is a malformed frame: the same
//!   variant becomes a `ProtoError`, and the server answers `Malformed`.
//! - **In an artifact** it is a corrupt section: [`decode_section`] reports
//!   a short payload as [`FormatError::Truncated`] naming the section, and
//!   anything else as [`FormatError::Corrupt`]. The container's own checks
//!   (magic, version, checksums, alignment) stay [`FormatError`]s.
//! - **At admission** a [`CodecError::BadColumn`] is a query that decoded
//!   but does not fit the table it was routed to (`ps3_query::codec`'s
//!   schema check), refused whole without closing the connection.
#![warn(missing_docs)]

use crate::format::FormatError;

/// Why bytes failed to decode, a value refused to encode, or a decoded
/// query does not fit a table's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field it promised.
    Truncated,
    /// An unknown tag byte for the named grammar rule.
    BadTag {
        /// Which grammar rule was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A structurally invalid value (empty aggregate list, excessive
    /// nesting, a count past its bound, trailing bytes, a list too long for
    /// its length field, …).
    Invalid(&'static str),
    /// The query does not fit the schema it was checked against.
    BadColumn {
        /// The offending column index.
        col: usize,
        /// What is wrong with it.
        why: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "bytes truncated"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::Invalid(what) => write!(f, "{what}"),
            CodecError::BadColumn { col, why } => write!(f, "column {col} {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A section payload that fails to decode is a corrupt artifact.
/// [`decode_section`] names the section a short payload ran out in.
impl From<CodecError> for FormatError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => FormatError::Truncated("section payload"),
            CodecError::BadTag { what, .. } | CodecError::Invalid(what) => {
                FormatError::Corrupt(what)
            }
            CodecError::BadUtf8 => FormatError::Corrupt("string is not UTF-8"),
            CodecError::BadColumn { .. } => FormatError::Corrupt("query does not fit the table"),
        }
    }
}

/// Decode the whole payload of the section called `name` with `decode`,
/// which must consume it exactly. A payload that ends early is
/// [`FormatError::Truncated`]`(name)`, one with bytes left over is
/// [`FormatError::Corrupt`]`(name)`, and any other failure converts as
/// above.
pub fn decode_section<'a, T>(
    name: &'static str,
    bytes: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, FormatError> {
    let mut r = Reader::new(bytes);
    let v = decode(&mut r).and_then(|v| r.finish(name).map(|()| v));
    v.map_err(|e| match e {
        CodecError::Truncated => FormatError::Truncated(name),
        e => e.into(),
    })
}

/// Appends little-endian fields to a borrowed byte buffer.
///
/// Borrowing rather than owning the destination lets the serving path
/// encode into a reused per-connection buffer and allocate nothing per
/// frame. Length-carrying fields go through the checked helpers: a value
/// too large for its length field is a [`CodecError::Invalid`], never a
/// silent modular truncation (which would emit bytes that decode to a
/// *different* value).
pub struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer(out)
    }
    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// An `f64` by bit pattern, so NaN payloads and `-0.0` survive.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Raw bytes; the caller has written (or fixed) their length.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    /// `n` as a `u16` length, refused (`what`) when it does not fit.
    #[inline]
    pub fn u16_len(&mut self, n: usize, what: &'static str) -> Result<(), CodecError> {
        self.u16(u16::try_from(n).map_err(|_| CodecError::Invalid(what))?);
        Ok(())
    }
    /// `n` as a `u32` length, refused (`what`) when it does not fit.
    #[inline]
    pub fn u32_len(&mut self, n: usize, what: &'static str) -> Result<(), CodecError> {
        self.u32(u32::try_from(n).map_err(|_| CodecError::Invalid(what))?);
        Ok(())
    }
    /// A wire string: `u16` length, then UTF-8.
    #[inline]
    pub fn str(&mut self, s: &str) -> Result<(), CodecError> {
        self.u16_len(s.len(), "wire strings cap at 64 KiB")?;
        self.bytes(s.as_bytes());
        Ok(())
    }
    /// An artifact string: `u32` length, then UTF-8.
    pub fn str32(&mut self, s: &str) -> Result<(), CodecError> {
        self.u32_len(s.len(), "artifact strings cap at 4 GiB")?;
        self.bytes(s.as_bytes());
        Ok(())
    }
    /// A `u32`-length-prefixed blob whose bytes `body` writes in place: the
    /// length is written as a placeholder and patched once `body` returns,
    /// so the blob never exists outside this buffer. Refused (`what`) when
    /// the blob outgrows its length field.
    #[inline]
    pub fn blob<R>(
        &mut self,
        what: &'static str,
        body: impl FnOnce(&mut Self) -> R,
    ) -> Result<R, CodecError> {
        let at = self.0.len();
        self.u32(0);
        let r = body(self);
        let len = u32::try_from(self.0.len() - at - 4).map_err(|_| CodecError::Invalid(what))?;
        self.0[at..at + 4].copy_from_slice(&len.to_le_bytes());
        Ok(r)
    }
}

/// A bounds-checked cursor over encoded bytes: every read past the end is
/// [`CodecError::Truncated`], and nothing is copied that the caller does
/// not keep.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Fail with [`CodecError::Invalid`]`(what)` unless every byte was
    /// consumed.
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError::Invalid(what)),
        }
    }
    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }
    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }
    /// The next byte, not consumed (tag dispatch for unions).
    pub fn peek_u8(&self) -> Result<u8, CodecError> {
        self.buf.get(self.pos).copied().ok_or(CodecError::Truncated)
    }
    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }
    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }
    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }
    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A `u64` that must fit a `usize` ([`CodecError::Invalid`]`(what)`
    /// otherwise).
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid(what))
    }
    /// A wire string: `u16` length, then UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = usize::from(self.u16()?);
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
    /// An artifact string: `u32` length, then UTF-8, borrowed from the input.
    pub fn str32(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }
    /// A `u32`-length-prefixed blob, decoded by `body`, which must consume
    /// it exactly.
    pub fn blob<T>(
        &mut self,
        body: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let len = self.u32()? as usize;
        let mut inner = Reader::new(self.take(len)?);
        let v = body(&mut inner)?;
        inner.finish("embedded blob has trailing bytes")?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_in_both_length_grammars() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xdead_beef);
        w.u64(1 << 40);
        w.f64(-0.0);
        w.str("wire").unwrap();
        w.str32("artifact").unwrap();
        w.blob("blob", |w| w.bytes(&[1, 2, 3])).unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.usize("u64"), Ok(1 << 40));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str().as_deref(), Ok("wire"));
        assert_eq!(r.str32(), Ok("artifact"));
        assert_eq!(r.blob(|r| r.take(3)), Ok(&[1u8, 2, 3][..]));
        r.finish("all read").unwrap();
        assert_eq!(
            &bytes[..3],
            [7, 0xEF, 0xBE],
            "little-endian, no framing of its own"
        );
    }

    #[test]
    fn short_inputs_and_leftovers_are_typed() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).blob("blob", |w| w.u32(9)).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                Reader::new(&bytes[..cut]).blob(|r| r.u32()),
                Err(CodecError::Truncated),
                "cut {cut}"
            );
        }
        assert_eq!(
            Reader::new(&bytes).blob(|r| r.u16()),
            Err(CodecError::Invalid("embedded blob has trailing bytes"))
        );
        let section = |b| decode_section("stats", b, |r| r.u32());
        assert!(matches!(
            section(&bytes[..2]),
            Err(FormatError::Truncated("stats"))
        ));
        assert!(matches!(
            section(&[0; 5]),
            Err(FormatError::Corrupt("stats"))
        ));
        assert_eq!(Reader::new(&[0xFF]).str32(), Err(CodecError::Truncated));
        assert_eq!(Reader::new(&[1, 0, 0xFF]).str(), Err(CodecError::BadUtf8));
    }
}
