//! The PS3 artifact container: a flat, versioned, checksummed on-disk
//! format for frozen tables and trained systems.
//!
//! The full grammar, with worked byte-level examples, lives in
//! `docs/FORMAT.md` (doc-tested from `ps3_core`). The shape in one
//! paragraph: a fixed 64-byte little-endian header (magic, version, section
//! count, file length, section-table checksum), a section table of
//! `(kind, offset, length, checksum)` descriptors, then the section
//! payloads themselves, each starting at a 64-byte-aligned offset. Column
//! payloads inside [`SEC_COLDATA`] are raw LE machine words at 64-byte
//! relative offsets, so a mapped artifact serves `&[f64]`/`&[u32]` slices
//! directly — the `flat_serialize` discipline: offsets into one immutable
//! buffer instead of a deserialization copy.
//!
//! Decoding is paranoid by construction: magic, version, counts, offsets,
//! alignment, overlap and per-section [`checksum`]s are all validated
//! *before* any typed slice is formed, and every failure is a typed
//! [`FormatError`] — corrupted artifacts can never panic a server (see
//! `tests/artifact_corruption.rs`). The header, the section table and every
//! section payload are written and read through [`crate::codec`];
//! [`decode_section`] turns a payload's decode failure into a
//! [`FormatError`] naming the section.

use std::fs::File;
use std::io::{self, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::{decode_section, CodecError, Reader, Writer};
use crate::column::{ColumnData, Dictionary};
use crate::mmap::{Bytes, MapSliceError, Mmap};
use crate::partition::{PartitionedTable, Partitioning};
use crate::schema::{ColumnMeta, ColumnType, Schema};
use crate::table::Table;

/// File magic: identifies a PS3 flat artifact.
pub const MAGIC: [u8; 8] = *b"PS3FLAT\0";
/// Current container version. 2 re-encoded `SEC_TRAINING` in the one
/// `Query` grammar of `ps3_query::codec`; 3 dropped the per-partition
/// answer-sketch blobs from `SEC_STATS`; 4 dropped the partition strata
/// and the `strata_k` config word from `SEC_TRAINED`; 5 dropped the
/// derived heavy-hitter keys, occurrence bitmaps and static feature matrix
/// from `SEC_STATS`; 6 replaced the byte-serial FNV-1a section and table
/// checksums with the word-wise [`checksum`], leaving every payload as it
/// was; 7 dropped from `SEC_TRAINED` and `SEC_LSS` the configuration values
/// that became constants and each model's learning rate. Older files are
/// refused.
pub const FORMAT_VERSION: u32 = 7;
/// Every section payload starts at a multiple of this (cache-line and SIMD
/// friendly, and strictly stricter than any element alignment we map).
pub const SECTION_ALIGN: usize = 64;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;
/// Upper bound on the section count (sanity guard against corrupt headers).
pub const MAX_SECTIONS: usize = 4096;
/// The file buffer `ArtifactWriter::write_to` streams sections through.
/// Sections arrive in pieces (column chunks, statistics records), so this
/// sets the size of nearly every write call. At the default 8 KiB, freezing
/// the 4.2 MB Kdd Tiny artifact took ~25% longer than writing whole
/// encoded sections did; from 128 KiB up it costs the same.
const WRITE_BUFFER: usize = 128 << 10;

/// Section kind: the frozen [`Table`] (schema, dictionaries, payload refs).
pub const SEC_TABLE: u32 = 1;
/// Section kind: the [`Partitioning`] end offsets.
pub const SEC_PARTITIONING: u32 = 2;
/// Section kind: raw column payloads referenced by [`SEC_TABLE`].
pub const SEC_COLDATA: u32 = 3;
/// Section kind: summary statistics (`ps3_stats`).
pub const SEC_STATS: u32 = 4;
/// Section kind: the trained picker state (`ps3_core`).
pub const SEC_TRAINED: u32 = 5;
/// Section kind: the LSS baseline model (`ps3_core`).
pub const SEC_LSS: u32 = 6;
/// Section kind: the training workload queries (`ps3_core`).
pub const SEC_TRAINING: u32 = 7;

/// Sentinel used in [`FormatError::ChecksumMismatch`] for the section table
/// itself (which has no kind).
pub const SECTION_TABLE: u32 = u32::MAX;

/// Why an artifact was rejected. Every decode failure is one of these —
/// never a panic.
#[derive(Debug)]
pub enum FormatError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The first 8 bytes are not the PS3 artifact magic.
    BadMagic,
    /// The container version is not one this build understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A length field points past the end of the available bytes.
    Truncated(&'static str),
    /// A section's recorded [`checksum`] does not match its bytes.
    ChecksumMismatch {
        /// Section kind, or [`SECTION_TABLE`] for the table itself.
        section: u32,
    },
    /// A section or payload offset violates the 64-byte alignment rule or
    /// the element alignment of its type.
    Misaligned {
        /// Section kind the offset belongs to.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent kind.
        kind: u32,
    },
    /// A structural invariant inside a section payload failed.
    Corrupt(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "artifact io error: {e}"),
            FormatError::BadMagic => write!(f, "not a PS3 artifact (bad magic)"),
            FormatError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact version {found}")
            }
            FormatError::Truncated(what) => write!(f, "artifact truncated: {what}"),
            FormatError::ChecksumMismatch { section } if *section == SECTION_TABLE => {
                write!(f, "checksum mismatch in section table")
            }
            FormatError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            FormatError::Misaligned { section } => {
                write!(f, "misaligned offset in section {section}")
            }
            FormatError::MissingSection { kind } => write!(f, "missing section {kind}"),
            FormatError::Corrupt(what) => write!(f, "corrupt artifact: {what}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes`, one byte at a time: the digest every
/// recorded byte-identity check is stated in (sketch blobs, wire frames,
/// golden answers, whole artifacts). The artifact's own checksum is
/// [`checksum`], which covers eight bytes per step.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes per [`Checksum`] block: one little-endian `u64` word per lane.
const BLOCK: usize = 32;

/// The artifact checksum of `bytes`, recorded for every section payload
/// and for the section table (format 6). Four FNV-1a-style lanes each take
/// every fourth little-endian `u64` word of the 32-byte blocks; the lanes,
/// the tail (zero-padded to whole words) and the byte length are then
/// folded into one sum. `docs/FORMAT.md` defines it exactly.
///
/// Each step — xor a word in, multiply by the odd FNV prime, rotate — is a
/// bijection of the running value for a fixed word and of the word for a
/// fixed running value, so changing any one word of the input (any single
/// byte, or any run of bytes inside one aligned 8-byte word) always changes
/// the sum. The rotation carries a word's high bits down, where later
/// multiplications spread them; without it, a flip of bit 63 would reach
/// only bit 63 of its lane, and two such flips would cancel.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// One step of [`checksum`]: fold the word `w` into the running value `h`.
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(23)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// [`checksum`] over bytes that arrive in pieces: updating with each piece
/// in turn gives the checksum of their concatenation, however it was split.
/// At most one partial block (≤ 31 bytes) is carried between updates.
#[derive(Clone, Copy, Debug)]
pub struct Checksum {
    lanes: [u64; 4],
    pending: [u8; BLOCK],
    pending_len: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// The checksum of no bytes so far.
    pub fn new() -> Self {
        Checksum {
            lanes: [0, 1, 2, 3].map(|i| FNV_OFFSET ^ i),
            pending: [0; BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    /// Fold in the next `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.block(&block);
            self.pending_len = 0;
        }
        let blocks = bytes.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        for block in blocks {
            self.block(block);
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn block(&mut self, block: &[u8]) {
        for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }

    /// The checksum of every byte passed to [`update`](Self::update).
    pub fn finish(&self) -> u64 {
        let mut tail = [0u8; BLOCK];
        tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        let tail_words = self.pending_len.div_ceil(8);
        let h = self.lanes.into_iter().fold(FNV_OFFSET, step);
        let h = tail
            .chunks_exact(8)
            .take(tail_words)
            .map(word)
            .fold(h, step);
        step(h, self.len)
    }
}

/// The sink a section payload is written through: it passes the bytes on,
/// counting them and folding them into the section's checksum.
struct Tally<'w, W> {
    out: &'w mut W,
    len: usize,
    checksum: Checksum,
}

impl<W: Write> Write for Tally<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.checksum.update(&buf[..n]);
        self.len += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes one section payload into the sink it is handed.
type EncodeSection<'a> = Box<dyn Fn(&mut dyn Write) -> io::Result<()> + 'a>;

/// Lays out a container, streaming each section to the output as it is
/// encoded: a section is either a payload already in memory
/// ([`add_section`](Self::add_section)) or an encoder that writes it
/// ([`add_streamed`](Self::add_streamed)), and no payload is held beside
/// the file.
#[derive(Default)]
pub struct ArtifactWriter<'a> {
    sections: Vec<(u32, EncodeSection<'a>)>,
}

impl std::fmt::Debug for ArtifactWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<u32> = self.sections.iter().map(|(kind, _)| *kind).collect();
        f.debug_struct("ArtifactWriter")
            .field("kinds", &kinds)
            .finish()
    }
}

impl<'a> ArtifactWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a section whose payload is already encoded. Kinds must be
    /// unique within one artifact.
    ///
    /// # Panics
    /// Panics on a duplicate kind — that is a caller bug, not an input
    /// condition.
    pub fn add_section(&mut self, kind: u32, payload: Vec<u8>) {
        self.add_streamed(kind, move |out| out.write_all(&payload));
    }

    /// Add a section that `encode` writes to the output when the container
    /// is emitted, once per [`to_bytes`](Self::to_bytes) or
    /// [`write_to`](Self::write_to). Its length and checksum are taken from
    /// the bytes as they pass. An error it returns aborts the write.
    ///
    /// # Panics
    /// Panics on a duplicate kind, as [`add_section`](Self::add_section).
    pub fn add_streamed(
        &mut self,
        kind: u32,
        encode: impl Fn(&mut dyn Write) -> io::Result<()> + 'a,
    ) {
        assert!(
            self.sections.iter().all(|(k, _)| *k != kind),
            "duplicate artifact section kind {kind}"
        );
        self.sections.push((kind, Box::new(encode)));
    }

    /// Serialize the container to bytes.
    ///
    /// # Panics
    /// Panics if a streamed section's encoder fails.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Cursor::new(Vec::new());
        self.emit(&mut out)
            .expect("a section failed to encode into memory");
        out.into_inner()
    }

    /// Write the container to `path` via a temp file + rename, so a crash
    /// or a failed section mid-write never leaves a half-written artifact
    /// under the final name (and a mapped reader of the old file keeps its
    /// pages). The temp file is removed on every error.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let tmp = temp_file_for(path)?;
        let written = (|| {
            let mut f = BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?);
            self.emit(&mut f)?;
            // `into_inner` flushes and, unlike dropping the writer, reports
            // a failed flush.
            f.into_inner()?.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if written.is_err() {
            // Nothing to remove if the temp file was never created.
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// The one layout routine. The header and section table are reserved
    /// as zeros; each payload is written at its 64-byte-aligned offset,
    /// its length and checksum tallied as it passes; then the header and
    /// table are written over the reserved bytes.
    fn emit<W: Write + Seek>(&self, out: &mut W) -> io::Result<()> {
        assert!(self.sections.len() <= MAX_SECTIONS, "too many sections");
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let mut pos = HEADER_LEN + table_len;
        out.seek(SeekFrom::Start(0))?;
        io::copy(&mut io::repeat(0).take(pos as u64), out)?;

        let mut table = Vec::with_capacity(table_len);
        let mut t = Writer::new(&mut table);
        for (kind, encode) in &self.sections {
            let off = pos.next_multiple_of(SECTION_ALIGN);
            out.write_all(&[0u8; SECTION_ALIGN][..off - pos])?;
            let mut payload = Tally {
                out: &mut *out,
                len: 0,
                checksum: Checksum::new(),
            };
            encode(&mut payload)?;
            t.u32(*kind);
            t.u32(0);
            t.u64(off as u64);
            t.u64(payload.len as u64);
            t.u64(payload.checksum.finish());
            pos = off + payload.len;
        }

        let mut header = Vec::with_capacity(HEADER_LEN);
        let mut h = Writer::new(&mut header);
        h.bytes(&MAGIC);
        h.u32(FORMAT_VERSION);
        h.u32(self.sections.len() as u32);
        h.u64(pos as u64);
        h.u64(checksum(&table));
        header.resize(HEADER_LEN, 0);
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&header)?;
        out.write_all(&table)
    }
}

/// A temp-file name beside `path` that no other write shares: the whole
/// file name, then this process's id and a per-process counter. So `a.ps3`
/// and `a.v2` never share a temp file, and `x.tmp` is never its own.
fn temp_file_for(path: &Path) -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "artifact path has no file name",
        )
    })?;
    let mut tmp = name.to_os_string();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}.{n}.tmp", std::process::id()));
    Ok(path.with_file_name(tmp))
}

#[derive(Debug, Clone, Copy)]
struct SectionDesc {
    kind: u32,
    offset: usize,
    len: usize,
}

/// A validated, mapped artifact: the read side of the container.
///
/// `open` performs every structural check — magic, version, section table
/// bounds and checksum, per-section alignment, overlap and checksums —
/// before returning; afterwards [`section`](Artifact::section) lookups are
/// infallible slices into the mapping.
#[derive(Debug)]
pub struct Artifact {
    mmap: Arc<Mmap>,
    sections: Vec<SectionDesc>,
}

impl Artifact {
    /// Map and validate the artifact at `path`.
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let file = File::open(path)?;
        let mmap = Arc::new(Mmap::map(&file)?);
        Self::from_mmap(mmap)
    }

    /// Validate an already-mapped artifact.
    pub fn from_mmap(mmap: Arc<Mmap>) -> Result<Self, FormatError> {
        let bytes = mmap.as_slice();
        if bytes.len() < HEADER_LEN {
            return Err(FormatError::Truncated("header"));
        }
        // The length check above makes every header read infallible.
        let mut h = Reader::new(bytes);
        if h.take(MAGIC.len())? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = h.u32()?;
        if version != FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion { found: version });
        }
        let count = h.u32()? as usize;
        if count > MAX_SECTIONS {
            return Err(FormatError::Corrupt("section count"));
        }
        if h.u64()? != bytes.len() as u64 {
            return Err(FormatError::Truncated("file length"));
        }
        let table_checksum = h.u64()?;

        let table_end = HEADER_LEN + count * SECTION_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(FormatError::Truncated("section table"));
        }
        let table = &bytes[HEADER_LEN..table_end];
        if checksum(table) != table_checksum {
            return Err(FormatError::ChecksumMismatch {
                section: SECTION_TABLE,
            });
        }

        let mut sections = Vec::with_capacity(count);
        let mut prev_end = table_end;
        let mut t = Reader::new(table);
        for _ in 0..count {
            let kind = t.u32()?;
            t.u32()?; // reserved
            let offset = t.u64()?;
            let len = t.u64()?;
            let recorded = t.u64()?;

            let offset = usize::try_from(offset)
                .map_err(|_| FormatError::Corrupt("section offset overflow"))?;
            let len =
                usize::try_from(len).map_err(|_| FormatError::Corrupt("section len overflow"))?;
            if offset % SECTION_ALIGN != 0 {
                return Err(FormatError::Misaligned { section: kind });
            }
            // Sections are laid out in table order, ascending and
            // non-overlapping.
            if offset < prev_end {
                return Err(FormatError::Corrupt("overlapping sections"));
            }
            let end = offset
                .checked_add(len)
                .ok_or(FormatError::Corrupt("section end overflow"))?;
            if end > bytes.len() {
                return Err(FormatError::Truncated("section body"));
            }
            if sections.iter().any(|s: &SectionDesc| s.kind == kind) {
                return Err(FormatError::Corrupt("duplicate section kind"));
            }
            if checksum(&bytes[offset..end]) != recorded {
                return Err(FormatError::ChecksumMismatch { section: kind });
            }
            sections.push(SectionDesc { kind, offset, len });
            prev_end = end;
        }

        Ok(Self { mmap, sections })
    }

    /// The payload of section `kind`.
    pub fn section(&self, kind: u32) -> Result<&[u8], FormatError> {
        let d = self
            .sections
            .iter()
            .find(|s| s.kind == kind)
            .ok_or(FormatError::MissingSection { kind })?;
        Ok(&self.mmap.as_slice()[d.offset..d.offset + d.len])
    }

    /// `(absolute offset, length)` of section `kind`, for building mapped
    /// [`Bytes`] windows into it.
    pub fn section_range(&self, kind: u32) -> Result<(usize, usize), FormatError> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| (s.offset, s.len))
            .ok_or(FormatError::MissingSection { kind })
    }

    /// The payload of section `kind` as a window that shares the mapping
    /// and outlives this handle, for a decoder that keeps the section's
    /// bytes rather than what it decoded from them.
    pub fn section_bytes(&self, kind: u32) -> Result<Bytes<u8>, FormatError> {
        let (offset, len) = self.section_range(kind)?;
        Bytes::mapped(Arc::clone(&self.mmap), offset, len).map_err(|e| map_err(kind, e))
    }

    /// The mapping backing this artifact.
    pub fn mmap(&self) -> &Arc<Mmap> {
        &self.mmap
    }
}

fn map_err(kind: u32, e: MapSliceError) -> FormatError {
    match e {
        MapSliceError::OutOfBounds => FormatError::Truncated("column payload"),
        MapSliceError::Misaligned => FormatError::Misaligned { section: kind },
    }
}

/// Encode a [`PartitionedTable`] into `w` as the [`SEC_TABLE`],
/// [`SEC_PARTITIONING`] and [`SEC_COLDATA`] sections. The two small ones
/// are encoded now; the column words are written straight from the column
/// buffers when `w` emits, at the offsets [`SEC_TABLE`] records.
pub fn encode_partitioned_table<'a>(w: &mut ArtifactWriter<'a>, pt: &'a PartitionedTable) {
    let table = pt.table();
    let mut offsets = Vec::with_capacity(table.schema().len());
    let mut coldata_len = 0usize;
    let mut meta = Vec::new();
    let mut m = Writer::new(&mut meta);
    m.u32(u32::try_from(table.schema().len()).expect("column count"));
    m.u64(table.num_rows() as u64);
    for (id, cm) in table.schema().iter() {
        m.str32(&cm.name)
            .expect("column name too long for artifact");
        m.u8(match cm.ctype {
            ColumnType::Numeric => 0,
            ColumnType::Date => 1,
            ColumnType::Categorical => 2,
        });
        let off = coldata_len.next_multiple_of(SECTION_ALIGN);
        m.u64(off as u64);
        offsets.push(off);
        coldata_len = off
            + match table.column(id) {
                ColumnData::Numeric(values) => values.len() * 8,
                ColumnData::Categorical { codes, dict } => {
                    m.u32(u32::try_from(dict.len()).expect("dictionary size"));
                    for (_, v) in dict.iter() {
                        m.str32(v).expect("dictionary entry too long for artifact");
                    }
                    codes.len() * 4
                }
            };
    }
    w.add_section(SEC_TABLE, meta);

    let p = pt.partitioning();
    let mut ends = Vec::new();
    let mut e = Writer::new(&mut ends);
    e.u32(u32::try_from(p.len()).expect("partition count"));
    for pid in p.ids() {
        e.u64(p.rows(pid).end as u64);
    }
    w.add_section(SEC_PARTITIONING, ends);
    w.add_streamed(SEC_COLDATA, move |out| write_coldata(table, &offsets, out));
}

/// Write [`SEC_COLDATA`]: each column's little-endian words at its offset
/// in `offsets`, zero-padded up to it, converted a fixed-size chunk at a
/// time through one reused buffer.
fn write_coldata(table: &Table, offsets: &[usize], out: &mut dyn Write) -> io::Result<()> {
    const CHUNK_WORDS: usize = 1024;
    let mut chunk = Vec::with_capacity(CHUNK_WORDS * 8);
    let mut pos = 0;
    for ((id, _), &off) in table.schema().iter().zip(offsets) {
        out.write_all(&[0u8; SECTION_ALIGN][..off - pos])?;
        pos = off;
        match table.column(id) {
            ColumnData::Numeric(values) => {
                for words in values.chunks(CHUNK_WORDS) {
                    chunk.clear();
                    let mut c = Writer::new(&mut chunk);
                    words.iter().for_each(|&v| c.f64(v));
                    out.write_all(&chunk)?;
                    pos += chunk.len();
                }
            }
            ColumnData::Categorical { codes, .. } => {
                for words in codes.chunks(CHUNK_WORDS) {
                    chunk.clear();
                    let mut c = Writer::new(&mut chunk);
                    words.iter().for_each(|&code| c.u32(code));
                    out.write_all(&chunk)?;
                    pos += chunk.len();
                }
            }
        }
    }
    Ok(())
}

/// One column as [`SEC_TABLE`] describes it: its schema entry, where its
/// payload starts inside [`SEC_COLDATA`], and a categorical column's
/// dictionary.
struct ColumnRef {
    meta: ColumnMeta,
    rel: usize,
    dict: Option<Vec<String>>,
}

/// Decode the table + partitioning sections of `a`, mapping column payloads
/// zero-copy out of the artifact.
pub fn decode_partitioned_table(a: &Artifact) -> Result<PartitionedTable, FormatError> {
    let (num_rows, refs) = decode_section("table", a.section(SEC_TABLE)?, |r| {
        let num_cols = r.u32()? as usize;
        if num_cols > MAX_SECTIONS {
            return Err(CodecError::Invalid("table column count"));
        }
        let num_rows = r.usize("table row count")?;
        let mut refs: Vec<ColumnRef> = Vec::with_capacity(num_cols);
        for _ in 0..num_cols {
            let name = r.str32()?;
            if refs.iter().any(|c| c.meta.name == name) {
                return Err(CodecError::Invalid("duplicate column name"));
            }
            let ctype = match r.u8()? {
                0 => ColumnType::Numeric,
                1 => ColumnType::Date,
                2 => ColumnType::Categorical,
                tag => {
                    let what = "column type";
                    return Err(CodecError::BadTag { what, tag });
                }
            };
            let rel = r.usize("column payload offset")?;
            let dict = if ctype == ColumnType::Categorical {
                let n = r.u32()? as usize;
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    values.push(r.str32()?.to_owned());
                }
                Some(values)
            } else {
                None
            };
            let meta = ColumnMeta::new(name, ctype);
            refs.push(ColumnRef { meta, rel, dict });
        }
        Ok((num_rows, refs))
    })?;

    let (col_off, col_len) = a.section_range(SEC_COLDATA)?;
    let mut metas = Vec::with_capacity(refs.len());
    let mut columns = Vec::with_capacity(refs.len());
    for ColumnRef { meta, rel, dict } in refs {
        let elem = if dict.is_some() { 4 } else { 8 };
        let end = rel
            .checked_add(
                num_rows
                    .checked_mul(elem)
                    .ok_or(FormatError::Corrupt("column payload size"))?,
            )
            .ok_or(FormatError::Corrupt("column payload size"))?;
        if end > col_len {
            return Err(FormatError::Truncated("column payload"));
        }
        let abs = col_off + rel;
        let data = match dict {
            None => ColumnData::Numeric(
                Bytes::mapped(Arc::clone(a.mmap()), abs, num_rows)
                    .map_err(|e| map_err(SEC_COLDATA, e))?,
            ),
            Some(values) => {
                let codes = Bytes::<u32>::mapped(Arc::clone(a.mmap()), abs, num_rows)
                    .map_err(|e| map_err(SEC_COLDATA, e))?;
                let dict = Dictionary::from_values(values)
                    .map_err(|_| FormatError::Corrupt("duplicate dictionary entry"))?;
                // Codes must index into the dictionary, or downstream
                // lookups would panic.
                if codes.iter().any(|&code| code as usize >= dict.len()) {
                    return Err(FormatError::Corrupt("dictionary code out of range"));
                }
                ColumnData::Categorical {
                    codes,
                    dict: Arc::new(dict),
                }
            }
        };
        metas.push(meta);
        columns.push(data);
    }

    let ends = decode_section("partitioning", a.section(SEC_PARTITIONING)?, |r| {
        let n_parts = r.u32()? as usize;
        if n_parts == 0 {
            return Err(CodecError::Invalid("empty partitioning"));
        }
        let mut ends = Vec::with_capacity(n_parts.min(1 << 20));
        let mut prev = 0usize;
        for _ in 0..n_parts {
            let e = r.usize("partition end")?;
            if e <= prev {
                return Err(CodecError::Invalid("partition ends not increasing"));
            }
            ends.push(e);
            prev = e;
        }
        Ok(ends)
    })?;
    if ends.last() != Some(&num_rows) {
        return Err(FormatError::Corrupt("partitioning does not cover table"));
    }

    // All invariants `Table::new` / `Partitioning::from_ends` /
    // `PartitionedTable::new` assert are validated above, so construction
    // cannot panic.
    let table = Table::new(Schema::new(metas), columns);
    Ok(PartitionedTable::new(table, Partitioning::from_ends(ends)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColId;
    use crate::table::TableBuilder;

    fn sample_pt() -> PartitionedTable {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
            ColumnMeta::new("day", ColumnType::Date),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..130 {
            b.push_row(
                &[i as f64 * 0.5, 7300.0 + i as f64],
                &[if i % 3 == 0 { "a" } else { "b" }],
            );
        }
        PartitionedTable::with_equal_partitions(b.finish(), 4)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ps3_format_test_{}_{tag}.ps3", std::process::id()));
        p
    }

    fn roundtrip(pt: &PartitionedTable, tag: &str) -> PartitionedTable {
        let mut w = ArtifactWriter::new();
        encode_partitioned_table(&mut w, pt);
        let path = temp_path(tag);
        w.write_to(&path).unwrap();
        let a = Artifact::open(&path).unwrap();
        let out = decode_partitioned_table(&a).unwrap();
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn table_roundtrips_bit_exact() {
        let pt = sample_pt();
        let back = roundtrip(&pt, "roundtrip");
        assert_eq!(back.num_partitions(), pt.num_partitions());
        assert_eq!(back.table().num_rows(), pt.table().num_rows());
        for (id, cm) in pt.table().schema().iter() {
            assert_eq!(back.table().schema().col(id).name, cm.name);
            assert_eq!(back.table().schema().col(id).ctype, cm.ctype);
            match (pt.table().column(id), back.table().column(id)) {
                (ColumnData::Numeric(a), ColumnData::Numeric(b)) => {
                    assert!(b.is_mapped(), "decoded numeric payload must be zero-copy");
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                }
                (
                    ColumnData::Categorical { codes: a, dict: da },
                    ColumnData::Categorical { codes: b, dict: db },
                ) => {
                    assert!(b.is_mapped(), "decoded codes payload must be zero-copy");
                    assert_eq!(&**a, &**b);
                    assert_eq!(da.iter().collect::<Vec<_>>(), db.iter().collect::<Vec<_>>());
                }
                _ => panic!("column physical type changed in roundtrip"),
            }
        }
        for pid in pt.partitioning().ids() {
            assert_eq!(pt.rows(pid), back.rows(pid));
        }
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Numeric)]);
        let vals = vec![f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE];
        let t = Table::new(schema, vec![ColumnData::Numeric(vals.clone().into())]);
        let pt = PartitionedTable::with_equal_partitions(t, 2);
        let back = roundtrip(&pt, "nan");
        let got = back.table().numeric(ColId(0));
        for (a, b) in vals.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn header_fields_are_as_documented() {
        let pt = sample_pt();
        let mut w = ArtifactWriter::new();
        encode_partitioned_table(&mut w, &pt);
        let bytes = w.to_bytes();
        assert_eq!(&bytes[0..8], &MAGIC);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 7);
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 3);
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            bytes.len() as u64
        );
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // Words 0 and 4 both go to lane 0. Without the rotation in each
        // step, flipping bit 63 of both would leave the lane unchanged.
        let mut bytes = vec![0x5Au8; 96];
        let before = checksum(&bytes);
        bytes[7] ^= 0x80;
        bytes[39] ^= 0x80;
        assert_ne!(checksum(&bytes), before);
    }

    #[test]
    fn trailing_zeros_change_the_checksum() {
        // The tail is zero-padded to whole words; the length tells apart
        // inputs that differ only in trailing zeros.
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 3, 0]));
        assert_ne!(checksum(&[0; 32]), checksum(&[0; 33]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn temp_names_are_distinct_from_each_other_and_their_targets() {
        let dir = std::env::temp_dir();
        let targets = ["a.ps3", "a.v2", "x.tmp"].map(|name| dir.join(name));
        let temps = targets.each_ref().map(|t| temp_file_for(t).unwrap());
        for (i, tmp) in temps.iter().enumerate() {
            assert_eq!(
                tmp.parent(),
                Some(dir.as_path()),
                "{tmp:?} leaves the directory"
            );
            for (j, other) in temps.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    tmp, other,
                    "{:?} and {:?} share a temp file",
                    targets[i], targets[j]
                );
            }
            assert!(!targets.contains(tmp), "{tmp:?} is a target");
        }
        // Two writes to one target never share a temp file either.
        assert_ne!(temp_file_for(&targets[0]).unwrap(), temps[0]);
        assert!(temp_file_for(Path::new("/")).is_err());
    }

    #[test]
    fn a_write_that_fails_part_way_leaves_the_old_file_and_no_temp() {
        let dir = std::env::temp_dir().join(format!("ps3_format_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("a.ps3");
        let mut old = ArtifactWriter::new();
        old.add_section(SEC_TABLE, vec![1, 2, 3]);
        old.write_to(&target).unwrap();
        let before = std::fs::read(&target).unwrap();

        let mut w = ArtifactWriter::new();
        w.add_section(SEC_TABLE, vec![7; 100]);
        // More than the file buffer holds, so part of it reaches the file.
        w.add_streamed(SEC_STATS, |out| {
            out.write_all(&vec![9; 2 * WRITE_BUFFER])?;
            Err(io::Error::other("encoder gave up"))
        });
        let err = w.write_to(&target).unwrap_err();
        assert_eq!(err.to_string(), "encoder gave up");
        assert_eq!(std::fs::read(&target).unwrap(), before);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["a.ps3"], "a failed write left files behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let pt = sample_pt();
        let mut w = ArtifactWriter::new();
        encode_partitioned_table(&mut w, &pt);
        let good = w.to_bytes();

        let open = |bytes: &[u8], tag: &str| -> Result<PartitionedTable, FormatError> {
            let path = temp_path(tag);
            std::fs::write(&path, bytes).unwrap();
            let r = Artifact::open(&path).and_then(|a| decode_partitioned_table(&a));
            std::fs::remove_file(&path).ok();
            r
        };

        // Bad magic.
        let mut b = good.clone();
        b[0] ^= 0xff;
        assert!(matches!(open(&b, "magic"), Err(FormatError::BadMagic)));

        // Version bump.
        let mut b = good.clone();
        b[8] = 9;
        assert!(matches!(
            open(&b, "version"),
            Err(FormatError::UnsupportedVersion { found: 9 })
        ));

        // Truncation (also trips the file-length field).
        assert!(matches!(
            open(&good[..good.len() - 9], "trunc"),
            Err(FormatError::Truncated(_))
        ));
        assert!(matches!(
            open(&good[..40], "trunc_hdr"),
            Err(FormatError::Truncated(_))
        ));

        // Payload bit flip → checksum mismatch on that section.
        let mut b = good.clone();
        let last = b.len() - 1;
        b[last] ^= 0x40;
        assert!(matches!(
            open(&b, "flip"),
            Err(FormatError::ChecksumMismatch { .. })
        ));

        // Section-table bit flip → table checksum mismatch.
        let mut b = good.clone();
        b[HEADER_LEN + 8] ^= 0x01;
        assert!(matches!(
            open(&b, "tableflip"),
            Err(FormatError::ChecksumMismatch {
                section: SECTION_TABLE
            })
        ));
    }

    #[test]
    fn misaligned_section_offset_is_rejected() {
        // Hand-build a 1-section artifact whose section offset is not
        // 64-aligned, with checksums recomputed so alignment is the first
        // failing check.
        let payload = vec![0u8; 8];
        let offset: u64 = 100; // not 64-aligned
        let mut table = Vec::new();
        table.extend_from_slice(&7u32.to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        table.extend_from_slice(&offset.to_le_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        table.extend_from_slice(&checksum(&payload).to_le_bytes());

        let file_len = 108u64;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&file_len.to_le_bytes());
        bytes.extend_from_slice(&checksum(&table).to_le_bytes());
        bytes.resize(HEADER_LEN, 0);
        bytes.extend_from_slice(&table);
        bytes.resize(100, 0);
        bytes.extend_from_slice(&payload);

        let path = temp_path("misaligned");
        std::fs::write(&path, &bytes).unwrap();
        let r = Artifact::open(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(r, Err(FormatError::Misaligned { section: 7 })));
    }

    #[test]
    fn missing_section_is_typed() {
        let mut w = ArtifactWriter::new();
        w.add_section(SEC_TABLE, vec![1, 2, 3]);
        let path = temp_path("missing");
        w.write_to(&path).unwrap();
        let a = Artifact::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            a.section(SEC_STATS),
            Err(FormatError::MissingSection { kind: SEC_STATS })
        ));
    }
}
