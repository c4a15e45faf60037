//! Memory mapping and typed slice views — the workspace's only `unsafe`
//! module.
//!
//! The zero-copy artifact format (`format`) stores column payloads as raw
//! little-endian machine words at 64-byte-aligned offsets. This module owns
//! the two dangerous steps between a file on disk and a `&[f64]` the kernels
//! can chunk:
//!
//! 1. [`Mmap`] — a read-only, private mapping of a whole file, created with
//!    a hand-declared `mmap(2)`/`munmap(2)` FFI (this workspace vendors or
//!    avoids every external crate, including `libc`; see `ps3_runtime::poll`
//!    for the same discipline applied to `poll(2)`), whose decoded tail
//!    [`Mmap::release_from`] hands back to the kernel with `madvise(2)`.
//!    On non-Unix targets the type degrades to an owned, 8-byte-aligned
//!    buffer read with `std::fs`, so nothing above this module needs a
//!    `cfg`.
//! 2. [`typed_slice_at`] — the *only* pointer cast in the workspace: bytes
//!    at an offset reinterpreted as a `&[T]` for plain-old-data `T`.
//!
//! # Safety invariants
//!
//! Every `unsafe` block in this module relies on exactly these invariants,
//! checked where possible and documented where not:
//!
//! * **Validity.** [`Pod`] is a sealed trait implemented only for `u8`,
//!   `u32`, `u64` and `f64`: every bit pattern is a valid value, there is no
//!   padding, no niches, and no drop glue — so reinterpreting arbitrary
//!   mapped bytes can never create an invalid value.
//! * **Bounds.** [`typed_slice_at`] refuses (returns an error, never UB) any
//!   `offset`/`elems` pair whose byte range is not fully inside the mapping,
//!   using checked arithmetic so overflowing lengths cannot wrap into
//!   "in bounds".
//! * **Alignment.** The slice pointer is checked against `align_of::<T>()`
//!   at runtime. `mmap` returns page-aligned memory and the non-Unix
//!   fallback allocates `u64`s, so a 64-byte-aligned file offset is always
//!   sufficiently aligned in memory — but the check is on the *actual*
//!   pointer, not the convention.
//! * **Lifetime.** The returned slice borrows the [`Mmap`]; the mapping is
//!   unmapped only on drop, after every borrow has ended. [`Mmap`] is
//!   `Send + Sync` because the mapping is immutable (`PROT_READ` +
//!   `MAP_PRIVATE`) for its whole lifetime.
//! * **External mutation.** A private read-only mapping does not observe
//!   `write(2)`s made to the file afterwards on Linux in a guaranteed way
//!   (POSIX leaves it unspecified). Artifact files are written once via a
//!   temp-file + rename and never modified in place, which is the
//!   discipline `format` enforces; mutating an artifact while it is mapped
//!   is outside the supported contract (it can change slice *contents*, but
//!   never their bounds, so it stays memory-safe — reads may simply observe
//!   torn data).
//!
//! The corruption property tests (`tests/artifact_corruption.rs`) fuzz
//! bit-flipped, truncated and version-bumped artifacts through the full
//! decode path to confirm these checks hold: every malformed input is
//! rejected with a typed error before any slice is formed.

use std::fmt;
use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Plain-old-data element types that may be viewed directly in mapped bytes.
///
/// Sealed: only `u8`, `u32`, `u64` and `f64` qualify. All four accept every
/// bit pattern, contain no padding, and have no drop glue — the precondition
/// for the cast in [`typed_slice_at`] being sound.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {}
impl Pod for u8 {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for f64 {}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    /// `PROT_READ`: pages may be read.
    pub const PROT_READ: c_int = 1;
    /// `MAP_PRIVATE`: copy-on-write, changes never reach the file.
    pub const MAP_PRIVATE: c_int = 2;
    /// `MADV_DONTNEED`: the range's pages may be dropped from residency
    /// (the same value on Linux, macOS and the BSDs).
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        /// `mmap(2)`. `off_t` is `c_long` on the LP64 Unix targets this
        /// workspace supports; the offset passed is always 0.
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        /// `munmap(2)`.
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        /// `madvise(2)`.
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// Granularity of [`Mmap::release_from`]: a multiple of every page size
/// the supported kernels use (4, 16 and 64 KiB), so a rounded offset is
/// always page-aligned.
const RELEASE_ALIGN: usize = 64 * 1024;

/// A read-only private memory mapping of an entire file.
///
/// Unix targets map the file with `mmap(2)`; elsewhere the file is read into
/// an owned 8-byte-aligned buffer so the rest of the workspace is
/// platform-free. Empty files produce an empty mapping without touching the
/// OS.
pub struct Mmap {
    /// Base of the mapping (dangling and unused when `len == 0`).
    ptr: *const u8,
    /// Mapping length in bytes.
    len: usize,
    /// Non-Unix fallback: the buffer that owns the bytes (`u64` for 8-byte
    /// alignment). On Unix this field does not exist.
    #[cfg(not(unix))]
    _buf: Vec<u64>,
}

// SAFETY: the mapping is read-only (`PROT_READ`, `MAP_PRIVATE`) for its
// entire lifetime, so shared references from multiple threads observe
// immutable memory; no interior mutability exists.
unsafe impl Send for Mmap {}
// SAFETY: as above — all access is through `&self` into immutable pages.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only in its entirety.
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;

        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file descriptor for `len` readable
        // bytes; PROT_READ + MAP_PRIVATE never aliases writable memory.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Read `file` into an owned aligned buffer (non-Unix stand-in).
    #[cfg(not(unix))]
    pub fn map(file: &File) -> io::Result<Self> {
        use std::io::Read;

        let mut bytes = Vec::new();
        let mut f = file;
        f.read_to_end(&mut bytes)?;
        let len = bytes.len();
        // Re-home the bytes in a u64 buffer for 8-byte alignment.
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: u64 -> u8 view of an owned buffer of sufficient length.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, buf.len() * 8) };
        dst[..len].copy_from_slice(&bytes);
        Ok(Self {
            ptr: buf.as_ptr() as *const u8,
            len,
            _buf: buf,
        })
    }

    /// Drop the resident pages from `offset`, rounded up to 64 KiB (a page
    /// boundary on 4, 16 and 64 KiB kernels), to the end of the mapping — for a tail that has
    /// been decoded onto the heap and is not read again. The bytes stay
    /// mapped: a later read faults them back in from the file, unchanged.
    /// Advisory; off Unix, where the bytes are an owned buffer, a no-op.
    pub fn release_from(&self, offset: usize) -> io::Result<()> {
        let start = offset.next_multiple_of(RELEASE_ALIGN);
        if start >= self.len {
            return Ok(());
        }
        #[cfg(unix)]
        {
            // SAFETY: `[start, len)` lies inside the live mapping and
            // `ptr + start` is page-aligned (mmap bases are, and `start` is
            // a multiple of every supported page size). The mapping is
            // `PROT_READ` + `MAP_PRIVATE` and never written, so it holds no
            // private copies: a dropped page faults back in with the file's
            // bytes, and every outstanding borrow of the range keeps
            // reading the same values.
            let rc = unsafe {
                sys::madvise(
                    self.ptr.add(start) as *mut std::os::raw::c_void,
                    self.len - start,
                    sys::MADV_DONTNEED,
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` is valid for `len` readable bytes for the lifetime
        // of `self` (unmapped only in Drop); u8 has no alignment or validity
        // requirements.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: (ptr, len) is exactly the region returned by mmap and
            // has not been unmapped before; failure is ignorable on drop.
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// Why a requested typed view of mapped bytes was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapSliceError {
    /// The byte range falls (partly) outside the mapping.
    OutOfBounds,
    /// The slice start is not aligned for the element type.
    Misaligned,
}

/// View `elems` elements of `T` starting `offset` bytes into the mapping.
///
/// This is the single place raw mapped bytes become a typed slice. It
/// *checks* (never assumes) bounds with overflow-safe arithmetic and the
/// actual pointer alignment; on any violation the caller gets a typed error
/// and no slice is ever formed.
pub fn typed_slice_at<T: Pod>(
    mmap: &Mmap,
    offset: usize,
    elems: usize,
) -> Result<&[T], MapSliceError> {
    let byte_len = elems
        .checked_mul(std::mem::size_of::<T>())
        .ok_or(MapSliceError::OutOfBounds)?;
    let end = offset
        .checked_add(byte_len)
        .ok_or(MapSliceError::OutOfBounds)?;
    if end > mmap.len {
        return Err(MapSliceError::OutOfBounds);
    }
    if elems == 0 {
        return Ok(&[]);
    }
    // In bounds per the checks above, so the add cannot leave the mapping.
    let ptr = mmap.ptr.wrapping_add(offset);
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(MapSliceError::Misaligned);
    }
    // SAFETY: `ptr` is aligned (checked above) and valid for `byte_len`
    // readable bytes inside the live mapping (checked above); `T: Pod`
    // guarantees every bit pattern is a valid `T`; the mapping is immutable
    // and outlives the returned borrow.
    Ok(unsafe { std::slice::from_raw_parts(ptr as *const T, elems) })
}

/// Column payload storage: an owned vector or a typed window into a shared
/// mapping.
///
/// `Bytes<T>` derefs to `&[T]`, so every consumer of column data —
/// `chunks64`, the compiled mask kernels, sketch building, feature
/// extraction — works identically on owned and mapped storage. Cloning a
/// mapped payload clones an `Arc`, not the data.
pub enum Bytes<T: Pod> {
    /// Heap-owned values (built tables, permutations, tests).
    Owned(Vec<T>),
    /// A validated window into a mapped artifact.
    Mapped {
        /// The mapping that owns the bytes.
        mmap: Arc<Mmap>,
        /// Byte offset of the first element.
        offset: usize,
        /// Number of elements.
        elems: usize,
        /// `Bytes<T>` is invariant over its element type.
        _marker: PhantomData<T>,
    },
}

impl<T: Pod> Bytes<T> {
    /// A mapped window, validated once here (bounds + alignment); after
    /// construction every access is infallible.
    pub fn mapped(mmap: Arc<Mmap>, offset: usize, elems: usize) -> Result<Self, MapSliceError> {
        typed_slice_at::<T>(&mmap, offset, elems)?;
        Ok(Self::Mapped {
            mmap,
            offset,
            elems,
            _marker: PhantomData,
        })
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            Bytes::Owned(v) => v,
            Bytes::Mapped {
                mmap,
                offset,
                elems,
                ..
            } => typed_slice_at(mmap, *offset, *elems).expect("validated at construction"),
        }
    }

    /// Whether this payload is backed by a mapping (zero-copy) rather than
    /// an owned allocation.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Bytes::Mapped { .. })
    }
}

impl<T: Pod> Deref for Bytes<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Bytes<T> {
    fn from(v: Vec<T>) -> Self {
        Bytes::Owned(v)
    }
}

impl<T: Pod> FromIterator<T> for Bytes<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Bytes::Owned(iter.into_iter().collect())
    }
}

impl<T: Pod> Clone for Bytes<T> {
    fn clone(&self) -> Self {
        match self {
            Bytes::Owned(v) => Bytes::Owned(v.clone()),
            Bytes::Mapped {
                mmap,
                offset,
                elems,
                ..
            } => Bytes::Mapped {
                mmap: Arc::clone(mmap),
                offset: *offset,
                elems: *elems,
                _marker: PhantomData,
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Bytes<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn mapped_file(bytes: &[u8]) -> Mmap {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ps3_mmap_test_{}_{}",
            std::process::id(),
            bytes.len()
        ));
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(bytes).unwrap();
        }
        let m = Mmap::map(&File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        m
    }

    #[test]
    fn maps_and_reads_back() {
        let data: Vec<u8> = (0..=255).collect();
        let m = mapped_file(&data);
        assert_eq!(m.len(), 256);
        assert_eq!(m.as_slice(), &data[..]);
    }

    #[test]
    fn released_pages_read_back_byte_identical() {
        // Three release units and a ragged tail, every byte distinct from
        // its neighbours: a dropped page must fault back in unchanged.
        let data: Vec<u8> = (0..3 * RELEASE_ALIGN + 777)
            .map(|i| (i * 31 + i / 251) as u8)
            .collect();
        let m = mapped_file(&data);
        assert_eq!(m.as_slice(), &data[..], "pages resident before release");
        for offset in [RELEASE_ALIGN + 1, 0, m.len(), m.len() + 1] {
            m.release_from(offset).expect("advisory release succeeds");
            assert_eq!(m.as_slice(), &data[..], "released from {offset}");
        }
    }

    #[test]
    fn empty_file_maps_empty() {
        let m = mapped_file(&[]);
        assert!(m.is_empty());
        assert_eq!(m.as_slice(), &[] as &[u8]);
        assert_eq!(typed_slice_at::<f64>(&m, 0, 0), Ok(&[] as &[f64]));
    }

    #[test]
    fn typed_views_decode_le_values() {
        let mut bytes = Vec::new();
        for v in [1.5f64, -2.25, f64::NAN] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let m = mapped_file(&bytes);
        let s = typed_slice_at::<f64>(&m, 0, 3).unwrap();
        assert_eq!(s[0], 1.5);
        assert_eq!(s[1], -2.25);
        assert!(s[2].is_nan());
    }

    #[test]
    fn bounds_are_checked() {
        let m = mapped_file(&[0u8; 64]);
        assert_eq!(
            typed_slice_at::<f64>(&m, 0, 9),
            Err(MapSliceError::OutOfBounds)
        );
        assert_eq!(
            typed_slice_at::<f64>(&m, 64, 1),
            Err(MapSliceError::OutOfBounds)
        );
        // Overflowing byte lengths cannot wrap into bounds.
        assert_eq!(
            typed_slice_at::<u64>(&m, 0, usize::MAX / 4),
            Err(MapSliceError::OutOfBounds)
        );
        assert_eq!(
            typed_slice_at::<u64>(&m, usize::MAX, 1),
            Err(MapSliceError::OutOfBounds)
        );
    }

    #[test]
    fn misalignment_is_rejected() {
        let m = mapped_file(&[0u8; 64]);
        // mmap bases are page-aligned, so offset 4 is misaligned for f64 …
        assert_eq!(
            typed_slice_at::<f64>(&m, 4, 1),
            Err(MapSliceError::Misaligned)
        );
        // … but fine for u32.
        assert!(typed_slice_at::<u32>(&m, 4, 1).is_ok());
    }

    #[test]
    fn bytes_owned_and_mapped_agree() {
        let vals = [3.0f64, 1.0, 4.0, 1.0, 5.0];
        let mut raw = Vec::new();
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let m = Arc::new(mapped_file(&raw));
        let mapped = Bytes::<f64>::mapped(Arc::clone(&m), 0, 5).unwrap();
        let owned: Bytes<f64> = vals.to_vec().into();
        assert_eq!(&*mapped, &*owned);
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        // Clone of a mapped payload shares the mapping.
        let c = mapped.clone();
        assert_eq!(&*c, &vals[..]);
    }

    #[test]
    fn bytes_mapped_validates_eagerly() {
        let m = Arc::new(mapped_file(&[0u8; 16]));
        assert_eq!(
            Bytes::<f64>::mapped(Arc::clone(&m), 0, 3).unwrap_err(),
            MapSliceError::OutOfBounds
        );
        assert_eq!(
            Bytes::<f64>::mapped(m, 1, 1).unwrap_err(),
            MapSliceError::Misaligned
        );
    }
}
