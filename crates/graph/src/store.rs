//! Zero-copy segment store — the `COMICGRB` **v4** on-disk layout, the one
//! binary form of a graph.
//!
//! The on-disk bytes **are** the in-memory CSR: fixed-width little-endian
//! sections (offset arrays, id arrays, probability bits), a section table
//! in the header, and a content digest in the footer, so a load is open →
//! map (or bulk-read) → verify → reinterpret, with zero per-edge work. A
//! file of any other version (the retired v3 edge-record cache shared the
//! magic) is a typed [`GraphError::UnsupportedVersion`]; the dataset loader
//! treats it like any other stale cache and rebuilds it from source text.
//!
//! # Segment layout
//!
//! All integers are little-endian. One file is one *segment*:
//!
//! ```text
//! offset  size            field
//! 0       8               magic (format-specific, e.g. b"COMICGRB")
//! 8       4               format version (u32)
//! 12      8 * meta_len    meta words (format-specific, e.g. n / m / digest)
//! ..      4               section count (u32, capped at MAX_SECTIONS)
//! ..      8               header digest: Fx over version, meta, table
//! ..      16 * sections   section table: (byte offset u64, byte len u64)
//! ..      ..              sections, each 8-byte aligned, zero padding between
//! len-8   8               content digest: 8-lane Fx fold over payload words
//! ```
//!
//! The graph store (`COMICGRB` v4, [`write_store`] / [`read_store_file`])
//! uses meta `[n, m, source_digest]` and seven sections in CSR order:
//! out-offsets `(n+1)×u32`, out-targets `m×u32`, out-probability-bits
//! `m×u64` (IEEE-754 bits), then the in-CSR mirror (offsets, sources,
//! probability bits, canonical edge ids). `comic_ris` reuses the same
//! segment machinery for its RR-sketch spill files.
//!
//! # Untrusted-header contract
//!
//! Every field read from disk is untrusted until proven otherwise. The
//! reader (a) never allocates or maps based on a header claim — allocation
//! is bounded by the *actual* file length, and counts carry implausibility
//! caps; (b) verifies the header digest before using the section table and
//! the content digest before reinterpreting any section; (c) structurally
//! validates the CSR (offset monotonicity, id ranges, probability domain,
//! per-range target ordering) so a crafted digest-consistent file yields a
//! typed [`GraphError`], never a panic, OOM, or out-of-bounds access.
//!
//! # mmap fast path and the `COMIC_MMAP` override
//!
//! On 64-bit little-endian Unix the reader memory-maps the file read-only
//! and the graph's arrays become [`Section`] views into the mapping — the
//! only `unsafe` in this crate, confined to this module ([`Pod`], the
//! mapping syscalls, and the slice reinterpretation). Everywhere else (or
//! with `COMIC_MMAP=off`, mirroring `COMIC_SIMD=off`) a safe single
//! bulk-read fallback converts each section with `from_le_bytes`; both
//! paths produce byte-identical graphs. The mmap path shares the classic
//! caveat: truncating a mapped file under a running process can fault —
//! the override exists exactly for environments where that matters.

use crate::csr::{DiGraph, EdgeId, NodeId};
use crate::error::{GraphError, StaleArtifact};
use crate::fasthash::{fx_fold, FxHasher};
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufWriter, Read as _, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Magic prefix of a graph store file. The version field follows it, so a
/// file written under another version is a typed `UnsupportedVersion`,
/// never a misparse.
pub const STORE_MAGIC: &[u8; 8] = b"COMICGRB";

/// Format version written and required by this module's graph store.
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Meta words of a graph store segment: `[n, m, source_digest]`.
const GRAPH_META_LEN: usize = 3;

/// Section count of a graph store segment (see module docs for the order).
const GRAPH_SECTIONS: usize = 7;

/// Hard cap on the section count of any segment — read before the header
/// digest is verifiable, so it must bound allocation on its own.
const MAX_SECTIONS: usize = 64;

/// Implausibility cap on node counts (ids are `u32`, so anything above the
/// id space is a lie regardless of digests).
pub const MAX_PLAUSIBLE_NODES: u64 = u32::MAX as u64;

/// Implausibility cap on edge counts (CSR offsets are `u32`, so no store
/// can address more edges than this).
pub const MAX_PLAUSIBLE_EDGES: u64 = u32::MAX as u64;

// ---------------------------------------------------------------------------
// Runtime mode: mmap fast path vs. safe bulk-read fallback.
// ---------------------------------------------------------------------------

/// How store files are brought into memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// Memory-map the file and reinterpret sections in place (zero-copy).
    Mmap,
    /// One bulk read into an owned buffer, then safe per-section conversion.
    Read,
}

impl StoreMode {
    /// Display name (`"mmap"` / `"read"`), used in diagnostics and benches.
    pub fn name(self) -> &'static str {
        match self {
            StoreMode::Mmap => "mmap",
            StoreMode::Read => "read",
        }
    }
}

/// Whether the mmap fast path is compiled in on this target (64-bit
/// little-endian Unix).
pub fn mmap_supported() -> bool {
    mapping::SUPPORTED
}

/// The default mode for this target: [`StoreMode::Mmap`] where supported,
/// [`StoreMode::Read`] otherwise. Ignores the `COMIC_MMAP` override — see
/// [`active`] for the process-wide policy.
pub fn detect() -> StoreMode {
    if mmap_supported() {
        StoreMode::Mmap
    } else {
        StoreMode::Read
    }
}

/// The process-wide store mode: `COMIC_MMAP` override first (`off`, `read`,
/// `0`, or `false` force the safe bulk-read fallback; `on` / `mmap` request
/// the fast path, granted only where supported), [`detect`] otherwise.
/// Resolved once and cached, mirroring `comic_ris::simd::active`.
pub fn active() -> StoreMode {
    static MODE: OnceLock<StoreMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("COMIC_MMAP") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "read" | "0" | "false" => StoreMode::Read,
            "on" | "mmap" => detect(),
            _ => detect(),
        },
        Err(_) => detect(),
    })
}

// ---------------------------------------------------------------------------
// Confined unsafe #1: read-only file mapping.
// ---------------------------------------------------------------------------

mod mapping {
    //! Read-only `mmap` of a whole file, with no libc dependency: the raw
    //! syscalls are declared here and used nowhere else. The crate is
    //! `deny(unsafe_code)`; this module and [`super::pod`] are the two
    //! scoped exceptions.
    #![allow(unsafe_code)]
    use super::Pod;
    use std::sync::Arc;

    /// Whether this target compiles the real mapping (64-bit little-endian
    /// Unix; everywhere else [`MapBuf::map`] returns `Unsupported`).
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    pub const SUPPORTED: bool = true;
    #[cfg(not(all(unix, target_endian = "little", target_pointer_width = "64")))]
    pub const SUPPORTED: bool = false;

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    mod sys {
        use std::os::raw::{c_int, c_void};
        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
        pub const PROT_READ: c_int = 1;
        pub const MAP_PRIVATE: c_int = 2;
        /// Linux-only: prefault the whole mapping at `mmap` time. A v4 load
        /// touches every page anyway (digest + validation), so one bulk
        /// population beats ~file_len / 4 KiB demand faults on the cold
        /// path. Zero elsewhere (no-op flag).
        #[cfg(target_os = "linux")]
        pub const MAP_POPULATE: c_int = 0x8000;
        #[cfg(not(target_os = "linux"))]
        pub const MAP_POPULATE: c_int = 0;
    }

    /// An owned read-only mapping of a whole file. Pages are shared with
    /// the page cache; dropping unmaps.
    #[derive(Debug)]
    pub struct MapBuf {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) and exclusively owned;
    // concurrent reads from multiple threads are fine and unmapping is
    // tied to the single Drop.
    unsafe impl Send for MapBuf {}
    unsafe impl Sync for MapBuf {}

    impl MapBuf {
        /// Map `len` bytes of `f` read-only. Fails (rather than falling
        /// back silently) so the caller chooses the fallback.
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        pub fn map(f: &std::fs::File, len: usize) -> std::io::Result<MapBuf> {
            use std::os::fd::AsRawFd;
            if len == 0 {
                // mmap(len = 0) is EINVAL; empty files take the read path.
                return Err(std::io::Error::from(std::io::ErrorKind::InvalidInput));
            }
            // SAFETY: requesting a fresh PROT_READ | MAP_PRIVATE mapping of
            // an open fd; the kernel picks the address. A MAP_FAILED (-1)
            // return is checked before the pointer is ever used.
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE | sys::MAP_POPULATE,
                    f.as_raw_fd(),
                    0,
                )
            };
            if p.is_null() || p as usize == usize::MAX {
                return Err(std::io::Error::last_os_error());
            }
            Ok(MapBuf {
                ptr: p as *const u8,
                len,
            })
        }

        #[cfg(not(all(unix, target_endian = "little", target_pointer_width = "64")))]
        pub fn map(_f: &std::fs::File, _len: usize) -> std::io::Result<MapBuf> {
            Err(std::io::Error::from(std::io::ErrorKind::Unsupported))
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop; u8 has no validity invariants.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MapBuf {
        fn drop(&mut self) {
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once.
            unsafe {
                super::mapping::sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }

    /// `len` elements of `T` inside a shared mapping, range-checked once
    /// when the view is built. The pointer and length are private to this
    /// module and only [`MapView::new`] sets them, after its checks, so
    /// [`MapView::as_slice`] is a plain slice with no per-access check.
    /// The `Arc` keeps the mapping alive as long as any view into it.
    pub struct MapView<T> {
        buf: Arc<MapBuf>,
        ptr: *const T,
        len: usize,
    }

    // SAFETY: `buf` is an `Arc<MapBuf>`, itself Send + Sync (above); `ptr`
    // points into that PROT_READ mapping, which nothing writes and which
    // the view's own `buf` keeps mapped, so reading through it from any
    // thread is fine; `len` is plain data; and `T: Pod` is Send + Sync.
    unsafe impl<T: Pod> Send for MapView<T> {}
    unsafe impl<T: Pod> Sync for MapView<T> {}

    impl<T: Pod> MapView<T> {
        /// View `len` elements of `T` starting `byte_off` bytes into `buf`.
        ///
        /// Bounds and alignment are asserted here, once; callers guarantee
        /// them structurally (section offsets are 8-aligned and
        /// range-checked against the real file length before a view is
        /// ever built).
        pub fn new(buf: Arc<MapBuf>, byte_off: usize, len: usize) -> MapView<T> {
            let size = std::mem::size_of::<T>();
            let bytes = len.checked_mul(size).expect("section size overflow");
            assert!(
                byte_off
                    .checked_add(bytes)
                    .is_some_and(|end| end <= buf.len),
                "section view out of bounds"
            );
            let ptr = buf.as_slice()[byte_off..].as_ptr().cast::<T>();
            assert_eq!(
                ptr as usize % std::mem::align_of::<T>(),
                0,
                "section view misaligned"
            );
            MapView { buf, ptr, len }
        }

        /// The viewed elements.
        #[inline]
        pub fn as_slice(&self) -> &[T] {
            // SAFETY: in-bounds and aligned (asserted in `new`, the only
            // constructor, and the fields are private to this module), and
            // T: Pod means every bit pattern is a valid T; the borrow is
            // tied to &self, whose `Arc` keeps the mapping alive.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl<T> Clone for MapView<T> {
        fn clone(&self) -> MapView<T> {
            MapView {
                buf: Arc::clone(&self.buf),
                ptr: self.ptr,
                len: self.len,
            }
        }
    }
}

pub(crate) use mapping::MapBuf;
use mapping::MapView;

// ---------------------------------------------------------------------------
// Confined unsafe #2: the Pod marker for reinterpretable element types.
// ---------------------------------------------------------------------------

mod pod {
    #![allow(unsafe_code)]
    use crate::csr::{EdgeId, NodeId};

    /// Marker for types a mapped section may be reinterpreted as: every bit
    /// pattern is a valid value, there is no padding, and the type is its
    /// own little-endian wire format on little-endian hosts.
    ///
    /// # Safety
    /// Implementors must be `repr(transparent)`/`repr(C)` wrappers over (or
    /// exactly) fixed-width primitives with no invalid bit patterns.
    pub unsafe trait Pod: Copy + Send + Sync + 'static {}

    unsafe impl Pod for u32 {}
    unsafe impl Pod for u64 {}
    unsafe impl Pod for f64 {}
    // NodeId / EdgeId are repr(transparent) over u32 (see crate::csr).
    unsafe impl Pod for NodeId {}
    unsafe impl Pod for EdgeId {}
}

pub use pod::Pod;

/// Conversion of one little-endian element from its wire bytes — the safe
/// fallback path's per-element decoder (`bytes.len() == size_of::<Self>()`).
pub trait FromLe: Pod {
    /// Decode one element from exactly `size_of::<Self>()` bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Append this element's little-endian bytes to `out`.
    fn write_le(self, out: &mut Vec<u8>);
}

impl FromLe for u32 {
    fn from_le(b: &[u8]) -> u32 {
        u32::from_le_bytes(b.try_into().expect("4-byte chunk"))
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromLe for u64 {
    fn from_le(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromLe for f64 {
    fn from_le(b: &[u8]) -> f64 {
        f64::from_bits(<u64 as FromLe>::from_le(b))
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl FromLe for NodeId {
    fn from_le(b: &[u8]) -> NodeId {
        NodeId(<u32 as FromLe>::from_le(b))
    }
    fn write_le(self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }
}

impl FromLe for EdgeId {
    fn from_le(b: &[u8]) -> EdgeId {
        EdgeId(<u32 as FromLe>::from_le(b))
    }
    fn write_le(self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }
}

// ---------------------------------------------------------------------------
// Section<T>: owned vector or zero-copy view into a mapped segment.
// ---------------------------------------------------------------------------

/// One typed array of a data structure: either an owned `Vec<T>` (graphs
/// built in memory, or loaded through the safe fallback) or a zero-copy
/// view into a mapped store file. Dereferences to `&[T]`, so consumers
/// index it exactly like the `Vec` it replaced.
pub struct Section<T: Pod>(Repr<T>);

enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped(MapView<T>),
}

impl<T: Pod> Section<T> {
    /// Wrap a zero-copy view. Bounds and alignment are checked once, here
    /// (callers have already validated them against the segment table), so
    /// a bad range fails loudly at construction and access is a plain
    /// slice.
    fn mapped(buf: Arc<MapBuf>, byte_off: usize, len: usize) -> Section<T> {
        Section(Repr::Mapped(MapView::new(buf, byte_off, len)))
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped(view) => view.as_slice(),
        }
    }

    /// Whether this section is a zero-copy view into a mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Repr::Mapped(_))
    }

    /// Mutable access, materializing a mapped view into an owned `Vec`
    /// first (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped(_) = self.0 {
            self.0 = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped(_) => unreachable!("materialized above"),
        }
    }

    /// Extract an owned `Vec`, copying only if this is a mapped view.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(self.to_mut())
    }
}

impl<T: Pod> Deref for Section<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Section<T> {
        Section(Repr::Owned(v))
    }
}

impl<T: Pod> Default for Section<T> {
    fn default() -> Section<T> {
        Section(Repr::Owned(Vec::new()))
    }
}

impl<T: Pod> Clone for Section<T> {
    fn clone(&self) -> Section<T> {
        match &self.0 {
            Repr::Owned(v) => Section(Repr::Owned(v.clone())),
            Repr::Mapped(view) => Section(Repr::Mapped(view.clone())),
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Section<T> {
    fn eq(&self, other: &Section<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Section<T> {}

impl<T: Pod + std::hash::Hash> std::hash::Hash for Section<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

// ---------------------------------------------------------------------------
// Digests.
// ---------------------------------------------------------------------------

fn header_digest(version: u32, meta: &[u64], table: &[(u64, u64)]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(u64::from(version));
    h.write_u64(meta.len() as u64);
    for &w in meta {
        h.write_u64(w);
    }
    h.write_u64(table.len() as u64);
    for &(off, len) in table {
        h.write_u64(off);
        h.write_u64(len);
    }
    h.finish()
}

/// Lane count of the content digest's parallel fold.
const DIGEST_LANES: usize = 8;

/// Fold the zero-padded trailing partial word (if any) into its lane.
#[inline]
fn fold_tail(lanes: &mut [u64; DIGEST_LANES], lane: usize, rem: &[u8]) {
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        lanes[lane] = fx_fold(lanes[lane], u64::from_le_bytes(buf));
    }
}

/// Combine the lane states and the payload length into the final digest.
#[inline]
fn combine_lanes(lanes: &[u64; DIGEST_LANES], payload_len: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(payload_len);
    for &l in lanes {
        h.write_u64(l);
    }
    h.finish()
}

/// The footer digest: an 8-lane Fx fold over the little-endian 64-bit
/// words of the payload (word `i` feeds lane `i mod 8`; a trailing partial
/// word is zero-padded), lanes combined with the payload length by a final
/// serial fold.
///
/// Eight independent fold chains instead of one: the serial
/// rotate-xor-multiply chain of a plain Fx fold runs at ~1 word per 4-5
/// cycles, which would make digest verification — not I/O — the dominant
/// cost of a zero-copy load. The laned fold gives the CPU 8 independent
/// dependency chains and brings verification close to memory speed while
/// still covering every payload byte.
fn content_digest(payload: &[u8]) -> u64 {
    let mut lanes = [0u64; DIGEST_LANES];
    let mut blocks = payload.chunks_exact(8 * DIGEST_LANES);
    for b in &mut blocks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[j * 8..j * 8 + 8].try_into().expect("8-byte chunk"));
            *lane = fx_fold(*lane, w);
        }
    }
    let tail = blocks.remainder();
    let mut words = tail.chunks_exact(8);
    let mut j = 0;
    for w in &mut words {
        lanes[j] = fx_fold(
            lanes[j],
            u64::from_le_bytes(w.try_into().expect("8-byte chunk")),
        );
        j += 1;
    }
    fold_tail(&mut lanes, j, words.remainder());
    combine_lanes(&lanes, payload.len() as u64)
}

/// Hashes payload bytes as they stream past, reproducing
/// [`content_digest`]'s laned fold exactly.
///
/// The lane a word feeds is its *global* word index mod 8, and writes
/// arrive at arbitrary byte boundaries (1-byte padding writes, unaligned
/// section ends), so the carry buffer realigns the stream to full 8-byte
/// words and `widx` tracks the global word position across calls.
struct DigestingWriter<'a, W: Write> {
    inner: &'a mut W,
    lanes: [u64; DIGEST_LANES],
    widx: usize,
    carry: [u8; 8],
    carry_len: usize,
}

impl<'a, W: Write> DigestingWriter<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        DigestingWriter {
            inner,
            lanes: [0u64; DIGEST_LANES],
            widx: 0,
            carry: [0u8; 8],
            carry_len: 0,
        }
    }

    #[inline]
    fn fold_word(&mut self, w: u64) {
        let lane = self.widx % DIGEST_LANES;
        self.lanes[lane] = fx_fold(self.lanes[lane], w);
        self.widx += 1;
    }

    fn update(&mut self, mut buf: &[u8]) {
        if self.carry_len > 0 {
            let take = (8 - self.carry_len).min(buf.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&buf[..take]);
            self.carry_len += take;
            buf = &buf[take..];
            if self.carry_len < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.carry);
            self.fold_word(w);
            self.carry_len = 0;
        }
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.fold_word(w);
        }
        let rem = words.remainder();
        self.carry[..rem.len()].copy_from_slice(rem);
        self.carry_len = rem.len();
    }

    fn finish(mut self, payload_len: u64) -> u64 {
        if self.carry_len > 0 {
            // A trailing partial word is zero-padded, exactly like the
            // one-shot hash of the full payload.
            let mut buf = [0u8; 8];
            buf[..self.carry_len].copy_from_slice(&self.carry[..self.carry_len]);
            let w = u64::from_le_bytes(buf);
            self.fold_word(w);
        }
        combine_lanes(&self.lanes, payload_len)
    }
}

impl<W: Write> Write for DigestingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write_all(buf)?;
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Generic segment writer.
// ---------------------------------------------------------------------------

/// One section's elements, borrowed for writing.
#[derive(Clone, Copy)]
pub enum SectionData<'a> {
    /// A `u32` array (offset arrays).
    U32(&'a [u32]),
    /// A `u64` array (RR offsets, widths).
    U64(&'a [u64]),
    /// An `f64` array, stored as IEEE-754 bits.
    F64(&'a [f64]),
    /// A node-id array, stored as `u32`.
    Nodes(&'a [NodeId]),
    /// An edge-id array, stored as `u32`.
    EdgeIds(&'a [EdgeId]),
}

impl SectionData<'_> {
    fn byte_len(&self) -> u64 {
        match self {
            SectionData::U32(s) => s.len() as u64 * 4,
            SectionData::U64(s) => s.len() as u64 * 8,
            SectionData::F64(s) => s.len() as u64 * 8,
            SectionData::Nodes(s) => s.len() as u64 * 4,
            SectionData::EdgeIds(s) => s.len() as u64 * 4,
        }
    }

    fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        // Chunked element-wise encoding: safe, endian-explicit, and cheap
        // (the chunk buffer keeps syscall and hasher granularity coarse).
        const CHUNK: usize = 64 * 1024;
        let mut buf = Vec::with_capacity(CHUNK.min(self.byte_len() as usize + 8));
        macro_rules! stream {
            ($slice:expr) => {
                for &x in $slice {
                    FromLe::write_le(x, &mut buf);
                    if buf.len() >= CHUNK {
                        w.write_all(&buf)?;
                        buf.clear();
                    }
                }
            };
        }
        match self {
            SectionData::U32(s) => stream!(*s),
            SectionData::U64(s) => stream!(*s),
            SectionData::F64(s) => stream!(*s),
            SectionData::Nodes(s) => stream!(*s),
            SectionData::EdgeIds(s) => stream!(*s),
        }
        if !buf.is_empty() {
            w.write_all(&buf)?;
        }
        Ok(())
    }
}

fn round_up8(x: u64) -> u64 {
    (x + 7) & !7
}

/// Write a complete segment (header, table, aligned sections, footer
/// digest). `w` should be buffered; the graph/RR wrappers buffer for you.
pub fn write_segment<W: Write>(
    w: &mut W,
    magic: &[u8; 8],
    version: u32,
    meta: &[u64],
    sections: &[SectionData<'_>],
) -> std::io::Result<()> {
    assert!(sections.len() <= MAX_SECTIONS, "too many sections");
    let prefix = 8 + 4 + 8 * meta.len() as u64 + 4 + 8;
    let table_end = prefix + 16 * sections.len() as u64;

    // Lay the sections out 8-byte aligned.
    let mut table = Vec::with_capacity(sections.len());
    let mut cur = table_end;
    for s in sections {
        cur = round_up8(cur);
        table.push((cur, s.byte_len()));
        cur += s.byte_len();
    }
    let payload_len = cur - table_end;

    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    for &word in meta {
        w.write_all(&word.to_le_bytes())?;
    }
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    w.write_all(&header_digest(version, meta, &table).to_le_bytes())?;
    for &(off, len) in &table {
        w.write_all(&off.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
    }

    // Payload region, streamed through the laned content hasher.
    let mut dw = DigestingWriter::new(w);
    let mut pos = table_end;
    for (s, &(off, _)) in sections.iter().zip(&table) {
        while pos < off {
            dw.write_all(&[0u8])?;
            pos += 1;
        }
        s.write_to(&mut dw)?;
        pos += s.byte_len();
    }
    let digest = dw.finish(payload_len);
    w.write_all(&digest.to_le_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Generic segment reader.
// ---------------------------------------------------------------------------

enum SegBytes {
    Owned(Vec<u8>),
    Mapped(Arc<MapBuf>),
}

impl SegBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            SegBytes::Owned(v) => v,
            SegBytes::Mapped(m) => m.as_slice(),
        }
    }
}

/// A parsed, digest-verified segment file. Typed section accessors hand out
/// zero-copy [`Section`] views (mapped files) or owned conversions (bulk
/// reads) — identical contents either way.
pub struct SegmentFile {
    bytes: SegBytes,
    meta: Vec<u64>,
    table: Vec<(usize, usize)>,
}

fn corrupt(msg: impl Into<String>) -> GraphError {
    GraphError::Corrupt(msg.into())
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("in-bounds u32"))
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("in-bounds u64"))
}

impl SegmentFile {
    /// Open and verify a segment file under the process-wide [`active`]
    /// mode.
    pub fn open(
        path: &Path,
        magic: &[u8; 8],
        version: u32,
        meta_len: usize,
    ) -> Result<SegmentFile, GraphError> {
        Self::open_with(path, magic, version, meta_len, active())
    }

    /// [`SegmentFile::open`] with an explicit mode. A failed mapping (e.g.
    /// an empty file, or an unsupported target) falls back to the bulk
    /// read; parse failures are typed errors either way.
    pub fn open_with(
        path: &Path,
        magic: &[u8; 8],
        version: u32,
        meta_len: usize,
        mode: StoreMode,
    ) -> Result<SegmentFile, GraphError> {
        let mut f = File::open(path).map_err(GraphError::Io)?;
        let file_len = f.metadata().map_err(GraphError::Io)?.len();
        let len = usize::try_from(file_len)
            .map_err(|_| corrupt(format!("segment file too large ({file_len} bytes)")))?;
        let bytes = match mode {
            StoreMode::Mmap => match MapBuf::map(&f, len) {
                Ok(m) => SegBytes::Mapped(Arc::new(m)),
                Err(_) => SegBytes::Owned(Self::read_all(&mut f, len)?),
            },
            StoreMode::Read => SegBytes::Owned(Self::read_all(&mut f, len)?),
        };
        Self::parse(bytes, magic, version, meta_len)
    }

    fn read_all(f: &mut File, len: usize) -> Result<Vec<u8>, GraphError> {
        let mut buf = Vec::with_capacity(len);
        f.read_to_end(&mut buf).map_err(GraphError::Io)?;
        Ok(buf)
    }

    /// Parse and verify a segment already in memory (always the safe owned
    /// representation — the `*_bytes` readers and tests use this).
    pub fn from_bytes(
        bytes: Vec<u8>,
        magic: &[u8; 8],
        version: u32,
        meta_len: usize,
    ) -> Result<SegmentFile, GraphError> {
        Self::parse(SegBytes::Owned(bytes), magic, version, meta_len)
    }

    fn parse(
        bytes: SegBytes,
        magic: &[u8; 8],
        version: u32,
        meta_len: usize,
    ) -> Result<SegmentFile, GraphError> {
        let b = bytes.as_slice();
        // prefix = magic + version + meta + section count + header digest.
        let prefix = 8 + 4 + 8 * meta_len + 4 + 8;
        if b.len() < prefix + 8 {
            return Err(corrupt(format!(
                "segment truncated: {} bytes, header needs {}",
                b.len(),
                prefix + 8
            )));
        }
        if &b[..8] != magic {
            return Err(corrupt("bad segment magic"));
        }
        let found = read_u32(b, 8);
        if found != version {
            return Err(GraphError::UnsupportedVersion {
                found,
                supported: version,
            });
        }
        let meta: Vec<u64> = (0..meta_len).map(|i| read_u64(b, 12 + 8 * i)).collect();
        let nsec_off = 12 + 8 * meta_len;
        let nsec = read_u32(b, nsec_off) as usize;
        if nsec > MAX_SECTIONS {
            return Err(corrupt(format!("implausible section count {nsec}")));
        }
        let recorded_header = read_u64(b, nsec_off + 4);
        let table_off = prefix;
        let table_bytes = 16 * nsec;
        let Some(payload_start) = table_off.checked_add(table_bytes) else {
            return Err(corrupt("section table overflows"));
        };
        if b.len() < payload_start + 8 {
            return Err(corrupt(format!(
                "segment truncated: {} bytes, table needs {}",
                b.len(),
                payload_start + 8
            )));
        }
        let raw_table: Vec<(u64, u64)> = (0..nsec)
            .map(|i| {
                (
                    read_u64(b, table_off + 16 * i),
                    read_u64(b, table_off + 16 * i + 8),
                )
            })
            .collect();
        let computed_header = header_digest(version, &meta, &raw_table);
        if computed_header != recorded_header {
            return Err(GraphError::DigestMismatch {
                expected: recorded_header,
                found: computed_header,
            });
        }
        let payload_end = b.len() - 8;
        let recorded_content = read_u64(b, payload_end);
        let computed_content = content_digest(&b[payload_start..payload_end]);
        if computed_content != recorded_content {
            return Err(GraphError::DigestMismatch {
                expected: recorded_content,
                found: computed_content,
            });
        }
        // With both digests verified, the table entries still get full
        // bounds/alignment validation — digests are strong checksums, not
        // proofs of honest construction.
        let mut table = Vec::with_capacity(nsec);
        for (i, &(off, len)) in raw_table.iter().enumerate() {
            let (off, len) = match (usize::try_from(off), usize::try_from(len)) {
                (Ok(o), Ok(l)) => (o, l),
                _ => return Err(corrupt(format!("section {i}: range overflows"))),
            };
            let in_bounds = off >= payload_start
                && off % 8 == 0
                && off.checked_add(len).is_some_and(|end| end <= payload_end);
            if !in_bounds {
                return Err(corrupt(format!("section {i}: range out of bounds")));
            }
            table.push((off, len));
        }
        Ok(SegmentFile { bytes, meta, table })
    }

    /// The format-specific meta words.
    pub fn meta(&self) -> &[u64] {
        &self.meta
    }

    /// Number of sections in the table.
    pub fn num_sections(&self) -> usize {
        self.table.len()
    }

    /// Element count of section `i` if its byte length divides evenly by
    /// `size_of::<T>()`; typed error otherwise.
    pub fn section_elems<T: Pod>(&self, i: usize) -> Result<usize, GraphError> {
        let &(_, len) = self
            .table
            .get(i)
            .ok_or_else(|| corrupt(format!("missing section {i}")))?;
        let size = std::mem::size_of::<T>();
        if len % size != 0 {
            return Err(corrupt(format!(
                "section {i}: {len} bytes is not a whole number of {size}-byte elements"
            )));
        }
        Ok(len / size)
    }

    /// Section `i` as `expected` elements of `T`: a zero-copy view when the
    /// segment is mapped, an owned little-endian conversion otherwise.
    pub fn section<T: FromLe>(&self, i: usize, expected: usize) -> Result<Section<T>, GraphError> {
        let &(off, len) = self
            .table
            .get(i)
            .ok_or_else(|| corrupt(format!("missing section {i}")))?;
        let size = std::mem::size_of::<T>();
        let want = expected
            .checked_mul(size)
            .ok_or_else(|| corrupt(format!("section {i}: size overflows")))?;
        if len != want {
            return Err(corrupt(format!(
                "section {i}: expected {want} bytes, found {len}"
            )));
        }
        match &self.bytes {
            SegBytes::Mapped(buf) => Ok(Section::mapped(Arc::clone(buf), off, expected)),
            SegBytes::Owned(b) => Ok(b[off..off + len]
                .chunks_exact(size)
                .map(T::from_le)
                .collect::<Vec<T>>()
                .into()),
        }
    }
}

// ---------------------------------------------------------------------------
// The COMICGRB v4 graph store.
// ---------------------------------------------------------------------------

/// Serialize `g` in the v4 zero-copy layout. `source_digest` is the
/// length-prefixed Fx digest of the source text this graph was built from
/// ([`crate::io::source_digest`]), or [`crate::io::NO_SOURCE_DIGEST`].
pub fn write_store<W: Write>(g: &DiGraph, source_digest: u64, w: W) -> Result<(), GraphError> {
    let parts = g.csr_parts();
    let meta = [g.num_nodes() as u64, g.num_edges() as u64, source_digest];
    let sections = [
        SectionData::U32(parts.out_offsets),
        SectionData::Nodes(parts.out_targets),
        SectionData::F64(parts.out_probs),
        SectionData::U32(parts.in_offsets),
        SectionData::Nodes(parts.in_sources),
        SectionData::F64(parts.in_probs),
        SectionData::EdgeIds(parts.in_edge_ids),
    ];
    let mut w = BufWriter::new(w);
    write_segment(&mut w, STORE_MAGIC, STORE_FORMAT_VERSION, &meta, &sections)
        .and_then(|()| w.flush())
        .map_err(GraphError::Io)
}

/// [`write_store`] to a fresh file at `path` (not atomic; callers that need
/// atomicity write to a temp name and rename, as the dataset cache does).
pub fn write_store_file(g: &DiGraph, source_digest: u64, path: &Path) -> Result<(), GraphError> {
    let f = File::create(path).map_err(GraphError::Io)?;
    write_store(g, source_digest, f)
}

/// Load a v4 store file under the process-wide [`active`] mode, verifying
/// integrity, source provenance (when `expected_source` is `Some` and the
/// file records a real digest), and CSR structure.
pub fn read_store_file(path: &Path, expected_source: Option<u64>) -> Result<DiGraph, GraphError> {
    read_store_file_with(path, expected_source, active())
}

/// [`read_store_file`] with an explicit [`StoreMode`].
pub fn read_store_file_with(
    path: &Path,
    expected_source: Option<u64>,
    mode: StoreMode,
) -> Result<DiGraph, GraphError> {
    let seg = SegmentFile::open_with(
        path,
        STORE_MAGIC,
        STORE_FORMAT_VERSION,
        GRAPH_META_LEN,
        mode,
    )?;
    graph_from_segment(seg, expected_source)
}

/// Load a v4 store from an in-memory byte buffer (always the safe owned
/// path).
pub fn read_store_bytes(
    bytes: Vec<u8>,
    expected_source: Option<u64>,
) -> Result<DiGraph, GraphError> {
    let seg = SegmentFile::from_bytes(bytes, STORE_MAGIC, STORE_FORMAT_VERSION, GRAPH_META_LEN)?;
    graph_from_segment(seg, expected_source)
}

fn graph_from_segment(
    seg: SegmentFile,
    expected_source: Option<u64>,
) -> Result<DiGraph, GraphError> {
    let [n64, m64, recorded_source] = seg.meta() else {
        unreachable!("GRAPH_META_LEN is 3");
    };
    let (n64, m64, recorded_source) = (*n64, *m64, *recorded_source);
    if n64 > MAX_PLAUSIBLE_NODES {
        return Err(corrupt(format!("implausible node count {n64}")));
    }
    if m64 > MAX_PLAUSIBLE_EDGES {
        return Err(corrupt(format!("implausible edge count {m64}")));
    }
    if seg.num_sections() != GRAPH_SECTIONS {
        return Err(corrupt(format!(
            "graph store needs {GRAPH_SECTIONS} sections, found {}",
            seg.num_sections()
        )));
    }
    // Integrity is proven; staleness ranks above structure: a digest-valid
    // cache of *different* source text is stale, not corrupt. Files written
    // without provenance skip the check.
    if let Some(expected) = expected_source {
        if recorded_source != crate::io::NO_SOURCE_DIGEST && recorded_source != expected {
            return Err(GraphError::StaleSource {
                artifact: StaleArtifact::SourceCache,
                expected,
                found: recorded_source,
            });
        }
    }
    let n = n64 as usize;
    let m = m64 as usize;
    let out_offsets: Section<u32> = seg.section(0, n + 1)?;
    let out_targets: Section<NodeId> = seg.section(1, m)?;
    let out_probs: Section<f64> = seg.section(2, m)?;
    let in_offsets: Section<u32> = seg.section(3, n + 1)?;
    let in_sources: Section<NodeId> = seg.section(4, m)?;
    let in_probs: Section<f64> = seg.section(5, m)?;
    let in_edge_ids: Section<EdgeId> = seg.section(6, m)?;
    validate_csr(n, m, &out_offsets, &out_targets, &out_probs, "out")?;
    validate_csr(n, m, &in_offsets, &in_sources, &in_probs, "in")?;
    if in_edge_ids.iter().map(|e| e.index()).max() >= Some(m) {
        return Err(corrupt("in-CSR edge id out of range"));
    }
    Ok(DiGraph::from_csr_parts(
        n,
        out_offsets,
        out_targets,
        out_probs,
        in_offsets,
        in_sources,
        in_probs,
        in_edge_ids,
    ))
}

/// O(n + m) structural validation of one CSR direction. The digests catch
/// corruption; this catches *crafted* digest-consistent files, so the
/// samplers can index sections without bounds anxiety and `has_edge`'s
/// binary search stays sound.
fn validate_csr(
    n: usize,
    m: usize,
    offsets: &[u32],
    heads: &[NodeId],
    probs: &[f64],
    side: &str,
) -> Result<(), GraphError> {
    if offsets[0] != 0 {
        return Err(corrupt(format!("{side}-CSR offsets must start at 0")));
    }
    if offsets[n] as usize != m {
        return Err(corrupt(format!(
            "{side}-CSR offsets must end at the edge count"
        )));
    }
    // Validation is on every load's critical path — the whole point of v4
    // is that load time is verification time — so every full scan below is
    // a branchless flat pass the compiler can vectorize, never a per-node
    // loop over short slices.
    //
    // Offsets monotone (`offsets[n] == m` above bounds every value by `m`).
    let mut mono = true;
    for w in offsets.windows(2) {
        mono &= w[0] <= w[1];
    }
    if !mono {
        return Err(corrupt(format!("{side}-CSR offsets must be monotone")));
    }
    // Id range: one max reduction instead of a per-range check.
    if heads.iter().map(|v| v.index()).max() >= Some(n) {
        return Err(corrupt(format!("{side}-CSR node id out of range")));
    }
    // Per-range heads strictly ascending: the builder's canonical order,
    // which has_edge and the delta compaction rely on, and which also rules out
    // duplicate edges. Equivalent counting form, because boundary descents
    // are a subset of all descents: the number of adjacent-pair descents
    // across the whole array must equal the number of descents at range
    // boundaries. The first count is a branchless fold (a per-pair `if` on
    // real data is an unpredictable branch — descents hit at boundary
    // density); the second touches only the ~n boundary pairs.
    let mut desc = 0usize;
    for w in heads.windows(2) {
        desc += usize::from(w[0] >= w[1]);
    }
    let mut boundary_desc = 0usize;
    if n > 1 {
        let mut prev = offsets[0];
        for &p in &offsets[1..n] {
            // Skip repeats (empty ranges share a boundary position) and
            // the array ends, where no adjacent pair exists.
            if p != prev && p >= 1 && (p as usize) < m {
                boundary_desc += usize::from(heads[p as usize - 1] >= heads[p as usize]);
            }
            prev = p;
        }
    }
    if desc != boundary_desc {
        return Err(corrupt(format!("{side}-CSR adjacency not sorted")));
    }
    // `p >= 0 && p <= 1` rejects NaN too (all NaN compares are false).
    let mut in_domain = true;
    for p in probs {
        in_domain &= *p >= 0.0 && *p <= 1.0;
    }
    if !in_domain {
        return Err(corrupt(format!("{side}-CSR probability outside [0, 1]")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::io::{graph_digest, NO_SOURCE_DIGEST};

    fn sample_graph() -> DiGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.5);
        b.add_edge(0, 2, 0.25);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 0.125);
        b.add_edge(3, 4, 0.0);
        b.add_edge(4, 0, 0.75);
        b.build().unwrap()
    }

    fn store_bytes(g: &DiGraph, src: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_store(g, src, &mut buf).unwrap();
        buf
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "comic_store_test_{}_{}_{tag}.grb",
            std::process::id(),
            k
        ))
    }

    #[test]
    fn round_trips_and_digest_matches() {
        let g = sample_graph();
        let bytes = store_bytes(&g, NO_SOURCE_DIGEST);
        let h = read_store_bytes(bytes.clone(), None).unwrap();
        assert_eq!(graph_digest(&g), graph_digest(&h));
        assert_eq!(g.num_nodes(), h.num_nodes());
        assert_eq!(g.num_edges(), h.num_edges());
        // Bit-exact re-serialization.
        assert_eq!(bytes, store_bytes(&h, NO_SOURCE_DIGEST));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(0).build().unwrap();
        let h = read_store_bytes(store_bytes(&g, NO_SOURCE_DIGEST), None).unwrap();
        assert_eq!(h.num_nodes(), 0);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(graph_digest(&g), graph_digest(&h));
    }

    #[test]
    fn file_round_trip_in_both_modes() {
        let g = sample_graph();
        let path = tmp_path("modes");
        write_store_file(&g, NO_SOURCE_DIGEST, &path).unwrap();
        for mode in [StoreMode::Read, StoreMode::Mmap] {
            let h = read_store_file_with(&path, None, mode).unwrap();
            assert_eq!(graph_digest(&g), graph_digest(&h), "mode {}", mode.name());
            if mode == StoreMode::Mmap && mmap_supported() {
                assert!(h.is_mapped(), "mmap mode should produce mapped sections");
            }
            // Mapped or owned, the graph keeps working after clone + drop
            // of the original handle order.
            let h2 = h.clone();
            drop(h);
            assert_eq!(graph_digest(&g), graph_digest(&h2));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_digest_staleness_is_typed() {
        let g = sample_graph();
        let bytes = store_bytes(&g, 111);
        assert!(read_store_bytes(bytes.clone(), Some(111)).is_ok());
        match read_store_bytes(bytes, Some(222)) {
            Err(GraphError::StaleSource {
                artifact: StaleArtifact::SourceCache,
                expected: 222,
                found: 111,
            }) => {}
            other => panic!("expected StaleSource, got {other:?}"),
        }
        // Provenance-free stores skip the check entirely.
        assert!(read_store_bytes(store_bytes(&g, NO_SOURCE_DIGEST), Some(222)).is_ok());
    }

    #[test]
    fn older_version_field_is_rejected_with_typed_version_error() {
        // A cache whose version field reads 3 (the retired edge-record
        // layout) is refused before any other header field is trusted; the
        // dataset loader rebuilds such caches from source text.
        let mut b = store_bytes(&sample_graph(), NO_SOURCE_DIGEST);
        b[8..12].copy_from_slice(&3u32.to_le_bytes());
        match read_store_bytes(b, None) {
            Err(GraphError::UnsupportedVersion {
                found: 3,
                supported: STORE_FORMAT_VERSION,
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_header_is_typed() {
        // The acceptance fuzz: all 352 single-bit flips over the first 44
        // bytes (magic, version, n, m, source digest, section count, part
        // of the header digest) must yield typed errors — never a panic,
        // never a giant allocation. None reads as staleness: the header
        // digest covers the recorded source digest.
        let g = sample_graph();
        let bytes = store_bytes(&g, 777);
        for byte in 0..44 {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[byte] ^= 1 << bit;
                match read_store_bytes(b, Some(777)) {
                    Err(
                        GraphError::Corrupt(_)
                        | GraphError::UnsupportedVersion { .. }
                        | GraphError::DigestMismatch { .. },
                    ) => {}
                    Ok(_) => panic!("flip {byte}.{bit} accepted"),
                    Err(other) => panic!("flip {byte}.{bit}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn payload_and_footer_flips_are_rejected() {
        let g = sample_graph();
        let bytes = store_bytes(&g, NO_SOURCE_DIGEST);
        // Walk a spread of payload positions plus the final footer bytes.
        let positions: Vec<usize> = (44..bytes.len())
            .step_by(7)
            .chain(bytes.len() - 8..bytes.len())
            .collect();
        for pos in positions {
            let mut b = bytes.clone();
            b[pos] ^= 0x10;
            assert!(
                read_store_bytes(b, None).is_err(),
                "flip at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let g = sample_graph();
        let bytes = store_bytes(&g, NO_SOURCE_DIGEST);
        for keep in [0, 7, 8, 43, 44, 47, 48, bytes.len() / 2, bytes.len() - 1] {
            let b = bytes[..keep].to_vec();
            assert!(read_store_bytes(b, None).is_err(), "truncation at {keep}");
        }
    }

    #[test]
    fn implausible_counts_fail_typed_even_with_valid_digests() {
        // Craft a file whose digests are self-consistent but whose node
        // count is absurd: the reader must reject on the implausibility cap
        // (typed Corrupt) without attempting an n-sized allocation.
        let huge_n = 1u64 << 50;
        let meta = [huge_n, 0u64, NO_SOURCE_DIGEST];
        let empty: [u32; 0] = [];
        let sections = vec![SectionData::U32(&empty); GRAPH_SECTIONS];
        let mut bytes = Vec::new();
        write_segment(
            &mut bytes,
            STORE_MAGIC,
            STORE_FORMAT_VERSION,
            &meta,
            &sections,
        )
        .unwrap();
        match read_store_bytes(bytes, None) {
            Err(GraphError::Corrupt(msg)) => {
                assert!(msg.contains("implausible node count"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crafted_structural_corruption_is_typed() {
        // Rewrite a section with garbage *and* fix the digests: structural
        // validation is the last line of defense.
        let g = sample_graph();
        let base = store_bytes(&g, NO_SOURCE_DIGEST);
        let seg = SegmentFile::from_bytes(
            base.clone(),
            STORE_MAGIC,
            STORE_FORMAT_VERSION,
            GRAPH_META_LEN,
        )
        .unwrap();
        let (off, _) = seg.table[1]; // out_targets
        drop(seg);
        let mut b = base;
        // Point the last out-target (node 4's single edge) at node 999 —
        // out of range for n = 6, but still sorted within its range, so
        // only the id-range check can catch it…
        let last = off + 4 * (g.num_edges() - 1);
        b[last..last + 4].copy_from_slice(&999u32.to_le_bytes());
        // …and recompute the footer so both digests verify.
        let payload_start = 8 + 4 + 8 * GRAPH_META_LEN + 4 + 8 + 16 * GRAPH_SECTIONS;
        let end = b.len() - 8;
        let d = content_digest(&b[payload_start..end]);
        b[end..].copy_from_slice(&d.to_le_bytes());
        match read_store_bytes(b, None) {
            Err(GraphError::Corrupt(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn mode_dispatch_is_stable_and_honors_off() {
        assert_eq!(active(), active());
        if std::env::var("COMIC_MMAP")
            .map(|v| ["off", "read", "0", "false"].contains(&v.to_ascii_lowercase().as_str()))
            == Ok(true)
        {
            assert_eq!(active(), StoreMode::Read);
        }
        assert_eq!(StoreMode::Mmap.name(), "mmap");
        assert_eq!(StoreMode::Read.name(), "read");
    }

    #[test]
    fn section_copy_on_write_materializes_mapped_views() {
        let g = sample_graph();
        let path = tmp_path("cow");
        write_store_file(&g, NO_SOURCE_DIGEST, &path).unwrap();
        if !mmap_supported() {
            std::fs::remove_file(&path).ok();
            return;
        }
        let seg = SegmentFile::open_with(
            &path,
            STORE_MAGIC,
            STORE_FORMAT_VERSION,
            GRAPH_META_LEN,
            StoreMode::Mmap,
        )
        .unwrap();
        let mut s: Section<u32> = seg.section(0, g.num_nodes() + 1).unwrap();
        assert!(s.is_mapped());
        let before = s.to_vec();
        s.to_mut().push(42);
        assert!(!s.is_mapped());
        assert_eq!(&s[..s.len() - 1], &before[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_views_are_range_checked_at_construction() {
        let g = sample_graph();
        let path = tmp_path("view");
        write_store_file(&g, NO_SOURCE_DIGEST, &path).unwrap();
        if !mmap_supported() {
            std::fs::remove_file(&path).ok();
            return;
        }
        let seg = SegmentFile::open_with(
            &path,
            STORE_MAGIC,
            STORE_FORMAT_VERSION,
            GRAPH_META_LEN,
            StoreMode::Mmap,
        )
        .unwrap();
        let SegBytes::Mapped(buf) = &seg.bytes else {
            panic!("mmap mode should map the file");
        };
        let len = buf.as_slice().len();
        let words = MapView::<u64>::new(Arc::clone(buf), 0, len / 8);
        assert_eq!(words.as_slice()[0], u64::from_le_bytes(*STORE_MAGIC));
        assert!(MapView::<u64>::new(Arc::clone(buf), len, 0)
            .as_slice()
            .is_empty());
        // Past the end, misaligned, and overflowing ranges never become a
        // view.
        for (off, n) in [
            (0, len / 8 + 1),
            (len, 1),
            (4, 1),
            (usize::MAX, 1),
            (0, usize::MAX),
        ] {
            let buf = Arc::clone(buf);
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                MapView::<u64>::new(buf, off, n)
            }));
            assert!(built.is_err(), "view at {off} of {n} words must panic");
        }
        drop(seg);
        std::fs::remove_file(&path).ok();
    }
}
