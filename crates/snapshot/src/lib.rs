//! # bfetch-snapshot
//!
//! A zero-dependency, versioned binary snapshot codec for deterministic
//! checkpoint/restore of the simulator.
//!
//! The repository must build with no access to crates.io, so instead of
//! serde the crate provides a small hand-rolled codec:
//!
//! * [`Encoder`] / [`Decoder`] — little-endian primitive I/O over a byte
//!   buffer, with every read bounds-checked so a truncated input surfaces
//!   as a typed [`SnapshotError`], never a panic or UB.
//! * [`Snap`] — value (de)serialization, implemented for primitives and
//!   common containers, and derived for plain structs with
//!   [`impl_snap_struct!`].
//! * [`SnapState`] — in-place state (de)serialization for structs whose
//!   *geometry* (table sizes, associativity, …) is rebuilt from the
//!   configuration: `load_state` restores mutable state into a freshly
//!   constructed value and fails with a typed error when the stored
//!   geometry disagrees.
//! * [`FrameWriter`] / [`FrameReader`] — the on-disk container: a magic
//!   header, a schema version, length-prefixed sections and a trailing
//!   CRC-32 over the whole file. Any single-byte truncation or bit flip is
//!   caught by the framing or the checksum.
//!
//! Determinism is a design requirement: encoding is canonical (no
//! iteration-order-dependent output — unordered containers must be sorted
//! by the caller before encoding), so `encode(decode(bytes)) == bytes` for
//! any valid snapshot.
//!
//! # Example
//!
//! ```
//! use bfetch_snapshot::{Decoder, Encoder, Snap};
//! let mut w = Encoder::new();
//! (7u64, vec![1u32, 2, 3]).save(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = Decoder::new(&bytes);
//! let back: (u64, Vec<u32>) = Snap::load(&mut r).unwrap();
//! assert_eq!(back, (7, vec![1, 2, 3]));
//! ```

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file ("BFSNAP" + container rev).
pub const MAGIC: [u8; 8] = *b"BFSNAP01";

/// Schema version of the *contents* (section layout and struct fields).
///
/// Bump this whenever any `Snap`/`SnapState` impl changes its byte layout;
/// readers reject every version other than their own — see DESIGN.md §15
/// for the compatibility policy.
pub const SCHEMA_VERSION: u32 = 2;

/// Typed error for every way a snapshot can fail to load.
///
/// All decode paths funnel into this type: corrupt, truncated or
/// version-skewed snapshots must never panic and never produce UB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a read of `need` bytes at offset `at`.
    Truncated { at: usize, need: usize },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's schema version is not [`SCHEMA_VERSION`].
    BadVersion { got: u32, want: u32 },
    /// The trailing CRC-32 does not match the file contents.
    BadChecksum { got: u32, want: u32 },
    /// A decoded value is structurally invalid (bad enum discriminant,
    /// geometry mismatch, out-of-range index, …).
    Invalid { what: &'static str },
    /// A required section is absent from the frame.
    MissingSection { id: u32 },
    /// A section decoder left unread bytes behind.
    TrailingBytes { left: usize },
    /// A filesystem operation failed (message is the `io::Error` text).
    Io { op: &'static str, detail: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at, need } => {
                write!(f, "snapshot truncated: need {need} bytes at offset {at}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { got, want } => {
                write!(f, "unsupported snapshot schema version {got} (expected {want})")
            }
            SnapshotError::BadChecksum { got, want } => {
                write!(f, "snapshot checksum mismatch: file says {got:#010x}, computed {want:#010x}")
            }
            SnapshotError::Invalid { what } => write!(f, "invalid snapshot field: {what}"),
            SnapshotError::MissingSection { id } => write!(f, "snapshot is missing section {id}"),
            SnapshotError::TrailingBytes { left } => {
                write!(f, "snapshot section has {left} unread trailing bytes")
            }
            SnapshotError::Io { op, detail } => write!(f, "snapshot {op} failed: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    fn io(op: &'static str, e: std::io::Error) -> Self {
        SnapshotError::Io { op, detail: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so eight table lookups
/// fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Running CRC-32 (IEEE), for checksumming a frame written piece by piece.
struct Crc32(u32);

impl Crc32 {
    /// A checksum over no bytes yet.
    fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of every byte folded in so far.
    fn value(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE) of `bytes`, as used for the whole-file checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.value()
}

// ---------------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes `xs` as consecutive little-endian `u64`s (no length prefix);
    /// the same bytes as a `put_u64` per element, in one bulk copy.
    pub fn put_u64s(&mut self, xs: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * 8, 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(SnapshotError::TrailingBytes { left }),
        }
    }

    /// Takes `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { at: self.pos, need: n });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Fills `dst` with consecutive little-endian `u64`s (the counterpart
    /// of [`Encoder::put_u64s`]), checking the bounds once for the slice.
    pub fn take_u64s(&mut self, dst: &mut [u64]) -> Result<(), SnapshotError> {
        // a `[u64]` never spans more than `isize::MAX` bytes, so no overflow
        let src = self.take_bytes(dst.len() * 8)?;
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(8)) {
            *d = u64::from_le_bytes(s.try_into().unwrap());
        }
        Ok(())
    }

    /// Takes a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Invalid { what: "usize overflows platform word" })
    }

    /// Takes a container length stored as `u64`.
    ///
    /// Every encoded element occupies at least one byte, so a length larger
    /// than the remaining input is provably corrupt — rejecting it here
    /// keeps a flipped length byte from triggering a huge allocation.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Invalid { what: "container length exceeds remaining input" });
        }
        Ok(n)
    }

    /// Takes a length-prefixed byte string.
    pub fn take_len_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_len()?;
        self.take_bytes(n)
    }
}

// ---------------------------------------------------------------------------
// Snap: value (de)serialization
// ---------------------------------------------------------------------------

/// Canonical binary (de)serialization of a value.
///
/// `load(save(x)) == x` must hold, and `save` must be canonical: equal
/// values encode to equal bytes (sort unordered containers first).
pub trait Snap: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut Encoder);
    /// Decodes a value, failing with a typed error on any corruption.
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError>;
}

/// In-place state (de)serialization for geometry-bearing structs.
///
/// `load_state` restores into a value freshly constructed from the same
/// configuration the snapshot stores; stored geometry that disagrees with
/// the constructed value is a typed [`SnapshotError::Invalid`], never a
/// panic.
pub trait SnapState {
    /// Appends this value's mutable state to `w`.
    fn save_state(&self, w: &mut Encoder);
    /// Restores mutable state previously written by `save_state`.
    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError>;
}

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Snap for $ty {
            fn save(&self, w: &mut Encoder) {
                w.$put(*self);
            }
            fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    };
}

snap_prim!(u8, put_u8, take_u8);
snap_prim!(u16, put_u16, take_u16);
snap_prim!(u32, put_u32, take_u32);
snap_prim!(u64, put_u64, take_u64);
snap_prim!(usize, put_usize, take_usize);

impl Snap for i8 {
    fn save(&self, w: &mut Encoder) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u8()? as i8)
    }
}

impl Snap for i32 {
    fn save(&self, w: &mut Encoder) {
        w.put_u32(*self as u32);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u32()? as i32)
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut Encoder) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u64()? as i64)
    }
}

impl Snap for f64 {
    /// Stored via `to_bits`, so NaN payloads and signed zeros round-trip.
    fn save(&self, w: &mut Encoder) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut Encoder) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid { what: "bool byte not 0 or 1" }),
        }
    }
}

impl Snap for String {
    fn save(&self, w: &mut Encoder) {
        w.put_len_bytes(self.as_bytes());
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let bytes = r.take_len_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Invalid { what: "string is not UTF-8" })
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut Encoder) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapshotError::Invalid { what: "Option tag not 0 or 1" }),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut Encoder) {
        (**self).save(w);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut Encoder) {
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        Ok(out.try_into().unwrap_or_else(|_| unreachable!()))
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn save(&self, w: &mut Encoder) {
                $( self.$idx.save(w); )+
            }
            fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A: 0);
snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Loads exactly `expect` elements into an existing slice; a stored length
/// that disagrees with the live geometry is a typed error.
pub fn load_slice_exact<T: Snap>(dst: &mut [T], r: &mut Decoder<'_>, what: &'static str) -> Result<(), SnapshotError> {
    let n = r.take_len()?;
    if n != dst.len() {
        return Err(SnapshotError::Invalid { what });
    }
    for slot in dst.iter_mut() {
        *slot = T::load(r)?;
    }
    Ok(())
}

/// Saves a slice with a length prefix (counterpart of [`load_slice_exact`]).
pub fn save_slice<T: Snap>(xs: &[T], w: &mut Encoder) {
    w.put_usize(xs.len());
    for x in xs {
        x.save(w);
    }
}

/// Saves a `HashMap` in canonical (key-sorted) order so the encoding is a
/// pure function of the map's contents, independent of hasher state.
pub fn save_sorted_map<K, V>(m: &std::collections::HashMap<K, V>, w: &mut Encoder)
where
    K: Snap + Ord + std::hash::Hash + Eq,
    V: Snap,
{
    let mut keys: Vec<&K> = m.keys().collect();
    keys.sort();
    w.put_usize(m.len());
    for k in keys {
        k.save(w);
        m[k].save(w);
    }
}

/// Loads a map written by [`save_sorted_map`], enforcing strictly-increasing
/// keys (duplicates or disorder mean the snapshot is corrupt).
pub fn load_sorted_map<K, V>(
    r: &mut Decoder<'_>,
    what: &'static str,
) -> Result<std::collections::HashMap<K, V>, SnapshotError>
where
    K: Snap + Ord + std::hash::Hash + Eq + Copy,
    V: Snap,
{
    let n = r.take_len()?;
    let mut m = std::collections::HashMap::with_capacity(n);
    let mut prev: Option<K> = None;
    for _ in 0..n {
        let k = K::load(r)?;
        if prev.is_some_and(|p| k <= p) {
            return Err(SnapshotError::Invalid { what });
        }
        prev = Some(k);
        let v = V::load(r)?;
        m.insert(k, v);
    }
    Ok(m)
}

/// Implements [`Snap`] for a struct by encoding the listed fields in order.
///
/// ```
/// struct P { x: u64, tag: Option<u8> }
/// bfetch_snapshot::impl_snap_struct!(P { x, tag });
/// ```
#[macro_export]
macro_rules! impl_snap_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::Encoder) {
                $( $crate::Snap::save(&self.$field, w); )+
            }
            fn load(r: &mut $crate::Decoder<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok(Self { $( $field: $crate::Snap::load(r)? ),+ })
            }
        }
    };
}

/// Implements [`Snap`] for a fieldless (C-like) enum as a `u8` tag, with a
/// typed error on unknown discriminants.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// enum Mode { A, B }
/// bfetch_snapshot::impl_snap_enum!(Mode { Mode::A = 0, Mode::B = 1 });
/// ```
#[macro_export]
macro_rules! impl_snap_enum {
    ($ty:ty { $($variant:path = $tag:expr),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::Encoder) {
                w.put_u8(match self { $( $variant => $tag, )+ });
            }
            fn load(r: &mut $crate::Decoder<'_>) -> Result<Self, $crate::SnapshotError> {
                match r.take_u8()? {
                    $( $tag => Ok($variant), )+
                    _ => Err($crate::SnapshotError::Invalid {
                        what: concat!("unknown ", stringify!($ty), " discriminant"),
                    }),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Frame: magic + version + sections + CRC
// ---------------------------------------------------------------------------

/// Builds the on-disk frame: magic, schema version, `(id, len, payload)`
/// sections in the order added, and a trailing CRC-32.
///
/// Sections are either owned (a fresh [`Encoder`]) or borrowed bytes
/// encoded earlier, so a payload that does not change between frames
/// (a run's programs) is encoded once and reused by every later frame.
#[derive(Debug, Default)]
pub struct FrameWriter<'a> {
    sections: Vec<(u32, Cow<'a, [u8]>)>,
}

impl<'a> FrameWriter<'a> {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section; `id`s should be unique (readers take the first).
    pub fn add(&mut self, id: u32, payload: Encoder) {
        self.sections.push((id, Cow::Owned(payload.into_bytes())));
    }

    /// Appends a section whose payload bytes were encoded earlier.
    pub fn add_encoded(&mut self, id: u32, payload: &'a [u8]) {
        self.sections.push((id, Cow::Borrowed(payload)));
    }

    /// Streams the complete frame into `out` piece by piece, with a
    /// running checksum, so the frame is never assembled in memory.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut crc = Crc32::new();
        let mut put = |bytes: &[u8]| {
            crc.update(bytes);
            out.write_all(bytes)
        };
        put(&MAGIC)?;
        put(&SCHEMA_VERSION.to_le_bytes())?;
        put(&(self.sections.len() as u32).to_le_bytes())?;
        for (id, payload) in &self.sections {
            put(&id.to_le_bytes())?;
            put(&(payload.len() as u64).to_le_bytes())?;
            put(payload)?;
        }
        out.write_all(&crc.value().to_le_bytes())
    }

    /// Serializes the complete frame, checksum included.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the frame to `path` atomically: a pid-tagged `*.tmp.{pid}`
    /// sibling is written in full, then renamed over the destination, so
    /// readers never observe a half-written snapshot from a crashed or
    /// killed process.
    ///
    /// The file is not fsynced. After a power loss the renamed file can
    /// still be torn; the frame's CRC catches that on read
    /// ([`SnapshotError::BadChecksum`]) and the harness quarantines the file.
    pub fn write_file_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let pid = std::process::id();
        let tmp = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                let mut n = name.to_os_string();
                n.push(format!(".tmp.{pid}"));
                dir.join(n)
            }
            _ => return Err(SnapshotError::Io { op: "write", detail: "path has no parent/file name".into() }),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| SnapshotError::io("create dir", e))?;
            }
        }
        let written = File::create(&tmp).and_then(|f| {
            let mut out = BufWriter::new(f);
            self.write_to(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(SnapshotError::io("write tmp", e));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SnapshotError::io("rename tmp", e)
        })
    }
}

/// Parsed view of a snapshot frame; validates magic, version, section
/// bounds and the whole-file checksum up front.
#[derive(Debug)]
pub struct FrameReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FrameReader<'a> {
    /// Parses and fully validates `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let min = MAGIC.len() + 4 + 4 + 4; // magic + version + count + crc
        if bytes.len() < min {
            return Err(SnapshotError::Truncated { at: bytes.len(), need: min });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let want = crc32(body);
        if stored_crc != want {
            return Err(SnapshotError::BadChecksum { got: stored_crc, want });
        }
        let mut r = Decoder::new(body);
        r.take_bytes(MAGIC.len())?;
        let version = r.take_u32()?;
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::BadVersion { got: version, want: SCHEMA_VERSION });
        }
        let count = r.take_u32()?;
        let mut sections = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let id = r.take_u32()?;
            let len = r.take_usize()?;
            let payload = r.take_bytes(len)?;
            sections.push((id, payload));
        }
        r.finish()?;
        Ok(Self { sections })
    }

    /// A decoder over section `id`'s payload.
    pub fn section(&self, id: u32) -> Result<Decoder<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, payload)| Decoder::new(payload))
            .ok_or(SnapshotError::MissingSection { id })
    }

    /// Section ids present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|(id, _)| *id).collect()
    }
}

/// Cheap structural validation: is `bytes` a complete, checksum-valid
/// snapshot frame? (Used by cache GC to distinguish live sidecars from
/// half-written junk without decoding the contents.)
pub fn validate_frame(bytes: &[u8]) -> Result<(), SnapshotError> {
    FrameReader::parse(bytes).map(|_| ())
}

/// Reads a whole snapshot file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::io("read", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Encoder::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    /// The original bytewise CRC, kept as the oracle for the slice-by-8 one.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_oracle_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E) ^ 0x5A) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_oracle_on_a_large_random_buffer() {
        let mut rng = bfetch_prng::SplitMix64::new(0xC0C0_A1A1);
        let mut buf = Vec::with_capacity(3 << 20);
        while buf.len() < (3 << 20) + 5 {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // the running checksum is split-invariant
        let mut c = Crc32::new();
        for piece in buf.chunks(4093) {
            c.update(piece);
        }
        assert_eq!(c.value(), crc32_bytewise(&buf));
    }

    #[test]
    fn bulk_u64s_match_per_word_encoding() {
        let xs = [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        let mut bulk = Encoder::new();
        bulk.put_u64s(&xs);
        let mut each = Encoder::new();
        for &x in &xs {
            each.put_u64(x);
        }
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, each.into_bytes());
        let mut back = [0u64; 4];
        let mut r = Decoder::new(&bytes);
        r.take_u64s(&mut back).unwrap();
        r.finish().unwrap();
        assert_eq!(back, xs);
        // one word short is a typed truncation, and nothing is consumed
        let mut r = Decoder::new(&bytes[..24]);
        assert!(matches!(r.take_u64s(&mut back), Err(SnapshotError::Truncated { at: 0, need: 32 })));
        assert_eq!(r.remaining(), 24);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-7i8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(std::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(String::from("mcf/libquantum"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_payload_round_trips_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Encoder::new();
        weird.save(&mut w);
        let bytes = w.into_bytes();
        let back = f64::load(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(VecDeque::from([(1u64, true), (2, false)]));
        roundtrip(Some(Box::new(9u32)));
        roundtrip(Option::<u8>::None);
        roundtrip([7u64; 32]);
        roundtrip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn struct_and_enum_macros() {
        #[derive(Debug, PartialEq)]
        struct P {
            a: u64,
            b: Option<u16>,
            c: Vec<bool>,
        }
        impl_snap_struct!(P { a, b, c });

        #[derive(Debug, PartialEq)]
        enum M {
            X,
            Y,
            Z,
        }
        impl_snap_enum!(M { M::X = 0, M::Y = 1, M::Z = 2 });

        roundtrip(P { a: 1, b: Some(2), c: vec![true, false] });
        roundtrip(M::Y);

        // unknown discriminant is a typed error
        let mut r = Decoder::new(&[9]);
        assert!(matches!(M::load(&mut r), Err(SnapshotError::Invalid { .. })));
    }

    #[test]
    fn bad_bool_and_option_tags_are_typed_errors() {
        assert!(matches!(bool::load(&mut Decoder::new(&[2])), Err(SnapshotError::Invalid { .. })));
        assert!(matches!(
            Option::<u8>::load(&mut Decoder::new(&[7])),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut w = Encoder::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(Vec::<u64>::load(&mut r), Err(SnapshotError::Invalid { .. })));
    }

    #[test]
    fn load_slice_exact_checks_geometry() {
        let mut w = Encoder::new();
        save_slice(&[1u64, 2, 3], &mut w);
        let bytes = w.into_bytes();
        let mut dst = [0u64; 3];
        load_slice_exact(&mut dst, &mut Decoder::new(&bytes), "geom").unwrap();
        assert_eq!(dst, [1, 2, 3]);
        let mut wrong = [0u64; 4];
        assert_eq!(
            load_slice_exact(&mut wrong, &mut Decoder::new(&bytes), "geom"),
            Err(SnapshotError::Invalid { what: "geom" })
        );
    }

    fn sample_writer() -> FrameWriter<'static> {
        let mut a = Encoder::new();
        (42u64, String::from("hello")).save(&mut a);
        let mut b = Encoder::new();
        vec![1u32, 2, 3].save(&mut b);
        let mut f = FrameWriter::new();
        f.add(1, a);
        f.add(2, b);
        f
    }

    fn sample_frame() -> Vec<u8> {
        sample_writer().finish()
    }

    #[test]
    fn frame_round_trips() {
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        assert_eq!(f.section_ids(), vec![1, 2]);
        let mut s1 = f.section(1).unwrap();
        assert_eq!(<(u64, String)>::load(&mut s1).unwrap(), (42, "hello".into()));
        s1.finish().unwrap();
        let mut s2 = f.section(2).unwrap();
        assert_eq!(Vec::<u32>::load(&mut s2).unwrap(), vec![1, 2, 3]);
        assert!(matches!(f.section(9), Err(SnapshotError::MissingSection { id: 9 })));
    }

    #[test]
    fn every_single_byte_truncation_is_a_typed_error() {
        let bytes = sample_frame();
        for n in 0..bytes.len() {
            let err = FrameReader::parse(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadChecksum { .. }
                ),
                "truncation to {n} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = sample_frame();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    FrameReader::parse(&bad).is_err(),
                    "flip of byte {byte} bit {bit} was not detected"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_reported_before_sections() {
        let mut bytes = sample_frame();
        // Patch the version field and re-checksum, so only the version is wrong.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            FrameReader::parse(&bytes).unwrap_err(),
            SnapshotError::BadVersion { got: 99, want: SCHEMA_VERSION }
        );
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_frame();
        bytes[0] = b'X';
        assert_eq!(FrameReader::parse(&bytes).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn borrowed_sections_and_streaming_match_finish() {
        let mut a = Encoder::new();
        (42u64, String::from("hello")).save(&mut a);
        let a = a.into_bytes();
        let mut b = Encoder::new();
        vec![1u32, 2, 3].save(&mut b);
        let mut f = FrameWriter::new();
        f.add_encoded(1, &a);
        f.add(2, b);
        let mut streamed = Vec::new();
        f.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, sample_frame());
        assert_eq!(f.finish(), sample_frame());
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("bfsnap-test-{}", std::process::id()));
        let path = dir.join("x.snap");
        sample_writer().write_file_atomic(&path).unwrap();
        assert_eq!(read_file(&path).unwrap(), sample_frame());
        validate_frame(&read_file(&path).unwrap()).unwrap();
        // no tmp file left behind
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_is_canonical_fixpoint() {
        // decode → re-encode reproduces the identical bytes
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        let mut w = FrameWriter::new();
        for id in f.section_ids() {
            let mut r = f.section(id).unwrap();
            let raw = r.take_bytes(r.remaining()).unwrap();
            let mut e = Encoder::new();
            e.put_bytes(raw);
            w.add(id, e);
        }
        assert_eq!(w.finish(), bytes);
    }
}
