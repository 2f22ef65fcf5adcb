//! The one binary frame codec behind every on-disk format.
//!
//! A **frame** is a body followed by the FNV-1a of that body (`u64`, like
//! every field little-endian). `VST0`, `GRF1`, `TMG1`, `HNW1`, `SNP1` and
//! the `WAL1` segment header are frames whose body starts with a magic
//! (`u32`) and a version (`u16`); a `WAL1` record and the `SNP1` attribute
//! section are untagged frames. [`Writer`] lays a body out and
//! [`Writer::seal`]s it. [`open`] checks a tagged frame's length, checksum,
//! magic and version, in that order, and [`unseal`] checks an untagged
//! one; both hand back a [`Reader`] over the body.
//!
//! The reader never panics. Every getter returns a typed [`Corrupt`]
//! error, and a counted array is checked against the bytes left *before*
//! anything is allocated, so no length field — not even one under a valid
//! checksum — can make a decoder panic or allocate more than its input.

use crate::error::{AnnError, IntegrityCheck};

/// Why a decoder rejected its input: the failing check and a detail.
pub type Corrupt = (IntegrityCheck, String);

/// Result of a decoding step.
pub type Result<T> = std::result::Result<T, Corrupt>;

/// Bytes in a frame's checksum trailer.
pub const TRAILER: usize = 8;

/// FNV-1a, the workspace-standard integrity checksum (fast, dependency-free;
/// this is corruption detection, not cryptography).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A tagged frame format: the header [`open`] checks.
#[derive(Debug)]
pub struct Format {
    /// Name used in error details.
    pub name: &'static str,
    /// The body's leading `u32`.
    pub magic: u32,
    /// The version this build writes, and the newest it reads.
    pub version: u16,
    /// The oldest version this build reads.
    pub oldest: u16,
    /// Smallest frame, trailer included, that holds the fixed header;
    /// anything shorter is [`IntegrityCheck::Truncated`].
    pub min_len: usize,
}

impl Format {
    /// A body that starts with this format's magic and current version,
    /// with room for `capacity` more bytes and the trailer.
    pub fn writer(&self, capacity: usize) -> Writer {
        let mut w = Writer { buf: Vec::with_capacity(6 + capacity + TRAILER) };
        w.u32(self.magic).u16(self.version);
        w
    }
}

/// Verify a tagged frame: length, checksum, magic, then version. Returns
/// the version and a reader positioned after it.
///
/// # Errors
/// `Truncated`, `Checksum`, `Magic` or `Version`, whichever fails first.
pub fn open<'a>(buf: &'a [u8], format: &Format) -> Result<(u16, Reader<'a>)> {
    let name = format.name;
    let mut r = unseal(buf, name, format.min_len)?;
    if r.u32()? != format.magic {
        return Err((IntegrityCheck::Magic, format!("{name} bad magic")));
    }
    let version = r.u16()?;
    if !(format.oldest..=format.version).contains(&version) {
        let (lo, hi) = (format.oldest, format.version);
        let reads = if lo == hi { format!("{hi}") } else { format!("{lo}-{hi}") };
        let detail = format!("{name} version {version} unsupported (this build reads {reads})");
        return Err((IntegrityCheck::Version, detail));
    }
    Ok((version, r))
}

/// Verify an untagged frame of at least `min_len` bytes (trailer included)
/// and return a reader over its body.
///
/// # Errors
/// `Truncated` if the frame is short, `Checksum` if the trailer disagrees.
pub fn unseal<'a>(buf: &'a [u8], name: &str, min_len: usize) -> Result<Reader<'a>> {
    let min_len = min_len.max(TRAILER);
    if buf.len() < min_len {
        let detail = format!("{name}: {} bytes is shorter than the minimal {min_len}", buf.len());
        return Err((IntegrityCheck::Truncated, detail));
    }
    let (body, tail) = buf.split_at(buf.len() - TRAILER);
    if tail != fnv1a(body).to_le_bytes() {
        return Err((IntegrityCheck::Checksum, format!("{name} checksum mismatch")));
    }
    Ok(Reader::new(body))
}

/// The [`AnnError`] for a corrupt in-memory artifact: the detail survives,
/// the check does not (file-level loaders attach it through
/// [`AnnError::corrupt_file`] instead).
impl From<Corrupt> for AnnError {
    fn from((_, detail): Corrupt) -> AnnError {
        AnnError::CorruptIndex(detail)
    }
}

/// A little-endian frame body under construction.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.buf.push(v);
        self
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Append an `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Writer {
        self.buf.extend_from_slice(b);
        self
    }

    /// Append a `u64` length, then the bytes (read back by
    /// [`Reader::bytes_u64`]).
    pub fn bytes_u64(&mut self, b: &[u8]) -> &mut Writer {
        self.u64(b.len() as u64).bytes(b)
    }

    /// Append every element of `v` (no count; the format carries it).
    pub fn u32s(&mut self, v: &[u32]) -> &mut Writer {
        self.each(v, u32::to_le_bytes)
    }

    /// Append every element of `v` (no count; the format carries it).
    pub fn u64s(&mut self, v: &[u64]) -> &mut Writer {
        self.each(v, u64::to_le_bytes)
    }

    /// Append every element of `v` (no count; the format carries it).
    pub fn f32s(&mut self, v: &[f32]) -> &mut Writer {
        self.each(v, f32::to_le_bytes)
    }

    fn each<T: Copy, const N: usize>(&mut self, v: &[T], le: fn(T) -> [u8; N]) -> &mut Writer {
        self.buf.reserve(v.len() * N);
        for &x in v {
            self.buf.extend_from_slice(&le(x));
        }
        self
    }

    /// The body without a trailer, for embedding in another frame.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Close the frame: take the body followed by its FNV-1a, leaving the
    /// writer empty.
    pub fn seal(&mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        std::mem::take(&mut self.u64(sum).buf)
    }
}

/// A bounds-checked little-endian cursor over a frame body.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    /// `Truncated` if fewer than `n` bytes are left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            let detail =
                format!("a {n}-byte read runs past the end ({} bytes left)", self.rest.len());
            return Err((IntegrityCheck::Truncated, detail));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// Read a `u64` count or length as a `usize`.
    ///
    /// # Errors
    /// `Bounds` if it does not fit this platform's `usize`.
    pub fn count(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| (IntegrityCheck::Bounds, format!("count {v} overflows")))
    }

    /// Read a slice written by [`Writer::bytes_u64`].
    ///
    /// # Errors
    /// `Bounds` if the length exceeds the bytes left.
    pub fn bytes_u64(&mut self) -> Result<&'a [u8]> {
        let n = self.count()?;
        self.counted(n, 1)
    }

    /// Read `n` `u32`s.
    ///
    /// # Errors
    /// `Bounds` if `n` of them do not fit in the bytes left.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        self.each(n, u32::from_le_bytes)
    }

    /// Read `n` `u64`s; see [`Reader::u32s`].
    ///
    /// # Errors
    /// `Bounds` if `n` of them do not fit in the bytes left.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>> {
        self.each(n, u64::from_le_bytes)
    }

    /// Read `n` `f32`s; see [`Reader::u32s`].
    ///
    /// # Errors
    /// `Bounds` if `n` of them do not fit in the bytes left.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        self.each(n, f32::from_le_bytes)
    }

    /// `n × elem` bytes, refused before any caller allocates for them.
    fn counted(&mut self, n: usize, elem: usize) -> Result<&'a [u8]> {
        match n.checked_mul(elem) {
            Some(len) if len <= self.rest.len() => self.take(len),
            _ => Err((
                IntegrityCheck::Bounds,
                format!("{n} × {elem} bytes promised, {} left", self.rest.len()),
            )),
        }
    }

    fn each<T, const N: usize>(&mut self, n: usize, le: fn([u8; N]) -> T) -> Result<Vec<T>> {
        let bytes = self.counted(n, N)?;
        let mut out = [0u8; N];
        Ok(bytes
            .chunks_exact(N)
            .map(|c| {
                out.copy_from_slice(c);
                le(out)
            })
            .collect())
    }

    /// Require that every byte has been read.
    ///
    /// # Errors
    /// `Bounds` if bytes are left over.
    pub fn finish(self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            left => Err((IntegrityCheck::Bounds, format!("{left} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Format = Format { name: "demo", magic: 0xD3A0, version: 3, oldest: 2, min_len: 14 };

    #[test]
    fn fnv1a_distinguishes_inputs() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn sealed_frames_round_trip() {
        let mut w = DEMO.writer(0);
        w.u8(7)
            .f32(-1.5)
            .bytes_u64(b"xyz")
            .u32s(&[1, 2])
            .u64s(&[u64::MAX])
            .f32s(&[0.25]);
        let frame = w.seal();
        let (version, mut r) = open(&frame, &DEMO).unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.bytes_u64().unwrap(), b"xyz");
        assert_eq!(r.u32s(2).unwrap(), [1, 2]);
        assert_eq!(r.u64s(1).unwrap(), [u64::MAX]);
        assert_eq!(r.f32s(1).unwrap(), [0.25]);
        r.finish().unwrap();
    }

    #[test]
    fn open_checks_length_then_checksum_then_magic_then_version() {
        let check = |buf: &[u8]| open(buf, &DEMO).map(|_| ()).unwrap_err().0;
        let frame = DEMO.writer(0).seal();
        assert_eq!(check(&frame[..13]), IntegrityCheck::Truncated);
        let mut flipped = frame;
        flipped[0] ^= 1;
        assert_eq!(check(&flipped), IntegrityCheck::Checksum);
        let mut w = Writer::default();
        w.u32(0xBAD).u16(3);
        assert_eq!(check(&w.seal()), IntegrityCheck::Magic);
        for (version, ok) in [(1, false), (2, true), (3, true), (4, false)] {
            let mut w = Writer::default();
            w.u32(DEMO.magic).u16(version);
            let frame = w.seal();
            assert_eq!(open(&frame, &DEMO).is_ok(), ok, "version {version}");
        }
    }

    #[test]
    fn reader_refuses_overlong_counts_before_allocating() {
        let mut w = Writer::default();
        w.u64(u64::MAX).u32(9);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert_eq!(r.bytes_u64().unwrap_err().0, IntegrityCheck::Bounds);
        let mut r = Reader::new(&body);
        assert_eq!(r.u32s(usize::MAX).unwrap_err().0, IntegrityCheck::Bounds);
        assert_eq!(r.f32s(4).unwrap_err().0, IntegrityCheck::Bounds);
        assert_eq!(r.take(13).unwrap_err().0, IntegrityCheck::Truncated);
        assert_eq!(r.u64s(1).unwrap(), [u64::MAX]);
        assert_eq!(r.finish().unwrap_err().0, IntegrityCheck::Bounds);
    }
}
