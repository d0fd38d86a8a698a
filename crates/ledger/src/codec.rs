//! The one byte codec the hand-written binary formats share: journal
//! records and frame headers here, and the Schooner control plane, obs
//! events and state frames upstream.
//!
//! Integers are big-endian, floats travel as their IEEE-754 bits, and a
//! variable-length field is a `u32` length or count and then its
//! elements. Every [`Reader`] method fails with a [`CodecError`] that
//! carries the byte position; each format maps it once into its own
//! error type.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::ops::Range;

/// Append `v`, big-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append `v`, big-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append `v` as its IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append `b` behind its `u32` length.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append `s` as UTF-8 behind its `u32` length.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a `u32` count, then each value's bits.
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u32(out, xs.len() as u32);
    xs.iter().for_each(|&x| put_f64(out, x));
}

/// What a read found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// This many bytes were needed and fewer remained.
    Truncated(usize),
    /// A string was not UTF-8.
    Utf8,
    /// An option discriminant other than 0 or 1.
    BadOption(u8),
    /// A count of more elements than the remaining bytes can hold.
    Count(usize),
    /// This many bytes were left over.
    Trailing(usize),
}

/// A failed read: what went wrong, and the byte it started at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Position in the reader's input.
    pub pos: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::Truncated(n) => write!(f, "truncated (need {n} bytes)")?,
            ErrorKind::Utf8 => f.write_str("invalid UTF-8")?,
            ErrorKind::BadOption(d) => write!(f, "bad option discriminant {d}")?,
            ErrorKind::Count(n) => write!(f, "count {n} exceeds the remaining bytes")?,
            ErrorKind::Trailing(n) => write!(f, "{n} trailing bytes")?,
        }
        write!(f, " at byte {}", self.pos)
    }
}

impl std::error::Error for CodecError {}

/// Lets a decoder whose error is a message read with `?`.
impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.to_string()
    }
}

type Result<T> = std::result::Result<T, CodecError>;

fn err<T>(pos: usize, kind: ErrorKind) -> Result<T> {
    Err(CodecError { pos, kind })
}

/// A big-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes, borrowed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return err(self.pos, ErrorKind::Truncated(n));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32`-length-prefixed byte string, borrowed, and its range in
    /// the input (a caller holding the input as `Bytes` slices it there).
    pub fn bytes(&mut self) -> Result<(&'a [u8], Range<usize>)> {
        let n = self.u32()? as usize;
        Ok((self.take(n)?, self.pos - n..self.pos))
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed.
    pub fn str(&mut self) -> Result<&'a str> {
        self.str_with_range().map(|(s, _)| s)
    }

    /// [`Reader::str`] and the string's range in the input (a caller
    /// holding the input as `Bytes` keeps a checked slice of it).
    pub fn str_with_range(&mut self) -> Result<(&'a str, Range<usize>)> {
        let at = self.pos;
        let (raw, range) = self.bytes()?;
        let s = std::str::from_utf8(raw).or_else(|_| err(at, ErrorKind::Utf8))?;
        Ok((s, range))
    }

    /// A `u32` count, then that many `f64`s.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(self.f64()?);
        }
        Ok(xs)
    }

    /// `None` for a `0` byte, or `1` and what `get` reads.
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            d => err(self.pos - 1, ErrorKind::BadOption(d)),
        }
    }

    /// A `u32` element count, refused unless the remaining bytes can hold
    /// that many elements of at least `min_elem_len` bytes each, so a
    /// forged count never sizes an allocation.
    pub fn count(&mut self, min_elem_len: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.fits(n, 4, min_elem_len)
    }

    /// [`Reader::count`] for a `u16` count.
    pub fn count_u16(&mut self, min_elem_len: usize) -> Result<usize> {
        let n = self.u16()? as usize;
        self.fits(n, 2, min_elem_len)
    }

    fn fits(&self, n: usize, width: usize, min_elem_len: usize) -> Result<usize> {
        if n.saturating_mul(min_elem_len) > self.buf.len() - self.pos {
            return err(self.pos - width, ErrorKind::Count(n));
        }
        Ok(n)
    }

    /// The end of the input: a byte left over is an error.
    pub fn finish(&self) -> Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => err(self.pos, ErrorKind::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Read = fn(&mut Reader) -> Result<()>;
    /// A read's name, a valid encoding for it, the read, and the error a
    /// cut at `c` bytes must give.
    type Case = (&'static str, Vec<u8>, Read, fn(usize) -> CodecError);

    fn trunc(pos: usize, need: usize) -> CodecError {
        CodecError { pos, kind: ErrorKind::Truncated(need) }
    }

    /// Every reader method.
    fn cases() -> Vec<Case> {
        let mut str3 = Vec::new();
        put_str(&mut str3, "abc");
        let mut f64s2 = Vec::new();
        put_f64s(&mut f64s2, &[1.0, -2.0]);
        let mut some = vec![1];
        put_u64(&mut some, 7);
        let count = |c: usize| match c {
            0..4 => trunc(0, 4),
            _ => CodecError { pos: 0, kind: ErrorKind::Count(2) },
        };
        vec![
            ("u8", vec![7], |r| r.u8().map(drop), |_| trunc(0, 1)),
            ("u16", vec![0, 7], |r| r.u16().map(drop), |_| trunc(0, 2)),
            ("u32", 7u32.to_be_bytes().to_vec(), |r| r.u32().map(drop), |_| trunc(0, 4)),
            ("u64", 7u64.to_be_bytes().to_vec(), |r| r.u64().map(drop), |_| trunc(0, 8)),
            (
                "f64",
                0.5f64.to_bits().to_be_bytes().to_vec(),
                |r| r.f64().map(drop),
                |_| trunc(0, 8),
            ),
            ("take", vec![1, 2, 3], |r| r.take(3).map(drop), |_| trunc(0, 3)),
            (
                "bytes",
                str3.clone(),
                |r| r.bytes().map(drop),
                |c| match c {
                    0..4 => trunc(0, 4),
                    _ => trunc(4, 3),
                },
            ),
            (
                "str",
                str3,
                |r| r.str().map(drop),
                |c| match c {
                    0..4 => trunc(0, 4),
                    _ => trunc(4, 3),
                },
            ),
            ("f64s", f64s2.clone(), |r| r.f64s().map(drop), count),
            (
                "count",
                f64s2,
                |r| {
                    let n = r.count(8)?;
                    r.take(n * 8).map(drop)
                },
                count,
            ),
            (
                "count_u16",
                vec![0, 2, 0, 0, 0, 0, 0, 0, 0, 0],
                |r| {
                    let n = r.count_u16(4)?;
                    r.take(n * 4).map(drop)
                },
                |c| match c {
                    0..2 => trunc(0, 2),
                    _ => CodecError { pos: 0, kind: ErrorKind::Count(2) },
                },
            ),
            (
                "opt",
                some,
                |r| r.opt(Reader::u64).map(drop),
                |c| match c {
                    0 => trunc(0, 1),
                    _ => trunc(1, 8),
                },
            ),
        ]
    }

    #[test]
    fn every_cut_of_every_read_is_a_typed_error_at_its_byte() {
        for (name, enc, read, want) in cases() {
            let mut r = Reader::new(&enc);
            assert_eq!(read(&mut r), Ok(()), "{name} of the whole encoding");
            assert_eq!(r.finish(), Ok(()), "{name} leaves nothing");
            for cut in 0..enc.len() {
                assert_eq!(read(&mut Reader::new(&enc[..cut])), Err(want(cut)), "{name} cut {cut}");
            }
        }
    }

    /// A length or count of `u32::MAX` over 16 bytes is refused as such,
    /// before anything is sized by it.
    #[test]
    fn huge_lengths_and_counts_are_errors_not_allocations() {
        let mut body = u32::MAX.to_be_bytes().to_vec();
        body.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&body).bytes().unwrap_err(), trunc(4, u32::MAX as usize));
        assert_eq!(Reader::new(&body).str().unwrap_err(), trunc(4, u32::MAX as usize));
        let count = CodecError { pos: 0, kind: ErrorKind::Count(u32::MAX as usize) };
        assert_eq!(Reader::new(&body).f64s().unwrap_err(), count);
        assert_eq!(Reader::new(&body).count(1).unwrap_err(), count);
    }

    #[test]
    fn count_refuses_what_the_remaining_bytes_cannot_hold() {
        let body = [0, 0, 0, 3, 0, 0, 0, 0, 0, 0];
        assert_eq!(Reader::new(&body).count(2), Ok(3));
        assert_eq!(Reader::new(&body).count(0), Ok(3));
        let err = Reader::new(&body).count(3).unwrap_err();
        assert_eq!(err, CodecError { pos: 0, kind: ErrorKind::Count(3) });
        assert_eq!(err.to_string(), "count 3 exceeds the remaining bytes at byte 0");
        let mut r = Reader::new(&[0, 0, 0, 0, 0xFF, 0xFF]);
        r.u32().unwrap();
        assert_eq!(
            r.count_u16(1).unwrap_err(),
            CodecError { pos: 4, kind: ErrorKind::Count(65535) }
        );
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(!r.is_empty());
        assert_eq!(r.finish(), Err(CodecError { pos: 1, kind: ErrorKind::Trailing(2) }));
        r.u16().unwrap();
        assert!(r.is_empty());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn bad_option_and_utf8_are_typed() {
        let mut r = Reader::new(&[0, 2]);
        assert_eq!(r.opt(Reader::u8), Ok(None));
        assert_eq!(r.opt(Reader::u8), Err(CodecError { pos: 1, kind: ErrorKind::BadOption(2) }));
        let mut bad = vec![9];
        put_bytes(&mut bad, &[0xFF]);
        let mut r = Reader::new(&bad);
        r.u8().unwrap();
        assert_eq!(r.str(), Err(CodecError { pos: 1, kind: ErrorKind::Utf8 }));
    }

    #[test]
    fn edge_values_round_trip_bit_exact() {
        let nan = f64::from_bits(0x7FF4_0000_DEAD_BEEF);
        let mut out = Vec::new();
        put_f64(&mut out, -0.0);
        put_f64(&mut out, nan);
        put_str(&mut out, "");
        put_bytes(&mut out, &[]);
        out.push(0); // `None`
        put_f64s(&mut out, &[-0.0, nan]);
        put_u32(&mut out, u32::MAX);
        let mut r = Reader::new(&out);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), nan.to_bits());
        assert_eq!(r.str(), Ok(""));
        assert_eq!(r.bytes(), Ok((&[][..], 24..24)));
        assert_eq!(r.opt(Reader::u64), Ok(None));
        let xs = r.f64s().unwrap();
        assert_eq!(
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [(-0.0f64).to_bits(), nan.to_bits()]
        );
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.finish(), Ok(()));
    }
}
