//! On-disk framing: file header, frame header, CRC-32.
//!
//! A journal file is:
//!
//! ```text
//! [8-byte magic "NPSSLEDG"] [u32 BE version]          -- file header
//! [u32 BE len] [u32 BE crc32(body)] [body: len bytes] -- frame 0
//! [u32 BE len] [u32 BE crc32(body)] [body: len bytes] -- frame 1
//! ...
//! ```
//!
//! All integers are big-endian. `len` counts the body only. The framing
//! distinguishes two failure classes on read:
//!
//! * **torn** — the file ends before a frame completes (fewer than 8
//!   header bytes remain, or fewer than `len` body bytes). This is what
//!   a crash mid-append leaves behind; the reader discards the tail.
//! * **corrupt** — a frame is complete but its CRC does not match the
//!   body. An interrupted write cannot produce this (every frame's CRC
//!   is patched in before any byte of it is written), so it is a typed
//!   error.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::codec::{put_u32, Reader};
use crate::error::LedgerError;

/// File magic: identifies a ledger journal.
pub(crate) const MAGIC: &[u8; 8] = b"NPSSLEDG";
/// Current format version.
pub(crate) const VERSION: u32 = 1;
/// Bytes in the file header (magic + version).
pub const FILE_HEADER_LEN: usize = MAGIC.len() + 4;
/// Bytes in each frame header (len + crc).
pub const FRAME_HEADER_LEN: usize = 8;

/// The byte-at-a-time CRC-32 table: entry `i` is the bit-serial
/// remainder of `i` after eight steps, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same checksum zlib
/// and PNG use. Table-driven, one lookup per byte — this crate takes no
/// dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Encode the file header.
pub fn file_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_HEADER_LEN);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    out
}

/// Validate the file header at the start of `bytes`; returns the offset
/// of the first frame.
pub fn check_file_header(bytes: &[u8]) -> Result<usize, LedgerError> {
    let mut r = Reader::new(bytes);
    let (Ok(magic), Ok(version)) = (r.take(MAGIC.len()), r.u32()) else {
        return Err(LedgerError::Corrupt {
            offset: 0,
            reason: format!("file header truncated: {} bytes, need {FILE_HEADER_LEN}", bytes.len()),
        });
    };
    if magic != MAGIC {
        return Err(LedgerError::Corrupt { offset: 0, reason: "bad magic".into() });
    }
    if version != VERSION {
        return Err(LedgerError::Corrupt {
            offset: MAGIC.len() as u64,
            reason: format!("unsupported journal version {version} (expected {VERSION})"),
        });
    }
    Ok(FILE_HEADER_LEN)
}

/// Append one `[len][crc][body]` frame to `buf` in place: reserve the
/// header, let `body` encode straight into `buf`, then patch in the
/// length and CRC of what it wrote.
pub(crate) fn frame_into(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    let body_start = start + FRAME_HEADER_LEN;
    buf.resize(body_start, 0);
    body(buf);
    let len = (buf.len() - body_start) as u32;
    let crc = crc32(&buf[body_start..]);
    buf[start..start + 4].copy_from_slice(&len.to_be_bytes());
    buf[start + 4..body_start].copy_from_slice(&crc.to_be_bytes());
}

/// Outcome of reading one frame at `offset`.
pub enum FrameRead<'a> {
    /// A complete, CRC-valid frame; `next` is the offset after it.
    Ok { body: &'a [u8], next: usize },
    /// The file ends here — no more bytes at all.
    End,
    /// The file ends mid-frame: `tail` bytes of a torn final record.
    Torn { tail: usize },
}

/// Read the frame starting at `offset`; CRC mismatch on a complete
/// frame, or an `offset` past the end of `bytes`, is `Err(Corrupt)`.
pub fn read_frame(bytes: &[u8], offset: usize) -> Result<FrameRead<'_>, LedgerError> {
    let Some(rest) = bytes.get(offset..) else {
        return Err(LedgerError::Corrupt {
            offset: offset as u64,
            reason: format!("frame offset past the end of {} bytes", bytes.len()),
        });
    };
    let mut r = Reader::new(rest);
    if r.is_empty() {
        return Ok(FrameRead::End);
    }
    let torn = FrameRead::Torn { tail: bytes.len() - offset };
    let (Ok(len), Ok(crc_stored)) = (r.u32(), r.u32()) else { return Ok(torn) };
    let Ok(body) = r.take(len as usize) else { return Ok(torn) };
    let crc_actual = crc32(body);
    if crc_actual != crc_stored {
        return Err(LedgerError::Corrupt {
            offset: offset as u64,
            reason: format!(
                "frame CRC mismatch (stored {crc_stored:08x}, computed {crc_actual:08x})"
            ),
        });
    }
    Ok(FrameRead::Ok { body, next: offset + r.pos() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut file = file_header();
        frame_into(&mut file, |buf| buf.extend_from_slice(body));
        file
    }

    #[test]
    fn frame_round_trip() {
        let body = b"hello frames";
        let file = framed(body);
        let first = check_file_header(&file).unwrap();
        match read_frame(&file, first).unwrap() {
            FrameRead::Ok { body: b, next } => {
                assert_eq!(b, body);
                assert_eq!(next, file.len());
                assert!(matches!(read_frame(&file, next).unwrap(), FrameRead::End));
            }
            _ => panic!("expected a complete frame"),
        }
    }

    #[test]
    fn torn_and_corrupt_are_distinguished() {
        let file = framed(b"payload");
        let first = check_file_header(&file).unwrap();

        // Truncated body: torn, not corrupt.
        let torn = &file[..file.len() - 3];
        assert!(matches!(read_frame(torn, first).unwrap(), FrameRead::Torn { .. }));

        // Truncated header: torn.
        let torn_hdr = &file[..first + 5];
        assert!(matches!(read_frame(torn_hdr, first).unwrap(), FrameRead::Torn { tail: 5 }));

        // Complete frame with a flipped body byte: corrupt.
        let mut bad = file.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(read_frame(&bad, first), Err(LedgerError::Corrupt { .. })));
    }

    #[test]
    fn offset_past_the_end_is_corrupt() {
        let file = framed(b"payload");
        assert!(matches!(read_frame(&file, file.len()).unwrap(), FrameRead::End));
        for offset in [file.len() + 1, usize::MAX] {
            match read_frame(&file, offset) {
                Err(LedgerError::Corrupt { offset: at, .. }) => assert_eq!(at, offset as u64),
                _ => panic!("offset {offset} past the end must be Corrupt"),
            }
        }
    }

    #[test]
    fn header_is_checked() {
        assert!(check_file_header(b"short").is_err());
        let mut bad = file_header();
        bad[0] ^= 0xFF;
        assert!(check_file_header(&bad).is_err());
        let mut wrong_version = file_header();
        let n = wrong_version.len();
        wrong_version[n - 1] = 99;
        assert!(check_file_header(&wrong_version).is_err());
    }
}
