//! Link-layer framing and batching (wire v2 at the link layer).
//!
//! The base transport pays one envelope per message: a small-message
//! flood pays the full route latency for every call. This module adds
//! the pieces the transport composes into batched links:
//!
//! * a **frame codec** ([`FrameBuilder`]/[`decode_frame`]) that packs
//!   many logical messages into one checksummed link frame;
//! * a **`LinkBatcher`** per directed host pair that accumulates
//!   messages into an open frame until a flush threshold fires (the
//!   constants on [`LinkConfig`]: size, message count, linger age). A
//!   lone message is held unframed, as the plain envelope it leaves as
//!   if nothing joins it; the second append builds the frame, so every
//!   frame on the wire carries at least two.
//!
//! A link has no flow control. Schooner batches only call requests, and
//! a line has at most one call in flight, so a link never holds more
//! messages than its sending host has open lines.
//!
//! Everything here is keyed on virtual time and plain arithmetic — no
//! wall clocks, no RNG — so batched runs stay deterministic.
//!
//! # Frame format
//!
//! ```text
//! header (15 bytes):
//!   magic   2  "NB"
//!   version 1  FRAME_VERSION
//!   count   4  number of records, big-endian u32
//!   len     4  body length in bytes, big-endian u32
//!   crc     4  CRC-32 (IEEE) over the body
//! body: `count` records, each:
//!   from_len u16, from bytes, to_len u16, to bytes,
//!   sent_at  8  f64 bits, payload_len u32, payload bytes
//! ```
//!
//! The decoder rejects truncated frames, corrupted bodies (CRC), frames
//! split across reads, and record counts that disagree with the body.
//! The header's `count` is not covered by the CRC, so it is bounded by
//! what the body can hold before anything is reserved for it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::metrics::Counter;

/// Frame magic: "NB" (netsim batch).
pub(crate) const FRAME_MAGIC: [u8; 2] = *b"NB";
/// Link frame format version.
pub(crate) const FRAME_VERSION: u8 = 2;
/// Fixed frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 15;
/// Smallest possible record: two empty addresses (2 + 2 length bytes),
/// the send instant (8) and an empty payload's length (4).
const MIN_RECORD_LEN: usize = 16;

/// CRC-32 (IEEE 802.3 polynomial, reflected), bitwise implementation —
/// frames are small and this keeps the codec dependency-free.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or the declared body need (a frame
    /// split across reads decodes to this on both halves).
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first two bytes are not `FRAME_MAGIC`.
    BadMagic([u8; 2]),
    /// Unsupported frame version.
    BadVersion(u8),
    /// Body checksum mismatch (corruption).
    CrcMismatch {
        /// CRC declared in the header.
        declared: u32,
        /// CRC computed over the received body.
        computed: u32,
    },
    /// The body ended before the declared record count was parsed.
    CountMismatch {
        /// Records the header declared.
        declared: u32,
        /// Records actually parsed.
        parsed: u32,
    },
    /// Bytes left over after the declared records (or after the body).
    TrailingBytes(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::CrcMismatch { declared, computed } => {
                write!(
                    f,
                    "frame crc mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::CountMismatch { declared, parsed } => {
                write!(f, "frame record count mismatch: declared {declared}, parsed {parsed}")
            }
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame records"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One logical message recovered from a frame. The addresses borrow
/// the frame buffer and the payload is a zero-copy slice of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMsg<'a> {
    /// Sender's full address (`host:process`).
    pub from: &'a str,
    /// Destination address.
    pub to: &'a str,
    /// Virtual time the sender issued the message.
    pub sent_at: f64,
    /// The message payload.
    pub payload: Bytes,
}

/// Incremental frame encoder. Messages are written straight into the
/// frame buffer (scatter-gather: callers hand a closure that emits the
/// payload bytes in place, so no per-message intermediate allocation).
#[derive(Debug)]
pub struct FrameBuilder {
    buf: BytesMut,
    count: u32,
}

impl Default for FrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBuilder {
    /// An empty frame with a placeholder header.
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_slice(&FRAME_MAGIC);
        buf.put_u8(FRAME_VERSION);
        buf.put_u32(0); // count, backfilled by finish()
        buf.put_u32(0); // body len, backfilled
        buf.put_u32(0); // crc, backfilled
        Self { buf, count: 0 }
    }

    /// Number of records written so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Total frame bytes so far (header + body).
    pub fn frame_len(&self) -> usize {
        self.buf.len()
    }

    /// Append one record, letting `write` emit exactly `payload_len`
    /// payload bytes directly into the frame buffer.
    ///
    /// # Panics
    ///
    /// Panics when `write` emits a different number of bytes than
    /// `payload_len` — the record header is written first, so the
    /// length must be known up front — or when an address is 64 KiB or
    /// longer or the payload 4 GiB or larger.
    // Addresses are `host:port` strings and payloads one call's
    // arguments, far inside the u16/u32 length fields.
    #[allow(clippy::expect_used)]
    pub(crate) fn push_with(
        &mut self,
        from: &str,
        to: &str,
        sent_at: f64,
        payload_len: usize,
        write: &mut dyn FnMut(&mut BytesMut),
    ) {
        let b = &mut self.buf;
        b.put_u16(u16::try_from(from.len()).expect("address too long"));
        b.put_slice(from.as_bytes());
        b.put_u16(u16::try_from(to.len()).expect("address too long"));
        b.put_slice(to.as_bytes());
        b.put_u64(sent_at.to_bits());
        b.put_u32(u32::try_from(payload_len).expect("payload too large"));
        let before = b.len();
        write(b);
        assert_eq!(
            b.len() - before,
            payload_len,
            "scatter-gather writer emitted a different length than declared"
        );
        self.count += 1;
    }

    /// Append one record from a contiguous payload slice.
    pub fn push(&mut self, from: &str, to: &str, sent_at: f64, payload: &[u8]) {
        self.push_with(from, to, sent_at, payload.len(), &mut |b| b.put_slice(payload));
    }

    /// Backfill the header (count, body length, CRC) and freeze the
    /// frame into its wire image.
    pub fn finish(mut self) -> Bytes {
        let body_len = self.buf.len() - FRAME_HEADER_LEN;
        let crc = crc32(&self.buf[FRAME_HEADER_LEN..]);
        self.buf[3..7].copy_from_slice(&self.count.to_be_bytes());
        self.buf[7..11].copy_from_slice(&(body_len as u32).to_be_bytes());
        self.buf[11..15].copy_from_slice(&crc.to_be_bytes());
        self.buf.freeze()
    }
}

/// Decode a frame into its logical messages. Payloads are zero-copy
/// slices of `frame`.
pub fn decode_frame(frame: &Bytes) -> Result<Vec<FrameMsg<'_>>, FrameError> {
    if frame.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated { needed: FRAME_HEADER_LEN, have: frame.len() });
    }
    if frame[0..2] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([frame[0], frame[1]]));
    }
    if frame[2] != FRAME_VERSION {
        return Err(FrameError::BadVersion(frame[2]));
    }
    let mut at = 3;
    let mut word = || {
        let truncated = FrameError::Truncated { needed: FRAME_HEADER_LEN, have: frame.len() };
        read(frame, &mut at, FRAME_HEADER_LEN).map(u32::from_be_bytes).ok_or(truncated)
    };
    let (count, body_len, declared_crc) = (word()?, word()? as usize, word()?);
    let total = FRAME_HEADER_LEN + body_len;
    if frame.len() < total {
        return Err(FrameError::Truncated { needed: total, have: frame.len() });
    }
    if frame.len() > total {
        return Err(FrameError::TrailingBytes(frame.len() - total));
    }
    let body = &frame[FRAME_HEADER_LEN..total];
    let computed = crc32(body);
    if computed != declared_crc {
        return Err(FrameError::CrcMismatch { declared: declared_crc, computed });
    }
    // `count` lies outside the CRC, so it is untrusted even when the
    // body is intact: reserve only what the body can hold and let the
    // record loop report the disagreement.
    let mut msgs = Vec::with_capacity((count as usize).min(body_len / MIN_RECORD_LEN));
    let mut off = FRAME_HEADER_LEN;
    for parsed in 0..count {
        match decode_record(frame, &mut off, total) {
            Some(msg) => msgs.push(msg),
            None => return Err(FrameError::CountMismatch { declared: count, parsed }),
        }
    }
    if off != total {
        return Err(FrameError::TrailingBytes(total - off));
    }
    Ok(msgs)
}

/// The `N` bytes at `*off`, if they end by `end`; advances `*off` past
/// them.
fn read<const N: usize>(frame: &[u8], off: &mut usize, end: usize) -> Option<[u8; N]> {
    let bytes = frame.get(*off..end)?.get(..N)?.try_into().ok()?;
    *off += N;
    Some(bytes)
}

fn decode_record<'a>(frame: &'a Bytes, off: &mut usize, end: usize) -> Option<FrameMsg<'a>> {
    let take = |off: &mut usize, n: usize| -> Option<usize> {
        let start = *off;
        if start + n > end {
            return None;
        }
        *off = start + n;
        Some(start)
    };
    let from_len = u16::from_be_bytes(read(frame, off, end)?) as usize;
    let s = take(off, from_len)?;
    let from = std::str::from_utf8(&frame[s..s + from_len]).ok()?;
    let to_len = u16::from_be_bytes(read(frame, off, end)?) as usize;
    let s = take(off, to_len)?;
    let to = std::str::from_utf8(&frame[s..s + to_len]).ok()?;
    let sent_at = f64::from_bits(u64::from_be_bytes(read(frame, off, end)?));
    let payload_len = u32::from_be_bytes(read(frame, off, end)?) as usize;
    let s = take(off, payload_len)?;
    let payload = frame.slice(s..s + payload_len);
    Some(FrameMsg { from, to, sent_at, payload })
}

/// Link-layer batching. Installing one on a [`Network`](crate::Network)
/// (see [`Network::set_link_config`](crate::Network::set_link_config))
/// is the one switch: its flush thresholds are the constants below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkConfig;

impl LinkConfig {
    /// A frame leaves once it holds this many logical payload bytes; an
    /// append that would take it past them flushes the frame first.
    pub const MAX_FRAME_BYTES: u64 = 4096;
    /// A frame leaves once it holds this many messages.
    pub const MAX_FRAME_MSGS: usize = 32;
    /// An append at least this many virtual seconds after the frame's
    /// oldest member flushes the frame before joining.
    pub const LINGER_S: f64 = 2e-3;
}

/// A message appended to an empty link, held as the envelope it leaves
/// as if nothing joins it before the flush: its payload in the buffer
/// the sender lent, its addresses the copies their endpoints registered.
#[derive(Debug)]
pub(crate) struct HeldMsg {
    pub(crate) from: Arc<str>,
    pub(crate) to: Arc<str>,
    pub(crate) sent_at: f64,
    pub(crate) payload: Bytes,
}

/// What an open frame's messages are held in.
#[derive(Debug)]
pub(crate) enum Records {
    /// One message, unframed: a flush delivers it as a plain envelope.
    Held(HeldMsg),
    /// Two or more messages, in the frame that carries them.
    Framed(FrameBuilder),
}

/// An open (not yet flushed) frame on one link. Its records are the one
/// holder of each buffered message's addresses, send instant and
/// payload. A lone message is held as its envelope-to-be; the second
/// append builds the frame, so a frame always carries at least two.
#[derive(Debug)]
pub(crate) struct OpenFrame {
    pub(crate) records: Records,
    pub(crate) first_sent: f64,
    pub(crate) max_sent: f64,
    /// Logical payload bytes (framing overhead excluded — the cost
    /// model charges payload bytes only, matching the unbatched path).
    pub(crate) payload_bytes: u64,
}

impl OpenFrame {
    /// An open frame holding its first message.
    pub(crate) fn held(msg: HeldMsg) -> Self {
        let (sent_at, payload_bytes) = (msg.sent_at, msg.payload.len() as u64);
        Self { records: Records::Held(msg), first_sent: sent_at, max_sent: sent_at, payload_bytes }
    }

    /// Append a record whose payload `write` emits in place. Appending
    /// to a held message builds the frame and writes the held message
    /// into it first.
    pub(crate) fn push(
        &mut self,
        from: &str,
        to: &str,
        sent_at: f64,
        payload_len: usize,
        write: &mut dyn FnMut(&mut BytesMut),
    ) {
        if let Records::Held(held) = &self.records {
            let mut builder = FrameBuilder::new();
            builder.push(&held.from, &held.to, held.sent_at, &held.payload);
            self.records = Records::Framed(builder);
        }
        let Records::Framed(builder) = &mut self.records else { unreachable!("framed above") };
        builder.push_with(from, to, sent_at, payload_len, write);
        self.first_sent = self.first_sent.min(sent_at);
        self.max_sent = self.max_sent.max(sent_at);
        self.payload_bytes += payload_len as u64;
    }
}

/// Per-directed-link batching state. Owned by the transport under its
/// link-table lock.
#[derive(Debug, Default)]
pub(crate) struct LinkBatcher {
    pub(crate) frame: Option<OpenFrame>,
    /// The caller's opaque tag per record of the open frame, in record
    /// order (the Schooner layer stores `(line id, call id)` for span
    /// attribution); emptied by each flush and reused by the next frame.
    pub(crate) tags: Vec<(u64, u64)>,
    /// `net.batch.flushes.{from}->{to}` and `net.batch.fill.{from}->{to}`,
    /// resolved at the link's first flush.
    pub(crate) counters: Option<(Counter, Counter)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_multiple_messages() {
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 1.5, b"hello");
        b.push_with("a:x", "b:z", 2.5, 3, &mut |buf| buf.put_slice(b"abc"));
        assert_eq!(b.count(), 2);
        let frame = b.finish();
        let msgs = decode_frame(&frame).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].from, "a:x");
        assert_eq!(msgs[0].to, "b:y");
        assert_eq!(msgs[0].sent_at, 1.5);
        assert_eq!(&msgs[0].payload[..], b"hello");
        assert_eq!(&msgs[1].payload[..], b"abc");
    }

    #[test]
    fn empty_frame_round_trips() {
        let frame = FrameBuilder::new().finish();
        assert_eq!(frame.len(), FRAME_HEADER_LEN);
        assert!(decode_frame(&frame).unwrap().is_empty());
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 0.0, &[7; 100]);
        let frame = b.finish();
        for cut in 0..frame.len() {
            let prefix = frame.slice(0..cut);
            let err = decode_frame(&prefix).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. } | FrameError::BadMagic(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_by_crc() {
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 0.0, b"payload-bytes");
        let frame = b.finish();
        for i in FRAME_HEADER_LEN..frame.len() {
            let mut bad = frame.to_vec();
            bad[i] ^= 0x40;
            let err = decode_frame(&Bytes::from(bad)).unwrap_err();
            assert!(matches!(err, FrameError::CrcMismatch { .. }), "flip at {i} gave {err:?}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let frame = FrameBuilder::new().finish();
        let mut bad = frame.to_vec();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&Bytes::from(bad)).unwrap_err(), FrameError::BadMagic(_)));
        let mut bad = frame.to_vec();
        bad[2] = 99;
        // Re-seal: version is outside the CRC'd body, so only the
        // version check fires.
        assert_eq!(decode_frame(&Bytes::from(bad)).unwrap_err(), FrameError::BadVersion(99));
    }

    #[test]
    fn split_frames_are_rejected_on_both_halves() {
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 0.0, &[1; 50]);
        let frame = b.finish();
        let mid = frame.len() / 2;
        assert!(matches!(
            decode_frame(&frame.slice(0..mid)).unwrap_err(),
            FrameError::Truncated { .. }
        ));
        assert!(matches!(
            decode_frame(&frame.slice(mid..)).unwrap_err(),
            FrameError::BadMagic(_) | FrameError::Truncated { .. }
        ));
    }

    #[test]
    fn concatenated_frames_are_rejected_as_trailing() {
        let mut a = FrameBuilder::new();
        a.push("a:x", "b:y", 0.0, b"one");
        let fa = a.finish();
        let mut two = fa.to_vec();
        two.extend_from_slice(&fa);
        assert!(matches!(
            decode_frame(&Bytes::from(two)).unwrap_err(),
            FrameError::TrailingBytes(_)
        ));
    }

    #[test]
    fn count_mismatch_detected_in_crafted_frame() {
        // Craft a frame declaring 2 records but carrying 1, resealing
        // the CRC so only the count check can fire.
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 0.0, b"one");
        let frame = b.finish();
        let mut bad = frame.to_vec();
        bad[3..7].copy_from_slice(&2u32.to_be_bytes());
        let err = decode_frame(&Bytes::from(bad)).unwrap_err();
        assert_eq!(err, FrameError::CountMismatch { declared: 2, parsed: 1 });
        // A count the body cannot possibly hold must not be believed
        // long enough to reserve memory for it.
        let mut bad = frame.to_vec();
        bad[3..7].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = decode_frame(&Bytes::from(bad)).unwrap_err();
        assert_eq!(err, FrameError::CountMismatch { declared: u32::MAX, parsed: 1 });
    }

    #[test]
    fn every_header_count_and_length_bit_flip_is_a_typed_error() {
        // Bytes 3..11 (count, body length) sit outside the CRC: damage
        // there has to be caught by the structural checks alone.
        let mut b = FrameBuilder::new();
        b.push("a:x", "b:y", 0.0, b"one");
        b.push("a:x", "b:z", 0.5, &[9; 40]);
        let frame = b.finish();
        for byte in 3..11 {
            for bit in 0..8 {
                let mut bad = frame.to_vec();
                bad[byte] ^= 1 << bit;
                let err = decode_frame(&Bytes::from(bad)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        FrameError::CountMismatch { .. }
                            | FrameError::TrailingBytes(_)
                            | FrameError::Truncated { .. }
                    ),
                    "flip of bit {bit} in byte {byte} gave {err:?}"
                );
            }
        }
    }
}
