//! The length-framed container: stream header, frame writer, and the
//! zero-copy frame reader with corruption resynchronisation.
//!
//! ## Layout
//!
//! ```text
//! stream  := header frame* end-frame
//! header  := "WCMT" version:u16le flags:u16le          (8 bytes, flags = 0)
//! frame   := sync:0xF5 kind:u8 len:u32le payload[len] crc:u32le
//! ```
//!
//! The CRC32 covers the six header bytes *and* the payload, so a frame
//! whose length field lies cannot pass its checksum, and the reader never
//! has to trust `len` further than "does this many bytes exist". The sync
//! byte gives [`FrameReader::next_lenient`] something to scan for when it
//! resynchronises past damage; a resync candidate is only accepted when a
//! complete frame with a valid CRC parses there, so garbage that happens
//! to contain `0xF5` is skipped over (a forged acceptance would need a
//! CRC32 collision).

use crate::crc::crc32;
use crate::{WireError, WireErrorKind};

/// Stream magic: the first four bytes of every `.wcmt` file.
pub const MAGIC: [u8; 4] = *b"WCMT";

/// Wire version this crate writes and the highest it reads.
pub const VERSION: u16 = 1;

/// Byte every frame starts with; the lenient reader scans for it when
/// resynchronising.
pub const SYNC: u8 = 0xF5;

/// Hard cap on a single frame's payload length (256 MiB). Encoders chunk
/// far below this; the reader rejects larger claims before touching them.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Fixed bytes of the stream header.
pub const HEADER_LEN: usize = 8;

/// Per-frame overhead: sync + kind + length + CRC.
pub const FRAME_OVERHEAD: usize = 10;

/// Stream metadata (name, counts). Payload: `str name`.
pub const KIND_META: u8 = 0x01;
/// Demand events. Payload: `count` then `count` varint cycle values.
pub const KIND_DEMANDS: u8 = 0x02;
/// Timestamps. Payload: `count`, absolute first key, zigzag key deltas.
pub const KIND_TIMES: u8 = 0x03;
/// Type registry. Payload: `count` × (`str name`, varint bcet, varint wcet).
pub const KIND_REGISTRY: u8 = 0x04;
/// Typed events. Payload: `count` then `count` varint type indices.
pub const KIND_EVENTS: u8 = 0x05;
/// Mergeable curve summary blob (see [`crate::summary`]).
pub const KIND_SUMMARY: u8 = 0x06;
/// Sweep shard metadata: shard coordinates, grid axes, and advisories
/// (see [`crate::sweep`]). At most one decodes per stream.
pub const KIND_SWEEP_META: u8 = 0x07;
/// Chunk of per-point sweep verdicts in grid-index order (see
/// [`crate::sweep`]). Requires a prior [`KIND_SWEEP_META`] frame.
pub const KIND_SWEEP_POINTS: u8 = 0x08;
/// End-of-stream marker (empty payload). Its presence distinguishes a
/// complete stream from one truncated at a frame boundary.
pub const KIND_END: u8 = 0x7E;
/// First kind reserved for application payloads (`0x40..=0x7D`).
pub const KIND_APP_BASE: u8 = 0x40;

/// Builds a stream: header up front, one CRC-sealed frame per
/// [`FrameWriter::push`], end marker on [`FrameWriter::finish`].
#[derive(Debug, Clone)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

/// Append the 8-byte stream header to `buf`.
pub(crate) fn write_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
}

/// Append one CRC-sealed frame of `kind` around `payload` to `buf`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — encoders chunk their
/// data orders of magnitude below the cap, so this is a programming
/// error, not an input error.
pub(crate) fn append_frame(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload over MAX_FRAME_LEN");
    let start = buf.len();
    buf.push(SYNC);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

impl FrameWriter {
    /// Start a stream: writes the 8-byte header.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        write_header(&mut buf);
        Self { buf }
    }

    /// Append one frame of `kind` around `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — encoders chunk
    /// their data orders of magnitude below the cap, so this is a
    /// programming error, not an input error.
    pub fn push(&mut self, kind: u8, payload: &[u8]) {
        append_frame(&mut self.buf, kind, payload);
    }

    /// Bytes written so far (header + sealed frames).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` only for a writer that could not even hold its header
    /// (never, in practice — present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seal the stream with the end marker and return the bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.push(KIND_END, &[]);
        self.buf
    }

    /// Reopen a previously [`finish`](FrameWriter::finish)ed stream for
    /// appending: validates the header, strictly re-walks every frame
    /// (CRCs included), strips the trailing end marker, and resumes the
    /// writer right after the last data frame. A header-only buffer (a
    /// stream abandoned before its first frame) is accepted unchanged.
    /// The buffer is taken by value and reused — reopening never copies
    /// the existing frames.
    ///
    /// # Errors
    ///
    /// Any strict-reader error: a damaged, truncated, or end-marker-less
    /// stream is refused rather than silently extended, and bytes after
    /// the end marker report [`WireErrorKind::TrailingBytes`].
    pub fn reopen(mut buf: Vec<u8>) -> Result<Self, WireError> {
        let header_only = buf.len() == HEADER_LEN;
        {
            let mut reader = FrameReader::new(&buf)?;
            if !header_only {
                while reader.next_strict()?.is_some() {}
            }
        }
        if !header_only {
            // The strict walk ended on a clean, empty-payload end frame
            // flush against the buffer end, so it is exactly the last
            // FRAME_OVERHEAD bytes.
            buf.truncate(buf.len() - FRAME_OVERHEAD);
        }
        Ok(Self { buf })
    }
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// One decoded frame, borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Frame kind byte.
    pub kind: u8,
    /// The payload, zero-copy.
    pub payload: &'a [u8],
    /// Absolute offset of the frame's sync byte.
    pub start: usize,
    /// Absolute offset of the first payload byte (for error reporting
    /// inside payload decoders).
    pub payload_offset: usize,
    /// Total on-wire size of the frame including overhead.
    pub wire_len: usize,
}

/// One step of lenient (SkipCorrupt) iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<'a> {
    /// A frame parsed cleanly.
    Frame(Frame<'a>),
    /// The end marker was reached; `trailing` bytes follow it (0 for a
    /// clean stream).
    End {
        /// Bytes after the end marker (lost, in accounting terms).
        trailing: usize,
    },
    /// Damage was skipped: `lost` bytes were discarded before the next
    /// parseable frame. The next call yields that frame.
    Damage {
        /// Bytes discarded while resynchronising.
        lost: usize,
    },
    /// The input ended without an end marker; `lost` bytes of
    /// unparseable tail were discarded (0 when truncated exactly at a
    /// frame boundary).
    Eof {
        /// Unparseable tail bytes discarded.
        lost: usize,
    },
}

/// Zero-copy frame iterator over a byte buffer.
///
/// Construction validates only the fixed header; frames are validated as
/// they are visited, so the reader works on partially damaged input.
/// [`FrameReader::next_strict`] fails on the first malformed byte;
/// [`FrameReader::next_lenient`] skips damage and reports what was lost.
#[derive(Debug, Clone)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Validate the fixed 8-byte stream header at the start of `bytes`.
/// Error offsets are relative to `bytes[0]`.
pub(crate) fn validate_header(bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::new(bytes.len(), WireErrorKind::Truncated));
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::new(0, WireErrorKind::BadMagic));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 || version > VERSION {
        return Err(WireError::new(4, WireErrorKind::UnsupportedVersion(version)));
    }
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    if flags != 0 {
        return Err(WireError::new(6, WireErrorKind::BadFlags));
    }
    Ok(())
}

/// Try to parse one complete frame at `at` in `bytes`. Offsets in the
/// returned frame and in errors are relative to `bytes[0]`; a truncation
/// (not enough bytes for the claimed frame) reports offset `bytes.len()`.
pub(crate) fn parse_frame_at(bytes: &[u8], at: usize) -> Result<Frame<'_>, WireError> {
    if at + 6 > bytes.len() {
        return Err(WireError::new(bytes.len(), WireErrorKind::Truncated));
    }
    if bytes[at] != SYNC {
        return Err(WireError::new(at, WireErrorKind::BadSync));
    }
    let kind = bytes[at + 1];
    let len =
        u32::from_le_bytes([bytes[at + 2], bytes[at + 3], bytes[at + 4], bytes[at + 5]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(at + 2, WireErrorKind::FrameTooLong));
    }
    let payload_start = at + 6;
    let crc_start = payload_start + len;
    if crc_start + 4 > bytes.len() {
        return Err(WireError::new(bytes.len(), WireErrorKind::Truncated));
    }
    let stored = u32::from_le_bytes([
        bytes[crc_start],
        bytes[crc_start + 1],
        bytes[crc_start + 2],
        bytes[crc_start + 3],
    ]);
    if crc32(&bytes[at..crc_start]) != stored {
        return Err(WireError::new(at, WireErrorKind::BadCrc));
    }
    Ok(Frame {
        kind,
        payload: &bytes[payload_start..crc_start],
        start: at,
        payload_offset: payload_start,
        wire_len: len + FRAME_OVERHEAD,
    })
}

impl<'a> FrameReader<'a> {
    /// Validate the stream header and position the reader at the first
    /// frame.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        validate_header(bytes)?;
        Ok(Self {
            bytes,
            pos: HEADER_LEN,
        })
    }

    /// Try to parse a complete frame at `at` without moving the reader.
    fn parse_at(&self, at: usize) -> Result<Frame<'a>, WireError> {
        parse_frame_at(self.bytes, at)
    }

    /// Next frame, strict: any malformed byte is an error. Returns
    /// `Ok(None)` exactly once, after a clean end marker with nothing
    /// following it; a stream that stops without the marker reports
    /// [`WireErrorKind::MissingEnd`].
    pub fn next_strict(&mut self) -> Result<Option<Frame<'a>>, WireError> {
        if self.pos == self.bytes.len() {
            return Err(WireError::new(self.pos, WireErrorKind::MissingEnd));
        }
        let frame = self.parse_at(self.pos)?;
        self.pos += frame.wire_len;
        if frame.kind == KIND_END {
            if self.pos != self.bytes.len() {
                return Err(WireError::new(self.pos, WireErrorKind::TrailingBytes));
            }
            return Ok(None);
        }
        Ok(Some(frame))
    }

    /// Next step, lenient: damage is skipped by scanning for the next
    /// offset where a complete frame passes its CRC. Never fails; the
    /// caller folds [`Step::Damage`]/[`Step::Eof`]/[`Step::End`] into its
    /// [`crate::DecodeReport`]. After `End` or `Eof` the reader is
    /// exhausted and keeps returning `Eof { lost: 0 }`.
    pub fn next_lenient(&mut self) -> Step<'a> {
        if self.pos >= self.bytes.len() {
            return Step::Eof { lost: 0 };
        }
        match self.parse_at(self.pos) {
            Ok(frame) => {
                self.pos += frame.wire_len;
                if frame.kind == KIND_END {
                    let trailing = self.bytes.len() - self.pos;
                    self.pos = self.bytes.len();
                    Step::End { trailing }
                } else {
                    Step::Frame(frame)
                }
            }
            Err(_) => {
                // Resync: the next acceptable position must hold a full
                // CRC-valid frame, so scanning cannot lock onto payload
                // bytes that merely look like a frame start.
                let mut q = self.pos + 1;
                while q < self.bytes.len() {
                    if self.bytes[q] == SYNC && self.parse_at(q).is_ok() {
                        let lost = q - self.pos;
                        self.pos = q;
                        return Step::Damage { lost };
                    }
                    q += 1;
                }
                let lost = self.bytes.len() - self.pos;
                self.pos = self.bytes.len();
                Step::Eof { lost }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.push(KIND_DEMANDS, b"abc");
        w.push(KIND_TIMES, b"");
        w.push(0x41, b"app payload");
        w.finish()
    }

    #[test]
    fn strict_round_trip() {
        let bytes = sample_stream();
        let mut r = FrameReader::new(&bytes).unwrap();
        let f1 = r.next_strict().unwrap().unwrap();
        assert_eq!((f1.kind, f1.payload), (KIND_DEMANDS, &b"abc"[..]));
        let f2 = r.next_strict().unwrap().unwrap();
        assert_eq!((f2.kind, f2.payload), (KIND_TIMES, &b""[..]));
        let f3 = r.next_strict().unwrap().unwrap();
        assert_eq!(f3.kind, 0x41);
        assert!(r.next_strict().unwrap().is_none());
    }

    #[test]
    fn header_guards() {
        assert_eq!(
            FrameReader::new(b"WCM").unwrap_err().kind,
            WireErrorKind::Truncated
        );
        assert_eq!(
            FrameReader::new(b"NOPE\x01\x00\x00\x00").unwrap_err().kind,
            WireErrorKind::BadMagic
        );
        let mut future = sample_stream();
        future[4] = 9;
        assert_eq!(
            FrameReader::new(&future).unwrap_err().kind,
            WireErrorKind::UnsupportedVersion(9)
        );
        let mut flagged = sample_stream();
        flagged[6] = 1;
        assert_eq!(
            FrameReader::new(&flagged).unwrap_err().kind,
            WireErrorKind::BadFlags
        );
    }

    #[test]
    fn strict_detects_truncation_and_trailing() {
        let bytes = sample_stream();
        // Truncated mid-frame.
        let mut r = FrameReader::new(&bytes[..bytes.len() - 12]).unwrap();
        let last = loop {
            match r.next_strict() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        let err = last.unwrap_err();
        assert!(matches!(
            err.kind,
            WireErrorKind::Truncated | WireErrorKind::MissingEnd
        ));
        // Trailing bytes after the end marker.
        let mut noisy = bytes.clone();
        noisy.extend_from_slice(b"junk");
        let mut r = FrameReader::new(&noisy).unwrap();
        let err = loop {
            match r.next_strict() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("trailing bytes accepted"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind, WireErrorKind::TrailingBytes);
    }

    #[test]
    fn crc_catches_length_lies() {
        let mut bytes = sample_stream();
        // Enlarge the first frame's length field without fixing the CRC:
        // the claimed region still exists, but the checksum fails.
        bytes[HEADER_LEN + 2] += 1;
        let mut r = FrameReader::new(&bytes).unwrap();
        let err = r.next_strict().unwrap_err();
        assert!(matches!(
            err.kind,
            WireErrorKind::BadCrc | WireErrorKind::Truncated
        ));
    }

    #[test]
    fn lenient_skips_a_corrupt_frame_and_counts_bytes() {
        let bytes = sample_stream();
        // Flip one payload bit of frame 1 ("abc").
        let mut dirty = bytes.clone();
        dirty[HEADER_LEN + 6] ^= 0x10;
        let mut r = FrameReader::new(&dirty).unwrap();
        let first_wire_len = 3 + FRAME_OVERHEAD;
        match r.next_lenient() {
            Step::Damage { lost } => assert_eq!(lost, first_wire_len),
            other => panic!("expected damage, got {other:?}"),
        }
        match r.next_lenient() {
            Step::Frame(f) => assert_eq!(f.kind, KIND_TIMES),
            other => panic!("expected times frame, got {other:?}"),
        }
        match r.next_lenient() {
            Step::Frame(f) => assert_eq!(f.kind, 0x41),
            other => panic!("expected app frame, got {other:?}"),
        }
        assert_eq!(r.next_lenient(), Step::End { trailing: 0 });
        assert_eq!(r.next_lenient(), Step::Eof { lost: 0 });
    }

    #[test]
    fn lenient_reports_truncated_tail() {
        let bytes = sample_stream();
        let cut = &bytes[..bytes.len() - 6];
        let mut r = FrameReader::new(cut).unwrap();
        let mut lost_total = 0;
        let mut frames = 0;
        loop {
            match r.next_lenient() {
                Step::Frame(_) => frames += 1,
                Step::Damage { lost } => lost_total += lost,
                Step::End { .. } => panic!("cut stream has no end"),
                Step::Eof { lost } => {
                    lost_total += lost;
                    break;
                }
            }
        }
        assert_eq!(frames, 3);
        assert!(lost_total > 0);
    }

    #[test]
    fn reopen_appends_after_the_end_marker() {
        let bytes = sample_stream();
        let mut w = FrameWriter::reopen(bytes).unwrap();
        w.push(0x42, b"late addition");
        let bytes = w.finish();
        let mut r = FrameReader::new(&bytes).unwrap();
        let mut kinds = Vec::new();
        while let Some(f) = r.next_strict().unwrap() {
            kinds.push(f.kind);
        }
        assert_eq!(kinds, vec![KIND_DEMANDS, KIND_TIMES, 0x41, 0x42]);
    }

    #[test]
    fn reopen_accepts_header_only_buffer() {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        let mut w = FrameWriter::reopen(header).unwrap();
        w.push(KIND_DEMANDS, b"x");
        let bytes = w.finish();
        let mut r = FrameReader::new(&bytes).unwrap();
        assert_eq!(r.next_strict().unwrap().unwrap().kind, KIND_DEMANDS);
        assert!(r.next_strict().unwrap().is_none());
    }

    #[test]
    fn reopen_refuses_damaged_streams() {
        // Truncated mid-frame: no end marker survives.
        let bytes = sample_stream();
        let cut = bytes[..bytes.len() - 4].to_vec();
        assert!(FrameWriter::reopen(cut).is_err());
        // Payload corruption: CRC fails on the strict re-walk.
        let mut dirty = bytes.clone();
        dirty[HEADER_LEN + 6] ^= 0x10;
        assert!(FrameWriter::reopen(dirty).is_err());
        // Bytes after the end marker.
        let mut noisy = bytes.clone();
        noisy.extend_from_slice(b"junk");
        assert_eq!(
            FrameWriter::reopen(noisy).unwrap_err().kind,
            WireErrorKind::TrailingBytes
        );
        // A stream that never got its end marker.
        let mut w = FrameWriter::new();
        w.push(KIND_DEMANDS, b"abc");
        let unfinished = w.buf;
        assert_eq!(
            FrameWriter::reopen(unfinished).unwrap_err().kind,
            WireErrorKind::MissingEnd
        );
    }

    #[test]
    fn max_len_claim_rejected() {
        let mut w = FrameWriter::new();
        w.push(KIND_DEMANDS, b"x");
        let mut bytes = w.finish();
        // Rewrite the length field to an absurd claim.
        bytes[HEADER_LEN + 2..HEADER_LEN + 6].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = FrameReader::new(&bytes).unwrap();
        let err = r.next_strict().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::FrameTooLong);
    }
}
