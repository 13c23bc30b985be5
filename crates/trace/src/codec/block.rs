//! Block framing for the `ppa-trace-bin-v1` format.
//!
//! A binary trace is a header followed by framed blocks of up to a few
//! thousand events each. Every block is independently decodable: its
//! fixed-size frame carries everything a decoder needs (payload length,
//! event count, first/last sequence and time, a CRC32 of the payload), so
//! blocks can be decoded in parallel and stitched back together in file
//! order, and the first/last-time summary doubles as a skip index for
//! time-bounded reads.
//!
//! ## Frame layout (44 bytes, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  payload_len   bytes of varint payload that follow
//!      4     4  count         events in the block (1 ..= payload_len / 4)
//!      8     8  first_seq     seq of the first event
//!     16     8  last_seq      seq of the last event
//!     24     8  first_time    timestamp of the first event (ns)
//!     32     8  last_time     timestamp of the last event (ns)
//!     40     4  crc32         CRC32 (IEEE) of the payload bytes
//! ```
//!
//! ## Payload layout
//!
//! Per event: a one-byte [`EventKind`] tag, the kind's operands as
//! varints (signed ones zigzag-mapped; tags and field types are columns
//! of the kind table in `crate::kind`), then zigzag-varint deltas for
//! time and seq (relative to the previous event in the block; the frame's
//! `first_time`/`first_seq` seed the chain, so the first event encodes
//! two zero deltas) and a varint processor id.

use super::varint::{read_varint, read_varint_signed, write_varint, write_varint_signed};
use crate::event::{Event, EventKind};
use crate::gap::GapCause;
use crate::ids::ProcessorId;
use crate::io::IoError;
use crate::kind::{for_each_kind, Int, Raw};
use crate::time::Time;

/// Byte length of an encoded block frame.
pub(crate) const FRAME_LEN: usize = 44;

/// Upper bound accepted for a frame's `payload_len` (64 MiB). A frame
/// announcing more is treated as corrupt.
pub(crate) const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// The per-block summary carried by every frame of a binary trace.
///
/// Summaries are readable without decoding the payload, which makes them
/// a skip index: a reader looking only for events at or after some
/// watermark can discard every block whose `last_time` is below it
/// without touching the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Events in the block (at least 1).
    pub count: u32,
    /// Sequence number of the block's first event.
    pub first_seq: u64,
    /// Sequence number of the block's last event.
    pub last_seq: u64,
    /// Timestamp of the block's first event.
    pub first_time: Time,
    /// Timestamp of the block's last event.
    pub last_time: Time,
}

/// One decoded block frame: the summary plus payload accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockFrame {
    pub(crate) payload_len: u32,
    pub(crate) summary: BlockSummary,
    pub(crate) crc: u32,
}

impl BlockFrame {
    /// Serializes the frame into its fixed 44-byte layout.
    pub(crate) fn to_bytes(self) -> [u8; FRAME_LEN] {
        let mut out = [0u8; FRAME_LEN];
        out[0..4].copy_from_slice(&self.payload_len.to_le_bytes());
        out[4..8].copy_from_slice(&self.summary.count.to_le_bytes());
        out[8..16].copy_from_slice(&self.summary.first_seq.to_le_bytes());
        out[16..24].copy_from_slice(&self.summary.last_seq.to_le_bytes());
        out[24..32].copy_from_slice(&self.summary.first_time.as_nanos().to_le_bytes());
        out[32..40].copy_from_slice(&self.summary.last_time.as_nanos().to_le_bytes());
        out[40..44].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Parses a frame; `block` is the 1-based block index used in errors.
    /// A frame must hold at least one event and no more than its payload
    /// can: every event costs at least 4 bytes (tag, time delta, seq
    /// delta, processor).
    pub(crate) fn from_bytes(bytes: &[u8; FRAME_LEN], block: usize) -> Result<Self, IoError> {
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let frame = BlockFrame {
            payload_len: u32_at(0),
            summary: BlockSummary {
                count: u32_at(4),
                first_seq: u64_at(8),
                last_seq: u64_at(16),
                first_time: Time::from_nanos(u64_at(24)),
                last_time: Time::from_nanos(u64_at(32)),
            },
            crc: u32_at(40),
        };
        if frame.summary.count == 0
            || frame.summary.count > frame.payload_len / 4
            || frame.payload_len > MAX_PAYLOAD_LEN
        {
            return Err(IoError::Parse {
                line: block,
                message: format!(
                    "block {block}: implausible frame (count {}, payload {} bytes)",
                    frame.summary.count, frame.payload_len
                ),
            });
        }
        Ok(frame)
    }
}

// --- CRC32 (IEEE 802.3, reflected) -------------------------------------

/// Eight derived tables for slicing-by-8: `TABLES[0]` is the classic
/// byte-at-a-time table, and `TABLES[k][b]` is the CRC contribution of
/// byte `b` seen `k` positions before the end of an 8-byte word. The
/// polynomial is unchanged, so outputs are bit-identical to the plain
/// table walk — only the per-iteration throughput differs (8 bytes per
/// step instead of 1, which matters because every decoded block pays a
/// full-payload CRC before any event is parsed).
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Advances a raw (pre-inverted) CRC state over `data` using
/// slicing-by-8 with a byte-at-a-time tail.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes(w[0..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(w[4..8].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum guarding every
/// block payload of a binary trace, exposed so other integrity-checked
/// file formats (notably analysis checkpoints) can share the exact same
/// polynomial and table.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0u32, data)
}

/// CRC32 of the previous record's CRC (4 little-endian bytes) followed
/// by `data`, computed without materializing the concatenation. This is
/// the per-record checksum of chained checkpoint files: each record's
/// CRC commits to its predecessor's, so a truncated or reordered tail is
/// detected by re-walking the chain.
pub fn crc32_chain(prev: u32, data: &[u8]) -> u32 {
    let c = crc32_update(!0u32, &prev.to_le_bytes());
    !crc32_update(c, data)
}

// --- EventKind tag codec ------------------------------------------------

/// Declares `write_kind` and `read_kind` from the kind table: the row's
/// tag byte, then each field in row order as a varint, zigzag-mapped
/// when it is signed.
macro_rules! binary_kind_codec {
    ($($name:ident { $($field:ident: $ty:ty),* } => $tag:literal, $mnem:literal, $group:ident,
        [$($class:ident)?], [$($shift:ident)?], $fmt:literal;)*) => {
        fn write_kind(buf: &mut Vec<u8>, kind: &EventKind) {
            match *kind {
                $(EventKind::$name { $($field),* } => {
                    buf.push($tag);
                    $(write_operand(buf, $field);)*
                })*
            }
        }

        fn read_kind(tag: u8, input: &[u8], pos: &mut usize) -> Option<EventKind> {
            Some(match tag {
                $($tag => EventKind::$name { $($field: read_operand(input, pos)?),* },)*
                _ => return None,
            })
        }
    };
}
for_each_kind!(binary_kind_codec);

#[inline]
fn write_operand<T: Raw>(buf: &mut Vec<u8>, value: T) {
    match T::INT {
        Int::U32 | Int::U64 => write_varint(buf, value.to_raw()),
        Int::I64 => write_varint_signed(buf, value.to_raw() as i64),
    }
}

#[inline]
fn read_operand<T: Raw>(input: &[u8], pos: &mut usize) -> Option<T> {
    let raw = match T::INT {
        Int::U32 => read_varint(input, pos).filter(|&v| v <= u64::from(u32::MAX))?,
        Int::U64 => read_varint(input, pos)?,
        Int::I64 => read_varint_signed(input, pos)? as u64,
    };
    Some(T::from_raw(raw))
}

// --- Block encode / decode ----------------------------------------------

/// Encodes one block an event at a time: each event goes into the
/// payload as it arrives, the first/last summary is tracked alongside,
/// and the CRC is computed once, when the block is framed. The payload
/// buffer is kept across [`frame_into`](Self::frame_into), so a writer
/// encodes every block into the same allocation.
///
/// Events need not be time-ordered (deltas are signed), though ordered
/// input is what makes them compress well.
#[derive(Debug, Default)]
pub(crate) struct BlockEncoder {
    payload: Vec<u8>,
    count: u32,
    first: (Time, u64),
    /// Time (ns) and seq of the latest event: the next one's delta base.
    last: (u64, u64),
}

impl BlockEncoder {
    /// Events encoded since the last [`frame_into`](Self::frame_into).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Appends `e` to the payload.
    #[inline]
    pub(crate) fn push(&mut self, e: &Event) {
        let t = e.time.as_nanos();
        if self.count == 0 {
            // The frame's first time/seq seed the chain: two zero deltas.
            self.first = (e.time, e.seq);
            self.last = (t, e.seq);
        }
        let payload = &mut self.payload;
        write_kind(payload, &e.kind);
        write_varint_signed(payload, t.wrapping_sub(self.last.0) as i64);
        write_varint_signed(payload, e.seq.wrapping_sub(self.last.1) as i64);
        write_varint(payload, u64::from(e.proc.0));
        self.last = (t, e.seq);
        self.count += 1;
    }

    /// The frame of the block encoded so far (at least one event).
    pub(crate) fn frame(&self) -> BlockFrame {
        debug_assert!(self.count > 0, "blocks hold at least one event");
        BlockFrame {
            payload_len: self.payload.len() as u32,
            summary: BlockSummary {
                count: self.count,
                first_seq: self.first.1,
                last_seq: self.last.1,
                first_time: self.first.0,
                last_time: Time::from_nanos(self.last.0),
            },
            crc: crc32(&self.payload),
        }
    }

    /// Appends the block encoded so far (at least one event), frame then
    /// payload, to `out`, and starts the next one in the same payload
    /// allocation.
    pub(crate) fn frame_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.frame().to_bytes());
        out.extend_from_slice(&self.payload);
        self.payload.clear();
        self.count = 0;
    }
}

/// Encodes one non-empty block of events into a frame and its payload.
#[cfg(test)]
pub(crate) fn encode_block(events: &[Event]) -> (BlockFrame, Vec<u8>) {
    assert!(!events.is_empty(), "blocks hold at least one event");
    let mut block = BlockEncoder::default();
    events.iter().for_each(|e| block.push(e));
    (block.frame(), block.payload)
}

/// A zero-copy decoding view over one block payload.
///
/// The cursor borrows the payload buffer and decodes one event per
/// [`BlockCursor::next_event`] call — no intermediate `Vec<u8>` copies,
/// no per-block event allocation unless the caller wants one. The CRC is
/// verified up front (corrupt payloads are rejected before any event is
/// parsed); the trailing-bytes and frame-summary checks run when the
/// cursor yields its final `None`, so a drained cursor has performed
/// every check [`decode_block`] makes.
pub(crate) struct BlockCursor<'a> {
    payload: &'a [u8],
    summary: BlockSummary,
    block: usize,
    pos: usize,
    decoded: u32,
    prev_time: u64,
    prev_seq: u64,
    first: (Time, u64),
    last: (Time, u64),
}

impl<'a> BlockCursor<'a> {
    /// Verifies the payload CRC against `frame` and positions a cursor
    /// at the first event. `block` is the 1-based block index reported
    /// (as `line`) in [`IoError::Parse`] errors.
    pub(crate) fn new(
        frame: &BlockFrame,
        payload: &'a [u8],
        block: usize,
    ) -> Result<Self, IoError> {
        let actual = {
            let mut span = ppa_obs::span_enter(ppa_obs::Stage::CrcVerify);
            span.attr_block(block as u64);
            crc32(payload)
        };
        if actual != frame.crc {
            return Err(IoError::Parse {
                line: block,
                message: format!(
                    "block {block}: CRC mismatch (stored {:#010x}, computed {actual:#010x})",
                    frame.crc
                ),
            });
        }
        Ok(BlockCursor {
            payload,
            summary: frame.summary,
            block,
            pos: 0,
            decoded: 0,
            prev_time: frame.summary.first_time.as_nanos(),
            prev_seq: frame.summary.first_seq,
            first: (Time::ZERO, 0),
            last: (Time::ZERO, 0),
        })
    }

    fn corrupt(&self, message: String) -> IoError {
        IoError::Parse {
            line: self.block,
            message,
        }
    }

    /// Decodes the next event, or returns `Ok(None)` once all `count`
    /// events were produced and the block-level checks passed.
    pub(crate) fn next_event(&mut self) -> Result<Option<Event>, IoError> {
        if self.decoded == self.summary.count {
            return self.finish().map(|()| None);
        }
        let (block, i) = (self.block, self.decoded);
        let payload = self.payload;
        let pos = &mut self.pos;
        let err = || IoError::Parse {
            line: block,
            message: format!("block {block}: malformed event {i}"),
        };
        let tag = *payload.get(*pos).ok_or_else(err)?;
        *pos += 1;
        let kind = read_kind(tag, payload, pos).ok_or_else(err)?;
        let dt = read_varint_signed(payload, pos).ok_or_else(err)?;
        let dseq = read_varint_signed(payload, pos).ok_or_else(err)?;
        let proc = read_varint(payload, pos)
            .and_then(|v| u16::try_from(v).ok())
            .ok_or_else(err)?;
        self.prev_time = self.prev_time.wrapping_add(dt as u64);
        self.prev_seq = self.prev_seq.wrapping_add(dseq as u64);
        let event = Event::new(
            Time::from_nanos(self.prev_time),
            ProcessorId(proc),
            self.prev_seq,
            kind,
        );
        if self.decoded == 0 {
            self.first = (event.time, event.seq);
        }
        self.last = (event.time, event.seq);
        self.decoded += 1;
        Ok(Some(event))
    }

    /// Post-decode checks: every payload byte consumed and the decoded
    /// first/last events agree with the frame summary.
    fn finish(&self) -> Result<(), IoError> {
        if self.pos != self.payload.len() {
            return Err(self.corrupt(format!(
                "block {block}: {n} trailing payload bytes",
                block = self.block,
                n = self.payload.len() - self.pos
            )));
        }
        if self.first != (self.summary.first_time, self.summary.first_seq)
            || self.last != (self.summary.last_time, self.summary.last_seq)
        {
            return Err(self.corrupt(format!(
                "block {block}: payload does not match its frame summary",
                block = self.block
            )));
        }
        Ok(())
    }
}

/// Decodes a block payload against its frame, appending the events to
/// `out` — the one payload decoder behind every binary read.
///
/// Verifies the CRC32 before touching the payload, then checks that the
/// decode consumed exactly `payload_len` bytes, produced exactly `count`
/// events, and reproduced the frame's first/last summary. `block` is the
/// 1-based block index reported (as `line`) in [`IoError::Parse`] errors;
/// the [`GapCause`] beside an error says which check failed. Room for
/// `count` events is reserved up front, which [`BlockFrame::from_bytes`]
/// bounds by the payload's length.
pub(crate) fn decode_block(
    frame: &BlockFrame,
    payload: &[u8],
    block: usize,
    out: &mut Vec<Event>,
) -> Result<(), (IoError, GapCause)> {
    let mut cursor =
        BlockCursor::new(frame, payload, block).map_err(|e| (e, GapCause::CrcMismatch))?;
    out.reserve(frame.summary.count as usize);
    while let Some(event) = cursor
        .next_event()
        .map_err(|e| (e, GapCause::MalformedPayload))?
    {
        out.push(event);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LockId, LoopId, SemId, StatementId, SyncTag, SyncVarId, TaskId};

    /// [`decode_block`] into a fresh `Vec`.
    fn decode(frame: &BlockFrame, payload: &[u8], block: usize) -> Result<Vec<Event>, IoError> {
        let mut out = Vec::new();
        decode_block(frame, payload, block, &mut out).map_err(|(e, _)| e)?;
        Ok(out)
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(
                Time::from_nanos(100),
                ProcessorId(0),
                0,
                EventKind::ProgramBegin,
            ),
            Event::new(
                Time::from_nanos(140),
                ProcessorId(1),
                1,
                EventKind::Statement {
                    stmt: StatementId(7),
                },
            ),
            Event::new(
                Time::from_nanos(150),
                ProcessorId(1),
                2,
                EventKind::Advance {
                    var: SyncVarId(0),
                    tag: SyncTag(-3),
                },
            ),
            Event::new(
                Time::from_nanos(150),
                ProcessorId(2),
                3,
                EventKind::AwaitEnd {
                    var: SyncVarId(0),
                    tag: SyncTag(4),
                },
            ),
            Event::new(
                Time::from_nanos(900),
                ProcessorId(0),
                4,
                EventKind::ProgramEnd,
            ),
        ]
    }

    #[test]
    fn block_round_trips() {
        let events = sample_events();
        let (frame, payload) = encode_block(&events);
        assert_eq!(frame.summary.count, 5);
        assert_eq!(frame.summary.first_time, Time::from_nanos(100));
        assert_eq!(frame.summary.last_time, Time::from_nanos(900));
        assert_eq!(frame.summary.first_seq, 0);
        assert_eq!(frame.summary.last_seq, 4);
        let back = decode(&frame, &payload, 1).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn episode_kinds_round_trip() {
        let kinds = [
            EventKind::LockAcquire { lock: LockId(9) },
            EventKind::LockRelease { lock: LockId(9) },
            EventKind::SemAcquire { sem: SemId(0) },
            EventKind::SemRelease {
                sem: SemId(u32::MAX),
            },
            EventKind::TaskFork { task: TaskId(300) },
            EventKind::TaskJoin { task: TaskId(300) },
        ];
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                Event::new(
                    Time::from_nanos(10 * i as u64),
                    ProcessorId((i % 3) as u16),
                    i as u64,
                    kind,
                )
            })
            .collect();
        let (frame, payload) = encode_block(&events);
        assert_eq!(decode(&frame, &payload, 1).unwrap(), events);
    }

    #[test]
    fn frame_bytes_round_trip() {
        let (frame, _) = encode_block(&sample_events());
        let bytes = frame.to_bytes();
        assert_eq!(BlockFrame::from_bytes(&bytes, 1).unwrap(), frame);
    }

    #[test]
    fn corrupted_payload_fails_crc_with_block_index() {
        let (frame, mut payload) = encode_block(&sample_events());
        payload[3] ^= 0xff;
        match decode(&frame, &payload, 7) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 7);
                assert!(message.contains("CRC mismatch"), "{message}");
            }
            other => panic!("expected CRC parse error, got {other:?}"),
        }
        let cause = decode_block(&frame, &payload, 7, &mut Vec::new()).map_err(|(_, c)| c);
        assert_eq!(cause, Err(GapCause::CrcMismatch));
    }

    #[test]
    fn implausible_frames_are_rejected() {
        let (frame, _) = encode_block(&sample_events());
        let mut zero_count = frame;
        zero_count.summary.count = 0;
        assert!(matches!(
            BlockFrame::from_bytes(&zero_count.to_bytes(), 1),
            Err(IoError::Parse { .. })
        ));
        let mut huge = frame;
        huge.payload_len = MAX_PAYLOAD_LEN + 1;
        assert!(matches!(
            BlockFrame::from_bytes(&huge.to_bytes(), 1),
            Err(IoError::Parse { .. })
        ));
        // More events than the payload has room for, at 4 bytes each.
        let mut crowded = frame;
        crowded.summary.count = frame.payload_len / 4 + 1;
        assert!(matches!(
            BlockFrame::from_bytes(&crowded.to_bytes(), 1),
            Err(IoError::Parse { .. })
        ));
        crowded.summary.count -= 1;
        assert!(BlockFrame::from_bytes(&crowded.to_bytes(), 1).is_ok());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_chain_matches_materialized_concatenation() {
        for (prev, data) in [
            (0u32, &b""[..]),
            (0, b"123456789"),
            (0xDEAD_BEEF, b"payload bytes of arbitrary length 12345"),
            (0xCBF4_3926, b"x"),
        ] {
            let mut concat = prev.to_le_bytes().to_vec();
            concat.extend_from_slice(data);
            assert_eq!(crc32_chain(prev, data), crc32(&concat));
        }
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference_on_all_lengths() {
        // The slicing-by-8 kernel kicks in at 8 bytes; sweep lengths
        // across that boundary against a one-byte-at-a-time reference.
        let bytes: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        let reference = |data: &[u8]| -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
            }
            !c
        };
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), reference(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn cursor_decode_matches_owned_decode() {
        let events = sample_events();
        let (frame, payload) = encode_block(&events);
        let mut cursor = BlockCursor::new(&frame, &payload, 1).unwrap();
        let mut stepped = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            stepped.push(e);
        }
        assert_eq!(stepped, decode(&frame, &payload, 1).unwrap());
        // And the reuse path appends without clearing.
        let mut out = stepped.clone();
        decode_block(&frame, &payload, 1, &mut out).unwrap();
        assert_eq!(out.len(), events.len() * 2);
        assert_eq!(&out[events.len()..], &events[..]);
    }

    #[test]
    fn cursor_rejects_summary_mismatch_at_drain_time() {
        let (mut frame, payload) = encode_block(&sample_events());
        frame.summary.last_seq += 1; // lie in the summary, payload intact
        frame.crc = crc32(&payload);
        let mut cursor = BlockCursor::new(&frame, &payload, 3).unwrap();
        let last = loop {
            match cursor.next_event() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        match last {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("frame summary"), "{message}");
            }
            other => panic!("expected summary mismatch, got {other:?}"),
        }
        let cause = decode_block(&frame, &payload, 3, &mut Vec::new()).map_err(|(_, c)| c);
        assert_eq!(cause, Err(GapCause::MalformedPayload));
    }

    #[test]
    fn unordered_events_still_round_trip() {
        // Deltas are signed, so even a time-reversed block is lossless.
        let mut events = sample_events();
        events.reverse();
        let (frame, payload) = encode_block(&events);
        assert_eq!(decode(&frame, &payload, 1).unwrap(), events);
    }

    #[test]
    fn extreme_field_values_round_trip() {
        let events = vec![
            Event::new(
                Time::from_nanos(u64::MAX),
                ProcessorId(u16::MAX),
                u64::MAX,
                EventKind::Advance {
                    var: SyncVarId(u32::MAX),
                    tag: SyncTag(i64::MIN),
                },
            ),
            Event::new(
                Time::ZERO,
                ProcessorId(0),
                0,
                EventKind::IterationEnd {
                    loop_id: LoopId(u32::MAX),
                    iter: u64::MAX,
                },
            ),
        ];
        let (frame, payload) = encode_block(&events);
        assert_eq!(decode(&frame, &payload, 1).unwrap(), events);
    }
}
