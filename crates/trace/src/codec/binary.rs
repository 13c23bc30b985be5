//! The `ppa-trace-bin-v1` binary trace format: header and block framing.
//!
//! A binary trace is an 18-byte header — the 8-byte magic
//! [`BINARY_MAGIC`], a format version byte, a [`TraceKind`] byte, and the
//! advisory event count as a little-endian `u64` — followed by framed
//! blocks (see [`super::block`]). Blocks are independently decodable, so
//! [`AnyTraceWriter`](crate::AnyTraceWriter) frames every
//! [`DEFAULT_BLOCK_EVENTS`] events with their summary and CRC, and
//! `BinaryBlocks`, the binary framing of
//! [`AnyTraceReader`](crate::AnyTraceReader), cuts a stream into framed
//! blocks without decoding them, using the frame summaries as a skip
//! index for time-bounded reads.

use super::block::{decode_block, BlockFrame, BlockSummary, FRAME_LEN};
use super::reader::{Cut, Damage, Decoded};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::IoError;
use crate::stream::StreamProbes;
use crate::time::Time;
use crate::trace::TraceKind;
use ppa_obs::Counter;
use std::io::Read;

/// Magic bytes opening every `ppa-trace-bin-v1` file.
pub const BINARY_MAGIC: [u8; 8] = *b"PPATRBIN";

/// Format version written after the magic; the only version understood.
pub const BINARY_VERSION: u8 = 1;

/// The binary format's name, mirroring the JSONL header's `format` field.
pub const BINARY_FORMAT_NAME: &str = "ppa-trace-bin-v1";

/// Default number of events framed into one block.
///
/// Around 4K events a block is large enough to amortize the 44-byte frame
/// and the per-block thread handoff of the parallel decoder, yet small
/// enough that block-granular skipping and parallelism stay fine-grained.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// Blocks kept in flight per decode worker: enough to keep each busy
/// while the consumer falls behind by a block, and the bound on the
/// memory the blocks hold.
pub(crate) const UNITS_PER_WORKER: usize = 4;

const HEADER_LEN: usize = 18;

fn kind_to_byte(kind: TraceKind) -> u8 {
    match kind {
        TraceKind::Actual => 0,
        TraceKind::Measured => 1,
        TraceKind::Approximated => 2,
    }
}

fn kind_from_byte(b: u8) -> Option<TraceKind> {
    match b {
        0 => Some(TraceKind::Actual),
        1 => Some(TraceKind::Measured),
        2 => Some(TraceKind::Approximated),
        _ => None,
    }
}

/// The header of a binary stream of `kind` announcing `events` events.
pub(crate) fn header(kind: TraceKind, events: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&BINARY_MAGIC);
    header[8] = BINARY_VERSION;
    header[9] = kind_to_byte(kind);
    header[10..18].copy_from_slice(&(events as u64).to_le_bytes());
    header
}

/// One framed block read from a binary trace, not yet decoded.
pub(crate) struct RawBlock {
    /// 1-based position in the file, reported as `line` in
    /// [`IoError::Parse`] errors.
    index: usize,
    frame: BlockFrame,
    payload: Vec<u8>,
    /// Leading events a resume seek still owes on this block; they are
    /// dropped once it decodes.
    skip: usize,
}

/// A gap describing `summary`'s whole block — the exact span a damaged
/// payload loses.
fn block_gap(block: usize, summary: BlockSummary, cause: GapCause) -> TraceGap {
    TraceGap {
        block,
        events: u64::from(summary.count),
        first_seq: Some(summary.first_seq),
        last_seq: Some(summary.last_seq),
        first_time: Some(summary.first_time),
        last_time: Some(summary.last_time),
        cause,
    }
}

/// The binary framing of [`AnyTraceReader`](crate::AnyTraceReader):
/// reads the framed blocks of a binary trace without decoding payloads.
///
/// The frame summaries also serve as a skip index: with a time bound set
/// the framing discards (reads but neither CRC-checks nor decodes) every
/// block wholly outside it, the cheap path for watermark-bounded
/// re-reads, and a resume seek discards whole already-processed blocks
/// by their frame counts. A malformed frame, input that ends inside a
/// block, and input that ends short of the header's count are damage
/// found here; a CRC mismatch or a malformed payload is found by
/// [`decode`].
pub(crate) struct BinaryBlocks<R: Read> {
    input: R,
    /// The event count the header announced.
    expected: usize,
    /// Events in the frames of every block read so far (delivered,
    /// skipped, or lost to a damaged payload).
    seen: usize,
    /// 1-based index of the last block whose frame was read.
    index: usize,
    /// Blocks whose `last_time` is before it are discarded undecoded.
    pub(crate) min_time: Option<Time>,
    /// Exclusive upper bound: blocks whose `first_time` is at or past it
    /// are discarded undecoded.
    pub(crate) max_time: Option<Time>,
    pub(crate) skipped_blocks: usize,
    /// Events inside the blocks the skip index discarded: neither
    /// delivered nor lost, the third bucket of
    /// `delivered + lost + skipped == expected`.
    pub(crate) skipped_events: u64,
    /// Stream positions (events) a resume seek still has to pass.
    pub(crate) skip_events: u64,
    done: bool,
    bytes: Counter,
    blocks: Counter,
}

impl<R: Read> BinaryBlocks<R> {
    /// Opens a binary trace whose magic, `header`, was read already:
    /// reads the rest of the 18-byte header and validates it. Returns
    /// the framing, and the trace kind and event count the header
    /// announces.
    pub(crate) fn open(
        mut input: R,
        mut header: Vec<u8>,
        probes: &StreamProbes,
    ) -> Result<(Self, TraceKind, usize), IoError> {
        let rest = HEADER_LEN.saturating_sub(header.len());
        (&mut input).take(rest as u64).read_to_end(&mut header)?;
        if header.len() < HEADER_LEN {
            return Err(IoError::BadHeader(format!(
                "binary trace header needs {HEADER_LEN} bytes, got {}",
                header.len()
            )));
        }
        if header[8] != BINARY_VERSION {
            return Err(IoError::BadHeader(format!(
                "unsupported {BINARY_FORMAT_NAME} version {}",
                header[8]
            )));
        }
        let kind = kind_from_byte(header[9])
            .ok_or_else(|| IoError::BadHeader(format!("unknown trace kind byte {}", header[9])))?;
        let expected = u64::from_le_bytes(header[10..18].try_into().expect("8 bytes")) as usize;
        probes.bytes.add(HEADER_LEN as u64);
        let blocks = BinaryBlocks {
            input,
            expected,
            seen: 0,
            index: 0,
            min_time: None,
            max_time: None,
            skipped_blocks: 0,
            skipped_events: 0,
            skip_events: 0,
            done: false,
            bytes: probes.bytes.clone(),
            blocks: probes.blocks.clone(),
        };
        Ok((blocks, kind, expected))
    }

    /// Ends the stream with `error`, or the `gaps` in its place.
    fn damage(&mut self, error: IoError, gaps: Vec<TraceGap>) -> Cut<RawBlock> {
        self.done = true;
        Some(Err(Decoded::damaged(Damage { error, gaps })))
    }

    /// A gap for whatever the header still promised beyond the events of
    /// every block read so far.
    fn rest_gap(&self, block: usize, cause: GapCause) -> TraceGap {
        let missing = (self.expected as u64).saturating_sub(self.seen as u64);
        TraceGap::unframed(block, missing, cause)
    }

    fn truncated(&self, at_least: usize) -> IoError {
        IoError::Truncated {
            expected: self.expected.max(at_least),
            got: self.seen,
        }
    }

    /// Reads the next frame and its payload into `payload`, which is
    /// reused for every block the skip index or a resume seek discards.
    /// `None` is a clean end of input.
    pub(crate) fn next_unit(&mut self, mut payload: Vec<u8>) -> Cut<RawBlock> {
        loop {
            if self.done {
                return None;
            }
            payload.clear();
            let read = (&mut self.input)
                .take(FRAME_LEN as u64)
                .read_to_end(&mut payload);
            if let Err(e) = read {
                return self.damage(IoError::Io(e), Vec::new());
            }
            if payload.is_empty() {
                // Clean end of input: damage only if the header promised
                // more events than the blocks delivered.
                if self.seen < self.expected {
                    let gap = self.rest_gap(self.index + 1, GapCause::TruncatedStream);
                    return self.damage(self.truncated(self.expected), vec![gap]);
                }
                self.done = true;
                return None;
            }
            if payload.len() < FRAME_LEN {
                // The file ends inside a frame: a short final block.
                let gap = self.rest_gap(self.index + 1, GapCause::TruncatedStream);
                return self.damage(self.truncated(self.seen + 1), vec![gap]);
            }
            self.index += 1;
            let frame_bytes = payload[..].try_into().expect("a whole frame");
            let frame = match BlockFrame::from_bytes(frame_bytes, self.index) {
                Ok(f) => f,
                Err(e) => {
                    // The frame cannot be trusted to locate the next
                    // block; the rest of the stream is one gap.
                    let gap = self.rest_gap(self.index, GapCause::MalformedFrame);
                    return self.damage(e, vec![gap]);
                }
            };
            let count = frame.summary.count as usize;
            // The buffer grows with the bytes that arrive, never to the
            // length the frame announces.
            payload.clear();
            let read = (&mut self.input)
                .take(u64::from(frame.payload_len))
                .read_to_end(&mut payload);
            if let Err(e) = read {
                return self.damage(IoError::Io(e), Vec::new());
            }
            if payload.len() < frame.payload_len as usize {
                // The file ends inside this block's payload: the frame's
                // events are lost, and anything the header promised
                // beyond them is a second gap.
                let error = self.truncated(self.seen + count);
                let mut gaps = vec![block_gap(
                    self.index,
                    frame.summary,
                    GapCause::TruncatedBlock,
                )];
                self.seen += count;
                if self.seen < self.expected {
                    gaps.push(self.rest_gap(self.index + 1, GapCause::TruncatedStream));
                }
                return self.damage(error, gaps);
            }
            self.bytes.add((FRAME_LEN + payload.len()) as u64);
            self.blocks.inc();
            self.seen += count;
            let mut skip = 0;
            if self.skip_events > 0 {
                // Resume seek: discard whole already-processed blocks by
                // their frame count, without CRC checks or decoding.
                if self.skip_events >= count as u64 {
                    self.skip_events -= count as u64;
                    continue;
                }
                skip = std::mem::take(&mut self.skip_events) as usize;
            }
            let below = self
                .min_time
                .is_some_and(|min| frame.summary.last_time < min);
            let above = self
                .max_time
                .is_some_and(|max| frame.summary.first_time >= max);
            if below || above {
                self.skipped_blocks += 1;
                // Counted here, not as a gap: the payload was never
                // CRC-checked, so any damage inside it is invisible
                // and must not be mistaken for a lenient loss.
                self.skipped_events += count as u64;
                continue;
            }
            return Some(Ok(RawBlock {
                index: self.index,
                frame,
                payload,
                skip,
            }));
        }
    }
}

/// Checks a block's CRC and decodes its payload into `events`; a
/// mismatch or a malformed payload loses the whole block.
pub(crate) fn decode(block: RawBlock, mut events: Vec<Event>) -> Decoded {
    let RawBlock {
        index,
        frame,
        payload,
        skip,
    } = block;
    let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
    span.attr_block(index as u64);
    span.attr_seq(frame.summary.first_seq);
    match decode_block(&frame, &payload, index, &mut events) {
        Ok(()) => Decoded {
            events,
            skip,
            payload,
            ..Decoded::default()
        },
        Err((error, cause)) => {
            events.clear();
            let gaps = vec![block_gap(index, frame.summary, cause)];
            Decoded {
                events,
                payload,
                ..Decoded::damaged(Damage { error, gaps })
            }
        }
    }
}
