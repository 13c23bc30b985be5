//! The `ppa-trace-bin-v1` binary trace format: writer and block framing.
//!
//! A binary trace is an 18-byte header — the 8-byte magic
//! [`BINARY_MAGIC`], a format version byte, a [`TraceKind`] byte, and the
//! advisory event count as a little-endian `u64` — followed by framed
//! blocks (see [`super::block`]). Blocks are independently decodable, so:
//!
//! - [`BinaryTraceWriter`] encodes events into blocks of
//!   [`DEFAULT_BLOCK_EVENTS`] and frames each with its summary and CRC;
//! - `BinaryBlocks` cuts a stream into framed blocks without decoding
//!   them, using the frame summaries as a skip index for time-bounded
//!   reads;
//! - [`BinaryTraceReader`] is the one [`TraceReader`] over those blocks,
//!   decoding them on 0..N worker threads.

use super::block::{decode_block, BlockEncoder, BlockFrame, BlockSummary, FRAME_LEN};
use super::reader::{Damage, Decoded, Framing, TraceReader};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::IoError;
use crate::stream::{CountingWriter, StreamProbes};
use crate::time::Time;
use crate::trace::TraceKind;
use ppa_obs::Counter;
use std::io::{BufWriter, Read, Write};

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

/// Reads into `buf` until it is full or the stream ends; returns how many
/// bytes were read (a short count means EOF).
fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

// --- Writer -------------------------------------------------------------

/// Incremental writer for the `ppa-trace-bin-v1` format.
///
/// Encodes each event into the current block's payload as it is written
/// and frames every finished block (default [`DEFAULT_BLOCK_EVENTS`]
/// events) with its event count, first/last seq and time, and a payload
/// CRC32. Only the current block's encoded bytes reside in memory, in
/// one buffer reused from block to block. As with the JSONL writer, the
/// header's event count is advisory; pass `0` when it is unknown.
pub struct BinaryTraceWriter<W: Write> {
    sink: BufWriter<CountingWriter<W>>,
    /// The current block, encoded as its events arrive.
    block: BlockEncoder,
    block_events: usize,
    written: usize,
    events: ppa_obs::Counter,
    blocks: ppa_obs::Counter,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts a binary stream of `kind` announcing `events` upcoming
    /// events, with the default block size.
    pub fn new(writer: W, kind: TraceKind, events: usize) -> Result<Self, IoError> {
        Self::with_probes(writer, kind, events, StreamProbes::noop())
    }

    /// Like [`BinaryTraceWriter::new`], recording bytes, events, and
    /// blocks into `probes` as the stream is written.
    pub fn with_probes(
        writer: W,
        kind: TraceKind,
        events: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        Self::with_block_events(writer, kind, events, DEFAULT_BLOCK_EVENTS, probes)
    }

    /// Full-control constructor: `block_events` sets how many events are
    /// framed into each block (clamped to at least 1).
    pub fn with_block_events(
        writer: W,
        kind: TraceKind,
        events: usize,
        block_events: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        let mut sink = BufWriter::new(CountingWriter::new(writer, probes.bytes));
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&BINARY_MAGIC);
        header[8] = BINARY_VERSION;
        header[9] = kind_to_byte(kind);
        header[10..18].copy_from_slice(&(events as u64).to_le_bytes());
        sink.write_all(&header)?;
        let block_events = block_events.max(1);
        Ok(BinaryTraceWriter {
            sink,
            block: BlockEncoder::default(),
            block_events,
            written: 0,
            events: probes.events,
            blocks: probes.blocks,
        })
    }

    /// Appends one event, flushing a block whenever one fills up.
    pub fn write_event(&mut self, event: &Event) -> Result<(), IoError> {
        self.block.push(event);
        self.written += 1;
        self.events.inc();
        if self.block.len() >= self.block_events {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), IoError> {
        if self.block.len() == 0 {
            return Ok(());
        }
        self.sink.write_all(&self.block.frame().to_bytes())?;
        self.sink.write_all(self.block.payload())?;
        self.block.clear();
        self.blocks.inc();
        Ok(())
    }

    /// How many events have been written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes the bytes of *completed* blocks to the underlying writer.
    /// Events of the partial in-memory block are not framed — only
    /// [`BinaryTraceWriter::finish`] does that — so a flushed prefix is a
    /// valid trace of whole blocks.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.sink.flush().map_err(IoError::Io)
    }

    /// Frames any partial block, flushes, and returns the underlying
    /// writer.
    pub fn finish(mut self) -> Result<W, IoError> {
        self.flush_block()?;
        self.sink
            .into_inner()
            .map(CountingWriter::into_inner)
            .map_err(|e| IoError::Io(e.into_error()))
    }
}

// --- Block framing ------------------------------------------------------

/// One framed block read from a binary trace, not yet decoded.
pub struct RawBlock {
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

/// The binary framing of a [`TraceReader`]: reads the framed blocks of
/// a binary trace without decoding payloads.
///
/// The frame summaries also serve as a skip index: with a time bound set
/// the framing discards (reads but neither CRC-checks nor decodes) every
/// block wholly outside it, the cheap path for watermark-bounded
/// re-reads, and a resume seek discards whole already-processed blocks
/// by their frame counts.
pub struct BinaryBlocks<R: Read> {
    input: R,
    kind: TraceKind,
    expected: usize,
    /// Events in the frames of every block read so far (delivered,
    /// skipped, or lost to a damaged payload).
    seen: usize,
    /// 1-based index of the last block whose frame was read.
    index: usize,
    /// Blocks whose `last_time` is before it are discarded undecoded.
    min_time: Option<Time>,
    /// Exclusive upper bound: blocks whose `first_time` is at or past it
    /// are discarded undecoded.
    max_time: Option<Time>,
    skipped_blocks: usize,
    /// Events inside the blocks the skip index discarded: neither
    /// delivered nor lost, the third bucket of
    /// `delivered + lost + skipped == expected`.
    skipped_events: u64,
    /// Stream positions (events) a resume seek still has to pass.
    skip_events: u64,
    done: bool,
    bytes: Counter,
    blocks: Counter,
}

impl<R: Read> BinaryBlocks<R> {
    /// Opens a binary trace, reading and validating the 18-byte header.
    fn new(mut reader: R, probes: &StreamProbes) -> Result<Self, IoError> {
        let mut header = [0u8; HEADER_LEN];
        let got = read_up_to(&mut reader, &mut header)?;
        if got < HEADER_LEN {
            return Err(IoError::BadHeader(format!(
                "binary trace header needs {HEADER_LEN} bytes, got {got}"
            )));
        }
        if header[0..8] != BINARY_MAGIC {
            return Err(IoError::BadHeader(format!(
                "bad magic {:?} (expected {BINARY_FORMAT_NAME})",
                &header[0..8]
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
        Ok(BinaryBlocks {
            input: reader,
            kind,
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
        })
    }

    fn damage(&mut self, error: IoError, gaps: Vec<TraceGap>) -> Option<Result<RawBlock, Damage>> {
        self.done = true;
        Some(Err(Damage { error, gaps }))
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
}

impl<R: Read> Framing for BinaryBlocks<R> {
    type Unit = RawBlock;

    const UNITS_PER_WORKER: usize = 4;

    /// A block's decode reserves its frame's count itself.
    const UNIT_EVENTS: usize = 0;

    fn kind(&self) -> TraceKind {
        self.kind
    }

    fn expected(&self) -> usize {
        self.expected
    }

    fn set_skip(&mut self, n: u64) {
        self.skip_events = n;
    }

    /// Reads the next frame and its payload into `payload`, which is
    /// reused for every block the skip index or a resume seek discards.
    fn next_unit(&mut self, mut payload: Vec<u8>) -> Option<Result<RawBlock, Damage>> {
        loop {
            if self.done {
                return None;
            }
            let mut frame_bytes = [0u8; FRAME_LEN];
            let got = match read_up_to(&mut self.input, &mut frame_bytes) {
                Ok(n) => n,
                Err(e) => return self.damage(IoError::Io(e), Vec::new()),
            };
            if got == 0 {
                // Clean end of input: damage only if the header promised
                // more events than the blocks delivered.
                if self.seen < self.expected {
                    let gap = self.rest_gap(self.index + 1, GapCause::TruncatedStream);
                    return self.damage(self.truncated(self.expected), vec![gap]);
                }
                self.done = true;
                return None;
            }
            if got < FRAME_LEN {
                // The file ends inside a frame: a short final block.
                let gap = self.rest_gap(self.index + 1, GapCause::TruncatedStream);
                return self.damage(self.truncated(self.seen + 1), vec![gap]);
            }
            self.index += 1;
            let frame = match BlockFrame::from_bytes(&frame_bytes, self.index) {
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

    fn decode(block: RawBlock, mut events: Vec<Event>) -> Decoded {
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

    /// Every shortfall was already found in the framing.
    fn end(&self, _delivered: u64, _lost: u64, _lines: usize) -> Option<Damage> {
        None
    }
}

/// Streaming decoder for the `ppa-trace-bin-v1` format, on 0..N decode
/// worker threads: the [`TraceReader`] over `BinaryBlocks`.
///
/// Error mapping follows the JSONL reader's conventions —
/// [`IoError::BadHeader`] for a wrong magic or version,
/// [`IoError::Truncated`] for input that ends mid-block or short of the
/// header's declared count, and [`IoError::Parse`] (with the 1-based
/// *block* index as `line`) for a malformed frame, a CRC mismatch or a
/// malformed payload. In lenient mode a block whose payload fails its
/// CRC or does not decode loses just that block; a malformed frame
/// records a gap covering the rest of the stream (a corrupt frame cannot
/// be trusted to locate the next block, so resynchronization is
/// impossible).
pub type BinaryTraceReader<R> = TraceReader<BinaryBlocks<R>>;

impl<R: Read> TraceReader<BinaryBlocks<R>> {
    /// Opens a binary stream, reading and validating the header, to
    /// decode on `workers` threads (0: on the caller's thread, spawning
    /// none).
    pub fn new(reader: R, workers: usize) -> Result<Self, IoError> {
        Self::with_probes(reader, workers, StreamProbes::noop())
    }

    /// Like [`BinaryTraceReader::new`], recording bytes, events, blocks,
    /// parse errors and gaps into `probes` as the stream is consumed.
    pub fn with_probes(reader: R, workers: usize, probes: StreamProbes) -> Result<Self, IoError> {
        let blocks = BinaryBlocks::new(reader, &probes)?;
        Ok(TraceReader::from_framing(blocks, workers, probes))
    }

    /// Engages the skip index: blocks whose `last_time` is strictly
    /// before `t` are discarded without CRC verification or decoding
    /// (their events still count toward truncation accounting). The
    /// first surviving block may begin before `t`; callers wanting an
    /// exact bound filter the leading events themselves.
    ///
    /// Skipped events are accounted separately from lenient-mode
    /// losses — a skipped block is never CRC-checked, so damage inside
    /// it is invisible and must not surface as a [`TraceGap`]. With
    /// skipping active the conservation law is
    /// `delivered + events_lost() + skipped_events() == expected`
    /// (for a stream that is not itself truncated).
    pub fn set_min_time(&mut self, t: Time) {
        self.framing_mut().min_time = Some(t);
    }

    /// The other half of the skip index: blocks whose `first_time` is at
    /// or past `t` (exclusive upper bound, matching the half-open
    /// windows of the slice layer) are discarded without CRC
    /// verification or decoding. The last surviving block may extend
    /// past `t`; callers wanting an exact bound filter the trailing
    /// events themselves. Skipping continues to read frames to the end
    /// of input, so truncation detection and the conservation law
    /// documented on [`set_min_time`] are unaffected.
    ///
    /// [`set_min_time`]: BinaryTraceReader::set_min_time
    pub fn set_max_time(&mut self, t: Time) {
        self.framing_mut().max_time = Some(t);
    }

    /// How many blocks the skip index has discarded so far.
    pub fn skipped_blocks(&self) -> usize {
        self.framing().skipped_blocks
    }

    /// How many events were inside the blocks the skip index discarded.
    /// These are neither delivered nor counted in [`events_lost`]; they
    /// are the third bucket of the conservation law documented on
    /// [`set_min_time`].
    ///
    /// [`events_lost`]: BinaryTraceReader::events_lost
    /// [`set_min_time`]: BinaryTraceReader::set_min_time
    pub fn skipped_events(&self) -> u64 {
        self.framing().skipped_events
    }
}
