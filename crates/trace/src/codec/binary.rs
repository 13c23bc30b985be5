//! The `ppa-trace-bin-v1` binary trace format: writer, serial reader,
//! raw block access, and a parallel block decoder.
//!
//! A binary trace is an 18-byte header — the 8-byte magic
//! [`BINARY_MAGIC`], a format version byte, a [`TraceKind`] byte, and the
//! advisory event count as a little-endian `u64` — followed by framed
//! blocks (see [`super::block`]). Blocks are independently decodable, so:
//!
//! - [`BinaryTraceWriter`] encodes events into blocks of
//!   [`DEFAULT_BLOCK_EVENTS`] and frames each with its summary and CRC;
//! - [`BinaryTraceReader`] is the serial streaming decoder, a drop-in
//!   sibling of [`TraceStreamReader`](crate::TraceStreamReader);
//! - [`BinaryBlockReader`] yields raw framed blocks without decoding,
//!   using the frame summaries as a skip index for time-bounded reads;
//! - [`ParallelBinaryReader`] decodes batches of blocks on worker
//!   threads and stitches the results back in file (seq) order.

use super::block::{
    decode_block, decode_block_into, BlockCursor, BlockEncoder, BlockFrame, BlockSummary, FRAME_LEN,
};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::IoError;
use crate::stream::{CountingWriter, StreamProbes};
use crate::time::Time;
use crate::trace::TraceKind;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

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

// --- Raw block reader ---------------------------------------------------

/// One framed block read from a binary trace, not yet decoded.
#[derive(Debug, Clone)]
pub struct RawBlock {
    index: usize,
    frame: BlockFrame,
    payload: Vec<u8>,
}

impl RawBlock {
    /// The block's 1-based position in the file (reported as `line` in
    /// [`IoError::Parse`] errors).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The frame summary: event count, first/last seq and time.
    pub fn summary(&self) -> BlockSummary {
        self.frame.summary
    }

    /// Verifies the payload CRC and decodes the block's events.
    pub fn decode(&self) -> Result<Vec<Event>, IoError> {
        let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
        span.attr_block(self.index as u64);
        span.attr_seq(self.frame.summary.first_seq);
        decode_block(&self.frame, &self.payload, self.index)
    }

    /// Like [`RawBlock::decode`], appending into a caller-recycled
    /// buffer instead of allocating a fresh `Vec` per block.
    pub fn decode_into(&self, out: &mut Vec<Event>) -> Result<(), IoError> {
        let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
        span.attr_block(self.index as u64);
        span.attr_seq(self.frame.summary.first_seq);
        decode_block_into(&self.frame, &self.payload, self.index, out)
    }

    /// Consumes the block, returning its payload buffer so the caller
    /// can hand it back to [`BinaryBlockReader::recycle_payload`].
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// Classifies why [`RawBlock::decode`] failed, for gap reporting: a
    /// stored-vs-computed CRC mismatch, or payload bytes that passed the
    /// CRC but did not decode to the events the frame promised.
    pub fn gap_cause(&self) -> GapCause {
        if super::block::crc32(&self.payload) != self.frame.crc {
            GapCause::CrcMismatch
        } else {
            GapCause::MalformedPayload
        }
    }

    /// The gap record for this whole block, used when lenient decoding
    /// skips it.
    pub fn to_gap(&self, cause: GapCause) -> TraceGap {
        block_gap(self.index, self.frame.summary, cause)
    }
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

/// Reads the framed blocks of a binary trace without decoding payloads.
///
/// This is the layer both decoders share: [`BinaryTraceReader`] decodes
/// each block inline, [`ParallelBinaryReader`] fans batches out to
/// worker threads. The frame summaries also serve as a skip index —
/// [`BinaryBlockReader::set_min_time`] makes the reader discard (read
/// but neither CRC-check nor decode) every block that ends before a
/// time bound, the cheap path for watermark-bounded re-reads.
pub struct BinaryBlockReader<R: Read> {
    input: R,
    kind: TraceKind,
    expected: usize,
    /// Events delivered (or skipped) by fully-read blocks so far.
    seen: usize,
    /// 1-based index of the next block.
    index: usize,
    min_time: Option<Time>,
    /// Exclusive upper time bound of the skip index; blocks whose
    /// `first_time` is at or past it are discarded undecoded.
    max_time: Option<Time>,
    skipped_blocks: usize,
    /// Events inside blocks the skip index discarded. These are in
    /// `seen` (the blocks were fully read) but are neither delivered
    /// nor lost, so lenient accounting must treat them as a third
    /// bucket: `delivered + lost + skipped == expected`.
    skipped_events: u64,
    done: bool,
    /// Record damaged regions as gaps instead of failing; see
    /// [`BinaryBlockReader::set_lenient`].
    lenient: bool,
    /// Stream positions (events) still to skip without decoding.
    skip_events: u64,
    /// Residual partial skip inside the block just returned; consumers
    /// collect it with [`BinaryBlockReader::take_event_skip`].
    event_skip: u64,
    gaps: Vec<TraceGap>,
    /// Events swallowed by the gaps recorded so far.
    lost: u64,
    /// Returned payload buffers awaiting reuse; bounds allocation churn
    /// to a steady state of one buffer per in-flight block.
    spare_payloads: Vec<Vec<u8>>,
    probes: StreamProbes,
}

impl<R: Read> BinaryBlockReader<R> {
    /// Opens a binary trace, reading and validating the 18-byte header.
    pub fn new(reader: R) -> Result<Self, IoError> {
        Self::with_probes(reader, StreamProbes::noop())
    }

    /// Like [`BinaryBlockReader::new`], recording bytes, blocks, and
    /// parse errors into `probes`.
    pub fn with_probes(mut reader: R, probes: StreamProbes) -> Result<Self, IoError> {
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
        Ok(BinaryBlockReader {
            input: reader,
            kind,
            expected,
            seen: 0,
            index: 0,
            min_time: None,
            max_time: None,
            skipped_blocks: 0,
            skipped_events: 0,
            done: false,
            lenient: false,
            skip_events: 0,
            event_skip: 0,
            gaps: Vec::new(),
            lost: 0,
            spare_payloads: Vec::new(),
            probes,
        })
    }

    /// Hands a payload buffer back for reuse by a later
    /// [`BinaryBlockReader::next_block`]. Dropping the buffer instead is
    /// always correct — recycling only saves the allocator round trip.
    pub fn recycle_payload(&mut self, mut buf: Vec<u8>) {
        // A small cap keeps a burst of recycled buffers (e.g. a parallel
        // decoder draining) from pinning memory indefinitely.
        if self.spare_payloads.len() < 64 {
            buf.clear();
            self.spare_payloads.push(buf);
        }
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.expected
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
        self.min_time = Some(t);
    }

    /// The other half of the skip index: blocks whose `first_time` is at
    /// or past `t` (exclusive upper bound, matching the half-open
    /// windows of the slice layer) are discarded without CRC
    /// verification or decoding. The last surviving block may extend
    /// past `t`; callers wanting an exact bound filter the trailing
    /// events themselves. Unlike [`set_min_time`], skipping continues to
    /// read frames to the end of input, so truncation detection and the
    /// conservation law documented on [`set_min_time`] are unaffected.
    ///
    /// [`set_min_time`]: BinaryBlockReader::set_min_time
    pub fn set_max_time(&mut self, t: Time) {
        self.max_time = Some(t);
    }

    /// How many blocks the skip index has discarded so far.
    pub fn skipped_blocks(&self) -> usize {
        self.skipped_blocks
    }

    /// How many events were inside the blocks the skip index discarded.
    /// These are neither delivered nor counted in [`events_lost`]; they
    /// are the third bucket of the conservation law documented on
    /// [`set_min_time`].
    ///
    /// [`events_lost`]: BinaryBlockReader::events_lost
    /// [`set_min_time`]: BinaryBlockReader::set_min_time
    pub fn skipped_events(&self) -> u64 {
        self.skipped_events
    }

    /// Switches the reader into lenient mode.
    ///
    /// Damaged regions are then recorded as [`TraceGap`]s instead of
    /// ending the stream with an error: input that ends mid-block or
    /// short of the declared count records a truncation gap and yields a
    /// clean end of stream, and a malformed frame records a gap covering
    /// the rest of the stream (a corrupt frame cannot be trusted to
    /// locate the next block, so resynchronization is impossible).
    /// Payload-level damage — CRC mismatches — is detected at decode
    /// time; decoders record those gaps through
    /// [`BinaryBlockReader::record_gap`] and keep going, skipping just
    /// the damaged block. I/O errors remain fatal in either mode.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Whether the reader is in lenient mode.
    pub fn lenient(&self) -> bool {
        self.lenient
    }

    /// Seeks past the first `n` stream positions (events) using the
    /// frame summaries: whole blocks are discarded without CRC checks or
    /// decoding. When `n` lands inside a block, that block is returned
    /// normally and the leftover intra-block skip is reported through
    /// [`BinaryBlockReader::take_event_skip`] for the decoder to apply.
    /// Positions count events a previous run *consumed* — delivered or
    /// lost to lenient gaps — which is exactly the frame `count` total,
    /// so a resume never re-verifies the prefix it already processed.
    pub fn set_skip_events(&mut self, n: u64) {
        self.skip_events = n;
    }

    /// Takes the residual intra-block skip owed on the block most
    /// recently returned by [`BinaryBlockReader::next_block`] (zero when
    /// the skip ended on a block boundary). The caller must drop that
    /// many events from the front of the decoded block.
    pub fn take_event_skip(&mut self) -> u64 {
        std::mem::take(&mut self.event_skip)
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.lost
    }

    /// Records one lenient-mode gap, updating the loss accounting and
    /// the gap probes. Decoders call this for payload-level damage (CRC
    /// mismatches, malformed payloads) that only decoding can detect.
    pub fn record_gap(&mut self, gap: TraceGap) {
        self.lost += gap.events;
        self.probes.gaps.inc();
        self.probes.events_lost.add(gap.events);
        self.gaps.push(gap);
    }

    /// Ends the stream leniently, recording a gap for whatever the
    /// header still promised beyond the events already read (`seen`
    /// counts every event of every fully read block, so events a decoder
    /// separately lost to CRC gaps are not double-counted here).
    fn end_with_gap(&mut self, block: usize, cause: GapCause) -> Option<Result<RawBlock, IoError>> {
        self.done = true;
        self.probes.parse_errors.inc();
        self.record_gap(TraceGap {
            block,
            events: (self.expected as u64).saturating_sub(self.seen as u64),
            first_seq: None,
            last_seq: None,
            first_time: None,
            last_time: None,
            cause,
        });
        None
    }

    fn fail(&mut self, e: IoError) -> Option<Result<RawBlock, IoError>> {
        self.done = true;
        if !matches!(e, IoError::Io(_)) {
            self.probes.parse_errors.inc();
        }
        Some(Err(e))
    }

    fn truncated(&mut self, at_least: usize) -> Option<Result<RawBlock, IoError>> {
        let expected = self.expected.max(at_least);
        let got = self.seen;
        self.fail(IoError::Truncated { expected, got })
    }

    /// Reads the next frame + payload. `None` means clean end of input.
    pub fn next_block(&mut self) -> Option<Result<RawBlock, IoError>> {
        loop {
            if self.done {
                return None;
            }
            let mut frame_bytes = [0u8; FRAME_LEN];
            let got = match read_up_to(&mut self.input, &mut frame_bytes) {
                Ok(n) => n,
                Err(e) => return self.fail(IoError::Io(e)),
            };
            if got == 0 {
                // Clean end of input: complain only if the header
                // promised more events than the blocks delivered.
                if self.expected > 0 && self.seen < self.expected {
                    if self.lenient {
                        return self.end_with_gap(self.index + 1, GapCause::TruncatedStream);
                    }
                    self.done = true;
                    self.probes.parse_errors.inc();
                    return Some(Err(IoError::Truncated {
                        expected: self.expected,
                        got: self.seen,
                    }));
                }
                self.done = true;
                return None;
            }
            if got < FRAME_LEN {
                // The file ends inside a frame: a short final block.
                if self.lenient {
                    return self.end_with_gap(self.index + 1, GapCause::TruncatedStream);
                }
                return self.truncated(self.seen + 1);
            }
            self.index += 1;
            let frame = match BlockFrame::from_bytes(&frame_bytes, self.index) {
                Ok(f) => f,
                Err(e) => {
                    if self.lenient {
                        // The frame cannot be trusted to locate the next
                        // block; the rest of the stream is one gap.
                        return self.end_with_gap(self.index, GapCause::MalformedFrame);
                    }
                    return self.fail(e);
                }
            };
            let count = frame.summary.count as usize;
            let mut payload = self.spare_payloads.pop().unwrap_or_default();
            payload.resize(frame.payload_len as usize, 0);
            let got = match read_up_to(&mut self.input, &mut payload) {
                Ok(n) => n,
                Err(e) => return self.fail(IoError::Io(e)),
            };
            if got < payload.len() {
                // The file ends inside this block's payload.
                if self.lenient {
                    self.done = true;
                    self.probes.parse_errors.inc();
                    let gap = block_gap(self.index, frame.summary, GapCause::TruncatedBlock);
                    self.record_gap(gap);
                    // The frame's events are accounted as lost; anything
                    // the header promised beyond them is a second gap.
                    self.seen += count;
                    if self.expected > 0 && self.seen < self.expected {
                        self.record_gap(TraceGap {
                            block: self.index + 1,
                            events: (self.expected - self.seen) as u64,
                            first_seq: None,
                            last_seq: None,
                            first_time: None,
                            last_time: None,
                            cause: GapCause::TruncatedStream,
                        });
                    }
                    return None;
                }
                return self.truncated(self.seen + count);
            }
            self.probes.bytes.add((FRAME_LEN + payload.len()) as u64);
            self.probes.blocks.inc();
            self.seen += count;
            if self.skip_events > 0 {
                // Resume seek: discard whole already-processed blocks by
                // their frame count, without CRC checks or decoding.
                if self.skip_events >= count as u64 {
                    self.skip_events -= count as u64;
                    self.recycle_payload(payload);
                    continue;
                }
                self.event_skip = self.skip_events;
                self.skip_events = 0;
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
                self.recycle_payload(payload);
                continue;
            }
            return Some(Ok(RawBlock {
                index: self.index,
                frame,
                payload,
            }));
        }
    }
}

// --- Serial reader ------------------------------------------------------

/// Serial streaming decoder for the `ppa-trace-bin-v1` format.
///
/// The binary sibling of [`TraceStreamReader`](crate::TraceStreamReader):
/// parses the header eagerly, then yields one event per [`Iterator`]
/// call, holding at most one decoded block in memory. Error mapping
/// follows the JSONL reader's conventions — [`IoError::BadHeader`] for a
/// wrong magic or version, [`IoError::Truncated`] for input that ends
/// mid-block or short of the header's declared count, and
/// [`IoError::Parse`] (with the 1-based *block* index as `line`) for a
/// CRC mismatch or malformed payload. After an error the iterator fuses.
pub struct BinaryTraceReader<R: Read> {
    blocks: BinaryBlockReader<R>,
    /// The current decoded block, reused across blocks (cleared, never
    /// freed) so steady-state decoding allocates nothing per block.
    pending: Vec<Event>,
    /// Cursor into `pending`; events before it were already yielded (or
    /// dropped by a resume skip).
    pos: usize,
    failed: bool,
    probes: StreamProbes,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Opens a binary stream, reading and validating the header.
    pub fn new(reader: R) -> Result<Self, IoError> {
        Self::with_probes(reader, StreamProbes::noop())
    }

    /// Like [`BinaryTraceReader::new`], recording bytes, events, blocks,
    /// and parse errors into `probes` as the stream is consumed.
    pub fn with_probes(reader: R, probes: StreamProbes) -> Result<Self, IoError> {
        let blocks = BinaryBlockReader::with_probes(reader, probes.clone())?;
        Ok(BinaryTraceReader {
            blocks,
            pending: Vec::new(),
            pos: 0,
            failed: false,
            probes,
        })
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.blocks.kind()
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.blocks.expected_events()
    }

    /// Engages the block skip index; see
    /// [`BinaryBlockReader::set_min_time`].
    pub fn set_min_time(&mut self, t: Time) {
        self.blocks.set_min_time(t);
    }

    /// Engages the upper bound of the skip index; see
    /// [`BinaryBlockReader::set_max_time`].
    pub fn set_max_time(&mut self, t: Time) {
        self.blocks.set_max_time(t);
    }

    /// How many blocks the skip index has discarded so far.
    pub fn skipped_blocks(&self) -> usize {
        self.blocks.skipped_blocks()
    }

    /// How many events were inside the skipped blocks; see
    /// [`BinaryBlockReader::skipped_events`].
    pub fn skipped_events(&self) -> u64 {
        self.blocks.skipped_events()
    }

    /// Switches the reader into lenient mode: CRC-failed or malformed
    /// blocks are skipped and recorded as [`TraceGap`]s instead of
    /// ending the stream; see [`BinaryBlockReader::set_lenient`].
    pub fn set_lenient(&mut self, lenient: bool) {
        self.blocks.set_lenient(lenient);
    }

    /// Seeks past the first `n` stream positions without decoding whole
    /// skipped blocks; see [`BinaryBlockReader::set_skip_events`].
    pub fn set_skip_events(&mut self, n: u64) {
        self.blocks.set_skip_events(n);
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        self.blocks.gaps()
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.blocks.events_lost()
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = Result<Event, IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(&e) = self.pending.get(self.pos) {
                self.pos += 1;
                self.probes.events.inc();
                return Some(Ok(e));
            }
            match self.blocks.next_block()? {
                Ok(block) => {
                    self.pending.clear();
                    match block.decode_into(&mut self.pending) {
                        Ok(()) => {
                            self.pos =
                                (self.blocks.take_event_skip() as usize).min(self.pending.len());
                            self.blocks.recycle_payload(block.into_payload());
                        }
                        Err(e) => {
                            // A partial decode may have pushed events;
                            // discard them with the block.
                            self.pending.clear();
                            if self.blocks.lenient() {
                                let gap = block.to_gap(block.gap_cause());
                                self.probes.parse_errors.inc();
                                self.blocks.record_gap(gap);
                                self.blocks.recycle_payload(block.into_payload());
                                continue;
                            }
                            self.failed = true;
                            self.probes.parse_errors.inc();
                            return Some(Err(e));
                        }
                    }
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

// --- Parallel reader ----------------------------------------------------

/// One block handed to a decode worker: everything it needs, owned.
struct DecodeJob {
    /// Submission order (0-based); emission happens in this order.
    seq: u64,
    index: usize,
    frame: BlockFrame,
    payload: Vec<u8>,
    /// A recycled event buffer to decode into.
    scratch: Vec<Event>,
}

/// A worker's answer: the decoded events (or the classified failure),
/// plus both buffers so the consumer can recycle them.
struct DecodedBlock {
    seq: u64,
    index: usize,
    summary: BlockSummary,
    result: Result<(), (IoError, GapCause)>,
    events: Vec<Event>,
    payload: Vec<u8>,
}

/// Decode-worker loop: pull jobs off the shared queue until the sender
/// closes, decode each block, send the result back.
fn decode_worker(jobs: Arc<Mutex<mpsc::Receiver<DecodeJob>>>, results: mpsc::Sender<DecodedBlock>) {
    loop {
        // Hold the lock only for the blocking recv; decoding happens
        // outside it so workers overlap.
        let job = {
            let rx = jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // reader dropped: no more blocks
            }
        };
        let mut events = job.scratch;
        events.clear();
        let result = {
            let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
            span.attr_block(job.index as u64);
            span.attr_seq(job.frame.summary.first_seq);
            match BlockCursor::new(&job.frame, &job.payload, job.index) {
                Err(e) => Err((e, GapCause::CrcMismatch)),
                Ok(mut cursor) => loop {
                    match cursor.next_event() {
                        Ok(Some(event)) => events.push(event),
                        Ok(None) => break Ok(()),
                        Err(e) => break Err((e, GapCause::MalformedPayload)),
                    }
                },
            }
        };
        let decoded = DecodedBlock {
            seq: job.seq,
            index: job.index,
            summary: job.frame.summary,
            result,
            events,
            payload: job.payload,
        };
        if results.send(decoded).is_err() {
            return; // consumer gone; nothing left to report to
        }
    }
}

/// The decode-worker count when the caller names none (`ppa analyze`,
/// `slice`, `convert`, `serve` without `--decode-workers`): one per core
/// except the core the consumer itself runs on, so the workers and the
/// thread they feed do not oversubscribe the host. On one core that is
/// 0, serial decode with no threads. (EXPERIMENTS.md, "Decode workers".)
pub fn default_decode_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// Pipelined parallel block decoder for the `ppa-trace-bin-v1` format.
///
/// A stage pipeline rather than a batch loop: the consuming thread reads
/// framed blocks (cheap — the payload stays opaque) and feeds them to
/// `workers` persistent decode threads; decoded blocks stream back and
/// are stitched into file order, which *is* seq order for any writer fed
/// a totally ordered trace. Because submission is throttled only by the
/// in-flight window (not a per-batch barrier), decode overlaps both the
/// framing reads and whatever analysis the caller runs between `next()`
/// calls. Yields exactly the event sequence of [`BinaryTraceReader`] on
/// the same input, including the position of the first error, after
/// which the iterator fuses.
///
/// At most `4 * workers` blocks are in flight, so peak memory is
/// `O(workers * block_events)` decoded events; payload and event buffers
/// recirculate through pools instead of being reallocated per block.
pub struct ParallelBinaryReader<R: Read> {
    blocks: BinaryBlockReader<R>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    /// Closed (dropped) to tell workers to exit.
    job_tx: Option<mpsc::Sender<DecodeJob>>,
    result_rx: mpsc::Receiver<DecodedBlock>,
    /// In-flight window: blocks submitted but not yet accepted.
    max_in_flight: usize,
    in_flight: usize,
    /// Submission counter (the next job's `seq`).
    submitted: u64,
    /// The `seq` the stitcher emits next.
    next_emit: u64,
    /// Results that arrived ahead of their emission turn.
    stash: HashMap<u64, DecodedBlock>,
    /// The block currently being emitted, and the cursor into it.
    current: Vec<Event>,
    pos: usize,
    /// Recycled event buffers for future jobs.
    spare_events: Vec<Vec<Event>>,
    reader_done: bool,
    pending_error: Option<IoError>,
    failed: bool,
    /// Residual resume skip to drop from the next decoded block (the
    /// straddling block is always the first block submitted after the
    /// skip is consumed).
    drop_next: usize,
    probes: StreamProbes,
}

impl<R: Read> ParallelBinaryReader<R> {
    /// Opens a binary stream for parallel decoding on up to `workers`
    /// threads (clamped to at least 1).
    pub fn new(reader: R, workers: usize) -> Result<Self, IoError> {
        Self::with_probes(reader, workers, StreamProbes::noop())
    }

    /// Like [`ParallelBinaryReader::new`], with stream probes.
    pub fn with_probes(reader: R, workers: usize, probes: StreamProbes) -> Result<Self, IoError> {
        let blocks = BinaryBlockReader::with_probes(reader, probes.clone())?;
        let workers = workers.max(1);
        let (job_tx, job_rx) = mpsc::channel::<DecodeJob>();
        let (result_tx, result_rx) = mpsc::channel::<DecodedBlock>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let worker_handles = (0..workers)
            .map(|i| {
                let jobs = Arc::clone(&job_rx);
                let results = result_tx.clone();
                std::thread::Builder::new()
                    .name(format!("ppa-decode-{i}"))
                    .spawn(move || decode_worker(jobs, results))
                    .expect("spawn decode worker thread")
            })
            .collect();
        Ok(ParallelBinaryReader {
            blocks,
            worker_handles,
            job_tx: Some(job_tx),
            result_rx,
            max_in_flight: workers * 4,
            in_flight: 0,
            submitted: 0,
            next_emit: 0,
            stash: HashMap::new(),
            current: Vec::new(),
            pos: 0,
            spare_events: Vec::new(),
            reader_done: false,
            pending_error: None,
            failed: false,
            drop_next: 0,
            probes,
        })
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.blocks.kind()
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.blocks.expected_events()
    }

    /// Switches the reader into lenient mode: CRC-failed or malformed
    /// blocks are skipped and recorded as [`TraceGap`]s instead of
    /// ending the stream; see [`BinaryBlockReader::set_lenient`].
    pub fn set_lenient(&mut self, lenient: bool) {
        self.blocks.set_lenient(lenient);
    }

    /// Seeks past the first `n` stream positions without decoding whole
    /// skipped blocks; see [`BinaryBlockReader::set_skip_events`].
    pub fn set_skip_events(&mut self, n: u64) {
        self.blocks.set_skip_events(n);
    }

    /// Engages the block skip index; see
    /// [`BinaryBlockReader::set_min_time`]. The inner block reader skips
    /// before jobs are submitted, so skipped blocks never reach a decode
    /// worker.
    pub fn set_min_time(&mut self, t: Time) {
        self.blocks.set_min_time(t);
    }

    /// Engages the upper bound of the skip index; see
    /// [`BinaryBlockReader::set_max_time`].
    pub fn set_max_time(&mut self, t: Time) {
        self.blocks.set_max_time(t);
    }

    /// How many blocks the skip index has discarded so far.
    pub fn skipped_blocks(&self) -> usize {
        self.blocks.skipped_blocks()
    }

    /// How many events were inside the skipped blocks; see
    /// [`BinaryBlockReader::skipped_events`].
    pub fn skipped_events(&self) -> u64 {
        self.blocks.skipped_events()
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        self.blocks.gaps()
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.blocks.events_lost()
    }

    /// Returns an event buffer to the pool feeding future jobs.
    fn recycle_events(&mut self, mut buf: Vec<Event>) {
        if self.spare_events.len() < 64 {
            buf.clear();
            self.spare_events.push(buf);
        }
    }

    /// Keeps the in-flight window full: reads frames and submits decode
    /// jobs until the window cap, end of input, or a reader error (which
    /// is stashed and surfaced only after the in-flight blocks drain —
    /// they precede it in stream order).
    fn pump(&mut self) {
        while !self.reader_done && self.in_flight < self.max_in_flight {
            match self.blocks.next_block() {
                Some(Ok(block)) => {
                    // A resume skip that ends mid-block surfaces here,
                    // attached to the first block returned after the
                    // skip was consumed.
                    self.drop_next += self.blocks.take_event_skip() as usize;
                    let job = DecodeJob {
                        seq: self.submitted,
                        index: block.index,
                        frame: block.frame,
                        payload: block.payload,
                        scratch: self.spare_events.pop().unwrap_or_default(),
                    };
                    self.submitted += 1;
                    self.in_flight += 1;
                    if let Some(tx) = &self.job_tx {
                        // Send fails only if every worker died; the recv
                        // in `next()` will surface that as a panic.
                        let _ = tx.send(job);
                    }
                }
                Some(Err(e)) => {
                    self.pending_error = Some(e);
                    self.reader_done = true;
                }
                None => self.reader_done = true,
            }
        }
    }

    /// Accepts the next in-order decoded block: recycles its buffers,
    /// installs its events as the current emission run (minus any resume
    /// skip), or — for a failed block — records the lenient gap or
    /// returns the error to surface at exactly this stream position.
    fn accept(&mut self, decoded: DecodedBlock) -> Result<(), IoError> {
        debug_assert_eq!(decoded.seq, self.next_emit);
        self.next_emit += 1;
        self.in_flight -= 1;
        self.blocks.recycle_payload(decoded.payload);
        match decoded.result {
            Ok(()) => {
                let drop = std::mem::take(&mut self.drop_next).min(decoded.events.len());
                self.probes.events.add((decoded.events.len() - drop) as u64);
                let old = std::mem::replace(&mut self.current, decoded.events);
                self.recycle_events(old);
                self.pos = drop;
                Ok(())
            }
            Err((e, cause)) => {
                self.probes.parse_errors.inc();
                if self.blocks.lenient() {
                    // Skip just the damaged block and keep stitching.
                    self.blocks
                        .record_gap(block_gap(decoded.index, decoded.summary, cause));
                    self.recycle_events(decoded.events);
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }
}

impl<R: Read> Iterator for ParallelBinaryReader<R> {
    type Item = Result<Event, IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(&e) = self.current.get(self.pos) {
                self.pos += 1;
                return Some(Ok(e));
            }
            self.pump();
            if self.in_flight == 0 {
                if let Some(e) = self.pending_error.take() {
                    self.failed = true;
                    return Some(Err(e));
                }
                if self.reader_done {
                    return None;
                }
                continue;
            }
            // Fetch the block whose emission turn it is: from the stash
            // if it already arrived, else by waiting on the workers.
            let decoded = match self.stash.remove(&self.next_emit) {
                Some(d) => d,
                None => {
                    let _span = ppa_obs::span_enter(ppa_obs::Stage::Reassemble);
                    loop {
                        let d = self.result_rx.recv().expect("block decode worker panicked");
                        if d.seq == self.next_emit {
                            break d;
                        }
                        self.stash.insert(d.seq, d);
                    }
                }
            };
            match self.accept(decoded) {
                Ok(()) => continue,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl<R: Read> Drop for ParallelBinaryReader<R> {
    fn drop(&mut self) {
        // Closing the job channel is the shutdown signal; workers finish
        // whatever is in flight (sends to the unbounded result channel
        // never block) and exit.
        self.job_tx.take();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}
