//! The `ppa-trace-bin-v1` binary trace format: writer, block framing,
//! and the one decoder.
//!
//! A binary trace is an 18-byte header — the 8-byte magic
//! [`BINARY_MAGIC`], a format version byte, a [`TraceKind`] byte, and the
//! advisory event count as a little-endian `u64` — followed by framed
//! blocks (see [`super::block`]). Blocks are independently decodable, so:
//!
//! - [`BinaryTraceWriter`] encodes events into blocks of
//!   [`DEFAULT_BLOCK_EVENTS`] and frames each with its summary and CRC;
//! - `BinaryBlockReader` yields raw framed blocks without decoding,
//!   using the frame summaries as a skip index for time-bounded reads;
//! - [`BinaryTraceReader`] decodes those blocks on 0..N worker threads
//!   and stitches them back in file (seq) order; with no worker it
//!   decodes each block on the caller's thread, through the same steps.

use super::block::{decode_block, BlockEncoder, BlockFrame, BlockSummary, FRAME_LEN};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::IoError;
use crate::stream::{CountingWriter, StreamProbes};
use crate::time::Time;
use crate::trace::TraceKind;
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

// --- Block framing ------------------------------------------------------

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

/// Where a binary stream stops: the error a strict reader reports, and
/// the gaps a lenient one records in its place. An [`IoError::Io`] is
/// fatal in either mode.
struct Damage {
    error: IoError,
    gaps: Vec<TraceGap>,
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
/// The frame summaries also serve as a skip index: with a time bound set
/// the reader discards (reads but neither CRC-checks nor decodes) every
/// block wholly outside it, the cheap path for watermark-bounded
/// re-reads, and a resume seek discards whole already-processed blocks
/// by their frame counts.
pub(crate) struct BinaryBlockReader<R: Read> {
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
    /// Returned payload buffers awaiting reuse; bounds allocation churn
    /// to a steady state of one buffer per in-flight block.
    spare_payloads: Vec<Vec<u8>>,
    probes: StreamProbes,
}

impl<R: Read> BinaryBlockReader<R> {
    /// Opens a binary trace, reading and validating the 18-byte header.
    fn new(mut reader: R, probes: StreamProbes) -> Result<Self, IoError> {
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
            skip_events: 0,
            done: false,
            spare_payloads: Vec::new(),
            probes,
        })
    }

    /// Hands a payload buffer back for reuse by a later
    /// [`BinaryBlockReader::next_block`].
    fn recycle_payload(&mut self, mut buf: Vec<u8>) {
        // A small cap keeps a burst of recycled buffers (e.g. a parallel
        // decoder draining) from pinning memory indefinitely.
        if self.spare_payloads.len() < 64 {
            buf.clear();
            self.spare_payloads.push(buf);
        }
    }

    fn damage(&mut self, error: IoError, gaps: Vec<TraceGap>) -> Option<Result<RawBlock, Damage>> {
        self.done = true;
        Some(Err(Damage { error, gaps }))
    }

    /// A gap for whatever the header still promised beyond the events of
    /// every block read so far.
    fn rest_gap(&self, block: usize, cause: GapCause) -> TraceGap {
        TraceGap {
            block,
            events: (self.expected as u64).saturating_sub(self.seen as u64),
            first_seq: None,
            last_seq: None,
            first_time: None,
            last_time: None,
            cause,
        }
    }

    fn truncated(&self, at_least: usize) -> IoError {
        IoError::Truncated {
            expected: self.expected.max(at_least),
            got: self.seen,
        }
    }

    /// Reads the next frame and payload. `None` is a clean end of input;
    /// a [`Damage`] ends the stream too.
    fn next_block(&mut self) -> Option<Result<RawBlock, Damage>> {
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
            let mut payload = self.spare_payloads.pop().unwrap_or_default();
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
            self.probes.bytes.add((FRAME_LEN + payload.len()) as u64);
            self.probes.blocks.inc();
            self.seen += count;
            let mut skip = 0;
            if self.skip_events > 0 {
                // Resume seek: discard whole already-processed blocks by
                // their frame count, without CRC checks or decoding.
                if self.skip_events >= count as u64 {
                    self.skip_events -= count as u64;
                    self.recycle_payload(payload);
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
                self.recycle_payload(payload);
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

// --- Decoder ------------------------------------------------------------

/// One block on its way to [`decode`], with an empty recycled event
/// buffer to decode into.
struct DecodeJob {
    /// Submission order (0-based); blocks are accepted in this order.
    seq: usize,
    block: RawBlock,
    events: Vec<Event>,
}

/// One stream item at its turn in the stitcher: a block's events and
/// the resume skip still owed on them, or the damage found there. Carries
/// its buffers back for recycling.
struct Decoded {
    seq: usize,
    result: Result<usize, Damage>,
    events: Vec<Event>,
    payload: Vec<u8>,
}

/// Decodes one block — the step every block takes, on a worker thread
/// or inline on the consumer's.
fn decode(job: DecodeJob) -> Decoded {
    let DecodeJob {
        seq,
        block,
        mut events,
    } = job;
    let RawBlock {
        index,
        frame,
        payload,
        skip,
    } = block;
    let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
    span.attr_block(index as u64);
    span.attr_seq(frame.summary.first_seq);
    let result = match decode_block(&frame, &payload, index, &mut events) {
        Ok(()) => Ok(skip),
        Err((error, cause)) => Err(Damage {
            error,
            gaps: vec![block_gap(index, frame.summary, cause)],
        }),
    };
    Decoded {
        seq,
        result,
        events,
        payload,
    }
}

/// Decode-worker loop: pull jobs off the shared queue until the sender
/// closes, decode each block, send the result back.
fn decode_worker(jobs: Arc<Mutex<mpsc::Receiver<DecodeJob>>>, results: mpsc::Sender<Decoded>) {
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
        if results.send(decode(job)).is_err() {
            return; // consumer gone; nothing left to report to
        }
    }
}

/// The decode-worker count when the caller names none (`ppa analyze`,
/// `slice`, `convert`, `serve` without `--decode-workers`): one per core
/// except the core the consumer itself runs on, so the workers and the
/// thread they feed do not oversubscribe the host. On one core that is
/// 0, decode on the consumer's thread. (EXPERIMENTS.md, "Decode workers".)
pub fn default_decode_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// A reader's persistent `ppa-decode-*` threads and their queues.
struct Workers {
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Closed (dropped) to tell workers to exit.
    jobs: Option<mpsc::Sender<DecodeJob>>,
    results: mpsc::Receiver<Decoded>,
}

impl Workers {
    fn spawn(n: usize) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<DecodeJob>();
        let (result_tx, results) = mpsc::channel::<Decoded>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..n)
            .map(|i| {
                let jobs = Arc::clone(&job_rx);
                let results = result_tx.clone();
                std::thread::Builder::new()
                    .name(format!("ppa-decode-{i}"))
                    .spawn(move || decode_worker(jobs, results))
                    .expect("spawn decode worker thread")
            })
            .collect();
        Workers {
            handles,
            jobs: Some(job_tx),
            results,
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closing the job channel is the shutdown signal; workers finish
        // whatever is in flight (sends to the unbounded result channel
        // never block) and exit.
        self.jobs.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Streaming decoder for the `ppa-trace-bin-v1` format, on 0..N decode
/// worker threads.
///
/// The binary sibling of [`TraceStreamReader`](crate::TraceStreamReader):
/// parses the header eagerly, then yields one event per [`Iterator`]
/// call. The consuming thread reads the framed blocks (cheap — the
/// payload stays opaque). With no worker it decodes each block itself as
/// it is read; with `workers` ≥ 1 it keeps up to `4 * workers` blocks in
/// flight on persistent `ppa-decode-*` threads, so decode overlaps both
/// the framing reads and whatever analysis the caller runs between
/// `next()` calls. Either way every block, and every damaged region the
/// framing finds, passes through the same decode and in-order accept
/// steps, so the events, the position and text of the first error, and
/// the lenient gaps do not depend on the worker count.
///
/// Error mapping follows the JSONL reader's conventions —
/// [`IoError::BadHeader`] for a wrong magic or version,
/// [`IoError::Truncated`] for input that ends mid-block or short of the
/// header's declared count, and [`IoError::Parse`] (with the 1-based
/// *block* index as `line`) for a malformed frame, a CRC mismatch or a
/// malformed payload. After an error the iterator fuses. Payload and
/// event buffers recirculate through pools, so steady-state decoding
/// allocates nothing per block.
pub struct BinaryTraceReader<R: Read> {
    blocks: BinaryBlockReader<R>,
    /// The decode threads; `None` decodes inline.
    workers: Option<Workers>,
    /// Submission counter: the next item's `seq`.
    submitted: usize,
    /// The `seq` the stitcher accepts next.
    next_emit: usize,
    /// Items ready ahead of their turn (inline: the one just decoded),
    /// item `seq` in slot `seq % stash.len()`. Its length is the
    /// in-flight window, so the items in flight never share a slot.
    stash: Vec<Option<Decoded>>,
    /// The block currently being emitted, and the cursor into it.
    current: Vec<Event>,
    pos: usize,
    /// Recycled event buffers for future blocks.
    spare_events: Vec<Vec<Event>>,
    reader_done: bool,
    failed: bool,
    lenient: bool,
    gaps: Vec<TraceGap>,
    /// Events swallowed by the recorded gaps.
    lost: u64,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Opens a binary stream, reading and validating the header, to
    /// decode on `workers` threads (0: on the caller's thread, spawning
    /// none).
    pub fn new(reader: R, workers: usize) -> Result<Self, IoError> {
        Self::with_probes(reader, workers, StreamProbes::noop())
    }

    /// Like [`BinaryTraceReader::new`], recording bytes, events, blocks,
    /// parse errors and gaps into `probes` as the stream is consumed.
    pub fn with_probes(reader: R, workers: usize, probes: StreamProbes) -> Result<Self, IoError> {
        let blocks = BinaryBlockReader::new(reader, probes)?;
        let window = (4 * workers).max(1);
        Ok(BinaryTraceReader {
            blocks,
            workers: (workers > 0).then(|| Workers::spawn(workers)),
            submitted: 0,
            next_emit: 0,
            stash: (0..window).map(|_| None).collect(),
            current: Vec::new(),
            pos: 0,
            spare_events: Vec::new(),
            reader_done: false,
            failed: false,
            lenient: false,
            gaps: Vec::new(),
            lost: 0,
        })
    }

    /// How many decode threads the reader owns.
    #[cfg(test)]
    pub(crate) fn decode_threads(&self) -> usize {
        self.workers.as_ref().map_or(0, |w| w.handles.len())
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.blocks.kind
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.blocks.expected
    }

    /// Switches the reader into lenient mode.
    ///
    /// Damaged regions are then recorded as [`TraceGap`]s instead of
    /// ending the stream with an error: a block whose payload fails its
    /// CRC or does not decode loses just that block; input that ends
    /// mid-block or short of the declared count records a truncation gap
    /// and yields a clean end of stream; and a malformed frame records a
    /// gap covering the rest of the stream (a corrupt frame cannot be
    /// trusted to locate the next block, so resynchronization is
    /// impossible). I/O errors remain fatal in either mode.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Seeks past the first `n` stream positions (events) using the
    /// frame summaries: whole blocks are discarded without CRC checks or
    /// decoding, and the block `n` lands inside is decoded and its
    /// leading events dropped. Positions count events a previous run
    /// *consumed* — delivered or lost to lenient gaps — which is exactly
    /// the frame `count` total, so a resume never re-verifies the prefix
    /// it already processed.
    pub fn set_skip_events(&mut self, n: u64) {
        self.blocks.skip_events = n;
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
        self.blocks.min_time = Some(t);
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
        self.blocks.max_time = Some(t);
    }

    /// How many blocks the skip index has discarded so far.
    pub fn skipped_blocks(&self) -> usize {
        self.blocks.skipped_blocks
    }

    /// How many events were inside the blocks the skip index discarded.
    /// These are neither delivered nor counted in [`events_lost`]; they
    /// are the third bucket of the conservation law documented on
    /// [`set_min_time`].
    ///
    /// [`events_lost`]: BinaryTraceReader::events_lost
    /// [`set_min_time`]: BinaryTraceReader::set_min_time
    pub fn skipped_events(&self) -> u64 {
        self.blocks.skipped_events
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.lost
    }

    /// Returns an event buffer to the pool feeding future blocks.
    fn recycle_events(&mut self, mut buf: Vec<Event>) {
        if self.spare_events.len() < 64 {
            buf.clear();
            self.spare_events.push(buf);
        }
    }

    /// Keeps the in-flight window full: reads blocks and hands each to a
    /// worker, or with none decodes it on the spot, until the window is
    /// full or the framing ends. Damage the framing finds is an item in
    /// stream order too, so it surfaces only after the blocks before it.
    fn pump(&mut self) {
        while !self.reader_done && self.submitted - self.next_emit < self.stash.len() {
            let seq = self.submitted;
            let ready = match self.blocks.next_block() {
                None => {
                    self.reader_done = true;
                    return;
                }
                Some(Ok(block)) => {
                    let events = self.spare_events.pop().unwrap_or_default();
                    let job = DecodeJob { seq, block, events };
                    match &self.workers {
                        // Send fails only if every worker died; the recv
                        // in `next_item` surfaces that as a panic.
                        Some(Workers { jobs: Some(tx), .. }) => {
                            let _ = tx.send(job);
                            None
                        }
                        Some(_) => None,
                        None => Some(decode(job)),
                    }
                }
                Some(Err(damage)) => {
                    self.reader_done = true;
                    Some(Decoded {
                        seq,
                        result: Err(damage),
                        events: Vec::new(),
                        payload: Vec::new(),
                    })
                }
            };
            if let Some(item) = ready {
                let slot = seq % self.stash.len();
                self.stash[slot] = Some(item);
            }
            self.submitted += 1;
        }
    }

    /// The item whose turn it is: from the stash if it is ready, else by
    /// waiting on the workers.
    fn next_item(&mut self) -> Decoded {
        let slot = self.next_emit % self.stash.len();
        if let Some(item) = self.stash[slot].take() {
            return item;
        }
        let workers = self
            .workers
            .as_ref()
            .expect("inline items are stashed when submitted");
        let _span = ppa_obs::span_enter(ppa_obs::Stage::Reassemble);
        loop {
            let item = workers
                .results
                .recv()
                .expect("block decode worker panicked");
            if item.seq == self.next_emit {
                return item;
            }
            let slot = item.seq % self.stash.len();
            self.stash[slot] = Some(item);
        }
    }

    /// Accepts the item whose turn it is and recycles its buffers: a
    /// block's events become the current run (minus its resume skip);
    /// damage records its lenient gaps, or returns the error to surface
    /// at exactly this stream position.
    fn accept(&mut self, item: Decoded) -> Result<(), IoError> {
        debug_assert_eq!(item.seq, self.next_emit);
        self.next_emit += 1;
        self.blocks.recycle_payload(item.payload);
        match item.result {
            Ok(skip) => {
                let skip = skip.min(item.events.len());
                self.blocks
                    .probes
                    .events
                    .add((item.events.len() - skip) as u64);
                let done = std::mem::replace(&mut self.current, item.events);
                self.recycle_events(done);
                self.pos = skip;
                Ok(())
            }
            Err(Damage { error, gaps }) => {
                self.recycle_events(item.events);
                if matches!(error, IoError::Io(_)) {
                    return Err(error);
                }
                self.blocks.probes.parse_errors.inc();
                if !self.lenient {
                    return Err(error);
                }
                for gap in gaps {
                    self.lost += gap.events;
                    self.blocks.probes.gaps.inc();
                    self.blocks.probes.events_lost.add(gap.events);
                    self.gaps.push(gap);
                }
                Ok(())
            }
        }
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
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
            if self.next_emit == self.submitted {
                return None; // the framing ended and every item is in
            }
            let item = self.next_item();
            if let Err(e) = self.accept(item) {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}
