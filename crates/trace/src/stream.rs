//! Streaming trace I/O: the probes every reader and writer carries, the
//! one trace writer, and the JSONL framing of the one reader.
//!
//! - [`AnyTraceWriter`] encodes events one at a time in either container,
//!   so a trace never has to fit in memory
//!   ([`write_trace`](crate::write_trace) feeds it a whole trace);
//! - `JsonlChunks` cuts a JSONL stream into chunks of whole lines for
//!   [`AnyTraceReader`](crate::AnyTraceReader) to decode on the caller's
//!   thread or on decode workers.

use crate::codec::block::BlockEncoder;
use crate::codec::jsonl::{
    decode_lines, encode_event, from_json_line, is_blank, split_line, MAX_LINE_BYTES,
};
use crate::codec::reader::{Cut, Damage, Decoded};
use crate::codec::{binary, TraceFormat, DEFAULT_BLOCK_EVENTS};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::{Header, IoError, FORMAT_NAME};
use crate::trace::TraceKind;
use ppa_obs::{Counter, Registry};
use std::io::{Read, Write};
/// Observability probes for streaming trace I/O.
///
/// Readers and writers carry one of these; the default
/// ([`StreamProbes::noop`]) is fully detached and costs one branch per
/// record, so unobserved streams pay essentially nothing. Attach real
/// metrics with [`StreamProbes::register`].
#[derive(Clone, Debug, Default)]
pub struct StreamProbes {
    /// Payload bytes processed (`ppa_stream_bytes_total`). For readers
    /// this counts consumed lines including their newline; for writers,
    /// bytes flushed to the underlying sink (header included).
    pub bytes: Counter,
    /// Events read or written (`ppa_stream_events_total`).
    pub events: Counter,
    /// Malformed or truncated records (`ppa_stream_parse_errors_total`).
    /// For the binary codec this includes CRC-mismatched blocks.
    pub parse_errors: Counter,
    /// Binary codec blocks framed or decoded (`ppa_stream_blocks_total`).
    /// JSONL streams never touch this counter.
    pub blocks: Counter,
    /// Damaged regions skipped by a lenient reader
    /// (`ppa_stream_gaps_total`). Strict readers never touch this
    /// counter — they abort on the first damaged record instead.
    pub gaps: Counter,
    /// Events swallowed by lenient-mode gaps
    /// (`ppa_stream_events_lost_total`); the sum of
    /// [`TraceGap::events`](crate::TraceGap::events) over all recorded
    /// gaps.
    pub events_lost: Counter,
}

impl StreamProbes {
    /// Detached probes: every record is discarded.
    pub fn noop() -> Self {
        StreamProbes::default()
    }

    /// Registers the stream metrics on `registry`, labelled with the
    /// transfer direction (conventionally `"read"` or `"write"`).
    pub fn register(registry: &Registry, dir: &str) -> Self {
        let labels = [("dir", dir)];
        StreamProbes {
            bytes: registry.counter_with(
                "ppa_stream_bytes_total",
                &labels,
                "Trace stream payload bytes processed.",
            ),
            events: registry.counter_with(
                "ppa_stream_events_total",
                &labels,
                "Trace stream events processed.",
            ),
            parse_errors: registry.counter_with(
                "ppa_stream_parse_errors_total",
                &labels,
                "Malformed or truncated trace records encountered.",
            ),
            blocks: registry.counter_with(
                "ppa_stream_blocks_total",
                &labels,
                "Binary trace codec blocks framed or decoded.",
            ),
            gaps: registry.counter_with(
                "ppa_stream_gaps_total",
                &labels,
                "Damaged trace regions skipped by lenient decoding.",
            ),
            events_lost: registry.counter_with(
                "ppa_stream_events_lost_total",
                &labels,
                "Events lost to damaged trace regions in lenient decoding.",
            ),
        }
    }
}

/// Bytes [`AnyTraceWriter`] gathers before handing them to its sink:
/// one report batch of canonical lines, about.
const WRITE_BUFFER_BYTES: usize = 32 * 1024;

/// Bytes a JSONL chunk holds before it is cut at its last newline: some
/// 330 lines of the canonical form. A chunk's hand-off wakes a parked
/// decode worker, which on a virtual machine costs microseconds, so a
/// chunk must be large beside it; but with its events it holds some
/// 45 KiB, and the chunks alive at once are most of what the reader
/// adds to a run's peak memory. 24 KiB is where `ppa analyze`'s peak
/// stays within a tenth of the serial reader's (EXPERIMENTS.md, "JSONL
/// at binary speed").
pub(crate) const CHUNK_BYTES: usize = 24 * 1024;

/// JSONL chunks kept in flight per decode worker. The consumer, not the
/// decode, is the slow side of a JSONL run: a chunk decodes in a
/// fraction of the time its events take to analyze. Two per worker
/// leave one decoded ahead while the next decodes, which absorbs a late
/// worker wake-up.
pub(crate) const UNITS_PER_WORKER: usize = 2;

/// Events a chunk's buffer is first made room for: a full chunk of
/// canonical lines, some 75 bytes each.
pub(crate) const UNIT_EVENTS: usize = CHUNK_BYTES / 64;

/// The longest JSONL line a reader takes, in bytes before its newline
/// (1 MiB, some ten thousand times a canonical event line). A longer
/// line is damage at its line number: a strict reader reports it as
/// [`IoError::Parse`], a lenient one records a one-event
/// [`GapCause::MalformedLine`] gap and passes over the rest of the line
/// without holding it, so a stream without newlines costs a reader no
/// more memory than this.
pub const MAX_LINE_LEN: usize = 1 << 20;

/// Bytes that, held without a newline, are a line longer than
/// [`MAX_LINE_LEN`].
const LINE_LIMIT: usize = MAX_LINE_LEN + 1;

/// How [`AnyTraceWriter`] encodes its events.
enum Encoding {
    /// `ppa-trace-v1`: one canonical line per event.
    Jsonl,
    /// `ppa-trace-bin-v1`: the current block, encoded as its events
    /// arrive and framed once it holds `block_events`.
    Binary {
        block: BlockEncoder,
        block_events: usize,
    },
}

/// Streaming writer for a caller-chosen [`TraceFormat`]: the one trace
/// writer.
///
/// Each event is encoded as it is written, straight into the writer's
/// own buffer. A JSONL line is the bytes `serde_json::to_string` gives
/// for an [`Event`], encoded without going through serde; lines go to
/// the sink in pieces of some 32 KiB. A binary block is framed once it
/// holds its count of events (default [`DEFAULT_BLOCK_EVENTS`]) with the
/// events' count, first/last seq and time, and a payload CRC32, and
/// goes to the sink then; only the current block's encoded bytes reside
/// in memory, in one buffer reused from block to block. The header's
/// event count is advisory (readers use it to pre-size buffers); a
/// writer that cannot know the final count up front may pass `0`.
///
/// The buffer holds only whole lines or whole framed blocks, and it is
/// handed to the sink once: emptied even when the sink fails part way,
/// since the output is broken already and a later flush (or the drop)
/// must not hand it again a prefix it took. Dropped unfinished, the
/// writer hands over what the buffer holds, as a `BufWriter` does; the
/// events of a binary block not yet framed are lost.
pub struct AnyTraceWriter<W: Write> {
    /// `None` once [`AnyTraceWriter::finish`] has taken it.
    sink: Option<W>,
    /// Encoded lines or framed blocks not yet handed to the sink.
    buf: Vec<u8>,
    encoding: Encoding,
    written: usize,
    probes: StreamProbes,
}

impl<W: Write> AnyTraceWriter<W> {
    /// Starts a stream of `kind` in `format`, announcing `events`
    /// upcoming events (advisory; pass `0` when unknown).
    pub fn new(
        writer: W,
        format: TraceFormat,
        kind: TraceKind,
        events: usize,
    ) -> Result<Self, IoError> {
        Self::with_probes(writer, format, kind, events, StreamProbes::noop())
    }

    /// Like [`AnyTraceWriter::new`], recording bytes, events and (binary)
    /// blocks into `probes` as the stream is written.
    pub fn with_probes(
        writer: W,
        format: TraceFormat,
        kind: TraceKind,
        events: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        match format {
            TraceFormat::Binary => {
                let w = Self::with_block_events(writer, kind, events, DEFAULT_BLOCK_EVENTS, probes);
                Ok(w)
            }
            TraceFormat::Jsonl => {
                let mut w = Self::resume_jsonl(writer, 0, probes);
                let header = Header {
                    format: FORMAT_NAME.to_string(),
                    kind,
                    events,
                };
                serde_json::to_writer(&mut w.buf, &header).map_err(|e| IoError::Parse {
                    line: 0,
                    message: e.to_string(),
                })?;
                w.buf.push(b'\n');
                Ok(w)
            }
        }
    }

    /// Starts a binary stream whose blocks hold `block_events` events
    /// each (at least 1) instead of [`DEFAULT_BLOCK_EVENTS`].
    pub fn with_block_events(
        writer: W,
        kind: TraceKind,
        events: usize,
        block_events: usize,
        probes: StreamProbes,
    ) -> Self {
        let encoding = Encoding::Binary {
            block: BlockEncoder::default(),
            block_events: block_events.max(1),
        };
        let mut w = Self::start(writer, encoding, 0, probes);
        w.buf.extend_from_slice(&binary::header(kind, events));
        w
    }

    /// Resumes an interrupted JSONL stream: wraps a sink already
    /// positioned after `written` events (header included) and continues
    /// appending event lines *without* writing a new header. The
    /// checkpoint/resume pipeline truncates the partial output to its
    /// last flushed offset and hands the re-opened file here, so the
    /// resumed stream is byte-identical to an uninterrupted one. Only
    /// JSONL resumes — a binary stream's partial in-memory block cannot
    /// be reconstructed from a flushed prefix — which is why checkpointed
    /// analyses require a JSONL report.
    pub fn resume_jsonl(writer: W, written: usize, probes: StreamProbes) -> Self {
        Self::start(writer, Encoding::Jsonl, written, probes)
    }

    fn start(writer: W, encoding: Encoding, written: usize, probes: StreamProbes) -> Self {
        AnyTraceWriter {
            sink: Some(writer),
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES),
            encoding,
            written,
            probes,
        }
    }

    /// Appends one event.
    #[inline]
    pub fn write_event(&mut self, event: &Event) -> Result<(), IoError> {
        self.written += 1;
        self.probes.events.inc();
        match &mut self.encoding {
            Encoding::Jsonl => {
                encode_event(event, &mut self.buf);
                self.buf.push(b'\n');
                if self.buf.len() <= WRITE_BUFFER_BYTES - MAX_LINE_BYTES {
                    return Ok(());
                }
            }
            Encoding::Binary {
                block,
                block_events,
            } => {
                block.push(event);
                if block.len() < *block_events {
                    return Ok(());
                }
                self.frame_block();
            }
        }
        Ok(self.drain()?)
    }

    /// Frames the binary block encoded so far, if there is one, into the
    /// buffer. Once per block, so kept out of the per-event path.
    #[inline(never)]
    fn frame_block(&mut self) {
        if let Encoding::Binary { block, .. } = &mut self.encoding {
            if block.len() > 0 {
                block.frame_into(&mut self.buf);
                self.probes.blocks.inc();
            }
        }
    }

    /// Hands the buffer to the sink, once: see the type's docs.
    fn drain(&mut self) -> std::io::Result<()> {
        let written = match &mut self.sink {
            Some(sink) => sink.write_all(&self.buf),
            None => Ok(()),
        };
        if written.is_ok() {
            self.probes.bytes.add(self.buf.len() as u64);
        }
        self.buf.clear();
        written
    }

    /// How many events have been written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes buffered bytes through to the underlying writer without
    /// consuming the stream: every JSONL line, and every *completed*
    /// binary block (the partial one is framed by
    /// [`AnyTraceWriter::finish`] alone), so a flushed prefix is a valid
    /// trace. Checkpointing calls this before recording the output's byte
    /// offset, so a resume can truncate to a prefix that is on disk.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.drain()?;
        match &mut self.sink {
            Some(sink) => sink.flush().map_err(IoError::Io),
            None => Ok(()),
        }
    }

    /// Frames any partial binary block, hands every buffered byte to the
    /// sink, and returns it.
    pub fn finish(mut self) -> Result<W, IoError> {
        self.frame_block();
        self.drain()?;
        Ok(self.sink.take().expect("only `finish` takes the sink"))
    }
}

impl<W: Write> Drop for AnyTraceWriter<W> {
    fn drop(&mut self) {
        // Errors have no one to go to here; `finish` and `flush` report
        // them.
        let _ = self.drain();
    }
}

/// Reads once into `buf`, retrying an interrupted read. Returns the
/// bytes read, 0 at end of input.
fn read_once<R: Read>(input: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match input.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            got => return got,
        }
    }
}

/// Reads on from `input` into `buf`, whose first `filled` bytes start a
/// line, until its bytes hold a newline or the input ends (`eof`).
/// Returns where the last whole line ends (at the end of input, where
/// the bytes end) and how many bytes `buf` holds; `None` if the line
/// runs past [`MAX_LINE_LEN`] first.
fn fill_lines<R: Read>(
    input: &mut R,
    eof: &mut bool,
    buf: &mut Vec<u8>,
    mut filled: usize,
) -> std::io::Result<Option<(usize, usize)>> {
    let mut scanned = 0;
    loop {
        if let Some(i) = buf[scanned..filled].iter().rposition(|&b| b == b'\n') {
            return Ok(Some((scanned + i + 1, filled)));
        }
        if *eof {
            return Ok(Some((filled, filled)));
        }
        if filled >= LINE_LIMIT {
            return Ok(None);
        }
        scanned = filled;
        if filled == buf.len() {
            buf.resize((2 * filled).min(LINE_LIMIT), 0);
        }
        let got = read_once(input, &mut buf[filled..])?;
        *eof = got == 0;
        filled += got;
    }
}

/// One run of whole JSONL lines on its way to a decode worker.
pub(crate) struct LineChunk {
    /// 1-based position among the chunks (the decode span's block).
    index: usize,
    /// Lines the chunk counts before its own: the header for the first
    /// chunk, and the lines a resume seek passed over.
    lines_before: usize,
    /// The buffer the lines were read into, at its full length: every
    /// byte of it is initialized, so it is reused without being cleared.
    bytes: Vec<u8>,
    /// Where the lines lie in `bytes`.
    lines: std::ops::Range<usize>,
}

/// The JSONL framing of [`AnyTraceReader`](crate::AnyTraceReader):
/// parses the header line, then cuts the rest of the input after the
/// last newline of every 24 KiB or so, without looking inside the lines.
///
/// A cut is made as soon as the bytes read hold a newline, so input that
/// trickles in (a socket) is decoded as its lines arrive. A line longer
/// than a chunk grows the chunk until it ends, up to [`MAX_LINE_LEN`].
pub(crate) struct JsonlChunks<R: Read> {
    input: R,
    /// The event count the header announced.
    expected: usize,
    /// Bytes after the last cut: lines the header read took in, or the
    /// start of a line a later chunk completes.
    carry: Vec<u8>,
    chunk_bytes: usize,
    /// Lines counted here that no chunk has carried yet: the header,
    /// until the first chunk.
    lines_pending: usize,
    index: usize,
    eof: bool,
    /// Event lines a resume seek still has to pass.
    pub(crate) skip: u64,
    /// Event lines it passed.
    skipped: u64,
    bytes: Counter,
}

impl<R: Read> JsonlChunks<R> {
    /// Opens a stream whose first bytes, `prefix`, were read already:
    /// reads and validates the header line. Returns the framing, and the
    /// trace kind and event count the header announces.
    pub(crate) fn open(
        mut input: R,
        prefix: Vec<u8>,
        chunk_bytes: usize,
        probes: &StreamProbes,
    ) -> Result<(Self, TraceKind, usize), IoError> {
        let (mut buf, mut eof) = (prefix, false);
        let filled = buf.len();
        buf.resize(chunk_bytes.max(filled), 0);
        let Some((_, filled)) = fill_lines(&mut input, &mut eof, &mut buf, filled)? else {
            let message = format!("header line longer than {MAX_LINE_LEN} bytes");
            return Err(IoError::BadHeader(message));
        };
        let end = buf[..filled]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(filled, |i| i + 1);
        if end == 0 {
            return Err(IoError::BadHeader("empty input".to_string()));
        }
        probes.bytes.add(end as u64);
        let header: Header =
            from_json_line(split_line(&buf[..end]).0).map_err(IoError::BadHeader)?;
        if header.format != FORMAT_NAME {
            return Err(IoError::BadHeader(format!(
                "unknown format {:?}",
                header.format
            )));
        }
        buf.truncate(filled);
        buf.drain(..end);
        let chunks = JsonlChunks {
            input,
            expected: header.events,
            carry: buf,
            chunk_bytes,
            lines_pending: 1,
            index: 0,
            eof,
            skip: 0,
            skipped: 0,
            bytes: probes.bytes.clone(),
        };
        Ok((chunks, header.kind, header.events))
    }

    /// Reads past the rest of a line longer than [`MAX_LINE_LEN`],
    /// through `buf`, whose bytes hold its start; what follows its
    /// newline is carried to the next chunk.
    fn discard_line(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        self.bytes.add(buf.len() as u64);
        while !self.eof {
            let got = read_once(&mut self.input, buf)?;
            self.eof = got == 0;
            if let Some(i) = buf[..got].iter().position(|&b| b == b'\n') {
                self.bytes.add(i as u64 + 1);
                self.carry.extend_from_slice(&buf[i + 1..got]);
                return Ok(());
            }
            self.bytes.add(got as u64);
        }
        Ok(())
    }

    /// Ends the stream with an I/O error.
    fn failed(&mut self, e: std::io::Error) -> Cut<LineChunk> {
        self.eof = true;
        let damage = Damage {
            error: IoError::Io(e),
            gaps: Vec::new(),
        };
        Some(Err(Decoded::damaged(damage)))
    }

    /// Passes over the leading lines of `bytes` a resume seek still owes
    /// (a blank line owes nothing). Returns how many lines and bytes it
    /// passed.
    fn pass_skipped(&mut self, bytes: &[u8]) -> (usize, usize) {
        let (mut lines, mut rest) = (0, bytes);
        while self.skip > 0 && !rest.is_empty() {
            let (line, tail) = split_line(rest);
            rest = tail;
            lines += 1;
            if !is_blank(line) {
                self.skip -= 1;
                self.skipped += 1;
            }
        }
        (lines, bytes.len() - rest.len())
    }

    /// Cuts the next chunk into `bytes`, a buffer of an earlier chunk (at
    /// its full length) or a new one. `None` is the end of input. A line
    /// longer than [`MAX_LINE_LEN`] ends a strict reader's input; a
    /// `lenient` one reads past it.
    pub(crate) fn next_unit(&mut self, mut bytes: Vec<u8>, lenient: bool) -> Cut<LineChunk> {
        loop {
            // A new buffer takes over the carry's, which spares the first
            // chunk a copy of what the header read took in.
            let filled = self.carry.len();
            if bytes.is_empty() {
                std::mem::swap(&mut bytes, &mut self.carry);
            }
            let size = self.chunk_bytes.max(2 * filled).min(LINE_LIMIT);
            if bytes.len() < size {
                bytes.resize(size, 0);
            }
            if !self.carry.is_empty() {
                bytes[..filled].copy_from_slice(&self.carry);
                self.carry.clear();
            }
            let (cut, filled) = match fill_lines(&mut self.input, &mut self.eof, &mut bytes, filled)
            {
                Ok(Some(found)) => found,
                Ok(None) => {
                    // A line longer than MAX_LINE_LEN: a strict reader ends
                    // at it, a lenient one (or a resume seek that passes
                    // it) reads past it.
                    let line = std::mem::take(&mut self.lines_pending) + 1;
                    if lenient || self.skip > 0 {
                        if let Err(e) = self.discard_line(&mut bytes[..LINE_LIMIT]) {
                            return self.failed(e);
                        }
                    } else {
                        self.eof = true;
                    }
                    if self.skip == 0 {
                        return Some(Err(overlong(line, bytes)));
                    }
                    self.skip -= 1;
                    self.skipped += 1;
                    self.lines_pending = line;
                    continue;
                }
                Err(e) => return self.failed(e),
            };
            self.carry.extend_from_slice(&bytes[cut..filled]);
            if cut == 0 {
                return None;
            }
            self.bytes.add(cut as u64);
            self.index += 1;
            let mut lines_before = std::mem::take(&mut self.lines_pending);
            let mut start = 0;
            if self.skip > 0 {
                let (lines, passed) = self.pass_skipped(&bytes[..cut]);
                lines_before += lines;
                start = passed;
            }
            return Some(Ok(LineChunk {
                index: self.index,
                lines_before,
                bytes,
                lines: start..cut,
            }));
        }
    }

    /// Input that ends before the header's declared count (and past the
    /// positions a resume seek passed) is truncated; an advisory count of
    /// `0` promises nothing. `delivered` events were handed out and
    /// `lost` swallowed by gaps, over `lines` accepted lines.
    pub(crate) fn end(&self, delivered: u64, lost: u64, lines: usize) -> Option<Damage> {
        let seen = delivered + self.skipped;
        let missing = (self.expected as u64).checked_sub(seen + lost)?;
        if self.expected == 0 || missing == 0 {
            return None;
        }
        let line = lines + self.lines_pending + 1;
        Some(Damage {
            error: IoError::Truncated {
                expected: self.expected,
                got: seen as usize,
            },
            gaps: vec![TraceGap::unframed(line, missing, GapCause::TruncatedStream)],
        })
    }
}

/// The unit a line longer than [`MAX_LINE_LEN`] becomes: line `line` of
/// it, one event lost.
fn overlong(line: usize, payload: Vec<u8>) -> Decoded {
    let error = IoError::Parse {
        line,
        message: format!("line longer than {MAX_LINE_LEN} bytes"),
    };
    let gaps = vec![TraceGap::unframed(line, 1, GapCause::MalformedLine)];
    Decoded {
        lines: line,
        payload,
        ..Decoded::damaged(Damage { error, gaps })
    }
}

/// Decodes one chunk's lines into `events`; a line that is not an event
/// is a mark at its position.
pub(crate) fn decode(chunk: LineChunk, mut events: Vec<Event>) -> Decoded {
    let mut span = ppa_obs::span_enter(ppa_obs::Stage::Decode);
    span.attr_block(chunk.index as u64);
    let mut marks = Vec::new();
    let text = &chunk.bytes[chunk.lines.clone()];
    let lines = decode_lines(text, chunk.lines_before, &mut events, &mut marks);
    if let Some(first) = events.first() {
        span.attr_seq(first.seq);
    }
    Decoded {
        events,
        marks,
        lines,
        payload: chunk.bytes,
        ..Decoded::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::codec::{read_trace, write_trace};
    use crate::trace::Trace;
    use crate::AnyTraceReader;

    fn sample() -> Trace {
        TraceBuilder::measured()
            .on(0)
            .at(10)
            .stmt(0)
            .at(40)
            .advance(0, 0)
            .at(90)
            .stmt(1)
            .on(1)
            .at(20)
            .stmt(2)
            .at(50)
            .await_begin(0, 0)
            .at(60)
            .await_end(0, 0)
            .on(2)
            .at(30)
            .stmt(3)
            .at(70)
            .stmt(4)
            .build()
    }

    /// `t` as JSONL, checked not to be binary: the reader takes either
    /// container, and these tests check the JSONL one.
    fn jsonl(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(t, &mut buf, TraceFormat::Jsonl).unwrap();
        assert_eq!(TraceFormat::sniff(&buf), TraceFormat::Jsonl);
        buf
    }

    #[test]
    fn writer_is_byte_identical_to_write_trace() {
        let t = sample();
        let batch = jsonl(&t);
        let mut w = AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, t.kind(), t.len()).unwrap();
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        assert_eq!(w.written(), t.len());
        let streamed = w.finish().unwrap();
        assert_eq!(batch, streamed);
    }

    /// A sink that takes `room` bytes, then fails every write.
    struct Cramped<'a> {
        out: &'a mut Vec<u8>,
        room: usize,
    }

    impl Write for Cramped<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::other("no room"));
            }
            let n = buf.len().min(self.room);
            self.out.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Events per binary block in the writer tests: `sample()` fills
    /// three blocks and leaves one event over.
    const SMALL_BLOCKS: usize = 2;

    /// A writer of `sample()`'s kind and length in `format`, binary
    /// blocks of [`SMALL_BLOCKS`] events.
    fn writer<W: Write>(sink: W, format: TraceFormat) -> AnyTraceWriter<W> {
        let t = sample();
        match format {
            TraceFormat::Jsonl => AnyTraceWriter::new(sink, format, t.kind(), t.len()).unwrap(),
            TraceFormat::Binary => AnyTraceWriter::with_block_events(
                sink,
                t.kind(),
                t.len(),
                SMALL_BLOCKS,
                StreamProbes::noop(),
            ),
        }
    }

    /// The first `n` events of `sample()`, written in `format` and
    /// finished.
    fn written(format: TraceFormat, n: usize) -> Vec<u8> {
        let mut w = writer(Vec::new(), format);
        for e in sample().iter().take(n) {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn writer_never_repeats_bytes_a_failed_sink_took() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let t = sample();
            let whole = written(format, t.len());
            let room = 100;
            let mut out = Vec::new();
            let sink = Cramped {
                out: &mut out,
                room,
            };
            let mut w = writer(sink, format);
            let wrote: Vec<bool> = t.iter().map(|e| w.write_event(e).is_ok()).collect();
            let flushed = w.flush();
            // The sink fails at the first hand-off past its room: the
            // flush of the buffered lines, or the write that frames a
            // block, since a framed block goes to the sink at once.
            match format {
                TraceFormat::Jsonl => {
                    assert!(wrote.iter().all(|&ok| ok));
                    assert!(matches!(flushed, Err(IoError::Io(_))));
                }
                TraceFormat::Binary => assert!(wrote.contains(&false)),
            }
            // Neither a second flush nor the drop writes the prefix again.
            w.flush().unwrap();
            drop(w);
            assert_eq!(out, whole[..room], "{format}");
        }
    }

    #[test]
    fn a_dropped_writer_hands_over_only_whole_lines_and_blocks() {
        let t = sample();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let mut out = Vec::new();
            let mut w = writer(&mut out, format);
            for e in t.iter() {
                w.write_event(e).unwrap();
            }
            drop(w);
            // Every JSONL line; of the binary blocks, the three framed
            // ones and not the event still waiting for its block.
            let whole = match format {
                TraceFormat::Jsonl => t.len(),
                TraceFormat::Binary => t.len() - t.len() % SMALL_BLOCKS,
            };
            assert_eq!(out, written(format, whole), "{format}");
        }
    }

    #[test]
    fn reader_round_trips() {
        let t = sample();
        let buf = jsonl(&t);
        let r = AnyTraceReader::open(buf.as_slice()).unwrap();
        assert_eq!(r.kind(), t.kind());
        assert_eq!(r.expected_events(), t.len());
        let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
        assert_eq!(events, t.events());
    }

    #[test]
    fn reader_rejects_bad_header() {
        assert!(matches!(
            AnyTraceReader::open(&b""[..]),
            Err(IoError::BadHeader(_))
        ));
        let foreign = br#"{"format":"other","kind":"Measured","events":0}"#;
        assert!(matches!(
            AnyTraceReader::open(&foreign[..]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn reader_reports_parse_errors_with_read_trace_line_numbers() {
        let mut buf = jsonl(&sample());
        buf.extend_from_slice(b"{not json}\n");
        let n = sample().len();

        let batch_line = match read_trace(buf.as_slice(), 0) {
            Err(IoError::Parse { line, .. }) => line,
            other => panic!("expected parse error, got {other:?}"),
        };
        let mut r = AnyTraceReader::open(buf.as_slice()).unwrap();
        for _ in 0..n {
            r.next().unwrap().unwrap();
        }
        match r.next() {
            Some(Err(IoError::Parse { line, .. })) => assert_eq!(line, batch_line),
            other => panic!("expected parse error, got {other:?}"),
        }
        // A failed reader fuses.
        assert!(r.next().is_none());
    }

    /// `sample()` as JSONL with a line that is not UTF-8 after its
    /// second event, the header still declaring the true count.
    fn sample_with_non_utf8_line() -> Vec<u8> {
        let mut buf = jsonl(&sample());
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        let at = newlines[2] + 1;
        buf.splice(at..at, *b"{\"time\":\xff\xfe}\n");
        buf
    }

    #[test]
    fn strict_reader_reports_a_non_utf8_line_as_a_parse_error() {
        let buf = sample_with_non_utf8_line();
        let mut r = AnyTraceReader::open(buf.as_slice()).unwrap();
        r.next().unwrap().unwrap();
        r.next().unwrap().unwrap();
        match r.next() {
            Some(Err(IoError::Parse { line, message })) => {
                assert_eq!(line, 4);
                assert!(message.contains("utf-8"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(r.next().is_none());
        assert!(matches!(
            read_trace(buf.as_slice(), 0),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn lenient_reader_skips_a_non_utf8_line_as_a_one_event_gap() {
        let buf = sample_with_non_utf8_line();
        let mut r = AnyTraceReader::open(buf.as_slice()).unwrap();
        r.set_lenient(true);
        let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
        assert_eq!(events, sample().events());
        assert_eq!(r.events_lost(), 1);
        let [gap] = r.gaps() else {
            panic!("expected one gap, got {:?}", r.gaps());
        };
        assert_eq!((gap.block, gap.events), (4, 1));
        assert_eq!(gap.cause, GapCause::MalformedLine);
    }

    #[test]
    fn reader_skips_blank_lines() {
        let mut buf = jsonl(&sample());
        buf.extend_from_slice(b"\n\n");
        let r = AnyTraceReader::open(buf.as_slice()).unwrap();
        assert_eq!(r.count(), sample().len());
    }

    #[test]
    fn reader_errors_on_truncated_input() {
        let t = sample();
        let mut buf = jsonl(&t);
        // Cut the stream after the first two event lines; the header
        // still declares the full count.
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        buf.truncate(newlines[2] + 1);

        let mut r = AnyTraceReader::open(buf.as_slice()).unwrap();
        r.next().unwrap().unwrap();
        r.next().unwrap().unwrap();
        match r.next() {
            Some(Err(IoError::Truncated { expected, got })) => {
                assert_eq!((expected, got), (t.len(), 2));
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        // A truncated reader fuses like any other failure.
        assert!(r.next().is_none());
    }

    #[test]
    fn reader_accepts_advisory_zero_count_streams() {
        // A header may declare 0 events (count unknown when the stream
        // was opened); ending early is then not truncation.
        let mut w =
            AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, TraceKind::Measured, 0).unwrap();
        for e in sample().iter().take(2) {
            w.write_event(e).unwrap();
        }
        let buf = w.finish().unwrap();
        let r = AnyTraceReader::open(buf.as_slice()).unwrap();
        assert_eq!(r.format(), TraceFormat::Jsonl);
        assert_eq!(r.filter_map(|e| e.ok()).count(), 2);
    }

    #[test]
    fn probes_count_bytes_events_and_parse_errors() {
        let t = sample();
        let registry = ppa_obs::Registry::new();

        let wp = StreamProbes::register(&registry, "write");
        let mut w = AnyTraceWriter::with_probes(
            Vec::new(),
            TraceFormat::Jsonl,
            t.kind(),
            t.len(),
            wp.clone(),
        )
        .unwrap();
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        let buf = w.finish().unwrap();
        assert_eq!(wp.events.get(), t.len() as u64);
        assert_eq!(wp.bytes.get(), buf.len() as u64);

        let rp = StreamProbes::register(&registry, "read");
        let r = AnyTraceReader::open_parallel_with_probes(buf.as_slice(), 0, rp.clone()).unwrap();
        assert_eq!(r.format(), TraceFormat::Jsonl);
        assert_eq!(r.filter_map(|e| e.ok()).count(), t.len());
        assert_eq!(rp.events.get(), t.len() as u64);
        assert_eq!(rp.bytes.get(), buf.len() as u64);
        assert_eq!(rp.parse_errors.get(), 0);

        // Truncation and malformed lines land in the parse-error counter.
        let mut cut = buf.clone();
        let newlines: Vec<usize> = (0..cut.len()).filter(|&i| cut[i] == b'\n').collect();
        cut.truncate(newlines[1] + 1);
        let ep = StreamProbes::register(&registry, "read-truncated");
        let outcomes: Vec<_> =
            AnyTraceReader::open_parallel_with_probes(cut.as_slice(), 0, ep.clone())
                .unwrap()
                .collect();
        assert!(matches!(
            outcomes.last(),
            Some(Err(IoError::Truncated { .. }))
        ));
        assert_eq!(ep.parse_errors.get(), 1);
    }
}
