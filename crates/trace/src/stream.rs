//! Streaming trace I/O: bounded-memory JSONL reading and writing.
//!
//! [`read_jsonl`](crate::read_jsonl)/[`write_jsonl`](crate::write_jsonl)
//! materialize whole traces; the types here process one event at a time so
//! a trace never has to fit in memory:
//!
//! - [`TraceStreamReader`] iterates the events of a JSONL trace without
//!   collecting them ([`read_jsonl`](crate::read_jsonl) collects it): the
//!   one [`TraceReader`] over `JsonlChunks`, chunks of whole lines
//!   decoded on the caller's thread or on decode workers;
//! - [`TraceStreamWriter`] emits the JSONL format incrementally
//!   ([`write_jsonl`](crate::write_jsonl) feeds it a whole trace).

use crate::codec::jsonl::{
    decode_lines, encode_event, from_json_line, is_blank, split_line, MAX_LINE_BYTES,
};
use crate::codec::{Damage, Decoded, Framing, TraceReader};
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

/// Bytes [`TraceStreamWriter`] gathers before handing them to its sink:
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
const CHUNK_BYTES: usize = 24 * 1024;

/// A `Write` adapter that counts bytes into a probe counter.
pub(crate) struct CountingWriter<W: Write> {
    inner: W,
    bytes: Counter,
}

impl<W: Write> CountingWriter<W> {
    /// Wraps `inner`, adding every written byte to `bytes`.
    pub(crate) fn new(inner: W, bytes: Counter) -> Self {
        CountingWriter { inner, bytes }
    }

    /// Unwraps the underlying writer.
    pub(crate) fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Incremental writer for the JSONL trace format.
///
/// [`write_jsonl`](crate::write_jsonl) is this writer fed a whole trace;
/// the writer itself needs only the current event in memory. Event lines
/// are the bytes `serde_json::to_string` gives for an [`Event`], encoded
/// without going through serde straight into the writer's own buffer,
/// which goes to the sink in pieces of some 32 KiB. The header's event
/// count is advisory (readers use it to pre-size buffers); a writer that
/// cannot know the final count up front may pass `0`. Dropped
/// unfinished, the writer hands what it holds to the sink, as a
/// `BufWriter` does.
pub struct TraceStreamWriter<W: Write> {
    /// `None` once [`TraceStreamWriter::finish`] has taken it.
    sink: Option<CountingWriter<W>>,
    /// Encoded lines not yet handed to the sink.
    buf: Vec<u8>,
    written: usize,
    events: Counter,
}

impl<W: Write> TraceStreamWriter<W> {
    /// Starts a stream of `kind` announcing `events` upcoming events.
    pub fn new(writer: W, kind: TraceKind, events: usize) -> Result<Self, IoError> {
        Self::with_probes(writer, kind, events, StreamProbes::noop())
    }

    /// Like [`TraceStreamWriter::new`], recording bytes and events into
    /// `probes` as the stream is written.
    pub fn with_probes(
        writer: W,
        kind: TraceKind,
        events: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        let mut w = Self::resume_with_probes(writer, 0, probes);
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

    /// Appends one event line.
    #[inline]
    pub fn write_event(&mut self, event: &Event) -> Result<(), IoError> {
        encode_event(event, &mut self.buf);
        self.buf.push(b'\n');
        self.written += 1;
        self.events.inc();
        if self.buf.len() > WRITE_BUFFER_BYTES - MAX_LINE_BYTES {
            self.drain()?;
        }
        Ok(())
    }

    /// Hands the buffered lines to the sink. The buffer is emptied even
    /// when the sink fails part way: its output is broken already, and
    /// a later flush (or the drop) must not hand it again a prefix it
    /// took.
    fn drain(&mut self) -> std::io::Result<()> {
        let written = match &mut self.sink {
            Some(sink) => sink.write_all(&self.buf),
            None => Ok(()),
        };
        self.buf.clear();
        written
    }

    /// Resumes an interrupted stream: wraps a sink already positioned
    /// after `written` events (header included) and continues appending
    /// event lines *without* writing a new header. The checkpoint/resume
    /// pipeline truncates the partial output to its last flushed offset
    /// and hands the re-opened file here, so the resumed stream is
    /// byte-identical to an uninterrupted one.
    pub fn resume_with_probes(writer: W, written: usize, probes: StreamProbes) -> Self {
        TraceStreamWriter {
            sink: Some(CountingWriter::new(writer, probes.bytes)),
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES),
            written,
            events: probes.events,
        }
    }

    /// How many events have been written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes buffered bytes through to the underlying writer without
    /// consuming the stream. Checkpointing calls this before recording
    /// the output's byte offset, so a resume can truncate to a prefix
    /// that is actually on disk.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.drain()?;
        match &mut self.sink {
            Some(sink) => sink.flush().map_err(IoError::Io),
            None => Ok(()),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, IoError> {
        self.drain()?;
        let sink = self.sink.take().expect("only `finish` takes the sink");
        Ok(sink.into_inner())
    }
}

impl<W: Write> Drop for TraceStreamWriter<W> {
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

/// One run of whole JSONL lines on its way to a decode worker.
pub struct LineChunk {
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

/// The JSONL framing of a [`TraceReader`]: parses the header line, then
/// cuts the rest of the input after the last newline of every 24 KiB or
/// so, without looking inside the lines.
///
/// A cut is made as soon as the bytes read hold a newline, so input that
/// trickles in (a socket) is decoded as its lines arrive. A line longer
/// than a chunk grows the chunk until it ends.
pub struct JsonlChunks<R: Read> {
    input: R,
    kind: TraceKind,
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
    skip: u64,
    /// Event lines it passed.
    skipped: u64,
    bytes: Counter,
}

impl<R: Read> JsonlChunks<R> {
    /// Opens a stream, reading and validating the header line.
    fn new(mut input: R, chunk_bytes: usize, probes: &StreamProbes) -> Result<Self, IoError> {
        let mut buf = vec![0; chunk_bytes];
        let (mut filled, mut eof) = (0, false);
        let end = loop {
            if let Some(i) = buf[..filled].iter().position(|&b| b == b'\n') {
                break i + 1;
            }
            if eof {
                break filled;
            }
            if filled == buf.len() {
                buf.resize(2 * filled, 0);
            }
            let got = read_once(&mut input, &mut buf[filled..])?;
            eof = got == 0;
            filled += got;
        };
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
        Ok(JsonlChunks {
            input,
            kind: header.kind,
            expected: header.events,
            carry: buf,
            chunk_bytes,
            lines_pending: 1,
            index: 0,
            eof,
            skip: 0,
            skipped: 0,
            bytes: probes.bytes.clone(),
        })
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
}

impl<R: Read> Framing for JsonlChunks<R> {
    type Unit = LineChunk;

    /// The consumer, not the decode, is the slow side of a JSONL run: a
    /// chunk decodes in a fraction of the time its events take to
    /// analyze. Two per worker leave one decoded ahead while the next
    /// decodes, which absorbs a late worker wake-up.
    const UNITS_PER_WORKER: usize = 2;

    /// A full chunk of canonical lines, some 75 bytes each.
    const UNIT_EVENTS: usize = CHUNK_BYTES / 64;

    fn kind(&self) -> TraceKind {
        self.kind
    }

    fn expected(&self) -> usize {
        self.expected
    }

    fn set_skip(&mut self, n: u64) {
        self.skip = n;
    }

    fn next_unit(&mut self, mut bytes: Vec<u8>) -> Option<Result<LineChunk, Damage>> {
        // `bytes` is new or comes back from an earlier chunk at its full
        // length; only a new one is zeroed before it is read into. The
        // first chunk takes over the header read's buffer instead.
        let mut filled = self.carry.len();
        if self.index == 0 {
            std::mem::swap(&mut bytes, &mut self.carry);
        }
        let size = self.chunk_bytes.max(2 * filled);
        if bytes.len() < size {
            bytes.resize(size, 0);
        }
        if self.index > 0 {
            bytes[..filled].copy_from_slice(&self.carry);
            self.carry.clear();
        }
        let mut scanned = 0;
        let cut = loop {
            if let Some(i) = bytes[scanned..filled].iter().rposition(|&b| b == b'\n') {
                break scanned + i + 1;
            }
            scanned = filled;
            if self.eof {
                break filled;
            }
            if filled == bytes.len() {
                bytes.resize(2 * filled, 0);
            }
            match read_once(&mut self.input, &mut bytes[filled..]) {
                Ok(got) => {
                    self.eof = got == 0;
                    filled += got;
                }
                Err(e) => {
                    self.eof = true;
                    let damage = Damage {
                        error: IoError::Io(e),
                        gaps: Vec::new(),
                    };
                    return Some(Err(damage));
                }
            }
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
        Some(Ok(LineChunk {
            index: self.index,
            lines_before,
            bytes,
            lines: start..cut,
        }))
    }

    fn decode(chunk: LineChunk, mut events: Vec<Event>) -> Decoded {
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

    /// Input that ends before the header's declared count (and past the
    /// positions a resume seek passed) is truncated; an advisory count of
    /// `0` promises nothing.
    fn end(&self, delivered: u64, lost: u64, lines: usize) -> Option<Damage> {
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

/// Incremental reader for the JSONL trace format: the [`TraceReader`]
/// over `JsonlChunks`.
///
/// Parses the header eagerly, then yields one event per call through the
/// [`Iterator`] implementation — the whole trace never resides in memory.
/// [`read_jsonl`](crate::read_jsonl) is this reader collected: blank
/// lines are skipped, malformed lines (bytes that are not UTF-8
/// included) yield [`IoError::Parse`] with their 1-based line number, a
/// missing or foreign header yields [`IoError::BadHeader`], and input
/// that ends before delivering the header's declared event count yields
/// [`IoError::Truncated`] (headers with an advisory count of `0` are
/// exempt). In lenient mode a malformed line is a one-event [`TraceGap`].
///
/// A line in the canonical form [`TraceStreamWriter`] prints (see
/// `codec/jsonl.rs`) is decoded directly; every other line goes to
/// `serde_json::from_str`, so whitespace, reordered keys and the like
/// read as they always have and every error message is serde's.
pub type TraceStreamReader<R> = TraceReader<JsonlChunks<R>>;

impl<R: Read> TraceReader<JsonlChunks<R>> {
    /// Opens a stream, reading and validating the header line, to decode
    /// on the caller's thread.
    pub fn new(reader: R) -> Result<Self, IoError> {
        Self::with_probes(reader, StreamProbes::noop())
    }

    /// Like [`TraceStreamReader::new`], recording bytes, events, and
    /// parse errors into `probes` as the stream is consumed.
    pub fn with_probes(reader: R, probes: StreamProbes) -> Result<Self, IoError> {
        Self::with_workers(reader, 0, probes)
    }

    /// Like [`TraceStreamReader::with_probes`], decoding the chunks on
    /// `workers` threads (0: on the caller's thread, spawning none).
    pub fn with_workers(reader: R, workers: usize, probes: StreamProbes) -> Result<Self, IoError> {
        let chunks = JsonlChunks::new(reader, CHUNK_BYTES, &probes)?;
        Ok(TraceReader::from_framing(chunks, workers, probes))
    }

    /// Like [`TraceStreamReader::with_workers`], cutting chunks of about
    /// `chunk_bytes` (at least 1) instead of [`CHUNK_BYTES`], so that a
    /// small input crosses many chunk boundaries.
    #[cfg(test)]
    pub(crate) fn with_chunk_bytes(
        reader: R,
        workers: usize,
        chunk_bytes: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        let chunks = JsonlChunks::new(reader, chunk_bytes.max(1), &probes)?;
        Ok(TraceReader::from_framing(chunks, workers, probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::io::{read_jsonl, write_jsonl};
    use crate::trace::Trace;

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

    #[test]
    fn writer_is_byte_identical_to_write_jsonl() {
        let t = sample();
        let mut batch = Vec::new();
        write_jsonl(&t, &mut batch).unwrap();

        let mut w = TraceStreamWriter::new(Vec::new(), t.kind(), t.len()).unwrap();
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

    #[test]
    fn writer_never_repeats_bytes_a_failed_sink_took() {
        let t = sample();
        let mut whole = Vec::new();
        write_jsonl(&t, &mut whole).unwrap();
        let room = 100;
        let mut out = Vec::new();
        let sink = Cramped {
            out: &mut out,
            room,
        };
        let mut w = TraceStreamWriter::new(sink, t.kind(), t.len()).unwrap();
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        assert!(matches!(w.flush(), Err(IoError::Io(_))));
        // Neither a second flush nor the drop writes the prefix again.
        w.flush().unwrap();
        drop(w);
        assert_eq!(out, whole[..room]);
    }

    #[test]
    fn reader_round_trips() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();

        let r = TraceStreamReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.kind(), t.kind());
        assert_eq!(r.expected_events(), t.len());
        let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
        assert_eq!(events, t.events());
    }

    #[test]
    fn reader_rejects_bad_header() {
        assert!(matches!(
            TraceStreamReader::new(&b""[..]),
            Err(IoError::BadHeader(_))
        ));
        let foreign = br#"{"format":"other","kind":"Measured","events":0}"#;
        assert!(matches!(
            TraceStreamReader::new(&foreign[..]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn reader_reports_parse_errors_with_read_jsonl_line_numbers() {
        let mut buf = Vec::new();
        write_jsonl(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        let n = sample().len();

        let batch_line = match read_jsonl(buf.as_slice()) {
            Err(IoError::Parse { line, .. }) => line,
            other => panic!("expected parse error, got {other:?}"),
        };
        let mut r = TraceStreamReader::new(buf.as_slice()).unwrap();
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
        let mut buf = Vec::new();
        write_jsonl(&sample(), &mut buf).unwrap();
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        let at = newlines[2] + 1;
        buf.splice(at..at, *b"{\"time\":\xff\xfe}\n");
        buf
    }

    #[test]
    fn strict_reader_reports_a_non_utf8_line_as_a_parse_error() {
        let buf = sample_with_non_utf8_line();
        let mut r = TraceStreamReader::new(buf.as_slice()).unwrap();
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
            read_jsonl(buf.as_slice()),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn lenient_reader_skips_a_non_utf8_line_as_a_one_event_gap() {
        let buf = sample_with_non_utf8_line();
        let mut r = TraceStreamReader::new(buf.as_slice()).unwrap();
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
        let mut buf = Vec::new();
        write_jsonl(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let r = TraceStreamReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.count(), sample().len());
    }

    #[test]
    fn reader_errors_on_truncated_input() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        // Cut the stream after the first two event lines; the header
        // still declares the full count.
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        buf.truncate(newlines[2] + 1);

        let mut r = TraceStreamReader::new(buf.as_slice()).unwrap();
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
        let mut w = TraceStreamWriter::new(Vec::new(), TraceKind::Measured, 0).unwrap();
        for e in sample().iter().take(2) {
            w.write_event(e).unwrap();
        }
        let buf = w.finish().unwrap();
        let r = TraceStreamReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.filter_map(|e| e.ok()).count(), 2);
    }

    #[test]
    fn probes_count_bytes_events_and_parse_errors() {
        let t = sample();
        let registry = ppa_obs::Registry::new();

        let wp = StreamProbes::register(&registry, "write");
        let mut w =
            TraceStreamWriter::with_probes(Vec::new(), t.kind(), t.len(), wp.clone()).unwrap();
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        let buf = w.finish().unwrap();
        assert_eq!(wp.events.get(), t.len() as u64);
        assert_eq!(wp.bytes.get(), buf.len() as u64);

        let rp = StreamProbes::register(&registry, "read");
        let r = TraceStreamReader::with_probes(buf.as_slice(), rp.clone()).unwrap();
        assert_eq!(r.filter_map(|e| e.ok()).count(), t.len());
        assert_eq!(rp.events.get(), t.len() as u64);
        assert_eq!(rp.bytes.get(), buf.len() as u64);
        assert_eq!(rp.parse_errors.get(), 0);

        // Truncation and malformed lines land in the parse-error counter.
        let mut cut = buf.clone();
        let newlines: Vec<usize> = (0..cut.len()).filter(|&i| cut[i] == b'\n').collect();
        cut.truncate(newlines[1] + 1);
        let ep = StreamProbes::register(&registry, "read-truncated");
        let outcomes: Vec<_> = TraceStreamReader::with_probes(cut.as_slice(), ep.clone())
            .unwrap()
            .collect();
        assert!(matches!(
            outcomes.last(),
            Some(Err(IoError::Truncated { .. }))
        ));
        assert_eq!(ep.parse_errors.get(), 1);
    }
}
