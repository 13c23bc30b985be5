//! Streaming trace I/O: bounded-memory JSONL reading and writing.
//!
//! [`read_jsonl`](crate::read_jsonl)/[`write_jsonl`](crate::write_jsonl)
//! materialize whole traces; the types here process one event at a time so
//! a trace never has to fit in memory:
//!
//! - [`TraceStreamReader`] iterates the events of a JSONL trace without
//!   collecting them ([`read_jsonl`](crate::read_jsonl) collects it);
//! - [`TraceStreamWriter`] emits the JSONL format incrementally
//!   ([`write_jsonl`](crate::write_jsonl) feeds it a whole trace).

use crate::codec::jsonl::{decode_event, decode_terminated, encode_event};
use crate::event::Event;
use crate::gap::{GapCause, TraceGap};
use crate::io::{Header, IoError, FORMAT_NAME};
use crate::trace::TraceKind;
use ppa_obs::{Counter, Registry};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

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

/// Capacity of the `BufReader`/`BufWriter` under the JSONL stream types.
const STREAM_BUFFER_BYTES: usize = 64 * 1024;

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
/// are the bytes `serde_json::to_string` gives for an [`Event`], written
/// without going through serde. The header's event count is advisory (readers
/// use it to pre-size buffers); a writer that cannot know the final count
/// up front may pass `0`.
pub struct TraceStreamWriter<W: Write> {
    sink: BufWriter<CountingWriter<W>>,
    /// Reused buffer for the event line being written.
    line: Vec<u8>,
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
        let mut sink = BufWriter::with_capacity(
            STREAM_BUFFER_BYTES,
            CountingWriter::new(writer, probes.bytes),
        );
        let header = Header {
            format: FORMAT_NAME.to_string(),
            kind,
            events,
        };
        serde_json::to_writer(&mut sink, &header).map_err(|e| IoError::Parse {
            line: 0,
            message: e.to_string(),
        })?;
        sink.write_all(b"\n")?;
        Ok(TraceStreamWriter {
            sink,
            line: Vec::new(),
            written: 0,
            events: probes.events,
        })
    }

    /// Appends one event line.
    pub fn write_event(&mut self, event: &Event) -> Result<(), IoError> {
        self.line.clear();
        encode_event(event, &mut self.line);
        self.line.push(b'\n');
        self.sink.write_all(&self.line)?;
        self.written += 1;
        self.events.inc();
        Ok(())
    }

    /// Resumes an interrupted stream: wraps a sink already positioned
    /// after `written` events (header included) and continues appending
    /// event lines *without* writing a new header. The checkpoint/resume
    /// pipeline truncates the partial output to its last flushed offset
    /// and hands the re-opened file here, so the resumed stream is
    /// byte-identical to an uninterrupted one.
    pub fn resume_with_probes(writer: W, written: usize, probes: StreamProbes) -> Self {
        TraceStreamWriter {
            sink: BufWriter::with_capacity(
                STREAM_BUFFER_BYTES,
                CountingWriter::new(writer, probes.bytes),
            ),
            line: Vec::new(),
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
        self.sink.flush().map_err(IoError::Io)
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(self) -> Result<W, IoError> {
        self.sink
            .into_inner()
            .map(CountingWriter::into_inner)
            .map_err(|e| IoError::Io(e.into_error()))
    }
}

/// Incremental reader for the JSONL trace format.
///
/// Parses the header eagerly, then yields one event per call through the
/// [`Iterator`] implementation — the whole trace never resides in memory.
/// [`read_jsonl`](crate::read_jsonl) is this reader collected: blank
/// lines are skipped, malformed lines (bytes that are not UTF-8
/// included) yield [`IoError::Parse`] with their 1-based line number, a
/// missing or foreign header yields [`IoError::BadHeader`], and input
/// that ends before delivering the header's declared event count yields
/// [`IoError::Truncated`] (headers with an advisory count of `0` are
/// exempt).
///
/// A line in the canonical form [`TraceStreamWriter`] prints (see
/// `codec/jsonl.rs`) is decoded directly; every other line goes to
/// `serde_json::from_str`, so whitespace, reordered keys and the like
/// read as they always have and every error message is serde's.
pub struct TraceStreamReader<R: Read> {
    input: BufReader<R>,
    /// Reused line buffer: one allocation for the whole stream instead of
    /// a fresh one per event. Bytes, not `String`: a line that is not
    /// UTF-8 is a malformed line, not an I/O failure.
    buf: Vec<u8>,
    kind: TraceKind,
    expected: usize,
    /// 1-based number of the last line consumed (the header is line 1).
    line: usize,
    /// Events successfully yielded so far (plus resumed-past positions
    /// consumed by [`TraceStreamReader::set_skip_events`]).
    seen: usize,
    failed: bool,
    /// Skip damaged lines instead of failing; see
    /// [`TraceStreamReader::set_lenient`].
    lenient: bool,
    /// Event lines still to consume without parsing (resume support).
    skip: u64,
    gaps: Vec<TraceGap>,
    /// Events swallowed by the gaps recorded so far.
    lost: u64,
    probes: StreamProbes,
}

/// Reads one line into the reused buffer, stripping the trailing
/// newline (and a preceding `\r`, matching [`BufRead::lines`]). Returns
/// the raw byte count consumed, `0` at end of input.
fn read_trimmed_line<R: Read>(
    input: &mut BufReader<R>,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    buf.clear();
    let n = input.read_until(b'\n', buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(n)
}

/// Whether `line` holds only whitespace (as `str::trim` sees it). A
/// line that starts an object cannot, which spares event lines the
/// UTF-8 scan.
fn is_blank(line: &[u8]) -> bool {
    line.first() != Some(&b'{')
        && std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

/// Parses one line through serde; the error is its message, or the
/// UTF-8 decoder's.
fn from_json_line<T: serde::Deserialize>(line: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

impl<R: Read> TraceStreamReader<R> {
    /// Opens a stream, reading and validating the header line.
    pub fn new(reader: R) -> Result<Self, IoError> {
        Self::with_probes(reader, StreamProbes::noop())
    }

    /// Like [`TraceStreamReader::new`], recording bytes, events, and
    /// parse errors into `probes` as the stream is consumed.
    pub fn with_probes(reader: R, probes: StreamProbes) -> Result<Self, IoError> {
        let mut input = BufReader::with_capacity(STREAM_BUFFER_BYTES, reader);
        let mut buf = Vec::new();
        let n = read_trimmed_line(&mut input, &mut buf)?;
        if n == 0 {
            return Err(IoError::BadHeader("empty input".to_string()));
        }
        probes.bytes.add(n as u64);
        let header: Header = from_json_line(&buf).map_err(IoError::BadHeader)?;
        if header.format != FORMAT_NAME {
            return Err(IoError::BadHeader(format!(
                "unknown format {:?}",
                header.format
            )));
        }
        Ok(TraceStreamReader {
            input,
            buf,
            kind: header.kind,
            expected: header.events,
            line: 1,
            seen: 0,
            failed: false,
            lenient: false,
            skip: 0,
            gaps: Vec::new(),
            lost: 0,
            probes,
        })
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.expected
    }

    /// Switches the reader into lenient mode: a malformed line (not
    /// JSON, not an event, not UTF-8) is recorded as a one-event
    /// [`TraceGap`] and skipped,
    /// and input ending short of the header's declared count records a
    /// [`GapCause::TruncatedStream`]
    /// gap instead of erroring. I/O errors remain fatal.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Consumes the next `n` event lines without parsing them, so a
    /// resumed run can seek past the stream positions a previous run
    /// already processed (including positions that previous run lost to
    /// lenient-mode gaps — which is why the skipped lines must not be
    /// parsed).
    pub fn set_skip_events(&mut self, n: u64) {
        self.skip = n;
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.lost
    }

    /// End of input: if the header promised more events than were
    /// delivered (or leniently lost), the file was cut off mid-stream.
    fn end_of_input(&mut self) -> Option<Result<Event, IoError>> {
        let accounted = self.seen + self.lost as usize;
        if self.expected == 0 || accounted >= self.expected {
            return None;
        }
        self.failed = true;
        self.probes.parse_errors.inc();
        if self.lenient {
            let missing = (self.expected - accounted) as u64;
            self.record_gap(self.line + 1, missing, GapCause::TruncatedStream);
            return None;
        }
        Some(Err(IoError::Truncated {
            expected: self.expected,
            got: self.seen,
        }))
    }

    /// Records `events` lost at `line`. JSONL has no framing to say
    /// which sequence numbers or times they carried.
    fn record_gap(&mut self, line: usize, events: u64, cause: GapCause) {
        self.lost += events;
        self.probes.gaps.inc();
        self.probes.events_lost.add(events);
        self.gaps.push(TraceGap {
            block: line,
            events,
            first_seq: None,
            last_seq: None,
            first_time: None,
            last_time: None,
            cause,
        });
    }
}

impl<R: Read> Iterator for TraceStreamReader<R> {
    type Item = Result<Event, IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            // A canonical line the buffer holds whole decodes in place;
            // any other line is copied out and takes the general path.
            let buffered = match self.skip {
                0 => decode_terminated(self.input.buffer()),
                _ => None,
            };
            let decoded = if let Some((event, used)) = buffered {
                self.input.consume(used);
                self.probes.bytes.add(used as u64);
                self.line += 1;
                Ok(event)
            } else {
                match read_trimmed_line(&mut self.input, &mut self.buf) {
                    Ok(0) => return self.end_of_input(),
                    Ok(n) => self.probes.bytes.add(n as u64),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(IoError::Io(e)));
                    }
                }
                self.line += 1;
                if is_blank(&self.buf) {
                    continue;
                }
                if self.skip > 0 {
                    // A resumed-past position: the line was consumed by a
                    // previous run (delivered or recorded as lost) and must
                    // not be parsed again.
                    self.skip -= 1;
                    self.seen += 1;
                    continue;
                }
                // The canonical form directly, anything else through serde.
                decode_event(&self.buf).map_or_else(|| from_json_line(&self.buf), Ok)
            };
            return match decoded {
                Ok(event) => {
                    self.seen += 1;
                    self.probes.events.inc();
                    Some(Ok(event))
                }
                Err(message) => {
                    self.probes.parse_errors.inc();
                    if self.lenient {
                        self.record_gap(self.line, 1, GapCause::MalformedLine);
                        continue;
                    }
                    self.failed = true;
                    Some(Err(IoError::Parse {
                        line: self.line,
                        message,
                    }))
                }
            };
        }
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
