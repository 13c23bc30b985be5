//! Trace serialization: JSON-lines and CSV.
//!
//! JSONL is the lossless interchange format (one event per line, plus a
//! header line carrying the trace kind; [`AnyTraceReader`](crate::AnyTraceReader)
//! and [`AnyTraceWriter`](crate::AnyTraceWriter) read and write it); CSV
//! is a flat export for plotting tools. Writers accept any `io::Write`
//! and buffer internally.

use crate::trace::{Trace, TraceKind};
use serde::{Deserialize, Serialize};
use std::io::{self, BufWriter, Write};

#[derive(Serialize, Deserialize)]
pub(crate) struct Header {
    pub(crate) format: String,
    pub(crate) kind: TraceKind,
    pub(crate) events: usize,
}

pub(crate) const FORMAT_NAME: &str = "ppa-trace-v1";

/// Errors from trace I/O.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed JSON or CSV content.
    Parse { line: usize, message: String },
    /// The header line is missing or names an unknown format.
    BadHeader(String),
    /// The input ended before delivering the event count its header
    /// declared (file truncated mid-stream). Headers with an advisory
    /// count of `0` (e.g. shards) are exempt.
    Truncated { expected: usize, got: usize },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::BadHeader(msg) => write!(f, "bad trace header: {msg}"),
            IoError::Truncated { expected, got } => write!(
                f,
                "truncated trace: header declares {expected} events but input ended after {got}"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes a flat CSV export: `time_ns,proc,seq,kind,detail`.
pub fn write_csv<W: Write>(trace: &Trace, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "time_ns,proc,seq,kind,detail")?;
    for e in trace.iter() {
        writeln!(
            w,
            "{},{},{},{},\"{}\"",
            e.time.as_nanos(),
            e.proc.0,
            e.seq,
            e.kind.mnemonic(),
            e.kind
        )?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_trace, write_trace, TraceFormat};
    use crate::event::{Event, EventKind};
    use crate::ids::{ProcessorId, StatementId, SyncTag, SyncVarId};
    use crate::time::Time;

    fn sample_trace() -> Trace {
        Trace::from_events(
            TraceKind::Measured,
            vec![
                Event::new(
                    Time::from_nanos(5),
                    ProcessorId(0),
                    0,
                    EventKind::Statement {
                        stmt: StatementId(3),
                    },
                ),
                Event::new(
                    Time::from_nanos(9),
                    ProcessorId(1),
                    1,
                    EventKind::Advance {
                        var: SyncVarId(0),
                        tag: SyncTag(2),
                    },
                ),
            ],
        )
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf, TraceFormat::Jsonl).unwrap();
        assert_eq!(TraceFormat::sniff(&buf), TraceFormat::Jsonl);
        let back = read_trace(buf.as_slice(), 0).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.kind(), TraceKind::Measured);
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            read_trace(&b""[..], 0),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_unknown_format() {
        let input = br#"{"format":"other","kind":"Measured","events":0}"#;
        assert!(matches!(
            read_trace(&input[..], 0),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_garbage_event_line() {
        let mut buf = Vec::new();
        write_trace(&Trace::new(TraceKind::Actual), &mut buf, TraceFormat::Jsonl).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        match read_trace(buf.as_slice(), 0) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn skips_blank_lines() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf, TraceFormat::Jsonl).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_trace(buf.as_slice(), 0).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf, TraceFormat::Jsonl).unwrap();
        // Drop the last event line entirely: the header still declares 2.
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        buf.truncate(newlines[newlines.len() - 2] + 1);
        match read_trace(buf.as_slice(), 0) {
            Err(IoError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut buf = Vec::new();
        write_csv(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "time_ns,proc,seq,kind,detail");
        assert!(lines[1].starts_with("5,0,0,stmt,"));
        assert!(lines[2].contains("advance"));
    }
}
