//! The slice engine: predicate evaluation over a trace stream with
//! exact accounting.
//!
//! [`slice_stream`] pulls events from an [`AnyTraceReader`], engages
//! the binary block skip index for the spec's time window, evaluates
//! the [`SliceSpec`] per surviving event, optionally feeds survivors
//! through the [`Suppressor`], and hands physical output events to the
//! caller's sink. Every input event is accounted exactly once — see
//! [`SliceStats`].

use crate::probes::SliceProbes;
use crate::spec::SliceSpec;
use crate::suppress::Suppressor;
use ppa_obs::span_enter;
use ppa_obs::Stage;
use ppa_trace::codec::AnyTraceReader;
use ppa_trace::{Event, EventKind, IoError, ProcessorId};
use std::fmt;
use std::io::Read;

/// Events per [`Stage::Slice`] span, mirroring the analyzer's chunking.
const CHUNK: usize = 4096;

/// Why a slice run stopped.
#[derive(Debug)]
pub enum SliceError {
    /// Reading the input failed.
    Io(IoError),
    /// The sink failed to take an event.
    Output(IoError),
    /// The input contains a repeat record but the run filters or
    /// re-suppresses. Records stand for events the predicate cannot
    /// see (and blocks the skip index discards may hide more), so
    /// suppressed traces must be expanded before slicing.
    SuppressedInput {
        /// Sequence number of the offending record.
        seq: u64,
        /// Processor that carries it.
        proc: ProcessorId,
    },
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::Io(e) | SliceError::Output(e) => write!(f, "{e}"),
            SliceError::SuppressedInput { seq, proc } => write!(
                f,
                "input contains a repeat record (seq {seq} on {proc}): \
                 expand the trace (`ppa slice --expand`) before slicing \
                 or suppressing it"
            ),
        }
    }
}

impl std::error::Error for SliceError {}

/// Exact accounting for one slice run.
///
/// Every event of the input stream lands in exactly one bucket:
/// delivered and emitted, delivered and filtered, skipped undecoded by
/// the block index, lost to lenient-mode gaps, or (logically)
/// suppressed into a record. The invariant
/// `emitted - records + suppressed + filtered + skipped_events + lost
/// == expected` holds whenever the container announced its event count
/// ([`SliceStats::conservation_holds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Event count announced by the input header (0 = unknown).
    pub expected: u64,
    /// Physical events handed to the sink, repeat records included.
    pub emitted: u64,
    /// Repeat records among `emitted`.
    pub records: u64,
    /// Logical events the emitted records stand for.
    pub suppressed: u64,
    /// Events decoded but rejected by the predicate.
    pub filtered: u64,
    /// Blocks the skip index discarded undecoded.
    pub skipped_blocks: u64,
    /// Events inside those discarded blocks.
    pub skipped_events: u64,
    /// Events lost to lenient-mode gaps.
    pub lost: u64,
}

impl SliceStats {
    /// Input events this run has accounted for, bucket by bucket.
    pub fn accounted(&self) -> u64 {
        (self.emitted - self.records)
            + self.suppressed
            + self.filtered
            + self.skipped_events
            + self.lost
    }

    /// True when the accounting invariant holds (vacuously true for
    /// streams that announced no event count).
    pub fn conservation_holds(&self) -> bool {
        self.expected == 0 || self.accounted() == self.expected
    }
}

/// How [`slice_stream`] should treat the stream.
#[derive(Debug, Clone, Default)]
pub struct SliceOptions {
    /// The predicate; the empty spec selects everything.
    pub spec: SliceSpec,
    /// Collapse repeated patterns in the selected events into repeat
    /// records.
    pub suppress: bool,
    /// Engage the binary block skip index for the spec's time window.
    /// Callers disable this when the input may contain repeat records
    /// (skipped blocks could hide them) — `ppa slice --expand` does.
    pub use_skip_index: bool,
}

/// Runs one slice: reads `reader` to exhaustion, applies `options`, and
/// hands every surviving physical event to `sink` in stream order.
///
/// An empty spec without suppression is an identity copy and passes
/// repeat records through untouched; any filtering or re-suppression
/// instead fails with [`SliceError::SuppressedInput`] on the first
/// record seen.
pub fn slice_stream<R: Read>(
    reader: &mut AnyTraceReader<R>,
    options: &SliceOptions,
    probes: &SliceProbes,
    mut sink: impl FnMut(&Event) -> Result<(), IoError>,
) -> Result<SliceStats, SliceError> {
    let identity = options.spec.is_empty() && !options.suppress;
    if options.use_skip_index {
        if let Some(since) = options.spec.since {
            reader.set_min_time(since);
        }
        if let Some(until) = options.spec.until {
            reader.set_max_time(until);
        }
    }

    let mut stats = SliceStats {
        expected: reader.expected_events() as u64,
        ..SliceStats::default()
    };
    let mut suppressor = options.suppress.then(Suppressor::new);
    let mut accepted: Vec<Event> = Vec::with_capacity(CHUNK);
    let mut done = false;

    while !done {
        accepted.clear();
        {
            let _span = span_enter(Stage::Slice);
            let mut read = 0;
            while read < CHUNK {
                read += 1;
                match reader.next() {
                    None => {
                        done = true;
                        break;
                    }
                    Some(Err(e)) => return Err(SliceError::Io(e)),
                    Some(Ok(event)) => {
                        if !identity && matches!(event.kind, EventKind::Repeat { .. }) {
                            return Err(SliceError::SuppressedInput {
                                seq: event.seq,
                                proc: event.proc,
                            });
                        }
                        if identity || options.spec.matches(&event) {
                            accepted.push(event);
                        } else {
                            stats.filtered += 1;
                            probes.events_filtered.inc();
                        }
                    }
                }
            }
        }

        // What the suppressor releases goes straight to the sink, so
        // the suppress span also covers writing it.
        let mut emitted = 0u64;
        let mut emit = |event: Event| {
            emitted += 1;
            sink(&event).map_err(SliceError::Output)
        };
        match &mut suppressor {
            Some(s) => {
                let _span = span_enter(Stage::Suppress);
                for &event in &accepted {
                    s.push(event, &mut emit)?;
                }
                if done {
                    s.finish(&mut emit)?;
                }
            }
            None => accepted.iter().try_for_each(|&event| emit(event))?,
        }
        stats.emitted += emitted;
        probes.events_emitted.add(emitted);
    }

    if let Some(s) = &suppressor {
        stats.records = s.records();
        stats.suppressed = s.suppressed();
        probes.records.add(stats.records);
        probes.suppressed_events.add(stats.suppressed);
    }
    stats.skipped_blocks = reader.skipped_blocks() as u64;
    stats.skipped_events = reader.skipped_events();
    stats.lost = reader.events_lost();
    probes.blocks_skipped.add(stats.skipped_blocks);
    probes.events_skipped.add(stats.skipped_events);
    debug_assert!(
        stats.conservation_holds(),
        "slice accounting broken: {stats:?}"
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::codec::{write_trace, TraceFormat};
    use ppa_trace::{EventKind, StatementId, Time, Trace, TraceKind};

    fn fixture(events: usize) -> Trace {
        let mut t = Trace::new(TraceKind::Measured);
        for i in 0..events {
            t.push(Event::new(
                Time::from_nanos(i as u64 * 10),
                ProcessorId((i % 4) as u16),
                i as u64,
                EventKind::Statement {
                    stmt: StatementId((i % 3) as u32),
                },
            ));
        }
        t
    }

    fn encode(trace: &Trace, format: TraceFormat) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf, format).unwrap();
        buf
    }

    fn run(buf: &[u8], options: &SliceOptions) -> Result<(Vec<Event>, SliceStats), SliceError> {
        let mut reader = AnyTraceReader::open(buf).unwrap();
        let mut out = Vec::new();
        let stats = slice_stream(&mut reader, options, &SliceProbes::noop(), |e| {
            out.push(*e);
            Ok(())
        })?;
        Ok((out, stats))
    }

    #[test]
    fn identity_copy_in_both_formats() {
        let trace = fixture(500);
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let buf = encode(&trace, format);
            let (out, stats) = run(&buf, &SliceOptions::default()).unwrap();
            assert_eq!(out, trace.events());
            assert_eq!(stats.emitted, 500);
            assert_eq!(stats.filtered, 0);
            assert!(stats.conservation_holds());
        }
    }

    #[test]
    fn window_slice_accounts_exactly() {
        let trace = fixture(10_000);
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let buf = encode(&trace, format);
            let options = SliceOptions {
                spec: SliceSpec::parse("window=10000..20000 procs=0,2").unwrap(),
                suppress: false,
                use_skip_index: true,
            };
            let (out, stats) = run(&buf, &options).unwrap();
            assert!(out.iter().all(|e| {
                e.time >= Time::from_nanos(10_000)
                    && e.time < Time::from_nanos(20_000)
                    && e.proc.0 % 2 == 0
            }));
            assert_eq!(stats.expected, 10_000);
            assert!(stats.conservation_holds(), "{stats:?}");
            assert_eq!(stats.emitted, out.len() as u64);
            if format == TraceFormat::Binary {
                assert!(stats.skipped_blocks > 0, "skip index unused: {stats:?}");
                assert!(stats.skipped_events > 0);
            }
        }
    }

    #[test]
    fn suppression_accounts_logical_events() {
        let trace = fixture(5_000); // stmt ids cycle 0,1,2 per proc: repetitive
        let buf = encode(&trace, TraceFormat::Binary);
        let options = SliceOptions {
            spec: SliceSpec::default(),
            suppress: true,
            use_skip_index: false,
        };
        let (out, stats) = run(&buf, &options).unwrap();
        assert!(stats.records > 0, "{stats:?}");
        assert!(stats.suppressed > 0);
        assert!((out.len() as u64) < 5_000);
        assert!(stats.conservation_holds(), "{stats:?}");
    }

    #[test]
    fn filtering_suppressed_input_is_refused() {
        let mut trace = Trace::new(TraceKind::Measured);
        trace.push(Event::new(
            Time::from_nanos(0),
            ProcessorId(0),
            0,
            EventKind::Statement {
                stmt: StatementId(0),
            },
        ));
        trace.push(Event::new(
            Time::from_nanos(10),
            ProcessorId(0),
            1,
            EventKind::Repeat {
                len: 1,
                count: 3,
                dt_ns: 10,
                dseq: 1,
                dfield: 0,
            },
        ));
        let buf = encode(&trace, TraceFormat::Binary);

        // Identity copy passes the record through...
        let (out, _) = run(&buf, &SliceOptions::default()).unwrap();
        assert_eq!(out.len(), 2);

        // ...but filtering or re-suppressing refuses it.
        for options in [
            SliceOptions {
                spec: SliceSpec::parse("procs=0").unwrap(),
                suppress: false,
                use_skip_index: false,
            },
            SliceOptions {
                spec: SliceSpec::default(),
                suppress: true,
                use_skip_index: false,
            },
        ] {
            match run(&buf, &options) {
                Err(SliceError::SuppressedInput { seq: 1, .. }) => {}
                other => panic!("expected SuppressedInput, got {other:?}"),
            }
        }
    }
}
