//! Trace codecs: the JSONL interchange format, its binary sibling
//! `ppa-trace-bin-v1`, and the one reader and the one writer of both.
//!
//! JSONL (one JSON object per event line; the line itself is the
//! business of the private `jsonl` module here) is self-describing and
//! greppable but spends some seventy-five bytes of text on an event.
//! The binary format trades that for LEB128 varints with delta-encoded
//! timestamps and sequence numbers, framed into independently decodable
//! blocks — about a tenth of the bytes and faster to decode.
//!
//! The container is a field of the reader and of the writer, not a type:
//!
//! - [`AnyTraceReader`] sniffs it from the first bytes of the stream
//!   ([`BINARY_MAGIC`] opens a binary trace; anything else is read as
//!   JSONL) and decodes either on 0..N worker threads: its framing cuts
//!   the input into units on the consuming thread — binary blocks or
//!   chunks of whole JSONL lines — and with no worker it decodes each
//!   unit on the caller's thread, with N it keeps units in flight on N
//!   threads, and either way the units pass through the same decode and
//!   in-order accept steps;
//! - [`AnyTraceWriter`] encodes the [`TraceFormat`] its caller names;
//! - [`read_trace`] / [`write_trace`] read or write a whole [`Trace`].

pub(crate) mod binary;
pub(crate) mod block;
pub(crate) mod jsonl;
pub(crate) mod reader;
mod varint;

pub use crate::stream::AnyTraceWriter;
pub use binary::{BINARY_FORMAT_NAME, BINARY_MAGIC, BINARY_VERSION, DEFAULT_BLOCK_EVENTS};
pub use block::{crc32, crc32_chain, BlockSummary};
pub use reader::{default_decode_workers, AnyTraceReader};

use crate::io::IoError;
use crate::trace::Trace;
use std::io::{Read, Write};

/// The on-disk trace formats the toolchain reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// `ppa-trace-v1`: a JSON header line plus one JSON event per line.
    Jsonl,
    /// `ppa-trace-bin-v1`: magic-prefixed header plus framed varint
    /// blocks.
    Binary,
}

impl TraceFormat {
    /// Parses a user-facing format name (`jsonl`/`json` or
    /// `bin`/`binary`).
    pub fn parse(name: &str) -> Option<TraceFormat> {
        match name {
            "jsonl" | "json" => Some(TraceFormat::Jsonl),
            "bin" | "binary" => Some(TraceFormat::Binary),
            _ => None,
        }
    }

    /// Classifies a stream by its opening bytes: a [`BINARY_MAGIC`]
    /// prefix is binary, everything else (including short prefixes) is
    /// presumed JSONL and left to the JSONL parser to accept or reject.
    pub fn sniff(prefix: &[u8]) -> TraceFormat {
        if prefix.starts_with(&BINARY_MAGIC) {
            TraceFormat::Binary
        } else {
            TraceFormat::Jsonl
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFormat::Jsonl => f.write_str("jsonl"),
            TraceFormat::Binary => f.write_str("bin"),
        }
    }
}

/// Reads a whole trace of either format, auto-detected by its first
/// bytes, decoding on up to `workers` threads (0: on the caller's).
pub fn read_trace<R: Read>(reader: R, workers: usize) -> Result<Trace, IoError> {
    let r = AnyTraceReader::open_parallel(reader, workers)?;
    let kind = r.kind();
    let events = r.collect::<Result<Vec<_>, _>>()?;
    Ok(Trace::from_events(kind, events))
}

/// Writes a whole trace in the chosen format (an [`AnyTraceWriter`] fed
/// the whole trace).
pub fn write_trace<W: Write>(trace: &Trace, writer: W, format: TraceFormat) -> Result<(), IoError> {
    let mut w = AnyTraceWriter::new(writer, format, trace.kind(), trace.len())?;
    for e in trace.iter() {
        w.write_event(e)?;
    }
    w.finish()?.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::Event;
    use crate::stream::StreamProbes;
    use crate::time::Time;
    use crate::trace::TraceKind;

    /// Every binary reader test runs at each of these worker counts: the
    /// inline decode, one worker, and several.
    const WORKERS: [usize; 3] = [0, 1, 3];

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

    /// `opened`, checked to have taken the binary path: these tests check
    /// the binary framing, and the reader takes any other input for JSONL.
    fn binary<R: Read>(
        opened: Result<AnyTraceReader<R>, IoError>,
    ) -> Result<AnyTraceReader<R>, IoError> {
        opened.inspect(|r| assert_eq!(r.format(), TraceFormat::Binary))
    }

    /// A larger multi-block trace: `blocks` full blocks of `per_block`.
    fn blocky(per_block: usize, blocks: usize) -> (Trace, Vec<u8>) {
        use crate::event::EventKind;
        use crate::ids::{ProcessorId, StatementId};
        let events: Vec<Event> = (0..per_block * blocks)
            .map(|i| {
                Event::new(
                    Time::from_nanos(10 * i as u64),
                    ProcessorId((i % 8) as u16),
                    i as u64,
                    EventKind::Statement {
                        stmt: StatementId((i % 100) as u32),
                    },
                )
            })
            .collect();
        let t = Trace::from_events(TraceKind::Measured, events);
        let mut buf = Vec::new();
        let mut w = AnyTraceWriter::with_block_events(
            &mut buf,
            t.kind(),
            t.len(),
            per_block,
            StreamProbes::noop(),
        );
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap();
        (t, buf)
    }

    #[test]
    fn binary_round_trips() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf, TraceFormat::Binary).unwrap();
        assert!(buf.starts_with(&BINARY_MAGIC));
        let back = read_trace(buf.as_slice(), 0).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.kind(), TraceKind::Measured);
    }

    #[test]
    fn binary_decode_equals_jsonl_decode() {
        let t = sample();
        let (mut jl, mut bin) = (Vec::new(), Vec::new());
        write_trace(&t, &mut jl, TraceFormat::Jsonl).unwrap();
        write_trace(&t, &mut bin, TraceFormat::Binary).unwrap();
        assert_eq!(
            read_trace(jl.as_slice(), 0).unwrap(),
            read_trace(bin.as_slice(), 0).unwrap()
        );
    }

    #[test]
    fn binary_is_much_smaller_than_jsonl() {
        let (_, bin) = blocky(512, 4);
        let (t, _) = blocky(512, 4);
        let mut jl = Vec::new();
        write_trace(&t, &mut jl, TraceFormat::Jsonl).unwrap();
        assert!(
            bin.len() * 5 < jl.len() * 2,
            "binary {} bytes vs jsonl {} bytes — expected <= 40%",
            bin.len(),
            jl.len()
        );
    }

    #[test]
    fn auto_detection_picks_the_right_codec() {
        let t = sample();
        let (mut jl, mut bin) = (Vec::new(), Vec::new());
        write_trace(&t, &mut jl, TraceFormat::Jsonl).unwrap();
        write_trace(&t, &mut bin, TraceFormat::Binary).unwrap();

        let r = AnyTraceReader::open(jl.as_slice()).unwrap();
        assert_eq!(r.format(), TraceFormat::Jsonl);
        assert_eq!(r.kind(), t.kind());
        assert_eq!(r.expected_events(), t.len());
        assert_eq!(r.map(|e| e.unwrap()).collect::<Vec<_>>(), t.events());

        let r = AnyTraceReader::open(bin.as_slice()).unwrap();
        assert_eq!(r.format(), TraceFormat::Binary);
        assert_eq!(r.kind(), t.kind());
        assert_eq!(r.expected_events(), t.len());
        assert_eq!(r.map(|e| e.unwrap()).collect::<Vec<_>>(), t.events());

        // Empty input falls through to the JSONL parser's BadHeader.
        assert!(matches!(
            AnyTraceReader::open(&b""[..]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn sniff_and_parse_names() {
        assert_eq!(TraceFormat::sniff(b"PPATRBIN\x01..."), TraceFormat::Binary);
        assert_eq!(TraceFormat::sniff(b"{\"format\""), TraceFormat::Jsonl);
        assert_eq!(TraceFormat::sniff(b""), TraceFormat::Jsonl);
        assert_eq!(TraceFormat::parse("bin"), Some(TraceFormat::Binary));
        assert_eq!(TraceFormat::parse("binary"), Some(TraceFormat::Binary));
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("csv"), None);
        assert_eq!(TraceFormat::Binary.to_string(), "bin");
    }

    #[test]
    fn parallel_decode_matches_serial() {
        let (t, buf) = blocky(64, 7);
        for workers in [0, 1, 2, 4, 16] {
            let r = binary(AnyTraceReader::open_parallel(buf.as_slice(), workers)).unwrap();
            let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
            assert_eq!(events, t.events(), "workers = {workers}");
        }
    }

    #[test]
    fn open_parallel_with_zero_workers_is_the_serial_reader() {
        let (t, buf) = blocky(64, 3);
        // Zero workers own no `ppa-decode-*` thread; asserting on the
        // reader's handles (not on the process's thread list) keeps the
        // check independent of tests running beside this one.
        let r = AnyTraceReader::open_parallel(buf.as_slice(), 0).unwrap();
        assert_eq!(r.format(), TraceFormat::Binary);
        assert_eq!(r.decode_threads(), 0);
        let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
        let serial: Vec<Event> = AnyTraceReader::open(buf.as_slice())
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(events, serial);
        assert_eq!(events, t.events());
        let r = AnyTraceReader::open_parallel(buf.as_slice(), 1).unwrap();
        assert_eq!(r.decode_threads(), 1);
    }

    #[test]
    fn corrupted_block_reports_its_index_and_fuses() {
        let (_, mut buf) = blocky(64, 3);
        // Flip a payload byte inside the second block. Layout: header,
        // then per block a 44-byte frame + payload.
        let header = 18;
        let frame = 44;
        let payload_len = |buf: &[u8], at: usize| {
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
        };
        let b1 = header;
        let b2 = b1 + frame + payload_len(&buf, b1);
        let target = b2 + frame + 10;
        buf[target] ^= 0xff;

        for workers in WORKERS {
            let mut r = binary(AnyTraceReader::open_parallel(buf.as_slice(), workers)).unwrap();
            let outcomes: Vec<_> = r.by_ref().collect();
            assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 64);
            match outcomes.last() {
                Some(Err(IoError::Parse { line, message })) => {
                    assert_eq!(*line, 2, "block index is reported as the line");
                    assert!(message.contains("CRC"), "{message}");
                }
                other => panic!("workers = {workers}: expected CRC error, got {other:?}"),
            }
            assert!(r.next().is_none(), "workers = {workers}: fused");
        }
    }

    #[test]
    fn truncated_binary_input_is_detected() {
        let (t, buf) = blocky(64, 3);
        let payload_len = u32::from_le_bytes(buf[18..22].try_into().unwrap()) as usize;
        for workers in WORKERS {
            let read = |cut: &[u8]| -> Vec<_> {
                binary(AnyTraceReader::open_parallel(cut, workers))
                    .unwrap()
                    .collect()
            };
            // Cut inside the final block's payload.
            let outcomes = read(&buf[..buf.len() - 7]);
            assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 128);
            match outcomes.last() {
                Some(Err(IoError::Truncated { expected, got })) => {
                    assert_eq!((*expected, *got), (t.len(), 128));
                }
                other => panic!("workers = {workers}: expected truncation, got {other:?}"),
            }

            // Cut inside a frame header.
            let outcomes = read(&buf[..18 + 20]);
            assert!(matches!(
                outcomes.last(),
                Some(Err(IoError::Truncated { .. }))
            ));

            // A whole missing block (clean frame boundary) is caught by
            // the header's declared count.
            let outcomes = read(&buf[..18 + 44 + payload_len]);
            match outcomes.last() {
                Some(Err(IoError::Truncated { expected, got })) => {
                    assert_eq!((*expected, *got), (t.len(), 64));
                }
                other => panic!("workers = {workers}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_bad_headers() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf, TraceFormat::Binary).unwrap();
        let mut wrong_version = buf.clone();
        wrong_version[8] = 9;
        let mut wrong_kind = buf.clone();
        wrong_kind[9] = 7;
        for workers in WORKERS {
            for bad in [&buf[..10], &wrong_version, &wrong_kind] {
                assert!(matches!(
                    binary(AnyTraceReader::open_parallel(bad, workers)),
                    Err(IoError::BadHeader(_))
                ));
            }
        }
    }

    #[test]
    fn skip_index_bounds_reads_by_time() {
        let (t, buf) = blocky(64, 8); // times 0, 10, ..., 5110
        let bound = Time::from_nanos(3000);
        let expected: Vec<&Event> = t.iter().filter(|e| e.time >= bound).collect();
        for workers in WORKERS {
            let mut r = binary(AnyTraceReader::open_parallel(buf.as_slice(), workers)).unwrap();
            r.set_min_time(bound);
            let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
            // Whole blocks strictly before the bound were skipped...
            assert!(r.skipped_blocks() >= 4, "skipped {}", r.skipped_blocks());
            // ...every event at/after the bound survived...
            assert!(events.len() >= expected.len());
            assert_eq!(
                events.iter().filter(|e| e.time >= bound).count(),
                expected.len()
            );
            // ...and the survivors are a suffix of the trace.
            let suffix = &t.events()[t.len() - events.len()..];
            assert_eq!(events, suffix, "workers = {workers}");
        }
    }

    #[test]
    fn lenient_decode_skips_a_corrupted_block_and_records_the_gap() {
        use crate::gap::GapCause;
        let (t, mut buf) = blocky(64, 3);
        // Corrupt a payload byte of the second block.
        let header = 18;
        let frame = 44;
        let payload_len = |buf: &[u8], at: usize| {
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
        };
        let b2 = header + frame + payload_len(&buf, header);
        buf[b2 + frame + 10] ^= 0xff;

        let expected: Vec<Event> = t
            .events()
            .iter()
            .filter(|e| !(64..128).contains(&(e.seq as usize)))
            .copied()
            .collect();

        for workers in WORKERS {
            let mut r = binary(AnyTraceReader::open_parallel(buf.as_slice(), workers)).unwrap();
            r.set_lenient(true);
            let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
            assert_eq!(events, expected, "workers = {workers}");
            assert_eq!(r.events_lost(), 64);
            let gaps = r.gaps();
            assert_eq!(gaps.len(), 1);
            assert_eq!(gaps[0].block, 2);
            assert_eq!(gaps[0].events, 64);
            assert_eq!(gaps[0].cause, GapCause::CrcMismatch);
            assert_eq!(gaps[0].first_seq, Some(64));
            assert_eq!(gaps[0].last_seq, Some(127));
        }
    }

    #[test]
    fn lenient_decode_accounts_truncated_input_as_gaps() {
        use crate::gap::GapCause;
        let (t, buf) = blocky(64, 3);
        let payload_len = u32::from_le_bytes(buf[18..22].try_into().unwrap()) as usize;
        for workers in WORKERS {
            // Cut inside the final block's payload: the block frame is
            // known, so the gap carries its exact span.
            let cut = &buf[..buf.len() - 7];
            let mut r = binary(AnyTraceReader::open_parallel(cut, workers)).unwrap();
            r.set_lenient(true);
            let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
            assert_eq!(events.len(), 128, "workers = {workers}");
            assert_eq!(r.events_lost() as usize + events.len(), t.len());
            assert_eq!(r.gaps().last().unwrap().cause, GapCause::TruncatedBlock);

            // A whole missing final block surfaces as a truncated-stream
            // gap via the header's declared count.
            let cut = &buf[..18 + 44 + payload_len];
            let mut r = binary(AnyTraceReader::open_parallel(cut, workers)).unwrap();
            r.set_lenient(true);
            let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
            assert_eq!(events.len(), 64, "workers = {workers}");
            assert_eq!(r.events_lost(), 128);
            assert_eq!(r.gaps().last().unwrap().cause, GapCause::TruncatedStream);
        }
    }

    #[test]
    fn lenient_jsonl_skips_malformed_lines_without_fusing() {
        use crate::gap::GapCause;
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf, TraceFormat::Jsonl).unwrap();
        // Wreck the third event line (line 4: the header is line 1).
        let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
        buf[newlines[2] + 1..newlines[3]].fill(b'?');
        let mut r = AnyTraceReader::open(buf.as_slice()).unwrap();
        assert_eq!(r.format(), TraceFormat::Jsonl);
        r.set_lenient(true);
        let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
        assert_eq!(events.len(), t.len() - 1);
        assert_eq!(r.events_lost(), 1);
        assert_eq!(r.gaps().len(), 1);
        assert_eq!(r.gaps()[0].block, 4);
        assert_eq!(r.gaps()[0].cause, GapCause::MalformedLine);
    }

    #[test]
    fn skip_index_never_double_counts_in_lenient_gap_accounting() {
        // A corrupted block that the time-bound skip index discards must
        // not surface as a lenient gap (its payload is never CRC-checked)
        // and its events must land in exactly one accounting bucket:
        // delivered + lost + skipped == expected.
        let (t, buf) = blocky(64, 8); // times 0, 10, ..., 5110
        let header = 18;
        let frame = 44;
        let payload_len = |buf: &[u8], at: usize| {
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
        };
        let block_start = |buf: &[u8], index: usize| {
            let mut at = header;
            for _ in 0..index {
                at += frame + payload_len(buf, at);
            }
            at
        };

        let bound = Time::from_nanos(3000);
        // Case 1: the corruption sits inside block 2 (times 640..1270),
        // entirely before the bound — skipped, so invisible by design.
        let mut before = buf.clone();
        let b2 = block_start(&before, 1);
        before[b2 + frame + 10] ^= 0xff;
        // Case 2: corruption after the bound still records its gap —
        // exactly once — and the conservation law keeps holding.
        let mut after = buf.clone();
        let b6 = block_start(&after, 5); // times 3200..3830, past bound
        after[b6 + frame + 10] ^= 0xff;
        for workers in WORKERS {
            let lenient_from = |wrecked: &[u8]| {
                let wrecked = std::io::Cursor::new(wrecked.to_vec());
                let mut r = binary(AnyTraceReader::open_parallel(wrecked, workers)).unwrap();
                r.set_lenient(true);
                r.set_min_time(bound);
                let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
                assert_eq!(
                    events.len() as u64 + r.events_lost() + r.skipped_events(),
                    t.len() as u64,
                    "delivered + lost + skipped == expected (workers = {workers})"
                );
                r
            };
            let r = lenient_from(&before);
            assert!(r.gaps().is_empty(), "skipped damage must not be a gap");
            assert_eq!(r.events_lost(), 0);
            assert_eq!(r.skipped_blocks(), 4);
            assert_eq!(r.skipped_events(), 256);

            let r = lenient_from(&after);
            assert_eq!(r.gaps().len(), 1);
            assert_eq!(r.gaps()[0].block, 6);
            assert_eq!(r.events_lost(), 64);
            assert_eq!(r.skipped_events(), 256);
        }
    }

    #[test]
    fn skip_events_seeks_to_the_same_suffix_in_every_reader() {
        let (t, bin) = blocky(64, 4);
        let mut jl = Vec::new();
        write_trace(&t, &mut jl, TraceFormat::Jsonl).unwrap();
        // Skips landing on and off block boundaries, plus degenerate ends.
        for skip in [0usize, 1, 63, 64, 65, 128, 200, 255, 256] {
            let expected = &t.events()[skip..];

            for workers in WORKERS {
                let mut r = binary(AnyTraceReader::open_parallel(bin.as_slice(), workers)).unwrap();
                r.set_skip_events(skip as u64);
                let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
                assert_eq!(events, expected, "workers = {workers}, skip {skip}");
            }

            let mut r = AnyTraceReader::open(jl.as_slice()).unwrap();
            r.set_skip_events(skip as u64);
            let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
            assert_eq!(events, expected, "jsonl, skip {skip}");
        }
    }

    #[test]
    fn skip_index_window_bounds_reads_on_both_sides() {
        let (t, buf) = blocky(64, 8); // times 0, 10, ..., 5110
        let since = Time::from_nanos(1500);
        let until = Time::from_nanos(3500);

        for workers in WORKERS {
            let mut r = AnyTraceReader::open_parallel(buf.as_slice(), workers).unwrap();
            r.set_min_time(since);
            r.set_max_time(until);
            let events: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
            // Blocks wholly outside [since, until) were skipped on both
            // sides; blocks 1-2 (ends 630/1270) and 6-8 (starts
            // 3200/3840/4480) — block 6 starts at 3200 < 3500, so 1, 2,
            // 7, 8 go, at minimum.
            assert!(r.skipped_blocks() >= 4, "skipped {}", r.skipped_blocks());
            // Every event inside the window survived.
            let wanted = t
                .iter()
                .filter(|e| e.time >= since && e.time < until)
                .count();
            assert_eq!(
                events
                    .iter()
                    .filter(|e| e.time >= since && e.time < until)
                    .count(),
                wanted,
                "workers = {workers}"
            );
            // Conservation: delivered + skipped == expected (no damage).
            assert_eq!(
                events.len() as u64 + r.skipped_events(),
                t.len() as u64,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn max_time_skip_still_detects_truncation() {
        let (_, buf) = blocky(64, 4);
        let cut = &buf[..buf.len() - 7];
        for workers in WORKERS {
            let mut r = binary(AnyTraceReader::open_parallel(cut, workers)).unwrap();
            // Bound below every event: all whole blocks skip, but the
            // truncated tail must still surface.
            r.set_max_time(Time::ZERO);
            let last = r.by_ref().last();
            assert!(
                matches!(last, Some(Err(IoError::Truncated { .. }))),
                "workers = {workers}: got {last:?}"
            );
        }
    }

    #[test]
    fn repeat_records_round_trip_in_both_formats() {
        use crate::event::EventKind;
        use crate::ids::ProcessorId;
        let events = vec![
            Event::new(
                Time::from_nanos(5),
                ProcessorId(0),
                0,
                EventKind::ProgramBegin,
            ),
            Event::new(
                Time::from_nanos(10),
                ProcessorId(1),
                1,
                EventKind::Repeat {
                    len: 3,
                    count: 1000,
                    dt_ns: 40,
                    dseq: 9,
                    dfield: -2,
                },
            ),
            Event::new(
                Time::from_nanos(900),
                ProcessorId(0),
                2,
                EventKind::ProgramEnd,
            ),
        ];
        let t = Trace::from_events(TraceKind::Measured, events);
        let (mut jl, mut bin) = (Vec::new(), Vec::new());
        write_trace(&t, &mut jl, TraceFormat::Jsonl).unwrap();
        write_trace(&t, &mut bin, TraceFormat::Binary).unwrap();
        assert_eq!(read_trace(jl.as_slice(), 0).unwrap(), t);
        assert_eq!(read_trace(bin.as_slice(), 0).unwrap(), t);
    }

    #[test]
    fn advisory_zero_count_binary_streams_accept_early_end() {
        let t = sample();
        let mut buf = Vec::new();
        let mut w = AnyTraceWriter::new(&mut buf, TraceFormat::Binary, t.kind(), 0).unwrap();
        for e in t.iter().take(3) {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap();
        for workers in WORKERS {
            let r = binary(AnyTraceReader::open_parallel(buf.as_slice(), workers)).unwrap();
            assert_eq!(r.collect::<Result<Vec<_>, _>>().unwrap().len(), 3);
        }
    }

    #[test]
    fn probes_count_binary_bytes_events_and_blocks() {
        let registry = ppa_obs::Registry::new();
        let (t, _) = blocky(64, 4);

        let wp = StreamProbes::register(&registry, "write");
        let mut buf = Vec::new();
        let mut w = AnyTraceWriter::with_block_events(&mut buf, t.kind(), t.len(), 64, wp.clone());
        for e in t.iter() {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(wp.events.get(), t.len() as u64);
        assert_eq!(wp.blocks.get(), 4);
        assert_eq!(wp.bytes.get(), buf.len() as u64);

        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 5] ^= 0xff;
        for workers in WORKERS {
            let rp = StreamProbes::register(&registry, &format!("read-{workers}"));
            let r = binary(AnyTraceReader::open_parallel_with_probes(
                buf.as_slice(),
                workers,
                rp.clone(),
            ))
            .unwrap();
            assert_eq!(r.filter_map(|e| e.ok()).count(), t.len());
            assert_eq!(rp.events.get(), t.len() as u64);
            assert_eq!(rp.blocks.get(), 4);
            assert_eq!(rp.bytes.get(), buf.len() as u64);
            assert_eq!(rp.parse_errors.get(), 0);

            // A corrupted block lands in the shared parse-error metric.
            let ep = StreamProbes::register(&registry, &format!("read-bad-{workers}"));
            let _ = binary(AnyTraceReader::open_parallel_with_probes(
                bad.as_slice(),
                workers,
                ep.clone(),
            ))
            .unwrap()
            .count();
            assert_eq!(ep.parse_errors.get(), 1, "workers = {workers}");
        }
    }
}
