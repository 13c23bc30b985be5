//! The JSONL container against hostile bytes, at every decode worker
//! count.
//!
//! A small trace of mixed kinds is mutated at every byte position (XOR
//! 0x01, 0x80 and 0xFF) and truncated at every length; a handful of
//! hand-built inputs add the framing's edge cases (a CRLF split across a
//! chunk boundary, a line longer than a chunk, blank and whitespace
//! lines, no final newline, a header announcing 0, brackets nested
//! 100 000 deep, a resume skip). Each input is decoded strict and
//! lenient with 0, 1 and 3 decode workers, the chunks cut small (through
//! the crate-private [`AnyTraceReader::open_chunked`]) so that
//! lines straddle chunk boundaries. For every input: no panic; the same
//! events, error text, gaps and `events_lost()` after every step at
//! every worker count, and the same as a reference that reads the lines
//! one by one through `serde_json::from_str`; and no single allocation
//! larger than [`ALLOC_PER_BYTE`] × the input length plus
//! [`ALLOC_ALLOWANCE`].

use crate::{
    AnyTraceReader, AnyTraceWriter, Event, EventKind, GapCause, IoError, LockId, LoopId,
    ProcessorId, SemId, StatementId, StreamProbes, SyncTag, SyncVarId, TaskId, Time, TraceFormat,
    TraceGap, TraceKind,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The largest single allocation on the current thread, so tests running
/// side by side do not see each other. The bound is checked on the
/// consuming thread: with no decode worker that is every allocation the
/// reader makes, and a worker decodes the same chunks with the same
/// code.
mod largest {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct LargestAlloc;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: defers every operation to `System`; the bookkeeping
    // touches only a const-initialized thread-local `Cell` and never
    // allocates.
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    /// What `f` returns, and the largest allocation it made on this
    /// thread.
    pub(super) fn of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|l| l.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }
}

/// Allocation allowed per input byte: a chunk's event buffer holds one
/// 64-byte event per line of at least a few dozen bytes, and grows by
/// doubling.
const ALLOC_PER_BYTE: usize = 16;

/// Fixed allocation allowance: channel blocks, thread bookkeeping, the
/// reassembly stash, serde's error messages.
const ALLOC_ALLOWANCE: usize = 64 << 10;

const WORKERS: [usize; 3] = [0, 1, 3];

/// Chunk size for the sweep: a line of the trace spans several chunks.
const CHUNK_BYTES: usize = 24;

/// Everything a decode reports, compared across worker counts and with
/// the reference.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `None` when the header itself was rejected.
    expected: Option<usize>,
    events: Vec<Event>,
    error: Option<String>,
    gaps: Vec<TraceGap>,
    /// `events_lost()` after every `next()`, the last one included.
    lost: Vec<u64>,
}

/// Decodes `bytes` fully; returns the outcome and the largest single
/// allocation the consuming thread made meanwhile, worker threads
/// joined.
fn decode(
    bytes: &[u8],
    workers: usize,
    chunk: usize,
    lenient: bool,
    skip: u64,
) -> (Outcome, usize) {
    largest::of(|| {
        match AnyTraceReader::open_chunked(bytes, workers, StreamProbes::noop(), chunk) {
            Err(_) => Outcome {
                expected: None,
                events: Vec::new(),
                error: None,
                gaps: Vec::new(),
                lost: Vec::new(),
            },
            Ok(mut r) => {
                r.set_lenient(lenient);
                r.set_skip_events(skip);
                let (mut events, mut error, mut lost) = (Vec::new(), None, Vec::new());
                loop {
                    let item = r.next();
                    lost.push(r.events_lost());
                    match item {
                        None => break,
                        Some(Ok(e)) => events.push(e),
                        Some(Err(e)) => error = Some(e.to_string()),
                    }
                }
                Outcome {
                    expected: Some(r.expected_events()),
                    events,
                    error,
                    gaps: r.gaps().to_vec(),
                    lost,
                }
            }
        }
    })
}

/// What a reader that takes one line at a time and hands every line to
/// `serde_json::from_str` makes of the lines after the header, given the
/// count the header announced.
fn reference(bytes: &[u8], expected: usize, lenient: bool, mut skip: u64) -> Outcome {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.last() == Some(&&b""[..]) {
        lines.pop();
    }
    let mut out = Outcome {
        expected: Some(expected),
        events: Vec::new(),
        error: None,
        gaps: Vec::new(),
        lost: Vec::new(),
    };
    let (mut seen, mut lost) = (0usize, 0u64);
    for (i, raw) in lines.iter().enumerate().skip(1) {
        let line = raw.strip_suffix(b"\r").unwrap_or(raw);
        let text = std::str::from_utf8(line);
        if text.is_ok_and(|t| t.trim().is_empty()) {
            continue;
        }
        if skip > 0 {
            skip -= 1;
            seen += 1;
            continue;
        }
        let parsed = text
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<Event>(t).map_err(|e| e.to_string()));
        match parsed {
            Ok(event) => {
                out.events.push(event);
                out.lost.push(lost);
                seen += 1;
            }
            Err(_) if lenient => {
                lost += 1;
                out.gaps.push(gap(i + 1, 1, GapCause::MalformedLine));
            }
            Err(message) => {
                let line = i + 1;
                out.error = Some(IoError::Parse { line, message }.to_string());
                out.lost.extend([lost, lost]);
                return out;
            }
        }
    }
    let accounted = seen as u64 + lost;
    if expected != 0 && accounted < expected as u64 {
        if lenient {
            lost += expected as u64 - accounted;
            let missing = expected as u64 - accounted;
            out.gaps
                .push(gap(lines.len() + 1, missing, GapCause::TruncatedStream));
        } else {
            let error = IoError::Truncated {
                expected,
                got: seen,
            };
            out.error = Some(error.to_string());
            out.lost.push(lost);
        }
    }
    out.lost.push(lost);
    out
}

fn gap(block: usize, events: u64, cause: GapCause) -> TraceGap {
    TraceGap {
        block,
        events,
        first_seq: None,
        last_seq: None,
        first_time: None,
        last_time: None,
        cause,
    }
}

/// Decodes one input strict and lenient at every worker count and
/// checks the sweep's invariants.
fn check(what: &str, bytes: &[u8], chunk: usize, skip: u64) {
    let bound = ALLOC_PER_BYTE * bytes.len() + ALLOC_ALLOWANCE;
    for lenient in [false, true] {
        let mut first: Option<Outcome> = None;
        for workers in WORKERS {
            let run = catch_unwind(AssertUnwindSafe(|| {
                decode(bytes, workers, chunk, lenient, skip)
            }));
            let Ok((outcome, largest)) = run else {
                panic!("{what}, lenient {lenient}, workers = {workers}: the decoder panicked");
            };
            assert!(
                largest <= bound,
                "{what}, lenient {lenient}, workers = {workers}: a {largest}-byte allocation \
                 from {} input bytes (bound {bound})",
                bytes.len()
            );
            match &first {
                None => first = Some(outcome),
                Some(inline) => assert_eq!(
                    &outcome, inline,
                    "{what}, lenient {lenient}: workers = {workers} differs from the inline decode"
                ),
            }
        }
        let outcome = first.expect("three worker counts");
        if let Some(expected) = outcome.expected {
            assert_eq!(
                outcome,
                reference(bytes, expected, lenient, skip),
                "{what}, lenient {lenient}: the reader differs from the serde reference"
            );
        }
    }
}

/// Twelve events of mixed kinds, negative and multi-digit fields among
/// them, as `AnyTraceWriter` prints them.
fn mixed() -> Vec<u8> {
    let kinds = [
        EventKind::ProgramBegin,
        EventKind::LoopBegin { loop_id: LoopId(3) },
        EventKind::IterationBegin {
            loop_id: LoopId(3),
            iter: 1 << 40,
        },
        EventKind::Statement {
            stmt: StatementId(70_000),
        },
        EventKind::AwaitBegin {
            var: SyncVarId(1),
            tag: SyncTag(-1),
        },
        EventKind::AwaitEnd {
            var: SyncVarId(1),
            tag: SyncTag(-1),
        },
        EventKind::Advance {
            var: SyncVarId(1),
            tag: SyncTag(12),
        },
        EventKind::LockAcquire { lock: LockId(2) },
        EventKind::SemRelease { sem: SemId(9) },
        EventKind::TaskFork { task: TaskId(5) },
        EventKind::Repeat {
            len: 2,
            count: 40,
            dt_ns: 250,
            dseq: 2,
            dfield: -3,
        },
        EventKind::ProgramEnd,
    ];
    let mut w = AnyTraceWriter::new(
        Vec::new(),
        TraceFormat::Jsonl,
        TraceKind::Measured,
        kinds.len(),
    )
    .unwrap();
    for (i, kind) in kinds.into_iter().enumerate() {
        let i = i as u64;
        let time = Time::from_nanos(1_000_000_007 * i);
        w.write_event(&Event::new(time, ProcessorId((i % 3) as u16), i, kind))
            .unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn every_mutant_decodes_alike_at_every_worker_count_and_as_serde_reads_it() {
    let clean = mixed();
    check("the clean trace", &clean, CHUNK_BYTES, 0);
    for at in 0..clean.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            check(&format!("byte {at} ^ {mask:#04x}"), &bytes, CHUNK_BYTES, 0);
        }
    }
    for len in 0..clean.len() {
        check(&format!("cut at {len}"), &clean[..len], CHUNK_BYTES, 0);
    }
}

#[test]
fn framing_edge_cases_decode_alike_at_every_chunk_size() {
    let clean = mixed();
    let text = String::from_utf8(clean.clone()).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let crlf = text.replace('\n', "\r\n");
    let blanks = format!(
        "{header}\n\n   \n{}\t\r\n\u{3000}\n\r\n",
        body.replacen('\n', "\n \n", 4)
    );
    let no_final_newline = text.trim_end_matches('\n').to_string();
    let zero = text.replacen("\"events\":12", "\"events\":0", 1);
    assert_ne!(zero, text, "the header announces its count");
    // A canonical line, and the same event spread over a kilobyte of
    // whitespace that only serde reads.
    let first = body.lines().nth(1).unwrap();
    let padded = format!("{}:{}", " ".repeat(50), " ".repeat(50));
    let long = format!("{header}\n{first}\n{}\n", first.replace(':', &padded));
    let long = long.replacen("\"events\":12", "\"events\":2", 1);
    let inputs = [
        ("CRLF", crlf),
        ("blank lines", blanks),
        ("no final newline", no_final_newline),
        ("a header announcing 0", zero.clone()),
        ("a line longer than a chunk", long),
        (
            "the last line cut short",
            text[..text.len() - 5].to_string(),
        ),
        // Brackets nested far deeper than any event: a parse error on the
        // worker that reads them, not a stack overflow.
        (
            "a line nested 100 000 deep",
            format!("{header}\n{}\n", "[".repeat(100_000)),
        ),
    ];
    for (what, input) in &inputs {
        for chunk in [1, 2, 7, 24, 61, 62, 63, 64, 65, 200, 32 << 10] {
            check(
                &format!("{what}, chunk {chunk}"),
                input.as_bytes(),
                chunk,
                0,
            );
        }
    }
    // A resume skip lands on every line, leaving blank and damaged lines
    // behind it unparsed.
    let mut damaged = blanks_with_damage(&text);
    damaged.push('\n');
    for skip in 0..=14 {
        for chunk in [7, 64, 32 << 10] {
            for input in [&text, &inputs[0].1, &inputs[1].1, &zero, &damaged] {
                check(
                    &format!("skip {skip}, chunk {chunk}"),
                    input.as_bytes(),
                    chunk,
                    skip,
                );
            }
        }
    }
}

/// `text` with its third and seventh event lines wrecked and a blank
/// line after the fifth.
fn blanks_with_damage(text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[3] = "{\"time\":?}".to_string();
    lines[7].insert(0, 'x');
    lines.insert(6, "  ".to_string());
    lines.join("\n")
}

#[test]
fn a_header_announcing_zero_reads_every_event_and_no_truncation() {
    let text = String::from_utf8(mixed()).unwrap();
    let zero = text.replacen("\"events\":12", "\"events\":0", 1);
    // The header and nine of the twelve events.
    let cut: String = zero.lines().take(10).map(|l| format!("{l}\n")).collect();
    for workers in WORKERS {
        let (whole, _) = decode(zero.as_bytes(), workers, CHUNK_BYTES, false, 0);
        assert_eq!((whole.expected, whole.events.len()), (Some(0), 12));
        assert_eq!(whole.error, None);
        let (short, _) = decode(cut.as_bytes(), workers, CHUNK_BYTES, true, 0);
        assert_eq!((short.events.len(), short.error), (9, None));
        assert!(
            short.gaps.is_empty(),
            "workers = {workers}: {:?}",
            short.gaps
        );
    }
}

#[test]
fn a_line_longer_than_max_line_len_is_damage_read_in_bounded_memory() {
    use crate::stream::CHUNK_BYTES;
    use crate::MAX_LINE_LEN;
    let text = String::from_utf8(mixed()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The third event line (line 4) becomes three times the longest line
    // a reader takes: it is a gap, and the nine events after it follow.
    let long = "x".repeat(3 * MAX_LINE_LEN);
    let mut wrecked = lines.clone();
    wrecked[3] = &long;
    let wrecked = wrecked.join("\n") + "\n";
    // The same line with no newline after it, at the end of input.
    let endless = lines[..3].join("\n") + "\n" + &long;
    // The longest line taken whole, and the shortest one refused.
    let widest = lines[3].to_string() + &" ".repeat(MAX_LINE_LEN - lines[3].len());
    let too_wide = format!("{widest} ");
    let bound = 2 * (MAX_LINE_LEN + CHUNK_BYTES) + ALLOC_ALLOWANCE;
    let message = format!("line longer than {MAX_LINE_LEN} bytes");
    let too_long = IoError::Parse { line: 4, message }.to_string();
    let overlong_gap = gap(4, 1, GapCause::MalformedLine);
    for workers in WORKERS {
        let run = |bytes: &str, lenient: bool| {
            let (outcome, largest) = decode(bytes.as_bytes(), workers, CHUNK_BYTES, lenient, 0);
            assert!(
                largest <= bound,
                "workers = {workers}, lenient {lenient}: a {largest}-byte allocation (bound {bound})"
            );
            outcome
        };
        let strict = run(&wrecked, false);
        assert_eq!(strict.events.len(), 2, "workers = {workers}");
        assert_eq!(
            strict.error.as_ref(),
            Some(&too_long),
            "workers = {workers}"
        );
        let lenient = run(&wrecked, true);
        assert_eq!(lenient.events.len(), 11, "workers = {workers}");
        assert_eq!(lenient.error, None, "workers = {workers}");
        assert_eq!(
            lenient.gaps,
            std::slice::from_ref(&overlong_gap),
            "workers = {workers}"
        );
        assert_eq!(lenient.lost.last(), Some(&1), "workers = {workers}");
        assert_eq!(
            lenient,
            reference(wrecked.as_bytes(), 12, true, 0),
            "workers = {workers}: serde's reader loses the same line"
        );

        // A resume seek passes over the line as the position it is.
        for lenient in [false, true] {
            let (resumed, _) = decode(wrecked.as_bytes(), workers, CHUNK_BYTES, lenient, 3);
            let expected = reference(wrecked.as_bytes(), 12, lenient, 3);
            assert_eq!(resumed, expected, "workers = {workers}, lenient {lenient}");
        }

        let strict = run(&endless, false);
        assert_eq!(strict.events.len(), 2, "workers = {workers}");
        assert_eq!(
            strict.error.as_ref(),
            Some(&too_long),
            "workers = {workers}"
        );
        let lenient = run(&endless, true);
        assert_eq!(lenient.events.len(), 2, "workers = {workers}");
        let rest = gap(5, 9, GapCause::TruncatedStream);
        assert_eq!(
            lenient.gaps,
            [overlong_gap.clone(), rest],
            "workers = {workers}"
        );

        for (line, error) in [(&widest, None), (&too_wide, Some(&too_long))] {
            let mut input = lines.clone();
            input[3] = line;
            let outcome = run(&(input.join("\n") + "\n"), false);
            assert_eq!(outcome.error.as_ref(), error, "workers = {workers}");
        }
    }
    // A header line longer than the limit is no header.
    let header = lines[0].to_string() + &" ".repeat(MAX_LINE_LEN + 1 - lines[0].len()) + "\n";
    let (outcome, _) = decode(header.as_bytes(), 0, CHUNK_BYTES, true, 0);
    assert_eq!(outcome.expected, None);
}
