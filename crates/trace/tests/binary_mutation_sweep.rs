//! The binary container against hostile bytes, at every decode worker
//! count.
//!
//! A small three-block trace is mutated at every byte position (XOR
//! 0x01, 0x80 and 0xFF) and truncated at every length. Each mutant is
//! decoded strict, lenient, and lenient behind the skip index, with 0, 1
//! and 3 decode workers. For every mutant: no panic; the same events,
//! error text, gaps, `events_lost` and `skipped_events` at every worker
//! count; a lenient decode that opened the header ends without error;
//! and no single allocation is larger than [`ALLOC_PER_BYTE`] × the
//! input length plus [`ALLOC_ALLOWANCE`]. Two hand-built traces pin
//! frames whose count and payload length overstate what the file holds.

use ppa_trace::{
    crc32, AnyTraceReader, AnyTraceWriter, Event, EventKind, GapCause, IoError, LoopId,
    ProcessorId, StatementId, StreamProbes, SyncTag, SyncVarId, Time, TraceGap, TraceKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Records the largest single allocation or reallocation on any thread:
/// the decode workers allocate too.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System`; the bookkeeping is one
// atomic and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The tests share [`LARGEST`], so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocation allowed per input byte. A block's event buffer is
/// reserved from its frame count, and a count may claim at most one
/// 64-byte event per 4 payload bytes that actually arrived.
const ALLOC_PER_BYTE: usize = 16;

/// Fixed allocation allowance: channel blocks, thread bookkeeping, the
/// reassembly stash.
const ALLOC_ALLOWANCE: usize = 64 << 10;

const WORKERS: [usize; 3] = [0, 1, 3];

const BLOCK_EVENTS: usize = 8;

/// Everything a decode reports, compared across worker counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `false` when the header itself was rejected.
    opened: bool,
    events: Vec<Event>,
    error: Option<String>,
    gaps: Vec<TraceGap>,
    lost: u64,
    skipped: u64,
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Strict,
    Lenient,
    /// Lenient, with the skip index bounding out the first block.
    LenientSkipping,
}

/// Decodes `bytes` fully; returns the outcome and the largest single
/// allocation made meanwhile, worker threads joined.
fn decode(bytes: &[u8], workers: usize, mode: Mode) -> (Outcome, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = match AnyTraceReader::open_parallel(bytes, workers) {
        Err(e) => Outcome {
            opened: false,
            events: Vec::new(),
            error: Some(e.to_string()),
            gaps: Vec::new(),
            lost: 0,
            skipped: 0,
        },
        Ok(mut r) => {
            r.set_lenient(!matches!(mode, Mode::Strict));
            if let Mode::LenientSkipping = mode {
                r.set_min_time(Time::from_nanos(10 * BLOCK_EVENTS as u64));
            }
            let mut events = Vec::new();
            let mut error = None;
            for item in r.by_ref() {
                match item {
                    Ok(e) => events.push(e),
                    Err(e) => error = Some(e.to_string()),
                }
            }
            Outcome {
                opened: true,
                events,
                error,
                gaps: r.gaps().to_vec(),
                lost: r.events_lost(),
                skipped: r.skipped_events(),
            }
        }
    };
    (outcome, LARGEST.load(Ordering::Relaxed))
}

/// Three blocks of [`BLOCK_EVENTS`] events of mixed kinds, so the
/// payloads hold tags, multi-byte varints and signed operands.
fn three_blocks() -> Vec<u8> {
    let events = (0..3 * BLOCK_EVENTS as u64).map(|i| {
        let kind = match i % 4 {
            0 => EventKind::Statement {
                stmt: StatementId(300 + i as u32),
            },
            1 => EventKind::Advance {
                var: SyncVarId(1),
                tag: SyncTag(i as i64 - 5),
            },
            2 => EventKind::AwaitEnd {
                var: SyncVarId(1),
                tag: SyncTag(i as i64 - 6),
            },
            _ => EventKind::IterationBegin {
                loop_id: LoopId(2),
                iter: i << 20,
            },
        };
        Event::new(
            Time::from_nanos(10 * i),
            ProcessorId((i % 3) as u16),
            i,
            kind,
        )
    });
    let mut buf = Vec::new();
    let mut w = AnyTraceWriter::with_block_events(
        &mut buf,
        TraceKind::Measured,
        3 * BLOCK_EVENTS,
        BLOCK_EVENTS,
        StreamProbes::noop(),
    );
    for e in events {
        w.write_event(&e).unwrap();
    }
    w.finish().unwrap();
    buf
}

/// Decodes one mutant in every mode at every worker count and checks
/// the sweep's invariants.
fn check(what: &str, bytes: &[u8]) {
    let bound = ALLOC_PER_BYTE * bytes.len() + ALLOC_ALLOWANCE;
    for mode in [Mode::Strict, Mode::Lenient, Mode::LenientSkipping] {
        let mut first: Option<Outcome> = None;
        for workers in WORKERS {
            let run = catch_unwind(AssertUnwindSafe(|| decode(bytes, workers, mode)));
            let Ok((outcome, largest)) = run else {
                panic!("{what}, {mode:?}, workers = {workers}: the decoder panicked");
            };
            assert!(
                largest <= bound,
                "{what}, {mode:?}, workers = {workers}: a {largest}-byte allocation \
                 from {} input bytes (bound {bound})",
                bytes.len()
            );
            if !matches!(mode, Mode::Strict) && outcome.opened {
                assert_eq!(outcome.error, None, "{what}, {mode:?}, workers = {workers}");
            }
            match &first {
                None => first = Some(outcome),
                Some(inline) => assert_eq!(
                    &outcome, inline,
                    "{what}, {mode:?}: workers = {workers} differs from the inline decode"
                ),
            }
        }
    }
}

#[test]
fn every_mutant_decodes_alike_at_every_worker_count_within_bounded_allocation() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clean = three_blocks();
    check("the clean trace", &clean);
    for at in 0..clean.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            check(&format!("byte {at} ^ {mask:#04x}"), &bytes);
        }
    }
    for len in 0..clean.len() {
        check(&format!("cut at {len}"), &clean[..len]);
    }
}

/// A header announcing `events`, then one frame with `payload_len`,
/// `count` and the CRC of `payload`, then `payload`.
fn one_frame(events: u64, payload_len: u32, count: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"PPATRBIN".to_vec();
    bytes.extend([1, 1]); // version 1, a measured trace
    bytes.extend(events.to_le_bytes());
    bytes.extend(payload_len.to_le_bytes());
    bytes.extend(count.to_le_bytes());
    bytes.extend([0u8; 32]); // first/last seq and time
    bytes.extend(crc32(payload).to_le_bytes());
    bytes.extend(payload);
    bytes
}

/// Decodes `bytes` strict and lenient at 0 and 1 workers, with no
/// allocation over 1 MiB.
fn decode_hostile(bytes: &[u8]) -> Vec<(Outcome, Outcome)> {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    [0, 1]
        .into_iter()
        .map(|workers| {
            let (strict, a) = decode(bytes, workers, Mode::Strict);
            let (lenient, b) = decode(bytes, workers, Mode::Lenient);
            assert!(a.max(b) <= 1 << 20, "workers = {workers}: {a} / {b} bytes");
            (strict, lenient)
        })
        .collect()
}

#[test]
fn a_frame_claiming_more_events_than_its_payload_holds_is_malformed() {
    // One CRC-valid frame claiming 2^24 events in a 4-byte payload.
    let bytes = one_frame(1 << 24, 4, 1 << 24, &[6, 0, 0, 0]);
    assert_eq!(bytes.len(), 66);
    for (strict, lenient) in decode_hostile(&bytes) {
        let error = strict.error.expect("strict decode fails");
        let expected = IoError::Parse {
            line: 1,
            message: "block 1: implausible frame (count 16777216, payload 4 bytes)".into(),
        };
        assert_eq!(error, expected.to_string());
        assert_eq!(lenient.error, None);
        assert_eq!(lenient.gaps.len(), 1);
        assert_eq!(lenient.gaps[0].cause, GapCause::MalformedFrame);
        assert_eq!(lenient.lost, 1 << 24);
    }
}

#[test]
fn a_frame_announcing_a_payload_past_the_end_of_input_allocates_nothing_for_it() {
    // One frame announcing a 64 MiB payload, and no payload byte.
    let bytes = one_frame(1, 64 << 20, 1, &[]);
    assert_eq!(bytes.len(), 62);
    for (strict, lenient) in decode_hostile(&bytes) {
        let expected = IoError::Truncated {
            expected: 1,
            got: 0,
        };
        assert_eq!(strict.error, Some(expected.to_string()));
        assert_eq!(lenient.error, None);
        assert_eq!(lenient.gaps.len(), 1);
        assert_eq!(lenient.gaps[0].cause, GapCause::TruncatedBlock);
        assert_eq!(lenient.lost, 1);
    }
}
