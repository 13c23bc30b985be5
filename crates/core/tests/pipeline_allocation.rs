//! The pipeline hands its end-of-stream backlog and a repeat record's
//! occurrences to their consumer as they are produced: peak memory is
//! the live state, never a copy of a backlog or of an expansion.
//!
//! Each test records the largest single allocation on any thread while
//! the pipeline runs and bounds it well below what a materialised
//! backlog or expansion of the same input would need.

use ppa_core::{Pipeline, PipelineConfig, Summary};
use ppa_sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
use ppa_trace::{
    AnyTraceReader, BinaryTraceWriter, Event, EventKind, OverheadSpec, ProcessorId, StatementId,
    Time, TraceFormat, TraceKind, TraceStreamWriter,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Records the largest single allocation or reallocation on any thread:
/// the report thread allocates too.
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

const MIB: usize = 1 << 20;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `input` through a pipeline to the end; returns the summary and
/// the largest allocation made after the last input event was consumed.
fn run_to_end(input: Vec<u8>, report: Option<(&Path, TraceFormat)>) -> (Summary, usize) {
    let reader = AnyTraceReader::open(Cursor::new(input)).unwrap();
    let config = PipelineConfig::new(OverheadSpec::alliant_default());
    let mut pipeline = Pipeline::new(reader, config, report, None).unwrap();
    while pipeline.step().unwrap().is_some() {}
    LARGEST.store(0, Ordering::Relaxed);
    let summary = pipeline.finish().unwrap();
    (summary, LARGEST.load(Ordering::Relaxed))
}

/// The semaphore scenario holds a backlog behind its emission watermark
/// that grows with the trace (EXPERIMENTS.md): at the end of the stream
/// it goes straight from the emission lanes into the report.
#[test]
fn the_semaphore_backlog_streams_into_the_report() {
    let _serial = serial();
    let cfg = ScenarioConfig {
        processors: 8,
        rounds: 6_000,
        objects: 4,
        ..ScenarioConfig::small(ScenarioFamily::Semaphore)
    };
    let events = scenario_trace(1991, &cfg).events().to_vec();
    let mut w = BinaryTraceWriter::new(Vec::new(), TraceKind::Measured, events.len()).unwrap();
    events.iter().for_each(|e| w.write_event(e).unwrap());
    let input = w.finish().unwrap();
    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join("semaphore-backlog.bin");

    let (summary, largest) = run_to_end(input, Some((&report, TraceFormat::Binary)));
    assert_eq!(summary.sink.events, events.len() as u64);
    let backlog = summary.stats.peak_buffered * std::mem::size_of::<Event>();
    assert!(
        backlog > 2 * MIB,
        "the fixture must hold a backlog worth streaming ({backlog} bytes)"
    );
    assert!(
        largest <= MIB,
        "a {largest}-byte allocation after the last input event"
    );
    std::fs::remove_file(report).unwrap();
}

/// A statement and one record standing for `count` more of it, 10 µs
/// apart: more than the statement's recording overhead, so each
/// occurrence's approximated time moves on and the watermark releases it.
fn one_record(count: u32) -> Vec<u8> {
    let at = |t: u64, seq: u64, kind| Event::new(Time::from_nanos(t), ProcessorId(0), seq, kind);
    let events = [
        at(
            0,
            0,
            EventKind::Statement {
                stmt: StatementId(7),
            },
        ),
        at(
            10_000,
            1,
            EventKind::Repeat {
                len: 1,
                count,
                dt_ns: 10_000,
                dseq: 1,
                dfield: 0,
            },
        ),
    ];
    let mut w = TraceStreamWriter::new(Vec::new(), TraceKind::Measured, events.len()).unwrap();
    events.iter().for_each(|e| w.write_event(e).unwrap());
    w.finish().unwrap()
}

#[test]
fn a_million_occurrence_record_streams_through_the_analyzer() {
    let _serial = serial();
    let input = one_record(1_000_000);
    LARGEST.store(0, Ordering::Relaxed);
    let reader = AnyTraceReader::open(Cursor::new(input)).unwrap();
    let config = PipelineConfig::new(OverheadSpec::alliant_default());
    let mut pipeline = Pipeline::new(reader, config, None, None).unwrap();
    while pipeline.step().unwrap().is_some() {}
    let summary = pipeline.finish().unwrap();
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(summary.repeat_records, 1);
    assert_eq!(summary.repeat_expanded, 1_000_000);
    assert_eq!(summary.sink.events, 1_000_001);
    assert!(largest <= MIB, "a {largest}-byte allocation");
}
