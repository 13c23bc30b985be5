//! `slice_stream` with suppression hands what the suppressor releases
//! straight to its sink: at the end of the stream the whole FIFO drains
//! through the sink, and no allocation apart from the FIFO's own scales
//! with [`FIFO_BOUND`].
//!
//! The allocator counts every allocation or reallocation, on any
//! thread, of at least [`FIFO_BOUND`] × 8 bytes: what a buffer of the
//! bound's events (or of its slots) would need.

use ppa_slice::{slice_stream, SliceOptions, SliceProbes, SliceSpec, FIFO_BOUND};
use ppa_trace::{
    AnyTraceReader, AnyTraceWriter, Event, EventKind, ProcessorId, StatementId, Time, TraceFormat,
    TraceKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations of at least [`BIG`] bytes.
struct BigAllocs;

static COUNT: AtomicUsize = AtomicUsize::new(0);

const BIG: usize = FIFO_BOUND * 8;

// SAFETY: defers every operation to `System`; the bookkeeping is one
// atomic and never allocates.
unsafe impl GlobalAlloc for BigAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= BIG {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: BigAllocs = BigAllocs;

/// Processor 0 repeats one statement, so a record stays open at the
/// FIFO's front; processors 1-7 record statements that never repeat,
/// so the FIFO fills behind it with kept events, to its bound, and the
/// end of the stream releases all of them at once.
#[test]
fn the_suppressed_tail_streams_into_the_sink() {
    let events: Vec<Event> = (0..200_000u64)
        .map(|i| {
            let proc = (i % 8) as u16;
            let stmt = if proc == 0 {
                7
            } else {
                (i.wrapping_mul(2_654_435_761) % 1_000_003) as u32
            };
            let kind = EventKind::Statement {
                stmt: StatementId(stmt),
            };
            Event::new(Time::from_nanos(i * 100), ProcessorId(proc), i, kind)
        })
        .collect();
    let mut w = AnyTraceWriter::new(
        Vec::new(),
        TraceFormat::Binary,
        TraceKind::Measured,
        events.len(),
    )
    .unwrap();
    events.iter().for_each(|e| w.write_event(e).unwrap());
    let input = w.finish().unwrap();
    let mut reader = AnyTraceReader::open(&input[..]).unwrap();
    let options = SliceOptions {
        spec: SliceSpec::default(),
        suppress: true,
        use_skip_index: false,
    };

    COUNT.store(0, Ordering::Relaxed);
    let mut written = 0u64;
    let stats = slice_stream(&mut reader, &options, &SliceProbes::noop(), |_| {
        written += 1;
        Ok(())
    })
    .unwrap();
    let big = COUNT.load(Ordering::Relaxed);

    assert!(stats.records > 0 && stats.conservation_holds(), "{stats:?}");
    assert_eq!(written, stats.emitted);
    assert!(
        written > 7 * events.len() as u64 / 8,
        "the other processors' events are kept"
    );
    assert_eq!(
        big, 1,
        "allocations of {BIG} bytes or more: only the FIFO's"
    );
}
