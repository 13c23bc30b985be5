//! The streaming analyzer's order-aware state (emission lanes, dense
//! advance table) against hostile input, through the public API only:
//! same verdicts as the batch reference on tags and ids that defeat the
//! fast structures, allocation linear in the events whatever they are,
//! no cost for sparse processor ids, and the spill paths provably taken.
//!
//! The structures' own model-based property tests live beside them
//! (`emit_lanes.rs`, `advance_table.rs`).

use ppa_core::{event_based, event_based_reference, EventBasedAnalyzer, SpillCounts, StreamTail};
use ppa_trace::{
    Event, EventKind, OverheadSpec, ProcessorId, Span, StatementId, SyncTag, SyncVarId, Time,
    Trace, TraceBuilder, TraceKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Counts the bytes the *current thread* holds, so concurrently running
/// tests do not see each other.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn account(grow: usize, shrink: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: defers every operation to `System`; the bookkeeping touches
// only const-initialized thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak bytes `f` held on this thread beyond what was live when it began.
fn peak_bytes_of(f: impl FnOnce()) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    f();
    PEAK.with(Cell::get) - before
}

fn ns(t: u64) -> Time {
    Time::from_nanos(t)
}

fn oh() -> OverheadSpec {
    OverheadSpec::alliant_default()
}

/// A two-processor trace over `keys`: processor 0 advances each key in
/// the order given, processor 1 awaits each — after its advance, or
/// (`await_first`) before it, which lenient pairing allows.
fn advance_await_trace(keys: &[(u32, i64)], await_first: bool) -> Trace {
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut emit = |time: u64, proc: u16, kind: EventKind| {
        events.push(Event::new(ns(time), ProcessorId(proc), seq, kind));
        seq += 1;
    };
    for (i, &(var, tag)) in keys.iter().enumerate() {
        let (var, tag) = (SyncVarId(var), SyncTag(tag));
        let t = 10_000 * (i as u64 + 1);
        let (adv_at, await_at) = if await_first {
            (t + 5_000, t)
        } else {
            (t, t + 5_000)
        };
        emit(adv_at, 0, EventKind::Advance { var, tag });
        emit(await_at, 1, EventKind::AwaitBegin { var, tag });
        emit(await_at + 2_000, 1, EventKind::AwaitEnd { var, tag });
    }
    Trace::from_events(TraceKind::Measured, events)
}

/// Drives the streaming analyzer over `events` the way a pipeline does
/// (push, drain, finish); returns the outputs drained before the tail,
/// and the tail.
fn drive(events: &[Event], oh: &OverheadSpec) -> (usize, StreamTail) {
    let mut a = EventBasedAnalyzer::new(oh);
    let mut drained = 0;
    for e in events {
        a.push(*e).unwrap();
        while a.next_output().is_some() {
            drained += 1;
        }
    }
    (drained, a.finish().unwrap())
}

fn spills_of(trace: &Trace, oh: &OverheadSpec) -> SpillCounts {
    drive(trace.events(), oh).1.spills
}

const HOSTILE_TAGS: [i64; 4] = [0, 1 << 40, 3, i64::MAX];

#[test]
fn hostile_tags_get_the_reference_verdict() {
    let hostile: Vec<(u32, i64)> = HOSTILE_TAGS.iter().map(|&t| (0, t)).collect();
    let descending: Vec<(u32, i64)> = (0..200).rev().map(|t| (2, t)).collect();
    let mixed: Vec<(u32, i64)> = hostile
        .iter()
        .chain(&descending)
        .copied()
        .chain([(u32::MAX, 0), (u32::MAX, i64::MAX), (u32::MAX, 1)])
        .collect();
    for keys in [&hostile, &descending, &mixed] {
        for await_first in [false, true] {
            let t = advance_await_trace(keys, await_first);
            let streamed = event_based(&t, &oh());
            assert!(streamed.is_ok(), "{streamed:?}");
            assert_eq!(streamed, event_based_reference(&t, &oh()));
        }
        // The tags that cannot live in a vector went to the hash spill —
        // these traces do exercise it.
        let spills = spills_of(&advance_await_trace(keys, false), &oh());
        assert!(spills.advance >= 2, "{spills:?}");
    }
}

#[test]
fn duplicate_and_missing_advances_get_the_reference_verdict() {
    // A duplicate of every hostile tag, dense and spilled alike.
    for (i, &dup) in HOSTILE_TAGS.iter().enumerate() {
        let mut keys: Vec<(u32, i64)> = HOSTILE_TAGS.iter().map(|&t| (0, t)).collect();
        keys.push((0, dup));
        let t = advance_await_trace(&keys, i % 2 == 0);
        let streamed = event_based(&t, &oh());
        assert!(
            matches!(&streamed, Err(e) if e.to_string().contains("advance")),
            "{streamed:?}"
        );
        assert_eq!(streamed, event_based_reference(&t, &oh()));
    }
    // An await whose advance never comes, next to advances that do.
    for &missing in &HOSTILE_TAGS {
        let keys: Vec<(u32, i64)> = HOSTILE_TAGS.iter().map(|&t| (0, t)).collect();
        let mut events = advance_await_trace(&keys, false).events().to_vec();
        events.retain(
            |e| !matches!(e.kind, EventKind::Advance { tag, .. } if tag == SyncTag(missing)),
        );
        let t = Trace::from_events(TraceKind::Measured, events);
        let streamed = event_based(&t, &oh());
        assert!(streamed.is_err(), "tag {missing}: {streamed:?}");
        assert_eq!(streamed, event_based_reference(&t, &oh()));
    }
}

#[test]
fn ten_thousand_variables_with_one_tag_each_match_the_reference() {
    let mut keys: Vec<(u32, i64)> = (0..10_000u32).map(|v| (v * 7, i64::from(v % 5))).collect();
    keys.push((u32::MAX, 0));
    let t = advance_await_trace(&keys, false);
    let streamed = event_based(&t, &oh());
    assert!(streamed.is_ok());
    assert_eq!(streamed, event_based_reference(&t, &oh()));
    assert_eq!(spills_of(&t, &oh()), SpillCounts::default());
}

/// Whatever the tags, variables and processor ids, the analyzer's peak
/// allocation is a constant times the events it was fed — no tag sizes a
/// vector, no id sizes a table beyond its own slot array.
#[test]
fn allocation_is_bounded_by_a_constant_times_events() {
    let n = 4_000i64;
    let cases: Vec<(&str, Vec<(u32, i64)>)> = vec![
        ("consecutive", (0..n).map(|t| (0, t)).collect()),
        ("scattered", (0..n).map(|t| (0, t << 40)).collect()),
        ("descending", (0..n).rev().map(|t| (0, t)).collect()),
        ("extremes", (0..n).map(|t| (0, i64::MAX - t * 3)).collect()),
        (
            "variables",
            (0..n).map(|v| (v as u32 * 1_000_003, v)).collect(),
        ),
        ("max variable", (0..n).map(|t| (u32::MAX, t * 2)).collect()),
    ];
    for (name, keys) in cases {
        for await_first in [false, true] {
            let events = advance_await_trace(&keys, await_first).events().to_vec();
            let peak = peak_bytes_of(|| {
                let (_, tail) = drive(&events, &oh());
                assert_eq!(tail.stats.events, events.len());
            });
            let per_event = peak / events.len();
            assert!(
                per_event <= 192,
                "{name} (await first: {await_first}): {peak} bytes peak for {} events",
                events.len()
            );
        }
    }
    // The same through processor ids: two processors at the far ends of
    // the id space cost two lanes, not 65 536 of anything per event.
    let events: Vec<Event> = (0..20_000u64)
        .map(|i| {
            let stmt = StatementId(0);
            let proc = ProcessorId(if i % 2 == 0 { 0 } else { u16::MAX });
            Event::new(ns(100 * i), proc, i, EventKind::Statement { stmt })
        })
        .collect();
    let peak = peak_bytes_of(|| drop(drive(&events, &oh())));
    assert!(peak <= 16 << 20, "{peak} bytes for two processors");
}

/// Emission selects among *non-empty* lanes and the watermark visits the
/// processors the trace uses: a trace on processors 0 and 4095 runs as
/// fast as the same trace on 0 and 1.
#[test]
fn sparse_processor_ids_cost_no_more_than_dense_ones() {
    let trace_on = |far: u16| -> Vec<Event> {
        (0..200_000u64)
            .map(|i| {
                let stmt = StatementId((i % 3) as u32);
                let proc = ProcessorId(if i % 2 == 0 { 0 } else { far });
                Event::new(ns(1_000 + 50 * i), proc, i, EventKind::Statement { stmt })
            })
            .collect()
    };
    let time = |events: &[Event]| -> Duration {
        let began = Instant::now();
        let (drained, tail) = drive(events, &oh());
        assert_eq!(drained + tail.outputs.len(), events.len());
        began.elapsed()
    };
    let (dense, sparse) = (trace_on(1), trace_on(4095));
    // Alternate, and keep each side's fastest run: the host is shared.
    let (mut best_dense, mut best_sparse) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        best_dense = best_dense.min(time(&dense));
        best_sparse = best_sparse.min(time(&sparse));
    }
    assert!(
        best_sparse < best_dense * 2,
        "processors 0/4095: {best_sparse:?}, processors 0/1: {best_dense:?}"
    );
}

/// The three shapes under which a processor's approximated times do
/// *not* arrive sorted. Each must take the emission spill path — and
/// come out exactly as the batch reference orders it.
#[test]
fn fork_bases_and_clamps_take_the_spill_path_and_match_the_reference() {
    let spec = OverheadSpec {
        statement_event: Span::from_nanos(10),
        marker_event: Span::from_nanos(25),
        advance_instr: Span::from_nanos(10),
        await_end_instr: Span::from_nanos(10),
        ..OverheadSpec::ZERO
    };
    // A fork from a loop-begin anchor behind the processor's frontier:
    // processor 1 stands at ta 100 when the marker resolves to 95.
    let anchor_fork = TraceBuilder::measured()
        .on(0)
        .at(100)
        .stmt(0)
        .on(1)
        .at(110)
        .stmt(1)
        .at(120)
        .stmt(2)
        .on(0)
        .at(130)
        .loop_begin(0)
        .on(1)
        .at(131)
        .stmt(3)
        .at(140)
        .stmt(4)
        .build();
    // A task begin chained from an earlier spawn: the parent's clock lags
    // (every event sheds 9 of its 10 ns), the child processor's does not.
    let mut spawn = TraceBuilder::measured().on(0);
    for i in 1..=10 {
        spawn = spawn.at(10 * i).stmt(0);
    }
    let spawn_chain = spawn
        .at(110)
        .task_fork(7)
        .on(1)
        .at(105)
        .stmt(1)
        .at(120)
        .task_fork(7)
        .at(125)
        .stmt(2)
        .at(130)
        .task_join(7)
        .on(0)
        .at(140)
        .task_join(7)
        .build();
    // A clamp: 1 ns after its predecessor under a 10 ns overhead, so the
    // same ta — with the smaller seq (emitted first, timed later).
    let clamp = TraceBuilder::measured()
        .on(0)
        .at(101)
        .stmt(1)
        .at(100)
        .stmt(0)
        .at(150)
        .stmt(2)
        .build();
    for (name, t) in [
        ("loop-begin anchor", anchor_fork),
        ("task spawn", spawn_chain),
        ("clamp", clamp),
    ] {
        let streamed = event_based(&t, &spec);
        assert!(streamed.is_ok(), "{name}: {streamed:?}");
        assert_eq!(streamed, event_based_reference(&t, &spec), "{name}");
        assert!(spills_of(&t, &spec).emit >= 1, "{name} never left its lane");
    }
}
