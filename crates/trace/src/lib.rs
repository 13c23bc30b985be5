//! # ppa-trace — event and trace model for perturbation analysis
//!
//! Foundation crate of the *Event-Based Performance Perturbation* (Malony,
//! PPoPP '91) reproduction. It defines the vocabulary every other crate
//! speaks:
//!
//! - [`Time`]/[`Span`] — nanosecond timestamps and durations, with
//!   [`ClockRate`] to map simulator cycles to wall time;
//! - [`Event`]/[`EventKind`] — statement executions, advance/await
//!   synchronization events (`advance`, `awaitB`, `awaitE`), barrier
//!   enter/exit, and structural markers;
//! - [`Trace`] — a totally ordered event sequence with
//!   [`TraceKind`] provenance (*actual*, *measured*, or *approximated*);
//! - [`OverheadSpec`] — the measured instrumentation and synchronization
//!   costs that perturbation analysis takes as input;
//! - [`SyncTracker`] — the one streaming rulebook for advance/await,
//!   barrier, lock, semaphore and fork/join pairing, and
//!   [`pair_sync_events`], the whole-trace pairing built on it: the
//!   precondition for event-based analysis;
//! - JSONL/CSV trace I/O and a fluent [`TraceBuilder`] for tests.
//!
//! The central idea of the paper, restated in this crate's types: an
//! instrumented run yields a [`TraceKind::Measured`] trace whose times (and
//! possibly event order) are perturbed; perturbation analysis maps it to a
//! [`TraceKind::Approximated`] trace that should resemble the
//! [`TraceKind::Actual`] one.

#![warn(missing_docs)]

mod buffer;
mod builder;
pub mod codec;
mod event;
mod gap;
mod ids;
mod io;
#[cfg(test)]
mod jsonl_mutation_sweep;
mod kind;
mod overhead;
mod reorder;
pub mod selftrace;
mod stream;
mod time;
mod trace;
mod validate;

pub use buffer::{apply_buffers, BoundedBuffer, OverflowPolicy};
pub use builder::TraceBuilder;
pub use codec::{
    crc32, crc32_chain, default_decode_workers, read_trace, write_trace, AnyTraceReader,
    AnyTraceWriter, BlockSummary, TraceFormat, BINARY_FORMAT_NAME, BINARY_MAGIC,
    DEFAULT_BLOCK_EVENTS,
};
pub use event::{Event, EventKind, REPEAT_MAX_PATTERN};
pub use gap::{GapCause, TraceGap};
pub use ids::{
    BarrierId, LockId, LoopId, ProcessorId, SemId, StatementId, SyncTag, SyncVarId, TaskId,
};
pub use io::{write_csv, IoError};
pub use kind::{KindCode, KindGroup};
pub use overhead::{OverheadClass, OverheadSpec};
pub use reorder::{ReorderBuffer, ReorderSnapshot};
pub use selftrace::{
    spans_to_events, write_chrome_trace, write_self_trace, SelfTraceSummary, DEPTH_LANES,
};
pub use stream::{StreamProbes, MAX_LINE_LEN};
pub use time::{ClockRate, Span, Time};
pub use trace::{merge_streams, Trace, TraceKind};
pub use validate::{
    pair_sync_events, pair_sync_events_strict, AwaitPair, BarrierEpisode, EpisodeFamily,
    EpisodePair, EpisodeTracker, Pairing, SyncIndex, SyncTracker, TraceError,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The decode worker counts every binary reader property runs at.
    const WORKERS: [usize; 3] = [0, 1, 3];

    fn arb_kind() -> impl Strategy<Value = EventKind> {
        prop_oneof![
            (0u32..8).prop_map(|s| EventKind::Statement {
                stmt: StatementId(s)
            }),
            Just(EventKind::ProgramBegin),
            (0u32..4, 0u64..16).prop_map(|(l, i)| EventKind::IterationBegin {
                loop_id: LoopId(l),
                iter: i
            }),
        ]
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        (0u64..10_000, 0u16..8, 0u64..1_000, arb_kind())
            .prop_map(|(t, p, s, k)| Event::new(Time::from_nanos(t), ProcessorId(p), s, k))
    }

    proptest! {
        /// `Trace::from_events` always yields a total order and never loses
        /// or duplicates events.
        #[test]
        fn from_events_is_an_ordered_permutation(events in proptest::collection::vec(arb_event(), 0..200)) {
            let trace = Trace::from_events(TraceKind::Measured, events.clone());
            prop_assert!(trace.is_totally_ordered());
            prop_assert_eq!(trace.len(), events.len());

            let mut expected = events;
            expected.sort_by_key(Event::order_key);
            prop_assert_eq!(trace.events(), expected.as_slice());
        }

        /// Merging per-processor streams equals sorting the concatenation.
        #[test]
        fn merge_equals_global_sort(events in proptest::collection::vec(arb_event(), 0..200)) {
            // Split events into per-processor streams, each sorted.
            let mut streams: std::collections::BTreeMap<ProcessorId, Vec<Event>> = Default::default();
            for e in &events {
                streams.entry(e.proc).or_default().push(*e);
            }
            let streams: Vec<Vec<Event>> = streams
                .into_values()
                .map(|mut v| { v.sort_by_key(Event::order_key); v })
                .collect();

            let merged = merge_streams(TraceKind::Measured, streams);
            let direct = Trace::from_events(TraceKind::Measured, events);
            prop_assert_eq!(merged.events(), direct.events());
        }

        /// JSONL round-trips arbitrary traces losslessly.
        #[test]
        fn jsonl_round_trips(events in proptest::collection::vec(arb_event(), 0..64)) {
            let trace = Trace::from_events(TraceKind::Approximated, events);
            let mut buf = Vec::new();
            write_trace(&trace, &mut buf, TraceFormat::Jsonl).unwrap();
            prop_assert_eq!(TraceFormat::sniff(&buf), TraceFormat::Jsonl);
            let back = read_trace(buf.as_slice(), 0).unwrap();
            prop_assert_eq!(trace, back);
        }

        /// `ppa-trace-bin-v1` round-trips arbitrary traces losslessly, at
        /// every decode worker count.
        #[test]
        fn binary_round_trips(events in proptest::collection::vec(arb_event(), 0..64)) {
            let trace = Trace::from_events(TraceKind::Approximated, events);
            let mut buf = Vec::new();
            write_trace(&trace, &mut buf, TraceFormat::Binary).unwrap();
            prop_assert!(buf.starts_with(&BINARY_MAGIC));
            let back = read_trace(buf.as_slice(), 0).unwrap();
            prop_assert_eq!(&trace, &back);
            for workers in WORKERS {
                let decoded = read_trace(buf.as_slice(), workers).unwrap();
                prop_assert_eq!(&trace, &decoded);
            }
        }

        /// Decoding a trace from its binary encoding equals decoding it
        /// from its JSONL encoding, through the auto-detecting reader.
        #[test]
        fn binary_decode_equals_jsonl_decode(events in proptest::collection::vec(arb_event(), 0..64)) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            let (mut jl, mut bin) = (Vec::new(), Vec::new());
            write_trace(&trace, &mut jl, TraceFormat::Jsonl).unwrap();
            write_trace(&trace, &mut bin, TraceFormat::Binary).unwrap();
            let from_jl = read_trace(jl.as_slice(), 0).unwrap();
            let from_bin = read_trace(bin.as_slice(), 0).unwrap();
            prop_assert_eq!(from_jl, from_bin);
        }

        /// For any single corrupted block, lenient decode yields exactly
        /// the strict decode minus that block's events, and the loss is
        /// fully accounted by one gap — at every decode worker count.
        #[test]
        fn lenient_decode_is_strict_decode_minus_the_corrupted_block(
            events in proptest::collection::vec(arb_event(), 48..160),
            per_block in 8usize..24,
            target in 0usize..1000,
            at in 0usize..10_000,
        ) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            let mut buf = Vec::new();
            let mut w = AnyTraceWriter::with_block_events(
                &mut buf,
                trace.kind(),
                trace.len(),
                per_block,
                StreamProbes::default(),
            );
            for e in trace.iter() {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();

            // Walk the frames to find the target block's payload bounds.
            let blocks = trace.len().div_ceil(per_block);
            let target = target % blocks;
            let mut offset = 18; // header
            let mut payload_span = (0usize, 0usize);
            let mut counts = Vec::with_capacity(blocks);
            for i in 0..blocks {
                let payload_len =
                    u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
                let count =
                    u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap()) as usize;
                counts.push(count);
                if i == target {
                    payload_span = (offset + 44, payload_len);
                }
                offset += 44 + payload_len;
            }
            // Corrupt one payload byte: always a CRC mismatch.
            buf[payload_span.0 + at % payload_span.1] ^= 0xff;

            let survivors: Vec<Event> = trace
                .events()
                .iter()
                .enumerate()
                .filter(|(i, _)| i / per_block != target)
                .map(|(_, e)| *e)
                .collect();

            for workers in WORKERS {
                let mut r = AnyTraceReader::open_parallel(buf.as_slice(), workers).unwrap();
                prop_assert_eq!(r.format(), TraceFormat::Binary);
                r.set_lenient(true);
                let got: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
                prop_assert_eq!(&got, &survivors);
                prop_assert_eq!(r.gaps().len(), 1);
                prop_assert_eq!(r.gaps()[0].block, target + 1);
                prop_assert_eq!(r.events_lost(), counts[target] as u64);
                prop_assert_eq!(got.len() + counts[target], trace.len());
            }
        }

        /// A dropped (whole, excised) block leaves exactly the other
        /// blocks' events, with the loss accounted as a truncation gap.
        #[test]
        fn lenient_decode_accounts_a_dropped_block(
            events in proptest::collection::vec(arb_event(), 48..160),
            per_block in 8usize..24,
            target in 0usize..1000,
        ) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            let mut buf = Vec::new();
            let mut w = AnyTraceWriter::with_block_events(
                &mut buf,
                trace.kind(),
                trace.len(),
                per_block,
                StreamProbes::default(),
            );
            for e in trace.iter() {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();

            let blocks = trace.len().div_ceil(per_block);
            let target = target % blocks;
            let mut offset = 18;
            let mut excised = (0usize, 0usize);
            let mut dropped_count = 0usize;
            for i in 0..blocks {
                let payload_len =
                    u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
                let count =
                    u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap()) as usize;
                if i == target {
                    excised = (offset, 44 + payload_len);
                    dropped_count = count;
                }
                offset += 44 + payload_len;
            }
            buf.drain(excised.0..excised.0 + excised.1);

            let survivors: Vec<Event> = trace
                .events()
                .iter()
                .enumerate()
                .filter(|(i, _)| i / per_block != target)
                .map(|(_, e)| *e)
                .collect();

            for workers in WORKERS {
                let mut r = AnyTraceReader::open_parallel(buf.as_slice(), workers).unwrap();
                prop_assert_eq!(r.format(), TraceFormat::Binary);
                r.set_lenient(true);
                let got: Vec<Event> = r.by_ref().map(|e| e.unwrap()).collect();
                prop_assert_eq!(&got, &survivors);
                prop_assert_eq!(r.events_lost(), dropped_count as u64);
                prop_assert_eq!(got.len() + dropped_count, trace.len());
            }
        }

        /// Seeking with `set_skip_events` yields exactly the suffix, for
        /// every skip point and decode worker count.
        #[test]
        fn skip_events_yields_the_exact_suffix(
            events in proptest::collection::vec(arb_event(), 16..96),
            per_block in 4usize..16,
            skip in 0usize..96,
        ) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            let skip = skip % (trace.len() + 1);
            let mut buf = Vec::new();
            let mut w = AnyTraceWriter::with_block_events(
                &mut buf,
                trace.kind(),
                trace.len(),
                per_block,
                StreamProbes::default(),
            );
            for e in trace.iter() {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();

            let expected = &trace.events()[skip..];
            for workers in WORKERS {
                let mut r = AnyTraceReader::open_parallel(buf.as_slice(), workers).unwrap();
                prop_assert_eq!(r.format(), TraceFormat::Binary);
                r.set_skip_events(skip as u64);
                let got: Vec<Event> = r.map(|e| e.unwrap()).collect();
                prop_assert_eq!(got.as_slice(), expected);
            }
        }

        /// Rebasing preserves all pairwise gaps.
        #[test]
        fn rebase_preserves_gaps(events in proptest::collection::vec(arb_event(), 1..100)) {
            let trace = Trace::from_events(TraceKind::Actual, events);
            let total_before = trace.total_time();
            let rebased = trace.rebase_to_zero();
            prop_assert_eq!(rebased.start_time(), Some(Time::ZERO));
            prop_assert_eq!(rebased.total_time(), total_before);
        }

        /// Windowing laws: a window and its complement partition the
        /// trace, and windowing is idempotent.
        #[test]
        fn window_partitions_the_trace(
            events in proptest::collection::vec(arb_event(), 0..150),
            cut in 0u64..10_000,
        ) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            let cut = Time::from_nanos(cut);
            let lo = trace.window(Time::ZERO, cut);
            let hi = trace.window(cut, Time::MAX);
            prop_assert_eq!(lo.len() + hi.len(), trace.len());
            prop_assert!(lo.iter().all(|e| e.time < cut));
            prop_assert!(hi.iter().all(|e| e.time >= cut));
            // Idempotence.
            let again = lo.window(Time::ZERO, cut);
            prop_assert_eq!(lo.events(), again.events());
        }

        /// Per-processor filters partition the trace.
        #[test]
        fn proc_filters_partition(events in proptest::collection::vec(arb_event(), 0..150)) {
            let trace = Trace::from_events(TraceKind::Actual, events);
            let total: usize = trace
                .processors()
                .into_iter()
                .map(|p| trace.filter_proc(p).len())
                .sum();
            prop_assert_eq!(total, trace.len());
        }

        /// Bounded buffers never exceed capacity and account every drop.
        #[test]
        fn buffers_account_everything(
            events in proptest::collection::vec(arb_event(), 0..200),
            capacity in 1usize..64,
        ) {
            let trace = Trace::from_events(TraceKind::Measured, events);
            for policy in [OverflowPolicy::DropNewest, OverflowPolicy::DropOldest] {
                let (kept, dropped) = apply_buffers(&trace, capacity, policy);
                prop_assert_eq!(kept.len() as u64 + dropped, trace.len() as u64);
                // No processor keeps more than the capacity.
                let mut per_proc: std::collections::BTreeMap<ProcessorId, usize> =
                    Default::default();
                for e in &kept {
                    *per_proc.entry(e.proc).or_default() += 1;
                }
                prop_assert!(per_proc.values().all(|&n| n <= capacity));
            }
        }

        /// Time arithmetic: (t + s) - s == t and (t + s) - t == s.
        #[test]
        fn time_span_inverse(t in 0u64..u32::MAX as u64, s in 0u64..u32::MAX as u64) {
            let time = Time::from_nanos(t);
            let span = Span::from_nanos(s);
            prop_assert_eq!((time + span) - span, time);
            prop_assert_eq!((time + span) - time, span);
        }
    }
}
