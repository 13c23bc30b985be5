//! The trace container.
//!
//! A [`Trace`] is a totally ordered sequence of [`Event`]s — the paper's
//! `τ = e1..ek` ordered by time (with processor id and emission sequence as
//! deterministic tie-breaks). The same container represents logical
//! (actual), measured, and approximated traces; which one it is depends on
//! provenance, recorded in [`TraceKind`].

use crate::event::{Event, EventKind};
use crate::ids::ProcessorId;
use crate::time::{Span, Time};
use serde::{Deserialize, Serialize};

/// Provenance of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TraceKind {
    /// The program's actual performance, free of instrumentation (the
    /// paper's logical event trace `τ`). Only a simulator can produce one
    /// directly.
    #[default]
    Actual,
    /// A trace captured by instrumentation (the paper's `τm`); timestamps
    /// include instrumentation perturbation.
    Measured,
    /// A trace reconstructed by perturbation analysis from a measured trace.
    Approximated,
}

/// A totally ordered event trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    kind: TraceKind,
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace of the given provenance.
    pub fn new(kind: TraceKind) -> Self {
        Trace {
            kind,
            events: Vec::new(),
        }
    }

    /// Builds a trace from events, sorting them into total order.
    pub fn from_events(kind: TraceKind, mut events: Vec<Event>) -> Self {
        events.sort_by_key(Event::order_key);
        Trace { kind, events }
    }

    /// The trace's provenance.
    #[inline]
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Appends an event; it must not order before the current last event.
    ///
    /// # Panics
    /// Panics if the event would violate the total order. Use
    /// [`Trace::from_events`] when events arrive unordered.
    pub fn push(&mut self, event: Event) {
        if let Some(last) = self.events.last() {
            assert!(
                last.order_key() <= event.order_key(),
                "push would violate total order: {last} then {event}"
            );
        }
        self.events.push(event);
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in total order.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates events in total order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// The earliest timestamp, if any.
    pub fn start_time(&self) -> Option<Time> {
        self.events.first().map(|e| e.time)
    }

    /// The latest timestamp, if any.
    pub fn end_time(&self) -> Option<Time> {
        self.events.last().map(|e| e.time)
    }

    /// Total execution time: last minus first timestamp (zero for traces
    /// with fewer than two events).
    pub fn total_time(&self) -> Span {
        match (self.start_time(), self.end_time()) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => Span::ZERO,
        }
    }

    /// The set of processors that emitted at least one event, ascending.
    pub fn processors(&self) -> Vec<ProcessorId> {
        let mut procs: Vec<ProcessorId> = self.events.iter().map(|e| e.proc).collect();
        procs.sort_unstable();
        procs.dedup();
        procs
    }

    /// Events emitted by one processor, in order.
    pub fn thread(&self, proc: ProcessorId) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter().filter(move |e| e.proc == proc)
    }

    /// Counts events matching a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Counts synchronization (advance/await) events.
    pub fn sync_event_count(&self) -> usize {
        self.count_where(EventKind::is_sync)
    }

    /// Checks that the container's order invariant holds (used by tests and
    /// after deserialization).
    pub fn is_totally_ordered(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key())
    }

    /// Returns the sub-trace of events with `from <= time < to` (total
    /// order preserved; same provenance).
    pub fn window(&self, from: Time, to: Time) -> Trace {
        let events = self
            .events
            .iter()
            .filter(|e| e.time >= from && e.time < to)
            .copied()
            .collect();
        Trace {
            kind: self.kind,
            events,
        }
    }

    /// Returns the sub-trace of one processor's events.
    pub fn filter_proc(&self, proc: ProcessorId) -> Trace {
        let events = self
            .events
            .iter()
            .filter(|e| e.proc == proc)
            .copied()
            .collect();
        Trace {
            kind: self.kind,
            events,
        }
    }

    /// Shifts all timestamps so the first event is at [`Time::ZERO`].
    pub fn rebase_to_zero(mut self) -> Trace {
        if let Some(origin) = self.start_time() {
            let delta = origin.as_nanos();
            for e in &mut self.events {
                e.time = Time::from_nanos(e.time.as_nanos() - delta);
            }
        }
        self
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Merges per-processor event streams into one totally ordered trace.
///
/// Each input stream must already be time-ordered (streams from a single
/// thread's trace buffer always are); the merge is a stable k-way merge by
/// [`Event::order_key`].
pub fn merge_streams(kind: TraceKind, streams: Vec<Vec<Event>>) -> Trace {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut events = Vec::with_capacity(total);
    for s in streams {
        debug_assert!(s.windows(2).all(|w| w[0].order_key() <= w[1].order_key()));
        events.extend(s);
    }
    Trace::from_events(kind, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StatementId;

    fn ev(ns: u64, proc: u16, seq: u64) -> Event {
        Event::new(
            Time::from_nanos(ns),
            ProcessorId(proc),
            seq,
            EventKind::Statement {
                stmt: StatementId(0),
            },
        )
    }

    #[test]
    fn from_events_sorts() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![ev(30, 0, 2), ev(10, 1, 0), ev(20, 0, 1)],
        );
        assert!(t.is_totally_ordered());
        assert_eq!(t.start_time(), Some(Time::from_nanos(10)));
        assert_eq!(t.end_time(), Some(Time::from_nanos(30)));
        assert_eq!(t.total_time(), Span::from_nanos(20));
    }

    #[test]
    fn push_preserves_order() {
        let mut t = Trace::new(TraceKind::Actual);
        t.push(ev(1, 0, 0));
        t.push(ev(1, 0, 1)); // equal time, higher seq is fine
        t.push(ev(2, 0, 2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "total order")]
    fn push_rejects_out_of_order() {
        let mut t = Trace::new(TraceKind::Actual);
        t.push(ev(5, 0, 0));
        t.push(ev(4, 0, 1));
    }

    #[test]
    fn per_processor_views() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![ev(1, 0, 0), ev(2, 1, 1), ev(3, 0, 2), ev(4, 2, 3)],
        );
        assert_eq!(
            t.processors(),
            vec![ProcessorId(0), ProcessorId(1), ProcessorId(2)]
        );
        assert_eq!(t.thread(ProcessorId(0)).count(), 2);
    }

    #[test]
    fn merge_streams_interleaves() {
        let s0 = vec![ev(1, 0, 0), ev(5, 0, 2)];
        let s1 = vec![ev(2, 1, 1), ev(9, 1, 3)];
        let t = merge_streams(TraceKind::Measured, vec![s0, s1]);
        let times: Vec<u64> = t.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![1, 2, 5, 9]);
    }

    #[test]
    fn rebase_shifts_origin() {
        let t = Trace::from_events(TraceKind::Measured, vec![ev(100, 0, 0), ev(130, 0, 1)]);
        let t = t.rebase_to_zero();
        assert_eq!(t.start_time(), Some(Time::ZERO));
        assert_eq!(t.end_time(), Some(Time::from_nanos(30)));
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new(TraceKind::Actual);
        assert!(t.is_empty());
        assert_eq!(t.total_time(), Span::ZERO);
        assert_eq!(t.start_time(), None);
        assert!(t.processors().is_empty());
        assert!(t.is_totally_ordered());
    }

    #[test]
    fn window_and_filters() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![ev(10, 0, 0), ev(20, 1, 1), ev(30, 0, 2), ev(40, 2, 3)],
        );
        let w = t.window(Time::from_nanos(15), Time::from_nanos(40));
        assert_eq!(w.len(), 2);
        assert!(w.is_totally_ordered());
        assert_eq!(w.kind(), TraceKind::Measured);

        let p = t.filter_proc(ProcessorId(0));
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|e| e.proc == ProcessorId(0)));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let t = Trace::from_events(TraceKind::Actual, vec![ev(10, 0, 0), ev(20, 0, 1)]);
        let w = t.window(Time::from_nanos(10), Time::from_nanos(20));
        assert_eq!(w.len(), 1);
        assert_eq!(w.events()[0].time, Time::from_nanos(10));
    }

    #[test]
    fn count_helpers() {
        let mut events = vec![ev(1, 0, 0)];
        events.push(Event::new(
            Time::from_nanos(2),
            ProcessorId(0),
            1,
            EventKind::Advance {
                var: crate::ids::SyncVarId(0),
                tag: crate::ids::SyncTag(0),
            },
        ));
        let t = Trace::from_events(TraceKind::Measured, events);
        assert_eq!(t.sync_event_count(), 1);
        assert_eq!(
            t.count_where(|k| matches!(k, EventKind::Statement { .. })),
            1
        );
    }
}
