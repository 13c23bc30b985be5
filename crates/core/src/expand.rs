//! Logical expansion of repeat records.
//!
//! Redundancy suppression (`ppa-slice`) collapses runs of repeated
//! per-processor event patterns into counted
//! [`EventKind::Repeat`] records. This module is the inverse: a
//! streaming [`RepeatExpander`] that replays each record's suppressed
//! occurrences back into the stream, in total order, using
//! [`Event::repeat_shifted`] — the same occurrence arithmetic the
//! suppressor used — so suppress-then-expand is an identity.
//!
//! A record's pattern is the [`REPEAT_MAX_PATTERN`]-bounded window of
//! logical events immediately preceding it on its processor, so the
//! expander keeps exactly that much per-processor history; expanded
//! occurrences enter the history themselves, which is what lets
//! back-to-back records on one processor chain correctly.

use ppa_trace::{Event, EventKind, Trace, REPEAT_MAX_PATTERN};
use std::fmt;

/// Why expansion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// A record's processor has fewer preceding logical events than the
    /// record's pattern length — the record is orphaned (e.g. the trace
    /// was window-sliced or resumed mid-stream after suppression).
    MissingPattern {
        /// Sequence number of the orphaned record.
        seq: u64,
        /// Pattern length the record declares.
        needed: u32,
        /// Logical events actually available on that processor.
        have: usize,
    },
    /// A record declares a zero pattern length or occurrence count.
    EmptyRecord {
        /// Sequence number of the malformed record.
        seq: u64,
    },
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::MissingPattern { seq, needed, have } => write!(
                f,
                "repeat record at seq {seq} needs a {needed}-event pattern \
                 but only {have} preceding events are available (trace \
                 sliced or resumed after suppression?)"
            ),
            ExpandError::EmptyRecord { seq } => {
                write!(f, "repeat record at seq {seq} has a zero length or count")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// One record mid-expansion: replays occurrence `r`, position `j`.
struct RunCursor {
    pattern: Vec<Event>,
    dt_ns: u64,
    dseq: u64,
    dfield: i64,
    count: u32,
    r: u64,
    j: usize,
}

impl RunCursor {
    fn peek(&self) -> Event {
        self.pattern[self.j].repeat_shifted(self.r, self.dt_ns, self.dseq, self.dfield)
    }

    /// Steps to the next occurrence position; false when exhausted.
    fn advance(&mut self) -> bool {
        self.j += 1;
        if self.j == self.pattern.len() {
            self.j = 0;
            self.r += 1;
        }
        self.r <= self.count as u64
    }
}

/// One processor's last [`REPEAT_MAX_PATTERN`] logical events: a fixed
/// ring, allocated on the processor's first event.
#[derive(Default)]
struct Ring {
    events: Vec<Event>,
    /// Where the oldest event sits once the ring is full (0 until then).
    start: usize,
}

impl Ring {
    #[inline]
    fn push(&mut self, event: Event) {
        if self.events.len() < REPEAT_MAX_PATTERN {
            self.events
                .reserve_exact(REPEAT_MAX_PATTERN - self.events.len());
            self.events.push(event);
        } else {
            self.events[self.start] = event;
            self.start = (self.start + 1) % REPEAT_MAX_PATTERN;
        }
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    /// The newest `n` events (`n <= len`), oldest first.
    fn newest(&self, n: usize) -> Vec<Event> {
        let len = self.events.len();
        (len - n..len)
            .map(|i| self.events[(self.start + i) % len])
            .collect()
    }
}

/// Streaming repeat-record expander.
///
/// Feed physical events (the suppressed stream) in total order via
/// [`RepeatExpander::push`]; logical events come out in total order,
/// each handed to the caller's consumer as it is produced, so a record
/// standing for millions of events costs no more memory than one
/// standing for two. Call [`RepeatExpander::finish`] once at the end to
/// drain occurrences that extend past the last physical event.
#[derive(Default)]
pub struct RepeatExpander {
    /// Per-processor history, indexed by processor.
    history: Vec<Ring>,
    cursors: Vec<RunCursor>,
    records: u64,
    expanded: u64,
}

impl RepeatExpander {
    /// A fresh expander with no history.
    pub fn new() -> RepeatExpander {
        RepeatExpander::default()
    }

    /// Repeat records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Logical events reproduced from records so far.
    pub fn expanded(&self) -> u64 {
        self.expanded
    }

    /// `event`'s processor's history, created on first use.
    #[inline]
    fn ring(&mut self, event: &Event) -> &mut Ring {
        let pi = event.proc.index();
        if pi >= self.history.len() {
            self.history.resize_with(pi + 1, Ring::default);
        }
        &mut self.history[pi]
    }

    #[inline]
    fn remember(&mut self, event: Event) {
        self.ring(&event).push(event);
    }

    /// The fast path of [`push`](Self::push): with no occurrence pending,
    /// a plain event stands for itself. Records it in its processor's
    /// history and returns true, and the caller hands it on as it is;
    /// false for a record or while occurrences are pending (call
    /// [`push`](Self::push)).
    #[inline]
    pub(crate) fn pass_through(&mut self, event: &Event) -> bool {
        if !self.cursors.is_empty() || matches!(event.kind, EventKind::Repeat { .. }) {
            return false;
        }
        self.remember(*event);
        true
    }

    /// Hands `emit` every pending occurrence ordering before `limit`
    /// (all of them when `limit` is `None`), one at a time.
    fn drain<E>(
        &mut self,
        limit: Option<(ppa_trace::Time, u64, ppa_trace::ProcessorId)>,
        emit: &mut impl FnMut(Event) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            // The earliest pending occurrence, the first cursor winning
            // ties. Spelled as a loop on purpose: as a `min_by_key` chain
            // it ran 1.5–1.8x slower, how much depending on where the
            // inliner happened to put the fold.
            let mut earliest: Option<(usize, Event)> = None;
            for (i, c) in self.cursors.iter().enumerate() {
                let e = c.peek();
                if earliest.is_none_or(|(_, m)| e.order_key() < m.order_key()) {
                    earliest = Some((i, e));
                }
            }
            let Some((idx, next)) = earliest else {
                return Ok(());
            };
            if limit.is_some_and(|key| next.order_key() > key) {
                return Ok(());
            }
            self.remember(next);
            self.expanded += 1;
            if !self.cursors[idx].advance() {
                self.cursors.swap_remove(idx);
            }
            emit(next)?;
        }
    }

    /// Accepts the next physical event; hands `emit` the logical events
    /// it (and any pending occurrences ordering before it) stands for,
    /// in total order, as they are produced. The first error, the
    /// expander's own or `emit`'s, ends the push.
    pub fn push<E: From<ExpandError>>(
        &mut self,
        event: Event,
        mut emit: impl FnMut(Event) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.pass_through(&event) {
            return emit(event);
        }
        self.drain(Some(event.order_key()), &mut emit)?;
        match event.kind {
            EventKind::Repeat {
                len,
                count,
                dt_ns,
                dseq,
                dfield,
            } => {
                if len == 0 || count == 0 {
                    return Err(ExpandError::EmptyRecord { seq: event.seq }.into());
                }
                let history = self.ring(&event);
                if history.len() < len as usize {
                    return Err(ExpandError::MissingPattern {
                        seq: event.seq,
                        needed: len,
                        have: history.len(),
                    }
                    .into());
                }
                let pattern = history.newest(len as usize);
                self.records += 1;
                self.cursors.push(RunCursor {
                    pattern,
                    dt_ns,
                    dseq,
                    dfield,
                    count,
                    r: 1,
                    j: 0,
                });
                // The record's own position is its first occurrence's
                // first event: emit everything up to and including it.
                self.drain(Some(event.order_key()), &mut emit)
            }
            _ => {
                self.remember(event);
                emit(event)
            }
        }
    }

    /// Hands `emit` every remaining occurrence, one at a time. The
    /// expander is reusable (but history-free) afterwards.
    pub fn finish<E>(&mut self, mut emit: impl FnMut(Event) -> Result<(), E>) -> Result<(), E> {
        let drained = self.drain(None, &mut emit);
        self.history.clear();
        drained
    }
}

/// Expands an in-memory event sequence (total order assumed), collecting
/// the logical events.
pub fn expand_events(events: &[Event]) -> Result<Vec<Event>, ExpandError> {
    let mut x = RepeatExpander::new();
    let mut out = Vec::with_capacity(events.len());
    let mut collect = |e: Event| -> Result<(), ExpandError> {
        out.push(e);
        Ok(())
    };
    for &e in events {
        x.push(e, &mut collect)?;
    }
    x.finish(&mut collect)?;
    Ok(out)
}

/// Expands a whole trace, preserving its kind. Traces without repeat
/// records come back unchanged (one pass, no copy avoided — callers on
/// a hot path should check for records first).
pub fn expand_trace(trace: &Trace) -> Result<Trace, ExpandError> {
    let events = expand_events(trace.events())?;
    Ok(Trace::from_events(trace.kind(), events))
}

/// True if any event is a repeat record (i.e. expansion would change
/// the trace).
pub fn has_repeat_records(events: &[Event]) -> bool {
    events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Repeat { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{EventKind, ProcessorId, StatementId, SyncTag, SyncVarId, Time};

    fn stmt(t: u64, proc: u16, seq: u64, s: u32) -> Event {
        Event::new(
            Time::from_nanos(t),
            ProcessorId(proc),
            seq,
            EventKind::Statement {
                stmt: StatementId(s),
            },
        )
    }

    #[test]
    fn expands_single_event_pattern() {
        // [stmt, repeat(1x3, dt=10, dseq=1)] -> 4 statements.
        let events = vec![
            stmt(0, 0, 0, 7),
            Event::new(
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
            ),
        ];
        let out = expand_events(&events).unwrap();
        let want: Vec<Event> = (0..4).map(|i| stmt(i * 10, 0, i, 7)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn field_stride_shifts_tags() {
        let adv = |t: u64, seq: u64, tag: i64| {
            Event::new(
                Time::from_nanos(t),
                ProcessorId(0),
                seq,
                EventKind::Advance {
                    var: SyncVarId(0),
                    tag: SyncTag(tag),
                },
            )
        };
        let events = vec![
            adv(0, 0, 5),
            Event::new(
                Time::from_nanos(100),
                ProcessorId(0),
                1,
                EventKind::Repeat {
                    len: 1,
                    count: 2,
                    dt_ns: 100,
                    dseq: 1,
                    dfield: 1,
                },
            ),
        ];
        let out = expand_events(&events).unwrap();
        assert_eq!(out, vec![adv(0, 0, 5), adv(100, 1, 6), adv(200, 2, 7)]);
    }

    #[test]
    fn interleaves_occurrences_with_other_processors() {
        // Proc 0's record expands across times where proc 1 has events;
        // the output must stay totally ordered.
        let mut events = vec![
            stmt(0, 0, 0, 1),
            Event::new(
                Time::from_nanos(100),
                ProcessorId(0),
                2,
                EventKind::Repeat {
                    len: 1,
                    count: 5,
                    dt_ns: 100,
                    dseq: 2,
                    dfield: 0,
                },
            ),
        ];
        for i in 0..6u64 {
            events.push(stmt(50 + i * 100, 1, 1 + 2 * i, 9));
        }
        events.sort_by_key(Event::order_key);
        let out = expand_events(&events).unwrap();
        assert_eq!(out.len(), 1 + 5 + 6);
        assert!(out.windows(2).all(|w| w[0].order_key() <= w[1].order_key()));
    }

    #[test]
    fn orphaned_record_errors() {
        let events = vec![
            stmt(0, 0, 0, 1),
            Event::new(
                Time::from_nanos(10),
                ProcessorId(0),
                1,
                EventKind::Repeat {
                    len: 2,
                    count: 1,
                    dt_ns: 10,
                    dseq: 1,
                    dfield: 0,
                },
            ),
        ];
        assert_eq!(
            expand_events(&events),
            Err(ExpandError::MissingPattern {
                seq: 1,
                needed: 2,
                have: 1
            })
        );
    }

    fn record(t: u64, proc: u16, seq: u64, len: u32, count: u32, dt_ns: u64, dseq: u64) -> Event {
        Event::new(
            Time::from_nanos(t),
            ProcessorId(proc),
            seq,
            EventKind::Repeat {
                len,
                count,
                dt_ns,
                dseq,
                dfield: 0,
            },
        )
    }

    /// The history is a vector indexed by processor: the two ends of the
    /// id range each keep their own, and a record on one replays only
    /// its own processor's pattern.
    #[test]
    fn processors_zero_and_max_keep_separate_histories() {
        let hi = u16::MAX;
        let (a, b) = (stmt(5, hi, 1, 2), stmt(15, hi, 3, 4));
        let events = vec![
            stmt(0, 0, 0, 1),
            a,
            stmt(10, 0, 2, 3),
            b,
            // Processor MAX repeats its two-event pattern twice more; the
            // record sits where its first occurrence begins.
            record(25, hi, 5, 2, 2, 20, 4),
            stmt(30, 0, 6, 5),
        ];
        let mut want = vec![stmt(0, 0, 0, 1), a, stmt(10, 0, 2, 3), b, stmt(30, 0, 6, 5)];
        for r in 1..=2 {
            want.extend([a, b].map(|e| e.repeat_shifted(r, 20, 4, 0)));
        }
        want.sort_by_key(Event::order_key);
        assert_eq!(expand_events(&events).unwrap(), want);
    }

    /// Records of every pattern length after the ring has wrapped (more
    /// than `REPEAT_MAX_PATTERN` events of history) replay exactly the
    /// newest `len` events, oldest first.
    #[test]
    fn every_pattern_length_replays_the_newest_events_after_wraparound() {
        for len in 1..=REPEAT_MAX_PATTERN as u64 {
            let history: Vec<Event> = (0..20).map(|i| stmt(i * 10, 3, i, i as u32)).collect();
            let mut events = history.clone();
            events.push(record(200, 3, 20, len as u32, 2, 10 * len, len));
            let pattern = &history[history.len() - len as usize..];
            let mut want = history.clone();
            for r in 1..=2 {
                want.extend(
                    pattern
                        .iter()
                        .map(|e| e.repeat_shifted(r, 10 * len, len, 0)),
                );
            }
            assert_eq!(expand_events(&events).unwrap(), want, "len {len}");
        }
    }

    /// An orphaned record reports the history its processor really has:
    /// what it saw, capped at the ring's size, and nothing from others.
    #[test]
    fn orphaned_records_report_the_available_history() {
        let mut events: Vec<Event> = (0..20).map(|i| stmt(i * 10, 1, i, 0)).collect();
        events.push(record(200, 1, 20, 17, 1, 10, 1));
        assert_eq!(
            expand_events(&events),
            Err(ExpandError::MissingPattern {
                seq: 20,
                needed: 17,
                have: REPEAT_MAX_PATTERN
            })
        );
        let events = vec![
            stmt(0, 1, 0, 0),
            stmt(10, 2, 1, 0),
            record(20, 2, 2, 2, 1, 10, 1),
        ];
        assert_eq!(
            expand_events(&events),
            Err(ExpandError::MissingPattern {
                seq: 2,
                needed: 2,
                have: 1
            })
        );
    }

    #[test]
    fn record_free_stream_is_untouched() {
        let events: Vec<Event> = (0..50).map(|i| stmt(i * 7, (i % 3) as u16, i, 2)).collect();
        assert_eq!(expand_events(&events).unwrap(), events);
        assert!(!has_repeat_records(&events));
    }
}
