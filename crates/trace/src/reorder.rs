//! Bounded reorder tolerance for almost-sorted event streams.
//!
//! Merged multi-source traces are rarely delivered in a perfect total
//! order: network transports and per-node buffers let an event arrive a
//! few positions late. The streaming analyzer, however, requires its
//! input sorted by [`Event::order_key`]. A [`ReorderBuffer`] sits between
//! the two: it holds arriving events in a min-heap and releases one only
//! once the sequence-number high-water mark has advanced past the event
//! by the configured window — so any event at most `window` sequence
//! numbers late is re-sorted into place, and anything later than that is
//! rejected and counted rather than silently corrupting the order.
//!
//! The buffer's state is snapshottable ([`ReorderBuffer::snapshot`]) so a
//! checkpointed analysis can persist the not-yet-released tail and
//! restore it on resume.

use crate::event::Event;
use crate::ids::ProcessorId;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry ordered by [`Event::order_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Keyed(Event);

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.order_key().cmp(&other.0.order_key())
    }
}

/// A bounded buffer that re-sorts events arriving slightly out of order.
///
/// `window` is measured in sequence numbers: an event is held until some
/// admitted event's `seq` exceeds it by at least the window, at which
/// point no admissible future event can sort before it and it is safe to
/// release. Events that arrive *too* late — ordering strictly before the
/// last released event — are rejected and counted ([`rejected`]); a
/// window of `0` releases everything immediately (pass-through).
///
/// Peak memory is bounded by how out-of-order the input actually is, not
/// by the window: a sorted stream through any window holds at most the
/// events whose seq is within `window` of the high-water mark.
///
/// [`rejected`]: ReorderBuffer::rejected
#[derive(Debug)]
pub struct ReorderBuffer {
    window: u64,
    heap: BinaryHeap<Reverse<Keyed>>,
    /// Highest sequence number admitted so far.
    max_seq: Option<u64>,
    /// Order key of the last released event; admissions must not sort
    /// before it.
    released: Option<(Time, u64, ProcessorId)>,
    rejected: u64,
    reordered: u64,
}

impl ReorderBuffer {
    /// A buffer tolerating events up to `window` sequence numbers late.
    pub fn new(window: u64) -> Self {
        ReorderBuffer {
            window,
            heap: BinaryHeap::new(),
            max_seq: None,
            released: None,
            rejected: 0,
            reordered: 0,
        }
    }

    /// The configured sequence window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Offers one event. Returns `false` — and counts the event as
    /// rejected — if it arrived beyond the tolerance: its order key
    /// sorts strictly before an event already released.
    pub fn push(&mut self, event: Event) -> bool {
        if let Some(released) = self.released {
            if event.order_key() < released {
                self.rejected += 1;
                return false;
            }
        }
        if self.max_seq.is_some_and(|m| event.seq < m) {
            self.reordered += 1;
        }
        self.max_seq = Some(self.max_seq.map_or(event.seq, |m| m.max(event.seq)));
        self.heap.push(Reverse(Keyed(event)));
        true
    }

    /// Releases the next event whose sequence number the high-water mark
    /// has passed by at least the window, or `None` if every buffered
    /// event might still be overtaken. Call repeatedly after each
    /// [`push`](ReorderBuffer::push) to drain whatever has become safe.
    pub fn pop_ready(&mut self) -> Option<Event> {
        let max = self.max_seq?;
        let ready = {
            let Reverse(Keyed(head)) = self.heap.peek()?;
            head.seq.saturating_add(self.window) <= max
        };
        if !ready {
            return None;
        }
        self.release()
    }

    /// Releases the buffer's minimum unconditionally — the end-of-stream
    /// drain. Alternate with `None`-checks: `while let Some(e) =
    /// buf.pop_flush() { ... }` empties the buffer in order.
    pub fn pop_flush(&mut self) -> Option<Event> {
        self.release()
    }

    fn release(&mut self) -> Option<Event> {
        let Reverse(Keyed(event)) = self.heap.pop()?;
        self.released = Some(event.order_key());
        Some(event)
    }

    /// Events currently held back.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap bytes the buffer holds: its capacity times the entry size.
    pub fn resident_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Reverse<Keyed>>()
    }

    /// Events rejected for arriving beyond the window.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Events that arrived out of order but within the window and were
    /// re-sorted into place.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Serializable image of the buffer's full state, for checkpoints.
    pub fn snapshot(&self) -> ReorderSnapshot {
        let mut buffered: Vec<Event> = self.heap.iter().map(|Reverse(Keyed(e))| *e).collect();
        buffered.sort_by_key(Event::order_key);
        ReorderSnapshot {
            window: self.window,
            buffered,
            max_seq: self.max_seq,
            released: self.released,
            rejected: self.rejected,
            reordered: self.reordered,
        }
    }

    /// Rebuilds a buffer from a [`ReorderBuffer::snapshot`] image.
    pub fn restore(snapshot: &ReorderSnapshot) -> Self {
        ReorderBuffer {
            window: snapshot.window,
            heap: snapshot
                .buffered
                .iter()
                .map(|e| Reverse(Keyed(*e)))
                .collect(),
            max_seq: snapshot.max_seq,
            released: snapshot.released,
            rejected: snapshot.rejected,
            reordered: snapshot.reordered,
        }
    }
}

/// Serializable image of a [`ReorderBuffer`], embedded in analysis
/// checkpoints so a resumed run restores the held-back tail exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReorderSnapshot {
    /// The configured sequence window.
    pub window: u64,
    /// Held-back events, sorted by order key.
    pub buffered: Vec<Event>,
    /// Highest sequence number admitted so far.
    pub max_seq: Option<u64>,
    /// Order key of the last released event.
    pub released: Option<(Time, u64, ProcessorId)>,
    /// Events rejected for arriving beyond the window.
    pub rejected: u64,
    /// Events re-sorted within the window.
    pub reordered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::StatementId;

    fn ev(seq: u64) -> Event {
        Event::new(
            Time::from_nanos(seq * 10),
            ProcessorId(0),
            seq,
            EventKind::Statement {
                stmt: StatementId(seq as u32),
            },
        )
    }

    /// Drives `input` through a buffer, draining greedily, then flushes.
    fn run(window: u64, input: &[u64]) -> (Vec<u64>, u64, u64) {
        let mut buf = ReorderBuffer::new(window);
        let mut out = Vec::new();
        for &seq in input {
            buf.push(ev(seq));
            while let Some(e) = buf.pop_ready() {
                out.push(e.seq);
            }
        }
        while let Some(e) = buf.pop_flush() {
            out.push(e.seq);
        }
        (out, buf.rejected(), buf.reordered())
    }

    #[test]
    fn sorted_input_passes_through_unchanged() {
        let input: Vec<u64> = (0..20).collect();
        let (out, rejected, reordered) = run(4, &input);
        assert_eq!(out, input);
        assert_eq!((rejected, reordered), (0, 0));
    }

    #[test]
    fn late_events_within_the_window_are_resorted() {
        let (out, rejected, reordered) = run(4, &[0, 1, 3, 2, 4, 6, 5, 7]);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rejected, 0);
        assert_eq!(reordered, 2);
    }

    #[test]
    fn events_beyond_the_window_are_rejected_and_counted() {
        // Seq 0 arrives after the high-water mark reached 10 with a
        // window of 2, so 0..=8 were already released.
        let (out, rejected, _) = run(2, &[3, 4, 5, 6, 7, 8, 9, 10, 0]);
        assert_eq!(out, vec![3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn window_zero_is_pass_through() {
        let mut buf = ReorderBuffer::new(0);
        buf.push(ev(5));
        assert_eq!(buf.pop_ready().map(|e| e.seq), Some(5));
        assert_eq!(buf.pop_ready(), None);
    }

    #[test]
    fn events_are_held_until_the_watermark_passes() {
        let mut buf = ReorderBuffer::new(8);
        buf.push(ev(0));
        // The watermark (0) has not passed 0 + 8 yet.
        assert_eq!(buf.pop_ready(), None);
        buf.push(ev(8));
        assert_eq!(buf.pop_ready().map(|e| e.seq), Some(0));
        assert_eq!(buf.pop_ready(), None);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn snapshot_round_trips_mid_stream() {
        let mut buf = ReorderBuffer::new(4);
        let mut out = Vec::new();
        for seq in [0, 2, 1, 5, 7, 6, 3] {
            buf.push(ev(seq));
            while let Some(e) = buf.pop_ready() {
                out.push(e.seq);
            }
        }
        let snap = buf.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ReorderSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);

        let mut restored = ReorderBuffer::restore(&back);
        let mut direct_tail = Vec::new();
        while let Some(e) = buf.pop_flush() {
            direct_tail.push(e.seq);
        }
        let mut restored_tail = Vec::new();
        while let Some(e) = restored.pop_flush() {
            restored_tail.push(e.seq);
        }
        assert_eq!(direct_tail, restored_tail);
        assert_eq!(buf.rejected(), restored.rejected());
        assert_eq!(buf.reordered(), restored.reordered());
    }
}
