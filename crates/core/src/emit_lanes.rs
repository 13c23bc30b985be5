//! The emission reorder buffer of the streaming analyzer.
//!
//! Resolved events wait here until the watermark proves nothing can
//! still sort before them. The buffer is a priority queue on the final
//! trace's sort key, but its shape follows an order the analysis already
//! guarantees: under every §4.2.3 rule except the two fork bases (the
//! loop-begin anchor and a task spawn) an event's approximated time is
//! its own processor's previous approximated time plus a non-negative
//! delta, so each processor's resolved events arrive already sorted.
//!
//! [`EmitLanes`] therefore keeps one FIFO lane per processor and appends
//! in O(1). An entry that does sort before its lane's tail — a fork from
//! an anchor behind the processor's frontier, or an overhead clamp that
//! leaves two events at one time with descending `seq` — goes to a small
//! spill heap instead. The minimum is the smaller of the spill's top and
//! the top of a heap holding one head key per *non-empty* lane, so a pop
//! costs O(log P + log spill) however many events are buffered and
//! however many processor slots exist. The pop sequence is exactly that
//! of a single binary heap over the same entries: every lane is sorted,
//! so the global minimum is always a lane head or the spill's top.

use ppa_trace::{Event, ProcessorId, Time};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// The final trace's sort key with the arrival index as the last
/// tie-break (mirroring the batch analysis's stable sort).
pub(crate) type EmitKey = (Time, u64, ProcessorId, usize);

/// A lane that empties with more capacity than this gives it back: a
/// drained backlog should not stay resident for the rest of the stream.
/// (Lanes of a steady trace hold a handful of entries and never get here.)
const RELEASE_CAPACITY: usize = 1024;

/// An entry of the emission reorder buffer, ordered like the final trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EmitEntry {
    pub(crate) event: Event,
    pub(crate) idx: usize,
}

// The lanes copy every resolved event in and out at this size: the
// 64-byte `Event` plus its arrival index.
const _: () = assert!(std::mem::size_of::<EmitEntry>() == 72);

impl EmitEntry {
    #[inline]
    pub(crate) fn key(&self) -> EmitKey {
        (self.event.time, self.event.seq, self.event.proc, self.idx)
    }
}

impl PartialEq for EmitEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for EmitEntry {}
impl PartialOrd for EmitEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EmitEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-processor FIFO lanes plus a spill heap (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EmitLanes {
    /// One lane per processor index, each ascending by key.
    lanes: Vec<VecDeque<EmitEntry>>,
    /// The head key of every non-empty lane; the key's processor names
    /// the lane.
    heads: BinaryHeap<Reverse<EmitKey>>,
    /// Entries that sorted before their lane's tail when they arrived.
    spill: BinaryHeap<Reverse<EmitEntry>>,
    len: usize,
}

impl EmitLanes {
    /// Buffered entries, lanes and spill together.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Buffers `entry`; true when it had to go to the spill heap.
    #[inline]
    pub(crate) fn push(&mut self, entry: EmitEntry) -> bool {
        self.len += 1;
        let pi = entry.event.proc.index();
        if pi >= self.lanes.len() {
            self.lanes.resize_with(pi + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[pi];
        match lane.back() {
            None => self.heads.push(Reverse(entry.key())),
            Some(tail) if entry.key() > tail.key() => {}
            Some(_) => {
                self.spill.push(Reverse(entry));
                return true;
            }
        }
        lane.push_back(entry);
        false
    }

    /// The approximated time of the entry [`pop`](Self::pop) would
    /// return.
    #[inline]
    fn peek_time(&self) -> Option<Time> {
        match (self.heads.peek(), self.spill.peek()) {
            (Some(Reverse(h)), Some(Reverse(s))) => Some(h.0.min(s.event.time)),
            (Some(Reverse(h)), None) => Some(h.0),
            (None, Some(Reverse(s))) => Some(s.event.time),
            (None, None) => None,
        }
    }

    /// [`pop`](Self::pop), if that entry is timed before `watermark`.
    #[inline]
    pub(crate) fn pop_below(&mut self, watermark: Time) -> Option<EmitEntry> {
        if self.peek_time()? < watermark {
            self.pop()
        } else {
            None
        }
    }

    /// Removes and returns the entry with the smallest key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<EmitEntry> {
        let from_spill = match (self.heads.peek(), self.spill.peek()) {
            (Some(Reverse(h)), Some(Reverse(s))) => s.key() < *h,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        self.len -= 1;
        if from_spill {
            return self.spill.pop().map(|Reverse(e)| e);
        }
        let mut head = self.heads.peek_mut()?;
        let lane = &mut self.lanes[head.0 .2.index()];
        let entry = lane.pop_front();
        match lane.front() {
            // Re-keys the top in place: one sift-down, not a pop and a push.
            Some(next) => head.0 = next.key(),
            None => {
                PeekMut::pop(head);
                if lane.capacity() > RELEASE_CAPACITY {
                    *lane = VecDeque::new();
                }
            }
        }
        entry
    }

    /// Heap bytes held: the lane table, every lane, the head heap and the
    /// spill heap (capacity × element size).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let lanes: usize = self.lanes.iter().map(VecDeque::capacity).sum();
        self.lanes.capacity() * size_of::<VecDeque<EmitEntry>>()
            + lanes * size_of::<EmitEntry>()
            + self.heads.capacity() * size_of::<Reverse<EmitKey>>()
            + self.spill.capacity() * size_of::<Reverse<EmitEntry>>()
    }

    /// Every buffered entry, ascending by key — the order
    /// [`AnalyzerSnapshot`](crate::AnalyzerSnapshot) stores them in.
    pub(crate) fn sorted(&self) -> Vec<EmitEntry> {
        let mut all: Vec<EmitEntry> = self
            .lanes
            .iter()
            .flatten()
            .chain(self.spill.iter().map(|Reverse(e)| e))
            .cloned()
            .collect();
        all.sort_unstable_by_key(EmitEntry::key);
        all
    }
}

impl FromIterator<EmitEntry> for EmitLanes {
    fn from_iter<I: IntoIterator<Item = EmitEntry>>(entries: I) -> Self {
        let mut lanes = EmitLanes::default();
        for e in entries {
            lanes.push(e);
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{EventKind, StatementId};
    use proptest::prelude::*;

    /// One step of a generated buffer history.
    #[derive(Debug, Clone)]
    enum Op {
        /// The common case: `delta` past the processor's latest time.
        Chain { proc: u16, delta: u64 },
        /// A fork from a basis `back` behind the processor's latest time
        /// (a loop-begin anchor behind the frontier, or a task begin
        /// chained from an earlier spawn): sorts before the lane's tail.
        Fork { proc: u16, back: u64 },
        /// An overhead clamp: the lane tail's time again, under a
        /// smaller `seq`.
        Clamp { proc: u16 },
        /// Pops everything timed below `watermark`.
        Drain { watermark: u64 },
        /// Snapshot, compare, and continue from the restored image.
        SnapshotRestore,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Processor ids include a far-away one: lanes are sparse.
        let proc = || prop_oneof![0u16..4, Just(4095u16)];
        prop_oneof![
            (proc(), 0u64..40).prop_map(|(proc, delta)| Op::Chain { proc, delta }),
            (proc(), 0u64..40).prop_map(|(proc, delta)| Op::Chain { proc, delta }),
            (proc(), 0u64..40).prop_map(|(proc, delta)| Op::Chain { proc, delta }),
            (proc(), 1u64..120).prop_map(|(proc, back)| Op::Fork { proc, back }),
            proc().prop_map(|proc| Op::Clamp { proc }),
            (0u64..2000).prop_map(|watermark| Op::Drain { watermark }),
            Just(Op::SnapshotRestore),
        ]
    }

    fn entry(time: u64, seq: u64, proc: u16, idx: usize) -> EmitEntry {
        let kind = EventKind::Statement {
            stmt: StatementId(0),
        };
        EmitEntry {
            event: Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind),
            idx,
        }
    }

    /// Runs `ops` against the lanes and against a plain binary heap;
    /// returns (entries popped, entries spilled).
    fn run_against_model(ops: &[Op]) -> (usize, u64) {
        let mut lanes = EmitLanes::default();
        let mut model: BinaryHeap<Reverse<EmitEntry>> = BinaryHeap::new();
        // Per processor: time and seq of the latest entry pushed.
        let mut latest = std::collections::BTreeMap::<u16, (u64, u64)>::new();
        let (mut idx, mut popped, mut spilled) = (0usize, 0usize, 0u64);
        for op in ops {
            let pushed = match *op {
                Op::Chain { proc, delta } => {
                    let (t, _) = latest.get(&proc).copied().unwrap_or((1000, 0));
                    Some(entry(t + delta, 1000 + idx as u64, proc, idx))
                }
                Op::Fork { proc, back } => {
                    let (t, _) = latest.get(&proc).copied().unwrap_or((1000, 0));
                    Some(entry(t.saturating_sub(back), 1000 + idx as u64, proc, idx))
                }
                Op::Clamp { proc } => latest
                    .get(&proc)
                    .filter(|&&(_, seq)| seq > 0)
                    .map(|&(t, seq)| entry(t, seq - 1, proc, idx)),
                Op::Drain { watermark } => {
                    let wm = Time::from_nanos(watermark);
                    while let Some(got) = lanes.pop_below(wm) {
                        let Reverse(want) = model.pop().expect("model holds as many");
                        assert_eq!(got.key(), want.key());
                        popped += 1;
                    }
                    assert!(model.peek().is_none_or(|Reverse(e)| e.event.time >= wm));
                    None
                }
                Op::SnapshotRestore => {
                    let image = lanes.sorted();
                    let mut want: Vec<EmitEntry> =
                        model.iter().map(|Reverse(e)| e.clone()).collect();
                    want.sort_by_key(EmitEntry::key);
                    assert_eq!(image, want);
                    lanes = image.into_iter().collect();
                    None
                }
            };
            if let Some(e) = pushed {
                latest.insert(e.event.proc.0, (e.event.time.as_nanos(), e.event.seq));
                idx += 1;
                model.push(Reverse(e.clone()));
                spilled += u64::from(lanes.push(e));
            }
            assert_eq!(lanes.len(), model.len());
        }
        // End of stream: the flush is the rest of the heap's pop order.
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(lanes.pop().map(|e| e.key()), Some(want.key()));
            popped += 1;
        }
        assert!(lanes.pop().is_none() && lanes.len() == 0 && lanes.peek_time().is_none());
        (popped, spilled)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes (appending, forking behind the
        /// tail, clamped onto the tail with a smaller seq), watermark
        /// drains and snapshot → restore pops exactly what a
        /// `BinaryHeap<Reverse<EmitEntry>>` pops, and snapshots the same
        /// sorted image.
        #[test]
        fn lanes_pop_like_a_binary_heap(ops in proptest::collection::vec(op(), 1..200)) {
            run_against_model(&ops);
        }
    }

    /// The generator above is not trusted to reach the spill path by
    /// luck: each of its three out-of-order shapes is forced here.
    #[test]
    fn out_of_order_arrivals_take_the_spill_path() {
        let chain = |proc| Op::Chain { proc, delta: 10 };
        for late in [
            Op::Fork { proc: 1, back: 15 },
            Op::Fork {
                proc: 1,
                back: 1000,
            },
            Op::Clamp { proc: 1 },
        ] {
            let ops = [
                chain(0),
                chain(1),
                chain(1),
                chain(0),
                late,
                chain(1),
                chain(0),
            ];
            let (popped, spilled) = run_against_model(&ops);
            // The late entry spills, and so may the one chained from it.
            assert!(
                popped == 7 && spilled >= 1,
                "{popped} popped, {spilled} spilled"
            );
        }
        // A fork onto an *empty* lane has no tail to sort before.
        let (_, spilled) = run_against_model(&[chain(0), Op::Fork { proc: 1, back: 500 }]);
        assert_eq!(spilled, 0);
    }

    /// A drained backlog gives its memory back; a steady lane keeps its
    /// few slots.
    #[test]
    fn emptied_lanes_release_a_large_backlog() {
        let mut lanes = EmitLanes::default();
        for i in 0..(4 * RELEASE_CAPACITY) {
            lanes.push(entry(i as u64, i as u64, 0, i));
        }
        lanes.push(entry(0, 0, 1, usize::MAX));
        while lanes.pop().is_some() {}
        assert_eq!(lanes.lanes[0].capacity(), 0);
        assert!(lanes.lanes[1].capacity() > 0);
    }
}
