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
//!
//! Lanes and spill hold a [`LaneEntry`]: the sort key, the kind's code
//! and its raw fields, 48 bytes where the event and its index take 72.
//! The conversion both ways is generated from the kind table's rows
//! (`code_and_fields` and [`KindCode::with_fields`]).
//!
//! A lane is a queue of fixed-capacity blocks, never a buffer that
//! doubles: it appends a block when its newest is full and drops its
//! oldest once read to the end, so growth never copies an entry. A lane
//! of n entries holds fewer than n + 2 × [`BLOCK`] slots (the read part
//! of its oldest block and the unwritten part of its newest), and one
//! block when it holds only a few. First blocks are [`FIRST_BLOCK`]
//! slots and each new block doubles its predecessor up to [`BLOCK`], so a
//! lane of a steady trace (or of a 4 096-processor one) stays small. A
//! lane down to one block uses it as a ring; full-size blocks read to the
//! end wait in a free list of at most [`FREE_BLOCKS`] for the next lane
//! that grows.

use ppa_trace::{Event, KindCode, ProcessorId, Time};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;

/// The final trace's sort key with the arrival index as the last
/// tie-break (mirroring the batch analysis's stable sort).
pub(crate) type EmitKey = (Time, u64, ProcessorId, usize);

/// Slots of a full-size lane block (24 KiB): the most a lane's memory
/// grows by at once, and the most it holds unused at either end.
pub(crate) const BLOCK: usize = 512;

/// Slots of a lane's first block.
const FIRST_BLOCK: usize = 8;

/// Full-size blocks kept for reuse once their lane has read them.
const FREE_BLOCKS: usize = 8;

/// An entry of the emission reorder buffer as
/// [`AnalyzerSnapshot`](crate::AnalyzerSnapshot) stores it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EmitEntry {
    pub(crate) event: Event,
    pub(crate) idx: usize,
}

/// An entry as the lanes and the spill hold it: the `idx`-th arrival,
/// re-timed, with its kind stored as code and raw fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneEntry {
    time: Time,
    seq: u64,
    idx: usize,
    fields: [u64; 2],
    proc: ProcessorId,
    code: KindCode,
}

// Every resolved event is copied into the lanes and out again at this
// size: the key's 26 bytes, the one-byte code and two 8-byte fields,
// padded.
const _: () = assert!(size_of::<LaneEntry>() == 48);

impl LaneEntry {
    /// The entry for `event`, the `idx`-th arrival; `None` for a repeat
    /// record, whose five fields do not fit. The analyzer refuses one
    /// before it is indexed, so none is ever buffered.
    #[inline]
    pub(crate) fn new(event: &Event, idx: usize) -> Option<LaneEntry> {
        let (code, fields) = event.kind.code_and_fields()?;
        Some(LaneEntry {
            time: event.time,
            seq: event.seq,
            idx,
            fields,
            proc: event.proc,
            code,
        })
    }

    /// The buffered event.
    #[inline]
    pub(crate) fn event(&self) -> Event {
        let kind = self.code.with_fields(&self.fields);
        Event::new(self.time, self.proc, self.seq, kind)
    }

    #[inline]
    fn key(&self) -> EmitKey {
        (self.time, self.seq, self.proc, self.idx)
    }
}

impl EmitEntry {
    #[inline]
    pub(crate) fn key(&self) -> EmitKey {
        (self.event.time, self.event.seq, self.event.proc, self.idx)
    }
}

/// Orders entries like the final trace: by [`EmitKey`].
macro_rules! ord_by_key {
    ($($entry:ty),*) => {$(
        impl PartialEq for $entry {
            fn eq(&self, other: &Self) -> bool {
                self.key() == other.key()
            }
        }
        impl Eq for $entry {}
        impl PartialOrd for $entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.key().cmp(&other.key())
            }
        }
    )*};
}
ord_by_key!(EmitEntry, LaneEntry);

/// Consecutive entries of one lane, oldest first, never grown past the
/// capacity it was made with.
type Block = VecDeque<LaneEntry>;

/// One processor's lane. Pushes go to `newest`; pops come from the
/// oldest of `older`, or from `newest` when `older` is empty, which is
/// then a ring.
#[derive(Debug, Default)]
struct Lane {
    /// Full blocks being read, oldest first; none is empty.
    older: VecDeque<Block>,
    /// The block being written: empty only when the lane is.
    newest: Block,
}

impl Lane {
    #[inline]
    fn front(&self) -> Option<&LaneEntry> {
        match self.older.front() {
            Some(oldest) => oldest.front(),
            None => self.newest.front(),
        }
    }

    fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.older.iter().chain([&self.newest])
    }
}

/// Per-processor FIFO lanes plus a spill heap (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EmitLanes {
    /// One lane per processor index, each ascending by key.
    lanes: Vec<Lane>,
    /// The head key of every non-empty lane; the key's processor names
    /// the lane.
    heads: BinaryHeap<Reverse<EmitKey>>,
    /// Entries that sorted before their lane's tail when they arrived.
    spill: BinaryHeap<Reverse<LaneEntry>>,
    /// Empty full-size blocks, at most [`FREE_BLOCKS`].
    free: Vec<Block>,
    len: usize,
}

/// Gives an emptied block back: a full-size one to `free` while there
/// is room, any other to the allocator.
fn recycle(free: &mut Vec<Block>, block: Block) {
    if block.capacity() == BLOCK && free.len() < FREE_BLOCKS {
        free.push(block);
    }
}

impl EmitLanes {
    /// Buffered entries, lanes and spill together.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Buffers `entry`; true when it had to go to the spill heap.
    #[inline]
    pub(crate) fn push(&mut self, entry: LaneEntry) -> bool {
        self.len += 1;
        let pi = entry.proc.index();
        if pi >= self.lanes.len() {
            self.lanes.resize_with(pi + 1, Lane::default);
        }
        let lane = &mut self.lanes[pi];
        match lane.newest.back() {
            None => self.heads.push(Reverse(entry.key())),
            Some(tail) if entry.key() > tail.key() => {}
            Some(_) => {
                self.spill.push(Reverse(entry));
                return true;
            }
        }
        if lane.newest.len() == lane.newest.capacity() {
            let capacity = match lane.newest.capacity() {
                0 => FIRST_BLOCK,
                full => (2 * full).min(BLOCK),
            };
            let reused = if capacity == BLOCK {
                self.free.pop()
            } else {
                None
            };
            let block = reused.unwrap_or_else(|| Block::with_capacity(capacity));
            let full = std::mem::replace(&mut lane.newest, block);
            if !full.is_empty() {
                lane.older.push_back(full);
            }
        }
        lane.newest.push_back(entry);
        false
    }

    /// The approximated time of the entry [`pop`](Self::pop) would
    /// return.
    #[inline]
    fn peek_time(&self) -> Option<Time> {
        match (self.heads.peek(), self.spill.peek()) {
            (Some(Reverse(h)), Some(Reverse(s))) => Some(h.0.min(s.time)),
            (Some(Reverse(h)), None) => Some(h.0),
            (None, Some(Reverse(s))) => Some(s.time),
            (None, None) => None,
        }
    }

    /// [`pop`](Self::pop), if that entry is timed before `watermark`.
    #[inline]
    pub(crate) fn pop_below(&mut self, watermark: Time) -> Option<LaneEntry> {
        if self.peek_time()? < watermark {
            self.pop()
        } else {
            None
        }
    }

    /// Removes and returns the entry with the smallest key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<LaneEntry> {
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
        let entry = match lane.older.front_mut() {
            Some(oldest) => {
                let entry = oldest.pop_front();
                if oldest.is_empty() {
                    recycle(&mut self.free, lane.older.pop_front()?);
                }
                entry
            }
            None => lane.newest.pop_front(),
        };
        match lane.front() {
            // Re-keys the top in place: one sift-down, not a pop and a push.
            Some(next) => head.0 = next.key(),
            None => {
                PeekMut::pop(head);
                // An emptied lane keeps a small block for what comes next,
                // but not a drained backlog's full-size one.
                if lane.newest.capacity() == BLOCK {
                    recycle(&mut self.free, std::mem::take(&mut lane.newest));
                }
            }
        }
        entry
    }

    /// Heap bytes of the lanes (capacity × element size): the lane
    /// table, every lane's blocks, the free blocks and the head heap.
    pub(crate) fn lanes_bytes(&self) -> usize {
        let block_bytes = |b: &Block| b.capacity() * size_of::<LaneEntry>();
        let lanes: usize = self
            .lanes
            .iter()
            .map(|lane| {
                lane.older.capacity() * size_of::<Block>()
                    + lane.blocks().map(block_bytes).sum::<usize>()
            })
            .sum();
        self.lanes.capacity() * size_of::<Lane>()
            + lanes
            + self.free.capacity() * size_of::<Block>()
            + self.free.iter().map(block_bytes).sum::<usize>()
            + self.heads.capacity() * size_of::<Reverse<EmitKey>>()
    }

    /// Heap bytes of the spill heap.
    pub(crate) fn spill_bytes(&self) -> usize {
        self.spill.capacity() * size_of::<Reverse<LaneEntry>>()
    }

    /// Every buffered entry, ascending by key — the order
    /// [`AnalyzerSnapshot`](crate::AnalyzerSnapshot) stores them in.
    pub(crate) fn sorted(&self) -> Vec<EmitEntry> {
        let mut all: Vec<EmitEntry> = self
            .lanes
            .iter()
            .flat_map(Lane::blocks)
            .flatten()
            .chain(self.spill.iter().map(|Reverse(e)| e))
            .map(|e| EmitEntry {
                event: e.event(),
                idx: e.idx,
            })
            .collect();
        all.sort_unstable_by_key(EmitEntry::key);
        all
    }
}

impl FromIterator<LaneEntry> for EmitLanes {
    fn from_iter<I: IntoIterator<Item = LaneEntry>>(entries: I) -> Self {
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

    fn lane_entry(e: &EmitEntry) -> LaneEntry {
        LaneEntry::new(&e.event, e.idx).expect("a statement converts")
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
                        assert_eq!((got.key(), got.event()), (want.key(), want.event));
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
                    lanes = image.iter().map(lane_entry).collect();
                    None
                }
            };
            if let Some(e) = pushed {
                latest.insert(e.event.proc.0, (e.event.time.as_nanos(), e.event.seq));
                idx += 1;
                model.push(Reverse(e.clone()));
                spilled += u64::from(lanes.push(lane_entry(&e)));
            }
            assert_eq!(lanes.len(), model.len());
        }
        // End of stream: the flush is the rest of the heap's pop order.
        while let Some(Reverse(want)) = model.pop() {
            let got = lanes.pop().map(|e| (e.key(), e.event()));
            assert_eq!(got, Some((want.key(), want.event)));
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

    /// Slots held by every lane's blocks.
    fn slots(lanes: &EmitLanes) -> usize {
        lanes
            .lanes
            .iter()
            .flat_map(Lane::blocks)
            .map(Block::capacity)
            .sum()
    }

    /// A backlog grows block by block, never by more than two blocks of
    /// slack: the unwritten part of its newest and the read part of its
    /// oldest.
    #[test]
    fn lanes_grow_in_blocks() {
        let mut lanes = EmitLanes::default();
        for i in 0..20 * BLOCK {
            let e = entry(i as u64, i as u64, 0, i);
            lanes.push(lane_entry(&e));
            if i % 4 == 3 {
                lanes.pop();
            }
            assert!(slots(&lanes) < lanes.len() + 2 * BLOCK, "{i}");
        }
        assert!(lanes.lanes[0].older.len() > 10);
        assert!(lanes.lanes[0].blocks().all(|b| b.capacity() <= BLOCK));
    }

    /// A drained backlog gives its memory back, but for a bounded few
    /// full-size blocks kept for reuse; a steady lane keeps its first
    /// block.
    #[test]
    fn emptied_lanes_release_a_large_backlog() {
        let mut lanes = EmitLanes::default();
        let n = 20 * BLOCK;
        for i in 0..n {
            lanes.push(lane_entry(&entry(i as u64, i as u64, 0, i)));
        }
        // A steady lane beside it: one entry in, one out.
        for i in 0..4 * FIRST_BLOCK {
            let e = entry(i as u64, i as u64, 1, n + i);
            lanes.push(lane_entry(&e));
            while lanes.lanes[1].front().is_some() {
                let popped = lanes.pop().expect("buffered");
                if popped.proc == ProcessorId(1) {
                    break;
                }
            }
        }
        assert!(lanes.lanes[1].older.is_empty());
        assert_eq!(lanes.lanes[1].newest.capacity(), FIRST_BLOCK);
        while lanes.pop().is_some() {}
        assert_eq!(
            slots(&lanes),
            FIRST_BLOCK,
            "a drained backlog keeps no block"
        );
        assert_eq!(lanes.free.len(), FREE_BLOCKS);
        assert!(lanes
            .free
            .iter()
            .all(|b| b.is_empty() && b.capacity() == BLOCK));
        assert_eq!(
            lanes.lanes_bytes(),
            lanes.lanes.capacity() * size_of::<Lane>()
                + lanes
                    .lanes
                    .iter()
                    .map(|l| l.older.capacity())
                    .sum::<usize>()
                    * size_of::<Block>()
                + FIRST_BLOCK * size_of::<LaneEntry>()
                + lanes.free.capacity() * size_of::<Block>()
                + FREE_BLOCKS * BLOCK * size_of::<LaneEntry>()
                + lanes.heads.capacity() * size_of::<Reverse<EmitKey>>()
        );
    }

    /// Every kind but the container survives the compact entry with its
    /// fields at the edges of their types, each pair of values in both
    /// orders, so a conversion that swaps or truncates a field fails.
    #[test]
    fn every_kind_survives_the_compact_entry() {
        let edges = [0, 1, u64::from(u32::MAX), i64::MIN as u64, u64::MAX];
        for code in KindCode::ALL {
            for a in edges {
                for b in edges {
                    let kind = code.with_fields(&[a, b]);
                    let event = Event::new(Time::from_nanos(a), ProcessorId(b as u16), b, kind);
                    let Some(lane) = LaneEntry::new(&event, a as usize) else {
                        assert_eq!(code, KindCode::Repeat);
                        continue;
                    };
                    assert_ne!(code, KindCode::Repeat);
                    assert_eq!(lane.event(), event, "{kind}");
                    assert_eq!(lane.idx, a as usize);
                }
            }
        }
    }
}
