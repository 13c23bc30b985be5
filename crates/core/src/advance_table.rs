//! The advance tag table of the streaming analyzer.
//!
//! One slot per `(variable, tag)`: the `advance` event's record once it
//! has arrived, and — before that — the `awaitE`s already waiting for
//! it. The record is looked up when the partner `awaitE` arrives and
//! again when the advance resolves; the waiters are taken by the
//! advance's arrival and are, while they wait, the batch validator's
//! `MissingAdvance` candidates. It is the analyzer's one structure that
//! grows with the trace's whole synchronization history (lenient pairing
//! lets an `awaitE` precede its `advance`, so no tag can be retired
//! early), which makes its layout the difference between a 10 MB
//! scattered hash table and a 3 MB array.
//!
//! Advance tags are non-negative and, in every DOACROSS trace,
//! consecutive per variable. [`AdvanceTable`] therefore keeps one vector
//! per variable, indexed by `tag − first tag advanced`, and a lookup is
//! an index. **Occupancy invariant:** a vector never grows to more than
//! twice its slots holding an advance — a tag that would break that (far
//! ahead of the rest, or below the variable's first tag) goes to a hash
//! map instead. Memory is therefore at most a constant times the
//! advances and waiting ends seen, whatever the tags are. Waiters never
//! decide where an advance goes: they occupy a dense slot only where the
//! vector already reaches or may grow under the same rule, and otherwise
//! wait in the hash map, so advances land exactly where they would with
//! no waiters at all. A waiter needs no more room than the record it
//! stands in for; the second and later ends waiting on one tag are
//! chained in a side arena. Iteration is in `(variable, tag)` order
//! without sorting the dense part; only the spilled keys are sorted.

use crate::streaming::FxMap;
use ppa_trace::{SyncTag, SyncVarId, Time};
use std::collections::BTreeMap;

/// What the analyzer knows of one `advance` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdvanceRec {
    /// Arrival index of the advance.
    pub(crate) id: usize,
    /// Its approximated time, once resolved.
    pub(crate) ta: Option<Time>,
}

/// Tags with waiting ends, ascending, each with its ends in arrival
/// order: [`AdvanceTable::waiting_ends`].
pub(crate) type WaitingEnds = Vec<((SyncVarId, SyncTag), Vec<usize>)>;

/// How [`AdvanceTable::insert`] stored a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inserted {
    /// Into the variable's vector.
    Dense,
    /// Into the hash spill: the tag would have dropped the vector's
    /// occupancy below one half.
    Spilled,
    /// Not at all: the key already holds a record.
    Duplicate,
}

/// One `(variable, tag)` slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TagSlot {
    #[default]
    Free,
    /// `awaitE`s waiting for this tag's advance to arrive.
    Waiting(Waiters),
    Advance(AdvanceRec),
}

/// The ends waiting on one tag: the first inline, the later ones chained
/// through [`AdvanceTable::extra`], newest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiters {
    first: usize,
    /// Index of the newest later end in the arena, or [`NIL`].
    more: u32,
}

/// A later end waiting on a tag, and the next older one ([`NIL`] ends
/// the chain). Free entries chain the arena's free list the same way.
#[derive(Debug, Clone, Copy)]
struct ExtraWaiter {
    end: usize,
    next: u32,
}

const NIL: u32 = u32::MAX;

// The slot is what every dense vector is made of: waiting must cost no
// more room than the advance record it stands in for.
const _: () = assert!(std::mem::size_of::<TagSlot>() <= 24);

/// One variable's slots, indexed by `tag − base`.
#[derive(Debug, Default)]
struct VarTable {
    /// The first tag this variable advanced.
    base: i64,
    slots: Vec<TagSlot>,
    /// Slots holding an advance.
    occupied: usize,
    /// Slots holding waiters.
    waiting: usize,
    /// No slot below this index holds waiters.
    waiting_from: usize,
}

impl VarTable {
    #[inline]
    fn index(&self, tag: SyncTag) -> Option<usize> {
        usize::try_from(tag.0.checked_sub(self.base)?).ok()
    }
}

/// `(variable, tag) → advance or waiting ends`, dense per variable with
/// a hash spill (see the module docs).
#[derive(Debug)]
pub(crate) struct AdvanceTable {
    vars: BTreeMap<SyncVarId, VarTable>,
    spill: FxMap<(SyncVarId, SyncTag), TagSlot>,
    /// Later waiting ends, chained per tag; freed entries are reused.
    extra: Vec<ExtraWaiter>,
    /// Head of the arena's free list, or [`NIL`].
    free: u32,
    /// Advances held, dense and spilled together.
    len: usize,
}

impl Default for AdvanceTable {
    fn default() -> Self {
        AdvanceTable {
            vars: BTreeMap::new(),
            spill: FxMap::default(),
            extra: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl AdvanceTable {
    /// Advance records held, dense and spilled together (waiters not
    /// counted).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held: every variable's vector, the variable map's
    /// entries, the spill's slots and the waiter arena (capacity ×
    /// element size).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self.vars.values().map(|t| t.slots.capacity()).sum();
        self.vars.len() * size_of::<(SyncVarId, VarTable)>()
            + slots * size_of::<TagSlot>()
            + self.spill.capacity() * size_of::<((SyncVarId, SyncTag), TagSlot)>()
            + self.extra.capacity() * size_of::<ExtraWaiter>()
    }

    /// Stores `rec` under `(var, tag)` unless the key already holds an
    /// advance, appending the ends that were waiting for it to `woken`
    /// in arrival order.
    pub(crate) fn insert(
        &mut self,
        var: SyncVarId,
        tag: SyncTag,
        rec: AdvanceRec,
        woken: &mut Vec<usize>,
    ) -> Inserted {
        if !self.spill.is_empty() {
            match self.spill.get(&(var, tag)) {
                Some(TagSlot::Advance(_)) => return Inserted::Duplicate,
                Some(&TagSlot::Waiting(w)) => {
                    self.spill.remove(&(var, tag));
                    take(&mut self.extra, &mut self.free, w, woken);
                }
                _ => {}
            }
        }
        let table = self.vars.entry(var).or_insert_with(|| VarTable {
            base: tag.0,
            ..VarTable::default()
        });
        if let Some(i) = table.index(tag) {
            // Grow to hold index `i` only if that keeps at least every
            // other slot occupied (so `i + 1` cannot overflow either).
            if i >= table.slots.len() && i < (table.occupied + 1) * 2 {
                table.slots.resize(i + 1, TagSlot::Free);
            }
            if let Some(slot) = table.slots.get_mut(i) {
                match *slot {
                    TagSlot::Advance(_) => return Inserted::Duplicate,
                    TagSlot::Waiting(w) => {
                        table.waiting -= 1;
                        take(&mut self.extra, &mut self.free, w, woken);
                    }
                    TagSlot::Free => {}
                }
                *slot = TagSlot::Advance(rec);
                table.occupied += 1;
                self.len += 1;
                return Inserted::Dense;
            }
        }
        self.spill.insert((var, tag), TagSlot::Advance(rec));
        self.len += 1;
        Inserted::Spilled
    }

    /// Records the `awaitE` with arrival index `end` as waiting for the
    /// advance of `(var, tag)`, which has not arrived. Ends are added in
    /// arrival order.
    pub(crate) fn add_waiter(&mut self, var: SyncVarId, tag: SyncTag, end: usize) {
        if !self.spill.is_empty() {
            if let Some(TagSlot::Waiting(w)) = self.spill.get_mut(&(var, tag)) {
                push_extra(&mut self.extra, &mut self.free, w, end);
                return;
            }
        }
        let fresh = TagSlot::Waiting(Waiters {
            first: end,
            more: NIL,
        });
        if let Some(table) = self.vars.get_mut(&var) {
            if let Some(i) = table.index(tag) {
                // Only as far as the occupancy rule already lets the
                // vector reach, so waiters never move an advance.
                if i >= table.slots.len() && i < table.occupied * 2 {
                    table.slots.resize(i + 1, TagSlot::Free);
                }
                if let Some(slot) = table.slots.get_mut(i) {
                    match slot {
                        TagSlot::Free => {
                            *slot = fresh;
                            if table.waiting == 0 || i < table.waiting_from {
                                table.waiting_from = i;
                            }
                            table.waiting += 1;
                        }
                        TagSlot::Waiting(w) => push_extra(&mut self.extra, &mut self.free, w, end),
                        TagSlot::Advance(_) => unreachable!("ends wait only for missing advances"),
                    }
                    return;
                }
            }
        }
        self.spill.insert((var, tag), fresh);
    }

    /// The record under `(var, tag)`, if its advance has arrived.
    #[inline]
    pub(crate) fn get(&self, var: SyncVarId, tag: SyncTag) -> Option<&AdvanceRec> {
        let dense = self.vars.get(&var).and_then(|t| t.slots.get(t.index(tag)?));
        let slot = match dense {
            Some(TagSlot::Free) | None if !self.spill.is_empty() => self.spill.get(&(var, tag)),
            found => found,
        };
        match slot {
            Some(TagSlot::Advance(rec)) => Some(rec),
            _ => None,
        }
    }

    /// Mutable access to the record under `(var, tag)`, if any.
    #[inline]
    pub(crate) fn get_mut(&mut self, var: SyncVarId, tag: SyncTag) -> Option<&mut AdvanceRec> {
        let dense = self
            .vars
            .get_mut(&var)
            .and_then(|t| t.index(tag).and_then(|i| t.slots.get_mut(i)));
        let slot = match dense {
            Some(TagSlot::Free) | None if !self.spill.is_empty() => self.spill.get_mut(&(var, tag)),
            found => found,
        };
        match slot {
            Some(TagSlot::Advance(rec)) => Some(rec),
            _ => None,
        }
    }

    /// Every advance record in ascending `(variable, tag)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((SyncVarId, SyncTag), &AdvanceRec)> {
        let dense = self.vars.iter().flat_map(|(&var, t)| {
            t.slots
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| match slot {
                    // In range by construction: the slot was indexed from a tag.
                    TagSlot::Advance(rec) => Some(((var, SyncTag(t.base + i as i64)), rec)),
                    _ => None,
                })
        });
        let mut spilled: Vec<_> = self
            .spill
            .iter()
            .filter_map(|(&k, slot)| match slot {
                TagSlot::Advance(rec) => Some((k, rec)),
                _ => None,
            })
            .collect();
        spilled.sort_unstable_by_key(|&(k, _)| k);
        MergeByKey {
            a: dense.peekable(),
            b: spilled.into_iter().peekable(),
        }
    }

    /// Every tag with waiting ends, ascending, each with its ends in
    /// arrival order. Walks only the part of each vector that can hold
    /// waiters.
    pub(crate) fn waiting_ends(&self) -> WaitingEnds {
        let ends = |w: &Waiters| {
            let mut v = vec![w.first];
            let mut at = w.more;
            while at != NIL {
                let x = self.extra[at as usize];
                v.push(x.end);
                at = x.next;
            }
            v[1..].reverse();
            v
        };
        let mut spilled: Vec<_> = self
            .spill
            .iter()
            .filter_map(|(&k, slot)| match slot {
                TagSlot::Waiting(w) => Some((k, ends(w))),
                _ => None,
            })
            .collect();
        spilled.sort_unstable_by_key(|(k, _)| *k);
        let dense = self.vars.iter().flat_map(|(&var, t)| {
            t.slots[t.waiting_from.min(t.slots.len())..]
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| match slot {
                    TagSlot::Waiting(w) => {
                        let tag = SyncTag(t.base + (t.waiting_from + i) as i64);
                        Some(((var, tag), w))
                    }
                    _ => None,
                })
                .take(t.waiting)
        });
        MergeByKey {
            a: dense.map(|(k, w)| (k, ends(w))).peekable(),
            b: spilled.into_iter().peekable(),
        }
        .collect()
    }
}

/// Appends `end` to the later ends of `w`.
fn push_extra(extra: &mut Vec<ExtraWaiter>, free: &mut u32, w: &mut Waiters, end: usize) {
    let node = ExtraWaiter { end, next: w.more };
    w.more = if *free != NIL {
        let at = *free;
        *free = extra[at as usize].next;
        extra[at as usize] = node;
        at
    } else {
        extra.push(node);
        u32::try_from(extra.len() - 1).expect("fewer than 2^32 later waiting ends")
    };
}

/// Moves the ends of `w` to `woken` in arrival order, freeing their
/// arena entries.
fn take(extra: &mut [ExtraWaiter], free: &mut u32, w: Waiters, woken: &mut Vec<usize>) {
    woken.push(w.first);
    let from = woken.len();
    let mut at = w.more;
    while at != NIL {
        let node = extra[at as usize];
        woken.push(node.end);
        extra[at as usize].next = *free;
        *free = at;
        at = node.next;
    }
    woken[from..].reverse();
}

/// Two-way merge of key-sorted iterators with disjoint keys.
struct MergeByKey<A: Iterator, B: Iterator> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<K: Ord, V, A, B> Iterator for MergeByKey<A, B>
where
    A: Iterator<Item = (K, V)>,
    B: Iterator<Item = (K, V)>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        match (self.a.peek(), self.b.peek()) {
            (Some((ka, _)), Some((kb, _))) if kb < ka => self.b.next(),
            (Some(_), _) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rec(id: usize) -> AdvanceRec {
        AdvanceRec { id, ta: None }
    }

    /// One step of a model run: an advance or an `awaitE` on a key.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Advance(u32, i64),
        AwaitEnd(u32, i64),
    }

    /// The table's model: the advance records, and the ends waiting on
    /// keys whose advance has not arrived.
    #[derive(Default)]
    struct Model {
        advances: BTreeMap<(SyncVarId, SyncTag), AdvanceRec>,
        waiting: BTreeMap<(SyncVarId, SyncTag), Vec<usize>>,
    }

    fn key(var: u32, tag: i64) -> (SyncVarId, SyncTag) {
        (SyncVarId(var), SyncTag(tag))
    }

    /// Applies `ops` in order (ids = positions) to the table and to a
    /// `BTreeMap` model, checking after every step: the verdict of every
    /// insert and the ends it woke, the count, the sorted walks of
    /// advances and of waiters, the earliest waiting end, and the
    /// occupancy invariant. Then every lookup hit and near miss.
    fn check_ops(ops: &[Op]) -> AdvanceTable {
        let mut table = AdvanceTable::default();
        let mut model = Model::default();
        let mut woken = Vec::new();
        for (id, &op) in ops.iter().enumerate() {
            match op {
                Op::Advance(var, tag) => {
                    let k = key(var, tag);
                    woken.clear();
                    let stored = table.insert(k.0, k.1, rec(id), &mut woken);
                    let fresh = !model.advances.contains_key(&k);
                    assert_eq!(stored != Inserted::Duplicate, fresh, "insert of {k:?}");
                    if fresh {
                        model.advances.insert(k, rec(id));
                        let want = model.waiting.remove(&k).unwrap_or_default();
                        assert_eq!(woken, want, "ends woken by {k:?}");
                    } else {
                        assert!(woken.is_empty());
                    }
                }
                Op::AwaitEnd(var, tag) => {
                    let k = key(var, tag);
                    // The analyzer registers an end only while its
                    // advance is missing.
                    if table.get(k.0, k.1).is_none() {
                        table.add_waiter(k.0, k.1, id);
                        model.waiting.entry(k).or_default().push(id);
                    }
                }
            }
            assert_eq!(table.len(), model.advances.len());
            let waiting: Vec<_> = model
                .waiting
                .iter()
                .map(|(k, ends)| (*k, ends.clone()))
                .collect();
            assert_eq!(table.waiting_ends(), waiting);
            for t in table.vars.values() {
                assert!(
                    t.slots.len() <= 2 * t.occupied,
                    "a vector at most half empty"
                );
                let advances = t.slots.iter().filter(|s| matches!(s, TagSlot::Advance(_)));
                assert_eq!(advances.count(), t.occupied);
                let first = t
                    .slots
                    .iter()
                    .position(|s| matches!(s, TagSlot::Waiting(_)));
                assert!(first.is_none_or(|i| i >= t.waiting_from));
            }
        }
        assert!(table
            .iter()
            .map(|(k, r)| (k, *r))
            .eq(model.advances.iter().map(|(k, r)| (*k, *r))));
        // The `MissingAdvance` verdict: the earliest waiting end.
        let earliest = |w: &[((SyncVarId, SyncTag), Vec<usize>)]| {
            w.iter().map(|(k, ends)| (ends[0], *k)).min()
        };
        let model_waiting: Vec<_> = model.waiting.into_iter().collect();
        assert_eq!(
            earliest(&table.waiting_ends()),
            earliest(&model_waiting),
            "earliest missing end"
        );
        for (i, (&(var, tag), want)) in model.advances.iter().enumerate() {
            assert_eq!(table.get(var, tag), Some(want));
            // Resolution writes through `get_mut` and reads back.
            let ta = Some(Time::from_nanos(i as u64));
            table.get_mut(var, tag).expect("present").ta = ta;
            assert_eq!(table.get(var, tag).and_then(|r| r.ta), ta);
            // Near misses on both sides.
            for miss in [tag.0.wrapping_sub(1), tag.0.wrapping_add(1)] {
                let k = (var, SyncTag(miss));
                assert_eq!(
                    table.get(k.0, k.1).is_some(),
                    model.advances.contains_key(&k)
                );
                assert_eq!(
                    table.get_mut(k.0, k.1).is_some(),
                    model.advances.contains_key(&k)
                );
            }
        }
        table
    }

    /// Inserts advances on `keys` in order, with no waiters.
    fn check_against_model(keys: &[(u32, i64)]) -> AdvanceTable {
        let ops: Vec<_> = keys.iter().map(|&(v, t)| Op::Advance(v, t)).collect();
        check_ops(&ops)
    }

    fn tags() -> impl Strategy<Value = i64> {
        prop_oneof![
            0i64..40,
            0i64..40,
            1_000i64..1_040,
            any::<i64>().prop_map(i64::abs)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary keys — clustered, scattered, extreme, repeated — in
        /// arbitrary order, advanced and awaited before and after their
        /// advance, behave like a sorted map of advances beside a sorted
        /// map of waiting ends.
        #[test]
        fn table_is_a_sorted_map(
            ops in proptest::collection::vec(
                (any::<bool>(), prop_oneof![0u32..3, Just(u32::MAX)], tags()),
                0..120,
            ),
        ) {
            let ops: Vec<_> = ops
                .into_iter()
                .map(|(adv, v, t)| if adv { Op::Advance(v, t) } else { Op::AwaitEnd(v, t) })
                .collect();
            check_ops(&ops);
        }
    }

    #[test]
    fn consecutive_tags_are_dense_and_never_spill() {
        let keys: Vec<_> = (5..5_000).map(|t| (7, t)).collect();
        let table = check_against_model(&keys);
        assert!(table.spill.is_empty());
        assert_eq!(table.vars[&SyncVarId(7)].slots.len(), keys.len());
    }

    /// The DOACROSS shape: the end of iteration `i + 1` waits for the
    /// advance of iteration `i`, two ends sometimes on one tag. Waiters
    /// stay in the dense vector and leave nothing behind.
    #[test]
    fn ends_before_their_advance_wait_in_the_vector() {
        let mut ops = vec![Op::Advance(0, 0)];
        for t in 1..500 {
            ops.push(Op::AwaitEnd(0, t));
            if t % 7 == 0 {
                ops.push(Op::AwaitEnd(0, t));
            }
            ops.push(Op::Advance(0, t));
            ops.push(Op::AwaitEnd(0, t));
        }
        let table = check_ops(&ops);
        assert!(table.spill.is_empty());
        assert_eq!(table.vars[&SyncVarId(0)].waiting, 0);
        // The arena's entries were freed and reused, not leaked.
        assert_eq!(table.extra.len(), 1);
    }

    /// Waiting ends never change where an advance goes: a table fed
    /// waiters places every advance exactly like one that never saw them.
    #[test]
    fn waiters_do_not_move_advances() {
        let advances: [(u32, i64); 8] = [
            (0, 3),
            (0, 0),
            (0, 9),
            (0, 1),
            (0, 2),
            (0, 40),
            (1, 5),
            (0, 8),
        ];
        let mut ops = Vec::new();
        for &(v, t) in &advances {
            for w in [t + 1, t + 3, t + 100, (t - 2).max(0)] {
                ops.push(Op::AwaitEnd(v, w));
            }
            ops.push(Op::Advance(v, t));
        }
        let (mut with, mut without) = (AdvanceTable::default(), AdvanceTable::default());
        let mut woken = Vec::new();
        for (id, op) in ops.iter().enumerate() {
            match *op {
                Op::Advance(v, t) => {
                    let (var, tag) = key(v, t);
                    let a = with.insert(var, tag, rec(id), &mut woken);
                    let b = without.insert(var, tag, rec(id), &mut woken);
                    assert_eq!(a, b, "placement of {var:?}/{tag:?}");
                }
                Op::AwaitEnd(v, t) => {
                    let (var, tag) = key(v, t);
                    if with.get(var, tag).is_none() {
                        with.add_waiter(var, tag, id);
                    }
                }
            }
        }
    }

    #[test]
    fn far_and_extreme_tags_spill_without_growing_the_vector() {
        let table = check_against_model(&[(0, 0), (0, 1 << 40), (0, 3), (0, i64::MAX)]);
        // 0 and 3 fit a 4-slot vector at half occupancy; the others would not.
        assert_eq!(table.vars[&SyncVarId(0)].slots.len(), 4);
        assert_eq!(table.spill.len(), 2);
        // A spilled key that a later, denser vector grows past is still
        // found, and still a duplicate.
        let mut keys = vec![(1, 0), (1, 10)];
        keys.extend((1..=9).map(|t| (1, t)));
        keys.extend([(1, 11), (1, 10)]);
        let table = check_against_model(&keys);
        assert_eq!(table.spill.len(), 1);
        assert_eq!(table.vars[&SyncVarId(1)].slots.len(), 12);
        // Hostile waiting tags spill too, and wake like dense ones.
        let ops = [
            Op::AwaitEnd(2, 5),
            Op::AwaitEnd(2, 5),
            Op::Advance(2, 0),
            Op::AwaitEnd(2, i64::MAX),
            Op::AwaitEnd(2, 1 << 40),
            Op::AwaitEnd(2, 1 << 40),
            Op::Advance(2, 1 << 40),
            Op::Advance(2, 5),
        ];
        let table = check_ops(&ops);
        assert_eq!(table.vars[&SyncVarId(2)].slots.len(), 1);
    }

    #[test]
    fn descending_tags_and_many_variables_stay_within_the_occupancy_bound() {
        let descending: Vec<_> = (0..2_000).rev().map(|t| (0, t)).collect();
        let table = check_against_model(&descending);
        assert_eq!(
            (table.vars[&SyncVarId(0)].slots.len(), table.spill.len()),
            (1, 1_999)
        );
        let mut sparse: Vec<_> = (0..10_000).map(|v| (v * 3, i64::from(v) * 1_000)).collect();
        sparse.push((u32::MAX, 0));
        let table = check_against_model(&sparse);
        assert!(table.spill.is_empty());
        assert!(table.vars.values().all(|t| t.slots.len() == 1));
    }
}
