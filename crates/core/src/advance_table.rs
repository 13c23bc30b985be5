//! The advance tag table of the streaming analyzer.
//!
//! One record per `advance` event, looked up by `(variable, tag)` when
//! the partner `awaitE` arrives and again when the advance resolves. It
//! is the analyzer's one structure that grows with the trace's whole
//! synchronization history (lenient pairing lets an `awaitE` precede its
//! `advance`, so no tag can be retired early), which makes its layout
//! the difference between a 10 MB scattered hash table and a 3 MB array.
//!
//! Advance tags are non-negative and, in every DOACROSS trace,
//! consecutive per variable. [`AdvanceTable`] therefore keeps one vector
//! per variable, indexed by `tag − first tag seen`, and a lookup is an
//! index. **Occupancy invariant:** a vector never grows to more than
//! twice its occupied slots — a tag that would break that (far ahead of
//! the rest, or below the variable's first tag) goes to a hash map
//! instead. Memory is therefore at most a constant times the advances
//! seen, whatever the tags are. Iteration is in `(variable, tag)` order
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

/// One variable's records, indexed by `tag − base`.
#[derive(Debug, Default)]
struct VarTable {
    /// The first tag this variable advanced.
    base: i64,
    slots: Vec<Option<AdvanceRec>>,
    occupied: usize,
}

impl VarTable {
    #[inline]
    fn index(&self, tag: SyncTag) -> Option<usize> {
        usize::try_from(tag.0.checked_sub(self.base)?).ok()
    }
}

/// `(variable, tag) → AdvanceRec`, dense per variable with a hash spill
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct AdvanceTable {
    vars: BTreeMap<SyncVarId, VarTable>,
    spill: FxMap<(SyncVarId, SyncTag), AdvanceRec>,
    len: usize,
}

impl AdvanceTable {
    /// Records held, dense and spilled together.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held: every variable's vector, the variable map's
    /// entries and the spill's slots (capacity × element size).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self.vars.values().map(|t| t.slots.capacity()).sum();
        self.vars.len() * size_of::<(SyncVarId, VarTable)>()
            + slots * size_of::<Option<AdvanceRec>>()
            + self.spill.capacity() * size_of::<((SyncVarId, SyncTag), AdvanceRec)>()
    }

    /// Stores `rec` under `(var, tag)` unless the key is taken.
    pub(crate) fn insert(&mut self, var: SyncVarId, tag: SyncTag, rec: AdvanceRec) -> Inserted {
        if !self.spill.is_empty() && self.spill.contains_key(&(var, tag)) {
            return Inserted::Duplicate;
        }
        let table = self.vars.entry(var).or_insert_with(|| VarTable {
            base: tag.0,
            ..VarTable::default()
        });
        if let Some(i) = table.index(tag) {
            // Grow to hold index `i` only if that keeps at least every
            // other slot occupied (so `i + 1` cannot overflow either).
            if i >= table.slots.len() && i < (table.occupied + 1) * 2 {
                table.slots.resize(i + 1, None);
            }
            if let Some(slot) = table.slots.get_mut(i) {
                if slot.is_some() {
                    return Inserted::Duplicate;
                }
                *slot = Some(rec);
                table.occupied += 1;
                self.len += 1;
                return Inserted::Dense;
            }
        }
        self.spill.insert((var, tag), rec);
        self.len += 1;
        Inserted::Spilled
    }

    /// The record under `(var, tag)`, if any.
    #[inline]
    pub(crate) fn get(&self, var: SyncVarId, tag: SyncTag) -> Option<&AdvanceRec> {
        let dense = self
            .vars
            .get(&var)
            .and_then(|t| t.slots.get(t.index(tag)?)?.as_ref());
        match dense {
            None if !self.spill.is_empty() => self.spill.get(&(var, tag)),
            found => found,
        }
    }

    /// Mutable access to the record under `(var, tag)`, if any.
    #[inline]
    pub(crate) fn get_mut(&mut self, var: SyncVarId, tag: SyncTag) -> Option<&mut AdvanceRec> {
        let dense = self
            .vars
            .get_mut(&var)
            .and_then(|t| t.index(tag).and_then(|i| t.slots.get_mut(i)?.as_mut()));
        match dense {
            None if !self.spill.is_empty() => self.spill.get_mut(&(var, tag)),
            found => found,
        }
    }

    /// Every record in ascending `(variable, tag)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((SyncVarId, SyncTag), &AdvanceRec)> {
        let dense = self.vars.iter().flat_map(|(&var, t)| {
            t.slots.iter().enumerate().filter_map(move |(i, slot)| {
                // In range by construction: the slot was indexed from a tag.
                Some(((var, SyncTag(t.base + i as i64)), slot.as_ref()?))
            })
        });
        let mut spilled: Vec<_> = self.spill.iter().map(|(&k, rec)| (k, rec)).collect();
        spilled.sort_unstable_by_key(|&(k, _)| k);
        MergeByKey {
            a: dense.peekable(),
            b: spilled.into_iter().peekable(),
        }
    }
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

    /// Inserts `keys` in order (ids = positions) and checks the table
    /// against a `BTreeMap`: verdict of every insert, every lookup hit
    /// and miss, the sorted walk, the count, and the occupancy invariant.
    fn check_against_model(keys: &[(u32, i64)]) -> AdvanceTable {
        let mut table = AdvanceTable::default();
        let mut model = BTreeMap::new();
        for (id, &(var, tag)) in keys.iter().enumerate() {
            let key = (SyncVarId(var), SyncTag(tag));
            let stored = table.insert(key.0, key.1, rec(id));
            let fresh = !model.contains_key(&key);
            assert_eq!(stored != Inserted::Duplicate, fresh, "insert of {key:?}");
            model.entry(key).or_insert(rec(id));
        }
        assert_eq!(table.len(), model.len());
        assert!(table
            .iter()
            .map(|(k, r)| (k, *r))
            .eq(model.iter().map(|(k, r)| (*k, *r))));
        for (i, (&(var, tag), want)) in model.iter().enumerate() {
            assert_eq!(table.get(var, tag), Some(want));
            // Resolution writes through `get_mut` and reads back.
            let ta = Some(Time::from_nanos(i as u64));
            table.get_mut(var, tag).expect("present").ta = ta;
            assert_eq!(table.get(var, tag).and_then(|r| r.ta), ta);
            // Near misses on both sides.
            for miss in [tag.0.wrapping_sub(1), tag.0.wrapping_add(1)] {
                let key = (var, SyncTag(miss));
                assert_eq!(table.get(key.0, key.1).is_some(), model.contains_key(&key));
            }
        }
        for t in table.vars.values() {
            assert!(
                t.slots.len() <= 2 * t.occupied,
                "a vector at most half empty"
            );
            assert_eq!(t.slots.iter().flatten().count(), t.occupied);
        }
        table
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary keys — clustered, scattered, extreme, repeated — in
        /// arbitrary order behave like a sorted map.
        #[test]
        fn table_is_a_sorted_map(
            keys in proptest::collection::vec(
                (
                    prop_oneof![0u32..3, Just(u32::MAX)],
                    prop_oneof![0i64..40, 0i64..40, 1_000i64..1_040, any::<i64>().prop_map(i64::abs)],
                ),
                0..120,
            ),
        ) {
            let keys: Vec<_> = keys.into_iter().map(|(v, t)| (v, t.max(0))).collect();
            check_against_model(&keys);
        }
    }

    #[test]
    fn consecutive_tags_are_dense_and_never_spill() {
        let keys: Vec<_> = (5..5_000).map(|t| (7, t)).collect();
        let table = check_against_model(&keys);
        assert!(table.spill.is_empty());
        assert_eq!(table.vars[&SyncVarId(7)].slots.len(), keys.len());
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
