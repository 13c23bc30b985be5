//! The watermark's floor multiset.
//!
//! Every open synchronization construct holds the emission watermark at
//! or below the approximated times it has registered (an `awaitB`'s time
//! until its `awaitE` resolves, a parked event's resolved inputs, a
//! barrier episode's resolved enters). The analyzer adds and removes
//! such floors several times per DOACROSS iteration and reads only their
//! minimum, once per drain. [`Floors`] is a min-heap of floors beside a
//! min-heap of removals not yet applied: a removal that is not the
//! minimum waits in the second heap until it is, so add and remove are
//! O(log n) pushes and the minimum is exact — the same value a sorted
//! multiset gives. Pending removals are folded back once they outnumber
//! the live floors, which keeps the heaps within twice the live count.

use ppa_trace::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pending removals tolerated before a fold, whatever the live count.
const FOLD_SLACK: usize = 32;

/// Exact multiset of watermark floors with O(log n) add and remove and
/// an O(1) minimum (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Floors {
    live: BinaryHeap<Reverse<Time>>,
    /// Removals of floors in `live`, applied when they reach its top.
    gone: BinaryHeap<Reverse<Time>>,
}

impl Floors {
    /// Adds one floor at `t`.
    #[inline]
    pub(crate) fn add(&mut self, t: Time) {
        self.live.push(Reverse(t));
    }

    /// Removes one floor at `t`, which must be present.
    #[inline]
    pub(crate) fn remove(&mut self, t: Time) {
        debug_assert!(self.len() > 0, "floor removed twice");
        self.gone.push(Reverse(t));
        // Keep the top live: `gone` is a sub-multiset of `live`, so once
        // their tops differ `live`'s top is a floor nobody removed.
        while let (Some(a), Some(b)) = (self.live.peek(), self.gone.peek()) {
            if a != b {
                break;
            }
            self.live.pop();
            self.gone.pop();
        }
        if self.gone.len() > self.len() + FOLD_SLACK {
            *self = self.counts().into_iter().collect();
        }
    }

    /// The lowest floor, if any.
    #[inline]
    pub(crate) fn min(&self) -> Option<Time> {
        self.live.peek().map(|r| r.0)
    }

    /// Floors held.
    fn len(&self) -> usize {
        self.live.len() - self.gone.len()
    }

    /// Every floor with its multiplicity, ascending — the snapshot image.
    pub(crate) fn counts(&self) -> Vec<(Time, u32)> {
        let mut live: Vec<Time> = self.live.iter().map(|r| r.0).collect();
        let mut gone: Vec<Time> = self.gone.iter().map(|r| r.0).collect();
        live.sort_unstable();
        gone.sort_unstable();
        let mut gone = gone.into_iter().peekable();
        let mut out: Vec<(Time, u32)> = Vec::new();
        for t in live {
            if gone.next_if_eq(&t).is_some() {
                continue;
            }
            match out.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => out.push((t, 1)),
            }
        }
        out
    }

    /// Heap bytes held by both heaps.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.live.capacity() + self.gone.capacity()) * std::mem::size_of::<Reverse<Time>>()
    }
}

/// Rebuilds the multiset from a [`counts`](Floors::counts) image.
impl FromIterator<(Time, u32)> for Floors {
    fn from_iter<I: IntoIterator<Item = (Time, u32)>>(iter: I) -> Self {
        let live: Vec<Reverse<Time>> = iter
            .into_iter()
            .flat_map(|(t, n)| std::iter::repeat_n(Reverse(t), n as usize))
            .collect();
        Floors {
            live: BinaryHeap::from(live),
            gone: BinaryHeap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `BTreeMap<Time, u32>` multiset: the same minimum
        /// after every operation, the same sorted image, and a heap size
        /// within the fold bound. Removals pick a present floor (the
        /// analyzer removes only what it added), often not the minimum.
        #[test]
        fn floors_are_an_exact_multiset(
            ops in proptest::collection::vec((any::<bool>(), 0u64..24, any::<u64>()), 0..400),
        ) {
            let mut floors = Floors::default();
            let mut model: BTreeMap<Time, u32> = BTreeMap::new();
            for (add, t, pick) in ops {
                if add || model.is_empty() {
                    let t = Time::from_nanos(t);
                    floors.add(t);
                    *model.entry(t).or_insert(0) += 1;
                } else {
                    let i = (pick % model.len() as u64) as usize;
                    let t = *model.keys().nth(i).expect("in range");
                    floors.remove(t);
                    match model.get_mut(&t) {
                        Some(1) => {
                            model.remove(&t);
                        }
                        Some(n) => *n -= 1,
                        None => unreachable!(),
                    }
                }
                prop_assert_eq!(floors.min(), model.keys().next().copied());
                prop_assert_eq!(floors.len(), model.values().map(|&n| n as usize).sum::<usize>());
                prop_assert!(floors.gone.len() <= floors.len() + FOLD_SLACK);
                let image: Vec<(Time, u32)> = model.iter().map(|(&t, &n)| (t, n)).collect();
                prop_assert_eq!(floors.counts(), image.clone());
                let rebuilt: Floors = image.iter().copied().collect();
                prop_assert_eq!(rebuilt.min(), floors.min());
                prop_assert_eq!(rebuilt.counts(), image);
            }
        }
    }

    /// A floor stuck at the bottom (a construct that never closes) while
    /// others come and go above it: the heaps stay bounded.
    #[test]
    fn a_stuck_minimum_does_not_grow_the_heaps() {
        let mut floors = Floors::default();
        floors.add(Time::ZERO);
        for t in 1..10_000u64 {
            floors.add(Time::from_nanos(t));
            floors.remove(Time::from_nanos(t));
            assert_eq!(floors.min(), Some(Time::ZERO));
        }
        assert!(floors.live.len() <= 2 + 2 * FOLD_SLACK);
        assert_eq!(floors.counts(), [(Time::ZERO, 1)]);
    }
}
