//! Trace events.
//!
//! An event marks the *completion* of one observable action on one
//! processor, stamped with the time at which the recording instrumentation
//! fired. Synchronization actions follow the paper's instrumentation scheme
//! (§4.2.2): an `advance` is recorded after the advance operation completes;
//! an `await` produces **two** events, `awaitB` at entry and `awaitE` after
//! the awaited advance has occurred.

use crate::ids::{
    BarrierId, LockId, LoopId, ProcessorId, SemId, StatementId, SyncTag, SyncVarId, TaskId,
};
use crate::kind::KindGroup;
use crate::time::Time;
use core::fmt;
use serde::{Deserialize, Serialize};

/// The longest pattern (in events) a [`EventKind::Repeat`] record may
/// describe. The suppressor never looks further back than this, so an
/// expander keeping this many logical events of per-processor history
/// can always resolve a record's pattern.
pub const REPEAT_MAX_PATTERN: usize = 16;

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are named after the id types they hold
pub enum EventKind {
    /// Start of the traced program region on the emitting processor.
    ProgramBegin,
    /// End of the traced program region on the emitting processor.
    ProgramEnd,
    /// Entry into a loop construct (emitted once, by the dispatching
    /// processor).
    LoopBegin { loop_id: LoopId },
    /// Exit from a loop construct, after its terminating barrier.
    LoopEnd { loop_id: LoopId },
    /// Start of one loop iteration on the executing processor.
    IterationBegin { loop_id: LoopId, iter: u64 },
    /// End of one loop iteration on the executing processor.
    IterationEnd { loop_id: LoopId, iter: u64 },
    /// Execution of one (instrumented) program statement.
    Statement { stmt: StatementId },
    /// `advance(A, i)` completed: tag `i` is now marked in `A`.
    Advance { var: SyncVarId, tag: SyncTag },
    /// `await(A, i)` began (the paper's `awaitB`).
    AwaitBegin { var: SyncVarId, tag: SyncTag },
    /// `await(A, i)` completed (the paper's `awaitE`): tag `i` had been
    /// advanced, possibly after a wait.
    AwaitEnd { var: SyncVarId, tag: SyncTag },
    /// Arrival at a barrier.
    BarrierEnter { barrier: BarrierId },
    /// Release from a barrier (all participants arrived).
    BarrierExit { barrier: BarrierId },
    /// Lock acquisition completed: the emitting processor holds `lock`.
    /// The k-th acquire of a lock (trace order) is enabled by its
    /// (k-1)-th release, so a blocked acquire is approximated like an
    /// await whose matching release plays the advance's role.
    LockAcquire { lock: LockId },
    /// Lock release completed. Releases are recorded *before* the lock is
    /// actually surrendered, so an acquire's enabling release always
    /// precedes it in the measured total order.
    LockRelease { lock: LockId },
    /// Semaphore P (decrement) completed on `sem`. The k-th P (0-indexed,
    /// arrival order) is enabled by the k-th V; a semaphore's initial
    /// permits are traced as leading V events.
    SemAcquire { sem: SemId },
    /// Semaphore V (increment) completed on `sem`, recorded before the
    /// permit becomes visible to waiters.
    SemRelease { sem: SemId },
    /// Task-episode fork marker. Each episode carries two forks: the
    /// first (arrival order) is the parent's spawn, the second is the
    /// child's begin, causally anchored to the spawn.
    TaskFork { task: TaskId },
    /// Task-episode join marker. The first join (arrival order) is the
    /// child's end, the second is the parent's join-return, which blocks
    /// on the child's end like an await on an advance.
    TaskJoin { task: TaskId },
    /// A counted run-length record standing in for `len * count`
    /// suppressed events on the carrying processor (see QUERIES.md).
    ///
    /// The pattern is the `len` logical events that immediately precede
    /// this record on the same processor; occurrence `r` (1..=count) at
    /// pattern position `j` reproduces pattern event `j` with `time +=
    /// r*dt_ns`, `seq += r*dseq`, and its integer field (iteration number
    /// or sync tag) shifted by `r*dfield`. The record's own `(time, seq)`
    /// are those of the first suppressed event (pattern position 0 at
    /// `r = 1`), so the record occupies exactly that event's slot in the
    /// stream's total order.
    Repeat {
        /// Pattern length in events.
        len: u32,
        /// Number of suppressed pattern occurrences.
        count: u32,
        /// Per-occurrence time stride, nanoseconds.
        dt_ns: u64,
        /// Per-occurrence sequence-number stride.
        dseq: u64,
        /// Per-occurrence shift of each event's integer field.
        dfield: i64,
    },
}

impl EventKind {
    /// True for the three advance/await synchronization kinds.
    #[inline]
    pub fn is_sync(&self) -> bool {
        self.code().group() == KindGroup::Sync
    }

    /// True for barrier kinds.
    #[inline]
    pub fn is_barrier(&self) -> bool {
        self.code().group() == KindGroup::Barrier
    }

    /// True for lock acquire/release kinds.
    #[inline]
    pub fn is_lock(&self) -> bool {
        self.code().group() == KindGroup::Lock
    }

    /// True for semaphore P/V kinds.
    #[inline]
    pub fn is_sem(&self) -> bool {
        self.code().group() == KindGroup::Sem
    }

    /// True for fork/join task-episode kinds.
    #[inline]
    pub fn is_task(&self) -> bool {
        self.code().group() == KindGroup::Task
    }

    /// True for every lock/semaphore/task episode kind — the sync-episode
    /// families added on top of the paper's advance/await vocabulary.
    #[inline]
    pub fn is_episode(&self) -> bool {
        self.is_lock() || self.is_sem() || self.is_task()
    }

    /// The lock this event touches, if any.
    #[inline]
    pub fn lock_id(&self) -> Option<LockId> {
        match self {
            EventKind::LockAcquire { lock } | EventKind::LockRelease { lock } => Some(*lock),
            _ => None,
        }
    }

    /// The semaphore this event touches, if any.
    #[inline]
    pub fn sem_id(&self) -> Option<SemId> {
        match self {
            EventKind::SemAcquire { sem } | EventKind::SemRelease { sem } => Some(*sem),
            _ => None,
        }
    }

    /// The task episode this event belongs to, if any.
    #[inline]
    pub fn task_id(&self) -> Option<TaskId> {
        match self {
            EventKind::TaskFork { task } | EventKind::TaskJoin { task } => Some(*task),
            _ => None,
        }
    }

    /// True for structural markers (program/loop/iteration boundaries).
    #[inline]
    pub fn is_marker(&self) -> bool {
        self.code().group() == KindGroup::Marker
    }

    /// The synchronization variable this event touches, if any.
    #[inline]
    pub fn sync_var(&self) -> Option<SyncVarId> {
        match self {
            EventKind::Advance { var, .. }
            | EventKind::AwaitBegin { var, .. }
            | EventKind::AwaitEnd { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// The synchronization tag this event carries, if any.
    #[inline]
    pub fn sync_tag(&self) -> Option<SyncTag> {
        match self {
            EventKind::Advance { tag, .. }
            | EventKind::AwaitBegin { tag, .. }
            | EventKind::AwaitEnd { tag, .. } => Some(*tag),
            _ => None,
        }
    }

    /// A short mnemonic for table/debug output.
    pub fn mnemonic(&self) -> &'static str {
        self.code().mnemonic()
    }
}

/// One trace event.
///
/// `seq` is a global emission sequence number assigned by the producer. It
/// provides a stable total-order tie-break for events with equal timestamps
/// and makes analysis deterministic; it carries no semantic meaning beyond
/// that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Timestamp (measured or approximated, depending on which trace this
    /// event belongs to).
    pub time: Time,
    /// The processor that emitted the event.
    pub proc: ProcessorId,
    /// Producer-assigned global sequence number (total-order tie-break).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

// Every decoded, buffered and emitted event is copied at this size, and
// `EventKind::Repeat`'s 32-byte payload is what sets it.
const _: () = assert!(std::mem::size_of::<Event>() == 64);

impl Event {
    /// Creates an event; `seq` is usually assigned by [`crate::Trace`]
    /// builders.
    #[inline]
    pub fn new(time: Time, proc: ProcessorId, seq: u64, kind: EventKind) -> Self {
        Event {
            time,
            proc,
            seq,
            kind,
        }
    }

    /// Reproduces this event shifted by `r` repeat-record strides: time
    /// advances by `r*dt_ns`, the sequence number by `r*dseq`, and the
    /// event's integer field (iteration number or synchronization tag),
    /// when it has one, by `r*dfield`. Lock/semaphore/task object ids are
    /// identities, not progressing counters, and never shift — a repeated
    /// lock pattern re-touches the same lock. All arithmetic wraps; the
    /// suppressor and the expander both use this exact function, which
    /// is what makes suppress-then-expand an identity.
    pub fn repeat_shifted(&self, r: u64, dt_ns: u64, dseq: u64, dfield: i64) -> Event {
        let kind = self.kind.shifted((r as i64).wrapping_mul(dfield));
        Event {
            time: Time::from_nanos(self.time.as_nanos().wrapping_add(r.wrapping_mul(dt_ns))),
            proc: self.proc,
            seq: self.seq.wrapping_add(r.wrapping_mul(dseq)),
            kind,
        }
    }

    /// The stride from this event to `later` if `later` can be its next
    /// repeat occurrence: `later == self.repeat_shifted(1, dt_ns, dseq,
    /// dfield)` with time and sequence not decreasing. Answers `(dt_ns,
    /// dseq, Some(dfield))` for a kind with a shifting field and
    /// `(dt_ns, dseq, None)` for one without, whose fields must then
    /// match exactly; episode ids are identities, so a critical-section
    /// loop on one lock repeats and a fork/join wave over fresh task ids
    /// does not. The suppressor finds strides with this function and the
    /// expander applies them with `repeat_shifted`.
    pub fn repeat_stride(&self, later: &Event) -> Option<(u64, u64, Option<i64>)> {
        if later.time < self.time || later.seq < self.seq {
            return None;
        }
        let dfield = match (self.kind.shift_field(), later.kind.shift_field()) {
            (Some(from), Some(to)) => {
                let df = to.wrapping_sub(from) as i64;
                (self.kind.shifted(df) == later.kind).then_some(Some(df))
            }
            _ => (self.kind == later.kind).then_some(None),
        }?;
        let dt = later.time.as_nanos() - self.time.as_nanos();
        Some((dt, later.seq - self.seq, dfield))
    }

    /// The total-order key used throughout the analyses: time, then
    /// emission sequence, then processor. Emission sequence before
    /// processor matters for same-time ties: a producer emits causally
    /// later events with larger `seq` (e.g. barrier exits after all
    /// enters), and the total order must respect that regardless of which
    /// processors are involved.
    #[inline]
    pub fn order_key(&self) -> (Time, u64, ProcessorId) {
        (self.time, self.seq, self.proc)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}]", self.time, self.proc, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_predicates_and_accessors() {
        let acq = EventKind::LockAcquire { lock: LockId(2) };
        let rel = EventKind::LockRelease { lock: LockId(2) };
        let p = EventKind::SemAcquire { sem: SemId(1) };
        let v = EventKind::SemRelease { sem: SemId(1) };
        let fork = EventKind::TaskFork { task: TaskId(0) };
        let join = EventKind::TaskJoin { task: TaskId(0) };

        assert!(acq.is_lock() && rel.is_lock());
        assert!(p.is_sem() && v.is_sem());
        assert!(fork.is_task() && join.is_task());
        for k in [acq, rel, p, v, fork, join] {
            assert!(k.is_episode());
            assert!(!k.is_sync() && !k.is_barrier() && !k.is_marker());
        }
        assert!(!EventKind::ProgramBegin.is_episode());

        assert_eq!(acq.lock_id(), Some(LockId(2)));
        assert_eq!(p.sem_id(), Some(SemId(1)));
        assert_eq!(join.task_id(), Some(TaskId(0)));
        assert_eq!(acq.sem_id(), None);
        assert_eq!(acq.sync_var(), None);

        assert_eq!(acq.to_string(), "lockA(K2)");
        assert_eq!(v.to_string(), "semV(M1)");
        assert_eq!(fork.to_string(), "taskF(T0)");

        // Episode ids are identities: repeat shifting leaves them alone.
        let e = Event::new(Time::from_nanos(10), ProcessorId(0), 1, acq);
        let shifted = e.repeat_shifted(3, 100, 2, 5);
        assert_eq!(shifted.kind, acq);
        assert_eq!(shifted.time, Time::from_nanos(310));
        assert_eq!(shifted.seq, 7);
    }

    #[test]
    fn sync_accessors() {
        let adv = EventKind::Advance {
            var: SyncVarId(7),
            tag: SyncTag(-1),
        };
        assert_eq!(adv.sync_var(), Some(SyncVarId(7)));
        assert_eq!(adv.sync_tag(), Some(SyncTag(-1)));
        assert_eq!(EventKind::ProgramEnd.sync_var(), None);
        assert_eq!(EventKind::ProgramEnd.sync_tag(), None);
    }

    #[test]
    fn display_is_compact() {
        let e = Event::new(
            Time::from_micros(2),
            ProcessorId(1),
            9,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(4),
            },
        );
        assert_eq!(e.to_string(), "[2.000us P1 awaitE(A0,#4)]");
    }

    #[test]
    fn order_key_breaks_ties_deterministically() {
        let t = Time::from_nanos(5);
        let a = Event::new(t, ProcessorId(0), 1, EventKind::ProgramBegin);
        let b = Event::new(t, ProcessorId(1), 0, EventKind::ProgramBegin);
        // Equal time: lower emission sequence wins, even on a higher
        // processor id.
        assert!(b.order_key() < a.order_key());
        let c = Event::new(t, ProcessorId(0), 2, EventKind::ProgramEnd);
        assert!(a.order_key() < c.order_key());
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::new(
            Time::from_nanos(123),
            ProcessorId(3),
            42,
            EventKind::Advance {
                var: SyncVarId(1),
                tag: SyncTag(10),
            },
        );
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
