//! Trace validation and synchronization-event pairing.
//!
//! Event-based perturbation analysis is only sound on traces whose
//! synchronization events can be paired unambiguously (§4.2.2: events must
//! carry "a unique value identifying the pair"). The rules live in one
//! place, [`SyncTracker`]; [`pair_sync_events`] and `ppa check` read it.

use crate::event::{Event, EventKind};
use crate::ids::{BarrierId, LockId, ProcessorId, SemId, SyncTag, SyncVarId, TaskId};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Validation failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are named after the id types they hold
pub enum TraceError {
    /// The event array is not sorted by `(time, proc, seq)`.
    NotTotallyOrdered { position: usize },
    /// Two `advance` events carry the same `(var, tag)`.
    DuplicateAdvance { var: SyncVarId, tag: SyncTag },
    /// An `advance` carries a pre-advanced (negative) tag, which no
    /// operation may produce.
    NegativeAdvanceTag { var: SyncVarId, tag: SyncTag },
    /// An `awaitE` appeared with no preceding `awaitB` for the same
    /// `(var, tag)` on the same processor.
    UnmatchedAwaitEnd {
        proc: ProcessorId,
        var: SyncVarId,
        tag: SyncTag,
    },
    /// An `awaitB` was never completed by an `awaitE` on its processor.
    UnmatchedAwaitBegin {
        proc: ProcessorId,
        var: SyncVarId,
        tag: SyncTag,
    },
    /// Two `awaitB` events nested on one processor (an await began while
    /// another was still pending).
    NestedAwait {
        proc: ProcessorId,
        var: SyncVarId,
        tag: SyncTag,
    },
    /// An `awaitE` on a non-pre-advanced tag has no `advance` partner
    /// anywhere in the trace.
    MissingAdvance { var: SyncVarId, tag: SyncTag },
    /// An `awaitE` was recorded before its partner `advance` in the total
    /// order — causally impossible.
    AwaitBeforeAdvance { var: SyncVarId, tag: SyncTag },
    /// A barrier episode has a different number of enters and exits.
    BarrierArityMismatch {
        barrier: BarrierId,
        enters: usize,
        exits: usize,
    },
    /// A barrier exit was recorded before every participant entered.
    BarrierExitBeforeLastEnter { barrier: BarrierId },
    /// A processor exited a barrier it never entered (or exited twice).
    BarrierProtocol {
        barrier: BarrierId,
        proc: ProcessorId,
    },
    /// A lock acquire completed while another processor still held the
    /// lock, a release came from a non-holder, or a release hit a free
    /// lock — a mutual-exclusion protocol violation.
    LockProtocol { lock: LockId, proc: ProcessorId },
    /// A lock was still held when the trace ended.
    LockHeldAtEnd { lock: LockId, proc: ProcessorId },
    /// A semaphore P completed with no enabling V recorded before it.
    /// V events are recorded before the permit becomes visible, so the
    /// k-th P (arrival order) requires at least k+1 preceding V's.
    SemUnderflow { sem: SemId, proc: ProcessorId },
    /// A task episode broke the fork,fork,join,join shape: a join with
    /// no open forks, a third fork, a join-return on a processor other
    /// than the spawning one, or an episode left open at trace end.
    TaskProtocol { task: TaskId, proc: ProcessorId },
}

impl TraceError {
    /// The error's rank in [`pair_sync_events`]' precedence; lower wins.
    pub fn precedence(&self) -> u8 {
        use TraceError as E;
        match self {
            E::NotTotallyOrdered { .. } => 0,
            E::DuplicateAdvance { .. } | E::NegativeAdvanceTag { .. } => 1,
            E::UnmatchedAwaitEnd { .. } | E::NestedAwait { .. } => 1,
            E::UnmatchedAwaitBegin { .. } => 2,
            E::MissingAdvance { .. } | E::AwaitBeforeAdvance { .. } => 3,
            E::BarrierArityMismatch { .. } | E::BarrierExitBeforeLastEnter { .. } => 4,
            E::BarrierProtocol { .. } => 4,
            E::LockProtocol { .. } | E::LockHeldAtEnd { .. } => 5,
            E::SemUnderflow { .. } | E::TaskProtocol { .. } => 5,
        }
    }

    /// Keeps the error that decides a trace in `pending`: this one
    /// replaces the pending error if it ranks lower, and within a rank
    /// the first stays.
    pub fn note(self, pending: &mut Option<TraceError>) {
        match pending {
            Some(p) if p.precedence() <= self.precedence() => {}
            _ => *pending = Some(self),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NotTotallyOrdered { position } => {
                write!(f, "trace is not totally ordered at event index {position}")
            }
            TraceError::DuplicateAdvance { var, tag } => {
                write!(f, "duplicate advance on {var} {tag}")
            }
            TraceError::NegativeAdvanceTag { var, tag } => {
                write!(
                    f,
                    "advance on {var} carries reserved pre-advanced tag {tag}"
                )
            }
            TraceError::UnmatchedAwaitEnd { proc, var, tag } => {
                write!(
                    f,
                    "awaitE on {proc} for {var} {tag} without matching awaitB"
                )
            }
            TraceError::UnmatchedAwaitBegin { proc, var, tag } => {
                write!(f, "awaitB on {proc} for {var} {tag} never completed")
            }
            TraceError::NestedAwait { proc, var, tag } => {
                write!(f, "nested awaitB on {proc} for {var} {tag}")
            }
            TraceError::MissingAdvance { var, tag } => {
                write!(
                    f,
                    "awaitE for {var} {tag} has no advance partner in the trace"
                )
            }
            TraceError::AwaitBeforeAdvance { var, tag } => {
                write!(
                    f,
                    "awaitE for {var} {tag} precedes its advance in the total order"
                )
            }
            TraceError::BarrierArityMismatch {
                barrier,
                enters,
                exits,
            } => {
                write!(f, "{barrier}: {enters} enters but {exits} exits")
            }
            TraceError::BarrierExitBeforeLastEnter { barrier } => {
                write!(f, "{barrier}: an exit precedes the last enter")
            }
            TraceError::BarrierProtocol { barrier, proc } => {
                write!(f, "{barrier}: {proc} violated the enter/exit protocol")
            }
            TraceError::LockProtocol { lock, proc } => {
                write!(f, "{lock}: {proc} violated the acquire/release protocol")
            }
            TraceError::LockHeldAtEnd { lock, proc } => {
                write!(f, "{lock}: still held by {proc} at trace end")
            }
            TraceError::SemUnderflow { sem, proc } => {
                write!(f, "{sem}: P on {proc} with no enabling V recorded")
            }
            TraceError::TaskProtocol { task, proc } => {
                write!(f, "{task}: {proc} violated the fork/join protocol")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One paired await: the `awaitB`/`awaitE` event indices on a processor and
/// the index of the partner `advance` (absent for pre-advanced tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwaitPair {
    /// Processor that executed the await.
    pub proc: ProcessorId,
    /// Index of the `awaitB` event in the trace.
    pub begin: usize,
    /// Index of the `awaitE` event in the trace.
    pub end: usize,
    /// Index of the partner `advance` event, if the tag required one.
    pub advance: Option<usize>,
}

/// One barrier episode: all enter/exit event indices for a barrier id.
///
/// A trace may contain several episodes of the same [`BarrierId`] (a loop
/// executed repeatedly); episodes are split greedily: an episode closes when
/// the number of exits equals the number of enters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BarrierEpisode {
    /// The barrier id.
    pub barrier: BarrierId,
    /// Enter event indices, in total order.
    pub enters: Vec<usize>,
    /// Exit event indices, in total order.
    pub exits: Vec<usize>,
}

/// The synchronization-episode family a blocked event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EpisodeFamily {
    /// Mutual-exclusion lock: acquire blocked on the previous release.
    Lock,
    /// Counting semaphore: the k-th P blocked on the k-th V.
    Sem,
    /// Fork/join task: the parent's join-return blocked on the child end.
    Task,
}

/// One resolved lock/semaphore/task episode: the blocked-completion event
/// (lock acquire, semaphore P, or the parent's join-return) and the event
/// that enabled it, when one exists. This is the episode analogue of
/// [`AwaitPair`]: the dependency plays the advance's role in the §4.2.3
/// approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodePair {
    /// Which episode family the pair belongs to.
    pub family: EpisodeFamily,
    /// Raw id of the lock/semaphore/task object.
    pub object: u32,
    /// Processor that executed the blocked event.
    pub proc: ProcessorId,
    /// Index of the blocked-completion event in the trace.
    pub event: usize,
    /// Index of the enabling event (the previous release, the k-th V, or
    /// the child-end join), if the blocked event had to synchronize. The
    /// first acquire of a free lock has no dependency.
    pub dep: Option<usize>,
}

/// The synchronization structure of a validated trace.
#[derive(Debug, Clone, Default)]
pub struct SyncIndex {
    /// `(var, tag)` → index of the advance event.
    pub advances: BTreeMap<(SyncVarId, SyncTag), usize>,
    /// All await pairs, ordered by `awaitE` position (a pair is complete
    /// only once its `awaitE` arrives).
    pub awaits: Vec<AwaitPair>,
    /// All barrier episodes, ordered by first enter.
    pub barriers: Vec<BarrierEpisode>,
    /// All lock/semaphore/task episode pairs, ordered by blocked event.
    pub episodes: Vec<EpisodePair>,
    /// Task child-begin anchoring: `(child_begin_fork, parent_spawn_fork)`
    /// index pairs, one per task episode, in join-return order. The
    /// child's first event is causally anchored to the parent's spawn,
    /// not to the child processor's previous event.
    pub task_spawns: Vec<(usize, usize)>,
}

/// What a synchronization event pairs with, as [`SyncTracker::push`]
/// reports it, in the caller's stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the fields are described on their variants
pub enum Pairing<S> {
    /// Nothing: a marker or statement, or an event that opens a pairing.
    None,
    /// An `awaitE`: its `awaitB`, and its advance if one was seen before
    /// it. A pre-advanced tag needs no advance.
    Await {
        begin: S,
        advance: Option<S>,
        needs_advance: bool,
    },
    /// A barrier exit: the latest (greatest) enter of its episode.
    BarrierExit { last_enter: S },
    /// A lock acquire, semaphore P or the parent's join-return: the
    /// release, V or child end that enabled it. The first acquire of a
    /// lock has none.
    Blocked { dep: Option<S> },
    /// A task's child begin (its second `taskF`): the parent's spawn.
    TaskBegin { spawn: S },
}

/// The streaming sync-protocol rulebook: advance/await pairing by tag,
/// and, through its [`EpisodeTracker`], barrier episodes and lock,
/// semaphore and fork/join episodes.
///
/// Feed events in stream order with [`push`](Self::push), each with a
/// stamp of the caller's choosing (an event index, a sequence number, an
/// approximated time); [`finish`](Self::finish) reports what is still
/// open. Each rule is a [`TraceError`] variant. An advance may follow its
/// `awaitE` (a measured advance is stamped after its own
/// instrumentation).
///
/// An event that breaks a rule changes no state, so a caller that
/// collects every violation can carry on. The one exception is an exit
/// that closes an episode some enter arrived late to: the episode still
/// closes. The total order is the caller's to check.
#[derive(Debug, Clone, Default)]
pub struct SyncTracker<S> {
    /// The open `awaitB` on each processor.
    awaits: Vec<Option<(SyncVarId, SyncTag, S)>>,
    advances: HashMap<(SyncVarId, SyncTag), S>,
    /// Tags awaited before their advance was seen: the first such
    /// `awaitE`.
    waiting: HashMap<(SyncVarId, SyncTag), S>,
    episodes: EpisodeTracker<S>,
}

/// The barrier, lock, semaphore and fork/join rules of [`SyncTracker`],
/// on their own, for a caller that keeps advance/await state itself.
///
/// A barrier episode closes when its exits match its enters; a lock
/// acquire pairs with the previous release, the k-th P with the k-th V,
/// a join-return with its child's end, and a task id is free again once
/// joined. The state is key-sorted, so equal trackers serialize to equal
/// bytes, and holds only what is open (the V's no P has consumed yet).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpisodeTracker<S> {
    /// Barrier episodes are checked by their counts only.
    counting: bool,
    /// Each barrier's open episode and its latest enter.
    barriers: BTreeMap<BarrierId, (Episode, Option<S>)>,
    /// Each lock's holder and latest release.
    locks: BTreeMap<LockId, (Option<ProcessorId>, Option<S>)>,
    /// The V's no P has consumed yet, oldest first.
    sems: BTreeMap<SemId, VecDeque<S>>,
    tasks: BTreeMap<TaskId, Task<S>>,
}

/// Who entered and exited a barrier's open episode; idle while empty.
/// It outlives the episode, so the next one reuses its lists.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Episode {
    entered: Vec<ProcessorId>,
    exited: Vec<ProcessorId>,
    /// An enter arrived after the episode's first exit.
    late_enter: bool,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Task<S> {
    spawn: S,
    spawn_proc: ProcessorId,
    child_proc: Option<ProcessorId>,
    end: Option<(S, ProcessorId)>,
    /// The processor of the episode's latest event, named if it stays
    /// open.
    last_proc: ProcessorId,
}

impl<S: Copy + Ord> SyncTracker<S> {
    /// Creates a tracker that checks barrier episodes by their counts
    /// only, not by which processors entered and exited them.
    /// ([`default`](Self::default) checks every rule.)
    pub fn counting_barriers() -> Self
    where
        S: Default,
    {
        let mut tracker = SyncTracker::default();
        tracker.episodes.counting = true;
        tracker
    }

    /// Feeds the next event in stream order, stamped `stamp`: returns
    /// what it pairs with, or the rule it breaks.
    pub fn push(&mut self, e: &Event, stamp: S) -> Result<Pairing<S>, TraceError> {
        use TraceError as E;
        let proc = e.proc;
        match e.kind {
            EventKind::Advance { var, tag } => {
                if tag.is_pre_advanced() {
                    return Err(E::NegativeAdvanceTag { var, tag });
                }
                match self.advances.entry((var, tag)) {
                    Entry::Occupied(_) => return Err(E::DuplicateAdvance { var, tag }),
                    Entry::Vacant(v) => v.insert(stamp),
                };
                self.waiting.remove(&(var, tag));
                Ok(Pairing::None)
            }
            EventKind::AwaitBegin { var, tag } => {
                let open = self.open_await(proc);
                if open.is_some() {
                    return Err(E::NestedAwait { proc, var, tag });
                }
                *open = Some((var, tag, stamp));
                Ok(Pairing::None)
            }
            EventKind::AwaitEnd { var, tag } => {
                let open = self.open_await(proc);
                let Some((_, _, begin)) = open.filter(|&(v, t, _)| (v, t) == (var, tag)) else {
                    return Err(E::UnmatchedAwaitEnd { proc, var, tag });
                };
                *open = None;
                let needs_advance = !tag.is_pre_advanced();
                let advance = self.advances.get(&(var, tag)).copied();
                if needs_advance && advance.is_none() {
                    self.waiting.entry((var, tag)).or_insert(stamp);
                }
                Ok(Pairing::Await {
                    begin,
                    advance,
                    needs_advance,
                })
            }
            // Every other kind is the episode rules' to decide.
            _ => self.episodes.push(e, stamp),
        }
    }

    fn open_await(&mut self, proc: ProcessorId) -> &mut Option<(SyncVarId, SyncTag, S)> {
        if proc.index() >= self.awaits.len() {
            self.awaits.resize(proc.index() + 1, None);
        }
        &mut self.awaits[proc.index()]
    }

    /// Closes the stream and returns what is still open, in this order:
    /// `awaitB`s by processor, tags awaited without an advance by their
    /// first `awaitE`, then [`EpisodeTracker::finish`]'s.
    pub fn finish(self) -> Vec<TraceError> {
        use TraceError as E;
        let open = self.awaits.into_iter().enumerate().filter_map(|(p, open)| {
            let ((var, tag, _), proc) = (open?, ProcessorId(p as u16));
            Some(E::UnmatchedAwaitBegin { proc, var, tag })
        });
        // Hash maps iterate in no fixed order: sorted by first `awaitE`.
        let mut missing: Vec<_> = self.waiting.into_iter().collect();
        missing.sort_by_key(|&((var, tag), s)| (s, var, tag));
        let missing = (missing.into_iter()).map(|((var, tag), _)| E::MissingAdvance { var, tag });
        open.chain(missing).chain(self.episodes.finish()).collect()
    }
}

impl<S: Copy + Ord> EpisodeTracker<S> {
    /// Feeds the next barrier, lock, semaphore or fork/join event in
    /// stream order, stamped `stamp`: returns what it pairs with, or the
    /// rule it breaks. Any other event pairs with nothing here.
    pub fn push(&mut self, e: &Event, stamp: S) -> Result<Pairing<S>, TraceError> {
        use TraceError as E;
        let proc = e.proc;
        match e.kind {
            EventKind::ProgramBegin
            | EventKind::ProgramEnd
            | EventKind::LoopBegin { .. }
            | EventKind::LoopEnd { .. }
            | EventKind::IterationBegin { .. }
            | EventKind::IterationEnd { .. }
            | EventKind::Statement { .. }
            | EventKind::Repeat { .. }
            | EventKind::Advance { .. }
            | EventKind::AwaitBegin { .. }
            | EventKind::AwaitEnd { .. } => Ok(Pairing::None),
            EventKind::BarrierEnter { barrier } => {
                let (ep, last_enter) = self.barriers.entry(barrier).or_default();
                if !self.counting && ep.entered.contains(&proc) {
                    return Err(E::BarrierProtocol { barrier, proc });
                }
                ep.entered.push(proc);
                ep.late_enter |= !ep.exited.is_empty();
                *last_enter = (*last_enter).max(Some(stamp));
                Ok(Pairing::None)
            }
            EventKind::BarrierExit { barrier } => {
                let counting = self.counting;
                let Some((ep, last_enter)) = self.barriers.get_mut(&barrier).filter(|(ep, _)| {
                    !ep.entered.is_empty()
                        && (counting || ep.entered.contains(&proc) && !ep.exited.contains(&proc))
                }) else {
                    return Err(E::BarrierProtocol { barrier, proc });
                };
                let latest = last_enter.expect("an open episode has an enter");
                ep.exited.push(proc);
                if ep.exited.len() == ep.entered.len() {
                    ep.entered.clear();
                    ep.exited.clear();
                    *last_enter = None;
                    if std::mem::take(&mut ep.late_enter) {
                        return Err(E::BarrierExitBeforeLastEnter { barrier });
                    }
                }
                Ok(Pairing::BarrierExit { last_enter: latest })
            }
            EventKind::LockAcquire { lock } => {
                let (holder, last_release) = self.locks.entry(lock).or_insert((None, None));
                if holder.is_some() {
                    return Err(E::LockProtocol { lock, proc });
                }
                *holder = Some(proc);
                Ok(Pairing::Blocked { dep: *last_release })
            }
            EventKind::LockRelease { lock } => match self.locks.get_mut(&lock) {
                Some((holder, last_release)) if *holder == Some(proc) => {
                    (*holder, *last_release) = (None, Some(stamp));
                    Ok(Pairing::None)
                }
                _ => Err(E::LockProtocol { lock, proc }),
            },
            EventKind::SemAcquire { sem } => {
                match self.sems.get_mut(&sem).and_then(VecDeque::pop_front) {
                    Some(v) => Ok(Pairing::Blocked { dep: Some(v) }),
                    None => Err(E::SemUnderflow { sem, proc }),
                }
            }
            EventKind::SemRelease { sem } => {
                self.sems.entry(sem).or_default().push_back(stamp);
                Ok(Pairing::None)
            }
            EventKind::TaskFork { task } => match self.tasks.entry(task) {
                btree_map::Entry::Vacant(v) => {
                    v.insert(Task {
                        spawn: stamp,
                        spawn_proc: proc,
                        child_proc: None,
                        end: None,
                        last_proc: proc,
                    });
                    Ok(Pairing::None)
                }
                btree_map::Entry::Occupied(o) if o.get().child_proc.is_some() => {
                    Err(E::TaskProtocol { task, proc })
                }
                btree_map::Entry::Occupied(mut o) => {
                    let st = o.get_mut();
                    (st.child_proc, st.last_proc) = (Some(proc), proc);
                    Ok(Pairing::TaskBegin { spawn: st.spawn })
                }
            },
            EventKind::TaskJoin { task } => {
                let st = self.tasks.get_mut(&task);
                let Some(st) = st.filter(|st| st.child_proc.is_some()) else {
                    return Err(E::TaskProtocol { task, proc });
                };
                let Some((end, end_proc)) = st.end else {
                    (st.end, st.last_proc) = (Some((stamp, proc)), proc);
                    return Ok(Pairing::None);
                };
                // Roles are by arrival order, so the processors pair
                // crosswise: spawn with join-return, begin with end.
                if st.spawn_proc != proc || st.child_proc != Some(end_proc) {
                    return Err(E::TaskProtocol { task, proc });
                }
                self.tasks.remove(&task);
                Ok(Pairing::Blocked { dep: Some(end) })
            }
        }
    }

    /// Closes the stream and returns what is still open, each rule's by
    /// id in this order: barrier episodes, held locks, unjoined tasks.
    pub fn finish(&self) -> Vec<TraceError> {
        use TraceError as E;
        let episodes = self
            .barriers
            .iter()
            .filter(|(_, (ep, _))| !ep.entered.is_empty());
        let episodes = episodes.map(|(&barrier, (ep, _))| E::BarrierArityMismatch {
            barrier,
            enters: ep.entered.len(),
            exits: ep.exited.len(),
        });
        let held = (self.locks.iter()).filter_map(|(&lock, &(holder, _))| {
            Some(E::LockHeldAtEnd {
                lock,
                proc: holder?,
            })
        });
        let tasks = (self.tasks.iter()).map(|(&task, st)| E::TaskProtocol {
            task,
            proc: st.last_proc,
        });
        episodes.chain(held).chain(tasks).collect()
    }

    /// Heap bytes of the open state: each map's entries, the barrier
    /// episodes' lists and the semaphores' V queues.
    pub fn heap_bytes(&self) -> usize {
        fn entries<K, V>(m: &BTreeMap<K, V>) -> usize {
            m.len() * std::mem::size_of::<(K, V)>()
        }
        let lists = (self.barriers.values())
            .map(|(ep, _)| ep.entered.capacity() + ep.exited.capacity())
            .sum::<usize>()
            * std::mem::size_of::<ProcessorId>();
        let queues = (self.sems.values()).map(|q| q.capacity() * std::mem::size_of::<S>());
        entries(&self.barriers)
            + entries(&self.locks)
            + entries(&self.sems)
            + entries(&self.tasks)
            + lists
            + queues.sum::<usize>()
    }
}

/// Validates a trace's synchronization structure and returns the pairing.
///
/// Runs [`SyncTracker`] over the trace and, if any rule is broken,
/// returns the first error of the first broken rule in this precedence:
/// the total order; the advance/await scan (tags, nesting, orphan ends);
/// an `awaitB` left open; a missing advance; the barrier episodes; the
/// lock, semaphore and task episodes. Within a rule, the first error
/// detected wins; end-of-trace errors come after every event's.
///
/// This function does **not** require the partner advance *event* to
/// precede the `awaitE` event in the total order: in a measured trace the
/// waiter resumes when the advance *operation* completes, while the
/// advance event is only recorded after the advance instrumentation (α)
/// runs, so a measured `awaitE` may legitimately carry an earlier
/// timestamp than its advance event — one of the event reorderings
/// perturbation analysis exists to repair. Use [`pair_sync_events_strict`]
/// for traces where that skew cannot occur (actual and approximated
/// traces).
pub fn pair_sync_events(trace: &Trace) -> Result<SyncIndex, TraceError> {
    pair_sync_events_impl(trace, false)
}

/// Like [`pair_sync_events`], but additionally requires every `awaitE` to
/// follow its partner `advance` event in the total order — the causality
/// condition instrumentation-free (actual) and approximated traces must
/// satisfy. A late advance ranks with a missing one.
pub fn pair_sync_events_strict(trace: &Trace) -> Result<SyncIndex, TraceError> {
    pair_sync_events_impl(trace, true)
}

fn pair_sync_events_impl(trace: &Trace, strict: bool) -> Result<SyncIndex, TraceError> {
    let events = trace.events();
    if let Some(pos) = first_order_violation(events) {
        return Err(TraceError::NotTotallyOrdered { position: pos });
    }
    let mut verdict: Option<TraceError> = None;
    let mut note = |e: TraceError| e.note(&mut verdict);
    let mut tracker = SyncTracker::default();
    let mut index = SyncIndex::default();
    let mut open: HashMap<BarrierId, BarrierEpisode> = HashMap::new();
    // Child begin and spawn of each task, until its join-return.
    let mut begun: HashMap<Option<TaskId>, (usize, usize)> = HashMap::new();

    for (i, e) in events.iter().enumerate() {
        match tracker.push(e, i) {
            Err(err) => {
                note(err);
                continue;
            }
            Ok(Pairing::Await { begin, advance, .. }) => {
                let (proc, end) = (e.proc, i);
                index.awaits.push(AwaitPair {
                    proc,
                    begin,
                    end,
                    advance,
                });
            }
            Ok(Pairing::Blocked { dep }) => {
                let (family, object) = match e.kind {
                    EventKind::LockAcquire { lock } => (EpisodeFamily::Lock, lock.0),
                    EventKind::SemAcquire { sem } => (EpisodeFamily::Sem, sem.0),
                    EventKind::TaskJoin { task } => (EpisodeFamily::Task, task.0),
                    _ => unreachable!("only these events are blocked"),
                };
                let (proc, event) = (e.proc, i);
                let pair = EpisodePair {
                    family,
                    object,
                    proc,
                    event,
                    dep,
                };
                index.episodes.push(pair);
                if family == EpisodeFamily::Task {
                    index.task_spawns.extend(begun.remove(&e.kind.task_id()));
                }
            }
            Ok(Pairing::TaskBegin { spawn }) => {
                begun.insert(e.kind.task_id(), (i, spawn));
            }
            Ok(Pairing::None | Pairing::BarrierExit { .. }) => {}
        }
        // An accepted barrier event joins its episode's index lists.
        if let EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } = e.kind {
            let ep = open.entry(barrier).or_default();
            ep.barrier = barrier;
            if matches!(e.kind, EventKind::BarrierEnter { .. }) {
                ep.enters.push(i);
            } else {
                ep.exits.push(i);
                if ep.exits.len() == ep.enters.len() {
                    index.barriers.extend(open.remove(&barrier));
                }
            }
        }
    }

    index.advances = tracker.advances.iter().map(|(&k, &i)| (k, i)).collect();
    // Missing and (strict) late advances, in `awaitE` order. This runs
    // before the tracker's own `MissingAdvance`s are noted, so a late
    // advance at an earlier `awaitE` wins over a missing one.
    for pair in index.awaits.iter_mut().filter(|p| p.advance.is_none()) {
        let EventKind::AwaitEnd { var, tag } = events[pair.end].kind else {
            unreachable!("await pair indexes an awaitE");
        };
        match index.advances.get(&(var, tag)) {
            _ if tag.is_pre_advanced() => {}
            None => {
                note(TraceError::MissingAdvance { var, tag });
                break;
            }
            Some(&adv) if strict && events[adv].order_key() > events[pair.end].order_key() => {
                note(TraceError::AwaitBeforeAdvance { var, tag });
                break;
            }
            Some(&adv) => pair.advance = Some(adv),
        }
    }
    tracker.finish().into_iter().for_each(&mut note);
    if let Some(e) = verdict {
        return Err(e);
    }
    index.barriers.sort_by_key(|ep| ep.enters[0]);
    Ok(index)
}

fn first_order_violation(events: &[Event]) -> Option<usize> {
    events
        .windows(2)
        .position(|w| w[0].order_key() > w[1].order_key())
        .map(|p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::trace::TraceKind;

    fn e(ns: u64, proc: u16, seq: u64, kind: EventKind) -> Event {
        Event::new(Time::from_nanos(ns), ProcessorId(proc), seq, kind)
    }

    fn adv(var: u32, tag: i64) -> EventKind {
        EventKind::Advance {
            var: SyncVarId(var),
            tag: SyncTag(tag),
        }
    }
    fn awb(var: u32, tag: i64) -> EventKind {
        EventKind::AwaitBegin {
            var: SyncVarId(var),
            tag: SyncTag(tag),
        }
    }
    fn awe(var: u32, tag: i64) -> EventKind {
        EventKind::AwaitEnd {
            var: SyncVarId(var),
            tag: SyncTag(tag),
        }
    }

    #[test]
    fn pairs_simple_advance_await() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(10, 0, 0, adv(0, 0)),
                e(20, 1, 1, awb(0, 0)),
                e(25, 1, 2, awe(0, 0)),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.awaits.len(), 1);
        let p = idx.awaits[0];
        assert_eq!(p.proc, ProcessorId(1));
        assert_eq!((p.begin, p.end), (1, 2));
        assert_eq!(p.advance, Some(0));
    }

    #[test]
    fn pre_advanced_tag_needs_no_advance() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, awb(0, -1)), e(2, 0, 1, awe(0, -1))],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.awaits[0].advance, None);
    }

    #[test]
    fn detects_missing_advance() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, awb(0, 5)), e(2, 0, 1, awe(0, 5))],
        );
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::MissingAdvance {
                var: SyncVarId(0),
                tag: SyncTag(5)
            }
        );
    }

    #[test]
    fn strict_mode_detects_await_before_advance() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 1, 0, awb(0, 0)),
                e(2, 1, 1, awe(0, 0)),
                e(3, 0, 2, adv(0, 0)),
            ],
        );
        assert_eq!(
            pair_sync_events_strict(&t).unwrap_err(),
            TraceError::AwaitBeforeAdvance {
                var: SyncVarId(0),
                tag: SyncTag(0)
            }
        );
        // The lenient pairing accepts the same trace: in a measured trace
        // the advance *event* may trail the advance *operation* by α.
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.awaits[0].advance, Some(2));
    }

    #[test]
    fn detects_duplicate_advance() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, adv(0, 3)), e(2, 1, 1, adv(0, 3))],
        );
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::DuplicateAdvance {
                var: SyncVarId(0),
                tag: SyncTag(3)
            }
        );
    }

    #[test]
    fn rejects_negative_advance_tag() {
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, adv(0, -2))]);
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::NegativeAdvanceTag {
                var: SyncVarId(0),
                tag: SyncTag(-2)
            }
        );
    }

    #[test]
    fn detects_unmatched_await_end() {
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, awe(0, 0))]);
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::UnmatchedAwaitEnd { .. }
        ));
    }

    #[test]
    fn detects_dangling_await_begin() {
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, awb(0, 0))]);
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::UnmatchedAwaitBegin { .. }
        ));
    }

    #[test]
    fn detects_nested_await() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, awb(0, 0)), e(2, 0, 1, awb(0, 1))],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::NestedAwait { .. }
        ));
    }

    #[test]
    fn mismatched_await_pair_is_unmatched_end() {
        // awaitB on tag 0 followed by awaitE on tag 1: the end does not
        // match the pending begin.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, awb(0, 0)), e(2, 0, 1, awe(0, 1))],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::UnmatchedAwaitEnd { .. }
        ));
    }

    #[test]
    fn barrier_episode_collects() {
        let b = BarrierId(0);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, EventKind::BarrierEnter { barrier: b }),
                e(2, 1, 1, EventKind::BarrierEnter { barrier: b }),
                e(3, 0, 2, EventKind::BarrierExit { barrier: b }),
                e(3, 1, 3, EventKind::BarrierExit { barrier: b }),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.barriers.len(), 1);
        assert_eq!(idx.barriers[0].enters, vec![0, 1]);
        assert_eq!(idx.barriers[0].exits, vec![2, 3]);
    }

    #[test]
    fn barrier_exit_before_last_enter_rejected() {
        // P0 exits while P2 has yet to enter the same episode: infeasible.
        let b = BarrierId(0);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, EventKind::BarrierEnter { barrier: b }),
                e(2, 1, 1, EventKind::BarrierEnter { barrier: b }),
                e(3, 0, 2, EventKind::BarrierExit { barrier: b }),
                e(4, 2, 3, EventKind::BarrierEnter { barrier: b }),
                e(5, 1, 4, EventKind::BarrierExit { barrier: b }),
                e(6, 2, 5, EventKind::BarrierExit { barrier: b }),
            ],
        );
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::BarrierExitBeforeLastEnter { barrier: b }
        );
    }

    #[test]
    fn disjoint_single_proc_episodes_are_two_episodes() {
        // A processor entering and exiting alone closes an episode; a later
        // solo enter/exit is a second episode, not an error (participant
        // sets are implicit in the trace).
        let b = BarrierId(0);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, EventKind::BarrierEnter { barrier: b }),
                e(2, 0, 1, EventKind::BarrierExit { barrier: b }),
                e(3, 1, 2, EventKind::BarrierEnter { barrier: b }),
                e(4, 1, 3, EventKind::BarrierExit { barrier: b }),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.barriers.len(), 2);
    }

    #[test]
    fn barrier_arity_mismatch_rejected() {
        let b = BarrierId(1);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, EventKind::BarrierEnter { barrier: b }),
                e(2, 1, 1, EventKind::BarrierEnter { barrier: b }),
                e(3, 0, 2, EventKind::BarrierExit { barrier: b }),
            ],
        );
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::BarrierArityMismatch {
                barrier: b,
                enters: 2,
                exits: 1
            }
        );
    }

    #[test]
    fn barrier_exit_without_enter_rejected() {
        let b = BarrierId(0);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, EventKind::BarrierExit { barrier: b })],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::BarrierProtocol { .. }
        ));
    }

    #[test]
    fn two_sequential_episodes_of_same_barrier() {
        let b = BarrierId(0);
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, EventKind::BarrierEnter { barrier: b }),
                e(2, 1, 1, EventKind::BarrierEnter { barrier: b }),
                e(3, 0, 2, EventKind::BarrierExit { barrier: b }),
                e(3, 1, 3, EventKind::BarrierExit { barrier: b }),
                e(5, 0, 4, EventKind::BarrierEnter { barrier: b }),
                e(6, 1, 5, EventKind::BarrierEnter { barrier: b }),
                e(7, 0, 6, EventKind::BarrierExit { barrier: b }),
                e(7, 1, 7, EventKind::BarrierExit { barrier: b }),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.barriers.len(), 2);
    }

    #[test]
    fn empty_trace_is_valid() {
        let idx = pair_sync_events(&Trace::new(TraceKind::Actual)).unwrap();
        assert!(idx.awaits.is_empty());
        assert!(idx.advances.is_empty());
        assert!(idx.barriers.is_empty());
        assert!(idx.episodes.is_empty());
        assert!(idx.task_spawns.is_empty());
    }

    fn acq(lock: u32) -> EventKind {
        EventKind::LockAcquire { lock: LockId(lock) }
    }
    fn rel(lock: u32) -> EventKind {
        EventKind::LockRelease { lock: LockId(lock) }
    }
    fn sem_p(sem: u32) -> EventKind {
        EventKind::SemAcquire { sem: SemId(sem) }
    }
    fn sem_v(sem: u32) -> EventKind {
        EventKind::SemRelease { sem: SemId(sem) }
    }
    fn fork(task: u32) -> EventKind {
        EventKind::TaskFork { task: TaskId(task) }
    }
    fn join(task: u32) -> EventKind {
        EventKind::TaskJoin { task: TaskId(task) }
    }

    #[test]
    fn lock_episodes_pair_acquire_with_previous_release() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(10, 0, 0, acq(0)),
                e(20, 0, 1, rel(0)),
                e(30, 1, 2, acq(0)),
                e(40, 1, 3, rel(0)),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.episodes.len(), 2);
        assert_eq!(idx.episodes[0].family, EpisodeFamily::Lock);
        assert_eq!(idx.episodes[0].dep, None);
        assert_eq!(idx.episodes[1].dep, Some(1));
        assert_eq!(idx.episodes[1].proc, ProcessorId(1));
    }

    #[test]
    fn lock_protocol_violations_rejected() {
        // Acquire while held by another processor.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, acq(0)), e(2, 1, 1, acq(0))],
        );
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::LockProtocol {
                lock: LockId(0),
                proc: ProcessorId(1)
            }
        );
        // Release by a non-holder.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, acq(0)), e(2, 1, 1, rel(0))],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::LockProtocol { .. }
        ));
        // Release of a free lock.
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, rel(0))]);
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::LockProtocol { .. }
        ));
        // Held at trace end.
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, acq(0))]);
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::LockHeldAtEnd {
                lock: LockId(0),
                proc: ProcessorId(0)
            }
        );
    }

    #[test]
    fn sem_episodes_pair_kth_p_with_kth_v() {
        // Two leading V's (initial permits), then three P/V rounds.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, sem_v(0)),
                e(2, 0, 1, sem_v(0)),
                e(3, 1, 2, sem_p(0)),
                e(4, 2, 3, sem_p(0)),
                e(5, 1, 4, sem_v(0)),
                e(6, 2, 5, sem_p(0)),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.episodes.len(), 3);
        assert_eq!(idx.episodes[0].dep, Some(0));
        assert_eq!(idx.episodes[1].dep, Some(1));
        assert_eq!(idx.episodes[2].dep, Some(4));
        assert!(idx.episodes.iter().all(|p| p.family == EpisodeFamily::Sem));
    }

    #[test]
    fn sem_underflow_rejected() {
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, sem_p(3))]);
        assert_eq!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::SemUnderflow {
                sem: SemId(3),
                proc: ProcessorId(0)
            }
        );
    }

    #[test]
    fn task_episode_pairs_join_return_with_child_end() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(10, 0, 0, fork(5)), // parent spawn
                e(15, 1, 1, fork(5)), // child begin
                e(40, 1, 2, join(5)), // child end
                e(45, 0, 3, join(5)), // parent join-return
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.episodes.len(), 1);
        let p = idx.episodes[0];
        assert_eq!(p.family, EpisodeFamily::Task);
        assert_eq!(p.event, 3);
        assert_eq!(p.dep, Some(2));
        assert_eq!(p.proc, ProcessorId(0));
        assert_eq!(idx.task_spawns, vec![(1, 0)]);
    }

    #[test]
    fn task_id_reusable_after_episode_closes() {
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(10, 0, 0, fork(0)),
                e(15, 1, 1, fork(0)),
                e(20, 1, 2, join(0)),
                e(25, 0, 3, join(0)),
                e(30, 0, 4, fork(0)),
                e(35, 2, 5, fork(0)),
                e(40, 2, 6, join(0)),
                e(45, 0, 7, join(0)),
            ],
        );
        let idx = pair_sync_events(&t).unwrap();
        assert_eq!(idx.episodes.len(), 2);
        assert_eq!(idx.task_spawns, vec![(1, 0), (5, 4)]);
    }

    #[test]
    fn task_protocol_violations_rejected() {
        // Join with no open episode.
        let t = Trace::from_events(TraceKind::Measured, vec![e(1, 0, 0, join(0))]);
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::TaskProtocol { .. }
        ));
        // Third fork on an open episode.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, fork(0)),
                e(2, 1, 1, fork(0)),
                e(3, 2, 2, fork(0)),
            ],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::TaskProtocol { .. }
        ));
        // Join-return on a processor other than the spawner.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![
                e(1, 0, 0, fork(0)),
                e(2, 1, 1, fork(0)),
                e(3, 1, 2, join(0)),
                e(4, 2, 3, join(0)),
            ],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::TaskProtocol { .. }
        ));
        // Episode left open at trace end.
        let t = Trace::from_events(
            TraceKind::Measured,
            vec![e(1, 0, 0, fork(0)), e(2, 1, 1, fork(0))],
        );
        assert!(matches!(
            pair_sync_events(&t).unwrap_err(),
            TraceError::TaskProtocol { .. }
        ));
    }
}
