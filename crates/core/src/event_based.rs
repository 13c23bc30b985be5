//! Event-based perturbation analysis (paper §4).
//!
//! The constructive process of §4.2.3: resolve an approximate time
//! `ta(x)` for every measured event, using each event's *time basis* —
//! the preceding event on its thread (or the loop-entry event for the
//! first event a processor emits in a concurrent loop) — for ordinary
//! events, and the synchronization semantics for the rest:
//!
//! ```text
//! ta(advance) = ta(u) + tm(advance) − tm(u) − α
//! ta(awaitB)  = ta(v) + tm(awaitB)  − tm(v) − β
//! ta(awaitE)  = ta(awaitB) + s_nowait              if ta(advance) ≤ ta(awaitB)
//!             = ta(advance) + s_wait               otherwise
//! ta(barrier exit) = max over enters ta(enter) + s_barrier
//! ```
//!
//! Synchronization waiting is thereby *recomputed* in approximated time
//! rather than inherited from the measurement: waiting that existed only
//! because of instrumentation disappears, and waiting that the
//! instrumentation masked reappears (the two cases of the paper's
//! Figure 2). The advance/await pairing (and hence the measured partial
//! order of dependent operations) is preserved — this is the paper's
//! *conservative approximation*: always a feasible execution, not
//! necessarily the most likely one.
//!
//! Resolution is a worklist (Kahn) pass over the event dependency DAG:
//! same-thread edges, advance→awaitE pairing edges, and barrier
//! enters→exit edges. A cycle means the trace is not a possible execution
//! and is reported as an error.

use crate::error::AnalysisError;
use crate::streaming::{EventBasedAnalyzer, StreamOutput};
use ppa_trace::{
    pair_sync_events, BarrierId, EpisodeFamily, Event, EventKind, OverheadSpec, ProcessorId, Span,
    SyncIndex, SyncTag, SyncVarId, Time, Trace, TraceKind,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One await, in approximated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwaitOutcome {
    /// Processor that executed the await.
    pub proc: ProcessorId,
    /// Synchronization variable.
    pub var: SyncVarId,
    /// Tag awaited.
    pub tag: SyncTag,
    /// Approximated `awaitB` time.
    pub begin: Time,
    /// Approximated `awaitE` time.
    pub end: Time,
    /// Approximated blocked span (zero when the tag was already advanced).
    pub wait: Span,
}

impl AwaitOutcome {
    /// True if the await blocked in the approximated execution.
    pub fn waited(&self) -> bool {
        !self.wait.is_zero()
    }
}

/// One processor's passage through one barrier episode, in approximated
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarrierOutcome {
    /// The barrier.
    pub barrier: BarrierId,
    /// The processor.
    pub proc: ProcessorId,
    /// Approximated enter time.
    pub enter: Time,
    /// Approximated exit time.
    pub exit: Time,
    /// Approximated wait (release minus own arrival).
    pub wait: Span,
}

/// One resolved lock/semaphore/fork-join episode, in approximated time.
///
/// The blocked-completion event — a lock acquire, a semaphore P, or the
/// parent's join-return — is approximated by the §4.2.3 await rule with
/// the enabling event (the previous release, the k-th V, or the child's
/// end) playing the advance's role:
///
/// ```text
/// ready = ta(basis) + tm − tm(basis) − oh        (the chain rule)
/// ta    = ready                 if no dependency, or ta(dep) ≤ ready
///       = ta(dep) + s_wait      otherwise
/// ```
///
/// Unlike an await, the blocked operation records a single event (there
/// is no `awaitB` analogue), so measured blocking time folds into the
/// chain delta and cannot be subtracted — the approximation is
/// conservative for contended episodes (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpisodeOutcome {
    /// Synchronization family of the episode.
    pub family: EpisodeFamily,
    /// Raw id of the lock/semaphore/task object.
    pub object: u32,
    /// Processor that executed the blocked operation.
    pub proc: ProcessorId,
    /// Approximated time the operation would have completed had the
    /// resource been free (the chain-rule value).
    pub ready: Time,
    /// Approximated completion time.
    pub end: Time,
    /// Approximated blocked span (zero when the resource was free).
    pub wait: Span,
}

impl EpisodeOutcome {
    /// True if the operation blocked in the approximated execution.
    pub fn waited(&self) -> bool {
        !self.wait.is_zero()
    }
}

/// The product of event-based analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBasedResult {
    /// The approximated trace.
    pub trace: Trace,
    /// Every await, in approximated time (ordered by `awaitE` position in
    /// the measured trace).
    pub awaits: Vec<AwaitOutcome>,
    /// Every processor×barrier-episode passage, in approximated time.
    pub barriers: Vec<BarrierOutcome>,
    /// Every lock/semaphore/task episode, in approximated time (ordered
    /// by blocked-event position in the measured trace).
    pub episodes: Vec<EpisodeOutcome>,
}

impl EventBasedResult {
    /// The approximated total execution time.
    pub fn total_time(&self) -> Span {
        self.trace.total_time()
    }

    /// Total approximated synchronization waiting on one processor.
    pub fn sync_wait(&self, proc: ProcessorId) -> Span {
        self.awaits
            .iter()
            .filter(|a| a.proc == proc)
            .map(|a| a.wait)
            .sum()
    }

    /// Total approximated barrier waiting on one processor.
    pub fn barrier_wait(&self, proc: ProcessorId) -> Span {
        self.barriers
            .iter()
            .filter(|b| b.proc == proc)
            .map(|b| b.wait)
            .sum()
    }
}

/// How each event's approximate time is anchored.
#[derive(Debug, Clone, Copy)]
enum Basis {
    /// The globally first event: `ta = tm − overhead`.
    Origin,
    /// Anchored to another event (same-thread predecessor or fork point).
    Event(usize),
}

/// Computes every event's time basis (same-thread predecessor, fork
/// anchor, or origin) for a non-empty event sequence whose task episodes
/// pair as `task_spawns` (from [`SyncIndex`]).
fn discover_structure(events: &[Event], task_spawns: &[(usize, usize)]) -> Vec<Basis> {
    let n = events.len();
    // Same-thread predecessors.
    let mut prev: Vec<Option<usize>> = vec![None; n];
    {
        let mut last: std::collections::BTreeMap<ProcessorId, usize> = Default::default();
        for (i, e) in events.iter().enumerate() {
            prev[i] = last.insert(e.proc, i);
        }
    }
    // Latest loop-begin at or before each position (fork bases).
    let mut last_loop_begin: Vec<Option<usize>> = vec![None; n];
    {
        let mut cur = None;
        for (i, e) in events.iter().enumerate() {
            if matches!(e.kind, EventKind::LoopBegin { .. }) {
                cur = Some(i);
            }
            last_loop_begin[i] = cur;
        }
    }
    let serial_proc = events[0].proc;

    // Task-graph fork anchors: the child's begin fork (the second fork of
    // a task) is causally created by the parent's spawn fork, so it
    // anchors there rather than to the child processor's stale frontier —
    // the episode analogue of the loop-begin fork point below.
    let fork_anchor: std::collections::HashMap<usize, usize> =
        task_spawns.iter().copied().collect();

    // The basis for ordinary events; awaitE and barrier exits get their
    // own rules but still need dependency edges.
    (0..n)
        .map(|i| {
            if let Some(&spawn) = fork_anchor.get(&i) {
                return Basis::Event(spawn);
            }
            match prev[i] {
                Some(p) => {
                    // Fork point: a non-serial processor whose previous
                    // event predates the current loop's entry was idle in
                    // between (its last event was a barrier exit — or
                    // nothing at all when barriers are not instrumented);
                    // anchor to the loop entry instead of the stale
                    // predecessor, so the serial thread's inter-loop
                    // instrumentation is not charged to this processor.
                    let fork_point = events[i].proc != serial_proc
                        && last_loop_begin[i].map(|lb| lb > p).unwrap_or(false);
                    if fork_point {
                        Basis::Event(last_loop_begin[i].unwrap_or(p))
                    } else {
                        Basis::Event(p)
                    }
                }
                // A thread's first event: anchor to the loop entry when
                // the trace has loop markers; otherwise treat the thread
                // start as absolute (`ta = tm − overhead`) — without
                // markers there is no observable fork event to anchor to.
                None => match last_loop_begin[i] {
                    Some(lb) if lb != i => Basis::Event(lb),
                    _ => Basis::Origin,
                },
            }
        })
        .collect()
}

/// Builds the [`EventBasedResult`] from fully resolved approximate times.
///
/// `basis` is [`discover_structure`] of the same event sequence — the
/// episode outcomes re-derive each blocked event's chain-rule `ready`
/// time from it.
fn assemble_result(
    events: &[Event],
    ta: &[Time],
    index: &SyncIndex,
    basis: &[Basis],
    overheads: &OverheadSpec,
) -> EventBasedResult {
    let approx_events: Vec<Event> = events
        .iter()
        .enumerate()
        .map(|(i, e)| Event { time: ta[i], ..*e })
        .collect();

    let awaits = index
        .awaits
        .iter()
        .map(|p| {
            let (var, tag) = match events[p.end].kind {
                EventKind::AwaitEnd { var, tag } => (var, tag),
                _ => unreachable!("await pair indexes an awaitE"),
            };
            let begin = ta[p.begin];
            let end = ta[p.end];
            let wait = match p.advance {
                Some(adv) => ta[adv].saturating_since(begin),
                None => Span::ZERO,
            };
            AwaitOutcome {
                proc: p.proc,
                var,
                tag,
                begin,
                end,
                wait,
            }
        })
        .collect();

    let mut barriers = Vec::new();
    for ep in &index.barriers {
        let release = ep
            .enters
            .iter()
            .map(|&en| ta[en])
            .max()
            .expect("episodes have enters");
        for &en in &ep.enters {
            let proc = events[en].proc;
            let exit = ep
                .exits
                .iter()
                .find(|&&x| events[x].proc == proc)
                .copied()
                .expect("validated episodes pair enters and exits per processor");
            barriers.push(BarrierOutcome {
                barrier: ep.barrier,
                proc,
                enter: ta[en],
                exit: ta[exit],
                wait: release.saturating_since(ta[en]),
            });
        }
    }

    let episodes = index
        .episodes
        .iter()
        .map(|p| {
            let e = &events[p.event];
            let oh = overheads.instr_overhead(&e.kind);
            let ready = match basis[p.event] {
                Basis::Origin => e.time.saturating_sub_span(oh),
                Basis::Event(b) => {
                    ta[b] + e.time.saturating_since(events[b].time).saturating_sub(oh)
                }
            };
            let wait = match p.dep {
                Some(d) => ta[d].saturating_since(ready),
                None => Span::ZERO,
            };
            EpisodeOutcome {
                family: p.family,
                object: p.object,
                proc: p.proc,
                ready,
                end: ta[p.event],
                wait,
            }
        })
        .collect();

    EventBasedResult {
        trace: Trace::from_events(TraceKind::Approximated, approx_events),
        awaits,
        barriers,
        episodes,
    }
}

/// Applies event-based perturbation analysis to a measured trace.
///
/// This runs the incremental engine
/// ([`EventBasedAnalyzer`](crate::EventBasedAnalyzer)) over the whole
/// trace and reassembles its outputs; the result is identical to the
/// direct worklist formulation kept as [`event_based_reference`]. The
/// approximation rules are those of §4.2.3:
///
/// ```text
/// ta(advance) = ta(u) + tm(advance) − tm(u) − α
/// ta(awaitB)  = ta(v) + tm(awaitB)  − tm(v) − β
/// ta(awaitE)  = ta(awaitB) + s_nowait              if ta(advance) ≤ ta(awaitB)
///             = ta(advance) + s_wait               otherwise
/// ta(barrier exit) = max over enters ta(enter) + s_barrier
/// ```
///
/// # Examples
///
/// ```
/// use ppa_program::{InstrumentationPlan, ProgramBuilder};
/// use ppa_sim::{run_actual, run_measured, SimConfig};
/// use ppa_core::event_based;
///
/// // A DOACROSS loop with a critical section.
/// let mut b = ProgramBuilder::new("demo");
/// let v = b.sync_var();
/// let program = b
///     .doacross(1, 32, |body| {
///         body.compute("head", 500).await_var(v, -1).compute("cs", 60).advance(v)
///     })
///     .build()
///     .unwrap();
///
/// let cfg = SimConfig { clock: ppa_trace::ClockRate::GHZ_1, ..SimConfig::alliant_fx80() };
/// let actual = run_actual(&program, &cfg).unwrap();
/// let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
///
/// // The measurement is perturbed; the analysis recovers the truth.
/// assert!(measured.trace.total_time() > actual.trace.total_time());
/// let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
/// assert_eq!(approx.total_time(), actual.trace.total_time());
/// ```
pub fn event_based(
    measured: &Trace,
    overheads: &OverheadSpec,
) -> Result<EventBasedResult, AnalysisError> {
    // A suppressed trace (repeat records from `ppa slice --suppress`)
    // analyzes via its logical expansion; the result is byte-identical
    // to analyzing the unsuppressed original because expansion is.
    if crate::expand::has_repeat_records(measured.events()) {
        let expanded = crate::expand::expand_trace(measured).map_err(|e| {
            AnalysisError::UnrecognizedStructure {
                detail: e.to_string(),
            }
        })?;
        return event_based(&expanded, overheads);
    }
    let mut analyzer = EventBasedAnalyzer::new(overheads);
    let mut events: Vec<Event> = Vec::with_capacity(measured.len());
    let mut awaits: Vec<(usize, AwaitOutcome)> = Vec::new();
    let mut barriers: Vec<(usize, BarrierOutcome)> = Vec::new();
    let mut episodes: Vec<(usize, EpisodeOutcome)> = Vec::new();
    {
        let mut dispatch = |o: StreamOutput| match o {
            StreamOutput::Event(e) => events.push(e),
            StreamOutput::Await { ordinal, outcome } => awaits.push((ordinal, outcome)),
            StreamOutput::Barrier { ordinal, outcome } => barriers.push((ordinal, outcome)),
            StreamOutput::Episode { ordinal, outcome } => episodes.push((ordinal, outcome)),
        };
        for e in measured.iter() {
            analyzer.push(*e)?;
            while let Some(o) = analyzer.next_output() {
                dispatch(o);
            }
        }
        for o in analyzer.finish()?.outputs {
            dispatch(o);
        }
    }
    // Events arrive already in final order; outcomes arrive in resolution
    // order and are keyed for the measured-trace order the batch analysis
    // reports them in.
    awaits.sort_by_key(|&(i, _)| i);
    barriers.sort_by_key(|&(i, _)| i);
    episodes.sort_by_key(|&(i, _)| i);
    Ok(EventBasedResult {
        trace: Trace::from_events(TraceKind::Approximated, events),
        awaits: awaits.into_iter().map(|(_, a)| a).collect(),
        barriers: barriers.into_iter().map(|(_, b)| b).collect(),
        episodes: episodes.into_iter().map(|(_, e)| e).collect(),
    })
}

/// The direct (batch) formulation of event-based analysis: build the full
/// dependency DAG, then resolve it with a worklist pass.
///
/// Kept as the executable specification of the analysis — the streaming
/// engine behind [`event_based`] is cross-validated against it. It
/// materializes `O(trace length)` state.
pub fn event_based_reference(
    measured: &Trace,
    overheads: &OverheadSpec,
) -> Result<EventBasedResult, AnalysisError> {
    let index = pair_sync_events(measured)?;
    let events = measured.events();
    let n = events.len();
    if n == 0 {
        return Ok(EventBasedResult {
            trace: Trace::new(TraceKind::Approximated),
            awaits: Vec::new(),
            barriers: Vec::new(),
            episodes: Vec::new(),
        });
    }

    let basis = discover_structure(events, &index.task_spawns);

    // awaitE -> (awaitB, advance) lookups.
    let mut await_of_end: std::collections::HashMap<usize, (usize, Option<usize>)> =
        Default::default();
    for pair in &index.awaits {
        await_of_end.insert(pair.end, (pair.begin, pair.advance));
    }
    // barrier exit -> episode (list of enters) lookup.
    let mut episode_of_exit: std::collections::HashMap<usize, usize> = Default::default();
    for (ep_idx, ep) in index.barriers.iter().enumerate() {
        for &x in &ep.exits {
            episode_of_exit.insert(x, ep_idx);
        }
    }
    // blocked event -> lock/sem/task episode pair lookup.
    let mut blocked_of_event: std::collections::HashMap<usize, usize> = Default::default();
    for (p_idx, p) in index.episodes.iter().enumerate() {
        blocked_of_event.insert(p.event, p_idx);
    }

    // --- Dependency edges ----------------------------------------------
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree: Vec<usize> = vec![0; n];
    let add_edge = |from: usize, to: usize, out: &mut Vec<Vec<usize>>, ind: &mut Vec<usize>| {
        out[from].push(to);
        ind[to] += 1;
    };
    for (i, bas) in basis.iter().enumerate() {
        match *bas {
            Basis::Origin => {}
            Basis::Event(b) => add_edge(b, i, &mut out_edges, &mut indegree),
        }
        if let Some(&(begin, advance)) = await_of_end.get(&i) {
            // The basis edge already covers `begin` when it is the direct
            // predecessor, but hand-built traces may interleave; add both
            // (duplicate edges only inflate indegree symmetrically).
            add_edge(begin, i, &mut out_edges, &mut indegree);
            if let Some(adv) = advance {
                add_edge(adv, i, &mut out_edges, &mut indegree);
            }
        }
        if let Some(&ep_idx) = episode_of_exit.get(&i) {
            for &enter in &index.barriers[ep_idx].enters {
                add_edge(enter, i, &mut out_edges, &mut indegree);
            }
        }
        if let Some(&p_idx) = blocked_of_event.get(&i) {
            if let Some(dep) = index.episodes[p_idx].dep {
                add_edge(dep, i, &mut out_edges, &mut indegree);
            }
        }
    }
    // Basis edges were added twice for awaitE events whose basis is their
    // own awaitB; recompute indegree cleanly instead of deduplicating:
    // (duplicates are fine for Kahn as long as decrements match, which
    // they do because out_edges holds the duplicates too.)

    // --- Worklist resolution --------------------------------------------
    let mut ta: Vec<Option<Time>> = vec![None; n];
    let mut ready: BinaryHeap<Reverse<usize>> = indegree
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| Reverse(i))
        .collect();
    let mut resolved = 0usize;

    while let Some(Reverse(i)) = ready.pop() {
        let e = &events[i];
        let time = if let Some(&(begin, advance)) = await_of_end.get(&i) {
            // awaitE rule.
            let tb = ta[begin].expect("awaitB resolved before awaitE");
            match advance {
                Some(adv) => {
                    let tadv = ta[adv].expect("advance resolved before awaitE");
                    if tadv <= tb {
                        tb + overheads.s_nowait
                    } else {
                        tadv + overheads.s_wait
                    }
                }
                None => tb + overheads.s_nowait,
            }
        } else if let Some(&ep_idx) = episode_of_exit.get(&i) {
            // Barrier rule.
            let release = index.barriers[ep_idx]
                .enters
                .iter()
                .map(|&en| ta[en].expect("enters resolved before exits"))
                .max()
                .expect("episodes have enters");
            release + overheads.barrier_release
        } else if let Some(&p_idx) = blocked_of_event.get(&i) {
            // Episode blocked rule (the awaitE rule with the enabling
            // event in the advance's role): the chain value is the ready
            // time; a later-enabled resource resumes at `dep + s_wait`.
            let oh = overheads.instr_overhead(&e.kind);
            let ready = match basis[i] {
                Basis::Origin => e.time.saturating_sub_span(oh),
                Basis::Event(b) => {
                    let tb = ta[b].expect("basis resolved first");
                    tb + e.time.saturating_since(events[b].time).saturating_sub(oh)
                }
            };
            match index.episodes[p_idx].dep {
                Some(d) => {
                    let td = ta[d].expect("enabling event resolved before the blocked one");
                    if td <= ready {
                        ready
                    } else {
                        td + overheads.s_wait
                    }
                }
                None => ready,
            }
        } else {
            // Generic rule: ta = ta(basis) + Δtm − overhead.
            let oh = overheads.instr_overhead(&e.kind);
            match basis[i] {
                Basis::Origin => e.time.saturating_sub_span(oh),
                Basis::Event(b) => {
                    let tb = ta[b].expect("basis resolved first");
                    let delta = e.time.saturating_since(events[b].time);
                    tb + delta.saturating_sub(oh)
                }
            }
        };
        ta[i] = Some(time);
        resolved += 1;
        for &succ in &out_edges[i] {
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                ready.push(Reverse(succ));
            }
        }
    }

    if resolved < n {
        return Err(AnalysisError::CyclicDependencies {
            unresolved: n - resolved,
        });
    }

    let ta: Vec<Time> = ta
        .into_iter()
        .map(|t| t.expect("all events resolved"))
        .collect();
    Ok(assemble_result(events, &ta, &index, &basis, overheads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::TraceBuilder;

    fn spec(
        stmt: u64,
        alpha: u64,
        beta: u64,
        awe: u64,
        s_nowait: u64,
        s_wait: u64,
    ) -> OverheadSpec {
        OverheadSpec {
            statement_event: Span::from_nanos(stmt),
            marker_event: Span::from_nanos(stmt),
            advance_instr: Span::from_nanos(alpha),
            await_begin_instr: Span::from_nanos(beta),
            await_end_instr: Span::from_nanos(awe),
            barrier_instr: Span::from_nanos(stmt),
            s_nowait: Span::from_nanos(s_nowait),
            s_wait: Span::from_nanos(s_wait),
            advance_op: Span::ZERO,
            barrier_release: Span::from_nanos(0),
        }
    }

    /// Figure 2 case (A): waiting occurred in the measurement (caused by
    /// instrumentation); the approximation removes it.
    #[test]
    fn figure2_case_a_wait_removed() {
        // Thread 0: stmt at 100 (cost 60 + oh 40), advance at 200
        //           (op at 160+40=200 incl α=40... tm = 200).
        // Thread 1: awaitB at 50 (cost 10 + β 40), waits for advance,
        //           awaitE at 210 (resume 200 + s_wait 10, no aE oh).
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .stmt(0)
            .at(200)
            .advance(0, 0)
            .on(1)
            .at(50)
            .await_begin(0, 0)
            .at(210)
            .await_end(0, 0)
            .build();
        let oh = spec(40, 40, 40, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        // Approximated: thread0 stmt at 60, advance at 60 + (200-100) - 40 = 120.
        // Thread1 awaitB at 50-40=10; ta(advance)=120 > 10 → wait;
        // awaitE = 120 + 10 = 130 (not 210-something: wait recomputed).
        let times: std::collections::HashMap<&'static str, u64> = r
            .trace
            .iter()
            .map(|e| (e.kind.mnemonic(), e.time.as_nanos()))
            .collect();
        assert_eq!(times["stmt"], 60);
        assert_eq!(times["advance"], 120);
        assert_eq!(times["awaitB"], 10);
        assert_eq!(times["awaitE"], 130);
        assert_eq!(r.awaits.len(), 1);
        assert!(r.awaits[0].waited());
        assert_eq!(r.awaits[0].wait, Span::from_nanos(110));
    }

    /// Figure 2 case (B): no waiting in the measurement (instrumentation
    /// delayed the awaiting thread), but waiting appears in the
    /// approximation.
    #[test]
    fn figure2_case_b_wait_appears() {
        // Thread 0: advance measured at 100 (α=40, op done at 60).
        // Thread 1: three statements (oh 40 each) then awaitB at 150;
        //           tag already advanced → awaitE at 155 (s_nowait 5).
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .advance(0, 0)
            .on(1)
            .at(50)
            .stmt(0)
            .at(100)
            .stmt(1)
            .at(150)
            .await_begin(0, 0)
            .at(155)
            .await_end(0, 0)
            .build();
        let oh = spec(40, 40, 40, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        // Approx: advance at 60. Thread 1 stmts at 10, 20; awaitB at
        // 20 + (150-100) - 40 = 30. ta(advance)=60 > 30 → waiting appears:
        // awaitE = 60 + 10 = 70.
        assert!(r.awaits[0].waited());
        let awaite = r
            .trace
            .iter()
            .find(|e| matches!(e.kind, EventKind::AwaitEnd { .. }))
            .unwrap();
        assert_eq!(awaite.time.as_nanos(), 70);
    }

    #[test]
    fn no_wait_when_advance_precedes() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .advance(0, 0)
            .on(1)
            .at(100)
            .await_begin(0, 0)
            .at(105)
            .await_end(0, 0)
            .build();
        let oh = spec(0, 0, 0, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        assert!(!r.awaits[0].waited());
        let awaite = r
            .trace
            .iter()
            .find(|e| matches!(e.kind, EventKind::AwaitEnd { .. }))
            .unwrap();
        // awaitB at 100, + s_nowait 5.
        assert_eq!(awaite.time.as_nanos(), 105);
    }

    #[test]
    fn pre_advanced_tag_never_waits() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(50)
            .await_begin(0, -1)
            .at(55)
            .await_end(0, -1)
            .build();
        let r = event_based(&t, &spec(0, 0, 0, 0, 5, 10)).unwrap();
        assert!(!r.awaits[0].waited());
        assert_eq!(r.awaits[0].end.as_nanos(), 55);
    }

    #[test]
    fn zero_overhead_zero_sync_cost_is_identity_on_feasible_traces() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .stmt(0)
            .at(20)
            .advance(0, 0)
            .at(30)
            .stmt(1)
            .on(1)
            .at(5)
            .stmt(2)
            .at(25)
            .await_begin(0, 0)
            .at(25)
            .await_end(0, 0)
            .build();
        let r = event_based(&t, &OverheadSpec::ZERO).unwrap();
        for (orig, approx) in t.iter().zip(r.trace.iter()) {
            assert_eq!(orig.time, approx.time, "event {orig} moved");
        }
    }

    #[test]
    fn barrier_exit_at_latest_enter() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .barrier_enter(0)
            .on(1)
            .at(30)
            .barrier_enter(0)
            .on(0)
            .at(30)
            .barrier_exit(0)
            .on(1)
            .at(30)
            .barrier_exit(0)
            .build();
        let mut oh = OverheadSpec::ZERO;
        oh.barrier_release = Span::from_nanos(7);
        let r = event_based(&t, &oh).unwrap();
        for e in r.trace.iter() {
            if matches!(e.kind, EventKind::BarrierExit { .. }) {
                assert_eq!(e.time.as_nanos(), 37);
            }
        }
        // P0 waited 20, P1 waited 0.
        let w0 = r
            .barriers
            .iter()
            .find(|b| b.proc == ProcessorId(0))
            .unwrap();
        let w1 = r
            .barriers
            .iter()
            .find(|b| b.proc == ProcessorId(1))
            .unwrap();
        assert_eq!(w0.wait, Span::from_nanos(20));
        assert_eq!(w1.wait, Span::ZERO);
    }

    #[test]
    fn multiple_barrier_episodes_resolve_independently() {
        let mut oh = OverheadSpec::ZERO;
        oh.barrier_release = Span::from_nanos(3);
        let t = TraceBuilder::measured()
            // Episode 1: release at 20.
            .on(0)
            .at(10)
            .barrier_enter(0)
            .on(1)
            .at(20)
            .barrier_enter(0)
            .on(0)
            .at(20)
            .barrier_exit(0)
            .on(1)
            .at(20)
            .barrier_exit(0)
            // Episode 2 of the same barrier id: release at 50.
            .on(0)
            .at(40)
            .barrier_enter(0)
            .on(1)
            .at(50)
            .barrier_enter(0)
            .on(0)
            .at(50)
            .barrier_exit(0)
            .on(1)
            .at(50)
            .barrier_exit(0)
            .build();
        let r = event_based(&t, &oh).unwrap();
        let exits: Vec<u64> = r
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BarrierExit { .. }))
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(exits, vec![23, 23, 56, 56]);
        assert_eq!(r.barriers.len(), 4);
    }

    #[test]
    fn fork_basis_uses_the_latest_loop_begin() {
        // Two loops; P1's first event in loop 1 must anchor to loop 1's
        // begin, not loop 0's, so the serial gap between loops (which
        // includes P0's instrumentation) is not charged to P1.
        let mut oh = OverheadSpec::ZERO;
        oh.statement_event = Span::from_nanos(40);
        oh.marker_event = Span::ZERO;
        let t = TraceBuilder::measured()
            .on(0)
            .at(0)
            .loop_begin(0)
            .on(1)
            .at(140)
            .stmt(0) // loop 0 work on P1: cost 100 + oh 40
            .on(0)
            .at(200)
            .loop_end(0)
            // Serial segment on P0 with instrumentation: 3 statements.
            .on(0)
            .at(340)
            .stmt(1)
            .at(480)
            .stmt(2)
            .at(620)
            .stmt(3)
            .on(0)
            .at(620)
            .loop_begin(1)
            .on(1)
            .at(760)
            .stmt(4) // loop 1 work on P1: cost 100 + oh 40
            .on(0)
            .at(800)
            .loop_end(1)
            .build();
        let r = event_based(&t, &oh).unwrap();
        // Approximated loop 1 begin: 620 - 3*40 (P0's serial overhead)
        // = 500. P1's stmt: 500 + (760-620) - 40 = 600.
        let p1_events: Vec<u64> = r
            .trace
            .iter()
            .filter(|e| e.proc == ProcessorId(1))
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(p1_events, vec![100, 600]);
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = event_based(&Trace::new(TraceKind::Measured), &OverheadSpec::ZERO).unwrap();
        assert!(r.trace.is_empty());
        assert!(r.awaits.is_empty());
    }

    #[test]
    fn invalid_trace_is_rejected() {
        let t = TraceBuilder::measured().on(0).at(5).await_end(0, 0).build();
        assert!(matches!(
            event_based(&t, &OverheadSpec::ZERO),
            Err(AnalysisError::Trace(_))
        ));
    }

    /// Regression: overheads larger than the measured inter-event deltas
    /// used to clamp the §4.2.3 corrections silently. The clamps still
    /// happen (the approximation must stay locally non-decreasing) but
    /// are now counted, and streaming stays identical to the reference.
    #[test]
    fn oversized_overhead_clamps_are_counted_not_silent() {
        // Every inter-event delta is 100 ns; every overhead is 1000 ns.
        // Proc 0 exercises the origin rule, the fast path, and the
        // general chain rule (advance); proc 1 the await machinery.
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .stmt(0)
            .at(200)
            .stmt(1)
            .at(300)
            .advance(0, 0)
            .on(1)
            .at(150)
            .await_begin(0, 0)
            .at(400)
            .await_end(0, 0)
            .build();
        let oh = spec(1000, 1000, 1000, 1000, 5, 10);

        let mut analyzer = EventBasedAnalyzer::new(&oh);
        for e in t.iter() {
            analyzer.push(*e).unwrap();
        }
        let tail = analyzer.finish().unwrap();
        assert!(
            tail.stats.clamped >= 4,
            "expected every underflowing correction counted, got {}",
            tail.stats.clamped
        );

        // The clamps are semantics, not a bug: streaming, the wrapper,
        // and the batch reference all agree on the clamped values.
        let streamed = event_based(&t, &oh).unwrap();
        let reference = event_based_reference(&t, &oh).unwrap();
        assert_eq!(streamed, reference);
        // And the clamped chain really did hold at its basis.
        assert!(streamed
            .trace
            .iter()
            .all(|e| e.time <= Time::from_nanos(10)));
    }

    #[test]
    fn clamp_counter_exports_through_obs() {
        use crate::streaming::AnalyzerProbes;
        use ppa_obs::Registry;

        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .stmt(0)
            .at(200)
            .stmt(1)
            .build();
        let oh = spec(1000, 0, 0, 0, 0, 0);
        let registry = Registry::new();
        let mut analyzer =
            EventBasedAnalyzer::with_probes(&oh, AnalyzerProbes::register(&registry));
        for e in t.iter() {
            analyzer.push(*e).unwrap();
        }
        let tail = analyzer.finish().unwrap();
        let exported = registry
            .snapshot()
            .entries
            .iter()
            .find_map(
                |m| match (m.name == "ppa_core_clamped_approx_total", &m.value) {
                    (true, ppa_obs::MetricValue::Counter(c)) => Some(*c),
                    _ => None,
                },
            )
            .expect("clamp counter registered");
        assert_eq!(exported, tail.stats.clamped as u64);
        assert!(exported >= 2, "both underflowing statements counted");
    }

    /// The blocked rule for locks: the acquire's ready time is its chain
    /// value, and the matching release plays the advance's role.
    #[test]
    fn lock_acquire_waits_on_the_release() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .lock_acquire(0)
            .at(150)
            .lock_release(0)
            .on(1)
            .at(50)
            .stmt(0)
            .at(100)
            .stmt(1)
            .at(160)
            .lock_acquire(0)
            .at(170)
            .lock_release(0)
            .build();
        let oh = spec(40, 0, 0, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        // P0's acquire is uncontended (no prior release): ready = end =
        // its origin value 100. P1's statements lose 40 ns of overhead
        // each, so its acquire is ready at 20 + (160 − 100) = 80 — but
        // the release only resolves at 150, so the episode waits:
        // end = 150 + s_wait = 160.
        assert_eq!(r.episodes.len(), 2);
        let (a, b) = (&r.episodes[0], &r.episodes[1]);
        assert_eq!(
            (a.family, a.object, a.proc),
            (EpisodeFamily::Lock, 0, ProcessorId(0))
        );
        assert!(!a.waited());
        assert_eq!((a.ready.as_nanos(), a.end.as_nanos()), (100, 100));
        assert_eq!((b.family, b.proc), (EpisodeFamily::Lock, ProcessorId(1)));
        assert_eq!((b.ready.as_nanos(), b.end.as_nanos()), (80, 160));
        assert_eq!(b.wait, Span::from_nanos(70));
        // P1's release chains from the delayed acquire.
        let p1_rel = r
            .trace
            .iter()
            .find(|e| e.proc == ProcessorId(1) && matches!(e.kind, EventKind::LockRelease { .. }))
            .unwrap();
        assert_eq!(p1_rel.time.as_nanos(), 170);
    }

    /// The blocked rule for semaphores: each P consumes the earliest
    /// unconsumed V.
    #[test]
    fn sem_acquire_pairs_fifo_with_releases() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .sem_release(0)
            .at(140)
            .sem_release(0)
            .on(1)
            .at(50)
            .stmt(0)
            .at(120)
            .sem_acquire(0)
            .on(2)
            .at(150)
            .sem_acquire(0)
            .build();
        let oh = spec(40, 0, 0, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        // First P (P1): ready = 10 + (120 − 50) = 80, dep = first V at
        // 100 > 80 → end 110, wait 20. Second P (P2): origin ready 150,
        // dep = second V at 140 ≤ 150 → no wait.
        assert_eq!(r.episodes.len(), 2);
        let first = &r.episodes[0];
        assert_eq!(
            (first.family, first.proc),
            (EpisodeFamily::Sem, ProcessorId(1))
        );
        assert_eq!((first.ready.as_nanos(), first.end.as_nanos()), (80, 110));
        assert_eq!(first.wait, Span::from_nanos(20));
        let second = &r.episodes[1];
        assert_eq!(second.proc, ProcessorId(2));
        assert!(!second.waited());
        assert_eq!(second.end.as_nanos(), 150);
    }

    /// Fork/join: the child's begin chains from the spawn (not the child
    /// processor's own frontier), and the parent's join-return follows
    /// the blocked rule with the child's end as the enabling event.
    #[test]
    fn fork_join_episode_follows_the_blocked_rule() {
        let t = TraceBuilder::measured()
            .on(1)
            .at(5)
            .stmt(9) // stale frontier on the child processor
            .on(0)
            .at(10)
            .task_fork(7) // spawn
            .on(1)
            .at(20)
            .task_fork(7) // child begin
            .at(60)
            .stmt(0)
            .at(100)
            .task_join(7) // child end
            .on(0)
            .at(40)
            .stmt(1)
            .at(80)
            .stmt(2)
            .at(110)
            .task_join(7) // parent join-return
            .build();
        let oh = spec(40, 0, 0, 0, 5, 10);
        let r = event_based(&t, &oh).unwrap();
        // Child begin = ta(spawn) + (20 − 10) = 20; a frontier chain from
        // the stale statement (ta 0) would have given 15 instead.
        let begin = r
            .trace
            .iter()
            .find(|e| e.proc == ProcessorId(1) && matches!(e.kind, EventKind::TaskFork { .. }))
            .unwrap();
        assert_eq!(begin.time.as_nanos(), 20);
        // Child end: 20 + (60−20) − 40 = 20, + (100−60) = 60. Parent
        // ready: spawn 10 → stmts at 10, 10 → 10 + (110−80) = 40; the
        // child's end (60) is later, so the return waits 20 and lands at
        // 60 + s_wait = 70.
        assert_eq!(r.episodes.len(), 1);
        let ep = &r.episodes[0];
        assert_eq!(
            (ep.family, ep.object, ep.proc),
            (EpisodeFamily::Task, 7, ProcessorId(0))
        );
        assert_eq!((ep.ready.as_nanos(), ep.end.as_nanos()), (40, 70));
        assert_eq!(ep.wait, Span::from_nanos(20));
    }

    /// Streaming and reference agree on a trace mixing every episode
    /// family with awaits and barriers.
    #[test]
    fn episode_families_match_reference() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .loop_begin(0)
            .at(20)
            .task_fork(3)
            .on(2)
            .at(30)
            .task_fork(3)
            .at(90)
            .task_join(3)
            .on(0)
            .at(50)
            .lock_acquire(1)
            .at(100)
            .lock_release(1)
            .at(110)
            .advance(0, 0)
            .on(1)
            .at(40)
            .await_begin(0, 0)
            .at(115)
            .await_end(0, 0)
            .at(120)
            .lock_acquire(1)
            .at(130)
            .lock_release(1)
            .at(140)
            .sem_release(2)
            .on(0)
            .at(150)
            .sem_acquire(2)
            .at(160)
            .task_join(3)
            .on(0)
            .at(200)
            .barrier_enter(0)
            .on(1)
            .at(210)
            .barrier_enter(0)
            .on(0)
            .at(220)
            .barrier_exit(0)
            .on(1)
            .at(230)
            .barrier_exit(0)
            .build();
        let oh = spec(7, 3, 4, 2, 5, 10);
        let streamed = event_based(&t, &oh).unwrap();
        let reference = event_based_reference(&t, &oh).unwrap();
        assert_eq!(streamed, reference);
        assert_eq!(streamed.episodes.len(), 4, "two locks, one sem, one task");
    }

    /// With zero overhead and zero sync cost, episode events are fixed
    /// points too, and no episode waits.
    #[test]
    fn zero_overhead_episodes_are_identity() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .lock_acquire(0)
            .at(20)
            .lock_release(0)
            .at(30)
            .sem_release(0)
            .at(40)
            .task_fork(1)
            .on(1)
            .at(50)
            .task_fork(1)
            .at(60)
            .sem_acquire(0)
            .at(70)
            .lock_acquire(0)
            .at(80)
            .lock_release(0)
            .at(90)
            .task_join(1)
            .on(0)
            .at(100)
            .task_join(1)
            .build();
        let r = event_based(&t, &OverheadSpec::ZERO).unwrap();
        for (orig, approx) in t.iter().zip(r.trace.iter()) {
            assert_eq!(orig.time, approx.time, "event {orig} moved");
        }
        assert!(r.episodes.iter().all(|e| !e.waited()));
    }

    /// Episode and barrier protocol errors defer to `finish` and match
    /// the batch validator's choice, including the end-of-trace checks
    /// and errors of different ranks in one trace — also when the stream
    /// is cut anywhere and resumed from a snapshot.
    #[test]
    fn episode_errors_match_batch_precedence() {
        let cases: Vec<Trace> = vec![
            // Acquire while held.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .lock_acquire(0)
                .on(1)
                .at(20)
                .lock_acquire(0)
                .build(),
            // Release by a non-holder.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .lock_release(0)
                .build(),
            // Sem P with no matching V.
            TraceBuilder::measured().on(0).at(10).sem_acquire(0).build(),
            // Join of an unknown task.
            TraceBuilder::measured().on(0).at(10).task_join(4).build(),
            // Lock held at the end.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .lock_acquire(0)
                .build(),
            // Task never joined.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .task_fork(2)
                .on(1)
                .at(20)
                .task_fork(2)
                .build(),
            // Barrier exit with no enter.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .barrier_exit(0)
                .build(),
            // Double exit.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .barrier_enter(0)
                .on(1)
                .at(20)
                .barrier_enter(0)
                .on(0)
                .at(30)
                .barrier_exit(0)
                .at(40)
                .barrier_exit(0)
                .build(),
            // An enter after the episode's first exit.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .barrier_enter(0)
                .on(1)
                .at(20)
                .barrier_enter(0)
                .on(0)
                .at(30)
                .barrier_exit(0)
                .on(2)
                .at(40)
                .barrier_enter(0)
                .on(1)
                .at(50)
                .barrier_exit(0)
                .on(2)
                .at(60)
                .barrier_exit(0)
                .build(),
            // Arity mismatch at the end.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .barrier_enter(1)
                .on(1)
                .at(20)
                .barrier_enter(1)
                .on(0)
                .at(30)
                .barrier_exit(1)
                .build(),
            // An episode error, then a barrier error: the barrier's wins.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .lock_release(0)
                .on(1)
                .at(20)
                .barrier_exit(3)
                .build(),
            // A barrier error, then a nested await: the await's wins.
            TraceBuilder::measured()
                .on(0)
                .at(10)
                .barrier_exit(3)
                .on(1)
                .at(20)
                .await_begin(0, 0)
                .at(30)
                .await_begin(0, 1)
                .build(),
        ];
        let oh = OverheadSpec::ZERO;
        for t in cases {
            let batch = format!("{}", event_based_reference(&t, &oh).unwrap_err());
            for cut in 0..=t.len() {
                let mut analyzer = EventBasedAnalyzer::new(&oh);
                for e in t.iter().take(cut) {
                    analyzer.push(*e).unwrap();
                }
                let json = serde_json::to_string(&analyzer.snapshot()).unwrap();
                let mut analyzer =
                    EventBasedAnalyzer::restore(&serde_json::from_str(&json).unwrap());
                for e in t.iter().skip(cut) {
                    analyzer.push(*e).unwrap();
                }
                let streamed = analyzer.finish().unwrap_err();
                assert_eq!(format!("{streamed}"), batch, "cut at {cut}");
            }
        }
    }

    /// A kill-and-resume across an open lock/sem/task frontier continues
    /// byte-identically.
    #[test]
    fn snapshot_restores_open_episode_state() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(10)
            .task_fork(1)
            .at(20)
            .lock_acquire(0)
            .at(60)
            .lock_release(0)
            .at(70)
            .sem_release(2)
            .on(1)
            .at(80)
            .task_fork(1)
            .at(90)
            .sem_acquire(2)
            .at(100)
            .lock_acquire(0)
            .at(110)
            .lock_release(0)
            .at(120)
            .task_join(1)
            .on(0)
            .at(130)
            .task_join(1)
            .build();
        let oh = spec(7, 3, 4, 2, 5, 10);
        for cut in 1..t.len() {
            let mut a = EventBasedAnalyzer::new(&oh);
            for e in t.iter().take(cut) {
                a.push(*e).unwrap();
            }
            let snap = a.snapshot();
            let mut b = EventBasedAnalyzer::restore(&snap);
            for e in t.iter().skip(cut) {
                a.push(*e).unwrap();
                b.push(*e).unwrap();
            }
            let ta = a.finish().unwrap();
            let tb = b.finish().unwrap();
            assert_eq!(ta.outputs, tb.outputs, "cut at {cut}");
        }
    }

    #[test]
    fn per_proc_wait_accessors() {
        let t = TraceBuilder::measured()
            .on(0)
            .at(100)
            .advance(0, 0)
            .on(1)
            .at(10)
            .await_begin(0, 0)
            .at(110)
            .await_end(0, 0)
            .build();
        let r = event_based(&t, &spec(0, 0, 0, 0, 0, 10)).unwrap();
        assert_eq!(r.sync_wait(ProcessorId(1)), Span::from_nanos(90));
        assert_eq!(r.sync_wait(ProcessorId(0)), Span::ZERO);
        assert_eq!(r.barrier_wait(ProcessorId(1)), Span::ZERO);
    }
}
