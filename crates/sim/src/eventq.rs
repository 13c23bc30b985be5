//! An independent event-queue simulation engine.
//!
//! The primary engine (`crate::engine`) exploits the validated program
//! structure to resolve concurrent loops in iteration order. This module
//! implements the same semantics a second, mechanically different way — a
//! classic discrete-event simulation with a priority queue of processor
//! resume events and wake-driven advance/await blocking — and exists to
//! *cross-validate* the primary engine: for every workload the two must
//! produce identical event sets, which the test suite asserts over the
//! synthetic workload space.
//!
//! Keeping both engines honest matters because the whole reproduction
//! rests on the simulator's timing semantics: a bug there would silently
//! re-calibrate every experiment.

use crate::config::{SchedulePolicy, SimConfig};
use crate::engine::{EngineProbes, SimError, SimResult};
use crate::jitter::jittered_cost;
use crate::stats::{LoopStats, ProcStats, SimStats};
use ppa_program::{
    validate, InstrumentationPlan, Loop, LoopKind, Program, Segment, Statement, StatementKind,
};
use ppa_trace::{
    Event, EventKind, LoopId, ProcessorId, Span, SyncTag, SyncVarId, Time, Trace, TraceKind,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Runs the program on the event-queue engine without instrumentation.
pub fn run_actual_eventq(program: &Program, config: &SimConfig) -> Result<SimResult, SimError> {
    EventQ::new(config, None, EngineProbes::noop()).run(program)
}

/// [`run_actual_eventq`] with observability: emitted events, dispatched
/// iterations, and ready-queue depth are recorded into `probes`.
pub fn run_actual_eventq_probed(
    program: &Program,
    config: &SimConfig,
    probes: EngineProbes,
) -> Result<SimResult, SimError> {
    EventQ::new(config, None, probes).run(program)
}

/// Runs the program on the event-queue engine under a plan.
pub fn run_measured_eventq(
    program: &Program,
    plan: &InstrumentationPlan,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    EventQ::new(config, Some(plan), EngineProbes::noop()).run(program)
}

struct EventQ<'a> {
    config: &'a SimConfig,
    plan: Option<&'a InstrumentationPlan>,
    events: Vec<Event>,
    seq: u64,
    instr_total: Span,
    stats: SimStats,
    probes: EngineProbes,
}

const SERIAL_LOOP_KEY: LoopId = LoopId(u32::MAX);

/// Per-processor position within a concurrent loop.
#[derive(Debug)]
struct ProcCursor {
    /// Current iteration, if one is being executed.
    iter: Option<u64>,
    /// Next statement index within the body.
    stmt: usize,
    /// Clock.
    clock: Time,
    /// Finished all its work and entered the barrier.
    at_barrier: bool,
}

#[derive(Debug, Default)]
struct VarState {
    /// Advance visibility times per tag.
    advanced: HashMap<i64, Time>,
    /// Processors blocked per tag.
    waiters: HashMap<i64, Vec<usize>>,
}

impl<'a> EventQ<'a> {
    fn new(
        config: &'a SimConfig,
        plan: Option<&'a InstrumentationPlan>,
        probes: EngineProbes,
    ) -> Self {
        EventQ {
            config,
            plan,
            events: Vec::new(),
            seq: 0,
            instr_total: Span::ZERO,
            stats: SimStats::default(),
            probes,
        }
    }

    fn recording(&self, kind: &EventKind, stmt: Option<&Statement>) -> Option<Span> {
        match self.plan {
            None => Some(Span::ZERO),
            Some(plan) => {
                let wanted = match kind {
                    EventKind::Statement { stmt: id } => {
                        stmt.map(|s| s.observable).unwrap_or(true) && plan.traces_statement(*id)
                    }
                    EventKind::IterationBegin { .. } | EventKind::IterationEnd { .. } => {
                        plan.iteration_markers
                    }
                    k if k.is_sync() => plan.sync_ops,
                    k if k.is_barrier() => plan.barriers,
                    _ => plan.markers,
                };
                wanted.then(|| self.config.overheads.instr_overhead(kind))
            }
        }
    }

    fn emit(
        &mut self,
        clock: &mut Time,
        proc: ProcessorId,
        kind: EventKind,
        stmt: Option<&Statement>,
    ) {
        if let Some(overhead) = self.recording(&kind, stmt) {
            *clock += overhead;
            self.instr_total += overhead;
            self.events.push(Event::new(*clock, proc, self.seq, kind));
            self.seq += 1;
            self.probes.events_emitted.inc();
        }
    }

    fn cycles(&self, c: u64) -> Span {
        self.config.clock.cycles(c)
    }

    fn run(mut self, program: &Program) -> Result<SimResult, SimError> {
        validate(program)?;
        if self.config.processors == 0 {
            return Err(SimError::NoProcessors);
        }
        let p0 = ProcessorId(0);
        let mut t0 = Time::ZERO;
        self.emit(&mut t0, p0, EventKind::ProgramBegin, None);

        for seg in &program.segments {
            match seg {
                Segment::Serial(stmts) => {
                    for s in stmts {
                        self.exec_compute(&mut t0, p0, s, SERIAL_LOOP_KEY, 0, 1000);
                    }
                }
                Segment::Loop(l) if !l.kind.is_concurrent() => {
                    let speedup = match l.kind {
                        LoopKind::Vector { speedup_permille } => speedup_permille.max(1),
                        _ => 1000,
                    };
                    self.emit(&mut t0, p0, EventKind::LoopBegin { loop_id: l.id }, None);
                    for i in 0..l.trip_count {
                        self.emit(
                            &mut t0,
                            p0,
                            EventKind::IterationBegin {
                                loop_id: l.id,
                                iter: i,
                            },
                            None,
                        );
                        for s in &l.body {
                            self.exec_compute(&mut t0, p0, s, l.id, i, speedup);
                        }
                        self.emit(
                            &mut t0,
                            p0,
                            EventKind::IterationEnd {
                                loop_id: l.id,
                                iter: i,
                            },
                            None,
                        );
                    }
                    self.emit(&mut t0, p0, EventKind::LoopEnd { loop_id: l.id }, None);
                }
                Segment::Loop(l) => {
                    t0 = self.run_parallel(t0, l)?;
                }
            }
        }

        self.emit(&mut t0, p0, EventKind::ProgramEnd, None);
        self.stats.events = self.events.len();
        self.stats.instr_overhead = self.instr_total;
        let kind = if self.plan.is_some() {
            TraceKind::Measured
        } else {
            TraceKind::Actual
        };
        Ok(SimResult {
            trace: Trace::from_events(kind, self.events),
            stats: self.stats,
        })
    }

    fn exec_compute(
        &mut self,
        clock: &mut Time,
        proc: ProcessorId,
        s: &Statement,
        loop_key: LoopId,
        iter: u64,
        speedup_permille: u32,
    ) {
        let cost = jittered_cost(self.config.jitter, loop_key, iter, s.id, s.cost());
        let cost = if speedup_permille == 1000 {
            cost
        } else {
            (cost as u128 * 1000 / speedup_permille as u128) as u64
        };
        *clock += self.cycles(cost);
        self.emit(clock, proc, EventKind::Statement { stmt: s.id }, Some(s));
    }

    /// The wake-driven parallel loop simulation.
    fn run_parallel(&mut self, mut t0: Time, l: &Loop) -> Result<Time, SimError> {
        let p = self.config.processors;
        let p0 = ProcessorId(0);
        self.emit(&mut t0, p0, EventKind::LoopBegin { loop_id: l.id }, None);
        let loop_start = t0;

        let mut cursors: Vec<ProcCursor> = (0..p)
            .map(|_| ProcCursor {
                iter: None,
                stmt: 0,
                clock: loop_start,
                at_barrier: false,
            })
            .collect();
        let mut proc_stats = vec![ProcStats::default(); p];
        let mut vars: HashMap<SyncVarId, VarState> = HashMap::new();
        let mut assignment: Vec<ProcessorId> = Vec::with_capacity(l.trip_count as usize);
        let mut next_iter = 0u64; // self-scheduling counter
        let mut claimed = vec![0u64; p]; // per-processor claim counters
        let chunk = l.trip_count.div_ceil(p as u64).max(1);

        // Ready queue of runnable processors: (time, proc). The processor
        // id tie-break mirrors the primary engine's deterministic order.
        let mut ready: BinaryHeap<Reverse<(Time, usize)>> =
            (0..p).map(|q| Reverse((loop_start, q))).collect();
        let mut arrived = 0usize;

        while let Some(Reverse((now, q))) = ready.pop() {
            self.probes.queue_depth.observe(ready.len() as u64);
            let mut clock = now.max(cursors[q].clock);
            // Fetch an iteration if idle.
            if cursors[q].iter.is_none() {
                let claim = match self.config.schedule {
                    SchedulePolicy::SelfScheduled => {
                        (next_iter < l.trip_count).then_some(next_iter)
                    }
                    SchedulePolicy::StaticCyclic => {
                        let mine = claimed[q] * p as u64 + q as u64;
                        (mine < l.trip_count).then_some(mine)
                    }
                    SchedulePolicy::StaticBlock => {
                        let mine = q as u64 * chunk + claimed[q];
                        (mine < (q as u64 + 1) * chunk && mine < l.trip_count).then_some(mine)
                    }
                };
                match claim {
                    Some(i) => {
                        // For static policies the claimed iteration may not
                        // be `next_iter`; record assignment sparsely and
                        // densify at the end.
                        if self.config.schedule == SchedulePolicy::SelfScheduled {
                            next_iter += 1;
                        }
                        claimed[q] += 1;
                        while assignment.len() <= i as usize {
                            assignment.push(ProcessorId(u16::MAX));
                        }
                        assignment[i as usize] = ProcessorId(q as u16);
                        cursors[q].iter = Some(i);
                        cursors[q].stmt = 0;
                        clock += self.cycles(self.config.dispatch_cycles);
                        self.emit(
                            &mut clock,
                            ProcessorId(q as u16),
                            EventKind::IterationBegin {
                                loop_id: l.id,
                                iter: i,
                            },
                            None,
                        );
                        proc_stats[q].iterations += 1;
                        self.probes.iterations_dispatched.inc();
                    }
                    None => {
                        // No more work: enter the barrier.
                        cursors[q].at_barrier = true;
                        self.emit(
                            &mut clock,
                            ProcessorId(q as u16),
                            EventKind::BarrierEnter { barrier: l.barrier },
                            None,
                        );
                        cursors[q].clock = clock;
                        arrived += 1;
                        continue;
                    }
                }
            }

            // Execute the body until blocking or iteration end.
            let i = cursors[q].iter.expect("iteration claimed");
            let pid = ProcessorId(q as u16);
            let mut blocked = false;
            while cursors[q].stmt < l.body.len() {
                let s = &l.body[cursors[q].stmt];
                match s.kind {
                    StatementKind::Compute { .. } => {
                        self.exec_compute(&mut clock, pid, s, l.id, i, 1000);
                    }
                    StatementKind::Await { var, offset } => {
                        let tag = SyncTag(i as i64 + offset);
                        // Emit awaitB only on first entry to this await
                        // (re-entry after a wake skips it).
                        let state = vars.entry(var).or_default();
                        let already_waiting = state
                            .waiters
                            .get(&tag.0)
                            .map(|w| w.contains(&q))
                            .unwrap_or(false);
                        if already_waiting {
                            // Woken by the advance, whose visibility time
                            // is `now`. The event-queue engine lets a
                            // processor run ahead of wall time, so the
                            // advance may turn out to predate our awaitB —
                            // in which case the await never really waited.
                            state
                                .waiters
                                .get_mut(&tag.0)
                                .expect("registered")
                                .retain(|&w| w != q);
                            let await_b = cursors[q].clock;
                            if now <= await_b {
                                clock = await_b + self.config.overheads.s_nowait;
                            } else {
                                proc_stats[q].sync_wait += now - await_b;
                                clock = now + self.config.overheads.s_wait;
                            }
                            self.emit(&mut clock, pid, EventKind::AwaitEnd { var, tag }, None);
                        } else {
                            self.emit(&mut clock, pid, EventKind::AwaitBegin { var, tag }, None);
                            let visible = if tag.is_pre_advanced() {
                                Some(clock) // immediately satisfied
                            } else {
                                state.advanced.get(&tag.0).copied()
                            };
                            match visible {
                                Some(v) if v <= clock => {
                                    clock += self.config.overheads.s_nowait;
                                    self.emit(
                                        &mut clock,
                                        pid,
                                        EventKind::AwaitEnd { var, tag },
                                        None,
                                    );
                                }
                                Some(v) => {
                                    // Advance known but in this proc's
                                    // future — cannot happen (advance
                                    // visibility is in the past once
                                    // recorded), treat as wait-until.
                                    proc_stats[q].sync_wait += v.saturating_since(clock);
                                    clock = v + self.config.overheads.s_wait;
                                    self.emit(
                                        &mut clock,
                                        pid,
                                        EventKind::AwaitEnd { var, tag },
                                        None,
                                    );
                                }
                                None => {
                                    // Block: register and stop; the
                                    // advance will reschedule us.
                                    state.waiters.entry(tag.0).or_default().push(q);
                                    cursors[q].clock = clock;
                                    blocked = true;
                                }
                            }
                        }
                    }
                    StatementKind::Advance { var } => {
                        clock += self.config.overheads.advance_op;
                        let visible = clock;
                        let state = vars.entry(var).or_default();
                        state.advanced.insert(i as i64, visible);
                        // Wake waiters: they resume at the visibility time
                        // (their awaitE emission happens on their turn).
                        if let Some(waiters) = state.waiters.get(&(i as i64)) {
                            for &w in waiters {
                                ready.push(Reverse((visible, w)));
                            }
                        }
                        self.emit(
                            &mut clock,
                            pid,
                            EventKind::Advance {
                                var,
                                tag: SyncTag(i as i64),
                            },
                            None,
                        );
                    }
                }
                if blocked {
                    break;
                }
                cursors[q].stmt += 1;
            }

            if blocked {
                continue;
            }

            // Iteration finished.
            self.emit(
                &mut clock,
                pid,
                EventKind::IterationEnd {
                    loop_id: l.id,
                    iter: i,
                },
                None,
            );
            cursors[q].iter = None;
            cursors[q].clock = clock;
            ready.push(Reverse((clock, q)));
        }

        debug_assert_eq!(arrived, p, "all processors reach the barrier");
        if assignment.iter().any(|a| a.0 == u16::MAX) {
            return Err(SimError::UnsatisfiableAwait {
                var: SyncVarId(u32::MAX),
                tag: SyncTag(-1),
            });
        }

        // Barrier release.
        let release = cursors
            .iter()
            .map(|c| c.clock)
            .max()
            .expect("processors > 0");
        for (q, cursor) in cursors.iter_mut().enumerate() {
            proc_stats[q].barrier_wait += release - cursor.clock;
            cursor.clock = release + self.config.overheads.barrier_release;
            let mut clock = cursor.clock;
            self.emit(
                &mut clock,
                ProcessorId(q as u16),
                EventKind::BarrierExit { barrier: l.barrier },
                None,
            );
            cursor.clock = clock;
        }

        for (q, ps) in proc_stats.iter_mut().enumerate() {
            let wall = cursors[q].clock.saturating_since(loop_start);
            ps.busy = wall.saturating_sub(ps.sync_wait + ps.barrier_wait);
        }

        let mut t_end = cursors[0].clock;
        self.emit(&mut t_end, p0, EventKind::LoopEnd { loop_id: l.id }, None);
        self.stats.loops.push(LoopStats {
            loop_id: l.id,
            start: loop_start,
            end: t_end,
            per_proc: proc_stats,
            assignment,
        });
        Ok(t_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_actual, run_measured};
    use ppa_program::ProgramBuilder;
    use ppa_trace::{ClockRate, OverheadSpec};

    fn cfg(schedule: SchedulePolicy) -> SimConfig {
        SimConfig {
            processors: 4,
            clock: ClockRate::GHZ_1,
            overheads: OverheadSpec::alliant_default(),
            schedule,
            dispatch_cycles: 50,
            jitter: None,
        }
    }

    fn doacross(trip: u64, head: u64, cs: u64, tail: u64) -> Program {
        let mut b = ProgramBuilder::new("xcheck");
        let v = b.sync_var();
        b.serial([("pre", 500u64)])
            .doacross(1, trip, |body| {
                body.compute("head", head)
                    .await_var(v, -1)
                    .compute("cs", cs)
                    .advance(v)
                    .compute("tail", tail)
            })
            .serial([("post", 500u64)])
            .build()
            .unwrap()
    }

    /// Event multiset (time, proc, kind) — seq numbers legitimately differ
    /// between the engines (emission order is an implementation detail).
    fn signature(r: &SimResult) -> Vec<(Time, ProcessorId, EventKind)> {
        let mut v: Vec<_> = r.trace.iter().map(|e| (e.time, e.proc, e.kind)).collect();
        v.sort();
        v
    }

    #[test]
    fn engines_agree_on_blocked_doacross() {
        let p = doacross(64, 100, 400, 50);
        for schedule in [
            SchedulePolicy::StaticCyclic,
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduled,
        ] {
            let c = cfg(schedule);
            let a1 = run_actual(&p, &c).unwrap();
            let a2 = run_actual_eventq(&p, &c).unwrap();
            assert_eq!(
                signature(&a1),
                signature(&a2),
                "actual mismatch under {schedule:?}"
            );
            assert_eq!(a1.stats.loops[0].assignment, a2.stats.loops[0].assignment);
        }
    }

    #[test]
    fn engines_agree_on_measured_runs() {
        let p = doacross(48, 800, 60, 120);
        let c = cfg(SchedulePolicy::StaticCyclic);
        let plan = InstrumentationPlan::full_with_sync();
        let m1 = run_measured(&p, &plan, &c).unwrap();
        let m2 = run_measured_eventq(&p, &plan, &c).unwrap();
        assert_eq!(signature(&m1), signature(&m2));
        assert_eq!(m1.stats.instr_overhead, m2.stats.instr_overhead);
    }

    #[test]
    fn engines_agree_on_waiting_stats() {
        let p = doacross(64, 100, 300, 0);
        let c = cfg(SchedulePolicy::StaticCyclic);
        let a1 = run_actual(&p, &c).unwrap();
        let a2 = run_actual_eventq(&p, &c).unwrap();
        for (s1, s2) in a1.stats.loops[0]
            .per_proc
            .iter()
            .zip(&a2.stats.loops[0].per_proc)
        {
            assert_eq!(s1.sync_wait, s2.sync_wait);
            assert_eq!(s1.barrier_wait, s2.barrier_wait);
            assert_eq!(s1.iterations, s2.iterations);
        }
    }

    #[test]
    fn engines_agree_with_jitter() {
        let p = doacross(96, 350, 90, 40);
        let c = cfg(SchedulePolicy::SelfScheduled).with_jitter(77, 300);
        let a1 = run_actual(&p, &c).unwrap();
        let a2 = run_actual_eventq(&p, &c).unwrap();
        assert_eq!(signature(&a1), signature(&a2));
    }

    #[test]
    fn eventq_rejects_what_engine_rejects() {
        let p = doacross(4, 1, 1, 1);
        let mut c = cfg(SchedulePolicy::StaticCyclic);
        c.processors = 0;
        assert_eq!(run_actual_eventq(&p, &c), Err(SimError::NoProcessors));
    }
}
