//! The execution engine.
//!
//! A structured discrete-event simulation of an Alliant-FX/80-style shared
//! memory multiprocessor. Programs are serial/parallel segment sequences
//! (`ppa-program`), which lets the engine simulate segment by segment:
//! serial segments and sequential/vector loops advance processor 0's
//! clock statement by statement; concurrent loops simulate all processors,
//! dispatching iterations by the configured policy and resolving
//! advance/await blocking exactly (iterations are processed in index
//! order, so every awaited tag's advance time is already known — awaits
//! only ever name *earlier* iterations, which program validation
//! guarantees).
//!
//! ## Timing semantics (mirroring the paper's §4.2.2 instrumentation)
//!
//! - A compute statement advances the clock by its (possibly jittered)
//!   cost; if instrumented, the recording code then runs (statement
//!   overhead) and the event is stamped *after* it.
//! - `await`: instrumentation (β) + `awaitB` event, then the await
//!   operation — `s_nowait` if the tag is already advanced, otherwise
//!   block until the advance makes the tag visible, then `s_wait` —
//!   then instrumentation + `awaitE` event.
//! - `advance`: the operation (`advance_op`) completes and the tag becomes
//!   visible to waiters; instrumentation (α) runs after that, so the
//!   recorded `advance` event trails visibility by α, exactly the bias the
//!   event-based model's `− α` term removes.
//! - Loop-end barrier: enter event per processor, release at the last
//!   arrival plus `barrier_release`, exit events after.
//!
//! In *actual* mode every event is emitted with zero instrumentation cost:
//! the run **is** the ground truth `τ`, something the paper's authors
//! could only approximate on real hardware.

use crate::config::{SchedulePolicy, SimConfig};
use crate::jitter::jittered_cost;
use crate::stats::{LoopStats, ProcStats, SimStats};
use ppa_obs::{exponential_bounds, Counter, Histogram, Registry};
use ppa_program::{
    validate, InstrumentationPlan, Loop, LoopKind, Program, ProgramError, Segment, Statement,
    StatementKind,
};
use ppa_trace::{
    Event, EventKind, LoopId, ProcessorId, Span, SyncTag, SyncVarId, Time, Trace, TraceKind,
};
use std::collections::HashMap;
use std::fmt;

/// Observability probes for the simulation engines.
///
/// Shared by the primary structured engine (this module) and the
/// cross-validating event-queue engine (`run_*_eventq`). The default
/// ([`EngineProbes::noop`]) is fully detached; attach real metrics with
/// [`EngineProbes::register`].
#[derive(Clone, Debug, Default)]
pub struct EngineProbes {
    /// Trace events emitted by the engine (`ppa_sim_events_total`).
    pub events_emitted: Counter,
    /// Concurrent-loop iterations dispatched to processors
    /// (`ppa_sim_iterations_dispatched_total`).
    pub iterations_dispatched: Counter,
    /// Ready-queue depth sampled at each event-queue step
    /// (`ppa_sim_ready_queue_depth`). Only the event-queue engine has an
    /// explicit ready queue; the structured engine never records here.
    pub queue_depth: Histogram,
}

impl EngineProbes {
    /// Detached probes: every record is discarded.
    pub fn noop() -> Self {
        EngineProbes::default()
    }

    /// Registers the engine metrics on `registry`.
    pub fn register(registry: &Registry) -> Self {
        EngineProbes {
            events_emitted: registry.counter(
                "ppa_sim_events_total",
                "Trace events emitted by the simulation engine.",
            ),
            iterations_dispatched: registry.counter(
                "ppa_sim_iterations_dispatched_total",
                "Concurrent-loop iterations dispatched to processors.",
            ),
            queue_depth: registry.histogram(
                "ppa_sim_ready_queue_depth",
                "Ready-queue depth at each event-queue simulation step.",
                &exponential_bounds(1, 2.0, 8),
            ),
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed validation.
    Program(ProgramError),
    /// The configuration has zero processors.
    NoProcessors,
    /// An await named a tag whose advance never executed (cannot happen
    /// for validated programs; kept as a hard check).
    UnsatisfiableAwait {
        /// The variable awaited.
        var: SyncVarId,
        /// The tag that was never advanced.
        tag: SyncTag,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Program(e) => write!(f, "invalid program: {e}"),
            SimError::NoProcessors => write!(f, "configuration has zero processors"),
            SimError::UnsatisfiableAwait { var, tag } => {
                write!(f, "await on {var} {tag} can never be satisfied")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::Program(e)
    }
}

/// The product of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The event trace (actual or measured, by mode).
    pub trace: Trace,
    /// Ground-truth execution statistics.
    pub stats: SimStats,
}

/// Simulates the program without instrumentation, producing the *actual*
/// trace (every event present, zero instrumentation cost).
pub fn run_actual(program: &Program, config: &SimConfig) -> Result<SimResult, SimError> {
    Executor::new(config, Mode::Actual, EngineProbes::noop()).run(program)
}

/// [`run_actual`] with observability: emitted events and dispatched
/// iterations are recorded into `probes`.
pub fn run_actual_probed(
    program: &Program,
    config: &SimConfig,
    probes: EngineProbes,
) -> Result<SimResult, SimError> {
    Executor::new(config, Mode::Actual, probes).run(program)
}

/// Simulates the program under the given instrumentation plan, producing
/// the *measured* trace (only planned events, each charged its recording
/// overhead).
pub fn run_measured(
    program: &Program,
    plan: &InstrumentationPlan,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    Executor::new(config, Mode::Measured(plan), EngineProbes::noop()).run(program)
}

#[derive(Clone, Copy)]
enum Mode<'a> {
    Actual,
    Measured(&'a InstrumentationPlan),
}

struct Executor<'a> {
    config: &'a SimConfig,
    mode: Mode<'a>,
    events: Vec<Event>,
    seq: u64,
    instr_total: Span,
    stats: SimStats,
    probes: EngineProbes,
}

/// Sentinel loop id for jitter keys of statements outside any loop.
const SERIAL_LOOP_KEY: LoopId = LoopId(u32::MAX);

impl<'a> Executor<'a> {
    fn new(config: &'a SimConfig, mode: Mode<'a>, probes: EngineProbes) -> Self {
        Executor {
            config,
            mode,
            events: Vec::new(),
            seq: 0,
            instr_total: Span::ZERO,
            stats: SimStats::default(),
            probes,
        }
    }

    /// Whether an event of this kind gets recorded, and at what
    /// instrumentation cost.
    fn recording(&self, kind: &EventKind, stmt: Option<&Statement>) -> Option<Span> {
        match self.mode {
            Mode::Actual => Some(Span::ZERO),
            Mode::Measured(plan) => {
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

    /// Charges instrumentation (if recording) and emits the event at the
    /// post-instrumentation clock.
    fn emit(&mut self, clock: &mut Time, proc: ProcessorId, kind: EventKind) {
        self.emit_stmt(clock, proc, kind, None)
    }

    fn emit_stmt(
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
        self.emit(&mut t0, p0, EventKind::ProgramBegin);

        for seg in &program.segments {
            match seg {
                Segment::Serial(stmts) => {
                    for s in stmts {
                        self.exec_compute(&mut t0, p0, s, SERIAL_LOOP_KEY, 0, 1000);
                    }
                }
                Segment::Loop(l) if !l.kind.is_concurrent() => {
                    self.run_serial_loop(&mut t0, l);
                }
                Segment::Loop(l) => {
                    t0 = self.run_parallel_loop(t0, l)?;
                }
            }
        }

        self.emit(&mut t0, p0, EventKind::ProgramEnd);

        self.stats.events = self.events.len();
        self.stats.instr_overhead = self.instr_total;
        let kind = match self.mode {
            Mode::Actual => TraceKind::Actual,
            Mode::Measured(_) => TraceKind::Measured,
        };
        Ok(SimResult {
            trace: Trace::from_events(kind, self.events),
            stats: self.stats,
        })
    }

    /// Executes one compute statement: cost (jittered, scaled for vector
    /// loops by `speedup_permille`), then instrumentation + event.
    fn exec_compute(
        &mut self,
        clock: &mut Time,
        proc: ProcessorId,
        s: &Statement,
        loop_key: LoopId,
        iter: u64,
        speedup_permille: u32,
    ) {
        let nominal = s.cost();
        let cost = jittered_cost(self.config.jitter, loop_key, iter, s.id, nominal);
        let cost = if speedup_permille == 1000 {
            cost
        } else {
            (cost as u128 * 1000 / speedup_permille as u128) as u64
        };
        *clock += self.cycles(cost);
        self.emit_stmt(clock, proc, EventKind::Statement { stmt: s.id }, Some(s));
    }

    fn run_serial_loop(&mut self, t0: &mut Time, l: &Loop) {
        let p0 = ProcessorId(0);
        let speedup = match l.kind {
            LoopKind::Vector { speedup_permille } => speedup_permille.max(1),
            _ => 1000,
        };
        self.emit(t0, p0, EventKind::LoopBegin { loop_id: l.id });
        for i in 0..l.trip_count {
            self.emit(
                t0,
                p0,
                EventKind::IterationBegin {
                    loop_id: l.id,
                    iter: i,
                },
            );
            for s in &l.body {
                // Validation guarantees serial loops contain no sync
                // statements.
                self.exec_compute(t0, p0, s, l.id, i, speedup);
            }
            self.emit(
                t0,
                p0,
                EventKind::IterationEnd {
                    loop_id: l.id,
                    iter: i,
                },
            );
        }
        self.emit(t0, p0, EventKind::LoopEnd { loop_id: l.id });
    }

    fn run_parallel_loop(&mut self, mut t0: Time, l: &Loop) -> Result<Time, SimError> {
        let p = self.config.processors;
        let p0 = ProcessorId(0);
        self.emit(&mut t0, p0, EventKind::LoopBegin { loop_id: l.id });

        let loop_start = t0;
        let mut clocks = vec![loop_start; p];
        let mut proc_stats = vec![ProcStats::default(); p];
        // (var, tag) -> time the advance made the tag visible.
        let mut advances: HashMap<(SyncVarId, i64), Time> = HashMap::new();
        let mut assignment = Vec::with_capacity(l.trip_count as usize);

        let chunk = l.trip_count.div_ceil(p as u64).max(1);
        for i in 0..l.trip_count {
            let proc = match self.config.schedule {
                SchedulePolicy::StaticCyclic => (i % p as u64) as usize,
                SchedulePolicy::StaticBlock => ((i / chunk) as usize).min(p - 1),
                SchedulePolicy::SelfScheduled => {
                    // The earliest-free processor takes the next iteration
                    // (ties to the lowest id) — exactly what a shared
                    // iteration counter produces.
                    (0..p).min_by_key(|&q| (clocks[q], q)).unwrap_or(0)
                }
            };
            assignment.push(ProcessorId(proc as u16));
            self.probes.iterations_dispatched.inc();
            let pid = ProcessorId(proc as u16);
            let mut clock = clocks[proc];
            clock += self.cycles(self.config.dispatch_cycles);
            self.emit(
                &mut clock,
                pid,
                EventKind::IterationBegin {
                    loop_id: l.id,
                    iter: i,
                },
            );

            for s in &l.body {
                match s.kind {
                    StatementKind::Compute { .. } => {
                        self.exec_compute(&mut clock, pid, s, l.id, i, 1000);
                    }
                    StatementKind::Await { var, offset } => {
                        let tag = SyncTag(i as i64 + offset);
                        self.emit(&mut clock, pid, EventKind::AwaitBegin { var, tag });
                        if tag.is_pre_advanced() {
                            clock += self.config.overheads.s_nowait;
                        } else {
                            let visible = *advances
                                .get(&(var, tag.0))
                                .ok_or(SimError::UnsatisfiableAwait { var, tag })?;
                            if visible <= clock {
                                clock += self.config.overheads.s_nowait;
                            } else {
                                proc_stats[proc].sync_wait += visible - clock;
                                clock = visible + self.config.overheads.s_wait;
                            }
                        }
                        self.emit(&mut clock, pid, EventKind::AwaitEnd { var, tag });
                    }
                    StatementKind::Advance { var } => {
                        clock += self.config.overheads.advance_op;
                        advances.insert((var, i as i64), clock);
                        self.emit(
                            &mut clock,
                            pid,
                            EventKind::Advance {
                                var,
                                tag: SyncTag(i as i64),
                            },
                        );
                    }
                }
            }

            self.emit(
                &mut clock,
                pid,
                EventKind::IterationEnd {
                    loop_id: l.id,
                    iter: i,
                },
            );
            proc_stats[proc].iterations += 1;
            clocks[proc] = clock;
        }

        // Loop-end barrier: every processor participates.
        for (q, clock) in clocks.iter_mut().enumerate() {
            self.emit(
                clock,
                ProcessorId(q as u16),
                EventKind::BarrierEnter { barrier: l.barrier },
            );
        }
        let release = clocks.iter().copied().max().unwrap_or(loop_start);
        for (q, clock) in clocks.iter_mut().enumerate() {
            proc_stats[q].barrier_wait += release - *clock;
            *clock = release + self.config.overheads.barrier_release;
            self.emit(
                clock,
                ProcessorId(q as u16),
                EventKind::BarrierExit { barrier: l.barrier },
            );
        }

        // Busy time = in-loop wall time minus waiting.
        for (q, ps) in proc_stats.iter_mut().enumerate() {
            let wall = clocks[q].saturating_since(loop_start);
            ps.busy = wall.saturating_sub(ps.sync_wait + ps.barrier_wait);
        }

        let mut t_end = clocks[0];
        self.emit(&mut t_end, p0, EventKind::LoopEnd { loop_id: l.id });

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
    use ppa_program::ProgramBuilder;
    use ppa_trace::{pair_sync_events, ClockRate, OverheadSpec};

    fn test_config() -> SimConfig {
        SimConfig {
            processors: 4,
            clock: ClockRate::GHZ_1, // 1 cycle == 1 ns: costs are legible
            overheads: OverheadSpec::ZERO,
            schedule: SchedulePolicy::StaticCyclic,
            dispatch_cycles: 0,
            jitter: None,
        }
    }

    fn doacross_program(n: u64, head: u64, cs: u64, tail: u64) -> Program {
        let mut b = ProgramBuilder::new("doacross");
        let v = b.sync_var();
        b.doacross(1, n, |body| {
            body.compute("head", head)
                .await_var(v, -1)
                .compute("cs", cs)
                .advance(v)
                .compute("tail", tail)
        })
        .build()
        .unwrap()
    }

    #[test]
    fn serial_program_times_add_up() {
        let p = ProgramBuilder::new("serial")
            .serial([("a", 10u64), ("b", 20), ("c", 30)])
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        // ProgramBegin @0, statements @10,@30,@60, ProgramEnd @60.
        assert_eq!(r.trace.total_time(), Span::from_nanos(60));
        assert_eq!(r.trace.len(), 5);
    }

    #[test]
    fn sequential_loop_runs_on_proc0() {
        let p = ProgramBuilder::new("seq")
            .sequential_loop(5, |b| b.compute("x", 7))
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        assert_eq!(r.trace.processors(), vec![ProcessorId(0)]);
        assert_eq!(r.trace.total_time(), Span::from_nanos(35));
    }

    #[test]
    fn vector_loop_scales_cost() {
        let p = ProgramBuilder::new("vec")
            .vector_loop(10, 4000, |b| b.compute("x", 40))
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        // 40 cycles at 4x speedup = 10 ns per iteration.
        assert_eq!(r.trace.total_time(), Span::from_nanos(100));
    }

    #[test]
    fn doall_spreads_over_processors() {
        let p = ProgramBuilder::new("doall")
            .doall(8, |b| b.compute("x", 100))
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        // 8 iterations on 4 procs, 2 each, perfectly balanced: 200 ns.
        assert_eq!(r.trace.total_time(), Span::from_nanos(200));
        let stats = &r.stats.loops[0];
        assert!(stats.per_proc.iter().all(|ps| ps.iterations == 2));
        assert!(stats.per_proc.iter().all(|ps| ps.barrier_wait.is_zero()));
    }

    #[test]
    fn doacross_chain_serializes_critical_section() {
        // head=0, cs=10, tail=0: the loop is a pure dependence chain, so
        // total time == n * cs regardless of processor count.
        let p = doacross_program(12, 0, 10, 0);
        let r = run_actual(&p, &test_config()).unwrap();
        assert_eq!(r.trace.total_time(), Span::from_nanos(120));
        // Everyone but the processor of iteration 0 waits.
        let stats = &r.stats.loops[0];
        assert!(stats.per_proc[1].sync_wait > Span::ZERO);
    }

    #[test]
    fn doacross_without_contention_runs_parallel() {
        // head so long that advances always land before the next await:
        // iteration i on proc i%4 starts at (i/4)*body; await of i-1 is
        // satisfied long before. Total ~= ceil(n/4)*body.
        let p = doacross_program(8, 1_000, 10, 0);
        let r = run_actual(&p, &test_config()).unwrap();
        let stats = &r.stats.loops[0];
        let total_sync_wait: Span = stats.per_proc.iter().map(|ps| ps.sync_wait).sum();
        // Only the pipeline fill (first round) can wait.
        assert!(
            total_sync_wait < Span::from_nanos(100),
            "unexpected waiting: {total_sync_wait}"
        );
        // Two rounds of head(1000)+cs(10) plus the tail of the pipeline:
        // the last iteration (i=7) finishes its second-round critical
        // section at 2050 (first-round fill delays propagate one cs per
        // iteration).
        assert_eq!(r.trace.total_time(), Span::from_nanos(2050));
    }

    #[test]
    fn actual_trace_passes_sync_validation() {
        let p = doacross_program(16, 50, 10, 20);
        let r = run_actual(&p, &test_config()).unwrap();
        let idx = pair_sync_events(&r.trace).unwrap();
        assert_eq!(idx.awaits.len(), 16);
        assert_eq!(idx.advances.len(), 16);
        assert_eq!(idx.barriers.len(), 1);
    }

    #[test]
    fn measured_trace_passes_sync_validation_and_is_slower() {
        let p = doacross_program(16, 50, 10, 20);
        let config = test_config().with_overheads(OverheadSpec::uniform(Span::from_nanos(25)));
        let actual = run_actual(&p, &config).unwrap();
        let measured = run_measured(&p, &InstrumentationPlan::full_with_sync(), &config).unwrap();
        assert!(pair_sync_events(&measured.trace).is_ok());
        assert!(measured.trace.total_time() > actual.trace.total_time());
        assert!(measured.stats.instr_overhead > Span::ZERO);
        assert_eq!(actual.stats.instr_overhead, Span::ZERO);
    }

    #[test]
    fn measured_without_sync_plan_has_no_sync_events() {
        let p = doacross_program(4, 50, 10, 20);
        let r = run_measured(&p, &InstrumentationPlan::full_statements(), &test_config()).unwrap();
        assert_eq!(r.trace.sync_event_count(), 0);
        assert!(
            r.trace
                .count_where(|k| matches!(k, EventKind::Statement { .. }))
                > 0
        );
    }

    #[test]
    fn unobservable_statements_emit_no_events_and_no_overhead() {
        let mut b = ProgramBuilder::new("unobs");
        let v = b.sync_var();
        let p = b
            .doacross(1, 4, |body| {
                body.compute("head", 10)
                    .await_var(v, -1)
                    .compute_unobservable("fused", 5)
                    .advance(v)
            })
            .build()
            .unwrap();
        let cfg = test_config().with_overheads(OverheadSpec::uniform(Span::from_nanos(100)));
        let m = run_measured(&p, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        // Only the observable "head" statements appear.
        assert_eq!(
            m.trace
                .count_where(|k| matches!(k, EventKind::Statement { .. })),
            4
        );
        // In the actual trace, unobservable statements do appear (ground
        // truth sees everything).
        let a = run_actual(&p, &cfg).unwrap();
        assert_eq!(
            a.trace
                .count_where(|k| matches!(k, EventKind::Statement { .. })),
            8
        );
    }

    #[test]
    fn zero_overhead_measured_equals_actual_times() {
        let p = doacross_program(10, 30, 10, 15);
        let cfg = test_config();
        let a = run_actual(&p, &cfg).unwrap();
        let m = run_measured(&p, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        assert_eq!(a.trace.total_time(), m.trace.total_time());
        // Every measured event appears in the actual trace at the same
        // time (the measured trace omits unplanned kinds such as
        // iteration markers, so it is a sub-multiset).
        use std::collections::HashMap;
        let mut actual_times: HashMap<(EventKind, u64), Vec<ppa_trace::Time>> = HashMap::new();
        for e in a.trace.iter() {
            actual_times
                .entry((e.kind, e.proc.0 as u64))
                .or_default()
                .push(e.time);
        }
        for e in m.trace.iter() {
            let times = actual_times
                .get(&(e.kind, e.proc.0 as u64))
                .unwrap_or_else(|| panic!("measured event {e} missing from actual"));
            assert!(times.contains(&e.time), "measured event {e} at wrong time");
        }
    }

    #[test]
    fn probes_count_emitted_events_and_dispatches() {
        use crate::eventq::run_actual_eventq_probed;

        let p = doacross_program(8, 50, 10, 20);
        let cfg = test_config();

        let registry = Registry::new();
        let r = run_actual_probed(&p, &cfg, EngineProbes::register(&registry)).unwrap();
        let snap = registry.snapshot();
        let counter = |name: &str| {
            snap.entries
                .iter()
                .find(|m| m.name == name)
                .map(|m| match m.value {
                    ppa_obs::MetricValue::Counter(c) => c,
                    _ => 0,
                })
                .unwrap_or(0)
        };
        assert_eq!(counter("ppa_sim_events_total"), r.trace.len() as u64);
        assert_eq!(counter("ppa_sim_iterations_dispatched_total"), 8);

        // The event-queue engine additionally samples ready-queue depth.
        let registry = Registry::new();
        let r = run_actual_eventq_probed(&p, &cfg, EngineProbes::register(&registry)).unwrap();
        let snap = registry.snapshot();
        assert!(snap.entries.iter().any(|m| m.name == "ppa_sim_events_total"
            && matches!(m.value, ppa_obs::MetricValue::Counter(c) if c == r.trace.len() as u64)));
        assert!(snap
            .entries
            .iter()
            .any(|m| m.name == "ppa_sim_ready_queue_depth"));
    }

    #[test]
    fn determinism_same_config_same_trace() {
        let p = doacross_program(32, 40, 12, 9);
        let cfg = test_config().with_jitter(1234, 150);
        let r1 = run_actual(&p, &cfg).unwrap();
        let r2 = run_actual(&p, &cfg).unwrap();
        assert_eq!(r1.trace, r2.trace);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn self_scheduling_balances_uneven_work() {
        // One long iteration (i=0) and many short ones: static cyclic
        // piles shorts behind the long on proc 0's successors; self
        // scheduling gives the long iteration a dedicated processor.
        let mut b = ProgramBuilder::new("skew");
        let v = b.sync_var();
        // Jitter-free skew via distance-1 chain is complex; use DOALL-like
        // behavior (await always pre-advanced with distance > trip_count).
        let p = b
            .doacross(100, 9, |body| {
                body.compute("w", 50).await_var(v, -100).advance(v)
            })
            .build()
            .unwrap();
        let cyclic = run_actual(&p, &test_config()).unwrap();
        let selfsched = run_actual(
            &p,
            &test_config().with_schedule(SchedulePolicy::SelfScheduled),
        )
        .unwrap();
        // 9 iterations, 4 procs: both give ceil(9/4)=3 rounds here; they
        // must at least agree on total iterations and assign differently
        // only if beneficial. Sanity: same iteration count.
        let c: u64 = cyclic.stats.loops[0]
            .per_proc
            .iter()
            .map(|p| p.iterations)
            .sum();
        let s: u64 = selfsched.stats.loops[0]
            .per_proc
            .iter()
            .map(|p| p.iterations)
            .sum();
        assert_eq!(c, 9);
        assert_eq!(s, 9);
    }

    #[test]
    fn static_block_assigns_contiguous_chunks() {
        let p = doacross_program(8, 1000, 1, 0);
        let r = run_actual(
            &p,
            &test_config().with_schedule(SchedulePolicy::StaticBlock),
        )
        .unwrap();
        let assign = &r.stats.loops[0].assignment;
        assert_eq!(
            assign.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![0, 0, 1, 1, 2, 2, 3, 3]
        );
    }

    #[test]
    fn barrier_waits_accounted() {
        // Unbalanced DOALL: 5 iterations on 4 procs; proc 0 runs 2, the
        // rest run 1 and wait at the barrier.
        let p = ProgramBuilder::new("unbalanced")
            .doall(5, |b| b.compute("x", 100))
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        let st = &r.stats.loops[0];
        assert_eq!(st.per_proc[0].iterations, 2);
        assert_eq!(st.per_proc[0].barrier_wait, Span::ZERO);
        assert_eq!(st.per_proc[1].barrier_wait, Span::from_nanos(100));
    }

    #[test]
    fn zero_processors_rejected() {
        let p = doacross_program(4, 1, 1, 1);
        let mut cfg = test_config();
        cfg.processors = 0;
        assert_eq!(run_actual(&p, &cfg), Err(SimError::NoProcessors));
    }

    #[test]
    fn invalid_program_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let v = b.sync_var();
        // Build manually to bypass builder validation.
        let program = Program {
            name: "bad".into(),
            segments: vec![Segment::Serial(vec![Statement::advance(
                ppa_trace::StatementId(0),
                "adv",
                v,
            )])],
        };
        assert!(matches!(
            run_actual(&program, &test_config()),
            Err(SimError::Program(_))
        ));
    }

    #[test]
    fn two_concurrent_loops_in_sequence() {
        let mut b = ProgramBuilder::new("two-loops");
        let v1 = b.sync_var();
        let v2 = b.sync_var();
        let p = b
            .doacross(1, 8, |body| {
                body.compute("a", 100).await_var(v1, -1).advance(v1)
            })
            .serial([("between", 500u64)])
            .doacross(2, 12, |body| {
                body.compute("b", 80).await_var(v2, -2).advance(v2)
            })
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        assert_eq!(r.stats.loops.len(), 2);
        let idx = pair_sync_events(&r.trace).unwrap();
        assert_eq!(idx.advances.len(), 8 + 12);
        assert_eq!(idx.barriers.len(), 2);
        // The second loop starts after the first's barrier and the serial
        // segment.
        assert!(r.stats.loops[1].start > r.stats.loops[0].end);
    }

    #[test]
    fn dispatch_cycles_are_charged_per_iteration() {
        let p = ProgramBuilder::new("dispatch")
            .doall(8, |b| b.compute("x", 100))
            .build()
            .unwrap();
        let mut slow = test_config();
        slow.dispatch_cycles = 25;
        let fast = run_actual(&p, &test_config()).unwrap();
        let charged = run_actual(&p, &slow).unwrap();
        // 2 iterations per processor at 25ns dispatch each: +50ns.
        assert_eq!(
            charged.trace.total_time(),
            fast.trace.total_time() + Span::from_nanos(50)
        );
    }

    #[test]
    fn measured_vector_loop_scales_costs_not_overheads() {
        let p = ProgramBuilder::new("vec-measured")
            .vector_loop(10, 2000, |b| b.compute("x", 100))
            .build()
            .unwrap();
        let cfg = test_config().with_overheads(OverheadSpec::uniform(Span::from_nanos(30)));
        let actual = run_actual(&p, &cfg).unwrap();
        let measured = run_measured(&p, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        // Actual: 10 iterations at 50ns (2x speedup). Measured adds the
        // full 30ns recording per statement (overhead is not vectorized)
        // plus markers (program begin/end + loop begin/end at 30ns each).
        assert_eq!(actual.trace.total_time(), Span::from_nanos(500));
        assert_eq!(
            measured.trace.total_time(),
            Span::from_nanos(500 + 10 * 30 + 2 * 30 + 30)
        );
    }

    #[test]
    fn fewer_iterations_than_processors() {
        let mut b = ProgramBuilder::new("tiny");
        let v = b.sync_var();
        let p = b
            .doacross(1, 2, |body| {
                body.compute("x", 50).await_var(v, -1).advance(v)
            })
            .build()
            .unwrap();
        let r = run_actual(&p, &test_config()).unwrap();
        let st = &r.stats.loops[0];
        assert_eq!(st.per_proc[0].iterations, 1);
        assert_eq!(st.per_proc[1].iterations, 1);
        assert_eq!(st.per_proc[2].iterations, 0);
        assert_eq!(st.per_proc[3].iterations, 0);
        // Idle processors still synchronize at the barrier.
        assert!(st.per_proc[2].barrier_wait > Span::ZERO);
    }

    #[test]
    fn instrumentation_reduces_blocking_when_cs_unobservable() {
        // The Table 1 mechanism for loops 3/4: cs is unobservable, so
        // statement instrumentation lengthens only the independent phase;
        // waiting decreases in the measured run.
        let mut b = ProgramBuilder::new("mech34");
        let v = b.sync_var();
        let p = b
            .doacross(1, 64, |body| {
                body.compute("h1", 20)
                    .compute("h2", 20)
                    .await_var(v, -1)
                    .compute_unobservable("cs", 30)
                    .advance(v)
                    .compute("t1", 20)
            })
            .build()
            .unwrap();
        let cfg = test_config().with_overheads(OverheadSpec {
            statement_event: Span::from_nanos(40),
            ..OverheadSpec::ZERO
        });
        let actual = run_actual(&p, &cfg).unwrap();
        let measured = run_measured(&p, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        let wait = |r: &SimResult| -> Span {
            r.stats.loops[0]
                .per_proc
                .iter()
                .map(|ps| ps.sync_wait)
                .sum()
        };
        assert!(
            wait(&measured) < wait(&actual),
            "measured wait {} should drop below actual {}",
            wait(&measured),
            wait(&actual)
        );
    }

    #[test]
    fn instrumentation_increases_blocking_when_cs_observable() {
        // The Table 1 mechanism for loop 17: a large observable cs gains
        // tracing code, lengthening the serialized chain.
        let mut b = ProgramBuilder::new("mech17");
        let v = b.sync_var();
        let p = b
            .doacross(1, 64, |body| {
                body.compute("h", 200)
                    .await_var(v, -1)
                    .compute("cs1", 30)
                    .compute("cs2", 30)
                    .compute("cs3", 30)
                    .advance(v)
            })
            .build()
            .unwrap();
        let cfg = test_config().with_overheads(OverheadSpec {
            statement_event: Span::from_nanos(40),
            ..OverheadSpec::ZERO
        });
        let actual = run_actual(&p, &cfg).unwrap();
        let measured = run_measured(&p, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        let wait = |r: &SimResult| -> Span {
            r.stats.loops[0]
                .per_proc
                .iter()
                .map(|ps| ps.sync_wait)
                .sum()
        };
        assert!(
            wait(&measured) > wait(&actual),
            "measured wait {} should exceed actual {}",
            wait(&measured),
            wait(&actual)
        );
    }
}
