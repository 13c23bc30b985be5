//! Real-thread program execution.
//!
//! Executes the same statement-graph programs the simulator runs, but on
//! OS threads with `ppa-sync` primitives and the software tracer — a
//! genuinely nondeterministic measured execution, as on the paper's
//! machine. Statement costs are interpreted as nanoseconds of busy work
//! (the simulator's 1 GHz experiment convention).
//!
//! Iteration dispatch is static cyclic (`i mod P`, the Alliant default)
//! or self-scheduled through a shared atomic counter, selected by
//! [`NativeConfig::self_scheduled`].

use crate::clock::TraceClock;
use crate::tracer::{merge_tracers, ThreadTracer};
use ppa_program::{validate, InstrumentationPlan, Program, ProgramError, Segment, StatementKind};
use ppa_sync::{AdvanceAwait, SenseBarrier};
use ppa_trace::{EventKind, ProcessorId, Span, SyncTag, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Native execution failure.
#[derive(Debug)]
pub enum NativeError {
    /// The program failed validation.
    Program(ProgramError),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<ProgramError> for NativeError {
    fn from(e: ProgramError) -> Self {
        NativeError::Program(e)
    }
}

/// Native execution configuration.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Worker thread count (the virtual processors).
    pub processors: usize,
    /// Per-event tracer padding (emulated heavyweight recording).
    pub padding: Span,
    /// Which events to record.
    pub plan: InstrumentationPlan,
    /// Dispatch iterations through a shared counter instead of the static
    /// cyclic assignment.
    pub self_scheduled: bool,
}

impl NativeConfig {
    /// An uninstrumented configuration (tracing disabled entirely).
    pub fn uninstrumented(processors: usize) -> Self {
        NativeConfig {
            processors,
            padding: Span::ZERO,
            plan: InstrumentationPlan::none(),
            self_scheduled: false,
        }
    }

    /// A fully instrumented configuration with the given padding.
    pub fn instrumented(processors: usize, padding: Span) -> Self {
        NativeConfig {
            processors,
            padding,
            plan: InstrumentationPlan::full_with_sync(),
            self_scheduled: false,
        }
    }

    /// Switches to self-scheduled (shared counter) dispatch.
    pub fn with_self_scheduling(mut self) -> Self {
        self.self_scheduled = true;
        self
    }
}

/// The product of one native run.
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// The measured trace (empty for uninstrumented runs).
    pub trace: Trace,
    /// Wall-clock duration of the traced region.
    pub wall: Span,
}

fn wants(plan: &InstrumentationPlan, kind: &EventKind, observable: bool) -> bool {
    match kind {
        EventKind::Statement { stmt } => observable && plan.traces_statement(*stmt),
        EventKind::IterationBegin { .. } | EventKind::IterationEnd { .. } => plan.iteration_markers,
        k if k.is_sync() => plan.sync_ops,
        k if k.is_barrier() => plan.barriers,
        _ => plan.markers,
    }
}

/// Executes a program on real threads under the given configuration.
pub fn execute_program(program: &Program, cfg: &NativeConfig) -> Result<NativeRun, NativeError> {
    validate(program)?;
    let clock = TraceClock::start();
    let enabled = cfg.plan.is_active();
    let mut main_tracer = ThreadTracer::new(clock, ProcessorId(0), cfg.padding, enabled);
    let mut worker_events = Vec::new();

    let begin = clock.now();
    record_if(&mut main_tracer, &cfg.plan, EventKind::ProgramBegin, true);

    for seg in &program.segments {
        match seg {
            Segment::Serial(stmts) => {
                for s in stmts {
                    clock.spin_for(Span::from_nanos(s.cost()));
                    record_if(
                        &mut main_tracer,
                        &cfg.plan,
                        EventKind::Statement { stmt: s.id },
                        s.observable,
                    );
                }
            }
            Segment::Loop(l) if !l.kind.is_concurrent() => {
                record_if(
                    &mut main_tracer,
                    &cfg.plan,
                    EventKind::LoopBegin { loop_id: l.id },
                    true,
                );
                for i in 0..l.trip_count {
                    record_if(
                        &mut main_tracer,
                        &cfg.plan,
                        EventKind::IterationBegin {
                            loop_id: l.id,
                            iter: i,
                        },
                        true,
                    );
                    for s in &l.body {
                        clock.spin_for(Span::from_nanos(s.cost()));
                        record_if(
                            &mut main_tracer,
                            &cfg.plan,
                            EventKind::Statement { stmt: s.id },
                            s.observable,
                        );
                    }
                    record_if(
                        &mut main_tracer,
                        &cfg.plan,
                        EventKind::IterationEnd {
                            loop_id: l.id,
                            iter: i,
                        },
                        true,
                    );
                }
                record_if(
                    &mut main_tracer,
                    &cfg.plan,
                    EventKind::LoopEnd { loop_id: l.id },
                    true,
                );
            }
            Segment::Loop(l) => {
                record_if(
                    &mut main_tracer,
                    &cfg.plan,
                    EventKind::LoopBegin { loop_id: l.id },
                    true,
                );

                // Fresh synchronization state per loop execution.
                let vars: BTreeMap<_, _> = l
                    .body
                    .iter()
                    .filter_map(|s| s.kind.sync_var())
                    .map(|v| (v, Arc::new(AdvanceAwait::new())))
                    .collect();
                let barrier = Arc::new(SenseBarrier::new(cfg.processors));
                let next_iter = Arc::new(std::sync::atomic::AtomicU64::new(0));

                let worker = |proc: usize, mut tracer: ThreadTracer| -> ThreadTracer {
                    let fetch = |current: Option<u64>| -> Option<u64> {
                        if cfg.self_scheduled {
                            let i = next_iter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            (i < l.trip_count).then_some(i)
                        } else {
                            let i = current
                                .map(|c| c + cfg.processors as u64)
                                .unwrap_or(proc as u64);
                            (i < l.trip_count).then_some(i)
                        }
                    };
                    let mut cur = fetch(None);
                    while let Some(i) = cur {
                        for s in &l.body {
                            match s.kind {
                                StatementKind::Compute { cost } => {
                                    clock.spin_for(Span::from_nanos(cost));
                                    if wants(
                                        &cfg.plan,
                                        &EventKind::Statement { stmt: s.id },
                                        s.observable,
                                    ) {
                                        tracer.record(EventKind::Statement { stmt: s.id });
                                    }
                                }
                                StatementKind::Await { var, offset } => {
                                    let tag = SyncTag(i as i64 + offset);
                                    if cfg.plan.sync_ops {
                                        tracer.record(EventKind::AwaitBegin { var, tag });
                                    }
                                    vars[&var].await_tag(tag.0);
                                    if cfg.plan.sync_ops {
                                        tracer.record(EventKind::AwaitEnd { var, tag });
                                    }
                                }
                                StatementKind::Advance { var } => {
                                    vars[&var].advance(i as i64);
                                    if cfg.plan.sync_ops {
                                        tracer.record(EventKind::Advance {
                                            var,
                                            tag: SyncTag(i as i64),
                                        });
                                    }
                                }
                            }
                        }
                        cur = fetch(Some(i));
                    }
                    if cfg.plan.barriers {
                        tracer.record(EventKind::BarrierEnter { barrier: l.barrier });
                    }
                    barrier.wait();
                    if cfg.plan.barriers {
                        tracer.record(EventKind::BarrierExit { barrier: l.barrier });
                    }
                    tracer
                };

                std::thread::scope(|scope| {
                    let handles: Vec<_> = (1..cfg.processors)
                        .map(|p| {
                            let tracer = ThreadTracer::new(
                                clock,
                                ProcessorId(p as u16),
                                cfg.padding,
                                enabled,
                            );
                            scope.spawn(move || worker(p, tracer))
                        })
                        .collect();
                    // Processor 0 participates on the calling thread.
                    let t0 = std::mem::replace(
                        &mut main_tracer,
                        ThreadTracer::new(clock, ProcessorId(0), cfg.padding, enabled),
                    );
                    main_tracer = worker(0, t0);
                    for h in handles {
                        worker_events.push(h.join().expect("worker panicked"));
                    }
                });

                record_if(
                    &mut main_tracer,
                    &cfg.plan,
                    EventKind::LoopEnd { loop_id: l.id },
                    true,
                );
            }
        }
    }

    record_if(&mut main_tracer, &cfg.plan, EventKind::ProgramEnd, true);
    let wall = clock.now() - begin;

    let mut tracers = vec![main_tracer];
    tracers.extend(worker_events);
    Ok(NativeRun {
        trace: merge_tracers(tracers),
        wall,
    })
}

fn record_if(
    tracer: &mut ThreadTracer,
    plan: &InstrumentationPlan,
    kind: EventKind,
    observable: bool,
) {
    if wants(plan, &kind, observable) {
        tracer.record(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_program::ProgramBuilder;
    use ppa_trace::pair_sync_events;

    fn small_doacross(trip: u64) -> Program {
        let mut b = ProgramBuilder::new("native-test");
        let v = b.sync_var();
        b.serial([("pre", 1_000u64)])
            .doacross(1, trip, |body| {
                body.compute("head", 5_000)
                    .await_var(v, -1)
                    .compute("cs", 1_000)
                    .advance(v)
            })
            .serial([("post", 1_000u64)])
            .build()
            .unwrap()
    }

    #[test]
    fn instrumented_run_yields_valid_trace() {
        let _guard = crate::TEST_SERIAL.lock().unwrap();
        let p = small_doacross(32);
        let cfg = NativeConfig::instrumented(4, Span::from_nanos(500));
        let run = execute_program(&p, &cfg).unwrap();
        assert!(run.trace.is_totally_ordered());
        let idx = pair_sync_events(&run.trace).unwrap();
        assert_eq!(idx.awaits.len(), 32);
        assert_eq!(idx.advances.len(), 32);
        assert_eq!(idx.barriers.len(), 1);
        assert!(run.wall > Span::from_micros(32));
    }

    /// What one run controls, not how two runs' wall clocks compare on
    /// a shared host (the intrusion itself is reported by `ppa native`,
    /// not asserted): the bare run leaves no trace but does all the
    /// work — the 64 critical sections are chained by await/advance and
    /// each spins at least 1us, which no scheduling can shorten — and
    /// the traced run of the same program records every sync event.
    #[test]
    fn uninstrumented_run_is_trace_free() {
        let _guard = crate::TEST_SERIAL.lock().unwrap();
        let p = small_doacross(64);
        let bare = execute_program(&p, &NativeConfig::uninstrumented(4)).unwrap();
        assert!(bare.trace.is_empty());
        assert!(bare.wall >= Span::from_micros(64), "wall {}", bare.wall);

        let traced =
            execute_program(&p, &NativeConfig::instrumented(4, Span::from_micros(10))).unwrap();
        assert!(traced.trace.is_totally_ordered());
        let idx = pair_sync_events(&traced.trace).unwrap();
        assert_eq!((idx.awaits.len(), idx.advances.len()), (64, 64));
        assert_eq!(idx.barriers.len(), 1);
    }

    #[test]
    fn single_processor_works() {
        let p = small_doacross(8);
        let run = execute_program(&p, &NativeConfig::instrumented(1, Span::ZERO)).unwrap();
        assert!(pair_sync_events(&run.trace).is_ok());
        assert_eq!(run.trace.processors(), vec![ProcessorId(0)]);
    }

    #[test]
    fn self_scheduled_dispatch_completes_all_iterations() {
        let _guard = crate::TEST_SERIAL.lock().unwrap();
        let p = small_doacross(48);
        let cfg = NativeConfig::instrumented(4, Span::ZERO).with_self_scheduling();
        let run = execute_program(&p, &cfg).unwrap();
        let idx = pair_sync_events(&run.trace).unwrap();
        // Every iteration advanced exactly once regardless of which thread
        // took it.
        assert_eq!(idx.advances.len(), 48);
        assert_eq!(idx.awaits.len(), 48);
    }

    #[test]
    fn sequential_loops_run_on_the_main_thread() {
        let p = ProgramBuilder::new("seq")
            .sequential_loop(16, |b| b.compute("x", 2_000))
            .build()
            .unwrap();
        let run = execute_program(&p, &NativeConfig::instrumented(4, Span::ZERO)).unwrap();
        assert_eq!(run.trace.processors(), vec![ProcessorId(0)]);
        assert!(run.wall >= Span::from_micros(32));
    }
}
