//! Failure injection: corrupted traces, malformed programs, and abusive
//! configurations must fail loudly with typed errors, never silently
//! produce numbers.

use ppa::analysis::AnalysisError;
use ppa::experiments::experiment_config;
use ppa::prelude::*;
use ppa::trace::{SyncTag, SyncVarId, TraceBuilder, TraceError};

fn measured_doacross() -> (Trace, SimConfig) {
    let mut b = ProgramBuilder::new("victim");
    let v = b.sync_var();
    let program = b
        .doacross(1, 32, |body| {
            body.compute("head", 500)
                .await_var(v, -1)
                .compute("cs", 50)
                .advance(v)
        })
        .build()
        .unwrap();
    let cfg = experiment_config();
    let run = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
    (run.trace, cfg)
}

fn drop_events(trace: &Trace, mut pred: impl FnMut(&Event) -> bool) -> Trace {
    let events: Vec<Event> = trace.iter().filter(|e| !pred(e)).copied().collect();
    Trace::from_events(TraceKind::Measured, events)
}

#[test]
fn missing_advance_is_detected() {
    let (trace, cfg) = measured_doacross();
    let corrupted = drop_events(
        &trace,
        |e| matches!(e.kind, EventKind::Advance { tag, .. } if tag.0 == 7),
    );
    match event_based(&corrupted, &cfg.overheads) {
        Err(AnalysisError::Trace(TraceError::MissingAdvance { tag, .. })) => {
            assert_eq!(tag, SyncTag(7));
        }
        other => panic!("expected MissingAdvance, got {other:?}"),
    }
}

#[test]
fn orphan_await_end_is_detected() {
    let (trace, cfg) = measured_doacross();
    let corrupted = drop_events(
        &trace,
        |e| matches!(e.kind, EventKind::AwaitBegin { tag, .. } if tag.0 == 3),
    );
    assert!(matches!(
        event_based(&corrupted, &cfg.overheads),
        Err(AnalysisError::Trace(TraceError::UnmatchedAwaitEnd { .. }))
    ));
}

#[test]
fn dangling_await_begin_is_detected() {
    let (trace, cfg) = measured_doacross();
    let corrupted = drop_events(
        &trace,
        |e| matches!(e.kind, EventKind::AwaitEnd { tag, .. } if tag.0 == 30),
    );
    // Dropping an awaitE leaves either an unmatched end (the next one on
    // that processor pairs wrongly) or a dangling begin.
    let result = event_based(&corrupted, &cfg.overheads);
    assert!(
        matches!(
            result,
            Err(AnalysisError::Trace(
                TraceError::UnmatchedAwaitBegin { .. } | TraceError::UnmatchedAwaitEnd { .. }
            ))
        ),
        "got {result:?}"
    );
}

#[test]
fn duplicate_advance_is_detected() {
    let (trace, cfg) = measured_doacross();
    let mut events: Vec<Event> = trace.iter().copied().collect();
    let adv = *events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Advance { .. }))
        .unwrap();
    let mut dup = adv;
    dup.seq = u64::MAX; // unique position, same (var, tag)
    events.push(dup);
    let corrupted = Trace::from_events(TraceKind::Measured, events);
    assert!(matches!(
        event_based(&corrupted, &cfg.overheads),
        Err(AnalysisError::Trace(TraceError::DuplicateAdvance { .. }))
    ));
}

#[test]
fn reserved_tag_advance_is_detected() {
    let (trace, cfg) = measured_doacross();
    let mut events: Vec<Event> = trace.iter().copied().collect();
    events.push(Event::new(
        Time::from_nanos(1),
        ProcessorId(0),
        u64::MAX,
        EventKind::Advance {
            var: SyncVarId(0),
            tag: SyncTag(-4),
        },
    ));
    let corrupted = Trace::from_events(TraceKind::Measured, events);
    assert!(matches!(
        event_based(&corrupted, &cfg.overheads),
        Err(AnalysisError::Trace(TraceError::NegativeAdvanceTag { .. }))
    ));
}

#[test]
fn lost_barrier_exit_is_detected() {
    let (trace, cfg) = measured_doacross();
    let mut seen = false;
    let corrupted = drop_events(&trace, |e| {
        if matches!(e.kind, EventKind::BarrierExit { .. }) && !seen {
            seen = true;
            return true;
        }
        false
    });
    assert!(matches!(
        event_based(&corrupted, &cfg.overheads),
        Err(AnalysisError::Trace(
            TraceError::BarrierArityMismatch { .. }
        ))
    ));
}

#[test]
fn strict_pairing_rejects_causal_inversions() {
    // awaitE stamped before its advance *event*: legal in a measured trace
    // (α skew), illegal under strict (actual-trace) validation.
    let t = TraceBuilder::measured()
        .on(1)
        .at(10)
        .await_begin(0, 0)
        .at(20)
        .await_end(0, 0)
        .on(0)
        .at(30)
        .advance(0, 0)
        .build();
    assert!(pair_sync_events(&t).is_ok());
    assert!(matches!(
        ppa::trace::pair_sync_events_strict(&t),
        Err(TraceError::AwaitBeforeAdvance { .. })
    ));
}

#[test]
fn liberal_analysis_rejects_markerless_traces() {
    let (trace, cfg) = measured_doacross();
    let no_markers = drop_events(&trace, |e| {
        matches!(
            e.kind,
            EventKind::LoopBegin { .. } | EventKind::LoopEnd { .. }
        )
    });
    assert!(matches!(
        liberal_reschedule(
            &no_markers,
            &cfg.overheads,
            8,
            SchedulePolicy::StaticCyclic,
            0.0
        ),
        Err(AnalysisError::UnrecognizedStructure { .. })
    ));
}

#[test]
fn liberal_analysis_rejects_sync_free_traces() {
    let program = ProgramBuilder::new("serial")
        .serial([("a", 100u64), ("b", 100)])
        .build()
        .unwrap();
    let cfg = experiment_config();
    let run = run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();
    assert!(matches!(
        liberal_reschedule(
            &run.trace,
            &cfg.overheads,
            8,
            SchedulePolicy::StaticCyclic,
            0.0
        ),
        Err(AnalysisError::NoSyncEvents)
    ));
}

#[test]
fn simulator_rejects_malformed_programs() {
    use ppa::program::{Program, Segment, Statement};
    use ppa::trace::StatementId;

    // Sync statement outside a DOACROSS loop.
    let bad = Program {
        name: "bad".into(),
        segments: vec![Segment::Serial(vec![Statement::advance(
            StatementId(0),
            "adv",
            SyncVarId(0),
        )])],
    };
    let cfg = experiment_config();
    assert!(run_actual(&bad, &cfg).is_err());
    assert!(
        ppa::native::execute_program(&bad, &ppa::native::NativeConfig::uninstrumented(2)).is_err()
    );
}

#[test]
fn builder_rejects_deadlocking_shapes() {
    // Await with offset 0 would wait for itself.
    let mut b = ProgramBuilder::new("self-wait");
    let v = b.sync_var();
    assert!(b
        .doacross(1, 4, |body| body.await_var(v, 0).advance(v))
        .build()
        .is_err());

    // Await on a variable no iteration advances.
    let mut b = ProgramBuilder::new("never-advanced");
    let v = b.sync_var();
    assert!(b
        .doacross(1, 4, |body| body.await_var(v, -1))
        .build()
        .is_err());
}

#[test]
fn io_rejects_corrupt_files() {
    use ppa::trace::read_trace;
    assert!(read_trace(&b""[..], 0).is_err());
    assert!(read_trace(&b"not json at all\n"[..], 0).is_err());
    let bad_body = br#"{"format":"ppa-trace-v1","kind":"Measured","events":1}
{"broken": true}
"#;
    assert!(read_trace(&bad_body[..], 0).is_err());
}

#[test]
fn analysis_survives_adversarial_but_legal_traces() {
    // A trace with events stacked on one timestamp, pre-advanced awaits,
    // and an empty barrier-free structure: analysis must not panic and
    // must preserve feasibility.
    let t = TraceBuilder::measured()
        .on(0)
        .at(100)
        .stmt(0)
        .at(100)
        .stmt(1)
        .at(100)
        .advance(0, 0)
        .on(1)
        .at(100)
        .await_begin(0, -5)
        .at(100)
        .await_end(0, -5)
        .on(2)
        .at(100)
        .await_begin(0, 0)
        .at(100)
        .await_end(0, 0)
        .build();
    let r = event_based(&t, &OverheadSpec::ZERO).unwrap();
    assert!(r.trace.is_totally_ordered());
    assert_eq!(r.awaits.len(), 2);
}
