//! Invariant-checker acceptance: the lint and report passes accept every
//! analyzer-produced report on random valid programs (no false
//! positives), and reject each hand-seeded violation fixture with the
//! right rule.

use ppa_check::{check_metrics, ReportChecker, TraceLinter, Violation};
use ppa_core::event_based;
use ppa_program::synth::{synthesize, SynthConfig};
use ppa_program::InstrumentationPlan;
use ppa_sim::{
    run_measured, scenario_trace, ScenarioConfig, ScenarioFamily, SchedulePolicy, SimConfig,
};
use ppa_trace::{
    pair_sync_events, BarrierId, ClockRate, Event, EventKind, OverheadSpec, ProcessorId, SyncTag,
    SyncVarId, Time, Trace, TraceKind,
};
use proptest::prelude::*;

fn static_config(seed: u64) -> SimConfig {
    SimConfig {
        processors: 8,
        clock: ClockRate::GHZ_1,
        overheads: OverheadSpec::alliant_default(),
        schedule: SchedulePolicy::StaticCyclic,
        dispatch_cycles: 50,
        jitter: None,
    }
    .with_jitter(seed, 250)
}

fn ev(time: u64, proc: u16, seq: u64, kind: EventKind) -> Event {
    Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind)
}

fn lint(events: &[Event]) -> Vec<Violation> {
    let mut l = TraceLinter::new();
    for e in events {
        l.push(e);
    }
    l.finish()
}

fn report(events: &[Event]) -> Vec<Violation> {
    let mut r = ReportChecker::new();
    for e in events {
        r.push(e);
    }
    r.finish()
}

fn rules(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No false positives: for any synthesized workload, both the
    /// measured trace and the streaming analyzer's approximated report
    /// satisfy every rule. This is the guard that keeps `ppa check`
    /// meaningful — a checker that cries wolf on valid pipelines would
    /// be worse than none.
    #[test]
    fn checker_accepts_every_analyzer_report(seed in any::<u64>()) {
        let program = synthesize(seed, &SynthConfig::default());
        let cfg = static_config(seed);
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

        let measured_lint = lint(measured.trace.events());
        prop_assert!(measured_lint.is_empty(), "measured lint: {measured_lint:?}");

        let approx_lint = lint(approx.trace.events());
        prop_assert!(approx_lint.is_empty(), "approx lint: {approx_lint:?}");

        let approx_report = report(approx.trace.events());
        prop_assert!(approx_report.is_empty(), "approx report: {approx_report:?}");
    }
}

/// A measured trace of one of four families: a synthesized DOACROSS
/// program (0), or a seeded spinlock, semaphore or fork/join scenario.
fn family_trace(family: usize, seed: u64) -> Trace {
    match family {
        0 => {
            let program = synthesize(seed, &SynthConfig::default());
            let plan = InstrumentationPlan::full_with_sync();
            run_measured(&program, &plan, &static_config(seed))
                .unwrap()
                .trace
        }
        f => scenario_trace(seed, &ScenarioConfig::small(ScenarioFamily::ALL[f - 1])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One rulebook: with one synchronization event dropped, duplicated
    /// or moved to another event's time, the linter reports a violation
    /// (besides the seq holes and duplicates the mutation itself makes)
    /// exactly when the analyzer's pairing refuses the trace.
    #[test]
    fn linter_flags_exactly_what_pairing_refuses(
        family in 0usize..4,
        seed in any::<u64>(),
        mutation in 0u8..3,
        pick in any::<usize>(),
        to in any::<usize>(),
    ) {
        let mut events = family_trace(family, seed).events().to_vec();
        let sync: Vec<usize> = (0..events.len())
            .filter(|&i| {
                let k = events[i].kind;
                k.is_sync() || k.is_barrier() || k.is_episode()
            })
            .collect();
        if sync.is_empty() {
            return;
        }
        let i = sync[pick % sync.len()];
        match mutation {
            0 => {
                events.remove(i);
            }
            1 => events.insert(i, events[i]),
            _ => events[i].time = events[to % events.len()].time,
        }
        let mutated = Trace::from_events(TraceKind::Measured, events);
        let refused = pair_sync_events(&mutated);
        let flagged: Vec<Violation> = lint(mutated.events())
            .into_iter()
            .filter(|v| v.rule != "seq-contiguity")
            .collect();
        prop_assert_eq!(refused.is_err(), !flagged.is_empty(), "{:?} vs {:?}", refused.err(), flagged);
    }
}

// --- hand-seeded lint fixtures -------------------------------------

#[test]
fn fixture_time_moves_backwards_on_one_processor() {
    let events = vec![
        ev(100, 0, 0, EventKind::ProgramBegin),
        ev(50, 0, 1, EventKind::Statement { stmt: 0.into() }),
    ];
    let r = rules(&lint(&events));
    assert!(r.contains(&"proc-time-monotone"), "{r:?}");
    assert!(r.contains(&"trace-total-order"), "{r:?}");
}

#[test]
fn fixture_sequence_hole() {
    let events = vec![
        ev(10, 0, 0, EventKind::ProgramBegin),
        ev(20, 0, 1, EventKind::Statement { stmt: 0.into() }),
        ev(30, 0, 3, EventKind::ProgramEnd),
    ];
    assert_eq!(rules(&lint(&events)), vec!["seq-contiguity"]);
}

#[test]
fn fixture_sequence_duplicate() {
    let events = vec![
        ev(10, 0, 0, EventKind::ProgramBegin),
        ev(20, 0, 1, EventKind::Statement { stmt: 0.into() }),
        ev(30, 1, 1, EventKind::Statement { stmt: 1.into() }),
    ];
    assert_eq!(rules(&lint(&events)), vec!["seq-contiguity"]);
}

#[test]
fn fixture_await_end_without_begin() {
    let events = vec![
        ev(10, 0, 0, EventKind::ProgramBegin),
        ev(
            20,
            0,
            1,
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            30,
            0,
            2,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
    ];
    assert_eq!(rules(&lint(&events)), vec!["await-pairing"]);
}

#[test]
fn fixture_await_begin_never_closed_and_nested() {
    let events = vec![
        ev(
            10,
            0,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            20,
            0,
            1,
            EventKind::AwaitBegin {
                var: SyncVarId(1),
                tag: SyncTag(0),
            },
        ),
    ];
    let r = rules(&lint(&events));
    // One nesting violation at push time, one unclosed await at finish.
    assert_eq!(r, vec!["await-pairing", "await-pairing"]);
}

#[test]
fn fixture_await_without_any_advance() {
    let events = vec![
        ev(
            10,
            0,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(3),
            },
        ),
        ev(
            20,
            0,
            1,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(3),
            },
        ),
    ];
    assert_eq!(rules(&lint(&events)), vec!["await-advance-order"]);
}

#[test]
fn advance_after_await_end_in_stream_is_accepted() {
    // Measured traces stamp the advance record after its own overhead,
    // so the dependent awaitE routinely precedes it in stream order —
    // this must lint clean.
    let events = vec![
        ev(
            10,
            1,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            20,
            1,
            1,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            25,
            0,
            2,
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
    ];
    assert!(lint(&events).is_empty());
}

#[test]
fn pre_advanced_tags_need_no_advance() {
    let events = vec![
        ev(
            10,
            0,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(-1),
            },
        ),
        ev(
            20,
            0,
            1,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(-1),
            },
        ),
    ];
    assert!(lint(&events).is_empty());
}

// --- hand-seeded report fixtures -----------------------------------

#[test]
fn fixture_report_ta_backwards() {
    let events = vec![
        ev(200, 0, 0, EventKind::ProgramBegin),
        ev(100, 0, 1, EventKind::Statement { stmt: 0.into() }),
    ];
    assert_eq!(rules(&report(&events)), vec!["report-ta-monotone"]);
}

#[test]
fn fixture_await_completes_before_its_advance() {
    // advance approximated to 500ns, but the dependent awaitE lands at
    // 400ns: the measured dependence order was lost in approximation.
    let events = vec![
        ev(
            500,
            0,
            0,
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            300,
            1,
            1,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
        ev(
            400,
            1,
            2,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(0),
            },
        ),
    ];
    assert_eq!(rules(&report(&events)), vec!["await-order-preserved"]);
}

#[test]
fn fixture_await_with_advance_missing_from_report() {
    let events = vec![
        ev(
            300,
            1,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(7),
            },
        ),
        ev(
            400,
            1,
            1,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(7),
            },
        ),
    ];
    assert_eq!(rules(&report(&events)), vec!["await-order-preserved"]);
}

#[test]
fn fixture_barrier_exit_before_last_enter() {
    let events = vec![
        ev(
            100,
            0,
            0,
            EventKind::BarrierEnter {
                barrier: BarrierId(0),
            },
        ),
        ev(
            200,
            1,
            1,
            EventKind::BarrierEnter {
                barrier: BarrierId(0),
            },
        ),
        ev(
            150,
            2,
            2,
            EventKind::BarrierExit {
                barrier: BarrierId(0),
            },
        ),
        ev(
            250,
            1,
            3,
            EventKind::BarrierExit {
                barrier: BarrierId(0),
            },
        ),
    ];
    assert_eq!(rules(&report(&events)), vec!["barrier-exit-order"]);
}

#[test]
fn fixture_barrier_exit_without_enter() {
    let events = vec![ev(
        100,
        0,
        0,
        EventKind::BarrierExit {
            barrier: BarrierId(2),
        },
    )];
    assert_eq!(rules(&report(&events)), vec!["barrier-protocol"]);
}

#[test]
fn fixture_barrier_episode_left_open() {
    let events = vec![
        ev(
            100,
            0,
            0,
            EventKind::BarrierEnter {
                barrier: BarrierId(0),
            },
        ),
        ev(
            110,
            1,
            1,
            EventKind::BarrierEnter {
                barrier: BarrierId(0),
            },
        ),
        ev(
            120,
            0,
            2,
            EventKind::BarrierExit {
                barrier: BarrierId(0),
            },
        ),
    ];
    assert_eq!(rules(&report(&events)), vec!["barrier-protocol"]);
}

#[test]
fn fixture_await_end_before_its_begin() {
    let events = vec![
        ev(
            400,
            1,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(-1),
            },
        ),
        ev(
            300,
            1,
            1,
            EventKind::AwaitEnd {
                var: SyncVarId(0),
                tag: SyncTag(-1),
            },
        ),
    ];
    let r = rules(&report(&events));
    assert!(r.contains(&"await-begin-before-end"), "{r:?}");
}

// --- metrics cross-check -------------------------------------------

#[test]
fn metrics_nonzero_clamp_is_a_violation() {
    let prom = "# HELP ppa_core_clamped_approx_total x\n\
                # TYPE ppa_core_clamped_approx_total counter\n\
                ppa_core_clamped_approx_total 3\n";
    let v = check_metrics(prom).unwrap();
    assert_eq!(rules(&v), vec!["unaccounted-clamp"]);
    assert!(v[0].detail.contains('3'), "{}", v[0].detail);
}

#[test]
fn metrics_zero_clamp_is_clean() {
    let prom = "ppa_core_clamped_approx_total 0\nppa_core_events_total 100\n";
    assert!(check_metrics(prom).unwrap().is_empty());
}

#[test]
fn metrics_json_snapshot_is_understood() {
    let json = r#"{"metrics":[
        {"name":"ppa_core_clamped_approx_total","kind":"counter","help":"x","labels":{},"value":2}
    ]}"#;
    assert_eq!(
        rules(&check_metrics(json).unwrap()),
        vec!["unaccounted-clamp"]
    );
}

#[test]
fn metrics_garbage_is_a_parse_error() {
    assert!(check_metrics("{not json").is_err());
    assert!(check_metrics("").is_err());
}
