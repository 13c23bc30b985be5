//! Slice/suppression oracle properties on synthesized programs.
//!
//! Two contracts that make `--slice` and `--suppress` safe to use on
//! real reports:
//!
//! 1. **Slicing commutes with report filtering.** `ppa analyze --slice`
//!    scopes the *approximated report* (the analysis always runs over
//!    the full measured input — see EXPERIMENTS.md for why input
//!    slicing biases the §4.2.3 approximation). So slicing the report
//!    through the streaming engine — binary container, skip index
//!    engaged — must equal a naive in-memory filter of the same report,
//!    with every event accounted for.
//! 2. **Suppression is invisible to the analyzer.** Analyzing a
//!    suppressed measured trace yields a report byte-identical (in both
//!    container formats) to analyzing the original.

use ppa_core::{event_based, expand_events};
use ppa_program::synth::{synthesize, SynthConfig};
use ppa_program::InstrumentationPlan;
use ppa_sim::{
    run_measured, scenario_trace, ScenarioConfig, ScenarioFamily, SchedulePolicy, SimConfig,
};
use ppa_slice::{slice_stream, suppress_events, SliceOptions, SliceProbes, SliceSpec};
use ppa_trace::{
    write_binary, write_jsonl, AnyTraceReader, ClockRate, Event, EventKind, OverheadSpec,
    ProcessorId, StatementId, Time, Trace,
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

/// A random nontrivial slice expression over `report`: a window across
/// `[lo, hi)` quarters of its time span, a processor subset, and
/// (sometimes) a kind group.
fn random_expr(report: &Trace, lo_q: u64, hi_q: u64, proc_mask: u8, sync_only: bool) -> String {
    let first = report.events().first().map_or(0, |e| e.time.as_nanos());
    let last = report.events().last().map_or(0, |e| e.time.as_nanos());
    let span = last.saturating_sub(first).max(4);
    let mut clauses = vec![format!(
        "window={}ns..{}ns",
        first + span * lo_q / 4,
        first + span * hi_q / 4
    )];
    let procs: Vec<String> = (0..8u16)
        .filter(|p| proc_mask & (1 << p) != 0)
        .map(|p| p.to_string())
        .collect();
    if !procs.is_empty() {
        clauses.push(format!("procs={}", procs.join(",")));
    }
    if sync_only {
        clauses.push("kind=sync".to_string());
    }
    clauses.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: engine-slicing the approximated report (binary
    /// container, skip index on) equals naively filtering it, and the
    /// accounting identity `emitted + filtered + skipped == expected`
    /// holds exactly.
    #[test]
    fn slicing_report_stream_equals_filtering_report(
        seed in any::<u64>(),
        lo_q in 0u64..4,
        q_width in 1u64..4,
        proc_mask in any::<u8>(),
        sync_only in any::<bool>(),
    ) {
        let program = synthesize(seed, &SynthConfig::default());
        let cfg = static_config(seed);
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let report = event_based(&measured.trace, &cfg.overheads).unwrap().trace;

        let expr = random_expr(&report, lo_q, (lo_q + q_width).min(4), proc_mask, sync_only);
        let spec = SliceSpec::parse(&expr).unwrap();

        let mut bytes = Vec::new();
        write_binary(&report, &mut bytes).unwrap();
        let mut reader = AnyTraceReader::open(bytes.as_slice()).unwrap();
        let options = SliceOptions { spec: spec.clone(), suppress: false, use_skip_index: true };
        let probes = SliceProbes::noop();
        let mut sliced: Vec<Event> = Vec::new();
        let stats = slice_stream(&mut reader, &options, &probes, |e| {
            sliced.push(*e);
            Ok(())
        })
        .unwrap();

        let filtered: Vec<&Event> = report.iter().filter(|e| spec.matches(e)).collect();
        prop_assert_eq!(sliced.len(), filtered.len(), "expr {}", expr);
        for (got, want) in sliced.iter().zip(&filtered) {
            prop_assert_eq!(got, *want, "expr {}", expr);
        }
        prop_assert!(
            stats.conservation_holds(),
            "expr {}: {} of {} accounted",
            expr,
            stats.accounted(),
            stats.expected
        );
    }

    /// Contract 2: a suppressed measured trace analyzes to a report
    /// byte-identical to the unsuppressed one, in both containers.
    #[test]
    fn suppressed_analysis_report_is_byte_identical(seed in any::<u64>()) {
        let program = synthesize(seed, &SynthConfig::default());
        let cfg = static_config(seed);
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

        let suppressed_events = suppress_events(measured.trace.events());
        let suppressed = Trace::from_events(measured.trace.kind(), suppressed_events);

        let direct = event_based(&measured.trace, &cfg.overheads).unwrap().trace;
        let via = event_based(&suppressed, &cfg.overheads).unwrap().trace;

        let mut direct_jsonl = Vec::new();
        let mut via_jsonl = Vec::new();
        write_jsonl(&direct, &mut direct_jsonl).unwrap();
        write_jsonl(&via, &mut via_jsonl).unwrap();
        prop_assert_eq!(direct_jsonl, via_jsonl, "jsonl reports differ");

        let mut direct_bin = Vec::new();
        let mut via_bin = Vec::new();
        write_binary(&direct, &mut direct_bin).unwrap();
        write_binary(&via, &mut via_bin).unwrap();
        prop_assert_eq!(direct_bin, via_bin, "binary reports differ");
    }
}

/// The expander keeps each processor's history in a fixed ring: over
/// suppressed scenario fixtures (jittered lock, semaphore and fork/join
/// traces) and a periodic trace that really collapses, expansion still
/// gives back every fixture event for event.
#[test]
fn expanding_suppressed_scenario_fixtures_restores_them() {
    let mut fixtures: Vec<Vec<Event>> = Vec::new();
    for family in ScenarioFamily::ALL {
        for seed in [0x0E91_50DE, 7, 1991] {
            let cfg = ScenarioConfig {
                rounds: 200,
                ..ScenarioConfig::small(family)
            };
            fixtures.push(scenario_trace(seed, &cfg).events().to_vec());
        }
    }
    let periodic: Vec<Event> = (0..3_000u64)
        .map(|i| {
            let (round, proc) = (i / 3, i % 3);
            Event::new(
                Time::from_nanos(1_000 + round * 90 + proc),
                ProcessorId(proc as u16),
                i,
                EventKind::Statement {
                    stmt: StatementId(proc as u32 + (round % 4) as u32),
                },
            )
        })
        .collect();
    fixtures.push(periodic);
    let mut collapsed = 0;
    for (i, events) in fixtures.iter().enumerate() {
        let suppressed = suppress_events(events);
        collapsed += usize::from(suppressed.len() < events.len());
        assert_eq!(&expand_events(&suppressed).unwrap(), events, "fixture {i}");
    }
    assert!(collapsed > 0, "some fixture must exercise the records");
}

/// A 2 000-iteration DOACROSS trace (the benchmark's loop body, self
/// scheduled, seeded jitter) never repeats with a uniform stride, so it
/// passes through the suppressor's detection on every event: the output
/// is the one pinned when the suppressor held 104-byte slots, as a count
/// and a CRC32 chained over each event's `Debug` form.
#[test]
fn a_doacross_trace_keeps_its_suppressed_output() {
    let mut b = ppa_program::ProgramBuilder::new("doacross");
    let v = b.sync_var();
    let program = b
        .doacross(1, 2_000, |body| {
            body.compute("head", 500)
                .compute("mid", 300)
                .compute("tail", 200)
                .await_var(v, -1)
                .compute("cs", 60)
                .advance(v)
        })
        .build()
        .unwrap();
    let cfg = SimConfig {
        schedule: SchedulePolicy::SelfScheduled,
        ..static_config(0)
    }
    .with_jitter(1991, 150);
    let events = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .unwrap()
        .trace
        .events()
        .to_vec();
    let out = suppress_events(&events);
    let crc = out.iter().fold(0, |crc, e| {
        ppa_trace::crc32_chain(crc, format!("{e:?}").as_bytes())
    });
    assert_eq!(
        (events.len(), out.len(), crc),
        (14_020, 14_020, 1_062_236_858)
    );
}
