//! Consistency checks that span crates: the two execution backends, the
//! two analysis models, and the metrics layer must all agree where their
//! domains overlap.

use ppa::experiments::experiment_config;
use ppa::metrics::{build_timeline, parallelism_profile, waiting_table};
use ppa::prelude::*;

fn doacross_program(trip: u64, head: u64, cs: u64, tail: u64) -> Program {
    let mut b = ProgramBuilder::new("consistency");
    let v = b.sync_var();
    b.serial([("pre", 1_000u64)])
        .doacross(1, trip, |body| {
            body.compute("head", head)
                .await_var(v, -1)
                .compute("cs", cs)
                .advance(v)
                .compute("tail", tail)
        })
        .serial([("post", 1_000u64)])
        .build()
        .unwrap()
}

/// Event-based analysis of a measured simulator trace reconstructs the
/// actual trace exactly (static dispatch), event for event.
#[test]
fn event_based_reconstructs_actual_event_times() {
    let program = doacross_program(64, 700, 80, 300);
    let cfg = experiment_config().with_schedule(SchedulePolicy::StaticCyclic);
    let actual = run_actual(&program, &cfg).unwrap();
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
    let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

    // Each approximated event should appear at the actual run's time for
    // the same (proc, kind) occurrence.
    use std::collections::HashMap;
    let mut actual_by_key: HashMap<(ProcessorId, EventKind), Vec<Time>> = HashMap::new();
    for e in actual.trace.iter() {
        actual_by_key
            .entry((e.proc, e.kind))
            .or_default()
            .push(e.time);
    }
    let mut checked = 0;
    for e in approx.trace.iter() {
        if let Some(times) = actual_by_key.get(&(e.proc, e.kind)) {
            assert!(
                times.contains(&e.time),
                "approximated event {e} not at any actual occurrence time {times:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 300, "only {checked} events cross-checked");
}

/// The waiting table computed from the *approximated* trace equals the
/// simulator's ground-truth per-processor waiting statistics.
#[test]
fn waiting_table_matches_simulator_stats() {
    let program = doacross_program(128, 400, 120, 100);
    let cfg = experiment_config().with_schedule(SchedulePolicy::StaticCyclic);
    let actual = run_actual(&program, &cfg).unwrap();
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
    let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

    let table = waiting_table(&approx, cfg.processors);
    let truth = &actual.stats.loops[0];
    for (row, ps) in table.rows.iter().zip(&truth.per_proc) {
        assert_eq!(
            row.sync_wait_ns,
            ps.sync_wait.as_nanos(),
            "P{}: approximated sync wait differs from ground truth",
            row.proc
        );
    }
}

/// Timeline waiting accounting equals the analysis result's waiting sums,
/// and the parallelism profile integrates to the total active time.
#[test]
fn metrics_layers_agree() {
    let program = doacross_program(96, 600, 90, 150);
    let cfg = experiment_config();
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
    let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

    let timeline = build_timeline(&approx, cfg.processors);
    for p in 0..cfg.processors {
        let pid = ProcessorId(p as u16);
        let from_result = approx.sync_wait(pid) + approx.barrier_wait(pid);
        let from_timeline = timeline.waiting(p);
        // The timeline clips waits at the processor's last event, so it may
        // be at most equal.
        assert!(
            from_timeline <= from_result,
            "P{p}: timeline waiting {from_timeline} exceeds analysis {from_result}"
        );
        let diff = from_result
            .as_nanos()
            .saturating_sub(from_timeline.as_nanos());
        assert!(
            diff <= from_result.as_nanos() / 20 + 10,
            "P{p}: timeline waiting {from_timeline} too far from analysis {from_result}"
        );
    }

    let profile = parallelism_profile(&timeline);
    let range = timeline.end - timeline.start;
    let total_active: u64 = (0..cfg.processors)
        .map(|p| timeline.active(p).as_nanos())
        .sum();
    let avg = profile.average(timeline.start, timeline.end);
    let expected = total_active as f64 / range.as_nanos() as f64;
    assert!(
        (avg - expected).abs() < 1e-6,
        "profile avg {avg} vs interval sum {expected}"
    );
}

/// Simulator and native backend agree structurally: the same program under
/// the same plan yields traces with identical event censuses.
#[test]
fn sim_and_native_traces_have_the_same_census() {
    let program = doacross_program(40, 3_000, 500, 1_000);
    let plan = InstrumentationPlan::full_with_sync();

    let sim_cfg = experiment_config()
        .with_processors(4)
        .with_schedule(SchedulePolicy::StaticCyclic);
    let sim_run = run_measured(&program, &plan, &sim_cfg).unwrap();

    let native_cfg = ppa::native::NativeConfig {
        processors: 4,
        padding: Span::from_nanos(500),
        plan,
        self_scheduled: false,
    };
    let native_run = ppa::native::execute_program(&program, &native_cfg).unwrap();

    let census = |t: &Trace| {
        let mut m: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for e in t.iter() {
            *m.entry(e.kind.mnemonic()).or_default() += 1;
        }
        m
    };
    assert_eq!(census(&sim_run.trace), census(&native_run.trace));

    // Both validate and pair identically in count.
    let si = pair_sync_events(&sim_run.trace).unwrap();
    let ni = pair_sync_events(&native_run.trace).unwrap();
    assert_eq!(si.awaits.len(), ni.awaits.len());
    assert_eq!(si.advances.len(), ni.advances.len());
    assert_eq!(si.barriers.len(), ni.barriers.len());
}

/// Liberal analysis with the true dispatch policy agrees with conservative
/// analysis when the assignment was not perturbed.
#[test]
fn liberal_and_conservative_agree_under_static_dispatch() {
    let program = doacross_program(200, 500, 70, 0);
    let cfg = experiment_config().with_schedule(SchedulePolicy::StaticCyclic);
    let actual = run_actual(&program, &cfg).unwrap().trace.total_time();
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

    let conservative = event_based(&measured.trace, &cfg.overheads)
        .unwrap()
        .total_time();
    let liberal = liberal_reschedule(
        &measured.trace,
        &cfg.overheads,
        cfg.processors,
        SchedulePolicy::StaticCyclic,
        0.0,
    )
    .unwrap()
    .total;

    let c = conservative.ratio(actual);
    let l = liberal.ratio(actual);
    assert!((c - 1.0).abs() < 0.02, "conservative {c:.4}");
    assert!((l - 1.0).abs() < 0.05, "liberal {l:.4}");
    assert!((c - l).abs() < 0.05, "models disagree: {c:.4} vs {l:.4}");
}

/// JSONL round-trip composes with analysis: write a measured trace, read
/// it back, analyze, and get identical results.
#[test]
fn serialization_is_transparent_to_analysis() {
    let program = doacross_program(64, 800, 60, 200);
    let cfg = experiment_config();
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

    let mut buf = Vec::new();
    ppa::trace::write_trace(&measured.trace, &mut buf, ppa::trace::TraceFormat::Jsonl).unwrap();
    assert_eq!(
        ppa::trace::TraceFormat::sniff(&buf),
        ppa::trace::TraceFormat::Jsonl
    );
    let reloaded = ppa::trace::read_trace(buf.as_slice(), 0).unwrap();

    let direct = event_based(&measured.trace, &cfg.overheads).unwrap();
    let via_disk = event_based(&reloaded, &cfg.overheads).unwrap();
    assert_eq!(direct.trace, via_disk.trace);
    assert_eq!(direct.awaits, via_disk.awaits);
}
