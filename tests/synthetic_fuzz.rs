//! Seed-sweep fuzzing of the whole pipeline on synthesized workloads:
//! hundreds of structurally random programs through simulate → validate →
//! analyze → compare, asserting the substrate's invariants on each.

use ppa::analysis::{compare_traces, event_based, time_based};
use ppa::prelude::*;
use ppa::program::synth::{synthesize, SynthConfig};

fn config(seed: u64, schedule: SchedulePolicy) -> SimConfig {
    SimConfig {
        processors: 1 + (seed % 8) as usize,
        clock: ClockRate::GHZ_1,
        overheads: OverheadSpec::alliant_default(),
        schedule,
        dispatch_cycles: 50,
        jitter: None,
    }
    .with_jitter(seed.wrapping_mul(0x9E37), 300)
}

/// 300 seeds through the full pipeline under static dispatch: traces
/// validate, analysis is exact, serialization round-trips.
#[test]
fn static_dispatch_seed_sweep() {
    let synth_cfg = SynthConfig::default();
    for seed in 0..300u64 {
        let program = synthesize(seed, &synth_cfg);
        let cfg = config(seed, SchedulePolicy::StaticCyclic);

        let actual = run_actual(&program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: actual sim failed: {e}"));
        let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: measured sim failed: {e}"));

        assert!(actual.trace.is_totally_ordered(), "seed {seed}");
        pair_sync_events(&measured.trace).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let approx = event_based(&measured.trace, &cfg.overheads)
            .unwrap_or_else(|e| panic!("seed {seed}: analysis failed: {e}"));
        assert_eq!(
            approx.total_time(),
            actual.trace.total_time(),
            "seed {seed}: event-based total not exact"
        );

        let report = compare_traces(&actual.trace, &approx.trace, Span::ZERO);
        assert_eq!(
            report.max_abs_error,
            Span::ZERO,
            "seed {seed}: per-event error (matched {})",
            report.matched
        );
    }
}

/// Self-scheduled dispatch with heavy jitter: analysis stays feasible and
/// close even when assignments shift.
#[test]
fn self_scheduled_seed_sweep() {
    let synth_cfg = SynthConfig::default();
    for seed in 0..120u64 {
        let program = synthesize(seed, &synth_cfg);
        let cfg = config(seed, SchedulePolicy::SelfScheduled);

        let actual = run_actual(&program, &cfg).expect("valid");
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
        let approx = event_based(&measured.trace, &cfg.overheads)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let ratio = approx.total_time().ratio(actual.trace.total_time());
        assert!(
            (ratio - 1.0).abs() < 0.25,
            "seed {seed}: conservative approx ratio {ratio} too far off under reassignment"
        );
        // The approximated trace is itself a feasible execution.
        assert!(
            ppa::trace::pair_sync_events_strict(&approx.trace).is_ok(),
            "seed {seed}: approximated trace infeasible"
        );
    }
}

/// Time-based analysis on the same sweep: never better than event-based,
/// never longer than the measurement.
#[test]
fn time_based_bounds_hold_on_sweep() {
    let synth_cfg = SynthConfig::default();
    for seed in 0..150u64 {
        let program = synthesize(seed, &synth_cfg);
        let cfg = config(seed, SchedulePolicy::StaticCyclic);
        let actual = run_actual(&program, &cfg)
            .expect("valid")
            .trace
            .total_time();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");

        let tb = time_based(&measured.trace, &cfg.overheads).total_time();
        assert!(tb <= measured.trace.total_time(), "seed {seed}");

        let eb = event_based(&measured.trace, &cfg.overheads)
            .expect("feasible")
            .total_time();
        let tb_err = (tb.ratio(actual) - 1.0).abs();
        let eb_err = (eb.ratio(actual) - 1.0).abs();
        assert!(
            eb_err <= tb_err + 1e-12,
            "seed {seed}: event-based ({eb_err}) worse than time-based ({tb_err})"
        );
    }
}

/// Serialization round-trips on synthesized traces of every shape.
#[test]
fn serialization_seed_sweep() {
    let synth_cfg = SynthConfig::default();
    for seed in 200..260u64 {
        let program = synthesize(seed, &synth_cfg);
        let cfg = config(seed, SchedulePolicy::StaticBlock);
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
        let mut buf = Vec::new();
        ppa::trace::write_trace(&measured.trace, &mut buf, ppa::trace::TraceFormat::Jsonl)
            .expect("write");
        assert_eq!(
            ppa::trace::TraceFormat::sniff(&buf),
            ppa::trace::TraceFormat::Jsonl
        );
        let back = ppa::trace::read_trace(buf.as_slice(), 0).expect("read");
        assert_eq!(measured.trace, back, "seed {seed}");
    }
}
