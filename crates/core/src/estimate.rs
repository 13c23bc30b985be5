//! Overhead estimation from calibration trace pairs.
//!
//! Perturbation analysis needs "measures of in vitro trace instrumentation
//! costs" (§2). When a workload can be run both uninstrumented and
//! instrumented (calibration runs on a test machine — or any simulator
//! pair), the per-event-kind recording overheads can be *estimated* from
//! the traces themselves: align the two traces by (processor, kind)
//! occurrence, take same-thread deltas to the previous matched event, and
//! attribute the delta inflation to the instrumentation of the later
//! event.
//!
//! Waiting contaminates deltas (an await that waited in one run but not
//! the other inflates or deflates the difference arbitrarily), so the
//! estimator takes the **median** difference per kind — waits are
//! outliers in calibration workloads, overheads are the mode.

use ppa_trace::{
    Event, EventKind, KindCode, OverheadClass, OverheadSpec, ProcessorId, Span, Trace,
};
use std::collections::HashMap;

/// Per-kind estimation detail.
#[derive(Debug, Clone, PartialEq)]
pub struct KindEstimate {
    /// Event-kind mnemonic.
    pub kind: &'static str,
    /// Samples used.
    pub samples: usize,
    /// Median delta inflation (the overhead estimate).
    pub median: Span,
    /// Minimum observed inflation.
    pub min: Span,
    /// Maximum observed inflation (large values indicate waiting
    /// contamination).
    pub max: Span,
}

/// The estimator's output: a spec plus per-kind diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadEstimate {
    /// The estimated specification. Kinds with no samples keep the values
    /// from the `baseline` passed to [`estimate_overheads`]; the
    /// synchronization *processing* costs (`s_wait`, `s_nowait`,
    /// `advance_op`, `barrier_release`) are machine properties present in
    /// both runs and are always taken from the baseline.
    pub spec: OverheadSpec,
    /// Per-kind diagnostics, for kinds with at least one sample.
    pub kinds: Vec<KindEstimate>,
}

/// Estimates instrumentation overheads from an (actual, measured) trace
/// pair of the same execution.
///
/// Each instrumentation overhead takes the median of the first kind of
/// its [`OverheadClass`], in kind-table order, that has samples: the
/// statement event's cost from `stmt`, α from `advance` or else from an
/// advance-like episode release (`lockR`, `semV`, `taskF`), and so on.
/// `baseline` supplies the synchronization processing costs and any
/// class the pair cannot estimate (e.g. kinds the plan never recorded).
pub fn estimate_overheads(
    actual: &Trace,
    measured: &Trace,
    baseline: &OverheadSpec,
) -> OverheadEstimate {
    // Occurrence-aligned actual times per (proc, kind).
    let mut actual_by_key: HashMap<(ProcessorId, EventKind), Vec<&Event>> = HashMap::new();
    for e in actual.iter() {
        actual_by_key.entry((e.proc, e.kind)).or_default().push(e);
    }
    let mut cursor: HashMap<(ProcessorId, EventKind), usize> = HashMap::new();

    // Walk the measured trace per thread, keeping the previous *matched*
    // event on each thread in both time bases.
    let mut prev: HashMap<ProcessorId, (ppa_trace::Time, ppa_trace::Time)> = HashMap::new();
    let mut diffs: HashMap<&'static str, Vec<i64>> = HashMap::new();

    for e in measured.iter() {
        let key = (e.proc, e.kind);
        let idx = cursor.entry(key).or_insert(0);
        let Some(actual_event) = actual_by_key.get(&key).and_then(|v| v.get(*idx)) else {
            continue;
        };
        *idx += 1;
        if let Some(&(prev_m, prev_a)) = prev.get(&e.proc) {
            let delta_m = e.time.signed_delta(prev_m);
            let delta_a = actual_event.time.signed_delta(prev_a);
            diffs
                .entry(e.kind.mnemonic())
                .or_default()
                .push(delta_m - delta_a);
        }
        prev.insert(e.proc, (e.time, actual_event.time));
    }

    let mut kinds = Vec::new();
    let mut median_of = |slot: &'static str| -> Option<Span> {
        let samples = diffs.get_mut(slot)?;
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2].max(0) as u64;
        kinds.push(KindEstimate {
            kind: slot,
            samples: samples.len(),
            median: Span::from_nanos(median),
            min: Span::from_nanos((*samples.first().expect("nonempty")).max(0) as u64),
            max: Span::from_nanos((*samples.last().expect("nonempty")).max(0) as u64),
        });
        Some(Span::from_nanos(median))
    };

    let mut spec = *baseline;
    for class in OverheadClass::ALL {
        let median = KindCode::ALL
            .into_iter()
            .filter(|code| code.overhead_class() == Some(class))
            .find_map(|code| median_of(code.mnemonic()));
        if let Some(v) = median {
            *spec.instr_cost_mut(class) = v;
        }
    }

    kinds.sort_by_key(|k| k.kind);
    OverheadEstimate { spec, kinds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_program::{InstrumentationPlan, ProgramBuilder};
    use ppa_sim::{run_actual, run_measured, SchedulePolicy, SimConfig};
    use ppa_trace::ClockRate;

    fn config() -> SimConfig {
        SimConfig {
            processors: 8,
            clock: ClockRate::GHZ_1,
            overheads: OverheadSpec::alliant_default(),
            schedule: SchedulePolicy::StaticCyclic,
            dispatch_cycles: 50,
            jitter: None,
        }
    }

    #[test]
    fn recovers_statement_overhead_from_sequential_pair() {
        let program = ProgramBuilder::new("cal")
            .sequential_loop(64, |b| b.compute("a", 500).compute("b", 700))
            .build()
            .unwrap();
        let cfg = config();
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();

        let est = estimate_overheads(&actual.trace, &measured.trace, &OverheadSpec::ZERO);
        assert_eq!(est.spec.statement_event, cfg.overheads.statement_event);
        let stmt = est.kinds.iter().find(|k| k.kind == "stmt").unwrap();
        assert!(stmt.samples > 100);
        assert_eq!(
            stmt.min, stmt.max,
            "sequential calibration has no waiting noise"
        );
    }

    #[test]
    fn recovers_sync_overheads_from_doacross_pair() {
        let mut b = ProgramBuilder::new("cal-sync");
        let v = b.sync_var();
        // Calibration workload: heads long enough that neither run blocks
        // (instrumentation inside the critical path would serialize the
        // measured run and contaminate the awaitE samples), critical
        // section fused (unobservable).
        let program = b
            .doacross(1, 64, |body| {
                body.compute("head", 40_000)
                    .await_var(v, -1)
                    .compute_unobservable("cs", 50)
                    .advance(v)
            })
            .build()
            .unwrap();
        let cfg = config();
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

        let est = estimate_overheads(&actual.trace, &measured.trace, &OverheadSpec::ZERO);
        assert_eq!(est.spec.advance_instr, cfg.overheads.advance_instr);
        assert_eq!(est.spec.await_begin_instr, cfg.overheads.await_begin_instr);
        assert_eq!(est.spec.await_end_instr, cfg.overheads.await_end_instr);
        assert_eq!(est.spec.statement_event, cfg.overheads.statement_event);
    }

    #[test]
    fn estimated_spec_closes_the_loop() {
        // Analyze with the ESTIMATED spec and still reconstruct exactly.
        let mut b = ProgramBuilder::new("loop-closure");
        let v = b.sync_var();
        let program = b
            .doacross(1, 128, |body| {
                body.compute("head", 40_000)
                    .await_var(v, -1)
                    .compute_unobservable("cs", 80)
                    .advance(v)
            })
            .build()
            .unwrap();
        let cfg = config();
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let est = estimate_overheads(&actual.trace, &measured.trace, &cfg.overheads);

        let approx = crate::event_based(&measured.trace, &est.spec).unwrap();
        assert_eq!(approx.total_time(), actual.trace.total_time());
    }

    #[test]
    fn baseline_supplies_missing_kinds() {
        // A pair with only statement events: sync overheads fall back.
        let program = ProgramBuilder::new("stmt-only")
            .serial([("x", 100u64)])
            .build()
            .unwrap();
        let cfg = config();
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        let baseline = OverheadSpec::alliant_default();
        let est = estimate_overheads(&actual.trace, &measured.trace, &baseline);
        assert_eq!(est.spec.advance_instr, baseline.advance_instr);
        assert_eq!(est.spec.s_wait, baseline.s_wait);
    }

    #[test]
    fn episode_kinds_estimate_their_overhead_class() {
        // Statements and lock episodes only: no advance or awaitE to
        // sample, so α comes from the releases and the awaitE cost from
        // the acquires, as `instr_overhead` charges them.
        use ppa_trace::{LockId, StatementId};
        let (stmt, lock) = (StatementId(0), LockId(0));
        let kinds = [
            (EventKind::Statement { stmt }, 40),
            (EventKind::LockAcquire { lock }, 70),
            (EventKind::Statement { stmt }, 40),
            (EventKind::LockRelease { lock }, 30),
        ];
        let (mut actual, mut measured) = (Vec::new(), Vec::new());
        let mut shift = 0;
        for round in 0..10u64 {
            for (i, &(kind, cost)) in kinds.iter().enumerate() {
                let seq = round * 4 + i as u64;
                let t = seq * 100;
                shift += cost;
                let at = |t| Event::new(ppa_trace::Time::from_nanos(t), ProcessorId(0), seq, kind);
                actual.push(at(t));
                measured.push(at(t + shift));
            }
        }
        let baseline = OverheadSpec::alliant_default();
        let est = estimate_overheads(
            &Trace::from_events(ppa_trace::TraceKind::Actual, actual),
            &Trace::from_events(ppa_trace::TraceKind::Measured, measured),
            &baseline,
        );
        assert_eq!(est.spec.statement_event, Span::from_nanos(40));
        assert_eq!(est.spec.advance_instr, Span::from_nanos(30));
        assert_eq!(est.spec.await_end_instr, Span::from_nanos(70));
        assert_eq!(est.spec.await_begin_instr, baseline.await_begin_instr);
        let sampled: Vec<&str> = est.kinds.iter().map(|k| k.kind).collect();
        assert_eq!(sampled, ["lockA", "lockR", "stmt"]);
    }

    #[test]
    fn empty_traces_return_baseline() {
        let baseline = OverheadSpec::alliant_default();
        let est = estimate_overheads(
            &Trace::new(ppa_trace::TraceKind::Actual),
            &Trace::new(ppa_trace::TraceKind::Measured),
            &baseline,
        );
        assert_eq!(est.spec, baseline);
        assert!(est.kinds.is_empty());
    }
}
