//! Differential oracle: two independent implementations of the §4.2.3
//! analysis must agree on every input.
//!
//! The workspace keeps two paths to the same answer — the streaming
//! [`event_based`] (the engine every command runs) and the batch
//! worklist [`event_based_reference`]. The reference stays because it
//! is the executable spec: it builds the whole dependency DAG and
//! resolves it rule by rule, sharing no state machine with the
//! streaming engine, so it is what a change to the engine is judged
//! against. This module generates DOACROSS programs (the Livermore
//! loops 3/4/17 experiment graphs plus synthesized random workloads),
//! simulates their instrumented measurement, runs both analyses, and
//! diffs the reports field by field. Any disagreement is shrunk with a
//! deterministic delta-debugging pass to a minimal reproducing measured
//! trace, which can be written to disk for offline triage.

use crate::{ReportChecker, Violation};
use ppa_core::{event_based, event_based_reference, expand_events, EventBasedResult};
use ppa_program::synth::{synthesize, SynthConfig};
use ppa_program::InstrumentationPlan;
use ppa_sim::{
    run_measured, scenario_trace, ScenarioConfig, ScenarioFamily, SchedulePolicy, SimConfig,
};
use ppa_slice::{slice_stream, suppress_events, SliceOptions, SliceProbes, SliceSpec};
use ppa_trace::{
    read_trace, write_trace, ClockRate, Event, OverheadSpec, Trace, TraceFormat, TraceKind,
};
use std::path::{Path, PathBuf};

/// Configuration for one differential-oracle run.
#[derive(Debug, Clone)]
pub struct DifferentialConfig {
    /// Base seed; program `i` derives its workload and jitter from
    /// `seed + i`, so a run is fully reproducible from this one number.
    pub seed: u64,
    /// How many programs to generate and cross-check.
    pub programs: usize,
    /// How many lock/semaphore/fork-join episode scenarios to generate
    /// and cross-check (cycled round-robin over the three families).
    pub scenarios: usize,
    /// Decode worker threads for the binary-codec round-trip leg
    /// (0 skips the pipelined decode and checks only the serial one).
    pub decode_workers: usize,
}

impl Default for DifferentialConfig {
    fn default() -> Self {
        DifferentialConfig {
            seed: 0,
            programs: 50,
            scenarios: 50,
            decode_workers: 4,
        }
    }
}

/// One disagreement between the two analysis paths.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which generated program disagreed (e.g. `lfk03` or `synth-17`).
    pub program: String,
    /// The seed that reproduces it.
    pub seed: u64,
    /// First field-level difference found between two paths.
    pub detail: String,
    /// Size (events) of the shrunken reproducing measured trace.
    pub minimal_events: usize,
    /// Where the reproducing trace was written, when an output directory
    /// was given.
    pub trace_path: Option<PathBuf>,
}

/// The outcome of a differential-oracle run.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Programs generated and cross-checked.
    pub programs: usize,
    /// Episode scenarios (spinlock, semaphore, fork/join) cross-checked.
    pub scenarios: usize,
    /// Total measured events analyzed across all programs.
    pub events: usize,
    /// Every disagreement found, shrunk.
    pub mismatches: Vec<Mismatch>,
}

impl DifferentialReport {
    /// The mismatches as check violations (rule `differential-mismatch`).
    pub fn violations(&self) -> Vec<Violation> {
        self.mismatches
            .iter()
            .map(|m| {
                Violation::new(
                    "differential-mismatch",
                    format!(
                        "{} (seed {}): {}; minimal repro has {} event(s){}",
                        m.program,
                        m.seed,
                        m.detail,
                        m.minimal_events,
                        m.trace_path
                            .as_deref()
                            .map(|p| format!(", written to {}", p.display()))
                            .unwrap_or_default()
                    ),
                )
            })
            .collect()
    }
}

/// The simulator configuration the oracle measures programs under:
/// 8 processors, jittered statement costs, static-cyclic dispatch — the
/// same shape as the repository's exactness property tests, so any
/// disagreement here is a real analyzer divergence, not a workload
/// artifact.
fn sim_config(seed: u64) -> SimConfig {
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

/// Runs the oracle: generates `cfg.programs` DOACROSS workloads, diffs
/// the two analysis paths on each, and shrinks any mismatch. Minimal
/// reproducing traces are written to `out_dir` as JSONL when given.
///
/// Errors only on environmental failure (simulation or I/O); analysis
/// disagreement is reported through [`DifferentialReport::mismatches`].
pub fn run_differential(
    cfg: &DifferentialConfig,
    out_dir: Option<&Path>,
) -> Result<DifferentialReport, String> {
    let mut report = DifferentialReport::default();
    for i in 0..cfg.programs {
        let seed = cfg.seed.wrapping_add(i as u64);
        // The three paper DOACROSS kernels anchor the set; everything
        // after them is a synthesized random workload (which also mixes
        // serial, sequential-loop, and DOALL segments around its
        // DOACROSS loops).
        let (label, program) = match i {
            0..=2 => {
                let id = [3u8, 4, 17][i];
                (
                    format!("lfk{id:02}"),
                    ppa_lfk::doacross_graph(id)
                        .ok_or_else(|| format!("lfk{id:02}: no DOACROSS graph"))?,
                )
            }
            _ => (
                format!("synth-{i}"),
                synthesize(seed, &SynthConfig::default()),
            ),
        };
        let sim = sim_config(seed);
        let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &sim)
            .map_err(|e| format!("{label}: simulation failed: {e:?}"))?;
        report.programs += 1;
        report.events += measured.trace.len();

        if let Some(detail) = diff_codec(&measured.trace, cfg.decode_workers) {
            report.mismatches.push(Mismatch {
                program: label.clone(),
                seed,
                detail,
                minimal_events: measured.trace.len(),
                trace_path: None,
            });
        }

        if let Some(detail) = diff_slice(&measured.trace) {
            report.mismatches.push(Mismatch {
                program: label.clone(),
                seed,
                detail,
                minimal_events: measured.trace.len(),
                trace_path: None,
            });
        }

        if let Some(detail) = diff_suppression(&measured.trace, &sim.overheads) {
            report.mismatches.push(Mismatch {
                program: label.clone(),
                seed,
                detail,
                minimal_events: measured.trace.len(),
                trace_path: None,
            });
        }

        if let Some(detail) = diff_paths(&measured.trace, &sim.overheads) {
            let minimal = shrink(measured.trace.events(), &sim.overheads);
            let trace_path = match out_dir {
                Some(dir) => {
                    let path = dir.join(format!("mismatch-{label}.jsonl"));
                    let minimal_trace = Trace::from_events(TraceKind::Measured, minimal.clone());
                    let file = std::fs::File::create(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    write_trace(
                        &minimal_trace,
                        std::io::BufWriter::new(file),
                        TraceFormat::Jsonl,
                    )
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                    Some(path)
                }
                None => None,
            };
            report.mismatches.push(Mismatch {
                program: label,
                seed,
                detail,
                minimal_events: minimal.len(),
                trace_path,
            });
        }
    }

    // Episode scenarios: seeded spinlock/semaphore/fork-join workloads,
    // round-robin over the families. On top of the usual legs, every
    // scenario's approximated report must pass the §4.2.3 conservation
    // laws (`ReportChecker`) — the episode blocked rule is new enough to
    // earn its own acceptance check here.
    let oh = OverheadSpec::alliant_default();
    for i in 0..cfg.scenarios {
        let seed = cfg.seed.wrapping_add(i as u64);
        let family = ScenarioFamily::ALL[i % ScenarioFamily::ALL.len()];
        let label = format!("{family}-{i}");
        let trace = scenario_trace(seed, &ScenarioConfig::small(family));
        report.scenarios += 1;
        report.events += trace.len();

        let legs = [
            diff_codec(&trace, cfg.decode_workers),
            diff_suppression(&trace, &oh),
            diff_conservation(&trace, &oh),
        ];
        for detail in legs.into_iter().flatten() {
            report.mismatches.push(Mismatch {
                program: label.clone(),
                seed,
                detail,
                minimal_events: trace.len(),
                trace_path: None,
            });
        }

        if let Some(detail) = diff_paths(&trace, &oh) {
            let minimal = shrink(trace.events(), &oh);
            report.mismatches.push(Mismatch {
                program: label,
                seed,
                detail,
                minimal_events: minimal.len(),
                trace_path: None,
            });
        }
    }
    Ok(report)
}

/// Conservation leg for episode scenarios: the streaming analysis must
/// accept the scenario, and its approximated report must satisfy every
/// [`ReportChecker`] law — in particular `episode-order-preserved`
/// (no acquire, P, begin, or join-return precedes its enabling event
/// in approximated time) and `episode-protocol`.
fn diff_conservation(trace: &Trace, oh: &OverheadSpec) -> Option<String> {
    let result = match event_based(trace, oh) {
        Ok(r) => r,
        Err(e) => return Some(format!("conservation: analysis rejected the scenario: {e}")),
    };
    let mut checker = ReportChecker::new();
    for e in result.trace.iter() {
        checker.push(e);
    }
    let violations = checker.finish();
    violations.first().map(|v| {
        format!(
            "conservation: {} violation(s), first: {v}",
            violations.len()
        )
    })
}

/// Binary-codec round-trip leg: the measured trace must survive a
/// binary encode and come back event-identical through both the serial
/// decoder and (when `decode_workers > 0`) the pipelined one. The
/// analysis oracles only ever see in-memory traces, so without this leg
/// a decode divergence would escape the differential run entirely.
fn diff_codec(trace: &Trace, decode_workers: usize) -> Option<String> {
    let mut bytes = Vec::new();
    if let Err(e) = write_trace(trace, &mut bytes, TraceFormat::Binary) {
        return Some(format!("codec round-trip: binary encode failed: {e}"));
    }
    let legs: &[(&str, Result<Trace, _>)] = &[
        ("serial decode", read_trace(bytes.as_slice(), 0)),
        (
            "pipelined decode",
            read_trace(bytes.as_slice(), decode_workers),
        ),
    ];
    for (leg, decoded) in legs {
        let decoded = match decoded {
            Ok(t) => t,
            Err(e) => return Some(format!("codec round-trip: {leg} failed: {e}")),
        };
        if decoded.len() != trace.len() {
            return Some(format!(
                "codec round-trip: {leg} returned {} event(s), encoded {}",
                decoded.len(),
                trace.len()
            ));
        }
        if let Some((i, (a, b))) = decoded
            .iter()
            .zip(trace.iter())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            return Some(format!("codec round-trip: {leg} event[{i}]: {a} vs {b}"));
        }
    }
    None
}

/// Slice-vs-full leg: the slice engine (binary container, skip index
/// engaged) must return exactly the events a full decode followed by a
/// naive predicate filter returns, with exact accounting. The window
/// spans the middle half of the trace so the skip index has blocks to
/// discard on both sides.
fn diff_slice(trace: &Trace) -> Option<String> {
    let (first, last) = match (trace.events().first(), trace.events().last()) {
        (Some(f), Some(l)) => (f.time.as_nanos(), l.time.as_nanos()),
        _ => return None,
    };
    let span = last - first;
    let (lo, hi) = (first + span / 4, first + span * 3 / 4);
    if hi <= lo {
        return None; // degenerate trace, nothing to slice
    }
    let spec = match SliceSpec::parse(&format!("window={lo}..{hi} procs=0,2,4,6")) {
        Ok(s) => s,
        Err(e) => return Some(format!("slice-vs-full: spec failed to parse: {e}")),
    };

    let mut bytes = Vec::new();
    if let Err(e) = write_trace(trace, &mut bytes, TraceFormat::Binary) {
        return Some(format!("slice-vs-full: binary encode failed: {e}"));
    }
    let mut reader = match ppa_trace::codec::AnyTraceReader::open(bytes.as_slice()) {
        Ok(r) => r,
        Err(e) => return Some(format!("slice-vs-full: open failed: {e}")),
    };
    let options = SliceOptions {
        spec: spec.clone(),
        suppress: false,
        use_skip_index: true,
    };
    let mut sliced = Vec::new();
    let stats = match slice_stream(&mut reader, &options, &SliceProbes::noop(), |e| {
        sliced.push(*e);
        Ok(())
    }) {
        Ok(stats) => stats,
        Err(e) => return Some(format!("slice-vs-full: slice failed: {e}")),
    };
    if !stats.conservation_holds() {
        return Some(format!(
            "slice-vs-full: accounting broken: {} of {} event(s) accounted",
            stats.accounted(),
            stats.expected
        ));
    }

    let full: Vec<Event> = trace.iter().filter(|e| spec.matches(e)).copied().collect();
    if sliced.len() != full.len() {
        return Some(format!(
            "slice-vs-full: engine returned {} event(s), naive filter {}",
            sliced.len(),
            full.len()
        ));
    }
    sliced
        .iter()
        .zip(&full)
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("slice-vs-full: event[{i}]: engine {a} vs filter {b}"))
}

/// Suppression leg: collapsing repeated patterns must be lossless —
/// expanding the suppressed stream reproduces the measured events
/// exactly, and analyzing the suppressed trace (the analyzer expands
/// records itself) yields a report identical to the unsuppressed one.
fn diff_suppression(trace: &Trace, oh: &OverheadSpec) -> Option<String> {
    let suppressed = suppress_events(trace.events());
    match expand_events(&suppressed) {
        Ok(expanded) => {
            if expanded != trace.events() {
                let i = expanded
                    .iter()
                    .zip(trace.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(expanded.len().min(trace.len()));
                return Some(format!(
                    "suppression round-trip: event[{i}]: expanded {:?} vs measured {:?}",
                    expanded.get(i),
                    trace.events().get(i)
                ));
            }
        }
        Err(e) => return Some(format!("suppression round-trip: expansion failed: {e}")),
    }

    let suppressed_trace = Trace::from_events(TraceKind::Measured, suppressed);
    let direct = event_based(trace, oh);
    let via_suppressed = event_based(&suppressed_trace, oh);
    match (direct, via_suppressed) {
        (Ok(a), Ok(b)) => diff_results("direct", &a, "suppressed", &b)
            .map(|d| format!("suppressed-analysis: {d}")),
        (Err(_), Err(_)) => None,
        (a, b) => Some(format!(
            "suppressed-analysis accept/reject split: direct {}, suppressed {}",
            verdict(&a),
            verdict(&b)
        )),
    }
}

/// Runs the two paths on one measured trace; `Some(description)` of
/// the first difference if they disagree, `None` when they agree.
fn diff_paths(trace: &Trace, oh: &OverheadSpec) -> Option<String> {
    let streaming = event_based(trace, oh);
    let reference = event_based_reference(trace, oh);
    match (streaming, reference) {
        (Ok(s), Ok(r)) => diff_results("streaming", &s, "reference", &r),
        // Both failing is agreement: they reject the same input. The
        // *choice* of error is pinned by unit tests elsewhere; the
        // oracle only demands the accept/reject verdict match.
        (Err(_), Err(_)) => None,
        (s, r) => Some(format!(
            "accept/reject split: streaming {}, reference {}",
            verdict(&s),
            verdict(&r)
        )),
    }
}

fn verdict(r: &Result<EventBasedResult, ppa_core::AnalysisError>) -> &'static str {
    match r {
        Ok(_) => "accepted",
        Err(_) => "rejected",
    }
}

/// First field-level difference between two reports, if any.
fn diff_results(an: &str, a: &EventBasedResult, bn: &str, b: &EventBasedResult) -> Option<String> {
    if a == b {
        return None;
    }
    if a.trace.len() != b.trace.len() {
        return Some(format!(
            "trace length: {an} {} vs {bn} {}",
            a.trace.len(),
            b.trace.len()
        ));
    }
    for (i, (ea, eb)) in a.trace.iter().zip(b.trace.iter()).enumerate() {
        if ea != eb {
            return Some(format!("trace[{i}]: {an} {ea} vs {bn} {eb}"));
        }
    }
    if a.awaits != b.awaits {
        let i = a
            .awaits
            .iter()
            .zip(&b.awaits)
            .position(|(x, y)| x != y)
            .unwrap_or(a.awaits.len().min(b.awaits.len()));
        return Some(format!(
            "awaits[{i}]: {an} {:?} vs {bn} {:?}",
            a.awaits.get(i),
            b.awaits.get(i)
        ));
    }
    if a.barriers != b.barriers {
        let i = a
            .barriers
            .iter()
            .zip(&b.barriers)
            .position(|(x, y)| x != y)
            .unwrap_or(a.barriers.len().min(b.barriers.len()));
        return Some(format!(
            "barriers[{i}]: {an} {:?} vs {bn} {:?}",
            a.barriers.get(i),
            b.barriers.get(i)
        ));
    }
    let i = a
        .episodes
        .iter()
        .zip(&b.episodes)
        .position(|(x, y)| x != y)
        .unwrap_or(a.episodes.len().min(b.episodes.len()));
    Some(format!(
        "episodes[{i}]: {an} {:?} vs {bn} {:?}",
        a.episodes.get(i),
        b.episodes.get(i)
    ))
}

/// Deterministic delta-debugging (ddmin) shrink: the smallest event
/// subset (in measured order) on which the two paths still disagree.
///
/// Subsets keep their original timestamps and sequence numbers, so the
/// reduced trace stays totally ordered; dropping events may turn the
/// input invalid, but a unanimous rejection counts as agreement, so the
/// shrinker only keeps subsets that still *split* the implementations.
fn shrink(events: &[Event], oh: &OverheadSpec) -> Vec<Event> {
    let still_mismatches = |subset: &[Event]| {
        let t = Trace::from_events(TraceKind::Measured, subset.to_vec());
        diff_paths(&t, oh).is_some()
    };
    let mut current: Vec<Event> = events.to_vec();
    let mut chunks = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<Event> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !candidate.is_empty() && still_mismatches(&candidate) {
                current = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
        (
            prop_oneof![
                Just(ScenarioFamily::Spinlock),
                Just(ScenarioFamily::Semaphore),
                Just(ScenarioFamily::ForkJoin),
            ],
            2usize..6,
            1usize..8,
            1usize..4,
            0u64..3_000,
        )
            .prop_map(|(family, processors, rounds, objects, oh)| ScenarioConfig {
                family,
                processors,
                rounds,
                objects,
                overheads: OverheadSpec::uniform(ppa_trace::Span::from_nanos(oh)),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every generated lock/semaphore/fork-join scenario must (a)
        /// agree across the streaming and reference analyses —
        /// any split is ddmin-shrunk before failing, so the proptest
        /// report carries a minimal repro size — and (b) produce a
        /// report accepted by every conservation law, plus survive the
        /// codec and suppression round-trip legs.
        #[test]
        fn episode_scenarios_agree_and_conserve(
            seed in proptest::prelude::any::<u64>(),
            cfg in arb_scenario(),
            decode_workers in 0usize..5,
        ) {
            let trace = scenario_trace(seed, &cfg);
            let oh = cfg.overheads;
            if let Some(detail) = diff_paths(&trace, &oh) {
                let minimal = shrink(trace.events(), &oh);
                prop_assert!(
                    false,
                    "paths disagree: {detail}; ddmin minimal repro: {} of {} event(s)",
                    minimal.len(),
                    trace.len()
                );
            }
            prop_assert_eq!(diff_conservation(&trace, &oh), None);
            prop_assert_eq!(diff_codec(&trace, decode_workers), None);
            prop_assert_eq!(diff_suppression(&trace, &oh), None);
        }
    }
}
