//! # ppa-core — performance perturbation analysis
//!
//! The paper's contribution: recovering actual execution behavior from
//! perturbed (instrumented) event traces.
//!
//! - [`time_based`] — §3's model: subtract per-thread accumulated
//!   instrumentation overhead, assuming event independence. Exact for
//!   sequential executions; systematically wrong for dependent concurrent
//!   executions (Table 1's under-/over-approximations, which this
//!   reproduction recreates).
//! - [`event_based`] — §4's model: a constructive resolution of
//!   approximate event times that treats `advance`/`await` and barrier
//!   events by their synchronization semantics, *recomputing* waiting in
//!   approximated time while preserving the measured partial order — the
//!   paper's conservative approximation.
//! - [`liberal_reschedule`] — §4.1/4.2.3's liberal extension: re-simulate
//!   iteration dispatch with a declared scheduling policy, allowing work
//!   reassignment that conservative analysis must preserve.
//!
//! All analyses take the measured [`ppa_trace::Trace`] plus the
//! [`ppa_trace::OverheadSpec`] of empirically determined instrumentation
//! and synchronization costs, and produce an approximated trace (plus
//! waiting statistics for the event-based forms).

#![warn(missing_docs)]

mod accuracy;
mod advance_table;
mod checkpoint;
mod emit_lanes;
mod error;
mod estimate;
mod event_based;
mod expand;
mod floors;
mod liberal;
mod pipeline;
mod streaming;
mod time_based;

pub use accuracy::{compare_traces, AccuracyReport};
pub use checkpoint::{
    read_checkpoint, scan_checkpoint, Checkpoint, CheckpointDelta, CheckpointError,
    CheckpointParts, CheckpointScan, DeltaCheckpointWriter, SinkState, CHECKPOINT_MAGIC_V2,
    DEFAULT_CHECKPOINT_EVERY, DEFAULT_COMPACT_EVERY,
};
pub use error::AnalysisError;
pub use estimate::{estimate_overheads, KindEstimate, OverheadEstimate};
pub use event_based::{
    event_based, event_based_reference, AwaitOutcome, BarrierOutcome, EventBasedResult,
};
pub use expand::{expand_events, expand_trace, has_repeat_records, ExpandError, RepeatExpander};
pub use liberal::{liberal_reschedule, LiberalResult};
pub use pipeline::{
    CheckpointPolicy, Pipeline, PipelineConfig, PipelineError, ReportFilter, Step, Summary,
    RESIDENT_SAMPLE_EVERY,
};
pub use streaming::{
    AnalyzerDelta, AnalyzerProbes, AnalyzerSnapshot, EventBasedAnalyzer, SpillCounts, StreamOutput,
    StreamStats, StreamTail,
};
pub use time_based::{time_based, time_based_total, TimeBasedResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use ppa_program::synth::{synthesize, SynthConfig};
    use ppa_program::InstrumentationPlan;
    use ppa_sim::{run_actual, run_measured, SchedulePolicy, SimConfig};
    use ppa_trace::{pair_sync_events_strict, ClockRate, OverheadSpec, Span};
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The substrate's central theorem: for ANY synthesized workload
        /// (serial segments, sequential/DOALL/DOACROSS loops, one or two
        /// sync variables, jittered costs) under static dispatch,
        /// event-based analysis of the fully instrumented measured trace
        /// reconstructs the actual execution *exactly* — total time and
        /// every individual event.
        #[test]
        fn event_based_is_exact_on_arbitrary_workloads(seed in any::<u64>()) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed);
            let actual = run_actual(&program, &cfg).unwrap();
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

            prop_assert_eq!(approx.total_time(), actual.trace.total_time());

            let report = compare_traces(&actual.trace, &approx.trace, Span::ZERO);
            prop_assert!(report.matched > 0);
            prop_assert_eq!(
                report.max_abs_error,
                Span::ZERO,
                "per-event mismatch on seed {}: mean {}",
                seed,
                report.mean_abs_error
            );

            // The approximated trace is a feasible execution under the
            // strict (actual-trace) causality rules.
            prop_assert!(pair_sync_events_strict(&approx.trace).is_ok());
        }

        /// Time-based analysis never yields a longer total than the
        /// measurement it starts from, and is monotone in overheads.
        #[test]
        fn time_based_totals_are_monotone(seed in any::<u64>()) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed);
            let measured =
                run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();

            let full = time_based(&measured.trace, &cfg.overheads).total_time();
            let half = time_based(
                &measured.trace,
                &cfg.overheads.scale_instrumentation(0.5),
            )
            .total_time();
            let zero = time_based(&measured.trace, &OverheadSpec::ZERO).total_time();

            prop_assert!(full <= half, "more overhead removed must not lengthen the total");
            prop_assert!(half <= zero);
            prop_assert_eq!(zero, measured.trace.total_time());
        }

        /// Analysis is insensitive to the dispatch policy used by the
        /// execution as long as it is deterministic: the approximation
        /// always reproduces THAT execution's actual time.
        #[test]
        fn event_based_exact_under_every_policy(
            seed in any::<u64>(),
            policy in prop_oneof![
                Just(SchedulePolicy::StaticCyclic),
                Just(SchedulePolicy::StaticBlock),
            ],
        ) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed).with_schedule(policy);
            let actual = run_actual(&program, &cfg).unwrap();
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
            prop_assert_eq!(approx.total_time(), actual.trace.total_time());
        }

        /// The two formulations of event-based analysis — the streaming
        /// engine (behind `event_based`) and the batch worklist
        /// reference — agree event-for-event and outcome-for-outcome on
        /// arbitrary feasible traces.
        #[test]
        fn streaming_matches_the_reference(seed in any::<u64>()) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed);
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

            let reference = event_based_reference(&measured.trace, &cfg.overheads).unwrap();
            let streamed = event_based(&measured.trace, &cfg.overheads).unwrap();
            prop_assert_eq!(&streamed, &reference);
        }

        /// Checkpointing is transparent: snapshotting the streaming
        /// analyzer at ANY split point, serializing the image to JSON
        /// (as a checkpoint file would), and restoring it in a fresh
        /// analyzer continues to exactly the outputs, stats, and tail of
        /// the uninterrupted run.
        #[test]
        fn snapshot_restore_is_transparent_at_any_split(
            seed in any::<u64>(),
            split_seed in any::<u64>(),
        ) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed);
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            let events = measured.trace.events();

            let mut direct = EventBasedAnalyzer::new(&cfg.overheads);
            let mut direct_out = Vec::new();
            for e in events {
                direct.push(*e).unwrap();
                while let Some(o) = direct.next_output() {
                    direct_out.push(o);
                }
            }
            let direct_tail = direct.finish().unwrap();
            direct_out.extend(direct_tail.outputs.iter().copied());

            let split = (split_seed as usize) % (events.len() + 1);
            let mut first = EventBasedAnalyzer::new(&cfg.overheads);
            let mut resumed_out = Vec::new();
            for e in &events[..split] {
                first.push(*e).unwrap();
                while let Some(o) = first.next_output() {
                    resumed_out.push(o);
                }
            }
            let json = serde_json::to_string(&first.snapshot()).unwrap();
            let image: AnalyzerSnapshot = serde_json::from_str(&json).unwrap();
            let mut second = EventBasedAnalyzer::restore(&image);
            for e in &events[split..] {
                second.push(*e).unwrap();
                while let Some(o) = second.next_output() {
                    resumed_out.push(o);
                }
            }
            let resumed_tail = second.finish().unwrap();
            resumed_out.extend(resumed_tail.outputs.iter().copied());

            prop_assert_eq!(resumed_out, direct_out);
            prop_assert_eq!(resumed_tail.stats, direct_tail.stats);
        }

        /// Incremental checkpointing is transparent: for ANY workload,
        /// cadence, and compaction period, the state reassembled from
        /// the PPACKPT2 record chain after every cadence write is
        /// byte-identical (as serialized JSON) to the analyzer's full
        /// snapshot at that instant — and an analyzer restored from the
        /// chain finishes the stream exactly like the uninterrupted one.
        #[test]
        fn delta_checkpoint_chain_is_transparent(
            seed in any::<u64>(),
            cadence in 1usize..48,
            compact_every in 0usize..6,
        ) {
            let program = synthesize(seed, &SynthConfig::default());
            let cfg = static_config(seed);
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            let events = measured.trace.events();

            let dir = std::env::temp_dir()
                .join(format!("ppa-delta-prop-{seed:016x}-{cadence}-{compact_every}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("state.ckpt");
            let mut writer = DeltaCheckpointWriter::new(&path, compact_every);

            let mut analyzer = EventBasedAnalyzer::new(&cfg.overheads);
            let mut direct = EventBasedAnalyzer::new(&cfg.overheads);
            let mut last_good = None;
            for (i, e) in events.iter().enumerate() {
                analyzer.push(*e).unwrap();
                direct.push(*e).unwrap();
                while analyzer.next_output().is_some() {}
                while direct.next_output().is_some() {}
                if (i + 1) % cadence == 0 {
                    let parts = CheckpointParts {
                        positions_seen: (i + 1) as u64,
                        gaps: &[],
                        events_lost: 0,
                        reorder: None,
                        sink: SinkState::default(),
                    };
                    writer.checkpoint(&mut analyzer, parts).unwrap();
                    let back = read_checkpoint(&path).unwrap();
                    prop_assert_eq!(back.positions_seen, (i + 1) as u64);
                    prop_assert_eq!(
                        serde_json::to_string(&back.analyzer).unwrap(),
                        serde_json::to_string(&analyzer.snapshot()).unwrap(),
                        "reassembled snapshot diverges at event {}", i + 1
                    );
                    last_good = Some((read_checkpoint(&path).unwrap(), i + 1));
                }
            }
            // Resume from the last chain state and finish: identical
            // verdict to the analyzer that checkpointed (which itself
            // must not have been perturbed by delta snapshotting).
            if let Some((cp, from)) = last_good {
                let mut resumed = EventBasedAnalyzer::restore(&cp.analyzer);
                for e in &events[from..] {
                    resumed.push(*e).unwrap();
                    while resumed.next_output().is_some() {}
                }
                prop_assert_eq!(
                    resumed.finish().unwrap().stats,
                    direct.finish().unwrap().stats
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[cfg(test)]
mod integration {
    use super::*;
    use ppa_lfk::DoacrossParams;
    use ppa_program::InstrumentationPlan;
    use ppa_sim::{run_actual, run_measured, SchedulePolicy, SimConfig};
    use ppa_trace::{ClockRate, OverheadSpec, Span};

    fn experiment_config() -> SimConfig {
        SimConfig {
            processors: 8,
            clock: ClockRate::GHZ_1,
            overheads: OverheadSpec::alliant_default(),
            schedule: SchedulePolicy::StaticCyclic,
            dispatch_cycles: 50,
            jitter: None,
        }
    }

    /// With deterministic costs and static dispatch, event-based analysis
    /// reconstructs the actual total time *exactly* — the strongest
    /// correctness check the simulator substrate makes possible.
    #[test]
    fn event_based_is_exact_under_static_dispatch() {
        for id in [3u8, 4, 17] {
            let program = ppa_lfk::doacross_graph(id).unwrap();
            let cfg = experiment_config();
            let actual = run_actual(&program, &cfg).unwrap();
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
            let ratio = approx.total_time().ratio(actual.trace.total_time());
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "loop {id}: event-based ratio {ratio} should be exactly 1"
            );
        }
    }

    /// The same holds with workload jitter: jitter perturbs statement
    /// costs identically in both runs, and the analysis extracts the
    /// per-statement durations from the measured deltas.
    #[test]
    fn event_based_is_exact_with_jitter() {
        let program = ppa_lfk::doacross_graph(3).unwrap();
        let cfg = experiment_config().with_jitter(99, 150);
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
        let ratio = approx.total_time().ratio(actual.trace.total_time());
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
    }

    /// Self-scheduled dispatch lets instrumentation change the
    /// iteration-to-processor assignment; conservative event-based
    /// analysis preserves the measured assignment, so a small error
    /// appears — the paper's residual-error mechanism (§4.2.3).
    #[test]
    fn event_based_error_is_small_under_self_scheduling() {
        let program = ppa_lfk::doacross_graph(17).unwrap();
        let cfg = experiment_config()
            .with_schedule(SchedulePolicy::SelfScheduled)
            .with_jitter(7, 200);
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
        let ratio = approx.total_time().ratio(actual.trace.total_time());
        assert!(
            (ratio - 1.0).abs() < 0.10,
            "event-based should stay within 10% (paper: 3-6%), got {ratio}"
        );
    }

    /// Time-based analysis under-approximates loops 3/4 (instrumentation
    /// outside the unobservable critical section reduced blocking) and
    /// over-approximates loop 17 (instrumentation inside the critical
    /// section increased blocking) — Table 1's two failure directions.
    #[test]
    fn time_based_fails_in_the_papers_directions() {
        let cfg = experiment_config();
        let plan = InstrumentationPlan::full_statements();
        let mut ratios = Vec::new();
        for id in [3u8, 4, 17] {
            let program = ppa_lfk::doacross_graph(id).unwrap();
            let actual = run_actual(&program, &cfg).unwrap();
            let measured = run_measured(&program, &plan, &cfg).unwrap();
            let approx = time_based(&measured.trace, &cfg.overheads);
            ratios.push(approx.total_time().ratio(actual.trace.total_time()));
        }
        assert!(
            ratios[0] < 0.8,
            "loop 3 should under-approximate, got {}",
            ratios[0]
        );
        assert!(
            ratios[1] < 0.8,
            "loop 4 should under-approximate, got {}",
            ratios[1]
        );
        assert!(
            ratios[2] > 1.5,
            "loop 17 should over-approximate, got {}",
            ratios[2]
        );
    }

    /// Event-based analysis needs the sync events; on a statements-only
    /// measured trace the awaits are invisible and accuracy degrades to
    /// time-based behaviour — quantifying the paper's point that the
    /// *extra* instrumentation buys accuracy.
    #[test]
    fn sync_instrumentation_buys_accuracy() {
        let cfg = experiment_config();
        let program = ppa_lfk::doacross_graph(3).unwrap();
        let actual = run_actual(&program, &cfg).unwrap().trace.total_time();

        let with_sync =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let event_ratio = event_based(&with_sync.trace, &cfg.overheads)
            .unwrap()
            .total_time()
            .ratio(actual);

        let stmts_only =
            run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();
        let time_ratio = time_based(&stmts_only.trace, &cfg.overheads)
            .total_time()
            .ratio(actual);

        assert!(
            (event_ratio - 1.0).abs() < (time_ratio - 1.0).abs(),
            "event-based ({event_ratio}) should beat time-based ({time_ratio})"
        );
    }

    /// The measured slowdown is higher with sync instrumentation than
    /// without (Table 2 vs Table 1 measured columns).
    #[test]
    fn sync_instrumentation_costs_more() {
        let cfg = experiment_config();
        for id in [3u8, 4, 17] {
            let program = ppa_lfk::doacross_graph(id).unwrap();
            let t1 = run_measured(&program, &InstrumentationPlan::full_statements(), &cfg)
                .unwrap()
                .trace
                .total_time();
            let t2 = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
                .unwrap()
                .trace
                .total_time();
            assert!(t2 > t1, "loop {id}: sync instrumentation should cost more");
        }
    }

    /// Time-based analysis is exact on sequential traces (the Figure 1
    /// regime).
    #[test]
    fn time_based_exact_on_sequential() {
        let cfg = SimConfig {
            processors: 1,
            ..experiment_config()
        };
        for id in [1u8, 7, 19, 22] {
            let program = ppa_lfk::sequential_graph(id).unwrap();
            let actual = run_actual(&program, &cfg).unwrap();
            let measured =
                run_measured(&program, &InstrumentationPlan::full_statements(), &cfg).unwrap();
            let approx = time_based(&measured.trace, &cfg.overheads);
            let ratio = approx.total_time().ratio(actual.trace.total_time());
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "loop {id}: sequential time-based should be exact, got {ratio}"
            );
            // And the measured slowdown should be substantial.
            let slowdown = measured.trace.total_time().ratio(actual.trace.total_time());
            assert!(
                slowdown > 2.0,
                "loop {id}: expected real intrusion, got {slowdown}"
            );
        }
    }

    /// The streaming engine produces a byte-identical approximated JSONL
    /// trace to the batch reference on the paper's Livermore loops, while
    /// carrying resident state far smaller than the trace — frontier
    /// state plus open sync episodes, not `O(trace length)`.
    #[test]
    fn streaming_is_byte_identical_and_bounded_on_livermore_loops() {
        for id in [3u8, 4, 17] {
            let program = ppa_lfk::doacross_graph(id).unwrap();
            let cfg = experiment_config();
            let measured =
                run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();

            let reference = event_based_reference(&measured.trace, &cfg.overheads).unwrap();
            let mut batch_jsonl = Vec::new();
            ppa_trace::write_trace(
                &reference.trace,
                &mut batch_jsonl,
                ppa_trace::TraceFormat::Jsonl,
            )
            .unwrap();

            // Stream the measured events through the incremental engine,
            // writing approximated events as they are emitted.
            let mut analyzer = EventBasedAnalyzer::new(&cfg.overheads);
            let mut writer = ppa_trace::AnyTraceWriter::new(
                Vec::new(),
                ppa_trace::TraceFormat::Jsonl,
                ppa_trace::TraceKind::Approximated,
                measured.trace.len(),
            )
            .unwrap();
            let emit = |o: StreamOutput, w: &mut ppa_trace::AnyTraceWriter<Vec<u8>>| {
                if let StreamOutput::Event(e) = o {
                    w.write_event(&e).unwrap();
                }
            };
            for e in measured.trace.iter() {
                analyzer.push(*e).unwrap();
                while let Some(o) = analyzer.next_output() {
                    emit(o, &mut writer);
                }
            }
            let tail = analyzer.finish().unwrap();
            for o in tail.outputs {
                emit(o, &mut writer);
            }
            let stream_jsonl = writer.finish().unwrap();

            assert_eq!(
                stream_jsonl, batch_jsonl,
                "loop {id}: streaming JSONL differs from batch"
            );

            // Bounded state: far below the trace length. The bound is
            // O(processors + open sync episodes); on these 8-processor
            // DOACROSS loops the resident peak sits well under a tenth
            // of the trace.
            let n = measured.trace.len();
            assert!(
                tail.stats.peak_resident < n / 10,
                "loop {id}: peak resident {} vs {} events",
                tail.stats.peak_resident,
                n
            );
        }
    }

    /// Approximated waiting from event-based analysis matches the ground
    /// truth simulator statistics under static dispatch.
    #[test]
    fn approximated_waiting_matches_ground_truth() {
        let program = ppa_lfk::doacross_graph_with("w", &DoacrossParams::lfk17()).unwrap();
        let cfg = experiment_config().with_jitter(3, 150);
        let actual = run_actual(&program, &cfg).unwrap();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
        let approx = event_based(&measured.trace, &cfg.overheads).unwrap();

        let truth = &actual.stats.loops[0];
        for (p, ps) in truth.per_proc.iter().enumerate() {
            let approx_wait = approx.sync_wait(ppa_trace::ProcessorId(p as u16));
            let diff = approx_wait.as_nanos().abs_diff(ps.sync_wait.as_nanos());
            assert!(
                diff <= ps.sync_wait.as_nanos() / 10 + Span::from_nanos(1_000).as_nanos(),
                "proc {p}: approx wait {} vs actual {}",
                approx_wait,
                ps.sync_wait
            );
        }
    }
}
