//! # ppa-sim — deterministic multiprocessor simulator
//!
//! A discrete-event simulation of the paper's testbed: an Alliant
//! FX/80-style shared-memory multiprocessor executing statement-graph
//! programs (`ppa-program`) with DOACROSS concurrency, advance/await
//! synchronization, and loop-end barriers.
//!
//! The simulator is the reproduction's replacement for the real machine,
//! and it buys something the paper could not have: [`run_actual`] executes
//! a program **without** instrumentation and still emits every event, so
//! the ground-truth trace and statistics are exactly known; [`run_measured`]
//! executes the *same* program under an instrumentation plan, charging the
//! configured recording overheads, which perturbs timings, blocking, and —
//! for self-scheduled loops — even the iteration-to-processor assignment.
//! Comparing a perturbation analysis of the measured trace against the
//! actual trace is then exact rather than itself a measurement.
//!
//! Everything is deterministic: simulation is single-threaded, ties break
//! on `(time, processor, seq)`, and workload jitter is a pure function of
//! `(seed, loop, iteration, statement)`.

#![warn(missing_docs)]

mod config;
mod engine;
pub mod eventq;
mod jitter;
mod scenario;
mod stats;

pub use config::{JitterConfig, SchedulePolicy, SimConfig};
pub use engine::{run_actual, run_actual_probed, run_measured, EngineProbes, SimError, SimResult};
pub use eventq::{run_actual_eventq, run_actual_eventq_probed, run_measured_eventq};
pub use jitter::jittered_cost;
pub use scenario::{scenario_trace, ScenarioConfig, ScenarioFamily};
pub use stats::{LoopStats, ProcStats, SimStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use ppa_program::{InstrumentationPlan, Program, ProgramBuilder};
    use ppa_trace::{pair_sync_events, ClockRate, OverheadSpec, Span};
    use proptest::prelude::*;

    fn arb_workload() -> impl Strategy<Value = Program> {
        (1u64..3, 1u64..40, 0u64..200, 0u64..80, 0u64..200).prop_map(|(d, n, head, cs, tail)| {
            let mut b = ProgramBuilder::new("prop");
            let v = b.sync_var();
            b.doacross(d, n, |body| {
                body.compute("head", head)
                    .await_var(v, -(d as i64))
                    .compute("cs", cs)
                    .advance(v)
                    .compute("tail", tail)
            })
            .build()
            .unwrap()
        })
    }

    fn arb_config() -> impl Strategy<Value = SimConfig> {
        (
            1usize..9,
            0u64..5_000,
            prop_oneof![
                Just(SchedulePolicy::StaticCyclic),
                Just(SchedulePolicy::StaticBlock),
                Just(SchedulePolicy::SelfScheduled),
            ],
        )
            .prop_map(|(p, oh, schedule)| SimConfig {
                processors: p,
                clock: ClockRate::GHZ_1,
                overheads: OverheadSpec::uniform(Span::from_nanos(oh)),
                schedule,
                dispatch_cycles: 2,
                jitter: None,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both run modes always produce totally ordered, sync-valid
        /// traces on arbitrary DOACROSS workloads.
        #[test]
        fn traces_are_always_feasible(p in arb_workload(), cfg in arb_config()) {
            let a = run_actual(&p, &cfg).unwrap();
            prop_assert!(a.trace.is_totally_ordered());
            prop_assert!(pair_sync_events(&a.trace).is_ok());

            let m = run_measured(&p, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            prop_assert!(m.trace.is_totally_ordered());
            prop_assert!(pair_sync_events(&m.trace).is_ok());
        }

        /// Instrumentation never speeds a run up, and with zero overheads
        /// measured time equals actual time.
        #[test]
        fn measured_never_faster(p in arb_workload(), cfg in arb_config()) {
            let a = run_actual(&p, &cfg).unwrap();
            let m = run_measured(&p, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
            prop_assert!(m.trace.total_time() >= a.trace.total_time());

            let zero = SimConfig { overheads: OverheadSpec::ZERO, ..cfg };
            let a0 = run_actual(&p, &zero).unwrap();
            let m0 = run_measured(&p, &InstrumentationPlan::full_with_sync(), &zero).unwrap();
            prop_assert_eq!(a0.trace.total_time(), m0.trace.total_time());
        }

        /// Every iteration is assigned exactly once, to a real processor.
        #[test]
        fn assignment_is_complete(p in arb_workload(), cfg in arb_config()) {
            let r = run_actual(&p, &cfg).unwrap();
            let l = p.loops().next().unwrap();
            let stats = &r.stats.loops[0];
            prop_assert_eq!(stats.assignment.len() as u64, l.trip_count);
            prop_assert!(stats.assignment.iter().all(|q| (q.0 as usize) < cfg.processors));
            let per_proc_total: u64 = stats.per_proc.iter().map(|ps| ps.iterations).sum();
            prop_assert_eq!(per_proc_total, l.trip_count);
        }

        /// The two simulation engines (iteration-ordered and event-queue)
        /// produce identical event sets on arbitrary synthesized
        /// workloads, instrumented or not — the substrate's
        /// cross-validation theorem.
        #[test]
        fn engines_cross_validate(seed in proptest::prelude::any::<u64>(), cfg in arb_config()) {
            let program = ppa_program::synth::synthesize(
                seed,
                &ppa_program::synth::SynthConfig::default(),
            );
            let signature = |r: &SimResult| {
                let mut v: Vec<_> =
                    r.trace.iter().map(|e| (e.time, e.proc, e.kind)).collect();
                v.sort();
                v
            };

            let a1 = run_actual(&program, &cfg).unwrap();
            let a2 = eventq::run_actual_eventq(&program, &cfg).unwrap();
            prop_assert_eq!(signature(&a1), signature(&a2));

            let plan = InstrumentationPlan::full_with_sync();
            let m1 = run_measured(&program, &plan, &cfg).unwrap();
            let m2 = eventq::run_measured_eventq(&program, &plan, &cfg).unwrap();
            prop_assert_eq!(signature(&m1), signature(&m2));
            prop_assert_eq!(m1.stats.instr_overhead, m2.stats.instr_overhead);
        }

        /// The dependence chain is respected in the actual trace: the
        /// advance for tag t always precedes the awaitE for tag t.
        #[test]
        fn dependences_hold(p in arb_workload(), cfg in arb_config()) {
            let r = run_actual(&p, &cfg).unwrap();
            let idx = pair_sync_events(&r.trace).unwrap();
            for pair in &idx.awaits {
                if let Some(adv) = pair.advance {
                    let events = r.trace.events();
                    prop_assert!(events[adv].time <= events[pair.end].time);
                }
            }
        }
    }
}
