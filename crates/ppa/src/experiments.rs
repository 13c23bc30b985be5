//! Experiment drivers — one function per paper artifact.
//!
//! Each driver runs the full pipeline on the simulator substrate:
//! simulate *actual* (uninstrumented), simulate *measured* (instrumented),
//! apply perturbation analysis to the measured trace, and report ratios
//! against the actual run. The CLI and the integration tests call
//! these; the examples and `pipeline_bench` take their machine from
//! [`experiment_config`].
//!
//! The default experiment machine is 8 processors at a 1 GHz simulator
//! clock (statement costs are in nanoseconds), self-scheduled DOACROSS
//! dispatch, ±15 % workload jitter, and the calibrated Alliant overhead
//! set — see DESIGN.md §5 for why each choice reproduces the paper's
//! regime.

use ppa_core::{event_based, liberal_reschedule, time_based, EventBasedResult};
use ppa_lfk::{doacross_kernels, fig1_kernels, DoacrossParams};
use ppa_metrics::{
    build_timeline, parallelism_profile, waiting_table, ParallelismProfile, RatioRow, Timeline,
    WaitingTable,
};
use ppa_program::InstrumentationPlan;
use ppa_sim::{run_actual, run_measured, SchedulePolicy, SimConfig};
use ppa_trace::{ClockRate, EventKind, OverheadSpec, Span, Time};

/// The deterministic seed every experiment uses.
pub const EXPERIMENT_SEED: u64 = 1991;

/// The reference experiment configuration (8 processors, self-scheduled
/// dispatch, ±15 % jitter).
pub fn experiment_config() -> SimConfig {
    SimConfig {
        processors: 8,
        clock: ClockRate::GHZ_1,
        overheads: OverheadSpec::alliant_default(),
        schedule: SchedulePolicy::SelfScheduled,
        dispatch_cycles: 50,
        jitter: None,
    }
    .with_jitter(EXPERIMENT_SEED, 150)
}

/// Single-processor variant for the sequential (Figure 1) experiment.
pub fn sequential_config() -> SimConfig {
    SimConfig {
        processors: 1,
        ..experiment_config()
    }
}

/// One Figure-1 bar pair.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig1Row {
    /// Kernel number.
    pub kernel: u8,
    /// Reproduced measured/actual.
    pub measured_ratio: f64,
    /// Reproduced time-based approximated/actual.
    pub approx_ratio: f64,
    /// The paper's measured/actual bar.
    pub paper_measured: Option<f64>,
}

/// Figure 1: sequential loop execution, full statement instrumentation,
/// time-based analysis.
pub fn fig1() -> Vec<Fig1Row> {
    let cfg = sequential_config();
    let plan = InstrumentationPlan::full_statements();
    fig1_kernels()
        .map(|meta| {
            let program = ppa_lfk::sequential_graph(meta.id).expect("fig1 kernel has a graph");
            let actual = run_actual(&program, &cfg).expect("valid program");
            let measured = run_measured(&program, &plan, &cfg).expect("valid program");
            let approx = time_based(&measured.trace, &cfg.overheads);
            Fig1Row {
                kernel: meta.id,
                measured_ratio: measured.trace.total_time().ratio(actual.trace.total_time()),
                approx_ratio: approx.total_time().ratio(actual.trace.total_time()),
                paper_measured: meta.fig1_measured_ratio,
            }
        })
        .collect()
}

/// Table 1: concurrent loops 3/4/17 under statement-only instrumentation,
/// analyzed with the (inadequate) time-based model.
pub fn table1() -> Vec<RatioRow> {
    let cfg = experiment_config();
    let plan = InstrumentationPlan::full_statements();
    doacross_kernels()
        .map(|meta| {
            let program = ppa_lfk::doacross_graph(meta.id).expect("doacross kernel has a graph");
            let actual = run_actual(&program, &cfg).expect("valid program");
            let measured = run_measured(&program, &plan, &cfg).expect("valid program");
            let approx = time_based(&measured.trace, &cfg.overheads);
            RatioRow::from_times(
                format!("lfk{:02}", meta.id),
                actual.trace.total_time(),
                measured.trace.total_time(),
                approx.total_time(),
            )
            .with_paper(meta.table1_measured, meta.table1_approx)
        })
        .collect()
}

/// Table 2: the same loops under statement+synchronization
/// instrumentation, analyzed with the event-based model.
pub fn table2() -> Vec<RatioRow> {
    let cfg = experiment_config();
    let plan = InstrumentationPlan::full_with_sync();
    doacross_kernels()
        .map(|meta| {
            let program = ppa_lfk::doacross_graph(meta.id).expect("doacross kernel has a graph");
            let actual = run_actual(&program, &cfg).expect("valid program");
            let measured = run_measured(&program, &plan, &cfg).expect("valid program");
            let approx =
                event_based(&measured.trace, &cfg.overheads).expect("measured trace is feasible");
            RatioRow::from_times(
                format!("lfk{:02}", meta.id),
                actual.trace.total_time(),
                measured.trace.total_time(),
                approx.total_time(),
            )
            .with_paper(meta.table2_measured, meta.table2_approx)
        })
        .collect()
}

/// Everything §5.3 derives from loop 17's approximated execution:
/// Table 3's waiting percentages, Figure 4's timeline, Figure 5's
/// parallelism profile.
#[derive(Debug, Clone)]
pub struct Loop17Analysis {
    /// The event-based analysis result.
    pub result: EventBasedResult,
    /// Table 3: per-processor waiting percentages.
    pub waiting: WaitingTable,
    /// Figure 4: the per-processor timeline.
    pub timeline: Timeline,
    /// Figure 5: parallelism over time.
    pub profile: ParallelismProfile,
    /// The parallel-loop window (approximated loop begin/end), used to
    /// exclude the serial portions from the average.
    pub loop_window: (Time, Time),
    /// Average parallelism over the loop window (paper: 7.5).
    pub avg_parallelism: f64,
    /// Ground-truth per-processor waiting percentages from the actual run
    /// (what the paper could not observe).
    pub ground_truth_pct: Vec<f64>,
}

/// Runs the loop-17 pipeline behind Table 3 and Figures 4–5.
pub fn loop17_analysis() -> Loop17Analysis {
    let cfg = experiment_config();
    let program = ppa_lfk::doacross_graph(17).expect("loop 17 graph");
    let actual = run_actual(&program, &cfg).expect("valid program");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("valid program");
    let result = event_based(&measured.trace, &cfg.overheads).expect("feasible trace");

    let waiting = waiting_table(&result, cfg.processors);
    let timeline = build_timeline(&result, cfg.processors);
    let profile = parallelism_profile(&timeline);

    let loop_begin = result
        .trace
        .iter()
        .find(|e| matches!(e.kind, EventKind::LoopBegin { .. }))
        .map(|e| e.time)
        .unwrap_or(Time::ZERO);
    let loop_end = result
        .trace
        .events()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, EventKind::LoopEnd { .. }))
        .map(|e| e.time)
        .unwrap_or_else(|| result.trace.end_time().unwrap_or(Time::ZERO));
    let avg_parallelism = profile.average(loop_begin, loop_end);

    let truth = &actual.stats.loops[0];
    let total = actual.trace.total_time();
    let ground_truth_pct = truth
        .per_proc
        .iter()
        .map(|ps| {
            if total.is_zero() {
                0.0
            } else {
                100.0 * ps.sync_wait.ratio(total)
            }
        })
        .collect();

    Loop17Analysis {
        result,
        waiting,
        timeline,
        profile,
        loop_window: (loop_begin, loop_end),
        avg_parallelism,
        ground_truth_pct,
    }
}

/// One point of the overhead-sensitivity ablation: the analysis is given a
/// *mis-specified* overhead spec (scaled by `factor`) while the
/// measurement used the true one.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadSweepPoint {
    /// The misestimation factor applied to the analyst's overhead spec.
    pub factor: f64,
    /// Event-based approximated/actual under the misestimated spec.
    pub approx_ratio: f64,
}

/// Ablation A2: approximation accuracy vs. overhead misestimation, for one
/// DOACROSS kernel.
pub fn ablation_overhead_sweep(kernel: u8, factors: &[f64]) -> Vec<OverheadSweepPoint> {
    let cfg = experiment_config();
    let program = ppa_lfk::doacross_graph(kernel).expect("doacross kernel");
    let actual = run_actual(&program, &cfg)
        .expect("valid")
        .trace
        .total_time();
    let measured =
        run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
    factors
        .iter()
        .map(|&factor| {
            let spec = cfg.overheads.scale_instrumentation(factor);
            let approx = event_based(&measured.trace, &spec).expect("feasible");
            OverheadSweepPoint {
                factor,
                approx_ratio: approx.total_time().ratio(actual),
            }
        })
        .collect()
}

/// One row of the scheduling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAblationRow {
    /// Dispatch policy the *execution* used.
    pub policy: SchedulePolicy,
    /// Conservative event-based approximated/actual.
    pub conservative_ratio: f64,
    /// Liberal (rescheduling) approximated/actual, analyzed with the
    /// *correct* policy.
    pub liberal_ratio: f64,
    /// Liberal approximated/actual when the analyst assumes the *wrong*
    /// dispatch policy (A3: scheduling-policy mismatch).
    pub liberal_wrong_policy_ratio: f64,
    /// The wrong policy used for the mismatch column.
    pub wrong_policy: SchedulePolicy,
    /// Fraction of iterations whose measured-run processor differs from
    /// the actual run's (the work reassignment conservative analysis
    /// cannot see).
    pub assignment_divergence: f64,
}

/// Ablation A1/A3: conservative vs. liberal analysis across dispatch
/// policies, for one DOACROSS kernel.
///
/// Runs with strong (±40 %) workload jitter so that dynamic dispatch
/// decisions actually differ between the instrumented and uninstrumented
/// executions.
pub fn ablation_schedule(kernel: u8) -> Vec<ScheduleAblationRow> {
    let params = DoacrossParams::for_kernel(kernel).expect("doacross kernel");
    let tail: u64 = params.tail.iter().sum();
    let head: u64 = params.head.iter().sum();
    let tail_fraction = tail as f64 / (tail + head + 50).max(1) as f64;

    [
        SchedulePolicy::StaticCyclic,
        SchedulePolicy::StaticBlock,
        SchedulePolicy::SelfScheduled,
    ]
    .into_iter()
    .map(|policy| {
        let cfg = experiment_config()
            .with_schedule(policy)
            .with_jitter(EXPERIMENT_SEED, 400);
        let program = ppa_lfk::doacross_graph(kernel).expect("doacross kernel");
        let actual = run_actual(&program, &cfg).expect("valid");
        let actual_total = actual.trace.total_time();
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
        let conservative = event_based(&measured.trace, &cfg.overheads)
            .expect("feasible")
            .total_time();
        let liberal = |p: SchedulePolicy| {
            liberal_reschedule(
                &measured.trace,
                &cfg.overheads,
                cfg.processors,
                p,
                tail_fraction,
            )
            .expect("structured trace")
            .total
        };
        let wrong_policy = match policy {
            SchedulePolicy::StaticCyclic => SchedulePolicy::StaticBlock,
            _ => SchedulePolicy::StaticCyclic,
        };

        let divergence = {
            let a = &actual.stats.loops[0].assignment;
            let m = &measured.stats.loops[0].assignment;
            let differing = a.iter().zip(m).filter(|(x, y)| x != y).count();
            differing as f64 / a.len().max(1) as f64
        };

        ScheduleAblationRow {
            policy,
            conservative_ratio: conservative.ratio(actual_total),
            liberal_ratio: liberal(policy).ratio(actual_total),
            liberal_wrong_policy_ratio: liberal(wrong_policy).ratio(actual_total),
            wrong_policy,
            assignment_divergence: divergence,
        }
    })
    .collect()
}

/// One row of the all-kernel intrusion survey.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct IntrusionRow {
    /// Kernel number.
    pub kernel: u8,
    /// Kernel name.
    pub name: &'static str,
    /// Execution classification.
    pub class: ppa_lfk::KernelClass,
    /// Events recorded under full statement instrumentation.
    pub events: usize,
    /// Measured/actual slowdown.
    pub slowdown: f64,
    /// Best-model approximated/actual (event-based where sync events
    /// exist, time-based otherwise).
    pub approx_ratio: f64,
}

/// Extension: the Figure-1 experiment widened to all 24 Livermore kernels
/// (the paper ran all of them; the figure shows a subset). DOACROSS
/// kernels are measured under sync instrumentation and analyzed
/// event-based; everything else statement-only and time-based.
pub fn all_kernel_intrusion() -> Vec<IntrusionRow> {
    (1u8..=24)
        .map(|id| {
            let meta = ppa_lfk::kernel_meta(id).expect("1..=24");
            let program = ppa_lfk::generic_graph(id).expect("all kernels have graphs");
            let cfg = if program.has_concurrency() {
                experiment_config()
            } else {
                sequential_config()
            };
            let actual = run_actual(&program, &cfg).expect("valid");
            // Kernels with synchronization structure (DOACROSS chains or
            // DOALL barriers) need the event-based model; purely
            // sequential/vector kernels are the time-based regime.
            let concurrent = matches!(
                meta.class,
                ppa_lfk::KernelClass::Doacross | ppa_lfk::KernelClass::Parallel
            );
            let (plan, use_event_based) = if concurrent {
                (InstrumentationPlan::full_with_sync(), true)
            } else {
                (InstrumentationPlan::full_statements(), false)
            };
            let measured = run_measured(&program, &plan, &cfg).expect("valid");
            let approx = if use_event_based {
                event_based(&measured.trace, &cfg.overheads)
                    .expect("feasible")
                    .total_time()
            } else {
                time_based(&measured.trace, &cfg.overheads).total_time()
            };
            IntrusionRow {
                kernel: id,
                name: meta.name,
                class: meta.class,
                events: measured.trace.len(),
                slowdown: measured.trace.total_time().ratio(actual.trace.total_time()),
                approx_ratio: approx.ratio(actual.trace.total_time()),
            }
        })
        .collect()
}

/// Per-event accuracy of each model on one DOACROSS kernel (the paper's
/// §3 remark that individual event timings were as accurate as totals,
/// made measurable).
#[derive(Debug, Clone, PartialEq)]
pub struct PerEventAccuracy {
    /// Kernel number.
    pub kernel: u8,
    /// Per-event report for the raw measured trace against actual.
    pub measured: ppa_core::AccuracyReport,
    /// Per-event report for the time-based approximation.
    pub time_based: ppa_core::AccuracyReport,
    /// Per-event report for the event-based approximation.
    pub event_based: ppa_core::AccuracyReport,
}

/// Computes per-event accuracy for a DOACROSS kernel under sync
/// instrumentation, with a 1 µs tolerance band.
pub fn per_event_accuracy(kernel: u8) -> PerEventAccuracy {
    let cfg = experiment_config();
    let program = ppa_lfk::doacross_graph(kernel).expect("doacross kernel");
    let actual = run_actual(&program, &cfg).expect("valid");
    let measured =
        run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
    let tolerance = Span::from_micros(1);

    let tb = time_based(&measured.trace, &cfg.overheads);
    let eb = event_based(&measured.trace, &cfg.overheads).expect("feasible");

    PerEventAccuracy {
        kernel,
        measured: ppa_core::compare_traces(&actual.trace, &measured.trace, tolerance),
        time_based: ppa_core::compare_traces(&actual.trace, &tb.trace, tolerance),
        event_based: ppa_core::compare_traces(&actual.trace, &eb.trace, tolerance),
    }
}

/// One row of the execution-mode study (paper §3 measured scalar, vector,
/// and concurrent executions).
#[derive(Debug, Clone, PartialEq)]
pub struct ModeRow {
    /// Kernel number.
    pub kernel: u8,
    /// Mode label (`"scalar"` / `"vector"`).
    pub mode: &'static str,
    /// Actual total execution time.
    pub actual: Span,
    /// Measured/actual under full statement tracing.
    pub slowdown: f64,
    /// Time-based approximated/actual.
    pub approx_ratio: f64,
}

/// Scalar-vs-vector mode study for the vectorizable Figure-1 kernels:
/// the vector twin runs ~4x faster, the *relative* intrusion grows
/// accordingly (tracing cost is per event, compute shrinks), and
/// time-based analysis stays exact in both modes — the paper's §3
/// observation that sequential and vector approximations were "extremely
/// accurate".
pub fn mode_comparison() -> Vec<ModeRow> {
    let cfg = sequential_config();
    let plan = InstrumentationPlan::full_statements();
    let mut rows = Vec::new();
    for meta in fig1_kernels() {
        let Some(vector) = ppa_lfk::vector_twin(meta.id) else {
            continue;
        };
        let scalar = ppa_lfk::sequential_graph(meta.id).expect("fig1 kernel");
        for (mode, program) in [("scalar", scalar), ("vector", vector)] {
            let actual = run_actual(&program, &cfg).expect("valid");
            let measured = run_measured(&program, &plan, &cfg).expect("valid");
            let approx = time_based(&measured.trace, &cfg.overheads);
            rows.push(ModeRow {
                kernel: meta.id,
                mode,
                actual: actual.trace.total_time(),
                slowdown: measured.trace.total_time().ratio(actual.trace.total_time()),
                approx_ratio: approx.total_time().ratio(actual.trace.total_time()),
            });
        }
    }
    rows
}

/// Order-perturbation study for one DOACROSS kernel: how much the
/// instrumentation reorders events, and how much of that the event-based
/// approximation repairs.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderStudy {
    /// Kernel number.
    pub kernel: u8,
    /// Actual → measured order perturbation.
    pub measured: ppa_metrics::OrderPerturbation,
    /// Actual → approximated order perturbation.
    pub approximated: ppa_metrics::OrderPerturbation,
}

/// Runs the order-perturbation study (§2's "possibly, event order").
pub fn order_study(kernel: u8) -> OrderStudy {
    let cfg = experiment_config();
    let program = ppa_lfk::doacross_graph(kernel).expect("doacross kernel");
    let actual = run_actual(&program, &cfg).expect("valid");
    let measured =
        run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
    let approx = event_based(&measured.trace, &cfg.overheads).expect("feasible");
    OrderStudy {
        kernel,
        measured: ppa_metrics::order_perturbation(&actual.trace, &measured.trace),
        approximated: ppa_metrics::order_perturbation(&actual.trace, &approx.trace),
    }
}

/// One row of the trace-buffer exhaustion study.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BufferStudyRow {
    /// Per-processor buffer capacity (events).
    pub capacity: usize,
    /// Events dropped across all processors.
    pub dropped: u64,
    /// Whether the surviving trace still validates for event-based
    /// analysis.
    pub analyzable: bool,
    /// Approximated/actual when analyzable.
    pub approx_ratio: Option<f64>,
}

/// Extension: what finite trace memory does to the analysis. Each
/// processor records through a bounded buffer (keep-oldest policy, as a
/// fixed trace memory behaves). Two failure shapes appear: a cut that
/// severs synchronization pairs makes the trace invalid (the analysis
/// fails loudly), while a *clean prefix* cut — every kept await still has
/// its partner — yields a trace that validates and analyzes but covers
/// only the measured prefix, so the "approximated total" silently shrinks
/// toward the prefix length. The drop count in each row is the signal an
/// experimenter must check; the paper's volume/accuracy tension in one
/// more guise.
pub fn buffer_study(kernel: u8, capacities: &[usize]) -> Vec<BufferStudyRow> {
    use ppa_trace::{apply_buffers, OverflowPolicy, Trace, TraceKind};
    let cfg = experiment_config();
    let program = ppa_lfk::doacross_graph(kernel).expect("doacross kernel");
    let actual = run_actual(&program, &cfg)
        .expect("valid")
        .trace
        .total_time();
    let measured =
        run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
    capacities
        .iter()
        .map(|&capacity| {
            let (events, dropped) =
                apply_buffers(&measured.trace, capacity, OverflowPolicy::DropNewest);
            let truncated = Trace::from_events(TraceKind::Measured, events);
            match event_based(&truncated, &cfg.overheads) {
                Ok(a) if dropped == 0 => BufferStudyRow {
                    capacity,
                    dropped,
                    analyzable: true,
                    approx_ratio: Some(a.total_time().ratio(actual)),
                },
                Ok(a) => BufferStudyRow {
                    // Survived truncation (drops happened after the last
                    // synchronization event).
                    capacity,
                    dropped,
                    analyzable: true,
                    approx_ratio: Some(a.total_time().ratio(actual)),
                },
                Err(_) => BufferStudyRow {
                    capacity,
                    dropped,
                    analyzable: false,
                    approx_ratio: None,
                },
            }
        })
        .collect()
}

/// The complete campaign: every reproduced artifact in one serializable
/// report (written by `ppa campaign` for downstream tooling).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Campaign {
    /// Deterministic seed the experiments used.
    pub seed: u64,
    /// Figure 1 rows.
    pub fig1: Vec<Fig1Row>,
    /// Table 1 rows.
    pub table1: Vec<ppa_metrics::RatioRow>,
    /// Table 2 rows.
    pub table2: Vec<ppa_metrics::RatioRow>,
    /// Table 3 waiting table (loop 17).
    pub table3: WaitingTable,
    /// Figure 5's average parallelism over the loop window.
    pub avg_parallelism: f64,
    /// All-kernel intrusion survey.
    pub intrusion: Vec<IntrusionRow>,
    /// Buffer-exhaustion study for loop 3.
    pub buffers: Vec<BufferStudyRow>,
}

/// Runs every experiment and bundles the results.
pub fn run_campaign() -> Campaign {
    let l17 = loop17_analysis();
    Campaign {
        seed: EXPERIMENT_SEED,
        fig1: fig1(),
        table1: table1(),
        table2: table2(),
        table3: l17.waiting,
        avg_parallelism: l17.avg_parallelism,
        intrusion: all_kernel_intrusion(),
        buffers: buffer_study(3, &[64, 256, 1024, 4096]),
    }
}

/// Intrusion accounting for one kernel under a plan: events recorded and
/// total overhead charged.
#[derive(Debug, Clone, PartialEq)]
pub struct IntrusionReport {
    /// Events in the measured trace.
    pub events: usize,
    /// Total instrumentation overhead charged.
    pub overhead: Span,
    /// Measured/actual slowdown.
    pub slowdown: f64,
}

/// Measures intrusion for a kernel under a plan (used by the volume vs.
/// accuracy discussion in EXPERIMENTS.md).
pub fn intrusion(kernel: u8, plan: &InstrumentationPlan) -> IntrusionReport {
    let cfg = experiment_config();
    let program = ppa_lfk::graph(kernel).expect("kernel has a graph");
    let cfg = if program.has_concurrency() {
        cfg
    } else {
        sequential_config()
    };
    let actual = run_actual(&program, &cfg).expect("valid");
    let measured = run_measured(&program, plan, &cfg).expect("valid");
    IntrusionReport {
        events: measured.trace.len(),
        overhead: measured.stats.instr_overhead,
        slowdown: measured.trace.total_time().ratio(actual.trace.total_time()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_covers_ten_kernels_with_real_slowdowns() {
        let rows = fig1();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(
                r.measured_ratio > 2.0,
                "kernel {}: slowdown {}",
                r.kernel,
                r.measured_ratio
            );
            assert!(
                (r.approx_ratio - 1.0).abs() < 0.01,
                "kernel {}: time-based sequential approx should be ~exact, got {}",
                r.kernel,
                r.approx_ratio
            );
        }
    }

    #[test]
    fn fig1_ratios_track_paper_values() {
        for r in fig1() {
            let paper = r.paper_measured.expect("fig1 kernels carry paper values");
            let rel = (r.measured_ratio - paper).abs() / paper;
            assert!(
                rel < 0.15,
                "kernel {}: measured ratio {} vs paper {} ({}% off)",
                r.kernel,
                r.measured_ratio,
                paper,
                (rel * 100.0) as u32
            );
        }
    }

    #[test]
    fn table1_directions_match_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].approx_over_actual < 1.0,
            "loop 3: {}",
            rows[0].approx_over_actual
        );
        assert!(
            rows[1].approx_over_actual < 1.0,
            "loop 4: {}",
            rows[1].approx_over_actual
        );
        assert!(
            rows[2].approx_over_actual > 1.0,
            "loop 17: {}",
            rows[2].approx_over_actual
        );
        for r in &rows {
            assert!(r.same_direction_as_paper(), "{}: wrong direction", r.label);
        }
    }

    #[test]
    fn table2_event_based_is_accurate() {
        for r in table2() {
            assert!(
                (r.approx_over_actual - 1.0).abs() < 0.10,
                "{}: event-based error too large: {}",
                r.label,
                r.approx_over_actual
            );
            // And more intrusive than Table 1 measured the same loop.
        }
    }

    #[test]
    fn loop17_products_are_consistent() {
        let a = loop17_analysis();
        assert_eq!(a.waiting.rows.len(), 8);
        assert_eq!(a.timeline.rows.len(), 8);
        // Waiting percentages should be small (paper: 2.7-8.1 %).
        for r in &a.waiting.rows {
            assert!(r.sync_pct < 25.0, "proc {} waits {}%", r.proc, r.sync_pct);
        }
        // Average parallelism high but below the processor count
        // (paper: 7.5 of 8).
        assert!(
            a.avg_parallelism > 5.0 && a.avg_parallelism <= 8.0,
            "avg parallelism {}",
            a.avg_parallelism
        );
    }

    #[test]
    fn overhead_sweep_is_best_at_true_spec() {
        let points = ablation_overhead_sweep(3, &[0.5, 0.9, 1.0, 1.1, 1.5]);
        let err_at = |f: f64| {
            points
                .iter()
                .find(|p| (p.factor - f).abs() < 1e-9)
                .map(|p| (p.approx_ratio - 1.0).abs())
                .unwrap()
        };
        assert!(err_at(1.0) <= err_at(0.5));
        assert!(err_at(1.0) <= err_at(1.5));
    }

    #[test]
    fn all_kernel_intrusion_covers_24() {
        let rows = all_kernel_intrusion();
        assert_eq!(rows.len(), 24);
        for r in &rows {
            assert!(
                r.slowdown > 1.5,
                "kernel {}: slowdown {}",
                r.kernel,
                r.slowdown
            );
            assert!(
                (r.approx_ratio - 1.0).abs() < 0.05,
                "kernel {}: approx {}",
                r.kernel,
                r.approx_ratio
            );
        }
    }

    #[test]
    fn per_event_accuracy_ranks_the_models() {
        for kernel in [3u8, 17] {
            let a = per_event_accuracy(kernel);
            // Event-based beats time-based beats the raw measurement, per
            // event and not only in totals.
            assert!(
                a.event_based.mean_abs_error < a.time_based.mean_abs_error,
                "kernel {kernel}: event {} !< time {}",
                a.event_based.mean_abs_error,
                a.time_based.mean_abs_error
            );
            assert!(
                a.time_based.mean_abs_error < a.measured.mean_abs_error,
                "kernel {kernel}: time {} !< measured {}",
                a.time_based.mean_abs_error,
                a.measured.mean_abs_error
            );
            // Event-based is per-event exact on this substrate.
            assert!(a.event_based.is_exact_within_tolerance());
        }
    }

    #[test]
    fn mode_comparison_shapes() {
        let rows = mode_comparison();
        assert!(!rows.is_empty());
        // Pair up scalar/vector rows per kernel.
        for pair in rows.chunks(2) {
            let (s, v) = (&pair[0], &pair[1]);
            assert_eq!(s.kernel, v.kernel);
            assert!(
                v.actual < s.actual,
                "kernel {}: vector should be faster",
                s.kernel
            );
            assert!(
                v.slowdown > s.slowdown,
                "kernel {}: relative intrusion should grow in vector mode",
                s.kernel
            );
            assert!((s.approx_ratio - 1.0).abs() < 0.01);
            assert!((v.approx_ratio - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn order_study_shows_repair() {
        for kernel in [3u8, 17] {
            let s = order_study(kernel);
            assert!(
                s.measured.inversions > 0,
                "kernel {kernel}: instrumentation should reorder events"
            );
            assert!(
                s.approximated.inversions * 10 <= s.measured.inversions,
                "kernel {kernel}: approximation should repair most reordering \
                 (measured {} vs approximated {})",
                s.measured.inversions,
                s.approximated.inversions
            );
        }
    }

    #[test]
    fn buffer_study_degrades_gracefully() {
        let rows = buffer_study(3, &[32, 100_000]);
        // Tiny buffers drop events; the result is either rejected (severed
        // pairs) or covers only the prefix (ratio far below 1) — never a
        // silently "complete" answer.
        assert!(rows[0].dropped > 0);
        match rows[0].approx_ratio {
            None => assert!(!rows[0].analyzable),
            Some(r) => assert!(r < 0.5, "prefix analysis should cover a fraction, got {r}"),
        }
        // A generous buffer keeps everything and the analysis is intact.
        assert_eq!(rows[1].dropped, 0);
        assert!(rows[1].analyzable);
        assert!((rows[1].approx_ratio.unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn campaign_serializes() {
        let c = run_campaign();
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("table2"));
        assert!(json.contains("avg_parallelism"));
        // Structurally valid JSON with all top-level sections.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        for key in [
            "seed",
            "fig1",
            "table1",
            "table2",
            "table3",
            "intrusion",
            "buffers",
        ] {
            assert!(value.get(key).is_some(), "missing campaign section {key}");
        }
        assert_eq!(value["fig1"].as_array().unwrap().len(), 10);
        assert_eq!(value["intrusion"].as_array().unwrap().len(), 24);
    }

    #[test]
    fn intrusion_grows_with_plan_scope() {
        let small = intrusion(3, &InstrumentationPlan::full_statements());
        let large = intrusion(3, &InstrumentationPlan::full_with_sync());
        assert!(large.events > small.events);
        assert!(large.overhead > small.overhead);
    }
}
