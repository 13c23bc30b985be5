//! # ppa — event-based performance perturbation analysis
//!
//! A reproduction of Allen D. Malony, *"Event-Based Performance
//! Perturbation: A Case Study"* (PPoPP 1991): recovering actual parallel
//! execution behavior from intrusive trace measurements.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`trace`] — events, traces, overheads, validation, I/O;
//! - [`sync`] — native advance/await, barrier, lock primitives;
//! - [`program`] — statement-graph workload model;
//! - [`sim`] — deterministic Alliant-FX/80-style multiprocessor simulator;
//! - [`native`] — real-thread traced execution backend;
//! - [`lfk`] — the Livermore loops (numeric + statement-graph forms);
//! - [`analysis`] — time-based and event-based perturbation analysis;
//! - [`mod@slice`] — trace slicing, query expressions, redundancy suppression;
//! - [`check`] — trace/report invariant checker and differential oracle;
//! - [`server`] — multi-tenant streaming ingest daemon (`ppa serve`);
//! - [`metrics`] — ratios, waiting tables, timelines, parallelism;
//! - [`obs`] — self-observability: pipeline metrics, span timers,
//!   Prometheus/JSON export, self-overhead calibration;
//! - [`experiments`] — one driver per paper table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use ppa::prelude::*;
//!
//! // A DOACROSS loop with a critical section.
//! let mut b = ProgramBuilder::new("demo");
//! let v = b.sync_var();
//! let program = b
//!     .doacross(1, 64, |body| {
//!         body.compute("head", 800)
//!             .await_var(v, -1)
//!             .compute("update", 60)
//!             .advance(v)
//!     })
//!     .build()
//!     .unwrap();
//!
//! // Actual vs measured vs approximated.
//! let cfg = ppa::experiments::experiment_config();
//! let actual = run_actual(&program, &cfg).unwrap();
//! let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).unwrap();
//! let approx = event_based(&measured.trace, &cfg.overheads).unwrap();
//!
//! let slowdown = measured.trace.total_time().ratio(actual.trace.total_time());
//! let accuracy = approx.total_time().ratio(actual.trace.total_time());
//! assert!(slowdown > 1.5);           // instrumentation really intrudes
//! assert!((accuracy - 1.0).abs() < 0.1); // analysis recovers the truth
//! ```

#![warn(missing_docs)]

pub use ppa_check as check;
pub use ppa_core as analysis;
pub use ppa_lfk as lfk;
pub use ppa_metrics as metrics;
pub use ppa_native as native;
pub use ppa_obs as obs;
pub use ppa_program as program;
pub use ppa_server as server;
pub use ppa_sim as sim;
pub use ppa_slice as slice;
pub use ppa_sync as sync;
pub use ppa_trace as trace;

pub mod experiments;

/// Compiles and runs the README's Rust snippets under `cargo test --doc`.
#[doc = include_str!("../../../README.md")]
mod readme_doctests {}

/// The most commonly used items, in one import.
pub mod prelude {
    pub use ppa_core::{
        event_based, event_based_reference, liberal_reschedule, time_based, AnalysisError,
        EventBasedAnalyzer, StreamOutput, StreamStats,
    };
    pub use ppa_metrics::{
        build_timeline, format_ratio_table, format_waiting_table, parallelism_profile,
        render_parallelism, render_timeline, waiting_table, RatioRow,
    };
    pub use ppa_program::{InstrumentationPlan, Program, ProgramBuilder};
    pub use ppa_sim::{run_actual, run_measured, SchedulePolicy, SimConfig};
    pub use ppa_trace::{
        pair_sync_events, ClockRate, Event, EventKind, OverheadSpec, ProcessorId, Span, Time,
        Trace, TraceKind,
    };
}
