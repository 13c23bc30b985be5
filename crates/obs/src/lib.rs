//! # ppa-obs — self-observability for the analysis pipeline
//!
//! The paper's subject is the Instrumentation Uncertainty Principle:
//! measurement perturbs the system being measured. This crate applies
//! that discipline to the reproduction's own pipeline — it provides the
//! probes the analyzer, stream I/O, simulator, and CLI use to watch
//! themselves, *and* the machinery to account for what those
//! probes cost ([`calibrate_self_overhead`]).
//!
//! ## Design
//!
//! - **Lock-free hot path.** [`Counter`], [`Gauge`], and [`Histogram`]
//!   are single atomics (or a fixed array of atomics for histogram
//!   buckets); recording is a relaxed atomic op with no allocation.
//!   Registration ([`Registry`]) is the only locking operation and
//!   happens once per metric, off the hot path.
//! - **Detachable.** Every handle has a detached ([`Counter::noop`])
//!   state whose record operations reduce to one branch on a null
//!   pointer. Components take probe structs by value and default to
//!   detached probes, so un-observed pipelines pay almost nothing.
//!   Detaching is the only off switch: every build compiles the same
//!   probes, and what an attached one costs is measured, not erased.
//! - **Self-overhead accounting.** [`calibrate_self_overhead`] times the
//!   *active* probe operations on the running machine, so exported
//!   snapshots can carry `ppa_obs_self_overhead_ns_per_probe` — an
//!   estimate of the perturbation the metrics themselves introduce, in
//!   the spirit of the paper's in-vitro overhead calibration (§2).
//!
//! ## Conventions
//!
//! Metric names are `snake_case` with a `ppa_` prefix; counters end in
//! `_total`; durations are nanoseconds unless the name says otherwise.
//! Labels are static key/value pairs fixed at registration (e.g.
//! `shard="p3"`). Snapshots export to the Prometheus text format
//! ([`prometheus_text`]) or a JSON document ([`json_text`]).
//!
//! Loss and recovery are first-class observables: lenient trace decoding
//! accounts for damage in `ppa_stream_gaps_total` /
//! `ppa_stream_events_lost_total` (labelled `dir="read"|"write"` like
//! the other stream metrics), the reorder buffer reports
//! `ppa_reorder_resorted_total` / `ppa_reorder_rejected_total`, and
//! checkpointing reports `ppa_checkpoints_written_total`. A consumer can
//! therefore tell a clean run from a degraded one by metrics alone —
//! README's metric table is the complete inventory (the CLI e2e test
//! `analyze_metric_families_all_have_a_readme_row` checks it).
//!
//! ```
//! use ppa_obs::{Registry, prometheus_text};
//!
//! let registry = Registry::new();
//! let pushed = registry.counter("ppa_events_pushed_total", "Events pushed.");
//! pushed.add(3);
//! let text = prometheus_text(&registry.snapshot());
//! assert!(text.contains("ppa_events_pushed_total 3"));
//! ```

#![warn(missing_docs)]

mod active;
mod overhead;
mod snapshot;
pub mod span;

pub use active::{Counter, Gauge, Histogram, Registry, Stopwatch};
pub use overhead::{calibrate_self_overhead, SelfOverhead};
pub use snapshot::{
    exponential_bounds, json_text, prometheus_text, MetricKind, MetricSnapshot, MetricValue,
    Snapshot,
};
pub use span::{
    span_enter, BindGuard, InstallGuard, SpanEvent, SpanGuard, SpanLog, SpanRecorder, Stage,
    StageCounters, DEFAULT_THREAD_SPAN_CAP, STAGE_COUNT,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_active_handles_record_nothing() {
        let c = Counter::noop();
        let g = Gauge::noop();
        let h = Histogram::noop();
        c.inc();
        g.set(3.5);
        h.observe(9);
        drop(h.start());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
    }
}
