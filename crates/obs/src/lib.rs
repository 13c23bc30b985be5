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
//! - **Compile-time erasable.** With the `enabled` feature off (build
//!   with `--no-default-features` through the `obs` feature chain), the
//!   top-level types alias the zero-sized mirrors in [`noop`] and every
//!   probe call compiles to nothing. [`ENABLED`] reports which
//!   configuration was built. Both implementations are always compiled
//!   and testable as [`active`] and [`noop`]; the feature only selects
//!   which one the rest of the workspace sees.
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
//! README's metric table is the complete inventory.
//!
//! ```
//! use ppa_obs::{Registry, prometheus_text};
//!
//! let registry = Registry::new();
//! let pushed = registry.counter("ppa_events_pushed_total", "Events pushed.");
//! pushed.add(3);
//! let text = prometheus_text(&registry.snapshot());
//! # #[cfg(feature = "enabled")]
//! assert!(text.contains("ppa_events_pushed_total 3"));
//! ```

#![warn(missing_docs)]

pub mod active;
pub mod noop;
mod overhead;
mod snapshot;
pub mod span;

pub use overhead::{calibrate_self_overhead, SelfOverhead};
pub use snapshot::{
    exponential_bounds, json_text, prometheus_text, MetricKind, MetricSnapshot, MetricValue,
    Snapshot,
};
// The span data model is real in both configurations (exporters
// downstream consume a drained SpanLog either way); only the recording
// machinery below is feature-selected.
pub use span::{SpanEvent, SpanLog, Stage, DEFAULT_THREAD_SPAN_CAP, STAGE_COUNT};

/// Whether observability is compiled in (`true`) or erased (`false`).
pub const ENABLED: bool = cfg!(feature = "enabled");

#[cfg(feature = "enabled")]
pub use active::{Counter, Gauge, Histogram, Registry, Stopwatch};
#[cfg(feature = "enabled")]
pub use span::{span_enter, BindGuard, InstallGuard, SpanGuard, SpanRecorder, StageCounters};

#[cfg(not(feature = "enabled"))]
pub use noop::{span_enter, BindGuard, InstallGuard, SpanGuard, SpanRecorder, StageCounters};
#[cfg(not(feature = "enabled"))]
pub use noop::{Counter, Gauge, Histogram, Registry, Stopwatch};

#[cfg(test)]
mod tests {
    use super::*;

    /// The no-op mirrors are truly zero-sized — a probe struct made of
    /// them occupies no memory and its methods can compile to nothing.
    /// These are compile-time assertions: a non-zero size fails to build.
    const _: () = assert!(std::mem::size_of::<noop::Counter>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::Gauge>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::Histogram>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::Registry>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::Stopwatch>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::SpanRecorder>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::SpanGuard>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::BindGuard>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::InstallGuard>() == 0);
    const _: () = assert!(std::mem::size_of::<noop::StageCounters>() == 0);

    #[test]
    fn noop_registry_records_and_exports_nothing() {
        let r = noop::Registry::new();
        let c = r.counter("ppa_x_total", "x");
        let g = r.gauge("ppa_y", "y");
        let h = r.histogram("ppa_z", "z", &[1, 10, 100]);
        c.inc();
        c.add(41);
        g.set(7.0);
        g.add(1.0);
        h.observe(5);
        let _sw = h.start();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert!(r.snapshot().entries.is_empty());
        assert_eq!(prometheus_text(&r.snapshot()), "");
    }

    #[test]
    fn detached_active_handles_record_nothing() {
        let c = active::Counter::noop();
        let g = active::Gauge::noop();
        let h = active::Histogram::noop();
        c.inc();
        g.set(3.5);
        h.observe(9);
        drop(h.start());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn enabled_flag_matches_the_selected_implementation() {
        // Whichever mirror the feature selects, the alias API works.
        let r = Registry::new();
        let c = r.counter("ppa_events_total", "events");
        c.add(5);
        if ENABLED {
            assert_eq!(c.get(), 5);
            assert_eq!(r.snapshot().entries.len(), 1);
        } else {
            assert_eq!(c.get(), 0);
            assert!(r.snapshot().entries.is_empty());
        }
    }
}
