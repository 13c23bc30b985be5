//! Zero-sized, zero-cost mirrors of the active metric types.
//!
//! Every type here is a unit struct and every method an empty `#[inline]`
//! body, so a probe compiled against this module costs nothing — no
//! memory, no branches, no atomics. The crate-level tests assert the
//! zero-size property at compile time. When the `enabled` feature is off,
//! the crate root aliases these types, erasing all observability from the
//! build; they are also always available under `ppa_obs::noop` so the
//! erased configuration stays testable from an enabled build.

use crate::snapshot::Snapshot;
use crate::span::{SpanLog, Stage, STAGE_COUNT};

/// No-op mirror of [`crate::active::Counter`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

impl Counter {
    /// A detached counter (indistinguishable from any other).
    #[inline]
    pub fn noop() -> Self {
        Counter
    }

    /// Discards the record.
    #[inline]
    pub fn inc(&self) {}

    /// Discards the record.
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// Always zero.
    #[inline]
    pub fn get(&self) -> u64 {
        0
    }
}

/// No-op mirror of [`crate::active::Gauge`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// A detached gauge (indistinguishable from any other).
    #[inline]
    pub fn noop() -> Self {
        Gauge
    }

    /// Discards the record.
    #[inline]
    pub fn set(&self, _v: f64) {}

    /// Discards the record.
    #[inline]
    pub fn add(&self, _delta: f64) {}

    /// Always zero.
    #[inline]
    pub fn get(&self) -> f64 {
        0.0
    }

    /// Always false: nothing would read a value.
    #[inline]
    pub fn is_attached(&self) -> bool {
        false
    }
}

/// No-op mirror of [`crate::active::Histogram`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// A detached histogram (indistinguishable from any other).
    #[inline]
    pub fn noop() -> Self {
        Histogram
    }

    /// Discards the record.
    #[inline]
    pub fn observe(&self, _value: u64) {}

    /// A stopwatch that reads no clock and records nothing.
    #[inline]
    pub fn start(&self) -> Stopwatch {
        Stopwatch
    }

    /// Always zero.
    #[inline]
    pub fn count(&self) -> u64 {
        0
    }

    /// Always zero.
    #[inline]
    pub fn sum(&self) -> u64 {
        0
    }
}

/// No-op mirror of [`crate::active::Stopwatch`]: no clock read, no record.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stopwatch;

/// No-op mirror of [`crate::active::Registry`]: hands out no-op handles
/// and snapshots to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry;

impl Registry {
    /// An empty registry.
    #[inline]
    pub fn new() -> Self {
        Registry
    }

    /// A no-op counter.
    #[inline]
    pub fn counter(&self, _name: &str, _help: &str) -> Counter {
        Counter
    }

    /// A no-op counter.
    #[inline]
    pub fn counter_with(&self, _name: &str, _labels: &[(&str, &str)], _help: &str) -> Counter {
        Counter
    }

    /// A no-op gauge.
    #[inline]
    pub fn gauge(&self, _name: &str, _help: &str) -> Gauge {
        Gauge
    }

    /// A no-op gauge.
    #[inline]
    pub fn gauge_with(&self, _name: &str, _labels: &[(&str, &str)], _help: &str) -> Gauge {
        Gauge
    }

    /// A no-op histogram.
    #[inline]
    pub fn histogram(&self, _name: &str, _help: &str, _bounds: &[u64]) -> Histogram {
        Histogram
    }

    /// A no-op histogram.
    #[inline]
    pub fn histogram_with(
        &self,
        _name: &str,
        _labels: &[(&str, &str)],
        _help: &str,
        _bounds: &[u64],
    ) -> Histogram {
        Histogram
    }

    /// Always empty.
    #[inline]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// No-op mirror of [`crate::span::SpanRecorder`]: accepts bindings and
/// drains to an empty [`SpanLog`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecorder;

impl SpanRecorder {
    /// A recorder that records nothing.
    #[inline]
    pub fn new() -> Self {
        SpanRecorder
    }

    /// A recorder that records nothing (the cap is irrelevant).
    #[inline]
    pub fn with_thread_cap(_cap: usize) -> Self {
        SpanRecorder
    }

    /// Binds nothing; the guard restores nothing.
    #[inline]
    pub fn bind_current_thread(&self) -> BindGuard {
        BindGuard
    }

    /// Installs nothing; the guard uninstalls nothing.
    #[inline]
    pub fn install_global(&self) -> InstallGuard {
        InstallGuard
    }

    /// Always an empty log.
    #[inline]
    pub fn drain(&self) -> SpanLog {
        SpanLog::default()
    }

    /// Always all-zero totals.
    #[inline]
    pub fn stage_totals(&self) -> [u64; STAGE_COUNT] {
        [0; STAGE_COUNT]
    }
}

/// No-op mirror of [`crate::span::BindGuard`]. Not `Copy`: like the
/// active guard, dropping it is meaningful to callers.
#[derive(Debug, Default)]
pub struct BindGuard;

/// No-op mirror of [`crate::span::InstallGuard`].
#[derive(Debug, Default)]
pub struct InstallGuard;

/// No-op mirror of [`crate::span::SpanGuard`]: no clock read, no record.
#[derive(Debug, Default)]
pub struct SpanGuard;

impl SpanGuard {
    /// Discards the attribution.
    #[inline]
    pub fn attr_block(&mut self, _block: u64) {}

    /// Discards the attribution.
    #[inline]
    pub fn attr_seq(&mut self, _seq: u64) {}
}

/// No-op mirror of [`crate::span::span_enter`]: an inert guard.
#[inline]
pub fn span_enter(_stage: Stage) -> SpanGuard {
    SpanGuard
}

/// No-op mirror of [`crate::span::StageCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounters;

impl StageCounters {
    /// Registers nothing.
    #[inline]
    pub fn register(_registry: &Registry) -> Self {
        StageCounters
    }

    /// Discards the totals.
    #[inline]
    pub fn add_totals(&self, _totals: &[u64; STAGE_COUNT]) {}
}
