//! The atomic-backed metric handles the crate root re-exports.

use crate::snapshot::{MetricKind, MetricSnapshot, MetricValue, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonic counter.
///
/// Cloning shares the underlying cell. The detached form
/// ([`Counter::noop`]) drops every record on the floor at the cost of a
/// single null-pointer branch, so components can hold a `Counter`
/// unconditionally and let callers decide whether to attach one.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A detached counter: records are discarded.
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count (zero when detached).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A gauge holding one `f64` value (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A detached gauge: records are discarded.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds to the value (compare-and-swap loop; rarely contended).
    pub fn add(&self, delta: f64) {
        if let Some(c) = &self.cell {
            let mut cur = c.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The current value (zero when detached).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }

    /// Whether a registry reads this gauge: a caller whose value is
    /// costly to compute skips the work for a detached one.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.cell.is_some()
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bucket bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Box<[u64]>,
    /// One count per bound, plus the `+Inf` bucket (non-cumulative).
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are fixed at registration; observing is a binary search over
/// the bounds plus three relaxed atomic adds — no allocation, no locks.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A detached histogram: records are discarded.
    pub fn noop() -> Self {
        Histogram { cell: None }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(h) = &self.cell {
            let idx = h.bounds.partition_point(|&b| value > b);
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts a span timer that records its elapsed nanoseconds into this
    /// histogram when dropped. Detached histograms skip the clock read.
    pub fn start(&self) -> Stopwatch<'_> {
        Stopwatch {
            hist: self,
            begin: self.cell.is_some().then(Instant::now),
        }
    }

    /// Total samples recorded (zero when detached).
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|h| h.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of all samples recorded (zero when detached).
    pub fn sum(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|h| h.sum.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A span timer from [`Histogram::start`]: records elapsed nanoseconds
/// into its histogram on drop.
#[derive(Debug)]
pub struct Stopwatch<'a> {
    hist: &'a Histogram,
    begin: Option<Instant>,
}

impl Drop for Stopwatch<'_> {
    fn drop(&mut self) {
        if let Some(begin) = self.begin {
            let ns = begin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.hist.observe(ns);
        }
    }
}

#[derive(Debug)]
enum Handle {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A collection of registered metrics.
///
/// Registration takes a mutex (cold path, once per metric); the handles
/// it returns record through lock-free atomics. Cloning shares the
/// registry. Metrics with the same name but different labels form one
/// family, exported under a single `# HELP`/`# TYPE` header.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        self.entries
            .lock()
            .expect("registry mutex poisoned")
            .push(Entry {
                name: name.to_string(),
                help: help.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                handle,
            });
    }

    /// Registers an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers a counter carrying the given labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let cell = Arc::new(AtomicU64::new(0));
        self.push(name, help, labels, Handle::Counter(cell.clone()));
        Counter { cell: Some(cell) }
    }

    /// Registers an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers a gauge carrying the given labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let cell = Arc::new(AtomicU64::new(0.0f64.to_bits()));
        self.push(name, help, labels, Handle::Gauge(cell.clone()));
        Gauge { cell: Some(cell) }
    }

    /// Registers an unlabelled histogram with the given ascending bucket
    /// bounds (an implicit `+Inf` bucket is appended).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], help, bounds)
    }

    /// Registers a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[u64],
    ) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let core = Arc::new(HistogramCore {
            bounds: bounds.into(),
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        });
        self.push(name, help, labels, Handle::Histogram(core.clone()));
        Histogram { cell: Some(core) }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry mutex poisoned");
        Snapshot {
            entries: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.handle {
                        Handle::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                        Handle::Gauge(g) => {
                            MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                        }
                        Handle::Histogram(h) => MetricValue::Histogram {
                            bounds: h.bounds.to_vec(),
                            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                            sum: h.sum.load(Ordering::Relaxed),
                            count: h.count.load(Ordering::Relaxed),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// The snapshot kind of a metric (used by the exporters).
pub(crate) fn kind_of(value: &MetricValue) -> MetricKind {
    match value {
        MetricValue::Counter(_) => MetricKind::Counter,
        MetricValue::Gauge(_) => MetricKind::Gauge,
        MetricValue::Histogram { .. } => MetricKind::Histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("ppa_events_total", "events");
        let g = r.gauge("ppa_depth", "depth");
        c.inc();
        c.add(9);
        g.set(4.0);
        g.add(0.5);
        assert_eq!(c.get(), 10);
        assert_eq!(g.get(), 4.5);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert!(matches!(snap.entries[0].value, MetricValue::Counter(10)));
    }

    #[test]
    fn histogram_buckets_partition_samples() {
        let r = Registry::new();
        let h = r.histogram("ppa_lat", "latency", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5126);
        match &r.snapshot().entries[0].value {
            MetricValue::Histogram { counts, .. } => {
                // le=10: {5,10}; le=100: {11,100}; le=1000: {}; +Inf: {5000}
                assert_eq!(counts, &vec![2, 2, 0, 1]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn stopwatch_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("ppa_span", "span", &[1_000_000_000]);
        {
            let _t = h.start();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn handles_are_shared_across_clones_and_threads() {
        let r = Registry::new();
        let c = r.counter("ppa_shared_total", "shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
