//! Daemon observability: one ppa-obs [`Registry`] for the whole server,
//! with per-tenant labelled series registered lazily on first sight.
//!
//! The registry appends a fresh series on every `counter_with` call, so
//! tenant handles are created once and cached here — re-registering a
//! tenant would duplicate its series in the exported snapshot. All
//! names follow the workspace convention (`ppa_` prefix, counters end
//! in `_total`); OPERATIONS.md documents which of these to alert on.

use ppa_obs::{Counter, Gauge, Registry, StageCounters};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-tenant labelled counters (`tenant="..."` on every series).
pub struct TenantMetrics {
    /// `ppa_server_sessions_started_total` — sessions admitted.
    pub sessions: Counter,
    /// `ppa_server_sessions_completed_total` — sessions that reached
    /// `DONE`.
    pub completed: Counter,
    /// `ppa_server_sessions_resumed_total` — admissions that restored a
    /// checkpoint.
    pub resumed: Counter,
    /// `ppa_server_events_total` — measured events consumed.
    pub events: Counter,
    /// `ppa_server_bytes_total` — trace payload bytes received.
    pub bytes: Counter,
    /// `ppa_server_checkpoints_total` — checkpoint files written.
    pub checkpoints: Counter,
    /// `ppa_server_evictions_total` — sessions evicted (idle or
    /// shutdown) with state checkpointed for resume.
    pub evictions: Counter,
    /// `ppa_server_rejections_total` — `HELLO`s refused by quota.
    pub rejections: Counter,
    /// `ppa_server_throttled_ms_total` — milliseconds sessions slept to
    /// hold the tenant under its events/sec quota (backpressure).
    pub throttled_ms: Counter,
    /// `ppa_server_gaps_total` — decode gaps recorded (lenient mode).
    pub gaps: Counter,
    /// `ppa_server_events_lost_total` — events lost to decode gaps.
    pub events_lost: Counter,
    /// `ppa_server_protocol_errors_total` — `ERROR` frames sent.
    pub errors: Counter,
    /// `ppa_emit_spill_total` — resolved events the tenant's analyzers
    /// buffered in the emission spill heap (see `ppa_core::SpillCounts`).
    pub emit_spill: Counter,
    /// `ppa_advance_spill_total` — advance keys the tenant's analyzers
    /// stored in the advance table's hash spill.
    pub advance_spill: Counter,
    /// `ppa_resident_bytes` — heap bytes of the tenant's live sessions'
    /// pipelines, summed: what the resident quota charges.
    pub resident_bytes: Gauge,
}

/// The daemon's metric surface. Clone-cheap (shared registry + cache).
#[derive(Clone)]
pub struct ServerMetrics {
    registry: Registry,
    /// `ppa_server_active_sessions` — live sessions right now.
    pub active_sessions: Gauge,
    /// `ppa_server_connections_total` — accepted connections.
    pub connections: Counter,
    /// `ppa_stage_ns_total{stage=...}` — wall-clock time in each
    /// pipeline stage, published by sessions from their span recorders.
    pub stage: Arc<StageCounters>,
    tenants: Arc<Mutex<HashMap<String, Arc<TenantMetrics>>>>,
}

impl ServerMetrics {
    /// A fresh registry with the global series pre-registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        let active_sessions = registry.gauge(
            "ppa_server_active_sessions",
            "Live analysis sessions right now.",
        );
        let connections = registry.counter(
            "ppa_server_connections_total",
            "Connections accepted on the ingest listeners.",
        );
        let stage = Arc::new(StageCounters::register(&registry));
        ServerMetrics {
            registry,
            active_sessions,
            connections,
            stage,
            tenants: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The underlying registry (for the `/metrics` exporter).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The tenant's labelled series, registered on first sight.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantMetrics> {
        let mut map = self.tenants.lock().expect("tenant metrics poisoned");
        if let Some(m) = map.get(tenant) {
            return m.clone();
        }
        let labels = [("tenant", tenant)];
        let c = |name: &str, help: &str| self.registry.counter_with(name, &labels, help);
        let m = Arc::new(TenantMetrics {
            sessions: c(
                "ppa_server_sessions_started_total",
                "Analysis sessions admitted for this tenant.",
            ),
            completed: c(
                "ppa_server_sessions_completed_total",
                "Sessions that ran to DONE for this tenant.",
            ),
            resumed: c(
                "ppa_server_sessions_resumed_total",
                "Admissions that restored a checkpoint for this tenant.",
            ),
            events: c(
                "ppa_server_events_total",
                "Measured events consumed for this tenant.",
            ),
            bytes: c(
                "ppa_server_bytes_total",
                "Trace payload bytes received for this tenant.",
            ),
            checkpoints: c(
                "ppa_server_checkpoints_total",
                "Checkpoint files written for this tenant.",
            ),
            evictions: c(
                "ppa_server_evictions_total",
                "Sessions evicted (idle or shutdown) with state checkpointed.",
            ),
            rejections: c(
                "ppa_server_rejections_total",
                "HELLOs refused by quota for this tenant.",
            ),
            throttled_ms: c(
                "ppa_server_throttled_ms_total",
                "Milliseconds slept to hold the tenant under its events/sec quota.",
            ),
            gaps: c(
                "ppa_server_gaps_total",
                "Decode gaps recorded in lenient mode for this tenant.",
            ),
            events_lost: c(
                "ppa_server_events_lost_total",
                "Events lost to decode gaps for this tenant.",
            ),
            errors: c(
                "ppa_server_protocol_errors_total",
                "ERROR frames sent to this tenant's clients.",
            ),
            emit_spill: c(
                "ppa_emit_spill_total",
                "Resolved events buffered in the emission spill heap for this tenant.",
            ),
            advance_spill: c(
                "ppa_advance_spill_total",
                "Advance keys stored in the advance table's hash spill for this tenant.",
            ),
            resident_bytes: self.registry.gauge_with(
                "ppa_resident_bytes",
                &labels,
                "Heap bytes of this tenant's live session pipelines, summed: what \
                 --tenant-max-resident-bytes charges.",
            ),
        });
        map.insert(tenant.to_string(), m.clone());
        m
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_series_register_once() {
        let m = ServerMetrics::new();
        let a = m.tenant("acme");
        let b = m.tenant("acme");
        a.events.add(3);
        // The same underlying series: both handles observe the add.
        assert_eq!(b.events.get(), 3);
        let snapshot = m.registry().snapshot();
        let events_series = snapshot
            .entries
            .iter()
            .filter(|e| e.name == "ppa_server_events_total")
            .count();
        assert_eq!(events_series, 1);
    }
}
