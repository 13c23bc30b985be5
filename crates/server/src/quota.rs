//! Per-tenant admission control: concurrent-session caps, a live
//! `(tenant, stream)` ownership table, and an events-per-second
//! throttle.
//!
//! Admission is all-or-nothing at `HELLO` time ([`SessionTable::admit`])
//! and returns an RAII [`SessionPermit`] whose drop releases every
//! count, so a panicking session cannot leak quota. The events/sec
//! limit is not an admission check: it throttles a running session by
//! telling it how long to sleep before consuming more input
//! ([`SessionTable::throttle`]) — the sleep stops the session reading
//! its socket, which pushes back on the client through TCP/unix-socket
//! flow control.

use crate::protocol::{EC_SERVER_FULL, EC_SESSION_BUSY, EC_TENANT_SESSIONS};
use ppa_obs::Gauge;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The daemon's quota knobs. `None`/`0` disables a limit.
#[derive(Debug, Clone)]
pub struct Quotas {
    /// Server-wide concurrent session cap.
    pub max_sessions: usize,
    /// Per-tenant concurrent session cap.
    pub tenant_max_sessions: usize,
    /// Per-tenant ingest rate cap, events per second (0 = unlimited).
    pub tenant_max_eps: u64,
    /// Per-tenant resident-state cap, bytes (0 = unlimited). Charges each
    /// session's `Pipeline::resident_bytes` — every analyzer table (the
    /// advance table that grows with the trace included), the reorder
    /// buffer and the report stage's batches — summed over the tenant's
    /// sessions.
    pub tenant_max_resident_bytes: u64,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_sessions: 256,
            tenant_max_sessions: 16,
            tenant_max_eps: 0,
            tenant_max_resident_bytes: 0,
        }
    }
}

/// Why [`SessionTable::admit`] refused a session; maps onto the
/// protocol `EC_*` codes via [`AdmitError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The server-wide cap is reached.
    ServerFull,
    /// The tenant's concurrent-session cap is reached.
    TenantSessions,
    /// Another live session owns this `(tenant, stream)`.
    SessionBusy,
}

impl AdmitError {
    /// The protocol error code this rejection is reported as.
    pub fn code(&self) -> u16 {
        match self {
            AdmitError::ServerFull => EC_SERVER_FULL,
            AdmitError::TenantSessions => EC_TENANT_SESSIONS,
            AdmitError::SessionBusy => EC_SESSION_BUSY,
        }
    }

    /// The message sent to the client.
    pub fn message(&self, quotas: &Quotas) -> String {
        match self {
            AdmitError::ServerFull => format!(
                "server is at its {}-session capacity; retry later",
                quotas.max_sessions
            ),
            AdmitError::TenantSessions => format!(
                "tenant is at its {}-session quota; retry later",
                quotas.tenant_max_sessions
            ),
            AdmitError::SessionBusy => {
                "another live session already owns this (tenant, stream)".to_string()
            }
        }
    }
}

#[derive(Default)]
struct TenantState {
    active: usize,
    live_streams: HashSet<String>,
    /// Events admitted in the current one-second rate window.
    rate_in_window: u64,
    rate_window_start: Option<Instant>,
    resident_bytes: u64,
}

#[derive(Default)]
struct Inner {
    total_active: usize,
    tenants: HashMap<String, TenantState>,
}

/// The daemon's live-session registry. Cheap to clone (shared state).
#[derive(Clone)]
pub struct SessionTable {
    quotas: Quotas,
    inner: Arc<Mutex<Inner>>,
}

impl SessionTable {
    /// An empty table enforcing `quotas`.
    pub fn new(quotas: Quotas) -> Self {
        SessionTable {
            quotas,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// The quotas this table enforces.
    pub fn quotas(&self) -> &Quotas {
        &self.quotas
    }

    /// Sessions currently admitted, server-wide.
    pub fn active(&self) -> usize {
        self.inner
            .lock()
            .expect("session table poisoned")
            .total_active
    }

    /// Admits one session for `(tenant, stream)`, or says why not. The
    /// returned permit releases the slots when dropped.
    pub fn admit(&self, tenant: &str, stream: &str) -> Result<SessionPermit, AdmitError> {
        let mut inner = self.inner.lock().expect("session table poisoned");
        if self.quotas.max_sessions > 0 && inner.total_active >= self.quotas.max_sessions {
            return Err(AdmitError::ServerFull);
        }
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        // The duplicate-stream check comes before the tenant cap: "this
        // exact stream is already being ingested" is the more specific
        // (and more actionable) refusal.
        if t.live_streams.contains(stream) {
            return Err(AdmitError::SessionBusy);
        }
        if self.quotas.tenant_max_sessions > 0 && t.active >= self.quotas.tenant_max_sessions {
            return Err(AdmitError::TenantSessions);
        }
        t.live_streams.insert(stream.to_string());
        t.active += 1;
        inner.total_active += 1;
        Ok(SessionPermit {
            table: self.clone(),
            tenant: tenant.to_string(),
            stream: stream.to_string(),
            resident: std::cell::Cell::new(0),
            gauge: Gauge::default(),
        })
    }

    /// Consults the tenant's events/sec budget after consuming `events`
    /// more input events. Returns how long the session should sleep
    /// before reading on (zero when unlimited or within budget). The
    /// window is a fixed one-second tumbling window — coarse, but
    /// enough to hold a hot client near the cap.
    pub fn throttle(&self, tenant: &str, events: u64) -> Duration {
        let eps = self.quotas.tenant_max_eps;
        if eps == 0 {
            return Duration::ZERO;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("session table poisoned");
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        let start = *t.rate_window_start.get_or_insert(now);
        let elapsed = now.duration_since(start);
        if elapsed >= Duration::from_secs(1) {
            t.rate_window_start = Some(now);
            t.rate_in_window = 0;
        }
        t.rate_in_window += events;
        if t.rate_in_window <= eps {
            return Duration::ZERO;
        }
        // Over budget: sleep out the rest of the window.
        Duration::from_secs(1).saturating_sub(elapsed)
    }

    fn update_resident(&self, tenant: &str, before: u64, now: u64, gauge: &Gauge) -> bool {
        let cap = self.quotas.tenant_max_resident_bytes;
        let mut inner = self.inner.lock().expect("session table poisoned");
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        t.resident_bytes = t.resident_bytes.saturating_sub(before).saturating_add(now);
        gauge.set(t.resident_bytes as f64);
        cap > 0 && t.resident_bytes > cap
    }

    fn release(&self, tenant: &str, stream: &str, resident: u64, gauge: &Gauge) {
        let mut inner = self.inner.lock().expect("session table poisoned");
        inner.total_active = inner.total_active.saturating_sub(1);
        if let Some(t) = inner.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
            t.live_streams.remove(stream);
            t.resident_bytes = t.resident_bytes.saturating_sub(resident);
            gauge.set(t.resident_bytes as f64);
        }
    }
}

/// An admitted session's slot; dropping it releases every count the
/// admission took, plus whatever resident bytes the session last
/// reported through [`SessionPermit::set_resident`].
pub struct SessionPermit {
    /// Shared table the slot is released into on drop.
    table: SessionTable,
    tenant: String,
    stream: String,
    /// This session's last-reported resident bytes (released on drop).
    resident: std::cell::Cell<u64>,
    /// Set to the tenant's resident total at every charge and release
    /// (detached until [`SessionPermit::export_resident`]).
    gauge: Gauge,
}

impl SessionPermit {
    /// Replaces this session's resident-bytes contribution with `now`;
    /// returns `true` if the tenant is over its resident quota.
    pub fn set_resident(&self, now: u64) -> bool {
        let before = self.resident.replace(now);
        self.table
            .update_resident(&self.tenant, before, now, &self.gauge)
    }

    /// Keeps `gauge` at the tenant's resident total, sessions summed, as
    /// this permit charges and releases it (`ppa_resident_bytes`).
    pub fn export_resident(&mut self, gauge: Gauge) {
        self.gauge = gauge;
    }
}

impl std::fmt::Debug for SessionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPermit")
            .field("tenant", &self.tenant)
            .field("stream", &self.stream)
            .field("resident", &self.resident.get())
            .finish()
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.table
            .release(&self.tenant, &self.stream, self.resident.get(), &self.gauge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas(max: usize, per_tenant: usize) -> Quotas {
        Quotas {
            max_sessions: max,
            tenant_max_sessions: per_tenant,
            tenant_max_eps: 0,
            tenant_max_resident_bytes: 0,
        }
    }

    #[test]
    fn admission_enforces_global_and_tenant_caps() {
        let table = SessionTable::new(quotas(3, 2));
        let a1 = table.admit("a", "s1").unwrap();
        let _a2 = table.admit("a", "s2").unwrap();
        assert_eq!(
            table.admit("a", "s3").unwrap_err(),
            AdmitError::TenantSessions
        );
        let _b1 = table.admit("b", "s1").unwrap();
        assert_eq!(table.admit("b", "s2").unwrap_err(), AdmitError::ServerFull);
        assert_eq!(table.active(), 3);
        drop(a1);
        assert_eq!(table.active(), 2);
        let _b2 = table.admit("b", "s2").unwrap();
    }

    #[test]
    fn duplicate_live_stream_is_busy_until_released() {
        let table = SessionTable::new(quotas(0, 0));
        let p = table.admit("t", "s").unwrap();
        assert_eq!(table.admit("t", "s").unwrap_err(), AdmitError::SessionBusy);
        // A different tenant may reuse the stream name.
        let _other = table.admit("u", "s").unwrap();
        drop(p);
        let _again = table.admit("t", "s").unwrap();
    }

    #[test]
    fn throttle_sleeps_only_over_budget() {
        let table = SessionTable::new(Quotas {
            tenant_max_eps: 100,
            ..quotas(0, 0)
        });
        assert_eq!(table.throttle("t", 50), Duration::ZERO);
        assert_eq!(table.throttle("t", 50), Duration::ZERO);
        assert!(table.throttle("t", 1) > Duration::ZERO);
        // Unlimited tenants never sleep.
        let free = SessionTable::new(quotas(0, 0));
        assert_eq!(free.throttle("t", 1_000_000), Duration::ZERO);
    }

    #[test]
    fn resident_quota_sums_across_sessions_and_releases() {
        let table = SessionTable::new(Quotas {
            tenant_max_resident_bytes: 100,
            ..quotas(0, 0)
        });
        let p1 = table.admit("t", "s1").unwrap();
        let p2 = table.admit("t", "s2").unwrap();
        assert!(!p1.set_resident(60));
        assert!(p2.set_resident(60)); // 120 > 100 tenant-wide
        assert!(!p2.set_resident(30)); // replaced, 90 <= 100
        drop(p1); // releases p1's 60; tenant total back to 30
        assert!(!p2.set_resident(90));
        assert!(p2.set_resident(101));
    }

    #[test]
    fn exported_resident_gauge_follows_the_tenant_total() {
        let table = SessionTable::new(quotas(0, 0));
        let registry = ppa_obs::Registry::new();
        let gauge = registry.gauge_with("ppa_resident_bytes", &[("tenant", "t")], "");
        let mut p1 = table.admit("t", "s1").unwrap();
        let mut p2 = table.admit("t", "s2").unwrap();
        p1.export_resident(gauge.clone());
        p2.export_resident(gauge.clone());
        assert!(!p1.set_resident(60)); // no cap: charged, never over
        assert!(!p2.set_resident(40));
        assert_eq!(gauge.get(), 100.0);
        drop(p1);
        assert_eq!(gauge.get(), 40.0);
        drop(p2);
        assert_eq!(gauge.get(), 0.0);
    }
}
