//! Mechanical validation for perturbation-analysis inputs and outputs.
//!
//! The paper's central claim is that event-based analysis yields a
//! *conservative approximation of a feasible execution*: approximated
//! times must preserve the measured partial order of dependent
//! synchronization events (§4.2.3). This crate checks that claim — and
//! the structural sanity of the traces feeding it — instead of trusting
//! it:
//!
//! - [`TraceLinter`] streams a measured (or actual) trace and verifies
//!   structural invariants: the total order, per-processor time
//!   monotonicity, sequence-number contiguity, and the synchronization
//!   protocols — advance tags, `awaitB`/`awaitE` pairing, each await's
//!   advance, barrier episodes, locks, semaphores and fork/join tasks.
//! - [`ReportChecker`] streams an approximated trace and verifies the
//!   §4.2.3 conservation laws on analyzer output: approximated times
//!   monotone per processor, and every paired event — `awaitE`, barrier
//!   exit, lock acquire, semaphore P, task begin and join-return — no
//!   earlier than the event it waited for.
//! - [`check_metrics`] cross-checks an exported metrics snapshot for
//!   nonzero `ppa_core_clamped_approx_total` — a clamped approximation
//!   is one where instrumentation overhead exceeded the measured
//!   inter-event spacing, exactly the uncertainty the §4.2.3 rules
//!   cannot correct for.
//! - [`differential`] runs the streaming and reference analysis
//!   paths over generated DOACROSS programs, diffs their
//!   reports field by field, and shrinks any mismatch to a minimal
//!   reproducing trace.
//!
//! Neither trace pass has pairing rules of its own: both read
//! [`SyncTracker`](ppa_trace::SyncTracker), the rulebook
//! [`pair_sync_events`](ppa_trace::pair_sync_events) is built on, so a
//! measured trace lints clean of the protocol rules exactly when
//! `pair_sync_events` accepts it; `ppa-core`'s tests and the
//! differential oracle hold the streaming analyzer behind `ppa analyze`
//! to the same verdicts.
//!
//! Every violation carries a stable machine-readable rule name; the
//! `ppa check` CLI subcommand maps any violation to sysexits 65 and
//! exports per-rule counts as `ppa_check_violations_total{rule=...}`.

#![warn(missing_docs)]

mod checkpoint;
pub mod differential;
mod lint;
mod metrics;
mod report;

pub use checkpoint::{is_checkpoint_magic, lint_checkpoint, CheckpointLint};
pub use differential::{run_differential, DifferentialConfig, DifferentialReport, Mismatch};
pub use lint::TraceLinter;
pub use metrics::check_metrics;
pub use report::ReportChecker;

use core::fmt;
use ppa_obs::Registry;

/// One invariant violation found by a check pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable rule identifier (kebab-case). This is the
    /// `rule` label on `ppa_check_violations_total` and the name CI greps
    /// for, so it must not change casually.
    pub rule: &'static str,
    /// Human-readable description carrying the offending event
    /// coordinates (time, processor, sequence number).
    pub detail: String,
}

impl Violation {
    fn new(rule: &'static str, detail: String) -> Self {
        Violation { rule, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// Exports per-rule violation counts as
/// `ppa_check_violations_total{rule=...}` on `registry`.
pub fn export_violations(registry: &Registry, violations: &[Violation]) {
    for v in violations {
        registry
            .counter_with(
                "ppa_check_violations_total",
                &[("rule", v.rule)],
                "Invariant violations found by ppa check, by rule.",
            )
            .inc();
    }
}
