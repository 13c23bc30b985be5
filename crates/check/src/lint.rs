//! Structural trace lint: the invariants every well-formed event trace
//! (measured or actual) must satisfy before analysis is meaningful.

use crate::Violation;
use ppa_trace::{Event, EventKind, ProcessorId, SyncTracker, Time, TraceError};

/// Streaming structural linter for measured/actual traces.
///
/// Feed events in stream order with [`push`](Self::push), then collect
/// the verdict with [`finish`](Self::finish). Rules checked:
///
/// | rule | invariant |
/// |---|---|
/// | `trace-total-order` | `order_key` (time, seq, proc) never decreases |
/// | `proc-time-monotone` | per-processor timestamps never decrease |
/// | `seq-contiguity` | sequence numbers form one contiguous run, no holes or duplicates |
/// | `advance-tag` | no advance carries a pre-advanced (negative) tag, and no two carry the same (var, tag) |
/// | `await-pairing` | every `awaitE` closes a matching open `awaitB` (same var and tag, same processor), no `awaitB` nests, and every `awaitB` closes |
/// | `await-advance-order` | every `awaitE` has a matching `advance` (same var and tag) somewhere in the trace; pre-advanced (negative) tags are exempt |
/// | `barrier-protocol` | each barrier episode closes, every processor enters it once and exits it once after entering, and no enter follows its first exit |
/// | `lock-pairing` | `lockA` never acquires a held lock, `lockR` only releases from the holder, and no lock is held at end of trace |
/// | `sem-nonnegative` | in stream order, `semP` never overdraws the semaphore (every P is preceded by an unconsumed V — the measured ordering convention records V before the waiter resumes) |
/// | `task-pairing` | each task id runs spawn (`taskF`), begin (`taskF`), end (`taskJ`), join-return (`taskJ`) in order, join-return on the spawning processor and end on the child's, and every spawned task is joined |
///
/// The pairing rules are [`SyncTracker`]'s: a trace lints clean of them
/// exactly when [`pair_sync_events`](ppa_trace::pair_sync_events)
/// accepts it.
///
/// `await-advance-order` checks *existence*, not stream position: a
/// measured `advance` is stamped after its own instrumentation, so its
/// `awaitE` may precede it. That the await completes no earlier than its
/// advance is a §4.2.3 law on approximated times, which
/// [`ReportChecker`](crate::ReportChecker) enforces. Every violation is
/// recorded (no cap).
///
/// A *slice* of a trace (the output of `ppa slice`, see QUERIES.md) is
/// a projection: removing events punches holes in the sequence numbers
/// and cuts await pairs and sync episodes apart, by design. The
/// [`for_slice`](Self::for_slice) mode therefore keeps only the rules a
/// projection preserves — `trace-total-order` and `proc-time-monotone`
/// — and adds `repeat-record`, the structural validity of suppression
/// records (`len >= 1`, `count >= 1`). Outside slice mode a repeat
/// record is itself a violation: suppressed traces must be expanded (or
/// checked as slices) before the full rule set is meaningful.
#[derive(Debug, Default)]
pub struct TraceLinter {
    violations: Vec<Violation>,
    /// Slice mode: lint a projection, not a complete trace.
    slice: bool,
    last_key: Option<(Time, u64, ProcessorId)>,
    /// The latest timestamp on each processor.
    last_time: Vec<Option<Time>>,
    seqs: Vec<u64>,
    sync: SyncTracker<u64>,
}

/// The lint rule a sync-protocol error breaks.
pub(crate) fn rule_of(err: &TraceError) -> &'static str {
    use TraceError as E;
    match err {
        E::NotTotallyOrdered { .. } => "trace-total-order",
        E::DuplicateAdvance { .. } | E::NegativeAdvanceTag { .. } => "advance-tag",
        E::UnmatchedAwaitEnd { .. } | E::UnmatchedAwaitBegin { .. } => "await-pairing",
        E::NestedAwait { .. } => "await-pairing",
        E::MissingAdvance { .. } | E::AwaitBeforeAdvance { .. } => "await-advance-order",
        E::BarrierArityMismatch { .. } | E::BarrierExitBeforeLastEnter { .. } => "barrier-protocol",
        E::BarrierProtocol { .. } => "barrier-protocol",
        E::LockProtocol { .. } | E::LockHeldAtEnd { .. } => "lock-pairing",
        E::SemUnderflow { .. } => "sem-nonnegative",
        E::TaskProtocol { .. } => "task-pairing",
    }
}

impl TraceLinter {
    /// Creates an empty linter.
    pub fn new() -> Self {
        TraceLinter::default()
    }

    /// Creates a linter for sliced (projected, possibly suppressed)
    /// traces: order rules stay, completeness rules are waived, and
    /// repeat records are validated instead of rejected.
    pub fn for_slice() -> Self {
        TraceLinter {
            slice: true,
            ..TraceLinter::default()
        }
    }

    /// Feeds the next event in stream order.
    pub fn push(&mut self, e: &Event) {
        let key = e.order_key();
        if let Some(last) = self.last_key {
            if last > key {
                self.violations.push(Violation::new(
                    "trace-total-order",
                    format!(
                        "event {e} orders before its predecessor (time, seq, proc) = ({}, {}, {})",
                        last.0, last.1, last.2
                    ),
                ));
            }
        }
        self.last_key = Some(key);
        self.seqs.push(e.seq);

        let pi = e.proc.index();
        if pi >= self.last_time.len() {
            self.last_time.resize(pi + 1, None);
        }
        if let Some(last) = self.last_time[pi].filter(|&last| e.time < last) {
            self.violations.push(Violation::new(
                "proc-time-monotone",
                format!("event {e} moves {} backwards from {last}", e.proc),
            ));
        }
        self.last_time[pi] = Some(e.time);

        if let EventKind::Repeat { len, count, .. } = e.kind {
            if !self.slice {
                self.violations.push(Violation::new(
                    "repeat-record",
                    format!(
                        "event {e} is a suppression record in a trace checked as complete; \
                         expand it (`ppa slice --expand`) or check with --slice"
                    ),
                ));
            } else if len == 0 || count == 0 {
                self.violations.push(Violation::new(
                    "repeat-record",
                    format!("event {e} has an empty pattern or zero count"),
                ));
            }
            return;
        }
        // Projection mode: the order rules above apply as-is; the pairing
        // and seq-contiguity rules would misfire on cut episodes.
        if !self.slice {
            if let Err(err) = self.sync.push(e, e.seq) {
                let detail = format!("event {e}: {err}");
                self.violations.push(Violation::new(rule_of(&err), detail));
            }
        }
    }

    /// Closes the stream and returns every violation found, in
    /// encounter order (end-of-stream rules last).
    pub fn finish(mut self) -> Vec<Violation> {
        // Slices are projections: cut episodes and seq holes are the
        // point, so the end-of-stream rules are waived there.
        if self.slice {
            return self.violations;
        }
        for err in self.sync.finish() {
            self.violations
                .push(Violation::new(rule_of(&err), err.to_string()));
        }
        // Contiguity is a multiset property, so it is checked once at the
        // end: sorted, the sequence numbers must form one run without
        // holes or duplicates.
        self.seqs.sort_unstable();
        for w in self.seqs.windows(2) {
            if w[1] != w[0] + 1 {
                let kind = if w[1] == w[0] { "duplicate" } else { "hole" };
                self.violations.push(Violation::new(
                    "seq-contiguity",
                    format!(
                        "sequence numbers have a {kind} between {} and {}",
                        w[0], w[1]
                    ),
                ));
            }
        }
        self.violations
    }
}
