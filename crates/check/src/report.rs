//! §4.2.3 conservation laws on analyzer output.
//!
//! The event-based approximation is only *conservative* if the
//! approximated times preserve the measured partial order of dependent
//! synchronization events. These rules verify exactly that on an
//! approximated trace, independently of the analyzer that produced it.

use crate::Violation;
use ppa_trace::{Event, Pairing, SyncTracker, Time, TraceError};

/// Streaming checker for the §4.2.3 conservation laws on an
/// approximated trace.
///
/// Feed events in stream order with [`push`](Self::push), then collect
/// the verdict with [`finish`](Self::finish). Rules checked:
///
/// | rule | invariant (§4.2.3) |
/// |---|---|
/// | `report-ta-monotone` | approximated times never decrease on one processor |
/// | `await-begin-before-end` | `ta(awaitE) ≥ ta(awaitB)` for each await |
/// | `await-order-preserved` | `ta(awaitE) ≥ ta(advance)` for the dependent advance, which precedes it in the report — the measured partial order survives approximation (both Figure 2 branches add a non-negative `s_nowait`/`s_wait`) |
/// | `barrier-exit-order` | every barrier exit's ta is at least the episode's latest enter ta |
/// | `episode-order-preserved` | a lock acquire, semaphore P, task begin, or join-return never precedes its enabling release, V, spawn, or child end in approximated time — the blocked rule's `s_wait`/chain branches are both non-negative |
/// | `advance-tag` | no advance carries a pre-advanced (negative) tag, and no two carry the same (var, tag) |
/// | `barrier-protocol` | enters and exits alternate in whole episodes (no exit without an enter, no enter after an episode's first exit, no episode left open) |
/// | `episode-protocol` | the await, lock, semaphore, and fork/join state machines stay well-formed in the report, and no await, lock or task is left open at the end |
///
/// The pairing is [`SyncTracker`]'s, so a report breaks a protocol rule
/// exactly where a measured trace would, with one exception: barrier
/// episodes are checked by their counts. Approximation moves times, not
/// processors, so which processors took part in an episode was settled
/// when the measured trace was validated.
///
/// Pre-advanced (negative) tags have no `advance` by construction and
/// are exempt from `await-order-preserved`. An *origin* lock acquire
/// (no prior release of that lock) has no enabling event and is exempt
/// from `episode-order-preserved`.
#[derive(Debug)]
pub struct ReportChecker {
    violations: Vec<Violation>,
    /// The latest approximated time on each processor.
    last_ta: Vec<Option<Time>>,
    sync: SyncTracker<Time>,
}

impl Default for ReportChecker {
    fn default() -> Self {
        ReportChecker {
            violations: Vec::new(),
            last_ta: Vec::new(),
            sync: SyncTracker::counting_barriers(),
        }
    }
}

/// The report rule a sync-protocol error breaks: the lint's name for
/// advance and barrier errors, `episode-protocol` for the rest, and
/// `None` for a missing advance, which [`ReportChecker::push`] already
/// flagged at its `awaitE`.
fn rule_of(err: &TraceError) -> Option<&'static str> {
    match crate::lint::rule_of(err) {
        "await-advance-order" => None,
        rule @ ("advance-tag" | "barrier-protocol") => Some(rule),
        _ => Some("episode-protocol"),
    }
}

impl ReportChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ReportChecker::default()
    }

    /// Feeds the next approximated event in stream order.
    pub fn push(&mut self, e: &Event) {
        let pi = e.proc.index();
        if pi >= self.last_ta.len() {
            self.last_ta.resize(pi + 1, None);
        }
        if let Some(last) = self.last_ta[pi].filter(|&last| e.time < last) {
            self.violations.push(Violation::new(
                "report-ta-monotone",
                format!("event {e} moves {} backwards from {last}", e.proc),
            ));
        }
        self.last_ta[pi] = Some(e.time);

        // Each law: the event's ta is at least its partner's.
        match self.sync.push(e, e.time) {
            Err(err) => {
                if let Some(rule) = rule_of(&err) {
                    let detail = format!("event {e}: {err}");
                    self.violations.push(Violation::new(rule, detail));
                }
            }
            Ok(Pairing::Await {
                begin,
                advance,
                needs_advance,
            }) => {
                self.law(e, "await-begin-before-end", begin);
                match advance {
                    Some(adv) => self.law(e, "await-order-preserved", adv),
                    None if needs_advance => self.violations.push(Violation::new(
                        "await-order-preserved",
                        format!("event {e} has no advance earlier in the report"),
                    )),
                    None => {}
                }
            }
            Ok(Pairing::BarrierExit { last_enter }) => {
                self.law(e, "barrier-exit-order", last_enter)
            }
            Ok(Pairing::Blocked { dep: Some(dep) }) => self.law(e, "episode-order-preserved", dep),
            Ok(Pairing::TaskBegin { spawn }) => self.law(e, "episode-order-preserved", spawn),
            Ok(Pairing::None | Pairing::Blocked { dep: None }) => {}
        }
    }

    /// Flags `e` under `rule` if its ta precedes `bound`, the ta of the
    /// event it waited for.
    fn law(&mut self, e: &Event, rule: &'static str, bound: Time) {
        if e.time < bound {
            let detail = format!("event {e} precedes the event it waited for, at {bound}");
            self.violations.push(Violation::new(rule, detail));
        }
    }

    /// Closes the stream and returns every violation found.
    pub fn finish(mut self) -> Vec<Violation> {
        for err in self.sync.finish() {
            if let Some(rule) = rule_of(&err) {
                self.violations.push(Violation::new(rule, err.to_string()));
            }
        }
        self.violations
    }
}
