//! Execution statistics gathered during simulation.
//!
//! Stats are byproducts of the run, not of trace analysis — for an
//! uninstrumented run they are the *ground truth* the paper could not
//! observe directly, which the integration tests compare analysis results
//! against.

use ppa_trace::{LoopId, ProcessorId, Span, Time};
use serde::{Deserialize, Serialize};

/// Per-processor accounting within one loop execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcStats {
    /// Time spent computing (statement costs, sync processing, dispatch).
    pub busy: Span,
    /// Time spent blocked in `await` operations.
    pub sync_wait: Span,
    /// Time spent blocked at the loop-end barrier.
    pub barrier_wait: Span,
    /// Iterations executed.
    pub iterations: u64,
}

impl ProcStats {
    /// Total waiting (sync + barrier).
    pub fn total_wait(&self) -> Span {
        self.sync_wait + self.barrier_wait
    }
}

/// Statistics for one concurrent-loop execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopStats {
    /// Which loop.
    pub loop_id: LoopId,
    /// Time the loop was entered (dispatch start).
    pub start: Time,
    /// Time the closing barrier released.
    pub end: Time,
    /// Per-processor accounting (index = processor id).
    pub per_proc: Vec<ProcStats>,
    /// Iteration-to-processor assignment actually used.
    pub assignment: Vec<ProcessorId>,
}

impl LoopStats {
    /// Wall-clock span of the loop.
    pub fn span(&self) -> Span {
        self.end.saturating_since(self.start)
    }

    /// Aggregate waiting across processors.
    pub fn total_wait(&self) -> Span {
        self.per_proc.iter().map(ProcStats::total_wait).sum()
    }
}

/// Statistics for one whole simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SimStats {
    /// Per-loop statistics, in execution order (concurrent loops only).
    pub loops: Vec<LoopStats>,
    /// Events emitted.
    pub events: usize,
    /// Total instrumentation overhead charged (zero for actual runs).
    pub instr_overhead: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stats_sum() {
        let p = ProcStats {
            busy: Span::from_nanos(10),
            sync_wait: Span::from_nanos(3),
            barrier_wait: Span::from_nanos(4),
            iterations: 2,
        };
        assert_eq!(p.total_wait(), Span::from_nanos(7));
    }

    #[test]
    fn loop_stats_span_and_lookup() {
        let ls = LoopStats {
            loop_id: LoopId(3),
            start: Time::from_nanos(100),
            end: Time::from_nanos(150),
            per_proc: vec![ProcStats::default(); 2],
            assignment: vec![],
        };
        assert_eq!(ls.span(), Span::from_nanos(50));
    }
}
