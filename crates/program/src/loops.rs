//! Loop constructs.
//!
//! The Alliant FX/Fortran compiler classified loops as scalar, vector, or
//! concurrent; concurrent loops without cross-iteration dependencies run
//! as DOALL, those with dependencies as DOACROSS with advance/await
//! synchronization (Cytron's construct, §4.3). The model mirrors that
//! classification.

use crate::statement::{Statement, StatementKind};
use ppa_trace::{BarrierId, LoopId};
use serde::{Deserialize, Serialize};

/// How a loop's iterations may execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopKind {
    /// Iterations run in order on one processor.
    Sequential,
    /// Vector-mode execution: in-order on one processor with hardware
    /// pipelining, modeled as a per-iteration cost scale (per mille).
    /// `Vector { speedup_permille: 4000 }` runs each iteration at a quarter
    /// of its scalar cost.
    Vector {
        /// Scalar-to-vector speedup, in thousandths (1000 = no speedup).
        speedup_permille: u32,
    },
    /// Fully independent concurrent iterations.
    Doall,
    /// Concurrent iterations with constant-distance cross-iteration
    /// dependencies enforced by advance/await.
    Doacross {
        /// The constant data dependence distance `d`: iteration `i + d`
        /// depends on iteration `i`.
        distance: u64,
    },
}

impl LoopKind {
    /// True for DOALL/DOACROSS (multi-processor) loops.
    pub fn is_concurrent(&self) -> bool {
        matches!(self, LoopKind::Doall | LoopKind::Doacross { .. })
    }

    /// The dependence distance, if this is a DOACROSS loop.
    pub fn distance(&self) -> Option<u64> {
        match self {
            LoopKind::Doacross { distance } => Some(*distance),
            _ => None,
        }
    }
}

/// A (non-nested) loop: a body of statements executed `trip_count` times.
///
/// Concurrent loops end at an implicit barrier (`barrier`), matching the
/// paper's treatment: "the end of the DOACROSS loops are handled as
/// barriers" (§5.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// Unique loop id.
    pub id: LoopId,
    /// Iteration semantics.
    pub kind: LoopKind,
    /// Number of iterations.
    pub trip_count: u64,
    /// The loop body, executed once per iteration.
    pub body: Vec<Statement>,
    /// The barrier closing the loop (meaningful for concurrent loops).
    pub barrier: BarrierId,
}

impl Loop {
    /// Sum of body compute costs for one iteration, in cycles.
    pub fn iteration_cost(&self) -> u64 {
        self.body.iter().map(Statement::cost).sum()
    }

    /// Compute cost of the body *before* the first await statement — the
    /// independent-phase length, which controls critical-section
    /// contention.
    pub fn pre_await_cost(&self) -> u64 {
        self.body
            .iter()
            .take_while(|s| !matches!(s.kind, StatementKind::Await { .. }))
            .map(Statement::cost)
            .sum()
    }

    /// Compute cost of statements between the first await and the first
    /// subsequent advance — the critical-section length.
    pub fn critical_cost(&self) -> u64 {
        let mut in_cs = false;
        let mut cost = 0;
        for s in &self.body {
            match s.kind {
                StatementKind::Await { .. } if !in_cs => in_cs = true,
                StatementKind::Advance { .. } if in_cs => return cost,
                _ if in_cs => cost += s.cost(),
                _ => {}
            }
        }
        cost
    }

    /// The synchronization statements in the body, in order.
    pub fn sync_statements(&self) -> impl Iterator<Item = &Statement> + '_ {
        self.body.iter().filter(|s| s.kind.is_sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{StatementId, SyncVarId};

    fn doacross_body() -> Vec<Statement> {
        vec![
            Statement::compute(StatementId(0), "head", 100),
            Statement::await_on(StatementId(1), "await", SyncVarId(0), -1),
            Statement::compute(StatementId(2), "cs", 30),
            Statement::advance(StatementId(3), "advance", SyncVarId(0)),
            Statement::compute(StatementId(4), "tail", 70),
        ]
    }

    fn sample_loop() -> Loop {
        Loop {
            id: LoopId(0),
            kind: LoopKind::Doacross { distance: 1 },
            trip_count: 10,
            body: doacross_body(),
            barrier: BarrierId(0),
        }
    }

    #[test]
    fn cost_partitions() {
        let l = sample_loop();
        assert_eq!(l.iteration_cost(), 200);
        assert_eq!(l.pre_await_cost(), 100);
        assert_eq!(l.critical_cost(), 30);
        assert_eq!(l.sync_statements().count(), 2);
    }

    #[test]
    fn kind_predicates() {
        assert!(LoopKind::Doall.is_concurrent());
        assert!(LoopKind::Doacross { distance: 2 }.is_concurrent());
        assert!(!LoopKind::Sequential.is_concurrent());
        assert!(!LoopKind::Vector {
            speedup_permille: 4000
        }
        .is_concurrent());
        assert_eq!(LoopKind::Doacross { distance: 2 }.distance(), Some(2));
        assert_eq!(LoopKind::Doall.distance(), None);
    }

    #[test]
    fn critical_cost_without_cs_is_zero() {
        let l = Loop {
            id: LoopId(1),
            kind: LoopKind::Doall,
            trip_count: 4,
            body: vec![Statement::compute(StatementId(0), "only", 50)],
            barrier: BarrierId(1),
        };
        assert_eq!(l.critical_cost(), 0);
        assert_eq!(l.pre_await_cost(), 50);
    }
}
