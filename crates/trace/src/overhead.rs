//! Instrumentation and synchronization overhead specification.
//!
//! Perturbation analysis takes measured instrumentation costs as input
//! ("the overheads `s_nowait` and `s_wait` are empirically determined and
//! are input to the perturbation analysis", §4.2.3). [`OverheadSpec`]
//! bundles every such constant:
//!
//! - per-event *instrumentation* overheads — the cost of executing the
//!   tracing code that records each event kind (the paper's α for
//!   `advance`, β for `awaitB`, plus the generic statement-event cost);
//! - *synchronization processing* overheads — the cost of the await
//!   operation itself in its two outcomes (`s_nowait`, `s_wait`) and the
//!   barrier release cost, which are properties of the synchronization
//!   implementation rather than of the instrumentation.

use crate::event::EventKind;
use crate::time::Span;
use serde::{Deserialize, Serialize};

/// Which instrumentation overhead of an [`OverheadSpec`] pays for
/// recording an event kind: the overhead column of the kind table
/// ([`KindCode::overhead_class`](crate::KindCode::overhead_class)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadClass {
    /// [`OverheadSpec::statement_event`].
    Statement,
    /// [`OverheadSpec::marker_event`].
    Marker,
    /// [`OverheadSpec::advance_instr`] (α).
    Advance,
    /// [`OverheadSpec::await_begin_instr`] (β).
    AwaitBegin,
    /// [`OverheadSpec::await_end_instr`].
    AwaitEnd,
    /// [`OverheadSpec::barrier_instr`].
    Barrier,
}

impl OverheadClass {
    /// Every class, in [`OverheadSpec`] field order.
    pub const ALL: [OverheadClass; 6] = [
        OverheadClass::Statement,
        OverheadClass::Marker,
        OverheadClass::Advance,
        OverheadClass::AwaitBegin,
        OverheadClass::AwaitEnd,
        OverheadClass::Barrier,
    ];
}

/// All timing constants fed to the perturbation models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadSpec {
    /// Instrumentation overhead of recording a statement event.
    pub statement_event: Span,
    /// Instrumentation overhead of recording structural markers
    /// (program/loop/iteration begin/end).
    pub marker_event: Span,
    /// Instrumentation overhead of recording an `advance` event (α).
    pub advance_instr: Span,
    /// Instrumentation overhead of recording an `awaitB` event (β).
    pub await_begin_instr: Span,
    /// Instrumentation overhead of recording an `awaitE` event.
    pub await_end_instr: Span,
    /// Instrumentation overhead of recording a barrier enter/exit event.
    pub barrier_instr: Span,
    /// Synchronization processing cost of an `await` that finds its tag
    /// already advanced (the paper's `s_nowait`).
    pub s_nowait: Span,
    /// Synchronization processing cost of an `await` that had to wait,
    /// counted from the moment the advance occurs to the await's
    /// completion (the paper's `s_wait`).
    pub s_wait: Span,
    /// Processing cost of the `advance` operation itself.
    pub advance_op: Span,
    /// Barrier release cost: from last arrival to each participant's exit.
    pub barrier_release: Span,
}

impl OverheadSpec {
    /// A specification with every constant zero — instrumentation that
    /// costs nothing. Under this spec a measured trace *is* the actual
    /// trace, which property tests exploit.
    pub const ZERO: OverheadSpec = OverheadSpec {
        statement_event: Span::ZERO,
        marker_event: Span::ZERO,
        advance_instr: Span::ZERO,
        await_begin_instr: Span::ZERO,
        await_end_instr: Span::ZERO,
        barrier_instr: Span::ZERO,
        s_nowait: Span::ZERO,
        s_wait: Span::ZERO,
        advance_op: Span::ZERO,
        barrier_release: Span::ZERO,
    };

    /// Overheads representative of the paper's software tracing on the
    /// Alliant FX/80: event recording cost of a few microseconds, sync
    /// processing well below a microsecond. These defaults put full
    /// statement-level instrumentation of the Livermore loops in the
    /// 2–16× slowdown regime reported in Figure 1 and Tables 1–2 (the
    /// workload statement costs in `ppa-lfk` are calibrated against this
    /// spec).
    pub fn alliant_default() -> OverheadSpec {
        OverheadSpec {
            statement_event: Span::from_nanos(4_500),
            marker_event: Span::from_nanos(3_000),
            advance_instr: Span::from_nanos(5_000),
            await_begin_instr: Span::from_nanos(5_000),
            await_end_instr: Span::from_nanos(3_800),
            barrier_instr: Span::from_nanos(3_000),
            s_nowait: Span::from_nanos(200),
            s_wait: Span::from_nanos(400),
            advance_op: Span::from_nanos(100),
            barrier_release: Span::from_nanos(900),
        }
    }

    /// A uniform spec: every instrumentation overhead is `cost`, all
    /// synchronization processing costs are zero. Convenient in unit tests
    /// where only the instrumentation term matters.
    pub fn uniform(cost: Span) -> OverheadSpec {
        OverheadSpec {
            statement_event: cost,
            marker_event: cost,
            advance_instr: cost,
            await_begin_instr: cost,
            await_end_instr: cost,
            barrier_instr: cost,
            s_nowait: Span::ZERO,
            s_wait: Span::ZERO,
            advance_op: Span::ZERO,
            barrier_release: Span::ZERO,
        }
    }

    /// The instrumentation overhead charged for recording one event of the
    /// given kind: the field its kind-table row names. This is the amount
    /// the perturbation models subtract per event.
    #[inline]
    pub fn instr_overhead(&self, kind: &EventKind) -> Span {
        match kind.code().overhead_class() {
            Some(class) => self.instr_cost(class),
            None => Span::ZERO,
        }
    }

    /// The field that holds the instrumentation overhead of `class`.
    pub fn instr_cost_mut(&mut self, class: OverheadClass) -> &mut Span {
        match class {
            OverheadClass::Statement => &mut self.statement_event,
            OverheadClass::Marker => &mut self.marker_event,
            OverheadClass::Advance => &mut self.advance_instr,
            OverheadClass::AwaitBegin => &mut self.await_begin_instr,
            OverheadClass::AwaitEnd => &mut self.await_end_instr,
            OverheadClass::Barrier => &mut self.barrier_instr,
        }
    }

    /// The instrumentation overhead of one [`OverheadClass`].
    #[inline]
    pub fn instr_cost(mut self, class: OverheadClass) -> Span {
        *self.instr_cost_mut(class)
    }

    /// Scales every instrumentation overhead by `factor` (synchronization
    /// processing costs are machine properties and stay fixed). Used by the
    /// overhead-sensitivity ablation.
    pub fn scale_instrumentation(mut self, factor: f64) -> OverheadSpec {
        for class in OverheadClass::ALL {
            let cost = self.instr_cost_mut(class);
            *cost = cost.scale_f64(factor);
        }
        self
    }

    /// True if every instrumentation overhead is zero.
    pub fn is_instrumentation_free(&self) -> bool {
        OverheadClass::ALL
            .into_iter()
            .all(|class| self.instr_cost(class).is_zero())
    }
}

impl Default for OverheadSpec {
    fn default() -> Self {
        OverheadSpec::alliant_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spec_is_instrumentation_free() {
        assert!(OverheadSpec::ZERO.is_instrumentation_free());
        assert!(!OverheadSpec::alliant_default().is_instrumentation_free());
    }

    #[test]
    fn scaling_touches_only_instrumentation() {
        let spec = OverheadSpec::alliant_default();
        let doubled = spec.scale_instrumentation(2.0);
        assert_eq!(doubled.statement_event, spec.statement_event * 2);
        assert_eq!(doubled.advance_instr, spec.advance_instr * 2);
        assert_eq!(doubled.s_wait, spec.s_wait);
        assert_eq!(doubled.s_nowait, spec.s_nowait);
        assert_eq!(doubled.barrier_release, spec.barrier_release);

        let zeroed = spec.scale_instrumentation(0.0);
        assert!(zeroed.is_instrumentation_free());
        assert_eq!(zeroed.s_wait, spec.s_wait);
    }

    #[test]
    fn uniform_spec() {
        let spec = OverheadSpec::uniform(Span::from_nanos(100));
        assert_eq!(spec.statement_event, Span::from_nanos(100));
        assert_eq!(spec.barrier_instr, Span::from_nanos(100));
        assert_eq!(spec.s_wait, Span::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let spec = OverheadSpec::alliant_default();
        let json = serde_json::to_string(&spec).unwrap();
        let back: OverheadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
