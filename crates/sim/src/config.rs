//! Simulator configuration.

use ppa_trace::{ClockRate, OverheadSpec};
use serde::{Deserialize, Serialize};

/// How iterations of a concurrent loop are handed to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulePolicy {
    /// Iteration `i` runs on processor `i mod P` — the Alliant
    /// concurrency-bus dispatch for simple concurrent loops, and the
    /// default everywhere.
    #[default]
    StaticCyclic,
    /// Iterations are split into `ceil(n/P)` contiguous blocks, block `b`
    /// on processor `b`.
    StaticBlock,
    /// A processor takes the next undispatched iteration the moment it
    /// becomes idle. Instrumentation can change the resulting
    /// iteration-to-processor mapping — the work-reassignment effect the
    /// paper's §4.2.3 discusses as invisible to conservative analysis.
    SelfScheduled,
}

/// Per-statement execution-time jitter.
///
/// Real machines perturb statement costs through memory and bus
/// contention; the simulator models that with a deterministic,
/// *schedule-independent* jitter: the cost of statement `s` in iteration
/// `i` of loop `l` is scaled by a factor drawn from a hash of
/// `(seed, l, i, s)`. Because the draw ignores simulation state, the same
/// statement execution costs the same in instrumented and uninstrumented
/// runs — jitter perturbs the workload, not the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitterConfig {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Maximum deviation from the nominal cost, in per mille.
    /// `amplitude_permille: 200` scales costs by a factor in [0.8, 1.2].
    pub amplitude_permille: u32,
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of processors (the FX/80 had 8 computational elements).
    pub processors: usize,
    /// Cycle-to-wall-time conversion.
    pub clock: ClockRate,
    /// Instrumentation and synchronization timing constants.
    pub overheads: OverheadSpec,
    /// Iteration dispatch policy for concurrent loops.
    pub schedule: SchedulePolicy,
    /// Cycles charged to a processor for picking up one iteration
    /// (concurrency-bus dispatch cost).
    pub dispatch_cycles: u64,
    /// Optional statement-cost jitter.
    pub jitter: Option<JitterConfig>,
}

impl SimConfig {
    /// The reproduction's reference machine: 8 processors at the FX/80
    /// clock with the calibrated Alliant overhead set, static-cyclic
    /// dispatch, no jitter.
    pub fn alliant_fx80() -> Self {
        SimConfig {
            processors: 8,
            clock: ClockRate::ALLIANT_FX80,
            overheads: OverheadSpec::alliant_default(),
            schedule: SchedulePolicy::StaticCyclic,
            dispatch_cycles: 6,
            jitter: None,
        }
    }

    /// Replaces the overhead specification.
    pub fn with_overheads(mut self, overheads: OverheadSpec) -> Self {
        self.overheads = overheads;
        self
    }

    /// Replaces the schedule policy.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Replaces the processor count.
    pub fn with_processors(mut self, processors: usize) -> Self {
        self.processors = processors;
        self
    }

    /// Enables statement-cost jitter.
    pub fn with_jitter(mut self, seed: u64, amplitude_permille: u32) -> Self {
        self.jitter = Some(JitterConfig {
            seed,
            amplitude_permille,
        });
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::alliant_fx80()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_reference_machine() {
        let c = SimConfig::default();
        assert_eq!(c.processors, 8);
        assert_eq!(c.schedule, SchedulePolicy::StaticCyclic);
        assert!(c.jitter.is_none());
    }

    #[test]
    fn builder_helpers() {
        let c = SimConfig::alliant_fx80()
            .with_processors(4)
            .with_schedule(SchedulePolicy::SelfScheduled)
            .with_jitter(42, 100);
        assert_eq!(c.processors, 4);
        assert_eq!(c.schedule, SchedulePolicy::SelfScheduled);
        assert_eq!(
            c.jitter,
            Some(JitterConfig {
                seed: 42,
                amplitude_permille: 100
            })
        );
    }
}
