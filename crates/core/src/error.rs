//! Analysis errors.

use ppa_trace::TraceError;
use std::fmt;

/// Failure of a perturbation analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The measured trace failed validation / synchronization pairing.
    Trace(TraceError),
    /// The event dependency graph contains a cycle — the measured trace
    /// cannot have come from a real execution.
    CyclicDependencies {
        /// Number of events left unresolved when progress stopped.
        unresolved: usize,
    },
    /// The analysis needs synchronization events but the trace has none
    /// (e.g. event-based analysis of a statements-only instrumentation).
    NoSyncEvents,
    /// Liberal analysis could not segment the trace into iterations (a
    /// processor's events do not follow the program's body structure).
    UnrecognizedStructure {
        /// Description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Trace(e) => write!(f, "invalid trace: {e}"),
            AnalysisError::CyclicDependencies { unresolved } => {
                write!(
                    f,
                    "event dependencies are cyclic ({unresolved} events unresolved)"
                )
            }
            AnalysisError::NoSyncEvents => {
                write!(
                    f,
                    "event-based analysis requires synchronization events in the trace"
                )
            }
            AnalysisError::UnrecognizedStructure { detail } => {
                write!(f, "trace does not match the program structure: {detail}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<TraceError> for AnalysisError {
    fn from(e: TraceError) -> Self {
        AnalysisError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = AnalysisError::CyclicDependencies { unresolved: 3 };
        assert!(e.to_string().contains("3 events"));
        assert!(AnalysisError::NoSyncEvents
            .to_string()
            .contains("synchronization"));
    }

    #[test]
    fn from_trace_error() {
        let te = TraceError::NotTotallyOrdered { position: 1 };
        let ae: AnalysisError = te.clone().into();
        assert_eq!(ae, AnalysisError::Trace(te));
    }
}
