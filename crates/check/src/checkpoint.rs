//! Checkpoint-file lint: validates a `PPACKPT2` incremental chain the
//! way `--resume` would read it, but reports *everything* wrong instead
//! of silently tolerating a torn tail. `ppa analyze --resume` prefers
//! availability (longest valid prefix); an operator running `ppa check`
//! over a checkpoint tree wants to know the tail was torn before
//! trusting the file for disaster recovery.

use crate::Violation;
use ppa_core::{scan_checkpoint, CheckpointError};
use std::path::Path;

/// What `lint_checkpoint` found, alongside any violations: enough for
/// the CLI to print a one-line summary mirroring the trace-lint path.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLint {
    /// Delta records applied on top of the full snapshot.
    pub delta_records: usize,
    /// Input positions the checkpoint claims to have consumed.
    pub positions_seen: u64,
}

/// True when `bytes` begin with a checkpoint magic (of any container
/// version, so a retired one is linted as corrupt, not as a trace) —
/// the sniff `ppa check` uses to route a file to [`lint_checkpoint`]
/// instead of the trace linter.
pub fn is_checkpoint_magic(bytes: &[u8]) -> bool {
    bytes.starts_with(b"PPACKPT")
}

/// Lints the checkpoint file at `path`. I/O failures (missing file,
/// permission) are returned as `Err`; everything wrong with the bytes
/// themselves comes back as violations so one run reports them all.
pub fn lint_checkpoint(path: &Path) -> Result<(CheckpointLint, Vec<Violation>), String> {
    let mut lint = CheckpointLint::default();
    let mut violations = Vec::new();
    match scan_checkpoint(path) {
        Ok(scan) => {
            lint.delta_records = scan.delta_records;
            lint.positions_seen = scan.checkpoint.positions_seen;
            if let Some(reason) = scan.torn_tail {
                violations.push(Violation {
                    rule: "checkpoint-torn-tail",
                    detail: format!(
                        "chain tail is torn or corrupt ({reason}); resume falls back \
                         to the last {} valid record(s)",
                        1 + scan.delta_records
                    ),
                });
            }
        }
        Err(CheckpointError::Corrupt(m)) => violations.push(Violation {
            rule: "checkpoint-corrupt",
            detail: format!("v2 chain does not reassemble: {m}"),
        }),
        Err(e @ CheckpointError::FutureVersion { .. }) => violations.push(Violation {
            rule: "checkpoint-future-version",
            detail: e.to_string(),
        }),
        Err(CheckpointError::Io(e)) => return Err(format!("{}: {e}", path.display())),
    }
    Ok((lint, violations))
}
