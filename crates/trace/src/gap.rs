//! Typed records of trace data lost during lenient decoding.
//!
//! Strict readers fail fast: the first CRC mismatch, malformed record, or
//! truncation aborts the stream. Lenient readers (see
//! [`AnyTraceReader::set_lenient`](crate::AnyTraceReader::set_lenient))
//! instead skip the damaged region and keep going, recording one
//! [`TraceGap`] per region so nothing is lost silently: every event the
//! reader could not deliver is accounted for in exactly one gap.
//!
//! Gaps carry whatever the damaged region's framing still reveals — for
//! the binary format the frame summary survives a payload CRC failure, so
//! the gap reports the exact event count and the seq/time span lost; for
//! JSONL a malformed line is a single lost event of unknown seq and time.

use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Why a region of a trace could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapCause {
    /// A binary block's payload failed its CRC32 check.
    CrcMismatch,
    /// A binary block's payload passed its CRC but did not decode to the
    /// events its frame promised (a writer bug or in-frame corruption).
    MalformedPayload,
    /// A binary block frame was implausible (zero or oversized count or
    /// payload length). The frame cannot be trusted to locate the next
    /// block, so lenient decoding ends at this point.
    MalformedFrame,
    /// The input ended inside a block whose frame was already read; the
    /// frame summary still tells how many events the block held.
    TruncatedBlock,
    /// The input ended before delivering the header's declared event
    /// count (mid-frame, or cleanly but short).
    TruncatedStream,
    /// A JSONL line failed to parse as an event.
    MalformedLine,
}

impl std::fmt::Display for GapCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GapCause::CrcMismatch => "crc-mismatch",
            GapCause::MalformedPayload => "malformed-payload",
            GapCause::MalformedFrame => "malformed-frame",
            GapCause::TruncatedBlock => "truncated-block",
            GapCause::TruncatedStream => "truncated-stream",
            GapCause::MalformedLine => "malformed-line",
        })
    }
}

/// One contiguous region of a trace that lenient decoding skipped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceGap {
    /// Where the gap sits: the 1-based block index for the binary format,
    /// or the 1-based line number for JSONL.
    pub block: usize,
    /// How many events the gap swallowed. Exact when the block frame
    /// survived; `0` when the loss is unknowable (e.g. a truncated stream
    /// whose header declared an advisory count of zero).
    pub events: u64,
    /// Sequence number of the first lost event, when the framing
    /// recorded it.
    pub first_seq: Option<u64>,
    /// Sequence number of the last lost event, when known.
    pub last_seq: Option<u64>,
    /// Timestamp of the first lost event, when known.
    pub first_time: Option<Time>,
    /// Timestamp of the last lost event, when known.
    pub last_time: Option<Time>,
    /// Why the region could not be decoded.
    pub cause: GapCause,
}

impl TraceGap {
    /// A gap whose framing tells nothing of the events it lost but
    /// their count: a malformed JSONL line, or a stream cut short.
    pub(crate) fn unframed(block: usize, events: u64, cause: GapCause) -> TraceGap {
        TraceGap {
            block,
            events,
            first_seq: None,
            last_seq: None,
            first_time: None,
            last_time: None,
            cause,
        }
    }
}

impl std::fmt::Display for TraceGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gap at block {}: {} event(s) lost ({})",
            self.block, self.events, self.cause
        )?;
        if let (Some(a), Some(b)) = (self.first_seq, self.last_seq) {
            write!(f, ", seq {a}..={b}")?;
        }
        if let (Some(a), Some(b)) = (self.first_time, self.last_time) {
            write!(f, ", time {}ns..={}ns", a.as_nanos(), b.as_nanos())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_display_mentions_span_and_cause() {
        let gap = TraceGap {
            block: 3,
            events: 64,
            first_seq: Some(128),
            last_seq: Some(191),
            first_time: Some(Time::from_nanos(10)),
            last_time: Some(Time::from_nanos(600)),
            cause: GapCause::CrcMismatch,
        };
        let s = gap.to_string();
        assert!(s.contains("block 3"), "{s}");
        assert!(s.contains("64 event(s)"), "{s}");
        assert!(s.contains("crc-mismatch"), "{s}");
        assert!(s.contains("seq 128..=191"), "{s}");
    }

    #[test]
    fn gap_round_trips_through_serde() {
        let gap = TraceGap {
            block: 7,
            events: 12,
            first_seq: None,
            last_seq: None,
            first_time: None,
            last_time: None,
            cause: GapCause::TruncatedStream,
        };
        let text = serde_json::to_string(&gap).unwrap();
        let back: TraceGap = serde_json::from_str(&text).unwrap();
        assert_eq!(gap, back);
    }
}
