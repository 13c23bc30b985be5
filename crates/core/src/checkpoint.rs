//! Crash-safe checkpoint files for streaming analyses.
//!
//! A checkpoint captures everything a killed `--stream` analysis needs to
//! continue as if it had never stopped:
//!
//! - the [`AnalyzerSnapshot`] — the streaming analyzer's complete state;
//! - the *input cursor* — how many stream positions (delivered events
//!   plus leniently skipped ones) the reader had consumed, so a resumed
//!   run can seek past exactly that prefix;
//! - the decode-gap record so far ([`TraceGap`]s and the lost-event
//!   total), so losses before the kill stay accounted for;
//! - an optional [`ReorderSnapshot`] holding a reorder buffer's
//!   not-yet-released tail;
//! - the [`SinkState`] — how many bytes of report output were durably
//!   flushed, and the output-side counters, so the resumed run can
//!   truncate a torn tail and append from a clean edge.
//!
//! # File format
//!
//! Checkpoints are written on a cadence while the stream is hot, and the
//! analyzer state they carry grows with the trace's live synchronization
//! history: rewriting the whole snapshot every cadence costs time
//! proportional to the *trace so far*, which measured as ~31% of
//! analysis time at the default cadence. [`DeltaCheckpointWriter`]
//! amortizes it with an append-only record chain:
//!
//! ```text
//! offset  size  field
//! 0       8     magic+version  b"PPACKPT2"
//! 8       1     snapshot version (see [`SNAPSHOT_VERSION`])
//! --- then records, back to back ---
//! +0      1     kind: 0 = full snapshot, 1 = delta
//! +1      4     CRC-32 chained over (previous record's CRC ‖ payload)
//! +5      8     payload length in bytes (little endian)
//! +13     n     payload
//! ```
//!
//! The first record is always a full [`Checkpoint`], written to a
//! sibling temporary file, synced, then renamed into place — so a crash
//! mid-checkpoint leaves the previous chain intact, and at every instant
//! the path holds *some* complete, valid checkpoint (or none).
//! Subsequent [`CheckpointDelta`] records are appended and fsynced in
//! place. Payloads are a compact binary encoding of the record's serde
//! value tree ([`value_codec`]: tag bytes, LEB128 varints, roughly a
//! third of the equivalent JSON) and share one persistent intern table,
//! so a delta re-sends no string the chain has already carried. The CRC
//! chain (same polynomial as the binary trace codec; the previous
//! record's CRC is folded into the next record's CRC — [`crc32_chain`])
//! makes record order and identity tamper-evident: a torn or corrupt
//! tail is detected and [`read_checkpoint`] falls back to the longest
//! valid record prefix, which always includes the full snapshot. Every
//! [`DEFAULT_COMPACT_EVERY`] deltas the writer compacts the file back to
//! a single fresh full record.

use crate::streaming::{AnalyzerDelta, AnalyzerSnapshot, EventBasedAnalyzer};
use ppa_trace::{crc32_chain, ReorderSnapshot, Time, TraceGap};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a checkpoint file (the trailing digit is the
/// container version): one full-snapshot record followed by CRC-chained
/// delta records.
pub const CHECKPOINT_MAGIC_V2: &[u8; 8] = b"PPACKPT2";

/// The snapshot-format version byte following the `PPACKPT2` magic.
///
/// The container layout (record chain, CRCs) is versioned by the magic;
/// this byte versions the *analyzer state schema* inside the payloads.
/// Version 2 added lock/semaphore/fork-join episode state; version 3
/// carries that state as the rulebook's own tracker and the pending
/// validation error as one ranked error. A reader
/// refuses newer versions with the typed
/// [`CheckpointError::FutureVersion`] — resuming through a schema it
/// cannot represent would silently drop analysis state — and refuses
/// older ones (including pre-versioned chains, whose first byte is the
/// `0` full-record kind) as stale.
pub const SNAPSHOT_VERSION: u8 = 3;

/// Default number of delta records appended before
/// [`DeltaCheckpointWriter`] compacts the file back to one full
/// snapshot. Bounds both file growth and resume replay cost.
pub const DEFAULT_COMPACT_EVERY: usize = 16;

/// Default checkpoint cadence, in events consumed from the input: 256
/// binary blocks at the default block size, i.e. a snapshot every ~1M
/// events. A checkpoint serializes the analyzer's full live state, whose
/// size tracks the trace's synchronization history, so the cadence
/// trades snapshot cost against how much input a resumed run
/// re-analyzes (~1M events is about a second of pipeline time).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1 << 20;

/// Resumable state of an interrupted streaming analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The streaming analyzer's complete serialized state.
    pub analyzer: AnalyzerSnapshot,
    /// Stream positions the reader had consumed when the snapshot was
    /// taken: events delivered to the analyzer *plus* events lost to
    /// lenient decode gaps. A resumed run seeks the reader past exactly
    /// this many positions (`set_skip_events`), which in the binary
    /// format skips whole blocks by their frame summaries without
    /// decoding them.
    pub positions_seen: u64,
    /// Decode gaps recorded before the checkpoint.
    pub gaps: Vec<TraceGap>,
    /// Events lost to those gaps.
    pub events_lost: u64,
    /// The reorder buffer's held-back tail, when one was in use.
    pub reorder: Option<ReorderSnapshot>,
    /// Output-side accounting at the moment of the snapshot.
    pub sink: SinkState,
}

/// Output accounting stored in a [`Checkpoint`].
///
/// `bytes_flushed` is the durable frontier: the writer was flushed
/// immediately before the snapshot, so the first `bytes_flushed` bytes of
/// the report file correspond exactly to the analyzer state in the
/// checkpoint. Anything past that offset was written after the
/// checkpoint (and will be reproduced by the resumed run), so resume
/// truncates the file there and appends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkState {
    /// Bytes of report output durably flushed before the snapshot.
    pub bytes_flushed: u64,
    /// Approximated events written so far.
    pub events: u64,
    /// Await outcomes counted so far.
    pub awaits: u64,
    /// Barrier passages counted so far.
    pub barriers: u64,
    /// Lock/semaphore/task episode completions counted so far.
    pub episodes: u64,
    /// Highest approximated event time seen so far.
    pub last_time: Time,
}

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file is not a valid checkpoint: wrong magic or version, bad
    /// CRC, truncated payload, or malformed JSON.
    Corrupt(String),
    /// The checkpoint was written by a newer ppa whose snapshot schema
    /// this reader does not understand. The file is intact — resuming
    /// from it needs the release that wrote it, not a restart.
    FutureVersion {
        /// The snapshot version byte found in the file.
        found: u8,
        /// The newest version this reader supports.
        supported: u8,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::FutureVersion { found, supported } => write!(
                f,
                "checkpoint snapshot version {found} is newer than the supported \
                 version {supported}: resume with the ppa release that wrote it"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Reads and validates the checkpoint at `path`.
///
/// A torn or corrupt *tail* is tolerated: the state resumes from the
/// longest valid record prefix, which at minimum is the
/// atomically-written full snapshot. A wrong magic or an invalid full
/// record fails with [`CheckpointError::Corrupt`] — a resumed analysis
/// must start from a provably intact state or not at all.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    scan_checkpoint(path).map(|scan| scan.checkpoint)
}

// --- The record chain ----------------------------------------------------

/// Record kind byte: a full [`Checkpoint`] payload.
const REC_FULL: u8 = 0;
/// Record kind byte: a [`CheckpointDelta`] payload.
const REC_DELTA: u8 = 1;
/// Bytes in a record header: kind + CRC + payload length.
const REC_HEADER: usize = 1 + 4 + 8;

/// The state advanced by one incremental checkpoint record: the
/// analyzer's [`AnalyzerDelta`] plus fresh values of every cursor the
/// full [`Checkpoint`] carries. Gaps are carried as the records *added*
/// since the previous record — the rest of the fields are small scalars
/// replaced wholesale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointDelta {
    /// Incremental analyzer image.
    pub analyzer: AnalyzerDelta,
    /// Replaces [`Checkpoint::positions_seen`].
    pub positions_seen: u64,
    /// Appended to [`Checkpoint::gaps`].
    pub gaps_added: Vec<TraceGap>,
    /// Replaces [`Checkpoint::events_lost`].
    pub events_lost: u64,
    /// Replaces [`Checkpoint::reorder`].
    pub reorder: Option<ReorderSnapshot>,
    /// Replaces [`Checkpoint::sink`].
    pub sink: SinkState,
}

/// Everything a cadence checkpoint needs besides the analyzer itself.
/// `gaps` is the *complete* gap list so far; the writer tracks how many
/// it has already persisted and sends only the suffix in delta records.
#[derive(Debug)]
pub struct CheckpointParts<'a> {
    /// Stream positions consumed (delivered + leniently lost).
    pub positions_seen: u64,
    /// All decode gaps recorded so far, in stream order.
    pub gaps: &'a [TraceGap],
    /// Events lost to those gaps.
    pub events_lost: u64,
    /// The reorder buffer's held-back tail, when one is in use.
    pub reorder: Option<ReorderSnapshot>,
    /// Output-side accounting at the moment of the snapshot.
    pub sink: SinkState,
}

/// Writes a `PPACKPT2` incremental checkpoint chain (see the module
/// docs): a full snapshot first and on compaction, cheap CRC-chained
/// delta records in between. One writer instance serves one analysis
/// stream; its intern table, CRC chain, and gap cursor persist across
/// [`checkpoint`](Self::checkpoint) calls.
#[derive(Debug)]
pub struct DeltaCheckpointWriter {
    path: PathBuf,
    compact_every: usize,
    deltas_since_full: usize,
    has_base: bool,
    prev_crc: u32,
    intern: value_codec::InternTable,
    gaps_written: usize,
}

impl DeltaCheckpointWriter {
    /// A writer targeting `path`, compacting after `compact_every`
    /// consecutive delta records (0 means full snapshots only).
    pub fn new(path: impl Into<PathBuf>, compact_every: usize) -> Self {
        DeltaCheckpointWriter {
            path: path.into(),
            compact_every,
            deltas_since_full: 0,
            has_base: false,
            prev_crc: 0,
            intern: value_codec::InternTable::default(),
            gaps_written: 0,
        }
    }

    /// The checkpoint file this writer maintains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Takes one cadence checkpoint: a full atomic snapshot when the
    /// chain needs (re)anchoring, otherwise an appended delta record.
    /// On success the analyzer's dirty-advance set is cleared; on
    /// failure it is left intact, so the next attempt loses nothing.
    pub fn checkpoint(
        &mut self,
        analyzer: &mut EventBasedAnalyzer,
        parts: CheckpointParts<'_>,
    ) -> Result<(), CheckpointError> {
        let want_full = !self.has_base
            || (self.compact_every > 0 && self.deltas_since_full >= self.compact_every);
        if want_full {
            self.write_full(analyzer, &parts)?;
        } else {
            self.write_delta(analyzer, &parts)?;
        }
        analyzer.clear_advance_dirty();
        Ok(())
    }

    /// Atomically replaces the file with one full-snapshot record,
    /// resetting the CRC chain and the intern table.
    fn write_full(
        &mut self,
        analyzer: &EventBasedAnalyzer,
        parts: &CheckpointParts<'_>,
    ) -> Result<(), CheckpointError> {
        let _span = ppa_obs::span_enter(ppa_obs::Stage::CheckpointWrite);
        let cp = Checkpoint {
            analyzer: analyzer.snapshot(),
            positions_seen: parts.positions_seen,
            gaps: parts.gaps.to_vec(),
            events_lost: parts.events_lost,
            reorder: parts.reorder.clone(),
            sink: parts.sink,
        };
        let mut intern = value_codec::InternTable::default();
        let payload = value_codec::encode_append(&cp.serialize(), &mut intern);
        let crc = crc32_chain(0, &payload);
        let mut buf = Vec::with_capacity(9 + REC_HEADER + payload.len());
        buf.extend_from_slice(CHECKPOINT_MAGIC_V2);
        buf.push(SNAPSHOT_VERSION);
        push_record_header(&mut buf, REC_FULL, crc, payload.len());
        buf.extend_from_slice(&payload);

        let file_name = self
            .path
            .file_name()
            .ok_or_else(|| CheckpointError::Corrupt("checkpoint path has no file name".into()))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &self.path)?;

        self.has_base = true;
        self.deltas_since_full = 0;
        self.prev_crc = crc;
        self.intern = intern;
        self.gaps_written = parts.gaps.len();
        Ok(())
    }

    /// Appends one delta record to the existing chain.
    fn write_delta(
        &mut self,
        analyzer: &EventBasedAnalyzer,
        parts: &CheckpointParts<'_>,
    ) -> Result<(), CheckpointError> {
        let _span = ppa_obs::span_enter(ppa_obs::Stage::DeltaWrite);
        let gaps_added = parts.gaps.get(self.gaps_written..).unwrap_or_default();
        let delta = CheckpointDelta {
            analyzer: analyzer.delta_snapshot(),
            positions_seen: parts.positions_seen,
            gaps_added: gaps_added.to_vec(),
            events_lost: parts.events_lost,
            reorder: parts.reorder.clone(),
            sink: parts.sink,
        };
        // Encode against a copy of the intern table: a failed append
        // must not desynchronize the writer from the bytes on disk.
        let mut intern = self.intern.clone();
        let payload = value_codec::encode_append(&delta.serialize(), &mut intern);
        let crc = crc32_chain(self.prev_crc, &payload);
        let mut buf = Vec::with_capacity(REC_HEADER + payload.len());
        push_record_header(&mut buf, REC_DELTA, crc, payload.len());
        buf.extend_from_slice(&payload);

        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(&buf)?;
        f.sync_all()?;

        self.deltas_since_full += 1;
        self.prev_crc = crc;
        self.intern = intern;
        self.gaps_written = parts.gaps.len();
        Ok(())
    }
}

/// Validates the snapshot version byte of a `PPACKPT2` file (the magic
/// already matched) and returns the record-chain bytes after it.
fn check_snapshot_version(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    match bytes.get(8).copied() {
        None => Err(CheckpointError::Corrupt(
            "file ends after the magic: no snapshot version byte".into(),
        )),
        Some(v) if v > SNAPSHOT_VERSION => Err(CheckpointError::FutureVersion {
            found: v,
            supported: SNAPSHOT_VERSION,
        }),
        Some(v) if v < SNAPSHOT_VERSION => Err(CheckpointError::Corrupt(format!(
            "snapshot version {v} predates this analyzer's state schema \
             (version {SNAPSHOT_VERSION}): restart the stream to write a fresh checkpoint"
        ))),
        Some(_) => Ok(&bytes[9..]),
    }
}

fn push_record_header(buf: &mut Vec<u8>, kind: u8, crc: u32, len: usize) {
    buf.push(kind);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&(len as u64).to_le_bytes());
}

/// The result of walking a checkpoint's record chain.
#[derive(Debug)]
pub struct CheckpointScan {
    /// The resumable state: the full snapshot with every valid delta
    /// applied in order.
    pub checkpoint: Checkpoint,
    /// Delta records applied on top of the full snapshot.
    pub delta_records: usize,
    /// Why the walk stopped before the end of the file, if it did — a
    /// torn append or tail corruption. `read_checkpoint` tolerates this
    /// (falling back to the valid prefix); `ppa check` reports it.
    pub torn_tail: Option<String>,
}

/// Walks and validates the checkpoint at `path`, reporting how much of
/// the chain was intact. Fails if the file is not a `PPACKPT2`
/// checkpoint or its full-snapshot record is invalid.
pub fn scan_checkpoint(path: &Path) -> Result<CheckpointScan, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if !bytes.starts_with(CHECKPOINT_MAGIC_V2) {
        return Err(CheckpointError::Corrupt(
            "bad magic (not a PPACKPT2 checkpoint)".into(),
        ));
    }
    scan_records(check_snapshot_version(&bytes)?)
}

/// One parsed record: kind, payload, and the CRC that closed it.
fn next_record(bytes: &[u8], pos: usize, prev_crc: u32) -> Result<(u8, &[u8], u32), String> {
    let rest = &bytes[pos..];
    if rest.len() < REC_HEADER {
        return Err(format!(
            "{} trailing byte(s) at offset {pos}: shorter than a record header",
            rest.len()
        ));
    }
    let kind = rest[0];
    if kind != REC_FULL && kind != REC_DELTA {
        return Err(format!("unknown record kind {kind} at offset {pos}"));
    }
    let crc = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes"));
    let len = u64::from_le_bytes(rest[5..13].try_into().expect("8 bytes"));
    let payload = rest[REC_HEADER..].get(..len as usize).ok_or_else(|| {
        format!("record at offset {pos} promises {len} payload bytes, fewer remain")
    })?;
    if crc32_chain(prev_crc, payload) != crc {
        return Err(format!("record at offset {pos} fails its chained CRC"));
    }
    Ok((kind, payload, crc))
}

/// Walks the record chain in `bytes` (magic already stripped).
fn scan_records(bytes: &[u8]) -> Result<CheckpointScan, CheckpointError> {
    // Record 0 must be a valid full snapshot — it was written
    // atomically, so anything wrong with it is corruption, not a torn
    // append.
    let (kind, payload, mut prev_crc) =
        next_record(bytes, 0, 0).map_err(CheckpointError::Corrupt)?;
    if kind != REC_FULL {
        return Err(CheckpointError::Corrupt(
            "first record is not a full snapshot".into(),
        ));
    }
    let mut intern = value_codec::InternTable::default();
    let value = value_codec::decode_append(payload, &mut intern)
        .map_err(|e| CheckpointError::Corrupt(format!("full-snapshot payload encoding: {e}")))?;
    let mut checkpoint = Checkpoint::deserialize(&value)
        .map_err(|e| CheckpointError::Corrupt(format!("full-snapshot payload schema: {e}")))?;

    let mut pos = REC_HEADER + payload.len();
    let mut delta_records = 0usize;
    let mut torn_tail = None;
    while pos < bytes.len() {
        let step = next_record(bytes, pos, prev_crc).and_then(|(kind, payload, crc)| {
            if kind != REC_DELTA {
                return Err(format!(
                    "record at offset {pos}: full snapshot after the first record"
                ));
            }
            let value = value_codec::decode_append(payload, &mut intern)
                .map_err(|e| format!("delta at offset {pos}: payload encoding: {e}"))?;
            let delta = CheckpointDelta::deserialize(&value)
                .map_err(|e| format!("delta at offset {pos}: payload schema: {e}"))?;
            checkpoint
                .analyzer
                .apply_delta(&delta.analyzer)
                .map_err(|e| format!("delta at offset {pos}: {e}"))?;
            checkpoint.positions_seen = delta.positions_seen;
            checkpoint.gaps.extend(delta.gaps_added);
            checkpoint.events_lost = delta.events_lost;
            checkpoint.reorder = delta.reorder;
            checkpoint.sink = delta.sink;
            Ok((payload.len(), crc))
        });
        match step {
            Ok((payload_len, crc)) => {
                prev_crc = crc;
                pos += REC_HEADER + payload_len;
                delta_records += 1;
            }
            Err(reason) => {
                torn_tail = Some(reason);
                break;
            }
        }
    }
    Ok(CheckpointScan {
        checkpoint,
        delta_records,
        torn_tail,
    })
}

/// Compact binary encoding of a serde value tree.
///
/// Layout: the strings new to the chain's intern table (`varint count`,
/// then each string as `varint len` + UTF-8 bytes), followed by the
/// root value. A value is a
/// tag byte plus payload:
///
/// ```text
/// 0 null        1 false            2 true
/// 3 varint n    (non-negative integer)
/// 4 varint m    (negative integer -1 - m)
/// 5 8 bytes     (f64, little endian)
/// 6 varint id   (string, by table index)
/// 7 varint len, len values             (array)
/// 8 varint len, len (varint id, value) (object; keys by table index)
/// ```
///
/// Varints are LEB128. Interning makes the 65k-plus repetitions of field
/// names in a large analyzer snapshot cost two bytes each instead of the
/// quoted name, and the decoder materializes each name once.
mod value_codec {
    use serde::{Number, Value};
    use std::collections::HashMap;

    const T_NULL: u8 = 0;
    const T_FALSE: u8 = 1;
    const T_TRUE: u8 = 2;
    const T_POS: u8 = 3;
    const T_NEG: u8 = 4;
    const T_FLOAT: u8 = 5;
    const T_STR: u8 = 6;
    const T_ARR: u8 = 7;
    const T_OBJ: u8 = 8;

    fn put_varint(mut n: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// A string table that persists across [`encode_append`] /
    /// [`decode_append`] calls, so a chain of incremental records pays
    /// for each distinct string once; re-sending the table with every
    /// record would be pure churn when consecutive snapshots share
    /// almost all their strings.
    #[derive(Debug, Clone, Default)]
    pub struct InternTable {
        strings: Vec<String>,
        index: HashMap<String, u64>,
    }

    impl InternTable {
        fn intern(&mut self, s: &str) -> u64 {
            if let Some(&id) = self.index.get(s) {
                return id;
            }
            let id = self.strings.len() as u64;
            self.strings.push(s.to_string());
            self.index.insert(s.to_string(), id);
            id
        }

        fn push(&mut self, s: String) {
            let id = self.strings.len() as u64;
            self.index.insert(s.clone(), id);
            self.strings.push(s);
        }
    }

    fn put_value_interned(value: &Value, out: &mut Vec<u8>, table: &mut InternTable) {
        match value {
            Value::Null => out.push(T_NULL),
            Value::Bool(false) => out.push(T_FALSE),
            Value::Bool(true) => out.push(T_TRUE),
            Value::Number(Number::PosInt(n)) => {
                out.push(T_POS);
                put_varint(*n, out);
            }
            Value::Number(Number::NegInt(n)) => {
                out.push(T_NEG);
                put_varint(!(*n) as u64, out);
            }
            Value::Number(Number::Float(f)) => {
                out.push(T_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::String(s) => {
                out.push(T_STR);
                put_varint(table.intern(s), out);
            }
            Value::Array(items) => {
                out.push(T_ARR);
                put_varint(items.len() as u64, out);
                for item in items {
                    put_value_interned(item, out, table);
                }
            }
            Value::Object(pairs) => {
                out.push(T_OBJ);
                put_varint(pairs.len() as u64, out);
                for (key, item) in pairs {
                    put_varint(table.intern(key), out);
                    put_value_interned(item, out, table);
                }
            }
        }
    }

    /// Encodes a value tree against a persistent string table: the
    /// output's table section carries only the strings *new* to `table`
    /// (which is extended in place), and every string reference is a
    /// global table index. [`decode_append`] with the same table state
    /// inverts it.
    pub fn encode_append(root: &Value, table: &mut InternTable) -> Vec<u8> {
        let base = table.strings.len();
        let mut body = Vec::new();
        put_value_interned(root, &mut body, table);
        let new = &table.strings[base..];
        let mut out = Vec::with_capacity(body.len() + 16 * new.len() + 8);
        put_varint(new.len() as u64, &mut out);
        for s in new {
            put_varint(s.len() as u64, &mut out);
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&body);
        out
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn byte(&mut self) -> Result<u8, String> {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| format!("unexpected end at byte {}", self.pos))?;
            self.pos += 1;
            Ok(b)
        }

        fn varint(&mut self) -> Result<u64, String> {
            let mut n = 0u64;
            let mut shift = 0u32;
            loop {
                let b = self.byte()?;
                if shift >= 64 {
                    return Err("varint overflows u64".into());
                }
                n |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Ok(n);
                }
                shift += 7;
            }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&e| e <= self.bytes.len())
                .ok_or_else(|| format!("unexpected end at byte {}", self.pos))?;
            let slice = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        fn value(&mut self, strings: &[String]) -> Result<Value, String> {
            let lookup = |id: u64| -> Result<String, String> {
                strings
                    .get(id as usize)
                    .cloned()
                    .ok_or_else(|| format!("string id {id} out of table bounds"))
            };
            Ok(match self.byte()? {
                T_NULL => Value::Null,
                T_FALSE => Value::Bool(false),
                T_TRUE => Value::Bool(true),
                T_POS => Value::Number(Number::PosInt(self.varint()?)),
                T_NEG => Value::Number(Number::NegInt(!(self.varint()?) as i64)),
                T_FLOAT => {
                    let raw = self.take(8)?;
                    Value::Number(Number::Float(f64::from_le_bytes(
                        raw.try_into().expect("8 bytes"),
                    )))
                }
                T_STR => Value::String(lookup(self.varint()?)?),
                T_ARR => {
                    let len = self.varint()? as usize;
                    // Guard allocation against lying lengths: the items
                    // still have to fit in the remaining bytes (1+ each).
                    if len > self.bytes.len() - self.pos {
                        return Err(format!("array length {len} exceeds payload"));
                    }
                    let mut items = Vec::with_capacity(len);
                    for _ in 0..len {
                        items.push(self.value(strings)?);
                    }
                    Value::Array(items)
                }
                T_OBJ => {
                    let len = self.varint()? as usize;
                    if len > self.bytes.len() - self.pos {
                        return Err(format!("object length {len} exceeds payload"));
                    }
                    let mut pairs = Vec::with_capacity(len);
                    for _ in 0..len {
                        let key = lookup(self.varint()?)?;
                        pairs.push((key, self.value(strings)?));
                    }
                    Value::Object(pairs)
                }
                tag => return Err(format!("unknown value tag {tag}")),
            })
        }
    }

    /// Decodes a byte string produced by [`encode_append`] against the
    /// same prior table state, extending `table` with the record's new
    /// strings.
    pub fn decode_append(bytes: &[u8], table: &mut InternTable) -> Result<Value, String> {
        let mut cur = Cursor { bytes, pos: 0 };
        let count = cur.varint()? as usize;
        if count > bytes.len() {
            return Err(format!("string table length {count} exceeds payload"));
        }
        for _ in 0..count {
            let len = cur.varint()? as usize;
            let raw = cur.take(len)?;
            table.push(
                std::str::from_utf8(raw)
                    .map_err(|e| format!("string table entry is not UTF-8: {e}"))?
                    .to_string(),
            );
        }
        let value = cur.value(&table.strings)?;
        if cur.pos != bytes.len() {
            return Err(format!("trailing bytes at offset {}", cur.pos));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::EventBasedAnalyzer;
    use ppa_trace::OverheadSpec;

    #[test]
    fn value_codec_round_trips_nested_trees() {
        use serde::{Number, Value};
        let v = Value::Object(vec![
            (
                "a".to_string(),
                Value::Array(vec![
                    Value::Number(Number::PosInt(u64::MAX)),
                    Value::Number(Number::NegInt(i64::MIN)),
                    Value::Number(Number::NegInt(-1)),
                    Value::Number(Number::Float(1.25)),
                    Value::Null,
                    Value::Bool(true),
                    Value::Bool(false),
                ]),
            ),
            ("b".to_string(), Value::String("héllo \"w\\orld\"".into())),
            // Repeated keys and string values exercise interning.
            (
                "c".to_string(),
                Value::Array(vec![
                    Value::Object(vec![("b".to_string(), Value::String("b".into()))]),
                    Value::Object(vec![("b".to_string(), Value::String("b".into()))]),
                ]),
            ),
            ("empty_arr".to_string(), Value::Array(Vec::new())),
            ("empty_obj".to_string(), Value::Object(Vec::new())),
        ]);
        let fresh = super::value_codec::InternTable::default;
        let bytes = super::value_codec::encode_append(&v, &mut fresh());
        let back = super::value_codec::decode_append(&bytes, &mut fresh()).unwrap();
        assert_eq!(v, back);

        // Torn payloads are refused, not misread.
        for cut in 1..bytes.len() {
            assert!(super::value_codec::decode_append(&bytes[..cut], &mut fresh()).is_err());
        }
    }

    #[test]
    fn append_codec_extends_encode_exactly() {
        use serde::{Number, Value};
        let record = |n: u64| {
            Value::Object(vec![
                ("kind".to_string(), Value::String("delta".into())),
                ("n".to_string(), Value::Number(Number::PosInt(n))),
                (
                    "items".to_string(),
                    Value::Array(vec![Value::String("shared".into())]),
                ),
            ])
        };

        let mut enc = super::value_codec::InternTable::default();
        let first = super::value_codec::encode_append(&record(1), &mut enc);

        // A second record re-sends no string: its table section is the
        // single byte `varint 0`, and it decodes only against the
        // carried-over table.
        let second = super::value_codec::encode_append(&record(2), &mut enc);
        assert_eq!(second[0], 0, "no new strings in the second record");
        assert!(second.len() < first.len());

        let mut dec = super::value_codec::InternTable::default();
        assert_eq!(
            super::value_codec::decode_append(&first, &mut dec).unwrap(),
            record(1)
        );
        assert_eq!(
            super::value_codec::decode_append(&second, &mut dec).unwrap(),
            record(2)
        );
        // Without the prior table state the second record is undecodable.
        let mut empty = super::value_codec::InternTable::default();
        assert!(super::value_codec::decode_append(&second, &mut empty).is_err());
    }

    /// Drives a writer through full + delta + compaction records with
    /// evolving cursors and gap lists, checking the reassembled state
    /// after every write.
    #[test]
    fn delta_writer_chain_reads_back_and_compacts() {
        use ppa_trace::{GapCause, TraceGap};
        let dir = std::env::temp_dir().join("ppa-ckpt-delta-chain");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        let mut writer = DeltaCheckpointWriter::new(&path, 3);
        let mut gaps: Vec<TraceGap> = Vec::new();
        let mut sizes = Vec::new();
        for step in 1u64..=8 {
            if step % 2 == 0 {
                gaps.push(TraceGap {
                    block: step as usize,
                    events: step * 3,
                    first_seq: Some(step),
                    last_seq: None,
                    first_time: None,
                    last_time: None,
                    cause: GapCause::CrcMismatch,
                });
            }
            let parts = CheckpointParts {
                positions_seen: step * 100,
                gaps: &gaps,
                events_lost: step * 3,
                reorder: None,
                sink: SinkState {
                    bytes_flushed: step * 1000,
                    events: step * 9,
                    awaits: step,
                    barriers: 0,
                    episodes: step * 2,
                    last_time: Time::from_nanos(step * 7),
                },
            };
            writer.checkpoint(&mut analyzer, parts).unwrap();
            sizes.push(std::fs::metadata(&path).unwrap().len());

            let back = read_checkpoint(&path).unwrap();
            assert_eq!(back.positions_seen, step * 100, "step {step}");
            assert_eq!(back.gaps.len(), gaps.len(), "step {step}");
            assert_eq!(back.gaps, gaps, "step {step}");
            assert_eq!(back.events_lost, step * 3, "step {step}");
            assert_eq!(back.sink.bytes_flushed, step * 1000, "step {step}");
            assert_eq!(
                serde_json::to_string(&back.analyzer).unwrap(),
                serde_json::to_string(&analyzer.snapshot()).unwrap(),
                "step {step}"
            );
        }
        // Writes 1..=8 with compact_every=3: full at 1, deltas at 2-4,
        // compaction (full) at 5, deltas at 6-8. The compacted file must
        // be smaller than the chain it replaced.
        assert!(
            sizes[4] < sizes[3],
            "compaction shrinks the file: {sizes:?}"
        );
        // And the scan agrees on the record structure.
        let scan = scan_checkpoint(&path).unwrap();
        assert_eq!(scan.delta_records, 3);
        assert!(scan.torn_tail.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn append (SIGKILL mid-delta) must fall back to the previous
    /// record's state; corrupting a middle record must drop everything
    /// from that record on.
    #[test]
    fn torn_or_corrupt_delta_tail_falls_back_to_valid_prefix() {
        let dir = std::env::temp_dir().join("ppa-ckpt-delta-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        let mut writer = DeltaCheckpointWriter::new(&path, usize::MAX);
        let mut boundaries = Vec::new(); // (file len, positions_seen)
        for step in 1u64..=4 {
            let parts = CheckpointParts {
                positions_seen: step,
                gaps: &[],
                events_lost: 0,
                reorder: None,
                sink: SinkState::default(),
            };
            writer.checkpoint(&mut analyzer, parts).unwrap();
            boundaries.push((std::fs::metadata(&path).unwrap().len(), step));
        }
        let bytes = std::fs::read(&path).unwrap();

        // Truncate at every byte past the full record: the state read
        // back is the one at the last whole record boundary.
        for cut in boundaries[0].0 as usize..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let back = read_checkpoint(&path).unwrap();
            let expect = boundaries
                .iter()
                .rev()
                .find(|(len, _)| *len as usize <= cut)
                .unwrap()
                .1;
            assert_eq!(back.positions_seen, expect, "cut at {cut}");
            // A cut exactly on a record boundary leaves a clean, shorter
            // chain; anywhere else is a detectable torn tail.
            let on_boundary = boundaries.iter().any(|(len, _)| *len as usize == cut);
            let scan = scan_checkpoint(&path).unwrap();
            assert_eq!(scan.torn_tail.is_some(), !on_boundary, "cut at {cut}");
        }

        // Flip one byte inside the second delta: the chain dies there,
        // even though the third delta's own bytes are untouched.
        let mut corrupt = bytes.clone();
        let target = boundaries[1].0 as usize + 20;
        corrupt[target] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back.positions_seen, boundaries[1].1);
        assert!(scan_checkpoint(&path).unwrap().torn_tail.is_some());

        // Corrupting the full record is fatal — it was written
        // atomically, so this is disk corruption, not a torn append.
        let mut corrupt = bytes;
        corrupt[REC_HEADER + 9 + 3] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A chain stamped with a future snapshot version must fail with the
    /// typed error — never a garbage restore or a generic corruption
    /// verdict — and an unversioned (pre-episode) chain is refused as
    /// stale.
    #[test]
    fn snapshot_version_gate_refuses_future_and_stale_chains() {
        let dir = std::env::temp_dir().join("ppa-ckpt-version-gate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        let mut writer = DeltaCheckpointWriter::new(&path, 3);
        let parts = CheckpointParts {
            positions_seen: 1,
            gaps: &[],
            events_lost: 0,
            reorder: None,
            sink: SinkState::default(),
        };
        writer.checkpoint(&mut analyzer, parts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8], SNAPSHOT_VERSION);

        // Forward fixture: the same chain stamped one version ahead.
        let mut future = bytes.clone();
        future[8] = SNAPSHOT_VERSION + 1;
        std::fs::write(&path, &future).unwrap();
        for err in [
            read_checkpoint(&path).unwrap_err(),
            scan_checkpoint(&path).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    CheckpointError::FutureVersion { found, supported }
                        if found == SNAPSHOT_VERSION + 1 && supported == SNAPSHOT_VERSION
                ),
                "{err}"
            );
        }

        // A pre-versioned chain starts its first record (kind byte 0)
        // where the version byte now lives.
        let mut legacy = Vec::from(&bytes[..8]);
        legacy.extend_from_slice(&bytes[9..]);
        std::fs::write(&path, &legacy).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Corrupt(m)) if m.contains("predates")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join("ppa-ckpt-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        // Wrong magic — the retired single-snapshot container included.
        for bytes in [
            &b"NOTACKPTxxxxxxxxxxxxxxxx"[..],
            b"PPACKPT1xxxxxxxxxxxxxxxx",
        ] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                read_checkpoint(&path),
                Err(CheckpointError::Corrupt(m)) if m.contains("magic")
            ));
        }

        // A full record cut short: payload shorter than promised.
        let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        let parts = CheckpointParts {
            positions_seen: 7,
            gaps: &[],
            events_lost: 0,
            reorder: None,
            sink: SinkState::default(),
        };
        DeltaCheckpointWriter::new(&path, 0)
            .checkpoint(&mut analyzer, parts)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 4);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Corrupt(m)) if m.contains("promises")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
