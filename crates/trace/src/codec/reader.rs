//! The one trace reader, [`AnyTraceReader`]: a framing cuts the input
//! into owned units on the consuming thread, 0..N `ppa-decode-*` workers
//! decode them, and an in-order accept step hands their events out.
//!
//! The container is sniffed from the first bytes once, at open, and
//! picks the reader's framing, a private field: `ppa-trace-bin-v1`
//! blocks (`BinaryBlocks`) or JSONL chunks cut at newlines
//! (`JsonlChunks`). Whatever the framing, every unit and every damaged
//! region it finds passes through the same decode and accept steps, so
//! the events, the text and position of the first error, the lenient
//! gaps and `events_lost()` after every step do not depend on the worker
//! count. With no worker each unit decodes on the consuming thread as it
//! is cut; only owned unit bytes ever cross threads, so the input itself
//! need not be `Send`.

use super::binary::{self, BinaryBlocks, RawBlock};
use super::{TraceFormat, BINARY_MAGIC};
use crate::event::Event;
use crate::gap::TraceGap;
use crate::io::IoError;
use crate::stream::{self, JsonlChunks, LineChunk, StreamProbes, CHUNK_BYTES};
use crate::time::Time;
use crate::trace::TraceKind;
use std::io::Read;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Where a stream is damaged: the error a strict reader reports, and the
/// gaps a lenient one records in its place. An [`IoError::Io`] is fatal
/// in either mode.
pub(crate) struct Damage {
    pub(crate) error: IoError,
    pub(crate) gaps: Vec<TraceGap>,
}

impl Damage {
    /// Moves line numbers counted from the start of a unit to the line
    /// numbers of the stream: `lines` lines came before the unit.
    fn shift(&mut self, lines: usize) {
        if let IoError::Parse { line, .. } = &mut self.error {
            *line += lines;
        }
        for gap in &mut self.gaps {
            gap.block += lines;
        }
    }
}

/// Damage found inside a unit, due before the event at `at`.
pub(crate) struct Mark {
    pub(crate) at: usize,
    pub(crate) damage: Damage,
}

/// One decoded unit at its turn in the accept step: its events, the
/// damage among them, and its buffers to recycle.
#[derive(Default)]
pub(crate) struct Decoded {
    /// Submission order; units are accepted in this order.
    pub(crate) seq: usize,
    pub(crate) events: Vec<Event>,
    /// Damage at positions in `events`, in stream order.
    pub(crate) marks: Vec<Mark>,
    /// Leading events a resume seek still owes; dropped at accept.
    pub(crate) skip: usize,
    /// Lines the unit spans (JSONL); its marks count lines from its start.
    pub(crate) lines: usize,
    /// The unit's bytes, handed back for reuse.
    pub(crate) payload: Vec<u8>,
}

impl Decoded {
    /// A unit that is nothing but `damage`.
    pub(crate) fn damaged(damage: Damage) -> Decoded {
        Decoded {
            marks: vec![Mark { at: 0, damage }],
            ..Decoded::default()
        }
    }
}

/// What a framing hands the reader: a unit to decode, or a unit that is
/// decoded already because it is nothing but damage.
pub(crate) type Cut<U> = Option<Result<U, Decoded>>;

/// The reader's framing: how it cuts its input into units.
enum Framing<R: Read> {
    Binary(BinaryBlocks<R>),
    Jsonl(JsonlChunks<R>),
}

/// One unit of input, owned so that it can cross to a decode worker.
enum Unit {
    Block(RawBlock),
    Chunk(LineChunk),
}

impl<R: Read> Framing<R> {
    /// Cuts the next unit into `bytes`, a buffer of an earlier unit (as
    /// that unit left it) or a new one. `None` is a clean end of input;
    /// damage ends the stream too, unless the reader is `lenient` and
    /// the damage leaves the rest of the stream readable.
    fn next_unit(&mut self, bytes: Vec<u8>, lenient: bool) -> Cut<Unit> {
        match self {
            Framing::Binary(b) => b.next_unit(bytes).map(|cut| cut.map(Unit::Block)),
            Framing::Jsonl(c) => c.next_unit(bytes, lenient).map(|cut| cut.map(Unit::Chunk)),
        }
    }
}

/// Decodes one unit into the recycled (empty) buffer `events`: the step
/// every unit takes, on a worker thread or inline.
fn decode(unit: Unit, events: Vec<Event>) -> Decoded {
    match unit {
        Unit::Block(block) => binary::decode(block, events),
        Unit::Chunk(chunk) => stream::decode(chunk, events),
    }
}

/// One unit on its way to a worker, with an empty recycled event buffer
/// to decode into.
struct Job {
    seq: usize,
    unit: Unit,
    events: Vec<Event>,
}

/// Decode-worker loop: pull jobs off the shared queue until the sender
/// closes, decode each unit, send the result back.
fn decode_worker(jobs: Arc<Mutex<mpsc::Receiver<Job>>>, results: mpsc::Sender<Decoded>) {
    loop {
        // Hold the lock only for the blocking recv; decoding happens
        // outside it so workers overlap.
        let job = {
            let rx = jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // reader dropped: no more units
            }
        };
        let mut item = decode(job.unit, job.events);
        item.seq = job.seq;
        if results.send(item).is_err() {
            return; // consumer gone; nothing left to report to
        }
    }
}

/// The decode-worker count when the caller names none (`ppa analyze`,
/// `slice`, `convert`, `serve` without `--decode-workers`): one per core
/// except the core the consumer itself runs on, so the workers and the
/// thread they feed do not oversubscribe the host. On one core that is
/// 0, decode on the consumer's thread. (EXPERIMENTS.md, "Decode workers".)
pub fn default_decode_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// A reader's persistent `ppa-decode-*` threads and their queues.
struct Workers {
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Closed (dropped) to tell workers to exit.
    jobs: Option<mpsc::Sender<Job>>,
    results: mpsc::Receiver<Decoded>,
}

impl Workers {
    fn spawn(n: usize) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (result_tx, results) = mpsc::channel::<Decoded>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..n)
            .map(|i| {
                let jobs = Arc::clone(&job_rx);
                let results = result_tx.clone();
                std::thread::Builder::new()
                    .name(format!("ppa-decode-{i}"))
                    .spawn(move || decode_worker(jobs, results))
                    .expect("spawn decode worker thread")
            })
            .collect();
        Workers {
            handles,
            jobs: Some(job_tx),
            results,
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closing the job channel is the shutdown signal; workers finish
        // whatever is in flight (sends to the unbounded result channel
        // never block) and exit.
        self.jobs.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Streaming trace reader over either container, on 0..N decode worker
/// threads: the one reader of the toolchain.
///
/// Opening sniffs the first bytes ([`BINARY_MAGIC`] opens a binary
/// trace; anything else is read as JSONL) and parses the header eagerly;
/// the reader then yields one event per [`Iterator`] call. The consuming
/// thread cuts the input into units (binary blocks, or JSONL chunks of
/// whole lines) — cheap, the bytes stay opaque. With no worker it
/// decodes each unit itself as it is cut; with `workers` ≥ 1 it keeps a
/// few units per worker in flight on persistent `ppa-decode-*` threads,
/// so decode overlaps both the reads and whatever analysis the caller
/// runs between `next()` calls. A decoded unit holds its events and its
/// damage at their positions, and the accept step hands them out in
/// stream order, so what the reader yields does not depend on the worker
/// count.
///
/// Errors: [`IoError::BadHeader`] for a missing or foreign header (a
/// wrong binary version or kind byte included), [`IoError::Truncated`]
/// for input that ends short of the header's declared count (an
/// advisory count of `0` promises nothing) or inside a block, and
/// [`IoError::Parse`] for a malformed JSONL line (bytes that are not
/// UTF-8, and a line longer than [`MAX_LINE_LEN`](crate::MAX_LINE_LEN),
/// included) with its 1-based line number, or for a binary block with a
/// malformed frame, a CRC mismatch or a malformed payload with its
/// 1-based block index as `line`. A canonical JSONL line (see
/// `codec/jsonl.rs`) is decoded directly; every other line goes to
/// `serde_json::from_str`, so serde words the error of every malformed
/// line but an overlong one.
///
/// After an error the iterator fuses. Unit and event buffers
/// recirculate through pools, so steady-state decoding allocates
/// nothing per unit.
pub struct AnyTraceReader<R: Read> {
    framing: Framing<R>,
    /// The trace kind and event count the header announced.
    kind: TraceKind,
    expected: usize,
    /// Events a new unit's buffer is first made room for, on the
    /// consuming thread, so that a decode worker rarely grows it.
    unit_events: usize,
    /// The decode threads; `None` decodes inline.
    workers: Option<Workers>,
    /// Submission counter: the next unit's `seq`.
    submitted: usize,
    /// The `seq` the accept step takes next.
    next_emit: usize,
    /// Units ready ahead of their turn (inline: the one just decoded),
    /// unit `seq` in slot `seq % stash.len()`. Its length is the
    /// in-flight window, so the units in flight never share a slot.
    stash: Vec<Option<Decoded>>,
    /// The unit being handed out, and the cursor into it.
    current: Vec<Event>,
    pos: usize,
    /// Where the cursor stops next: the next mark, else the unit's end.
    stop: usize,
    /// The current unit's marks, the next one last.
    marks: Vec<Mark>,
    /// Lines spanned by the units accepted so far.
    lines: usize,
    /// Events handed out or about to be: every event of each segment
    /// the cursor entered.
    delivered: u64,
    /// Recycled buffers for future units.
    spare_events: Vec<Vec<Event>>,
    spare_bytes: Vec<Vec<u8>>,
    reader_done: bool,
    failed: bool,
    lenient: bool,
    gaps: Vec<TraceGap>,
    /// Events swallowed by the recorded gaps.
    lost: u64,
    probes: StreamProbes,
}

impl<R: Read> AnyTraceReader<R> {
    /// Opens a trace stream of either format, decoding on the caller's
    /// thread.
    pub fn open(reader: R) -> Result<Self, IoError> {
        Self::open_parallel(reader, 0)
    }

    /// Opens a trace stream of either format, decoding binary blocks or
    /// JSONL chunks on up to `workers` threads; 0 spawns none and decodes
    /// on the caller's thread, so callers pass their worker count through
    /// without forking on it.
    pub fn open_parallel(reader: R, workers: usize) -> Result<Self, IoError> {
        Self::open_parallel_with_probes(reader, workers, StreamProbes::noop())
    }

    /// Like [`AnyTraceReader::open_parallel`], recording bytes, events,
    /// blocks, parse errors and gaps into `probes` as the stream is
    /// consumed.
    pub fn open_parallel_with_probes(
        reader: R,
        workers: usize,
        probes: StreamProbes,
    ) -> Result<Self, IoError> {
        Self::open_chunked(reader, workers, probes, CHUNK_BYTES)
    }

    /// The reader behind every constructor, cutting JSONL chunks of about
    /// `chunk_bytes` (at least 1); the tests cut them small, so that a
    /// small input crosses many chunk boundaries.
    pub(crate) fn open_chunked(
        mut input: R,
        workers: usize,
        probes: StreamProbes,
        chunk_bytes: usize,
    ) -> Result<Self, IoError> {
        let mut prefix = Vec::with_capacity(BINARY_MAGIC.len());
        (&mut input)
            .take(BINARY_MAGIC.len() as u64)
            .read_to_end(&mut prefix)?;
        let (framing, kind, expected) = match TraceFormat::sniff(&prefix) {
            TraceFormat::Binary => {
                let (blocks, kind, expected) = BinaryBlocks::open(input, prefix, &probes)?;
                (Framing::Binary(blocks), kind, expected)
            }
            TraceFormat::Jsonl => {
                let (chunks, kind, expected) =
                    JsonlChunks::open(input, prefix, chunk_bytes.max(1), &probes)?;
                (Framing::Jsonl(chunks), kind, expected)
            }
        };
        let (units_per_worker, unit_events) = match framing {
            // A block's decode reserves its frame's count itself.
            Framing::Binary(_) => (binary::UNITS_PER_WORKER, 0),
            Framing::Jsonl(_) => (stream::UNITS_PER_WORKER, stream::UNIT_EVENTS),
        };
        let window = (units_per_worker * workers).max(1);
        Ok(AnyTraceReader {
            framing,
            kind,
            expected,
            unit_events,
            workers: (workers > 0).then(|| Workers::spawn(workers)),
            submitted: 0,
            next_emit: 0,
            stash: (0..window).map(|_| None).collect(),
            current: Vec::new(),
            pos: 0,
            stop: 0,
            marks: Vec::new(),
            lines: 0,
            delivered: 0,
            spare_events: Vec::new(),
            spare_bytes: Vec::new(),
            reader_done: false,
            failed: false,
            lenient: false,
            gaps: Vec::new(),
            lost: 0,
            probes,
        })
    }

    /// How many decode threads the reader owns.
    #[cfg(test)]
    pub(crate) fn decode_threads(&self) -> usize {
        self.workers.as_ref().map_or(0, |w| w.handles.len())
    }

    /// Which format the stream was detected as.
    pub fn format(&self) -> TraceFormat {
        match self.framing {
            Framing::Binary(_) => TraceFormat::Binary,
            Framing::Jsonl(_) => TraceFormat::Jsonl,
        }
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.expected
    }

    /// Switches the reader into lenient mode: damaged regions are
    /// recorded as [`TraceGap`]s (query them with
    /// [`AnyTraceReader::gaps`]) instead of ending the stream with an
    /// error. What a region loses depends on the container: a binary
    /// block whose payload fails its CRC or does not decode loses that
    /// block, a malformed binary frame the rest of the stream (a corrupt
    /// frame cannot be trusted to locate the next block), a JSONL line
    /// that is not an event (not JSON, not UTF-8, too long) one event.
    /// Input that ends short of the header's declared count records a
    /// truncation gap and yields a clean end of stream. I/O errors
    /// remain fatal.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Seeks past the first `n` stream positions — events a previous run
    /// already consumed, whether delivered or lost to lenient gaps — so
    /// a resumed analysis continues where its checkpoint left off. The
    /// skipped positions are not decoded again: binary input discards
    /// whole blocks by their frame counts without CRC checks, JSONL
    /// input passes over lines without parsing them.
    pub fn set_skip_events(&mut self, n: u64) {
        match &mut self.framing {
            Framing::Binary(b) => b.skip_events = n,
            Framing::Jsonl(c) => c.skip = n,
        }
    }

    /// Engages the binary block skip index's lower bound: whole blocks
    /// whose `last_time` is strictly before `t` are discarded without
    /// CRC verification or decoding. The first surviving block may begin
    /// before `t`; callers wanting an exact bound filter the leading
    /// events themselves. JSONL input has no skip index; the call is a
    /// no-op there and callers filter every event.
    ///
    /// Skipped events are accounted separately from lenient-mode
    /// losses — a skipped block is never CRC-checked, so damage inside
    /// it is invisible and must not surface as a [`TraceGap`]. With
    /// skipping active the conservation law is
    /// `delivered + events_lost() + skipped_events() == expected`
    /// (for a stream that is not itself truncated).
    pub fn set_min_time(&mut self, t: Time) {
        if let Framing::Binary(b) = &mut self.framing {
            b.min_time = Some(t);
        }
    }

    /// The other half of the skip index: binary blocks whose
    /// `first_time` is at or past `t` (exclusive upper bound, matching
    /// the half-open windows of the slice layer) are discarded undecoded.
    /// The last surviving block may extend past `t`. Skipping continues
    /// to read frames to the end of input, so truncation detection and
    /// the conservation law of [`AnyTraceReader::set_min_time`] are
    /// unaffected. No-op for JSONL input.
    pub fn set_max_time(&mut self, t: Time) {
        if let Framing::Binary(b) = &mut self.framing {
            b.max_time = Some(t);
        }
    }

    /// How many blocks the skip index has discarded so far (always 0 for
    /// JSONL input).
    pub fn skipped_blocks(&self) -> usize {
        match &self.framing {
            Framing::Binary(b) => b.skipped_blocks,
            Framing::Jsonl(_) => 0,
        }
    }

    /// How many events were inside the blocks the skip index discarded
    /// (always 0 for JSONL input): the third bucket of the conservation
    /// law of [`AnyTraceReader::set_min_time`], neither delivered nor
    /// lost.
    pub fn skipped_events(&self) -> u64 {
        match &self.framing {
            Framing::Binary(b) => b.skipped_events,
            Framing::Jsonl(_) => 0,
        }
    }

    /// The gaps lenient decoding has recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// Total events swallowed by the recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.lost
    }

    /// Keeps the in-flight window full: cuts units and hands each to a
    /// worker, or with none decodes it on the spot, until the window is
    /// full or the framing ends. Damage the framing finds is a unit in
    /// stream order too, so it surfaces only after the units before it.
    fn pump(&mut self) {
        while !self.reader_done && self.submitted - self.next_emit < self.stash.len() {
            let seq = self.submitted;
            let bytes = self.spare_bytes.pop().unwrap_or_default();
            let ready = match self.framing.next_unit(bytes, self.lenient) {
                None => {
                    self.reader_done = true;
                    return;
                }
                Some(Ok(unit)) => {
                    let events = self.spare_events.pop();
                    let events = events.unwrap_or_else(|| Vec::with_capacity(self.unit_events));
                    match &self.workers {
                        // Send fails only if every worker died; the recv
                        // in `next_item` surfaces that as a panic.
                        Some(Workers { jobs: Some(tx), .. }) => {
                            let _ = tx.send(Job { seq, unit, events });
                            None
                        }
                        Some(_) => None,
                        None => Some(decode(unit, events)),
                    }
                }
                Some(Err(damaged)) => Some(damaged),
            };
            if let Some(mut item) = ready {
                item.seq = seq;
                let slot = seq % self.stash.len();
                self.stash[slot] = Some(item);
            }
            self.submitted += 1;
        }
    }

    /// The unit whose turn it is: from the stash if it is ready, else by
    /// waiting on the workers.
    fn next_item(&mut self) -> Decoded {
        let slot = self.next_emit % self.stash.len();
        if let Some(item) = self.stash[slot].take() {
            return item;
        }
        let workers = self
            .workers
            .as_ref()
            .expect("inline units are stashed when submitted");
        let _span = ppa_obs::span_enter(ppa_obs::Stage::Reassemble);
        loop {
            let item = workers.results.recv().expect("decode worker panicked");
            if item.seq == self.next_emit {
                return item;
            }
            let slot = item.seq % self.stash.len();
            self.stash[slot] = Some(item);
        }
    }

    /// Keeps an emptied event buffer for a later unit.
    fn recycle_events(&mut self, mut events: Vec<Event>) {
        if self.spare_events.len() < 64 && events.capacity() > 0 {
            events.clear();
            self.spare_events.push(events);
        }
    }

    /// Accepts the unit whose turn it is: its events become the current
    /// run (minus its resume skip), its marks move to stream line
    /// numbers, and its bytes are recycled.
    fn accept(&mut self, item: Decoded) {
        debug_assert_eq!(item.seq, self.next_emit);
        self.next_emit += 1;
        if self.spare_bytes.len() < 64 {
            self.spare_bytes.push(item.payload);
        }
        self.current = item.events;
        self.marks = item.marks;
        if !self.marks.is_empty() {
            for mark in &mut self.marks {
                mark.damage.shift(self.lines);
            }
            self.marks.reverse();
        }
        self.lines += item.lines;
        self.pos = item.skip.min(self.current.len());
        self.enter_segment();
    }

    /// Points the cursor's stop at the next mark, or the unit's end, and
    /// counts the events before it as delivered.
    fn enter_segment(&mut self) {
        let end = self.marks.last().map_or(self.current.len(), |m| m.at);
        self.stop = end.clamp(self.pos, self.current.len());
        let events = (self.stop - self.pos) as u64;
        self.delivered += events;
        self.probes.events.add(events);
    }

    /// Takes in damage at the cursor: a strict reader returns its error,
    /// a lenient one records its gaps. I/O errors are fatal either way.
    fn fault(&mut self, damage: Damage) -> Result<(), IoError> {
        let Damage { error, gaps } = damage;
        if matches!(error, IoError::Io(_)) {
            return Err(error);
        }
        self.probes.parse_errors.inc();
        if !self.lenient {
            return Err(error);
        }
        for gap in gaps {
            self.lost += gap.events;
            self.probes.gaps.inc();
            self.probes.events_lost.add(gap.events);
            self.gaps.push(gap);
        }
        Ok(())
    }

    /// Moves the cursor past whatever stopped it: damage due at its
    /// position, or the end of the current unit. `Ok(false)` once the
    /// stream has ended. Kept out of line, so that `next` stays small
    /// enough to inline into the consumer's loop.
    #[inline(never)]
    fn advance(&mut self) -> Result<bool, IoError> {
        if self.marks.last().is_some_and(|m| m.at <= self.pos) {
            let mark = self.marks.pop().expect("checked above");
            self.fault(mark.damage)?;
            self.enter_segment();
            return Ok(true);
        }
        // The current unit is spent: its event buffer can carry the unit
        // the pump cuts next, so the window costs no buffer beyond its
        // own units.
        let spent = std::mem::take(&mut self.current);
        self.recycle_events(spent);
        self.pump();
        if self.next_emit == self.submitted {
            // The framing ended and every unit is in. A binary framing
            // found every shortfall as it read the frames.
            self.failed = true;
            if let Framing::Jsonl(c) = &self.framing {
                if let Some(damage) = c.end(self.delivered, self.lost, self.lines) {
                    self.fault(damage)?;
                }
            }
            return Ok(false);
        }
        let item = self.next_item();
        self.accept(item);
        Ok(true)
    }
}

impl<R: Read> Iterator for AnyTraceReader<R> {
    type Item = Result<Event, IoError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.stop {
                let event = self.current[self.pos];
                self.pos += 1;
                return Some(Ok(event));
            }
            if self.failed {
                return None;
            }
            match self.advance() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}
