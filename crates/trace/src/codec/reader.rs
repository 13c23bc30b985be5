//! The one trace reader: a framing cuts the input into owned units on
//! the consuming thread, 0..N `ppa-decode-*` workers decode them, and an
//! in-order accept step hands their events out.
//!
//! A [`TraceReader`] is generic over its framing, and there are two:
//! `ppa-trace-bin-v1` blocks (`BinaryBlocks`, the framing of
//! [`BinaryTraceReader`](crate::BinaryTraceReader)) and JSONL chunks cut
//! at newlines (`JsonlChunks`, the framing of
//! [`TraceStreamReader`](crate::TraceStreamReader)).
//! Whatever the framing, every unit and every damaged region it finds
//! passes through the same decode and accept steps, so the events, the
//! text and position of the first error, the lenient gaps and
//! `events_lost()` after every step do not depend on the worker count.
//! With no worker each unit decodes on the consuming thread as it is
//! cut; only owned unit bytes ever cross threads, so the input itself
//! need not be `Send`.

use crate::event::Event;
use crate::gap::TraceGap;
use crate::io::IoError;
use crate::stream::StreamProbes;
use crate::trace::TraceKind;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// How a [`TraceReader`] cuts its input into independently decodable
/// units. Crate-internal: it is `pub` only so the reader's public
/// methods may name it as a bound; nothing outside the crate can reach
/// it.
pub trait Framing {
    /// One unit of input, owned so that it can cross to a decode worker.
    type Unit: Send + 'static;

    /// Units kept in flight per decode worker: enough to keep each busy
    /// while the consumer falls behind by a unit, and the bound on the
    /// memory the units hold.
    const UNITS_PER_WORKER: usize;

    /// Events a unit's buffer is first made room for, on the consuming
    /// thread, so that a decode worker rarely grows it.
    const UNIT_EVENTS: usize;

    /// The trace kind announced by the header.
    fn kind(&self) -> TraceKind;

    /// The event count announced by the header (advisory).
    fn expected(&self) -> usize;

    /// Starts a resume seek past the first `n` stream positions.
    fn set_skip(&mut self, n: u64);

    /// Cuts the next unit into `bytes`, a buffer of an earlier unit (as
    /// that unit left it) or a new one. `None` is a clean end of input;
    /// damage ends the stream too.
    fn next_unit(&mut self, bytes: Vec<u8>) -> Option<Result<Self::Unit, Damage>>;

    /// Decodes one unit into the recycled (empty) buffer `events`: the
    /// step every unit takes, on a worker thread or inline.
    fn decode(unit: Self::Unit, events: Vec<Event>) -> Decoded;

    /// The verdict once the input ended cleanly and every unit was
    /// delivered: `delivered` events were handed out, `lost` swallowed
    /// by gaps, over `lines` accepted lines.
    fn end(&self, delivered: u64, lost: u64, lines: usize) -> Option<Damage>;
}

/// Where a stream is damaged: the error a strict reader reports, and the
/// gaps a lenient one records in its place. An [`IoError::Io`] is fatal
/// in either mode.
pub struct Damage {
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
pub struct Mark {
    pub(crate) at: usize,
    pub(crate) damage: Damage,
}

/// One decoded unit at its turn in the accept step: its events, the
/// damage among them, and its buffers to recycle.
#[derive(Default)]
pub struct Decoded {
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

/// One unit on its way to a worker, with an empty recycled event buffer
/// to decode into.
struct Job<U> {
    seq: usize,
    unit: U,
    events: Vec<Event>,
}

/// Decode-worker loop: pull jobs off the shared queue until the sender
/// closes, decode each unit, send the result back.
fn decode_worker<U>(
    decode: fn(U, Vec<Event>) -> Decoded,
    jobs: Arc<Mutex<mpsc::Receiver<Job<U>>>>,
    results: mpsc::Sender<Decoded>,
) {
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
struct Workers<U> {
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Closed (dropped) to tell workers to exit.
    jobs: Option<mpsc::Sender<Job<U>>>,
    results: mpsc::Receiver<Decoded>,
}

impl<U: Send + 'static> Workers<U> {
    fn spawn(n: usize, decode: fn(U, Vec<Event>) -> Decoded) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job<U>>();
        let (result_tx, results) = mpsc::channel::<Decoded>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..n)
            .map(|i| {
                let jobs = Arc::clone(&job_rx);
                let results = result_tx.clone();
                std::thread::Builder::new()
                    .name(format!("ppa-decode-{i}"))
                    .spawn(move || decode_worker(decode, jobs, results))
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

impl<U> Drop for Workers<U> {
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

/// Streaming trace decoder on 0..N decode worker threads, over either
/// framing: [`BinaryTraceReader`](crate::BinaryTraceReader) and
/// [`TraceStreamReader`](crate::TraceStreamReader) are its two faces.
///
/// Parses the header eagerly, then yields one event per [`Iterator`]
/// call. The consuming thread cuts the input into units (binary blocks,
/// or JSONL chunks of whole lines) — cheap, the bytes stay opaque. With
/// no worker it decodes each unit itself as it is cut; with `workers` ≥
/// 1 it keeps a few units per worker in flight on persistent
/// `ppa-decode-*` threads, so decode overlaps both the reads and
/// whatever analysis the caller runs between `next()` calls. A decoded
/// unit holds its events and its damage at their positions, and the
/// accept step hands them out in stream order, so what the reader
/// yields does not depend on the worker count.
///
/// After an error the iterator fuses. Unit and event buffers
/// recirculate through pools, so steady-state decoding allocates
/// nothing per unit.
pub struct TraceReader<F: Framing> {
    framing: F,
    /// The decode threads; `None` decodes inline.
    workers: Option<Workers<F::Unit>>,
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

impl<F: Framing> TraceReader<F> {
    /// A reader over an opened framing, decoding on `workers` threads
    /// (0: on the caller's thread, spawning none).
    pub(crate) fn from_framing(framing: F, workers: usize, probes: StreamProbes) -> Self {
        let window = (F::UNITS_PER_WORKER * workers).max(1);
        TraceReader {
            framing,
            workers: (workers > 0).then(|| Workers::spawn(workers, F::decode)),
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
        }
    }

    pub(crate) fn framing(&self) -> &F {
        &self.framing
    }

    pub(crate) fn framing_mut(&mut self) -> &mut F {
        &mut self.framing
    }

    /// How many decode threads the reader owns.
    #[cfg(test)]
    pub(crate) fn decode_threads(&self) -> usize {
        self.workers.as_ref().map_or(0, |w| w.handles.len())
    }

    /// The trace kind announced by the header.
    pub fn kind(&self) -> TraceKind {
        self.framing.kind()
    }

    /// The event count announced by the header (advisory).
    pub fn expected_events(&self) -> usize {
        self.framing.expected()
    }

    /// Switches the reader into lenient mode: damaged regions are
    /// recorded as [`TraceGap`]s instead of ending the stream with an
    /// error. What a region loses depends on the framing: a binary block
    /// whose payload fails its CRC or does not decode loses that block, a
    /// malformed binary frame the rest of the stream, a JSONL line that
    /// is not an event (not JSON, not UTF-8) one event. Input that ends
    /// short of the header's declared count records a truncation gap and
    /// yields a clean end of stream. I/O errors remain fatal.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Seeks past the first `n` stream positions — events a previous run
    /// already consumed, whether delivered or lost to lenient gaps — so
    /// a resumed analysis continues where its checkpoint left off. The
    /// skipped positions are not decoded again: binary input discards
    /// whole blocks by their frame counts, JSONL input passes over lines
    /// without parsing them.
    pub fn set_skip_events(&mut self, n: u64) {
        self.framing.set_skip(n);
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
            let ready = match self.framing.next_unit(bytes) {
                None => {
                    self.reader_done = true;
                    return;
                }
                Some(Ok(unit)) => {
                    let events = self.spare_events.pop();
                    let events = events.unwrap_or_else(|| Vec::with_capacity(F::UNIT_EVENTS));
                    match &self.workers {
                        // Send fails only if every worker died; the recv
                        // in `next_item` surfaces that as a panic.
                        Some(Workers { jobs: Some(tx), .. }) => {
                            let _ = tx.send(Job { seq, unit, events });
                            None
                        }
                        Some(_) => None,
                        None => Some(F::decode(unit, events)),
                    }
                }
                Some(Err(damage)) => {
                    self.reader_done = true;
                    Some(Decoded::damaged(damage))
                }
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
            // The framing ended and every unit is in.
            self.failed = true;
            if let Some(damage) = self.framing.end(self.delivered, self.lost, self.lines) {
                self.fault(damage)?;
            }
            return Ok(false);
        }
        let item = self.next_item();
        self.accept(item);
        Ok(true)
    }
}

impl<F: Framing> Iterator for TraceReader<F> {
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
