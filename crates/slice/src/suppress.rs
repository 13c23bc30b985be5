//! Redundancy suppression: run-length detection of repeated
//! per-processor event patterns.
//!
//! The suppressor consumes events in stream (total) order and re-emits
//! them in the same order, replacing each detected run of repeated
//! pattern occurrences with one [`EventKind::Repeat`] record. The
//! record stands at the position of the first suppressed event and
//! carries the pattern length, occurrence count, and the per-occurrence
//! strides; [`Event::repeat_shifted`] defines the exact occurrence
//! arithmetic, which the expander in `ppa-core` applies, and the
//! suppressor finds strides with its inverse [`Event::repeat_stride`],
//! making suppress-then-expand an identity.
//!
//! ## Mechanics
//!
//! Events enter a global bounded FIFO of *slots*; each slot's fate
//! starts [`Fate::Pending`] and is resolved to keep, drop, or
//! become-the-record as detection progresses. Output is drained from
//! the FIFO front as soon as fates settle, so ordering is preserved by
//! construction and latency is bounded by [`FIFO_BOUND`]. A slot is the
//! event plus a one-byte fate (72 bytes): an open record's parameters
//! live in its run, and a closed record's wait in a side queue ordered
//! by slot id, which the drain pops as it reaches them.
//!
//! Per processor, a detector keeps the most recent logical events
//! (at most `2 *` [`REPEAT_MAX_PATTERN`]). With no active run it looks,
//! after every arrival, for the smallest pattern length `L` such that
//! the last `2L` events form two occurrences under a uniform
//! `(dt, dseq, dfield)` stride; a length whose newest pair has no
//! stride, or whose second occurrence is no longer all in the FIFO, is
//! rejected before the full check. A fresh candidate starts *on
//! probation*: it claims nothing until one further event matches its
//! third occurrence, so a spurious short candidate (a repeated element
//! inside a longer pattern) is abandoned with the detection window
//! intact instead of wrecking detection of the real period. With a
//! committed run the detector matches arrivals against the next
//! expected occurrence exactly; any mismatch closes the run.
//!
//! The detectors sit in a dense table reached through a per-processor
//! index, and each push borrows one detector and the FIFO side by side.
//! A run keeps its buffers when it closes, so a committed run costs a
//! constant amount of work per event and allocates nothing.

use ppa_trace::{Event, EventKind, REPEAT_MAX_PATTERN};
use std::collections::VecDeque;
use std::convert::Infallible;

/// Detector window: two full occurrences of the longest pattern.
const RECENT_CAP: usize = 2 * REPEAT_MAX_PATTERN;

/// Upper bound on buffered (fate-pending) slots. When the FIFO grows
/// past this, the front slot's fate is forced (candidate events are
/// kept, an open record is closed at its current count) so the stream
/// keeps flowing even if some processor goes silent mid-candidate.
pub const FIFO_BOUND: usize = 1 << 16;

/// What happens to a buffered event when it leaves the FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Not yet decided; blocks the FIFO front.
    Pending,
    /// Emitted as-is.
    Keep,
    /// Suppressed (represented by some record upstream of it).
    Drop,
    /// To be replaced by the record of a run still open; blocks the
    /// front.
    RecordOpen,
    /// Replaced by the record queued for it in [`Fifo::closed`].
    RecordClosed,
}

#[derive(Debug)]
struct Slot {
    event: Event,
    fate: Fate,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 72);

/// The slots still buffered, the closed records waiting for theirs, and
/// the suppressor's counters.
#[derive(Debug)]
struct Fifo {
    slots: VecDeque<Slot>,
    /// Slot id of `slots[0]`; slot ids increase by one per push, ever.
    head_id: u64,
    /// Each closed, undrained record's slot id and `Repeat` kind, by
    /// slot id.
    closed: VecDeque<(u64, EventKind)>,
    records: u64,
    suppressed: u64,
}

/// A recent logical event on one processor. `slot` is `Some` only
/// while the physical copy is still fate-pending in the FIFO (and may
/// therefore still be claimed by a starting run); synthetic entries
/// reconstructed after a run closes have no slot.
#[derive(Debug)]
struct RecentEntry {
    event: Event,
    slot: Option<u64>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No run: the detector is looking for one.
    #[default]
    Idle,
    /// A candidate two-occurrence match that has not yet claimed any
    /// slots. Probation exists so a spurious short candidate (a
    /// repeated element *inside* a longer pattern) can be abandoned
    /// without wrecking the detection window for the real, longer
    /// pattern.
    Probation,
    /// The record and the first suppressed occurrence are claimed.
    Committed,
}

/// A detector's current run. Its buffers outlive the run, so the next
/// one reuses them.
#[derive(Debug, Default)]
struct Run {
    phase: Phase,
    /// The kept occurrence the record's pattern refers to, in order.
    pattern: Vec<Event>,
    dt_ns: u64,
    dseq: u64,
    dfield: i64,
    /// Completed suppressed occurrences so far (the record's `count`).
    count: u32,
    /// Slots of the first suppressed occurrence; `occ_slots[0]` holds
    /// the event the record will replace. Claimed only on commit.
    occ_slots: Vec<u64>,
    /// Progress within the next (not yet complete) occurrence.
    matched: usize,
    /// Slots of the partial occurrence in progress.
    cur_slots: Vec<u64>,
}

#[derive(Debug, Default)]
struct Detector {
    recent: VecDeque<RecentEntry>,
    /// How many entries at the back of `recent` hold a slot.
    slotted_tail: usize,
    run: Run,
}

/// One detector per processor seen, in order of first appearance.
#[derive(Debug, Default)]
struct Detectors {
    /// Each processor id's position in `table`, [`Detectors::NONE`] for
    /// an id not seen yet; grown to the largest id seen.
    index: Vec<u32>,
    table: Vec<Detector>,
}

impl Detectors {
    const NONE: u32 = u32::MAX;

    fn of(&mut self, proc: u16) -> &mut Detector {
        let p = usize::from(proc);
        if p >= self.index.len() {
            // Powers of two, capped by the id space: 4 bytes per id.
            let len = (p + 1).next_power_of_two();
            self.index.reserve_exact(len - self.index.len());
            self.index.resize(len, Detectors::NONE);
        }
        if self.index[p] == Detectors::NONE {
            self.index[p] = self.table.len() as u32;
            self.table.push(Detector::default());
        }
        &mut self.table[self.index[p] as usize]
    }
}

/// The uniform stride across all `len` pairs `recent[start+j]` →
/// `recent[start+len+j]`, or `None` if the two halves are not one
/// pattern occurrence apart. Field-less pairs contribute no `dfield`
/// constraint; if no pair has a field the stride's `dfield` is 0.
fn uniform_stride(
    recent: &VecDeque<RecentEntry>,
    start: usize,
    len: usize,
) -> Option<(u64, u64, i64)> {
    let mut stride: Option<(u64, u64)> = None;
    let mut dfield: Option<i64> = None;
    for j in 0..len {
        let (dt, dseq, df) = recent[start + j]
            .event
            .repeat_stride(&recent[start + len + j].event)?;
        match stride {
            None => stride = Some((dt, dseq)),
            Some(s) if s != (dt, dseq) => return None,
            Some(_) => {}
        }
        if let Some(df) = df {
            match dfield {
                None => dfield = Some(df),
                Some(d) if d != df => return None,
                Some(_) => {}
            }
        }
    }
    let (dt, dseq) = stride?;
    Some((dt, dseq, dfield.unwrap_or(0)))
}

/// Streaming run-length suppressor. Feed events in stream order with
/// [`Suppressor::push`]; call [`Suppressor::finish`] once at the end to
/// flush. Both hand output events (kept events and repeat records, in
/// the input's order) to the caller's `emit` as they settle.
#[derive(Debug)]
pub struct Suppressor {
    fifo: Fifo,
    detectors: Detectors,
}

impl Default for Suppressor {
    fn default() -> Suppressor {
        Suppressor::new()
    }
}

impl Suppressor {
    /// A fresh suppressor with no history. The FIFO is allocated once,
    /// at its bound plus the slot a push adds before forcing the front,
    /// so it never doubles; its pages stay untouched until slots reach
    /// them, so a short stream pays for the slots it uses.
    pub fn new() -> Suppressor {
        Suppressor {
            fifo: Fifo {
                slots: VecDeque::with_capacity(FIFO_BOUND + 1),
                head_id: 0,
                closed: VecDeque::new(),
                records: 0,
                suppressed: 0,
            },
            detectors: Detectors::default(),
        }
    }

    /// Repeat records closed so far; `finish` emits every one.
    pub fn records(&self) -> u64 {
        self.fifo.records
    }

    /// Events suppressed so far — the logical events the emitted and
    /// in-progress records stand for.
    pub fn suppressed(&self) -> u64 {
        self.fifo.suppressed
    }

    /// Accepts the next event in stream order; hands `emit` every event
    /// whose fate has settled, one at a time. The first error `emit`
    /// returns ends the push.
    ///
    /// Must not be fed [`EventKind::Repeat`] records — the slice engine
    /// rejects those before suppression (suppressed input must be
    /// expanded first).
    pub fn push<E>(
        &mut self,
        event: Event,
        mut emit: impl FnMut(Event) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(
            !matches!(event.kind, EventKind::Repeat { .. }),
            "repeat records must be expanded before re-suppression"
        );
        let id = self.fifo.head_id + self.fifo.slots.len() as u64;
        self.fifo.slots.push_back(Slot {
            event,
            fate: Fate::Pending,
        });
        self.detectors
            .of(event.proc.0)
            .advance(&mut self.fifo, event, id);

        self.fifo.drain(&mut emit)?;
        while self.fifo.slots.len() > FIFO_BOUND {
            self.force_front();
            self.fifo.drain(&mut emit)?;
        }
        Ok(())
    }

    /// Flushes: closes every committed run, keeps every still-pending
    /// candidate, and hands `emit` the whole FIFO, one event at a time.
    pub fn finish<E>(&mut self, mut emit: impl FnMut(Event) -> Result<(), E>) -> Result<(), E> {
        // Only fates are settled here and everything leaves in FIFO
        // order, so the order over processors does not change the output.
        for det in &mut self.detectors.table {
            if det.run.phase == Phase::Committed {
                det.close_run(&mut self.fifo);
            }
            det.run.phase = Phase::Idle; // probation: nothing claimed
            det.keep_recent(&mut self.fifo);
        }
        self.fifo.drain(&mut emit)?;
        debug_assert!(self.fifo.slots.is_empty());
        Ok(())
    }

    /// Forces the front slot's fate so a bounded FIFO keeps draining.
    fn force_front(&mut self) {
        let front = self.fifo.slots.front().expect("force_front on empty fifo");
        let (proc, fate, id) = (front.event.proc.0, front.fate, self.fifo.head_id);
        let det = self.detectors.of(proc);
        match fate {
            Fate::Pending => {
                let pos = det
                    .recent
                    .iter()
                    .position(|e| e.slot == Some(id))
                    .expect("pending slot tracked in recent");
                det.recent[pos].slot = None;
                det.slotted_tail = det.slotted_tail.min(det.recent.len() - 1 - pos);
                // A probation run whose candidate occurrence loses this
                // slot can no longer claim it; abandon the candidate.
                if det.run.phase == Phase::Probation && det.run.occ_slots.contains(&id) {
                    det.run.phase = Phase::Idle;
                }
                self.fifo.set_fate(id, Fate::Keep);
            }
            Fate::RecordOpen => det.close_run(&mut self.fifo),
            // Keep/Drop/closed-record fates drain on their own; drain()
            // only stops on the two cases above.
            _ => unreachable!("force_front on settled slot"),
        }
    }
}

impl Fifo {
    fn set_fate(&mut self, slot: u64, fate: Fate) {
        let idx = (slot - self.head_id) as usize;
        self.slots[idx].fate = fate;
    }

    fn drain<E>(&mut self, emit: &mut impl FnMut(Event) -> Result<(), E>) -> Result<(), E> {
        while let Some(front) = self.slots.front() {
            match front.fate {
                Fate::Pending | Fate::RecordOpen => break,
                Fate::Keep => emit(front.event)?,
                Fate::Drop => {}
                Fate::RecordClosed => {
                    let &(slot, kind) = self.closed.front().expect("closed record queued");
                    debug_assert_eq!(slot, self.head_id);
                    emit(Event {
                        kind,
                        ..front.event
                    })?;
                    self.closed.pop_front();
                }
            }
            self.slots.pop_front();
            self.head_id += 1;
        }
        Ok(())
    }
}

impl Detector {
    fn advance(&mut self, fifo: &mut Fifo, event: Event, id: u64) {
        let run = &mut self.run;
        if run.phase != Phase::Idle {
            let expected = run.pattern[run.matched].repeat_shifted(
                run.count as u64 + 1,
                run.dt_ns,
                run.dseq,
                run.dfield,
            );
            if event == expected {
                run.cur_slots.push(id);
                run.matched += 1;
                if run.phase == Phase::Probation {
                    self.commit_run(fifo);
                }
                let run = &mut self.run;
                if run.matched == run.pattern.len() {
                    for &slot in &run.cur_slots {
                        fifo.set_fate(slot, Fate::Drop);
                    }
                    fifo.suppressed += run.cur_slots.len() as u64;
                    run.cur_slots.clear();
                    run.matched = 0;
                    run.count += 1;
                    if run.count == u32::MAX {
                        self.close_run(fifo);
                    }
                }
                return;
            }
            if run.phase == Phase::Committed {
                self.close_run(fifo);
            } else {
                // Abandoned probation: nothing was claimed, and the
                // candidate's events are still (slotted) in `recent`,
                // so a longer pattern can be detected over them.
                run.phase = Phase::Idle;
            }
            // fall through: the mismatching event starts fresh detection
        }

        self.recent.push_back(RecentEntry {
            event,
            slot: Some(id),
        });
        self.slotted_tail += 1;
        if self.recent.len() > RECENT_CAP {
            let evicted = self.recent.pop_front().unwrap();
            if let Some(slot) = evicted.slot {
                fifo.set_fate(slot, Fate::Keep);
            }
            self.slotted_tail = self.slotted_tail.min(RECENT_CAP);
        }
        self.try_start_run();
    }

    /// Looks for the smallest pattern length whose last two occurrences
    /// sit at the tail of `recent`; if found, opens a probation run
    /// there. Nothing is claimed until the run commits.
    fn try_start_run(&mut self) {
        let n = self.recent.len();
        let newest = &self.recent[n - 1].event;
        // The occurrence to suppress must still be physically claimable
        // (`slotted_tail`); the pattern half only has to exist logically.
        for len in 1..=REPEAT_MAX_PATTERN.min(n / 2).min(self.slotted_tail) {
            // The newest pair is one of the `len` pairs `uniform_stride`
            // checks; it alone rejects most lengths.
            if self.recent[n - 1 - len]
                .event
                .repeat_stride(newest)
                .is_none()
            {
                continue;
            }
            let Some((dt_ns, dseq, dfield)) = uniform_stride(&self.recent, n - 2 * len, len) else {
                continue;
            };
            let run = &mut self.run;
            run.pattern.clear();
            run.pattern
                .extend(self.recent.range(n - 2 * len..n - len).map(|e| e.event));
            run.occ_slots.clear();
            run.occ_slots
                .extend(self.recent.range(n - len..).map(|e| e.slot.unwrap()));
            run.cur_slots.clear();
            (run.dt_ns, run.dseq, run.dfield) = (dt_ns, dseq, dfield);
            (run.count, run.matched, run.phase) = (1, 0, Phase::Probation);
            return;
        }
    }

    /// Ends probation: claims the first suppressed occurrence (record +
    /// drops), removes it from the detection window, and settles every
    /// older still-slotted entry as kept physical output.
    fn commit_run(&mut self, fifo: &mut Fifo) {
        let run = &mut self.run;
        fifo.set_fate(run.occ_slots[0], Fate::RecordOpen);
        for &slot in &run.occ_slots[1..] {
            fifo.set_fate(slot, Fate::Drop);
        }
        fifo.suppressed += run.occ_slots.len() as u64;
        run.phase = Phase::Committed;
        // The occurrence entries are the tail of `recent` (probation
        // admits no new entries); drop them from the window and settle
        // everything older — the run owns the tail from here on, and
        // `recent` is rebuilt at run close.
        self.recent
            .truncate(self.recent.len() - run.occ_slots.len());
        self.keep_recent(fifo);
    }

    /// Settles every still-slotted entry of `recent` as kept.
    fn keep_recent(&mut self, fifo: &mut Fifo) {
        for entry in self.recent.iter_mut() {
            if let Some(slot) = entry.slot.take() {
                fifo.set_fate(slot, Fate::Keep);
            }
        }
        self.slotted_tail = 0;
    }

    /// Ends the committed run: settles the partial occurrence as kept,
    /// queues the record, and rebuilds `recent` as the run's logical
    /// tail so later detection sees the same history an expander would.
    fn close_run(&mut self, fifo: &mut Fifo) {
        let run = &mut self.run;
        debug_assert_eq!(
            run.phase,
            Phase::Committed,
            "close_run without committed run"
        );
        run.phase = Phase::Idle;
        for &slot in &run.cur_slots {
            fifo.set_fate(slot, Fate::Keep);
        }
        let (slot, count) = (run.occ_slots[0], run.count);
        let kind = EventKind::Repeat {
            len: run.pattern.len() as u32,
            count,
            dt_ns: run.dt_ns,
            dseq: run.dseq,
            dfield: run.dfield,
        };
        fifo.set_fate(slot, Fate::RecordClosed);
        // Runs close in any order; keep the queue in slot order.
        let at = fifo.closed.partition_point(|&(s, _)| s < slot);
        fifo.closed.insert(at, (slot, kind));
        fifo.records += 1;

        // At most 16 + 15 entries: the window needs no trimming.
        let (pattern, dt_ns, dseq, dfield) = (&run.pattern, run.dt_ns, run.dseq, run.dfield);
        let shifted = |r: u64| {
            pattern.iter().map(move |p| RecentEntry {
                event: p.repeat_shifted(r, dt_ns, dseq, dfield),
                slot: None,
            })
        };
        self.recent.clear();
        self.recent.extend(shifted(count as u64));
        self.recent
            .extend(shifted(count as u64 + 1).take(run.matched));
        self.slotted_tail = 0;
    }
}

/// Suppresses a whole in-memory event sequence (stream order assumed).
pub fn suppress_events(events: &[Event]) -> Vec<Event> {
    let mut s = Suppressor::new();
    let mut out = Vec::with_capacity(events.len());
    let mut collect = |e| {
        out.push(e);
        Ok::<(), Infallible>(())
    };
    for &e in events {
        let Ok(()) = s.push(e, &mut collect);
    }
    let Ok(()) = s.finish(&mut collect);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{ProcessorId, StatementId, SyncTag, SyncVarId, Time};

    fn stmt(t: u64, proc: u16, seq: u64, s: u32) -> Event {
        Event::new(
            Time::from_nanos(t),
            ProcessorId(proc),
            seq,
            EventKind::Statement {
                stmt: StatementId(s),
            },
        )
    }

    fn advance(t: u64, proc: u16, seq: u64, tag: i64) -> Event {
        Event::new(
            Time::from_nanos(t),
            ProcessorId(proc),
            seq,
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(tag),
            },
        )
    }

    #[test]
    fn non_repetitive_stream_passes_through() {
        let events: Vec<Event> = (0..20).map(|i| stmt(i * 10, 0, i, i as u32)).collect();
        assert_eq!(suppress_events(&events), events);
    }

    #[test]
    fn single_event_run_collapses() {
        // 100 identical-stride statement events: 1 kept + 1 record(1x99).
        let events: Vec<Event> = (0..100).map(|i| stmt(i * 10, 0, i, 7)).collect();
        let out = suppress_events(&events);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], events[0]);
        assert_eq!(out[1].time, events[1].time);
        assert_eq!(out[1].seq, events[1].seq);
        assert_eq!(
            out[1].kind,
            EventKind::Repeat {
                len: 1,
                count: 99,
                dt_ns: 10,
                dseq: 1,
                dfield: 0,
            }
        );
    }

    #[test]
    fn multi_event_pattern_with_field_stride() {
        // Pattern [stmt(5), advance(tag+1 per occurrence)] repeated 50x.
        let mut events = Vec::new();
        for r in 0..50u64 {
            events.push(stmt(r * 100, 0, 2 * r, 5));
            events.push(advance(r * 100 + 40, 0, 2 * r + 1, r as i64));
        }
        let out = suppress_events(&events);
        assert_eq!(out.len(), 3, "pattern + record expected, got {out:?}");
        assert_eq!(&out[..2], &events[..2]);
        assert_eq!(
            out[2].kind,
            EventKind::Repeat {
                len: 2,
                count: 49,
                dt_ns: 100,
                dseq: 2,
                dfield: 1,
            }
        );
        assert_eq!(out[2].time, events[2].time);
        assert_eq!(out[2].seq, events[2].seq);
    }

    #[test]
    fn critical_section_loop_collapses_and_task_waves_do_not() {
        use ppa_trace::{LockId, TaskId};
        let lock = |t: u64, seq: u64, acquire: bool| {
            Event::new(
                Time::from_nanos(t),
                ProcessorId(0),
                seq,
                if acquire {
                    EventKind::LockAcquire { lock: LockId(3) }
                } else {
                    EventKind::LockRelease { lock: LockId(3) }
                },
            )
        };
        // [lockA(K3), stmt, lockR(K3)] with uniform stride, 40 rounds.
        let mut events = Vec::new();
        for r in 0..40u64 {
            events.push(lock(r * 100, 3 * r, true));
            events.push(stmt(r * 100 + 30, 0, 3 * r + 1, 9));
            events.push(lock(r * 100 + 60, 3 * r + 2, false));
        }
        let out = suppress_events(&events);
        assert_eq!(out.len(), 4, "pattern + record expected, got {out:?}");
        assert_eq!(&out[..3], &events[..3]);
        assert_eq!(
            out[3].kind,
            EventKind::Repeat {
                len: 3,
                count: 39,
                dt_ns: 100,
                dseq: 3,
                dfield: 0,
            }
        );

        // Fork/join waves use a fresh task id per round; episode ids
        // are identities, so nothing may collapse.
        let forks: Vec<Event> = (0..40u64)
            .map(|r| {
                Event::new(
                    Time::from_nanos(r * 100),
                    ProcessorId(0),
                    r,
                    EventKind::TaskFork {
                        task: TaskId(r as u32),
                    },
                )
            })
            .collect();
        assert_eq!(suppress_events(&forks), forks);
    }

    #[test]
    fn interleaved_processors_suppress_independently() {
        // Two procs, events interleaved in time; each proc is a pure
        // run. Output must keep global order.
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(stmt(i * 10, (i % 2) as u16, i, 3));
        }
        let out = suppress_events(&events);
        // Each proc: first event kept, rest collapse into one record.
        assert_eq!(out.len(), 4);
        assert!(out.windows(2).all(|w| w[0].order_key() <= w[1].order_key()));
        let records = out
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Repeat { .. }))
            .count();
        assert_eq!(records, 2);
    }

    #[test]
    fn run_break_resumes_cleanly() {
        // A run, an interloper, then another run: both runs collapse,
        // the interloper survives.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..30u64 {
            events.push(stmt(i * 10, 0, seq, 1));
            seq += 1;
        }
        events.push(advance(305, 0, seq, 9));
        seq += 1;
        for i in 0..30u64 {
            events.push(stmt(400 + i * 10, 0, seq, 2));
            seq += 1;
        }
        let out = suppress_events(&events);
        assert!(out
            .iter()
            .any(|e| matches!(e.kind, EventKind::Advance { .. })));
        let records: Vec<_> = out
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Repeat { .. }))
            .collect();
        assert_eq!(records.len(), 2, "{out:?}");
        assert!(out.len() < events.len() / 2);
    }

    #[test]
    fn trivial_one_for_one_candidate_is_abandoned() {
        // Two stride-compatible events then a break: the candidate run
        // never leaves probation, so everything passes through.
        let events = vec![stmt(0, 0, 0, 1), stmt(10, 0, 1, 1), advance(20, 0, 2, 0)];
        assert_eq!(suppress_events(&events), events);
    }

    #[test]
    fn counters_account_for_suppressed_events() {
        let events: Vec<Event> = (0..100).map(|i| stmt(i * 10, 0, i, 7)).collect();
        let mut s = Suppressor::new();
        let mut out = 0u64;
        let mut count = |_| {
            out += 1;
            Ok::<(), Infallible>(())
        };
        for &e in &events {
            let Ok(()) = s.push(e, &mut count);
        }
        let Ok(()) = s.finish(&mut count);
        assert_eq!(s.records(), 1);
        assert_eq!(s.suppressed(), 99);
        // physical out + logically suppressed - records == input
        assert_eq!(out - s.records() + s.suppressed(), 100);
    }

    #[test]
    fn stride_requires_matching_ids() {
        // Same kind, different statement ids: no stride, no suppression.
        let events: Vec<Event> = (0..20).map(|i| stmt(i * 10, 0, i, i as u32 % 2)).collect();
        // stmt ids alternate 0,1 — that IS a repeating 2-pattern.
        let out = suppress_events(&events);
        assert!(out.len() < events.len());
        // But irregular ids suppress nothing:
        let irregular: Vec<Event> = (0..20)
            .map(|i| stmt(i * 10, 0, i, [0, 1, 1, 0][i as usize % 4]))
            .collect();
        let out = suppress_events(&irregular);
        assert!(
            out.iter()
                .filter(|e| matches!(e.kind, EventKind::Repeat { .. }))
                .all(|r| matches!(r.kind, EventKind::Repeat { len, .. } if len == 4)),
            "{out:?}"
        );
    }

    /// The largest single allocation, and the number of allocations, on
    /// the current thread, so tests running side by side do not see each
    /// other.
    mod largest {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        struct LargestAlloc;

        thread_local! {
            static LARGEST: Cell<usize> = const { Cell::new(0) };
            static COUNT: Cell<usize> = const { Cell::new(0) };
        }

        fn note(size: usize) {
            // `try_with`: the allocator also runs while a thread's locals
            // are being torn down.
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }

        // SAFETY: defers every operation to `System`; the bookkeeping
        // touches only const-initialized thread-local `Cell`s and never
        // allocates.
        unsafe impl GlobalAlloc for LargestAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc(layout)
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static ALLOC: LargestAlloc = LargestAlloc;

        /// What `f` allocated on this thread: the largest allocation and
        /// the number of allocations (a `realloc` counts as one).
        pub(super) struct Allocs {
            pub(super) largest: usize,
            pub(super) count: usize,
        }

        pub(super) fn of(f: impl FnOnce()) -> Allocs {
            LARGEST.with(|l| l.set(0));
            COUNT.with(|c| c.set(0));
            f();
            Allocs {
                largest: LARGEST.with(Cell::get),
                count: COUNT.with(Cell::get),
            }
        }
    }

    /// Eight processors repeating one statement each keep a record open
    /// on every processor, so the FIFO fills to its bound and forces its
    /// front from then on — without ever growing past the bound's slots.
    #[test]
    fn fifo_stays_at_its_bound() {
        let events: Vec<Event> = (0..200_000u64)
            .map(|i| stmt(i * 100, (i % 8) as u16, i, (i % 8) as u32))
            .collect();
        let mut s = Suppressor::new();
        let mut peak_fifo = 0;
        let discard = |_| Ok::<(), Infallible>(());
        let largest = largest::of(|| {
            for &e in &events {
                let Ok(()) = s.push(e, discard);
                peak_fifo = peak_fifo.max(s.fifo.slots.len());
            }
            let Ok(()) = s.finish(discard);
        })
        .largest;
        assert_eq!(peak_fifo, FIFO_BOUND, "the fixture fills the FIFO");
        let bound = (FIFO_BOUND + 1) * std::mem::size_of::<Slot>();
        assert!(
            largest <= bound,
            "a {largest}-byte allocation, bound {bound}"
        );
    }

    /// Eight periodic processors, each repeating one statement at a
    /// fixed stride (`i` the event's position in the stream).
    fn periodic(i: u64) -> Event {
        stmt(i * 100, (i % 8) as u16, i, (i % 8) as u32)
    }

    /// Inside a committed run an occurrence costs no allocation: the
    /// occurrence's slots are marked and the buffer is cleared, and a run
    /// forced closed at the FIFO bound reopens in the buffers it had.
    #[test]
    fn a_committed_run_allocates_nothing_per_occurrence() {
        let mut s = Suppressor::new();
        let discard = |_| Ok::<(), Infallible>(());
        // Past the bound, so the FIFO has forced every processor's run
        // closed once, and each has reopened.
        let warm = 100_000;
        for i in 0..warm {
            let Ok(()) = s.push(periodic(i), discard);
        }
        assert_eq!((s.detectors.table.len(), s.records()), (8, 8));
        let allocs = largest::of(|| {
            for i in warm..warm + 100_000 {
                let Ok(()) = s.push(periodic(i), discard);
            }
        });
        assert_eq!(allocs.count, 0, "allocations in 100 000 pushes");
        assert!(s.records() > 8, "the runs closed and reopened again");
    }

    /// A processor id of 65 535 costs 4 bytes of index per id below it,
    /// not a detector, and changes nothing else.
    #[test]
    fn sparse_processor_ids_cost_an_index_not_a_detector() {
        let on = |hi: u16| -> Vec<Event> {
            (0..5_000u64)
                .map(|i| {
                    let proc = if i % 2 == 0 { 0 } else { hi };
                    // Processor `hi` repeats; processor 0 breaks its run
                    // every 50 events.
                    let s = if proc == 0 && i % 100 == 0 { 99 } else { 5 };
                    stmt(i * 10, proc, i, s)
                })
                .collect()
        };
        let dense = suppress_events(&on(1));
        let sparse_in = on(u16::MAX);
        let mut sparse = Vec::new();
        let mut s = Suppressor::new();
        let allocs = largest::of(|| {
            let mut collect = |e| {
                sparse.push(e);
                Ok::<(), Infallible>(())
            };
            for &e in &sparse_in {
                let Ok(()) = s.push(e, &mut collect);
            }
            let Ok(()) = s.finish(&mut collect);
        });
        assert!(
            allocs.largest <= 256 << 10,
            "a {}-byte allocation",
            allocs.largest
        );
        for e in &mut sparse {
            if e.proc == ProcessorId(u16::MAX) {
                e.proc = ProcessorId(1);
            }
        }
        assert_eq!(sparse, dense);
        assert!(
            dense.len() < 1_000,
            "the stream suppresses: {}",
            dense.len()
        );
    }

    /// A slot the FIFO bound forced out can never be claimed: processor 0
    /// sends `a b a`, falls silent past the bound, then sends `b` at the
    /// same stride, so `a b a b` would be two occurrences whose second
    /// starts at a slot already gone.
    #[test]
    fn a_forced_slot_is_never_claimed() {
        let quiet = FIFO_BOUND as u64 + 8;
        let mut events: Vec<Event> = [1, 2, 1]
            .into_iter()
            .enumerate()
            .map(|(i, s)| stmt(i as u64, 0, i as u64, s))
            .collect();
        events.extend((0..quiet).map(|i| stmt(2, 1, i, 10 + i as u32)));
        events.push(stmt(3, 0, 3, 2));
        assert_eq!(suppress_events(&events), events);
    }

    /// Event count and a CRC32 chained over each output event's `Debug`
    /// form.
    fn digest(events: &[Event]) -> (usize, u32) {
        use std::fmt::Write;
        let mut line = String::new();
        let crc = events.iter().fold(0, |crc, e| {
            line.clear();
            write!(line, "{e:?}").unwrap();
            ppa_trace::crc32_chain(crc, line.as_bytes())
        });
        (events.len(), crc)
    }

    /// SplitMix64, as the benchmark's fixtures draw their shapes.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// The benchmark's periodic shape (eight processors, one statement
    /// each at a seeded stride) at 200 000 events, so the FIFO bound
    /// forces fronts and runs close and reopen: the output is the one
    /// pinned when the suppressor held 104-byte slots.
    #[test]
    fn the_periodic_shape_keeps_its_output() {
        let mut rng = Rng(1991);
        let stride = 64 + rng.below(64);
        let base = 1_000 + rng.below(1_000);
        let first = rng.below(32) as u32;
        let events: Vec<Event> = (0..200_000u64)
            .map(|i| {
                let (round, proc) = (i / 8, i % 8);
                stmt(
                    base + round * stride + proc,
                    proc as u16,
                    i,
                    first + proc as u32,
                )
            })
            .collect();
        assert_eq!(digest(&suppress_events(&events)), (40, 3_941_888_649));
    }

    /// Four processors looping over a critical section on one of two
    /// locks, a seeded tenth of the rounds delayed so runs break and
    /// resume: the output is the one pinned when the suppressor held
    /// 104-byte slots.
    #[test]
    fn a_lock_loop_keeps_its_output() {
        use ppa_trace::LockId;
        let mut rng = Rng(7);
        let mut events = Vec::new();
        for proc in 0..4u16 {
            let lock = LockId(u32::from(proc % 2));
            let mut t = u64::from(proc) * 7;
            for _ in 0..5_000 {
                if rng.below(10) == 0 {
                    t += 1 + rng.below(40);
                }
                for (dt, kind) in [
                    (0, EventKind::LockAcquire { lock }),
                    (
                        20,
                        EventKind::Statement {
                            stmt: StatementId(3),
                        },
                    ),
                    (45, EventKind::LockRelease { lock }),
                ] {
                    events.push(Event::new(
                        Time::from_nanos(t + dt),
                        ProcessorId(proc),
                        0,
                        kind,
                    ));
                }
                t += 100;
            }
        }
        events.sort_by_key(|e| (e.time, e.proc));
        for (seq, e) in events.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        assert_eq!(digest(&suppress_events(&events)), (22_876, 3_522_867_556));
    }
}
