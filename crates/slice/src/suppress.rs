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
//! construction and latency is bounded by [`FIFO_BOUND`].
//!
//! Per processor, a detector keeps the most recent logical events
//! (at most `2 *` [`REPEAT_MAX_PATTERN`]). With no active run it looks,
//! after every arrival, for the smallest pattern length `L` such that
//! the last `2L` events form two occurrences under a uniform
//! `(dt, dseq, dfield)` stride. A fresh candidate starts *on
//! probation*: it claims nothing until one further event matches its
//! third occurrence, so a spurious short candidate (a repeated element
//! inside a longer pattern) is abandoned with the detection window
//! intact instead of wrecking detection of the real period. With a
//! committed run the detector matches arrivals against the next
//! expected occurrence exactly; any mismatch closes the run.

use ppa_trace::{Event, EventKind, REPEAT_MAX_PATTERN};
use std::collections::{BTreeMap, VecDeque};
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
    /// Replaced by a repeat record; blocks the front while `open`.
    Record {
        len: u32,
        count: u32,
        dt_ns: u64,
        dseq: u64,
        dfield: i64,
        open: bool,
    },
}

#[derive(Debug)]
struct Slot {
    event: Event,
    fate: Fate,
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

#[derive(Debug)]
struct Run {
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
    /// False while the run is on probation: a candidate two-occurrence
    /// match that has not yet claimed any slots. Probation exists so a
    /// spurious short candidate (a repeated element *inside* a longer
    /// pattern) can be abandoned without wrecking the detection window
    /// for the real, longer pattern.
    committed: bool,
}

#[derive(Debug, Default)]
struct Detector {
    recent: VecDeque<RecentEntry>,
    run: Option<Run>,
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
    fifo: VecDeque<Slot>,
    /// Slot id of `fifo[0]`; slot ids increase by one per push, ever.
    head_id: u64,
    detectors: BTreeMap<u16, Detector>,
    records: u64,
    suppressed: u64,
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
            fifo: VecDeque::with_capacity(FIFO_BOUND + 1),
            head_id: 0,
            detectors: BTreeMap::new(),
            records: 0,
            suppressed: 0,
        }
    }

    /// Repeat records emitted so far (drained ones only).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Events suppressed so far — the logical events the emitted and
    /// in-progress records stand for.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    fn set_fate(&mut self, slot: u64, fate: Fate) {
        let idx = (slot - self.head_id) as usize;
        self.fifo[idx].fate = fate;
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
        let id = self.head_id + self.fifo.len() as u64;
        self.fifo.push_back(Slot {
            event,
            fate: Fate::Pending,
        });

        let proc = event.proc.0;
        let mut det = self.detectors.remove(&proc).unwrap_or_default();
        self.advance_detector(&mut det, event, id);
        self.detectors.insert(proc, det);

        self.drain(&mut emit)?;
        while self.fifo.len() > FIFO_BOUND {
            self.force_front();
            self.drain(&mut emit)?;
        }
        Ok(())
    }

    /// Flushes: closes every committed run, keeps every still-pending
    /// candidate, and hands `emit` the whole FIFO, one event at a time.
    pub fn finish<E>(&mut self, mut emit: impl FnMut(Event) -> Result<(), E>) -> Result<(), E> {
        let procs: Vec<u16> = self.detectors.keys().copied().collect();
        for proc in procs {
            let mut det = self.detectors.remove(&proc).unwrap();
            match &det.run {
                Some(run) if run.committed => self.close_run(&mut det),
                Some(_) => det.run = None, // probation: nothing claimed
                None => {}
            }
            for entry in det.recent.iter_mut() {
                if let Some(slot) = entry.slot.take() {
                    self.set_fate(slot, Fate::Keep);
                }
            }
            self.detectors.insert(proc, det);
        }
        self.drain(&mut emit)?;
        debug_assert!(self.fifo.is_empty());
        Ok(())
    }

    fn advance_detector(&mut self, det: &mut Detector, event: Event, id: u64) {
        if let Some(run) = det.run.as_mut() {
            let expected = run.pattern[run.matched].repeat_shifted(
                run.count as u64 + 1,
                run.dt_ns,
                run.dseq,
                run.dfield,
            );
            if event == expected {
                run.cur_slots.push(id);
                run.matched += 1;
                if !run.committed {
                    self.commit_run(det);
                }
                let run = det.run.as_mut().expect("run survives commit");
                if run.matched == run.pattern.len() {
                    let slots = std::mem::take(&mut run.cur_slots);
                    let n = slots.len() as u64;
                    run.matched = 0;
                    run.count += 1;
                    let full = run.count == u32::MAX;
                    for slot in slots {
                        self.set_fate(slot, Fate::Drop);
                    }
                    self.suppressed += n;
                    if full {
                        self.close_run(det);
                    }
                }
                return;
            }
            if run.committed {
                self.close_run(det);
            } else {
                // Abandoned probation: nothing was claimed, and the
                // candidate's events are still (slotted) in `recent`,
                // so a longer pattern can be detected over them.
                det.run = None;
            }
            // fall through: the mismatching event starts fresh detection
        }

        det.recent.push_back(RecentEntry {
            event,
            slot: Some(id),
        });
        if det.recent.len() > RECENT_CAP {
            let evicted = det.recent.pop_front().unwrap();
            if let Some(slot) = evicted.slot {
                self.set_fate(slot, Fate::Keep);
            }
        }
        self.try_start_run(det);
    }

    /// Looks for the smallest pattern length whose last two occurrences
    /// sit at the tail of `det.recent`; if found, opens a probation run
    /// there. Nothing is claimed until the run commits.
    fn try_start_run(&mut self, det: &mut Detector) {
        let n = det.recent.len();
        for len in 1..=REPEAT_MAX_PATTERN.min(n / 2) {
            // The occurrence to suppress must still be physically
            // claimable; the pattern half only has to exist logically.
            if !(n - len..n).all(|i| det.recent[i].slot.is_some()) {
                continue;
            }
            let Some((dt_ns, dseq, dfield)) = uniform_stride(&det.recent, n - 2 * len, len) else {
                continue;
            };
            let pattern: Vec<Event> = (n - 2 * len..n - len)
                .map(|i| det.recent[i].event)
                .collect();
            let occ_slots: Vec<u64> = (n - len..n).map(|i| det.recent[i].slot.unwrap()).collect();
            det.run = Some(Run {
                pattern,
                dt_ns,
                dseq,
                dfield,
                count: 1,
                occ_slots,
                matched: 0,
                cur_slots: Vec::new(),
                committed: false,
            });
            return;
        }
    }

    /// Ends probation: claims the first suppressed occurrence (record +
    /// drops), removes it from the detection window, and settles every
    /// older still-slotted entry as kept physical output.
    fn commit_run(&mut self, det: &mut Detector) {
        let run = det.run.as_mut().expect("commit without run");
        let len = run.pattern.len();
        self.set_fate(
            run.occ_slots[0],
            Fate::Record {
                len: len as u32,
                count: 1,
                dt_ns: run.dt_ns,
                dseq: run.dseq,
                dfield: run.dfield,
                open: true,
            },
        );
        for &slot in &run.occ_slots[1..] {
            self.set_fate(slot, Fate::Drop);
        }
        self.suppressed += len as u64;
        run.committed = true;
        // The occurrence entries are the tail of `recent` (probation
        // admits no new entries); drop them from the window and settle
        // everything older — the run owns the tail from here on, and
        // `recent` is rebuilt at run close.
        det.recent.truncate(det.recent.len() - len);
        for entry in det.recent.iter_mut() {
            if let Some(slot) = entry.slot.take() {
                self.set_fate(slot, Fate::Keep);
            }
        }
    }

    /// Ends `det`'s committed run: settles the partial occurrence as
    /// kept, finalizes the record, and rebuilds `recent` as the run's
    /// logical tail so later detection sees the same history an
    /// expander would.
    fn close_run(&mut self, det: &mut Detector) {
        let run = det.run.take().expect("close_run without active run");
        debug_assert!(run.committed, "close_run on probation run");
        for &slot in &run.cur_slots {
            self.set_fate(slot, Fate::Keep);
        }
        self.set_fate(
            run.occ_slots[0],
            Fate::Record {
                len: run.pattern.len() as u32,
                count: run.count,
                dt_ns: run.dt_ns,
                dseq: run.dseq,
                dfield: run.dfield,
                open: false,
            },
        );
        self.records += 1;

        let mut recent = VecDeque::with_capacity(RECENT_CAP);
        for p in &run.pattern {
            recent.push_back(RecentEntry {
                event: p.repeat_shifted(run.count as u64, run.dt_ns, run.dseq, run.dfield),
                slot: None,
            });
        }
        for p in run.pattern.iter().take(run.matched) {
            recent.push_back(RecentEntry {
                event: p.repeat_shifted(run.count as u64 + 1, run.dt_ns, run.dseq, run.dfield),
                slot: None,
            });
        }
        while recent.len() > RECENT_CAP {
            recent.pop_front();
        }
        det.recent = recent;
    }

    /// Forces the front slot's fate so a bounded FIFO keeps draining.
    fn force_front(&mut self) {
        let front = self.fifo.front().expect("force_front on empty fifo");
        let proc = front.event.proc.0;
        match front.fate {
            Fate::Pending => {
                let id = self.head_id;
                let mut det = self
                    .detectors
                    .remove(&proc)
                    .expect("pending slot has detector");
                let pos = det
                    .recent
                    .iter()
                    .position(|e| e.slot == Some(id))
                    .expect("pending slot tracked in recent");
                det.recent[pos].slot = None;
                // A probation run whose candidate occurrence loses this
                // slot can no longer claim it; abandon the candidate.
                if det
                    .run
                    .as_ref()
                    .is_some_and(|r| !r.committed && r.occ_slots.contains(&id))
                {
                    det.run = None;
                }
                self.set_fate(id, Fate::Keep);
                self.detectors.insert(proc, det);
            }
            Fate::Record { open: true, .. } => {
                let mut det = self
                    .detectors
                    .remove(&proc)
                    .expect("open record has detector");
                self.close_run(&mut det);
                self.detectors.insert(proc, det);
            }
            // Keep/Drop/closed-Record fates drain on their own; drain()
            // only stops on the two cases above.
            _ => unreachable!("force_front on settled slot"),
        }
    }

    fn drain<E>(&mut self, emit: &mut impl FnMut(Event) -> Result<(), E>) -> Result<(), E> {
        while let Some(front) = self.fifo.front() {
            match front.fate {
                Fate::Pending | Fate::Record { open: true, .. } => break,
                Fate::Keep => emit(front.event)?,
                Fate::Drop => {}
                Fate::Record {
                    len,
                    count,
                    dt_ns,
                    dseq,
                    dfield,
                    open: false,
                } => emit(Event {
                    kind: EventKind::Repeat {
                        len,
                        count,
                        dt_ns,
                        dseq,
                        dfield,
                    },
                    ..front.event
                })?,
            }
            self.fifo.pop_front();
            self.head_id += 1;
        }
        Ok(())
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

    /// The largest single allocation on the current thread, so tests
    /// running side by side do not see each other.
    mod largest {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        struct LargestAlloc;

        thread_local! {
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        fn note(size: usize) {
            // `try_with`: the allocator also runs while a thread's locals
            // are being torn down.
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }

        // SAFETY: defers every operation to `System`; the bookkeeping
        // touches only a const-initialized thread-local `Cell` and never
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

        /// The largest allocation `f` made on this thread.
        pub(super) fn of(f: impl FnOnce()) -> usize {
            LARGEST.with(|l| l.set(0));
            f();
            LARGEST.with(Cell::get)
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
                peak_fifo = peak_fifo.max(s.fifo.len());
            }
            let Ok(()) = s.finish(discard);
        });
        assert_eq!(peak_fifo, FIFO_BOUND, "the fixture fills the FIFO");
        let bound = (FIFO_BOUND + 1) * std::mem::size_of::<Slot>();
        assert!(
            largest <= bound,
            "a {largest}-byte allocation, bound {bound}"
        );
    }
}
