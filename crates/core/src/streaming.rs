//! Incremental (streaming) event-based perturbation analysis.
//!
//! [`EventBasedAnalyzer`] consumes a measured trace one event at a time
//! and produces the approximated trace — plus await and barrier outcomes —
//! with memory proportional to the number of processors and *open*
//! synchronization episodes, not to the trace length. It applies exactly
//! the §4.2.3 approximation rules of the batch algorithm
//! ([`event_based`](crate::event_based)):
//!
//! ```text
//! ta(advance) = ta(u) + tm(advance) − tm(u) − α
//! ta(awaitB)  = ta(v) + tm(awaitB)  − tm(v) − β
//! ta(awaitE)  = ta(awaitB) + s_nowait              if ta(advance) ≤ ta(awaitB)
//!             = ta(advance) + s_wait               otherwise
//! ta(barrier exit) = max over enters ta(enter) + barrier_release
//! ```
//!
//! and is observationally identical to the batch analysis: the same
//! approximated events in the same (sorted) order, the same outcomes, and
//! the same error for infeasible traces.
//!
//! # How it stays bounded
//!
//! The analyzer carries only *frontier* state:
//!
//! - per processor: the last event's measured and approximated times and
//!   the pending `awaitB`, if any;
//! - the latest loop-begin marker (the fork anchor of §4.2.3);
//! - *parked* events whose approximated time is not yet computable — an
//!   `awaitE` whose partner `advance` has not arrived, a barrier exit
//!   whose episode is still open — each holding the unresolved
//!   dependencies that will wake it;
//! - a small reorder buffer of resolved events not yet safe to emit;
//! - the sync-protocol rulebook's open barrier, lock, semaphore and
//!   fork/join state (per semaphore, the V's no P has consumed yet).
//!
//! Emission is watermark-driven: a resolved event leaves the buffer once
//! every event that could still resolve earlier provably cannot precede
//! it. The watermark is the minimum over the frontiers of the processors
//! the trace has used (advanced by the global measured clock, which
//! bounds any future same-thread event from below), the fork anchor, and
//! the registered floors of open synchronization constructs. In a
//! feasible trace every construct closes within a bounded horizon, so the
//! buffer stays small; [`StreamStats::peak_resident`] reports the
//! observed maximum.
//!
//! # State shaped by the order the analysis guarantees
//!
//! Most events resolve on arrival — their basis and partner have already
//! resolved — so resolution checks readiness first and applies the rule
//! on the spot; only an event that really waits builds a dependency list
//! and a parked node. The structures on the per-event path each follow
//! an order the rules above already guarantee instead of paying for a
//! general one:
//!
//! - **Emission lanes + spill** ([`emit_lanes`](crate::emit_lanes)). Under
//!   every rule except the two fork bases (loop-begin anchor, task spawn)
//!   approximated time is non-decreasing along a processor's chain, so
//!   the reorder buffer is one FIFO lane per processor, appended in O(1);
//!   an entry that does sort before its lane's tail goes to a small spill
//!   heap. The next event out is the smaller of the spill's top and the
//!   top of a heap of *non-empty* lanes' heads: O(log P + log spill) per
//!   event, whatever is buffered and however sparse the processor ids,
//!   and exactly the sequence one binary heap over all entries pops.
//! - **Dense advance table + spill, with waiter slots**
//!   ([`advance_table`](crate::advance_table)). The one structure that
//!   grows with the number of *distinct* tags (lenient pairing lets an
//!   `awaitE` precede its `advance`, so no tag can be retired before the
//!   trace ends). Advance tags are non-negative and, per variable,
//!   consecutive in DOACROSS traces: slots live in a per-variable vector
//!   indexed by tag, which never grows past twice its advances — a tag
//!   that would break that occupancy goes to a hash map. A slot holds the
//!   advance's record, or, until it arrives, the `awaitE`s waiting for
//!   it: the arrival takes them from its own slot, and the earliest of
//!   them is the `MissingAdvance` verdict. Memory is ≤ a constant ×
//!   (advances + waiting ends) on any input; snapshots walk it already
//!   sorted.
//! - **Floor heaps** ([`floors`](crate::floors)). The watermark's floor
//!   multiset is a min-heap of floors beside a min-heap of pending
//!   removals: O(log n) add and remove, an exact minimum.
//! - **Dirty log, only when someone will read it.** Incremental
//!   checkpoints carry the advance keys touched since the last one. They
//!   are appended to a log that starts recording at the first
//!   [`clear_advance_dirty`](EventBasedAnalyzer::clear_advance_dirty) (a
//!   checkpoint writer's first record is always a full snapshot) and is
//!   sorted and de-duplicated once per delta; a run that never
//!   checkpoints records nothing.
//!
//! # One rulebook
//!
//! Which barrier, lock, semaphore or fork/join event pairs with which,
//! and which breaks a rule, is decided by
//! [`EpisodeTracker`](ppa_trace::EpisodeTracker), the same rules
//! [`pair_sync_events`](ppa_trace::pair_sync_events) and `ppa check`
//! read through [`SyncTracker`](ppa_trace::SyncTracker). The analyzer
//! keeps only what resolution needs beside it: each barrier episode's
//! enters, exits and their approximated times, the enabling events'
//! times, and each open spawn. Advance/await pairing stays here: the
//! advance table is both its state and the resolution's waiter slots,
//! and a second copy of the one table that grows with the trace would
//! cost memory for nothing. A rule broken anywhere becomes one pending
//! [`TraceError`], kept by its rank
//! ([`TraceError::note`](ppa_trace::TraceError::note)).
//!
//! What leaves the fast structures is counted ([`SpillCounts`],
//! `ppa_emit_spill_total`, `ppa_advance_spill_total`): a handful or zero
//! on well-formed traces, and the first thing to look at on a slow run.

use crate::advance_table::{AdvanceRec, AdvanceTable, Inserted, WaitingEnds};
use crate::emit_lanes::{EmitEntry, EmitLanes, LaneEntry};
use crate::error::AnalysisError;
use crate::event_based::{AwaitOutcome, BarrierOutcome, EpisodeOutcome};
use crate::floors::Floors;
use ppa_obs::{Counter, Gauge, Registry};
use ppa_trace::{
    BarrierId, EpisodeFamily, EpisodeTracker, Event, EventKind, OverheadSpec, Pairing, ProcessorId,
    Span, SyncTag, SyncVarId, Time, TraceError,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Observability probes for [`EventBasedAnalyzer`].
///
/// The analyzer always carries a set of these; the default
/// ([`AnalyzerProbes::noop`]) is fully detached, so an unobserved
/// analyzer pays one branch per push and nothing on the drain path.
/// Attach real metrics with [`AnalyzerProbes::register`]. Gauges are
/// refreshed on the drain cadence (every 16 pushes), not per event, so
/// their cost is amortized away from the hot path.
#[derive(Clone, Debug, Default)]
pub struct AnalyzerProbes {
    /// Measured events accepted by `push` (`ppa_events_pushed_total`).
    pub events_pushed: Counter,
    /// Approximated events moved to the output (`ppa_events_emitted_total`).
    pub events_emitted: Counter,
    /// Nanoseconds between the newest arrival and the emission watermark
    /// (`ppa_watermark_lag`).
    pub watermark_lag: Gauge,
    /// Resident analysis state: parked + buffered events + episode records
    /// (`ppa_resident_events`).
    pub resident_events: Gauge,
    /// Barrier episodes currently open (`ppa_open_sync_episodes`).
    pub open_sync_episodes: Gauge,
    /// Approximated-time computations clamped at an underflow on the
    /// §4.2.3 hot path (`ppa_core_clamped_approx_total`).
    pub clamped_approx: Counter,
    /// Resolved events that sorted before their processor's emission
    /// lane tail and went to the spill heap (`ppa_emit_spill_total`).
    pub emit_spill: Counter,
    /// Advance keys that went to the advance table's hash spill instead
    /// of their variable's vector (`ppa_advance_spill_total`).
    pub advance_spill: Counter,
    /// Heap bytes of the whole [`Pipeline`](crate::Pipeline)'s resident
    /// state — every analyzer table, the reorder buffer, the report
    /// stage's batches (`ppa_resident_bytes`). The pipeline refreshes it
    /// every [`RESIDENT_SAMPLE_EVERY`](crate::RESIDENT_SAMPLE_EVERY)
    /// events; a bare analyzer leaves it alone.
    pub resident_bytes: Gauge,
}

impl AnalyzerProbes {
    /// Detached probes: every record is discarded.
    pub fn noop() -> Self {
        AnalyzerProbes::default()
    }

    /// Registers the analyzer metrics on `registry`.
    pub fn register(registry: &Registry) -> Self {
        AnalyzerProbes {
            events_pushed: registry.counter(
                "ppa_events_pushed_total",
                "Measured events accepted by the streaming analyzer.",
            ),
            events_emitted: registry.counter(
                "ppa_events_emitted_total",
                "Approximated events emitted by the streaming analyzer.",
            ),
            watermark_lag: registry.gauge(
                "ppa_watermark_lag",
                "Nanoseconds between the newest arrival and the emission watermark.",
            ),
            resident_events: registry.gauge(
                "ppa_resident_events",
                "Resident analyzer state: parked plus buffered events plus episode records.",
            ),
            open_sync_episodes: registry.gauge(
                "ppa_open_sync_episodes",
                "Barrier episodes currently open in the streaming analyzer.",
            ),
            clamped_approx: registry.counter(
                "ppa_core_clamped_approx_total",
                "Approximated-time clamps on the §4.2.3 hot path (an instrumentation \
                 overhead exceeded the inter-event delta, so the would-be-negative \
                 correction was clamped to zero).",
            ),
            emit_spill: registry.counter(
                "ppa_emit_spill_total",
                "Resolved events buffered in the emission spill heap because they \
                 sorted before their processor lane's tail.",
            ),
            advance_spill: registry.counter(
                "ppa_advance_spill_total",
                "Advance keys stored in the advance table's hash spill because their \
                 tag would have left the variable's vector under half occupied.",
            ),
            resident_bytes: registry.gauge(
                "ppa_resident_bytes",
                "Heap bytes of the pipeline's resident state: every analyzer table, \
                 the reorder buffer and the report stage's batches (capacity x \
                 element size).",
            ),
        }
    }
}

/// True for a kind with no synchronization or loop-begin semantics: the
/// generic §4.2.3 chain rule is all it needs, so with its basis resolved
/// it takes the analyzer's fast path. Every kind is listed by name, so a
/// new one does not compile until it is placed on one side.
#[inline]
fn is_plain_chain(kind: &EventKind) -> bool {
    match kind {
        EventKind::ProgramBegin
        | EventKind::ProgramEnd
        | EventKind::LoopEnd { .. }
        | EventKind::IterationBegin { .. }
        | EventKind::IterationEnd { .. }
        | EventKind::Statement { .. } => true,
        // Refused before analysis; never reaches the fast path.
        EventKind::Repeat { .. } => false,
        EventKind::Advance { .. }
        | EventKind::AwaitBegin { .. }
        | EventKind::AwaitEnd { .. }
        | EventKind::BarrierEnter { .. }
        | EventKind::BarrierExit { .. }
        | EventKind::LoopBegin { .. }
        | EventKind::LockAcquire { .. }
        | EventKind::LockRelease { .. }
        | EventKind::SemAcquire { .. }
        | EventKind::SemRelease { .. }
        | EventKind::TaskFork { .. }
        | EventKind::TaskJoin { .. } => false,
    }
}

/// Pushes between two watermark drains: the cadence the analyzer
/// releases output on and its gauges are refreshed on.
pub(crate) const DRAIN_EVERY: u32 = 16;

/// Where a drain puts what the analyzer releases, in release order:
/// the outcomes a push resolved, then the approximated events the
/// watermark let go of.
pub(crate) trait OutputSink {
    /// The next approximated event of the final trace.
    fn event(&mut self, event: Event);
    /// Any output, outcomes included.
    fn output(&mut self, output: StreamOutput);
}

/// The queue [`EventBasedAnalyzer::next_output`] reads.
impl OutputSink for VecDeque<StreamOutput> {
    #[inline]
    fn event(&mut self, event: Event) {
        self.push_back(StreamOutput::Event(event));
    }

    #[inline]
    fn output(&mut self, output: StreamOutput) {
        self.push_back(output);
    }
}

/// [`EventBasedAnalyzer::resident_bytes`] table by table, each as
/// capacity × element size.
#[derive(Debug, Default)]
pub(crate) struct ResidentTables {
    /// The emission lanes: lane table, blocks, free blocks, head heap.
    pub(crate) lanes: usize,
    /// The emission spill heap.
    pub(crate) spill: usize,
    /// The advance table, its dirty log, wake list and frozen waiters.
    pub(crate) advances: usize,
    /// Parked nodes, the resolution queue and the nodes' spare vectors.
    pub(crate) parked: usize,
    /// Barrier episodes, the rulebook's tracker, the enabling events and
    /// the open spawns.
    pub(crate) episodes: usize,
    /// The watermark floor heaps.
    pub(crate) floors: usize,
    /// The output queue.
    pub(crate) out: usize,
    /// The per-processor frontiers.
    pub(crate) procs: usize,
}

impl ResidentTables {
    /// Every table's bytes together.
    pub(crate) fn total(&self) -> usize {
        self.lanes
            + self.spill
            + self.advances
            + self.parked
            + self.episodes
            + self.floors
            + self.out
            + self.procs
    }
}

/// Heap bytes of a vector's buffer.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes of a hash map's slots.
fn map_bytes<K, V>(m: &FxMap<K, V>) -> usize {
    m.capacity() * std::mem::size_of::<(K, V)>()
}

/// Heap bytes of a B-tree map's entries (node overhead not counted).
fn btree_bytes<K, V>(m: &BTreeMap<K, V>) -> usize {
    m.len() * std::mem::size_of::<(K, V)>()
}

/// FxHash-style multiply-rotate hasher. Every key hashed by the analyzer
/// is a small fixed-size integer tuple, where the default SipHash's
/// per-call setup cost dominates the whole map operation.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_ne_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One item of analyzer output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamOutput {
    /// An approximated event. Events are emitted in the approximated
    /// trace's final (sorted) order.
    Event(Event),
    /// A completed await. `ordinal` is the arrival index of the `awaitE`
    /// in the measured trace; sorting outcomes by it reproduces the batch
    /// analysis's `awaits` order.
    Await {
        /// Arrival index of the `awaitE` event.
        ordinal: usize,
        /// The await, in approximated time.
        outcome: AwaitOutcome,
    },
    /// One processor's passage through a completed barrier episode.
    /// `ordinal` is the arrival index of the episode's first enter;
    /// sorting by it (stably) reproduces the batch `barriers` order.
    Barrier {
        /// Arrival index of the episode's first `BarrierEnter`.
        ordinal: usize,
        /// The passage, in approximated time.
        outcome: BarrierOutcome,
    },
    /// A completed lock/semaphore/task episode. `ordinal` is the arrival
    /// index of the blocked event (lock acquire, semaphore P, or the
    /// parent's join-return); sorting by it reproduces the batch
    /// `episodes` order.
    Episode {
        /// Arrival index of the blocked event.
        ordinal: usize,
        /// The episode, in approximated time.
        outcome: EpisodeOutcome,
    },
}

/// Resource counters for one analyzer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Events pushed.
    pub events: usize,
    /// Maximum number of simultaneously parked (unresolvable) events.
    pub peak_parked: usize,
    /// Maximum size of the emission reorder buffer.
    pub peak_buffered: usize,
    /// Maximum resident analysis state: parked events + buffered events +
    /// open barrier episodes. This is the `O(processors + open episodes)`
    /// quantity the streaming engine bounds; compare it to `events` to see
    /// the saving over batch analysis.
    pub peak_resident: usize,
    /// §4.2.3 value computations whose overhead correction exceeded the
    /// available delta and was clamped to keep the approximated time
    /// non-negative (locally non-decreasing). A nonzero count means the
    /// instrumentation overhead model overstates at least one event's
    /// cost relative to the measured inter-event spacing — the
    /// "instrumentation uncertainty" Malony warns about — and the
    /// approximation is correspondingly less trustworthy there.
    pub clamped: usize,
}

/// How often an input defeated the analyzer's order-aware structures
/// and fell back to their general (slower) spill paths. A handful on a
/// well-formed trace; a count near the number of events explains a slow
/// run. Like the probe counters these meter *this* process — they are
/// not part of a checkpoint and restart at zero on resume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillCounts {
    /// Resolved events that sorted before their processor's emission
    /// lane tail and were buffered in the spill heap.
    pub emit: u64,
    /// Advance keys stored in the advance table's hash spill.
    pub advance: u64,
}

/// Everything the analyzer still owes its caller after the last push.
#[derive(Debug, Clone)]
pub struct StreamTail {
    /// Outputs not yet drained, ending with the reorder buffer's flush.
    pub outputs: Vec<StreamOutput>,
    /// Final resource counters.
    pub stats: StreamStats,
    /// Spill-path counters of this process.
    pub spills: SpillCounts,
    /// Events still parked when the stream ended — their dependencies
    /// never resolved. Always `0` from [`EventBasedAnalyzer::finish`]
    /// (it fails instead); nonzero only from a lenient
    /// [`Pipeline`](crate::Pipeline) run, where a decode gap may have
    /// swallowed a partner `advance` or a barrier participant. Those
    /// parked events are dropped: their approximated times were never
    /// computable.
    pub unresolved: usize,
}

/// Which dependency slot of a parked event a delivered value fills.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Slot {
    /// The time basis (same-thread predecessor or fork anchor).
    Basis,
    /// The `awaitB` of an `awaitE`.
    Begin,
    /// The partner `advance` of an `awaitE`, or the enabling event of a
    /// blocked lock/sem/task episode completion.
    Advance,
    /// Ordering-only dependency (a barrier exit's own enter): the value
    /// participates in the watermark floor but not in the event's time.
    Order,
}

/// How a parked event's approximate time will be computed.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Rule {
    /// Generic rule: `ta = ta(basis) + (tm − tm(basis)) − overhead`.
    Chain {
        basis_tm: Time,
        basis_ta: Option<Time>,
    },
    /// The `awaitE` rule (§4.2.3, both Figure 2 cases).
    AwaitEnd { begin_ta: Option<Time>, adv: Adv },
    /// A barrier exit: the value arrives whole when the episode resolves.
    Exit { value: Option<Time> },
    /// A blocked lock/sem/task completion (acquire, P, join-return): the
    /// awaitE rule with the chain value as the ready time and the enabling
    /// event in the advance's role. `basis_tm == None` is the origin rule
    /// for the ready time.
    Blocked {
        basis_tm: Option<Time>,
        basis_ta: Option<Time>,
        dep: Adv,
    },
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Adv {
    /// Pre-advanced tag: no partner needed, never waits.
    NotNeeded,
    /// Partner advance not yet arrived or not yet resolved.
    Pending,
    /// Partner advance resolved at this approximated time.
    Got(Time),
}

/// How [`EventBasedAnalyzer::resolve_event`] applies an arriving event.
enum Ready {
    /// No basis: the origin rule, `tm − overhead`.
    Origin,
    /// Every input has resolved: apply the rule now.
    Now(Rule),
    /// Some input is still unresolved: park.
    Wait,
}

/// What a parking event waits for, and the floors of the inputs it
/// already has. Both lists have small static bounds (begin + advance +
/// basis), so they live on the stack.
struct Deps {
    pending: u32,
    waits_on: [(usize, Slot); 3],
    n_waits: usize,
    floors: [Time; 2],
    n_floors: usize,
}

impl Default for Deps {
    fn default() -> Self {
        Deps {
            pending: 0,
            waits_on: [(0, Slot::Basis); 3],
            n_waits: 0,
            floors: [Time::ZERO; 2],
            n_floors: 0,
        }
    }
}

impl Deps {
    /// Waits on the parked event `dep.0` to fill slot `dep.1`.
    fn need(&mut self, dep: (usize, Slot)) {
        self.pending += 1;
        self.waits_on[self.n_waits] = dep;
        self.n_waits += 1;
    }

    /// Holds the watermark at an input already resolved at `t`.
    fn have(&mut self, t: Time) {
        self.floors[self.n_floors] = t;
        self.n_floors += 1;
    }
}

/// A parked event: pushed, but not yet resolvable.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    event: Event,
    /// Outstanding dependency count.
    pending: u32,
    rule: Rule,
    /// Watermark floors this node has registered (removed on resolution).
    anchors: Vec<Time>,
    /// Parked events waiting on this one, with the slot each fills.
    waiters: Vec<(usize, Slot)>,
}

/// Per-processor frontier state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProcState {
    last_id: usize,
    last_tm: Time,
    /// Approximated time of the last event, once resolved.
    last_ta: Option<Time>,
    pending_await: Option<PendingAwait>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PendingAwait {
    var: SyncVarId,
    tag: SyncTag,
    begin_id: usize,
    /// Set (and registered as a watermark floor) when the begin resolves.
    begin_ta: Option<Time>,
}

/// The global fork anchor: the latest loop-begin marker.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct LoopAnchor {
    id: usize,
    tm: Time,
    ta: Option<Time>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EnterRec {
    id: usize,
    proc: ProcessorId,
    ta: Option<Time>,
}

/// One barrier episode in flight: the resolution state of the events
/// the rulebook paired into it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Episode {
    barrier: BarrierId,
    enters: Vec<EnterRec>,
    /// Arrival indices of the exits.
    exits: Vec<usize>,
    /// Enters whose approximated time is still unknown.
    unresolved_enters: usize,
    /// All exits have arrived; resolves when `unresolved_enters == 0`.
    closed: bool,
    /// Watermark floors registered by resolved enters.
    anchors: Vec<Time>,
}

/// Serializable image of an [`EventBasedAnalyzer`]'s complete state.
///
/// Produced by [`EventBasedAnalyzer::snapshot`], consumed by
/// [`EventBasedAnalyzer::restore`]. The fields are private: the image is
/// an opaque continuation token, meaningful only to the analyzer version
/// that wrote it (the checkpoint container guards this with a format
/// version and checksum). It serializes with `serde` — snapshots of equal
/// analyzer states produce identical JSON, which is what makes
/// kill-and-resume byte-reproducible.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzerSnapshot {
    oh: OverheadSpec,
    next_idx: usize,
    last_key: Option<(Time, u64, ProcessorId)>,
    last_tm: Time,
    serial_proc: Option<ProcessorId>,
    error: Option<TraceError>,
    procs: Vec<Option<ProcState>>,
    /// The advance table, packed as flat quads
    /// `[var, zigzag(tag), id, ta_nanos + 1 (0 = unresolved)]`. This is
    /// the one analyzer structure that grows with the trace's whole
    /// synchronization history rather than its live frontier, so it gets
    /// a numbers-only layout that serializes without per-entry
    /// allocations — checkpoint cadence work is dominated by this field.
    advances: Vec<u64>,
    missing_adv: Vec<(usize, (SyncVarId, SyncTag))>,
    latest_lb: Option<LoopAnchor>,
    episodes: Vec<(u64, Episode)>,
    open_by_barrier: Vec<(BarrierId, u64)>,
    next_ep_uid: u64,
    parked: Vec<(usize, Node)>,
    awaiting_advance: Vec<((SyncVarId, SyncTag), Vec<usize>)>,
    tracker: EpisodeTracker<usize>,
    dep_ta: Vec<(usize, Option<Time>)>,
    spawns: Vec<(usize, (Time, Option<Time>))>,
    anchors: Vec<(Time, u32)>,
    buffer: Vec<EmitEntry>,
    out: Vec<StreamOutput>,
    since_drain: u32,
    stats: StreamStats,
}

/// Incremental image of an [`EventBasedAnalyzer`]: everything a
/// [`snapshot`](EventBasedAnalyzer::snapshot) carries except the advance
/// table, of which only the entries touched since the last checkpoint are
/// included. Produced by
/// [`delta_snapshot`](EventBasedAnalyzer::delta_snapshot); folded into a
/// base snapshot by [`AnalyzerSnapshot::apply_delta`].
///
/// The advance table is the analyzer's only structure that grows with
/// the trace's whole synchronization history — between checkpoints only
/// a handful of its entries change, and re-serializing all of it is what
/// made full-snapshot checkpoint cadences cost ~31% of analysis time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzerDelta {
    /// A full frontier snapshot whose `advances` holds only the dirty
    /// quads (same packed layout, same key order).
    frontier: AnalyzerSnapshot,
    /// Total advance-table entries at delta time; the merged table must
    /// come out exactly this long, or the delta was applied to the wrong
    /// base.
    advances_len: u64,
}

impl AnalyzerSnapshot {
    /// Folds `delta` into this snapshot, producing the image the
    /// analyzer's full [`snapshot`](EventBasedAnalyzer::snapshot) would
    /// have produced at delta time. Fails (leaving `self` untouched)
    /// when the delta provably does not extend this base.
    pub fn apply_delta(&mut self, delta: &AnalyzerDelta) -> Result<(), String> {
        if !self.advances.len().is_multiple_of(4)
            || !delta.frontier.advances.len().is_multiple_of(4)
        {
            return Err("advance table is not packed as quads".into());
        }
        // Merge the dirty quads into the base's advance table. Both are
        // sorted by (var, tag) — note the stored tag is zigzag-mapped,
        // so ordering comparisons must unmap it first.
        let key = |quad: &[u64]| -> (u64, i64) {
            (quad[0], ((quad[1] >> 1) as i64) ^ -((quad[1] & 1) as i64))
        };
        let mut merged = Vec::with_capacity(self.advances.len() + delta.frontier.advances.len());
        let mut base = self.advances.chunks_exact(4).peekable();
        let mut dirty = delta.frontier.advances.chunks_exact(4).peekable();
        while let (Some(b), Some(d)) = (base.peek(), dirty.peek()) {
            match key(b).cmp(&key(d)) {
                std::cmp::Ordering::Less => merged.extend_from_slice(base.next().unwrap()),
                std::cmp::Ordering::Greater => merged.extend_from_slice(dirty.next().unwrap()),
                std::cmp::Ordering::Equal => {
                    // Dirty entry supersedes the base's (a resolved ta).
                    base.next();
                    merged.extend_from_slice(dirty.next().unwrap());
                }
            }
        }
        for rest in base.chain(dirty) {
            merged.extend_from_slice(rest);
        }
        if merged.len() as u64 != delta.advances_len * 4 {
            return Err(format!(
                "delta expects {} advance entries after merge, got {} — \
                 applied to the wrong base snapshot?",
                delta.advances_len,
                merged.len() / 4
            ));
        }
        let mut next = delta.frontier.clone();
        next.advances = merged;
        *self = next;
        Ok(())
    }
}

/// Streaming event-based perturbation analyzer (see the module docs).
///
/// Feed measured events in trace order with [`push`](Self::push), drain
/// incremental output with [`next_output`](Self::next_output), and call
/// [`finish`](Self::finish) for the tail and final verdict. The verdict —
/// the approximated events, the outcomes, and any [`AnalysisError`] — is
/// identical to running [`event_based`](crate::event_based) on the whole
/// trace. Validation errors other than a broken total order are deferred
/// to [`finish`](Self::finish), which reports the same error the batch
/// validator would have chosen.
#[derive(Debug)]
pub struct EventBasedAnalyzer {
    oh: OverheadSpec,
    max_instr_oh: Span,

    // Arrival bookkeeping.
    next_idx: usize,
    last_key: Option<(Time, u64, ProcessorId)>,
    last_tm: Time,
    serial_proc: Option<ProcessorId>,

    /// The error that decides the trace so far, kept by
    /// [`TraceError::note`]'s rank rule. A broken total order (rank 0)
    /// fails every later push; a scan error (rank 1) freezes the scan;
    /// from any error on, nothing resolves.
    error: Option<TraceError>,

    // Validation (scan) state.
    procs: Vec<Option<ProcState>>,
    /// Indices of the occupied `procs` slots, so the watermark visits
    /// the processors the trace uses and not every slot up to the
    /// largest id.
    seen_procs: Vec<usize>,
    advances: AdvanceTable,
    /// Advance-table keys inserted or resolved since the last
    /// [`clear_advance_dirty`](Self::clear_advance_dirty) — the working
    /// set an incremental checkpoint must carry — appended as they
    /// happen (an advance appears twice: arrival, resolution) and sorted
    /// and de-duplicated by [`delta_snapshot`](Self::delta_snapshot).
    /// `None` until the first `clear_advance_dirty`: a checkpoint
    /// writer's first record is always a full snapshot, so nothing reads
    /// a delta before that, and a run that never checkpoints records
    /// nothing at all.
    dirty_log: Option<Vec<(SyncVarId, SyncTag)>>,
    /// Ends the advance this push inserted took from its slot, for the
    /// resolution step to wake.
    woken: Vec<usize>,
    /// The waiting ends as they stood when the first error stopped
    /// resolution. From then on an arriving advance still
    /// clears its tag's `MissingAdvance` candidates from the table, but
    /// nothing wakes the ends it would have woken, and the snapshot's
    /// `awaiting_advance` keeps showing them.
    frozen_awaiting: Option<WaitingEnds>,

    // Structure state.
    latest_lb: Option<LoopAnchor>,

    /// The barrier, lock, semaphore and fork/join rulebook, stamped
    /// with arrival indices: which event pairs with which, and which
    /// breaks a rule.
    tracker: EpisodeTracker<usize>,

    // Barrier episodes.
    episodes: FxMap<u64, Episode>,
    open_by_barrier: BTreeMap<BarrierId, u64>,
    ep_of_enter: FxMap<usize, u64>,
    next_ep_uid: u64,

    // Lock, semaphore, and fork/join episodes.
    /// Resolved times of live enabling events (releases, V's, child
    /// ends), removed when the blocked side consumes them.
    dep_ta: FxMap<usize, Option<Time>>,
    /// Open spawns (a task's first fork) awaiting the child's begin, by
    /// arrival index: `(tm, ta)`. The spawn's resolved time is held as a
    /// watermark floor until the child's fork takes ownership of it.
    spawns: FxMap<usize, (Time, Option<Time>)>,

    // Dataflow resolution.
    parked: FxMap<usize, Node>,
    /// Watermark floor multiset.
    floors: Floors,

    // Emission.
    buffer: EmitLanes,
    /// Outcomes resolved but not yet drained, and — for
    /// [`next_output`](Self::next_output) — the drained events too.
    out: VecDeque<StreamOutput>,
    /// Pushes since the last watermark check (drains run on a cadence to
    /// amortize the watermark computation).
    since_drain: u32,
    /// The push that just ended brought the cadence due: drain before
    /// the next one. Always false between pushes.
    drain_due: bool,

    stats: StreamStats,
    spills: SpillCounts,
    probes: AnalyzerProbes,

    // Allocations reused across pushes: the delivery queue of one
    // resolution cascade, and the vectors of resolved `Node`s.
    queue: VecDeque<usize>,
    spare_anchors: Vec<Vec<Time>>,
    spare_waiters: Vec<Vec<(usize, Slot)>>,
}

/// Appends one advance record as a flat quad — the
/// [`AnalyzerSnapshot::advances`] layout.
fn pack_advance(out: &mut Vec<u64>, key: (SyncVarId, SyncTag), rec: &AdvanceRec) {
    out.push(u64::from(key.0 .0));
    out.push(((key.1 .0 << 1) ^ (key.1 .0 >> 63)) as u64);
    out.push(rec.id as u64);
    out.push(rec.ta.map_or(0, |t| t.as_nanos() + 1));
}

/// Returns a drained vector to a pool of spares. The pool stays small:
/// it only ever needs as many vectors as are live at once.
fn recycle<T>(pool: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    if v.capacity() > 0 && pool.len() < 64 {
        v.clear();
        pool.push(v);
    }
}

impl EventBasedAnalyzer {
    /// Creates an analyzer applying the given overhead model.
    pub fn new(overheads: &OverheadSpec) -> Self {
        let max_instr_oh = [
            overheads.statement_event,
            overheads.marker_event,
            overheads.advance_instr,
            overheads.await_begin_instr,
            overheads.await_end_instr,
            overheads.barrier_instr,
        ]
        .into_iter()
        .max()
        .unwrap_or(Span::ZERO);
        EventBasedAnalyzer {
            oh: *overheads,
            max_instr_oh,
            next_idx: 0,
            last_key: None,
            last_tm: Time::ZERO,
            serial_proc: None,
            error: None,
            procs: Vec::new(),
            seen_procs: Vec::new(),
            advances: AdvanceTable::default(),
            dirty_log: None,
            woken: Vec::new(),
            frozen_awaiting: None,
            latest_lb: None,
            tracker: EpisodeTracker::default(),
            episodes: FxMap::default(),
            open_by_barrier: BTreeMap::new(),
            ep_of_enter: FxMap::default(),
            next_ep_uid: 0,
            dep_ta: FxMap::default(),
            spawns: FxMap::default(),
            parked: FxMap::default(),
            floors: Floors::default(),
            buffer: EmitLanes::default(),
            out: VecDeque::new(),
            since_drain: 0,
            drain_due: false,
            stats: StreamStats::default(),
            spills: SpillCounts::default(),
            probes: AnalyzerProbes::noop(),
            queue: VecDeque::new(),
            spare_anchors: Vec::new(),
            spare_waiters: Vec::new(),
        }
    }

    /// Like [`EventBasedAnalyzer::new`], recording pipeline metrics into
    /// `probes` as the stream is analyzed.
    pub fn with_probes(overheads: &OverheadSpec, probes: AnalyzerProbes) -> Self {
        let mut a = Self::new(overheads);
        a.probes = probes;
        a
    }

    /// Distance between the newest arrival and the emission watermark, in
    /// measured time. A growing lag means buffered events are waiting on
    /// an open synchronization construct (e.g. a barrier episode still
    /// collecting enters); a small steady lag is the instrumentation
    /// overhead horizon.
    pub fn watermark_lag(&self) -> Span {
        self.last_tm.saturating_since(self.watermark())
    }

    /// Events currently resident in the analyzer's live state: parked
    /// events waiting on lost dependencies, buffered events below the
    /// emission watermark, and open synchronization episodes. The peak
    /// over a whole run is reported as [`StreamStats::peak_resident`];
    /// this is the instantaneous value, which long-running services use
    /// to bound per-session memory (e.g. `ppa serve`'s per-tenant
    /// resident-bytes quota).
    pub fn resident(&self) -> usize {
        self.parked.len() + self.buffer.len() + self.episodes.len()
    }

    /// Heap bytes of the analyzer's state: capacity × element size,
    /// summed over every table — the emission lanes and their spill, the
    /// advance table, the parked nodes, the episode / lock / semaphore /
    /// task tables, the watermark floors, the output queue and the
    /// per-processor frontiers. Unlike
    /// [`resident`](Self::resident) this sees the structures that grow
    /// with the trace's synchronization history.
    /// Cost is O(tables + live synchronization objects), so callers
    /// sample it ([`RESIDENT_SAMPLE_EVERY`](crate::RESIDENT_SAMPLE_EVERY))
    /// rather than compute it per push. (Each parked node's two short
    /// dependency lists are not walked: that would make it O(parked).)
    pub fn resident_bytes(&self) -> usize {
        self.resident_tables().total()
    }

    /// [`resident_bytes`](Self::resident_bytes), table by table.
    pub(crate) fn resident_tables(&self) -> ResidentTables {
        let frozen: usize = self.frozen_awaiting.as_ref().map_or(0, |lists| {
            vec_bytes(lists) + lists.iter().map(|(_, ends)| vec_bytes(ends)).sum::<usize>()
        });
        let episodes: usize = self
            .episodes
            .values()
            .map(|ep| vec_bytes(&ep.enters) + vec_bytes(&ep.exits) + vec_bytes(&ep.anchors))
            .sum();
        let spares: usize = self.spare_anchors.iter().map(vec_bytes).sum::<usize>()
            + self.spare_waiters.iter().map(vec_bytes).sum::<usize>();
        ResidentTables {
            lanes: self.buffer.lanes_bytes(),
            spill: self.buffer.spill_bytes(),
            advances: self.advances.resident_bytes()
                + self.dirty_log.as_ref().map_or(0, vec_bytes)
                + vec_bytes(&self.woken)
                + frozen,
            parked: map_bytes(&self.parked)
                + self.queue.capacity() * std::mem::size_of::<usize>()
                + spares,
            episodes: map_bytes(&self.episodes)
                + episodes
                + btree_bytes(&self.open_by_barrier)
                + map_bytes(&self.ep_of_enter)
                + self.tracker.heap_bytes()
                + map_bytes(&self.dep_ta)
                + map_bytes(&self.spawns),
            floors: self.floors.resident_bytes(),
            out: self.out.capacity() * std::mem::size_of::<StreamOutput>(),
            procs: vec_bytes(&self.procs) + vec_bytes(&self.seen_procs),
        }
    }

    /// Feeds the next measured event.
    ///
    /// Returns an error only for a broken total order — the one condition
    /// that cannot wait, because it invalidates every later judgment. All
    /// other validation failures are deferred to [`finish`](Self::finish)
    /// so that the reported error matches the batch validator's choice.
    /// What the push releases is queued for
    /// [`next_output`](Self::next_output).
    pub fn push(&mut self, event: Event) -> Result<(), AnalysisError> {
        self.analyze(event)?;
        if std::mem::take(&mut self.drain_due) {
            let mut out = std::mem::take(&mut self.out);
            self.drain_emission(&mut out);
            self.out = out;
        }
        Ok(())
    }

    /// [`push`](Self::push), handing what it releases to `sink` instead
    /// of the queue: the outcomes it resolved, then — when the cadence
    /// comes due — the events below the watermark, popped from the
    /// emission lanes straight into the sink.
    pub(crate) fn push_into(
        &mut self,
        event: Event,
        sink: &mut impl OutputSink,
    ) -> Result<(), AnalysisError> {
        self.analyze(event)?;
        while let Some(o) = self.out.pop_front() {
            sink.output(o);
        }
        if std::mem::take(&mut self.drain_due) {
            self.drain_emission(sink);
        }
        Ok(())
    }

    /// The analysis half of a push: everything but the drain.
    fn analyze(&mut self, event: Event) -> Result<(), AnalysisError> {
        if let Some(e) = self.error.as_ref().filter(|e| e.precedence() == 0) {
            return Err(e.clone().into());
        }
        if matches!(event.kind, EventKind::Repeat { .. }) {
            // A repeat record stands for events this analyzer never
            // sees; silently treating it as a chain event would corrupt
            // every later approximation. Callers expand first (see
            // `ppa_core::RepeatExpander`; a checkpointed `Pipeline` has
            // no expander, so this is where it refuses suppressed input).
            return Err(AnalysisError::UnrecognizedStructure {
                detail: format!(
                    "repeat record at seq {} on {}: expand the trace \
                     (`ppa slice --expand`) before analysis",
                    event.seq, event.proc
                ),
            });
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        self.stats.events += 1;
        self.probes.events_pushed.inc();
        let key = event.order_key();
        if let Some(last) = self.last_key {
            if last > key {
                let e = TraceError::NotTotallyOrdered { position: idx };
                e.clone().note(&mut self.error);
                return Err(e.into());
            }
        }
        self.last_key = Some(key);
        self.last_tm = event.time;
        if self.serial_proc.is_none() {
            self.serial_proc = Some(event.proc);
        }
        let pi = event.proc.index();
        if pi >= self.procs.len() {
            self.procs.resize_with(pi + 1, || None);
        }

        // --- Fast path ---------------------------------------------------
        // A plain chain event (no sync/barrier/loop-begin semantics) whose
        // basis is already resolved needs none of the validation steps or
        // the dataflow machinery: apply the generic §4.2.3 rule and buffer
        // it directly. This is the bulk of any trace.
        if self.error.is_none() && is_plain_chain(&event.kind) && self.procs[pi].is_some() {
            if let Some((_, b_tm, Some(b_ta))) = self.select_basis(event.proc, idx) {
                let value = self.chain_value(&event, b_tm, b_ta);
                let s = self.procs[pi].as_mut().expect("checked above");
                s.last_id = idx;
                s.last_tm = event.time;
                s.last_ta = Some(value);
                self.buffer_event(event, idx, value);
                self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
                let resident = self.parked.len() + self.buffer.len() + self.episodes.len();
                self.stats.peak_resident = self.stats.peak_resident.max(resident);
                self.maybe_drain();
                return Ok(());
            }
            // A parked basis: take the general path.
        }

        // --- Scan (validation) step, frozen by the first scan error. ----
        if self.error_rank() <= 1 {
            // Frozen: only the total-order check remains live.
            return Ok(());
        }
        // An `awaitE`'s pending await, and its advance if it has arrived.
        let mut await_info: Option<(PendingAwait, Option<AdvanceRec>)> = None;
        match event.kind {
            EventKind::Advance { var, tag } => {
                if tag.is_pre_advanced() {
                    TraceError::NegativeAdvanceTag { var, tag }.note(&mut self.error);
                } else {
                    let rec = AdvanceRec { id: idx, ta: None };
                    // Takes the ends waiting on the tag — they stop
                    // being `MissingAdvance` candidates — for the
                    // resolution step to wake.
                    match self.advances.insert(var, tag, rec, &mut self.woken) {
                        Inserted::Duplicate => {
                            TraceError::DuplicateAdvance { var, tag }.note(&mut self.error);
                        }
                        stored => {
                            if stored == Inserted::Spilled {
                                self.spills.advance += 1;
                                self.probes.advance_spill.inc();
                            }
                            if let Some(log) = &mut self.dirty_log {
                                log.push((var, tag));
                            }
                        }
                    }
                }
            }
            EventKind::AwaitBegin { var, tag } => {
                let ps = &mut self.procs[pi];
                let nested = ps.as_ref().is_some_and(|s| s.pending_await.is_some());
                if nested {
                    let proc = event.proc;
                    TraceError::NestedAwait { proc, var, tag }.note(&mut self.error);
                } else {
                    let pending = PendingAwait {
                        var,
                        tag,
                        begin_id: idx,
                        begin_ta: None,
                    };
                    match ps {
                        Some(s) => s.pending_await = Some(pending),
                        None => {
                            *ps = Some(ProcState {
                                // Placeholder; overwritten below before
                                // the frontier is consulted.
                                last_id: idx,
                                last_tm: event.time,
                                last_ta: None,
                                pending_await: Some(pending),
                            });
                            self.seen_procs.push(pi);
                        }
                    }
                }
            }
            EventKind::AwaitEnd { var, tag } => {
                let taken = self.procs[pi].as_mut().and_then(|s| s.pending_await.take());
                match taken {
                    Some(p) if p.var == var && p.tag == tag => {
                        let mut partner = None;
                        if !tag.is_pre_advanced() {
                            partner = self.advances.get(var, tag).copied();
                            if partner.is_none() {
                                // Waits in the advance's slot: the
                                // advance's arrival wakes it, and until
                                // then it is a `MissingAdvance` candidate.
                                self.advances.add_waiter(var, tag, idx);
                            }
                        }
                        await_info = Some((p, partner));
                    }
                    _ => {
                        let proc = event.proc;
                        TraceError::UnmatchedAwaitEnd { proc, var, tag }.note(&mut self.error);
                    }
                }
            }
            EventKind::ProgramBegin
            | EventKind::ProgramEnd
            | EventKind::LoopBegin { .. }
            | EventKind::LoopEnd { .. }
            | EventKind::IterationBegin { .. }
            | EventKind::IterationEnd { .. }
            | EventKind::Statement { .. }
            | EventKind::BarrierEnter { .. }
            | EventKind::BarrierExit { .. }
            | EventKind::LockAcquire { .. }
            | EventKind::LockRelease { .. }
            | EventKind::SemAcquire { .. }
            | EventKind::SemRelease { .. }
            | EventKind::TaskFork { .. }
            | EventKind::TaskJoin { .. }
            | EventKind::Repeat { .. } => {}
        }
        if self.error_rank() <= 1 {
            return Ok(());
        }

        // --- Episode step: the rulebook pairs the event. -----------------
        // Barrier events reach it while no error of their rank (4) or
        // below is pending — the batch validator's order, where a barrier
        // error outranks any lock, semaphore or task error — and lock,
        // semaphore and fork/join events while no error is pending.
        let paired = match event.kind {
            EventKind::BarrierEnter { .. } | EventKind::BarrierExit { .. } => self.error_rank() > 4,
            EventKind::LockAcquire { .. }
            | EventKind::LockRelease { .. }
            | EventKind::SemAcquire { .. }
            | EventKind::SemRelease { .. }
            | EventKind::TaskFork { .. }
            | EventKind::TaskJoin { .. } => self.error.is_none(),
            EventKind::ProgramBegin
            | EventKind::ProgramEnd
            | EventKind::LoopBegin { .. }
            | EventKind::LoopEnd { .. }
            | EventKind::IterationBegin { .. }
            | EventKind::IterationEnd { .. }
            | EventKind::Statement { .. }
            | EventKind::Advance { .. }
            | EventKind::AwaitBegin { .. }
            | EventKind::AwaitEnd { .. }
            | EventKind::Repeat { .. } => false,
        };
        let mut exit_ep: Option<u64> = None;
        // `blocked`: this event completes an episode under the blocked
        // rule, with the enabling event's arrival index and resolved time
        // (if any). `basis_override`: a child's begin fork chains from its
        // spawn, not from its own processor's frontier.
        let mut blocked: Option<Option<(usize, Option<Time>)>> = None;
        let mut basis_override: Option<(usize, Time, Option<Time>)> = None;
        match paired.then(|| self.tracker.push(&event, idx)) {
            None => {}
            Some(Err(e)) => e.note(&mut self.error),
            Some(Ok(Pairing::Blocked { dep })) => {
                blocked = Some(dep.map(|d| (d, self.take_dep(d))));
            }
            Some(Ok(Pairing::TaskBegin { spawn })) => {
                let (tm, ta) = self.spawns.remove(&spawn).expect("an open spawn");
                basis_override = Some((spawn, tm, ta));
            }
            Some(Ok(Pairing::BarrierExit { .. })) => exit_ep = Some(self.add_exit(&event, idx)),
            Some(Ok(Pairing::None)) => match event.kind {
                EventKind::BarrierEnter { barrier } => self.add_enter(barrier, &event, idx),
                EventKind::TaskFork { .. } => {
                    self.spawns.insert(idx, (event.time, None));
                }
                // A release, a V or a child end: an enabling event.
                _ => {
                    self.dep_ta.insert(idx, None);
                }
            },
            Some(Ok(Pairing::Await { .. })) => unreachable!("the episode rulebook pairs no await"),
        }

        // --- Resolution step, meaningful only while no error is pending. -
        if self.error.is_none() {
            self.resolve_event(event, idx, await_info, exit_ep, blocked, basis_override);
        } else {
            // An error is sticky, so resolution has stopped for good:
            // keep the waiting ends as they stand now, and wake nobody.
            if self.frozen_awaiting.is_none() {
                self.frozen_awaiting = Some(self.advances.waiting_ends());
            }
            self.woken.clear();
        }

        // Stats + emission.
        let resident = self.parked.len() + self.buffer.len() + self.episodes.len();
        self.stats.peak_parked = self.stats.peak_parked.max(self.parked.len());
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
        self.stats.peak_resident = self.stats.peak_resident.max(resident);
        self.maybe_drain();
        Ok(())
    }

    /// Takes the next available output, if any.
    pub fn next_output(&mut self) -> Option<StreamOutput> {
        self.out.pop_front()
    }

    /// Current resource counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Records one §4.2.3 underflow clamp: the overhead correction
    /// exceeded the measured delta, so the value rule held the
    /// approximated time at its basis instead of going negative. Counted
    /// (never silent) so downstream validation can distinguish a clean
    /// approximation from one that absorbed instrumentation uncertainty.
    #[inline]
    fn note_clamp(&mut self) {
        self.stats.clamped += 1;
        self.probes.clamped_approx.inc();
    }

    /// Ends the stream: reports the deferred validation verdict and, on
    /// success, flushes the reorder buffer.
    ///
    /// The error (if any) is exactly what [`event_based`](crate::event_based)
    /// would return for the same event sequence, chosen with
    /// [`pair_sync_events`](ppa_trace::pair_sync_events)' precedence:
    /// broken total order, then scan errors in
    /// arrival order, then dangling `awaitB`s, missing advances, barrier
    /// protocol violations, open episodes, and finally unresolvable
    /// (cyclic) dependencies.
    pub fn finish(self) -> Result<StreamTail, AnalysisError> {
        let mut out = VecDeque::new();
        let tail = self.finish_into(&mut out, false)?;
        Ok(StreamTail {
            outputs: out.into(),
            ..tail
        })
    }

    /// [`finish`](Self::finish), handing the tail to `sink` in release
    /// order instead of collecting it: the outputs not yet taken, then
    /// the emission lanes, popped straight into the sink. The returned
    /// tail's `outputs` is empty. With `lenient` there is no verdict:
    /// everything resolvable is flushed, and what could not resolve is
    /// counted in [`StreamTail::unresolved`] rather than failed on — the
    /// companion of lenient decoding, where a gap can swallow a partner
    /// `advance`, one side of an await pair, or a barrier participant.
    pub(crate) fn finish_into(
        mut self,
        sink: &mut impl OutputSink,
        lenient: bool,
    ) -> Result<StreamTail, AnalysisError> {
        if !lenient {
            self.verdict()?;
        }
        let unresolved = self.parked.len();
        // Nothing can precede anything now.
        while let Some(o) = self.out.pop_front() {
            sink.output(o);
        }
        self.probes.events_emitted.add(self.buffer.len() as u64);
        while let Some(entry) = self.buffer.pop() {
            sink.event(entry.event());
        }
        self.probes.watermark_lag.set(0.0);
        self.probes.resident_events.set(0.0);
        self.probes.open_sync_episodes.set(0.0);
        Ok(StreamTail {
            outputs: Vec::new(),
            stats: self.stats,
            spills: self.spills,
            unresolved,
        })
    }

    /// The deferred validation verdict [`finish`](Self::finish) reports:
    /// the pending error, the first open `awaitB`, the first `awaitE`
    /// whose advance never arrived and the rulebook's open episodes,
    /// folded by [`TraceError::note`]'s rank rule; then any cyclic
    /// dependency.
    fn verdict(&self) -> Result<(), AnalysisError> {
        let mut error = self.error.clone();
        let open = self.procs.iter().enumerate().find_map(|(i, ps)| {
            let p = ps.as_ref()?.pending_await?;
            let (proc, var, tag) = (ProcessorId(i as u16), p.var, p.tag);
            Some(TraceError::UnmatchedAwaitBegin { proc, var, tag })
        });
        // The awaitE that arrived first among those whose advance never
        // did; each tag's ends are in arrival order.
        let missing = (self.advances.waiting_ends().into_iter())
            .map(|(key, ends)| (ends[0], key))
            .min()
            .map(|(_, (var, tag))| TraceError::MissingAdvance { var, tag });
        for e in open.into_iter().chain(missing).chain(self.tracker.finish()) {
            e.note(&mut error);
        }
        if let Some(e) = error {
            return Err(e.into());
        }
        if !self.parked.is_empty() {
            return Err(AnalysisError::CyclicDependencies {
                unresolved: self.parked.len(),
            });
        }
        Ok(())
    }

    /// Serializes the analyzer's complete state into a plain data image.
    ///
    /// The image, embedded in a checkpoint file (see `ppa_core`'s
    /// checkpoint module), lets a later process [`restore`](Self::restore)
    /// the analyzer and continue the stream with observationally identical
    /// results: feeding the same remaining events to the restored analyzer
    /// produces the same outputs, stats, and verdict as never having
    /// stopped. Internal hash maps are stored key-sorted, so equal states
    /// serialize to equal bytes.
    pub fn snapshot(&self) -> AnalyzerSnapshot {
        let mut advances = Vec::with_capacity(self.advances.len() * 4);
        for (key, rec) in self.advances.iter() {
            pack_advance(&mut advances, key, rec);
        }
        self.snapshot_with_advances(advances)
    }

    fn snapshot_with_advances(&self, advances: Vec<u64>) -> AnalyzerSnapshot {
        fn sorted<K: Ord + Clone, V: Clone>(map: &FxMap<K, V>) -> Vec<(K, V)> {
            let mut v: Vec<(K, V)> = map.iter().map(|(k, x)| (k.clone(), x.clone())).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }
        let waiting = self.advances.waiting_ends();
        AnalyzerSnapshot {
            oh: self.oh,
            next_idx: self.next_idx,
            last_key: self.last_key,
            last_tm: self.last_tm,
            serial_proc: self.serial_proc,
            error: self.error.clone(),
            procs: self.procs.clone(),
            advances,
            missing_adv: {
                let mut ends: Vec<_> = waiting
                    .iter()
                    .flat_map(|&(key, ref ends)| ends.iter().map(move |&end| (end, key)))
                    .collect();
                // Ends are distinct arrival indices: the order is total.
                ends.sort_unstable_by_key(|&(end, _)| end);
                ends
            },
            latest_lb: self.latest_lb,
            episodes: sorted(&self.episodes),
            open_by_barrier: self.open_by_barrier.iter().map(|(k, v)| (*k, *v)).collect(),
            next_ep_uid: self.next_ep_uid,
            parked: sorted(&self.parked),
            awaiting_advance: match &self.frozen_awaiting {
                Some(frozen) => frozen.clone(),
                // While resolution runs, every waiting end is also parked
                // on its tag's arrival.
                None => waiting,
            },
            tracker: self.tracker.clone(),
            dep_ta: sorted(&self.dep_ta),
            spawns: sorted(&self.spawns),
            anchors: self.floors.counts(),
            buffer: self.buffer.sorted(),
            out: self.out.iter().copied().collect(),
            since_drain: self.since_drain,
            stats: self.stats,
        }
    }

    /// Serializes only what changed since the last
    /// [`clear_advance_dirty`](Self::clear_advance_dirty): the full
    /// frontier (which is bounded by the live synchronization horizon)
    /// plus the dirty subset of the advance table (the one structure
    /// that grows with the whole trace). Applying the delta to the
    /// previous snapshot with [`AnalyzerSnapshot::apply_delta`] yields
    /// exactly [`snapshot`](Self::snapshot)'s image.
    ///
    /// The dirty log is *not* cleared here — the caller clears it once
    /// the delta is durably written, so a failed write loses nothing.
    /// Before the first [`clear_advance_dirty`](Self::clear_advance_dirty)
    /// there is no "last checkpoint", and the delta carries the whole
    /// table.
    pub fn delta_snapshot(&self) -> AnalyzerDelta {
        let Some(log) = &self.dirty_log else {
            return AnalyzerDelta {
                frontier: self.snapshot(),
                advances_len: self.advances.len() as u64,
            };
        };
        let mut keys = log.clone();
        keys.sort_unstable();
        keys.dedup();
        let mut advances = Vec::with_capacity(keys.len() * 4);
        for key in keys {
            let rec = self.advances.get(key.0, key.1);
            pack_advance(
                &mut advances,
                key,
                rec.expect("logged keys are in the table"),
            );
        }
        AnalyzerDelta {
            frontier: self.snapshot_with_advances(advances),
            advances_len: self.advances.len() as u64,
        }
    }

    /// Forgets the dirty advances after a delta (or full) checkpoint has
    /// been durably written, and — on the first call — starts recording
    /// them.
    pub fn clear_advance_dirty(&mut self) {
        self.dirty_log.get_or_insert_with(Vec::new).clear();
    }

    /// Rebuilds an analyzer from a [`snapshot`](Self::snapshot) image,
    /// with detached probes.
    pub fn restore(snapshot: &AnalyzerSnapshot) -> Self {
        Self::restore_with_probes(snapshot, AnalyzerProbes::noop())
    }

    /// Like [`restore`](Self::restore), recording pipeline metrics into
    /// `probes` from this point on (probe counters restart at zero — they
    /// meter the work of *this* process, not the cumulative analysis,
    /// which [`StreamStats`] carries across the checkpoint).
    pub fn restore_with_probes(snapshot: &AnalyzerSnapshot, probes: AnalyzerProbes) -> Self {
        let s = snapshot.clone();
        let mut a = EventBasedAnalyzer::new(&s.oh);
        a.probes = probes;
        a.next_idx = s.next_idx;
        a.last_key = s.last_key;
        a.last_tm = s.last_tm;
        a.serial_proc = s.serial_proc;
        a.error = s.error;
        a.procs = s.procs;
        a.seen_procs = (0..a.procs.len())
            .filter(|&i| a.procs[i].is_some())
            .collect();
        // Key-sorted, so each variable's tags arrive ascending and land
        // in its vector wherever the occupancy rule allows.
        for quad in s.advances.chunks_exact(4) {
            let var = SyncVarId(quad[0] as u32);
            let tag = SyncTag(((quad[1] >> 1) as i64) ^ -((quad[1] & 1) as i64));
            let ta = match quad[3] {
                0 => None,
                ns => Some(Time::from_nanos(ns - 1)),
            };
            let id = quad[2] as usize;
            a.advances
                .insert(var, tag, AdvanceRec { id, ta }, &mut a.woken);
        }
        // The image lists ends ascending, so each tag's ends come back in
        // arrival order.
        for (end, (var, tag)) in s.missing_adv {
            a.advances.add_waiter(var, tag, end);
        }
        // After a scan error the table stands still, so its waiting ends
        // are the frozen ones too.
        if a.error.is_some() {
            a.frozen_awaiting = Some(s.awaiting_advance);
        }
        a.latest_lb = s.latest_lb;
        a.episodes = s.episodes.into_iter().collect();
        a.open_by_barrier = s.open_by_barrier.into_iter().collect();
        // `ep_of_enter` maps each live episode's enters back to it; dead
        // episodes were removed from both structures together.
        for (uid, ep) in &a.episodes {
            for rec in &ep.enters {
                a.ep_of_enter.insert(rec.id, *uid);
            }
        }
        a.next_ep_uid = s.next_ep_uid;
        a.parked = s.parked.into_iter().collect();
        a.tracker = s.tracker;
        a.dep_ta = s.dep_ta.into_iter().collect();
        a.spawns = s.spawns.into_iter().collect();
        a.floors = s.anchors.into_iter().collect();
        // A snapshot holds only what `buffer_event` buffered.
        a.buffer = s
            .buffer
            .iter()
            .filter_map(|e| LaneEntry::new(&e.event, e.idx))
            .collect();
        a.out = s.out.into_iter().collect();
        a.since_drain = s.since_drain;
        a.stats = s.stats;
        a
    }

    // --- Resolution internals -------------------------------------------

    /// The event's time basis, as `(arrival index, tm, ta once
    /// resolved)`: its processor's previous event, or the latest
    /// loop-begin marker when that forks after it (or when the processor
    /// has no previous event) — identical to the batch analysis. The one
    /// basis selection of both the fast path and
    /// [`resolve_event`](Self::resolve_event).
    #[inline]
    fn select_basis(&self, proc: ProcessorId, idx: usize) -> Option<(usize, Time, Option<Time>)> {
        let prev = self.procs[proc.index()]
            .as_ref()
            // A state created by this very push (awaitB on a fresh
            // processor) holds no predecessor.
            .filter(|s| s.last_id != idx);
        match (prev, self.latest_lb) {
            (Some(s), Some(l)) if Some(proc) != self.serial_proc && l.id > s.last_id => {
                Some((l.id, l.tm, l.ta))
            }
            (Some(s), _) => Some((s.last_id, s.last_tm, s.last_ta)),
            (None, Some(l)) if l.id != idx => Some((l.id, l.tm, l.ta)),
            (None, _) => None,
        }
    }

    /// The generic §4.2.3 value rule, `ta(basis) + (tm − tm(basis)) −
    /// overhead`, held at the basis (and counted) where the overhead
    /// exceeds the delta.
    #[inline]
    fn chain_value(&mut self, event: &Event, basis_tm: Time, basis_ta: Time) -> Time {
        let oh = self.oh.instr_overhead(&event.kind);
        // The basis is an earlier event of the total order, so the delta
        // itself cannot underflow — only the overhead can.
        debug_assert!(event.time >= basis_tm, "basis precedes the event");
        let delta = event.time.saturating_since(basis_tm);
        if oh > delta {
            self.note_clamp();
        }
        basis_ta + delta.saturating_sub(oh)
    }

    /// Selects this event's basis, then resolves it on the spot if every
    /// input has resolved, or parks it.
    fn resolve_event(
        &mut self,
        event: Event,
        idx: usize,
        await_info: Option<(PendingAwait, Option<AdvanceRec>)>,
        exit_ep: Option<u64>,
        blocked: Option<Option<(usize, Option<Time>)>>,
        basis_override: Option<(usize, Time, Option<Time>)>,
    ) {
        // Empty between pushes; taken so the cascade can borrow `self`.
        let mut queue = std::mem::take(&mut self.queue);

        // The fork anchor includes the current event (`last_loop_begin[i]`
        // covers position `i` itself in the batch analysis).
        if matches!(event.kind, EventKind::LoopBegin { .. }) {
            self.latest_lb = Some(LoopAnchor {
                id: idx,
                tm: event.time,
                ta: None,
            });
        }

        // A child's begin fork chains from its spawn, wherever the child
        // processor's own frontier stands.
        let basis = basis_override.or_else(|| self.select_basis(event.proc, idx));

        // Advance the frontier before resolving, so the resolution hook
        // sees this event as its processor's latest.
        let pi = event.proc.index();
        match &mut self.procs[pi] {
            Some(s) => {
                s.last_id = idx;
                s.last_tm = event.time;
                s.last_ta = None;
            }
            slot @ None => {
                *slot = Some(ProcState {
                    last_id: idx,
                    last_tm: event.time,
                    last_ta: None,
                    pending_await: None,
                });
                self.seen_procs.push(pi);
            }
        }

        // A floor already registered by the awaitB hook (or, for a child's
        // begin fork, by the spawn hook) whose ownership transfers to this
        // event: it persists until the event resolves.
        let held_floor = match (await_info, basis_override) {
            (Some((info, _)), _) => info.begin_ta,
            (None, Some((_, _, spawn_ta))) => spawn_ta,
            (None, None) => None,
        };

        // Readiness first: an event whose inputs have all resolved takes
        // its rule's value here. Only one that really waits builds its
        // dependencies and a parked node.
        match Self::ready_rule(basis, await_info, exit_ep.is_some(), blocked) {
            Ready::Origin => {
                let oh = self.oh.instr_overhead(&event.kind);
                if event.time.checked_sub_span(oh).is_none() {
                    self.note_clamp();
                }
                let value = event.time.saturating_sub_span(oh);
                self.finish_resolution(event, idx, value, &mut queue);
            }
            Ready::Now(rule) => {
                if let Some(a) = held_floor {
                    self.floors.remove(a);
                }
                let value = self.compute_value(&event, &rule);
                self.emit_await_outcome(&event, idx, &rule, value);
                self.finish_resolution(event, idx, value, &mut queue);
            }
            Ready::Wait => {
                self.park(event, idx, basis, await_info, exit_ep, blocked, held_floor);
                // A just-closed episode may already be fully resolved.
                if let Some(uid) = exit_ep {
                    let ep = &self.episodes[&uid];
                    if ep.closed && ep.unresolved_enters == 0 {
                        self.finalize_episode(uid, &mut queue);
                    }
                }
            }
        }

        self.wake_waiters(&event, idx, &mut queue);
        self.run_queue(&mut queue);
        self.queue = queue;
    }

    /// The rule of an arriving event whose inputs have all resolved: its
    /// basis; for an `awaitE` its `awaitB` and partner advance; for a
    /// blocked completion its enabling event. A barrier exit always
    /// waits for its episode.
    fn ready_rule(
        basis: Option<(usize, Time, Option<Time>)>,
        await_info: Option<(PendingAwait, Option<AdvanceRec>)>,
        exit: bool,
        blocked: Option<Option<(usize, Option<Time>)>>,
    ) -> Ready {
        let basis = match basis {
            _ if exit => return Ready::Wait,
            Some((_, _, None)) => return Ready::Wait,
            Some((_, tm, Some(ta))) => Some((tm, ta)),
            None => None,
        };
        if let Some((info, partner)) = await_info {
            let adv = match partner {
                _ if info.tag.is_pre_advanced() => Adv::NotNeeded,
                Some(AdvanceRec { ta: Some(v), .. }) => Adv::Got(v),
                _ => return Ready::Wait,
            };
            return match info.begin_ta {
                Some(tb) => Ready::Now(Rule::AwaitEnd {
                    begin_ta: Some(tb),
                    adv,
                }),
                None => Ready::Wait,
            };
        }
        if let Some(dep) = blocked {
            let dep = match dep {
                None => Adv::NotNeeded,
                Some((_, Some(v))) => Adv::Got(v),
                Some((_, None)) => return Ready::Wait,
            };
            return Ready::Now(Rule::Blocked {
                basis_tm: basis.map(|(tm, _)| tm),
                basis_ta: basis.map(|(_, ta)| ta),
                dep,
            });
        }
        match basis {
            Some((tm, ta)) => Ready::Now(Rule::Chain {
                basis_tm: tm,
                basis_ta: Some(ta),
            }),
            None => Ready::Origin,
        }
    }

    /// Parks an event that must wait: registers the floors of its
    /// resolved inputs and subscribes it to the unresolved ones.
    #[allow(clippy::too_many_arguments)]
    fn park(
        &mut self,
        event: Event,
        idx: usize,
        basis: Option<(usize, Time, Option<Time>)>,
        await_info: Option<(PendingAwait, Option<AdvanceRec>)>,
        exit_ep: Option<u64>,
        blocked: Option<Option<(usize, Option<Time>)>>,
        held_floor: Option<Time>,
    ) {
        let mut deps = Deps::default();
        let rule = if let Some((info, partner)) = await_info {
            if info.begin_ta.is_none() {
                deps.need((info.begin_id, Slot::Begin));
            }
            let adv = match partner {
                _ if info.tag.is_pre_advanced() => Adv::NotNeeded,
                Some(AdvanceRec { ta: Some(v), .. }) => {
                    deps.have(v);
                    Adv::Got(v)
                }
                Some(AdvanceRec { id, ta: None }) => {
                    deps.need((id, Slot::Advance));
                    Adv::Pending
                }
                None => {
                    // Waiting in the advance's slot: its arrival delivers.
                    deps.pending += 1;
                    Adv::Pending
                }
            };
            match basis {
                Some((_, _, Some(v))) => deps.have(v),
                Some((b_id, _, None)) => deps.need((b_id, Slot::Order)),
                None => {}
            }
            Rule::AwaitEnd {
                begin_ta: info.begin_ta,
                adv,
            }
        } else if let Some(uid) = exit_ep {
            // The episode delivers the exit time as a whole.
            deps.pending += 1;
            let own = self.episodes[&uid]
                .enters
                .iter()
                .find(|r| r.proc == event.proc)
                .expect("exit protocol guarantees an enter");
            match own.ta {
                Some(v) => deps.have(v),
                None => deps.need((own.id, Slot::Order)),
            }
            match basis {
                Some((_, _, Some(v))) => deps.have(v),
                Some((b_id, _, None)) => deps.need((b_id, Slot::Order)),
                None => {}
            }
            Rule::Exit { value: None }
        } else if let Some(dep) = blocked {
            // A blocked completion (lock acquire, sem P, task join-return):
            // the chain value is the ready time, and the enabling event
            // plays the advance's role in the §4.2.3 case split.
            let adv = match dep {
                None => Adv::NotNeeded,
                Some((_, Some(v))) => {
                    deps.have(v);
                    Adv::Got(v)
                }
                Some((d_id, None)) => {
                    deps.need((d_id, Slot::Advance));
                    Adv::Pending
                }
            };
            let basis_tm = match basis {
                Some((b_id, b_tm, b_ta)) => {
                    match b_ta {
                        Some(v) => deps.have(v),
                        None => deps.need((b_id, Slot::Basis)),
                    }
                    Some(b_tm)
                }
                None => {
                    // Origin ready rule: floor the watermark at the
                    // event's own measured time less its overhead.
                    let oh = self.oh.instr_overhead(&event.kind);
                    deps.have(event.time.saturating_sub_span(oh));
                    None
                }
            };
            Rule::Blocked {
                basis_tm,
                basis_ta: basis.and_then(|(_, _, ta)| ta),
                dep: adv,
            }
        } else {
            let (b_id, b_tm, b_ta) = basis.expect("a ready origin event does not park");
            if b_ta.is_none() {
                deps.need((b_id, Slot::Basis));
            }
            Rule::Chain {
                basis_tm: b_tm,
                basis_ta: b_ta,
            }
        };

        let mut anchors = self.spare_anchors.pop().unwrap_or_default();
        if let Some(a) = held_floor {
            anchors.push(a); // already in the multiset
        }
        for &a in &deps.floors[..deps.n_floors] {
            self.floors.add(a);
            anchors.push(a);
        }
        self.parked.insert(
            idx,
            Node {
                event,
                pending: deps.pending,
                rule,
                anchors,
                waiters: self.spare_waiters.pop().unwrap_or_default(),
            },
        );
        for &(dep, slot) in &deps.waits_on[..deps.n_waits] {
            self.parked
                .get_mut(&dep)
                .expect("unresolved dependencies are parked")
                .waiters
                .push((idx, slot));
        }
    }

    /// An advance that took waiting ends from its slot on arrival wakes
    /// them: each gets the advance's value, or subscribes to the parked
    /// advance.
    fn wake_waiters(&mut self, event: &Event, idx: usize, queue: &mut VecDeque<usize>) {
        if self.woken.is_empty() {
            return;
        }
        let EventKind::Advance { var, tag } = event.kind else {
            unreachable!("only an arriving advance takes waiters");
        };
        let ta = self
            .advances
            .get(var, tag)
            .expect("the advance was stored by this push")
            .ta;
        let woken = std::mem::take(&mut self.woken);
        for &w in &woken {
            match ta {
                Some(v) => self.deliver(w, Slot::Advance, v, queue),
                None => self
                    .parked
                    .get_mut(&idx)
                    .expect("unresolved advance is parked")
                    .waiters
                    .push((w, Slot::Advance)),
            }
        }
        self.woken = woken;
        self.woken.clear();
    }

    /// The rank of the pending error; above every rank while none is.
    fn error_rank(&self) -> u8 {
        self.error.as_ref().map_or(u8::MAX, TraceError::precedence)
    }

    /// Adds an enter the rulebook accepted to its barrier's open
    /// episode, opening one if there is none.
    fn add_enter(&mut self, barrier: BarrierId, event: &Event, idx: usize) {
        let uid = *self.open_by_barrier.entry(barrier).or_insert_with(|| {
            let uid = self.next_ep_uid;
            self.next_ep_uid += 1;
            let ep = Episode {
                barrier,
                enters: Vec::new(),
                exits: Vec::new(),
                unresolved_enters: 0,
                closed: false,
                anchors: Vec::new(),
            };
            self.episodes.insert(uid, ep);
            uid
        });
        let ep = self.episodes.get_mut(&uid).expect("episode is open");
        let (id, proc) = (idx, event.proc);
        ep.enters.push(EnterRec { id, proc, ta: None });
        ep.unresolved_enters += 1;
        self.ep_of_enter.insert(idx, uid);
    }

    /// Adds an exit the rulebook accepted to its barrier's open episode,
    /// closing the episode with its last exit; returns the episode.
    fn add_exit(&mut self, event: &Event, idx: usize) -> u64 {
        let EventKind::BarrierExit { barrier } = event.kind else {
            unreachable!("only a barrier exit pairs with an enter");
        };
        let uid = self.open_by_barrier[&barrier];
        let ep = self.episodes.get_mut(&uid).expect("episode is open");
        ep.exits.push(idx);
        if ep.exits.len() == ep.enters.len() {
            ep.closed = true;
            self.open_by_barrier.remove(&barrier);
        }
        uid
    }

    /// Consumes a live enabling event's resolved time — the blocked side
    /// claims it exactly once.
    fn take_dep(&mut self, dep: usize) -> Option<Time> {
        self.dep_ta.remove(&dep).expect("enabling event is live")
    }

    /// Delivers a resolved dependency value into a parked event's slot.
    fn deliver(&mut self, id: usize, slot: Slot, value: Time, queue: &mut VecDeque<usize>) {
        let node = self.parked.get_mut(&id).expect("waiter is parked");
        match (slot, &mut node.rule) {
            (Slot::Basis, Rule::Chain { basis_ta, .. }) => *basis_ta = Some(value),
            (Slot::Basis, Rule::Blocked { basis_ta, .. }) => *basis_ta = Some(value),
            (Slot::Begin, Rule::AwaitEnd { begin_ta, .. }) => *begin_ta = Some(value),
            (Slot::Advance, Rule::AwaitEnd { adv, .. }) => *adv = Adv::Got(value),
            (Slot::Advance, Rule::Blocked { dep, .. }) => *dep = Adv::Got(value),
            (Slot::Order, _) => {}
            (slot, rule) => unreachable!("slot {slot:?} does not fit rule {rule:?}"),
        }
        node.pending -= 1;
        if node.pending == 0 {
            // Resolves in this cascade, before anything reads the
            // watermark: a floor added now would only be removed again.
            queue.push_back(id);
        } else {
            node.anchors.push(value);
            self.floors.add(value);
        }
    }

    /// Resolves queued events until the cascade settles.
    fn run_queue(&mut self, queue: &mut VecDeque<usize>) {
        while let Some(id) = queue.pop_front() {
            let node = self.parked.remove(&id).expect("queued events are parked");
            for a in &node.anchors {
                self.floors.remove(*a);
            }
            let value = self.compute_value(&node.event, &node.rule);
            self.emit_await_outcome(&node.event, id, &node.rule, value);
            self.finish_resolution(node.event, id, value, queue);
            for &(w, slot) in &node.waiters {
                self.deliver(w, slot, value, queue);
            }
            recycle(&mut self.spare_anchors, node.anchors);
            recycle(&mut self.spare_waiters, node.waiters);
        }
    }

    /// Applies the §4.2.3 value rules.
    fn compute_value(&mut self, event: &Event, rule: &Rule) -> Time {
        match rule {
            Rule::Chain { basis_tm, basis_ta } => {
                self.chain_value(event, *basis_tm, basis_ta.expect("basis resolved first"))
            }
            Rule::AwaitEnd { begin_ta, adv } => {
                let tb = begin_ta.expect("awaitB resolved before awaitE");
                match adv {
                    Adv::NotNeeded => tb + self.oh.s_nowait,
                    Adv::Got(tadv) => {
                        if *tadv <= tb {
                            tb + self.oh.s_nowait
                        } else {
                            *tadv + self.oh.s_wait
                        }
                    }
                    Adv::Pending => unreachable!("advance resolved before awaitE"),
                }
            }
            Rule::Exit { value } => value.expect("episode resolved before exit"),
            Rule::Blocked {
                basis_tm,
                basis_ta,
                dep,
            } => {
                let ready = match basis_tm {
                    Some(b_tm) => {
                        self.chain_value(event, *b_tm, basis_ta.expect("basis resolved first"))
                    }
                    None => {
                        let oh = self.oh.instr_overhead(&event.kind);
                        if event.time.checked_sub_span(oh).is_none() {
                            self.note_clamp();
                        }
                        event.time.saturating_sub_span(oh)
                    }
                };
                match dep {
                    Adv::NotNeeded => ready,
                    Adv::Got(td) => {
                        if *td <= ready {
                            ready
                        } else {
                            *td + self.oh.s_wait
                        }
                    }
                    Adv::Pending => {
                        unreachable!("enabling event resolved before the blocked one")
                    }
                }
            }
        }
    }

    /// Emits the [`AwaitOutcome`] for a resolving `awaitE`.
    fn emit_await_outcome(&mut self, event: &Event, idx: usize, rule: &Rule, end: Time) {
        if let Rule::AwaitEnd { begin_ta, adv } = rule {
            let (var, tag) = match event.kind {
                EventKind::AwaitEnd { var, tag } => (var, tag),
                _ => unreachable!("AwaitEnd rule implies an awaitE"),
            };
            let begin = begin_ta.expect("awaitB resolved before awaitE");
            let wait = match adv {
                Adv::Got(tadv) => tadv.saturating_since(begin),
                _ => Span::ZERO,
            };
            self.out.push_back(StreamOutput::Await {
                ordinal: idx,
                outcome: AwaitOutcome {
                    proc: event.proc,
                    var,
                    tag,
                    begin,
                    end,
                    wait,
                },
            });
        } else if let Rule::Blocked {
            basis_tm,
            basis_ta,
            dep,
        } = rule
        {
            let (family, object) = match event.kind {
                EventKind::LockAcquire { lock } => (EpisodeFamily::Lock, lock.0),
                EventKind::SemAcquire { sem } => (EpisodeFamily::Sem, sem.0),
                EventKind::TaskJoin { task } => (EpisodeFamily::Task, task.0),
                _ => unreachable!("Blocked rule implies a blocked completion"),
            };
            // The ready time, recomputed without clamp counting —
            // `compute_value` already metered this event's clamp.
            let oh = self.oh.instr_overhead(&event.kind);
            let ready = match basis_tm {
                Some(b_tm) => {
                    let tb = basis_ta.expect("basis resolved first");
                    tb + event.time.saturating_since(*b_tm).saturating_sub(oh)
                }
                None => event.time.saturating_sub_span(oh),
            };
            let wait = match dep {
                Adv::Got(td) => td.saturating_since(ready),
                _ => Span::ZERO,
            };
            self.out.push_back(StreamOutput::Episode {
                ordinal: idx,
                outcome: EpisodeOutcome {
                    family,
                    object,
                    proc: event.proc,
                    ready,
                    end,
                    wait,
                },
            });
        }
    }

    /// Books a freshly computed approximated time: updates the frontiers
    /// and hooks, then buffers the event for ordered emission.
    fn finish_resolution(
        &mut self,
        event: Event,
        idx: usize,
        value: Time,
        queue: &mut VecDeque<usize>,
    ) {
        match event.kind {
            EventKind::Advance { var, tag } => {
                if let Some(rec) = self.advances.get_mut(var, tag) {
                    if rec.id == idx {
                        rec.ta = Some(value);
                        if let Some(log) = &mut self.dirty_log {
                            log.push((var, tag));
                        }
                    }
                }
            }
            EventKind::AwaitBegin { .. } => {
                let pi = event.proc.index();
                if let Some(p) = self.procs[pi]
                    .as_mut()
                    .and_then(|s| s.pending_await.as_mut())
                {
                    if p.begin_id == idx {
                        p.begin_ta = Some(value);
                        self.floors.add(value);
                    }
                }
            }
            EventKind::BarrierEnter { .. } => {
                if let Some(&uid) = self.ep_of_enter.get(&idx) {
                    let ep = self
                        .episodes
                        .get_mut(&uid)
                        .expect("enter's episode is live");
                    let rec = ep
                        .enters
                        .iter_mut()
                        .find(|r| r.id == idx)
                        .expect("enter is recorded");
                    rec.ta = Some(value);
                    ep.anchors.push(value);
                    ep.unresolved_enters -= 1;
                    let ready = ep.closed && ep.unresolved_enters == 0;
                    self.floors.add(value);
                    if ready {
                        self.finalize_episode(uid, queue);
                    }
                }
            }
            EventKind::LoopBegin { .. } => {
                if let Some(l) = self.latest_lb.as_mut() {
                    if l.id == idx {
                        l.ta = Some(value);
                    }
                }
            }
            EventKind::LockRelease { .. }
            | EventKind::SemRelease { .. }
            | EventKind::TaskJoin { .. } => {
                // An enabling event (a join-return's own slot was already
                // consumed, so `get_mut` misses for it).
                if let Some(slot) = self.dep_ta.get_mut(&idx) {
                    *slot = Some(value);
                }
            }
            EventKind::TaskFork { .. } => {
                // A spawn still awaiting its child's begin: hold the
                // resolved time as a watermark floor until the begin fork
                // takes ownership of it.
                if let Some((_, ta)) = self.spawns.get_mut(&idx) {
                    *ta = Some(value);
                    self.floors.add(value);
                }
            }
            EventKind::ProgramBegin
            | EventKind::ProgramEnd
            | EventKind::LoopEnd { .. }
            | EventKind::IterationBegin { .. }
            | EventKind::IterationEnd { .. }
            | EventKind::Statement { .. }
            | EventKind::AwaitEnd { .. }
            | EventKind::BarrierExit { .. }
            | EventKind::LockAcquire { .. }
            | EventKind::SemAcquire { .. }
            | EventKind::Repeat { .. } => {}
        }
        let pi = event.proc.index();
        if let Some(s) = self.procs[pi].as_mut() {
            if s.last_id == idx {
                s.last_ta = Some(value);
            }
        }
        self.buffer_event(event, idx, value);
    }

    /// Buffers `event`, re-timed to its approximated `value`, for ordered
    /// emission.
    #[inline]
    fn buffer_event(&mut self, event: Event, idx: usize, value: Time) {
        let event = Event {
            time: value,
            ..event
        };
        // `analyze` refuses a repeat record before indexing it, and only
        // a repeat record does not convert.
        let Some(entry) = LaneEntry::new(&event, idx) else {
            return;
        };
        if self.buffer.push(entry) {
            self.spills.emit += 1;
            self.probes.emit_spill.inc();
        }
    }

    /// A closed episode with all enters resolved: computes the release,
    /// emits the barrier outcomes, and wakes the parked exits.
    fn finalize_episode(&mut self, uid: u64, queue: &mut VecDeque<usize>) {
        let ep = self
            .episodes
            .remove(&uid)
            .expect("finalized episode is live");
        for a in &ep.anchors {
            self.floors.remove(*a);
        }
        let release = ep
            .enters
            .iter()
            .map(|r| r.ta.expect("enters resolved before release"))
            .max()
            .expect("episodes have enters");
        let exit_time = release + self.oh.barrier_release;
        let ordinal = ep.enters.first().expect("episodes have enters").id;
        for rec in &ep.enters {
            self.ep_of_enter.remove(&rec.id);
            let enter = rec.ta.expect("enters resolved");
            self.out.push_back(StreamOutput::Barrier {
                ordinal,
                outcome: BarrierOutcome {
                    barrier: ep.barrier,
                    proc: rec.proc,
                    enter,
                    exit: exit_time,
                    wait: release.saturating_since(enter),
                },
            });
        }
        for exit_id in ep.exits {
            let node = self
                .parked
                .get_mut(&exit_id)
                .expect("exits park until release");
            match &mut node.rule {
                Rule::Exit { value } => *value = Some(exit_time),
                rule => unreachable!("exit node carries an Exit rule, not {rule:?}"),
            }
            node.pending -= 1;
            if node.pending == 0 {
                queue.push_back(exit_id);
            }
        }
    }

    // --- Watermark-driven emission --------------------------------------

    /// A lower bound on the approximated time of every event that has not
    /// yet been emitted — the buffered ones excepted.
    ///
    /// The saturating arithmetic here is *not* a silent clamp of a §4.2.3
    /// value (those are counted via [`note_clamp`](Self::note_clamp)): a
    /// future event chaining from a frontier will itself clamp at the
    /// basis when `max_instr_oh` exceeds its delta, so
    /// `ta + max(0, gained - max_instr_oh)` is the exact lower bound of
    /// the clamped value rule, and the origin floor saturates at
    /// [`Time::ZERO`] exactly as the origin rule does. Counting these
    /// would fire on nearly every drain and drown the real signal.
    fn watermark(&self) -> Time {
        // Unseen processors start at the origin rule's floor.
        let mut wm = self.last_tm.saturating_sub_span(self.max_instr_oh);
        // Known processors: any future event chains from (at least) the
        // frontier, and the measured clock has advanced by
        // `last_tm - frontier.tm` since, of which at most `max_instr_oh`
        // is deductible.
        for s in self
            .seen_procs
            .iter()
            .filter_map(|&i| self.procs[i].as_ref())
        {
            if let Some(ta) = s.last_ta {
                let gained = self.last_tm.saturating_since(s.last_tm);
                wm = wm.min(ta + gained.saturating_sub(self.max_instr_oh));
            }
        }
        if let Some(l) = self.latest_lb {
            if let Some(ta) = l.ta {
                let gained = self.last_tm.saturating_since(l.tm);
                wm = wm.min(ta + gained.saturating_sub(self.max_instr_oh));
            }
        }
        if let Some(floor) = self.floors.min() {
            wm = wm.min(floor);
        }
        wm
    }

    /// Brings a drain due every [`DRAIN_EVERY`] pushes: the watermark
    /// moves little between consecutive events, so checking it per push
    /// buys nothing but cost.
    #[inline]
    fn maybe_drain(&mut self) {
        self.since_drain += 1;
        if self.since_drain >= DRAIN_EVERY {
            self.since_drain = 0;
            self.drain_due = true;
        }
    }

    /// Hands every buffered event that is provably final to `sink`.
    fn drain_emission(&mut self, sink: &mut impl OutputSink) {
        let wm = self.watermark();
        let mut drained = 0u64;
        while let Some(entry) = self.buffer.pop_below(wm) {
            sink.event(entry.event());
            drained += 1;
        }
        // Gauge refresh rides the drain cadence (DRAIN_EVERY pushes), keeping
        // observability cost off the per-event path.
        self.probes.events_emitted.add(drained);
        self.probes
            .watermark_lag
            .set(self.last_tm.saturating_since(wm).as_nanos() as f64);
        let resident = self.parked.len() + self.buffer.len() + self.episodes.len();
        self.probes.resident_events.set(resident as f64);
        self.probes
            .open_sync_episodes
            .set(self.open_by_barrier.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
    use ppa_trace::TraceBuilder;

    /// Pushes `events`, collecting every output including the tail's.
    fn run(mut a: EventBasedAnalyzer, events: &[Event]) -> (Vec<StreamOutput>, StreamStats) {
        let mut out = Vec::new();
        for e in events {
            a.push(*e).unwrap();
            out.extend(std::iter::from_fn(|| a.next_output()));
        }
        let tail = a.finish().unwrap();
        out.extend(tail.outputs);
        (out, tail.stats)
    }

    fn semaphore_events(rounds: usize) -> Vec<Event> {
        let cfg = ScenarioConfig {
            rounds,
            ..ScenarioConfig::small(ScenarioFamily::Semaphore)
        };
        scenario_trace(11, &cfg).events().to_vec()
    }

    /// The benchmark's 8-processor DOACROSS body (head / mid / tail /
    /// await / critical section / advance), `iters` iterations.
    fn doacross_events(iters: u64) -> Vec<Event> {
        use ppa_program::{InstrumentationPlan, ProgramBuilder};
        use ppa_sim::{run_measured, SchedulePolicy, SimConfig};
        let cfg = SimConfig {
            processors: 8,
            clock: ppa_trace::ClockRate::GHZ_1,
            overheads: OverheadSpec::alliant_default(),
            schedule: SchedulePolicy::SelfScheduled,
            dispatch_cycles: 50,
            jitter: None,
        }
        .with_jitter(1991, 150);
        let mut b = ProgramBuilder::new("growth");
        let v = b.sync_var();
        let program = b
            .doacross(1, iters, |body| {
                body.compute("head", 500)
                    .compute("mid", 300)
                    .compute("tail", 200)
                    .await_var(v, -1)
                    .compute("cs", 60)
                    .advance(v)
            })
            .build()
            .unwrap();
        let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg);
        measured.unwrap().trace.events().to_vec()
    }

    /// One of the benchmark's 8-processor, 4-object episode scenarios.
    fn scenario_events(family: ScenarioFamily, rounds: usize) -> Vec<Event> {
        let cfg = ScenarioConfig {
            processors: 8,
            rounds,
            objects: 4,
            ..ScenarioConfig::small(family)
        };
        scenario_trace(1991, &cfg).events().to_vec()
    }

    /// Every table's largest [`ResidentTables`] reading over a run of
    /// `events`, sampled after every push, and the run's stats.
    fn peak_tables(events: &[Event]) -> (ResidentTables, StreamStats) {
        let mut a = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        let mut peak = ResidentTables::default();
        let mut sample = |a: &EventBasedAnalyzer| {
            let t = a.resident_tables();
            let fields = [
                (&mut peak.lanes, t.lanes),
                (&mut peak.spill, t.spill),
                (&mut peak.advances, t.advances),
                (&mut peak.parked, t.parked),
                (&mut peak.episodes, t.episodes),
                (&mut peak.floors, t.floors),
                (&mut peak.out, t.out),
                (&mut peak.procs, t.procs),
            ];
            for (peak, now) in fields {
                *peak = (*peak).max(now);
            }
        };
        for e in events {
            a.push(*e).unwrap();
            while a.next_output().is_some() {}
            sample(&a);
        }
        (peak, a.finish().unwrap().stats)
    }

    /// The semaphore backlog costs what it holds: at 1× and 4× the
    /// rounds, the lanes' bytes are the peak backlog's entries plus one
    /// block per lane. (A lane may hold up to two blocks of slack, the
    /// read part of its oldest and the unwritten part of its newest, and
    /// up to `FREE_BLOCKS` wait for reuse; on this fixture the slack
    /// stays under one block per lane.) A DOACROSS trace's lanes hold a
    /// handful of entries at any length, so at 4× they cost no more than
    /// at 1×, and less than a block per lane.
    #[test]
    fn lanes_cost_what_they_hold() {
        use crate::emit_lanes::{LaneEntry, BLOCK};
        let entry = std::mem::size_of::<LaneEntry>();
        let lanes = 8;
        for rounds in [1_000, 4_000] {
            let (peak, stats) = peak_tables(&scenario_events(ScenarioFamily::Semaphore, rounds));
            let backlog = stats.peak_buffered * entry;
            assert!(
                stats.peak_buffered > lanes * BLOCK,
                "{rounds} rounds: a backlog"
            );
            assert!(
                peak.lanes <= backlog + lanes * BLOCK * entry,
                "{rounds} rounds: {} lane bytes for {} entries",
                peak.lanes,
                stats.peak_buffered
            );
        }
        let one = peak_tables(&doacross_events(2_000)).0.lanes;
        let four = peak_tables(&doacross_events(8_000)).0.lanes;
        assert!(
            four <= one && one < lanes * BLOCK * entry,
            "{one} then {four} bytes"
        );
    }

    /// Prints the growth table: every table's peak bytes on DOACROSS and
    /// the three episode scenarios at 1×, 4× and 16× length. Run with
    /// `cargo test --release -p ppa-core --lib growth_table -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "prints a table; 16× runs take seconds in release"]
    fn growth_table() {
        let fixture = |name, x: usize| match name {
            "doacross" => doacross_events(2_000 * x as u64),
            "spinlock" => scenario_events(ScenarioFamily::Spinlock, 1_000 * x),
            "semaphore" => scenario_events(ScenarioFamily::Semaphore, 1_000 * x),
            _ => scenario_events(ScenarioFamily::ForkJoin, 1_000 * x),
        };
        println!("| fixture | × | events | peak buffered | lanes | spill | advances | parked | episodes | floors | out | procs | total |");
        println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for name in ["doacross", "spinlock", "semaphore", "forkjoin"] {
            for x in [1, 4, 16] {
                let events = fixture(name, x);
                let (p, stats) = peak_tables(&events);
                println!(
                    "| {name} | {x} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    events.len(),
                    stats.peak_buffered,
                    p.lanes,
                    p.spill,
                    p.advances,
                    p.parked,
                    p.episodes,
                    p.floors,
                    p.out,
                    p.procs,
                    p.total()
                );
            }
        }
    }

    /// The rulebook's semaphore state is its V queues, which hold the
    /// outstanding V's, not one slot per V of the trace: the tracker's
    /// bytes stay within a queue's doubling slack of the peak
    /// outstanding count, on a trace with twenty times as many V's.
    #[test]
    fn semaphore_state_is_bounded_by_outstanding_releases() {
        let events = semaphore_events(400);
        let oh = OverheadSpec::alliant_default();
        let mut a = EventBasedAnalyzer::new(&oh);
        let (mut total, mut outstanding, mut peak_outstanding) = (0usize, 0usize, 0usize);
        let (mut sems, mut peak_bytes) = (std::collections::BTreeSet::new(), 0);
        for e in &events {
            a.push(*e).unwrap();
            while a.next_output().is_some() {}
            match e.kind {
                EventKind::SemRelease { sem } => {
                    (total, outstanding) = (total + 1, outstanding + 1);
                    sems.insert(sem);
                }
                EventKind::SemAcquire { .. } => outstanding -= 1,
                _ => {}
            }
            peak_outstanding = peak_outstanding.max(outstanding);
            peak_bytes = peak_bytes.max(a.tracker.heap_bytes());
        }
        let entry = std::mem::size_of::<(ppa_trace::SemId, VecDeque<usize>)>();
        let slots = 4 + 2 * peak_outstanding;
        assert!(
            peak_bytes <= sems.len() * (entry + slots * std::mem::size_of::<usize>()),
            "{peak_bytes} bytes for {peak_outstanding} outstanding V's"
        );
        assert!(
            total > 20 * peak_outstanding,
            "the trace must make the bound mean something"
        );
        a.finish().unwrap();
    }

    /// A DOACROSS stream caught mid-park: two ends wait in the slot of an
    /// advance that has not arrived (one inline, one in the waiter
    /// arena), and a parked advance — its basis is a parked end — has an
    /// end waiting on it. The image round-trips to identical bytes, and
    /// the restored analyzer finishes the stream exactly like the
    /// uninterrupted one.
    #[test]
    fn mid_park_snapshot_round_trips_to_identical_bytes() {
        let trace = TraceBuilder::measured()
            .on(0)
            .at(5)
            .advance(0, 0)
            .on(1)
            .at(10)
            .await_begin(0, 1)
            .at(20)
            .await_end(0, 1)
            .at(30)
            .advance(0, 2)
            .on(2)
            .at(40)
            .await_begin(0, 2)
            .at(50)
            .await_end(0, 2)
            .on(3)
            .at(60)
            .await_begin(0, 1)
            .at(70)
            .await_end(0, 1)
            .on(0)
            .at(80)
            .advance(0, 1)
            .build();
        let events = trace.events();
        let split = events.len() - 1;
        let oh = OverheadSpec::alliant_default();
        let mut a = EventBasedAnalyzer::new(&oh);
        let mut got = Vec::new();
        for e in &events[..split] {
            a.push(*e).unwrap();
            got.extend(std::iter::from_fn(|| a.next_output()));
        }
        let image = a.snapshot();
        assert_eq!(
            image.missing_adv,
            [
                (2, (SyncVarId(0), SyncTag(1))),
                (7, (SyncVarId(0), SyncTag(1)))
            ]
        );
        assert_eq!(
            image.awaiting_advance,
            [((SyncVarId(0), SyncTag(1)), vec![2, 7])]
        );
        let parked_advance = image
            .parked
            .iter()
            .find(|(id, _)| *id == 3)
            .expect("parked");
        assert_eq!(
            parked_advance.1.waiters.len(),
            1,
            "the end on tag 2 waits on it"
        );
        let json = serde_json::to_string(&image).unwrap();
        let restored = EventBasedAnalyzer::restore(&serde_json::from_str(&json).unwrap());
        assert_eq!(serde_json::to_string(&restored.snapshot()).unwrap(), json);

        let (want, want_stats) = run(EventBasedAnalyzer::new(&oh), events);
        let (rest, stats) = run(restored, &events[split..]);
        got.extend(rest);
        assert_eq!(got, want);
        assert_eq!(stats, want_stats);
    }

    /// The dirty log costs nothing until a checkpoint writer shows up,
    /// and from then on a delta carries each touched key once.
    #[test]
    fn dirty_log_starts_at_the_first_clear_and_deduplicates() {
        let trace = TraceBuilder::measured()
            .on(0)
            .at(10)
            .advance(0, 0)
            .at(20)
            .advance(0, 1)
            .at(30)
            .advance(0, 2)
            .at(40)
            .advance(1, 0)
            .build();
        let events = trace.events();
        let mut a = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
        a.push(events[0]).unwrap();
        a.push(events[1]).unwrap();
        assert!(a.dirty_log.is_none(), "nobody asked for deltas yet");
        // With no checkpoint behind it, a delta is the whole table.
        let delta = a.delta_snapshot();
        assert_eq!(delta.frontier.advances, a.snapshot().advances);
        assert_eq!(delta.advances_len, 2);

        let mut base = a.snapshot();
        a.clear_advance_dirty();
        assert!(a.delta_snapshot().frontier.advances.is_empty());
        a.push(events[2]).unwrap();
        a.push(events[3]).unwrap();
        // Arrival and resolution each logged the key...
        assert_eq!(a.dirty_log.as_ref().map(Vec::len), Some(4));
        // ...and the delta carries it once, in key order.
        let delta = a.delta_snapshot();
        let keys: Vec<(u64, u64)> = delta
            .frontier
            .advances
            .chunks_exact(4)
            .map(|q| (q[0], q[1]))
            .collect();
        assert_eq!(keys, [(0, 2 << 1), (1, 0)]);
        base.apply_delta(&delta).unwrap();
        assert_eq!(
            serde_json::to_string(&base).unwrap(),
            serde_json::to_string(&a.snapshot()).unwrap()
        );
        a.clear_advance_dirty();
        assert_eq!(a.dirty_log.as_ref().map(Vec::len), Some(0));
    }
}
