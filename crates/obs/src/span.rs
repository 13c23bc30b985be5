//! Causal span recording: the pipeline tracing itself.
//!
//! The paper's thesis is that an event trace of a system is the ground
//! truth for understanding where its time goes. This module applies
//! that to the reproduction's own pipeline: stages (decode, analysis,
//! checkpointing, ingest...) record [`SpanEvent`]s — begin/end
//! nanosecond intervals with parent attribution — into a
//! [`SpanRecorder`], and exporters in `ppa-trace` turn the recording
//! into a ppa trace the analyzer can be dogfooded on, or a Chrome
//! trace-event file for chrome://tracing.
//!
//! The design follows the crate's probe rules:
//!
//! - **Thread-local, bounded buffers.** A recording thread appends to
//!   its own buffer (one uncontended mutex per span end, taken only by
//!   that thread until drain); buffers are capped and overflow is
//!   counted in [`SpanLog::dropped`], never unbounded.
//! - **RAII nesting.** [`span_enter`] returns a [`SpanGuard`]; guards
//!   are strictly LIFO per thread, so parent/depth attribution falls
//!   out of scope discipline.
//!
//! Recorders reach code that cannot be handed one explicitly in two
//! ways: [`SpanRecorder::bind_current_thread`] pins a recorder to the
//! calling thread (one server session = one recorder), and
//! [`SpanRecorder::install_global`] makes a recorder the process-wide
//! fallback that any thread — including worker threads the trace codec
//! spawns internally — binds to lazily on its first span.

use crate::active::{Counter, Registry};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Number of [`Stage`] variants (the size of per-stage total arrays).
pub const STAGE_COUNT: usize = 16;

/// The pipeline stage a span measures. One label per instrumented
/// region of the real pipeline; `name()` is the value of the `stage`
/// label on `ppa_stage_ns_total` and the span name in both exporters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Root span: one whole `ppa analyze` run or one server session.
    Run,
    /// Decoding one binary trace block (varint payload -> events).
    Decode,
    /// CRC32 verification of one block payload.
    CrcVerify,
    /// Reorder-buffer drain at end of stream.
    Reorder,
    /// One batch of measured events pushed through the analyzer
    /// (including inline output emission) in `ppa analyze`.
    AnalyzePush,
    /// Analyzer finish: the end-of-stream tail emission.
    AnalyzeEmit,
    /// One resumable checkpoint written (tmp + fsync + rename).
    CheckpointWrite,
    /// One protocol frame header fetched off a server session socket
    /// (covers the wait for the client's next frame).
    FrameRead,
    /// One batch of events ingested by a server session.
    Ingest,
    /// Parking a server session: the eviction/shutdown checkpoint.
    Park,
    /// In-order stitching of decoded blocks in the pipelined parallel
    /// reader (stash lookups plus waiting on decode workers).
    Reassemble,
    /// One incremental (delta) checkpoint record appended.
    DeltaWrite,
    /// Evaluating a slice predicate over a trace stream (`ppa slice`
    /// and `analyze --slice`): filtering plus skip-index accounting.
    Slice,
    /// Redundancy suppression: detecting repeated per-processor
    /// patterns and emitting counted repeat records.
    Suppress,
    /// Retiring a completed server session's checkpoint file before its
    /// DONE frame.
    Retire,
    /// One batch of approximated events encoded and written by the
    /// report thread.
    ReportWrite,
}

impl Stage {
    /// Every stage, in `index()` order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Run,
        Stage::Decode,
        Stage::CrcVerify,
        Stage::Reorder,
        Stage::AnalyzePush,
        Stage::AnalyzeEmit,
        Stage::CheckpointWrite,
        Stage::FrameRead,
        Stage::Ingest,
        Stage::Park,
        Stage::Reassemble,
        Stage::DeltaWrite,
        Stage::Slice,
        Stage::Suppress,
        Stage::Retire,
        Stage::ReportWrite,
    ];

    /// Dense index, `0..STAGE_COUNT`, in declaration order (per-stage
    /// array slot and the sync-variable id in the ppa-trace export, so
    /// a new stage goes at the end).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The `stage` label value / exported span name.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Run => "run",
            Stage::Decode => "decode",
            Stage::CrcVerify => "crc_verify",
            Stage::Reorder => "reorder",
            Stage::AnalyzePush => "analyze_push",
            Stage::AnalyzeEmit => "analyze_emit",
            Stage::CheckpointWrite => "checkpoint_write",
            Stage::FrameRead => "frame_read",
            Stage::Ingest => "ingest",
            Stage::Park => "park",
            Stage::Reassemble => "reassemble",
            Stage::DeltaWrite => "delta_write",
            Stage::Slice => "slice",
            Stage::Suppress => "suppress",
            Stage::Retire => "retire",
            Stage::ReportWrite => "report_write",
        }
    }
}

/// One recorded span: a closed `[start_ns, end_ns]` interval on one
/// thread, with causal (parent) and data (block/seq) attribution.
/// Times are nanoseconds since the owning recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Recorder-unique span id (also the exported sync tag, negated).
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Recorder-assigned dense thread number (not the OS tid).
    pub thread: u32,
    /// Nesting depth at entry (0 = root span of its thread).
    pub depth: u16,
    /// Which pipeline stage this span measures.
    pub stage: Stage,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Input block index attribution, if the stage has one.
    pub block: Option<u64>,
    /// Event sequence-number attribution, if the stage has one.
    pub seq: Option<u64>,
}

impl SpanEvent {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A drained recording: every completed span, overflow accounting, and
/// per-stage wall-time totals (indexed by [`Stage::index`]).
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    /// Completed spans, sorted by `(start_ns, id)`.
    pub events: Vec<SpanEvent>,
    /// Spans discarded because a thread's buffer hit its cap.
    pub dropped: u64,
    /// Total nanoseconds per stage (includes dropped spans).
    pub stage_ns: [u64; STAGE_COUNT],
}

impl SpanLog {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }
}

/// Default per-thread span buffer capacity. Spans are batch-grained
/// (one per ~4096 events or per block), so 64 Ki spans per thread
/// covers billions of events before overflow accounting kicks in.
pub const DEFAULT_THREAD_SPAN_CAP: usize = 1 << 16;

struct RecorderCore {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    cap: usize,
    dropped: AtomicU64,
    stage_ns: [AtomicU64; STAGE_COUNT],
    /// Every thread buffer ever handed out (drain walks them all).
    bufs: Mutex<Vec<Arc<Mutex<Vec<SpanEvent>>>>>,
}

/// Collects [`SpanEvent`]s from any number of threads.
///
/// Clone-cheap (an `Arc` around shared state). See the module docs for
/// the binding model; [`SpanRecorder::drain`] extracts everything
/// recorded so far as a [`SpanLog`].
#[derive(Clone)]
pub struct SpanRecorder {
    core: Arc<RecorderCore>,
}

impl SpanRecorder {
    /// A recorder with the default per-thread buffer cap.
    pub fn new() -> Self {
        Self::with_thread_cap(DEFAULT_THREAD_SPAN_CAP)
    }

    /// A recorder whose per-thread buffers hold at most `cap` spans
    /// (further spans are dropped and counted, never allocated).
    pub fn with_thread_cap(cap: usize) -> Self {
        SpanRecorder {
            core: Arc::new(RecorderCore {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                next_thread: AtomicU64::new(0),
                cap,
                dropped: AtomicU64::new(0),
                stage_ns: [const { AtomicU64::new(0) }; STAGE_COUNT],
                bufs: Mutex::new(Vec::new()),
            }),
        }
    }

    fn new_thread_ctx(&self) -> ThreadCtx {
        let buf = Arc::new(Mutex::new(Vec::new()));
        self.core
            .bufs
            .lock()
            .expect("span buffers poisoned")
            .push(buf.clone());
        ThreadCtx {
            core: self.core.clone(),
            buf,
            thread: self.core.next_thread.fetch_add(1, Ordering::Relaxed) as u32,
            stack: Vec::new(),
            generation: None,
        }
    }

    /// Binds this recorder to the calling thread until the returned
    /// guard drops; [`span_enter`] on this thread records here,
    /// shadowing any installed global recorder. Used by server
    /// sessions (one recorder per session, sessions are
    /// thread-per-stream).
    pub fn bind_current_thread(&self) -> BindGuard {
        let ctx = self.new_thread_ctx();
        let prior = CURRENT.with(|cell| cell.borrow_mut().replace(ctx));
        BindGuard { prior }
    }

    /// Installs this recorder as the process-wide fallback until the
    /// returned guard drops. Threads without an explicit binding —
    /// including worker threads spawned inside the trace codec — bind
    /// to it lazily on their first span. Installing replaces any
    /// previously installed recorder.
    pub fn install_global(&self) -> InstallGuard {
        let mut slot = GLOBAL.write().expect("global recorder poisoned");
        *slot = Some(self.clone());
        GLOBAL_GEN.fetch_add(1, Ordering::Relaxed);
        InstallGuard { _private: () }
    }

    /// Takes everything recorded so far: completed spans from every
    /// thread (sorted by start time), the drop count, and per-stage
    /// totals. Buffers are emptied; recording may continue afterwards.
    pub fn drain(&self) -> SpanLog {
        let mut events = Vec::new();
        for buf in self.core.bufs.lock().expect("span buffers poisoned").iter() {
            events.append(&mut buf.lock().expect("span buffer poisoned"));
        }
        events.sort_by_key(|e| (e.start_ns, e.id));
        SpanLog {
            events,
            dropped: self.core.dropped.load(Ordering::Relaxed),
            stage_ns: self.stage_totals(),
        }
    }

    /// Per-stage wall-time totals so far, indexed by [`Stage::index`].
    pub fn stage_totals(&self) -> [u64; STAGE_COUNT] {
        std::array::from_fn(|i| self.core.stage_ns[i].load(Ordering::Relaxed))
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide fallback recorder ([`SpanRecorder::install_global`]).
static GLOBAL: RwLock<Option<SpanRecorder>> = RwLock::new(None);
/// Bumped on every install/uninstall so lazily-bound threads notice a
/// recorder change and rebind (tests install several in one process).
static GLOBAL_GEN: AtomicU64 = AtomicU64::new(0);

struct ThreadCtx {
    core: Arc<RecorderCore>,
    buf: Arc<Mutex<Vec<SpanEvent>>>,
    thread: u32,
    /// Ids of the spans currently open on this thread, in entry order.
    stack: Vec<u64>,
    /// `Some(gen)` when lazily bound from the global recorder at
    /// generation `gen`; `None` for explicit `bind_current_thread`.
    generation: Option<u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Restores the thread's previous recorder binding on drop.
pub struct BindGuard {
    prior: Option<ThreadCtx>,
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        let prior = self.prior.take();
        // try_with: a guard dropped during thread teardown must not abort.
        let _ = CURRENT.try_with(|cell| *cell.borrow_mut() = prior);
    }
}

/// Uninstalls the global recorder on drop.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let mut slot = GLOBAL.write().expect("global recorder poisoned");
        *slot = None;
        GLOBAL_GEN.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens a span for `stage` on the calling thread. The span closes
/// (and is recorded) when the returned guard drops; guards must be
/// dropped in LIFO order per thread. When no recorder is bound or
/// installed, the guard is inert and nothing is recorded.
pub fn span_enter(stage: Stage) -> SpanGuard {
    CURRENT
        .try_with(|cell| {
            let mut cur = cell.borrow_mut();
            // Lazily (re)bind from the global recorder — but never while
            // spans are open against the old binding (the stack must
            // close where it opened).
            let stale = match cur.as_ref() {
                None => true,
                Some(ctx) => {
                    ctx.generation
                        .is_some_and(|g| g != GLOBAL_GEN.load(Ordering::Relaxed))
                        && ctx.stack.is_empty()
                }
            };
            if stale {
                let slot = GLOBAL.read().expect("global recorder poisoned");
                *cur = slot.as_ref().map(|rec| {
                    let mut ctx = rec.new_thread_ctx();
                    ctx.generation = Some(GLOBAL_GEN.load(Ordering::Relaxed));
                    ctx
                });
            }
            match cur.as_mut() {
                Some(ctx) => {
                    let id = ctx.core.next_id.fetch_add(1, Ordering::Relaxed);
                    let parent = ctx.stack.last().copied();
                    let depth = ctx.stack.len().min(u16::MAX as usize) as u16;
                    ctx.stack.push(id);
                    SpanGuard {
                        inner: Some(GuardInner {
                            core: ctx.core.clone(),
                            buf: ctx.buf.clone(),
                            id,
                            parent,
                            thread: ctx.thread,
                            depth,
                            stage,
                            start_ns: elapsed_ns(ctx.core.epoch),
                            block: None,
                            seq: None,
                        }),
                    }
                }
                None => SpanGuard { inner: None },
            }
        })
        .unwrap_or(SpanGuard { inner: None })
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

struct GuardInner {
    core: Arc<RecorderCore>,
    buf: Arc<Mutex<Vec<SpanEvent>>>,
    id: u64,
    parent: Option<u64>,
    thread: u32,
    depth: u16,
    stage: Stage,
    start_ns: u64,
    block: Option<u64>,
    seq: Option<u64>,
}

/// An open span; recording happens when it drops. Returned by
/// [`span_enter`].
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// Attributes the span to an input block index.
    #[inline]
    pub fn attr_block(&mut self, block: u64) {
        if let Some(inner) = &mut self.inner {
            inner.block = Some(block);
        }
    }

    /// Attributes the span to an event sequence number.
    #[inline]
    pub fn attr_seq(&mut self, seq: u64) {
        if let Some(inner) = &mut self.inner {
            inner.seq = Some(seq);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_ns = elapsed_ns(inner.core.epoch).max(inner.start_ns);
        inner.core.stage_ns[inner.stage.index()]
            .fetch_add(end_ns - inner.start_ns, Ordering::Relaxed);
        {
            let mut buf = inner.buf.lock().expect("span buffer poisoned");
            if buf.len() < inner.core.cap {
                buf.push(SpanEvent {
                    id: inner.id,
                    parent: inner.parent,
                    thread: inner.thread,
                    depth: inner.depth,
                    stage: inner.stage,
                    start_ns: inner.start_ns,
                    end_ns,
                    block: inner.block,
                    seq: inner.seq,
                });
            } else {
                inner.core.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Close this span on the thread's open stack. Robust to
        // out-of-order drops (rposition, not pop) and to guards that
        // outlive the binding that created them.
        let _ = CURRENT.try_with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                if Arc::ptr_eq(&ctx.core, &inner.core) {
                    if let Some(pos) = ctx.stack.iter().rposition(|&id| id == inner.id) {
                        ctx.stack.remove(pos);
                    }
                }
            }
        });
    }
}

/// Exports per-stage wall-time totals as `ppa_stage_ns_total{stage=...}`
/// counters (one series per [`Stage`], pre-registered so every
/// snapshot carries the full set even before any span closes).
pub struct StageCounters {
    counters: [Counter; STAGE_COUNT],
}

impl StageCounters {
    /// Registers the `ppa_stage_ns_total` family on `registry`.
    pub fn register(registry: &Registry) -> Self {
        StageCounters {
            counters: Stage::ALL.map(|s| {
                registry.counter_with(
                    "ppa_stage_ns_total",
                    &[("stage", s.name())],
                    "Wall-clock nanoseconds spent in this pipeline stage \
                     (from the self-tracing span recorder).",
                )
            }),
        }
    }

    /// Adds `totals` (nanoseconds per stage, indexed by
    /// [`Stage::index`]) into the counters. Callers that publish a
    /// live recorder repeatedly must pass deltas, not running totals.
    pub fn add_totals(&self, totals: &[u64; STAGE_COUNT]) {
        for (counter, &ns) in self.counters.iter().zip(totals) {
            counter.add(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder slot is process-wide; tests that install or
    /// depend on its absence serialize through this lock.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn stage_index_follows_all_and_names_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage:?}");
            assert!(
                names.insert(stage.name()),
                "duplicate name {}",
                stage.name()
            );
        }
    }

    #[test]
    fn spans_record_nesting_and_attribution() {
        let rec = SpanRecorder::new();
        let _bind = rec.bind_current_thread();
        {
            let _run = span_enter(Stage::Run);
            {
                let mut d = span_enter(Stage::Decode);
                d.attr_block(7);
                d.attr_seq(4096);
                let _c = span_enter(Stage::CrcVerify);
            }
            let _r = span_enter(Stage::Reorder);
        }
        let log = rec.drain();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 0);
        let run = &log.events[0];
        let decode = &log.events[1];
        let crc = &log.events[2];
        let reorder = &log.events[3];
        assert_eq!(run.stage, Stage::Run);
        assert_eq!(run.depth, 0);
        assert_eq!(run.parent, None);
        assert_eq!(decode.stage, Stage::Decode);
        assert_eq!(decode.parent, Some(run.id));
        assert_eq!(decode.depth, 1);
        assert_eq!(decode.block, Some(7));
        assert_eq!(decode.seq, Some(4096));
        assert_eq!(crc.parent, Some(decode.id));
        assert_eq!(crc.depth, 2);
        assert_eq!(reorder.parent, Some(run.id));
        // Child intervals sit within their parents.
        assert!(decode.start_ns >= run.start_ns && decode.end_ns <= run.end_ns);
        assert!(crc.start_ns >= decode.start_ns && crc.end_ns <= decode.end_ns);
        // Siblings on one thread are disjoint.
        assert!(reorder.start_ns >= decode.end_ns);
        // Totals cover every stage that ran.
        assert!(log.stage_ns[Stage::Run.index()] >= log.stage_ns[Stage::Decode.index()]);
    }

    #[test]
    fn unbound_threads_record_nothing() {
        let _serial = GLOBAL_TEST_LOCK.lock().unwrap();
        let rec = SpanRecorder::new();
        {
            let _s = span_enter(Stage::Decode);
        }
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn global_install_reaches_spawned_threads() {
        let _serial = GLOBAL_TEST_LOCK.lock().unwrap();
        let rec = SpanRecorder::new();
        let _g = rec.install_global();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _sp = span_enter(Stage::Decode);
                });
            }
        });
        {
            let _sp = span_enter(Stage::Reorder);
        }
        let log = rec.drain();
        assert_eq!(log.events.len(), 4);
        // Each spawned thread got its own dense thread id.
        let mut threads: Vec<u32> = log.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
        drop(_g);
        // After uninstall the lazily-bound thread stops recording.
        {
            let _sp = span_enter(Stage::Decode);
        }
        assert_eq!(rec.drain().events.len(), 0);
    }

    #[test]
    fn a_second_global_recorder_takes_over() {
        let _serial = GLOBAL_TEST_LOCK.lock().unwrap();
        let a = SpanRecorder::new();
        {
            let _g = a.install_global();
            let _sp = span_enter(Stage::Run);
        }
        let b = SpanRecorder::new();
        {
            let _g = b.install_global();
            let _sp = span_enter(Stage::Run);
        }
        assert_eq!(a.drain().events.len(), 1);
        assert_eq!(b.drain().events.len(), 1);
    }

    #[test]
    fn bounded_buffers_drop_and_count() {
        let rec = SpanRecorder::with_thread_cap(2);
        let _bind = rec.bind_current_thread();
        for _ in 0..5 {
            let _sp = span_enter(Stage::Decode);
        }
        let log = rec.drain();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
        // Totals still account for the dropped spans' time.
        assert!(log.stage_ns[Stage::Decode.index()] > 0);
    }

    #[test]
    fn stage_counters_export_the_full_family() {
        let registry = Registry::new();
        let counters = StageCounters::register(&registry);
        let mut totals = [0u64; STAGE_COUNT];
        totals[Stage::Decode.index()] = 123;
        counters.add_totals(&totals);
        let snap = registry.snapshot();
        let family: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| e.name == "ppa_stage_ns_total")
            .collect();
        assert_eq!(family.len(), STAGE_COUNT);
        let decode = family
            .iter()
            .find(|e| e.labels.iter().any(|(_, v)| v == "decode"))
            .expect("decode series");
        assert!(matches!(decode.value, crate::MetricValue::Counter(123)));
    }
}
