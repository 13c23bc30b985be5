//! The one streaming analysis loop.
//!
//! A [`Pipeline`] owns every stage of a fault-tolerant §4.2.3 run. Two
//! threads carry it: the driver's thread reads, analyzes and counts, and
//! a report thread encodes and writes the approximated trace.
//!
//! ```text
//!  driver thread ─────────────────────────────────────────────────────────┐
//!  AnyTraceReader ─► ReorderBuffer? ─► RepeatExpander? ─► EventBasedAnalyzer │
//!                                                               │ drain    │
//!                 DeltaCheckpointWriter? ◄── counters, filter ◄─┘          │
//!                                                   │ batches of ≤ 512     │
//!  ─────────────────────────────────────────────────┼──────────────────────┘
//!  report thread                                    ▼  (≤ 4 batches alive,
//!                          AnyTraceWriter<File>: encode, CRC, write  recycled)
//! ```
//!
//! `ppa analyze` and every `ppa serve` session are drivers of this
//! type: they open the input, call [`Pipeline::step`] until it returns
//! `None`, then [`Pipeline::finish`]. The stage order, the checkpoint
//! arithmetic and the resume protocol exist here and nowhere else, so
//! "served == streamed" and "resumed == uninterrupted" are properties of
//! one loop instead of an agreement between two.
//!
//! The analyzer drains the events its watermark releases straight into
//! the batch being filled; a full batch goes to the report thread and an
//! emptied one comes back. The report thread owns the writer and is the
//! only code that touches the report file, so encoding (JSONL lines or
//! binary blocks with their CRCs) leaves the analyzer's thread entirely.
//! A writer error stops the thread and comes back as
//! [`PipelineError::Report`] at the next hand-off, flush or finish.
//! Dropping a pipeline hands over what was drained and joins the thread,
//! so the report is as complete on disk as it will get once `drop`
//! returns.
//!
//! # The checkpoint cut
//!
//! A checkpoint is taken only *between* steps, when every event the
//! reader has delivered has been pushed through to the analyzer, all
//! output it made available has been handed to the report stage, and
//! the report stage has written and flushed all of it. At that cut
//! [`Pipeline::checkpoint_now`]
//!
//! 1. drains the report stage — the batch being filled is handed over
//!    and the call waits until the thread has written and flushed every
//!    batch — and records the report's length as
//!    [`SinkState::bytes_flushed`], the durable frontier;
//! 2. records `positions_seen` = positions a previous run consumed +
//!    events this run's reader delivered + events it lost to lenient
//!    gaps, i.e. exactly what `set_skip_events` must skip on resume;
//! 3. chains the gaps recorded before the resume with this run's;
//! 4. snapshots the reorder buffer's held-back tail and the analyzer.
//!
//! Resuming ([`Pipeline::new`] with a [`Checkpoint`]) inverts it: the
//! report must be at least `bytes_flushed` long, is truncated there (the
//! bytes past the frontier are a torn tail the resumed run writes
//! again) and appended to; analyzer, reorder buffer and counters are
//! restored; the reader skips `positions_seen` positions.
//!
//! The [`RepeatExpander`]'s state (per-processor history, occurrences
//! still pending) is in no checkpoint, so the expander is in the chain
//! only for a run that neither writes checkpoints nor resumed from one.
//! Every other run hands events straight to the analyzer, which refuses
//! a repeat record with a typed error before a cut that includes the
//! record can be written: suppressed input and checkpoints exclude each
//! other (expand first, `ppa slice --expand`). On a record-free stream
//! the expander only remembers each event and hands it on.
//!
//! # Between steps
//!
//! A driver may do anything that does not touch the stages: count,
//! throttle, sleep, export metrics, read the accessors, call
//! [`Pipeline::checkpoint_now`], or stop and drop the pipeline. A step
//! that fails with [`PipelineError::Input`] consumed nothing — the
//! pipeline is still at the previous cut and may be checkpointed (a
//! session parks this way on an idle or vanished client). After any
//! other error the stages are mid-event: drop the pipeline.

use crate::checkpoint::{
    Checkpoint, CheckpointError, CheckpointParts, DeltaCheckpointWriter, SinkState,
};
use crate::error::AnalysisError;
use crate::expand::{ExpandError, RepeatExpander};
use crate::streaming::{
    AnalyzerProbes, EventBasedAnalyzer, OutputSink, SpillCounts, StreamOutput, StreamStats,
};
use ppa_obs::{span_enter, Gauge, Stage};
use ppa_trace::{
    AnyTraceReader, AnyTraceWriter, Event, IoError, OverheadSpec, ReorderBuffer, ReorderSnapshot,
    Span, StreamProbes, TraceFormat, TraceGap, TraceKind,
};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

/// Events between two samples of [`Pipeline::resident_bytes`]: the
/// `ppa_resident_bytes` refresh here, the resident-quota charge in a
/// `ppa serve` session. The sum visits every live synchronization
/// object, too much for the analyzer's 16-event drain cadence on
/// episode traces (+14 % wall with `--metrics-out` on fork/join).
pub const RESIDENT_SAMPLE_EVERY: u64 = 1024;

/// Decides which approximated events reach the report (`--slice`).
pub type ReportFilter = Box<dyn Fn(&Event) -> bool>;

/// When and where a [`Pipeline`] writes its `PPACKPT2` chain.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// The checkpoint file.
    pub path: PathBuf,
    /// Cadence, in events consumed from the input.
    pub every: u64,
    /// Deltas between full snapshots (0 = full snapshots only).
    pub compact_every: usize,
}

/// What a run is configured with: the fault-tolerance flags `ppa analyze
/// --stream` and `ppa serve` share, and the probes to record into.
pub struct PipelineConfig {
    /// Instrumentation and synchronization costs to remove.
    pub overheads: OverheadSpec,
    /// Skip undecodable input as typed gaps, and finish with whatever
    /// resolved instead of failing on events a gap left parked.
    pub lenient: bool,
    /// Re-sort events arriving up to this many sequence numbers late.
    pub reorder_window: Option<u64>,
    /// Write resumable checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Analyzer probes.
    pub analyzer_probes: AnalyzerProbes,
    /// Report-writer probes.
    pub report_probes: StreamProbes,
    /// Scope of the *report*: the analysis always runs over the full
    /// input (anything less would bias the §4.2.3 overhead accounting —
    /// see EXPERIMENTS.md), and the predicate decides which approximated
    /// events are written.
    pub report_filter: Option<ReportFilter>,
}

impl PipelineConfig {
    /// Strict, no reorder window, no checkpoints, no probes, no filter.
    pub fn new(overheads: OverheadSpec) -> Self {
        PipelineConfig {
            overheads,
            lenient: false,
            reorder_window: None,
            checkpoint: None,
            analyzer_probes: AnalyzerProbes::noop(),
            report_probes: StreamProbes::noop(),
            report_filter: None,
        }
    }
}

/// Why a pipeline could not be built, stepped, checkpointed or finished.
/// Carries no paths: the driver that named them adds them.
#[derive(Debug)]
pub enum PipelineError {
    /// Reading or decoding the input failed. The step consumed nothing.
    Input(IoError),
    /// A repeat record could not be expanded.
    Expand(ExpandError),
    /// The analyzer refused the trace.
    Analysis(AnalysisError),
    /// The report to resume into could not be opened.
    ResumeOpen(std::io::Error),
    /// The report to resume into is shorter than the durable frontier
    /// its checkpoint recorded: not the file that checkpoint describes.
    ReportShort {
        /// The report's length in bytes.
        len: u64,
        /// The checkpoint's [`SinkState::bytes_flushed`].
        flushed: u64,
    },
    /// Creating, truncating, writing or flushing the report failed.
    Report(IoError),
    /// Writing the checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Input(e) => e.fmt(f),
            PipelineError::Expand(e) => e.fmt(f),
            PipelineError::Analysis(e) => e.fmt(f),
            PipelineError::ResumeOpen(e) => write!(f, "cannot resume into the report: {e}"),
            PipelineError::ReportShort { len, flushed } => write!(
                f,
                "report is {len} bytes but the checkpoint flushed {flushed}; \
                 wrong or modified report file"
            ),
            PipelineError::Report(e) => write!(f, "report: {e}"),
            PipelineError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ExpandError> for PipelineError {
    fn from(e: ExpandError) -> Self {
        PipelineError::Expand(e)
    }
}

/// One consumed input event, as [`Pipeline::step`] reports it.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The measured event the reader delivered.
    pub event: Event,
    /// The checkpoint cadence came due and a checkpoint was written.
    pub checkpointed: bool,
}

/// What a finished run did, resumed prefix included.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Output counters; `bytes_flushed` is the last checkpoint's.
    pub sink: SinkState,
    /// Approximated events the report filter kept out of the report.
    pub filtered: u64,
    /// The analyzer's resource counters.
    pub stats: StreamStats,
    /// How often this process's analyzer left its fast structures for
    /// their spill paths (not carried across a resume).
    pub spills: SpillCounts,
    /// Events left parked at end of stream (lenient runs only).
    pub unresolved: usize,
    /// Every decode gap, in stream order.
    pub gaps: Vec<TraceGap>,
    /// Events lost to those gaps.
    pub events_lost: u64,
    /// Repeat records expanded.
    pub repeat_records: u64,
    /// Events reproduced from them.
    pub repeat_expanded: u64,
    /// The reorder buffer's final state (its window, what it re-sorted
    /// and rejected), when one was in use.
    pub reorder: Option<ReorderSnapshot>,
}

/// Events per batch handed to the report thread.
const BATCH_EVENTS: usize = 512;

/// Batches alive at once, the one being filled included: the bound on
/// how far the report thread may trail the analyzer.
const BATCHES: usize = 4;

/// The report thread's stack. It encodes into heap buffers and never
/// recurses; the default 2 MiB would only show up as resident memory.
const STAGE_STACK_BYTES: usize = 128 * 1024;

/// One batch for the report thread, and what to do once it is written.
struct Job {
    batch: Vec<Event>,
    then: Then,
}

enum Then {
    /// Hand the emptied batch back.
    Recycle,
    /// Flush the writer, then hand the batch back: when it arrives,
    /// everything before it is on disk.
    Flush,
    /// Complete the report (the binary trailer block) and stop.
    Finish,
}

/// The report thread: writes every batch in order, then does what the
/// job says. Stops at the first writer error — dropping its channel
/// ends, which is how the pipeline learns of it — or when the pipeline
/// hangs up, leaving the writer to drop as an unfinished one does.
fn write_report(
    mut writer: AnyTraceWriter<File>,
    jobs: Receiver<Job>,
    recycled: Sender<Vec<Event>>,
) -> Result<(), IoError> {
    for Job { mut batch, then } in jobs {
        for e in &batch {
            writer.write_event(e)?;
        }
        match then {
            Then::Recycle => {}
            Then::Flush => writer.flush()?,
            Then::Finish => return writer.finish().map(drop),
        }
        batch.clear();
        // A dropped pipeline no longer takes batches back.
        let _ = recycled.send(batch);
    }
    Ok(())
}

/// The driver's end of the report thread (see the module docs).
struct ReportStage {
    /// The batch being filled.
    batch: Vec<Event>,
    /// Emptied batches taken back while waiting for a flush.
    spare: Vec<Vec<Event>>,
    /// Batches allocated so far, at most [`BATCHES`].
    allocated: usize,
    /// Batches sent and not yet back.
    in_flight: usize,
    /// `None` once the thread was told to finish or has stopped.
    jobs: Option<SyncSender<Job>>,
    recycled: Receiver<Vec<Event>>,
    thread: Option<JoinHandle<Result<(), IoError>>>,
}

impl ReportStage {
    fn spawn(writer: AnyTraceWriter<File>) -> Result<ReportStage, PipelineError> {
        let (jobs, job_rx) = mpsc::sync_channel(BATCHES);
        let (recycle_tx, recycled) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("ppa-report".into())
            .stack_size(STAGE_STACK_BYTES)
            .spawn(move || write_report(writer, job_rx, recycle_tx))
            .map_err(|e| PipelineError::Report(e.into()))?;
        Ok(ReportStage {
            batch: Vec::with_capacity(BATCH_EVENTS),
            spare: Vec::new(),
            allocated: 1,
            in_flight: 0,
            jobs: Some(jobs),
            recycled,
            thread: Some(thread),
        })
    }

    #[inline]
    fn push(&mut self, event: Event) -> Result<(), IoError> {
        self.batch.push(event);
        if self.batch.len() == BATCH_EVENTS {
            self.send(Then::Recycle)?;
        }
        Ok(())
    }

    /// Hands the batch being filled over, to be written and then
    /// `then`, and starts filling an empty one: a spare, one the thread
    /// already gave back, a new one while fewer than [`BATCHES`] exist,
    /// or else the next one the thread gives back.
    fn send(&mut self, then: Then) -> Result<(), IoError> {
        let batch = std::mem::take(&mut self.batch);
        let sent = self
            .jobs
            .as_ref()
            .is_some_and(|jobs| jobs.send(Job { batch, then }).is_ok());
        if !sent {
            return Err(self.failure());
        }
        self.in_flight += 1;
        self.batch = match self.spare.pop() {
            Some(b) => b,
            None => match self.recycled.try_recv() {
                Ok(b) => {
                    self.in_flight -= 1;
                    b
                }
                Err(_) if self.allocated < BATCHES => {
                    self.allocated += 1;
                    Vec::with_capacity(BATCH_EVENTS)
                }
                Err(_) => self.take_back()?,
            },
        };
        Ok(())
    }

    /// Waits for the thread to give a batch back.
    fn take_back(&mut self) -> Result<Vec<Event>, IoError> {
        match self.recycled.recv() {
            Ok(b) => {
                self.in_flight -= 1;
                Ok(b)
            }
            Err(_) => Err(self.failure()),
        }
    }

    /// The flush barrier: returns once every event handed over so far is
    /// written and flushed to the file.
    fn flush(&mut self) -> Result<(), IoError> {
        self.send(Then::Flush)?;
        while self.in_flight > 0 {
            let b = self.take_back()?;
            self.spare.push(b);
        }
        Ok(())
    }

    /// Hands the last batch over, completes the report and joins.
    fn finish(mut self) -> Result<(), IoError> {
        let batch = std::mem::take(&mut self.batch);
        if let Some(jobs) = self.jobs.take() {
            // A failed send means the thread already stopped on an
            // error, which the join returns.
            let _ = jobs.send(Job {
                batch,
                then: Then::Finish,
            });
        }
        self.join()
    }

    /// Heap bytes of the batches: every one is allocated at
    /// [`BATCH_EVENTS`] and never grows.
    fn resident_bytes(&self) -> usize {
        self.allocated * BATCH_EVENTS * std::mem::size_of::<Event>()
    }

    /// The thread has stopped: joins it for the error it stopped on.
    fn failure(&mut self) -> IoError {
        self.jobs = None;
        match self.join() {
            Err(e) => e,
            Ok(()) => IoError::Io(std::io::Error::other("report stage stopped early")),
        }
    }

    fn join(&mut self) -> Result<(), IoError> {
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_else(|_| {
                Err(IoError::Io(std::io::Error::other("report stage panicked")))
            }),
            None => Err(IoError::Io(std::io::Error::other("report stage stopped"))),
        }
    }
}

impl Drop for ReportStage {
    /// A pipeline dropped without finishing (a kill, an error) still
    /// gets what it drained to the file, as far as the unfinished writer
    /// puts it there, before `drop` returns.
    fn drop(&mut self) {
        if let Some(jobs) = self.jobs.take() {
            let _ = jobs.send(Job {
                batch: std::mem::take(&mut self.batch),
                then: Then::Recycle,
            });
        }
        if self.thread.is_some() {
            let _ = self.join();
        }
    }
}

/// The analyzer's sink: the output counters, the report filter, and the
/// report stage the kept events go to.
struct Report {
    stage: Option<ReportStage>,
    /// A report-stage error met mid-drain, returned after the push.
    failed: Option<IoError>,
    filter: Option<ReportFilter>,
    filtered: u64,
    sink: SinkState,
}

impl OutputSink for Report {
    #[inline]
    fn event(&mut self, e: Event) {
        // `last_time` reports the analysis, not the slice, so it
        // advances before filtering.
        self.sink.last_time = self.sink.last_time.max(e.time);
        if self.filter.as_ref().is_some_and(|keep| !keep(&e)) {
            self.filtered += 1;
            return;
        }
        self.sink.events += 1;
        if let Some(stage) = &mut self.stage {
            if let Err(err) = stage.push(e) {
                self.failed.get_or_insert(err);
            }
        }
    }

    fn output(&mut self, o: StreamOutput) {
        match o {
            StreamOutput::Event(e) => self.event(e),
            StreamOutput::Await { .. } => self.sink.awaits += 1,
            StreamOutput::Barrier { .. } => self.sink.barriers += 1,
            StreamOutput::Episode { .. } => self.sink.episodes += 1,
        }
    }
}

impl Report {
    /// Surfaces a report-stage error met while draining.
    #[inline]
    fn check(&mut self) -> Result<(), PipelineError> {
        match self.failed.take() {
            Some(e) => Err(PipelineError::Report(e)),
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> Result<(), PipelineError> {
        self.check()?;
        match &mut self.stage {
            Some(stage) => stage.flush().map_err(PipelineError::Report),
            None => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), PipelineError> {
        self.check()?;
        match self.stage.take() {
            Some(stage) => stage.finish().map_err(PipelineError::Report),
            None => Ok(()),
        }
    }
}

/// The analyzer and the report it drains into.
struct Tail {
    analyzer: EventBasedAnalyzer,
    report: Report,
}

impl Tail {
    #[inline]
    fn push(&mut self, event: Event) -> Result<(), PipelineError> {
        self.analyzer
            .push_into(event, &mut self.report)
            .map_err(PipelineError::Analysis)?;
        self.report.check()
    }
}

/// Hands one totally-ordered event to the expander, if there is one,
/// and on to the analyzer; a repeat record's occurrences go one by one.
fn feed(
    expand: &mut Option<RepeatExpander>,
    tail: &mut Tail,
    event: Event,
) -> Result<(), PipelineError> {
    let Some(x) = expand else {
        return tail.push(event);
    };
    if x.pass_through(&event) {
        return tail.push(event);
    }
    x.push(event, |e| tail.push(e))
}

/// The chain writer and its cadence counter.
struct Checkpointer {
    writer: DeltaCheckpointWriter,
    every: u64,
    since: u64,
}

/// A streaming event-based analysis, from an opened reader to a
/// finished report: reader → reorder buffer? → repeat expander? →
/// analyzer → counters and checkpoint chain?, with the report written
/// by its own thread.
///
/// Drive it with [`step`](Self::step) until `None`, then
/// [`finish`](Self::finish). Checkpoints are cut only between steps
/// ([`checkpoint_now`](Self::checkpoint_now), which the cadence also
/// goes through), when everything read has been analyzed, written and
/// flushed; between steps a driver may do anything that leaves the
/// stages alone. A run that writes checkpoints or resumed from one has
/// no expander and refuses suppressed input. Dropping a pipeline joins
/// its report thread. `crates/core/src/pipeline.rs` opens with the full
/// contract.
pub struct Pipeline<R: Read> {
    reader: AnyTraceReader<R>,
    reorder: Option<ReorderBuffer>,
    expand: Option<RepeatExpander>,
    tail: Tail,
    checkpointer: Option<Checkpointer>,
    report_path: Option<PathBuf>,
    lenient: bool,
    /// `ppa_resident_bytes`, refreshed every [`RESIDENT_SAMPLE_EVERY`]
    /// events.
    resident_gauge: Gauge,
    /// Events this run's reader has delivered.
    events_in: u64,
    /// Positions, gaps and losses of the run this one resumed.
    base_positions: u64,
    prior_gaps: Vec<TraceGap>,
    prior_lost: u64,
}

impl<R: Read> Pipeline<R> {
    /// Builds the stages around `reader`. `report` is where and in which
    /// container the approximated trace goes (nowhere when `None`);
    /// `resume` continues the run that wrote that checkpoint, into the
    /// JSONL report it was writing.
    pub fn new(
        mut reader: AnyTraceReader<R>,
        config: PipelineConfig,
        report: Option<(&Path, TraceFormat)>,
        resume: Option<Checkpoint>,
    ) -> Result<Self, PipelineError> {
        reader.set_lenient(config.lenient);
        let writer = match (report, &resume) {
            (Some((path, _)), Some(cp)) => {
                Some(resume_report(path, &cp.sink, config.report_probes)?)
            }
            (Some((path, format)), None) => {
                // A filtered report's length is unknown until the run
                // ends, and a count that overshoots would read back as
                // truncation: announce 0 (unknown).
                let announced = match config.report_filter {
                    Some(_) => 0,
                    None => reader.expected_events(),
                };
                let file = File::create(path).map_err(|e| PipelineError::Report(e.into()))?;
                Some(
                    AnyTraceWriter::with_probes(
                        file,
                        format,
                        TraceKind::Approximated,
                        announced,
                        config.report_probes,
                    )
                    .map_err(PipelineError::Report)?,
                )
            }
            (None, _) => None,
        };
        let stage = writer.map(ReportStage::spawn).transpose()?;
        let expand = (config.checkpoint.is_none() && resume.is_none()).then(RepeatExpander::new);
        let checkpointer = config.checkpoint.map(|p| Checkpointer {
            writer: DeltaCheckpointWriter::new(p.path, p.compact_every),
            every: p.every,
            since: 0,
        });
        let resident_gauge = config.analyzer_probes.resident_bytes.clone();
        let analyzer = match &resume {
            Some(cp) => {
                EventBasedAnalyzer::restore_with_probes(&cp.analyzer, config.analyzer_probes)
            }
            None => EventBasedAnalyzer::with_probes(&config.overheads, config.analyzer_probes),
        };
        // A checkpoint written without a window carries no buffer; a
        // fresh one still honors the flag (nothing has been released
        // from its point of view, and the analyzer still enforces total
        // order).
        let reorder = resume
            .as_ref()
            .and_then(|cp| cp.reorder.as_ref())
            .map(ReorderBuffer::restore)
            .or_else(|| config.reorder_window.map(ReorderBuffer::new));
        let (sink, base_positions, prior_gaps, prior_lost) = resume
            .map(|cp| (cp.sink, cp.positions_seen, cp.gaps, cp.events_lost))
            .unwrap_or_default();
        reader.set_skip_events(base_positions);
        Ok(Pipeline {
            reader,
            reorder,
            expand,
            tail: Tail {
                analyzer,
                report: Report {
                    stage,
                    failed: None,
                    filter: config.report_filter,
                    filtered: 0,
                    sink,
                },
            },
            checkpointer,
            report_path: report.map(|(p, _)| p.to_path_buf()),
            lenient: config.lenient,
            resident_gauge,
            events_in: 0,
            base_positions,
            prior_gaps,
            prior_lost,
        })
    }

    /// Consumes one input event: reads it, re-sorts it, expands it,
    /// analyzes it, hands what that made available to the report stage,
    /// and checkpoints if the cadence came due. `None` at end of input.
    pub fn step(&mut self) -> Result<Option<Step>, PipelineError> {
        let event = match self.reader.next() {
            None => return Ok(None),
            Some(Err(e)) => return Err(PipelineError::Input(e)),
            Some(Ok(event)) => event,
        };
        match &mut self.reorder {
            Some(buf) => {
                // A rejection is counted by the buffer, not fatal: the
                // event arrived too late to place without rewriting
                // already-released order.
                buf.push(event);
                while let Some(e) = buf.pop_ready() {
                    feed(&mut self.expand, &mut self.tail, e)?;
                }
            }
            None => feed(&mut self.expand, &mut self.tail, event)?,
        }
        self.events_in += 1;
        if self.events_in.is_multiple_of(RESIDENT_SAMPLE_EVERY) && self.resident_gauge.is_attached()
        {
            self.resident_gauge.set(self.resident_bytes() as f64);
        }
        let due = self.checkpointer.as_mut().is_some_and(|c| {
            c.since += 1;
            c.since >= c.every
        });
        if due {
            self.checkpoint_now()?;
        }
        Ok(Some(Step {
            event,
            checkpointed: due,
        }))
    }

    /// Writes a checkpoint at the current cut (see the module docs) and
    /// restarts the cadence. Cadence, parking, shutdown and eviction all
    /// come through here. Does nothing without a [`CheckpointPolicy`].
    pub fn checkpoint_now(&mut self) -> Result<(), PipelineError> {
        let Some(ck) = &mut self.checkpointer else {
            return Ok(());
        };
        ck.since = 0;
        let Tail { analyzer, report } = &mut self.tail;
        report.flush()?;
        if let Some(path) = &self.report_path {
            report.sink.bytes_flushed = std::fs::metadata(path)
                .map_err(|e| PipelineError::Report(e.into()))?
                .len();
        }
        let gaps: Vec<TraceGap> = self
            .prior_gaps
            .iter()
            .chain(self.reader.gaps())
            .cloned()
            .collect();
        let parts = CheckpointParts {
            positions_seen: self.base_positions + self.events_in + self.reader.events_lost(),
            gaps: &gaps,
            events_lost: self.prior_lost + self.reader.events_lost(),
            reorder: self.reorder.as_ref().map(ReorderBuffer::snapshot),
            sink: report.sink,
        };
        ck.writer
            .checkpoint(analyzer, parts)
            .map_err(PipelineError::Checkpoint)
    }

    /// Ends the run: releases the reorder buffer's tail and the
    /// expander's pending occurrences, finishes the analyzer (leniently
    /// if configured so) and completes the report.
    pub fn finish(mut self) -> Result<Summary, PipelineError> {
        if let Some(buf) = &mut self.reorder {
            let _span = span_enter(Stage::Reorder);
            while let Some(e) = buf.pop_flush() {
                feed(&mut self.expand, &mut self.tail, e)?;
            }
        }
        if let Some(x) = &mut self.expand {
            x.finish(|e| self.tail.push(e))?;
        }
        let _span = span_enter(Stage::AnalyzeEmit);
        let Tail {
            analyzer,
            mut report,
        } = self.tail;
        let stream_tail = analyzer
            .finish_into(&mut report, self.lenient)
            .map_err(PipelineError::Analysis)?;
        report.finish()?;
        let mut gaps = self.prior_gaps;
        gaps.extend_from_slice(self.reader.gaps());
        Ok(Summary {
            sink: report.sink,
            filtered: report.filtered,
            stats: stream_tail.stats,
            spills: stream_tail.spills,
            unresolved: stream_tail.unresolved,
            gaps,
            events_lost: self.prior_lost + self.reader.events_lost(),
            repeat_records: self.expand.as_ref().map_or(0, RepeatExpander::records),
            repeat_expanded: self.expand.as_ref().map_or(0, RepeatExpander::expanded),
            reorder: self.reorder.as_ref().map(ReorderBuffer::snapshot),
        })
    }

    /// The input reader: its announced event count, and the gaps and
    /// losses of *this* run.
    pub fn reader(&self) -> &AnyTraceReader<R> {
        &self.reader
    }

    /// Events this run's reader has delivered.
    pub fn events_in(&self) -> u64 {
        self.events_in
    }

    /// Approximated events handed to the report so far, resumed prefix
    /// included.
    pub fn events_out(&self) -> u64 {
        self.tail.report.sink.events
    }

    /// Events held in memory: the analyzer's resident state plus the
    /// reorder buffer's tail.
    pub fn resident(&self) -> usize {
        self.tail.analyzer.resident() + self.reorder.as_ref().map_or(0, ReorderBuffer::len)
    }

    /// Heap bytes of the run's resident state: every analyzer table
    /// ([`EventBasedAnalyzer::resident_bytes`]), the reorder buffer and
    /// the report stage's batches. What `ppa serve`'s per-tenant
    /// resident quota charges, and what `ppa_resident_bytes` exports.
    pub fn resident_bytes(&self) -> usize {
        self.tail.analyzer.resident_bytes()
            + self
                .reorder
                .as_ref()
                .map_or(0, ReorderBuffer::resident_bytes)
            + self
                .tail
                .report
                .stage
                .as_ref()
                .map_or(0, ReportStage::resident_bytes)
    }

    /// How far the analyzer's emission trails its input.
    pub fn watermark_lag(&self) -> Span {
        self.tail.analyzer.watermark_lag()
    }
}

/// The resume half of the checkpoint protocol, report side: everything
/// before the frontier was flushed before the snapshot was taken,
/// everything after it the resumed analysis emits again.
fn resume_report(
    path: &Path,
    sink: &SinkState,
    probes: StreamProbes,
) -> Result<AnyTraceWriter<File>, PipelineError> {
    let mut file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(PipelineError::ResumeOpen)?;
    let report = |e: std::io::Error| PipelineError::Report(e.into());
    let len = file.metadata().map_err(report)?.len();
    if len < sink.bytes_flushed {
        return Err(PipelineError::ReportShort {
            len,
            flushed: sink.bytes_flushed,
        });
    }
    file.set_len(sink.bytes_flushed).map_err(report)?;
    file.seek(SeekFrom::End(0)).map_err(report)?;
    Ok(AnyTraceWriter::resume_jsonl(
        file,
        sink.events as usize,
        probes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
    use ppa_trace::{EventKind, ProcessorId, StatementId, SyncTag, SyncVarId, Time};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh scratch directory per call.
    fn scratch() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ppa-stage-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn writer(path: &Path, format: TraceFormat) -> AnyTraceWriter<File> {
        let file = File::create(path).unwrap();
        AnyTraceWriter::new(file, format, TraceKind::Approximated, 0).unwrap()
    }

    /// One step of a generated report history.
    #[derive(Debug, Clone)]
    enum Op {
        /// The next event: `dt` after the previous one, on `proc`.
        Event { proc: u16, dt: u64, kind: u8 },
        /// A flush barrier (what a checkpoint cut does to the report).
        Flush,
    }

    fn op() -> impl Strategy<Value = Op> {
        let event = || {
            (0u16..6, 0u64..90, 0u8..3).prop_map(|(proc, dt, kind)| Op::Event { proc, dt, kind })
        };
        prop_oneof![event(), event(), event(), event(), Just(Op::Flush)]
    }

    /// Writes `ops` through a synchronous writer and through the report
    /// stage; after every flush both files are equally long, and the
    /// finished files are identical.
    fn stage_matches_synchronous(ops: &[Op], format: TraceFormat) {
        let dir = scratch();
        let (sync_path, stage_path) = (dir.join("sync"), dir.join("stage"));
        let mut sync = writer(&sync_path, format);
        let mut stage = ReportStage::spawn(writer(&stage_path, format)).unwrap();
        let (mut time, mut seq) = (0u64, 0u64);
        for op in ops {
            match *op {
                Op::Event { proc, dt, kind } => {
                    time += dt;
                    let kind = match kind {
                        0 => EventKind::Statement {
                            stmt: StatementId(u32::from(proc)),
                        },
                        1 => EventKind::Advance {
                            var: SyncVarId(1),
                            tag: SyncTag(seq as i64),
                        },
                        _ => EventKind::AwaitEnd {
                            var: SyncVarId(1),
                            tag: SyncTag(seq as i64 - 1),
                        },
                    };
                    let e = Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind);
                    seq += 1;
                    sync.write_event(&e).unwrap();
                    stage.push(e).unwrap();
                }
                Op::Flush => {
                    sync.flush().unwrap();
                    stage.flush().unwrap();
                    assert_eq!(len(&stage_path), len(&sync_path), "after {seq} events");
                }
            }
        }
        sync.finish().unwrap();
        stage.finish().unwrap();
        assert!(std::fs::read(&stage_path).unwrap() == std::fs::read(&sync_path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any stream, cut into batches wherever flush barriers and the
        /// 512-event batch size put the boundaries, reaches the file as
        /// the synchronous writer writes it — in both containers, at
        /// every barrier and at the end.
        #[test]
        fn report_stage_writes_what_a_synchronous_writer_writes(
            ops in proptest::collection::vec(op(), 0..2_400),
        ) {
            stage_matches_synchronous(&ops, TraceFormat::Jsonl);
            stage_matches_synchronous(&ops, TraceFormat::Binary);
        }

        /// The whole pipeline over a seeded scenario trace, with
        /// `checkpoint_now` at arbitrary points, writes the report an
        /// analyzer feeding a synchronous writer writes, and every
        /// checkpoint's frontier is that writer's flushed length at the
        /// same cut.
        #[test]
        fn pipeline_report_matches_a_synchronous_analysis(
            seed in any::<u64>(),
            family in 0usize..3,
            cuts in proptest::collection::vec(0u64..400, 0..6),
        ) {
            let cfg = ScenarioConfig::small(ScenarioFamily::ALL[family]);
            let events = scenario_trace(seed, &cfg).events().to_vec();
            for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
                pipeline_matches_synchronous(&events, &cuts, format);
            }
        }
    }

    fn pipeline_matches_synchronous(events: &[Event], cuts: &[u64], format: TraceFormat) {
        let dir = scratch();
        let (sync_path, report) = (dir.join("sync"), dir.join("report"));
        let mut input =
            AnyTraceWriter::new(Vec::new(), format, TraceKind::Measured, events.len()).unwrap();
        events.iter().for_each(|e| input.write_event(e).unwrap());
        let input = input.finish().unwrap();

        // The reference: the analyzer's queue into a synchronous writer.
        let oh = OverheadSpec::alliant_default();
        let mut analyzer = EventBasedAnalyzer::new(&oh);
        let mut sync = AnyTraceWriter::new(
            File::create(&sync_path).unwrap(),
            format,
            TraceKind::Approximated,
            events.len(),
        )
        .unwrap();
        let mut frontiers = Vec::new();
        let write = |analyzer: &mut EventBasedAnalyzer, sync: &mut AnyTraceWriter<File>| {
            while let Some(o) = analyzer.next_output() {
                if let StreamOutput::Event(e) = o {
                    sync.write_event(&e).unwrap();
                }
            }
        };
        for (i, e) in events.iter().enumerate() {
            if cuts.contains(&(i as u64)) {
                sync.flush().unwrap();
                frontiers.push(len(&sync_path));
            }
            analyzer.push(*e).unwrap();
            write(&mut analyzer, &mut sync);
        }
        for o in analyzer.finish().unwrap().outputs {
            if let StreamOutput::Event(e) = o {
                sync.write_event(&e).unwrap();
            }
        }
        sync.finish().unwrap();

        let config = PipelineConfig {
            checkpoint: Some(CheckpointPolicy {
                path: dir.join("state.ckpt"),
                every: u64::MAX,
                compact_every: 2,
            }),
            ..PipelineConfig::new(oh)
        };
        let reader = AnyTraceReader::open(&input[..]).unwrap();
        let mut p = Pipeline::new(reader, config, Some((&report, format)), None).unwrap();
        let mut got = Vec::new();
        loop {
            if cuts.contains(&p.events_in()) && p.events_in() < events.len() as u64 {
                p.checkpoint_now().unwrap();
                got.push(len(&report));
            }
            if p.step().unwrap().is_none() {
                break;
            }
        }
        p.finish().unwrap();
        assert_eq!(got, frontiers, "checkpoint frontiers");
        assert!(std::fs::read(&report).unwrap() == std::fs::read(&sync_path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn doacross_input(format: TraceFormat) -> Vec<u8> {
        let cfg = ScenarioConfig {
            rounds: 400,
            ..ScenarioConfig::small(ScenarioFamily::Spinlock)
        };
        let trace = scenario_trace(7, &cfg);
        let mut w =
            AnyTraceWriter::new(Vec::new(), format, TraceKind::Measured, trace.len()).unwrap();
        trace
            .events()
            .iter()
            .for_each(|e| w.write_event(e).unwrap());
        w.finish().unwrap()
    }

    fn is_enospc(e: &PipelineError) -> bool {
        matches!(e, PipelineError::Report(IoError::Io(io)) if io.raw_os_error() == Some(28))
    }

    /// A report the disk refuses fails the run with the writer's own
    /// error, at the first checkpoint barrier after the refusal.
    #[test]
    fn writer_errors_surface_at_a_checkpoint_barrier() {
        let dir = scratch();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let config = PipelineConfig {
                checkpoint: Some(CheckpointPolicy {
                    path: dir.join("state.ckpt"),
                    every: 1_000_000,
                    compact_every: 2,
                }),
                ..PipelineConfig::new(OverheadSpec::alliant_default())
            };
            let input = doacross_input(format);
            let reader = AnyTraceReader::open(&input[..]).unwrap();
            let full = Path::new("/dev/full");
            let mut p = Pipeline::new(reader, config, Some((full, format)), None).unwrap();
            // Fewer events than one batch: nothing reaches the writer
            // before the barrier hands it over.
            for _ in 0..100 {
                p.step().expect("the error waits for a barrier").unwrap();
            }
            let err = p.checkpoint_now().expect_err("/dev/full refuses the flush");
            assert!(is_enospc(&err), "{format}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without a barrier the error comes back from `finish` on a run too
    /// short to fill a batch, and from the hand-off that meets it on a
    /// longer one — never later than the next hand-off.
    #[test]
    fn writer_errors_surface_at_finish_and_at_a_hand_off() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let short = ScenarioConfig::small(ScenarioFamily::Spinlock);
            let short = scenario_trace(7, &short);
            assert!(short.len() < BATCH_EVENTS);
            let mut w =
                AnyTraceWriter::new(Vec::new(), format, TraceKind::Measured, short.len()).unwrap();
            short
                .events()
                .iter()
                .for_each(|e| w.write_event(e).unwrap());
            let input = w.finish().unwrap();
            for (input, at_finish) in [(input, true), (doacross_input(format), false)] {
                let reader = AnyTraceReader::open(&input[..]).unwrap();
                let config = PipelineConfig::new(OverheadSpec::alliant_default());
                let full = Path::new("/dev/full");
                let mut p = Pipeline::new(reader, config, Some((full, format)), None).unwrap();
                let err = loop {
                    match p.step() {
                        Ok(Some(_)) => continue,
                        Ok(None) => {
                            assert!(at_finish, "{format}: the long run failed no hand-off");
                            break p.finish().expect_err("/dev/full refuses the report");
                        }
                        Err(e) => {
                            assert!(!at_finish, "{format}: a short run fails only at finish");
                            break e;
                        }
                    }
                };
                assert!(is_enospc(&err), "{format}: {err}");
            }
        }
    }

    /// Dropping a pipeline joins its report thread: what it drained is in
    /// the file when `drop` returns, and nothing arrives afterwards.
    #[test]
    fn a_dropped_pipeline_has_joined_its_writer() {
        let dir = scratch();
        let report = dir.join("report.jsonl");
        let input = doacross_input(TraceFormat::Jsonl);
        let reader = AnyTraceReader::open(&input[..]).unwrap();
        let config = PipelineConfig::new(OverheadSpec::alliant_default());
        let mut p =
            Pipeline::new(reader, config, Some((&report, TraceFormat::Jsonl)), None).unwrap();
        for _ in 0..3_000 {
            p.step().unwrap().unwrap();
        }
        let handed_over = p.events_out();
        drop(p);
        let after_drop = len(&report);
        let lines = std::fs::read_to_string(&report).unwrap().lines().count() as u64;
        assert_eq!(lines, 1 + handed_over, "header + every event handed over");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(len(&report), after_drop, "no write after drop returned");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `(resident(), resident_bytes())` every 1 000 events of a binary
    /// pipeline run over `events`.
    fn resident_samples(events: &[Event]) -> Vec<(usize, usize)> {
        let mut w =
            AnyTraceWriter::new(Vec::new(), TraceFormat::Binary, TraceKind::Measured, 0).unwrap();
        events.iter().for_each(|e| w.write_event(e).unwrap());
        let input = w.finish().unwrap();
        let reader = AnyTraceReader::open(&input[..]).unwrap();
        let config = PipelineConfig::new(OverheadSpec::alliant_default());
        let mut p = Pipeline::new(reader, config, None, None).unwrap();
        let mut samples = Vec::new();
        while p.step().unwrap().is_some() {
            if p.events_in() % 1_000 == 0 {
                samples.push((p.resident(), p.resident_bytes()));
            }
        }
        samples
    }

    /// The resident-bytes total sees the advance table: on a DOACROSS-like
    /// stream it grows with the iterations while `resident()` does not.
    /// And it sees what waits: when every `awaitE` precedes its advance,
    /// the ends waiting in the advance table's spill, their parked nodes
    /// and their watermark floors are all charged until the advances
    /// arrive.
    #[test]
    fn resident_bytes_counts_the_tables_that_grow() {
        let advance = |i: u64, t: u64, proc: u16| {
            Event::new(
                Time::from_nanos(t),
                ProcessorId(proc),
                i,
                EventKind::Advance {
                    var: SyncVarId(0),
                    tag: SyncTag(i as i64),
                },
            )
        };
        let advances: Vec<Event> = (0..4_000u64)
            .map(|i| advance(i, 10_000 * i, (i % 4) as u16))
            .collect();
        let samples = resident_samples(&advances);
        let (first, last) = (samples[0], samples[samples.len() - 1]);
        assert!(
            last.0 <= first.0 + 16,
            "resident events stay flat: {samples:?}"
        );
        assert!(
            last.1 >= first.1 + 3_000 * std::mem::size_of::<Option<u64>>(),
            "resident bytes follow the advance table: {samples:?}"
        );

        // 2 000 await pairs on four processors, then their 2 000 advances.
        let ends = 2_000u64;
        let mut events = Vec::new();
        for i in 0..ends {
            let (proc, tag) = (ProcessorId((i % 4) as u16), SyncTag(i as i64));
            let var = SyncVarId(0);
            let t = 10_000 * i;
            events.push(Event::new(
                Time::from_nanos(t),
                proc,
                2 * i,
                EventKind::AwaitBegin { var, tag },
            ));
            events.push(Event::new(
                Time::from_nanos(t + 5_000),
                proc,
                2 * i + 1,
                EventKind::AwaitEnd { var, tag },
            ));
        }
        events.extend((0..ends).map(|i| {
            let mut e = advance(i, 10_000 * (ends + i), 4);
            e.seq = 2 * ends + i;
            e
        }));
        let samples = resident_samples(&events);
        // Samples 0 and 3: 500 and 2 000 ends waiting.
        let (early, waiting) = (samples[0], samples[3]);
        assert_eq!(
            waiting.0 - early.0,
            2 * 1_500,
            "every later end is parked, its awaitB held in the buffer"
        );
        let per_end = std::mem::size_of::<Event>() + 2 * std::mem::size_of::<Time>();
        assert!(
            waiting.1 >= early.1 + 1_500 * per_end,
            "resident bytes follow the waiting ends: {samples:?}"
        );
    }
}
