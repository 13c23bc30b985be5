//! The one streaming analysis loop.
//!
//! A [`Pipeline`] owns every stage of a fault-tolerant §4.2.3 run:
//!
//! ```text
//! AnyTraceReader ─► ReorderBuffer? ─► RepeatExpander? ─► EventBasedAnalyzer
//!                                                              │
//!                        DeltaCheckpointWriter? ◄── counters ◄─┴─► report file
//! ```
//!
//! `ppa analyze --stream` and every `ppa serve` session are drivers of
//! this type: they open the input, call [`Pipeline::step`] until it
//! returns `None`, then [`Pipeline::finish`]. The stage order, the
//! checkpoint arithmetic and the resume protocol exist here and nowhere
//! else, so "served == streamed" and "resumed == uninterrupted" are
//! properties of one loop instead of an agreement between two.
//!
//! # The checkpoint cut
//!
//! A checkpoint is taken only *between* steps, when every event the
//! reader has delivered has been pushed through to the analyzer and all
//! output it made available has reached the report writer. At that cut
//! [`Pipeline::checkpoint_now`]
//!
//! 1. flushes the report and records its length as
//!    [`SinkState::bytes_flushed`] — the durable frontier;
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
//! other (expand first, `ppa slice --expand`).
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
    AnalyzerProbes, EventBasedAnalyzer, SpillCounts, StreamOutput, StreamStats,
};
use ppa_obs::{span_enter, Stage};
use ppa_trace::{
    AnyTraceReader, AnyTraceWriter, Event, IoError, OverheadSpec, ReorderBuffer, ReorderSnapshot,
    Span, StreamProbes, TraceFormat, TraceGap, TraceKind,
};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

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

/// The expander and the buffer it expands into.
struct Expand {
    expander: RepeatExpander,
    buf: Vec<Event>,
}

/// The report writer and the output counters.
struct Report {
    writer: Option<AnyTraceWriter<File>>,
    filter: Option<ReportFilter>,
    filtered: u64,
    sink: SinkState,
}

impl Report {
    fn take(&mut self, o: &StreamOutput) -> Result<(), PipelineError> {
        match o {
            StreamOutput::Event(e) => {
                // `last_time` reports the analysis, not the slice, so
                // it advances before filtering.
                self.sink.last_time = self.sink.last_time.max(e.time);
                if self.filter.as_ref().is_some_and(|keep| !keep(e)) {
                    self.filtered += 1;
                    return Ok(());
                }
                self.sink.events += 1;
                if let Some(w) = &mut self.writer {
                    w.write_event(e).map_err(PipelineError::Report)?;
                }
            }
            StreamOutput::Await { .. } => self.sink.awaits += 1,
            StreamOutput::Barrier { .. } => self.sink.barriers += 1,
            StreamOutput::Episode { .. } => self.sink.episodes += 1,
        }
        Ok(())
    }
}

/// The analyzer and the report it drains into.
struct Tail {
    analyzer: EventBasedAnalyzer,
    report: Report,
}

impl Tail {
    fn push(&mut self, event: Event) -> Result<(), PipelineError> {
        self.analyzer.push(event).map_err(PipelineError::Analysis)?;
        let report = &mut self.report;
        self.analyzer.drain_outputs(|o| report.take(o))
    }
}

/// Hands one totally-ordered event to the expander, if there is one,
/// and on to the analyzer.
fn feed(expand: &mut Option<Expand>, tail: &mut Tail, event: Event) -> Result<(), PipelineError> {
    let Some(x) = expand else {
        return tail.push(event);
    };
    x.buf.clear();
    x.expander
        .push(event, &mut x.buf)
        .map_err(PipelineError::Expand)?;
    for e in x.buf.drain(..) {
        tail.push(e)?;
    }
    Ok(())
}

/// The chain writer and its cadence counter.
struct Checkpointer {
    writer: DeltaCheckpointWriter,
    every: u64,
    since: u64,
}

/// A streaming event-based analysis, from an opened reader to a
/// finished report: reader → reorder buffer? → repeat expander? →
/// analyzer → report writer and counters → checkpoint chain?.
///
/// Drive it with [`step`](Self::step) until `None`, then
/// [`finish`](Self::finish). Checkpoints are cut only between steps
/// ([`checkpoint_now`](Self::checkpoint_now), which the cadence also
/// goes through), when everything read has been analyzed and written;
/// between steps a driver may do anything that leaves the stages alone.
/// A run that writes checkpoints or resumed from one has no expander
/// and refuses suppressed input. `crates/core/src/pipeline.rs` opens
/// with the full contract.
pub struct Pipeline<R: Read> {
    reader: AnyTraceReader<R>,
    reorder: Option<ReorderBuffer>,
    expand: Option<Expand>,
    tail: Tail,
    checkpointer: Option<Checkpointer>,
    report_path: Option<PathBuf>,
    lenient: bool,
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
        let expand = (config.checkpoint.is_none() && resume.is_none()).then(|| Expand {
            expander: RepeatExpander::new(),
            buf: Vec::new(),
        });
        let checkpointer = config.checkpoint.map(|p| Checkpointer {
            writer: DeltaCheckpointWriter::new(p.path, p.compact_every),
            every: p.every,
            since: 0,
        });
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
                    writer,
                    filter: config.report_filter,
                    filtered: 0,
                    sink,
                },
            },
            checkpointer,
            report_path: report.map(|(p, _)| p.to_path_buf()),
            lenient: config.lenient,
            events_in: 0,
            base_positions,
            prior_gaps,
            prior_lost,
        })
    }

    /// Consumes one input event: reads it, re-sorts it, expands it,
    /// analyzes it, writes what that made available, and checkpoints if
    /// the cadence came due. `None` at end of input.
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
        if let Some(w) = &mut report.writer {
            w.flush().map_err(PipelineError::Report)?;
        }
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
            x.buf.clear();
            x.expander.finish(&mut x.buf);
            for e in x.buf.drain(..) {
                self.tail.push(e)?;
            }
        }
        let _span = span_enter(Stage::AnalyzeEmit);
        let Tail {
            analyzer,
            mut report,
        } = self.tail;
        let stream_tail = if self.lenient {
            analyzer.finish_lenient()
        } else {
            analyzer.finish().map_err(PipelineError::Analysis)?
        };
        for o in &stream_tail.outputs {
            report.take(o)?;
        }
        if let Some(w) = report.writer.take() {
            w.finish().map_err(PipelineError::Report)?;
        }
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
            repeat_records: self.expand.as_ref().map_or(0, |x| x.expander.records()),
            repeat_expanded: self.expand.as_ref().map_or(0, |x| x.expander.expanded()),
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

    /// Approximated events written so far, resumed prefix included.
    pub fn events_out(&self) -> u64 {
        self.tail.report.sink.events
    }

    /// Events held in memory: the analyzer's resident state plus the
    /// reorder buffer's tail.
    pub fn resident(&self) -> usize {
        self.tail.analyzer.resident() + self.reorder.as_ref().map_or(0, ReorderBuffer::len)
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
