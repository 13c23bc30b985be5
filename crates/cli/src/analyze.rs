//! `ppa analyze`: event-based analysis of an on-disk trace — flag
//! parsing and one driver of [`ppa::analysis::Pipeline`] (what is left
//! here is the CLI's own: metrics, progress and self-trace export, the
//! stdout summary, and the sysexits mapping).
//!
//! The pipeline is fault-tolerant on demand: `--lenient` skips
//! undecodable input regions as typed gaps, `--reorder-window N`
//! re-sorts events arriving up to N sequence numbers late, and
//! `--checkpoint`/`--resume` make a killed run continue to a
//! byte-identical report.

use crate::args::{parse_args, MetricsFlags, PipelineFlags};
use crate::{print_summary, refuse_output_onto_input, CliError};
use ppa::analysis::{DEFAULT_CHECKPOINT_EVERY, DEFAULT_COMPACT_EVERY};
use ppa::trace::TraceFormat;
use std::fs::File;
use std::io::IsTerminal as _;
use std::path::Path;

pub(crate) const ANALYZE_USAGE: &str = "usage: ppa analyze <measured.{jsonl|bin}> \
     [--out approx] [--format bin|jsonl] [--overheads spec.json] [--slice EXPR] \
     [--decode-workers N] [--metrics-out snap.prom] [--metrics-format prom|json] \
     [--metrics-every SECS] [--progress[=force]] [--self-trace spans.{jsonl|bin|json}] \
     [--self-trace-format ppa|chrome] [--lenient] [--reorder-window N] \
     [--checkpoint state.ckpt [--checkpoint-every N] [--checkpoint-compact-every N]] \
     [--resume state.ckpt]";

/// On-disk shape of `--self-trace` output: a native ppa trace (the
/// dogfood loop — `ppa analyze`/`ppa check` run on it unmodified) or
/// Chrome trace-event JSON for chrome://tracing and Perfetto.
#[derive(Clone, Copy, PartialEq)]
enum SelfTraceFormat {
    Ppa,
    Chrome,
}

/// Drains `recorder` and writes the self-trace to `path` in `format`
/// (for the ppa format the container is chosen by extension: `.bin`
/// gets `ppa-trace-bin-v1`, anything else JSONL); returns the summary
/// line saying so.
fn export_self_trace(
    recorder: &ppa::obs::SpanRecorder,
    path: &str,
    format: SelfTraceFormat,
) -> Result<String, CliError> {
    use ppa::trace::{write_chrome_trace, write_self_trace};
    use std::io::BufWriter;

    let log = recorder.drain();
    let file = File::create(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let mut out = BufWriter::new(file);
    let summary = match format {
        SelfTraceFormat::Ppa => {
            let container = if path.ends_with(".bin") {
                TraceFormat::Binary
            } else {
                TraceFormat::Jsonl
            };
            write_self_trace(&mut out, &log, container)
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?
        }
        SelfTraceFormat::Chrome => {
            write_chrome_trace(&mut out, &log).map_err(|e| CliError::Io(format!("{path}: {e}")))?
        }
    };
    Ok(format!(
        "self-trace written to {path}: {} span(s), {} skipped, {} dropped",
        summary.spans, summary.skipped, summary.dropped
    ))
}

/// What `ppa analyze` was asked for, parsed and cross-checked.
#[derive(Default)]
pub(crate) struct AnalyzeOptions<'a> {
    input: &'a str,
    out_path: Option<&'a str>,
    /// The report's container; JSONL when not given.
    out_format: Option<TraceFormat>,
    pipeline: PipelineFlags<'a>,
    /// Write resumable checkpoints to this path while analyzing.
    checkpoint: Option<&'a str>,
    /// Resume from this checkpoint instead of starting fresh.
    resume: Option<&'a str>,
    slice_expr: Option<&'a str>,
    metrics: MetricsFlags<'a>,
    self_trace: Option<&'a str>,
    self_trace_format: Option<SelfTraceFormat>,
    progress: bool,
}

pub(crate) fn parse(args: &[String]) -> Result<AnalyzeOptions<'_>, CliError> {
    let mut o = AnalyzeOptions::default();
    let mut progress_forced = false;
    let [input] = parse_args(args, |flag, a| {
        match flag {
            // Every run is the streaming pipeline; the flag that used to
            // select it stays accepted so existing scripts keep working.
            "--stream" => {}
            "--progress" => o.progress = true,
            "--progress=force" => (o.progress, progress_forced) = (true, true),
            "--checkpoint" => o.checkpoint = Some(a.value()?),
            "--resume" => o.resume = Some(a.value()?),
            "--slice" => o.slice_expr = Some(a.value()?),
            "--out" => o.out_path = Some(a.value()?),
            "--format" => o.out_format = Some(a.choice(TraceFormat::parse, "`bin` or `jsonl`")?),
            "--self-trace" => o.self_trace = Some(a.value()?),
            "--self-trace-format" => {
                let parse = |v: &str| match v {
                    "ppa" => Some(SelfTraceFormat::Ppa),
                    "chrome" => Some(SelfTraceFormat::Chrome),
                    _ => None,
                };
                o.self_trace_format = Some(a.choice(parse, "`ppa` or `chrome`")?);
            }
            _ => return Ok(o.pipeline.take(flag, a)? || o.metrics.take(flag, a)?),
        }
        Ok(true)
    })?;
    o.input = input.ok_or_else(|| CliError::Usage(ANALYZE_USAGE.into()))?;
    if o.pipeline.metrics_every.is_some() && o.metrics.out.is_none() {
        return Err(CliError::Usage(
            "--metrics-every only applies with --metrics-out".into(),
        ));
    }
    if o.self_trace_format.is_some() && o.self_trace.is_none() {
        return Err(CliError::Usage(
            "--self-trace-format only applies with --self-trace".into(),
        ));
    }
    if (o.pipeline.checkpoint_every.is_some() || o.pipeline.checkpoint_compact_every.is_some())
        && o.checkpoint.is_none()
    {
        return Err(CliError::Usage(
            "--checkpoint-every and --checkpoint-compact-every only apply with --checkpoint".into(),
        ));
    }
    if o.checkpoint.is_some() || o.resume.is_some() {
        // A checkpoint records a durable byte offset into the report and
        // resume truncates + appends there; only the line-oriented JSONL
        // format has that property (a binary writer holds a partly
        // accumulated block in memory that no flush can frame).
        if o.out_path.is_none() {
            return Err(CliError::Usage(
                "--checkpoint/--resume require --out (the report is what gets resumed)".into(),
            ));
        }
        if o.out_format.is_some_and(|f| f != TraceFormat::Jsonl) {
            return Err(CliError::Usage(
                "--checkpoint/--resume require `--format jsonl` output".into(),
            ));
        }
    }
    // A `--resume` checkpoint records the durable frontier of an
    // *unsliced* report (and vice versa); replaying the tail under a
    // different predicate would splice two incompatible reports.
    if o.slice_expr.is_some() && o.resume.is_some() {
        return Err(CliError::Usage(
            "--slice contradicts --resume: the checkpointed report was written \
             under a different (or no) slice expression"
                .into(),
        ));
    }
    // The ticker is for humans watching a terminal; when stderr is a
    // pipe (CI logs, scripted captures) `--progress` stays silent so it
    // cannot pollute machine-read output. `--progress=force` overrides
    // the detection for the rare "tee the ticker to a file" case.
    o.progress &= progress_forced || std::io::stderr().is_terminal();
    Ok(o)
}

pub(crate) fn run(args: &[String]) -> Result<(), CliError> {
    let o = parse(args)?;
    refuse_output_onto_input(
        o.input,
        &[
            ("--out", o.out_path),
            ("--checkpoint", o.checkpoint),
            ("--self-trace", o.self_trace),
            ("--metrics-out", o.metrics.out),
        ],
    )?;
    let slice_spec = o
        .slice_expr
        .map(ppa::slice::SliceSpec::parse)
        .transpose()
        .map_err(|e| CliError::Usage(e.to_string()))?
        .filter(|spec| !spec.is_empty());
    let overheads = o.pipeline.overheads()?;
    analyze(&o, overheads, slice_spec)
}

/// Maps checkpoint failures onto the sysexits scheme: a missing
/// checkpoint file is missing input (66), a torn or corrupted one is bad
/// data (65), anything else is I/O (74).
fn checkpoint_error(path: &str, e: ppa::analysis::CheckpointError) -> CliError {
    use ppa::analysis::CheckpointError;
    match e {
        CheckpointError::Io(err) if err.kind() == std::io::ErrorKind::NotFound => {
            CliError::NoInput(format!("{path}: {err}"))
        }
        CheckpointError::Io(err) => CliError::Io(format!("{path}: {err}")),
        CheckpointError::Corrupt(m) => CliError::Data(format!("{path}: corrupt checkpoint: {m}")),
        e @ CheckpointError::FutureVersion { .. } => CliError::Data(format!("{path}: {e}")),
    }
}

/// Maps a pipeline failure onto the sysexits scheme, naming the file
/// it concerns: undecodable or infeasible input is bad data (65), a
/// report that cannot be resumed into is missing input (66) or — when
/// it is not the file the checkpoint describes — bad data, and report
/// I/O is 74.
fn pipeline_error(e: ppa::analysis::PipelineError, o: &AnalyzeOptions) -> CliError {
    use ppa::analysis::{AnalysisError, PipelineError};
    use ppa::trace::TraceError;
    // Report and checkpoint errors only arise with the flag that names
    // the file.
    let out = o.out_path.unwrap_or_default();
    let ckpt = o.checkpoint.unwrap_or_default();
    match e {
        PipelineError::Input(e) => CliError::from(e).prefixed(o.input),
        PipelineError::Expand(e) => CliError::Data(e.to_string()).prefixed(o.input),
        // The analyzer consumes its input in order and says so; the
        // remedy is a flag of this command, so it is named here.
        PipelineError::Analysis(e @ AnalysisError::Trace(TraceError::NotTotallyOrdered { .. })) => {
            CliError::Data(format!(
                "{e}; an unsorted trace needs --reorder-window N \
             (N = how many sequence numbers late an event may arrive)"
            ))
            .prefixed(o.input)
        }
        PipelineError::Analysis(e) => CliError::from(e).prefixed(o.input),
        PipelineError::ResumeOpen(e) => {
            CliError::NoInput(format!("{out}: cannot resume into: {e}"))
        }
        e @ PipelineError::ReportShort { .. } => CliError::Data(format!("{out}: {e}")),
        PipelineError::Report(e) => CliError::Io(format!("{out}: {e}")),
        PipelineError::Checkpoint(e) => checkpoint_error(ckpt, e),
    }
}

/// Bounded-memory analysis: drives one [`ppa::analysis::Pipeline`] over
/// the input (format auto-detected; binary input decodes
/// block-parallel), optionally instrumented with `ppa::obs` probes and
/// a stderr ticker. `--lenient`, `--reorder-window` and
/// `--checkpoint`/`--resume` configure the pipeline; everything they
/// do happens there.
fn analyze(
    o: &AnalyzeOptions,
    overheads: ppa::trace::OverheadSpec,
    slice_spec: Option<ppa::slice::SliceSpec>,
) -> Result<(), CliError> {
    use ppa::analysis::{
        read_checkpoint, AnalyzerProbes, CheckpointPolicy, Pipeline, PipelineConfig, ReportFilter,
    };
    use ppa::obs::{
        calibrate_self_overhead, span_enter, Registry, SpanRecorder, Stage, StageCounters,
        STAGE_COUNT,
    };
    use ppa::trace::{AnyTraceReader, StreamProbes};
    use std::io::BufReader;
    use std::time::{Duration, Instant};

    let (input, flags) = (o.input, &o.pipeline);
    let sliced = slice_spec.is_some();
    let registry = Registry::new();
    let want_metrics = o.metrics.out.is_some();

    // The span recorder watches the pipeline run itself. Installed
    // globally (before the reader spawns decode workers) so codec
    // threads lazily bind to it; drained at the end into the
    // `--self-trace` export and the `ppa_stage_ns_total` counters.
    let want_spans = want_metrics || o.self_trace.is_some();
    let recorder = want_spans.then(SpanRecorder::new);
    let _recorder_installed = recorder.as_ref().map(|r| r.install_global());
    let stage_counters = want_metrics.then(|| StageCounters::register(&registry));
    // Stage totals already pushed to the registry, so `--metrics-every`
    // snapshots can re-export monotone counters mid-run.
    let mut stage_published = [0u64; STAGE_COUNT];
    let publish_stages = |published: &mut [u64; STAGE_COUNT]| {
        if let (Some(rec), Some(counters)) = (&recorder, &stage_counters) {
            let totals = rec.stage_totals();
            let mut delta = [0u64; STAGE_COUNT];
            for (d, (t, p)) in delta.iter_mut().zip(totals.iter().zip(published.iter())) {
                *d = t - p;
            }
            counters.add_totals(&delta);
            *published = totals;
        }
    };
    let (read_probes, write_probes, analyzer_probes) = if want_metrics {
        (
            StreamProbes::register(&registry, "read"),
            StreamProbes::register(&registry, "write"),
            AnalyzerProbes::register(&registry),
        )
    } else {
        (
            StreamProbes::noop(),
            StreamProbes::noop(),
            AnalyzerProbes::noop(),
        )
    };
    let checkpoints_written = if want_metrics && o.checkpoint.is_some() {
        registry.counter(
            "ppa_checkpoints_written_total",
            "Resumable checkpoints written by this analysis run.",
        )
    } else {
        ppa::obs::Counter::default()
    };

    let resumed = match o.resume {
        Some(p) => Some(read_checkpoint(Path::new(p)).map_err(|e| checkpoint_error(p, e))?),
        None => None,
    };

    let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
    let workers = flags
        .decode_workers
        .unwrap_or_else(ppa::trace::default_decode_workers);
    if want_metrics {
        registry
            .gauge(
                "ppa_decode_workers",
                "Decode worker threads (0 = decode on the driver thread).",
            )
            .set(workers as f64);
    }
    let reader =
        AnyTraceReader::open_parallel_with_probes(BufReader::new(file), workers, read_probes)
            .map_err(|e| CliError::from(e).prefixed(input))?;
    let expected = reader.expected_events();

    let config = PipelineConfig {
        overheads,
        lenient: flags.lenient,
        reorder_window: flags.reorder_window,
        checkpoint: o.checkpoint.map(|path| CheckpointPolicy {
            path: path.into(),
            every: flags.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            compact_every: flags
                .checkpoint_compact_every
                .unwrap_or(DEFAULT_COMPACT_EVERY),
        }),
        analyzer_probes,
        report_probes: write_probes,
        report_filter: slice_spec
            .map(|spec| Box::new(move |e: &ppa::trace::Event| spec.matches(e)) as ReportFilter),
    };
    let out_format = o.out_format.unwrap_or(TraceFormat::Jsonl);
    let report = o.out_path.map(|p| (Path::new(p), out_format));
    let fail = |e| pipeline_error(e, o);
    let mut pipeline = Pipeline::new(reader, config, report, resumed).map_err(fail)?;

    // Per-source-processor event shares for the per-shard counters:
    // `ppa_shard_events_total{shard="p<i>"}` / `ppa_shard_throughput_eps`.
    let mut per_proc: Vec<u64> = Vec::new();
    let began = Instant::now();
    let mut last_tick = began;
    let mut last_export = began;

    // The whole run is one root span; per-event spans would
    // perturb the pipeline they measure (the paper's uncertainty
    // principle), so push work is attributed in 4096-event chunks
    // instead — the same granularity as the progress ticker.
    let mut run_span = Some(span_enter(Stage::Run));
    let mut chunk_span: Option<ppa::obs::SpanGuard> = None;

    loop {
        let pushed = pipeline.events_in();
        if want_spans && pushed.is_multiple_of(4096) {
            // Close the old chunk before opening the new one so chunks
            // stay siblings under the run span rather than nesting.
            drop(chunk_span.take());
            let mut g = span_enter(Stage::AnalyzePush);
            g.attr_seq(pushed);
            chunk_span = Some(g);
        }
        let Some(step) = pipeline.step().map_err(fail)? else {
            break;
        };
        let pushed = pushed + 1;
        if want_metrics {
            let pi = step.event.proc.index();
            if pi >= per_proc.len() {
                per_proc.resize(pi + 1, 0);
            }
            per_proc[pi] += 1;
        }
        if step.checkpointed {
            checkpoints_written.inc();
        }
        if let (Some(every), Some(path)) = (flags.metrics_every, o.metrics.out) {
            if pushed.is_multiple_of(4096) && last_export.elapsed() >= every {
                publish_stages(&mut stage_published);
                o.metrics.export(&registry, path)?;
                last_export = Instant::now();
            }
        }
        if o.progress
            && pushed.is_multiple_of(4096)
            && last_tick.elapsed() >= Duration::from_millis(250)
        {
            eprintln!(
                "progress: {pushed}/{expected} events in, {} out, watermark lag {}",
                pipeline.events_out(),
                pipeline.watermark_lag()
            );
            last_tick = Instant::now();
        }
    }
    drop(chunk_span);
    let pushed = pipeline.events_in();
    let run = pipeline.finish().map_err(fail)?;
    // The root span ends here so its duration lands in the drained log
    // and the stage totals below.
    drop(run_span.take());
    if o.progress {
        eprintln!(
            "progress: done ({pushed} events in, {} out)",
            run.sink.events
        );
    }

    let mut lines = Vec::new();
    if let Some(path) = o.metrics.out {
        if let Some(r) = &run.reorder {
            registry
                .counter(
                    "ppa_reorder_resorted_total",
                    "Late events re-sorted into place by the reorder buffer.",
                )
                .add(r.reordered);
            registry
                .counter(
                    "ppa_reorder_rejected_total",
                    "Events rejected for arriving beyond the reorder window.",
                )
                .add(r.rejected);
        }
        let elapsed = began.elapsed().as_secs_f64();
        for (p, &n) in per_proc.iter().enumerate() {
            let shard = format!("p{p}");
            registry
                .counter_with(
                    "ppa_shard_events_total",
                    &[("shard", &shard)],
                    "Measured events read per source processor.",
                )
                .add(n);
            registry
                .gauge_with(
                    "ppa_shard_throughput_eps",
                    &[("shard", &shard)],
                    "Events per second processed for this source processor.",
                )
                .set(if elapsed > 0.0 {
                    n as f64 / elapsed
                } else {
                    0.0
                });
        }
        calibrate_self_overhead().export(&registry);
        publish_stages(&mut stage_published);
        o.metrics.export(&registry, path)?;
        lines.push(format!("metrics snapshot written to {path}"));
    }

    if let (Some(path), Some(rec)) = (o.self_trace, &recorder) {
        let format = o.self_trace_format.unwrap_or(SelfTraceFormat::Ppa);
        lines.push(export_self_trace(rec, path, format)?);
    }

    lines.push(format!(
        "analyzed {} measured events (streaming): {} approximated events, \
         {} awaits, {} barrier passages, {} sync episodes",
        run.stats.events, run.sink.events, run.sink.awaits, run.sink.barriers, run.sink.episodes
    ));
    if run.repeat_records > 0 {
        lines.push(format!(
            "expanded {} repeat record(s) into {} suppressed event(s)",
            run.repeat_records, run.repeat_expanded
        ));
    }
    if sliced {
        lines.push(format!(
            "report scoped to slice: {} event(s) emitted, {} filtered out",
            run.sink.events, run.filtered
        ));
    }
    lines.push(format!("final approximated time: {}", run.sink.last_time));
    let mut resident = format!(
        "peak resident state: {} events (parked {}, buffered {})",
        run.stats.peak_resident, run.stats.peak_parked, run.stats.peak_buffered
    );
    // Non-zero only when the input left the analyzer's order-aware
    // structures for their general paths; large counts explain a slow run.
    for (n, what) in [
        (run.spills.emit, "emission"),
        (run.spills.advance, "advance"),
    ] {
        if n > 0 {
            resident.push_str(&format!(", {n} {what} spill(s)"));
        }
    }
    lines.push(resident);
    if run.stats.clamped > 0 {
        lines.push(format!(
            "clamped approximations: {} (overhead exceeded the measured \
             inter-event delta; see ppa_core_clamped_approx_total)",
            run.stats.clamped
        ));
    }
    if !run.gaps.is_empty() {
        lines.push(format!(
            "decode gaps: {} gap(s), {} event(s) lost",
            run.gaps.len(),
            run.events_lost
        ));
        lines.extend(run.gaps.iter().map(|g| format!("  {g}")));
    }
    if run.unresolved > 0 {
        lines.push(format!(
            "unresolved: {} event(s) parked at end of stream (dependencies \
             lost to decode gaps); their approximated times were dropped",
            run.unresolved
        ));
    }
    if let Some(r) = &run.reorder {
        lines.push(format!(
            "reorder buffer (window {}): {} event(s) re-sorted, {} rejected",
            r.window, r.reordered, r.rejected
        ));
    }
    print_summary(&lines)
}
