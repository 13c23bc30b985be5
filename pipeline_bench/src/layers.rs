//! The traced replay: the harness itself calls each layer's public
//! functions over the workload's own bytes, one stage at a time, with a
//! span around every call and the counts taken at that call.
//!
//! `replay` walks the stages on a workload's path (what its `ppa`
//! operations do, materialising a `Vec<Event>` between stages, so it
//! slightly over-states the fused pipeline). `probe_missing` then runs
//! every layer that is *not* on that path over the workload's primary
//! fixture, so a traced run reports a measured number for every layer
//! on every workload's data shape; those spans sit under `offpath` and
//! never enter the attribution.

use crate::child::Daemon;
use crate::fixtures;
use crate::spans::Recorder;
use crate::workloads::{middle_third, Prepared, SendSpan, Workload};
use ppa::analysis::{
    expand_events, CheckpointParts, DeltaCheckpointWriter, EventBasedAnalyzer, SinkState,
    StreamOutput, DEFAULT_COMPACT_EVERY,
};
use ppa::slice::{slice_stream, SliceOptions, SliceProbes, SliceSpec};
use ppa::trace::{
    crc32, AnyTraceReader, AnyTraceWriter, Event, OverheadSpec, ReorderBuffer, TraceFormat,
    TraceKind,
};
use std::hint::black_box;
use std::path::Path;

pub const JSONL_DECODE: &str = "trace.jsonl_decode";
pub const JSONL_ENCODE: &str = "trace.jsonl_encode";
pub const BIN_DECODE: &str = "trace.bin_decode";
pub const BIN_DECODE_PAR: &str = "trace.bin_decode_par";
pub const BIN_ENCODE: &str = "trace.bin_encode";
pub const CRC32: &str = "trace.crc32";
pub const REORDER: &str = "trace.reorder";
pub const ANALYZE: &str = "core.analyze";
pub const CHECKPOINT: &str = "core.checkpoint";
pub const EXPAND: &str = "core.expand";
pub const FILTER: &str = "slice.filter";
pub const SUPPRESS: &str = "slice.suppress";
pub const SEND: &str = "server.send";
pub const GENERATE: &str = "sim.generate";

/// The layers whose `busy_s` add up to a workload's wall time.
pub fn path_of(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::JsonlDoacross => &[JSONL_DECODE, ANALYZE, JSONL_ENCODE],
        Workload::BinDoacross | Workload::BinEpisodes => &[BIN_DECODE_PAR, ANALYZE, BIN_ENCODE],
        // One of the two concurrent streams; they share no state and
        // the host has a core for each.
        Workload::ServeCkpt => &[BIN_DECODE_PAR, REORDER, ANALYZE, CHECKPOINT, JSONL_ENCODE],
        Workload::SliceQuery => &[FILTER, BIN_DECODE_PAR, SUPPRESS, EXPAND, BIN_ENCODE],
    }
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn decode(rec: &mut Recorder, name: &'static str, bytes: &[u8], workers: usize) -> Vec<Event> {
    let span = rec.enter(name);
    let reader = if workers == 0 {
        AnyTraceReader::open(bytes)
    } else {
        AnyTraceReader::open_parallel(bytes, workers)
    };
    let events: Vec<Event> = reader
        .and_then(|r| r.collect())
        .expect("fixtures decode cleanly");
    rec.exit(
        span,
        &[
            ("events", events.len() as f64),
            ("bytes", bytes.len() as f64),
        ],
    );
    events
}

/// Binary decode both ways: serially (the layer's CPU cost) and with
/// one worker per core, which is what `ppa` does by default and what
/// the path counts.
fn bin_decode(rec: &mut Recorder, bytes: &[u8]) -> Vec<Event> {
    black_box(decode(rec, BIN_DECODE, bytes, 0));
    decode(rec, BIN_DECODE_PAR, bytes, workers())
}

fn encode(rec: &mut Recorder, format: TraceFormat, kind: TraceKind, events: &[Event]) -> Vec<u8> {
    let span = rec.enter(match format {
        TraceFormat::Jsonl => JSONL_ENCODE,
        TraceFormat::Binary => BIN_ENCODE,
    });
    let bytes = fixtures::encode(events, format, kind).expect("encoding to memory succeeds");
    rec.exit(
        span,
        &[
            ("events", events.len() as f64),
            ("bytes", bytes.len() as f64),
        ],
    );
    bytes
}

fn crc(rec: &mut Recorder, bytes: &[u8]) {
    let span = rec.enter(CRC32);
    black_box(crc32(black_box(bytes)));
    rec.exit(span, &[("bytes", bytes.len() as f64)]);
}

fn reorder(rec: &mut Recorder, shuffled: &[Event]) -> Vec<Event> {
    let span = rec.enter(REORDER);
    let mut buf = ReorderBuffer::new(64);
    let mut out = Vec::with_capacity(shuffled.len());
    for &e in shuffled {
        buf.push(e);
        while let Some(e) = buf.pop_ready() {
            out.push(e);
        }
    }
    while let Some(e) = buf.pop_flush() {
        out.push(e);
    }
    rec.exit(
        span,
        &[
            ("events", shuffled.len() as f64),
            ("resorted", buf.reordered() as f64),
            ("rejected", buf.rejected() as f64),
        ],
    );
    out
}

/// `EventBasedAnalyzer` push / next_output / finish under a span named
/// `outer`, optionally taking a delta checkpoint every `every` events
/// under child `core.checkpoint` spans (so the analyzer's self time
/// excludes them). Returns the approximated events.
fn analyze(
    rec: &mut Recorder,
    outer: &'static str,
    events: &[Event],
    checkpoint: Option<(u64, &Path)>,
) -> Vec<Event> {
    let span = rec.enter(outer);
    let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
    let mut writer = checkpoint.map(|(_, path)| {
        std::fs::remove_file(path).ok();
        DeltaCheckpointWriter::new(path, DEFAULT_COMPACT_EVERY)
    });
    let mut report = Vec::with_capacity(events.len());
    let mut file_len = 0u64;
    for (i, &e) in events.iter().enumerate() {
        analyzer.push(e).expect("fixtures are ordered traces");
        while let Some(o) = analyzer.next_output() {
            if let StreamOutput::Event(e) = o {
                report.push(e);
            }
        }
        let (Some((every, path)), Some(w)) = (checkpoint, &mut writer) else {
            continue;
        };
        if (i as u64 + 1).is_multiple_of(every) {
            let ck = rec.enter(CHECKPOINT);
            let parts = CheckpointParts {
                positions_seen: i as u64 + 1,
                gaps: &[],
                events_lost: 0,
                reorder: None,
                sink: SinkState {
                    events: report.len() as u64,
                    ..SinkState::default()
                },
            };
            w.checkpoint(&mut analyzer, parts)
                .expect("checkpoint to the work dir succeeds");
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            // A compaction replaces the file; a delta appends to it.
            let written = if len >= file_len { len - file_len } else { len };
            file_len = len;
            rec.exit(ck, &[("count", 1.0), ("bytes", written as f64)]);
        }
    }
    let tail = analyzer.finish().expect("fixtures are feasible traces");
    report.extend(tail.outputs.iter().filter_map(|o| match o {
        StreamOutput::Event(e) => Some(*e),
        _ => None,
    }));
    rec.exit(
        span,
        &[
            ("events_in", events.len() as f64),
            ("events_out", report.len() as f64),
            ("peak_resident", tail.stats.peak_resident as f64),
        ],
    );
    report
}

fn expand(rec: &mut Recorder, suppressed: &[Event]) -> Vec<Event> {
    let span = rec.enter(EXPAND);
    let events = expand_events(suppressed).expect("suppressed fixtures expand");
    rec.exit(span, &[("events_out", events.len() as f64)]);
    events
}

/// `slice_stream` from binary bytes into a binary writer, as
/// `ppa slice` runs it: parallel reader, skip index engaged, decode and
/// encode fused into the call. With `suppress` the span is
/// `slice.suppress` and the counts are the suppressor's.
fn slice(rec: &mut Recorder, bytes: &[u8], expr: &str, suppress: bool) {
    let options = SliceOptions {
        spec: SliceSpec::parse(expr).expect("the harness writes valid slice expressions"),
        suppress,
        use_skip_index: true,
    };
    let span = rec.enter(if suppress { SUPPRESS } else { FILTER });
    let mut reader =
        AnyTraceReader::open_parallel(bytes, workers()).expect("fixtures decode cleanly");
    let mut writer = AnyTraceWriter::new(Vec::new(), TraceFormat::Binary, reader.kind(), 0)
        .expect("encoding to memory succeeds");
    let stats = slice_stream(&mut reader, &options, &SliceProbes::noop(), |e| {
        writer.write_event(e)
    })
    .expect("fixtures slice cleanly");
    black_box(writer.finish().expect("encoding to memory succeeds"));
    let counts = if suppress {
        [
            ("events_in", stats.expected as f64),
            ("records_out", stats.emitted as f64),
            ("suppressed", stats.suppressed as f64),
        ]
    } else {
        [
            ("events_in", stats.expected as f64),
            ("events_out", stats.emitted as f64),
            ("blocks_skipped", stats.skipped_blocks as f64),
        ]
    };
    rec.exit(span, &counts);
}

/// Adds the `server.send` spans a run's sending threads timed.
pub fn add_sends(rec: &mut Recorder, sends: &[SendSpan]) {
    for s in sends {
        let (start, end) = (rec.ns_at(s.start), rec.ns_at(s.end));
        rec.add(
            SEND,
            start,
            end,
            &[("frames", s.frames), ("bytes", s.bytes)],
        );
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("fixtures stay readable during the run")
}

/// Replays the workload's own pipeline, stage by stage over the same
/// input bytes its `ppa` operations read.
pub fn replay(rec: &mut Recorder, p: &Prepared) {
    use TraceFormat::{Binary, Jsonl};
    use TraceKind::{Approximated, Measured};
    rec.next_run();
    match p.workload {
        Workload::JsonlDoacross => {
            let events = decode(rec, JSONL_DECODE, &read(&p.fixtures[0].path), 0);
            let report = analyze(rec, ANALYZE, &events, None);
            black_box(encode(rec, Jsonl, Approximated, &report));
        }
        Workload::BinDoacross | Workload::BinEpisodes => {
            for op in 0..p.ops.len() {
                let events = bin_decode(rec, &read(&p.fixtures[op].path));
                let report = analyze(rec, ANALYZE, &events, None);
                black_box(encode(rec, Binary, Approximated, &report));
            }
        }
        Workload::ServeCkpt => {
            let shuffled = bin_decode(rec, &read(&p.fixtures[0].path));
            let ordered = reorder(rec, &shuffled);
            let ckpt = p.dir.join("replay.ckpt");
            let report = analyze(
                rec,
                ANALYZE,
                &ordered,
                Some((p.checkpoint_every, ckpt.as_path())),
            );
            black_box(encode(rec, Jsonl, Approximated, &report));
        }
        Workload::SliceQuery => {
            let big = read(&p.fixtures[0].path);
            let window = middle_third(&p.fixtures[0].events);
            slice(rec, &big, &format!("window={window} procs=0..3"), false);
            slice(rec, &big, "kind=sync", false);
            slice(rec, &read(&p.fixtures[1].path), "", true);
            let records = bin_decode(rec, &read(&p.fixtures[2].path));
            let expanded = expand(rec, &records);
            black_box(encode(rec, Binary, Measured, &expanded));
        }
    }
}

/// Runs every layer `replay` left unmeasured over the workload's
/// primary fixture. Returns the probe daemon's CPU seconds when
/// `server.send` was among them.
pub fn probe_missing(rec: &mut Recorder, p: &Prepared) -> Result<Option<f64>, String> {
    use TraceFormat::{Binary, Jsonl};
    rec.next_run();
    let events = p.primary_events();
    // A probed encode also feeds the decode probe of its format.
    let encoded = |rec: &mut Recorder, name, format| -> Result<Vec<u8>, String> {
        if rec.missing(name) {
            Ok(encode(rec, format, TraceKind::Measured, events))
        } else {
            fixtures::encode(events, format, TraceKind::Measured).map_err(|e| e.to_string())
        }
    };
    let bin = encoded(rec, BIN_ENCODE, Binary)?;
    if rec.missing(JSONL_DECODE) {
        let jsonl = encoded(rec, JSONL_ENCODE, Jsonl)?;
        black_box(decode(rec, JSONL_DECODE, &jsonl, 0));
    }
    if rec.missing(BIN_DECODE) {
        black_box(bin_decode(rec, &bin));
    }
    if rec.missing(CRC32) {
        crc(rec, &bin);
    }
    if rec.missing(REORDER) {
        black_box(reorder(rec, &fixtures::shuffle_blocks(events, 0)));
    }
    if rec.missing(ANALYZE) {
        black_box(analyze(rec, ANALYZE, events, None));
    }
    if rec.missing(CHECKPOINT) {
        let ckpt = p.dir.join("probe.ckpt");
        let every = p.checkpoint_every;
        black_box(analyze(
            rec,
            "offpath.analyze",
            events,
            Some((every, &ckpt)),
        ));
    }
    if rec.missing(SUPPRESS) {
        slice(rec, &bin, "", true);
    }
    if rec.missing(EXPAND) {
        // Plain events pass through the expander one for one.
        black_box(expand(rec, events));
    }
    if rec.missing(FILTER) {
        slice(
            rec,
            &bin,
            &format!("window={}", middle_third(events)),
            false,
        );
    }
    if !rec.missing(SEND) {
        return Ok(None);
    }
    let dir = p.dir.join("probe");
    let daemon = Daemon::start(&p.ppa, &dir, p.checkpoint_every)
        .map_err(|e| format!("probe ppa serve: {e}"))?;
    let trace = dir.join("probe.bin");
    std::fs::write(&trace, &bin).map_err(|e| format!("probe.bin: {e}"))?;
    let send = crate::workloads::send_one(&daemon, "probe", "s0", &trace);
    let usage = daemon
        .stop()
        .map_err(|e| format!("stop probe ppa serve: {e}"))?;
    let (done, span) = send;
    if !done || !usage.ok {
        return Err("probe stream was refused or the probe daemon failed".into());
    }
    add_sends(rec, &[span]);
    Ok(Some(usage.cpu_s))
}
