//! Checkpoint overhead: wall-clock cost of `--checkpoint` at the default
//! cadence (one snapshot per ~1M events consumed), measured against the
//! pipeline it rides on — streaming JSONL decode, incremental analysis,
//! and JSONL report encode, exactly the `ppa analyze --stream --out`
//! shape that `--checkpoint` requires.
//!
//! Each checkpoint pays for a full-state snapshot (the analyzer's live
//! synchronization history, which grows with the trace), its binary
//! serialization, a CRC, and an fsync'd atomic file replace. The
//! acceptance bar is that this costs < 5% of pipeline wall time at the
//! default cadence. The analyzer-only overhead (no codec work in the
//! denominator) is also reported for transparency — it is much higher,
//! which is why the cadence default is coarse.
//!
//! Alongside the criterion timings, the bench prints a summary and
//! records the headline numbers into `BENCH_checkpoint.json` at the
//! repository root. Set `PPA_CHECKPOINT_BENCH_ITERS` to scale the
//! fixture (e.g. for CI smoke runs) and `PPA_CHECKPOINT_BENCH_EVERY` to
//! vary the cadence.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ppa::analysis::{CheckpointParts, DeltaCheckpointWriter, SinkState};
use ppa::prelude::*;
use ppa::trace::{AnyTraceReader, AnyTraceWriter, TraceFormat};
use std::time::Instant;

/// The CLI's default checkpoint cadence, in events consumed.
const DEFAULT_EVERY: u64 = 1_048_576;

/// An 8-processor synthetic workload spanning a few default cadences
/// (~2.6M events at the default iteration count).
fn fixture() -> (Trace, OverheadSpec) {
    let iters: u64 = std::env::var("PPA_CHECKPOINT_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(375_000);
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("checkpoint-overhead");
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
        .expect("valid workload");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("valid program");
    (measured.trace, cfg.overheads)
}

/// Paired comparison: times `base` and `with` back to back, five pairs
/// after a warm-up of each, and returns the median pair as
/// `(base_secs, with_secs)`. Pairing and taking the median pair (ranked
/// by the overhead ratio) makes the estimate robust against the
/// coarse-grained wall-clock noise of shared hosts, which dwarfs a
/// few-percent effect when the two sides are timed in separate batches.
fn paired<R>(mut base: impl FnMut() -> R, mut with: impl FnMut() -> R) -> (f64, f64) {
    std::hint::black_box(base());
    std::hint::black_box(with());
    let mut pairs = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(base());
        let b = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(with());
        let w = t.elapsed().as_secs_f64();
        pairs.push((b, w));
    }
    pairs.sort_by(|x, y| (x.1 / x.0).total_cmp(&(y.1 / y.0)));
    pairs[pairs.len() / 2]
}

/// The `ppa analyze --stream --out report.jsonl` pipeline over in-memory
/// buffers: JSONL decode → incremental analysis → JSONL report encode,
/// optionally taking a full checkpoint (snapshot + serialize + CRC +
/// fsync'd atomic replace) every `every` events consumed. Returns the
/// encoded report size and the number of checkpoints written.
fn pipeline(
    jsonl: &[u8],
    oh: &OverheadSpec,
    checkpoint: Option<(u64, &std::path::Path)>,
) -> (usize, u64) {
    let mut reader = AnyTraceReader::open(jsonl).expect("open jsonl input");
    let mut writer = AnyTraceWriter::new(
        Vec::<u8>::with_capacity(jsonl.len()),
        TraceFormat::Jsonl,
        TraceKind::Approximated,
        0,
    )
    .expect("open jsonl report");
    let mut analyzer = EventBasedAnalyzer::new(oh);
    let mut events_out = 0u64;
    let mut since = 0u64;
    let mut written = 0u64;
    // Compaction period 0: every checkpoint is a full atomic snapshot.
    let mut full = checkpoint.map(|(every, path)| (every, DeltaCheckpointWriter::new(path, 0)));
    for (i, item) in reader.by_ref().enumerate() {
        let event = item.expect("well-formed fixture");
        analyzer.push(event).expect("ordered trace");
        while let Some(o) = analyzer.next_output() {
            if let ppa::analysis::StreamOutput::Event(e) = o {
                writer.write_event(&e).expect("write report");
                events_out += 1;
            }
        }
        let pushed = i as u64 + 1;
        since += 1;
        if let Some((every, ckpt)) = &mut full {
            if since >= *every {
                since = 0;
                let parts = CheckpointParts {
                    positions_seen: pushed,
                    gaps: &[],
                    events_lost: 0,
                    reorder: None,
                    sink: SinkState {
                        bytes_flushed: 0,
                        events: events_out,
                        awaits: 0,
                        barriers: 0,
                        episodes: 0,
                        last_time: Time::ZERO,
                    },
                };
                ckpt.checkpoint(&mut analyzer, parts)
                    .expect("write checkpoint");
                written += 1;
            }
        }
    }
    let tail = analyzer.finish().expect("feasible trace");
    for o in &tail.outputs {
        if let ppa::analysis::StreamOutput::Event(e) = o {
            writer.write_event(e).expect("write report");
        }
    }
    let report = writer.finish().expect("finish report");
    (report.len(), written)
}

/// The same pipeline with the incremental (delta-chain) checkpoint
/// writer: a full snapshot first, then dirty-state deltas with periodic
/// compaction — the `--checkpoint-compact-every` path the CLI now uses.
fn pipeline_delta(jsonl: &[u8], oh: &OverheadSpec, every: u64, path: &std::path::Path) -> u64 {
    std::fs::remove_file(path).ok();
    let mut reader = AnyTraceReader::open(jsonl).expect("open jsonl input");
    let mut writer = AnyTraceWriter::new(
        Vec::<u8>::with_capacity(jsonl.len()),
        TraceFormat::Jsonl,
        TraceKind::Approximated,
        0,
    )
    .expect("open jsonl report");
    let mut analyzer = EventBasedAnalyzer::new(oh);
    let mut events_out = 0u64;
    let mut since = 0u64;
    let mut written = 0u64;
    let mut ckpt = DeltaCheckpointWriter::new(path, ppa::analysis::DEFAULT_COMPACT_EVERY);
    for (i, item) in reader.by_ref().enumerate() {
        let event = item.expect("well-formed fixture");
        analyzer.push(event).expect("ordered trace");
        while let Some(o) = analyzer.next_output() {
            if let ppa::analysis::StreamOutput::Event(e) = o {
                writer.write_event(&e).expect("write report");
                events_out += 1;
            }
        }
        since += 1;
        if since >= every {
            since = 0;
            let parts = CheckpointParts {
                positions_seen: i as u64 + 1,
                gaps: &[],
                events_lost: 0,
                reorder: None,
                sink: SinkState {
                    bytes_flushed: 0,
                    events: events_out,
                    awaits: 0,
                    barriers: 0,
                    episodes: 0,
                    last_time: Time::ZERO,
                },
            };
            ckpt.checkpoint(&mut analyzer, parts)
                .expect("write delta checkpoint");
            written += 1;
        }
    }
    let tail = analyzer.finish().expect("feasible trace");
    for o in &tail.outputs {
        if let ppa::analysis::StreamOutput::Event(e) = o {
            writer.write_event(e).expect("write report");
        }
    }
    writer.finish().expect("finish report");
    written
}

/// The analyzer alone with the delta-chain writer.
fn analyzer_only_delta(
    trace: &Trace,
    oh: &OverheadSpec,
    every: u64,
    path: &std::path::Path,
) -> u64 {
    std::fs::remove_file(path).ok();
    let mut analyzer = EventBasedAnalyzer::new(oh);
    let mut since = 0u64;
    let mut written = 0u64;
    let mut ckpt = DeltaCheckpointWriter::new(path, ppa::analysis::DEFAULT_COMPACT_EVERY);
    for (i, e) in trace.iter().enumerate() {
        analyzer.push(*e).expect("ordered trace");
        while analyzer.next_output().is_some() {}
        since += 1;
        if since >= every {
            since = 0;
            let parts = CheckpointParts {
                positions_seen: i as u64 + 1,
                gaps: &[],
                events_lost: 0,
                reorder: None,
                sink: SinkState::default(),
            };
            ckpt.checkpoint(&mut analyzer, parts)
                .expect("write delta checkpoint");
            written += 1;
        }
    }
    analyzer.finish().expect("feasible trace");
    written
}

/// The analyzer alone (no codec work), for the compute-only overhead.
fn analyzer_only(
    trace: &Trace,
    oh: &OverheadSpec,
    checkpoint: Option<(u64, &std::path::Path)>,
) -> (usize, u64) {
    let mut analyzer = EventBasedAnalyzer::new(oh);
    let mut outputs = 0usize;
    let mut since = 0u64;
    let mut written = 0u64;
    // Compaction period 0: every checkpoint is a full atomic snapshot.
    let mut full = checkpoint.map(|(every, path)| (every, DeltaCheckpointWriter::new(path, 0)));
    for (i, e) in trace.iter().enumerate() {
        analyzer.push(*e).expect("ordered trace");
        while analyzer.next_output().is_some() {
            outputs += 1;
        }
        let pushed = i as u64 + 1;
        since += 1;
        if let Some((every, ckpt)) = &mut full {
            if since >= *every {
                since = 0;
                let parts = CheckpointParts {
                    positions_seen: pushed,
                    gaps: &[],
                    events_lost: 0,
                    reorder: None,
                    sink: SinkState::default(),
                };
                ckpt.checkpoint(&mut analyzer, parts)
                    .expect("write checkpoint");
                written += 1;
            }
        }
    }
    let tail = analyzer.finish().expect("feasible trace");
    (outputs + tail.outputs.len(), written)
}

fn checkpoint_overhead(c: &mut Criterion) {
    let (trace, oh) = fixture();
    let n = trace.len();
    let every: u64 = std::env::var("PPA_CHECKPOINT_BENCH_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_EVERY);
    let dir = std::env::temp_dir().join("ppa-checkpoint-bench");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let ckpt = dir.join("state.ckpt");

    let mut jsonl = Vec::new();
    ppa::trace::write_jsonl(&trace, &mut jsonl).expect("encode fixture");

    let (t_base, t_ckpt) = paired(
        || pipeline(&jsonl, &oh, None),
        || pipeline(&jsonl, &oh, Some((every, &ckpt))),
    );
    let (t_cpu_base, t_cpu_ckpt) = paired(
        || analyzer_only(&trace, &oh, None),
        || analyzer_only(&trace, &oh, Some((every, &ckpt))),
    );
    let (_, written) = pipeline(&jsonl, &oh, Some((every, &ckpt)));
    let ckpt_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_dir_all(&dir).ok();

    let eps = |secs: f64| n as f64 / secs;
    let overhead = (t_ckpt - t_base) / t_base * 100.0;
    let cpu_overhead = (t_cpu_ckpt - t_cpu_base) / t_cpu_base * 100.0;
    let per_ckpt_ms = if written > 0 {
        (t_ckpt - t_base) / written as f64 * 1e3
    } else {
        0.0
    };
    println!("\n=== checkpoint overhead ({n} events, cadence {every}, {written} checkpoints) ===");
    println!(
        "pipeline, no checkpoints : {:>10.0} events/sec",
        eps(t_base)
    );
    println!(
        "pipeline, checkpointed   : {:>10.0} events/sec ({overhead:+.2}%, ~{per_ckpt_ms:.1} ms per checkpoint)",
        eps(t_ckpt)
    );
    println!(
        "analyzer only, baseline  : {:>10.0} events/sec",
        eps(t_cpu_base)
    );
    println!(
        "analyzer only, ckptd     : {:>10.0} events/sec ({cpu_overhead:+.2}%)",
        eps(t_cpu_ckpt)
    );
    println!("last checkpoint size     : {ckpt_bytes} bytes");
    println!(
        "acceptance (<5% of pipeline at default cadence): {}",
        if overhead < 5.0 { "PASS" } else { "FAIL" }
    );

    let report = format!(
        "{{\n  \"bench\": \"checkpoint\",\n  \"events\": {n},\n  \"cadence_events\": {every},\n  \
         \"checkpoints_written\": {written},\n  \"last_checkpoint_bytes\": {ckpt_bytes},\n  \
         \"pipeline\": \"jsonl decode -> streaming analysis -> jsonl report encode\",\n  \
         \"events_per_sec\": {{ \"pipeline\": {:.0}, \"pipeline_checkpointed\": {:.0}, \
         \"analyzer_only\": {:.0}, \"analyzer_only_checkpointed\": {:.0} }},\n  \
         \"overhead_pct\": {{ \"pipeline\": {overhead:.2}, \"analyzer_only\": {cpu_overhead:.2} }},\n  \
         \"ms_per_checkpoint\": {per_ckpt_ms:.1},\n  \
         \"acceptance_under_5_pct\": {}\n}}\n",
        eps(t_base),
        eps(t_ckpt),
        eps(t_cpu_base),
        eps(t_cpu_ckpt),
        overhead < 5.0,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checkpoint.json");
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("could not record {path}: {e}");
    } else {
        println!("recorded {path}");
    }

    // --- incremental (delta-chain) checkpoints, same cadences ---------
    // The full-snapshot writer above serializes the analyzer's entire
    // synchronization history every time; the delta writer serializes
    // only the state touched since the last checkpoint, compacting every
    // DEFAULT_COMPACT_EVERY deltas. The acceptance bar for this PR is
    // analyzer-only overhead < 10% at the same cadence where full
    // snapshots measured ~31%.
    let dir = std::env::temp_dir().join("ppa-checkpoint-bench-delta");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let dckpt = dir.join("state.ckpt");

    let (t_base_d, t_ckpt_d) = paired(
        || {
            pipeline(&jsonl, &oh, None);
        },
        || {
            pipeline_delta(&jsonl, &oh, every, &dckpt);
        },
    );
    let (t_cpu_base_d, t_cpu_ckpt_d) = paired(
        || {
            analyzer_only(&trace, &oh, None);
        },
        || {
            analyzer_only_delta(&trace, &oh, every, &dckpt);
        },
    );
    let written_d = pipeline_delta(&jsonl, &oh, every, &dckpt);
    let chain_bytes = std::fs::metadata(&dckpt).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_dir_all(&dir).ok();

    let overhead_d = (t_ckpt_d - t_base_d) / t_base_d * 100.0;
    let cpu_overhead_d = (t_cpu_ckpt_d - t_cpu_base_d) / t_cpu_base_d * 100.0;
    let per_ckpt_ms_d = if written_d > 0 {
        (t_ckpt_d - t_base_d) / written_d as f64 * 1e3
    } else {
        0.0
    };
    println!(
        "\n=== incremental checkpoint overhead ({n} events, cadence {every}, \
         {written_d} checkpoints, compact every {}) ===",
        ppa::analysis::DEFAULT_COMPACT_EVERY
    );
    println!(
        "pipeline, delta chain    : {:>10.0} events/sec ({overhead_d:+.2}%, ~{per_ckpt_ms_d:.1} ms per checkpoint)",
        eps(t_ckpt_d)
    );
    println!(
        "analyzer only, delta     : {:>10.0} events/sec ({cpu_overhead_d:+.2}%, was {cpu_overhead:+.2}% with full snapshots)",
        eps(t_cpu_ckpt_d)
    );
    println!("final chain size         : {chain_bytes} bytes");
    println!(
        "acceptance (<10% analyzer-only at same cadence): {}",
        if cpu_overhead_d < 10.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );

    let report = format!(
        "{{\n  \"bench\": \"checkpoint_delta\",\n  \"events\": {n},\n  \"cadence_events\": {every},\n  \
         \"compact_every\": {},\n  \"checkpoints_written\": {written_d},\n  \
         \"final_chain_bytes\": {chain_bytes},\n  \
         \"pipeline\": \"jsonl decode -> streaming analysis -> jsonl report encode\",\n  \
         \"events_per_sec\": {{ \"pipeline\": {:.0}, \"pipeline_delta_checkpointed\": {:.0}, \
         \"analyzer_only\": {:.0}, \"analyzer_only_delta_checkpointed\": {:.0} }},\n  \
         \"overhead_pct\": {{ \"pipeline\": {overhead_d:.2}, \"analyzer_only\": {cpu_overhead_d:.2}, \
         \"analyzer_only_full_snapshot\": {cpu_overhead:.2} }},\n  \
         \"ms_per_checkpoint\": {per_ckpt_ms_d:.1},\n  \
         \"acceptance_analyzer_only_under_10_pct\": {}\n}}\n",
        ppa::analysis::DEFAULT_COMPACT_EVERY,
        eps(t_base_d),
        eps(t_ckpt_d),
        eps(t_cpu_base_d),
        eps(t_cpu_ckpt_d),
        cpu_overhead_d < 10.0,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_checkpoint_delta.json"
    );
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("could not record {path}: {e}");
    } else {
        println!("recorded {path}");
    }

    let dir = std::env::temp_dir().join("ppa-checkpoint-bench-criterion");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let ckpt = dir.join("state.ckpt");
    let mut group = c.benchmark_group("checkpoint_overhead");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("pipeline_baseline", |b| {
        b.iter(|| pipeline(&jsonl, &oh, None))
    });
    group.bench_function("pipeline_checkpointed", |b| {
        b.iter(|| pipeline(&jsonl, &oh, Some((every, &ckpt))))
    });
    group.bench_function("pipeline_delta_checkpointed", |b| {
        b.iter(|| pipeline_delta(&jsonl, &oh, every, &ckpt))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, checkpoint_overhead);
criterion_main!(benches);
