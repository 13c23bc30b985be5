//! Trace plumbing: generate, serialize, reload, validate, and inspect a
//! measured trace — plus what happens when a trace is corrupted.
//!
//! ```text
//! cargo run --release --example trace_explorer
//! ```

use ppa::experiments::experiment_config;
use ppa::prelude::*;
use ppa::trace::{read_trace, write_csv, write_trace, TraceFormat};

fn main() {
    let cfg = experiment_config();
    let program = ppa::lfk::doacross_graph(3).expect("loop 3 exists");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("simulation succeeds");
    let trace = measured.trace;

    println!(
        "measured trace: {} events over {}",
        trace.len(),
        trace.total_time()
    );
    println!(
        "processors: {:?}",
        trace.processors().iter().map(|p| p.0).collect::<Vec<_>>()
    );
    println!("sync events: {}", trace.sync_event_count());

    // Event-kind census.
    let mut census: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for e in trace.iter() {
        *census.entry(e.kind.mnemonic()).or_default() += 1;
    }
    println!("\nevent census:");
    for (kind, count) in &census {
        println!("  {kind:<9} {count}");
    }

    // Round-trip through JSONL.
    let dir = std::env::temp_dir();
    let jsonl_path = dir.join("ppa_trace_explorer.jsonl");
    let csv_path = dir.join("ppa_trace_explorer.csv");
    write_trace(
        &trace,
        std::fs::File::create(&jsonl_path).expect("create file"),
        TraceFormat::Jsonl,
    )
    .expect("write jsonl");
    write_csv(
        &trace,
        std::fs::File::create(&csv_path).expect("create file"),
    )
    .expect("write csv");
    let reloaded =
        read_trace(std::fs::File::open(&jsonl_path).expect("open file"), 0).expect("read jsonl");
    assert_eq!(trace, reloaded, "JSONL round-trip is lossless");
    println!(
        "\nwrote {} and {}",
        jsonl_path.display(),
        csv_path.display()
    );

    // Validation: the real trace pairs cleanly...
    let index = pair_sync_events(&trace).expect("measured traces are feasible");
    println!(
        "\nsync pairing: {} awaits, {} advances, {} barrier episodes",
        index.awaits.len(),
        index.advances.len(),
        index.barriers.len()
    );
    let waited_in_measurement = index
        .awaits
        .iter()
        .filter(|p| {
            // In the measured trace an await "looked like" it waited when
            // awaitE trails awaitB by more than the instrumentation cost.
            let b = trace.events()[p.begin].time;
            let e = trace.events()[p.end].time;
            (e - b) > cfg.overheads.await_end_instr + cfg.overheads.s_nowait
        })
        .count();
    println!("awaits that (apparently) waited in the measurement: {waited_in_measurement}");

    // ... and a corrupted one does not.
    let mut events: Vec<Event> = trace.events().to_vec();
    events.retain(|e| !matches!(e.kind, EventKind::Advance { tag, .. } if tag.0 == 5));
    let corrupted = Trace::from_events(TraceKind::Measured, events);
    match pair_sync_events(&corrupted) {
        Err(err) => println!("\ncorrupted trace correctly rejected: {err}"),
        Ok(_) => unreachable!("a missing advance must be detected"),
    }

    // The analysis sees the same truth through the error type.
    match event_based(&corrupted, &cfg.overheads) {
        Err(AnalysisError::Trace(err)) => {
            println!("event-based analysis rejected it too: {err}")
        }
        other => unreachable!("expected trace error, got {other:?}"),
    }
}
