//! Every kill point of the one [`Pipeline`], enumerated in process.
//!
//! For each `k` in `0..=n`: run `k` steps under a checkpoint policy,
//! checkpoint, drop the pipeline (the kill), tear the report's tail,
//! reopen from the checkpoint and run to the end. The report must be
//! byte-identical to the uninterrupted run's and the counters must
//! agree — for a seeded episode scenario and a DOACROSS loop, in both
//! containers, and once each with a reorder window over shuffled input
//! and with lenient decode over a corrupted block.

use ppa_core::{read_checkpoint, CheckpointPolicy, Pipeline, PipelineConfig, Summary};
use ppa_lfk::{doacross_graph_with, DoacrossParams};
use ppa_program::InstrumentationPlan;
use ppa_sim::{
    run_measured, scenario_trace, ScenarioConfig, ScenarioFamily, SchedulePolicy, SimConfig,
};
use ppa_trace::{
    AnyTraceReader, AnyTraceWriter, ClockRate, Event, OverheadSpec, StreamProbes, TraceFormat,
    TraceKind,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Binary fixtures use small blocks so a kill point falls inside,
/// between and across blocks.
const BLOCK_EVENTS: usize = 16;

fn scenario_events() -> Vec<Event> {
    let cfg = ScenarioConfig::small(ScenarioFamily::Spinlock);
    scenario_trace(0x5eed, &cfg).events().to_vec()
}

fn doacross_events() -> Vec<Event> {
    let params = DoacrossParams {
        trip: 24,
        ..DoacrossParams::for_kernel(3).expect("loop 3 is a DOACROSS kernel")
    };
    let program = doacross_graph_with("kill-points", &params).expect("valid parameters");
    let cfg = SimConfig {
        processors: 4,
        clock: ClockRate::GHZ_1,
        overheads: OverheadSpec::alliant_default(),
        schedule: SchedulePolicy::StaticCyclic,
        dispatch_cycles: 50,
        jitter: None,
    };
    run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("simulates")
        .trace
        .events()
        .to_vec()
}

/// Encodes `events` in the order given (a shuffled fixture stays
/// shuffled).
fn encode(events: &[Event], format: TraceFormat) -> Vec<u8> {
    let kind = TraceKind::Measured;
    match format {
        TraceFormat::Jsonl => {
            let mut w =
                AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, kind, events.len()).unwrap();
            events.iter().for_each(|e| w.write_event(e).unwrap());
            w.finish().unwrap()
        }
        TraceFormat::Binary => {
            let mut w = AnyTraceWriter::with_block_events(
                Vec::new(),
                kind,
                events.len(),
                BLOCK_EVENTS,
                StreamProbes::noop(),
            );
            events.iter().for_each(|e| w.write_event(e).unwrap());
            w.finish().unwrap()
        }
    }
}

/// One enumeration: an encoded input and the flags it runs under.
struct Leg {
    name: String,
    input: Vec<u8>,
    lenient: bool,
    reorder_window: Option<u64>,
}

impl Leg {
    fn config(&self, checkpoint: &Path) -> PipelineConfig {
        PipelineConfig {
            lenient: self.lenient,
            reorder_window: self.reorder_window,
            checkpoint: Some(CheckpointPolicy {
                path: checkpoint.to_path_buf(),
                every: 5,
                compact_every: 2,
            }),
            ..PipelineConfig::new(OverheadSpec::alliant_default())
        }
    }

    fn open(&self, dir: &Path, resume: bool) -> Pipeline<&[u8]> {
        let checkpoint = dir.join("state.ckpt");
        let report = dir.join("report.jsonl");
        let resume = resume.then(|| read_checkpoint(&checkpoint).expect("checkpoint reads back"));
        Pipeline::new(
            AnyTraceReader::open(&self.input[..]).expect("fixture opens"),
            self.config(&checkpoint),
            Some((&report, TraceFormat::Jsonl)),
            resume,
        )
        .expect("pipeline builds")
    }
}

/// Runs `p` out; returns the events it consumed and its summary, with
/// the one field that depends on *where* checkpoints fell, not on what
/// was analyzed, blanked.
fn run_to_end(mut p: Pipeline<&[u8]>) -> (u64, Summary) {
    while p.step().expect("step").is_some() {}
    let consumed = p.events_in();
    let mut summary = p.finish().expect("finish");
    summary.sink.bytes_flushed = 0;
    (consumed, summary)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppa-kill-points-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Enumerates every kill point of `leg`; returns the uninterrupted
/// run's summary for leg-specific assertions.
fn enumerate(leg: &Leg) -> Summary {
    let dir = scratch(&leg.name);
    let report = dir.join("report.jsonl");

    let (n, reference) = run_to_end(leg.open(&dir, false));
    let reference_report = std::fs::read(&report).unwrap();
    assert!(
        n > 2 * BLOCK_EVENTS as u64,
        "{}: fixture too small",
        leg.name
    );

    for k in 0..=n {
        std::fs::remove_file(dir.join("state.ckpt")).ok();
        let mut p = leg.open(&dir, false);
        for _ in 0..k {
            assert!(p.step().expect("step").is_some(), "{}: k={k}", leg.name);
        }
        p.checkpoint_now().expect("checkpoint");
        drop(p);
        // A torn tail: bytes past the frontier the checkpoint recorded.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&report)
            .unwrap()
            .write_all(b"{\"time\":12,\"pro")
            .unwrap();

        let (rest, resumed) = run_to_end(leg.open(&dir, true));
        assert_eq!(rest, n - k, "{}: events left after k={k}", leg.name);
        assert_eq!(resumed, reference, "{}: counters, k={k}", leg.name);
        assert!(
            std::fs::read(&report).unwrap() == reference_report,
            "{}: report differs after a kill at k={k}",
            leg.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    reference
}

#[test]
fn every_kill_point_resumes_byte_identical() {
    for (trace, events) in [
        ("scenario", scenario_events()),
        ("doacross", doacross_events()),
    ] {
        for (container, format) in [("jsonl", TraceFormat::Jsonl), ("bin", TraceFormat::Binary)] {
            let reference = enumerate(&Leg {
                name: format!("{trace}-{container}"),
                input: encode(&events, format),
                lenient: false,
                reorder_window: None,
            });
            assert_eq!(reference.sink.events, events.len() as u64);
        }
    }
}

#[test]
fn every_kill_point_resumes_with_a_reorder_window_over_shuffled_input() {
    let mut events = doacross_events();
    // Swap neighbours throughout: each event at most one position late.
    for i in (3..events.len() - 1).step_by(7) {
        events.swap(i, i + 1);
    }
    let reference = enumerate(&Leg {
        name: "shuffled".into(),
        input: encode(&events, TraceFormat::Binary),
        lenient: false,
        reorder_window: Some(8),
    });
    let reorder = reference.reorder.expect("a window was configured");
    assert!(reorder.reordered > 0, "the shuffle must need re-sorting");
    assert_eq!(reorder.rejected, 0);
    assert_eq!(reference.sink.events, events.len() as u64);
}

#[test]
fn every_kill_point_resumes_leniently_over_a_corrupted_block() {
    let events = scenario_events();
    let mut input = encode(&events, TraceFormat::Binary);
    let mid = input.len() / 2;
    input[mid] ^= 0xff;
    let reference = enumerate(&Leg {
        name: "corrupt".into(),
        input,
        lenient: true,
        reorder_window: None,
    });
    assert!(
        !reference.gaps.is_empty(),
        "the flipped byte must cost a block"
    );
    assert!(reference.events_lost > 0);
    assert!(reference.sink.events < events.len() as u64);
}
