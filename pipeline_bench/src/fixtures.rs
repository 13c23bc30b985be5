//! Seeded fixture generator: every input file the `ppa` binary sees is
//! built here from `ppa::sim` (plus a fixed-stride statement trace for
//! the suppressor) and is a pure function of `--seed`.

use crate::spans::Recorder;
use ppa::prelude::*;
use ppa::sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
use ppa::trace::{AnyTraceWriter, IoError, StatementId, TraceFormat};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Fixture sizes. The defaults keep one operation at a few tenths of a
/// second, so a `--seconds` window holds tens of timed runs; `--smoke`
/// divides them by 50.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// DOACROSS iterations of the JSONL and the served trace (7 events
    /// each).
    pub small_iters: u64,
    /// DOACROSS iterations of the binary trace.
    pub large_iters: u64,
    /// Rounds per processor of each episode scenario.
    pub episode_rounds: usize,
    /// Events of the fixed-stride statement trace.
    pub periodic_events: u64,
    /// `ppa serve --checkpoint-every`, scaled with `small_iters` so a
    /// served stream always takes several checkpoints.
    pub checkpoint_every: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        small_iters: 20_000,
        large_iters: 120_000,
        episode_rounds: 16_000,
        periodic_events: 800_000,
        checkpoint_every: 16_384,
    };

    pub fn smoke() -> Sizes {
        let f = Sizes::FULL;
        Sizes {
            small_iters: f.small_iters / 50,
            large_iters: f.large_iters / 50,
            episode_rounds: f.episode_rounds / 50,
            periodic_events: f.periodic_events / 50,
            checkpoint_every: 512,
        }
    }
}

/// One generated input: the file the binary reads and the events in
/// it, kept for the oracle and the traced replay.
pub struct Fixture {
    pub path: PathBuf,
    /// Events in file order.
    pub events: Vec<Event>,
}

impl Fixture {
    pub fn path_str(&self) -> String {
        self.path.display().to_string()
    }
}

/// SplitMix64: the seeded RNG behind the shuffle and the periodic
/// trace's shape.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The 8-processor DOACROSS body the repo's benches use (head / mid /
/// tail / await / critical section / advance), measured under
/// `full_with_sync`, with statement costs jittered by the seed.
pub fn doacross(rec: &mut Recorder, seed: u64, iters: u64) -> Vec<Event> {
    let cfg = ppa::experiments::experiment_config().with_jitter(seed, 150);
    let mut b = ProgramBuilder::new("pipeline-bench");
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
        .expect("the DOACROSS body is a valid program");
    let span = rec.enter("sim.generate");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("the simulator accepts a valid program");
    rec.exit(span, &[("events", measured.trace.len() as f64)]);
    measured.trace.events().to_vec()
}

/// One lock / semaphore / fork-join scenario trace (8 processors, 4
/// contended objects).
pub fn episodes(
    rec: &mut Recorder,
    seed: u64,
    family: ScenarioFamily,
    rounds: usize,
) -> Vec<Event> {
    let cfg = ScenarioConfig {
        processors: 8,
        rounds,
        objects: 4,
        ..ScenarioConfig::small(family)
    };
    let span = rec.enter("sim.generate");
    let trace = scenario_trace(seed, &cfg);
    rec.exit(span, &[("events", trace.len() as f64)]);
    trace.events().to_vec()
}

/// Eight processors each repeating one statement at a fixed stride —
/// the shape the suppressor collapses. Stride, phase and statement ids
/// come from the seed.
pub fn periodic(seed: u64, events: u64) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let stride = 64 + rng.below(64);
    let base = 1_000 + rng.below(1_000);
    let stmt = rng.below(32) as u32;
    (0..events)
        .map(|i| {
            let (round, proc) = (i / 8, i % 8);
            Event::new(
                Time::from_nanos(base + round * stride + proc),
                ProcessorId(proc as u16),
                i,
                EventKind::Statement {
                    stmt: StatementId(stmt + proc as u32),
                },
            )
        })
        .collect()
}

/// Permutes every consecutive block of 16 events (Fisher–Yates, seeded),
/// so no event is more than 15 positions late — inside
/// `--reorder-window 64`.
pub fn shuffle_blocks(events: &[Event], seed: u64) -> Vec<Event> {
    let mut rng = Rng::new(seed ^ 0x5EED_5EED);
    let mut out = events.to_vec();
    for block in out.chunks_mut(16) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    out
}

/// Encodes `events` in exactly the order given.
pub fn encode(events: &[Event], format: TraceFormat, kind: TraceKind) -> Result<Vec<u8>, IoError> {
    let mut w = AnyTraceWriter::new(Vec::new(), format, kind, events.len())?;
    for e in events {
        w.write_event(e)?;
    }
    w.finish()
}

/// Writes `events` to `dir/name` as a measured trace in `format`.
pub fn write_fixture(
    dir: &Path,
    name: &str,
    format: TraceFormat,
    events: Vec<Event>,
) -> Result<Fixture, String> {
    let path = dir.join(name);
    let bytes = encode(&events, format, TraceKind::Measured).map_err(|e| format!("{name}: {e}"))?;
    let mut f = BufWriter::new(File::create(&path).map_err(|e| format!("{name}: {e}"))?);
    f.write_all(&bytes)
        .and_then(|()| f.flush())
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(Fixture { path, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_bounded_displacement() {
        let mut rec = Recorder::new(false);
        let a = doacross(&mut rec, 3, 50);
        assert_eq!(a, doacross(&mut rec, 3, 50));
        assert_ne!(a, doacross(&mut rec, 4, 50));
        assert_eq!(a.len(), 50 * 7 + 20);
        let s = shuffle_blocks(&a, 3);
        assert_eq!(s, shuffle_blocks(&a, 3));
        assert_ne!(s, a);
        for (i, e) in s.iter().enumerate() {
            let home = a.iter().position(|x| x.seq == e.seq).unwrap();
            assert!(home.abs_diff(i) < 16);
        }
        assert_eq!(periodic(9, 64), periodic(9, 64));
    }
}
