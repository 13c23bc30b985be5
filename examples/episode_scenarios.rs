//! Seeded episode-scenario fixtures: write one measured trace per
//! scenario family (spinlock, semaphore, fork/join) as JSONL, for CI
//! smoke tests that need a lock-bearing trace on disk.
//!
//! ```text
//! cargo run --release --example episode_scenarios
//! ```

use ppa::sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
use ppa::trace::{
    write_trace, Event, EventKind, LockId, ProcessorId, StatementId, Time, Trace, TraceFormat,
    TraceKind,
};

fn main() {
    for family in ScenarioFamily::ALL {
        let trace = scenario_trace(0xE9150DE, &ScenarioConfig::small(family));
        let path = format!("/tmp/ppa_scenario_{family}.jsonl");
        let file = std::fs::File::create(&path).expect("create scenario fixture");
        write_trace(&trace, file, TraceFormat::Jsonl).expect("write scenario fixture");
        println!("{path}: {} events over {}", trace.len(), trace.total_time());
    }

    // A perfectly periodic critical-section loop: unlike the jittered
    // scenarios above, this fixture's repeated per-processor pattern
    // collapses under `ppa slice --suppress`, so it feeds the
    // suppress -> expand -> analyze round-trip smoke test.
    let mut events = Vec::new();
    for r in 0..64u64 {
        let t = 100_000 + r * 40_000;
        let ev = |dt: u64, ds: u64, kind: EventKind| {
            let proc = ProcessorId((ds == 3) as u16);
            Event::new(Time::from_nanos(t + dt), proc, 4 * r + ds, kind)
        };
        events.push(ev(0, 0, EventKind::LockAcquire { lock: LockId(7) }));
        events.push(ev(
            10_000,
            1,
            EventKind::Statement {
                stmt: StatementId(5),
            },
        ));
        events.push(ev(20_000, 2, EventKind::LockRelease { lock: LockId(7) }));
        events.push(ev(
            30_000,
            3,
            EventKind::Statement {
                stmt: StatementId(9),
            },
        ));
    }
    let trace = Trace::from_events(TraceKind::Measured, events);
    let path = "/tmp/ppa_lock_periodic.jsonl";
    let file = std::fs::File::create(path).expect("create periodic lock fixture");
    write_trace(&trace, file, TraceFormat::Jsonl).expect("write periodic lock fixture");
    println!("{path}: {} events over {}", trace.len(), trace.total_time());
}
