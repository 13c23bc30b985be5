//! Per-event-kind cost of the streaming analyzer: `push` plus the drain
//! of what it made available, timed per event, by event kind.
//!
//! ```text
//! cargo run --release --example push_cost -- [--iters N] [--rounds R] [--seed S] [--passes K]
//! ```
//!
//! Four in-memory traces, all a pure function of the seed: the
//! benchmark's 8-processor DOACROSS body (`--iters` iterations, default
//! 120 000 — the `bin_doacross` fixture) and one trace of each episode
//! scenario family (8 processors, 4 objects, `--rounds` rounds, default
//! 16 000 — the `bin_episodes` fixtures). Every pass analyzes each
//! trace once with a timer read around every push; the cost of the
//! timer itself (calibrated on back-to-back reads) is subtracted, and
//! each kind's figure is the fastest of `--passes` passes (default 5).
//! The last column checks the measurement: the timed sum against the
//! fastest untimed pass over the same trace.
//!
//! A second table prices the codecs the same way over the same traces,
//! in memory and on the caller's thread: nanoseconds per line to decode
//! JSONL ([`AnyTraceReader`], one `next()` per event) and to encode it
//! ([`AnyTraceWriter`]), and per event for the binary format. A decode
//! figure includes the chunk or block decode its first event triggers.

use ppa::prelude::*;
use ppa::sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
use ppa::trace::{AnyTraceReader, AnyTraceWriter, TraceFormat};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

struct Args {
    iters: u64,
    rounds: usize,
    seed: u64,
    passes: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 120_000,
        rounds: 16_000,
        seed: 1991,
        passes: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--iters" => args.iters = number(&flag, &value),
            "--rounds" => args.rounds = number(&flag, &value),
            "--seed" => args.seed = number(&flag, &value),
            "--passes" => args.passes = number(&flag, &value),
            _ => panic!("unknown option {flag}"),
        }
    }
    args
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: not a number: {value}"))
}

/// The benchmark's DOACROSS body (head / mid / tail / await / critical
/// section / advance), measured under `full_with_sync` with the seed's
/// statement jitter.
fn doacross(seed: u64, iters: u64) -> (Vec<Event>, OverheadSpec) {
    let cfg = ppa::experiments::experiment_config().with_jitter(seed, 150);
    let mut b = ProgramBuilder::new("push-cost");
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
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("the simulator accepts a valid program");
    (measured.trace.events().to_vec(), cfg.overheads)
}

fn scenario(seed: u64, family: ScenarioFamily, rounds: usize) -> (Vec<Event>, OverheadSpec) {
    let cfg = ScenarioConfig {
        processors: 8,
        rounds,
        objects: 4,
        ..ScenarioConfig::small(family)
    };
    (scenario_trace(seed, &cfg).events().to_vec(), cfg.overheads)
}

/// Mean nanoseconds of one empty timed interval: the bias every timed
/// push carries.
fn timer_cost_ns() -> f64 {
    const N: u32 = 1_000_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        total += t0.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// One timed pass: total nanoseconds and count per kind.
fn timed_pass(events: &[Event], oh: &OverheadSpec) -> BTreeMap<&'static str, (u128, u64)> {
    let mut a = EventBasedAnalyzer::new(oh);
    let mut by_kind = BTreeMap::new();
    for e in events {
        let t0 = Instant::now();
        a.push(*e).expect("the trace is totally ordered");
        while a.next_output().is_some() {}
        let ns = t0.elapsed().as_nanos();
        let slot = by_kind.entry(e.kind.mnemonic()).or_insert((0, 0));
        slot.0 += ns;
        slot.1 += 1;
    }
    a.finish().expect("the trace is feasible");
    by_kind
}

/// One untimed pass, in milliseconds.
fn untimed_pass(events: &[Event], oh: &OverheadSpec) -> f64 {
    let t0 = Instant::now();
    let mut a = EventBasedAnalyzer::new(oh);
    for e in events {
        a.push(*e).expect("the trace is totally ordered");
        while a.next_output().is_some() {}
    }
    a.finish().expect("the trace is feasible");
    t0.elapsed().as_secs_f64() * 1e3
}

/// One codec pass calling `step` once per event of an `n`-event trace:
/// the per-call nanoseconds summed when `timed`, else the whole pass.
fn codec_pass(n: usize, timed: bool, mut step: impl FnMut()) -> u128 {
    let t0 = Instant::now();
    let mut sum = 0;
    for _ in 0..n {
        if timed {
            let t = Instant::now();
            step();
            sum += t.elapsed().as_nanos();
        } else {
            step();
        }
    }
    if timed {
        sum
    } else {
        t0.elapsed().as_nanos()
    }
}

/// Nanoseconds per event of each codec over `events`, fastest of
/// `passes`: timed per call with the timer's cost subtracted, and
/// untimed.
fn codec_rows(events: &[Event], passes: usize, timer: f64) -> Vec<(&'static str, f64, f64)> {
    let n = events.len();
    let kind = TraceKind::Measured;
    let jsonl = {
        let mut w =
            AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, kind, n).expect("writes to memory");
        events
            .iter()
            .for_each(|e| w.write_event(e).expect("writes to memory"));
        w.finish().expect("writes to memory")
    };
    let bin = {
        let mut w = AnyTraceWriter::new(Vec::new(), TraceFormat::Binary, kind, n)
            .expect("writes to memory");
        events
            .iter()
            .for_each(|e| w.write_event(e).expect("writes to memory"));
        w.finish().expect("writes to memory")
    };
    let codecs: [(&str, &dyn Fn(bool) -> u128); 4] = [
        ("jsonl-dec", &|timed| {
            let mut r = AnyTraceReader::open(jsonl.as_slice()).expect("decodes");
            codec_pass(n, timed, || {
                black_box(r.next());
            })
        }),
        ("jsonl-enc", &|timed| {
            let mut w = AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, kind, n)
                .expect("writes to memory");
            let mut it = events.iter();
            let ns = codec_pass(n, timed, || {
                w.write_event(it.next().expect("n events"))
                    .expect("writes to memory")
            });
            black_box(w.finish().expect("writes to memory"));
            ns
        }),
        ("bin-dec", &|timed| {
            let mut r = AnyTraceReader::open(bin.as_slice()).expect("decodes");
            codec_pass(n, timed, || {
                black_box(r.next());
            })
        }),
        ("bin-enc", &|timed| {
            let mut w = AnyTraceWriter::new(Vec::new(), TraceFormat::Binary, kind, n)
                .expect("writes to memory");
            let mut it = events.iter();
            let ns = codec_pass(n, timed, || {
                w.write_event(it.next().expect("n events"))
                    .expect("writes to memory")
            });
            black_box(w.finish().expect("writes to memory"));
            ns
        }),
    ];
    codecs
        .iter()
        .map(|&(name, pass)| {
            let (mut timed, mut untimed) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..passes.max(1) {
                timed = timed.min((pass(true) as f64 / n as f64 - timer).max(0.0));
                untimed = untimed.min(pass(false) as f64 / n as f64);
            }
            (name, timed, untimed)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let timer = timer_cost_ns();
    let mut traces = vec![("doacross".to_string(), doacross(args.seed, args.iters))];
    for family in ScenarioFamily::ALL {
        traces.push((family.to_string(), scenario(args.seed, family, args.rounds)));
    }
    println!(
        "push + drain per event, fastest of {} pass(es), timer cost {timer:.1} ns subtracted",
        args.passes
    );
    println!("{:<10} {:<8} {:>9} {:>9}", "trace", "kind", "n", "ns/push");
    for (name, (events, oh)) in &traces {
        let mut best: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        let mut untimed = f64::INFINITY;
        for _ in 0..args.passes.max(1) {
            for (kind, (ns, n)) in timed_pass(events, oh) {
                let per = (ns as f64 / n as f64 - timer).max(0.0);
                let slot = best.entry(kind).or_insert((f64::INFINITY, n));
                slot.0 = slot.0.min(per);
            }
            untimed = untimed.min(untimed_pass(events, oh));
        }
        let mut sum_ms = 0.0;
        for (kind, (per, n)) in &best {
            println!("{name:<10} {kind:<8} {n:>9} {per:>9.1}");
            sum_ms += per * *n as f64 / 1e6;
        }
        println!(
            "{name:<10} {:<8} {:>9} {sum_ms:>6.1} ms timed sum vs {untimed:.1} ms untimed",
            "all",
            events.len()
        );
    }
    println!();
    println!(
        "codec per event (JSONL: per line), fastest of {} pass(es), timer cost {timer:.1} ns subtracted",
        args.passes
    );
    println!(
        "{:<10} {:<10} {:>9} {:>9} {:>9}",
        "trace", "codec", "n", "ns/event", "untimed"
    );
    for (name, (events, _)) in &traces {
        for (codec, timed, untimed) in codec_rows(events, args.passes, timer) {
            let n = events.len();
            println!("{name:<10} {codec:<10} {n:>9} {timed:>9.1} {untimed:>9.1}");
        }
    }
}
