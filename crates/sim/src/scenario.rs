//! Seeded lock/semaphore/fork-join scenario workloads.
//!
//! The statement-graph engine ([`run_measured`](crate::run_measured))
//! covers DOACROSS advance/await programs; the episode extension of
//! §4.2.3 needs measured traces whose blocking comes from *mutual
//! exclusion*, *counting semaphores*, and *fork/join task graphs*
//! instead. This module generates them directly: a small deterministic
//! resource simulation stamps every event under the measured-trace
//! ordering convention — an enabling event (`lockR`, `semV`, `taskF`
//! spawn, `taskJ` child end) is always recorded *before* the blocked
//! event it enables (`lockA`, `semP`, task begin, join-return) — so the
//! result is a well-formed measured trace the differential oracle can
//! feed to both analysis paths.
//!
//! Everything is a pure function of `(seed, config)`: workload shape,
//! contention pattern, and per-step costs (jittered through
//! [`jittered_cost`](crate::jittered_cost)) are all derived from the
//! seed, so a failing scenario reproduces from one number.

use crate::config::JitterConfig;
use crate::jitter::jittered_cost;
use ppa_trace::{LoopId, OverheadSpec, StatementId, Trace, TraceBuilder};
use std::collections::{HashMap, VecDeque};

/// Which synchronization episode family a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// Every processor loops over acquire → critical section → release
    /// on a small set of contended locks.
    Spinlock,
    /// Producer processors `semV` tokens that consumer processors
    /// `semP`, with matching totals per semaphore.
    Semaphore,
    /// Processor 0 forks one task per worker each round, the workers
    /// run them, and the parent joins them all before the next round.
    ForkJoin,
}

impl ScenarioFamily {
    /// All families, in a fixed order (used to round-robin seeds).
    pub const ALL: [ScenarioFamily; 3] = [
        ScenarioFamily::Spinlock,
        ScenarioFamily::Semaphore,
        ScenarioFamily::ForkJoin,
    ];
}

impl std::fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScenarioFamily::Spinlock => "spinlock",
            ScenarioFamily::Semaphore => "semaphore",
            ScenarioFamily::ForkJoin => "forkjoin",
        })
    }
}

/// Shape of one generated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Episode family to generate.
    pub family: ScenarioFamily,
    /// Processor count (clamped to ≥ 2 — every family needs a peer).
    pub processors: usize,
    /// Rounds per processor: critical sections, tokens, or task waves.
    pub rounds: usize,
    /// Distinct locks or semaphores contended over (ignored by
    /// fork/join, which keys episodes by task id).
    pub objects: usize,
    /// Instrumentation overheads charged after each recorded event.
    pub overheads: OverheadSpec,
}

impl ScenarioConfig {
    /// A small default shape for `family`: 4 processors, 6 rounds,
    /// 2 contended objects, Alliant-default overheads.
    pub fn small(family: ScenarioFamily) -> Self {
        ScenarioConfig {
            family,
            processors: 4,
            rounds: 6,
            objects: 2,
            overheads: OverheadSpec::alliant_default(),
        }
    }
}

/// One step of a processor's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Compute for a jittered cost; recorded as a statement event.
    Work {
        stmt: u32,
        cost: u64,
    },
    Acquire(u32),
    Release(u32),
    SemP(u32),
    SemV(u32),
    /// Parent-side spawn (first `taskF`).
    Fork(u32),
    /// Child-side begin (second `taskF`); blocked on the spawn.
    Begin(u32),
    /// Child-side end (first `taskJ`).
    End(u32),
    /// Parent-side join-return (second `taskJ`); blocked on the end.
    JoinRet(u32),
}

/// Deterministically generates the measured trace of one scenario.
///
/// The returned trace is totally ordered, honors the enabling-before-
/// blocked recording convention, and closes every episode (no lock held
/// or task unjoined at end of trace), so it passes the structural lint
/// and both analyzers accept it.
pub fn scenario_trace(seed: u64, cfg: &ScenarioConfig) -> Trace {
    let procs = cfg.processors.max(2);
    let rounds = cfg.rounds.max(1);
    let objects = cfg.objects.max(1) as u32;
    let scripts = match cfg.family {
        ScenarioFamily::Spinlock => spinlock_scripts(seed, procs, rounds, objects),
        ScenarioFamily::Semaphore => semaphore_scripts(seed, procs, rounds, objects),
        ScenarioFamily::ForkJoin => forkjoin_scripts(seed, procs, rounds),
    };
    simulate(seed, &scripts, &cfg.overheads)
}

/// Seeded cost draw: `base ± 30%`, keyed so the same step always costs
/// the same regardless of interleaving.
fn cost(seed: u64, proc: usize, step: u64, base: u64) -> u64 {
    let jitter = JitterConfig {
        seed,
        amplitude_permille: 300,
    };
    jittered_cost(
        Some(jitter),
        LoopId(proc as u32),
        step,
        StatementId(0),
        base,
    )
}

/// Pick-a-resource mixer (SplitMix64 finalizer over the step key).
fn pick(seed: u64, proc: usize, round: usize, modulus: u32) -> u32 {
    let mut z = seed ^ ((proc as u64) << 32 | round as u64);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % modulus as u64) as u32
}

fn spinlock_scripts(seed: u64, procs: usize, rounds: usize, locks: u32) -> Vec<Vec<Op>> {
    (0..procs)
        .map(|p| {
            let mut ops = Vec::with_capacity(rounds * 4);
            for r in 0..rounds {
                let lock = pick(seed, p, r, locks);
                ops.push(Op::Work {
                    stmt: 1,
                    cost: cost(seed, p, 4 * r as u64, 400),
                });
                ops.push(Op::Acquire(lock));
                ops.push(Op::Work {
                    stmt: 2,
                    cost: cost(seed, p, 4 * r as u64 + 1, 150),
                });
                ops.push(Op::Release(lock));
            }
            ops
        })
        .collect()
}

fn semaphore_scripts(seed: u64, procs: usize, rounds: usize, sems: u32) -> Vec<Vec<Op>> {
    // First half produces, second half consumes; token `t` goes to
    // semaphore `t % sems` on both sides, so per-semaphore V and P
    // counts match exactly and every consumer eventually unblocks.
    let producers = procs.div_ceil(2);
    let consumers = procs - producers;
    let tokens = producers * rounds;
    (0..procs)
        .map(|p| {
            let mut ops = Vec::new();
            if p < producers {
                for (step, t) in (0..tokens).filter(|t| t % producers == p).enumerate() {
                    ops.push(Op::Work {
                        stmt: 1,
                        cost: cost(seed, p, step as u64, 300),
                    });
                    ops.push(Op::SemV(t as u32 % sems));
                }
            } else {
                let c = p - producers;
                for (step, t) in (0..tokens).filter(|t| t % consumers == c).enumerate() {
                    ops.push(Op::SemP(t as u32 % sems));
                    ops.push(Op::Work {
                        stmt: 2,
                        cost: cost(seed, p, step as u64, 250),
                    });
                }
            }
            ops
        })
        .collect()
}

fn forkjoin_scripts(seed: u64, procs: usize, rounds: usize) -> Vec<Vec<Op>> {
    let workers = procs - 1;
    let mut scripts: Vec<Vec<Op>> = vec![Vec::new(); procs];
    for r in 0..rounds {
        // The parent forks every worker's task before joining any, so a
        // wave runs concurrently; task ids are unique across the trace.
        for w in 0..workers {
            let task = (r * workers + w) as u32;
            scripts[0].push(Op::Work {
                stmt: 1,
                cost: cost(seed, 0, 2 * (r * workers + w) as u64, 120),
            });
            scripts[0].push(Op::Fork(task));
            scripts[w + 1].push(Op::Begin(task));
            scripts[w + 1].push(Op::Work {
                stmt: 2,
                cost: cost(seed, w + 1, r as u64, 500),
            });
            scripts[w + 1].push(Op::End(task));
        }
        for w in 0..workers {
            let task = (r * workers + w) as u32;
            scripts[0].push(Op::Work {
                stmt: 3,
                cost: cost(seed, 0, 2 * (r * workers + w) as u64 + 1, 80),
            });
            scripts[0].push(Op::JoinRet(task));
        }
    }
    scripts
}

/// Executes the scripts under a greedy earliest-stamp discrete
/// simulation and records the events. Blocked ops (acquire of a held
/// lock, P of an empty semaphore, begin before spawn, join-return
/// before child end) are simply not runnable until their enabling
/// event has been recorded, which is exactly the measured ordering
/// convention.
fn simulate(seed: u64, scripts: &[Vec<Op>], oh: &OverheadSpec) -> Trace {
    struct ProcSt {
        time: u64,
        next: usize,
    }
    let mut procs: Vec<ProcSt> = scripts
        .iter()
        .enumerate()
        // Seeded start skew so contention order varies across seeds.
        .map(|(p, _)| ProcSt {
            time: pick(seed ^ 0xA5A5, p, 0, 200) as u64,
            next: 0,
        })
        .collect();
    // `None` holder means free; the value is the releasing stamp.
    let mut lock_free: HashMap<u32, u64> = HashMap::new();
    let mut lock_held: HashMap<u32, bool> = HashMap::new();
    let mut sem_tokens: HashMap<u32, VecDeque<u64>> = HashMap::new();
    let mut spawned: HashMap<u32, u64> = HashMap::new();
    let mut ended: HashMap<u32, u64> = HashMap::new();

    let mut b = TraceBuilder::measured();
    loop {
        // Earliest-stamp runnable op; ties break on (arrival, proc) so
        // grants are FIFO in arrival order and fully deterministic.
        let mut best: Option<(u64, u64, usize)> = None;
        for (p, st) in procs.iter().enumerate() {
            let Some(op) = scripts[p].get(st.next) else {
                continue;
            };
            let stamp = match *op {
                Op::Work { .. } | Op::Release(_) | Op::SemV(_) | Op::Fork(_) | Op::End(_) => {
                    Some(st.time)
                }
                Op::Acquire(lock) => (!lock_held.get(&lock).copied().unwrap_or(false))
                    .then(|| st.time.max(lock_free.get(&lock).copied().unwrap_or(0))),
                Op::SemP(sem) => sem_tokens
                    .get(&sem)
                    .and_then(|q| q.front())
                    .map(|&v| st.time.max(v)),
                Op::Begin(task) => spawned.get(&task).map(|&s| st.time.max(s)),
                Op::JoinRet(task) => ended.get(&task).map(|&e| st.time.max(e)),
            };
            if let Some(stamp) = stamp {
                let key = (stamp, st.time, p);
                if best.is_none_or(|k| key < (k.0, k.1, k.2)) {
                    best = Some(key);
                }
            }
        }
        let Some((stamp, _, p)) = best else {
            break;
        };
        let op = scripts[p][procs[p].next];
        procs[p].next += 1;
        b = b.on(p as u16).at(stamp);
        let after = match op {
            Op::Work { stmt, cost } => {
                b = b.stmt(stmt);
                cost + oh.statement_event.as_nanos()
            }
            Op::Acquire(lock) => {
                lock_held.insert(lock, true);
                b = b.lock_acquire(lock);
                oh.await_end_instr.as_nanos()
            }
            Op::Release(lock) => {
                lock_held.insert(lock, false);
                lock_free.insert(lock, stamp);
                b = b.lock_release(lock);
                oh.advance_instr.as_nanos()
            }
            Op::SemP(sem) => {
                sem_tokens
                    .get_mut(&sem)
                    .expect("runnable P has a token")
                    .pop_front();
                b = b.sem_acquire(sem);
                oh.await_end_instr.as_nanos()
            }
            Op::SemV(sem) => {
                sem_tokens.entry(sem).or_default().push_back(stamp);
                b = b.sem_release(sem);
                oh.advance_instr.as_nanos()
            }
            Op::Fork(task) => {
                spawned.insert(task, stamp);
                b = b.task_fork(task);
                oh.advance_instr.as_nanos()
            }
            Op::Begin(task) => {
                b = b.task_fork(task);
                oh.await_end_instr.as_nanos()
            }
            Op::End(task) => {
                ended.insert(task, stamp);
                b = b.task_join(task);
                oh.advance_instr.as_nanos()
            }
            Op::JoinRet(task) => {
                b = b.task_join(task);
                oh.await_end_instr.as_nanos()
            }
        };
        procs[p].time = stamp + after;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{pair_sync_events, EventKind};

    fn families() -> [ScenarioConfig; 3] {
        ScenarioFamily::ALL.map(ScenarioConfig::small)
    }

    #[test]
    fn scenarios_are_well_formed_measured_traces() {
        for cfg in families() {
            for seed in 0..8 {
                let t = scenario_trace(seed, &cfg);
                assert!(!t.is_empty(), "{} seed {seed} is empty", cfg.family);
                assert!(
                    t.is_totally_ordered(),
                    "{} seed {seed} is not totally ordered",
                    cfg.family
                );
                let idx = pair_sync_events(&t)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", cfg.family));
                assert!(
                    !idx.episodes.is_empty(),
                    "{} seed {seed} has no episodes",
                    cfg.family
                );
            }
        }
    }

    #[test]
    fn scenarios_are_seed_deterministic() {
        for cfg in families() {
            let a = scenario_trace(42, &cfg);
            let b = scenario_trace(42, &cfg);
            assert_eq!(a.events(), b.events());
            let c = scenario_trace(43, &cfg);
            assert_ne!(a.events(), c.events(), "{}: seed must matter", cfg.family);
        }
    }

    #[test]
    fn enabling_events_precede_blocked_events_in_the_stream() {
        for cfg in families() {
            let t = scenario_trace(7, &cfg);
            let idx = pair_sync_events(&t).unwrap();
            let events = t.events();
            for ep in &idx.episodes {
                if let Some(dep) = ep.dep {
                    assert!(
                        dep < ep.event,
                        "{}: enabling event {dep} recorded after blocked event {}",
                        cfg.family,
                        ep.event
                    );
                    assert!(events[dep].time <= events[ep.event].time);
                }
            }
        }
    }

    #[test]
    fn spinlock_actually_contends() {
        let t = scenario_trace(3, &ScenarioConfig::small(ScenarioFamily::Spinlock));
        let acquires = t
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LockAcquire { .. }))
            .count();
        // 4 procs × 6 rounds, every round one acquire.
        assert_eq!(acquires, 24);
    }
}
