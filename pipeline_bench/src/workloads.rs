//! The five workloads: set-up (fixtures, reference outputs, oracle,
//! daemon), one timed run, and tear-down.
//!
//! A *run* is every operation of the workload, one after another; an
//! *operation* is one `ppa` invocation or one served stream, and it
//! fails on a non-zero exit, a refused or errored session, or output
//! that is not byte-identical to the reference taken at set-up.

use crate::child::{run_ppa, Daemon, Usage};
use crate::fixtures::{self, Fixture, Sizes};
use crate::spans::Recorder;
use ppa::check::{ReportChecker, TraceLinter, Violation};
use ppa::server::{send_trace, SendOutcome, Target, DEFAULT_FRAME_BYTES};
use ppa::sim::ScenarioFamily;
use ppa::slice::SliceSpec;
use ppa::trace::{AnyTraceReader, Event, TraceFormat};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JsonlDoacross,
    BinDoacross,
    BinEpisodes,
    ServeCkpt,
    SliceQuery,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::JsonlDoacross,
        Workload::BinDoacross,
        Workload::BinEpisodes,
        Workload::ServeCkpt,
        Workload::SliceQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JsonlDoacross => "jsonl_doacross",
            Workload::BinDoacross => "bin_doacross",
            Workload::BinEpisodes => "bin_episodes",
            Workload::ServeCkpt => "serve_ckpt",
            Workload::SliceQuery => "slice_query",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `ppa` invocation and the bytes it must produce.
pub struct Op {
    pub args: Vec<String>,
    pub out: PathBuf,
    pub reference: Vec<u8>,
    /// Events in the operation's input file.
    pub input_events: u64,
}

/// A workload ready to be timed.
pub struct Prepared {
    pub workload: Workload,
    pub ppa: PathBuf,
    pub dir: PathBuf,
    /// The workload's inputs; index 0 is its primary fixture.
    pub fixtures: Vec<Fixture>,
    pub ops: Vec<Op>,
    /// `serve_ckpt` only.
    pub daemon: Option<Daemon>,
    /// Streams sent so far, so every served stream has a fresh name.
    served: u64,
    pub checkpoint_every: u64,
}

/// What one run cost.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    pub wall_s: f64,
    /// Children's user+sys; 0 for `serve_ckpt`, whose daemon is only
    /// accounted when it exits.
    pub cpu_s: f64,
    pub rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One `server.send` call, timed on the sending thread.
pub struct SendSpan {
    pub start: Instant,
    pub end: Instant,
    pub frames: f64,
    pub bytes: f64,
}

/// Time window covering the middle third of `events`, as `--window`
/// spells it.
pub fn middle_third(events: &[Event]) -> String {
    let first = events.first().map_or(0, |e| e.time.as_nanos());
    let last = events.last().map_or(0, |e| e.time.as_nanos());
    let third = (last - first) / 3;
    format!("{}ns..{}ns", first + third, first + 2 * third)
}

/// Streams `trace` to the daemon as one `(tenant, stream)` session;
/// true when the server answered `DONE`.
pub fn send_one(daemon: &Daemon, tenant: &str, stream: &str, trace: &Path) -> (bool, SendSpan) {
    let bytes = fs::metadata(trace).map_or(0, |m| m.len()) as f64;
    let target = Target::Unix(daemon.socket.clone());
    let start = Instant::now();
    let sent = send_trace(&target, tenant, stream, trace, DEFAULT_FRAME_BYTES);
    let span = SendSpan {
        start,
        end: Instant::now(),
        frames: (bytes / DEFAULT_FRAME_BYTES as f64).ceil(),
        bytes,
    };
    (matches!(sent, Ok(SendOutcome::Done { .. })), span)
}

pub fn decode_file(path: &Path) -> Result<Vec<Event>, String> {
    let file = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    AnyTraceReader::open(std::io::BufReader::new(file))
        .and_then(|r| r.collect::<Result<Vec<_>, _>>())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn no_violations(what: &str, violations: Vec<Violation>) -> Result<(), String> {
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: {} violation(s), first: {v}",
            violations.len()
        )),
    }
}

fn lint(what: &str, mut linter: TraceLinter, events: &[Event]) -> Result<(), String> {
    events.iter().for_each(|e| linter.push(e));
    no_violations(what, linter.finish())
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

impl Prepared {
    /// Sets one workload up under `dir`: generates its fixtures from
    /// `seed`, lints them, runs every operation once for its reference
    /// output (which also warms the page cache), checks the references
    /// and the cross-path identities, and starts the daemon.
    pub fn setup(
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        ppa: &Path,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Result<Prepared, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut p = Prepared {
            workload,
            ppa: ppa.to_path_buf(),
            dir: dir.to_path_buf(),
            fixtures: Vec::new(),
            ops: Vec::new(),
            daemon: None,
            served: 0,
            checkpoint_every: sizes.checkpoint_every,
        };
        let path = |name: &str| dir.join(name).display().to_string();
        match workload {
            Workload::JsonlDoacross => {
                let events = fixtures::doacross(rec, seed, sizes.small_iters);
                lint("doacross.jsonl", TraceLinter::new(), &events)?;
                p.add_fixture("doacross.jsonl", TraceFormat::Jsonl, events.clone())?;
                // The binary twin only feeds the identity below.
                p.add_fixture("doacross.bin", TraceFormat::Binary, events)?;
                p.add_analyze(0, &[], "report.jsonl")?;
                // JSONL-in report == binary-in report.
                p.identity(
                    "binary-in == JSONL-in",
                    &[&path("doacross.bin"), "--stream"],
                    0,
                )?;
            }
            Workload::BinDoacross => {
                let events = fixtures::doacross(rec, seed, sizes.large_iters);
                lint("doacross.bin", TraceLinter::new(), &events)?;
                p.add_fixture("doacross.bin", TraceFormat::Binary, events)?;
                p.add_analyze(0, &["--format", "bin"], "report.bin")?;
            }
            Workload::BinEpisodes => {
                for (i, family) in ScenarioFamily::ALL.into_iter().enumerate() {
                    let events = fixtures::episodes(rec, seed, family, sizes.episode_rounds);
                    let name = format!("episodes_{family}.bin");
                    lint(&name, TraceLinter::new(), &events)?;
                    p.add_fixture(&name, TraceFormat::Binary, events)?;
                    p.add_analyze(i, &["--format", "bin"], &format!("report_{family}.bin"))?;
                }
            }
            Workload::ServeCkpt => {
                let events = fixtures::doacross(rec, seed, sizes.small_iters);
                lint("doacross.bin", TraceLinter::new(), &events)?;
                let shuffled = fixtures::shuffle_blocks(&events, seed);
                p.add_fixture("doacross_shuf.bin", TraceFormat::Binary, shuffled)?;
                p.add_fixture("doacross.bin", TraceFormat::Binary, events)?;
                // Batch reference from the in-order file; every served
                // report must equal it (served == batch).
                p.add_analyze(1, &[], "report.jsonl")?;
                // shuffled + --reorder-window 64 == in-order.
                p.identity(
                    "shuffled + reorder == in-order",
                    &[
                        &path("doacross_shuf.bin"),
                        "--stream",
                        "--reorder-window",
                        "64",
                    ],
                    0,
                )?;
                p.daemon = Some(
                    Daemon::start(ppa, dir, sizes.checkpoint_every)
                        .map_err(|e| format!("ppa serve: {e}"))?,
                );
                // Warm-up: one served run, checked like every other.
                let warm = p.run_once(None)?;
                if warm.failed > 0 {
                    return Err("served report differs from the batch report".into());
                }
            }
            Workload::SliceQuery => {
                let events = fixtures::doacross(rec, seed, sizes.large_iters);
                let window = middle_third(&events);
                let periodic = fixtures::periodic(seed, sizes.periodic_events);
                lint("periodic.bin", TraceLinter::new(), &periodic)?;
                p.add_fixture("doacross.bin", TraceFormat::Binary, events)?;
                p.add_fixture("periodic.bin", TraceFormat::Binary, periodic)?;
                // (a) window + procs: skip-index pushdown.
                p.add_slice(0, &["--window", &window, "--procs", "0..3"], "a.bin")?;
                p.slice_matches(0, &format!("window={window} procs=0..3"))?;
                // (b) kind filter: full decode, small output.
                p.add_slice(0, &["--kind", "sync"], "b.bin")?;
                p.slice_matches(1, "kind=sync")?;
                // (c) suppress, then (d) expand what (c) produced.
                p.add_slice(1, &["--suppress"], "c.bin")?;
                let suppressed = decode_file(&dir.join("c.bin"))?;
                lint("c.bin", TraceLinter::for_slice(), &suppressed)?;
                let sup_path = dir.join("periodic_sup.bin");
                fs::copy(dir.join("c.bin"), &sup_path).map_err(|e| format!("c.bin: {e}"))?;
                p.fixtures.push(Fixture {
                    path: sup_path,
                    events: suppressed,
                });
                p.add_slice(2, &["--expand", "--format", "bin"], "d.bin")?;
                // suppress -> expand == original, event for event.
                if decode_file(&dir.join("d.bin"))? != p.fixtures[1].events {
                    return Err("suppress -> expand is not the identity".into());
                }
            }
        }
        // References now live in memory; the files would only be
        // mistaken for a timed run's output.
        for op in &p.ops {
            fs::remove_file(&op.out).ok();
        }
        Ok(p)
    }

    fn add_fixture(
        &mut self,
        name: &str,
        format: TraceFormat,
        events: Vec<Event>,
    ) -> Result<(), String> {
        self.fixtures
            .push(fixtures::write_fixture(&self.dir, name, format, events)?);
        Ok(())
    }

    /// Adds `ppa analyze <fixture> --stream <flags> --out <out>`, runs
    /// it once for its reference report, and checks that report against
    /// the §4.2.3 conservation laws.
    fn add_analyze(&mut self, fixture: usize, flags: &[&str], out: &str) -> Result<(), String> {
        let mut args = strs(&["analyze", &self.fixtures[fixture].path_str(), "--stream"]);
        args.extend(strs(flags));
        args.extend([
            "--out".to_string(),
            self.dir.join(out).display().to_string(),
        ]);
        self.add_op(args, out, fixture)?;
        let mut checker = ReportChecker::new();
        decode_file(&self.dir.join(out))?
            .iter()
            .for_each(|e| checker.push(e));
        no_violations(out, checker.finish())
    }

    /// Adds `ppa slice <fixture> <out> <flags> --force` and runs it
    /// once for its reference output.
    fn add_slice(&mut self, fixture: usize, flags: &[&str], out: &str) -> Result<(), String> {
        let input = self.fixtures[fixture].path_str();
        let output = self.dir.join(out).display().to_string();
        let mut args = strs(&["slice", &input, &output]);
        args.extend(strs(flags));
        args.push("--force".to_string());
        self.add_op(args, out, fixture)
    }

    fn add_op(&mut self, args: Vec<String>, out: &str, fixture: usize) -> Result<(), String> {
        let out = self.dir.join(out);
        let usage = run_ppa(&self.ppa, &args).map_err(|e| format!("spawn ppa: {e}"))?;
        if !usage.ok {
            return Err(format!("ppa {} failed at set-up", args.join(" ")));
        }
        let reference = fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        self.ops.push(Op {
            args,
            out,
            reference,
            input_events: self.fixtures[fixture].events.len() as u64,
        });
        Ok(())
    }

    /// Pins one cross-path identity: `ppa analyze <args> --out tmp`
    /// must reproduce operation `op`'s reference byte for byte.
    fn identity(&self, what: &str, args: &[&str], op: usize) -> Result<(), String> {
        let tmp = self.dir.join("identity.out");
        let mut full = strs(&["analyze"]);
        full.extend(strs(args));
        full.extend(["--out".to_string(), tmp.display().to_string()]);
        let usage = run_ppa(&self.ppa, &full).map_err(|e| format!("ppa analyze: {e}"))?;
        let same = usage.ok && fs::read(&tmp).ok().as_deref() == Some(&self.ops[op].reference);
        fs::remove_file(&tmp).ok();
        if same {
            Ok(())
        } else {
            Err(format!("identity broken: {what}"))
        }
    }

    /// The reference slice of operation `op` must equal the naive
    /// filter of its input.
    fn slice_matches(&self, op: usize, expr: &str) -> Result<(), String> {
        let spec = SliceSpec::parse(expr).map_err(|e| format!("{expr}: {e}"))?;
        let want: Vec<Event> = self.fixtures[0]
            .events
            .iter()
            .filter(|e| spec.matches(e))
            .copied()
            .collect();
        let got = decode_file(&self.ops[op].out)?;
        lint(expr, TraceLinter::for_slice(), &got)?;
        if got == want && !want.is_empty() {
            Ok(())
        } else {
            Err(format!("slice `{expr}` differs from the naive filter"))
        }
    }

    /// In-order events of the workload's first input, for the layers
    /// the traced run probes off the workload's path.
    pub fn primary_events(&self) -> &[Event] {
        match self.workload {
            // fixtures[0] is the shuffled file.
            Workload::ServeCkpt => &self.fixtures[1].events,
            _ => &self.fixtures[0].events,
        }
    }

    /// Runs served so far, warm-up included.
    pub fn served_runs(&self) -> u64 {
        self.served
    }

    /// Input events of one run.
    pub fn events_per_run(&self) -> u64 {
        match self.workload {
            Workload::ServeCkpt => 2 * self.fixtures[0].events.len() as u64,
            _ => self.ops.iter().map(|o| o.input_events).sum(),
        }
    }

    /// One timed run. `sends`, when given, receives one entry per
    /// served stream (the traced run's `server.send` spans).
    pub fn run_once(&mut self, sends: Option<&mut Vec<SendSpan>>) -> Result<RunCost, String> {
        if self.workload == Workload::ServeCkpt {
            return self.serve_once(sends);
        }
        let mut cost = RunCost {
            wall_s: 0.0,
            cpu_s: 0.0,
            rss_mib: 0.0,
            attempted: 0,
            failed: 0,
        };
        for op in &self.ops {
            let usage: Usage =
                run_ppa(&self.ppa, &op.args).map_err(|e| format!("spawn ppa: {e}"))?;
            // The comparison and the clean-up are the harness's work,
            // not the program's: outside the operation's wall time.
            let same = fs::read(&op.out).ok().as_deref() == Some(&op.reference);
            fs::remove_file(&op.out).ok();
            cost.wall_s += usage.wall_s;
            cost.cpu_s += usage.cpu_s;
            cost.rss_mib = cost.rss_mib.max(usage.rss_mib);
            cost.attempted += 1;
            cost.failed += u64::from(!(usage.ok && same));
        }
        Ok(cost)
    }

    /// Two closed-loop connections (tenants `a` and `b`) each stream
    /// the shuffled trace; wall time runs from before the first connect
    /// until the last `DONE`.
    fn serve_once(&mut self, sends: Option<&mut Vec<SendSpan>>) -> Result<RunCost, String> {
        let daemon = self.daemon.as_ref().ok_or("serve_ckpt has no daemon")?;
        let trace = &self.fixtures[0].path;
        let stream = format!("s{}", self.served);
        self.served += 1;
        let started = Instant::now();
        let results: Vec<(bool, SendSpan)> = std::thread::scope(|scope| {
            let handles: Vec<_> = ["a", "b"]
                .into_iter()
                .map(|tenant| {
                    let stream = &stream;
                    scope.spawn(move || send_one(daemon, tenant, stream, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("send thread does not panic"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut failed = 0;
        for (tenant, (done, _)) in ["a", "b"].into_iter().zip(&results) {
            let report = daemon.report_path(tenant, &stream);
            let same = fs::read(&report).ok().as_deref() == Some(&self.ops[0].reference);
            fs::remove_file(&report).ok();
            failed += u64::from(!(*done && same));
        }
        if let Some(sends) = sends {
            sends.extend(results.into_iter().map(|(_, span)| span));
        }
        Ok(RunCost {
            wall_s,
            cpu_s: 0.0,
            rss_mib: 0.0,
            attempted: 2,
            failed,
        })
    }

    /// Stops the daemon (returning what the kernel accounted to it) and
    /// deletes the work directory.
    pub fn teardown(mut self) -> Result<Option<Usage>, String> {
        let usage = match self.daemon.take() {
            Some(d) => Some(d.stop().map_err(|e| format!("stop ppa serve: {e}"))?),
            None => None,
        };
        fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        Ok(usage)
    }
}
