//! `ppa-pipeline-bench`: the repo's one benchmark.
//!
//! End-to-end numbers come from the real release `ppa` binary (and a
//! real `ppa serve` daemon) run as child processes on seeded, generated
//! input files; per-layer numbers come from a separate traced run in
//! which this harness calls each layer's public functions over the same
//! bytes. See `README.md` beside this crate for the metric, workload
//! and layer tables and how to read the output.
//!
//! Two front doors:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload and prints one JSON object as the last line of stdout
//!   (the `BENCHMARK.json` contract);
//! - without `--workload` every workload runs end to end and traced,
//!   one line per metric is printed, and `result.json` plus one span
//!   file per workload are written (`--smoke`: tiny sizes, one timed
//!   run; `--aa`: the whole set twice, compared against the bounds).

mod child;
mod fixtures;
mod layers;
mod spans;
mod stats;
mod workloads;

use fixtures::Sizes;
use spans::Recorder;
use stats::{summarize, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Prepared, RunCost, SendSpan, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1991;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One printed metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value and their interquartile spread, for
    /// the timings that have them.
    samples: Option<Summary>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// What one measurement (end-to-end or traced) of one workload found.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

struct Harness {
    ppa: PathBuf,
    /// `<target dir>/ppa-bench`: work directories, `result.json`, span
    /// files.
    out_dir: PathBuf,
    sizes: Sizes,
    /// Timed runs a measurement makes at the least.
    min_runs: usize,
    span_ns: f64,
}

struct Measured {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss_mib: f64,
    attempted: u64,
    failed: u64,
}

/// Runs the workload until `seconds` have passed and at least
/// `min_runs` runs are in.
fn measure(
    p: &mut Prepared,
    seconds: f64,
    min_runs: usize,
    mut sends: Option<&mut Vec<SendSpan>>,
) -> Result<Measured, String> {
    let mut m = Measured {
        wall: Vec::new(),
        cpu: Vec::new(),
        rss_mib: 0.0,
        attempted: 0,
        failed: 0,
    };
    let began = Instant::now();
    while m.wall.len() < min_runs || began.elapsed().as_secs_f64() < seconds {
        let cost: RunCost = p.run_once(sends.as_deref_mut())?;
        m.wall.push(cost.wall_s);
        m.cpu.push(cost.cpu_s);
        m.rss_mib = m.rss_mib.max(cost.rss_mib);
        m.attempted += cost.attempted;
        m.failed += cost.failed;
    }
    Ok(m)
}

impl Harness {
    /// This process's own work directory, so concurrent harnesses
    /// (a test beside a manual run) share no fixture path.
    fn work_root(&self) -> PathBuf {
        self.out_dir
            .join("work")
            .join(std::process::id().to_string())
    }

    fn work_dir(&self, w: Workload) -> PathBuf {
        self.work_root().join(w.name())
    }

    /// The end-to-end measurement: tracing off, nothing but the
    /// generated files handed to the binary.
    fn end_to_end(&self, w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let dir = self.work_dir(w);
        let mut rec = Recorder::new(false);
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut prepared: Option<Prepared> = None;
        for _ in 0..SETUPS {
            if let Some(p) = prepared.take() {
                p.teardown()?;
            }
            let t = Instant::now();
            prepared = Some(Prepared::setup(
                w,
                seed,
                &self.sizes,
                &self.ppa,
                &dir,
                &mut rec,
            )?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut p = prepared.expect("SETUPS is at least one");
        let events = p.events_per_run() as f64;
        let m = measure(&mut p, seconds, self.min_runs, None)?;
        let daemon = p.teardown()?;
        let wall = summarize(&m.wall);
        let setup = summarize(&setup_s);
        let rss = daemon.map_or(m.rss_mib, |d| m.rss_mib.max(d.rss_mib));
        let timed = |name, value, unit, s: Summary| Metric {
            name,
            value,
            unit,
            samples: Some(s),
        };
        Ok(Outcome {
            metrics: vec![
                timed("events_per_s", events / wall.median, "events/s", wall),
                timed("wall_s", wall.median, "s", wall),
                metric("peak_rss_mib", rss, "MiB"),
                timed("setup_s", setup.median, "s", setup),
            ],
            attempted: m.attempted,
            failed: m.failed + u64::from(daemon.is_some_and(|d| !d.ok)),
        })
    }

    /// The traced run: a short end-to-end measurement for the wall
    /// clock the layers are set beside, then the in-process replay
    /// under spans. Returns the per-layer metrics and the recorder.
    fn traced(&self, w: Workload, seed: u64, seconds: f64) -> Result<(Outcome, Recorder), String> {
        let dir = self.work_dir(w);
        let mut rec = Recorder::new(true);
        let root = rec.enter(w.name());

        let span = rec.enter("setup");
        let mut p = Prepared::setup(w, seed, &self.sizes, &self.ppa, &dir, &mut rec)?;
        rec.exit(span, &[]);

        let span = rec.enter("e2e");
        let mut sends = Vec::new();
        let m = measure(&mut p, seconds / 2.0, self.min_runs, Some(&mut sends))?;
        layers::add_sends(&mut rec, &sends);
        rec.exit(span, &[("runs", m.wall.len() as f64)]);
        let wall_s = stats::median(&m.wall);

        // `ppa analyze` of a header-only trace: process start, argument
        // parsing, reader and writer set-up, nothing else.
        let empty = fixtures::write_fixture(
            &dir,
            "empty.bin",
            ppa::trace::TraceFormat::Binary,
            Vec::new(),
        )?;
        let args = ["analyze".to_string(), empty.path_str(), "--stream".into()];
        let mut startup = Vec::new();
        for _ in 0..5 {
            let u = child::run_ppa(&self.ppa, &args).map_err(|e| format!("spawn ppa: {e}"))?;
            if !u.ok {
                return Err("ppa analyze of a header-only trace failed".into());
            }
            startup.push(u.wall_s);
        }

        // The same replay with span recording off, then on: the
        // difference is what tracing costs.
        let t = Instant::now();
        layers::replay(&mut Recorder::new(false), &p);
        let untraced_s = t.elapsed().as_secs_f64();
        let span = rec.enter("path");
        let t = Instant::now();
        layers::replay(&mut rec, &p);
        let traced_s = t.elapsed().as_secs_f64();
        rec.exit(span, &[]);

        let span = rec.enter("offpath");
        let probe_cpu = layers::probe_missing(&mut rec, &p)?;
        rec.exit(span, &[]);
        rec.exit(root, &[]);

        let served_runs = p.served_runs().max(1) as f64;
        let daemon = p.teardown()?;
        // `serve_ckpt` keeps one daemon across its runs and sends two
        // streams in each: the daemon's CPU and the `server.send` spans
        // are reported per run, like `wall_s`. Elsewhere they are the
        // probe daemon's and its one stream's.
        let daemon_cpu = match daemon {
            Some(d) => d.cpu_s / served_runs,
            None => probe_cpu.unwrap_or(0.0),
        };
        let cpu_s = match daemon {
            Some(_) => daemon_cpu,
            None => stats::median(&m.cpu),
        };
        let send_runs = match daemon {
            Some(_) => m.wall.len() as f64,
            None => 1.0,
        };

        let attributed: f64 = layers::path_of(w).iter().map(|l| rec.busy_s(l)).sum();
        let share = attributed / wall_s;
        eprintln!(
            "{}: wall_s {wall_s:.4}  sum of path busy_s {attributed:.4}  attributed_share \
             {share:.3}{}  (path: {})",
            w.name(),
            if (0.8..=1.25).contains(&share) {
                ""
            } else {
                "  [outside 0.8-1.25]"
            },
            layers::path_of(w).join(" + "),
        );
        eprintln!(
            "{}: replay {untraced_s:.4} s untraced, {traced_s:.4} s traced: tracing overhead \
             {:+.4} s",
            w.name(),
            traced_s - untraced_s
        );

        use layers::*;
        let busy = |name| rec.busy_s(name);
        let count = |name, key| rec.count(name, key);
        let metrics = vec![
            metric("trace.jsonl_decode.busy_s", busy(JSONL_DECODE), "s"),
            metric(
                "trace.jsonl_decode.events",
                count(JSONL_DECODE, "events"),
                "count",
            ),
            metric(
                "trace.jsonl_decode.bytes",
                count(JSONL_DECODE, "bytes"),
                "B",
            ),
            metric("trace.jsonl_encode.busy_s", busy(JSONL_ENCODE), "s"),
            metric(
                "trace.jsonl_encode.events",
                count(JSONL_ENCODE, "events"),
                "count",
            ),
            metric(
                "trace.jsonl_encode.bytes",
                count(JSONL_ENCODE, "bytes"),
                "B",
            ),
            metric("trace.bin_decode.busy_s", busy(BIN_DECODE), "s"),
            metric(
                "trace.bin_decode.events",
                count(BIN_DECODE, "events"),
                "count",
            ),
            metric("trace.bin_decode.bytes", count(BIN_DECODE, "bytes"), "B"),
            metric("trace.bin_decode_par.busy_s", busy(BIN_DECODE_PAR), "s"),
            metric("trace.bin_encode.busy_s", busy(BIN_ENCODE), "s"),
            metric(
                "trace.bin_encode.events",
                count(BIN_ENCODE, "events"),
                "count",
            ),
            metric("trace.bin_encode.bytes", count(BIN_ENCODE, "bytes"), "B"),
            metric("trace.crc32.busy_s", busy(CRC32), "s"),
            metric("trace.crc32.bytes", count(CRC32, "bytes"), "B"),
            metric("trace.reorder.busy_s", busy(REORDER), "s"),
            metric("trace.reorder.events", count(REORDER, "events"), "count"),
            metric(
                "trace.reorder.resorted",
                count(REORDER, "resorted"),
                "count",
            ),
            metric(
                "trace.reorder.rejected",
                count(REORDER, "rejected"),
                "count",
            ),
            metric("core.analyze.busy_s", busy(ANALYZE), "s"),
            metric(
                "core.analyze.events_in",
                count(ANALYZE, "events_in"),
                "count",
            ),
            metric(
                "core.analyze.events_out",
                count(ANALYZE, "events_out"),
                "count",
            ),
            metric(
                "core.analyze.peak_resident",
                rec.max_count(ANALYZE, "peak_resident"),
                "count",
            ),
            metric("core.checkpoint.busy_s", busy(CHECKPOINT), "s"),
            metric("core.checkpoint.count", count(CHECKPOINT, "count"), "count"),
            metric("core.checkpoint.bytes", count(CHECKPOINT, "bytes"), "B"),
            metric("core.expand.busy_s", busy(EXPAND), "s"),
            metric(
                "core.expand.events_out",
                count(EXPAND, "events_out"),
                "count",
            ),
            metric("slice.filter.busy_s", busy(FILTER), "s"),
            metric(
                "slice.filter.events_in",
                count(FILTER, "events_in"),
                "count",
            ),
            metric(
                "slice.filter.events_out",
                count(FILTER, "events_out"),
                "count",
            ),
            metric(
                "slice.filter.blocks_skipped",
                count(FILTER, "blocks_skipped"),
                "count",
            ),
            metric("slice.suppress.busy_s", busy(SUPPRESS), "s"),
            metric(
                "slice.suppress.events_in",
                count(SUPPRESS, "events_in"),
                "count",
            ),
            metric(
                "slice.suppress.records_out",
                count(SUPPRESS, "records_out"),
                "count",
            ),
            metric(
                "slice.suppress.suppressed_share",
                count(SUPPRESS, "suppressed") / count(SUPPRESS, "events_in"),
                "ratio",
            ),
            metric("server.send.busy_s", busy(SEND) / send_runs, "s"),
            metric(
                "server.send.frames",
                count(SEND, "frames") / send_runs,
                "count",
            ),
            metric("server.send.bytes", count(SEND, "bytes") / send_runs, "B"),
            metric("server.daemon.cpu_s", daemon_cpu, "s"),
            metric("cli.startup_s", stats::median(&startup), "s"),
            metric("cli.cpu_s", cpu_s, "s"),
            metric("cli.unattributed_s", wall_s - attributed, "s"),
            metric("cli.attributed_share", share, "ratio"),
            metric("sim.generate.busy_s", busy(GENERATE), "s"),
            metric("sim.generate.events", count(GENERATE, "events"), "count"),
            metric("harness.span_ns", self.span_ns, "ns"),
        ];
        let outcome = Outcome {
            metrics,
            attempted: m.attempted,
            failed: m.failed + u64::from(daemon.is_some_and(|d| !d.ok)),
        };
        Ok((outcome, rec))
    }

    /// Spans are written only here, when the measurement has ended.
    fn write_spans(&self, w: Workload, rec: &Recorder) -> Result<(), String> {
        let path = self.out_dir.join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result line.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

fn check_finite(o: &Outcome) -> Result<(), String> {
    match o.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite: {}", m.name, m.value)),
        None => Ok(()),
    }
}

/// `workload name value unit n spread`, one line per metric.
fn print_lines(w: Workload, o: &Outcome) {
    for m in &o.metrics {
        let (n, spread) = match m.samples {
            Some(s) => (
                s.n.to_string(),
                format!(
                    "iqr/median={:.4} q1={} q3={} min={}",
                    s.spread(),
                    s.q1,
                    s.q3,
                    s.min
                ),
            ),
            None => ("1".to_string(), "-".to_string()),
        };
        println!(
            "{} {} {} {} {n} {spread}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

/// Filesystem type of the mount holding `path` (longest mount point
/// that prefixes it). tmpfs makes `fsync` free, so a checkpoint time
/// must say where it was measured.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata as JSON object fields.
fn host_json(seed: u64, work: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let quote = |s: String| s.replace(['"', '\\'], "'");
    format!(
        "\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"seed\": {seed}, \"work_dir_fs\": \"{}\"",
        layers::workers(),
        quote(cpu),
        quote(kernel),
        quote(command_line("rustc", &["--version"])),
        quote(command_line("git", &["rev-parse", "HEAD"])),
        quote(fs_type(work)),
    )
}

/// The parts of `BENCHMARK.json` the full run checks itself against.
struct Manifest {
    run_seconds: f64,
    workloads: Vec<String>,
    /// (name, better, bound) of each end-to-end metric.
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<String>,
}

fn load_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        v[key]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|m| m["name"].as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let end_to_end = v["end_to_end"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|m| {
                    Some((
                        m["name"].as_str()?.to_string(),
                        m["better"].as_str()?.to_string(),
                        m["bound"].as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Manifest {
        run_seconds: v["run_seconds"]
            .as_f64()
            .ok_or("BENCHMARK.json: run_seconds")?,
        workloads: names("workloads"),
        end_to_end,
        per_layer: names("per_layer"),
    })
}

/// One pass over every workload: end to end, then traced.
fn full_pass(
    h: &Harness,
    manifest: &Manifest,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(Workload, Outcome, Outcome)>, String> {
    let mut results = Vec::new();
    for name in &manifest.workloads {
        let w = Workload::parse(name)
            .ok_or_else(|| format!("BENCHMARK.json names an unknown workload {name:?}"))?;
        let e2e = h.end_to_end(w, seed, seconds)?;
        let (layers, rec) = h.traced(w, seed, seconds)?;
        check_finite(&e2e)?;
        check_finite(&layers)?;
        print_lines(w, &e2e);
        print_lines(w, &layers);
        h.write_spans(w, &rec)?;
        results.push((w, e2e, layers));
    }
    Ok(results)
}

/// Every metric `BENCHMARK.json` names is printed exactly once, and
/// nothing else is.
fn check_names(manifest: &Manifest, e2e: &Outcome, layers: &Outcome) -> Result<(), String> {
    let printed =
        |o: &Outcome| -> Vec<String> { o.metrics.iter().map(|m| m.name.into()).collect() };
    let want_e2e: Vec<String> = manifest.end_to_end.iter().map(|m| m.0.clone()).collect();
    if printed(e2e) != want_e2e || printed(layers) != manifest.per_layer {
        return Err("printed metrics differ from the names in BENCHMARK.json".into());
    }
    Ok(())
}

/// `--aa`: two sets of runs of the same binary must agree on every
/// end-to-end metric within the metric's own bound.
fn aa_disagreements(
    manifest: &Manifest,
    a: &[(Workload, Outcome, Outcome)],
    b: &[(Workload, Outcome, Outcome)],
) -> Vec<String> {
    let mut bad = Vec::new();
    for ((w, ea, _), (_, eb, _)) in a.iter().zip(b) {
        for (ma, mb) in ea.metrics.iter().zip(&eb.metrics) {
            let bound = manifest
                .end_to_end
                .iter()
                .find(|m| m.0 == ma.name)
                .map_or(0.0, |m| m.2);
            let diff = (ma.value - mb.value).abs() / ma.value.abs().min(mb.value.abs());
            println!(
                "aa {} {} {} vs {} diff={diff:.4} bound={bound}",
                w.name(),
                ma.name,
                ma.value,
                mb.value
            );
            if diff > bound {
                bad.push(format!("{} {}: {diff:.4} > {bound}", w.name(), ma.name));
            }
        }
        if ea.failed != eb.failed {
            bad.push(format!(
                "{}: failed {} vs {}",
                w.name(),
                ea.failed,
                eb.failed
            ));
        }
    }
    bad
}

fn result_json(host: &str, results: &[(Workload, Outcome, Outcome)]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|(w, e2e, layers)| {
            format!(
                "    {{\"workload\": \"{}\", \"attempted\": {}, \"failed\": {}, \
                 \"failed_share\": {},\n     \"end_to_end\": {},\n     \"per_layer\": {}}}",
                w.name(),
                e2e.attempted,
                e2e.failed,
                e2e.failed as f64 / e2e.attempted.max(1) as f64,
                metrics_json(&e2e.metrics),
                metrics_json(&layers.metrics)
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {{{host}}},\n  \"workloads\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        rows.join(",\n")
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
}

const USAGE: &str =
    "usage: ppa-pipeline-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     ppa-pipeline-bench [--seed <n>] [--seconds <s>] [--smoke | --aa]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.smoke && a.aa {
        return Err("--smoke runs no A/A comparison; pass one of --smoke and --aa".into());
    }
    Ok(a)
}

impl Harness {
    /// Finds the binary under test and the output directory, and
    /// validates the clock.
    fn locate(smoke: bool) -> Result<Harness, String> {
        // The harness and `ppa` are built into the same target
        // directory (see run.sh), so the binary under test is this
        // one's sibling.
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe.parent().ok_or("the harness binary has no directory")?;
        let ppa = bin_dir.join("ppa");
        if !ppa.is_file() {
            return Err(format!(
                "{} not found: run pipeline_bench/run.sh, which builds it",
                ppa.display()
            ));
        }
        let out_dir = bin_dir
            .parent()
            .ok_or("the harness binary is not inside a target directory")?
            .join("ppa-bench");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Harness {
            ppa,
            out_dir,
            sizes: if smoke { Sizes::smoke() } else { Sizes::FULL },
            min_runs: if smoke { 1 } else { 3 },
            span_ns: stats::validate_clock()?,
        })
    }

    /// The `BENCHMARK.json` contract: one measurement of one workload,
    /// one JSON object as the last line of stdout. The result line
    /// carries `correct`; the exit code says the measurement completed.
    fn single(&self, w: Workload, args: &Args) -> Result<bool, String> {
        let seconds = args.seconds.ok_or("--workload needs --seconds")?;
        let outcome = if args.trace {
            let (outcome, rec) = self.traced(w, args.seed, seconds)?;
            self.write_spans(w, &rec)?;
            outcome
        } else {
            self.end_to_end(w, args.seed, seconds)?
        };
        check_finite(&outcome)?;
        println!("{}", result_line(&outcome));
        Ok(true)
    }

    /// Every workload, end to end and traced (twice with `--aa`);
    /// true when nothing failed and the two sets agree.
    fn full(&self, args: &Args) -> Result<bool, String> {
        let manifest = load_manifest()?;
        let seconds = match (args.seconds, args.smoke) {
            (Some(s), _) => s,
            (None, true) => 0.0,
            (None, false) => manifest.run_seconds,
        };
        let clean = |set: &[(Workload, Outcome, Outcome)]| {
            set.iter().all(|(_, e, l)| e.failed + l.failed == 0)
        };
        let first = full_pass(self, &manifest, args.seed, seconds)?;
        for (_, e2e, layers) in &first {
            check_names(&manifest, e2e, layers)?;
        }
        let mut ok = clean(&first);
        if args.aa {
            let second = full_pass(self, &manifest, args.seed, seconds)?;
            let bad = aa_disagreements(&manifest, &first, &second);
            for line in &bad {
                eprintln!("A/A disagreement: {line}");
            }
            ok &= bad.is_empty() && clean(&second);
        }
        let path = self.out_dir.join("result.json");
        let host = host_json(args.seed, &self.out_dir);
        std::fs::write(&path, result_json(&host, &first))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("host {{{host}}}");
        println!("wrote {}", path.display());
        Ok(ok)
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let h = Harness::locate(args.smoke)?;
    let result = match args.workload {
        Some(w) => h.single(w, &args),
        None => h.full(&args),
    };
    // Work directories are deleted by `teardown`; one is left behind
    // only when a set-up or a run failed half-way.
    std::fs::remove_dir_all(h.work_root()).ok();
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ppa-pipeline-bench: correctness or A/A failure");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ppa-pipeline-bench: {e}");
            ExitCode::from(2)
        }
    }
}
