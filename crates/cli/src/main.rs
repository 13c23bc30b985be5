//! `ppa` — the experiment harness binary.
//!
//! Regenerates every table and figure of the paper's evaluation on the
//! simulator substrate and prints paper values beside reproduced ones.
//!
//! ```text
//! ppa all                  # everything below, in order
//! ppa fig1                 # Figure 1: sequential loop ratios
//! ppa table1               # Table 1: time-based analysis of loops 3/4/17
//! ppa table2               # Table 2: event-based analysis of loops 3/4/17
//! ppa table3               # Table 3: loop 17 per-processor waiting
//! ppa fig4                 # Figure 4: loop 17 waiting timeline
//! ppa fig5                 # Figure 5: loop 17 parallelism profile
//! ppa ablation overhead    # A2: accuracy vs overhead misestimation
//! ppa ablation schedule    # A1/A3: conservative vs liberal per policy
//! ppa native               # native real-thread pipeline on loop 3
//! ppa analyze t.jsonl      # event-based analysis of a measured trace
//! ppa convert a.jsonl a.bin --to bin   # transcode between trace formats
//! ppa --csv DIR <cmd>      # additionally write CSV files into DIR
//! ```
//!
//! `analyze` reads a measured trace from a file — JSONL (`ppa-trace-v1`)
//! or binary (`ppa-trace-bin-v1`), auto-detected by magic bytes — and
//! recovers the approximated (perturbation-corrected) trace; `--format
//! bin|jsonl` picks the `--out` encoding. Every run drives the one
//! bounded-memory [`ppa::analysis::Pipeline`] end to end: chunked reader
//! → [`ppa::analysis::EventBasedAnalyzer`] → chunked writer, decoding
//! binary input blocks on worker threads (`--stream` is accepted for
//! old scripts and changes nothing). Add
//! `--metrics-out snap.prom [--metrics-format prom|json]` to export a
//! pipeline-metrics snapshot and `--progress` for a stderr ticker (shown
//! only when stderr is a terminal; `--progress=force` overrides).
//!
//! The pipeline is fault-tolerant on demand: `--lenient`
//! skips undecodable input regions as typed gaps (every lost event is
//! accounted for in the summary and in the `ppa_stream_gaps_total` /
//! `ppa_stream_events_lost_total` metrics), `--reorder-window N`
//! re-sorts events arriving up to N sequence numbers late, and
//! `--checkpoint state.ckpt` (cadence: `--checkpoint-every`) makes the
//! run resumable: after a crash or kill, `--resume state.ckpt` seeks the
//! input past the already-analyzed prefix, truncates the report's torn
//! tail, and continues to a byte-identical report.
//!
//! `convert` transcodes a trace between the two formats (the input
//! format is auto-detected, `--to` names the output format); it refuses
//! to overwrite an existing output unless `--force` is given.
//!
//! `serve` runs the multi-tenant streaming ingest daemon: many
//! concurrent `(tenant, stream)` sessions over TCP and unix sockets,
//! each one a checkpointed analyzer whose report survives eviction,
//! SIGTERM, and even SIGKILL (see PROTOCOL.md for the wire format and
//! OPERATIONS.md for running it). `send` is the matching uploader:
//! `ppa send trace.bin --to 127.0.0.1:7223 --tenant acme --stream run1`.
//!
//! Failures exit with BSD-sysexits-style codes so scripts can
//! distinguish them: 64 usage error, 65 malformed input data (parse
//! errors report the offending line number), 66 missing input file,
//! 74 output I/O error.

mod analyze;

use analyze::run_analyze;
use ppa::experiments as exp;
use ppa::metrics::{
    format_ratio_table, format_waiting_table, render_bars, render_parallelism, render_timeline,
    write_parallelism_csv, write_ratios_csv, write_timeline_csv, write_waiting_csv, BarGroup,
};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A classified CLI failure. Every error path funnels through this type
/// so the exit-code mapping lives in exactly one place ([`CliError::code`]).
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown flag, missing argument): exit 64.
    Usage(String),
    /// Input exists but its content is malformed or infeasible: exit 65.
    Data(String),
    /// An input file cannot be opened: exit 66.
    NoInput(String),
    /// Writing an output failed: exit 74.
    Io(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 64,
            CliError::Data(_) => 65,
            CliError::NoInput(_) => 66,
            CliError::Io(_) => 74,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::NoInput(m) | CliError::Io(m) => {
                f.write_str(m)
            }
        }
    }
}

impl From<ppa::trace::IoError> for CliError {
    fn from(e: ppa::trace::IoError) -> Self {
        use ppa::trace::IoError;
        match e {
            // Parse errors carry the offending line number in their Display.
            IoError::Parse { .. } | IoError::BadHeader(_) | IoError::Truncated { .. } => {
                CliError::Data(e.to_string())
            }
            IoError::Io(err) => CliError::Io(err.to_string()),
        }
    }
}

impl From<ppa::analysis::AnalysisError> for CliError {
    fn from(e: ppa::analysis::AnalysisError) -> Self {
        CliError::Data(e.to_string())
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppa: {e}");
            ExitCode::from(e.code())
        }
    }
}

fn real_main() -> Result<(), CliError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        if pos + 1 >= args.len() {
            return Err(CliError::Usage("--csv needs a directory argument".into()));
        }
        csv_dir = Some(PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;
    }

    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let sub = args.get(1).map(String::as_str);
    match cmd {
        "all" => {
            fig1(csv_dir.as_deref())?;
            table1(csv_dir.as_deref())?;
            table2(csv_dir.as_deref())?;
            loop17(csv_dir.as_deref(), true, true, true)?;
            intrusion();
            accuracy();
            modes();
            order();
            decompose();
            estimate();
            ablation_overhead();
            ablation_schedule();
            native();
        }
        "fig1" => fig1(csv_dir.as_deref())?,
        "table1" => table1(csv_dir.as_deref())?,
        "table2" => table2(csv_dir.as_deref())?,
        "table3" => loop17(csv_dir.as_deref(), true, false, false)?,
        "fig4" => loop17(csv_dir.as_deref(), false, true, false)?,
        "fig5" => loop17(csv_dir.as_deref(), false, false, true)?,
        "ablation" => match sub {
            Some("overhead") => ablation_overhead(),
            Some("schedule") | Some("liberal") => ablation_schedule(),
            _ => {
                return Err(CliError::Usage(
                    "usage: ppa ablation <overhead|schedule>".into(),
                ))
            }
        },
        "native" => native(),
        "intrusion" => intrusion(),
        "accuracy" => accuracy(),
        "estimate" => estimate(),
        "decompose" => decompose(),
        "modes" => modes(),
        "order" => order(),
        "buffers" => buffers(),
        "campaign" => campaign(sub.unwrap_or("campaign.json"))?,
        "show" => {
            let id = sub
                .and_then(|s| s.parse::<u8>().ok())
                .ok_or_else(|| CliError::Usage("usage: ppa show <kernel 1-24>".into()))?;
            show(id)?;
        }
        "analyze" => run_analyze(&args[1..])?,
        "convert" => run_convert(&args[1..])?,
        "slice" => run_slice(&args[1..])?,
        "check" => run_check(&args[1..])?,
        "serve" => run_serve(&args[1..])?,
        "send" => run_send(&args[1..])?,
        "help" | "--help" | "-h" => {
            println!(
                "subcommands: all fig1 table1 table2 table3 fig4 fig5 ablation native \
                 intrusion accuracy analyze convert slice check serve send"
            );
            println!(
                "analyze: ppa analyze <measured.{{jsonl|bin}}> [--out approx] \
                 [--format bin|jsonl] [--overheads spec.json] [--slice EXPR]"
            );
            println!(
                "         (the input container is auto-sniffed from its magic bytes; \
                 --format selects the output container only)"
            );
            println!(
                "         (one bounded-memory pipeline for every run; --stream is accepted \
                 and changes nothing; an unsorted trace needs --reorder-window N)"
            );
            println!(
                "         [--metrics-out snap.prom] [--metrics-format prom|json] \
                 [--metrics-every SECS] [--progress[=force]]"
            );
            println!(
                "         [--self-trace spans.{{jsonl|bin|json}}] [--self-trace-format ppa|chrome]"
            );
            println!(
                "         [--lenient] [--reorder-window N] [--decode-workers N] \
                 [--checkpoint state.ckpt [--checkpoint-every N] \
                 [--checkpoint-compact-every N]] [--resume state.ckpt]"
            );
            println!(
                "convert: ppa convert <in> <out> --to <bin|jsonl> [--block-events N] [--force]"
            );
            println!(
                "slice:   ppa slice <in> <out> [--expr EXPR] [--window A..B] [--since T] \
                 [--until T] [--procs SET] [--kind SET] [--var SET] [--tag SET] \
                 [--barrier SET]"
            );
            println!(
                "         [--suppress | --expand] [--format bin|jsonl] [--force] [--lenient] \
                 [--decode-workers N] [--metrics-out snap.prom [--metrics-format prom|json]] \
                 (see QUERIES.md)"
            );
            println!(
                "check:   ppa check <trace-report-or-checkpoint.{{jsonl|bin|ckpt}}> [--slice] \
                 [--metrics snap.{{prom|json}}] \
                 [--metrics-out snap.prom [--metrics-format prom|json]]"
            );
            println!(
                "         ppa check --differential [--seed N] [--programs N] [--scenarios N] \
                 [--decode-workers N] [--out-dir DIR]"
            );
            println!(
                "serve:   ppa serve --checkpoint-dir DIR [--listen ADDR] [--unix-socket PATH] \
                 [--metrics-listen ADDR]"
            );
            println!(
                "         [--max-sessions N] [--tenant-max-sessions N] [--tenant-max-eps N] \
                 [--tenant-max-resident-bytes N]"
            );
            println!(
                "         [--checkpoint-every N] [--checkpoint-compact-every N] \
                 [--idle-timeout-ms N] [--lenient] [--reorder-window N] \
                 [--decode-workers N] [--overheads spec.json]"
            );
            println!(
                "         [--log-format text|json] [--log-level info|debug] \
                 [--self-trace-dir DIR] [--metrics-every SECS]"
            );
            println!(
                "send:    ppa send <trace.{{jsonl|bin}}> (--to ADDR | --unix PATH) \
                 --tenant T --stream S [--frame-bytes N]"
            );
            println!("exit codes: 64 usage, 65 bad data, 66 missing input, 74 output I/O");
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown subcommand {other:?}; try `ppa help`"
            )));
        }
    }
    Ok(())
}

/// Opens `dir/name` for a CSV export. `Ok(None)` when no CSV directory
/// was requested; a create failure is a real error (exit 74), not a
/// silently-skipped export.
fn csv_file(dir: Option<&Path>, name: &str) -> Result<Option<File>, CliError> {
    let Some(dir) = dir else { return Ok(None) };
    File::create(dir.join(name))
        .map(Some)
        .map_err(|e| CliError::Io(format!("cannot create {name}: {e}")))
}

fn csv_io(name: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |e| CliError::Io(format!("cannot write {name}: {e}"))
}

fn fig1(csv: Option<&Path>) -> Result<(), CliError> {
    println!("==============================================================");
    println!("Figure 1: sequential loop execution, full statement tracing");
    println!("(measured/actual and time-based approximated/actual ratios)");
    println!("==============================================================");
    let rows = exp::fig1();
    let groups: Vec<BarGroup> = rows
        .iter()
        .map(|r| {
            (
                format!(
                    "loop {:<2} (paper measured: {})",
                    r.kernel,
                    r.paper_measured
                        .map(|v| format!("{v:.2}"))
                        .unwrap_or_default()
                ),
                vec![
                    ("measured".to_string(), r.measured_ratio),
                    ("approx".to_string(), r.approx_ratio),
                ],
            )
        })
        .collect();
    println!("{}", render_bars("", &groups, 48));
    if let Some(f) = csv_file(csv, "fig1.csv")? {
        let ratio_rows: Vec<_> = rows
            .iter()
            .map(|r| ppa::metrics::RatioRow {
                label: format!("lfk{:02}", r.kernel),
                measured_over_actual: r.measured_ratio,
                approx_over_actual: r.approx_ratio,
                paper_measured: r.paper_measured,
                paper_approx: None,
            })
            .collect();
        write_ratios_csv(&ratio_rows, f).map_err(csv_io("fig1.csv"))?;
    }
    Ok(())
}

fn table1(csv: Option<&Path>) -> Result<(), CliError> {
    println!("==============================================================");
    let rows = exp::table1();
    println!(
        "{}",
        format_ratio_table(
            "Table 1: loop execution time ratios, TIME-based analysis",
            &rows
        )
    );
    if let Some(f) = csv_file(csv, "table1.csv")? {
        write_ratios_csv(&rows, f).map_err(csv_io("table1.csv"))?;
    }
    Ok(())
}

fn table2(csv: Option<&Path>) -> Result<(), CliError> {
    println!("==============================================================");
    let rows = exp::table2();
    println!(
        "{}",
        format_ratio_table(
            "Table 2: loop execution time ratios, EVENT-based analysis",
            &rows
        )
    );
    if let Some(f) = csv_file(csv, "table2.csv")? {
        write_ratios_csv(&rows, f).map_err(csv_io("table2.csv"))?;
    }
    Ok(())
}

fn loop17(csv: Option<&Path>, t3: bool, f4: bool, f5: bool) -> Result<(), CliError> {
    let a = exp::loop17_analysis();
    if t3 {
        println!("==============================================================");
        println!(
            "{}",
            format_waiting_table(
                "Table 3: DOACROSS waiting time in loop 17 (approximated execution)\n(paper: 4.05 8.09 4.05 2.70 4.05 5.40 2.70 4.05 %)",
                &a.waiting
            )
        );
        println!(
            "ground truth (simulator): {}",
            a.ground_truth_pct
                .iter()
                .map(|p| format!("{p:.2}%"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if let Some(f) = csv_file(csv, "table3.csv")? {
            write_waiting_csv(&a.waiting, f).map_err(csv_io("table3.csv"))?;
        }
    }
    if f4 {
        println!("==============================================================");
        println!("Figure 4: approximated waiting behavior in loop 17");
        println!("{}", render_timeline(&a.timeline, 96));
        if let Some(f) = csv_file(csv, "fig4.csv")? {
            write_timeline_csv(&a.timeline, f).map_err(csv_io("fig4.csv"))?;
        }
    }
    if f5 {
        println!("==============================================================");
        println!(
            "Figure 5: approximated parallelism in loop 17 (avg over loop: {:.1}, paper: 7.5)",
            a.avg_parallelism
        );
        println!("{}", render_parallelism(&a.profile, 96, 8));
        if let Some(f) = csv_file(csv, "fig5.csv")? {
            write_parallelism_csv(&a.profile, f).map_err(csv_io("fig5.csv"))?;
        }
    }
    Ok(())
}

fn ablation_overhead() {
    println!("==============================================================");
    println!("Ablation A2: event-based accuracy vs overhead misestimation");
    println!("(analysis overhead spec scaled by factor; measurement used 1.0)");
    for kernel in [3u8, 4, 17] {
        let points =
            exp::ablation_overhead_sweep(kernel, &[0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0]);
        println!("loop {kernel:<2}:");
        for p in points {
            println!(
                "  factor {:>5.2}  approx/actual {:>7.3}  ({:+.1}%)",
                p.factor,
                p.approx_ratio,
                (p.approx_ratio - 1.0) * 100.0
            );
        }
    }
}

fn ablation_schedule() {
    println!("==============================================================");
    println!("Ablation A1/A3: conservative vs liberal analysis per dispatch policy");
    for kernel in [3u8, 4, 17] {
        println!("loop {kernel:<2}:");
        for row in exp::ablation_schedule(kernel) {
            println!(
                "  {:<14?} divergence {:>5.1}%  conservative {:>7.3}  liberal {:>7.3}  wrong-policy({:?}) {:>7.3}",
                row.policy,
                row.assignment_divergence * 100.0,
                row.conservative_ratio,
                row.liberal_ratio,
                row.wrong_policy,
                row.liberal_wrong_policy_ratio,
            );
        }
    }
}

fn show(id: u8) -> Result<(), CliError> {
    match ppa::lfk::generic_graph(id) {
        Some(program) => {
            print!("{}", ppa::program::format_program(&program));
            Ok(())
        }
        None => Err(CliError::Usage(format!(
            "kernel {id} has no graph (valid ids: 1-24)"
        ))),
    }
}

fn buffers() {
    println!("==============================================================");
    println!("Extension: finite trace memory (per-processor bounded buffers)");
    println!(
        "{:<10} {:>9} {:>12} {:>12}",
        "capacity", "dropped", "analyzable", "approx/act"
    );
    for r in exp::buffer_study(3, &[32, 128, 512, 2048, 8192]) {
        println!(
            "{:<10} {:>9} {:>12} {:>12}",
            r.capacity,
            r.dropped,
            r.analyzable,
            r.approx_ratio
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into())
        );
    }
}

fn campaign(path: &str) -> Result<(), CliError> {
    println!("running the full campaign...");
    let c = exp::run_campaign();
    let file =
        File::create(path).map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
    serde_json::to_writer_pretty(file, &c)
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    println!("campaign report written to {path}");
    Ok(())
}

fn modes() {
    println!("==============================================================");
    println!("Extension: scalar vs vector execution modes (vectorizable kernels)");
    println!(
        "{:<6} {:<8} {:>14} {:>10} {:>12}",
        "loop", "mode", "actual", "slowdown", "approx/act"
    );
    for r in exp::mode_comparison() {
        println!(
            "{:<6} {:<8} {:>14} {:>9.2}x {:>12.3}",
            r.kernel,
            r.mode,
            r.actual.to_string(),
            r.slowdown,
            r.approx_ratio
        );
    }
}

fn order() {
    println!("==============================================================");
    println!("Extension: event-order perturbation and repair");
    for kernel in [3u8, 4, 17] {
        let s = exp::order_study(kernel);
        println!(
            "loop {:<2}: measured {} inversions ({:.4}% of pairs, {} cross-proc) -> \
             approximated {} ({:.4}%)",
            kernel,
            s.measured.inversions,
            s.measured.inversion_rate * 100.0,
            s.measured.cross_processor_inversions,
            s.approximated.inversions,
            s.approximated.inversion_rate * 100.0,
        );
    }
}

fn decompose() {
    use ppa::metrics::{decompose_slowdown, format_decomposition};
    use ppa::prelude::*;
    println!("==============================================================");
    println!("Extension: slowdown decomposition (direct overhead vs induced waiting)");
    let cfg = exp::experiment_config();
    for kernel in [3u8, 4, 17] {
        let program = ppa::lfk::doacross_graph(kernel).expect("doacross kernel");
        let measured =
            run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
        let analysis = event_based(&measured.trace, &cfg.overheads).expect("feasible");
        let d = decompose_slowdown(&measured.trace, &analysis, &cfg.overheads);
        println!("{}", format_decomposition(&format!("loop {kernel}:"), &d));
    }
}

fn estimate() {
    use ppa::analysis::estimate_overheads;
    use ppa::prelude::*;
    println!("==============================================================");
    println!("Extension: overhead estimation from calibration trace pairs");
    let cfg = exp::experiment_config();
    let mut b = ppa::program::ProgramBuilder::new("calibration");
    let v = b.sync_var();
    let program = b
        .doacross(1, 256, |body| {
            body.compute("head", 40_000)
                .await_var(v, -1)
                .compute_unobservable("cs", 60)
                .advance(v)
        })
        .build()
        .expect("valid calibration workload");
    let actual = run_actual(&program, &cfg).expect("valid");
    let measured =
        run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg).expect("valid");
    let est = estimate_overheads(&actual.trace, &measured.trace, &cfg.overheads);
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "kind", "samples", "estimated", "true", "min", "max"
    );
    for k in &est.kinds {
        let true_value = ppa::trace::KindCode::from_mnemonic(k.kind)
            .and_then(|code| code.overhead_class())
            .map_or(Span::ZERO, |class| cfg.overheads.instr_cost(class));
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12}",
            k.kind,
            k.samples,
            k.median.to_string(),
            true_value.to_string(),
            k.min.to_string(),
            k.max.to_string()
        );
    }
}

fn intrusion() {
    println!("==============================================================");
    println!("Extension: intrusion survey across all 24 Livermore kernels");
    println!(
        "{:<4} {:<28} {:<12} {:>8} {:>9} {:>11}",
        "id", "kernel", "class", "events", "slowdown", "approx/act"
    );
    for r in exp::all_kernel_intrusion() {
        println!(
            "{:<4} {:<28} {:<12} {:>8} {:>8.2}x {:>11.3}",
            r.kernel,
            r.name,
            format!("{:?}", r.class),
            r.events,
            r.slowdown,
            r.approx_ratio
        );
    }
}

fn accuracy() {
    println!("==============================================================");
    println!("Extension: per-event timing accuracy (1us tolerance band)");
    for kernel in [3u8, 4, 17] {
        let a = exp::per_event_accuracy(kernel);
        println!("loop {kernel}:");
        for (name, r) in [
            ("raw measured", &a.measured),
            ("time-based", &a.time_based),
            ("event-based", &a.event_based),
        ] {
            println!(
                "  {:<13} matched {:>5}  mean |err| {:>12}  max |err| {:>12}  within 1us {:>6.1}%",
                name,
                r.matched,
                r.mean_abs_error.to_string(),
                r.max_abs_error.to_string(),
                r.within_tolerance * 100.0
            );
        }
    }
}

fn native() {
    println!("==============================================================");
    println!("Native real-thread pipeline (nondeterministic, real clocks)");
    match ppa::native::native_pipeline_demo() {
        Ok(report) => println!("{report}"),
        Err(e) => println!("native pipeline unavailable: {e}"),
    }
}

/// Upper bound accepted for `--decode-workers`: far above any real
/// machine, low enough to catch typos (a missing argument swallowing
/// the next flag, a pasted event count) before spawning threads.
const MAX_DECODE_WORKERS: usize = 1024;

/// Parses a `--decode-workers` argument: `0` means serial decode, any
/// other value is a decode-thread count, and absurd values are a usage
/// error (sysexits 64).
fn parse_decode_workers(n: &str) -> Result<usize, CliError> {
    n.parse::<usize>()
        .ok()
        .filter(|&w| w <= MAX_DECODE_WORKERS)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "--decode-workers must be an integer in 0..={MAX_DECODE_WORKERS} \
                 (0 = serial), got {n:?}"
            ))
        })
}

/// Refuses a run whose output would land on its own input. Every
/// writer here creates (truncates) or renames onto its output while the
/// input is still being read, so `ppa analyze x --out x` would destroy
/// `x`; this runs before any file is created. `outputs` pairs each
/// path with the flag or role that named it, for the message.
///
/// Two paths are the same file when both resolve to one device + inode
/// — which sees through `./x` vs `x`, symlinks and hard links alike. An
/// output that does not exist yet names no file to destroy.
fn refuse_output_onto_input(input: &str, outputs: &[(&str, Option<&str>)]) -> Result<(), CliError> {
    use std::os::unix::fs::MetadataExt;
    let Ok(inp) = std::fs::metadata(input) else {
        return Ok(()); // the caller reports the missing input (66)
    };
    for (role, path) in outputs {
        let Some(path) = path else { continue };
        if std::fs::metadata(path).is_ok_and(|m| (m.dev(), m.ino()) == (inp.dev(), inp.ino())) {
            return Err(CliError::Usage(format!(
                "{role} {path} is the input file {input}; writing it would destroy the input"
            )));
        }
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Prom,
    Json,
}

/// Writes `text` to `path` atomically (tmp + fsync + rename), the same
/// discipline as checkpoint writes: a reader never observes a torn
/// snapshot, which is what lets `--metrics-every` re-export into a path
/// a scraper is concurrently reading.
fn write_atomic(path: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = format!("{path}.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// Snapshots `registry` and writes it to `path` atomically.
fn export_metrics(
    registry: &ppa::obs::Registry,
    path: &str,
    format: MetricsFormat,
) -> Result<(), CliError> {
    let snap = registry.snapshot();
    let text = match format {
        MetricsFormat::Prom => ppa::obs::prometheus_text(&snap),
        MetricsFormat::Json => ppa::obs::json_text(&snap),
    };
    write_atomic(path, &text).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

// --- convert: transcode a trace between the two on-disk formats ---------

const CONVERT_USAGE: &str =
    "usage: ppa convert <in> <out> --to <bin|jsonl> [--block-events N] [--force]";

/// Streams a trace from one format to the other (or the same — useful for
/// canonicalization). The input format is auto-detected by magic bytes;
/// the trace kind and advisory event count carry over, so converting a
/// file to binary and back reproduces it byte for byte.
fn run_convert(args: &[String]) -> Result<(), CliError> {
    use ppa::trace::{
        AnyTraceReader, AnyTraceWriter, BinaryTraceWriter, StreamProbes, TraceFormat,
    };
    use std::io::{BufReader, BufWriter, Write};

    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut to: Option<TraceFormat> = None;
    let mut block_events: Option<usize> = None;
    let mut force = false;
    let mut it = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs an argument"));
    while let Some(a) = it.next() {
        match a.as_str() {
            "--force" => force = true,
            "--to" => {
                let name = it.next().ok_or_else(|| missing("--to"))?;
                to = Some(TraceFormat::parse(name).ok_or_else(|| {
                    CliError::Usage(format!("--to must be `bin` or `jsonl`, got {name:?}"))
                })?);
            }
            "--block-events" => {
                let n = it.next().ok_or_else(|| missing("--block-events"))?;
                block_events = Some(n.parse::<usize>().map_err(|_| {
                    CliError::Usage(format!(
                        "--block-events must be a positive integer, got {n:?}"
                    ))
                })?);
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            path if input.is_none() => input = Some(path),
            path if output.is_none() => output = Some(path),
            extra => return Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
        }
    }
    let (Some(input), Some(output), Some(to)) = (input, output, to) else {
        return Err(CliError::Usage(CONVERT_USAGE.into()));
    };
    if block_events == Some(0) {
        return Err(CliError::Usage("--block-events must be at least 1".into()));
    }
    if block_events.is_some() && to != TraceFormat::Binary {
        return Err(CliError::Usage(
            "--block-events only applies to `--to bin`".into(),
        ));
    }

    refuse_output_onto_input(input, &[("output", Some(output))])?;

    let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
    let reader = AnyTraceReader::open(BufReader::new(file))
        .map_err(|e| CliError::from(e).prefixed(input))?;
    let from = reader.format();
    let (kind, expected) = (reader.kind(), reader.expected_events());

    if !force && Path::new(output).exists() {
        return Err(CliError::Usage(format!(
            "{output} already exists; pass --force to overwrite it"
        )));
    }
    let out_file = File::create(output).map_err(|e| CliError::Io(format!("{output}: {e}")))?;
    let sink = BufWriter::new(out_file);
    let out_err = |e: ppa::trace::IoError| CliError::Io(format!("{output}: {e}"));
    let mut writer = match block_events {
        Some(n) => AnyTraceWriter::Binary(
            BinaryTraceWriter::with_block_events(sink, kind, expected, n, StreamProbes::noop())
                .map_err(out_err)?,
        ),
        None => AnyTraceWriter::new(sink, to, kind, expected).map_err(out_err)?,
    };
    let mut converted = 0usize;
    for event in reader {
        let event = event.map_err(|e| CliError::from(e).prefixed(input))?;
        writer.write_event(&event).map_err(out_err)?;
        converted += 1;
    }
    let mut inner = writer.finish().map_err(out_err)?;
    inner
        .flush()
        .map_err(|e| CliError::Io(format!("{output}: {e}")))?;
    println!("converted {converted} events: {input} ({from}) -> {output} ({to})");
    Ok(())
}

// --- slice: predicate slicing + redundancy suppression ------------------

const SLICE_USAGE: &str = "usage: ppa slice <in.{jsonl|bin}> <out> [--expr EXPR] \
     [--window A..B] [--since T] [--until T] [--procs SET] [--kind SET] [--var SET] \
     [--tag SET] [--barrier SET] [--suppress | --expand] [--format bin|jsonl] \
     [--force] [--lenient] [--decode-workers N] \
     [--metrics-out snap.prom [--metrics-format prom|json]] (see QUERIES.md)";

/// `ppa slice`: copy the events a slice expression selects (QUERIES.md)
/// into a new trace, optionally collapsing repeated per-processor
/// patterns into counted repeat records (`--suppress`) or expanding
/// records back into the events they stand for (`--expand`). A time
/// window engages the binary block skip index, so non-matching blocks
/// are discarded without CRC or decode; the final accounting is exact —
/// every input event is emitted, filtered, skipped undecoded,
/// suppressed into a record, or lost to a lenient-mode gap.
fn run_slice(args: &[String]) -> Result<(), CliError> {
    use ppa::slice::{slice_stream, SliceError, SliceOptions, SliceProbes, SliceSpec, SliceStats};
    use ppa::trace::{AnyTraceReader, AnyTraceWriter, TraceFormat};
    use std::io::{BufReader, BufWriter, Write as _};

    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut clauses: Vec<String> = Vec::new();
    let mut suppress = false;
    let mut expand = false;
    let mut out_format: Option<TraceFormat> = None;
    let mut force = false;
    let mut lenient = false;
    let mut decode_workers: Option<usize> = None;
    let mut metrics_out: Option<&str> = None;
    let mut metrics_format = MetricsFormat::Prom;
    let mut it = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs an argument"));
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suppress" => suppress = true,
            "--expand" => expand = true,
            "--force" => force = true,
            "--lenient" => lenient = true,
            "--expr" => clauses.push(it.next().ok_or_else(|| missing("--expr"))?.clone()),
            "--window" | "--since" | "--until" | "--procs" | "--kind" | "--var" | "--tag"
            | "--barrier" => {
                // Convenience flags desugar into expression clauses, so
                // `--window 1..2 --expr "window=3..4"` trips the
                // parser's duplicate-clause rule like any other
                // conflict.
                let value = it.next().ok_or_else(|| missing(a))?;
                clauses.push(format!("{}={value}", &a[2..]));
            }
            "--format" => {
                let name = it.next().ok_or_else(|| missing("--format"))?;
                out_format = Some(TraceFormat::parse(name).ok_or_else(|| {
                    CliError::Usage(format!("--format must be `bin` or `jsonl`, got {name:?}"))
                })?);
            }
            "--decode-workers" => {
                let n = it.next().ok_or_else(|| missing("--decode-workers"))?;
                decode_workers = Some(parse_decode_workers(n)?);
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or_else(|| missing("--metrics-out"))?);
            }
            "--metrics-format" => {
                metrics_format = match it
                    .next()
                    .ok_or_else(|| missing("--metrics-format"))?
                    .as_str()
                {
                    "prom" => MetricsFormat::Prom,
                    "json" => MetricsFormat::Json,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--metrics-format must be `prom` or `json`, got {other:?}"
                        )));
                    }
                };
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            path if input.is_none() => input = Some(path),
            path if output.is_none() => output = Some(path),
            extra => return Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
        }
    }
    let (Some(input), Some(output)) = (input, output) else {
        return Err(CliError::Usage(SLICE_USAGE.into()));
    };
    if suppress && expand {
        return Err(CliError::Usage(
            "--suppress and --expand are mutually exclusive".into(),
        ));
    }
    let expr = clauses.join(" ");
    let spec = SliceSpec::parse(&expr).map_err(|e| CliError::Usage(e.to_string()))?;
    refuse_output_onto_input(
        input,
        &[("output", Some(output)), ("--metrics-out", metrics_out)],
    )?;

    let registry = metrics_out.is_some().then(ppa::obs::Registry::new);
    let probes = match &registry {
        Some(r) => SliceProbes::register(r),
        None => SliceProbes::noop(),
    };

    let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
    let workers = decode_workers.unwrap_or_else(ppa::trace::default_decode_workers);
    let mut reader = AnyTraceReader::open_parallel(BufReader::new(file), workers)
        .map_err(|e| CliError::from(e).prefixed(input))?;
    if lenient {
        reader.set_lenient(true);
    }
    let in_format = reader.format();
    let kind = reader.kind();
    let format = out_format.unwrap_or(in_format);

    if !force && Path::new(output).exists() {
        return Err(CliError::Usage(format!(
            "{output} already exists; pass --force to overwrite it"
        )));
    }
    let out_file = File::create(output).map_err(|e| CliError::Io(format!("{output}: {e}")))?;
    let out_err = |e: ppa::trace::IoError| CliError::Io(format!("{output}: {e}"));
    // The slice's event count is unknown until the run ends, so the
    // advisory header count stays 0.
    let mut writer =
        AnyTraceWriter::new(BufWriter::new(out_file), format, kind, 0).map_err(out_err)?;

    let (stats, expansion) = if expand {
        // Expansion must see every record — including ones a skipped
        // block would hide — so it reads everything undiscarded and
        // filters after expanding. Conservation is over logical events
        // here: emitted + filtered == physical input + expanded.
        let mut stats = SliceStats {
            expected: reader.expected_events() as u64,
            ..SliceStats::default()
        };
        let mut expander = ppa::analysis::RepeatExpander::new();
        let mut buf: Vec<ppa::trace::Event> = Vec::new();
        {
            let mut deliver = |ev: &ppa::trace::Event| -> Result<(), CliError> {
                if spec.matches(ev) {
                    writer.write_event(ev).map_err(out_err)?;
                    stats.emitted += 1;
                    probes.events_emitted.inc();
                } else {
                    stats.filtered += 1;
                    probes.events_filtered.inc();
                }
                Ok(())
            };
            for item in reader.by_ref() {
                let event = item.map_err(|e| CliError::from(e).prefixed(input))?;
                buf.clear();
                expander
                    .push(event, &mut buf)
                    .map_err(|e| CliError::Data(format!("{input}: {e}")))?;
                for ev in &buf {
                    deliver(ev)?;
                }
            }
            buf.clear();
            expander.finish(&mut buf);
            for ev in &buf {
                deliver(ev)?;
            }
        }
        stats.lost = reader.events_lost();
        (stats, Some((expander.records(), expander.expanded())))
    } else {
        let options = SliceOptions {
            spec,
            suppress,
            use_skip_index: true,
        };
        let stats = slice_stream(&mut reader, &options, &probes, |e| writer.write_event(e))
            .map_err(|e| match e {
                SliceError::Io(err) => CliError::from(err).prefixed(input),
                e @ SliceError::SuppressedInput { .. } => CliError::Data(format!("{input}: {e}")),
            })?;
        (stats, None)
    };
    let mut inner = writer.finish().map_err(out_err)?;
    inner
        .flush()
        .map_err(|e| CliError::Io(format!("{output}: {e}")))?;

    println!(
        "sliced {input} ({in_format}) -> {output} ({format}): {} event(s) emitted, \
         {} filtered",
        stats.emitted, stats.filtered
    );
    println!(
        "skip index: {} block(s) skipped undecoded ({} event(s))",
        stats.skipped_blocks, stats.skipped_events
    );
    if suppress {
        println!(
            "suppression: {} repeat record(s) standing for {} suppressed event(s)",
            stats.records, stats.suppressed
        );
    }
    if let Some((records, expanded)) = expansion {
        println!("expansion: {records} repeat record(s) expanded into {expanded} event(s)");
    }
    if stats.lost > 0 {
        println!("lenient gaps: {} event(s) lost", stats.lost);
    }
    if expansion.is_none() && !stats.conservation_holds() {
        return Err(CliError::Data(format!(
            "{input}: slice accounting broken: {} of {} input event(s) accounted for",
            stats.accounted(),
            stats.expected
        )));
    }

    if let Some(path) = metrics_out {
        let registry = registry.expect("registry exists when --metrics-out is set");
        export_metrics(&registry, path, metrics_format)?;
        println!("metrics snapshot written to {path}");
    }
    Ok(())
}

const CHECK_USAGE: &str = "usage: ppa check <trace-report-or-checkpoint.{jsonl|bin|ckpt}> \
     [--slice] [--metrics snap.{prom|json}] \
     [--metrics-out snap.prom [--metrics-format prom|json]]\n\
       ppa check --differential [--seed N] [--programs N] [--scenarios N] \
     [--decode-workers N] [--out-dir DIR]";

/// How many violations `ppa check` prints in full before summarizing.
const CHECK_PRINT_CAP: usize = 20;

/// Validates a trace or report against the invariant rules, or runs the
/// differential oracle (`--differential`). Any violation exits 65 with
/// the rule named in the output; per-rule counts export as
/// `ppa_check_violations_total` with `--metrics-out`.
fn run_check(args: &[String]) -> Result<(), CliError> {
    use ppa::check::{
        check_metrics, is_checkpoint_magic, lint_checkpoint, run_differential, DifferentialConfig,
        ReportChecker, TraceLinter,
    };
    use ppa::trace::{AnyTraceReader, TraceKind};
    use std::io::BufReader;

    let mut input: Option<&str> = None;
    let mut metrics_in: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut metrics_format = MetricsFormat::Prom;
    let mut differential = false;
    let mut slice_mode = false;
    let mut diff_cfg = DifferentialConfig::default();
    let mut out_dir: Option<&str> = None;
    let mut it = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs an argument"));
    let positive = |flag: &str, n: &str| {
        n.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::Usage(format!("{flag} must be a positive integer, got {n:?}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--differential" => differential = true,
            "--slice" => slice_mode = true,
            "--seed" => {
                let n = it.next().ok_or_else(|| missing("--seed"))?;
                diff_cfg.seed = n.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("--seed must be a non-negative integer, got {n:?}"))
                })?;
            }
            "--programs" => {
                diff_cfg.programs = positive(
                    "--programs",
                    it.next().ok_or_else(|| missing("--programs"))?,
                )?;
            }
            "--scenarios" => {
                let n = it.next().ok_or_else(|| missing("--scenarios"))?;
                diff_cfg.scenarios = n.parse::<usize>().map_err(|_| {
                    CliError::Usage(format!(
                        "--scenarios must be a non-negative integer, got {n:?}"
                    ))
                })?;
            }
            "--decode-workers" => {
                let n = it.next().ok_or_else(|| missing("--decode-workers"))?;
                diff_cfg.decode_workers = parse_decode_workers(n)?;
            }
            "--out-dir" => out_dir = Some(it.next().ok_or_else(|| missing("--out-dir"))?),
            "--metrics" => metrics_in = Some(it.next().ok_or_else(|| missing("--metrics"))?),
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or_else(|| missing("--metrics-out"))?);
            }
            "--metrics-format" => {
                metrics_format = match it
                    .next()
                    .ok_or_else(|| missing("--metrics-format"))?
                    .as_str()
                {
                    "prom" => MetricsFormat::Prom,
                    "json" => MetricsFormat::Json,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--metrics-format must be `prom` or `json`, got {other:?}"
                        )));
                    }
                };
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            path if input.is_none() => input = Some(path),
            extra => return Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
        }
    }

    let violations;
    let subject: String;
    if differential {
        if input.is_some() || metrics_in.is_some() {
            return Err(CliError::Usage(
                "--differential takes no trace argument (it generates its own programs)".into(),
            ));
        }
        if slice_mode {
            return Err(CliError::Usage(
                "--slice only applies when checking a trace file".into(),
            ));
        }
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Io(format!("cannot create {dir}: {e}")))?;
        }
        let report = run_differential(&diff_cfg, out_dir.map(Path::new)).map_err(CliError::Io)?;
        println!(
            "differential oracle: {} program(s), {} episode scenario(s), \
             {} measured event(s), streaming vs reference",
            report.programs, report.scenarios, report.events
        );
        violations = report.violations();
        subject = format!("differential oracle (seed {})", diff_cfg.seed);
    } else {
        let Some(input) = input else {
            return Err(CliError::Usage(CHECK_USAGE.into()));
        };
        if out_dir.is_some() {
            return Err(CliError::Usage(
                "--out-dir only applies with --differential".into(),
            ));
        }
        let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
        // Checkpoint files share the lint entry point: sniff the magic
        // and route to the chain validator instead of the trace linter.
        {
            use std::io::{Read as _, Seek as _};
            let mut file = &file;
            let mut magic = [0u8; 8];
            let n = file.read(&mut magic).unwrap_or(0);
            file.seek(std::io::SeekFrom::Start(0))
                .map_err(|e| CliError::Io(format!("{input}: {e}")))?;
            if is_checkpoint_magic(&magic[..n]) {
                if metrics_in.is_some() {
                    return Err(CliError::Usage(
                        "--metrics does not apply to checkpoint files".into(),
                    ));
                }
                let (lint, found) = lint_checkpoint(Path::new(input)).map_err(CliError::NoInput)?;
                println!(
                    "checked {input}: v2 checkpoint, {} delta record(s), \
                     {} position(s) seen, chain pass",
                    lint.delta_records, lint.positions_seen
                );
                return finish_check(found, input.to_string(), metrics_out, metrics_format);
            }
        }
        let reader = AnyTraceReader::open(BufReader::new(file))
            .map_err(|e| CliError::from(e).prefixed(input))?;
        let kind = reader.kind();
        // Measured/actual traces get the structural lint; approximated
        // reports additionally get the §4.2.3 conservation rules (they
        // are still traces, so the structural rules apply to them too).
        // `--slice` relaxes both to the projection rules: slices punch
        // holes in seq numbers and cut episodes by design (QUERIES.md).
        let mut linter = if slice_mode {
            TraceLinter::for_slice()
        } else {
            TraceLinter::new()
        };
        let mut report_pass =
            (kind == TraceKind::Approximated && !slice_mode).then(ReportChecker::new);
        let mut events = 0usize;
        for item in reader {
            let e = item.map_err(|err| CliError::from(err).prefixed(input))?;
            linter.push(&e);
            if let Some(r) = &mut report_pass {
                r.push(&e);
            }
            events += 1;
        }
        let mut found = linter.finish();
        if let Some(r) = report_pass {
            found.extend(r.finish());
        }
        if let Some(mpath) = metrics_in {
            let text = std::fs::read_to_string(mpath)
                .map_err(|e| CliError::NoInput(format!("{mpath}: {e}")))?;
            found.extend(check_metrics(&text).map_err(CliError::Data)?);
        }
        let pass = if slice_mode {
            "slice lint"
        } else {
            match kind {
                TraceKind::Approximated => "lint + report invariants",
                TraceKind::Measured | TraceKind::Actual => "lint",
            }
        };
        println!("checked {input}: {events} event(s), {pass} pass");
        violations = found;
        subject = input.to_string();
    }

    finish_check(violations, subject, metrics_out, metrics_format)
}

/// Shared tail of every `ppa check` mode: export the per-rule counts,
/// print the violations (capped), and map "any violation" to exit 65.
fn finish_check(
    violations: Vec<ppa::check::Violation>,
    subject: String,
    metrics_out: Option<&str>,
    metrics_format: MetricsFormat,
) -> Result<(), CliError> {
    use ppa::check::export_violations;
    use ppa::obs::{json_text, prometheus_text, Registry};

    if let Some(path) = metrics_out {
        let registry = Registry::new();
        export_violations(&registry, &violations);
        let snap = registry.snapshot();
        let text = match metrics_format {
            MetricsFormat::Prom => prometheus_text(&snap),
            MetricsFormat::Json => json_text(&snap),
        };
        std::fs::write(path, text).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        println!("metrics snapshot written to {path}");
    }

    if violations.is_empty() {
        println!("OK: no invariant violations");
        return Ok(());
    }
    for v in violations.iter().take(CHECK_PRINT_CAP) {
        println!("violation {v}");
    }
    if violations.len() > CHECK_PRINT_CAP {
        println!("... and {} more", violations.len() - CHECK_PRINT_CAP);
    }
    Err(CliError::Data(format!(
        "{subject}: {} invariant violation(s)",
        violations.len()
    )))
}

// --- serve / send ---

const SERVE_USAGE: &str = "usage: ppa serve --checkpoint-dir DIR [--listen ADDR]... \
                           [--unix-socket PATH] [--metrics-listen ADDR] \
                           [--max-sessions N] [--tenant-max-sessions N] [--tenant-max-eps N] \
                           [--tenant-max-resident-bytes N] [--checkpoint-every N] \
                           [--checkpoint-compact-every N] \
                           [--idle-timeout-ms N] [--lenient] [--reorder-window N] \
                           [--decode-workers N] \
                           [--overheads spec.json] [--log-format text|json] \
                           [--log-level info|debug] [--self-trace-dir DIR] \
                           [--metrics-every SECS]";

const SEND_USAGE: &str = "usage: ppa send <trace.{jsonl|bin}> (--to ADDR | --unix PATH) \
                          --tenant T --stream S [--frame-bytes N]";

/// `ppa serve`: run the multi-tenant streaming ingest daemon until
/// SIGTERM/SIGINT, checkpointing every live session on the way out.
/// The wire protocol is specified in PROTOCOL.md; the operational
/// lifecycle (eviction, resume, alerting) in OPERATIONS.md.
fn run_serve(args: &[String]) -> Result<(), CliError> {
    use ppa::server::{install_signal_handlers, Quotas, ServeConfig, Server};

    let mut config = ServeConfig {
        listen: Vec::new(),
        quotas: Quotas::default(),
        ..ServeConfig::default()
    };
    let mut checkpoint_dir: Option<&str> = None;
    let mut overheads_path: Option<&str> = None;
    let mut it = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs an argument"));
    let positive = |flag: &str, n: &str| {
        n.parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::Usage(format!("{flag} must be a positive integer, got {n:?}")))
    };
    let nonneg = |flag: &str, n: &str| {
        n.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("{flag} must be a non-negative integer, got {n:?}"))
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint-dir" => {
                checkpoint_dir = Some(it.next().ok_or_else(|| missing("--checkpoint-dir"))?);
            }
            "--listen" => {
                config
                    .listen
                    .push(it.next().ok_or_else(|| missing("--listen"))?.clone());
            }
            "--unix-socket" => {
                config.unix_socket =
                    Some(it.next().ok_or_else(|| missing("--unix-socket"))?.into());
            }
            "--metrics-listen" => {
                config.metrics_listen = Some(
                    it.next()
                        .ok_or_else(|| missing("--metrics-listen"))?
                        .clone(),
                );
            }
            "--max-sessions" => {
                let n = it.next().ok_or_else(|| missing("--max-sessions"))?;
                config.quotas.max_sessions = nonneg("--max-sessions", n)? as usize;
            }
            "--tenant-max-sessions" => {
                let n = it.next().ok_or_else(|| missing("--tenant-max-sessions"))?;
                config.quotas.tenant_max_sessions = nonneg("--tenant-max-sessions", n)? as usize;
            }
            "--tenant-max-eps" => {
                let n = it.next().ok_or_else(|| missing("--tenant-max-eps"))?;
                config.quotas.tenant_max_eps = nonneg("--tenant-max-eps", n)?;
            }
            "--tenant-max-resident-bytes" => {
                let n = it
                    .next()
                    .ok_or_else(|| missing("--tenant-max-resident-bytes"))?;
                config.quotas.tenant_max_resident_bytes = nonneg("--tenant-max-resident-bytes", n)?;
            }
            "--checkpoint-every" => {
                let n = it.next().ok_or_else(|| missing("--checkpoint-every"))?;
                config.checkpoint_every = positive("--checkpoint-every", n)?;
            }
            "--checkpoint-compact-every" => {
                let n = it
                    .next()
                    .ok_or_else(|| missing("--checkpoint-compact-every"))?;
                config.checkpoint_compact_every = nonneg("--checkpoint-compact-every", n)? as usize;
            }
            "--idle-timeout-ms" => {
                let n = it.next().ok_or_else(|| missing("--idle-timeout-ms"))?;
                config.idle_timeout =
                    std::time::Duration::from_millis(positive("--idle-timeout-ms", n)?);
            }
            "--lenient" => config.lenient = true,
            "--reorder-window" => {
                let n = it.next().ok_or_else(|| missing("--reorder-window"))?;
                config.reorder_window = Some(nonneg("--reorder-window", n)?);
            }
            "--decode-workers" => {
                let n = it.next().ok_or_else(|| missing("--decode-workers"))?;
                config.decode_workers = parse_decode_workers(n)?;
            }
            "--overheads" => {
                overheads_path = Some(it.next().ok_or_else(|| missing("--overheads"))?);
            }
            "--log-format" => {
                let name = it.next().ok_or_else(|| missing("--log-format"))?;
                config.log_format = ppa::server::LogFormat::parse(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--log-format must be `text` or `json`, got {name:?}"
                    ))
                })?;
            }
            "--log-level" => {
                let name = it.next().ok_or_else(|| missing("--log-level"))?;
                config.log_level = ppa::server::LogLevel::parse(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--log-level must be `info` or `debug`, got {name:?}"
                    ))
                })?;
            }
            "--self-trace-dir" => {
                config.self_trace_dir =
                    Some(it.next().ok_or_else(|| missing("--self-trace-dir"))?.into());
            }
            "--metrics-every" => {
                let n = it.next().ok_or_else(|| missing("--metrics-every"))?;
                config.metrics_every = Some(std::time::Duration::from_secs(positive(
                    "--metrics-every",
                    n,
                )?));
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            extra => return Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
        }
    }
    // The checkpoint directory is the daemon's only durable state — no
    // sensible default exists, so it is the one required flag.
    config.checkpoint_dir = checkpoint_dir
        .ok_or_else(|| CliError::Usage(SERVE_USAGE.into()))?
        .into();
    config.overheads = match overheads_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(p).map_err(|e| CliError::NoInput(format!("{p}: {e}")))?;
            serde_json::from_str(&text).map_err(|e| CliError::Data(format!("{p}: {e}")))?
        }
        None => ppa::trace::OverheadSpec::alliant_default(),
    };
    if config.listen.is_empty() && config.unix_socket.is_none() {
        config.listen.push("127.0.0.1:7223".to_string());
    }

    install_signal_handlers();
    let server = Server::bind(config).map_err(|e| CliError::Io(format!("bind: {e}")))?;
    let log = server.ctx().log();
    for addr in server.tcp_addrs() {
        let addr = addr.to_string();
        log.info(
            &format!("listening on tcp {addr}"),
            "listening_tcp",
            &[("addr", ppa::server::LogValue::Str(&addr))],
        );
    }
    if let Some(path) = server.ctx().config.unix_socket.as_ref() {
        let path = path.display().to_string();
        log.info(
            &format!("listening on unix {path}"),
            "listening_unix",
            &[("path", ppa::server::LogValue::Str(&path))],
        );
    }
    if let Some(addr) = server.metrics_addr() {
        let addr = addr.to_string();
        log.info(
            &format!("metrics on http://{addr}"),
            "metrics_listening",
            &[("addr", ppa::server::LogValue::Str(&addr))],
        );
    }
    log.info("ready", "ready", &[]);
    server
        .run()
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    Ok(())
}

/// `ppa send`: upload one trace file to a running `ppa serve` daemon as
/// a `(tenant, stream)` session and print the server's final summary.
fn run_send(args: &[String]) -> Result<(), CliError> {
    use ppa::server::{send_trace, ClientError, SendOutcome, Target, DEFAULT_FRAME_BYTES};

    let mut trace: Option<&str> = None;
    let mut target: Option<Target> = None;
    let mut tenant: Option<&str> = None;
    let mut stream_id: Option<&str> = None;
    let mut frame_bytes = DEFAULT_FRAME_BYTES;
    let mut it = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs an argument"));
    while let Some(a) = it.next() {
        match a.as_str() {
            "--to" => {
                target = Some(Target::Tcp(
                    it.next().ok_or_else(|| missing("--to"))?.clone(),
                ));
            }
            "--unix" => {
                target = Some(Target::Unix(
                    it.next().ok_or_else(|| missing("--unix"))?.into(),
                ));
            }
            "--tenant" => tenant = Some(it.next().ok_or_else(|| missing("--tenant"))?),
            "--stream" => stream_id = Some(it.next().ok_or_else(|| missing("--stream"))?),
            "--frame-bytes" => {
                let n = it.next().ok_or_else(|| missing("--frame-bytes"))?;
                frame_bytes = n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--frame-bytes must be a positive integer, got {n:?}"
                    ))
                })?;
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            path if trace.is_none() => trace = Some(path),
            extra => return Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
        }
    }
    let trace = trace.ok_or_else(|| CliError::Usage(SEND_USAGE.into()))?;
    let target = target.ok_or_else(|| CliError::Usage(SEND_USAGE.into()))?;
    let tenant = tenant.ok_or_else(|| CliError::Usage(SEND_USAGE.into()))?;
    let stream_id = stream_id.ok_or_else(|| CliError::Usage(SEND_USAGE.into()))?;
    // Distinguish "trace file missing" (66) from socket trouble (74)
    // before the upload mixes both into one I/O stream.
    if !std::path::Path::new(trace).is_file() {
        return Err(CliError::NoInput(format!("{trace}: no such file")));
    }

    match send_trace(
        &target,
        tenant,
        stream_id,
        std::path::Path::new(trace),
        frame_bytes,
    ) {
        Ok(SendOutcome::Done {
            resumed_from,
            summary,
        }) => {
            if resumed_from > 0 {
                println!("send: resumed {tenant}/{stream_id} from {resumed_from} events");
            }
            println!(
                "send: {tenant}/{stream_id} done ({} report events, {} awaits, {} barriers, \
                 last t={} ns, {} gaps, {} events lost)",
                summary.events,
                summary.awaits,
                summary.barriers,
                summary.last_time_ns,
                summary.gaps,
                summary.events_lost
            );
            Ok(())
        }
        Err(ClientError::Io(e)) => Err(CliError::Io(format!("{trace}: {e}"))),
        Err(e @ ClientError::Protocol(_)) => Err(CliError::Data(e.to_string())),
        Err(e @ ClientError::Server { .. }) => Err(CliError::Data(e.to_string())),
    }
}

impl CliError {
    /// Prefixes the message with the file it concerns (for input errors
    /// whose underlying message does not name the file).
    fn prefixed(self, path: &str) -> CliError {
        match self {
            CliError::Usage(m) => CliError::Usage(format!("{path}: {m}")),
            CliError::Data(m) => CliError::Data(format!("{path}: {m}")),
            CliError::NoInput(m) => CliError::NoInput(format!("{path}: {m}")),
            CliError::Io(m) => CliError::Io(format!("{path}: {m}")),
        }
    }
}
