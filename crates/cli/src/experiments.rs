//! The experiment commands: every table and figure of the paper's
//! evaluation, the ablations and the extensions, regenerated on the
//! simulator substrate with paper values beside reproduced ones.

use crate::CliError;
use ppa::experiments as exp;
use ppa::metrics::{
    format_ratio_table, format_waiting_table, render_bars, render_parallelism, render_timeline,
    write_parallelism_csv, write_ratios_csv, write_timeline_csv, write_waiting_csv, BarGroup,
};
use std::fs::File;
use std::path::Path;

/// Runs experiment command `cmd` (`sub` is its argument), writing CSV
/// files into `csv` when given.
pub(crate) fn run(cmd: &str, sub: Option<&str>, csv: Option<&Path>) -> Result<(), CliError> {
    match cmd {
        "all" => {
            fig1(csv)?;
            ratio_table(csv, 1)?;
            ratio_table(csv, 2)?;
            loop17(csv, true, true, true)?;
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
        "fig1" => fig1(csv)?,
        "table1" => ratio_table(csv, 1)?,
        "table2" => ratio_table(csv, 2)?,
        "table3" => loop17(csv, true, false, false)?,
        "fig4" => loop17(csv, false, true, false)?,
        "fig5" => loop17(csv, false, false, true)?,
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
        other => {
            return Err(CliError::Usage(format!(
                "unknown subcommand {other:?}; try `ppa help`"
            )));
        }
    }
    Ok(())
}

/// The rule above each experiment's output.
const RULE: &str = "==============================================================";

fn banner(title: &str) {
    println!("{RULE}");
    println!("{title}");
}

/// Writes `dir/name` with `write` when a CSV directory was requested; a
/// create or write failure is a real error (exit 74), not a
/// silently-skipped export.
fn write_csv(
    dir: Option<&Path>,
    name: &str,
    write: impl FnOnce(File) -> std::io::Result<()>,
) -> Result<(), CliError> {
    let Some(dir) = dir else { return Ok(()) };
    let file = File::create(dir.join(name))
        .map_err(|e| CliError::Io(format!("cannot create {name}: {e}")))?;
    write(file).map_err(|e| CliError::Io(format!("cannot write {name}: {e}")))
}

fn fig1(csv: Option<&Path>) -> Result<(), CliError> {
    banner("Figure 1: sequential loop execution, full statement tracing");
    println!("(measured/actual and time-based approximated/actual ratios)");
    println!("{RULE}");
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
    write_csv(csv, "fig1.csv", |f| {
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
        write_ratios_csv(&ratio_rows, f)
    })
}

/// Table 1 (time-based analysis) or Table 2 (event-based analysis).
fn ratio_table(csv: Option<&Path>, n: u8) -> Result<(), CliError> {
    let (rows, basis) = match n {
        1 => (exp::table1(), "TIME"),
        _ => (exp::table2(), "EVENT"),
    };
    println!("{RULE}");
    let title = format!("Table {n}: loop execution time ratios, {basis}-based analysis");
    println!("{}", format_ratio_table(&title, &rows));
    write_csv(csv, &format!("table{n}.csv"), |f| {
        write_ratios_csv(&rows, f)
    })
}

fn loop17(csv: Option<&Path>, t3: bool, f4: bool, f5: bool) -> Result<(), CliError> {
    let a = exp::loop17_analysis();
    if t3 {
        println!("{RULE}");
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
        write_csv(csv, "table3.csv", |f| write_waiting_csv(&a.waiting, f))?;
    }
    if f4 {
        banner("Figure 4: approximated waiting behavior in loop 17");
        println!("{}", render_timeline(&a.timeline, 96));
        write_csv(csv, "fig4.csv", |f| write_timeline_csv(&a.timeline, f))?;
    }
    if f5 {
        println!("{RULE}");
        println!(
            "Figure 5: approximated parallelism in loop 17 (avg over loop: {:.1}, paper: 7.5)",
            a.avg_parallelism
        );
        println!("{}", render_parallelism(&a.profile, 96, 8));
        write_csv(csv, "fig5.csv", |f| write_parallelism_csv(&a.profile, f))?;
    }
    Ok(())
}

fn ablation_overhead() {
    banner("Ablation A2: event-based accuracy vs overhead misestimation");
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
    banner("Ablation A1/A3: conservative vs liberal analysis per dispatch policy");
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
    banner("Extension: finite trace memory (per-processor bounded buffers)");
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
    banner("Extension: scalar vs vector execution modes (vectorizable kernels)");
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
    banner("Extension: event-order perturbation and repair");
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
    banner("Extension: slowdown decomposition (direct overhead vs induced waiting)");
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
    banner("Extension: overhead estimation from calibration trace pairs");
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
    banner("Extension: intrusion survey across all 24 Livermore kernels");
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
    banner("Extension: per-event timing accuracy (1us tolerance band)");
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
    banner("Native real-thread pipeline (nondeterministic, real clocks)");
    match ppa::native::native_pipeline_demo() {
        Ok(report) => println!("{report}"),
        Err(e) => println!("native pipeline unavailable: {e}"),
    }
}
