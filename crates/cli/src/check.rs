//! `ppa check`: validate a trace, report or checkpoint against the
//! invariant rules, or run the differential oracle.

use crate::args::{parse_args, MetricsFlags};
use crate::{print_summary, refuse_output_onto_input, CliError};
use ppa::check::{
    check_metrics, is_checkpoint_magic, lint_checkpoint, run_differential, DifferentialConfig,
    ReportChecker, TraceLinter,
};
use ppa::trace::{AnyTraceReader, TraceKind};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

pub(crate) const CHECK_USAGE: &str =
    "usage: ppa check <trace-report-or-checkpoint.{jsonl|bin|ckpt}> \
     [--slice] [--metrics snap.{prom|json}] \
     [--metrics-out snap.prom [--metrics-format prom|json]]\n\
       ppa check --differential [--seed N] [--programs N] [--scenarios N] \
     [--decode-workers N] [--out-dir DIR]";

/// How many violations `ppa check` prints in full before summarizing.
const CHECK_PRINT_CAP: usize = 20;

/// What `ppa check` was asked for: a file to check, or (`input` `None`)
/// a differential run.
#[derive(Default)]
pub(crate) struct CheckOptions<'a> {
    input: Option<&'a str>,
    metrics_in: Option<&'a str>,
    metrics: MetricsFlags<'a>,
    slice_mode: bool,
    diff_cfg: DifferentialConfig,
    out_dir: Option<&'a str>,
}

pub(crate) fn parse(args: &[String]) -> Result<CheckOptions<'_>, CliError> {
    let mut o = CheckOptions::default();
    let mut differential = false;
    [o.input] = parse_args(args, |flag, a| {
        match flag {
            "--differential" => differential = true,
            "--slice" => o.slice_mode = true,
            "--seed" => o.diff_cfg.seed = a.nonneg()?,
            "--programs" => o.diff_cfg.programs = a.positive()?,
            "--scenarios" => o.diff_cfg.scenarios = a.nonneg()?,
            "--decode-workers" => o.diff_cfg.decode_workers = a.decode_workers()?,
            "--out-dir" => o.out_dir = Some(a.value()?),
            "--metrics" => o.metrics_in = Some(a.value()?),
            _ => return o.metrics.take(flag, a),
        }
        Ok(true)
    })?;
    if differential {
        if o.input.is_some() || o.metrics_in.is_some() {
            return Err(CliError::Usage(
                "--differential takes no trace argument (it generates its own programs)".into(),
            ));
        }
        if o.slice_mode {
            return Err(CliError::Usage(
                "--slice only applies when checking a trace file".into(),
            ));
        }
    } else if o.input.is_none() {
        return Err(CliError::Usage(CHECK_USAGE.into()));
    } else if o.out_dir.is_some() {
        return Err(CliError::Usage(
            "--out-dir only applies with --differential".into(),
        ));
    }
    Ok(o)
}

/// Validates a trace or report against the invariant rules, or runs the
/// differential oracle (`--differential`). Any violation exits 65 with
/// the rule named in the output; per-rule counts export as
/// `ppa_check_violations_total` with `--metrics-out`.
pub(crate) fn run(args: &[String]) -> Result<(), CliError> {
    let o = parse(args)?;
    let metrics = &o.metrics;
    let violations;
    let subject: String;
    let summary;
    if let Some(input) = o.input {
        refuse_output_onto_input(input, &[("--metrics-out", metrics.out)])?;
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
                if o.metrics_in.is_some() {
                    return Err(CliError::Usage(
                        "--metrics does not apply to checkpoint files".into(),
                    ));
                }
                let (lint, found) = lint_checkpoint(Path::new(input)).map_err(CliError::NoInput)?;
                let summary = format!(
                    "checked {input}: v2 checkpoint, {} delta record(s), \
                     {} position(s) seen, chain pass",
                    lint.delta_records, lint.positions_seen
                );
                return finish_check(found, input.to_string(), metrics, summary);
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
        let mut linter = if o.slice_mode {
            TraceLinter::for_slice()
        } else {
            TraceLinter::new()
        };
        let mut report_pass =
            (kind == TraceKind::Approximated && !o.slice_mode).then(ReportChecker::new);
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
        if let Some(mpath) = o.metrics_in {
            let text = std::fs::read_to_string(mpath)
                .map_err(|e| CliError::NoInput(format!("{mpath}: {e}")))?;
            found.extend(check_metrics(&text).map_err(CliError::Data)?);
        }
        let pass = if o.slice_mode {
            "slice lint"
        } else {
            match kind {
                TraceKind::Approximated => "lint + report invariants",
                TraceKind::Measured | TraceKind::Actual => "lint",
            }
        };
        summary = format!("checked {input}: {events} event(s), {pass} pass");
        violations = found;
        subject = input.to_string();
    } else {
        if let Some(dir) = o.out_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Io(format!("cannot create {dir}: {e}")))?;
        }
        let report =
            run_differential(&o.diff_cfg, o.out_dir.map(Path::new)).map_err(CliError::Io)?;
        summary = format!(
            "differential oracle: {} program(s), {} episode scenario(s), \
             {} measured event(s), streaming vs reference",
            report.programs, report.scenarios, report.events
        );
        violations = report.violations();
        subject = format!("differential oracle (seed {})", o.diff_cfg.seed);
    }

    finish_check(violations, subject, metrics, summary)
}

/// Shared tail of every `ppa check` mode: print the run's `summary`
/// line, export the per-rule counts, print the violations (capped), and
/// map "any violation" to exit 65.
fn finish_check(
    violations: Vec<ppa::check::Violation>,
    subject: String,
    metrics: &MetricsFlags,
    summary: String,
) -> Result<(), CliError> {
    print_summary(&[summary])?;
    let mut lines = Vec::new();
    if let Some(path) = metrics.out {
        let registry = ppa::obs::Registry::new();
        ppa::check::export_violations(&registry, &violations);
        metrics.export(&registry, path)?;
        lines.push(format!("metrics snapshot written to {path}"));
    }

    if violations.is_empty() {
        lines.push("OK: no invariant violations".into());
        return print_summary(&lines);
    }
    lines.extend((violations.iter().take(CHECK_PRINT_CAP)).map(|v| format!("violation {v}")));
    if violations.len() > CHECK_PRINT_CAP {
        lines.push(format!(
            "... and {} more",
            violations.len() - CHECK_PRINT_CAP
        ));
    }
    print_summary(&lines)?;
    Err(CliError::Data(format!(
        "{subject}: {} invariant violation(s)",
        violations.len()
    )))
}
