//! `ppa` — the experiment harness binary.
//!
//! Regenerates every table and figure of the paper's evaluation on the
//! simulator substrate and prints paper values beside reproduced ones
//! (`ppa all`, `ppa table2`, …: `experiments.rs`; `--csv DIR` also
//! writes CSV files), and runs the trace tools on measured traces, one
//! module each: `analyze`, `convert`, `slice`, `check`, and `serve` /
//! `send` (the streaming ingest daemon and its uploader).
//!
//! Every command reads its flags through the one cursor in `args.rs`
//! and declares its usage text once, beside its parser; `ppa help`
//! prints them all. `analyze` and every `serve` session drive the one
//! bounded-memory [`ppa::analysis::Pipeline`]; PROTOCOL.md specifies
//! `serve`'s wire format and OPERATIONS.md how to run it.
//!
//! Failures exit with BSD-sysexits-style codes so scripts can
//! distinguish them: 64 usage error, 65 malformed input data (parse
//! errors report the offending line number), 66 missing input file,
//! 74 output I/O error.

mod analyze;
mod args;
mod check;
mod convert;
mod experiments;
mod serve;
mod slice;

use std::fs::File;
use std::io::BufWriter;
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

impl From<ppa::analysis::ExpandError> for CliError {
    fn from(e: ppa::analysis::ExpandError) -> Self {
        CliError::Data(e.to_string())
    }
}

impl From<ppa::analysis::AnalysisError> for CliError {
    fn from(e: ppa::analysis::AnalysisError) -> Self {
        CliError::Data(e.to_string())
    }
}

/// Prints the lines of a command's summary. A closed stdout (`ppa
/// analyze … | head -1`) ends the output quietly: the run and its output
/// files are complete by the time anything is printed, and `println!`
/// would panic. The exit code stays the run's own.
pub(crate) fn print_summary(lines: &[String]) -> Result<(), CliError> {
    use std::io::Write as _;
    let mut text = lines.join("\n");
    text.push('\n');
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::Io(format!("stdout: {e}")))
        }
        _ => Ok(()),
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
    let rest = args.get(1..).unwrap_or_default();
    match cmd {
        "analyze" => analyze::run(rest),
        "convert" => convert::run(rest),
        "slice" => slice::run(rest),
        "check" => check::run(rest),
        "serve" => serve::run_serve(rest),
        "send" => serve::run_send(rest),
        "help" | "--help" | "-h" => {
            println!("{}", help_text());
            Ok(())
        }
        _ => experiments::run(cmd, rest.first().map(String::as_str), csv_dir.as_deref()),
    }
}

/// `ppa help`: the subcommands, then each command's usage text.
fn help_text() -> String {
    [
        "subcommands: all fig1 table1 table2 table3 fig4 fig5 ablation native \
         intrusion accuracy analyze convert slice check serve send",
        analyze::ANALYZE_USAGE,
        "  (the input container is auto-sniffed from its magic bytes; \
         --format selects the output container only)",
        "  (one bounded-memory pipeline for every run; --stream is accepted \
         and changes nothing; an unsorted trace needs --reorder-window N)",
        convert::CONVERT_USAGE,
        slice::SLICE_USAGE,
        check::CHECK_USAGE,
        serve::SERVE_USAGE,
        serve::SEND_USAGE,
        "exit codes: 64 usage, 65 bad data, 66 missing input, 74 output I/O",
    ]
    .join("\n")
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

/// Creates the trace file `output` names, refusing to replace an
/// existing one unless `--force` was given.
fn create_output(output: &str, force: bool) -> Result<BufWriter<File>, CliError> {
    if !force && Path::new(output).exists() {
        return Err(CliError::Usage(format!(
            "{output} already exists; pass --force to overwrite it"
        )));
    }
    File::create(output)
        .map(BufWriter::new)
        .map_err(|e| CliError::Io(format!("{output}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `usage` against `parse` (which runs nothing): `ppa help`
    /// prints it, and `parse` takes each `--flag` it names after the
    /// arguments in `base`. A switch must leave the positional after it
    /// alone; a flag the usage shows with a value must read one and ask
    /// for it when it is missing.
    fn agree(usage: &str, base: &str, parse: impl Fn(&[String]) -> Result<(), CliError>) {
        assert!(help_text().contains(usage), "`ppa help` lacks {usage}");
        let words: Vec<&str> = usage.split_whitespace().collect();
        let mut flags = Vec::new();
        for (i, word) in words.iter().enumerate() {
            let Some(rest) = word.trim_start_matches(['[', '(']).strip_prefix("--") else {
                continue;
            };
            let (name, tail) = rest.split_at(rest.find(['[', ']', ')']).unwrap_or(rest.len()));
            if let Some(alt) = tail.strip_prefix("[=") {
                flags.push((format!("--{name}={}", alt.trim_end_matches(']')), None));
            }
            let value = words
                .get(i + 1)
                .filter(|v| tail.is_empty() && !v.starts_with(['[', '|']));
            let sample =
                value.map(
                    |v| match v.trim_end_matches(['.', ']', ')']).trim_matches(['<', '>']) {
                        "N" | "SECS" => "1",
                        v if v.contains('{') => v,
                        v => v.split('|').next().unwrap_or(v),
                    },
                );
            flags.push((format!("--{name}"), sample));
        }
        for (flag, sample) in flags {
            let mut args: Vec<String> = base.split(' ').map(String::from).collect();
            let err = |args: &[String]| match parse(args) {
                Err(CliError::Usage(m)) => m,
                _ => String::new(),
            };
            let Some(v) = sample else {
                args.insert(0, flag.clone());
                assert!(
                    !refused(&flag, usage, &err(&args)),
                    "{args:?}: {}",
                    err(&args)
                );
                continue;
            };
            args.push(flag.clone());
            assert_eq!(err(&args), format!("{flag} needs an argument"));
            args.push(v.to_string());
            assert!(
                !refused(&flag, usage, &err(&args)),
                "{args:?}: {}",
                err(&args)
            );
        }
    }

    /// Whether `err` is the parser refusing `flag` itself.
    fn refused(flag: &str, usage: &str, err: &str) -> bool {
        let own = [
            &format!("{flag} needs"),
            &format!("{flag} must"),
            "unknown",
            "unexpected",
        ];
        err == usage || own.iter().any(|o| err.starts_with(o))
    }

    macro_rules! agree {
        ($usage:expr, $base:expr, $parse:path) => {
            agree($usage, $base, |args| $parse(args).map(drop))
        };
    }

    #[test]
    fn every_usage_text_is_printed_by_help_and_accepted_by_its_parser() {
        agree!(analyze::ANALYZE_USAGE, "in", analyze::parse);
        agree!(convert::CONVERT_USAGE, "in out --to bin", convert::parse);
        agree!(slice::SLICE_USAGE, "in out", slice::parse);
        agree!(check::CHECK_USAGE, "in", check::parse);
        agree!(serve::SERVE_USAGE, "--checkpoint-dir d", serve::parse_serve);
        agree!(
            serve::SEND_USAGE,
            "in --to h:1 --tenant t --stream s",
            serve::parse_send
        );
    }
}
