//! `ppa convert`: transcode a trace between the two on-disk formats.

use crate::args::parse_args;
use crate::{create_output, print_summary, refuse_output_onto_input, CliError};
use ppa::trace::{AnyTraceReader, AnyTraceWriter, StreamProbes, TraceFormat};
use std::fs::File;
use std::io::{BufReader, Write};

pub(crate) const CONVERT_USAGE: &str =
    "usage: ppa convert <in> <out> --to <bin|jsonl> [--block-events N] [--force]";

/// What `ppa convert` was asked for.
pub(crate) struct ConvertOptions<'a> {
    input: &'a str,
    output: &'a str,
    to: TraceFormat,
    block_events: Option<usize>,
    force: bool,
}

pub(crate) fn parse(args: &[String]) -> Result<ConvertOptions<'_>, CliError> {
    let (mut to, mut block_events, mut force) = (None, None, false);
    let [input, output] = parse_args(args, |flag, a| {
        match flag {
            "--force" => force = true,
            "--to" => to = Some(a.choice(TraceFormat::parse, "`bin` or `jsonl`")?),
            "--block-events" => block_events = Some(a.parsed("a positive integer", |_| true)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
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
    Ok(ConvertOptions {
        input,
        output,
        to,
        block_events,
        force,
    })
}

/// Streams a trace from one format to the other (or the same — useful for
/// canonicalization). The input format is auto-detected by magic bytes;
/// the trace kind and advisory event count carry over, so converting a
/// file to binary and back reproduces it byte for byte.
pub(crate) fn run(args: &[String]) -> Result<(), CliError> {
    let o = parse(args)?;
    let (input, output, to) = (o.input, o.output, o.to);
    refuse_output_onto_input(input, &[("output", Some(output))])?;

    let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
    let reader = AnyTraceReader::open(BufReader::new(file))
        .map_err(|e| CliError::from(e).prefixed(input))?;
    let from = reader.format();
    let (kind, expected) = (reader.kind(), reader.expected_events());

    let sink = create_output(output, o.force)?;
    let out_err = |e: ppa::trace::IoError| CliError::Io(format!("{output}: {e}"));
    let mut writer = match o.block_events {
        Some(n) => AnyTraceWriter::with_block_events(sink, kind, expected, n, StreamProbes::noop()),
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
    print_summary(&[format!(
        "converted {converted} events: {input} ({from}) -> {output} ({to})"
    )])
}
