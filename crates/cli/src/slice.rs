//! `ppa slice`: predicate slicing, redundancy suppression and repeat
//! expansion of a trace (QUERIES.md).

use crate::args::{parse_args, MetricsFlags};
use crate::{create_output, print_summary, refuse_output_onto_input, CliError};
use ppa::slice::{slice_stream, SliceError, SliceOptions, SliceProbes, SliceSpec};
use ppa::trace::{AnyTraceReader, AnyTraceWriter, TraceFormat};
use std::fs::File;
use std::io::{BufReader, Write as _};

pub(crate) const SLICE_USAGE: &str = "usage: ppa slice <in.{jsonl|bin}> <out> [--expr EXPR] \
     [--window A..B] [--since T] [--until T] [--procs SET] [--kind SET] [--var SET] \
     [--tag SET] [--barrier SET] [--suppress | --expand] [--format bin|jsonl] \
     [--force] [--lenient] [--decode-workers N] \
     [--metrics-out snap.prom [--metrics-format prom|json]] (see QUERIES.md)";

/// What `ppa slice` was asked for, parsed and cross-checked.
#[derive(Default)]
pub(crate) struct SliceArgs<'a> {
    input: &'a str,
    output: &'a str,
    spec: SliceSpec,
    suppress: bool,
    expand: bool,
    out_format: Option<TraceFormat>,
    force: bool,
    lenient: bool,
    decode_workers: Option<usize>,
    metrics: MetricsFlags<'a>,
}

pub(crate) fn parse(args: &[String]) -> Result<SliceArgs<'_>, CliError> {
    let mut o = SliceArgs::default();
    let mut clauses: Vec<String> = Vec::new();
    let [input, output] = parse_args(args, |flag, a| {
        match flag {
            "--suppress" => o.suppress = true,
            "--expand" => o.expand = true,
            "--force" => o.force = true,
            "--lenient" => o.lenient = true,
            "--expr" => clauses.push(a.value()?.to_string()),
            // Convenience flags desugar into expression clauses, so
            // `--window 1..2 --expr "window=3..4"` trips the parser's
            // duplicate-clause rule like any other conflict.
            "--window" | "--since" | "--until" | "--procs" | "--kind" | "--var" | "--tag"
            | "--barrier" => clauses.push(format!("{}={}", &flag[2..], a.value()?)),
            "--format" => o.out_format = Some(a.choice(TraceFormat::parse, "`bin` or `jsonl`")?),
            "--decode-workers" => o.decode_workers = Some(a.decode_workers()?),
            _ => return o.metrics.take(flag, a),
        }
        Ok(true)
    })?;
    let (Some(input), Some(output)) = (input, output) else {
        return Err(CliError::Usage(SLICE_USAGE.into()));
    };
    if o.suppress && o.expand {
        return Err(CliError::Usage(
            "--suppress and --expand are mutually exclusive".into(),
        ));
    }
    o.spec = SliceSpec::parse(&clauses.join(" ")).map_err(|e| CliError::Usage(e.to_string()))?;
    (o.input, o.output) = (input, output);
    Ok(o)
}

/// `ppa slice`: copy the events a slice expression selects (QUERIES.md)
/// into a new trace, optionally collapsing repeated per-processor
/// patterns into counted repeat records (`--suppress`) or expanding
/// records back into the events they stand for (`--expand`). A time
/// window engages the binary block skip index, so non-matching blocks
/// are discarded without CRC or decode; the final accounting is exact —
/// every input event is emitted, filtered, skipped undecoded,
/// suppressed into a record, or lost to a lenient-mode gap.
pub(crate) fn run(args: &[String]) -> Result<(), CliError> {
    let o = parse(args)?;
    let (input, output, metrics) = (o.input, o.output, &o.metrics);
    refuse_output_onto_input(
        input,
        &[("output", Some(output)), ("--metrics-out", metrics.out)],
    )?;

    let registry = metrics.out.is_some().then(ppa::obs::Registry::new);
    let probes = match &registry {
        Some(r) => SliceProbes::register(r),
        None => SliceProbes::noop(),
    };

    let file = File::open(input).map_err(|e| CliError::NoInput(format!("{input}: {e}")))?;
    let workers = o
        .decode_workers
        .unwrap_or_else(ppa::trace::default_decode_workers);
    let mut reader = AnyTraceReader::open_parallel(BufReader::new(file), workers)
        .map_err(|e| CliError::from(e).prefixed(input))?;
    reader.set_lenient(o.lenient);
    let in_format = reader.format();
    let kind = reader.kind();
    let format = o.out_format.unwrap_or(in_format);

    let sink = create_output(output, o.force)?;
    let out_err = |e: ppa::trace::IoError| CliError::Io(format!("{output}: {e}"));
    // The slice's event count is unknown until the run ends, so the
    // advisory header count stays 0.
    let mut writer = AnyTraceWriter::new(sink, format, kind, 0).map_err(out_err)?;

    let (stats, expansion) = if o.expand {
        let (stats, expansion) = expand_slice(&mut reader, &o.spec, &probes, input, |e| {
            writer.write_event(e).map_err(out_err)
        })?;
        (stats, Some(expansion))
    } else {
        let options = SliceOptions {
            spec: o.spec,
            suppress: o.suppress,
            use_skip_index: true,
        };
        let stats = slice_stream(&mut reader, &options, &probes, |e| writer.write_event(e))
            .map_err(|e| match e {
                SliceError::Io(err) => CliError::from(err).prefixed(input),
                SliceError::Output(err) => out_err(err),
                e @ SliceError::SuppressedInput { .. } => CliError::Data(format!("{input}: {e}")),
            })?;
        (stats, None)
    };
    let mut inner = writer.finish().map_err(out_err)?;
    inner
        .flush()
        .map_err(|e| CliError::Io(format!("{output}: {e}")))?;

    let mut lines = vec![
        format!(
            "sliced {input} ({in_format}) -> {output} ({format}): {} event(s) emitted, \
             {} filtered",
            stats.emitted, stats.filtered
        ),
        format!(
            "skip index: {} block(s) skipped undecoded ({} event(s))",
            stats.skipped_blocks, stats.skipped_events
        ),
    ];
    if o.suppress {
        lines.push(format!(
            "suppression: {} repeat record(s) standing for {} suppressed event(s)",
            stats.records, stats.suppressed
        ));
    }
    if let Some((records, expanded)) = expansion {
        lines.push(format!(
            "expansion: {records} repeat record(s) expanded into {expanded} event(s)"
        ));
    }
    if stats.lost > 0 {
        lines.push(format!("lenient gaps: {} event(s) lost", stats.lost));
    }
    print_summary(&lines)?;
    if expansion.is_none() && !stats.conservation_holds() {
        return Err(CliError::Data(format!(
            "{input}: slice accounting broken: {} of {} input event(s) accounted for",
            stats.accounted(),
            stats.expected
        )));
    }

    if let (Some(path), Some(registry)) = (metrics.out, registry) {
        metrics.export(&registry, path)?;
        print_summary(&[format!("metrics snapshot written to {path}")])?;
    }
    Ok(())
}

/// `ppa slice --expand`: expands every repeat record of `reader` and
/// hands `write` the logical events `spec` selects, each as the expander
/// produces it, so a record standing for billions of events streams
/// through in the memory of its pattern. Returns the stats and (records
/// expanded, events reproduced).
///
/// Expansion must see every record — including ones a skipped block
/// would hide — so it reads everything undiscarded and filters after
/// expanding. Conservation is over logical events here: emitted +
/// filtered == physical input + expanded.
fn expand_slice<R: std::io::Read>(
    reader: &mut AnyTraceReader<R>,
    spec: &SliceSpec,
    probes: &SliceProbes,
    input: &str,
    mut write: impl FnMut(&ppa::trace::Event) -> Result<(), CliError>,
) -> Result<(ppa::slice::SliceStats, (u64, u64)), CliError> {
    let mut stats = ppa::slice::SliceStats {
        expected: reader.expected_events() as u64,
        ..Default::default()
    };
    let mut expander = ppa::analysis::RepeatExpander::new();
    let mut deliver = |ev: ppa::trace::Event| -> Result<(), CliError> {
        if spec.matches(&ev) {
            write(&ev)?;
            stats.emitted += 1;
            probes.events_emitted.inc();
        } else {
            stats.filtered += 1;
            probes.events_filtered.inc();
        }
        Ok(())
    };
    // `write` fails only on output; a `Data` error is the expander's,
    // about the input.
    let input_named = |e: CliError| match e {
        CliError::Data(_) => e.prefixed(input),
        e => e,
    };
    for item in reader.by_ref() {
        let event = item.map_err(|e| CliError::from(e).prefixed(input))?;
        expander.push(event, &mut deliver).map_err(input_named)?;
    }
    expander.finish(&mut deliver)?;
    stats.lost = reader.events_lost();
    Ok((stats, (expander.records(), expander.expanded())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa::trace::{AnyTraceReader, Event, EventKind, ProcessorId, StatementId, Time, TraceKind};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Records the largest single allocation or reallocation on the
    /// current thread, so the tests running beside it do not count.
    struct LargestAlloc;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: defers every operation to `System`; the bookkeeping touches
    // only a const-initialized thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    /// `ppa slice --expand` writes a record's occurrences as they are
    /// produced: a million of them cost no more memory than two.
    #[test]
    fn expand_slice_streams_a_million_occurrence_record() {
        let at =
            |t: u64, seq: u64, kind| Event::new(Time::from_nanos(t), ProcessorId(0), seq, kind);
        let events = [
            at(
                0,
                0,
                EventKind::Statement {
                    stmt: StatementId(7),
                },
            ),
            at(
                100,
                1,
                EventKind::Repeat {
                    len: 1,
                    count: 1_000_000,
                    dt_ns: 100,
                    dseq: 1,
                    dfield: 0,
                },
            ),
        ];
        let mut w =
            AnyTraceWriter::new(Vec::new(), TraceFormat::Jsonl, TraceKind::Measured, 2).unwrap();
        events.iter().for_each(|e| w.write_event(e).unwrap());
        let mut reader = AnyTraceReader::open(std::io::Cursor::new(w.finish().unwrap())).unwrap();

        LARGEST.with(|l| l.set(0));
        let (mut written, mut last) = (0u64, None);
        let (stats, expansion) = expand_slice(
            &mut reader,
            &SliceSpec::default(),
            &SliceProbes::noop(),
            "in.jsonl",
            |e| {
                written += 1;
                last = Some(*e);
                Ok(())
            },
        )
        .unwrap();
        let largest = LARGEST.with(Cell::get);

        assert_eq!(expansion, (1, 1_000_000));
        assert_eq!((written, stats.emitted), (1_000_001, 1_000_001));
        assert_eq!(last.map(|e| e.seq), Some(1_000_000));
        assert!(largest <= 1 << 20, "a {largest}-byte allocation");
    }
}
