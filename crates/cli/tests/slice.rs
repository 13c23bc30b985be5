//! End-to-end tests of `ppa slice` and `ppa analyze --slice`: slicing
//! must agree with a naive in-memory filter on both container formats,
//! a time window on a large binary fixture must skip most blocks
//! undecoded (counted in the summary), suppression must round-trip
//! through `--expand`, and the documented sysexits codes must hold.

use ppa::prelude::*;
use ppa::slice::SliceSpec;
use ppa::trace::{read_trace, write_trace, StatementId, SyncTag, SyncVarId, TraceFormat};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn ppa_cmd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args(args)
        .output()
        .expect("run ppa")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A synthetic multi-processor measured trace: statement-dominated with
/// periodic sync, irregular but monotone timestamps.
fn synthetic_trace(n: usize) -> Trace {
    let mut events = Vec::with_capacity(n);
    let mut time = 5u64;
    for i in 0..n {
        time += (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1500 + 1;
        let kind = match i % 61 {
            0 => EventKind::Advance {
                var: SyncVarId((i % 3) as u32),
                tag: SyncTag((i / 61) as i64),
            },
            1 => EventKind::AwaitBegin {
                var: SyncVarId((i % 3) as u32),
                tag: SyncTag((i / 61) as i64 - 1),
            },
            2 => EventKind::AwaitEnd {
                var: SyncVarId((i % 3) as u32),
                tag: SyncTag((i / 61) as i64 - 1),
            },
            _ => EventKind::Statement {
                stmt: StatementId((i % 23) as u32),
            },
        };
        events.push(Event::new(
            Time::from_nanos(time),
            ProcessorId((i % 8) as u16),
            i as u64,
            kind,
        ));
    }
    Trace::from_events(TraceKind::Measured, events)
}

fn write_fixture(path: &Path, trace: &Trace, format: TraceFormat) {
    let file = fs::File::create(path).expect("create fixture");
    match format {
        TraceFormat::Jsonl => write_trace(trace, file, TraceFormat::Jsonl).expect("write fixture"),
        TraceFormat::Binary => {
            write_trace(trace, file, TraceFormat::Binary).expect("write fixture")
        }
    }
}

/// A measured trace from a real instrumented program, for `analyze`.
fn measured_jsonl(dir: &Path, name: &str) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("slice-e2e");
    let v = b.sync_var();
    let program = b
        .doacross(1, 48, |body| {
            body.compute("head", 300)
                .await_var(v, -1)
                .compute("cs", 60)
                .advance(v)
        })
        .build()
        .expect("valid workload");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("valid program");
    let path = dir.join(name);
    let file = fs::File::create(&path).expect("create measured fixture");
    write_trace(&measured.trace, file, TraceFormat::Jsonl).expect("write measured fixture");
    path
}

#[test]
fn slice_matches_naive_filter_on_both_formats() {
    let dir = tmpdir();
    let trace = synthetic_trace(20_000);
    let first = trace.events().first().unwrap().time.as_nanos();
    let last = trace.events().last().unwrap().time.as_nanos();
    let (lo, hi) = (first + (last - first) / 4, first + 3 * (last - first) / 4);
    let expr = format!("window={lo}ns..{hi}ns procs=0,2,4..5");
    let spec = SliceSpec::parse(&expr).expect("valid expression");

    for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
        let ext = match format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "bin",
        };
        let input = dir.join(format!("filter_in.{ext}"));
        let output = dir.join(format!("filter_out.{ext}"));
        write_fixture(&input, &trace, format);
        let out = ppa_cmd(&[
            "slice",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--expr",
            &expr,
            "--force",
        ]);
        assert!(out.status.success(), "{out:?}");

        let sliced = read_trace(fs::File::open(&output).unwrap(), 0).expect("readable slice");
        let expected: Vec<&Event> = trace.iter().filter(|e| spec.matches(e)).collect();
        assert_eq!(sliced.len(), expected.len(), "{ext}");
        for (got, want) in sliced.iter().zip(&expected) {
            assert_eq!(got, *want, "{ext}");
        }

        // The slice passes the projection lint, and only that lint: a
        // plain check must reject the seq holes the projection punched.
        let out = ppa_cmd(&["check", "--slice", output.to_str().unwrap()]);
        assert!(out.status.success(), "{out:?}");
        let out = ppa_cmd(&["check", output.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(65), "{ext}");
    }
}

#[test]
fn slice_identity_copies_and_converts() {
    let dir = tmpdir();
    let trace = synthetic_trace(4_000);
    let input = dir.join("identity_in.bin");
    let output = dir.join("identity_out.jsonl");
    write_fixture(&input, &trace, TraceFormat::Binary);
    let out = ppa_cmd(&[
        "slice",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--format",
        "jsonl",
        "--force",
    ]);
    assert!(out.status.success(), "{out:?}");
    let copied = read_trace(fs::File::open(&output).unwrap(), 0).expect("readable copy");
    assert_eq!(copied.events(), trace.events());
}

/// Acceptance: a `--window --procs` slice of a 1M-event binary fixture
/// must skip at least half the blocks without CRC check or decode.
#[test]
fn slice_window_skips_majority_of_blocks_undecoded() {
    let dir = tmpdir();
    let n = 1 << 20;
    let trace = synthetic_trace(n);
    let input = dir.join("million.bin");
    let output = dir.join("million_sliced.bin");
    write_fixture(&input, &trace, TraceFormat::Binary);

    let first = trace.events().first().unwrap().time.as_nanos();
    let last = trace.events().last().unwrap().time.as_nanos();
    let span = last - first;
    // Middle ~quarter of the run: ~3/8 of the blocks fall entirely
    // before it and ~3/8 entirely after, all skippable from their frame
    // summaries alone.
    let window = format!("{}ns..{}ns", first + 3 * span / 8, first + 5 * span / 8);
    let out = ppa_cmd(&[
        "slice",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--window",
        &window,
        "--procs",
        "0..3",
        "--force",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = stdout_of(&out);
    let skipped: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("skip index: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no skip-index line in {stdout:?}"));
    // DEFAULT_BLOCK_EVENTS is 4096, so the fixture spans n/4096 blocks.
    let total_blocks = n.div_ceil(4096);
    assert!(
        skipped * 2 >= total_blocks,
        "only {skipped} of {total_blocks} blocks skipped:\n{stdout}"
    );

    // The surviving slice is well-formed and matches the naive filter.
    let out = ppa_cmd(&["check", "--slice", output.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let spec = SliceSpec::parse(&format!("window={window} procs=0..3")).unwrap();
    let sliced = read_trace(fs::File::open(&output).unwrap(), 0).expect("readable slice");
    let expected = trace.iter().filter(|e| spec.matches(e)).count();
    assert_eq!(sliced.len(), expected);
}

/// A per-processor periodic trace: each processor repeats the same
/// statement at a fixed stride, the shape the suppressor collapses.
fn periodic_trace(procs: u16, reps: usize) -> Trace {
    let mut events = Vec::new();
    let mut seq = 0u64;
    for r in 0..reps {
        for p in 0..procs {
            events.push(Event::new(
                Time::from_nanos(1_000 + (r as u64) * 100 + p as u64),
                ProcessorId(p),
                seq,
                EventKind::Statement {
                    stmt: StatementId(7),
                },
            ));
            seq += 1;
        }
    }
    Trace::from_events(TraceKind::Measured, events)
}

#[test]
fn slice_suppress_then_expand_round_trips() {
    let dir = tmpdir();
    let trace = periodic_trace(4, 200);
    let input = dir.join("periodic.bin");
    let suppressed = dir.join("periodic_sup.bin");
    let expanded = dir.join("periodic_exp.bin");
    write_fixture(&input, &trace, TraceFormat::Binary);

    let out = ppa_cmd(&[
        "slice",
        input.to_str().unwrap(),
        suppressed.to_str().unwrap(),
        "--suppress",
        "--force",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = stdout_of(&out);
    let sup_line = stdout
        .lines()
        .find(|l| l.starts_with("suppression: "))
        .unwrap_or_else(|| panic!("no suppression line in {stdout:?}"));
    assert!(
        !sup_line.starts_with("suppression: 0 "),
        "nothing suppressed on a periodic trace: {stdout}"
    );
    let sup_trace = read_trace(fs::File::open(&suppressed).unwrap(), 0).expect("readable");
    assert!(sup_trace.len() < trace.len(), "no shrinkage");

    // A suppressed trace lints as a slice, but not as a complete trace.
    let out = ppa_cmd(&["check", "--slice", suppressed.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let out = ppa_cmd(&["check", suppressed.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(65));
    assert!(String::from_utf8_lossy(&out.stdout).contains("repeat-record"));

    let out = ppa_cmd(&[
        "slice",
        suppressed.to_str().unwrap(),
        expanded.to_str().unwrap(),
        "--expand",
        "--force",
    ]);
    assert!(out.status.success(), "{out:?}");
    let round = read_trace(fs::File::open(&expanded).unwrap(), 0).expect("readable");
    assert_eq!(round.events(), trace.events(), "expand is not the inverse");
}

#[test]
fn slice_refuses_to_filter_suppressed_input_with_exit_65() {
    let dir = tmpdir();
    let trace = periodic_trace(2, 100);
    let input = dir.join("refuse_in.bin");
    let suppressed = dir.join("refuse_sup.bin");
    write_fixture(&input, &trace, TraceFormat::Binary);
    let out = ppa_cmd(&[
        "slice",
        input.to_str().unwrap(),
        suppressed.to_str().unwrap(),
        "--suppress",
        "--force",
    ]);
    assert!(out.status.success(), "{out:?}");

    let rejected = dir.join("refuse_out.bin");
    let out = ppa_cmd(&[
        "slice",
        suppressed.to_str().unwrap(),
        rejected.to_str().unwrap(),
        "--procs",
        "0",
        "--force",
    ]);
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--expand"));
}

#[test]
fn slice_usage_errors_exit_64() {
    let dir = tmpdir();
    // Missing operands.
    let out = ppa_cmd(&["slice"]);
    assert_eq!(out.status.code(), Some(64));
    // Contradictory modes.
    let out = ppa_cmd(&["slice", "a.bin", "b.bin", "--suppress", "--expand"]);
    assert_eq!(out.status.code(), Some(64));
    // Unknown clause keyword.
    let out = ppa_cmd(&["slice", "a.bin", "b.bin", "--expr", "bogus=1"]);
    assert_eq!(out.status.code(), Some(64));
    // Duplicate clause across a convenience flag and --expr.
    let out = ppa_cmd(&[
        "slice",
        "a.bin",
        "b.bin",
        "--window",
        "1ns..2ns",
        "--expr",
        "window=3ns..4ns",
    ]);
    assert_eq!(out.status.code(), Some(64));
    // Existing output without --force.
    let trace = synthetic_trace(64);
    let input = dir.join("force_in.bin");
    let output = dir.join("force_out.bin");
    write_fixture(&input, &trace, TraceFormat::Binary);
    fs::write(&output, b"occupied").unwrap();
    let out = ppa_cmd(&["slice", input.to_str().unwrap(), output.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
}

#[test]
fn analyze_slice_scopes_report() {
    let dir = tmpdir();
    let input = measured_jsonl(&dir, "analyze_slice_in.jsonl");
    let input = input.to_str().unwrap();
    let full = dir.join("analyze_full.jsonl");
    let sliced = dir.join("analyze_sliced.jsonl");
    let expr = "kind=sync procs=0..3";

    let out = ppa_cmd(&["analyze", input, "--out", full.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let out = ppa_cmd(&[
        "analyze",
        input,
        "--slice",
        expr,
        "--out",
        sliced.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    // The slice scopes the report: the pipeline agrees with the naive
    // filter of the full report, so slicing never changes the analysis.
    let spec = SliceSpec::parse(expr).unwrap();
    let full = read_trace(fs::File::open(&full).unwrap(), 0).expect("readable");
    let want: Vec<&Event> = full.iter().filter(|e| spec.matches(e)).collect();
    assert!(!want.is_empty(), "degenerate slice");
    assert!(want.len() < full.len(), "slice filtered nothing");
    let got = read_trace(fs::File::open(&sliced).unwrap(), 0).expect("readable");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, *w);
    }
}

/// An output that is the input — here a hard link, so the two paths
/// share nothing but the inode — is refused (exit 64) before the slice
/// truncates what it is about to read.
#[test]
fn slice_refuses_to_write_onto_its_input() {
    let dir = tmpdir();
    let input = dir.join("slice_onto_input.jsonl");
    write_fixture(&input, &synthetic_trace(256), TraceFormat::Jsonl);
    let before = fs::read(&input).unwrap();
    let link = dir.join("slice_onto_input_link.jsonl");
    fs::remove_file(&link).ok();
    fs::hard_link(&input, &link).expect("hard link");
    for output in [&input, &link] {
        let out = ppa_cmd(&[
            "slice",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--format",
            "jsonl",
            "--force",
        ]);
        assert_eq!(out.status.code(), Some(64), "{out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("is the input file"));
        assert_eq!(fs::read(&input).unwrap(), before, "input must be untouched");
    }
}

#[test]
fn analyze_slice_contradicts_resume_with_exit_64() {
    let dir = tmpdir();
    let input = measured_jsonl(&dir, "analyze_resume_in.jsonl");
    let out = ppa_cmd(&[
        "analyze",
        input.to_str().unwrap(),
        "--stream",
        "--slice",
        "procs=0",
        "--resume",
        dir.join("no_such.ckpt").to_str().unwrap(),
        "--out",
        dir.join("resume_out.jsonl").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));
}

#[test]
fn help_documents_slicing_and_sniffing() {
    let out = ppa_cmd(&["help"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("slice"), "{text}");
    assert!(text.contains("auto-sniffed"), "{text}");
    assert!(text.contains("QUERIES.md"), "{text}");
}

/// Satellite regression: duplicate clauses across the two clause
/// sources — convenience flags and `--expr` — are a usage error (exit
/// 64) in *both* directions, exactly like duplicates within one source,
/// while either source alone still works.
#[test]
fn slice_duplicate_clauses_across_sources_exit_64_both_directions() {
    let dir = tmpdir();
    let trace = synthetic_trace(256);
    let input = dir.join("dupsrc_in.jsonl");
    write_fixture(&input, &trace, TraceFormat::Jsonl);
    let input = input.to_str().unwrap();
    let output = dir.join("dupsrc_out.jsonl");
    let output = output.to_str().unwrap();

    // Flag first, expression second.
    let out = ppa_cmd(&[
        "slice",
        input,
        output,
        "--force",
        "--window",
        "0ns..1ms",
        "--expr",
        "window=0ns..2ms",
    ]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "stderr: {stderr}");

    // Expression first, flag second.
    let out = ppa_cmd(&[
        "slice", input, output, "--force", "--expr", "procs=0", "--procs", "1",
    ]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "stderr: {stderr}");

    // Each source alone is accepted.
    let out = ppa_cmd(&["slice", input, output, "--force", "--window", "0ns..1ms"]);
    assert!(out.status.success(), "{out:?}");
    let out = ppa_cmd(&[
        "slice",
        input,
        output,
        "--force",
        "--expr",
        "window=0ns..1ms",
    ]);
    assert!(out.status.success(), "{out:?}");
}

/// A closed stdout ends `ppa slice` quietly, after the slice is whole.
#[test]
fn slice_ends_quietly_when_stdout_is_closed() {
    use std::process::Stdio;

    let dir = tmpdir();
    let trace = synthetic_trace(4_000);
    let (input, output) = (
        dir.join("closed_stdout_in.bin"),
        dir.join("closed_stdout_out.bin"),
    );
    write_fixture(&input, &trace, TraceFormat::Binary);
    // A pipe whose read end is already closed: a finished child's stdin.
    let mut reader = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .arg("help")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the pipe's reader");
    let closed = reader.stdin.take().expect("piped stdin");
    assert!(reader.wait().expect("reader exits").success());
    let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args([
            "slice",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--force",
        ])
        .stdout(closed)
        .output()
        .expect("run ppa slice");
    assert!(out.status.success() && out.stderr.is_empty(), "{out:?}");
    let copied = read_trace(fs::File::open(&output).unwrap(), 0).expect("readable copy");
    assert_eq!(copied.events(), trace.events());
}

/// An output that cannot be written is reported under its own name
/// (exit 74), with or without suppression, not under the input's.
#[test]
fn slice_output_errors_name_the_output() {
    if !Path::new("/dev/full").exists() {
        return;
    }
    // Large enough that the sink fails while slicing, not at the final
    // flush.
    let input = tmpdir().join("slice_full_in.jsonl");
    write_fixture(&input, &synthetic_trace(20_000), TraceFormat::Jsonl);
    let input = input.to_str().unwrap();
    for extra in [&[][..], &["--suppress"][..]] {
        let mut args = vec!["slice", input, "/dev/full", "--force"];
        args.extend(extra);
        let out = ppa_cmd(&args);
        assert_eq!(out.status.code(), Some(74), "{extra:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("ppa: /dev/full: "), "{extra:?}: {stderr}");
    }
}
