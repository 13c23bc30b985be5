//! End-to-end tests of `ppa analyze`: the one pipeline must write the
//! report the library's batch wrapper computes (with or without the
//! no-op `--stream`), errors must map onto the documented sysexits
//! codes, an output must never land on the input, and `--metrics-out`
//! must emit a parseable snapshot with nonzero pipeline counters.

use ppa::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes the measured fixture to `dir/name`. Tests run concurrently,
/// so each passes a name of its own.
fn measured_jsonl(dir: &std::path::Path, name: &str) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("analyze-e2e");
    let v = b.sync_var();
    let program = b
        .doacross(1, 64, |body| {
            body.compute("head", 400)
                .await_var(v, -1)
                .compute("cs", 50)
                .advance(v)
        })
        .build()
        .expect("valid workload");
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("valid program");
    let path = dir.join(name);
    let file = fs::File::create(&path).expect("create measured.jsonl");
    ppa::trace::write_trace(&measured.trace, file, ppa::trace::TraceFormat::Jsonl)
        .expect("write measured.jsonl");
    path
}

fn ppa_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa"))
        .arg("analyze")
        .args(args)
        .output()
        .expect("run ppa analyze")
}

fn ppa_convert_to_bin(input: &std::path::Path, bin: &std::path::Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args(["convert", input.to_str().unwrap(), bin.to_str().unwrap()])
        .args(["--to", "bin", "--force"])
        .output()
        .expect("run ppa convert");
    assert!(out.status.success(), "{:?}", out);
}

/// A seeded 1 920-event spinlock scenario: lock episodes instead of
/// awaits, and tight enough that the analyzer clamps approximations.
fn scenario_jsonl(dir: &std::path::Path, name: &str) -> PathBuf {
    use ppa::sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
    let cfg = ScenarioConfig {
        processors: 8,
        rounds: 60,
        ..ScenarioConfig::small(ScenarioFamily::Spinlock)
    };
    let path = dir.join(name);
    let file = fs::File::create(&path).expect("create scenario trace");
    ppa::trace::write_trace(
        &scenario_trace(1, &cfg),
        file,
        ppa::trace::TraceFormat::Jsonl,
    )
    .expect("write scenario trace");
    path
}

/// stream == batch, pinned against the library: `ppa analyze X` and
/// `ppa analyze X --stream` are one path (same report bytes, same
/// stdout), and what that path writes is what the in-process batch
/// wrapper `event_based` computes — so the `Pipeline` report writer and
/// the library cannot drift apart.
#[test]
fn analyze_stream_matches_batch() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let jsonl = measured_jsonl(&dir, "stream_batch_in.jsonl");
    let bin = dir.join("stream_batch_in.bin");
    ppa_convert_to_bin(&jsonl, &bin);

    for (input, tag) in [(&jsonl, "jsonl"), (&bin, "bin")] {
        let plain = dir.join(format!("stream_batch_{tag}_plain.jsonl"));
        let flagged = dir.join(format!("stream_batch_{tag}_flagged.jsonl"));
        let input = input.to_str().unwrap();
        let a = ppa_analyze(&[input, "--out", plain.to_str().unwrap()]);
        assert!(a.status.success(), "{tag}: {a:?}");
        let b = ppa_analyze(&[input, "--stream", "--out", flagged.to_str().unwrap()]);
        assert!(b.status.success(), "{tag}: {b:?}");
        let report = fs::read(&plain).expect("read report");
        assert_eq!(report, fs::read(&flagged).unwrap(), "{tag}: report bytes");
        assert_eq!(a.stdout, b.stdout, "{tag}: stdout");

        let measured = ppa::trace::read_trace(fs::File::open(input).unwrap(), 0).unwrap();
        let approx = event_based(&measured, &OverheadSpec::alliant_default()).unwrap();
        let mut library = Vec::new();
        ppa::trace::write_trace(&approx.trace, &mut library, ppa::trace::TraceFormat::Jsonl)
            .unwrap();
        assert!(!library.is_empty());
        assert_eq!(report, library, "{tag}: CLI report vs library");
    }
}

/// The flags that used to demand `--stream` configure the default
/// invocation, and none of them changes the report: observing a run
/// (metrics, progress, a self-trace in either format) never changes
/// what it writes, in either container.
#[test]
fn analyze_fault_and_metrics_flags_need_no_stream_flag() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let jsonl = measured_jsonl(&dir, "no_stream_flag_in.jsonl");
    let bin = dir.join("no_stream_flag_in.bin");
    ppa_convert_to_bin(&jsonl, &bin);

    for (input, tag, format) in [(&jsonl, "jsonl", "jsonl"), (&bin, "bin", "bin")] {
        let input = input.to_str().unwrap();
        let path = |suffix: &str| dir.join(format!("no_stream_flag_{tag}{suffix}"));
        let reference = path("_reference");
        let out = ppa_analyze(&[
            input,
            "--out",
            reference.to_str().unwrap(),
            "--format",
            format,
        ]);
        assert!(out.status.success(), "{tag}: {out:?}");

        let (snap, ckpt) = (path(".prom"), path(".ckpt"));
        let (every, spans, chrome) = (
            path("_every.prom"),
            path("_spans.jsonl"),
            path("_spans.json"),
        );
        for extra in [
            &["--metrics-out", snap.to_str().unwrap()][..],
            &["--lenient"][..],
            &["--checkpoint", ckpt.to_str().unwrap()][..],
            &["--self-trace", spans.to_str().unwrap()][..],
            &[
                "--self-trace",
                chrome.to_str().unwrap(),
                "--self-trace-format",
                "chrome",
            ][..],
            &["--progress"][..],
            &[
                "--metrics-out",
                every.to_str().unwrap(),
                "--metrics-every",
                "1",
            ][..],
        ] {
            // A checkpoint chain is defined for JSONL reports only.
            if format == "bin" && extra[0] == "--checkpoint" {
                continue;
            }
            let report = path("_report");
            let mut args = vec![input, "--out", report.to_str().unwrap(), "--format", format];
            args.extend_from_slice(extra);
            let out = ppa_analyze(&args);
            assert!(out.status.success(), "{tag} {extra:?}: {out:?}");
            assert_eq!(
                fs::read(&report).unwrap(),
                fs::read(&reference).unwrap(),
                "{tag} {extra:?}"
            );
        }
        for written in [&snap, &spans, &chrome, &every] {
            assert!(written.exists(), "{tag}: {}", written.display());
        }
    }
}

/// The analyzer consumes sorted input. A fully shuffled trace is bad
/// data (65) and the message names the remedy; under a reorder window
/// that spans the trace it analyzes to the sorted trace's report.
#[test]
fn analyze_unsorted_input_names_reorder_window_and_reorders_under_it() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let sorted = scenario_jsonl(&dir, "unsorted_sorted_in.jsonl");
    let reference = dir.join("unsorted_reference.jsonl");
    let out = ppa_analyze(&[
        sorted.to_str().unwrap(),
        "--out",
        reference.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);

    // Fisher-Yates over the event lines, driven by a fixed LCG.
    let text = fs::read_to_string(&sorted).unwrap();
    let (header, events) = text.split_once('\n').unwrap();
    let mut lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.len(), 1920);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..lines.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lines.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shuffled = dir.join("unsorted_shuffled_in.jsonl");
    fs::write(&shuffled, format!("{header}\n{}\n", lines.join("\n"))).unwrap();
    let shuffled = shuffled.to_str().unwrap();

    let out = ppa_analyze(&[shuffled]);
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--reorder-window"), "stderr: {stderr}");

    let report = dir.join("unsorted_report.jsonl");
    let out = ppa_analyze(&[
        shuffled,
        "--reorder-window",
        "4000",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(fs::read(&report).unwrap(), fs::read(&reference).unwrap());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let resorted: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("reorder buffer (window 4000): "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no reorder line in: {stdout}"));
    assert!(resorted > 0, "stdout: {stdout}");
    assert!(
        stdout.contains("event(s) re-sorted, 0 rejected"),
        "{stdout}"
    );
}

/// A clamp is never silent: the default invocation prints the clamp
/// and resident-state lines (they used to need `--stream`).
#[test]
fn analyze_default_summary_reports_clamps_and_resident_state() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = scenario_jsonl(&dir, "clamp_summary_in.jsonl");
    let out = ppa_analyze(&[input.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "clamped approximations: ",
        "peak resident state: ",
        "final approximated time: ",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
    }
    let flagged = ppa_analyze(&[input.to_str().unwrap(), "--stream"]);
    assert_eq!(out.stdout, flagged.stdout);
}

/// An input that leaves the analyzer's order-aware structures says so:
/// the summary's resident-state line and `--metrics-out` both count the
/// entries that took the spill paths; a well-formed DOACROSS trace
/// reports neither.
#[test]
fn analyze_summary_and_metrics_count_spills() {
    use ppa::trace::{Trace, TraceBuilder};
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |trace: &Trace, name: &str| {
        let path = dir.join(name);
        ppa::trace::write_trace(
            trace,
            fs::File::create(&path).unwrap(),
            ppa::trace::TraceFormat::Jsonl,
        )
        .unwrap();
        path
    };
    // Two statements 1 ns apart (one approximated time, descending seq:
    // an emission spill) and an advance tag far from the first (a
    // hash-spilled key).
    let hostile = TraceBuilder::measured()
        .on(0)
        .at(5_000_001)
        .stmt(1)
        .at(5_000_000)
        .stmt(0)
        .at(6_000_000)
        .advance(0, 0)
        .at(7_000_000)
        .advance(0, 1 << 40)
        .build();
    let input = write(&hostile, "spill_summary_in.jsonl");
    let metrics = dir.join("spill_summary.prom");
    let out = ppa_analyze(&[
        input.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("peak resident state: "))
        .expect("resident line");
    assert!(
        line.ends_with(", 1 emission spill(s), 1 advance spill(s)"),
        "{line}"
    );
    let snapshot = fs::read_to_string(&metrics).unwrap();
    for series in ["ppa_emit_spill_total 1", "ppa_advance_spill_total 1"] {
        assert!(snapshot.lines().any(|l| l == series), "missing {series:?}");
    }

    let input = measured_jsonl(&dir, "no_spill_summary_in.jsonl");
    let out = ppa_analyze(&[input.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("spill"), "{stdout}");
}

/// Every file `analyze` writes is created (or renamed into place) while
/// the input is still being read, so an output path that is the input
/// is refused up front: exit 64, input byte-identical afterwards.
#[test]
fn analyze_refuses_to_write_onto_its_input() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "onto_input_in.jsonl");
    let before = fs::read(&input).unwrap();
    let input = input.to_str().unwrap();
    let other = dir.join("onto_input_report.jsonl");
    let other = other.to_str().unwrap();
    for args in [
        &[input, "--stream", "--out", input][..],
        &[input, "--out", other, "--checkpoint", input][..],
        &[input, "--self-trace", input][..],
        &[input, "--metrics-out", input][..],
    ] {
        let out = ppa_analyze(args);
        assert_eq!(out.status.code(), Some(64), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is the input file"), "stderr: {stderr}");
        assert_eq!(fs::read(input).unwrap(), before, "{args:?}: input changed");
    }
}

#[test]
fn analyze_rejects_missing_input_with_exit_66() {
    let out = ppa_analyze(&["/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(66));
    let out = ppa_analyze(&["/nonexistent/trace.jsonl", "--stream"]);
    assert_eq!(out.status.code(), Some(66));
}

#[test]
fn analyze_reports_usage_errors_with_exit_64() {
    let out = ppa_analyze(&[]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_analyze(&["t.jsonl", "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_analyze(&["t.jsonl", "--stream", "--metrics-format", "xml"]);
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn analyze_decode_workers_accepts_valid_and_rejects_absurd() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "decode_workers_in.jsonl");
    let bin = dir.join("decode_workers.bin");
    ppa_convert_to_bin(&input, &bin);

    // 0 (serial), 1, and 4 workers must all produce byte-identical
    // approximated output from the same binary input.
    let mut outputs = Vec::new();
    for workers in ["0", "1", "4"] {
        let path = dir.join(format!("approx_w{workers}.jsonl"));
        let out = ppa_analyze(&[
            bin.to_str().unwrap(),
            "--stream",
            "--decode-workers",
            workers,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "workers {workers}: {:?}", out);
        outputs.push(fs::read(&path).expect("read approximated output"));
    }
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);

    // Absurd values are usage errors, not silent clamps.
    for bad in ["-1", "4096", "lots", ""] {
        let out = ppa_analyze(&[bin.to_str().unwrap(), "--decode-workers", bad]);
        assert_eq!(out.status.code(), Some(64), "value {bad:?}: {:?}", out);
    }
    let out = ppa_analyze(&[bin.to_str().unwrap(), "--decode-workers"]);
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
}

#[test]
fn analyze_reports_malformed_line_with_exit_65() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "malformed_in.jsonl");
    let mut bytes = fs::read(&input).expect("read measured.jsonl");
    let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    bytes.splice(first_nl + 1..first_nl + 1, b"{not json}\n".iter().copied());
    let bad = dir.join("malformed.jsonl");
    fs::write(&bad, &bytes).expect("write malformed.jsonl");

    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec![bad.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = ppa_analyze(&args);
        assert_eq!(out.status.code(), Some(65), "{:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The garbage line sits right after the header, i.e. line 2.
        assert!(stderr.contains("line 2"), "stderr: {stderr}");
    }
}

/// An input the analyzer or the repeat expander refuses is named in the
/// message, as an input that does not decode is.
#[test]
fn analyze_errors_name_the_input() {
    use ppa::trace::{write_trace, SyncTag, SyncVarId, Trace, TraceFormat};
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("analyze_errors_name_the_input");
    fs::create_dir_all(&dir).unwrap();
    let at = |time: u64, proc: u16, seq: u64, kind| {
        Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind)
    };
    let advance = EventKind::Advance {
        var: SyncVarId(0),
        tag: SyncTag(3),
    };
    let orphan = EventKind::Repeat {
        len: 1,
        count: 2,
        dt_ns: 10,
        dseq: 1,
        dfield: 0,
    };
    for (name, events, message) in [
        (
            "dup.jsonl",
            vec![at(10, 0, 0, advance), at(20, 1, 1, advance)],
            "ppa: dup.jsonl: invalid trace: duplicate advance on A0 #3",
        ),
        (
            "orphan.jsonl",
            vec![at(10, 0, 0, orphan)],
            "ppa: orphan.jsonl: repeat record at seq 0 needs a 1-event pattern",
        ),
    ] {
        let trace = Trace::from_events(TraceKind::Measured, events);
        write_trace(
            &trace,
            fs::File::create(dir.join(name)).unwrap(),
            TraceFormat::Jsonl,
        )
        .unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
            .current_dir(&dir)
            .args(["analyze", name])
            .output()
            .expect("run ppa analyze");
        assert_eq!(out.status.code(), Some(65), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(message), "stderr: {stderr}");
    }
}

#[test]
fn analyze_reports_truncated_input_with_exit_65() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "truncated_in.jsonl");
    let bytes = fs::read(&input).expect("read measured.jsonl");
    let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    let cut = dir.join("truncated.jsonl");
    fs::write(&cut, &bytes[..newlines[newlines.len() - 4] + 1]).expect("write truncated.jsonl");

    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec![cut.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = ppa_analyze(&args);
        assert_eq!(out.status.code(), Some(65), "{:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("truncated"), "stderr: {stderr}");
    }
}

/// A report the disk refuses is an output I/O failure (exit 74) with one
/// message, whichever container it is written in and whether a
/// checkpoint barrier or the end of the run met the error — the report
/// thread's error reaches the driver unchanged.
#[test]
fn analyze_report_to_a_full_disk_exits_74_with_one_message() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "full_disk_in.jsonl");
    let input = input.to_str().unwrap();
    let ckpt = dir.join("full_disk.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let out = ["--out", "/dev/full"];
    let mut messages = Vec::new();
    for extra in [
        &[][..],
        &["--format", "bin"][..],
        &["--checkpoint", ckpt][..],
        &["--checkpoint", ckpt, "--checkpoint-every", "50"][..],
    ] {
        fs::remove_file(ckpt).ok();
        let mut args = vec![input];
        args.extend(out);
        args.extend(extra);
        let run = ppa_analyze(&args);
        assert_eq!(run.status.code(), Some(74), "{args:?}: {run:?}");
        messages.push(String::from_utf8_lossy(&run.stderr).into_owned());
    }
    assert!(
        messages[0].starts_with("ppa: /dev/full: ") && messages[0].contains("os error 28"),
        "{}",
        messages[0]
    );
    assert!(messages.iter().all(|m| *m == messages[0]), "{messages:#?}");
}

#[test]
fn analyze_stream_exports_prometheus_metrics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "snap_prom_in.jsonl");
    let snap = dir.join("snap.prom");
    let out = ppa_analyze(&[
        input.to_str().unwrap(),
        "--stream",
        "--progress",
        "--metrics-out",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);

    let text = fs::read_to_string(&snap).expect("read snapshot");
    for needle in [
        "# TYPE ppa_events_pushed_total counter",
        "# TYPE ppa_watermark_lag gauge",
        "# TYPE ppa_resident_events gauge",
        "# TYPE ppa_resident_bytes gauge",
        "ppa_stream_bytes_total{dir=\"read\"}",
        "ppa_stream_bytes_total{dir=\"write\"}",
        "ppa_shard_events_total{shard=\"p0\"}",
        "ppa_shard_throughput_eps{shard=\"p0\"}",
        "ppa_obs_self_overhead_ns_per_probe",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The pipeline really counted: events pushed is nonzero.
    let pushed = text
        .lines()
        .find(|l| l.starts_with("ppa_events_pushed_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("ppa_events_pushed_total sample");
    assert!(pushed > 0);
}

/// README's metric table is the inventory: every family a plain
/// binary-input run with a checkpoint exports has a row there.
#[test]
fn analyze_metric_families_all_have_a_readme_row() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let jsonl = measured_jsonl(&dir, "inventory_in.jsonl");
    let bin = dir.join("inventory_in.bin");
    ppa_convert_to_bin(&jsonl, &bin);
    let (report, snap, ckpt) = (
        dir.join("inventory_report.jsonl"),
        dir.join("inventory.prom"),
        dir.join("inventory.ckpt"),
    );
    let out = ppa_analyze(&[
        bin.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--metrics-out",
        snap.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let readme_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = fs::read_to_string(readme_path).expect("read README.md");
    let text = fs::read_to_string(&snap).expect("read snapshot");
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(families.len() > 10, "snapshot:\n{text}");
    let missing: Vec<&str> = families
        .into_iter()
        .filter(|name| {
            !readme.lines().any(|row| {
                row.starts_with(&format!("| `{name}`")) || row.starts_with(&format!("| `{name}{{"))
            })
        })
        .collect();
    assert!(missing.is_empty(), "README metric table lacks {missing:?}");
}

#[test]
fn analyze_stream_exports_json_metrics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "snap_json_in.jsonl");
    let snap = dir.join("snap.json");
    let out = ppa_analyze(&[
        input.to_str().unwrap(),
        "--stream",
        "--metrics-out",
        snap.to_str().unwrap(),
        "--metrics-format",
        "json",
    ]);
    assert!(out.status.success(), "{:?}", out);

    let text = fs::read_to_string(&snap).expect("read snapshot");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("snapshot is valid JSON");
    let metrics = doc["metrics"].as_array().expect("metrics array");
    assert!(!metrics.is_empty());
    let pushed = metrics
        .iter()
        .find(|m| m["name"].as_str() == Some("ppa_events_pushed_total"))
        .expect("ppa_events_pushed_total present");
    assert!(pushed["value"].as_u64().unwrap() > 0);
}

/// The dogfood loop: a `--self-trace` of a streaming run must itself be
/// a valid ppa trace — `ppa check` lints it clean and `ppa analyze`
/// turns it into a well-formed report — in both container formats.
#[test]
fn analyze_self_trace_dogfoods_through_analyze_and_check() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "self_trace_in.jsonl");
    for name in ["self_trace.jsonl", "self_trace.bin"] {
        let st = dir.join(name);
        let st = st.to_str().unwrap();
        let out = ppa_analyze(&[input.to_str().unwrap(), "--stream", "--self-trace", st]);
        assert!(out.status.success(), "{:?}", out);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("self-trace written to"), "stdout: {stdout}");

        let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
            .args(["check", st])
            .output()
            .expect("run ppa check");
        assert!(out.status.success(), "check {name}: {:?}", out);

        let report = dir.join(format!("{name}.report.jsonl"));
        let out = ppa_analyze(&[st, "--stream", "--out", report.to_str().unwrap()]);
        assert!(out.status.success(), "re-analyze {name}: {:?}", out);
        let text = fs::read_to_string(&report).expect("read self-trace report");
        assert!(!text.trim().is_empty(), "empty report for {name}");
        for line in text.lines() {
            let _: serde_json::Value =
                serde_json::from_str(line).expect("report line is valid JSON");
        }
    }
}

/// The Chrome exporter writes one valid JSON document whose events all
/// carry complete-phase spans named after real pipeline stages.
#[test]
fn analyze_self_trace_chrome_export_parses() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "self_trace_chrome_in.jsonl");
    let chrome = dir.join("self_trace_chrome.json");
    let out = ppa_analyze(&[
        input.to_str().unwrap(),
        "--stream",
        "--self-trace",
        chrome.to_str().unwrap(),
        "--self-trace-format",
        "chrome",
    ]);
    assert!(out.status.success(), "{:?}", out);

    let text = fs::read_to_string(&chrome).expect("read chrome export");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("chrome export is valid JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ns"));
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert!(e["dur"].as_f64().is_some());
        let name = e["name"].as_str().expect("span name");
        assert!(
            [
                "run",
                "decode",
                "crc_verify",
                "reorder",
                "analyze_push",
                "analyze_emit",
                "checkpoint_write",
                "frame_read",
                "ingest",
                "park",
                "reassemble",
                "report_write"
            ]
            .contains(&name),
            "unknown stage name {name:?}"
        );
    }
    // The root span of the run is always recorded.
    assert!(events.iter().any(|e| e["name"].as_str() == Some("run")));
}

#[test]
fn analyze_self_trace_flags_reject_misuse_with_exit_64() {
    // The format selector is meaningless without an output path.
    let out = ppa_analyze(&["t.jsonl", "--stream", "--self-trace-format", "chrome"]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_analyze(&[
        "t.jsonl",
        "--stream",
        "--self-trace",
        "s.jsonl",
        "--self-trace-format",
        "xml",
    ]);
    assert_eq!(out.status.code(), Some(64));
    // Periodic re-export needs a snapshot path and a positive period.
    let out = ppa_analyze(&["t.jsonl", "--stream", "--metrics-every", "5"]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_analyze(&[
        "t.jsonl",
        "--stream",
        "--metrics-out",
        "m.prom",
        "--metrics-every",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(64));
}

/// `ppa analyze … | head -1`: a reader that closes stdout early must not
/// turn a finished analysis into a panic. The summary ends quietly and
/// the `--out` report is complete.
#[test]
fn analyze_ends_quietly_when_stdout_is_closed() {
    use std::process::Stdio;

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "closed_stdout_in.jsonl");
    let input = input.to_str().unwrap();
    let reference = dir.join("closed_stdout_reference.jsonl");
    let out = ppa_analyze(&[input, "--stream", "--out", reference.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);

    for mode in [&["--stream"][..], &[]] {
        // A pipe whose read end is already closed: the write end of a
        // finished child's stdin.
        let mut reader = Command::new(env!("CARGO_BIN_EXE_ppa"))
            .arg("help")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn the pipe's reader");
        let closed = reader.stdin.take().expect("piped stdin");
        assert!(reader.wait().expect("reader exits").success());

        let report = dir.join("closed_stdout_report.jsonl");
        let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
            .args(["analyze", input, "--out", report.to_str().unwrap()])
            .args(mode)
            .stdout(closed)
            .stderr(Stdio::piped())
            .output()
            .expect("run ppa analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{mode:?}: {out:?}");
        assert!(stderr.is_empty(), "{mode:?}: stderr: {stderr}");
        assert_eq!(
            fs::read(&report).unwrap(),
            fs::read(&reference).unwrap(),
            "{mode:?}"
        );
    }
}

/// The summary counts what the analyzer took in, not what the header
/// announced: a header announcing 0 (as a `ppa slice` output does)
/// still reads "analyzed N" for its N events.
#[test]
fn analyze_summary_counts_events_not_the_header_announcement() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "summary_count_in.jsonl");
    let text = fs::read_to_string(&input).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let events = body.lines().count();
    let announced = format!("\"events\":{events}");
    assert!(header.contains(&announced), "{header}");
    let zero = dir.join("summary_count_zero.jsonl");
    fs::write(
        &zero,
        format!("{}\n{body}", header.replace(&announced, "\"events\":0")),
    )
    .unwrap();
    for workers in ["0", "1"] {
        let out = ppa_analyze(&[zero.to_str().unwrap(), "--decode-workers", workers]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("analyzed {events} measured events")),
            "workers {workers}: {stdout}"
        );
    }
}

/// `--self-trace` sees every thread of a JSONL run: the chunks decode on
/// a worker, not on the driver thread that runs the analyzer, and the
/// report thread records one span per batch handed to it.
#[test]
fn analyze_self_trace_shows_jsonl_decode_and_report_threads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "self_trace_threads_in.jsonl");
    let report = dir.join("self_trace_threads_report.jsonl");
    let chrome = dir.join("self_trace_threads.json");
    let out = ppa_analyze(&[
        input.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--decode-workers",
        "1",
        "--self-trace",
        chrome.to_str().unwrap(),
        "--self-trace-format",
        "chrome",
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&chrome).unwrap()).unwrap();
    let spans = doc["traceEvents"].as_array().unwrap();
    let threads_of = |name: &str| -> Vec<u64> {
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|e| e["name"].as_str() == Some(name))
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        tids.sort_unstable();
        tids
    };
    let driver = threads_of("run");
    assert_eq!(driver.len(), 1, "one root span");
    let decode = threads_of("decode");
    assert!(!decode.is_empty(), "JSONL chunks decode under a span");
    assert!(
        !decode.contains(&driver[0]),
        "decode ran on the driver thread"
    );
    let writes = threads_of("report_write");
    assert!(
        !writes.contains(&driver[0]),
        "the report was written on the driver thread"
    );
    // Batches of 512, then the final (possibly empty) one.
    let lines = fs::read_to_string(&report).unwrap().lines().count();
    assert_eq!(writes.len(), (lines - 1) / 512 + 1, "one span per batch");
}
