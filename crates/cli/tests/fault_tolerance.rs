//! End-to-end tests of the fault-tolerant streaming pipeline:
//! kill-and-resume must reproduce the uninterrupted report byte for
//! byte, `--lenient` must turn undecodable input into exit-0 runs with
//! every lost event accounted for, `--reorder-window` must absorb
//! almost-sorted input, and the new flags must map their misuse onto the
//! documented sysexits codes.

use ppa::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A DOACROSS workload big enough that a mid-run kill is plausible and
/// checkpoint cadences divide it many times over.
fn measured_jsonl(dir: &std::path::Path, name: &str, iters: u64) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("fault-e2e");
    let v = b.sync_var();
    let program = b
        .doacross(1, iters, |body| {
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
    let file = fs::File::create(&path).expect("create measured trace");
    ppa::trace::write_trace(&measured.trace, file, ppa::trace::TraceFormat::Jsonl)
        .expect("write measured trace");
    path
}

fn ppa_cmd(sub: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa"))
        .arg(sub)
        .args(args)
        .output()
        .expect("run ppa")
}

fn to_bin(input: &std::path::Path, bin: &std::path::Path, block_events: &str) {
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            bin.to_str().unwrap(),
            "--to",
            "bin",
            "--block-events",
            block_events,
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
}

#[test]
fn kill_and_resume_reproduces_the_report_byte_for_byte() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "kill_measured.jsonl", 512);
    let bin = dir.join("kill_measured.bin");
    to_bin(&input, &bin, "64");

    // The uninterrupted reference report.
    let reference = dir.join("kill_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            reference.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Start a checkpointed run and kill it as soon as the first
    // checkpoint lands. Whether the kill strikes mid-run or after the
    // run finished, resume must converge to the same report: it
    // truncates the report to the checkpoint's flushed offset and
    // re-analyzes the rest of the input.
    let report = dir.join("kill_report.jsonl");
    let ckpt = dir.join("kill_state.ckpt");
    fs::remove_file(&ckpt).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args([
            "analyze",
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "64",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed analyze");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !ckpt.exists() {
        if let Some(status) = child.try_wait().expect("poll child") {
            assert!(
                ckpt.exists(),
                "child exited ({status:?}) without writing a checkpoint"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().ok(); // SIGKILL — no flush, no atexit
    child.wait().expect("reap child");

    // The checkpoint on disk is complete and valid (atomic replace).
    let cp = ppa::analysis::read_checkpoint(&ckpt).expect("checkpoint validates");
    let flushed = fs::metadata(&report).expect("report exists").len();
    assert!(
        cp.sink.bytes_flushed <= flushed,
        "checkpoint claims more than was written"
    );

    let out = ppa_cmd(
        "analyze",
        &[
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "resumed report differs from the uninterrupted one"
    );
}

#[test]
fn resume_from_every_checkpoint_is_exact_without_a_kill() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "resume_measured.jsonl", 96);

    let reference = dir.join("resume_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            reference.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Run to completion while checkpointing; the surviving file is the
    // last checkpoint taken. Resuming from it re-analyzes the final
    // stretch over the finished report — still byte-identical.
    let report = dir.join("resume_report.jsonl");
    let ckpt = dir.join("resume_state.ckpt");
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "100",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(fs::read(&report).unwrap(), fs::read(&reference).unwrap());

    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "report after resume differs"
    );
}

#[test]
fn lenient_accounts_every_event_lost_to_a_corrupted_block() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "lenient_measured.jsonl", 128);
    let bin = dir.join("lenient_measured.bin");
    to_bin(&input, &bin, "32");

    // Corrupt one payload byte in the middle of the file.
    let mut bytes = fs::read(&bin).expect("read bin");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt = dir.join("lenient_corrupt.bin");
    fs::write(&corrupt, &bytes).expect("write corrupt bin");

    // Strict: bad data, exit 65.
    let out = ppa_cmd("analyze", &[corrupt.to_str().unwrap(), "--stream"]);
    assert_eq!(out.status.code(), Some(65), "{:?}", out);

    // Lenient: exit 0, the gap is reported with its loss accounted.
    let out = ppa_cmd(
        "analyze",
        &[corrupt.to_str().unwrap(), "--stream", "--lenient"],
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("decode gaps:"), "stdout: {stdout}");
    assert!(stdout.contains("event(s) lost"), "stdout: {stdout}");
}

#[test]
fn lenient_jsonl_loses_exactly_the_wrecked_line() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "lenient_line.jsonl", 64);
    let mut bytes = fs::read(&input).expect("read measured");
    let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    // Wreck the third event line (the header is line 1).
    for b in &mut bytes[newlines[2] + 1..newlines[3]] {
        *b = b'?';
    }
    let bad = dir.join("lenient_line_bad.jsonl");
    fs::write(&bad, &bytes).expect("write wrecked");

    let out = ppa_cmd("analyze", &[bad.to_str().unwrap(), "--stream", "--lenient"]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("decode gaps: 1 gap(s), 1 event(s) lost"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("malformed-line"), "stdout: {stdout}");
}

/// Bytes that are not UTF-8 on one line are that line's problem: bad
/// data (exit 65, line number) when strict, a one-event gap counted in
/// `ppa_stream_parse_errors_total` when lenient — never an I/O error.
#[test]
fn non_utf8_jsonl_line_is_bad_data_not_an_io_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "non_utf8_measured.jsonl", 64);
    let mut bytes = fs::read(&input).expect("read measured");
    let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    // Third event line (the header is line 1, so this is line 4).
    bytes[newlines[2] + 10] = 0xff;
    let bad = dir.join("non_utf8_bad.jsonl");
    fs::write(&bad, &bytes).expect("write wrecked");

    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec![bad.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = ppa_cmd("analyze", &args);
        assert_eq!(out.status.code(), Some(65), "{:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 4"), "stderr: {stderr}");
    }

    let snap = dir.join("non_utf8_snap.prom");
    let out = ppa_cmd(
        "analyze",
        &[
            bad.to_str().unwrap(),
            "--stream",
            "--lenient",
            "--metrics-out",
            snap.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("decode gaps: 1 gap(s), 1 event(s) lost"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("malformed-line"), "stdout: {stdout}");
    let text = fs::read_to_string(&snap).expect("read snapshot");
    assert!(
        text.contains("ppa_stream_parse_errors_total{dir=\"read\"} 1"),
        "snapshot:\n{text}"
    );
}

#[test]
fn reorder_window_absorbs_almost_sorted_input() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "reorder_measured.jsonl", 64);

    let reference = dir.join("reorder_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            reference.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Swap two adjacent event lines: the stream is now out of order.
    let text = fs::read_to_string(&input).expect("read measured");
    let mut lines: Vec<&str> = text.lines().collect();
    let k = lines.len() / 2;
    lines.swap(k, k + 1);
    let shuffled = dir.join("reorder_shuffled.jsonl");
    fs::write(&shuffled, lines.join("\n") + "\n").expect("write shuffled");

    // Without tolerance: broken total order, exit 65.
    let out = ppa_cmd("analyze", &[shuffled.to_str().unwrap(), "--stream"]);
    assert_eq!(out.status.code(), Some(65), "{:?}", out);

    // With a window: re-sorted back into the reference analysis.
    let report = dir.join("reorder_report.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            shuffled.to_str().unwrap(),
            "--stream",
            "--reorder-window",
            "8",
            "--out",
            report.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("re-sorted"), "stdout: {stdout}");
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "reordered input must analyze to the reference report"
    );
}

#[test]
fn fault_flags_map_misuse_onto_exit_64() {
    // Checkpointing needs a resumable (JSONL) report to anchor to.
    let out = ppa_cmd(
        "analyze",
        &["t.jsonl", "--stream", "--checkpoint", "c.ckpt"],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    let out = ppa_cmd(
        "analyze",
        &[
            "t.jsonl",
            "--stream",
            "--checkpoint",
            "c.ckpt",
            "--out",
            "r.bin",
            "--format",
            "bin",
        ],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    // Cadence without checkpointing is meaningless.
    let out = ppa_cmd(
        "analyze",
        &["t.jsonl", "--stream", "--checkpoint-every", "10"],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
}

#[test]
fn degenerate_flag_values_are_usage_errors() {
    // `--checkpoint-every 0` would mean "never checkpoint" at best and
    // a divide-by-zero cadence at worst; it must be exit 64, not a
    // silently accepted u64.
    let out = ppa_cmd(
        "analyze",
        &[
            "t.jsonl",
            "--stream",
            "--checkpoint",
            "c.ckpt",
            "--checkpoint-every",
            "0",
        ],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint-every"), "stderr: {stderr}");

    // Same for `--block-events 0`: a binary writer cannot frame
    // zero-event blocks.
    let out = ppa_cmd(
        "convert",
        &["t.jsonl", "t.bin", "--to", "bin", "--block-events", "0"],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--block-events"), "stderr: {stderr}");
}

/// The three fault-tolerance flags together: a corrupted, shuffled
/// binary trace analyzed under `--lenient --reorder-window`, killed
/// mid-run at the first checkpoint, and resumed with the same flags
/// must converge to the report of the uninterrupted run — which means
/// the reorder buffer's in-flight events and the gap accounting both
/// survive the checkpoint round-trip.
#[test]
fn kill_and_resume_with_lenient_and_reorder_window_is_byte_identical() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "trifecta_measured.jsonl", 512);

    // Shuffle: swap two adjacent event lines in the first quarter, so
    // the disorder lands before the first checkpoint cadence boundary
    // and the reorder buffer is non-trivially exercised early.
    let text = fs::read_to_string(&input).expect("read measured");
    let mut lines: Vec<&str> = text.lines().collect();
    let k = lines.len() / 4;
    lines.swap(k, k + 1);
    let shuffled = dir.join("trifecta_shuffled.jsonl");
    fs::write(&shuffled, lines.join("\n") + "\n").expect("write shuffled");

    // Binary, small blocks; then corrupt one payload byte at ~3/4 of
    // the file so the damaged block is far from the shuffled region.
    let bin = dir.join("trifecta.bin");
    to_bin(&shuffled, &bin, "64");
    let mut bytes = fs::read(&bin).expect("read bin");
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0xff;
    let corrupt = dir.join("trifecta_corrupt.bin");
    fs::write(&corrupt, &bytes).expect("write corrupt bin");

    let fault_flags = ["--lenient", "--reorder-window", "8"];

    // The uninterrupted reference run under the same fault flags.
    let reference = dir.join("trifecta_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            &[
                corrupt.to_str().unwrap(),
                "--stream",
                "--out",
                reference.to_str().unwrap(),
            ],
            &fault_flags[..],
        ]
        .concat(),
    );
    assert!(out.status.success(), "{:?}", out);

    // Checkpointed run, killed as soon as the first checkpoint lands.
    let report = dir.join("trifecta_report.jsonl");
    let ckpt = dir.join("trifecta_state.ckpt");
    fs::remove_file(&ckpt).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args([
            "analyze",
            corrupt.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "64",
        ])
        .args(fault_flags)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed analyze");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !ckpt.exists() {
        if let Some(status) = child.try_wait().expect("poll child") {
            assert!(
                ckpt.exists(),
                "child exited ({status:?}) without writing a checkpoint"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().ok(); // SIGKILL — no flush, no atexit
    child.wait().expect("reap child");

    // Resume with all three flags still in force.
    let out = ppa_cmd(
        "analyze",
        &[
            &[
                corrupt.to_str().unwrap(),
                "--stream",
                "--out",
                report.to_str().unwrap(),
                "--resume",
                ckpt.to_str().unwrap(),
            ],
            &fault_flags[..],
        ]
        .concat(),
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "resumed lenient+reorder report differs from the uninterrupted one"
    );
}

/// SIGKILL while the incremental checkpoint chain already holds delta
/// records: resume must reassemble the chain (full snapshot + deltas),
/// and a torn delta tail — the bytes a kill can leave mid-append — must
/// fall back to the longest valid prefix, both converging to the
/// uninterrupted report byte for byte.
#[test]
fn kill_mid_delta_chain_and_torn_tail_resume_byte_identical() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "delta_measured.jsonl", 512);
    let bin = dir.join("delta_measured.bin");
    to_bin(&input, &bin, "64");

    let reference = dir.join("delta_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            reference.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Tight cadence and a compaction period large enough that the kill
    // lands while the chain is full-snapshot + deltas, not right after
    // a compaction.
    let report = dir.join("delta_report.jsonl");
    let ckpt = dir.join("delta_state.ckpt");
    fs::remove_file(&ckpt).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args([
            "analyze",
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "32",
            "--checkpoint-compact-every",
            "64",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed analyze");
    // Wait until the chain holds at least one delta record (scan
    // tolerates a concurrent append as a torn tail), then SIGKILL.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        if let Ok(scan) = ppa::analysis::scan_checkpoint(&ckpt) {
            if scan.delta_records >= 1 {
                break;
            }
        }
        if child.try_wait().expect("poll child").is_some() {
            // Finished before we could kill it: the surviving chain must
            // still hold deltas for the test to mean anything.
            let scan = ppa::analysis::scan_checkpoint(&ckpt).expect("chain scans");
            assert!(scan.delta_records >= 1, "no deltas in finished chain");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no delta record within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().ok(); // SIGKILL — no flush, no atexit
    child.wait().expect("reap child");

    // The chain on disk is a v2 file whose valid prefix reassembles.
    let bytes = fs::read(&ckpt).expect("read chain");
    assert!(bytes.starts_with(b"PPACKPT2"), "not a v2 chain");
    ppa::analysis::read_checkpoint(&ckpt).expect("chain reassembles");

    let out = ppa_cmd(
        "analyze",
        &[
            bin.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "resume from a delta chain differs from the uninterrupted report"
    );

    // Tear the tail mid-record — the shape a kill leaves when it lands
    // inside an append — and resume again over the finished report.
    // The torn suffix must be ignored, the prefix resumed from, and the
    // report re-converge.
    if bytes.len() > 8 + 13 {
        fs::write(&ckpt, &bytes[..bytes.len() - 7]).expect("write torn chain");
        let out = ppa_cmd(
            "analyze",
            &[
                bin.to_str().unwrap(),
                "--stream",
                "--out",
                report.to_str().unwrap(),
                "--resume",
                ckpt.to_str().unwrap(),
            ],
        );
        assert!(out.status.success(), "{:?}", out);
        assert_eq!(
            fs::read(&report).unwrap(),
            fs::read(&reference).unwrap(),
            "resume from a torn delta tail differs from the uninterrupted report"
        );
    }
}

/// `--progress` must stay silent when stderr is not a terminal — a
/// piped run's stderr is machine-read (CI logs, scripted captures) and
/// the ticker would pollute it. `--progress=force` is the escape hatch.
#[test]
fn progress_ticker_stays_silent_when_stderr_is_piped() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "progress_measured.jsonl", 64);

    // `Output` pipes stderr, so `IsTerminal` is false here by construction.
    let out = ppa_cmd(
        "analyze",
        &[input.to_str().unwrap(), "--stream", "--progress"],
    );
    assert!(out.status.success(), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("progress:"),
        "ticker leaked into piped stderr: {stderr}"
    );

    let out = ppa_cmd(
        "analyze",
        &[input.to_str().unwrap(), "--stream", "--progress=force"],
    );
    assert!(out.status.success(), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("progress:"),
        "--progress=force must tick even when piped: {stderr}"
    );
}

#[test]
fn resume_rejects_missing_and_corrupt_checkpoints() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "ckerr_measured.jsonl", 16);
    let report = dir.join("ckerr_report.jsonl");

    // Missing checkpoint file: missing input, exit 66.
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            dir.join("ckerr_nonexistent.ckpt").to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(66), "{:?}", out);

    // Corrupt checkpoint: bad data, exit 65.
    let bad = dir.join("ckerr_corrupt.ckpt");
    fs::write(&bad, b"PPACKPT1 this is not a checkpoint payload").unwrap();
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            bad.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt checkpoint"), "stderr: {stderr}");
}

/// A lock-bearing measured trace whose critical-section loop is
/// perfectly periodic, so redundancy suppression collapses both
/// processors' patterns into repeat records.
fn periodic_lock_jsonl(dir: &std::path::Path, name: &str, rounds: u64) -> PathBuf {
    use ppa::trace::{write_trace, LockId, StatementId, TraceFormat};
    let mut events = Vec::new();
    for r in 0..rounds {
        let t = 1_000 + r * 400;
        let ev = |dt: u64, ds: u64, kind: EventKind| {
            Event::new(
                Time::from_nanos(t + dt),
                ProcessorId((ds == 3) as u16),
                4 * r + ds,
                kind,
            )
        };
        events.push(ev(0, 0, EventKind::LockAcquire { lock: LockId(7) }));
        events.push(ev(
            100,
            1,
            EventKind::Statement {
                stmt: StatementId(5),
            },
        ));
        events.push(ev(200, 2, EventKind::LockRelease { lock: LockId(7) }));
        events.push(ev(
            300,
            3,
            EventKind::Statement {
                stmt: StatementId(9),
            },
        ));
    }
    let trace = Trace::from_events(TraceKind::Measured, events);
    let path = dir.join(name);
    let file = fs::File::create(&path).expect("create lock trace");
    write_trace(&trace, file, TraceFormat::Jsonl).expect("write lock trace");
    path
}

/// Satellite regression: a suppressed *and* shuffled lock-bearing binary
/// trace analyzed under `--reorder-window` must reproduce the plain
/// (unsuppressed, sorted) run byte for byte. The reorder buffer restores
/// total order *before* the expander replays record occurrences, so the
/// analyzer sees the exact original event sequence.
#[test]
fn suppressed_and_shuffled_lock_trace_analyzes_byte_identical_to_plain() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = periodic_lock_jsonl(&dir, "supshuf_plain.jsonl", 48);

    // Normalize the plain fixture through an identity slice: sliced
    // output carries an advisory header count of 0 (unknown), and the
    // suppressed leg below inherits the same container property — so
    // the two reports can be compared byte for byte, header included.
    let plain = dir.join("supshuf_plain0.jsonl");
    let out = ppa_cmd(
        "slice",
        &[input.to_str().unwrap(), plain.to_str().unwrap(), "--force"],
    );
    assert!(out.status.success(), "{:?}", out);

    // Reference: analyze the plain trace.
    let reference = dir.join("supshuf_reference.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            plain.to_str().unwrap(),
            "--stream",
            "--out",
            reference.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Suppress: the periodic critical-section loop must actually
    // collapse, or the regression would be vacuous.
    let suppressed = dir.join("supshuf_suppressed.jsonl");
    let out = ppa_cmd(
        "slice",
        &[
            input.to_str().unwrap(),
            suppressed.to_str().unwrap(),
            "--suppress",
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("suppression: 2 repeat record(s)"),
        "stdout: {stdout}"
    );

    // Shuffle the suppressed stream: swap the first two event lines
    // (line 0 is the header) and the two trailing repeat records.
    let text = fs::read_to_string(&suppressed).expect("read suppressed");
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.len() - 1;
    lines.swap(1, 2);
    lines.swap(last - 1, last);
    let shuffled = dir.join("supshuf_shuffled.jsonl");
    fs::write(&shuffled, lines.join("\n") + "\n").expect("write shuffled");
    let bin = dir.join("supshuf_shuffled.bin");
    to_bin(&shuffled, &bin, "64");

    // Without tolerance the broken total order is bad data (exit 65) —
    // expanded occurrences may not bypass the ordering contract.
    let out = ppa_cmd("analyze", &[bin.to_str().unwrap(), "--stream"]);
    assert_eq!(out.status.code(), Some(65), "{:?}", out);

    // With a window: re-sort, then expand, then analyze — byte-identical
    // to the plain run.
    let report = dir.join("supshuf_report.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            bin.to_str().unwrap(),
            "--stream",
            "--reorder-window",
            "8",
            "--out",
            report.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("re-sorted"), "stdout: {stdout}");
    assert!(
        stdout.contains("expanded 2 repeat record(s)"),
        "stdout: {stdout}"
    );
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "suppressed+shuffled run must match the plain run byte for byte"
    );
}

/// Satellite regression: a PPACKPT2 checkpoint stamped with a *newer*
/// snapshot version must refuse to resume with the typed, named error
/// (bad data, exit 65) instead of attempting a garbage restore.
#[test]
fn resume_from_future_snapshot_version_exits_65_with_named_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "future_measured.jsonl", 96);
    let report = dir.join("future_report.jsonl");
    let ckpt = dir.join("future_state.ckpt");
    fs::remove_file(&ckpt).ok();
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "100",
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    // Forward-version fixture: bump the snapshot version byte (offset 8,
    // right after the PPACKPT2 magic) to one this reader does not know.
    let mut bytes = fs::read(&ckpt).expect("read checkpoint");
    assert_eq!(bytes[8], 3, "snapshot version byte moved?");
    bytes[8] = 4;
    fs::write(&ckpt, &bytes).expect("write future checkpoint");

    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("snapshot version 4 is newer than the supported version 3"),
        "stderr: {stderr}"
    );
}

/// Regression: the repeat-record expander's state (per-processor
/// history, occurrences still pending) is in no checkpoint, so a
/// suppressed trace analyzed under `--checkpoint` used to resume, exit
/// 0, into a silently short report (8 of 192 events). Suppressed input
/// and checkpoints now exclude each other: the run is refused with bad
/// data (65) at the first repeat record, before any checkpoint can
/// cover it, and so is a resume from what it left behind; without
/// `--checkpoint` the same trace still analyzes byte-identical to the
/// plain run.
#[test]
fn suppressed_trace_under_checkpoint_is_refused_not_silently_truncated() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = periodic_lock_jsonl(&dir, "supckpt_plain.jsonl", 48);
    let run = |sub: &str, args: &[&std::path::Path]| {
        let args: Vec<&str> = args.iter().map(|p| p.to_str().unwrap()).collect();
        ppa_cmd(sub, &args)
    };
    let flag = |name: &'static str| std::path::Path::new(name);

    // The plain fixture through an identity slice, so its report header
    // announces 0 (unknown) like the suppressed leg's.
    let plain = dir.join("supckpt_plain0.jsonl");
    let out = run("slice", &[&input, &plain, flag("--force")]);
    assert!(out.status.success(), "{:?}", out);
    let reference = dir.join("supckpt_reference.jsonl");
    let out = run(
        "analyze",
        &[&plain, flag("--stream"), flag("--out"), &reference],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(fs::read_to_string(&reference).unwrap().lines().count(), 193);

    let suppressed = dir.join("supckpt_suppressed.jsonl");
    let out = run(
        "slice",
        &[&input, &suppressed, flag("--suppress"), flag("--force")],
    );
    assert!(out.status.success(), "{:?}", out);
    let first_record = fs::read_to_string(&suppressed)
        .unwrap()
        .lines()
        .skip(1)
        .position(|line| line.contains("Repeat"))
        .expect("the periodic loop must collapse") as u64;

    // No checkpoint, no resume: the expander is in the chain.
    let report = dir.join("supckpt_report.jsonl");
    let out = run(
        "analyze",
        &[&suppressed, flag("--stream"), flag("--out"), &report],
    );
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(fs::read(&report).unwrap(), fs::read(&reference).unwrap());

    // Checkpointing: refused at the record, naming the way out.
    let ckpt = dir.join("supckpt_state.ckpt");
    fs::remove_file(&ckpt).ok();
    let refused = |out: &Output| {
        assert_eq!(out.status.code(), Some(65), "{:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("repeat record"), "stderr: {stderr}");
        assert!(stderr.contains("ppa slice --expand"), "stderr: {stderr}");
    };
    let out = run(
        "analyze",
        &[
            &suppressed,
            flag("--stream"),
            flag("--out"),
            &report,
            flag("--checkpoint"),
            &ckpt,
            flag("--checkpoint-every"),
            flag("3"),
        ],
    );
    refused(&out);
    // Nothing past the last good frontier: the checkpoint left behind
    // stops short of the record.
    let cp = ppa::analysis::read_checkpoint(&ckpt).expect("a cadence checkpoint was written");
    assert!(
        cp.positions_seen <= first_record,
        "checkpoint covers {} positions, the first repeat record is at {first_record}",
        cp.positions_seen
    );

    // Resuming from it meets the same record and the same refusal.
    let out = run(
        "analyze",
        &[
            &suppressed,
            flag("--stream"),
            flag("--out"),
            &report,
            flag("--resume"),
            &ckpt,
        ],
    );
    refused(&out);
}
