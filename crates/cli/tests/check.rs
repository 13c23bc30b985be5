//! End-to-end tests of `ppa check`: every clean trace/report in the
//! pipeline must pass (exit 0), every seeded violation fixture must be
//! flagged with its rule named on stdout (exit 65), misuse must map to
//! exit 64, and the differential oracle must pin the three analysis
//! paths against each other.

use ppa::prelude::*;
use ppa::trace::{
    pair_sync_events, write_trace, BarrierId, Event, EventKind, LockId, SemId, SyncTag, SyncVarId,
    TaskId, Trace, TraceFormat,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ppa_cmd(sub: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa"))
        .arg(sub)
        .args(args)
        .output()
        .expect("run ppa")
}

fn ev(time: u64, proc: u16, seq: u64, kind: EventKind) -> Event {
    Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind)
}

/// Writes `events` as JSONL in *exactly* the given stream order (a
/// violation fixture is often deliberately out of order, which
/// [`Trace::from_events`] would sort away). The header comes from a
/// sorted copy, so the declared kind and event count stay honest.
fn write_fixture(dir: &Path, name: &str, kind: TraceKind, events: &[Event]) -> PathBuf {
    let sorted = Trace::from_events(kind, events.to_vec());
    let mut buf = Vec::new();
    write_trace(&sorted, &mut buf, TraceFormat::Jsonl).expect("serialize fixture");
    let text = String::from_utf8(buf).expect("jsonl is utf-8");
    let header = text.lines().next().expect("header line");
    let mut out = String::with_capacity(text.len());
    out.push_str(header);
    out.push('\n');
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("serialize event"));
        out.push('\n');
    }
    let path = dir.join(name);
    fs::write(&path, out).expect("write fixture");
    path
}

/// Runs `ppa check` on a fixture and asserts it is flagged (exit 65)
/// with `rule` named on stdout.
fn assert_flags(path: &Path, rule: &str) {
    let out = ppa_cmd("check", &[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(65), "{rule}: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(rule), "expected rule {rule} in: {stdout}");
}

fn measured_jsonl(dir: &Path, name: &str) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("check-e2e");
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
    let file = fs::File::create(&path).expect("create measured trace");
    write_trace(&measured.trace, file, TraceFormat::Jsonl).expect("write measured trace");
    path
}

// --- clean inputs pass ---------------------------------------------

#[test]
fn check_passes_clean_measured_trace_and_its_report() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "check_clean.jsonl");

    // The measured trace lints clean.
    let out = ppa_cmd("check", &[input.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK: no invariant violations"), "{stdout}");
    assert!(stdout.contains("lint pass"), "{stdout}");

    // The analyzer's report passes lint + the §4.2.3 conservation laws.
    let report = dir.join("check_clean_report.jsonl");
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--stream",
            "--out",
            report.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let out = ppa_cmd("check", &[report.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lint + report invariants"), "{stdout}");
}

#[test]
fn check_reads_binary_traces_too() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "check_bin_src.jsonl");
    let bin = dir.join("check_bin.bin");
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            bin.to_str().unwrap(),
            "--to",
            "bin",
            "--force",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let out = ppa_cmd("check", &[bin.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
}

// --- seeded violation fixtures are flagged with their rule ----------

#[test]
fn flags_backwards_time_on_one_processor() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_backwards.jsonl",
        TraceKind::Measured,
        &[
            ev(100, 0, 0, EventKind::ProgramBegin),
            ev(50, 0, 1, EventKind::Statement { stmt: 0.into() }),
        ],
    );
    assert_flags(&f, "proc-time-monotone");
    assert_flags(&f, "trace-total-order");
}

#[test]
fn flags_sequence_hole() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_seq_hole.jsonl",
        TraceKind::Measured,
        &[
            ev(10, 0, 0, EventKind::ProgramBegin),
            ev(20, 0, 1, EventKind::Statement { stmt: 0.into() }),
            ev(30, 0, 3, EventKind::ProgramEnd),
        ],
    );
    assert_flags(&f, "seq-contiguity");
}

#[test]
fn flags_await_end_without_begin() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_await_pairing.jsonl",
        TraceKind::Measured,
        &[
            ev(
                10,
                0,
                0,
                EventKind::Advance {
                    var: SyncVarId(0),
                    tag: SyncTag(0),
                },
            ),
            ev(
                20,
                0,
                1,
                EventKind::AwaitEnd {
                    var: SyncVarId(0),
                    tag: SyncTag(0),
                },
            ),
        ],
    );
    assert_flags(&f, "await-pairing");
}

#[test]
fn flags_await_without_any_advance() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_no_advance.jsonl",
        TraceKind::Measured,
        &[
            ev(
                10,
                0,
                0,
                EventKind::AwaitBegin {
                    var: SyncVarId(0),
                    tag: SyncTag(3),
                },
            ),
            ev(
                20,
                0,
                1,
                EventKind::AwaitEnd {
                    var: SyncVarId(0),
                    tag: SyncTag(3),
                },
            ),
        ],
    );
    assert_flags(&f, "await-advance-order");
}

#[test]
fn flags_report_with_backwards_approximated_time() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_ta_backwards.jsonl",
        TraceKind::Approximated,
        &[
            ev(200, 0, 0, EventKind::ProgramBegin),
            ev(100, 0, 1, EventKind::Statement { stmt: 0.into() }),
        ],
    );
    assert_flags(&f, "report-ta-monotone");
}

#[test]
fn flags_report_where_await_completes_before_its_advance() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    // The advance resolves to ta = 500, but the dependent awaitE lands
    // at ta = 400: the measured dependence order was lost.
    let f = write_fixture(
        &dir,
        "viol_order_lost.jsonl",
        TraceKind::Approximated,
        &[
            ev(
                500,
                0,
                0,
                EventKind::Advance {
                    var: SyncVarId(0),
                    tag: SyncTag(0),
                },
            ),
            ev(
                300,
                1,
                1,
                EventKind::AwaitBegin {
                    var: SyncVarId(0),
                    tag: SyncTag(0),
                },
            ),
            ev(
                400,
                1,
                2,
                EventKind::AwaitEnd {
                    var: SyncVarId(0),
                    tag: SyncTag(0),
                },
            ),
        ],
    );
    assert_flags(&f, "await-order-preserved");
}

#[test]
fn flags_report_barrier_exit_before_latest_enter() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_barrier_order.jsonl",
        TraceKind::Approximated,
        &[
            ev(
                100,
                0,
                0,
                EventKind::BarrierEnter {
                    barrier: BarrierId(0),
                },
            ),
            ev(
                200,
                1,
                1,
                EventKind::BarrierEnter {
                    barrier: BarrierId(0),
                },
            ),
            ev(
                150,
                0,
                2,
                EventKind::BarrierExit {
                    barrier: BarrierId(0),
                },
            ),
            ev(
                250,
                1,
                3,
                EventKind::BarrierExit {
                    barrier: BarrierId(0),
                },
            ),
        ],
    );
    assert_flags(&f, "barrier-exit-order");
}

// --- check flags what analysis refuses -----------------------------

/// One measured fixture per `TraceError` the analyzer can raise on a
/// sorted measured trace (all but `AwaitBeforeAdvance`, which only the
/// strict pairing of actual and approximated traces raises): `ppa
/// analyze` refuses each with exit 65 and names the error, and `ppa
/// check` flags each with exit 65 and the rule the error maps to.
#[test]
fn check_flags_every_trace_analyze_refuses() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (var, barrier, lock) = (SyncVarId(0), BarrierId(0), LockId(0));
    let adv = |tag| EventKind::Advance {
        var,
        tag: SyncTag(tag),
    };
    let awb = |tag| EventKind::AwaitBegin {
        var,
        tag: SyncTag(tag),
    };
    let awe = |tag| EventKind::AwaitEnd {
        var,
        tag: SyncTag(tag),
    };
    let (enter, exit) = (
        EventKind::BarrierEnter { barrier },
        EventKind::BarrierExit { barrier },
    );
    let acquire = EventKind::LockAcquire { lock };
    let (p, j) = (
        EventKind::SemAcquire { sem: SemId(0) },
        EventKind::TaskJoin { task: TaskId(0) },
    );
    let start = EventKind::ProgramBegin;
    // The rule `ppa check` names, and the events as (time, processor, kind).
    type Timed = (u64, u16, EventKind);
    let cases: Vec<(&str, Vec<Timed>)> = vec![
        ("trace-total-order", vec![(20, 0, start), (10, 1, start)]),
        ("advance-tag", vec![(10, 0, adv(3)), (20, 1, adv(3))]),
        ("advance-tag", vec![(10, 0, adv(-1))]),
        ("await-pairing", vec![(10, 0, awe(-1))]),
        ("await-pairing", vec![(10, 0, awb(-1))]),
        ("await-pairing", vec![(10, 0, awb(-1)), (20, 0, awb(-2))]),
        (
            "await-advance-order",
            vec![(10, 0, awb(5)), (20, 0, awe(5))],
        ),
        (
            "barrier-protocol",
            vec![(10, 0, enter), (20, 1, enter), (30, 0, exit)],
        ),
        (
            "barrier-protocol",
            vec![
                (10, 0, enter),
                (20, 1, enter),
                (30, 0, exit),
                (40, 2, enter),
                (50, 1, exit),
                (60, 2, exit),
            ],
        ),
        ("barrier-protocol", vec![(10, 0, exit)]),
        ("lock-pairing", vec![(10, 0, acquire), (20, 1, acquire)]),
        ("lock-pairing", vec![(10, 0, acquire)]),
        ("sem-nonnegative", vec![(10, 0, p)]),
        ("task-pairing", vec![(10, 0, j)]),
    ];
    let mut variants = std::collections::HashSet::new();
    for (i, (rule, events)) in cases.into_iter().enumerate() {
        let events: Vec<Event> = (events.into_iter().enumerate())
            .map(|(seq, (time, proc, kind))| ev(time, proc, seq as u64, kind))
            .collect();
        let f = write_fixture(
            &dir,
            &format!("refused_{i}.jsonl"),
            TraceKind::Measured,
            &events,
        );
        // The error analysis refuses the fixture with: its pairing error,
        // or, for the one that is only out of order, the order's.
        let error = match pair_sync_events(&Trace::from_events(TraceKind::Measured, events)) {
            Err(e) => {
                assert!(variants.insert(std::mem::discriminant(&e)), "{e}: twice");
                e.to_string()
            }
            Ok(_) => "not totally ordered".to_string(),
        };
        let out = ppa_cmd("analyze", &[f.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(65), "{error}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&error), "{error}: {stderr}");
        assert_flags(&f, rule);
    }
    assert_eq!(variants.len(), 13, "one fixture per pairing error");
}

/// A duplicate advance in an approximated report breaks the same
/// pairing rule as in a measured trace.
#[test]
fn check_flags_a_report_with_a_duplicate_advance() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let adv = EventKind::Advance {
        var: SyncVarId(0),
        tag: SyncTag(0),
    };
    let f = write_fixture(
        &dir,
        "viol_report_duplicate_advance.jsonl",
        TraceKind::Approximated,
        &[ev(10, 0, 0, adv), ev(20, 1, 1, adv)],
    );
    assert_flags(&f, "advance-tag");
}

/// A closed stdout ends `ppa check` quietly, and the exit code is still
/// the verdict: 0 on a clean trace, 65 with violations.
#[test]
fn check_ends_quietly_when_stdout_is_closed() {
    use std::process::Stdio;

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let clean = measured_jsonl(&dir, "check_closed_stdout.jsonl");
    let held = [ev(10, 0, 0, EventKind::LockAcquire { lock: LockId(0) })];
    let dirty = write_fixture(
        &dir,
        "check_closed_stdout_dirty.jsonl",
        TraceKind::Measured,
        &held,
    );
    for (input, code) in [(clean, 0), (dirty, 65)] {
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
            .args(["check", input.to_str().unwrap()])
            .stdout(closed)
            .output()
            .expect("run ppa check");
        assert_eq!(out.status.code(), Some(code), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
}

// --- metrics cross-check and export --------------------------------

#[test]
fn flags_unaccounted_clamps_from_a_metrics_snapshot() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "check_clamp_clean.jsonl");
    let snap = dir.join("check_clamp.prom");
    fs::write(
        &snap,
        "ppa_core_clamped_approx_total 3\nppa_events_pushed_total 100\n",
    )
    .unwrap();
    let out = ppa_cmd(
        "check",
        &[input.to_str().unwrap(), "--metrics", snap.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unaccounted-clamp"), "{stdout}");
}

#[test]
fn check_exports_per_rule_violation_counts() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let f = write_fixture(
        &dir,
        "viol_for_metrics.jsonl",
        TraceKind::Measured,
        &[
            ev(10, 0, 0, EventKind::ProgramBegin),
            ev(20, 0, 1, EventKind::Statement { stmt: 0.into() }),
            ev(30, 0, 3, EventKind::ProgramEnd),
        ],
    );
    let snap = dir.join("check_violations.prom");
    let out = ppa_cmd(
        "check",
        &[f.to_str().unwrap(), "--metrics-out", snap.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    let prom = fs::read_to_string(&snap).expect("metrics snapshot written");
    assert!(
        prom.contains("ppa_check_violations_total{rule=\"seq-contiguity\"} 1"),
        "{prom}"
    );
}

/// `--metrics-out` naming the file under check is refused before
/// anything is written (exit 64, input untouched), as in `analyze`,
/// `slice` and `convert`.
#[test]
fn check_refuses_metrics_out_onto_its_input() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "check_metrics_onto_input.jsonl");
    let before = fs::read(&input).unwrap();
    let input = input.to_str().unwrap();
    let out = ppa_cmd("check", &[input, "--metrics-out", input]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is the input file"), "{stderr}");
    assert_eq!(fs::read(input).unwrap(), before, "input must be untouched");
}

// --- differential oracle --------------------------------------------

#[test]
fn differential_oracle_pins_the_three_paths_on_seeded_programs() {
    let out = ppa_cmd(
        "check",
        &["--differential", "--seed", "7", "--programs", "5"],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("differential oracle: 5 program(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("OK: no invariant violations"), "{stdout}");
}

// --- misuse maps onto the sysexits scheme ---------------------------

#[test]
fn check_misuse_maps_onto_exit_64() {
    for args in [
        &[][..],
        &["--differential", "t.jsonl"][..],
        &["--differential", "--programs", "0"][..],
        &["--differential", "--seed", "x"][..],
        &["t.jsonl", "--out-dir", "d"][..],
        &["t.jsonl", "--unknown-flag"][..],
    ] {
        let out = ppa_cmd("check", args);
        assert_eq!(out.status.code(), Some(64), "{args:?}: {out:?}");
    }
}

#[test]
fn check_missing_input_maps_onto_exit_66() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let missing = dir.join("check_nonexistent.jsonl");
    let out = ppa_cmd("check", &[missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(66), "{out:?}");
}

// --- checkpoint files route to the chain lint -----------------------

/// `ppa check` on a checkpoint file must validate the chain the way
/// `--resume` would read it: a healthy v2 chain passes with its record
/// count reported, a torn delta tail is flagged (resume tolerates it,
/// the lint must not), and a corrupted full record is flagged too.
#[test]
fn check_lints_checkpoint_chains() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "ckpt_lint_measured.jsonl");
    let report = dir.join("ckpt_lint_report.jsonl");
    let ckpt = dir.join("ckpt_lint_state.ckpt");
    fs::remove_file(&ckpt).ok();

    // Produce a chain with several delta records.
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
            "32",
            "--checkpoint-compact-every",
            "64",
        ],
    );
    assert!(out.status.success(), "{out:?}");

    let out = ppa_cmd("check", &[ckpt.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("v2 checkpoint"), "{stdout}");
    assert!(stdout.contains("delta record(s)"), "{stdout}");
    assert!(stdout.contains("OK: no invariant violations"), "{stdout}");

    // Torn tail: drop the last few bytes, as a kill mid-append would.
    let bytes = fs::read(&ckpt).expect("read chain");
    let torn = dir.join("ckpt_lint_torn.ckpt");
    fs::write(&torn, &bytes[..bytes.len() - 5]).expect("write torn chain");
    assert_flags(&torn, "checkpoint-torn-tail");

    // Corrupt full record: flip a payload byte inside the first record.
    let mut corrupt = bytes.clone();
    corrupt[8 + 13 + 8] ^= 0xff;
    let bad = dir.join("ckpt_lint_corrupt.ckpt");
    fs::write(&bad, &corrupt).expect("write corrupt chain");
    assert_flags(&bad, "checkpoint-corrupt");

    // A v1-magic file with a wrecked payload is also a lint failure,
    // not an I/O error.
    let v1 = dir.join("ckpt_lint_v1_bad.ckpt");
    fs::write(&v1, b"PPACKPT1 this is not a checkpoint payload").unwrap();
    assert_flags(&v1, "checkpoint-corrupt");
}
