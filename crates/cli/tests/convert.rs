//! End-to-end tests of `ppa convert` and the format-transparent
//! `ppa analyze`: a jsonl -> bin -> jsonl round trip must reproduce the
//! original file byte for byte, binary output must be much smaller than
//! the JSONL it came from, errors must map onto the documented sysexits
//! codes, and `analyze` must produce identical analysis output
//! whichever format carries the measured trace.

use ppa::prelude::*;
use ppa::trace::TraceFormat;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes the measured fixture to `dir/name`. Tests run concurrently,
/// so each passes a name of its own.
fn measured_jsonl(dir: &std::path::Path, name: &str) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("convert-e2e");
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
    ppa::trace::write_trace(&measured.trace, file, TraceFormat::Jsonl)
        .expect("write measured.jsonl");
    path
}

/// Reads the trace at `path`, first checking that it is in `format`:
/// the reader takes either container, so that it read one says nothing
/// of which one a command wrote.
fn read_as(path: &std::path::Path, format: TraceFormat) -> ppa::trace::Trace {
    let bytes = fs::read(path).expect("read trace");
    assert_eq!(TraceFormat::sniff(&bytes), format, "{}", path.display());
    ppa::trace::read_trace(bytes.as_slice(), 0).expect("readable trace")
}

fn ppa_cmd(sub: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa"))
        .arg(sub)
        .args(args)
        .output()
        .expect("run ppa")
}

#[test]
fn convert_round_trip_is_byte_identical() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "rt_in.jsonl");
    let bin = dir.join("rt.bin");
    let back = dir.join("rt.jsonl");

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
    assert!(out.status.success(), "{:?}", out);
    let out = ppa_cmd(
        "convert",
        &[
            bin.to_str().unwrap(),
            back.to_str().unwrap(),
            "--to",
            "jsonl",
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    let original = fs::read(&input).expect("read original");
    let round_tripped = fs::read(&back).expect("read round-tripped");
    assert!(!original.is_empty());
    assert_eq!(
        original, round_tripped,
        "jsonl -> bin -> jsonl byte identity"
    );

    // The binary encoding must be dramatically smaller (≤ 40% is the
    // acceptance bar; delta+varint encoding usually does far better).
    let bin_len = fs::metadata(&bin).expect("stat bin").len();
    assert!(
        bin_len * 5 <= original.len() as u64 * 2,
        "binary {} bytes vs jsonl {} bytes",
        bin_len,
        original.len()
    );
}

#[test]
fn convert_respects_block_events() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "small_blocks_in.jsonl");
    let bin = dir.join("small_blocks.bin");
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            bin.to_str().unwrap(),
            "--to",
            "bin",
            "--block-events",
            "16",
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    // Smaller blocks -> more frames, still the same decoded events.
    let decoded = read_as(&bin, TraceFormat::Binary);
    let original = read_as(&input, TraceFormat::Jsonl);
    assert_eq!(decoded, original);
}

#[test]
fn convert_reports_usage_errors_with_exit_64() {
    let out = ppa_cmd("convert", &[]);
    assert_eq!(out.status.code(), Some(64));
    // Missing --to.
    let out = ppa_cmd("convert", &["a.jsonl", "b.bin"]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_cmd("convert", &["a.jsonl", "b.bin", "--to", "csv"]);
    assert_eq!(out.status.code(), Some(64));
    let out = ppa_cmd(
        "convert",
        &["a.jsonl", "b.jsonl", "--to", "jsonl", "--block-events", "8"],
    );
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn convert_maps_input_errors_onto_sysexits() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = ppa_cmd(
        "convert",
        &["/nonexistent/trace.jsonl", "out.bin", "--to", "bin"],
    );
    assert_eq!(out.status.code(), Some(66));

    // A corrupted binary block is bad data: exit 65, with the block index.
    let input = measured_jsonl(&dir, "corrupt_in.jsonl");
    let bin = dir.join("corrupt_src.bin");
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
    assert!(out.status.success(), "{:?}", out);
    let mut bytes = fs::read(&bin).expect("read bin");
    let n = bytes.len();
    bytes[n - 3] ^= 0xff;
    let corrupt = dir.join("corrupt.bin");
    fs::write(&corrupt, &bytes).expect("write corrupt bin");
    let sink = dir.join("corrupt_out.jsonl");
    let out = ppa_cmd(
        "convert",
        &[
            corrupt.to_str().unwrap(),
            sink.to_str().unwrap(),
            "--to",
            "jsonl",
            "--force",
        ],
    );
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("CRC"), "stderr: {stderr}");
}

#[test]
fn analyze_accepts_both_formats_with_identical_output() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "analyze_src_in.jsonl");
    let bin = dir.join("analyze_src.bin");
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
    assert!(out.status.success(), "{:?}", out);

    // From JSONL and from binary: two runs, one approximated trace.
    let outputs = [(&input, "jsonl"), (&bin, "bin")].map(|(src, tag)| {
        let approx = dir.join(format!("approx_{tag}.jsonl"));
        let out = ppa_cmd(
            "analyze",
            &[src.to_str().unwrap(), "--out", approx.to_str().unwrap()],
        );
        assert!(out.status.success(), "{tag}: {:?}", out);
        fs::read(&approx).expect("read approx")
    });
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1], "same analysis whichever format");
}

#[test]
fn analyze_writes_binary_output_on_request() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "approx_fmt_in.jsonl");
    let approx_jl = dir.join("approx_fmt.jsonl");
    let approx_bin = dir.join("approx_fmt.bin");

    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--out",
            approx_jl.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let out = ppa_cmd(
        "analyze",
        &[
            input.to_str().unwrap(),
            "--out",
            approx_bin.to_str().unwrap(),
            "--format",
            "bin",
        ],
    );
    assert!(out.status.success(), "{:?}", out);

    let from_jl = read_as(&approx_jl, TraceFormat::Jsonl);
    let from_bin = read_as(&approx_bin, TraceFormat::Binary);
    assert_eq!(from_jl, from_bin);
}

#[test]
fn convert_refuses_to_overwrite_without_force() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "precious_in.jsonl");
    let target = dir.join("precious.bin");

    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            target.to_str().unwrap(),
            "--to",
            "bin",
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
    let original = fs::read(&target).expect("read first conversion");

    // Second run without --force: refused, file untouched.
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            target.to_str().unwrap(),
            "--to",
            "bin",
        ],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("already exists"), "stderr: {stderr}");
    assert!(stderr.contains("--force"), "stderr: {stderr}");
    assert_eq!(
        fs::read(&target).unwrap(),
        original,
        "output must be untouched"
    );

    // With --force: overwritten.
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            target.to_str().unwrap(),
            "--to",
            "bin",
            "--force",
        ],
    );
    assert!(out.status.success(), "{:?}", out);
}

/// An output that is the input (here reached through `./`) would be
/// truncated while it is still being read: refused as a usage error
/// before anything is created, `--force` or not.
#[test]
fn convert_refuses_to_write_onto_its_input() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "convert_onto_input.jsonl");
    let before = fs::read(&input).unwrap();
    let alias = dir.join(".").join("convert_onto_input.jsonl");
    let out = ppa_cmd(
        "convert",
        &[
            input.to_str().unwrap(),
            alias.to_str().unwrap(),
            "--to",
            "jsonl",
            "--force",
        ],
    );
    assert_eq!(out.status.code(), Some(64), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("is the input file"));
    assert_eq!(fs::read(&input).unwrap(), before, "input must be untouched");
}

/// A closed stdout ends `ppa convert` quietly, after the output is whole.
#[test]
fn convert_ends_quietly_when_stdout_is_closed() {
    use std::process::Stdio;

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let input = measured_jsonl(&dir, "convert_closed_stdout_in.jsonl");
    let output = dir.join("convert_closed_stdout_out.jsonl");
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
            "convert",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--to",
            "jsonl",
            "--force",
        ])
        .stdout(closed)
        .output()
        .expect("run ppa convert");
    assert!(out.status.success() && out.stderr.is_empty(), "{out:?}");
    assert_eq!(fs::read(&output).unwrap(), fs::read(&input).unwrap());
}
