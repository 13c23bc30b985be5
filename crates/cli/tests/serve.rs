//! End-to-end tests of `ppa serve` + `ppa send` against the real
//! binary: many concurrent mixed-fault client streams must each produce
//! a report byte-identical to batch `ppa analyze`, quota refusals must
//! surface as typed exit-65 errors, and a daemon killed with SIGTERM
//! (graceful park) or SIGKILL (cadence checkpoint only) must resume
//! every session to the same bytes after a restart.

use ppa::prelude::*;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// A DOACROSS workload; `iters` varies per stream so no two streams
/// are byte-identical to each other.
fn measured_jsonl(dir: &Path, name: &str, iters: u64) -> PathBuf {
    let cfg = ppa::experiments::experiment_config();
    let mut b = ProgramBuilder::new("serve-e2e");
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

fn to_bin(input: &Path, bin: &Path, block_events: &str) {
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

/// The uninterrupted `ppa analyze --stream` report the daemon's
/// per-session report must match byte for byte.
fn reference_report(input: &Path, out_path: &Path, extra: &[&str]) {
    let out = ppa_cmd(
        "analyze",
        &[
            &[
                input.to_str().unwrap(),
                "--stream",
                "--out",
                out_path.to_str().unwrap(),
            ],
            extra,
        ]
        .concat(),
    );
    assert!(out.status.success(), "{:?}", out);
}

/// A running `ppa serve` child plus the addresses parsed from its
/// startup banner (ports are bound as `:0`, so the banner is the only
/// way to learn them).
struct Daemon {
    child: Child,
    tcp: String,
    unix: Option<PathBuf>,
}

fn start_daemon(state: &Path, unix: bool, extra: &[&str]) -> Daemon {
    let sock = state.join("ppa.sock");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ppa"));
    cmd.args(["serve", "--checkpoint-dir", state.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0"]);
    if unix {
        cmd.args(["--unix-socket", sock.to_str().unwrap()]);
    }
    cmd.args(extra).stdout(Stdio::null()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn ppa serve");
    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut tcp = None;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read daemon stderr");
        assert!(n > 0, "daemon exited before printing `ready`");
        let line = line.trim_end();
        if let Some(addr) = line.strip_prefix("ppa-serve: listening on tcp ") {
            tcp = Some(addr.to_string());
        }
        if line == "ppa-serve: ready" {
            break;
        }
    }
    // Keep draining so a chatty daemon can never block on a full pipe.
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    Daemon {
        child,
        tcp: tcp.expect("daemon printed its tcp address"),
        unix: unix.then_some(sock),
    }
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn wait(&mut self, secs: u64) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon did not exit in {secs}s");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM {pid} failed");
}

fn send_args<'a>(
    trace: &'a str,
    daemon: &'a Daemon,
    via_unix: bool,
    tenant: &'a str,
    stream: &'a str,
) -> Vec<&'a str> {
    let mut args = vec![trace];
    if via_unix {
        args.extend(["--unix", daemon.unix.as_ref().unwrap().to_str().unwrap()]);
    } else {
        args.extend(["--to", daemon.tcp.as_str()]);
    }
    args.extend(["--tenant", tenant, "--stream", stream]);
    args
}

fn report_path(state: &Path, tenant: &str, stream: &str) -> PathBuf {
    state.join(tenant).join(format!("{stream}.report.jsonl"))
}

fn ckpt_path(state: &Path, tenant: &str, stream: &str) -> PathBuf {
    state.join(tenant).join(format!("{stream}.ckpt"))
}

fn wait_for(what: &str, secs: u64, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "{what} did not happen in {secs}s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// --- raw protocol bytes (deliberately hand-rolled, not the library
// encoder, so these tests also cross-check the wire format) ---

fn frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![ty, 0, 0, 0];
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn hello_payload(tenant: &str, stream: &str) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(b"PPASERV1");
    p.push(1); // version
    p.push(0); // flags
    p.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
    p.extend_from_slice(tenant.as_bytes());
    p.extend_from_slice(&(stream.len() as u16).to_le_bytes());
    p.extend_from_slice(stream.as_bytes());
    p
}

/// Reads one `(type, payload)` frame off a blocking socket.
fn read_frame(sock: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 8];
    sock.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload).expect("frame payload");
    (header[0], payload)
}

/// Eight simultaneous client streams — clean, corrupted, and reordered,
/// over TCP and the unix socket, across three tenants — each must
/// produce exactly the bytes batch `ppa analyze` produces for its input
/// under the same fault flags, and every checkpoint must be gone once
/// its session completes.
#[test]
fn eight_mixed_concurrent_streams_match_batch_analyze() {
    let dir = tmp("serve_mixed");
    let state = dir.join("state");
    // `--decode-workers 2` routes the binary streams through the
    // pipelined decoder on both the daemon and the reference analyze,
    // so this test also pins pipelined-vs-batch byte identity under
    // corruption and reordering.
    let fault_flags = [
        "--lenient",
        "--reorder-window",
        "8",
        "--decode-workers",
        "2",
    ];

    // Streams 0-2: clean JSONL; 3-4: clean binary; 5-6: binary with one
    // corrupted payload byte (lenient gap); 7: JSONL with two adjacent
    // lines swapped (reorder window).
    let mut inputs = Vec::new();
    for i in 0..8u64 {
        let input = measured_jsonl(&dir, &format!("in_{i}.jsonl"), 64 + 16 * i);
        let input = match i {
            3 | 4 => {
                let bin = dir.join(format!("in_{i}.bin"));
                to_bin(&input, &bin, "32");
                bin
            }
            5 | 6 => {
                let bin = dir.join(format!("in_{i}.bin"));
                to_bin(&input, &bin, "32");
                let mut bytes = fs::read(&bin).expect("read bin");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                let corrupt = dir.join(format!("in_{i}_corrupt.bin"));
                fs::write(&corrupt, &bytes).expect("write corrupt");
                corrupt
            }
            7 => {
                let text = fs::read_to_string(&input).expect("read measured");
                let mut lines: Vec<&str> = text.lines().collect();
                let k = lines.len() / 2;
                lines.swap(k, k + 1);
                let shuffled = dir.join(format!("in_{i}_shuffled.jsonl"));
                fs::write(&shuffled, lines.join("\n") + "\n").expect("write shuffled");
                shuffled
            }
            _ => input,
        };
        let reference = dir.join(format!("ref_{i}.jsonl"));
        reference_report(&input, &reference, &fault_flags);
        inputs.push((input, reference));
    }

    let daemon = start_daemon(&state, true, &fault_flags);
    let tenants = [
        "acme", "beta", "acme", "gamma", "beta", "acme", "gamma", "beta",
    ];

    // All eight clients in flight at once, alternating TCP/unix.
    let clients: Vec<(usize, Child)> = inputs
        .iter()
        .enumerate()
        .map(|(i, (input, _))| {
            let stream = format!("run-{i}");
            let child = Command::new(env!("CARGO_BIN_EXE_ppa"))
                .arg("send")
                .args(send_args(
                    input.to_str().unwrap(),
                    &daemon,
                    i % 2 == 1,
                    tenants[i],
                    &stream,
                ))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn ppa send");
            (i, child)
        })
        .collect();

    for (i, child) in clients {
        let out = child.wait_with_output().expect("reap ppa send");
        assert!(out.status.success(), "stream {i}: {out:?}");
        let stream = format!("run-{i}");
        assert_eq!(
            fs::read(report_path(&state, tenants[i], &stream)).expect("session report"),
            fs::read(&inputs[i].1).expect("reference report"),
            "stream {i}: daemon report differs from batch analyze"
        );
        assert!(
            !ckpt_path(&state, tenants[i], &stream).exists(),
            "stream {i}: completed session left its checkpoint behind"
        );
    }
}

/// Absurd `--decode-workers` values are usage errors (exit 64) before
/// the daemon binds anything.
#[test]
fn serve_rejects_absurd_decode_workers_with_exit_64() {
    let dir = tmp("serve_decode_workers_usage");
    for bad in ["-1", "4096", "many"] {
        let out = ppa_cmd(
            "serve",
            &[
                "--checkpoint-dir",
                dir.to_str().unwrap(),
                "--decode-workers",
                bad,
            ],
        );
        assert_eq!(out.status.code(), Some(64), "value {bad:?}: {out:?}");
    }
}

/// Quota refusals come back as typed protocol errors and `ppa send`
/// maps them onto exit 65 with the error's symbolic name in stderr.
#[test]
fn quota_rejections_are_typed_exit_65_errors() {
    let dir = tmp("serve_quota");
    let state = dir.join("state");
    let input = measured_jsonl(&dir, "quota_in.jsonl", 32);
    let daemon = start_daemon(&state, false, &["--tenant-max-sessions", "1"]);

    // Hold (acme, held) open by hand: HELLO, then silence.
    let mut held = TcpStream::connect(&daemon.tcp).expect("connect");
    held.write_all(&frame(0x01, &hello_payload("acme", "held")))
        .expect("send HELLO");
    let (ty, _) = read_frame(&mut held);
    assert_eq!(ty, 0x10, "expected OK for the held session");

    // Same (tenant, stream): the specific refusal, not the cap.
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "acme", "held"),
    );
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("session-busy"), "stderr: {stderr}");

    // Different stream, same tenant: the 1-session quota.
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "acme", "other"),
    );
    assert_eq!(out.status.code(), Some(65), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tenant-sessions"), "stderr: {stderr}");

    // Another tenant is unaffected.
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "beta", "fine"),
    );
    assert!(out.status.success(), "{:?}", out);

    // Releasing the held slot frees the quota.
    drop(held);
    wait_for("held session release", 10, || {
        ppa_cmd(
            "send",
            &send_args(input.to_str().unwrap(), &daemon, false, "acme", "other"),
        )
        .status
        .success()
    });
}

/// An idle session is evicted with `ERROR idle-evicted` and its state
/// checkpointed; a later `ppa send` of the full trace resumes it and
/// converges to the batch-analyze bytes.
#[test]
fn idle_eviction_checkpoints_and_send_resumes() {
    let dir = tmp("serve_evict");
    let state = dir.join("state");
    let input = measured_jsonl(&dir, "evict_in.jsonl", 256);
    let reference = dir.join("evict_ref.jsonl");
    reference_report(&input, &reference, &[]);

    let daemon = start_daemon(
        &state,
        false,
        &["--idle-timeout-ms", "400", "--checkpoint-every", "64"],
    );

    // A client that sends half the trace (cut at a line boundary, so
    // whole events) and then stalls past the idle deadline.
    let bytes = fs::read(&input).expect("read trace");
    let mut cut = bytes.len() / 2;
    while bytes[cut] != b'\n' {
        cut += 1;
    }
    let mut sock = TcpStream::connect(&daemon.tcp).expect("connect");
    sock.write_all(&frame(0x01, &hello_payload("acme", "evict")))
        .expect("send HELLO");
    let (ty, _) = read_frame(&mut sock);
    assert_eq!(ty, 0x10, "expected OK");
    sock.write_all(&frame(0x02, &bytes[..=cut]))
        .expect("send DATA");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (ty, payload) = read_frame(&mut sock);
    assert_eq!(ty, 0x1f, "expected ERROR after idling");
    let code = u16::from_le_bytes(payload[0..2].try_into().unwrap());
    assert_eq!(code, 9, "expected idle-evicted, got code {code}");
    drop(sock);

    let ckpt = ckpt_path(&state, "acme", "evict");
    assert!(ckpt.exists(), "eviction must leave a checkpoint");

    // Full resend resumes past the already-analyzed prefix.
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "acme", "evict"),
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("send: resumed acme/evict"),
        "stdout: {stdout}"
    );
    assert_eq!(
        fs::read(report_path(&state, "acme", "evict")).unwrap(),
        fs::read(&reference).unwrap(),
        "evict-then-resume report differs from batch analyze"
    );
    assert!(
        !ckpt.exists(),
        "completed resume must delete the checkpoint"
    );
}

/// Opens a raw session, sends the first half of `input` (cut at a line
/// boundary), and blocks until the daemon's first cadence checkpoint is
/// durably on disk — the daemon is now provably mid-session, with the
/// socket idle so a signal cannot race in-flight response bytes.
fn half_open_session(
    input: &Path,
    daemon: &Daemon,
    state: &Path,
    tenant: &str,
    stream: &str,
) -> TcpStream {
    let bytes = fs::read(input).expect("read trace");
    let mut cut = bytes.len() / 2;
    while bytes[cut] != b'\n' {
        cut += 1;
    }
    let mut sock = TcpStream::connect(&daemon.tcp).expect("connect");
    sock.write_all(&frame(0x01, &hello_payload(tenant, stream)))
        .expect("send HELLO");
    let (ty, _) = read_frame(&mut sock);
    assert_eq!(ty, 0x10, "expected OK");
    sock.write_all(&frame(0x02, &bytes[..=cut]))
        .expect("send DATA");
    let ckpt = ckpt_path(state, tenant, stream);
    wait_for("first cadence checkpoint", 60, || ckpt.exists());
    sock
}

/// SIGTERM mid-stream: the daemon parks the live session (checkpoint +
/// `ERROR shutting-down`, exit 0), and a restarted daemon resumes it to
/// bytes identical to batch `ppa analyze`.
#[test]
fn sigterm_parks_sessions_and_restart_resumes_byte_identical() {
    let dir = tmp("serve_sigterm");
    let state = dir.join("state");
    let input = measured_jsonl(&dir, "sigterm_in.jsonl", 512);
    let reference = dir.join("sigterm_ref.jsonl");
    reference_report(&input, &reference, &[]);

    let mut daemon = start_daemon(&state, false, &["--checkpoint-every", "64"]);
    let mut sock = half_open_session(&input, &daemon, &state, "acme", "big");

    sigterm(daemon.pid());

    // The parked client sees the typed shutdown error before the close.
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (ty, payload) = read_frame(&mut sock);
    assert_eq!(ty, 0x1f, "expected ERROR on shutdown");
    let code = u16::from_le_bytes(payload[0..2].try_into().unwrap());
    assert_eq!(code, 10, "expected shutting-down, got code {code}");
    drop(sock);

    let status = daemon.wait(30);
    assert!(
        status.success(),
        "graceful shutdown must exit 0: {status:?}"
    );
    assert!(
        ckpt_path(&state, "acme", "big").exists(),
        "no parked checkpoint"
    );

    // Restart on the same state dir; the full resend resumes.
    let daemon = start_daemon(&state, false, &["--checkpoint-every", "64"]);
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "acme", "big"),
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("send: resumed acme/big"),
        "stdout: {stdout}"
    );
    assert_eq!(
        fs::read(report_path(&state, "acme", "big")).unwrap(),
        fs::read(&reference).unwrap(),
        "post-SIGTERM resumed report differs from batch analyze"
    );
}

/// SIGKILL mid-stream: no parking, no flush — but the last cadence
/// checkpoint is atomic on disk, so a restarted daemon truncates the
/// torn report tail and still converges to the batch-analyze bytes.
#[test]
fn sigkill_recovers_from_the_last_cadence_checkpoint() {
    let dir = tmp("serve_sigkill");
    let state = dir.join("state");
    let input = measured_jsonl(&dir, "sigkill_in.jsonl", 512);
    let reference = dir.join("sigkill_ref.jsonl");
    reference_report(&input, &reference, &[]);

    let mut daemon = start_daemon(&state, false, &["--checkpoint-every", "64"]);
    let sock = half_open_session(&input, &daemon, &state, "acme", "hard");

    daemon.child.kill().expect("SIGKILL daemon"); // no flush, no atexit
    daemon.child.wait().expect("reap daemon");
    drop(sock); // the abandoned client just sees a dead socket

    // The cadence checkpoint survived and validates (atomic replace).
    let ckpt = ckpt_path(&state, "acme", "hard");
    let cp = ppa::analysis::read_checkpoint(&ckpt).expect("checkpoint validates");
    let torn = fs::metadata(report_path(&state, "acme", "hard"))
        .unwrap()
        .len();
    assert!(
        cp.sink.bytes_flushed <= torn,
        "checkpoint claims more than was written"
    );

    let daemon = start_daemon(&state, false, &["--checkpoint-every", "64"]);
    let out = ppa_cmd(
        "send",
        &send_args(input.to_str().unwrap(), &daemon, false, "acme", "hard"),
    );
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("send: resumed acme/hard"),
        "stdout: {stdout}"
    );
    assert_eq!(
        fs::read(report_path(&state, "acme", "hard")).unwrap(),
        fs::read(&reference).unwrap(),
        "post-SIGKILL resumed report differs from batch analyze"
    );
}
