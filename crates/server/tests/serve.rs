//! In-process integration tests of the ingest daemon: a full
//! HELLO→DATA→FIN→DONE roundtrip whose report is byte-identical to a
//! direct single-shot analysis, typed quota rejections, graceful
//! shutdown parking a mid-flight session in a checkpoint, resume to
//! completion, and the /metrics + /healthz endpoints.
//!
//! The heavier end-to-end suite (many concurrent OS-process clients,
//! SIGTERM/SIGKILL against a real daemon process) lives in
//! `crates/cli/tests/serve.rs`; these tests exercise the library
//! surface directly.

use ppa_program::{InstrumentationPlan, ProgramBuilder};
use ppa_server::protocol::{
    self, EC_SESSION_BUSY, EC_TENANT_SESSIONS, EC_UNSUPPORTED_VERSION, FT_DATA, FT_HELLO, FT_OK,
};
use ppa_server::{send_trace, ClientError, Quotas, SendOutcome, ServeConfig, Server, Target};
use ppa_sim::{run_measured, SchedulePolicy, SimConfig};
use ppa_trace::{
    AnyTraceReader, AnyTraceWriter, ClockRate, OverheadSpec, StreamProbes, TraceFormat, TraceKind,
};
use std::fs::{self, File};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn tmp(sub: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(sub);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn overheads() -> OverheadSpec {
    OverheadSpec::alliant_default()
}

/// A measured DOACROSS trace, the same workload shape the CLI e2e
/// tests use, written as `ppa-trace-v1` JSONL.
fn measured_jsonl(dir: &Path, name: &str, iters: u64) -> PathBuf {
    let cfg = SimConfig {
        processors: 8,
        clock: ClockRate::GHZ_1,
        overheads: overheads(),
        schedule: SchedulePolicy::SelfScheduled,
        dispatch_cycles: 50,
        jitter: None,
    }
    .with_jitter(7, 150);
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
    let file = File::create(&path).expect("create measured trace");
    ppa_trace::write_trace(&measured.trace, file, TraceFormat::Jsonl)
        .expect("write measured trace");
    path
}

/// The single-shot reference: the same serial pipeline a session runs,
/// straight from file to report, no protocol in between.
fn reference_report(trace: &Path, out: &Path) {
    use ppa_core::{EventBasedAnalyzer, StreamOutput};
    let reader =
        AnyTraceReader::open(BufReader::new(File::open(trace).unwrap())).expect("open trace");
    let expected = reader.expected_events();
    let mut writer = AnyTraceWriter::with_probes(
        File::create(out).unwrap(),
        TraceFormat::Jsonl,
        TraceKind::Approximated,
        expected,
        StreamProbes::noop(),
    )
    .expect("start report");
    let mut analyzer = EventBasedAnalyzer::new(&overheads());
    let drain = |analyzer: &mut EventBasedAnalyzer, writer: &mut AnyTraceWriter<File>| {
        while let Some(o) = analyzer.next_output() {
            if let StreamOutput::Event(e) = o {
                writer.write_event(&e).unwrap();
            }
        }
    };
    for item in reader {
        analyzer.push(item.expect("decode")).expect("analyze");
        drain(&mut analyzer, &mut writer);
    }
    let tail = analyzer.finish().expect("finish");
    for o in &tail.outputs {
        if let StreamOutput::Event(e) = o {
            writer.write_event(e).unwrap();
        }
    }
    let mut inner = writer.finish().expect("finish report");
    inner.flush().expect("flush report");
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        listen: vec!["127.0.0.1:0".to_string()],
        unix_socket: Some(dir.join("ppa.sock")),
        metrics_listen: Some("127.0.0.1:0".to_string()),
        checkpoint_dir: dir.join("state"),
        quotas: Quotas::default(),
        checkpoint_every: 64,
        idle_timeout: Duration::from_secs(20),
        lenient: false,
        reorder_window: None,
        overheads: overheads(),
        ..ServeConfig::default()
    }
}

struct RunningServer {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<ppa_server::ServeReport>>,
    tcp: std::net::SocketAddr,
    metrics: Option<std::net::SocketAddr>,
    unix: Option<PathBuf>,
}

impl RunningServer {
    fn start(cfg: ServeConfig) -> RunningServer {
        let unix = cfg.unix_socket.clone();
        let server = Server::bind(cfg).expect("bind server");
        let tcp = server.tcp_addrs()[0];
        let metrics = server.metrics_addr();
        let stop = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        RunningServer {
            stop,
            handle: Some(handle),
            tcp,
            metrics,
            unix,
        }
    }

    fn stop(&mut self) -> ppa_server::ServeReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("still running")
            .join()
            .expect("join server")
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut sock = TcpStream::connect(addr).expect("connect metrics");
    write!(
        sock,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    sock.read_to_string(&mut body).expect("read response");
    body
}

#[test]
fn roundtrip_over_tcp_and_unix_matches_direct_analysis() {
    let dir = tmp("roundtrip");
    let trace = measured_jsonl(&dir, "measured.jsonl", 256);
    let reference = dir.join("reference.jsonl");
    reference_report(&trace, &reference);

    let mut server = RunningServer::start(serve_config(&dir));
    let outcomes = [
        send_trace(
            &Target::Tcp(server.tcp.to_string()),
            "acme",
            "tcp-run",
            &trace,
            4096, // small frames: many DATA frames per stream
        ),
        send_trace(
            &Target::Unix(server.unix.clone().unwrap()),
            "acme",
            "unix-run",
            &trace,
            ppa_server::DEFAULT_FRAME_BYTES,
        ),
    ];
    for (outcome, stream) in outcomes.into_iter().zip(["tcp-run", "unix-run"]) {
        let SendOutcome::Done {
            resumed_from,
            summary,
        } = outcome.expect("upload succeeds");
        assert_eq!(resumed_from, 0, "{stream}: fresh stream");
        assert!(summary.events > 0, "{stream}: no events analyzed");
        let report = dir
            .join("state")
            .join("acme")
            .join(format!("{stream}.report.jsonl"));
        assert_eq!(
            fs::read(&report).unwrap(),
            fs::read(&reference).unwrap(),
            "{stream}: server report differs from direct analysis"
        );
        // A completed session leaves no resume token behind.
        assert!(!dir
            .join("state")
            .join("acme")
            .join(format!("{stream}.ckpt"))
            .exists());
    }

    let report = server.stop();
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 0);
}

#[test]
fn quota_rejections_carry_typed_codes() {
    let dir = tmp("quota");
    let trace = measured_jsonl(&dir, "measured.jsonl", 32);
    let mut cfg = serve_config(&dir);
    cfg.quotas.tenant_max_sessions = 1;
    let server = RunningServer::start(cfg);

    // Occupy the tenant's one slot with a half-open session.
    let mut held = TcpStream::connect(server.tcp).unwrap();
    protocol::write_frame(
        &mut held,
        FT_HELLO,
        &protocol::encode_hello("solo", "held").unwrap(),
    )
    .unwrap();
    let ok = protocol::read_frame(&mut held).unwrap();
    assert_eq!(ok.ty, FT_OK);

    // Same tenant, second stream: over the per-tenant session quota.
    let err = send_trace(
        &Target::Tcp(server.tcp.to_string()),
        "solo",
        "other",
        &trace,
        4096,
    )
    .unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, EC_TENANT_SESSIONS),
        other => panic!("expected server rejection, got {other}"),
    }

    // Same (tenant, stream) while the first session is live: busy.
    let err = send_trace(
        &Target::Tcp(server.tcp.to_string()),
        "solo",
        "held",
        &trace,
        4096,
    )
    .unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, EC_SESSION_BUSY),
        other => panic!("expected busy rejection, got {other}"),
    }

    // A different tenant is unaffected.
    send_trace(
        &Target::Tcp(server.tcp.to_string()),
        "other-tenant",
        "run",
        &trace,
        4096,
    )
    .expect("other tenants admit fine");

    // An unknown protocol version is refused before admission.
    let mut sock = TcpStream::connect(server.tcp).unwrap();
    let mut hello = protocol::encode_hello("v", "v").unwrap();
    hello[8] = 99; // version byte
    protocol::write_frame(&mut sock, FT_HELLO, &hello).unwrap();
    let frame = protocol::read_frame(&mut sock).unwrap();
    let (code, _) = protocol::decode_error(&frame.payload).unwrap();
    assert_eq!(code, EC_UNSUPPORTED_VERSION);
    drop(held);
}

#[test]
fn shutdown_parks_sessions_and_resume_is_byte_identical() {
    let dir = tmp("shutdown");
    let trace = measured_jsonl(&dir, "measured.jsonl", 512);
    let reference = dir.join("reference.jsonl");
    reference_report(&trace, &reference);
    let ckpt = dir.join("state").join("acme").join("run.ckpt");
    let report = dir.join("state").join("acme").join("run.report.jsonl");

    // First daemon: send roughly half the trace, no FIN, then shut the
    // daemon down while the connection is still open.
    let mut server = RunningServer::start(serve_config(&dir));
    let bytes = fs::read(&trace).unwrap();
    let mut sock = TcpStream::connect(server.tcp).unwrap();
    protocol::write_frame(
        &mut sock,
        FT_HELLO,
        &protocol::encode_hello("acme", "run").unwrap(),
    )
    .unwrap();
    let ok = protocol::read_frame(&mut sock).unwrap();
    assert_eq!(ok.ty, FT_OK);
    assert_eq!(protocol::decode_ok(&ok.payload).unwrap(), 0);
    protocol::write_frame(&mut sock, FT_DATA, &bytes[..bytes.len() / 2]).unwrap();

    // Let the session decode and analyze the half it has, so the
    // shutdown checkpoint has real state in it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !report.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    let run_report = server.stop();
    assert_eq!(run_report.parked, 1, "session should park, not fail");
    assert!(ckpt.exists(), "shutdown must checkpoint the live session");
    let positions = ppa_core::read_checkpoint(&ckpt)
        .expect("valid checkpoint")
        .positions_seen;
    assert!(positions > 0, "checkpoint captured no progress");

    // Second daemon on the same state dir: the same client command,
    // replayed from byte 0, resumes and completes.
    let server2 = RunningServer::start(serve_config(&dir));
    let outcome = send_trace(
        &Target::Tcp(server2.tcp.to_string()),
        "acme",
        "run",
        &trace,
        4096,
    )
    .expect("resumed upload succeeds");
    let SendOutcome::Done {
        resumed_from,
        summary,
    } = outcome;
    assert_eq!(resumed_from, positions, "OK must echo the checkpoint cut");
    assert!(summary.events > 0);
    assert!(!ckpt.exists(), "completion must delete the checkpoint");
    assert_eq!(
        fs::read(&report).unwrap(),
        fs::read(&reference).unwrap(),
        "resumed report differs from the uninterrupted analysis"
    );
    drop(sock);
}

#[test]
fn metrics_endpoint_exports_per_tenant_series_and_health() {
    let dir = tmp("metrics");
    let trace = measured_jsonl(&dir, "measured.jsonl", 64);
    let server = RunningServer::start(serve_config(&dir));
    send_trace(
        &Target::Tcp(server.tcp.to_string()),
        "acme",
        "run",
        &trace,
        4096,
    )
    .expect("upload succeeds");

    let metrics_addr = server.metrics.expect("metrics endpoint configured");
    let health = http_get(metrics_addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert!(health.ends_with("ok\n"), "healthz body: {health}");

    let scrape = http_get(metrics_addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "metrics: {scrape}");
    for series in [
        "ppa_server_connections_total",
        "ppa_server_sessions_started_total{tenant=\"acme\"}",
        "ppa_server_sessions_completed_total{tenant=\"acme\"}",
        "ppa_server_events_total{tenant=\"acme\"}",
        "ppa_server_bytes_total{tenant=\"acme\"}",
    ] {
        let line = scrape
            .lines()
            .find(|l| l.starts_with(series))
            .unwrap_or_else(|| panic!("missing series {series} in scrape:\n{scrape}"));
        let value: f64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparseable sample: {line}"));
        assert!(value > 0.0, "series {series} is zero");
    }

    let missing = http_get(metrics_addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "404: {missing}");
}

/// Each session leaves a per-session self-trace behind when
/// `self_trace_dir` is set: a valid measured ppa trace of the session's
/// own stages that passes the trace lint, while the shared registry
/// accumulates `ppa_stage_ns_total` from every session.
#[test]
fn sessions_write_self_traces_that_lint_clean() {
    let dir = tmp("selftrace");
    let trace = measured_jsonl(&dir, "measured.jsonl", 128);
    let mut cfg = serve_config(&dir);
    cfg.self_trace_dir = Some(dir.join("traces"));
    let mut server = RunningServer::start(cfg);

    let outcome = send_trace(
        &Target::Tcp(server.tcp.to_string()),
        "acme",
        "traced-run",
        &trace,
        4096,
    );
    assert!(
        matches!(outcome, Ok(SendOutcome::Done { .. })),
        "{outcome:?}"
    );

    // The session publishes its stage totals after the client sees
    // DONE; poll briefly rather than racing the session thread's exit.
    let metrics_addr = server.metrics.expect("metrics listener");
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let body = http_get(metrics_addr, "/metrics");
        let published = body
            .lines()
            .any(|l| l.starts_with("ppa_stage_ns_total{stage=\"run\"}") && !l.ends_with(" 0"));
        if published || Instant::now() >= deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    server.stop();

    let st = dir
        .join("traces")
        .join("session-000000-acme-traced-run.jsonl");
    let reader = AnyTraceReader::open(BufReader::new(File::open(&st).expect("self-trace written")))
        .expect("open self-trace");
    assert_eq!(reader.kind(), TraceKind::Measured);
    let mut linter = ppa_check::TraceLinter::new();
    let mut events = 0usize;
    for e in reader {
        linter.push(&e.expect("decode self-trace event"));
        events += 1;
    }
    let violations = linter.finish();
    assert!(violations.is_empty(), "self-trace lint: {violations:?}");
    assert!(events >= 2, "at least the session root span is recorded");

    // The session published its stage totals into the shared registry.
    let ingest_ns = metrics
        .lines()
        .find(|l| l.starts_with("ppa_stage_ns_total{stage=\"run\"}"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("run stage series");
    assert!(ingest_ns > 0, "metrics:\n{metrics}");
}

/// The highest [`ppa_core::Pipeline::resident_bytes`] a session's
/// pipeline reaches on `trace`, stepped the way a session steps it.
fn peak_resident_bytes(dir: &Path, trace: &Path) -> usize {
    use ppa_core::{CheckpointPolicy, Pipeline, PipelineConfig};
    let config = PipelineConfig {
        checkpoint: Some(CheckpointPolicy {
            path: dir.join("peak.ckpt"),
            every: serve_config(dir).checkpoint_every,
            compact_every: ppa_core::DEFAULT_COMPACT_EVERY,
        }),
        ..PipelineConfig::new(overheads())
    };
    let reader = AnyTraceReader::open(BufReader::new(File::open(trace).unwrap())).unwrap();
    let report = dir.join("peak.report.jsonl");
    let mut p = Pipeline::new(reader, config, Some((&report, TraceFormat::Jsonl)), None).unwrap();
    let mut peak = 0;
    while p.step().unwrap().is_some() {
        peak = peak.max(p.resident_bytes());
    }
    p.finish().unwrap();
    peak
}

/// The resident quota charges the tables that grow with the trace: a
/// 20 000-iteration DOACROSS stream holds one advance record per
/// iteration, so a 64 KiB quota parks it (resumably), while a quota
/// above its true peak lets it finish. (Charging resident *events* ×
/// event size saw ~60 × 64 B here and parked nothing.)
#[test]
fn resident_quota_sees_the_advance_table() {
    let dir = tmp("resident_quota");
    let trace = measured_jsonl(&dir, "measured.jsonl", 20_000);
    let peak = peak_resident_bytes(&dir, &trace);
    assert!(
        peak > 65_536,
        "the stream must outgrow the small quota: {peak}"
    );

    let mut cfg = serve_config(&dir);
    cfg.quotas.tenant_max_resident_bytes = 65_536;
    let server = RunningServer::start(cfg);
    let unix = Target::Unix(server.unix.clone().unwrap());
    match send_trace(
        &unix,
        "acme",
        "big",
        &trace,
        ppa_server::DEFAULT_FRAME_BYTES,
    ) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, protocol::EC_QUOTA_RESIDENT, "{message}");
        }
        other => panic!("expected a quota-resident park, got {other:?}"),
    }
    let ckpt = dir.join("state").join("acme").join("big.ckpt");
    assert!(ckpt.exists(), "a parked session is resumable");
    drop(server);

    let mut cfg = serve_config(&dir);
    cfg.quotas.tenant_max_resident_bytes = 2 * peak as u64;
    let server = RunningServer::start(cfg);
    let unix = Target::Unix(server.unix.clone().unwrap());
    let outcome = send_trace(
        &unix,
        "acme",
        "roomy",
        &trace,
        ppa_server::DEFAULT_FRAME_BYTES,
    );
    assert!(
        matches!(outcome, Ok(SendOutcome::Done { .. })),
        "{outcome:?}"
    );
}

/// A session whose report the disk refuses answers with that error.
#[test]
fn a_session_answers_with_its_report_error() {
    if !Path::new("/dev/full").exists() {
        return;
    }
    let dir = tmp("report_error");
    let trace = measured_jsonl(&dir, "measured.jsonl", 256);
    let tenant_dir = dir.join("state").join("acme");
    fs::create_dir_all(&tenant_dir).unwrap();
    let report = tenant_dir.join("full.report.jsonl");
    fs::remove_file(&report).ok();
    std::os::unix::fs::symlink("/dev/full", &report).unwrap();

    let server = RunningServer::start(serve_config(&dir));
    let unix = Target::Unix(server.unix.clone().unwrap());
    match send_trace(&unix, "acme", "full", &trace, 4096) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, protocol::EC_INTERNAL, "{message}");
            assert!(message.contains("os error 28"), "{message}");
        }
        other => panic!("expected the report error, got {other:?}"),
    }
}
