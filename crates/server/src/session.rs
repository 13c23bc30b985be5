//! One ingest session: the server side of a `(tenant, stream)`
//! connection, from `HELLO` to `DONE`/`ERROR`.
//!
//! A session is a driver of the one [`ppa_core::Pipeline`], the same
//! loop `ppa analyze` drives: socket bytes → [`AnyTraceReader`]
//! (format auto-detected) → the pipeline's reorder buffer, analyzer,
//! JSONL report and `PPACKPT2` checkpoint chain. What is here is what
//! only a server has: the handshake and admission, the frame adapter
//! the reader pulls from, throttling and the resident quota between
//! steps, shutdown and eviction, and the mapping of failures onto
//! protocol errors. A session report is therefore byte-identical to a
//! single-shot `ppa analyze --checkpoint` of the same trace
//! with the same flags, including across evictions, SIGTERM, and
//! SIGKILL — and, being always checkpointed, a session refuses a
//! suppressed trace the same way (expand it first; see QUERIES.md).
//!
//! Sessions are synchronous and thread-per-stream. Backpressure is the
//! socket itself: a session that is checkpointing, throttled, or slow
//! simply stops reading, bounding per-session buffering at one frame
//! ([`MAX_FRAME_LEN`](crate::protocol::MAX_FRAME_LEN)) plus the kernel
//! socket buffer, and the transport pushes back on the client.

use crate::daemon::ServerCtx;
use crate::protocol::{
    parse_frame_header, write_frame, Hello, ProtocolError, Summary, EC_BAD_TRACE, EC_IDLE_EVICTED,
    EC_INTERNAL, EC_MALFORMED_FRAME, EC_QUOTA_RESIDENT, EC_SHUTTING_DOWN, FRAME_HEADER_LEN,
    FT_DATA, FT_DONE, FT_ERROR, FT_FIN, FT_HELLO, FT_OK,
};
use ppa_core::{
    read_checkpoint, AnalyzerProbes, Checkpoint, CheckpointPolicy, Pipeline, PipelineConfig,
    PipelineError, RESIDENT_SAMPLE_EVERY,
};
use ppa_trace::{AnyTraceReader, IoError, TraceFormat};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a blocked socket read wakes up to check the shutdown flag
/// and the idle deadline.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a response write may block before the peer is declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A bidirectional byte stream a session can run over. Both halves of
/// the protocol flow on one socket; the session clones the handle so
/// the trace decoder can own the read side while responses go out the
/// write side.
pub trait SessionStream: Read + Write + Send + Sized + 'static {
    /// Clones the underlying socket handle.
    fn try_clone_stream(&self) -> io::Result<Self>;
    /// Sets the read timeout (the session polls at [`POLL_INTERVAL`]).
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout for responses.
    fn set_stream_write_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// Half-closes the write side (flushes the final frame to the peer).
    fn shutdown_write(&self) -> io::Result<()>;
}

impl SessionStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_stream_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(t)
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

impl SessionStream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_stream_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(t)
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

/// How long a terminal `ERROR` lingers draining the client's in-flight
/// bytes before the socket really closes.
const ERROR_DRAIN: Duration = Duration::from_millis(500);

/// Writes a terminal `ERROR` frame and tears the socket down without a
/// reset. A session that fails mid-upload usually still has unread
/// client bytes in the kernel receive buffer; closing then makes TCP
/// reset the connection, which can destroy the `ERROR` frame before the
/// client reads it. So: half-close the write side (the frame and the
/// FIN go out), then briefly drain and discard what the client already
/// sent, stopping early once the client saw the error and hung up.
fn send_error<S: SessionStream>(sock: &mut S, code: u16, message: &str) {
    let frame = crate::protocol::encode_error(code, message);
    if write_frame(sock, FT_ERROR, &frame).is_err() {
        return;
    }
    let _ = sock.shutdown_write();
    let _ = sock.set_stream_read_timeout(Some(POLL_INTERVAL));
    let deadline = Instant::now() + ERROR_DRAIN;
    let mut scratch = [0u8; 8192];
    while Instant::now() < deadline {
        match sock.read(&mut scratch) {
            Ok(0) => break, // client closed: the error was deliverable
            Ok(_) => {}     // discard abandoned upload bytes
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// How a session ended, for the daemon's log line and counters.
#[derive(Debug)]
pub enum SessionEnd {
    /// Ran to `DONE`; the checkpoint (if any) was deleted.
    Completed {
        /// Approximated events in the finished report.
        events: u64,
    },
    /// Idle past the deadline; state checkpointed for resume.
    Evicted,
    /// Daemon shutdown; state checkpointed for resume.
    Shutdown,
    /// The client vanished mid-stream; state checkpointed for resume.
    ClientGone,
    /// Refused before analysis started (handshake or quota).
    Rejected {
        /// The protocol error code sent (or that would have been sent).
        code: u16,
    },
    /// Failed mid-analysis with a typed protocol error.
    Failed {
        /// The protocol error code sent.
        code: u16,
        /// The message sent alongside it.
        message: String,
    },
}

/// A finished session, as reported to the daemon.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The tenant, or `"-"` if the handshake never completed.
    pub tenant: String,
    /// The stream id, or `"-"` if the handshake never completed.
    pub stream: String,
    /// How it ended.
    pub end: SessionEnd,
}

/// Reads exactly `buf.len()` bytes, polling so a blocked read still
/// honors daemon shutdown and the idle deadline. Marker error kinds:
/// `TimedOut` = idle eviction, `ConnectionAborted` = shutdown,
/// `UnexpectedEof` = peer hung up mid-frame.
fn read_exact_polled(
    sock: &mut impl Read,
    ctx: &ServerCtx,
    idle: Duration,
    buf: &mut [u8],
) -> io::Result<()> {
    let mut filled = 0;
    let mut idle_since = Instant::now();
    while filled < buf.len() {
        if ctx.should_stop() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "daemon is shutting down",
            ));
        }
        match sock.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                filled += n;
                idle_since = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_since.elapsed() >= idle {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "session idle"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One polled read of up to `buf.len()` bytes (at least 1 on success).
fn read_some_polled(
    sock: &mut impl Read,
    ctx: &ServerCtx,
    idle: Duration,
    buf: &mut [u8],
) -> io::Result<usize> {
    let mut idle_since = Instant::now();
    loop {
        if ctx.should_stop() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "daemon is shutting down",
            ));
        }
        match sock.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_since.elapsed() >= idle {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "session idle"));
                }
                let _ = &mut idle_since;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads one complete frame with the polled reader (server side).
fn read_frame_polled(
    sock: &mut impl Read,
    ctx: &ServerCtx,
    idle: Duration,
) -> Result<(u8, Vec<u8>), Fail> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact_polled(sock, ctx, idle, &mut header).map_err(Fail::from_io)?;
    let (ty, len) = parse_frame_header(&header).map_err(Fail::Protocol)?;
    let mut payload = vec![0u8; len as usize];
    read_exact_polled(sock, ctx, idle, &mut payload).map_err(Fail::from_io)?;
    Ok((ty, payload))
}

/// A `Read` adapter that unwraps the `DATA`/`FIN` framing: the trace
/// decoder reads raw trace bytes from it, and it pulls frames off the
/// socket on demand — so per-session ingest buffering never exceeds one
/// frame. Protocol violations surface as `InvalidData` I/O errors with
/// the typed code parked in the shared `violation` slot.
struct FramePayloadReader<S: SessionStream> {
    sock: S,
    ctx: Arc<ServerCtx>,
    idle: Duration,
    /// Payload bytes left in the current `DATA` frame.
    remaining: u32,
    /// `FIN` seen: all subsequent reads are EOF.
    finished: bool,
    /// Tenant ingest byte counter.
    bytes: ppa_obs::Counter,
    violation: Arc<Mutex<Option<ProtocolError>>>,
}

impl<S: SessionStream> FramePayloadReader<S> {
    fn violate(&self, e: ProtocolError) -> io::Error {
        let msg = e.to_string();
        *self.violation.lock().expect("violation slot poisoned") = Some(e);
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }
}

impl<S: SessionStream> Read for FramePayloadReader<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        loop {
            if self.finished {
                return Ok(0);
            }
            if self.remaining == 0 {
                // One span per frame header: this read is where the
                // session waits on the network between frames.
                let _span = ppa_obs::span_enter(ppa_obs::Stage::FrameRead);
                let mut header = [0u8; FRAME_HEADER_LEN];
                read_exact_polled(&mut self.sock, &self.ctx, self.idle, &mut header)?;
                let (ty, len) = parse_frame_header(&header).map_err(|e| self.violate(e))?;
                match ty {
                    FT_DATA => {
                        self.remaining = len;
                        continue; // a zero-length DATA frame is legal
                    }
                    FT_FIN => {
                        if len != 0 {
                            return Err(self.violate(ProtocolError {
                                code: EC_MALFORMED_FRAME,
                                message: "FIN carries a payload".into(),
                            }));
                        }
                        self.finished = true;
                        return Ok(0);
                    }
                    other => {
                        return Err(self.violate(ProtocolError {
                            code: EC_MALFORMED_FRAME,
                            message: format!("unexpected frame type {other:#04x} mid-stream"),
                        }))
                    }
                }
            }
            let want = out.len().min(self.remaining as usize);
            let n = read_some_polled(&mut self.sock, &self.ctx, self.idle, &mut out[..want])?;
            self.remaining -= n as u32;
            self.bytes.add(n as u64);
            return Ok(n);
        }
    }
}

/// A mid-session failure, classified for the response frame.
enum Fail {
    /// Idle past the deadline (checkpoint, `ERROR idle-evicted`).
    Evicted,
    /// Daemon shutdown (checkpoint, `ERROR shutting-down`).
    Shutdown,
    /// Socket died; nobody to respond to (checkpoint silently).
    ClientGone,
    /// The client broke the framing rules.
    Protocol(ProtocolError),
    /// The trace bytes failed decoding or analysis.
    BadTrace(String),
    /// The tenant blew its resident-bytes quota.
    QuotaResident(String),
    /// Server-side failure (checkpoint I/O etc.).
    Internal(String),
}

impl Fail {
    fn from_io(e: io::Error) -> Fail {
        match e.kind() {
            io::ErrorKind::TimedOut => Fail::Evicted,
            io::ErrorKind::ConnectionAborted => Fail::Shutdown,
            _ => Fail::ClientGone,
        }
    }

    /// Classifies a trace-decode error, recovering the parked protocol
    /// violation if the adapter recorded one.
    fn from_decode(e: IoError, violation: &Mutex<Option<ProtocolError>>) -> Fail {
        match e {
            IoError::Io(io) => {
                if io.kind() == io::ErrorKind::InvalidData {
                    if let Some(p) = violation.lock().expect("violation slot poisoned").take() {
                        return Fail::Protocol(p);
                    }
                }
                Fail::from_io(io)
            }
            other => Fail::BadTrace(other.to_string()),
        }
    }

    /// Classifies a pipeline failure: the input side as
    /// [`Fail::from_decode`] does, a refused trace as `bad-trace`, and
    /// report or checkpoint I/O as a server fault.
    fn from_pipeline(e: PipelineError, violation: &Mutex<Option<ProtocolError>>) -> Fail {
        match e {
            PipelineError::Input(e) => Fail::from_decode(e, violation),
            e @ (PipelineError::Expand(_) | PipelineError::Analysis(_)) => {
                Fail::BadTrace(e.to_string())
            }
            other => Fail::Internal(other.to_string()),
        }
    }

    /// Whether the session's state should be checkpointed for resume.
    fn checkpoint_worthy(&self) -> bool {
        matches!(
            self,
            Fail::Evicted | Fail::Shutdown | Fail::ClientGone | Fail::QuotaResident(_)
        )
    }

    /// The `(code, message)` for the `ERROR` frame; `None` for a dead
    /// peer there is no point responding to.
    fn response(&self) -> Option<(u16, String)> {
        match self {
            Fail::Evicted => Some((
                EC_IDLE_EVICTED,
                "session idle past the eviction deadline; state checkpointed, \
                 reconnect with the same (tenant, stream) to resume"
                    .into(),
            )),
            Fail::Shutdown => Some((
                EC_SHUTTING_DOWN,
                "daemon is shutting down; state checkpointed, reconnect to resume".into(),
            )),
            Fail::ClientGone => None,
            Fail::Protocol(p) => Some((p.code, p.message.clone())),
            Fail::BadTrace(m) => Some((EC_BAD_TRACE, m.clone())),
            Fail::QuotaResident(m) => Some((EC_QUOTA_RESIDENT, m.clone())),
            Fail::Internal(m) => Some((EC_INTERNAL, m.clone())),
        }
    }

    fn end(self) -> SessionEnd {
        match &self {
            Fail::Evicted => SessionEnd::Evicted,
            Fail::Shutdown => SessionEnd::Shutdown,
            Fail::ClientGone => SessionEnd::ClientGone,
            _ => {
                let (code, message) = self.response().expect("typed failure has a response");
                SessionEnd::Failed { code, message }
            }
        }
    }
}

/// Runs one connection to completion. Never panics outward on protocol
/// abuse; every exit path is a typed [`SessionOutcome`].
///
/// The session's own execution is span-recorded (frame reads, ingest
/// chunks, checkpoint writes, the final emit): the stage totals feed
/// `ppa_stage_ns_total` in `/metrics`, and with `--self-trace-dir` the
/// spans are exported as one ppa trace per session.
pub fn run_session<S: SessionStream>(sock: S, ctx: Arc<ServerCtx>) -> SessionOutcome {
    let seq = ctx
        .session_seq
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let recorder = ppa_obs::SpanRecorder::new();
    // Explicit binding: session threads are thread-per-stream, and an
    // explicit bind keeps concurrent sessions' spans in their own
    // recorders (a global install would mix them).
    let bound = recorder.bind_current_thread();
    let outcome = {
        let _run = ppa_obs::span_enter(ppa_obs::Stage::Run);
        session_body(sock, ctx.clone())
    };
    drop(bound);
    ctx.metrics.stage.add_totals(&recorder.stage_totals());
    if let Some(dir) = &ctx.config.self_trace_dir {
        let log = recorder.drain();
        let name = format!(
            "session-{seq:06}-{}-{}.jsonl",
            outcome.tenant, outcome.stream
        );
        let path = dir.join(name);
        let write = || -> Result<ppa_trace::SelfTraceSummary, IoError> {
            let file = File::create(&path)?;
            let mut out = io::BufWriter::new(file);
            ppa_trace::write_self_trace(&mut out, &log, TraceFormat::Jsonl)
        };
        match write() {
            Ok(summary) => ctx.log().debug(
                &format!(
                    "session {}/{} self-trace written ({} spans)",
                    outcome.tenant, outcome.stream, summary.spans
                ),
                "self_trace",
                &[
                    ("tenant", crate::log::LogValue::Str(&outcome.tenant)),
                    ("stream", crate::log::LogValue::Str(&outcome.stream)),
                    ("spans", crate::log::LogValue::U64(summary.spans as u64)),
                ],
            ),
            Err(e) => ctx.log().info(
                &format!(
                    "session {}/{} self-trace write failed: {e}",
                    outcome.tenant, outcome.stream
                ),
                "self_trace_failed",
                &[
                    ("tenant", crate::log::LogValue::Str(&outcome.tenant)),
                    ("stream", crate::log::LogValue::Str(&outcome.stream)),
                    ("error", crate::log::LogValue::Str(&e.to_string())),
                ],
            ),
        }
    }
    outcome
}

fn session_body<S: SessionStream>(sock: S, ctx: Arc<ServerCtx>) -> SessionOutcome {
    ctx.metrics.connections.inc();
    let unknown = |code: u16| SessionOutcome {
        tenant: "-".into(),
        stream: "-".into(),
        end: SessionEnd::Rejected { code },
    };
    if sock.set_stream_read_timeout(Some(POLL_INTERVAL)).is_err()
        || sock.set_stream_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return unknown(EC_INTERNAL);
    }
    let mut sock = sock;

    // --- HELLO --------------------------------------------------------
    let hello = match read_frame_polled(&mut sock, &ctx, ctx.config.idle_timeout) {
        Ok((FT_HELLO, payload)) => match crate::protocol::decode_hello(&payload) {
            Ok(h) => h,
            Err(e) => {
                send_error(&mut sock, e.code, &e.message);
                return unknown(e.code);
            }
        },
        Ok((ty, _)) => {
            let e = ProtocolError {
                code: EC_MALFORMED_FRAME,
                message: format!("expected HELLO, got frame type {ty:#04x}"),
            };
            send_error(&mut sock, e.code, &e.message);
            return unknown(e.code);
        }
        Err(fail) => {
            if let Some((code, message)) = fail.response() {
                send_error(&mut sock, code, &message);
                return unknown(code);
            }
            return unknown(EC_MALFORMED_FRAME);
        }
    };
    let Hello { tenant, stream } = hello;
    let outcome = |end: SessionEnd| SessionOutcome {
        tenant: tenant.clone(),
        stream: stream.clone(),
        end,
    };
    let tm = ctx.metrics.tenant(&tenant);

    // --- Admission ----------------------------------------------------
    let mut permit = match ctx.table.admit(&tenant, &stream) {
        Ok(p) => p,
        Err(e) => {
            tm.rejections.inc();
            tm.errors.inc();
            send_error(&mut sock, e.code(), &e.message(ctx.table.quotas()));
            return outcome(SessionEnd::Rejected { code: e.code() });
        }
    };
    permit.export_resident(tm.resident_bytes.clone());
    tm.sessions.inc();
    ctx.metrics.active_sessions.add(1.0);
    // Decrement the gauge on every exit path.
    struct ActiveGuard(ppa_obs::Gauge);
    impl Drop for ActiveGuard {
        fn drop(&mut self) {
            self.0.add(-1.0);
        }
    }
    let _active = ActiveGuard(ctx.metrics.active_sessions.clone());

    // --- Paths and resume ---------------------------------------------
    let dir = ctx.config.checkpoint_dir.join(&tenant);
    // Ids are charset-restricted by `valid_id`, so these joins cannot
    // escape the checkpoint directory.
    let ckpt_path = dir.join(format!("{stream}.ckpt"));
    let report_path = dir.join(format!("{stream}.report.jsonl"));
    let fail_out = |f: Fail, sock: &mut S, tm: &crate::metrics::TenantMetrics| {
        if let Some((code, message)) = f.response() {
            tm.errors.inc();
            send_error(sock, code, &message);
        }
        outcome(f.end())
    };
    if let Err(e) = fs::create_dir_all(&dir) {
        return fail_out(
            Fail::Internal(format!("cannot create checkpoint dir: {e}")),
            &mut sock,
            &tm,
        );
    }
    let resumed: Option<Checkpoint> = if ckpt_path.exists() {
        match read_checkpoint(&ckpt_path) {
            Ok(cp) => {
                tm.resumed.inc();
                Some(cp)
            }
            Err(e) => {
                return fail_out(
                    Fail::Internal(format!("cannot read checkpoint: {e}")),
                    &mut sock,
                    &tm,
                )
            }
        }
    } else {
        None
    };
    let base_positions = resumed.as_ref().map_or(0, |cp| cp.positions_seen);

    if write_frame(
        &mut sock,
        FT_OK,
        &crate::protocol::encode_ok(base_positions),
    )
    .is_err()
    {
        return outcome(SessionEnd::ClientGone);
    }

    // --- Pipeline construction ----------------------------------------
    let violation: Arc<Mutex<Option<ProtocolError>>> = Arc::new(Mutex::new(None));
    let read_half = match sock.try_clone_stream() {
        Ok(s) => s,
        Err(e) => {
            return fail_out(
                Fail::Internal(format!("cannot clone socket: {e}")),
                &mut sock,
                &tm,
            )
        }
    };
    let adapter = FramePayloadReader {
        sock: read_half,
        ctx: ctx.clone(),
        idle: ctx.config.idle_timeout,
        remaining: 0,
        finished: false,
        bytes: tm.bytes.clone(),
        violation: violation.clone(),
    };
    // Blocks until the client's first trace bytes arrive (the format
    // sniff needs 8 bytes), honoring idle/shutdown via the adapter. The
    // protocol streams one way until FIN, so pipelined read-ahead over
    // the socket cannot deadlock: anything decoded but not yet emitted
    // at a park is replayed by the client from `positions_seen`.
    let reader = match AnyTraceReader::open_parallel(adapter, ctx.config.decode_workers) {
        Ok(r) => r,
        Err(e) => return fail_out(Fail::from_decode(e, &violation), &mut sock, &tm),
    };
    // Fresh chain per session: the first cadence write is a full
    // snapshot (atomically replacing any prior session's chain), and
    // later writes within this session append deltas between
    // compactions.
    let config = PipelineConfig {
        lenient: ctx.config.lenient,
        reorder_window: ctx.config.reorder_window,
        checkpoint: Some(CheckpointPolicy {
            path: ckpt_path.clone(),
            every: ctx.config.checkpoint_every,
            compact_every: ctx.config.checkpoint_compact_every,
        }),
        // The two spill counters are the analyzer's only live series
        // here: they cost nothing until an input leaves the fast paths.
        analyzer_probes: AnalyzerProbes {
            emit_spill: tm.emit_spill.clone(),
            advance_spill: tm.advance_spill.clone(),
            ..AnalyzerProbes::noop()
        },
        ..PipelineConfig::new(ctx.config.overheads)
    };
    let report = Some((report_path.as_path(), TraceFormat::Jsonl));
    let mut pipeline = match Pipeline::new(reader, config, report, resumed) {
        Ok(p) => p,
        Err(e) => return fail_out(Fail::from_pipeline(e, &violation), &mut sock, &tm),
    };

    // --- The event loop ------------------------------------------------
    let mut since_resident: u64 = 0;
    let quotas = ctx.table.quotas().clone();
    // Sampled for the quota, and for `ppa_resident_bytes` when exported.
    let charge_resident = quotas.tenant_max_resident_bytes > 0 || tm.resident_bytes.is_attached();
    // Only borrows the pipeline, so on a checkpoint-worthy failure
    // (idle, shutdown, vanished client, resident quota) the state is
    // still here to snapshot.
    let loop_result: Result<(), Fail> = (|| {
        // Ingest work is attributed in 4096-event chunk spans (the same
        // granularity as the CLI's push chunks): per-event spans would
        // perturb the pipeline being measured.
        let mut chunk_span: Option<ppa_obs::SpanGuard> = None;
        loop {
            if pipeline.events_in().is_multiple_of(4096) {
                drop(chunk_span.take());
                let mut g = ppa_obs::span_enter(ppa_obs::Stage::Ingest);
                g.attr_seq(pipeline.events_in());
                chunk_span = Some(g);
            }
            let step = match pipeline.step() {
                Ok(Some(step)) => step,
                Ok(None) => return Ok(()),
                Err(e) => return Err(Fail::from_pipeline(e, &violation)),
            };
            since_resident += 1;
            tm.events.inc();

            if quotas.tenant_max_eps > 0 {
                let sleep = ctx.table.throttle(&tenant, 1);
                if !sleep.is_zero() {
                    tm.throttled_ms.add(sleep.as_millis() as u64);
                    std::thread::sleep(sleep);
                }
            }
            if charge_resident && since_resident >= RESIDENT_SAMPLE_EVERY {
                since_resident = 0;
                let bytes = pipeline.resident_bytes() as u64;
                if permit.set_resident(bytes) {
                    return Err(Fail::QuotaResident(format!(
                        "tenant resident state exceeds the {}-byte quota \
                         (this session holds ~{bytes} bytes); state checkpointed",
                        quotas.tenant_max_resident_bytes
                    )));
                }
            }
            if step.checkpointed {
                tm.checkpoints.inc();
                let pushed = pipeline.events_in();
                ctx.log().debug(
                    &format!("session {tenant}/{stream} checkpointed at {pushed} events"),
                    "checkpoint",
                    &[
                        ("tenant", crate::log::LogValue::Str(&tenant)),
                        ("stream", crate::log::LogValue::Str(&stream)),
                        ("events", crate::log::LogValue::U64(pushed)),
                    ],
                );
            }
            if ctx.should_stop() {
                return Err(Fail::Shutdown);
            }
        }
    })();

    tm.gaps.add(pipeline.reader().gaps().len() as u64);
    tm.events_lost.add(pipeline.reader().events_lost());

    if let Err(fail) = loop_result {
        if fail.checkpoint_worthy() {
            // Parking: the final state snapshot a future session resumes
            // from (idle eviction, shutdown, vanished client, quota).
            let _span = ppa_obs::span_enter(ppa_obs::Stage::Park);
            match pipeline.checkpoint_now() {
                Ok(()) => {
                    tm.checkpoints.inc();
                    tm.evictions.inc();
                }
                Err(e) => {
                    return fail_out(
                        Fail::Internal(format!("eviction checkpoint failed: {e}")),
                        &mut sock,
                        &tm,
                    )
                }
            }
        }
        return fail_out(fail, &mut sock, &tm);
    }

    // End of input. Nothing past FIN needs a checkpoint: a failure here
    // is either bad data or a server fault, and the cadence checkpoint
    // from the loop still covers resume.
    let summary = match pipeline.finish() {
        Ok(run) => Summary {
            events: run.sink.events,
            awaits: run.sink.awaits,
            barriers: run.sink.barriers,
            last_time_ns: run.sink.last_time.as_nanos(),
            gaps: run.gaps.len() as u64,
            events_lost: run.events_lost,
        },
        Err(e) => return fail_out(Fail::from_pipeline(e, &violation), &mut sock, &tm),
    };

    // The session is complete: the checkpoint (a resume token) is
    // stale. Delete it so a future HELLO starts fresh. On a filesystem
    // that discards freed blocks this unlink can take longer than the
    // whole analysis (EXPERIMENTS.md), hence its own span.
    let retired = {
        let _span = ppa_obs::span_enter(ppa_obs::Stage::Retire);
        fs::remove_file(&ckpt_path)
    };
    match retired {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => {
            return fail_out(
                Fail::Internal(format!("cannot clear checkpoint: {e}")),
                &mut sock,
                &tm,
            )
        }
    }
    tm.completed.inc();
    let _ = write_frame(&mut sock, FT_DONE, &crate::protocol::encode_done(&summary));
    outcome(SessionEnd::Completed {
        events: summary.events,
    })
}
