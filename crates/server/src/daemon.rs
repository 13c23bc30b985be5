//! The long-running `ppa serve` daemon: listeners, accept loops, the
//! shared server context, and graceful shutdown.
//!
//! Lifecycle: [`Server::bind`] claims every socket up front (so `ppa
//! serve` fails fast on a taken port, and tests can bind port 0 and
//! read the real addresses back), then [`Server::run`] accepts until
//! the shutdown flag rises. Each accepted connection gets its own
//! session thread ([`run_session`]); accept loops poll non-blocking so
//! a quiet listener still notices shutdown within ~50 ms.
//!
//! Shutdown is SIGTERM/SIGINT (installed by [`install_signal_handlers`])
//! or the `Arc<AtomicBool>` handed to `run` (used by tests). Either way
//! the daemon stops accepting, every live session checkpoints its
//! analyzer state to its `PPACKPT2` chain and answers `ERROR
//! shutting-down`, and `run` joins them all before returning — so a
//! restarted daemon resumes every stream byte-identically. A SIGKILL'd
//! daemon skips the final checkpoint but still resumes from the last
//! cadence checkpoint; clients replay from byte 0 and the server skips
//! what it already counted.

use crate::log::{LogFormat, LogLevel, LogValue, Logger};
use crate::metrics::ServerMetrics;
use crate::quota::{Quotas, SessionTable};
use crate::session::{run_session, SessionEnd, SessionOutcome};
use ppa_trace::OverheadSpec;
use std::io;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often an idle accept loop checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// The TCP ingest address `ppa serve` binds when given no listener.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:7223";

/// Everything `ppa serve` is configured with; the CLI builds one of
/// these from flags, tests build them directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP ingest addresses to bind (empty = no TCP ingest).
    pub listen: Vec<String>,
    /// Unix-socket ingest path (removed and re-created at bind).
    pub unix_socket: Option<PathBuf>,
    /// HTTP address for `/metrics` and `/healthz` (None = no endpoint).
    pub metrics_listen: Option<String>,
    /// Root of the checkpoint/report tree (one subdirectory per tenant).
    pub checkpoint_dir: PathBuf,
    /// Admission and rate quotas.
    pub quotas: Quotas,
    /// Events between cadence checkpoints in each session.
    pub checkpoint_every: u64,
    /// Deltas between full-snapshot compactions in each session's
    /// incremental checkpoint chain (0 = full snapshots only).
    pub checkpoint_compact_every: usize,
    /// Idle time after which a session is evicted (checkpointed).
    pub idle_timeout: Duration,
    /// Tolerate decode errors and unresolved dependencies (the server
    /// twin of `ppa analyze --lenient`).
    pub lenient: bool,
    /// Reorder-buffer window for out-of-order ingest (None = strict).
    pub reorder_window: Option<u64>,
    /// Decode worker threads per session (0 = decode on the session
    /// thread).
    pub decode_workers: usize,
    /// Overhead model applied by every session's analyzer.
    pub overheads: OverheadSpec,
    /// Stderr log record shape (`--log-format`).
    pub log_format: LogFormat,
    /// Stderr verbosity (`--log-level`).
    pub log_level: LogLevel,
    /// Directory for per-session self-traces (`--self-trace-dir`):
    /// every finished session writes its own stage spans there as a
    /// ppa trace (None = no self-tracing).
    pub self_trace_dir: Option<PathBuf>,
    /// Re-export the metrics snapshot to `<checkpoint_dir>/metrics.prom`
    /// at this cadence (`--metrics-every`; None = never).
    pub metrics_every: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: vec![DEFAULT_LISTEN.to_string()],
            unix_socket: None,
            metrics_listen: None,
            checkpoint_dir: PathBuf::from("ppa-serve-state"),
            quotas: Quotas::default(),
            checkpoint_every: ppa_core::DEFAULT_CHECKPOINT_EVERY,
            checkpoint_compact_every: ppa_core::DEFAULT_COMPACT_EVERY,
            idle_timeout: Duration::from_secs(30),
            lenient: false,
            reorder_window: None,
            decode_workers: ppa_trace::default_decode_workers(),
            overheads: OverheadSpec::default(),
            log_format: LogFormat::Text,
            log_level: LogLevel::Info,
            self_trace_dir: None,
            metrics_every: None,
        }
    }
}

/// State shared by every session thread and the accept loops.
pub struct ServerCtx {
    /// The daemon's configuration.
    pub config: ServeConfig,
    /// Live-session registry enforcing the quotas.
    pub table: SessionTable,
    /// The daemon's metric surface (exported at `/metrics`).
    pub metrics: ServerMetrics,
    /// Test-visible shutdown flag; OR'd with the signal flag.
    pub shutdown: Arc<AtomicBool>,
    /// Monotone connection counter; names per-session self-traces.
    pub session_seq: AtomicU64,
}

impl ServerCtx {
    /// Whether the daemon should stop: the programmatic flag or a
    /// delivered SIGTERM/SIGINT.
    pub fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal_shutdown_requested()
    }

    /// The configured logger (a copyable value, built on demand).
    pub fn log(&self) -> Logger {
        Logger::new(self.config.log_format, self.config.log_level)
    }
}

/// The signal handler's flag. `static` because a signal handler cannot
/// carry context; one daemon per process is the supported shape.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGNAL_SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Routes SIGTERM and SIGINT to a flag the accept and session loops
/// poll, instead of the default immediate-death disposition. Uses the
/// raw libc `signal(2)` binding so the workspace stays dependency-free.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_shutdown_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has been delivered to this process.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::Relaxed)
}

/// Resets the signal flag (tests that run several daemons in-process).
pub fn reset_signal_shutdown() {
    SIGNAL_SHUTDOWN.store(false, Ordering::Relaxed);
}

/// What one daemon run did, returned by [`Server::run`] after shutdown.
#[derive(Debug, Default, Clone)]
pub struct ServeReport {
    /// Connections accepted across all listeners.
    pub connections: u64,
    /// Sessions that ran to `DONE`.
    pub completed: u64,
    /// Sessions checkpointed for later resume (idle, shutdown, or a
    /// vanished client).
    pub parked: u64,
    /// Sessions rejected or failed with a typed error.
    pub failed: u64,
}

/// A bound-but-not-yet-running daemon. Dropping it without calling
/// [`Server::run`] just closes the listeners.
pub struct Server {
    ctx: Arc<ServerCtx>,
    tcp: Vec<TcpListener>,
    unix: Option<(UnixListener, PathBuf)>,
    metrics_http: Option<TcpListener>,
}

impl Server {
    /// Binds every configured listener. Fails fast if any address is
    /// taken or the checkpoint directory cannot be created.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.checkpoint_dir)?;
        if let Some(dir) = &config.self_trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut tcp = Vec::new();
        for addr in &config.listen {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            tcp.push(l);
        }
        let unix = match &config.unix_socket {
            Some(path) => {
                // A stale socket file from a SIGKILL'd daemon would make
                // bind fail; connecting to one just gets ECONNREFUSED,
                // so removal is safe.
                match std::fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some((l, path.clone()))
            }
            None => None,
        };
        let metrics_http = match &config.metrics_listen {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let table = SessionTable::new(config.quotas.clone());
        let metrics = ServerMetrics::new();
        metrics
            .registry()
            .gauge(
                "ppa_decode_workers",
                "Decode worker threads per session for binary ingest (0 = serial).",
            )
            .set(config.decode_workers as f64);
        let ctx = Arc::new(ServerCtx {
            config,
            table,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            session_seq: AtomicU64::new(0),
        });
        Ok(Server {
            ctx,
            tcp,
            unix,
            metrics_http,
        })
    }

    /// The bound TCP ingest addresses (resolves port 0 for tests).
    pub fn tcp_addrs(&self) -> Vec<SocketAddr> {
        self.tcp
            .iter()
            .filter_map(|l| l.local_addr().ok())
            .collect()
    }

    /// The bound metrics address, if an endpoint was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The shutdown flag; raise it to stop the daemon programmatically.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.ctx.shutdown.clone()
    }

    /// The shared context (tests inspect the table and metrics).
    pub fn ctx(&self) -> Arc<ServerCtx> {
        self.ctx.clone()
    }

    /// Accepts and serves until shutdown, then checkpoints and joins
    /// every live session before returning. Logs one stderr line per
    /// finished session.
    pub fn run(self) -> io::Result<ServeReport> {
        let Server {
            ctx,
            tcp,
            unix,
            metrics_http,
        } = self;
        let sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let report = Arc::new(Mutex::new(ServeReport::default()));
        let mut acceptors = Vec::new();

        for l in tcp {
            let ctx = ctx.clone();
            let sessions = sessions.clone();
            let report = report.clone();
            acceptors.push(std::thread::spawn(move || {
                accept_loop(
                    || match l.accept() {
                        Ok((s, _)) => Some(Ok(s)),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    },
                    &ctx,
                    &sessions,
                    &report,
                );
            }));
        }
        if let Some((l, _)) = &unix {
            let l = l.try_clone()?;
            let ctx = ctx.clone();
            let sessions = sessions.clone();
            let report = report.clone();
            acceptors.push(std::thread::spawn(move || {
                accept_loop(
                    || match l.accept() {
                        Ok((s, _)) => Some(Ok(s)),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    },
                    &ctx,
                    &sessions,
                    &report,
                );
            }));
        }
        if let Some(l) = metrics_http {
            let ctx = ctx.clone();
            acceptors.push(std::thread::spawn(move || {
                crate::http::serve_metrics(l, &ctx);
            }));
        }

        // Park until shutdown; the acceptors do the work.
        let mut last_export = Instant::now();
        while !ctx.should_stop() {
            std::thread::sleep(ACCEPT_POLL);
            // Reap finished session threads so a long-lived daemon does
            // not accumulate handles.
            let mut live = sessions.lock().expect("session handles poisoned");
            let mut i = 0;
            while i < live.len() {
                if live[i].is_finished() {
                    let _ = live.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            drop(live);
            if let Some(every) = ctx.config.metrics_every {
                if last_export.elapsed() >= every {
                    last_export = Instant::now();
                    export_metrics_snapshot(&ctx);
                }
            }
        }
        ctx.log().info(
            "shutting down, checkpointing live sessions",
            "shutdown",
            &[],
        );
        for a in acceptors {
            let _ = a.join();
        }
        // Sessions observe the flag through their polled reads and
        // checkpoint themselves; joining waits for that to finish.
        let handles = std::mem::take(&mut *sessions.lock().expect("session handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
        if let Some((_, path)) = unix {
            let _ = std::fs::remove_file(path);
        }
        let report = report.lock().expect("serve report poisoned").clone();
        ctx.log().info(
            &format!(
                "stopped ({} connections, {} completed, {} parked, {} failed)",
                report.connections, report.completed, report.parked, report.failed
            ),
            "stopped",
            &[
                ("connections", LogValue::U64(report.connections)),
                ("completed", LogValue::U64(report.completed)),
                ("parked", LogValue::U64(report.parked)),
                ("failed", LogValue::U64(report.failed)),
            ],
        );
        Ok(report)
    }
}

/// Atomically re-exports the metrics snapshot (Prometheus text) to
/// `<checkpoint_dir>/metrics.prom`: tmp + fsync + rename, so a scraper
/// tailing the file never reads a torn snapshot.
fn export_metrics_snapshot(ctx: &ServerCtx) {
    let path = ctx.config.checkpoint_dir.join("metrics.prom");
    let tmp = ctx.config.checkpoint_dir.join("metrics.prom.tmp");
    let text = ppa_obs::prometheus_text(&ctx.metrics.registry().snapshot());
    let write = || -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => ctx.log().debug(
            &format!("metrics snapshot exported to {}", path.display()),
            "metrics_export",
            &[("path", LogValue::Str(&path.to_string_lossy()))],
        ),
        Err(e) => ctx.log().info(
            &format!("metrics export failed: {e}"),
            "metrics_export_failed",
            &[("error", LogValue::Str(&e.to_string()))],
        ),
    }
}

/// One listener's accept loop: poll non-blocking accept, spawn a
/// session thread per connection, stop when the flag rises.
fn accept_loop<S: crate::session::SessionStream>(
    mut accept: impl FnMut() -> Option<io::Result<S>>,
    ctx: &Arc<ServerCtx>,
    sessions: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    report: &Arc<Mutex<ServeReport>>,
) {
    while !ctx.should_stop() {
        match accept() {
            None => std::thread::sleep(ACCEPT_POLL),
            Some(Err(e)) => {
                // Transient accept errors (EMFILE, aborted handshakes)
                // should not kill the listener.
                ctx.log().info(
                    &format!("accept error: {e}"),
                    "accept_error",
                    &[("error", LogValue::Str(&e.to_string()))],
                );
                std::thread::sleep(ACCEPT_POLL);
            }
            Some(Ok(sock)) => {
                report.lock().expect("serve report poisoned").connections += 1;
                ctx.log().debug("connection accepted", "accept", &[]);
                let ctx = ctx.clone();
                let report = report.clone();
                let handle = std::thread::spawn(move || {
                    let outcome = run_session(sock, ctx.clone());
                    log_outcome(&ctx.log(), &outcome);
                    let mut r = report.lock().expect("serve report poisoned");
                    match outcome.end {
                        SessionEnd::Completed { .. } => r.completed += 1,
                        SessionEnd::Evicted | SessionEnd::Shutdown | SessionEnd::ClientGone => {
                            r.parked += 1
                        }
                        SessionEnd::Rejected { .. } | SessionEnd::Failed { .. } => r.failed += 1,
                    }
                });
                sessions
                    .lock()
                    .expect("session handles poisoned")
                    .push(handle);
            }
        }
    }
}

fn log_outcome(log: &Logger, o: &SessionOutcome) {
    let session = |extra: &[(&str, LogValue)], text: &str, event: &str| {
        let mut fields: Vec<(&str, LogValue)> = vec![
            ("tenant", LogValue::Str(&o.tenant)),
            ("stream", LogValue::Str(&o.stream)),
        ];
        fields.extend_from_slice(extra);
        log.info(text, event, &fields);
    };
    match &o.end {
        SessionEnd::Completed { events } => session(
            &[("events", LogValue::U64(*events))],
            &format!(
                "session {}/{} completed ({events} events out)",
                o.tenant, o.stream
            ),
            "session_completed",
        ),
        SessionEnd::Evicted => session(
            &[],
            &format!(
                "session {}/{} evicted idle (checkpointed)",
                o.tenant, o.stream
            ),
            "session_evicted",
        ),
        SessionEnd::Shutdown => session(
            &[],
            &format!(
                "session {}/{} parked for shutdown (checkpointed)",
                o.tenant, o.stream
            ),
            "session_parked",
        ),
        SessionEnd::ClientGone => session(
            &[],
            &format!(
                "session {}/{} client vanished (checkpointed)",
                o.tenant, o.stream
            ),
            "session_client_gone",
        ),
        SessionEnd::Rejected { code } => {
            let code_name = crate::protocol::error_code_name(*code);
            session(
                &[("code", LogValue::Str(code_name))],
                &format!("session {}/{} rejected ({code_name})", o.tenant, o.stream),
                "session_rejected",
            )
        }
        SessionEnd::Failed { code, message } => {
            let code_name = crate::protocol::error_code_name(*code);
            session(
                &[
                    ("code", LogValue::Str(code_name)),
                    ("message", LogValue::Str(message)),
                ],
                &format!(
                    "session {}/{} failed ({code_name}): {message}",
                    o.tenant, o.stream
                ),
                "session_failed",
            )
        }
    }
}
