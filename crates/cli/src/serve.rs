//! `ppa serve`, the multi-tenant streaming ingest daemon, and `ppa
//! send`, its uploader.

use crate::args::{parse_args, PipelineFlags};
use crate::CliError;
use ppa::server::{
    install_signal_handlers, send_trace, ClientError, LogFormat, LogLevel, LogValue, SendOutcome,
    ServeConfig, Server, Target, DEFAULT_FRAME_BYTES, DEFAULT_LISTEN,
};
use std::path::Path;
use std::time::Duration;

pub(crate) const SERVE_USAGE: &str = "usage: ppa serve --checkpoint-dir DIR [--listen ADDR]... \
     [--unix-socket PATH] [--metrics-listen ADDR] [--max-sessions N] \
     [--tenant-max-sessions N] [--tenant-max-eps N] [--tenant-max-resident-bytes N] \
     [--checkpoint-every N] [--checkpoint-compact-every N] [--idle-timeout-ms N] [--lenient] \
     [--reorder-window N] [--decode-workers N] [--overheads spec.json] \
     [--log-format text|json] [--log-level info|debug] [--self-trace-dir DIR] \
     [--metrics-every SECS]";

pub(crate) const SEND_USAGE: &str = "usage: ppa send <trace.{jsonl|bin}> \
     (--to ADDR | --unix PATH) --tenant T --stream S [--frame-bytes N]";

/// Parses `ppa serve`'s flags into the daemon's configuration, all but
/// the `--overheads` spec, which is returned unread beside it.
pub(crate) fn parse_serve(args: &[String]) -> Result<(ServeConfig, PipelineFlags<'_>), CliError> {
    let mut config = ServeConfig {
        listen: Vec::new(),
        ..ServeConfig::default()
    };
    let mut checkpoint_dir = None;
    let mut pipeline = PipelineFlags::default();
    let q = &mut config.quotas;
    let [] = parse_args(args, |flag, a| {
        match flag {
            "--checkpoint-dir" => checkpoint_dir = Some(a.value()?),
            "--listen" => config.listen.push(a.value()?.to_string()),
            "--unix-socket" => config.unix_socket = Some(a.value()?.into()),
            "--metrics-listen" => config.metrics_listen = Some(a.value()?.to_string()),
            "--max-sessions" => q.max_sessions = a.nonneg()?,
            "--tenant-max-sessions" => q.tenant_max_sessions = a.nonneg()?,
            "--tenant-max-eps" => q.tenant_max_eps = a.nonneg()?,
            "--tenant-max-resident-bytes" => q.tenant_max_resident_bytes = a.nonneg()?,
            "--idle-timeout-ms" => config.idle_timeout = Duration::from_millis(a.positive()?),
            "--log-format" => config.log_format = a.choice(LogFormat::parse, "`text` or `json`")?,
            "--log-level" => config.log_level = a.choice(LogLevel::parse, "`info` or `debug`")?,
            "--self-trace-dir" => config.self_trace_dir = Some(a.value()?.into()),
            _ => return pipeline.take(flag, a),
        }
        Ok(true)
    })?;
    // The checkpoint directory is the daemon's only durable state — no
    // sensible default exists, so it is the one required flag.
    config.checkpoint_dir = checkpoint_dir
        .ok_or_else(|| CliError::Usage(SERVE_USAGE.into()))?
        .into();
    config.lenient = pipeline.lenient;
    config.reorder_window = pipeline.reorder_window;
    config.checkpoint_every = pipeline.checkpoint_every.unwrap_or(config.checkpoint_every);
    config.checkpoint_compact_every = pipeline
        .checkpoint_compact_every
        .unwrap_or(config.checkpoint_compact_every);
    config.decode_workers = pipeline.decode_workers.unwrap_or(config.decode_workers);
    config.metrics_every = pipeline.metrics_every;
    if config.listen.is_empty() && config.unix_socket.is_none() {
        config.listen.push(DEFAULT_LISTEN.to_string());
    }
    Ok((config, pipeline))
}

/// `ppa serve`: run the multi-tenant streaming ingest daemon until
/// SIGTERM/SIGINT, checkpointing every live session on the way out.
/// The wire protocol is specified in PROTOCOL.md; the operational
/// lifecycle (eviction, resume, alerting) in OPERATIONS.md.
pub(crate) fn run_serve(args: &[String]) -> Result<(), CliError> {
    let (mut config, pipeline) = parse_serve(args)?;
    config.overheads = pipeline.overheads()?;

    install_signal_handlers();
    let server = Server::bind(config).map_err(|e| CliError::Io(format!("bind: {e}")))?;
    let log = server.ctx().log();
    for addr in server.tcp_addrs() {
        let addr = addr.to_string();
        log.info(
            &format!("listening on tcp {addr}"),
            "listening_tcp",
            &[("addr", LogValue::Str(&addr))],
        );
    }
    if let Some(path) = server.ctx().config.unix_socket.as_ref() {
        let path = path.display().to_string();
        log.info(
            &format!("listening on unix {path}"),
            "listening_unix",
            &[("path", LogValue::Str(&path))],
        );
    }
    if let Some(addr) = server.metrics_addr() {
        let addr = addr.to_string();
        log.info(
            &format!("metrics on http://{addr}"),
            "metrics_listening",
            &[("addr", LogValue::Str(&addr))],
        );
    }
    log.info("ready", "ready", &[]);
    server
        .run()
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    Ok(())
}

/// What `ppa send` was asked for.
pub(crate) struct SendOptions<'a> {
    trace: &'a str,
    target: Target,
    tenant: &'a str,
    stream_id: &'a str,
    frame_bytes: usize,
}

pub(crate) fn parse_send(args: &[String]) -> Result<SendOptions<'_>, CliError> {
    let (mut target, mut tenant, mut stream_id) = (None, None, None);
    let mut frame_bytes = DEFAULT_FRAME_BYTES;
    let [trace] = parse_args(args, |flag, a| {
        match flag {
            "--to" => target = Some(Target::Tcp(a.value()?.to_string())),
            "--unix" => target = Some(Target::Unix(a.value()?.into())),
            "--tenant" => tenant = Some(a.value()?),
            "--stream" => stream_id = Some(a.value()?),
            "--frame-bytes" => frame_bytes = a.positive()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (Some(trace), Some(target), Some(tenant), Some(stream_id)) =
        (trace, target, tenant, stream_id)
    else {
        return Err(CliError::Usage(SEND_USAGE.into()));
    };
    Ok(SendOptions {
        trace,
        target,
        tenant,
        stream_id,
        frame_bytes,
    })
}

/// `ppa send`: upload one trace file to a running `ppa serve` daemon as
/// a `(tenant, stream)` session and print the server's final summary.
pub(crate) fn run_send(args: &[String]) -> Result<(), CliError> {
    let o = parse_send(args)?;
    let (trace, tenant, stream_id) = (o.trace, o.tenant, o.stream_id);
    // Distinguish "trace file missing" (66) from socket trouble (74)
    // before the upload mixes both into one I/O stream.
    if !Path::new(trace).is_file() {
        return Err(CliError::NoInput(format!("{trace}: no such file")));
    }

    match send_trace(
        &o.target,
        tenant,
        stream_id,
        Path::new(trace),
        o.frame_bytes,
    ) {
        Ok(SendOutcome::Done {
            resumed_from,
            summary,
        }) => {
            if resumed_from > 0 {
                println!("send: resumed {tenant}/{stream_id} from {resumed_from} events");
            }
            println!(
                "send: {tenant}/{stream_id} done ({} report events, {} awaits, {} barriers, \
                 last t={} ns, {} gaps, {} events lost)",
                summary.events,
                summary.awaits,
                summary.barriers,
                summary.last_time_ns,
                summary.gaps,
                summary.events_lost
            );
            Ok(())
        }
        Err(ClientError::Io(e)) => Err(CliError::Io(format!("{trace}: {e}"))),
        Err(e @ ClientError::Protocol(_)) => Err(CliError::Data(e.to_string())),
        Err(e @ ClientError::Server { .. }) => Err(CliError::Data(e.to_string())),
    }
}
