//! # ppa-server — multi-tenant streaming trace ingest
//!
//! The daemon behind `ppa serve`: accepts many concurrent trace
//! uploads over TCP and unix sockets, runs each one through the same
//! checkpointed [`Pipeline`](ppa_core::Pipeline) as `ppa analyze`,
//! and writes per-stream JSONL reports that are byte-identical to a
//! single-shot run of it.
//!
//! The moving parts:
//!
//! - [`protocol`] — the `PPASERV1` length-prefixed session protocol
//!   (`HELLO`/`DATA`/`FIN` in, `OK`/`DONE`/`ERROR` out), specified
//!   byte-by-byte in `PROTOCOL.md` at the repo root.
//! - [`quota`] — per-tenant admission control: session caps, an
//!   events/sec throttle, and a resident-bytes ceiling.
//! - [`session`] — one connection's life from `HELLO` to
//!   `DONE`/`ERROR`, including cadence checkpoints, idle eviction, and
//!   resume from `PPACKPT2` checkpoint chains.
//! - [`daemon`] — listeners, accept loops, SIGTERM/SIGINT handling,
//!   and the checkpoint-everything graceful shutdown.
//! - `http` (private) — the `/metrics` (Prometheus) and `/healthz`
//!   endpoints.
//! - [`client`] — the uploading side, shared by `ppa send` and tests.
//!
//! Operational guidance (flags, alerts, the kill/restart runbook) lives
//! in `OPERATIONS.md`.

pub mod client;
pub mod daemon;
mod http;
pub mod log;
pub mod metrics;
pub mod protocol;
pub mod quota;
pub mod session;

pub use client::{send_trace, ClientError, SendOutcome, Target, DEFAULT_FRAME_BYTES};
pub use daemon::{
    install_signal_handlers, reset_signal_shutdown, signal_shutdown_requested, ServeConfig,
    ServeReport, Server, ServerCtx, DEFAULT_LISTEN,
};
pub use log::{LogFormat, LogLevel, LogValue, Logger};
pub use metrics::{ServerMetrics, TenantMetrics};
pub use protocol::{ProtocolError, Summary};
pub use quota::{AdmitError, Quotas, SessionTable};
pub use session::{run_session, SessionEnd, SessionOutcome};

// Compile and run the examples in the wire spec, so PROTOCOL.md cannot
// drift from the constants it documents. (CI additionally greps the
// prose for the literal frame-type and error-code values.)
#[doc = include_str!("../../../PROTOCOL.md")]
#[cfg(doctest)]
mod protocol_spec_doctests {}
