//! The compile-farm daemon: share one component-database cache between
//! many clients.
//!
//! The paper's pitch is that function optimization is done *once* and
//! every later accelerator composes pre-implemented checkpoints. A
//! persistent `--db-dir` makes that true across runs on one machine;
//! `pi-serve` makes it true across *clients*: a daemon owns the cache
//! tier, clients POST compile jobs (archdef + serialized [`FlowConfig`]
//! — the derived-serde wire form, `FlowConfig::to_json`), and the daemon
//! schedules them across a bounded job queue and worker pool, running
//! [`pi_flow::build_component_db_cached`] against the shared cache. The
//! cross-process manifest lock ([`pi_stitch::LockFile`]) keeps the cache
//! coherent even when other local processes use the same directory.
//!
//! The moving parts:
//!
//! * [`protocol`] — the hand-rolled line-oriented HTTP/1.1 subset both
//!   sides speak (std-only; no external HTTP stack).
//! * [`job`] — [`JobSpec`] (what a client submits, with its
//!   deterministic content-hash [`JobSpec::job_id`]) and [`JobResult`]
//!   (what the daemon returns: deterministic summary, stripped JSONL
//!   trace, cache counters).
//! * [`queue`] — the bounded, coalescing job queue: identical concurrent
//!   submissions collapse onto one build, later ones are served the
//!   stored result byte-for-byte.
//! * [`server`] — the TCP daemon: accept loop, worker threads, the
//!   `submit`/`status`/`result`/`stats`/`metrics`/`healthz`/`shutdown`
//!   endpoints, per-request telemetry folded into `flowstat`
//!   via [`pi_obs`] and live counters/histograms exposed as Prometheus
//!   text through [`pi_obs::registry`].
//! * [`client`] — the blocking client the `preimpl --remote` path and
//!   the `pi-serve` CLI subcommands use, including
//!   [`submit_and_wait_traced`] which splices the job's event stream
//!   (stored once, inside its result) under local `serve:request` /
//!   `serve::job:run` spans for unified reports.
//!
//! [`FlowConfig`]: pi_flow::FlowConfig

pub mod client;
pub mod job;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{submit_and_wait, submit_and_wait_traced, RemoteError};
pub use job::{JobCommand, JobResult, JobSpec, JobStatus};
pub use queue::{JobQueue, QueueStats, Submit};
pub use server::{serve, ServerHandle, ServerOptions};

/// Errors from the serve layer (daemon side and transport).
#[derive(Debug)]
pub enum ServeError {
    /// Socket/file-descriptor failure.
    Io(std::io::Error),
    /// A malformed request or response on the wire.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve io: {e}"),
            ServeError::Protocol(m) => write!(f, "serve protocol: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
