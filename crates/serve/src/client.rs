//! Blocking client for a running `pi-serve` daemon.
//!
//! Used by `preimpl --remote ADDR` (compose on the farm instead of
//! locally) and by the `pi-serve submit`/`stats`/`stop` subcommands.
//! Every call is one request/response on a fresh connection; waiting for
//! a result is plain polling with a fixed short sleep — job IDs are
//! deterministic, so a dropped poll loop can always be restarted.

use crate::job::{JobResult, JobSpec};
use crate::protocol::http_call;
use crate::ServeError;
use pi_obs::{Event, MemorySink, Obs};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`submit_and_wait`] polls before giving up.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(600);
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Why a remote job did not produce a result.
#[derive(Debug)]
pub enum RemoteError {
    /// Could not reach the daemon or speak the protocol.
    Transport(ServeError),
    /// The daemon turned the request down (bad payload, full queue, ...).
    Rejected { status: u16, message: String },
    /// The job ran and failed; the daemon's error message.
    JobFailed(String),
    /// The job did not finish within [`WAIT_TIMEOUT`].
    Timeout(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Transport(e) => write!(f, "remote: {e}"),
            RemoteError::Rejected { status, message } => {
                write!(f, "remote: daemon said {status}: {message}")
            }
            RemoteError::JobFailed(m) => write!(f, "remote: job failed: {m}"),
            RemoteError::Timeout(id) => write!(f, "remote: job {id} timed out"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<ServeError> for RemoteError {
    fn from(e: ServeError) -> Self {
        RemoteError::Transport(e)
    }
}

/// Pull `"error"` out of a JSON error body, falling back to the raw text.
fn error_message(body: &str) -> String {
    match serde_json::from_str::<Value>(body) {
        Ok(v) => match v.get("error") {
            Some(Value::Str(s)) => s.clone(),
            _ => body.to_string(),
        },
        Err(_) => body.to_string(),
    }
}

/// Submit a job; returns the daemon-side job ID (the ID of the
/// *normalized* spec, which may differ from `spec.job_id()` when the
/// daemon overrides cache knobs).
pub fn submit(addr: &str, spec: &JobSpec) -> Result<String, RemoteError> {
    let (status, body) = http_call(addr, "POST", "/submit", &spec.to_json())?;
    if status != 200 {
        return Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        });
    }
    let v: Value = serde_json::from_str(&body)
        .map_err(|e| RemoteError::Transport(ServeError::Protocol(e.to_string())))?;
    match v.get("job_id") {
        Some(Value::Str(id)) => Ok(id.clone()),
        _ => Err(RemoteError::Transport(ServeError::Protocol(format!(
            "submit ack without job_id: {body}"
        )))),
    }
}

/// Fetch a finished job's result, or `Ok(None)` while it is still
/// queued/running.
pub fn try_result(addr: &str, job_id: &str) -> Result<Option<JobResult>, RemoteError> {
    let (status, body) = http_call(addr, "GET", &format!("/result/{job_id}"), "")?;
    match status {
        200 => JobResult::from_json(&body)
            .map(Some)
            .map_err(|e| RemoteError::Transport(ServeError::Protocol(e))),
        202 => Ok(None),
        500 => Err(RemoteError::JobFailed(error_message(&body))),
        _ => Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        }),
    }
}

/// Submit a job and block (polling) until its result is available.
pub fn submit_and_wait(addr: &str, spec: &JobSpec) -> Result<JobResult, RemoteError> {
    let job_id = submit(addr, spec)?;
    let deadline = Instant::now() + WAIT_TIMEOUT;
    loop {
        if let Some(result) = try_result(addr, &job_id)? {
            return Ok(result);
        }
        if Instant::now() >= deadline {
            return Err(RemoteError::Timeout(job_id));
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// The daemon's `/metrics` Prometheus text, verbatim.
pub fn metrics(addr: &str) -> Result<String, RemoteError> {
    let (status, body) = http_call(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        });
    }
    Ok(body)
}

/// [`submit_and_wait`] with distributed tracing: replay the job's event
/// stream (the `trace` of its result) inside a `serve::job:run` span
/// under a local `serve:request` span, both tagged with this caller's
/// deterministic trace ID (the raw spec's content hash — no clock, no
/// randomness). The returned events are one unified call tree spanning
/// both processes, in replay order with locally assigned sequence numbers
/// — byte-stable for a given job because the remote stream is the stored
/// timestamp-stripped form.
pub fn submit_and_wait_traced(
    addr: &str,
    spec: &JobSpec,
) -> Result<(JobResult, Vec<Event>), RemoteError> {
    let trace_id = spec.job_id();
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(sink.clone());
    // No address/port fields on the span: ephemeral ports are
    // nondeterministic and the spliced stream feeds deterministic diffs.
    let span = obs
        .scoped("serve")
        .span_with("request", &[("trace_id", trace_id.as_str().into())]);
    let result = submit_and_wait(addr, spec)?;
    let events = pi_obs::parse_jsonl(&result.trace_jsonl)
        .map_err(|e| RemoteError::Transport(ServeError::Protocol(e.to_string())))?;
    let job_span = obs.scoped("serve::job").span_with(
        "run",
        &[
            ("job", result.job_id.as_str().into()),
            ("trace_id", trace_id.as_str().into()),
            ("parent_span", "serve:request".into()),
        ],
    );
    obs.replay(events);
    job_span.end();
    span.end();
    Ok((result, sink.snapshot()))
}

/// The daemon's `/stats` JSON, verbatim.
pub fn stats(addr: &str) -> Result<String, RemoteError> {
    let (status, body) = http_call(addr, "GET", "/stats", "")?;
    if status != 200 {
        return Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        });
    }
    Ok(body)
}

/// Liveness probe.
pub fn healthz(addr: &str) -> Result<(), RemoteError> {
    let (status, body) = http_call(addr, "GET", "/healthz", "")?;
    if status != 200 {
        return Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        });
    }
    Ok(())
}

/// Ask the daemon to drain and exit.
pub fn shutdown(addr: &str) -> Result<(), RemoteError> {
    let (status, body) = http_call(addr, "POST", "/shutdown", "")?;
    if status != 200 {
        return Err(RemoteError::Rejected {
            status,
            message: error_message(&body),
        });
    }
    Ok(())
}
