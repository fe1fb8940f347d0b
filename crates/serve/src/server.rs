//! The daemon: accept loop, worker pool, endpoints.
//!
//! One thread accepts connections and hands each to a short-lived handler
//! thread (requests are tiny; the expensive work never happens on a
//! connection thread). `workers` long-lived worker threads block on the
//! job queue and run the flow — component builds go through
//! [`pi_flow::build_component_db_cached`] against the daemon's `db_dir`,
//! so every job shares one cache tier and the advisory manifest lock
//! keeps concurrent workers (and unrelated local processes) coherent.
//!
//! Endpoints (JSON in, JSON out, one request per connection):
//!
//! | method & path        | reply |
//! |----------------------|-------|
//! | `POST /submit`       | `{job_id, status}` with status `queued`/`coalesced`/`done`; `400` on a bad payload, `503` when the queue is full |
//! | `GET /status/<id>`   | `{job_id, status}`; `404` unknown |
//! | `GET /result/<id>`   | the stored [`JobResult`] JSON (byte-identical for every reader), the run's timestamp-stripped JSONL event stream inside it as `trace`; `202` while queued/running, `500` if the job failed, `404` unknown |
//! | `GET /stats`         | queue + shared-cache counters |
//! | `GET /metrics`       | Prometheus text exposition from the daemon's [`pi_obs::registry::Registry`]: queue depth, jobs by state, coalesced/rejected counts, shared-cache counters, per-command wallclock histograms, uptime |
//! | `GET /healthz`       | `{ok: true, version, uptime_seconds}` |
//! | `POST /shutdown`     | `{ok: true}`, then the daemon drains and exits |
//!
//! Telemetry: each finished request emits one `serve::request` point on
//! the daemon's sink — cache hits/misses/evictions as deterministic
//! fields, latency as a `wallclock_ms` field (aggregated by `flowstat
//! summarize --wallclock`, excluded from deterministic diffs). A job's
//! own event stream is stored once, inside its result; a client that
//! wants one cross-process call tree wraps it in a `serve::job:run` span
//! under its own `serve:request` span
//! ([`submit_and_wait_traced`](crate::client::submit_and_wait_traced)).

use crate::job::{JobCommand, JobResult, JobSpec};
use crate::protocol::{read_request, write_response, Request};
use crate::queue::{JobQueue, Submit};
use crate::ServeError;
use pi_fabric::Device;
use pi_flow::{build_component_db_cached, run_pre_implemented_flow, DbCacheStats};
use pi_obs::registry::Registry;
use pi_obs::Obs;
use pi_stitch::DbCache;
use serde_json::Value;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Shared component-database cache root. Job-supplied `db_dir`s are
    /// overridden with this (the daemon owns the cache tier); `None`
    /// serves every job cold, in memory.
    pub db_dir: Option<PathBuf>,
    /// Byte budget for the shared cache (LRU eviction beyond it).
    pub db_budget_bytes: Option<u64>,
    /// Worker threads pulling jobs off the queue (concurrent builds).
    pub workers: usize,
    /// Bound on pending jobs; submissions beyond it get `503`.
    pub queue_capacity: usize,
    /// Daemon telemetry sink (per-request points; job runs capture their
    /// own streams independently).
    pub obs: Obs,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            db_dir: None,
            db_budget_bytes: None,
            workers: 1,
            queue_capacity: 64,
            obs: Obs::null(),
        }
    }
}

/// Shared-cache counters folded across every job the daemon ran.
#[derive(Default)]
struct DbTotals {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    bytes_loaded: AtomicU64,
    cold_builds: AtomicU64,
}

struct ServerState {
    queue: JobQueue,
    options: ServerOptions,
    addr: SocketAddr,
    stop: AtomicBool,
    db: DbTotals,
    /// Live metric registry behind `GET /metrics` (uptime epoch included).
    registry: Registry,
}

/// A running daemon (see [`serve`]). Join it to block until shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Block until the daemon shuts down (via `POST /shutdown` or
    /// [`ServerHandle::shutdown`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Ask the daemon to drain and exit without going over HTTP.
    pub fn shutdown(&self) {
        request_stop(&self.state);
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start the
/// daemon: one accept thread plus `options.workers` worker threads.
pub fn serve(addr: &str, options: ServerOptions) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        queue: JobQueue::new(options.queue_capacity),
        options,
        addr,
        stop: AtomicBool::new(false),
        db: DbTotals::default(),
        registry: Registry::new(),
    });
    let mut threads = Vec::new();
    for _ in 0..state.options.workers.max(1) {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || worker_loop(&st)));
    }
    {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || accept_loop(listener, &st)));
    }
    Ok(ServerHandle {
        addr,
        threads,
        state,
    })
}

fn request_stop(state: &ServerState) {
    state.stop.store(true, Ordering::SeqCst);
    state.queue.stop();
    // Wake the accept loop so it observes the flag.
    let _ = TcpStream::connect(state.addr);
}

fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let st = Arc::clone(state);
        std::thread::spawn(move || handle_conn(stream, &st));
    }
}

fn handle_conn(mut stream: TcpStream, state: &Arc<ServerState>) {
    let (status, body, shutdown) = match read_request(&stream) {
        Ok(req) => route(&req, state),
        Err(e) => (400, err_json(&e.to_string()), false),
    };
    let _ = write_response(&mut stream, status, &body);
    if shutdown {
        request_stop(state);
    }
}

/// Dispatch one request; returns `(status, body, shutdown)`.
fn route(req: &Request, state: &ServerState) -> (u16, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => {
            let spec = match JobSpec::from_json(&req.body) {
                Ok(s) => s,
                Err(e) => return (400, err_json(&e), false),
            };
            let spec = spec.normalized(
                state.options.db_dir.as_deref(),
                state.options.db_budget_bytes,
            );
            match state.queue.submit(spec) {
                Submit::Queued(id) => (200, ack_json(&id, "queued"), false),
                Submit::Coalesced(id) => (200, ack_json(&id, "coalesced"), false),
                Submit::Done(id) => (200, ack_json(&id, "done"), false),
                Submit::Busy => (503, err_json("queue full"), false),
            }
        }
        ("GET", path) if path.starts_with("/status/") => {
            let id = &path["/status/".len()..];
            match state.queue.status(id) {
                Some(s) => (200, ack_json(id, s.as_str()), false),
                None => (404, err_json("unknown job"), false),
            }
        }
        ("GET", path) if path.starts_with("/result/") => {
            let id = &path["/result/".len()..];
            match state.queue.outcome(id) {
                Some(Ok(result)) => (200, result, false),
                Some(Err(e)) => (500, err_json(&e), false),
                None => match state.queue.status(id) {
                    Some(s) => (202, ack_json(id, s.as_str()), false),
                    None => (404, err_json("unknown job"), false),
                },
            }
        }
        ("GET", "/stats") => (200, stats_json(state), false),
        ("GET", "/metrics") => (200, metrics_text(state), false),
        ("GET", "/healthz") => (200, health_json(state), false),
        ("POST", "/shutdown") => (200, "{\"ok\":true}".to_string(), true),
        _ => (404, err_json("no such endpoint"), false),
    }
}

/// Liveness body: `ok` plus crate version and uptime. Both extra fields
/// are wall-clock/build facts — nothing downstream may diff them.
fn health_json(state: &ServerState) -> String {
    format!(
        "{{\"ok\":true,\"version\":\"{}\",\"uptime_seconds\":{}}}",
        env!("CARGO_PKG_VERSION"),
        state.registry.uptime_seconds()
    )
}

/// `GET /metrics`: mirror the authoritative queue and shared-cache
/// counters into the registry at scrape time (one source of truth — the
/// workers only feed the histograms), then render the Prometheus text.
fn metrics_text(state: &ServerState) -> String {
    let q = state.queue.stats();
    let r = &state.registry;
    r.gauge_set("pi_serve_queue_depth", q.queued_now as f64);
    r.gauge_set("pi_serve_jobs_running", q.running_now as f64);
    r.counter_set("pi_serve_jobs_submitted_total", q.submitted);
    r.counter_set("pi_serve_jobs_unique_total", q.unique);
    r.counter_set("pi_serve_jobs_coalesced_total", q.hits);
    r.counter_set("pi_serve_jobs_rejected_total", q.rejected);
    r.counter_set("pi_serve_jobs_completed_total", q.completed);
    r.counter_set("pi_serve_jobs_failed_total", q.failed);
    r.counter_set(
        "pi_serve_db_cache_hits_total",
        state.db.hits.load(Ordering::SeqCst),
    );
    r.counter_set(
        "pi_serve_db_cache_misses_total",
        state.db.misses.load(Ordering::SeqCst),
    );
    r.counter_set(
        "pi_serve_db_cache_invalidations_total",
        state.db.invalidations.load(Ordering::SeqCst),
    );
    r.counter_set(
        "pi_serve_db_cache_evictions_total",
        state.db.evictions.load(Ordering::SeqCst),
    );
    r.counter_set(
        "pi_serve_db_cache_bytes_loaded_total",
        state.db.bytes_loaded.load(Ordering::SeqCst),
    );
    // Process-wide, not per job: fewer decodes than hits is the decode
    // memo serving repeat loads.
    r.counter_set("pi_serve_db_cache_decodes_total", DbCache::decodes());
    r.gauge_set("pi_serve_db_cache_memo_bytes", DbCache::memo_bytes() as f64);
    r.counter_set(
        "pi_serve_db_cold_builds_total",
        state.db.cold_builds.load(Ordering::SeqCst),
    );
    r.gauge_set("pi_serve_workers", state.options.workers.max(1) as f64);
    r.render_prometheus()
}

fn err_json(message: &str) -> String {
    let mut m = Value::Map(Vec::new());
    m["error"] = Value::Str(message.to_string());
    serde_json::to_string(&m).expect("error serializes")
}

fn ack_json(job_id: &str, status: &str) -> String {
    let mut m = Value::Map(Vec::new());
    m["job_id"] = Value::Str(job_id.to_string());
    m["status"] = Value::Str(status.to_string());
    serde_json::to_string(&m).expect("ack serializes")
}

fn stats_json(state: &ServerState) -> String {
    let q = state.queue.stats();
    let mut queue = Value::Map(Vec::new());
    queue["submitted"] = Value::U64(q.submitted);
    queue["unique"] = Value::U64(q.unique);
    queue["hits"] = Value::U64(q.hits);
    queue["rejected"] = Value::U64(q.rejected);
    queue["completed"] = Value::U64(q.completed);
    queue["failed"] = Value::U64(q.failed);
    queue["queued_now"] = Value::U64(q.queued_now);
    queue["running_now"] = Value::U64(q.running_now);
    let mut db = Value::Map(Vec::new());
    db["hits"] = Value::U64(state.db.hits.load(Ordering::SeqCst));
    db["misses"] = Value::U64(state.db.misses.load(Ordering::SeqCst));
    db["invalidations"] = Value::U64(state.db.invalidations.load(Ordering::SeqCst));
    db["evictions"] = Value::U64(state.db.evictions.load(Ordering::SeqCst));
    db["bytes_loaded"] = Value::U64(state.db.bytes_loaded.load(Ordering::SeqCst));
    db["cold_builds"] = Value::U64(state.db.cold_builds.load(Ordering::SeqCst));
    let mut m = Value::Map(Vec::new());
    m["queue"] = queue;
    m["db"] = db;
    m["workers"] = Value::U64(state.options.workers.max(1) as u64);
    m["db_dir"] = match &state.options.db_dir {
        Some(p) => Value::Str(p.to_string_lossy().into_owned()),
        None => Value::Null,
    };
    serde_json::to_string(&m).expect("stats serialize")
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some((id, spec)) = state.queue.next_job() {
        let started = Instant::now();
        let outcome = run_job(&id, &spec);
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let req_obs = state.options.obs.scoped("serve").subscoped("request");
        state.registry.observe(
            &format!("pi_serve_job_wall_ms_{}", spec.command.as_str()),
            wall_ms,
        );
        match outcome {
            Ok(result) => {
                fold_db(&state.db, &result.cache);
                if req_obs.enabled() {
                    req_obs.point(
                        "done",
                        &[
                            ("job", id.as_str().into()),
                            ("outcome", "ok".into()),
                            ("cache_hits", (result.cache.hits as u64).into()),
                            ("cache_misses", (result.cache.misses as u64).into()),
                            (
                                "cache_invalidations",
                                (result.cache.invalidations as u64).into(),
                            ),
                            ("cache_evictions", result.cache.evictions.into()),
                            ("cache_bytes_loaded", result.cache.bytes_loaded.into()),
                            ("wallclock_ms", wall_ms.into()),
                        ],
                    );
                }
                state.queue.complete(&id, Ok(result.to_json()));
            }
            Err(e) => {
                if req_obs.enabled() {
                    req_obs.point(
                        "done",
                        &[
                            ("job", id.as_str().into()),
                            ("outcome", "error".into()),
                            ("wallclock_ms", wall_ms.into()),
                        ],
                    );
                }
                state.queue.complete(&id, Err(e));
            }
        }
    }
}

fn fold_db(totals: &DbTotals, stats: &DbCacheStats) {
    totals.hits.fetch_add(stats.hits as u64, Ordering::SeqCst);
    totals
        .misses
        .fetch_add(stats.misses as u64, Ordering::SeqCst);
    totals
        .invalidations
        .fetch_add(stats.invalidations as u64, Ordering::SeqCst);
    totals
        .evictions
        .fetch_add(stats.evictions, Ordering::SeqCst);
    totals
        .bytes_loaded
        .fetch_add(stats.bytes_loaded, Ordering::SeqCst);
    if stats.misses > 0 {
        totals.cold_builds.fetch_add(1, Ordering::SeqCst);
    }
}

/// Run one job to a [`JobResult`]. Every failure becomes a message the
/// client can read — a broken archdef must 500 its job, never kill a
/// worker.
fn run_job(id: &str, spec: &JobSpec) -> Result<JobResult, String> {
    let network = pi_model::import(&spec.archdef, spec.format)
        .map_err(|e| e.to_string())?
        .network;
    let device = Device::catalog(&spec.device).map_err(|e| e.to_string())?;
    // Capture the run's own telemetry; the stripped JSONL goes back to
    // the client for flowstat comparison against local runs.
    let cfg = spec.config.clone().with_report_capture();
    let (db, _reports, stats) =
        build_component_db_cached(&network, &device, &cfg).map_err(|e| e.to_string())?;
    let summary = match spec.command {
        JobCommand::BuildDb => {
            format!("pre-implemented {}: {} checkpoints", network.name, db.len())
        }
        JobCommand::Compose => {
            let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg)
                .map_err(|e| e.to_string())?;
            report.summary_line(&design)
        }
    };
    let trace_jsonl: String = cfg
        .captured_events()
        .iter()
        .map(|e| serde_json::to_string(&e.to_json(false)).expect("event serializes") + "\n")
        .collect();
    let report_text = cfg
        .run_report()
        .map(|r| r.render_text())
        .unwrap_or_default();
    Ok(JobResult {
        job_id: id.to_string(),
        summary,
        trace_jsonl,
        report_text,
        cache: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::http_call;

    fn start() -> ServerHandle {
        serve("127.0.0.1:0", ServerOptions::default()).expect("bind ephemeral")
    }

    #[test]
    fn health_unknown_and_bad_submit() {
        let h = start();
        let addr = h.addr();
        let (status, body) = http_call(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"ok\":true,"), "{body}");
        assert!(
            body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
            "{body}"
        );
        assert!(body.contains("\"uptime_seconds\":"), "{body}");
        let (status, _) = http_call(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        let (status, body) = http_call(&addr, "POST", "/submit", "not json").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        let (status, _) = http_call(&addr, "GET", "/status/ffff", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_call(&addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        h.join();
    }

    #[test]
    fn submit_runs_a_tiny_job_to_done() {
        let h = start();
        let addr = h.addr();
        let spec = JobSpec::new(
            "network tiny\ninput 1x8x8\nconv c1 kernel=3 out=2\n",
            "test-part",
            pi_flow::FlowConfig::new().with_seeds([1]),
        );
        let (status, body) = http_call(&addr, "POST", "/submit", &spec.to_json()).unwrap();
        assert_eq!(status, 200, "{body}");
        let normalized_id = spec.clone().normalized(None, None).job_id();
        assert!(body.contains(&normalized_id), "{body}");
        // Poll to completion.
        let result = loop {
            let (status, body) =
                http_call(&addr, "GET", &format!("/result/{normalized_id}"), "").unwrap();
            match status {
                200 => break JobResult::from_json(&body).unwrap(),
                202 => std::thread::sleep(std::time::Duration::from_millis(10)),
                other => panic!("unexpected status {other}: {body}"),
            }
        };
        assert!(
            result.summary.starts_with("assembled tiny"),
            "{}",
            result.summary
        );
        assert!(!result.trace_jsonl.is_empty());
        assert_eq!(result.cache.hits, 0, "no cache tier configured");
        let (status, stats) = http_call(&addr, "GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        assert!(stats.contains("\"completed\":1"), "{stats}");
        // Live metrics reflect the finished job.
        let (status, metrics) = http_call(&addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(
            metrics.contains("pi_serve_jobs_completed_total 1\n"),
            "{metrics}"
        );
        assert!(metrics.contains("# TYPE pi_serve_job_wall_ms_compose histogram"));
        for series in [
            "pi_serve_db_cache_decodes_total ",
            "pi_serve_db_cache_memo_bytes ",
        ] {
            assert!(metrics.contains(series), "{series} missing:\n{metrics}");
        }
        assert!(metrics.contains("uptime_seconds"));
        let (_, _) = http_call(&addr, "POST", "/shutdown", "").unwrap();
        h.join();
    }
}
