//! The daemon: accept loop, worker pool, endpoints.
//!
//! One thread accepts connections and hands each to a short-lived handler
//! thread (requests are tiny; the expensive work never happens on a
//! connection thread). A `/result` read for an unfinished job parks its
//! handler until the job completes (at most `RESULT_HOLD`, 10 s), so live
//! handlers are bounded by `MAX_HANDLERS` (256): past it the accept thread
//! answers `503` with `Retry-After` itself. `workers` long-lived worker
//! threads block on the job queue and run the flow — component builds go
//! through [`pi_flow::build_component_db_cached`] against the daemon's
//! `db_dir`, so every job shares one cache tier and the advisory manifest
//! lock keeps concurrent workers (and unrelated local processes) coherent.
//!
//! Endpoints (JSON in, JSON out, one request per connection):
//!
//! | method & path        | reply |
//! |----------------------|-------|
//! | `POST /submit`       | `{job_id, status}` with status `queued`/`coalesced`/`done`; `400` on a bad payload, `503` when the queue is full |
//! | `GET /status/<id>`   | `{job_id, status}`; `404` unknown |
//! | `GET /result/<id>`   | the stored [`JobResult`] JSON (byte-identical for every reader), the run's timestamp-stripped JSONL event stream inside it as `trace`, sent the moment the job finishes; `202` if it is still queued/running after `RESULT_HOLD`, `500` if the job failed, `404` unknown (at once) |
//! | `GET /stats`         | queue + shared-cache counters |
//! | `GET /metrics`       | Prometheus text exposition from the daemon's [`pi_obs::registry::Registry`]: queue depth, jobs by state, coalesced/rejected counts, shared-cache counters, queue-wait and per-command wallclock histograms, live connections, uptime |
//! | `GET /healthz`       | `{ok: true, version, uptime_seconds}` |
//! | `POST /shutdown`     | `{ok: true}`, then the daemon drains and exits; held `/result` reads answer `202` |
//!
//! Any request past `MAX_HANDLERS` live connections gets `503
//! {"error":"busy"}` with `Retry-After: 1`.
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
use crate::protocol::{read_request, write_response, Ack, ErrorBody, Request, IO_TIMEOUT};
use crate::queue::{JobQueue, QueueStats, Submit};
use crate::ServeError;
use pi_fabric::Device;
use pi_flow::{build_component_db_cached, run_pre_implemented_flow, DbCacheStats};
use pi_obs::registry::Registry;
use pi_obs::Obs;
use pi_stitch::DbCache;
use serde::Serialize;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long `GET /result/<id>` waits for an unfinished job before
/// answering `202`.
const RESULT_HOLD: Duration = Duration::from_secs(10);
// A held read must answer before the client's read timeout fires.
const _: () = assert!(RESULT_HOLD.as_millis() < IO_TIMEOUT.as_millis());

/// Live handler threads (connections being served) the accept loop
/// allows; each held `/result` parks one.
const MAX_HANDLERS: usize = 256;

/// How long a shed connection is drained after its `503`, so closing it
/// does not reset the reply under the peer; bounds what a silent peer
/// costs the accept thread.
const SHED_DRAIN: Duration = Duration::from_millis(100);

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

/// A snapshot of [`DbTotals`] (the `db` object of `/stats`).
#[derive(Serialize)]
struct DbStats {
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    bytes_loaded: u64,
    cold_builds: u64,
}

impl DbTotals {
    fn snapshot(&self) -> DbStats {
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
        DbStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            invalidations: load(&self.invalidations),
            evictions: load(&self.evictions),
            bytes_loaded: load(&self.bytes_loaded),
            cold_builds: load(&self.cold_builds),
        }
    }
}

/// The `/stats` body.
#[derive(Serialize)]
struct Stats<'a> {
    queue: QueueStats,
    db: DbStats,
    workers: usize,
    db_dir: Option<&'a PathBuf>,
}

/// The `/healthz` body: `ok` plus crate version and uptime. Both extra
/// fields are wall-clock/build facts — nothing downstream may diff them.
#[derive(Serialize)]
struct Health {
    ok: bool,
    version: &'static str,
    uptime_seconds: u64,
}

struct ServerState {
    queue: JobQueue,
    options: ServerOptions,
    addr: SocketAddr,
    stop: AtomicBool,
    db: DbTotals,
    /// Live handler threads; the accept loop sheds load at [`MAX_HANDLERS`].
    in_flight: AtomicUsize,
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
    let workers = options.workers.max(1);
    serve_with_workers(addr, options, workers)
}

/// [`serve`] with an explicit worker count; tests start `0` workers to
/// keep submitted jobs queued.
fn serve_with_workers(
    addr: &str,
    options: ServerOptions,
    workers: usize,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        queue: JobQueue::new(options.queue_capacity),
        options,
        addr,
        stop: AtomicBool::new(false),
        db: DbTotals::default(),
        in_flight: AtomicUsize::new(0),
        registry: Registry::new(),
    });
    let mut threads = Vec::new();
    for _ in 0..workers {
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
        // Only this thread increments, so the bound is exact.
        if state.in_flight.load(Ordering::SeqCst) >= MAX_HANDLERS {
            shed(stream);
            continue;
        }
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        let st = Arc::clone(state);
        std::thread::spawn(move || {
            let _live = Live(&st.in_flight);
            handle_conn(stream, &st);
        });
    }
}

/// Decrements the live-handler count when its handler thread ends, even
/// by a panic.
struct Live<'a>(&'a AtomicUsize);

impl Drop for Live<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer a connection past `MAX_HANDLERS` from the accept thread:
/// `503 busy`, then drain what the peer sent until it closes or
/// [`SHED_DRAIN`] passes.
fn shed(mut stream: TcpStream) {
    let _ = write_response(&mut stream, 503, &err_json("busy"), Some(1));
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(SHED_DRAIN));
    let _ = std::io::copy(&mut stream, &mut std::io::sink());
}

fn handle_conn(mut stream: TcpStream, state: &Arc<ServerState>) {
    let (status, body, shutdown) = match read_request(&stream) {
        Ok(req) => route(&req, state),
        Err(e) => (400, err_json(&e.to_string()), false),
    };
    let _ = write_response(&mut stream, status, &body, None);
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
            let Some(status) = state.queue.status(id) else {
                return (404, err_json("unknown job"), false);
            };
            // The wait reads the outcome under the queue lock, so a `202`
            // never says `done`; it names the state the read arrived in.
            match state.queue.wait_outcome(id, RESULT_HOLD) {
                Some(Ok(result)) => (200, result, false),
                Some(Err(e)) => (500, err_json(&e), false),
                None => (202, ack_json(id, status.as_str()), false),
            }
        }
        ("GET", "/stats") => (200, stats_json(state), false),
        ("GET", "/metrics") => (200, metrics_text(state), false),
        ("GET", "/healthz") => (200, health_json(state), false),
        ("POST", "/shutdown") => (200, "{\"ok\":true}".to_string(), true),
        _ => (404, err_json("no such endpoint"), false),
    }
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
    let db = state.db.snapshot();
    r.counter_set("pi_serve_db_cache_hits_total", db.hits);
    r.counter_set("pi_serve_db_cache_misses_total", db.misses);
    r.counter_set("pi_serve_db_cache_invalidations_total", db.invalidations);
    r.counter_set("pi_serve_db_cache_evictions_total", db.evictions);
    r.counter_set("pi_serve_db_cache_bytes_loaded_total", db.bytes_loaded);
    // Process-wide, not per job: fewer decodes than hits is the decode
    // memo serving repeat loads.
    r.counter_set("pi_serve_db_cache_decodes_total", DbCache::decodes());
    r.gauge_set("pi_serve_db_cache_memo_bytes", DbCache::memo_bytes() as f64);
    r.counter_set("pi_serve_db_cold_builds_total", db.cold_builds);
    r.gauge_set("pi_serve_workers", state.options.workers.max(1) as f64);
    // Includes the handler serving this scrape.
    r.gauge_set(
        "pi_serve_connections_in_flight",
        state.in_flight.load(Ordering::SeqCst) as f64,
    );
    r.render_prometheus()
}

/// A reply body: the value's derived compact JSON form.
fn json(body: &impl Serialize) -> String {
    serde_json::to_string(body).expect("reply body serializes")
}

fn err_json(message: &str) -> String {
    json(&ErrorBody {
        error: message.to_string(),
    })
}

fn ack_json(job_id: &str, status: &str) -> String {
    json(&Ack {
        job_id: job_id.to_string(),
        status: status.to_string(),
    })
}

fn health_json(state: &ServerState) -> String {
    json(&Health {
        ok: true,
        version: env!("CARGO_PKG_VERSION"),
        uptime_seconds: state.registry.uptime_seconds(),
    })
}

fn stats_json(state: &ServerState) -> String {
    json(&Stats {
        queue: state.queue.stats(),
        db: state.db.snapshot(),
        workers: state.options.workers.max(1),
        db_dir: state.options.db_dir.as_ref(),
    })
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some((id, spec, queued)) = state.queue.next_job() {
        state
            .registry
            .observe("pi_serve_queue_wait_ms", queued.as_secs_f64() * 1000.0);
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
    let trace_jsonl = pi_obs::stripped_jsonl(&cfg.captured_events());
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
    use std::io::{ErrorKind, Read, Write};

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
        // One held read, made right away, is answered with the result.
        let (status, body) =
            http_call(&addr, "GET", &format!("/result/{normalized_id}"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        let result = JobResult::from_json(&body).unwrap();
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
            "pi_serve_queue_wait_ms_count 1\n",
        ] {
            assert!(metrics.contains(series), "{series} missing:\n{metrics}");
        }
        // The scrape's own connection is live (an earlier one may still be
        // closing).
        let live: f64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("pi_serve_connections_in_flight "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no in-flight gauge:\n{metrics}"));
        assert!(live >= 1.0, "{metrics}");
        assert!(metrics.contains("uptime_seconds"));
        let (_, _) = http_call(&addr, "POST", "/shutdown", "").unwrap();
        h.join();
    }

    /// A daemon with no workers and one submitted job, which therefore
    /// stays queued until the test plays the worker.
    fn start_with_a_queued_job() -> (ServerHandle, String) {
        let h =
            serve_with_workers("127.0.0.1:0", ServerOptions::default(), 0).expect("bind ephemeral");
        let spec = JobSpec::new("network q\ninput 1x8x8\n", "test-part", Default::default());
        let (status, body) = http_call(&h.addr(), "POST", "/submit", &spec.to_json()).unwrap();
        assert_eq!(status, 200, "{body}");
        await_handlers(&h, 0);
        (h, spec.normalized(None, None).job_id())
    }

    /// Wait until the daemon has exactly `n` live handlers.
    fn await_handlers(h: &ServerHandle, n: usize) {
        let deadline = Instant::now() + RESULT_HOLD;
        while h.state.in_flight.load(Ordering::SeqCst) != n {
            assert!(Instant::now() < deadline, "never {n} live handlers");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `GET /result/<id>` from another thread: its status and how long it
    /// was held. Returns once the daemon has a handler for it, so a stop
    /// that follows cannot refuse the connection; no other handler may
    /// start or end meanwhile.
    fn held_read(h: &ServerHandle, id: &str) -> JoinHandle<(u16, Duration)> {
        let live = h.state.in_flight.load(Ordering::SeqCst);
        let (addr, path) = (h.addr(), format!("/result/{id}"));
        let reader = std::thread::spawn(move || {
            let t = Instant::now();
            let (status, _) = http_call(&addr, "GET", &path, "").unwrap();
            (status, t.elapsed())
        });
        await_handlers(h, live + 1);
        reader
    }

    #[test]
    fn shutdown_answers_a_held_result_read() {
        let (h, id) = start_with_a_queued_job();
        let reader = held_read(&h, &id);
        h.shutdown();
        let (status, held) = reader.join().unwrap();
        assert_eq!(status, 202);
        assert!(held < RESULT_HOLD / 4, "held {held:?}");
        h.join();
    }

    #[test]
    fn a_reader_that_hangs_up_mid_hold_leaves_the_daemon_serving() {
        let (h, id) = start_with_a_queued_job();
        let addr = h.addr();
        let mut hangs_up = TcpStream::connect(&addr).unwrap();
        write!(
            hangs_up,
            "GET /result/{id} HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        await_handlers(&h, 1);
        drop(hangs_up);
        let reader = held_read(&h, &id);
        let (got, _, _) = h.state.queue.next_job().unwrap();
        assert_eq!(got, id);
        h.state
            .queue
            .complete(&id, Ok("{\"stored\":1}".to_string()));
        assert_eq!(reader.join().unwrap().0, 200);
        let (status, body) = http_call(&addr, "GET", &format!("/result/{id}"), "").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"stored\":1}"));
        assert_eq!(http_call(&addr, "GET", "/healthz", "").unwrap().0, 200);
        h.shutdown();
        h.join();
    }

    #[test]
    fn connections_past_the_bound_are_shed_with_retry_after() {
        let h =
            serve_with_workers("127.0.0.1:0", ServerOptions::default(), 0).expect("bind ephemeral");
        let addr = h.addr();
        // Each idle socket parks a handler waiting for its request.
        let idle: Vec<TcpStream> = (0..MAX_HANDLERS)
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        let mut next = TcpStream::connect(&addr).unwrap();
        write!(next, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut reply = String::new();
        next.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
        assert!(reply.contains("\r\nRetry-After: 1\r\n"), "{reply}");
        assert!(reply.ends_with("\r\n\r\n{\"error\":\"busy\"}"), "{reply}");
        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(30);
        while http_call(&addr, "GET", "/healthz", "").unwrap().0 != 200 {
            assert!(Instant::now() < deadline, "service did not resume");
            std::thread::sleep(Duration::from_millis(20));
        }
        h.shutdown();
        h.join();
    }

    #[test]
    fn a_request_line_without_end_is_refused_and_the_daemon_serves_on() {
        let h = start();
        let addr = h.addr();
        let mut endless = TcpStream::connect(&addr).unwrap();
        // Well inside the daemon's own read timeout: the refusal must not
        // wait for the peer to stall.
        endless.set_read_timeout(Some(IO_TIMEOUT / 3)).unwrap();
        // The daemon stops reading past its head bound, so the tail of
        // this write may be refused; either way the reply must come.
        let _ = endless.write_all(&vec![b'a'; 1 << 20]);
        let mut reply = String::new();
        match endless.read_to_string(&mut reply) {
            Ok(_) if !reply.is_empty() => {
                assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
                assert!(reply.contains("message head over"), "{reply}");
            }
            Ok(_) => {}
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "no reply and no close: {e}"
            ),
        }
        let (status, _) = http_call(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        h.shutdown();
        h.join();
    }
}
