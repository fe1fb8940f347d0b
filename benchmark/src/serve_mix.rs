//! `serve_mix`: an in-process `pi-serve` daemon (one worker, queue of
//! 64, its own warm cache directory) under two closed-loop clients.
//!
//! The job list is generated from the seed before timing starts, in
//! blocks of [`BLOCK`] jobs with a fixed composition and a seeded order:
//! 30 % `hit` (a primed spec resubmitted -> stored result), 60 % `warm`
//! (a fresh job ID from a perturbed `baseline_effort`, which is outside
//! `cache_fingerprint` -> all cache hits), 10 % `cold` (LeNet under a
//! never-seen seed triple -> every component a miss). Networks follow
//! zipf(1.1) over lenet > cifar > resnet > alexnet > vgg, apportioned per
//! block by largest remainder rather than drawn per job: a free draw over
//! the ~80 jobs a run completes moves throughput by ±15 % with the number
//! of VGG jobs it happens to contain, which would swamp every bound. The
//! clients stop at a block boundary, so every run measures whole blocks.

use crate::metrics::{self, Values};
use crate::oracle;
use crate::trace::Tracer;
use crate::workloads::{
    err, fold_end_to_end, fold_quality, prepare_zoo, shuffle, Bench, Outcome, Prepared, Traced,
};
use crate::zoo;
use pi_serve::client;
use pi_serve::{JobResult, JobSpec, ServerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const BLOCK: usize = 20;
const HITS_PER_BLOCK: usize = 6;
const WARM_PER_BLOCK: usize = 12;
const COLD_PER_BLOCK: usize = 2;
/// Blocks generated up front; a run that drains them all simply stops.
const MAX_BLOCKS: usize = 64;
const CLIENTS: usize = 2;
/// `pi_serve::client`'s poll interval, mirrored by the traced replay.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Warm,
    Cold,
}

struct Job {
    class: Class,
    /// Index into the prepared zoo.
    net: usize,
    spec: JobSpec,
}

/// Split `n` among `weights` by largest remainder.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// Pre-generates the job list from the seed.
struct JobGen<'a> {
    rng: StdRng,
    seed: u64,
    primed: &'a [JobSpec],
    /// Jobs minted so far; makes every warm and cold job ID unique.
    serial: u64,
}

impl JobGen<'_> {
    fn job(&mut self, class: Class, net: usize) -> Job {
        self.serial += 1;
        let mut spec = self.primed[net].clone();
        match class {
            Class::Hit => {}
            Class::Warm => {
                spec.config.baseline_effort += self.serial as f64 / (1u64 << 20) as f64;
            }
            Class::Cold => {
                let base = 1_000_000 + self.seed * 100_000 + 3 * self.serial;
                spec.config = spec.config.with_seeds([base, base + 1, base + 2]);
            }
        }
        Job { class, net, spec }
    }

    fn block(&mut self) -> Vec<Job> {
        let zipf: Vec<f64> = (0..self.primed.len())
            .map(|k| 1.0 / ((k + 1) as f64).powf(1.1))
            .collect();
        let mut jobs = Vec::with_capacity(BLOCK);
        for (class, n) in [(Class::Hit, HITS_PER_BLOCK), (Class::Warm, WARM_PER_BLOCK)] {
            for (net, count) in apportion(n, &zipf).into_iter().enumerate() {
                jobs.extend((0..count).map(|_| (class, net)));
            }
        }
        // LeNet is network 0 of the zoo.
        jobs.extend((0..COLD_PER_BLOCK).map(|_| (Class::Cold, 0)));
        shuffle(&mut jobs, &mut self.rng);
        jobs.into_iter().map(|(c, n)| self.job(c, n)).collect()
    }
}

struct Served {
    job: usize,
    latency_s: f64,
    result: Result<JobResult, String>,
}

/// `clients` closed-loop clients pull jobs in list order and
/// `submit_and_wait` each; they stop at the first block boundary after
/// `seconds` (or when the list is drained). Returns what was served and
/// the makespan.
fn drive(addr: &str, jobs: &[Job], clients: usize, seconds: f64) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let next = Mutex::new(0usize);
    let served = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = {
                    let mut next = next.lock().expect("no client panics holding it");
                    let at_boundary = *next > 0 && (*next).is_multiple_of(BLOCK);
                    if *next == jobs.len()
                        || (at_boundary && start.elapsed().as_secs_f64() >= seconds)
                    {
                        // Park the cursor so the other client stops too.
                        *next = jobs.len();
                        break;
                    }
                    *next += 1;
                    *next - 1
                };
                let t = Instant::now();
                let result = client::submit_and_wait(addr, &jobs[i].spec).map_err(err);
                let latency_s = t.elapsed().as_secs_f64();
                served
                    .lock()
                    .expect("no client panics holding it")
                    .push(Served {
                        job: i,
                        latency_s,
                        result,
                    });
            });
        }
    });
    let makespan = start.elapsed().as_secs_f64();
    let mut served = served.into_inner().expect("clients joined");
    // Completion order depends on the race between the clients.
    served.sort_by_key(|s: &Served| s.job);
    (served, makespan)
}

/// `Fmax N MHz` / `frame X ms` out of a served one-line summary.
fn number_after(summary: &str, key: &str) -> Option<f64> {
    let rest = &summary[summary.find(key)? + key.len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// The oracle for one served job.
fn check_served(job: &Job, zoo: &[Prepared], primed: &[JobResult], s: &Served) -> Vec<String> {
    let p = &zoo[job.net];
    let name = p.net.name;
    let r = match &s.result {
        Ok(r) => r,
        Err(e) => return vec![format!("{name}: {:?} job failed: {e}", job.class)],
    };
    let mut failures = Vec::new();
    let components = oracle::expected(name).map_or(0, |e| e.components as usize);
    match job.class {
        Class::Hit | Class::Warm => {
            if r.summary != primed[job.net].summary {
                failures.push(format!(
                    "{name}: served summary differs from the primed one"
                ));
            }
            if r.cache.misses != 0 || r.cache.hits != components {
                failures.push(format!("{name}: {:?} job missed: {:?}", job.class, r.cache));
            }
        }
        Class::Cold => {
            if r.cache.misses != components {
                failures.push(format!("{name}: cold job did not miss: {:?}", r.cache));
            }
        }
    }
    failures.extend(check_summary(p, &r.summary, job.class != Class::Cold));
    failures
}

/// A served summary line against the expected structure and, for the
/// seed the zoo was prepared under, the locally assembled Fmax.
fn check_summary(p: &Prepared, summary: &str, same_seed: bool) -> Vec<String> {
    let name = p.net.name;
    let mut failures = Vec::new();
    let nets = oracle::expected(name).map_or(0, |e| e.stitched_nets);
    if !summary.starts_with(&format!("assembled {name}_assembled:"))
        || !summary.ends_with(&format!(" {nets} stitched nets"))
    {
        failures.push(format!("{name}: unexpected served summary {summary:?}"));
    }
    if same_seed && !summary.contains(&format!("Fmax {:.0} MHz", p.fmax_mhz)) {
        failures.push(format!(
            "{name}: served Fmax differs from the local cold run: {summary:?}"
        ));
    }
    failures
}

fn fold_checks(
    out: &mut Outcome,
    jobs: &[Job],
    zoo: &[Prepared],
    primed: &[JobResult],
    served: &[Served],
) {
    for s in served {
        out.record(check_served(&jobs[s.job], zoo, primed, s));
    }
}

fn class_median_ms(jobs: &[Job], served: &[Served], class: Class) -> f64 {
    let ms: Vec<f64> = served
        .iter()
        .filter(|s| jobs[s.job].class == class)
        .map(|s| s.latency_s * 1e3)
        .collect();
    metrics::median(&ms)
}

/// One job through `client::{submit, try_result}` with a span per call —
/// the loop `submit_and_wait` runs, made visible.
fn replay_job(tr: &mut Tracer, addr: &str, spec: &JobSpec, polls: &mut Vec<f64>) -> Served {
    let t = Instant::now();
    let root = tr.open("op");
    let result = (|| {
        let id = tr.span("serve.submit", |_| client::submit(addr, spec))?;
        let mut n = 0.0;
        loop {
            n += 1.0;
            // The last fetch of a job is the one that carries the result.
            if let Some(r) = tr.span("serve.result_fetch", |_| client::try_result(addr, &id))? {
                polls.push(n);
                return Ok(r);
            }
            tr.span("serve.poll_sleep", |_| std::thread::sleep(POLL_INTERVAL));
        }
    })();
    tr.close(root);
    Served {
        job: root,
        latency_s: t.elapsed().as_secs_f64(),
        result: result.map_err(|e: pi_serve::RemoteError| err(e)),
    }
}

fn stat(stats: &serde_json::Value, group: &str, key: &str) -> f64 {
    match &stats[group][key] {
        serde_json::Value::U64(n) => *n as f64,
        _ => 0.0,
    }
}

pub(crate) fn run(b: &Bench, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mode = b.req.mode;
    // Set-up: cold-build the zoo into the daemon's directory, start the
    // daemon, prime one spec per network, generate the job list.
    let dir = b.scratch.fresh("serve");
    let zoo = prepare_zoo(&b.device, b.nets(zoo::zoo()), Some(&dir), out)?;
    let handle = pi_serve::serve(
        "127.0.0.1:0",
        ServerOptions {
            db_dir: Some(dir),
            workers: 1,
            queue_capacity: 64,
            ..ServerOptions::default()
        },
    )
    .map_err(err)?;
    let addr = handle.addr();
    let run = (|| {
        let specs: Vec<JobSpec> = zoo
            .iter()
            .map(|p| {
                let cfg = p.net.config();
                JobSpec::new(p.net.text.clone(), b.device.name(), cfg).with_format(p.net.format)
            })
            .collect();
        let mut primed = Vec::new();
        for (p, spec) in zoo.iter().zip(&specs) {
            let r = client::submit_and_wait(&addr, spec).map_err(err)?;
            out.record(check_summary(p, &r.summary, true));
            primed.push(r);
        }
        let mut gen = JobGen {
            rng: StdRng::seed_from_u64(b.req.seed),
            seed: b.req.seed,
            primed: &specs,
            serial: 0,
        };
        let jobs: Vec<Job> = (0..MAX_BLOCKS).flat_map(|_| gen.block()).collect();
        b.setup_done(out);

        let mut cursor = 0;
        if mode.untraced() {
            let cpu0 = metrics::cpu_seconds();
            let (served, makespan) = drive(&addr, &jobs, CLIENTS, b.req.seconds);
            let cpu = metrics::cpu_seconds() - cpu0;
            cursor = served.len();
            let latencies: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
            fold_end_to_end(out, &latencies, metrics::mean(&latencies), makespan, cpu);
            // Quality of the first block's hit and warm jobs: independent
            // of how many blocks the time allowed, and of the Fmax a cold
            // job's never-seen seed triple happens to draw.
            let summaries = served
                .iter()
                .filter(|s| s.job < BLOCK && jobs[s.job].class != Class::Cold)
                .filter_map(|s| s.result.as_ref().ok());
            let fmax: Vec<f64> = summaries
                .clone()
                .filter_map(|r| number_after(&r.summary, "Fmax "))
                .collect();
            let frame: Vec<f64> = summaries
                .filter_map(|r| number_after(&r.summary, "frame "))
                .collect();
            fold_quality(out, &fmax, &frame);
            fold_checks(out, &jobs, &zoo, &primed, &served);
        }
        if mode.traced() {
            traced_run(b, &addr, &jobs[cursor..], &zoo, &primed, tracer, out)?;
        }
        Ok(())
    })();
    handle.shutdown();
    handle.join();
    run
}

/// The traced run: one block under the two-client load for the per-class
/// latencies, one block through one client on the idle daemon as the
/// untraced reference, and one block replayed call by call with spans.
fn traced_run(
    b: &Bench,
    addr: &str,
    jobs: &[Job],
    zoo: &[Prepared],
    primed: &[JobResult],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    if jobs.len() < 3 * BLOCK {
        return Err("job list drained before the traced run".to_string());
    }
    let mut t = Traced::new(tracer);
    let mut v = Values::default();

    let (loaded, _) = drive(addr, &jobs[..BLOCK], CLIENTS, 0.0);
    fold_checks(out, jobs, zoo, primed, &loaded);
    v.set("serve.hit_ms", class_median_ms(jobs, &loaded, Class::Hit));
    v.set("serve.warm_ms", class_median_ms(jobs, &loaded, Class::Warm));
    v.set("serve.cold_ms", class_median_ms(jobs, &loaded, Class::Cold));

    let solo = &jobs[BLOCK..2 * BLOCK];
    let (reference, reference_s) = drive(addr, solo, 1, 0.0);
    fold_checks(out, solo, zoo, primed, &reference);
    t.reference_s = reference_s;

    let replayed = &jobs[2 * BLOCK..3 * BLOCK];
    let mut polls = Vec::new();
    let mut served = Vec::new();
    for (i, job) in replayed.iter().enumerate() {
        t.tr.set_op(format!(
            "serve_mix/{:?}/{}",
            job.class, zoo[job.net].net.name
        ));
        let mut s = replay_job(t.tr, addr, &job.spec, &mut polls);
        t.ops.push(s.job);
        s.job = i;
        served.push(s);
    }
    fold_checks(out, replayed, zoo, primed, &served);
    v.set(
        "serve.solo_warm_ms",
        class_median_ms(replayed, &served, Class::Warm),
    );
    v.set("serve.polls_per_job", metrics::mean(&polls));

    // Per-call medians of the replay's spans, and two probes outside it.
    let span_ms = |tr: &Tracer, name: &str, last_of_job: bool| -> f64 {
        let ms: Vec<f64> = tr
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.name == name
                    && (!last_of_job
                        || !tr.spans[i + 1..]
                            .iter()
                            .any(|n| n.parent == s.parent && n.name == name))
            })
            .map(|(_, s)| s.seconds() * 1e3)
            .collect();
        metrics::median(&ms)
    };
    v.set("serve.submit_ms", span_ms(t.tr, "serve.submit", false));
    v.set(
        "serve.result_fetch_ms",
        span_ms(t.tr, "serve.result_fetch", true),
    );
    t.tr.set_op("serve_mix/probe");
    let probe = t.tr.open("probe");
    for _ in 0..20 {
        t.tr.span("serve.healthz", |_| client::healthz(addr))
            .map_err(err)?;
    }
    for job in replayed {
        t.tr.span("serve.spec_encode", |_| {
            std::hint::black_box((job.spec.to_json(), job.spec.job_id()))
        });
    }
    t.tr.close(probe);
    v.set(
        "serve.healthz_rtt_ms",
        span_ms(t.tr, "serve.healthz", false),
    );
    v.set(
        "serve.spec_encode_us",
        span_ms(t.tr, "serve.spec_encode", false) * 1e3,
    );

    let stats: serde_json::Value =
        serde_json::from_str(&client::stats(addr).map_err(err)?).map_err(err)?;
    v.set("serve.coalesced", stat(&stats, "queue", "hits"));
    v.set("serve.rejected", stat(&stats, "queue", "rejected"));
    v.set("serve.cache_hits", stat(&stats, "db", "hits"));
    v.set("serve.cache_misses", stat(&stats, "db", "misses"));

    t.finish(out, b.device_build_ms);
    for (name, value) in v.0 {
        out.per_layer.set(name, value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_follows_zipf_and_sums() {
        let zipf: Vec<f64> = (1..=5).map(|k| 1.0 / f64::from(k).powf(1.1)).collect();
        assert_eq!(apportion(12, &zipf), vec![5, 3, 2, 1, 1]);
        assert_eq!(apportion(6, &zipf), vec![3, 1, 1, 1, 0]);
        assert_eq!(apportion(7, &[1.0]), vec![7]);
    }

    #[test]
    fn summary_numbers_parse() {
        let s = "assembled lenet5_assembled: Fmax 485 MHz, pipeline 123 ns, frame 0.042 ms, 5 stitched nets";
        assert_eq!(number_after(s, "Fmax "), Some(485.0));
        assert_eq!(number_after(s, "frame "), Some(0.042));
    }
}
