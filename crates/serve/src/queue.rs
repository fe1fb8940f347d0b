//! The bounded, coalescing job queue.
//!
//! Jobs are keyed by their deterministic [`JobSpec::job_id`], which gives
//! coalescing for free: a submission whose ID is already queued, running
//! or done never enqueues a second build — it attaches to the in-flight
//! job (or is served the stored result) and is counted as a hit. The
//! pending queue is bounded; a submission that would grow it past
//! capacity is rejected ([`Submit::Busy`] → HTTP 503) instead of letting
//! a burst of distinct jobs grow daemon memory without limit.
//!
//! Workers block on [`JobQueue::next_job`] (condvar, no spinning) and the
//! queue never loses a completion: results are stored as the exact JSON
//! string every later `/result` read returns byte-for-byte. Readers block
//! on [`JobQueue::wait_outcome`] (a second condvar, woken by every
//! completion and by [`JobQueue::stop`]), so a held `/result` answers the
//! moment its job finishes.

use crate::job::{JobSpec, JobStatus};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submit {
    /// New work: enqueued for a worker.
    Queued(String),
    /// Identical job already queued or running — attached to it.
    Coalesced(String),
    /// Identical job already finished — result available immediately.
    Done(String),
    /// The pending queue is at capacity.
    Busy,
}

/// Counters the `/stats` endpoint reports (its `queue` object).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct QueueStats {
    /// Total `/submit` requests accepted (including coalesced ones).
    pub submitted: u64,
    /// Jobs actually enqueued (unique work).
    pub unique: u64,
    /// Submissions that coalesced onto queued/running/finished jobs —
    /// the farm-level cache hits.
    pub hits: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs whose run failed.
    pub failed: u64,
    /// Jobs waiting for a worker right now.
    pub queued_now: u64,
    /// Jobs being built right now.
    pub running_now: u64,
}

struct JobEntry {
    spec: Option<JobSpec>,
    status: JobStatus,
    /// `Ok(result json)` or `Err(error message)`, set on completion.
    outcome: Option<Result<String, String>>,
    /// When the job was enqueued; [`JobQueue::next_job`] reports the wait.
    enqueued: Instant,
}

struct Inner {
    jobs: HashMap<String, JobEntry>,
    pending: VecDeque<String>,
    stats: QueueStats,
    stopped: bool,
}

/// See module docs.
pub struct JobQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Signalled on every completion and on stop; `wait_outcome` waits here.
    done: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                pending: VecDeque::new(),
                stats: QueueStats::default(),
                stopped: false,
            }),
            cond: Condvar::new(),
            done: Condvar::new(),
            capacity,
        }
    }

    /// Submit a (normalized) job spec.
    pub fn submit(&self, spec: JobSpec) -> Submit {
        let id = spec.job_id();
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(entry) = inner.jobs.get(&id) {
            let outcome = match entry.status {
                JobStatus::Done | JobStatus::Failed => Submit::Done(id),
                JobStatus::Queued | JobStatus::Running => Submit::Coalesced(id),
            };
            inner.stats.submitted += 1;
            inner.stats.hits += 1;
            return outcome;
        }
        if inner.pending.len() >= self.capacity {
            inner.stats.rejected += 1;
            return Submit::Busy;
        }
        inner.jobs.insert(
            id.clone(),
            JobEntry {
                spec: Some(spec),
                status: JobStatus::Queued,
                outcome: None,
                enqueued: Instant::now(),
            },
        );
        inner.pending.push_back(id.clone());
        inner.stats.submitted += 1;
        inner.stats.unique += 1;
        inner.stats.queued_now += 1;
        self.cond.notify_one();
        Submit::Queued(id)
    }

    /// Block until a job is available (marking it `Running`) or the queue
    /// is stopped (`None`). The `Duration` is how long the job waited in
    /// the queue.
    pub fn next_job(&self) -> Option<(String, JobSpec, Duration)> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(id) = inner.pending.pop_front() {
                inner.stats.queued_now -= 1;
                inner.stats.running_now += 1;
                let entry = inner.jobs.get_mut(&id).expect("pending job exists");
                entry.status = JobStatus::Running;
                let spec = entry.spec.take().expect("queued job keeps its spec");
                return Some((id, spec, entry.enqueued.elapsed()));
            }
            if inner.stopped {
                return None;
            }
            inner = self.cond.wait(inner).expect("queue lock");
        }
    }

    /// Record a finished job. `Ok` carries the result JSON served to every
    /// `/result` read; `Err` the failure message.
    pub fn complete(&self, id: &str, outcome: Result<String, String>) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.stats.running_now -= 1;
        match &outcome {
            Ok(_) => inner.stats.completed += 1,
            Err(_) => inner.stats.failed += 1,
        }
        let entry = inner.jobs.get_mut(id).expect("running job exists");
        entry.status = if outcome.is_ok() {
            JobStatus::Done
        } else {
            JobStatus::Failed
        };
        entry.outcome = Some(outcome);
        self.done.notify_all();
    }

    /// Lifecycle of a job, if known.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.inner
            .lock()
            .expect("queue lock")
            .jobs
            .get(id)
            .map(|e| e.status)
    }

    /// Stored outcome of a job, waiting up to `hold` for it to finish.
    /// `None` when the job is unknown (at once), still queued or running
    /// after `hold`, or the queue is stopped.
    pub fn wait_outcome(&self, id: &str, hold: Duration) -> Option<Result<String, String>> {
        let deadline = Instant::now() + hold;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            let outcome = &inner.jobs.get(id)?.outcome;
            if outcome.is_some() {
                return outcome.clone();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if inner.stopped || left.is_zero() {
                return None;
            }
            inner = self.done.wait_timeout(inner, left).expect("queue lock").0;
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue lock").stats.clone()
    }

    /// Stop accepting `next_job` waits; workers drain and exit. Held
    /// `wait_outcome` calls return at once.
    pub fn stop(&self) {
        self.inner.lock().expect("queue lock").stopped = true;
        self.cond.notify_all();
        self.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_flow::FlowConfig;

    fn spec(tag: &str) -> JobSpec {
        JobSpec::new(
            format!("network {tag}\ninput 1x8x8\nconv c kernel=3 out=2\n"),
            "test-part",
            FlowConfig::new(),
        )
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_build() {
        let q = JobQueue::new(8);
        let Submit::Queued(id) = q.submit(spec("a")) else {
            panic!("first submission queues")
        };
        assert_eq!(q.submit(spec("a")), Submit::Coalesced(id.clone()));
        assert_eq!(q.submit(spec("a")), Submit::Coalesced(id.clone()));
        let (got, _, _) = q.next_job().unwrap();
        assert_eq!(got, id);
        // Still coalesces while running.
        assert_eq!(q.submit(spec("a")), Submit::Coalesced(id.clone()));
        q.complete(&id, Ok("{\"r\":1}".to_string()));
        assert_eq!(q.submit(spec("a")), Submit::Done(id.clone()));
        let s = q.stats();
        assert_eq!(s.submitted, 5);
        assert_eq!(s.unique, 1);
        assert_eq!(s.hits, 4);
        assert_eq!(
            q.wait_outcome(&id, Duration::ZERO),
            Some(Ok("{\"r\":1}".to_string()))
        );
    }

    #[test]
    fn bounded_queue_rejects_bursts_without_losing_accepted_jobs() {
        let q = JobQueue::new(2);
        assert!(matches!(q.submit(spec("a")), Submit::Queued(_)));
        assert!(matches!(q.submit(spec("b")), Submit::Queued(_)));
        assert_eq!(q.submit(spec("c")), Submit::Busy);
        // Draining one slot readmits new work.
        let (id, _, _) = q.next_job().unwrap();
        assert!(matches!(q.submit(spec("c")), Submit::Queued(_)));
        q.complete(&id, Err("boom".to_string()));
        assert_eq!(q.status(&id), Some(JobStatus::Failed));
        assert_eq!(q.stats().rejected, 1);
    }

    /// A hold far longer than any test should take: a waiter that returns
    /// well inside it was woken, not timed out.
    const LONG_HOLD: Duration = Duration::from_secs(30);

    /// A queue with one job already handed to a worker.
    fn running(tag: &str) -> (std::sync::Arc<JobQueue>, String) {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let Submit::Queued(id) = q.submit(spec(tag)) else {
            panic!("first submission queues")
        };
        q.next_job().unwrap();
        (q, id)
    }

    /// `n` threads holding `wait_outcome(id, LONG_HOLD)`, each checking it
    /// was woken well inside the hold and returning what it read.
    fn waiters(
        q: &std::sync::Arc<JobQueue>,
        id: &str,
        n: usize,
    ) -> Vec<std::thread::JoinHandle<Option<Result<String, String>>>> {
        let handles = (0..n)
            .map(|_| {
                let (q, id) = (q.clone(), id.to_string());
                std::thread::spawn(move || {
                    let t = Instant::now();
                    let outcome = q.wait_outcome(&id, LONG_HOLD);
                    assert!(t.elapsed() < LONG_HOLD / 4, "held {:?}", t.elapsed());
                    outcome
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        handles
    }

    #[test]
    fn wait_outcome_returns_when_the_job_completes() {
        let (q, id) = running("a");
        let held = waiters(&q, &id, 1);
        q.complete(&id, Ok("{\"r\":1}".to_string()));
        for h in held {
            assert_eq!(h.join().unwrap(), Some(Ok("{\"r\":1}".to_string())));
        }
    }

    #[test]
    fn wait_outcome_gives_up_after_the_hold() {
        let (q, id) = running("a");
        let hold = Duration::from_millis(60);
        let t = Instant::now();
        assert_eq!(q.wait_outcome(&id, hold), None);
        assert!(t.elapsed() >= hold, "returned after {:?}", t.elapsed());
        assert_eq!(q.status(&id), Some(JobStatus::Running));
    }

    #[test]
    fn wait_outcome_does_not_wait_for_an_unknown_job() {
        let q = JobQueue::new(4);
        let t = Instant::now();
        assert_eq!(q.wait_outcome("ffff", LONG_HOLD), None);
        assert!(t.elapsed() < LONG_HOLD / 4, "held {:?}", t.elapsed());
    }

    #[test]
    fn stop_releases_held_readers() {
        let (q, id) = running("a");
        let held = waiters(&q, &id, 1);
        q.stop();
        for h in held {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn one_completion_wakes_every_reader_of_a_coalesced_job() {
        let (q, id) = running("a");
        assert_eq!(q.submit(spec("a")), Submit::Coalesced(id.clone()));
        assert_eq!(q.submit(spec("a")), Submit::Coalesced(id.clone()));
        let held = waiters(&q, &id, 3);
        q.complete(&id, Err("boom".to_string()));
        for h in held {
            assert_eq!(h.join().unwrap(), Some(Err("boom".to_string())));
        }
    }

    #[test]
    fn stop_releases_blocked_workers() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = q.clone();
        let worker = std::thread::spawn(move || q2.next_job());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.stop();
        assert!(worker.join().unwrap().is_none());
    }
}
