//! The job server proper: a fixed worker pool behind cost-model admission
//! control, hardened for crashes.
//!
//! Admission is decided **before** a job runs, from
//! [`JobRequest::predict`] alone: the service tracks the summed
//! [`CostEstimate::peak_bytes`] of every admitted-but-unfinished job and
//! rejects any submission that would push the total over
//! [`ServiceConfig::budget_bytes`] — with a typed
//! [`SubmitError::Rejected`] carrying both the job's predicted bytes and
//! the bytes currently available, so clients can resize or retry. Because
//! the peak-memory prediction is a hard bound (each lane's leases are
//! capped at `M + slack`; see `tests/predict_bounds.rs`), the invariant is
//! real: total *actual* peak memory of in-flight jobs never exceeds the
//! budget either. When the service has a configured I/O rate
//! ([`ServiceConfig::io_per_ms`]), the same prediction also prices *time*:
//! a request whose modeled ETA already exceeds its `deadline_ms` is
//! refused up front ([`SubmitError::DeadlineUnmeetable`]).
//!
//! `audit.jsonl` in the service root is a **write-ahead log**, not a
//! diary: the `accepted` event (carrying the whole request) is flushed
//! *before* the job becomes runnable, and every later transition appends
//! its own versioned [`AuditEvent`]. That
//! ordering is what makes [`SortService::recover`] sound — any job the
//! service ever owned is in the log, so replaying the log re-queues
//! exactly the accepted-but-unfinished jobs, restores terminal results,
//! and resumes the id counter. Replay tolerates a torn final line (the
//! crash tore it mid-write) and is idempotent over prefixes.
//!
//! Failures are classified ([`FailureKind`]): `ModelError::Io` is
//! transient weather and earns bounded-exponential-backoff retries up to
//! [`ServiceConfig::max_attempts`]; panics (caught per-attempt with
//! `catch_unwind`, so a crashing sorter cannot wedge the pool) and
//! validation errors are fatal. Jobs whose deadline lapses while queued
//! expire ([`JobState::Expired`]) without running. [`SortService::drain`]
//! is the graceful shutdown; [`SortService::kill`] is the simulated crash
//! the recovery tests lean on — it drops queued and running work on the
//! floor exactly like a power cut.

use crate::audit::{replay, AuditError, AuditEvent, ReplayOutcome};
use crate::job::{FailureKind, JobId, JobRequest, JobState, JobStatus};
use asym_core::sort::{
    self, CheckpointManifest, Checkpointer, CostEstimate, SortOutcome, SortSpec, SpecError,
};
use asym_model::json::JsonObj;
use asym_model::{ModelError, Record};
use em_sim::{Backend, FaultSpec};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How to size a [`SortService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Fixed worker-pool size (threads running sorts).
    pub workers: usize,
    /// Admission budget: max summed predicted peak bytes in flight.
    pub budget_bytes: u64,
    /// Service root: per-job file-backend directories and `audit.jsonl`
    /// live here. Created if absent.
    pub root_dir: PathBuf,
    /// Attempt budget per job: a retryable failure re-queues the job until
    /// this many attempts are spent, then it fails terminally. Minimum 1.
    pub max_attempts: u32,
    /// First retry backoff; attempt `n` waits `base << (n-1)`, capped.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_ms: u64,
    /// Modeled I/O units the service retires per millisecond — the
    /// exchange rate that turns [`CostEstimate::io_cost`] into an ETA for
    /// deadline admission. `0` (the default) disables the ETA check;
    /// queue expiry still applies.
    pub io_per_ms: u64,
    /// Second admission axis: max summed predicted I/O cost
    /// (`reads + ω·writes`, [`CostEstimate::io_cost`]) in flight. A
    /// submission over this line is a typed [`SubmitError::RejectedIo`],
    /// distinct from the memory rejection. `0` (the default): unlimited.
    pub io_budget: u64,
    /// Aging rate of the ETA-priority queue: every millisecond a job
    /// waits discounts its effective cost by this many modeled I/O units,
    /// so bulk jobs cannot starve behind a stream of small ones. `0`
    /// disables aging (pure shortest-ETA-first).
    pub aging_io_per_ms: u64,
}

impl ServiceConfig {
    /// A config with the fault-tolerance knobs at their defaults
    /// (3 attempts, 10 ms base / 1 s cap backoff, no ETA check).
    pub fn new(workers: usize, budget_bytes: u64, root_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            workers,
            budget_bytes,
            root_dir: root_dir.into(),
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            io_per_ms: 0,
            io_budget: 0,
            aging_io_per_ms: 16,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting this job would exceed the memory budget. Both sides of
    /// the comparison are returned so the client can resize or wait.
    Rejected {
        /// The job's predicted peak bytes ([`CostEstimate::peak_bytes`]).
        predicted: u64,
        /// Budget minus bytes currently in flight.
        available: u64,
    },
    /// Admitting this job would exceed the I/O-cost budget
    /// (`reads + ω·writes`) — the second admission axis. Typed apart from
    /// [`SubmitError::Rejected`] so clients know *which* budget refused.
    RejectedIo {
        /// The job's predicted I/O cost ([`CostEstimate::io_cost`]).
        predicted: u64,
        /// I/O budget minus cost currently in flight.
        available: u64,
    },
    /// The modeled ETA on an otherwise idle service already exceeds the
    /// request's deadline; running it would only waste the queue's time.
    DeadlineUnmeetable {
        /// Modeled milliseconds to run the job ([`CostEstimate::io_cost`]
        /// over [`ServiceConfig::io_per_ms`]).
        eta_ms: u64,
        /// What the request asked for.
        deadline_ms: u64,
    },
    /// The service is draining and takes no new work.
    Draining,
}

impl SubmitError {
    /// Structured error payload (`error` is `"rejected"`,
    /// `"deadline_unmeetable"`, or `"draining"`).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        match self {
            SubmitError::Rejected {
                predicted,
                available,
            } => {
                o.str("error", "rejected")
                    .u64("predicted", *predicted)
                    .u64("available", *available)
                    .str(
                        "message",
                        "predicted peak memory exceeds the available budget",
                    );
            }
            SubmitError::RejectedIo {
                predicted,
                available,
            } => {
                o.str("error", "rejected_io")
                    .u64("predicted", *predicted)
                    .u64("available", *available)
                    .str(
                        "message",
                        "predicted I/O cost exceeds the available I/O budget",
                    );
            }
            SubmitError::DeadlineUnmeetable {
                eta_ms,
                deadline_ms,
            } => {
                o.str("error", "deadline_unmeetable")
                    .u64("eta_ms", *eta_ms)
                    .u64("deadline_ms", *deadline_ms)
                    .str("message", "modeled ETA exceeds the requested deadline");
            }
            SubmitError::Draining => {
                o.str("error", "draining")
                    .str("message", "service is draining; resubmit elsewhere");
            }
        }
        o.finish()
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected {
                predicted,
                available,
            } => write!(
                f,
                "rejected: predicted peak {predicted} B exceeds available {available} B"
            ),
            SubmitError::RejectedIo {
                predicted,
                available,
            } => write!(
                f,
                "rejected: predicted I/O cost {predicted} exceeds available {available}"
            ),
            SubmitError::DeadlineUnmeetable {
                eta_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline unmeetable: modeled ETA {eta_ms} ms exceeds deadline {deadline_ms} ms"
            ),
            SubmitError::Draining => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`SortService::recover`] could not bring the service up.
#[derive(Debug)]
pub enum RecoverError {
    /// The audit log (or service root) could not be read or opened.
    Io(std::io::Error),
    /// The audit log is corrupt or from an unknown schema version.
    Audit(AuditError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O: {e}"),
            RecoverError::Audit(e) => write!(f, "recovery replay: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> RecoverError {
        RecoverError::Io(e)
    }
}

/// What [`SortService::recover`] found in the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs that were accepted but not terminal: re-queued to run again.
    pub requeued: u64,
    /// Terminal jobs restored with their recorded outcomes.
    pub restored: u64,
    /// Where the id counter resumed.
    pub next_id: JobId,
    /// The log's final line was torn by the crash (tolerated).
    pub torn_tail: bool,
}

/// Point-in-time service counters (see [`SortService::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted over the service lifetime.
    pub submitted: u64,
    /// Submissions turned away by admission control (budget or deadline).
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed terminally.
    pub failed: u64,
    /// Jobs whose deadline lapsed while queued.
    pub expired: u64,
    /// Retryable failures that re-queued a job.
    pub retried: u64,
    /// Jobs admitted but not yet picked up by a worker.
    pub queued: u64,
    /// Jobs parked in retry backoff.
    pub delayed: u64,
    /// Jobs currently running.
    pub active: u64,
    /// Summed predicted peak bytes of admitted-but-unfinished jobs.
    pub in_flight_bytes: u64,
    /// High-water mark of `in_flight_bytes` — the number the budget
    /// invariant is checked against.
    pub peak_in_flight_bytes: u64,
    /// The configured admission budget.
    pub budget_bytes: u64,
    /// Summed predicted I/O cost of admitted-but-unfinished jobs.
    pub in_flight_io: u64,
    /// High-water mark of `in_flight_io`.
    pub peak_in_flight_io: u64,
    /// The configured I/O-cost budget (0: unlimited).
    pub io_budget: u64,
    /// Checkpoint manifests recorded over the service lifetime.
    pub checkpoints: u64,
}

impl ServiceStats {
    /// Render as JSON.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("submitted", self.submitted)
            .u64("rejected", self.rejected)
            .u64("completed", self.completed)
            .u64("failed", self.failed)
            .u64("expired", self.expired)
            .u64("retried", self.retried)
            .u64("queued", self.queued)
            .u64("delayed", self.delayed)
            .u64("active", self.active)
            .u64("in_flight_bytes", self.in_flight_bytes)
            .u64("peak_in_flight_bytes", self.peak_in_flight_bytes)
            .u64("budget_bytes", self.budget_bytes)
            .u64("in_flight_io", self.in_flight_io)
            .u64("peak_in_flight_io", self.peak_in_flight_io)
            .u64("io_budget", self.io_budget)
            .u64("checkpoints", self.checkpoints);
        o.finish()
    }
}

struct JobEntry {
    request: JobRequest,
    predicted: CostEstimate,
    state: JobState,
    attempts: u32,
    /// Queue-expiry deadline, armed at admission from `deadline_ms`.
    expires_at: Option<Instant>,
    /// The result once completed (no records for a stats-only job).
    outcome: Option<Arc<SortOutcome>>,
    error: Option<String>,
    failure: Option<FailureKind>,
    /// When the job entered the queue — the aging clock of the
    /// ETA-priority scheduler.
    enqueued_at: Instant,
    /// Latest checkpoint manifest for a staged job: the next attempt
    /// resumes from it, and the scheduler scales remaining work by its
    /// phases left.
    manifest: Option<CheckpointManifest>,
    /// Attempt count at the moment of the last phase progress: the retry
    /// clock's epoch. Backoff and fault decay key off
    /// `attempts − attempts_at_progress`, so an attempt that completed a
    /// phase is never re-billed as a failure.
    attempts_at_progress: u32,
}

#[derive(Default)]
struct State {
    next_id: JobId,
    queue: VecDeque<JobId>,
    /// Retry parking lot: jobs waiting out their backoff, with due times.
    delayed: Vec<(Instant, JobId)>,
    jobs: HashMap<JobId, JobEntry>,
    in_flight_bytes: u64,
    peak_in_flight_bytes: u64,
    in_flight_io: u64,
    peak_in_flight_io: u64,
    checkpoints: u64,
    /// Admin hold: workers leave the queue untouched until released —
    /// tests use this to line up a deterministic schedule.
    held: bool,
    active: u64,
    draining: bool,
    drained: bool,
    /// Simulated crash: workers bail, drain no-ops, audit is dead.
    killed: bool,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    retried: u64,
}

/// Where audit events go. `Dead` models the post-crash world: writes
/// vanish, exactly as they would have after the real process died.
enum AuditSink {
    File(std::fs::File),
    Dead,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Signals workers: queue non-empty, a delayed job may be due, or
    /// draining.
    work_ready: Condvar,
    /// Signals waiters: some job reached a terminal state.
    job_done: Condvar,
    audit: Mutex<AuditSink>,
}

impl Inner {
    /// Append one event, flushed — the WAL write. Lock order is always
    /// state → audit (or audit alone); never take state while holding
    /// audit.
    fn audit_event(&self, ev: &AuditEvent) {
        self.audit_line(&ev.to_json());
    }

    /// Append one already-rendered event line (see
    /// [`audit_event`](Self::audit_event)).
    fn audit_line(&self, line: &str) {
        let mut sink = self.audit.lock().expect("audit log");
        if let AuditSink::File(f) = &mut *sink {
            // Audit faults must not take down the data path; events are
            // best-effort once the file opened.
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

/// The in-process sort server. See the [module docs](self) for semantics;
/// [`crate::http`] puts an HTTP/1.1 front door on it.
pub struct SortService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SortService {
    /// Start fresh: empty state, append to (or create) the audit log.
    /// Fails only on I/O (unwritable root directory).
    pub fn start(cfg: ServiceConfig) -> std::io::Result<SortService> {
        SortService::boot(cfg, State::default(), None)
    }

    /// Start by replaying `audit.jsonl` in the config's root: terminal
    /// jobs come back with their recorded outcomes, accepted-but-
    /// unfinished jobs re-queue (in id order, with a fresh deadline
    /// window), and the id counter resumes past every id ever issued.
    /// Replay is idempotent over any log prefix — recovering from a crash
    /// *during recovery* replays the same prefix plus whatever the first
    /// recovery appended, and lands in the same state. A missing log is an
    /// empty service, not an error.
    pub fn recover(cfg: ServiceConfig) -> Result<(SortService, RecoveryReport), RecoverError> {
        let text = match std::fs::read_to_string(cfg.root_dir.join("audit.jsonl")) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(RecoverError::Io(e)),
        };
        let rep = replay(&text).map_err(RecoverError::Audit)?;
        if rep.torn_tail {
            // Truncate the torn final line before reopening for append, or
            // the next event would glue onto the fragment and corrupt an
            // *interior* line. Dropping an unparsable suffix is idempotent:
            // a crash during this rewrite just leaves a shorter prefix.
            let lines: Vec<&str> = text.lines().collect();
            let mut keep = lines[..lines.len() - 1].join("\n");
            if !keep.is_empty() {
                keep.push('\n');
            }
            std::fs::write(cfg.root_dir.join("audit.jsonl"), keep)?;
        }

        let mut st = State {
            next_id: rep.next_id,
            rejected: rep.rejected,
            retried: rep.retries,
            ..State::default()
        };
        let mut report = RecoveryReport {
            next_id: rep.next_id,
            torn_tail: rep.torn_tail,
            ..RecoveryReport::default()
        };
        let now = Instant::now();
        for (id, job) in rep.jobs {
            st.submitted += 1;
            let predicted = job.request.predict();
            // A recovered staged job carries its latest durable manifest:
            // the next attempt resumes from it instead of restarting, and
            // its retry clock restarts at the manifest's progress epoch.
            let mut entry = JobEntry {
                predicted,
                state: JobState::Queued,
                attempts: job.attempts,
                expires_at: None,
                outcome: None,
                error: None,
                failure: None,
                request: job.request,
                enqueued_at: now,
                manifest: job.manifest,
                attempts_at_progress: job.attempts_at_checkpoint,
            };
            match job.outcome {
                ReplayOutcome::Pending => {
                    // The deadline clock restarts at recovery: the log has
                    // no wall-clock anchor, and punishing a job for the
                    // outage would expire everything.
                    entry.expires_at = entry
                        .request
                        .deadline_ms
                        .map(|ms| now + Duration::from_millis(ms));
                    st.in_flight_bytes += predicted.peak_bytes();
                    st.in_flight_io += predicted.io_cost();
                    st.queue.push_back(id);
                    report.requeued += 1;
                }
                ReplayOutcome::Completed { outcome } => {
                    entry.state = JobState::Completed;
                    entry.outcome = Some(outcome);
                    st.completed += 1;
                    report.restored += 1;
                }
                ReplayOutcome::Failed { kind, error } => {
                    entry.state = JobState::Failed;
                    entry.failure = Some(kind);
                    entry.error = Some(error);
                    st.failed += 1;
                    report.restored += 1;
                }
                ReplayOutcome::Expired => {
                    entry.state = JobState::Expired;
                    entry.error = Some("deadline expired while queued".into());
                    st.expired += 1;
                    report.restored += 1;
                }
            }
            st.jobs.insert(id, entry);
        }
        st.peak_in_flight_bytes = st.in_flight_bytes;
        st.peak_in_flight_io = st.in_flight_io;

        let service = SortService::boot(cfg, st, Some(report))?;
        Ok((service, report))
    }

    fn boot(
        cfg: ServiceConfig,
        state: State,
        recovered: Option<RecoveryReport>,
    ) -> std::io::Result<SortService> {
        std::fs::create_dir_all(&cfg.root_dir)?;
        let audit = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(cfg.root_dir.join("audit.jsonl"))?;
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            audit: Mutex::new(AuditSink::File(audit)),
        });
        if let Some(r) = recovered {
            inner.audit_event(&AuditEvent::Recovered {
                requeued: r.requeued,
                restored: r.restored,
                next_id: r.next_id,
            });
        }
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sort-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(SortService {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Admit or reject one job. Admission holds the job's predicted peak
    /// bytes against the budget until the job finishes, and — this is the
    /// WAL discipline — flushes the `accepted` audit event *before* the
    /// job becomes visible to workers.
    pub fn submit(&self, request: JobRequest) -> Result<JobId, SubmitError> {
        let predicted = request.predict();
        let need = predicted.peak_bytes();
        let id = {
            let mut st = self.inner.state.lock().expect("service state");
            // A killed service must refuse work: its audit sink is dead, so
            // an acceptance here would be a job the log never heard of.
            if st.draining || st.killed {
                return Err(SubmitError::Draining);
            }
            expire_overdue(&self.inner, &mut st);
            let available = self
                .inner
                .cfg
                .budget_bytes
                .saturating_sub(st.in_flight_bytes);
            if need > available {
                st.rejected += 1;
                drop(st);
                self.inner.audit_event(&AuditEvent::RejectedBudget {
                    predicted: need,
                    available,
                });
                return Err(SubmitError::Rejected {
                    predicted: need,
                    available,
                });
            }
            let need_io = predicted.io_cost();
            if self.inner.cfg.io_budget > 0 {
                let available = self.inner.cfg.io_budget.saturating_sub(st.in_flight_io);
                if need_io > available {
                    st.rejected += 1;
                    drop(st);
                    self.inner.audit_event(&AuditEvent::RejectedIo {
                        predicted: need_io,
                        available,
                    });
                    return Err(SubmitError::RejectedIo {
                        predicted: need_io,
                        available,
                    });
                }
            }
            if let (Some(deadline_ms), rate) = (request.deadline_ms, self.inner.cfg.io_per_ms) {
                if rate > 0 {
                    let eta_ms = predicted.io_cost().div_ceil(rate);
                    if eta_ms > deadline_ms {
                        st.rejected += 1;
                        drop(st);
                        self.inner.audit_event(&AuditEvent::RejectedDeadline {
                            eta_ms,
                            deadline_ms,
                        });
                        return Err(SubmitError::DeadlineUnmeetable {
                            eta_ms,
                            deadline_ms,
                        });
                    }
                }
            }
            let id = st.next_id;
            st.next_id += 1;
            st.submitted += 1;
            st.in_flight_bytes += need;
            st.peak_in_flight_bytes = st.peak_in_flight_bytes.max(st.in_flight_bytes);
            st.in_flight_io += need_io;
            st.peak_in_flight_io = st.peak_in_flight_io.max(st.in_flight_io);
            st.jobs.insert(
                id,
                JobEntry {
                    request: request.clone(),
                    predicted,
                    state: JobState::Queued,
                    attempts: 0,
                    expires_at: request
                        .deadline_ms
                        .map(|ms| Instant::now() + Duration::from_millis(ms)),
                    outcome: None,
                    error: None,
                    failure: None,
                    enqueued_at: Instant::now(),
                    manifest: None,
                    attempts_at_progress: 0,
                },
            );
            // WAL ordering: the accepted record must be on disk before the
            // job can run, or a crash could complete work the log never
            // heard of. The audit lock nests inside the state lock here;
            // that is the one sanctioned nesting (state → audit).
            self.inner.audit_event(&AuditEvent::Accepted {
                id,
                request,
                predicted_bytes: need,
            });
            st.queue.push_back(id);
            id
        };
        self.inner.work_ready.notify_one();
        Ok(id)
    }

    /// A snapshot of one job, or `None` for an unknown id. Observing a
    /// job also sweeps queue expiry, so a lapsed deadline is visible on
    /// the very next status call even on an idle service.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().expect("service state");
        expire_overdue(&self.inner, &mut st);
        st.jobs.get(&id).map(|e| snapshot(id, e))
    }

    /// Block until job `id` reaches a terminal state; returns its final
    /// status (`None` for an unknown id).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        self.wait_until(id, None)
    }

    /// Like [`wait`](SortService::wait), but gives up after `timeout`. On
    /// timeout the job's *current* (non-terminal) snapshot is returned —
    /// callers distinguish by [`JobState::is_terminal`].
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        self.wait_until(id, Some(Instant::now() + timeout))
    }

    fn wait_until(&self, id: JobId, deadline: Option<Instant>) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().expect("service state");
        loop {
            expire_overdue(&self.inner, &mut st);
            let e = st.jobs.get(&id)?;
            if e.state.is_terminal() {
                return Some(snapshot(id, e));
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| d <= now) {
                return Some(snapshot(id, e));
            }
            // Short bounded steps rather than one long wait: expiry has no
            // dedicated timer thread, so waiters double as the sweep.
            let step = deadline
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let (guard, _) = self
                .inner
                .job_done
                .wait_timeout(st, step)
                .expect("service state");
            st = guard;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        let mut st = self.inner.state.lock().expect("service state");
        expire_overdue(&self.inner, &mut st);
        ServiceStats {
            submitted: st.submitted,
            rejected: st.rejected,
            completed: st.completed,
            failed: st.failed,
            expired: st.expired,
            retried: st.retried,
            queued: st.queue.len() as u64,
            delayed: st.delayed.len() as u64,
            active: st.active,
            in_flight_bytes: st.in_flight_bytes,
            peak_in_flight_bytes: st.peak_in_flight_bytes,
            budget_bytes: self.inner.cfg.budget_bytes,
            in_flight_io: st.in_flight_io,
            peak_in_flight_io: st.peak_in_flight_io,
            io_budget: self.inner.cfg.io_budget,
            checkpoints: st.checkpoints,
        }
    }

    /// Admin hold: workers stop picking up queued (and parked) jobs until
    /// [`release`](SortService::release). Running jobs finish. Tests use
    /// the pair to line up a queue and observe the scheduler's order
    /// deterministically; [`drain`](SortService::drain) clears a hold so a
    /// held service still shuts down.
    pub fn hold(&self) {
        self.inner.state.lock().expect("service state").held = true;
    }

    /// Lift an admin [`hold`](SortService::hold).
    pub fn release(&self) {
        self.inner.state.lock().expect("service state").held = false;
        self.inner.work_ready.notify_all();
    }

    /// Graceful shutdown: refuse new submissions, let every admitted job
    /// finish (including parked retries), join the workers, and flush the
    /// audit log. Idempotent; a no-op after [`kill`](SortService::kill).
    pub fn drain(&self) {
        {
            let mut st = self.inner.state.lock().expect("service state");
            if st.killed {
                return;
            }
            st.draining = true;
            // A hold must not outlive a drain: the whole point of drain is
            // that admitted work finishes.
            st.held = false;
            self.inner.work_ready.notify_all();
            while !st.queue.is_empty() || !st.delayed.is_empty() || st.active > 0 {
                expire_overdue(&self.inner, &mut st);
                if st.killed {
                    return;
                }
                let (guard, _) = self
                    .inner
                    .job_done
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("service state");
                st = guard;
            }
            if st.drained {
                return;
            }
            st.drained = true;
        }
        self.join_workers();
        self.inner.audit_event(&AuditEvent::Drained);
        if let AuditSink::File(f) = &mut *self.inner.audit.lock().expect("audit log") {
            let _ = f.flush();
        }
    }

    /// Simulated crash, for recovery and chaos tests: flush what the log
    /// already has, then make every *later* audit write vanish (as it
    /// would have in a real crash), abandon queued and running jobs, and
    /// join the workers. The on-disk log is left exactly as a power cut
    /// would leave it; [`recover`](SortService::recover) picks up from
    /// there.
    pub fn kill(&self) {
        {
            let mut sink = self.inner.audit.lock().expect("audit log");
            if let AuditSink::File(f) = &mut *sink {
                let _ = f.flush();
            }
            *sink = AuditSink::Dead;
        }
        {
            let mut st = self.inner.state.lock().expect("service state");
            st.killed = true;
        }
        self.inner.work_ready.notify_all();
        self.inner.job_done.notify_all();
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.drain();
    }
}

fn snapshot(id: JobId, e: &JobEntry) -> JobStatus {
    JobStatus {
        id,
        state: e.state,
        predicted: e.predicted,
        attempts: e.attempts,
        outcome: e.outcome.clone(),
        records: e.request.record_count(),
        include_output: e.request.include_output,
        error: e.error.clone(),
        failure: e.failure,
    }
}

/// Expire every queued job whose deadline has lapsed. Called under the
/// state lock from every observer path and from the worker loop, so a
/// dedicated timer thread is unnecessary. Running jobs are never expired
/// — they already consumed a worker; killing them mid-sort buys nothing.
fn expire_overdue(inner: &Inner, st: &mut State) {
    let now = Instant::now();
    let overdue: Vec<JobId> = st
        .jobs
        .iter()
        .filter(|(_, e)| e.state == JobState::Queued && e.expires_at.is_some_and(|t| t <= now))
        .map(|(&id, _)| id)
        .collect();
    if overdue.is_empty() {
        return;
    }
    for &id in &overdue {
        st.queue.retain(|&q| q != id);
        st.delayed.retain(|&(_, d)| d != id);
        let e = st.jobs.get_mut(&id).expect("overdue job exists");
        e.state = JobState::Expired;
        e.error = Some("deadline expired while queued".into());
        st.in_flight_bytes -= e.predicted.peak_bytes();
        st.in_flight_io -= e.predicted.io_cost();
        st.expired += 1;
        inner.audit_event(&AuditEvent::Expired { id });
    }
    inner.job_done.notify_all();
}

/// A classified attempt failure.
struct JobFailure {
    kind: FailureKind,
    message: String,
}

/// The ETA-priority pick: the queued job with the lowest *effective*
/// cost — modeled I/O still owed (scaled by phases left, for checkpointed
/// jobs whose completed phases are already paid for) minus an aging
/// credit of [`ServiceConfig::aging_io_per_ms`] per millisecond waited.
/// Small urgent jobs jump bulk ones; the aging term guarantees every
/// job's effective cost eventually goes lowest, so nothing starves. Ties
/// break to the lower id (submission order). Returns the queue index.
fn pick_next(st: &State, cfg: &ServiceConfig, now: Instant) -> Option<usize> {
    let mut best: Option<(i128, JobId, usize)> = None;
    for (pos, &id) in st.queue.iter().enumerate() {
        let Some(e) = st.jobs.get(&id) else { continue };
        let io = e.predicted.io_cost();
        let remaining = match &e.manifest {
            Some(m) if m.total_phases > 0 => {
                let left = m.total_phases - m.phases_done.min(m.total_phases);
                (io as u128 * left as u128 / m.total_phases as u128) as u64
            }
            _ => io,
        };
        let age_ms = now.saturating_duration_since(e.enqueued_at).as_millis() as i128;
        let effective = remaining as i128 - age_ms * cfg.aging_io_per_ms as i128;
        if best.is_none_or(|(be, bid, _)| (effective, id) < (be, bid)) {
            best = Some((effective, id, pos));
        }
    }
    best.map(|(_, _, pos)| pos)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (id, request, attempt, failed_since_progress, manifest) = {
            let mut st = inner.state.lock().expect("service state");
            let id = loop {
                if st.killed {
                    return;
                }
                expire_overdue(inner, &mut st);
                let now = Instant::now();
                if !st.held {
                    if let Some(pos) = pick_next(&st, &inner.cfg, now) {
                        break st.queue.remove(pos).expect("picked index in range");
                    }
                    if let Some(i) = st.delayed.iter().position(|&(due, _)| due <= now) {
                        let (_, id) = st.delayed.swap_remove(i);
                        break id;
                    }
                }
                if st.draining && st.queue.is_empty() && st.delayed.is_empty() {
                    return;
                }
                // Sleep until the earliest reason to wake: a due retry, a
                // queued job's expiry, or (bounded) a notification.
                let mut step = Duration::from_millis(500);
                for &(due, _) in &st.delayed {
                    step = step.min(due.saturating_duration_since(now));
                }
                for e in st.jobs.values() {
                    if e.state == JobState::Queued {
                        if let Some(t) = e.expires_at {
                            step = step.min(t.saturating_duration_since(now));
                        }
                    }
                }
                let (guard, _) = inner
                    .work_ready
                    .wait_timeout(st, step.max(Duration::from_millis(1)))
                    .expect("service state");
                st = guard;
            };
            st.active += 1;
            let entry = st.jobs.get_mut(&id).expect("queued job exists");
            entry.state = JobState::Running;
            entry.attempts += 1;
            let attempt = entry.attempts;
            // The fault-decay clock counts only attempts since the last
            // phase progress: an attempt that checkpointed a phase reset
            // the storm's schedule along with the retry clock.
            let failed_since_progress = (attempt - 1).saturating_sub(entry.attempts_at_progress);
            let manifest = entry.manifest.clone();
            inner.audit_event(&AuditEvent::Started { id, attempt });
            (
                id,
                entry.request.clone(),
                attempt,
                failed_since_progress,
                manifest,
            )
        };

        // The sort runs outside the lock, fenced by catch_unwind: a
        // panicking sorter becomes a typed failure, not a dead worker.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_job(
                inner,
                id,
                &request,
                failed_since_progress,
                manifest.as_ref(),
            )
        }))
        .unwrap_or_else(|payload| {
            // Store paths with no `Result` channel (block appends,
            // cursor reads) unwind injected device faults as a typed
            // payload — those are transient I/O, not bugs, and retry.
            if let Some(io) = payload.downcast_ref::<em_sim::StoreIoPanic>() {
                return Err(JobFailure {
                    kind: FailureKind::Io,
                    message: format!("store I/O: {io}"),
                });
            }
            Err(JobFailure {
                kind: FailureKind::Panic,
                message: panic_message(payload.as_ref()),
            })
        });
        // The `completed` line is rendered here, outside the state lock. A
        // stats-only job then keeps no records: the table renders its
        // `output_len` from the request.
        let result = result.map(|mut outcome| {
            if !request.include_output {
                outcome.output = Vec::new();
            }
            let outcome = Arc::new(outcome);
            let line = AuditEvent::Completed {
                id,
                outcome: Arc::clone(&outcome),
                output_len: request.record_count(),
                include_output: request.include_output,
            }
            .to_json();
            (outcome, line)
        });

        {
            let mut st = inner.state.lock().expect("service state");
            let max_attempts = inner.cfg.max_attempts.max(1);
            let entry = st.jobs.get_mut(&id).expect("running job exists");
            let need = entry.predicted.peak_bytes();
            let need_io = entry.predicted.io_cost();
            // The retry budget is per progress epoch: attempts that
            // completed a phase (this one included — the checkpointer may
            // have advanced the epoch while we ran) moved the epoch
            // forward and are not billed against `max_attempts`.
            let effective_attempts = attempt.saturating_sub(entry.attempts_at_progress);
            enum Done {
                Completed,
                Retried(u64),
                Failed,
            }
            let done = match result {
                Ok((outcome, line)) => {
                    entry.state = JobState::Completed;
                    entry.outcome = Some(outcome);
                    entry.error = None;
                    inner.audit_line(&line);
                    Done::Completed
                }
                Err(f) if f.kind.retryable() && effective_attempts < max_attempts && !st.killed => {
                    let entry = st.jobs.get_mut(&id).expect("running job exists");
                    entry.state = JobState::Queued;
                    entry.error = Some(f.message.clone());
                    let shift = effective_attempts.saturating_sub(1).min(20);
                    let backoff_ms = inner
                        .cfg
                        .backoff_base_ms
                        .saturating_mul(1u64 << shift)
                        .min(inner.cfg.backoff_cap_ms);
                    inner.audit_event(&AuditEvent::Retried {
                        id,
                        attempt,
                        backoff_ms,
                        error: f.message,
                    });
                    Done::Retried(backoff_ms)
                }
                Err(f) => {
                    let entry = st.jobs.get_mut(&id).expect("running job exists");
                    entry.state = JobState::Failed;
                    entry.failure = Some(f.kind);
                    entry.error = Some(f.message.clone());
                    inner.audit_event(&AuditEvent::Failed {
                        id,
                        kind: f.kind,
                        error: f.message,
                    });
                    Done::Failed
                }
            };
            st.active -= 1;
            match done {
                Done::Completed => {
                    st.completed += 1;
                    st.in_flight_bytes -= need;
                    st.in_flight_io -= need_io;
                }
                Done::Retried(backoff_ms) => {
                    // The budgets stay held: the job is still the
                    // service's responsibility, just parked.
                    st.retried += 1;
                    st.delayed
                        .push((Instant::now() + Duration::from_millis(backoff_ms), id));
                }
                Done::Failed => {
                    st.failed += 1;
                    st.in_flight_bytes -= need;
                    st.in_flight_io -= need_io;
                }
            }
        }
        inner.job_done.notify_all();
        inner.work_ready.notify_all();
    }
}

/// The [`Checkpointer`] the worker hands a staged job: each manifest is
/// appended to the audit WAL *first* (durability), then credited to the
/// job's in-memory entry — progress only ever advances, and advancing it
/// moves the retry clock's epoch so the attempt that made progress is
/// never re-billed. The two locks are taken strictly in sequence (audit,
/// then state), never nested, per the service's lock order.
struct ServiceCheckpointer {
    inner: Arc<Inner>,
    id: JobId,
}

impl Checkpointer for ServiceCheckpointer {
    fn save(&mut self, manifest: &CheckpointManifest) -> asym_model::Result<()> {
        self.inner.audit_event(&AuditEvent::Checkpointed {
            id: self.id,
            manifest: manifest.clone(),
        });
        let mut st = self.inner.state.lock().expect("service state");
        st.checkpoints += 1;
        if let Some(e) = st.jobs.get_mut(&self.id) {
            let done = e.manifest.as_ref().map_or(0, |m| m.phases_done);
            if manifest.phases_done > done {
                e.manifest = Some(manifest.clone());
                e.attempts_at_progress = e.attempts;
            }
        }
        Ok(())
    }
}

/// Run one attempt: materialize the input (inline payload, or regenerated
/// from the named workload), point file-backed storage and
/// the fault schedule at this attempt, and sort. Staged
/// (checkpointed) jobs resume from their latest durable manifest when it
/// still validates, and fall back to a fresh staged run otherwise.
/// Failures come back classified.
fn run_job(
    inner: &Arc<Inner>,
    id: JobId,
    request: &JobRequest,
    failed_since_progress: u32,
    manifest: Option<&CheckpointManifest>,
) -> Result<SortOutcome, JobFailure> {
    let dir = if request.spec.backend() == Backend::File {
        let dir = inner.cfg.root_dir.join(format!("job-{id}"));
        // A transient filesystem hiccup here is as retryable as one
        // inside the sort.
        std::fs::create_dir_all(&dir).map_err(|e| JobFailure {
            kind: FailureKind::Io,
            message: format!("job dir: {e}"),
        })?;
        Some(dir)
    } else {
        None
    };
    // Each retry decays the injected-fault schedule (`for_attempt`): the
    // storm abates while the backoff waits it out, so chaos runs
    // terminate by construction. The clock is attempts *since the last
    // checkpoint progress*, not absolute attempts — a staged job that
    // keeps finishing phases keeps its storm (and its backoff) fresh
    // rather than being billed for attempts that worked.
    let fault = request
        .spec
        .fault()
        .map(|f| f.for_attempt(failed_since_progress));
    let spec = if dir.is_some() || fault != request.spec.fault() {
        respec(&request.spec, dir, fault).map_err(|e| JobFailure {
            kind: FailureKind::Fatal,
            message: format!("respec: {e}"),
        })?
    } else {
        request.spec.clone()
    };
    // Inline payloads sort verbatim; generator jobs regenerate server-side.
    let input: Cow<[Record]> = match &request.input {
        Some(records) => Cow::Borrowed(records),
        None => Cow::Owned(
            request
                .workload
                .generate(request.records, request.data_seed),
        ),
    };
    if request.checkpoint {
        // Staged path: resume from the latest durable manifest when it
        // still matches this job (the digest ignores backend/file_dir/
        // fault, so the per-attempt respec cannot orphan a manifest);
        // otherwise start a fresh staged run. Either way every completed
        // phase lands in the WAL via the service checkpointer.
        let mut sink = ServiceCheckpointer {
            inner: Arc::clone(inner),
            id,
        };
        match manifest.filter(|m| m.validate(&spec, &input).is_ok()) {
            Some(m) => sort::resume_from(&spec, &input, m, &mut sink),
            None => sort::run_staged(&spec, &input, &mut sink),
        }
    } else {
        sort::run(&spec, &input)
    }
    .map_err(|e| JobFailure {
        kind: match e {
            ModelError::Io(_) => FailureKind::Io,
            _ => FailureKind::Fatal,
        },
        message: e.to_string(),
    })
}

/// The same job description with its file directory re-pointed (wire specs
/// may name any `file_dir`; on the server every file-backed job gets a
/// private directory under the service root) and its fault schedule
/// stepped to the current attempt.
fn respec(
    spec: &SortSpec,
    dir: Option<PathBuf>,
    fault: Option<FaultSpec>,
) -> Result<SortSpec, SpecError> {
    let mut b = SortSpec::builder(spec.algorithm(), spec.m(), spec.b(), spec.omega())
        .k(spec.k())
        .lanes(spec.lanes())
        .backend(spec.backend())
        .seed(spec.seed())
        .slack(spec.slack())
        .steal_charge(spec.steal_charge())
        .fault(fault);
    if let Some(d) = dir.or_else(|| spec.file_dir().map(PathBuf::from)) {
        b = b.file_dir(d);
    }
    b.build()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".into()
    }
}
