//! How a compaction becomes a sort job: the engine hands a
//! [`JobRequest`] to `asym-serve` and waits for the terminal status.
//!
//! Two transports share one contract:
//!
//! - [`CompactionService::in_process`] — an embedded [`SortService`]
//!   (the default; no sockets, deterministic, still admission-controlled).
//! - [`CompactionService::http`] — a real `POST /jobs` + long-poll
//!   `GET /jobs/<id>/wait` client over the existing wire codecs, for an
//!   engine pointed at a remote sort server (see `asym_serve::serve`).
//!
//! Either way every compaction is priced by `JobRequest::predict()` at
//! admission; a budget rejection surfaces as
//! [`KvError::CompactionRejected`] with both sides of the comparison, and
//! every other refusal as the same [`KvError::Service`] on both
//! transports. The in-process transport hands the service's typed outcome
//! straight to the engine; only the HTTP client decodes JSON.

use crate::KvError;
use asym_core::sort::SortOutcome;
use asym_model::json::Json;
use asym_serve::{JobId, JobRequest, JobState, ServiceConfig, SortService, SubmitError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where compaction jobs run.
pub enum CompactionService {
    /// An embedded [`SortService`] owned by the engine, and the temp dir
    /// holding its audit log (removed on drop: the engine never recovers
    /// from it).
    Local(SortService, PathBuf),
    /// A remote HTTP front door ([`asym_serve::serve`]).
    Http(SocketAddr),
}

/// One finished compaction job: its id and outcome.
pub struct JobResult {
    /// The service-assigned job id.
    pub id: JobId,
    /// The sorted output plus the job's measured `EmStats`.
    pub outcome: Arc<SortOutcome>,
}

static SERVICE_DIRS: AtomicU64 = AtomicU64::new(0);

impl CompactionService {
    /// Start an embedded single-worker service with the given admission
    /// budget. One worker keeps compactions strictly ordered, so modeled
    /// totals are reproducible run to run.
    pub fn in_process(budget_bytes: u64) -> Result<CompactionService, KvError> {
        let dir = service_dir()?;
        let service = SortService::start(ServiceConfig::new(1, budget_bytes, dir.clone()))
            .map_err(|e| KvError::Service(format!("start service: {e}")))?;
        Ok(CompactionService::Local(service, dir))
    }

    /// Point compactions at a running sort server.
    pub fn http(addr: SocketAddr) -> CompactionService {
        CompactionService::Http(addr)
    }

    /// Stable transport name (for tables and logs).
    pub fn name(&self) -> &'static str {
        match self {
            CompactionService::Local(..) => "in-process",
            CompactionService::Http(_) => "http",
        }
    }

    /// Submit one job and block until it is terminal. `Completed` yields
    /// the outcome; every other terminal state is an error.
    pub fn submit_and_wait(&self, request: JobRequest) -> Result<JobResult, KvError> {
        match self {
            CompactionService::Local(service, _) => {
                let id = service.submit(request).map_err(submit_error)?;
                let status = service
                    .wait(id)
                    .ok_or_else(|| KvError::Service(format!("job {id} vanished")))?;
                match (status.state, status.outcome) {
                    (JobState::Completed, Some(outcome)) => Ok(JobResult { id, outcome }),
                    (state, _) => Err(job_ended(id, state.name(), status.error.as_deref())),
                }
            }
            CompactionService::Http(addr) => http_submit_and_wait(*addr, &request),
        }
    }
}

impl Drop for CompactionService {
    fn drop(&mut self) {
        if let CompactionService::Local(service, dir) = self {
            service.drain();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A fresh, collision-free root directory for an embedded service's audit
/// log and per-job file storage.
fn service_dir() -> Result<PathBuf, KvError> {
    let dir = std::env::temp_dir().join(format!(
        "asym-kv-svc-{}-{}",
        std::process::id(),
        SERVICE_DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| KvError::Service(format!("service dir: {e}")))?;
    Ok(dir)
}

fn submit_error(e: SubmitError) -> KvError {
    match e {
        SubmitError::Rejected {
            predicted,
            available,
        } => KvError::CompactionRejected {
            predicted,
            available,
        },
        other => KvError::Service(other.to_string()),
    }
}

/// A compaction job that ended in a state other than `completed`.
fn job_ended(id: JobId, state: &str, error: Option<&str>) -> KvError {
    KvError::Service(format!(
        "compaction job {id} ended {state}: {}",
        error.unwrap_or("no error recorded")
    ))
}

// ---------------------------------------------------------------------------
// The HTTP client: hand-rolled like the server, one request per connection.
// ---------------------------------------------------------------------------

fn http_submit_and_wait(addr: SocketAddr, request: &JobRequest) -> Result<JobResult, KvError> {
    let (code, body) = http_roundtrip(addr, "POST", "/jobs", Some(&request.to_json()))?;
    let v = Json::parse(&body).map_err(|e| KvError::Service(format!("submit response: {e}")))?;
    if code != 202 {
        return Err(rejection(&v).map_or_else(
            || KvError::Service(format!("submit rejected with HTTP {code}: {body}")),
            submit_error,
        ));
    }
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| KvError::Service("202 without a job id".into()))?;
    loop {
        let (code, body) = http_roundtrip(addr, "GET", &format!("/jobs/{id}/wait"), None)?;
        match code {
            // 408 = server-side long-poll timeout, job still running: poll on.
            408 => continue,
            200 | 504 => {
                let v = Json::parse(&body)
                    .map_err(|e| KvError::Service(format!("status decode: {e}")))?;
                let error = v.get("error").and_then(Json::as_str);
                return match (v.get("state").and_then(Json::as_str), v.get("outcome")) {
                    (Some("completed"), Some(outcome)) => {
                        let outcome = SortOutcome::from_json_value(outcome)
                            .map_err(|e| KvError::Service(format!("telemetry decode: {e}")))?;
                        Ok(JobResult {
                            id,
                            outcome: Arc::new(outcome),
                        })
                    }
                    (Some(state), _) => Err(job_ended(id, state, error)),
                    (None, _) => Err(KvError::Service(format!("status without a state: {body}"))),
                };
            }
            _ => {
                return Err(KvError::Service(format!(
                    "wait for job {id} failed with HTTP {code}: {body}"
                )))
            }
        }
    }
}

/// The typed refusal behind a non-202 submit response, dispatched on its
/// `error` slug ([`SubmitError::to_json`]); `None` for anything else (a
/// malformed-request 400, say).
fn rejection(v: &Json) -> Option<SubmitError> {
    let field = |k| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let (predicted, available) = (field("predicted"), field("available"));
    Some(match v.get("error")?.as_str()? {
        "rejected" => SubmitError::Rejected {
            predicted,
            available,
        },
        "rejected_io" => SubmitError::RejectedIo {
            predicted,
            available,
        },
        "deadline_unmeetable" => SubmitError::DeadlineUnmeetable {
            eta_ms: field("eta_ms"),
            deadline_ms: field("deadline_ms"),
        },
        "draining" => SubmitError::Draining,
        _ => return None,
    })
}

fn http_roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), KvError> {
    let io = |e: std::io::Error| KvError::Service(format!("{method} {path}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    // One request per connection: the server closes after the response,
    // so the response is everything up to EOF.
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    let bad = || KvError::Service(format!("{method} {path}: bad response {response:?}"));
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    Ok((code, body.to_string()))
}
