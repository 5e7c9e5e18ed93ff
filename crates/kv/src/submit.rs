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
//! [`KvError::CompactionRejected`] with both sides of the comparison.

use crate::KvError;
use asym_core::sort::SortOutcome;
use asym_model::json::{self, Json};
use asym_serve::{JobId, JobRequest, JobState, JobStatus, ServiceConfig, SortService, SubmitError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where compaction jobs run.
pub enum CompactionService {
    /// An embedded [`SortService`] owned by the engine, and the temp dir
    /// holding its audit log (removed on drop: the engine never recovers
    /// from it).
    Local(SortService, PathBuf),
    /// A remote HTTP front door ([`asym_serve::serve`]).
    Http(SocketAddr),
}

/// One finished compaction job: its id and decoded outcome.
pub struct JobResult {
    /// The service-assigned job id.
    pub id: JobId,
    /// The sorted output plus the job's measured `EmStats`.
    pub outcome: SortOutcome,
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
    /// the decoded outcome; every other terminal state is an error.
    pub fn submit_and_wait(&self, request: JobRequest) -> Result<JobResult, KvError> {
        match self {
            CompactionService::Local(service, _) => {
                let id = service.submit(request).map_err(submit_error)?;
                let status = service
                    .wait(id)
                    .ok_or_else(|| KvError::Service(format!("job {id} vanished")))?;
                let outcome = terminal_outcome(&status)?;
                Ok(JobResult { id, outcome })
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

/// Decode the sorted payload out of a terminal [`JobStatus`].
fn terminal_outcome(status: &JobStatus) -> Result<SortOutcome, KvError> {
    match status.state {
        JobState::Completed => {
            let telemetry = status
                .telemetry
                .as_deref()
                .ok_or_else(|| KvError::Service("completed job without telemetry".into()))?;
            SortOutcome::from_json(telemetry)
                .map_err(|e| KvError::Service(format!("telemetry decode: {e}")))
        }
        state => Err(KvError::Service(format!(
            "compaction job {} ended {}: {}",
            status.id,
            state.name(),
            status.error.as_deref().unwrap_or("no error recorded")
        ))),
    }
}

// ---------------------------------------------------------------------------
// The HTTP client: hand-rolled like the server, one request per connection.
// ---------------------------------------------------------------------------

fn http_submit_and_wait(addr: SocketAddr, request: &JobRequest) -> Result<JobResult, KvError> {
    let (code, body) = http_roundtrip(addr, "POST", "/jobs", Some(&request.to_json()))?;
    let v = Json::parse(&body).map_err(|e| KvError::Service(format!("submit response: {e}")))?;
    let id = match code {
        202 => v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| KvError::Service("202 without a job id".into()))?,
        429 => {
            let obj = v.as_obj().unwrap_or(&[]);
            return Err(KvError::CompactionRejected {
                predicted: json::get_u64(obj, "predicted").unwrap_or(0),
                available: json::get_u64(obj, "available").unwrap_or(0),
            });
        }
        _ => {
            return Err(KvError::Service(format!(
                "submit rejected with HTTP {code}: {body}"
            )))
        }
    };
    loop {
        let (code, body) = http_roundtrip(addr, "GET", &format!("/jobs/{id}/wait"), None)?;
        match code {
            // 408 = server-side long-poll timeout, job still running: poll on.
            408 => continue,
            200 | 504 => {
                let status = parse_status(&body)?;
                let outcome = terminal_outcome(&status)?;
                return Ok(JobResult { id, outcome });
            }
            _ => {
                return Err(KvError::Service(format!(
                    "wait for job {id} failed with HTTP {code}: {body}"
                )))
            }
        }
    }
}

/// The subset of the status payload the compactor dispatches on.
fn parse_status(body: &str) -> Result<JobStatus, KvError> {
    let v = Json::parse(body).map_err(|e| KvError::Service(format!("status decode: {e}")))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| KvError::Service("status must be a JSON object".into()))?;
    let state = match json::get_str(obj, "state").as_deref() {
        Some("queued") => JobState::Queued,
        Some("running") => JobState::Running,
        Some("completed") => JobState::Completed,
        Some("failed") => JobState::Failed,
        Some("expired") => JobState::Expired,
        other => return Err(KvError::Service(format!("unknown job state {other:?}"))),
    };
    // The client re-derives the prediction locally (it priced the request
    // before submitting); the wire copy is display-only here.
    let predicted = json::find(obj, "predicted").and_then(Json::as_obj);
    let field = |k| predicted.and_then(|p| json::get_u64(p, k)).unwrap_or(0);
    Ok(JobStatus {
        id: json::get_u64(obj, "id").unwrap_or(0),
        state,
        predicted: asym_core::sort::CostEstimate {
            reads: field("reads"),
            writes: field("writes"),
            peak_memory: field("peak_memory") as usize,
            omega: 1,
        },
        attempts: json::get_u64(obj, "attempts").unwrap_or(0) as u32,
        telemetry: json::find(obj, "outcome").map(Json::render),
        error: json::get_str(obj, "error"),
        failure: None,
    })
}

fn http_roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), KvError> {
    let io = |e: std::io::Error| KvError::Service(format!("{method} {path}: {e}"));
    let stream = TcpStream::connect(addr).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    writer.flush().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    let code: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| KvError::Service(format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(io)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v
                .parse()
                .map_err(|e| KvError::Service(format!("bad content length: {e}")))?;
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).map_err(io)?;
    let body = String::from_utf8(buf).map_err(|e| KvError::Service(format!("bad body: {e}")))?;
    Ok((code, body))
}
