//! `jobs-http`: a closed loop of two clients over loopback against
//! `asym_serve::http::serve` (two workers). Each client submits a job with
//! POST `/jobs`, long-polls GET `/jobs/<id>/wait`, then sends one GET
//! `/healthz`. The jobs are a seeded mix of generator jobs, so fixed
//! per-job costs (HTTP parsing, admission, WAL appends, telemetry JSON,
//! per-job directories) are a large share of each job.

use crate::harness::{drive, peak_rss_mb, Ctx, Outcome, Rng};
use crate::report::{median, metrics, Metrics, Model, Phase};
use crate::sort_large::{B, M, OMEGA, SWEEP};
use crate::trace::{Trace, Tracer};
use asym_core::sort::{self, MemCheckpointer, SortOutcome};
use asym_model::json::Json;
use asym_model::workload::Workload as Gen;
use asym_serve::{http, JobRequest, ServerHandle, ServiceConfig, SortService};
use em_sim::Backend;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client threads (the machine's core count).
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Long-poll timeout asked of `/wait`.
const WAIT_MS: u64 = 10_000;
/// Salt of this workload's input stream.
const SALT: u64 = 2;
/// Input generators the jobs draw from.
const GENERATORS: [Gen; 4] = [
    Gen::UniformRandom,
    Gen::Zipf,
    Gen::NearlySorted,
    Gen::FewDistinct,
];

/// Jobs per configuration of the sort-large sweep.
const PER_CONFIG: usize = 12;
/// The range of job sizes, in records: from below M to a few tens of
/// thousands.
const SIZES: (f64, f64) = (256.0, 32_768.0);

/// The job mix: [`PER_CONFIG`] jobs for each configuration of the
/// sort-large sweep, so all four algorithms appear. Its shape is fixed, so
/// runs with different seeds measure the same amount of work: a
/// configuration's jobs take the geometric midpoints of [`PER_CONFIG`]
/// log-uniform bands of [`SIZES`], alternate between the backends, rotate
/// through the input generators, and in every group of four neighbouring
/// bands one job is checkpointed and another carries its sorted output
/// back. The seed picks every job's data and spec seeds and the order of
/// the list.
pub fn job_list(seed: u64) -> Result<Vec<JobRequest>, String> {
    let mut rng = Rng::new(seed, SALT);
    let mut jobs = Vec::with_capacity(PER_CONFIG * SWEEP.len());
    for (c, config) in SWEEP.iter().enumerate() {
        for band in 0..PER_CONFIG {
            let at = (band as f64 + 0.5) / PER_CONFIG as f64;
            let records = (SIZES.0 * (SIZES.1 / SIZES.0).powf(at)).round() as usize;
            let backend = if (band + c) % 2 == 0 {
                Backend::Mem
            } else {
                Backend::File
            };
            let spec = sort::SortSpec::builder(config.algorithm, M, B, OMEGA)
                .k(config.k)
                .lanes(config.lanes)
                .backend(backend)
                .seed(rng.next_u64())
                .build()
                .map_err(|e| e.to_string())?;
            jobs.push(JobRequest {
                spec,
                workload: GENERATORS[(band + c) % GENERATORS.len()],
                records,
                data_seed: rng.next_u64(),
                input: None,
                include_output: band % 4 == (c + 2) % 4,
                deadline_ms: None,
                checkpoint: band % 4 == c % 4,
            });
        }
    }
    // Seeded Fisher-Yates, so the clients interleave configurations.
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(jobs)
}

struct State {
    jobs: Vec<JobRequest>,
    server: ServerHandle,
    root: PathBuf,
    /// Each job's outcome from the set-up pass, output stripped: every
    /// later run of the same job must report the same stats.
    expected: Vec<SortOutcome>,
    model: Model,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let jobs = job_list(ctx.seed)?;
    let services = AtomicU64::new(0);
    drive(
        ctx,
        || {
            let root = ctx.tmp.join(format!(
                "jobs-svc-{}",
                services.fetch_add(1, Ordering::Relaxed)
            ));
            setup(jobs.clone(), root)
        },
        |state, traced, seconds| measure(state, seconds, traced),
    )
}

/// Start the service and its HTTP front door, then run every job once
/// (warm-up) to learn each job's expected stats and the modeled costs.
fn setup(jobs: Vec<JobRequest>, root: PathBuf) -> Result<State, String> {
    let cfg = ServiceConfig::new(WORKERS, 1 << 40, &root);
    let service = SortService::start(cfg).map_err(|e| format!("start service: {e}"))?;
    let server = http::serve(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut tracer = Tracer::new(false);
    let mut phase = Phase::default();
    let mut expected = Vec::with_capacity(jobs.len());
    let mut model = Model {
        omega: OMEGA,
        ..Model::default()
    };
    for (i, job) in jobs.iter().enumerate() {
        let out = run_job(server.addr(), job, i as u64, &mut tracer, &mut phase)
            .ok_or_else(|| format!("warm-up job {i} failed"))?;
        model.writes += out.stats.block_writes;
        model.reads += out.stats.block_reads;
        model.base += job.records as u64;
        model.peak_records = model.peak_records.max(out.stats.peak_memory as u64);
        expected.push(without_output(out));
    }
    Ok(State {
        jobs,
        server,
        root,
        expected,
        model,
    })
}

fn without_output(mut out: SortOutcome) -> SortOutcome {
    out.output = Vec::new();
    out
}

/// The reference for the traced run's bit-identical check: the same
/// (spec, input) through `sort::run`, or through `run_staged` for a
/// checkpointed job, with its wall time.
fn reference(job: &JobRequest) -> Result<(SortOutcome, f64), String> {
    let input = job.workload.generate(job.records, job.data_seed);
    let t = Instant::now();
    let out = if job.checkpoint {
        sort::run_staged(&job.spec, &input, &mut MemCheckpointer::default())
    } else {
        sort::run(&job.spec, &input)
    }
    .map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    Ok((
        if job.include_output {
            out
        } else {
            without_output(out)
        },
        wall,
    ))
}

/// What the clients of one phase share.
struct Shared<'a> {
    state: &'a State,
    references: &'a [(SortOutcome, f64)],
    next: AtomicU64,
    deadline: Instant,
    results: Mutex<Vec<(Phase, Tracer, f64)>>,
}

fn measure(state: State, seconds: f64, traced: bool) -> Result<Phase, String> {
    let references = if traced {
        state
            .jobs
            .iter()
            .map(reference)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    // The fixed slice of work is the set-up's warm-up pass over every job.
    let peak_rss_mb = Some(peak_rss_mb()?);
    let start = Instant::now();
    let shared = Shared {
        state: &state,
        references: &references,
        next: AtomicU64::new(0),
        deadline: start + Duration::from_secs_f64(seconds),
        results: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| client(&shared, traced));
        }
    });
    let mut phase = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        model: state.model,
        peak_rss_mb,
        ..Phase::default()
    };
    let mut tracers = Vec::new();
    let mut sort_wall = 0.0;
    for (p, t, w) in shared.results.into_inner().expect("a client panicked") {
        phase.absorb(p);
        tracers.push(t);
        sort_wall += w;
    }

    let mut stats_tracer = Tracer::new(traced);
    let stats = request(
        state.server.addr(),
        "GET",
        "/stats",
        "",
        0,
        &mut stats_tracer,
        &mut phase,
    )
    .and_then(|body| Json::parse(&body).ok());
    if traced {
        let stats = stats.ok_or("GET /stats failed")?;
        let counter = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        let wal = std::fs::metadata(state.root.join("audit.jsonl")).map_or(0, |m| m.len());
        tracers.push(stats_tracer);
        let trace = Trace::new(tracers);
        let mut m = layers(&trace, phase.jobs.len() as f64);
        let job_wall: f64 = phase.jobs.iter().map(|j| j.secs).sum();
        let transfers: u64 = references
            .iter()
            .map(|(o, _)| o.stats.block_reads + o.stats.block_writes)
            .sum();
        let ref_wall: f64 = references.iter().map(|r| r.1).sum();
        m.extend(metrics([
            ("service.retried", counter("retried")),
            ("service.rejected", counter("rejected")),
            ("service.expired", counter("expired")),
            (
                "service.wal_bytes_per_job",
                wal as f64 / counter("submitted"),
            ),
            ("service.sort_wall_s", sort_wall),
            ("service.job_wall_s", job_wall),
            ("service.sort_share", sort_wall / job_wall),
            ("em_sim.block_transfers_per_s", transfers as f64 / ref_wall),
        ]));
        phase.layers = m;
        trace.write_summary("jobs-http");
    }
    Ok(phase)
}

fn layers(trace: &Trace, jobs: f64) -> Metrics {
    metrics([
        (
            "wire.encode_us_per_job",
            trace.total("wire.encode") / jobs * 1e6,
        ),
        (
            "wire.decode_us_per_job",
            trace.total("wire.decode") / jobs * 1e6,
        ),
        (
            "http.healthz_p50_us",
            median(&trace.durations("http.healthz")) * 1e6,
        ),
        ("http.bytes_per_job", trace.counter("http.bytes") / jobs),
        ("http.errors", trace.counter("http.errors")),
        ("http.requests", trace.counter("http.requests")),
        (
            "service.submit_p50_ms",
            median(&trace.durations("http.post")) * 1e3,
        ),
        (
            "service.wait_p50_ms",
            median(&trace.durations("http.wait")) * 1e3,
        ),
    ])
}

/// One client: take the next job of the cyclic mix until the deadline.
fn client(shared: &Shared, traced: bool) {
    let mut tracer = Tracer::new(traced);
    let mut phase = Phase::default();
    let mut sort_wall = 0.0;
    let state = shared.state;
    let addr = state.server.addr();
    while Instant::now() < shared.deadline {
        let n = shared.next.fetch_add(1, Ordering::Relaxed);
        let i = n as usize % state.jobs.len();
        let job = &state.jobs[i];
        let t = Instant::now();
        let out = tracer.span("job", n, |t| run_job(addr, job, n, t, &mut phase));
        let latency = t.elapsed().as_secs_f64();
        phase.op(latency);
        phase.attempted += 1;
        let ok = out.is_some_and(|out| {
            let stripped = without_output(out.clone());
            let same = stripped == state.expected[i]
                && shared
                    .references
                    .get(i)
                    .is_none_or(|(reference, _)| *reference == out);
            if !same {
                eprintln!("job {n}: outcome differs from the expected one");
            }
            same
        });
        if ok {
            phase.job(latency, job.records as f64);
            sort_wall += shared.references.get(i).map_or(0.0, |r| r.1);
        } else {
            phase.job(latency, 0.0);
            phase.failed += 1;
        }
        tracer.span("http.healthz", n, |t| {
            request(addr, "GET", "/healthz", "", n, t, &mut phase);
        });
    }
    shared
        .results
        .lock()
        .expect("a client panicked while holding the results")
        .push((phase, tracer, sort_wall));
}

/// Submit one job and wait for it; the decoded outcome when the job
/// completed with a plausible output. Every HTTP request counts as one
/// attempted operation in `phase`.
fn run_job(
    addr: SocketAddr,
    job: &JobRequest,
    n: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
) -> Option<SortOutcome> {
    let body = tracer.span("wire.encode", n, |_| job.to_json());
    let posted = tracer.span("http.post", n, |t| {
        request(addr, "POST", "/jobs", &body, n, t, phase)
    })?;
    let id = Json::parse(&posted).ok()?.get("id")?.as_u64()?;
    let path = format!("/jobs/{id}/wait?timeout_ms={WAIT_MS}");
    let status = tracer.span("http.wait", n, |t| {
        request(addr, "GET", &path, "", n, t, phase)
    })?;
    let status = Json::parse(&status).ok()?;
    if status.get("state").and_then(Json::as_str) != Some("completed") {
        eprintln!("job {n}: ended {:?}", status.get("state"));
        return None;
    }
    let telemetry = status.get("outcome")?.render();
    let out = tracer
        .span("wire.decode", n, |_| SortOutcome::from_json(&telemetry))
        .ok()?;
    let output_ok = if job.include_output {
        out.output.len() == job.records && out.output.windows(2).all(|w| w[0] <= w[1])
    } else {
        out.output.is_empty()
    };
    output_ok.then_some(out)
}

/// One HTTP/1.1 request on a fresh connection (the server closes after
/// each response). Returns the body of a 2xx response; an I/O error or any
/// other status counts as a failed operation.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    n: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
) -> Option<String> {
    let result = exchange(addr, method, path, body);
    phase.attempted += 1;
    tracer.count("http.requests", 1.0);
    match result {
        Ok((code, text, bytes)) if (200..300).contains(&code) => {
            tracer.count("http.bytes", bytes as f64);
            Some(text)
        }
        Ok((code, text, _)) => {
            eprintln!("request {n}: {method} {path} -> {code} {text}");
            phase.failed += 1;
            tracer.count("http.errors", 1.0);
            None
        }
        Err(e) => {
            eprintln!("request {n}: {method} {path}: {e}");
            phase.failed += 1;
            tracer.count("http.errors", 1.0);
            None
        }
    }
}

/// Send one request and read the whole response: (status, body, bytes on
/// the wire in both directions).
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, usize)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(WAIT_MS * 3)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (status, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let code = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((
        code,
        payload.to_string(),
        head.len() + body.len() + text.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The part of a job the seed must not change.
    fn shape(jobs: &[JobRequest]) -> Vec<String> {
        let mut shape: Vec<String> = jobs
            .iter()
            .map(|j| {
                format!(
                    "{} k{} l{} {} {} {} ck={} out={}",
                    j.spec.algorithm(),
                    j.spec.k(),
                    j.spec.lanes(),
                    j.spec.backend(),
                    j.workload.name(),
                    j.records,
                    j.checkpoint,
                    j.include_output
                )
            })
            .collect();
        shape.sort();
        shape
    }

    #[test]
    fn seeds_change_the_inputs_but_not_the_shape_of_the_mix() {
        let a = job_list(1).unwrap();
        let b = job_list(2).unwrap();
        assert_eq!(a, job_list(1).unwrap());
        assert_ne!(a, b);
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(a.len(), 72);
        let count = |f: fn(&JobRequest) -> bool| a.iter().filter(|j| f(j)).count();
        assert_eq!(count(|j| j.spec.backend() == Backend::File), 36);
        assert_eq!(count(|j| j.checkpoint), 18);
        assert_eq!(count(|j| j.include_output), 18);
        assert_eq!(count(|j| j.checkpoint && j.include_output), 0);
        assert!(a.iter().all(|j| (256..=32_768).contains(&j.records)));
        assert!(a.iter().any(|j| j.records < M) && a.iter().any(|j| j.records > 20_000));
    }
}
