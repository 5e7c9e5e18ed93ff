//! The HTTP front door over real loopback sockets: submit, poll, reject,
//! introspect, shut down — all with a hand-rolled client so the test
//! exercises actual bytes on the wire, not internal calls.

use asym_core::sort::SortOutcome;
use asym_model::json::Json;
use asym_serve::{serve, ServiceConfig, SortService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-serve-http-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (code, body)
}

const SMALL_JOB: &str = r#"{
    "spec": {"algorithm": "aem-samplesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "zipf", "records": 3000, "data_seed": 11, "include_output": false }"#;

#[test]
fn full_session_over_loopback() {
    let root = fresh_root("session");
    let service = SortService::start(ServiceConfig::new(2, 1 << 20, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (code, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(code, 200, "{body}");

    // Accepted submission: 202 with an id and the queued status.
    let (code, body) = request(addr, "POST", "/jobs", SMALL_JOB);
    assert_eq!(code, 202, "{body}");
    let v = Json::parse(&body).expect("parses");
    let id = v.get("id").and_then(Json::as_u64).expect("id");

    // Poll until done; telemetry must be decodable outcome JSON.
    let outcome = loop {
        let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(code, 200, "{body}");
        let v = Json::parse(&body).expect("parses");
        match v.get("state").and_then(Json::as_str).expect("state") {
            "completed" => {
                let telemetry = v.get("outcome").expect("telemetry present");
                break SortOutcome::from_json(&telemetry.render()).expect("telemetry decodes");
            }
            "failed" => panic!("job failed: {body}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    assert!(outcome.output.is_empty(), "lean telemetry");
    assert!(outcome.stats.block_reads > 0);

    // Over-budget submission: typed 429 with both sides of the comparison.
    let monster = SMALL_JOB.replace("\"m\": 64", "\"m\": 1000000");
    let (code, body) = request(addr, "POST", "/jobs", &monster);
    assert_eq!(code, 429, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("rejected"));
    assert!(v.get("predicted").and_then(Json::as_u64).unwrap() > 1 << 20);
    assert!(v.get("available").and_then(Json::as_u64).is_some());

    // Malformed and invalid payloads: 400 with structured errors.
    let (code, body) = request(addr, "POST", "/jobs", "{ nope");
    assert_eq!(code, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed")
    );
    let invalid = SMALL_JOB.replace("\"b\": 8", "\"b\": 1000");
    let (code, body) = request(addr, "POST", "/jobs", &invalid);
    assert_eq!(code, 400, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("spec"));
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("block_exceeds_memory")
    );

    let (code, _) = request(addr, "GET", "/jobs/4096", "");
    assert_eq!(code, 404);

    let (code, body) = request(addr, "GET", "/stats", "");
    assert_eq!(code, 200);
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("submitted").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("rejected").and_then(Json::as_u64), Some(1));

    // Graceful shutdown over the wire: drained stats in the response.
    let (code, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!(code, 200, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));

    server.shutdown();
    let audit = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    assert!(
        audit.lines().count() >= 4,
        "accepted+completed+rejected+drained"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A mergesort big enough to hold the single worker for a while, so jobs
/// queued behind it observably wait.
const BUSY_JOB: &str = r#"{
    "spec": {"algorithm": "aem-mergesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "uniform", "records": 150000, "data_seed": 3, "include_output": false }"#;

#[test]
fn wait_long_polls_with_a_bounded_server_side_timeout() {
    let root = fresh_root("wait");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Unknown jobs are 404 on the wait route too.
    let (code, _) = request(addr, "GET", "/jobs/4096/wait", "");
    assert_eq!(code, 404);

    // Hold the worker so both jobs stay queued until the long-poll loop:
    // pickup is ETA-priority, so without the hold the worker may start the
    // cheaper SMALL_JOB first and finish it before the short wait below.
    server.service().hold();
    let (_, body) = request(addr, "POST", "/jobs", BUSY_JOB);
    let busy = Json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let (_, body) = request(addr, "POST", "/jobs", SMALL_JOB);
    let queued = Json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    // The service is held, so the queued job cannot have run: a short wait
    // must come back 408 carrying the *current* snapshot.
    let (code, body) = request(
        addr,
        "GET",
        &format!("/jobs/{queued}/wait?timeout_ms=50"),
        "",
    );
    assert_eq!(code, 408, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert!(
        matches!(
            v.get("state").and_then(Json::as_str),
            Some("queued") | Some("running")
        ),
        "{body}"
    );

    // A long enough wait rides the long-poll to 200 completed.
    server.service().release();
    for id in [busy, queued] {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let (code, body) =
                request(addr, "GET", &format!("/jobs/{id}/wait?timeout_ms=2000"), "");
            let v = Json::parse(&body).expect("parses");
            match v.get("state").and_then(Json::as_str).expect("state") {
                "completed" => {
                    assert_eq!(code, 200, "{body}");
                    break;
                }
                "failed" => panic!("job failed: {body}"),
                _ => {
                    assert_eq!(code, 408, "{body}");
                    assert!(std::time::Instant::now() < deadline);
                }
            }
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn queued_jobs_past_their_deadline_expire_into_504() {
    let root = fresh_root("expire");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Hold the worker: pickup is ETA-priority, so an idle worker could
    // otherwise take the cheaper dated job inside its deadline.
    server.service().hold();
    let (code, _) = request(addr, "POST", "/jobs", BUSY_JOB);
    assert_eq!(code, 202);
    // One millisecond of deadline on a held queue: the job must expire in
    // the queue, never having run.
    let dated = SMALL_JOB.replace("\"data_seed\": 11", "\"data_seed\": 11, \"deadline_ms\": 1");
    let (code, body) = request(addr, "POST", "/jobs", &dated);
    assert_eq!(code, 202, "{body}");
    let id = Json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    std::thread::sleep(std::time::Duration::from_millis(20));
    let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(code, 504, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("state").and_then(Json::as_str), Some("expired"));
    assert_eq!(
        v.get("attempts").and_then(Json::as_u64),
        Some(0),
        "never ran"
    );
    // The wait route agrees: expiry is terminal, reported as 504.
    let (code, _) = request(addr, "GET", &format!("/jobs/{id}/wait"), "");
    assert_eq!(code, 504);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unmeetable_deadlines_are_refused_up_front_with_422() {
    let root = fresh_root("eta");
    // 1 modeled I/O unit per millisecond: every real sort's ETA dwarfs a
    // 1 ms deadline, so admission refuses before anything is queued.
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    cfg.io_per_ms = 1;
    let service = SortService::start(cfg).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let dated = SMALL_JOB.replace("\"data_seed\": 11", "\"data_seed\": 11, \"deadline_ms\": 1");
    let (code, body) = request(addr, "POST", "/jobs", &dated);
    assert_eq!(code, 422, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some("deadline_unmeetable")
    );
    assert!(v.get("eta_ms").and_then(Json::as_u64).unwrap() > 1);

    // The same job without a deadline sails through.
    let (code, _) = request(addr, "POST", "/jobs", SMALL_JOB);
    assert_eq!(code, 202);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_request_bodies_get_a_typed_413_without_allocation() {
    let root = fresh_root("toolarge");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Declare a body far over the cap but never send it: the server must
    // answer from the headers alone instead of trying to read (or
    // allocate) two gigabytes.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 2147483647\r\nConnection: close\r\n\r\n"
    )
    .expect("send headers");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let code: u16 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(code, 413, "{response}");
    let body = response.split_once("\r\n\r\n").unwrap().1;
    let v = Json::parse(body).expect("parses");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("too_large"));
    assert_eq!(v.get("length").and_then(Json::as_u64), Some(2147483647));
    assert!(v.get("max").and_then(Json::as_u64).unwrap() >= 1 << 20);

    // The connection above did not wedge the server.
    let (code, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
