//! Golden wire bytes: the `GET /jobs/<id>` body and the `completed` WAL
//! line of a finished job, byte for byte, before and after
//! `SortService::recover`. A stats-only job keeps no records in the
//! service, yet its `output_len` must still be the job's record count;
//! an `include_output` job embeds its records as `[key, payload]` pairs,
//! and a parallel job its per-lane and per-phase detail.

use asym_serve::{serve, ServiceConfig, SortService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

/// One HTTP/1.1 exchange; returns (status code, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

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
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = response.split_once("\r\n\r\n").expect("body").1.to_string();
    (code, body)
}

const STATS_ONLY: &str = r#"{ "spec": {"algorithm": "aem-mergesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "uniform", "records": 1000, "data_seed": 7, "include_output": false }"#;

const WITH_OUTPUT: &str = r#"{ "spec": {"algorithm": "aem-mergesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "uniform", "records": 4, "data_seed": 3, "include_output": true }"#;

const PARALLEL: &str = r#"{ "spec": {"algorithm": "par-aem-samplesort", "m": 64, "b": 8, "omega": 16, "lanes": 2},
    "workload": "zipf", "records": 600, "data_seed": 5, "include_output": false }"#;

const STATS_ONLY_BODY: &str = r#"{ "id": 0, "state": "completed", "attempts": 1, "predicted": { "reads": 750, "writes": 250, "peak_memory": 96, "peak_bytes": 1536, "io_cost": 4750 }, "outcome": { "reads": 408, "writes": 250, "peak_memory": 96, "omega": 16, "io_cost": 4408, "output_len": 1000 } }"#;

const STATS_ONLY_LINE: &str = r#"{ "v": 1, "event": "completed", "id": 0, "outcome": { "reads": 408, "writes": 250, "peak_memory": 96, "omega": 16, "io_cost": 4408, "output_len": 1000 } }"#;

const WITH_OUTPUT_BODY: &str = r#"{ "id": 1, "state": "completed", "attempts": 1, "predicted": { "reads": 3, "writes": 1, "peak_memory": 96, "peak_bytes": 1536, "io_cost": 19 }, "outcome": { "reads": 1, "writes": 1, "peak_memory": 80, "omega": 16, "io_cost": 17, "output_len": 4, "output": [[655874687269915856, 3], [1257185843291771127, 1], [1868386182731287160, 2], [11660634489323895048, 0]] } }"#;

const WITH_OUTPUT_LINE: &str = r#"{ "v": 1, "event": "completed", "id": 1, "outcome": { "reads": 1, "writes": 1, "peak_memory": 80, "omega": 16, "io_cost": 17, "output_len": 4, "output": [[655874687269915856, 3], [1257185843291771127, 1], [1868386182731287160, 2], [11660634489323895048, 0]] } }"#;

const PARALLEL_BODY: &str = r#"{ "id": 2, "state": "completed", "attempts": 1, "predicted": { "reads": 4692, "writes": 948, "peak_memory": 208, "peak_bytes": 3328, "io_cost": 19860 }, "outcome": { "reads": 464, "writes": 318, "peak_memory": 173, "omega": 16, "io_cost": 5552, "output_len": 600, "parallel": { "lane_stats": [{ "reads": 275, "writes": 201, "peak_memory": 87 }, { "reads": 189, "writes": 117, "peak_memory": 86 }], "phases": [{ "name": "sample-scan", "cost": { "reads": 75, "writes": 0, "depth": 38 } }, { "name": "splitter-sort", "cost": { "reads": 81, "writes": 81, "depth": 1377 } }, { "name": "count", "cost": { "reads": 75, "writes": 0, "depth": 38 } }, { "name": "exchange", "cost": { "reads": 75, "writes": 79, "depth": 678 } }, { "name": "bucket-sort", "cost": { "reads": 158, "writes": 158, "depth": 1360 } }], "cost": { "reads": 464, "writes": 318, "depth": 3491 }, "sched": { "steals": 5, "failed_steals": 1428, "time": 3491, "work": 5552, "depth": 3491 }, "steal_warmup": { "reads": 0, "writes": 0, "peak_memory": 0 } } } }"#;

const PARALLEL_LINE: &str = r#"{ "v": 1, "event": "completed", "id": 2, "outcome": { "reads": 464, "writes": 318, "peak_memory": 173, "omega": 16, "io_cost": 5552, "output_len": 600, "parallel": { "lane_stats": [{ "reads": 275, "writes": 201, "peak_memory": 87 }, { "reads": 189, "writes": 117, "peak_memory": 86 }], "phases": [{ "name": "sample-scan", "cost": { "reads": 75, "writes": 0, "depth": 38 } }, { "name": "splitter-sort", "cost": { "reads": 81, "writes": 81, "depth": 1377 } }, { "name": "count", "cost": { "reads": 75, "writes": 0, "depth": 38 } }, { "name": "exchange", "cost": { "reads": 75, "writes": 79, "depth": 678 } }, { "name": "bucket-sort", "cost": { "reads": 158, "writes": 158, "depth": 1360 } }], "cost": { "reads": 464, "writes": 318, "depth": 3491 }, "sched": { "steals": 5, "failed_steals": 1428, "time": 3491, "work": 5552, "depth": 3491 }, "steal_warmup": { "reads": 0, "writes": 0, "peak_memory": 0 } } } }"#;

/// The `completed` line the WAL holds for job `id`.
fn completed_line(root: &Path, id: u64) -> String {
    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit log");
    let prefix = format!(r#"{{ "v": 1, "event": "completed", "id": {id}, "#);
    log.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no completed line for job {id} in:\n{log}"))
        .to_string()
}

#[test]
fn completed_job_bytes_are_pinned_before_and_after_recovery() {
    let root = std::env::temp_dir().join(format!("asym-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServiceConfig::new(1, 1 << 20, root.clone());
    let jobs = [
        (STATS_ONLY, STATS_ONLY_BODY, STATS_ONLY_LINE),
        (WITH_OUTPUT, WITH_OUTPUT_BODY, WITH_OUTPUT_LINE),
        (PARALLEL, PARALLEL_BODY, PARALLEL_LINE),
    ];

    let mut server = serve(
        SortService::start(cfg.clone()).expect("start"),
        "127.0.0.1:0",
    )
    .expect("bind");
    for (id, (job, body, line)) in jobs.iter().enumerate() {
        let (code, reply) = request(server.addr(), "POST", "/jobs", job);
        assert_eq!(code, 202, "{reply}");
        let (code, waited) = get(server.addr(), &format!("/jobs/{id}/wait"));
        assert_eq!(code, 200, "{waited}");
        assert_eq!(waited, *body, "job {id}: wait body");
        assert_eq!(get(server.addr(), &format!("/jobs/{id}")).1, *body);
        assert_eq!(
            completed_line(&root, id as u64),
            *line,
            "job {id}: WAL line"
        );
    }
    server.shutdown();
    drop(server);

    // A recovered service serves the same bytes from the log alone.
    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!(report.restored, jobs.len() as u64);
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    for (id, (_, body, _)) in jobs.iter().enumerate() {
        let (code, reply) = get(server.addr(), &format!("/jobs/{id}"));
        assert_eq!(code, 200, "{reply}");
        assert_eq!(reply, *body, "job {id}: body after recover");
    }
    server.shutdown();
    drop(server);
    std::fs::remove_dir_all(&root).expect("remove the service root");
}
