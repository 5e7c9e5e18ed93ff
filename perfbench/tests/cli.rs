//! The benchmark's own tests: run the built binary at the sizes the
//! benchmark measures, with short phases, and check the contract of its
//! last output line.

use asym_model::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh working directory per run, so the test can see what a run
/// leaves behind.
fn workdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Leave two temp roots in `dir` as earlier runs would: one of a process
/// that has ended and one of a live process (this test). Returns them in
/// that order.
fn plant_temp_roots(dir: &Path, workload: &str) -> (PathBuf, PathBuf) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .stderr(Stdio::null())
        .spawn()
        .expect("start a process");
    let ended = child.id();
    child.wait().expect("wait for it");
    let roots = (
        dir.join(format!(".bench_tmp/{workload}-{ended}")),
        dir.join(format!(".bench_tmp/{workload}-{}", std::process::id())),
    );
    for root in [&roots.0, &roots.1] {
        std::fs::create_dir_all(root).expect("create temp root");
        std::fs::write(root.join("leftover"), b"x").expect("write leftover");
    }
    roots
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload for a second. With `stale`, earlier runs' temp roots
/// are planted first: the ended run's must be removed, the live one's kept.
fn run(workload: &str, seed: u64, trace: bool, env: &[(&str, &str)], stale: bool) -> Run {
    let dir = workdir();
    let planted = stale.then(|| plant_temp_roots(&dir, workload));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    if let Some((ended, live)) = planted {
        assert!(!ended.exists(), "{workload} kept an ended run's temp root");
        assert!(live.exists(), "{workload} removed a live run's temp root");
        std::fs::remove_dir_all(live.parent().expect("parent")).expect("remove temp roots");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("work dir")
        .flatten()
        .collect();
    assert!(leftovers.is_empty(), "{workload} left {leftovers:?} behind");
    std::fs::remove_dir(&dir).expect("remove work dir");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has a unit"
            );
            (name.clone(), value)
        })
        .collect();
    Run {
        correct: v.get("correct").and_then(Json::as_bool).expect("correct"),
        attempted: v
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted"),
        failed: v.get("failed").and_then(Json::as_u64).expect("failed"),
        metrics,
    }
}

/// Metric names of one list in BENCHMARK.json.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let v = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let mut names: Vec<String> = v
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// The metrics that must repeat exactly for one seed.
fn modeled(r: &Run) -> BTreeMap<String, f64> {
    r.metrics
        .iter()
        .filter(|(k, _)| k.starts_with("model_") || k.ends_with(".io_cost") || *k == "kv.write_amp")
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Variables the repository's bench targets read; the benchmark must not.
const ASYM_BENCH_ENV: [(&str, &str); 3] = [
    ("ASYM_BENCH_BACKEND", "file"),
    ("ASYM_BENCH_THREADS", "1"),
    ("ASYM_BENCH_SCALE", "smoke"),
];

/// Five runs of one workload: seed 5 untraced and traced, each twice (the
/// second time with `ASYM_BENCH_*` set, and the untraced one over planted
/// temp roots), and seed 6 untraced.
fn check(workload: &str) {
    let plain = run(workload, 5, false, &[], false);
    let traced = run(workload, 5, true, &[], false);
    for (r, trace, list) in [(&plain, false, "end_to_end"), (&traced, true, "per_layer")] {
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{workload}");
        let names: Vec<String> = r.metrics.keys().cloned().collect();
        assert_eq!(names, declared(list), "{workload} trace={trace}");
    }
    for (name, v) in &plain.metrics {
        assert!(*v > 0.0, "{workload}: end-to-end metric {name} is {v}");
    }

    // One seed repeats the modeled metrics exactly, whatever ASYM_BENCH_*
    // says.
    for (first, trace, stale) in [(&plain, false, true), (&traced, true, false)] {
        let again = run(workload, 5, trace, &ASYM_BENCH_ENV, stale);
        assert!(again.correct, "{workload} trace={trace}");
        let (a, b) = (modeled(first), modeled(&again));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{workload} trace={trace}");
    }

    let other = run(workload, 6, false, &[], false);
    assert!(other.correct, "{workload}");
    assert!(other.metrics.keys().eq(plain.metrics.keys()), "{workload}");
}

#[test]
fn sort_large() {
    check("sort-large");
}

#[test]
fn jobs_http() {
    check("jobs-http");
}

#[test]
fn kv_mixed() {
    check("kv-mixed");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload kv-mixed --seed x --seconds 1 --trace 0",
        "--workload kv-mixed --seed 1 --seconds 1 --trace 2",
        "--workload kv-mixed --seed 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
