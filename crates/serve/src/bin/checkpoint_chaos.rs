//! CI smoke for the checkpoint/resume subsystem — `bench_check` style,
//! panics (non-zero exit) on any violation.
//!
//! Two waves, both on pinned seeds so a red run reproduces exactly:
//!
//! 1. **Kill/recover mid-phase.** Three checkpointed jobs on one worker;
//!    the process is killed as soon as the WAL shows a job mid-flight
//!    (some phase done, more to go), then recovered. Every job must land
//!    `completed` with modeled stats bit-identical to a fault-free staged
//!    run, the per-job phase stream across the whole log must be exactly
//!    `1..=total` with no duplicates (a completed phase is never re-run),
//!    and the resumed job's total paid writes — fault-free total plus the
//!    one interrupted phase it can have re-started — must stay strictly
//!    under 2× the fault-free run.
//!
//! 2. **Fault storm.** Checkpointed jobs under seeded retryable I/O
//!    faults (reads and writes, torn and clean, no panics). Retries keep
//!    whatever phases checkpointed — the phase stream stays
//!    duplicate-free even across `started` attempt boundaries — and the
//!    final telemetry is still bit-identical to the fault-free reference.
//!
//! Artifacts (audit logs + every job's final manifest) land in
//! `CHECKPOINT_CHAOS_DIR` when set, a temp dir otherwise.

use asym_core::sort::{
    self, Algorithm, CheckpointManifest, MemCheckpointer, SortOutcome, SortSpec,
};
use asym_model::workload::Workload;
use asym_serve::{replay, AuditEvent, JobRequest, JobState, ServiceConfig, SortService};
use em_sim::FaultSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn out_dir() -> PathBuf {
    std::env::var_os("CHECKPOINT_CHAOS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("asym-checkpoint-chaos-{}", std::process::id()))
        })
}

fn spec(fault: Option<FaultSpec>) -> SortSpec {
    SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .fault(fault)
        .build()
        .expect("valid spec")
}

fn job(records: usize, data_seed: u64, fault: Option<FaultSpec>) -> JobRequest {
    JobRequest {
        spec: spec(fault),
        workload: Workload::Zipf,
        records,
        data_seed,
        input: None,
        include_output: false,
        deadline_ms: None,
        checkpoint: true,
    }
}

/// Fault-free staged reference for a request: final outcome plus the
/// manifest at every phase (faults are stripped — modeled costs are
/// fault-invariant, so this is exactly what a surviving job must report).
fn reference(request: &JobRequest) -> (SortOutcome, Vec<CheckpointManifest>) {
    let clean = JobRequest {
        spec: spec(None),
        ..request.clone()
    };
    let input = clean.workload.generate(clean.records, clean.data_seed);
    let mut sink = MemCheckpointer::default();
    let outcome = sort::run_staged(&clean.spec, &input, &mut sink).expect("reference run");
    (outcome, sink.manifests)
}

/// Per-job checkpointed phases in log order, and the manifest of the
/// highest phase seen.
fn phase_streams(log: &str) -> BTreeMap<u64, (Vec<u64>, Option<CheckpointManifest>)> {
    let mut streams: BTreeMap<u64, (Vec<u64>, Option<CheckpointManifest>)> = BTreeMap::new();
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(AuditEvent::Checkpointed { id, manifest }) = AuditEvent::from_json(line) {
            let phase = manifest.phases_done;
            let entry = streams.entry(id).or_default();
            if entry.0.last().is_none_or(|&last| phase > last) {
                entry.1 = Some(manifest);
            }
            entry.0.push(phase);
        }
    }
    streams
}

/// The per-phase *write* deltas of a reference manifest stream.
fn write_deltas(manifests: &[CheckpointManifest]) -> Vec<u64> {
    let mut deltas = Vec::with_capacity(manifests.len());
    let mut prev = 0u64;
    for m in manifests {
        deltas.push(m.stats.block_writes - prev);
        prev = m.stats.block_writes;
    }
    deltas
}

/// Assert the job's outcome has stats bit-identical to `want`.
fn assert_stats(service: &SortService, id: u64, want: &SortOutcome, label: &str) {
    let status = service.wait(id).expect("known job");
    assert_eq!(
        status.state,
        JobState::Completed,
        "{label}: job {id} not completed: {:?}",
        status.error
    );
    let got = status.outcome.as_ref().expect("outcome");
    assert_eq!(
        got.stats, want.stats,
        "{label}: job {id} modeled stats diverged from the fault-free reference"
    );
}

/// Dump every job's final manifest (decoded from the log and re-rendered)
/// next to the audit log, as CI evidence.
fn dump_manifests(root: &Path, log: &str) {
    let dir = root.join("manifests");
    std::fs::create_dir_all(&dir).expect("manifest dir");
    for (id, (_, manifest)) in phase_streams(log) {
        let m = manifest.expect("a stream has at least one manifest");
        std::fs::write(dir.join(format!("job-{id}.json")), m.to_json()).expect("write manifest");
    }
}

fn kill_recover_wave(root: &Path) {
    println!("checkpoint_chaos: wave 1 — kill/recover mid-phase");
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.to_path_buf());
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 10;

    let requests = [
        job(400_000, 101, None),
        job(200_000, 102, None),
        job(100_000, 103, None),
    ];
    let refs: Vec<(SortOutcome, Vec<CheckpointManifest>)> =
        requests.iter().map(reference).collect();
    let totals: Vec<u64> = refs.iter().map(|(_, m)| m.len() as u64).collect();
    assert!(totals.iter().all(|&t| t >= 3), "jobs must be multi-phase");

    let service = SortService::start(cfg.clone()).expect("start");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admitted"))
        .collect();

    // Kill as soon as any job is visibly mid-flight in the WAL.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let log = std::fs::read_to_string(root.join("audit.jsonl")).unwrap_or_default();
        let streams = phase_streams(&log);
        let mid_flight = ids.iter().enumerate().any(|(i, id)| {
            streams.get(id).is_some_and(|(phases, _)| {
                let max = phases.iter().copied().max().unwrap_or(0);
                max >= 1
                    && max < totals[i]
                    && !service.status(*id).expect("known").state.is_terminal()
            })
        });
        if mid_flight {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no job was ever observably mid-phase; grow the jobs"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    service.kill();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let pre = replay(&log).expect("replays");
    let killed: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|id| {
            let j = &pre.jobs[id];
            !j.outcome.is_terminal() && j.checkpoint_phase() >= 1
        })
        .collect();
    assert!(
        !killed.is_empty(),
        "the kill must have caught at least one job mid-phase"
    );
    println!(
        "checkpoint_chaos: killed with job(s) {killed:?} mid-phase (phases {:?})",
        killed
            .iter()
            .map(|id| pre.jobs[id].checkpoint_phase())
            .collect::<Vec<_>>()
    );

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert!(report.requeued >= 1, "unfinished jobs must be re-queued");
    for (i, id) in ids.iter().enumerate() {
        assert_stats(&service, *id, &refs[i].0, "wave 1");
    }
    service.drain();
    drop(service);

    // Whole-log phase accounting: exactly 1..=total per job, no phase
    // ever re-run — the WAL-visible form of "resume starts at k+1".
    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let streams = phase_streams(&log);
    for (i, id) in ids.iter().enumerate() {
        let (phases, _) = &streams[id];
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (1..=totals[i]).collect::<Vec<_>>(),
            "job {id}: phase stream has duplicates or holes: {phases:?}"
        );
    }

    // The 2× gate: a resumed job paid, at most, the fault-free total plus
    // the one phase the kill interrupted (whose completed phases were
    // restored from the manifest, not re-run). Strictly under 2×.
    for id in &killed {
        let i = ids.iter().position(|x| x == id).expect("known id");
        let fault_free = refs[i].0.stats.block_writes;
        let deltas = write_deltas(&refs[i].1);
        let interrupted = pre.jobs[id].checkpoint_phase() as usize; // died in phase k+1
        let paid_bound = fault_free + deltas[interrupted];
        assert!(
            paid_bound < 2 * fault_free,
            "job {id}: paid-writes bound {paid_bound} not under 2x fault-free {fault_free}"
        );
        println!(
            "checkpoint_chaos: job {id} resumed from phase {} — paid ≤ {paid_bound} writes \
             vs {fault_free} fault-free ({:.2}x)",
            interrupted,
            paid_bound as f64 / fault_free as f64
        );
    }
    dump_manifests(root, &log);
}

fn fault_storm_wave(root: &Path) {
    println!("checkpoint_chaos: wave 2 — seeded retryable-fault storm");
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = ServiceConfig::new(2, u64::MAX, root.to_path_buf());
    cfg.max_attempts = 8; // rates decay to zero well inside this
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 10;

    // Retryable flavors only (reads, writes, half of them torn) — the
    // storm exercises resume-under-retry, not catch_unwind.
    let storm = |seed: u64| {
        let mut f = FaultSpec::new(seed);
        f.read_permille = 1;
        f.write_permille = 1;
        f.short_permille = 500;
        f
    };
    let requests = [
        job(60_000, 201, Some(storm(0xC0AC))),
        job(40_000, 202, Some(storm(0x5EED))),
        job(30_000, 203, Some(storm(0xFA11))),
    ];
    let refs: Vec<(SortOutcome, Vec<CheckpointManifest>)> =
        requests.iter().map(reference).collect();

    let service = SortService::start(cfg).expect("start");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admitted"))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        assert_stats(&service, *id, &refs[i].0, "wave 2");
    }
    service.drain();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let rep = replay(&log).expect("replays");
    assert!(
        rep.pending().next().is_none(),
        "every job terminal after the storm"
    );
    let retried: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|id| rep.jobs[id].attempts > 1)
        .collect();
    println!(
        "checkpoint_chaos: storm settled — {} retries across jobs {retried:?}",
        rep.retries
    );

    // Even across retry boundaries no phase is ever paid twice: the
    // stream per job is duplicate-free, and whatever prefix an attempt
    // checkpointed survives into the next attempt.
    let streams = phase_streams(&log);
    for (i, id) in ids.iter().enumerate() {
        let (phases, _) = &streams[id];
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        let total = refs[i].1.len() as u64;
        assert_eq!(
            sorted,
            (1..=total).collect::<Vec<_>>(),
            "job {id}: a retry re-ran a checkpointed phase: {phases:?}"
        );
    }
    dump_manifests(root, &log);
}

fn main() {
    // Injected write faults surface as `StoreIoPanic` inside the workers'
    // catch_unwind; silence the hook for worker threads only so the storm
    // doesn't spray backtraces (main-thread panics stay visible — they
    // are the failures this binary exists to report).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sort-worker"));
        if !worker {
            default_hook(info);
        }
    }));
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("output dir");
    kill_recover_wave(&out.join("kill-recover"));
    fault_storm_wave(&out.join("fault-storm"));
    println!("checkpoint_chaos: ok (artifacts in {})", out.display());
}
