//! Checkpointed jobs through the whole service lifecycle: a job killed
//! after phase k resumes from phase k+1 (never re-running a paid phase),
//! with output byte-identical and modeled stats bit-identical to an
//! uninterrupted staged run; a torn `checkpointed` line is tolerated and
//! truncated; a stale manifest after the terminal outcome is ignored; and
//! recovery is idempotent.

use asym_core::sort::{self, Algorithm, MemCheckpointer, SortOutcome, SortSpec};
use asym_model::workload::Workload;
use asym_serve::{
    replay, AuditEvent, JobRequest, JobState, ReplayOutcome, ServiceConfig, SortService,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn staged_job(records: usize) -> JobRequest {
    JobRequest {
        spec: SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .build()
            .expect("valid spec"),
        workload: Workload::Zipf,
        records,
        data_seed: 31,
        input: None,
        include_output: true,
        deadline_ms: None,
        checkpoint: true,
    }
}

/// The phases recorded in the WAL for `id`, in log order.
fn checkpointed_phases(root: &Path, id: u64) -> Vec<u64> {
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| match AuditEvent::from_json(l) {
            Ok(AuditEvent::Checkpointed { id: jid, manifest }) if jid == id => {
                Some(manifest.phases_done)
            }
            _ => None,
        })
        .collect()
}

/// The fault-free staged reference for a request: output, stats, and the
/// full manifest stream an uninterrupted run produces.
fn reference(request: &JobRequest) -> (SortOutcome, MemCheckpointer) {
    let input = request
        .workload
        .generate(request.records, request.data_seed);
    let mut sink = MemCheckpointer::default();
    let outcome = sort::run_staged(&request.spec, &input, &mut sink).expect("staged reference");
    (outcome, sink)
}

#[test]
fn job_killed_after_phase_k_resumes_from_phase_k_plus_one() {
    let root = fresh_root("kill-resume");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let request = staged_job(150_000);
    let (want, full) = reference(&request);
    let total = full.manifests.len() as u64;
    assert!(total >= 3, "need a multi-phase job to kill mid-flight");

    // Run until the WAL shows real mid-job progress, then pull the plug.
    let service = SortService::start(cfg.clone()).expect("start");
    let id = service.submit(request.clone()).expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let phases = checkpointed_phases(&root, id);
        if phases.iter().any(|&p| p >= 1 && p < total) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no mid-job checkpoint appeared; phases so far: {phases:?}"
        );
        assert!(
            !service.status(id).expect("known").state.is_terminal(),
            "job finished before the kill — grow the job size"
        );
        std::thread::sleep(Duration::from_micros(300));
    }
    service.kill();
    drop(service);

    let pre = replay(&std::fs::read_to_string(root.join("audit.jsonl")).expect("audit"))
        .expect("replays");
    let k = pre.jobs[&id].checkpoint_phase();
    assert!(
        k >= 1 && k < total,
        "killed mid-job at phase {k} of {total}"
    );
    assert_eq!(pre.jobs[&id].outcome, ReplayOutcome::Pending);

    // Recover: the job comes back WITH its manifest and completes.
    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!(report.requeued, 1);
    let done = service.wait(id).expect("known job");
    assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
    let got = done.outcome.as_ref().expect("outcome");
    assert_eq!(got.output, want.output, "resumed output diverged");
    assert_eq!(
        got.stats, want.stats,
        "resume ⊕ prefix modeled stats diverged from an uninterrupted run"
    );
    service.drain();
    drop(service);

    // The resume picked up at phase k+1: across the whole log every phase
    // appears exactly once — completed phases were never re-run, which is
    // the "never redo paid writes" property in WAL form.
    let phases = checkpointed_phases(&root, id);
    let mut sorted = phases.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        (1..=total).collect::<Vec<_>>(),
        "phase stream with duplicates or holes: {phases:?}"
    );
    // And the durable manifests agree bit-for-bit with the uninterrupted
    // reference stream at every phase.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(AuditEvent::Checkpointed {
            id: jid,
            manifest: m,
        }) = AuditEvent::from_json(line)
        {
            if jid == id {
                let phase = m.phases_done;
                assert_eq!(&m, &full.manifests[(phase - 1) as usize], "phase {phase}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_checkpoint_line_is_tolerated_and_resume_starts_from_the_last_whole_one() {
    let root = fresh_root("torn");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = staged_job(2_000);
    let (want, full) = reference(&request);

    // Hand-build a WAL: the job was accepted, started, checkpointed twice
    // — and the third manifest line was torn mid-write by the crash.
    let mut log = String::new();
    for ev in [
        AuditEvent::Accepted {
            id: 0,
            request: request.clone(),
            predicted_bytes: request.predict().peak_bytes(),
        },
        AuditEvent::Started { id: 0, attempt: 1 },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[0].clone(),
        },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[1].clone(),
        },
    ] {
        log.push_str(&ev.to_json());
        log.push('\n');
    }
    let torn = AuditEvent::Checkpointed {
        id: 0,
        manifest: full.manifests[2].clone(),
    }
    .to_json();
    log.push_str(&torn[..torn.len() / 2]); // crash mid-write
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let rep = replay(&log).expect("torn tail tolerated");
    assert!(rep.torn_tail);
    assert_eq!(
        rep.jobs[&0].checkpoint_phase(),
        2,
        "last whole manifest wins"
    );

    let (service, report) =
        SortService::recover(ServiceConfig::new(1, u64::MAX, root.clone())).expect("recover");
    assert!(report.torn_tail);
    assert_eq!(report.requeued, 1);
    let done = service.wait(0).expect("known job");
    assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
    let got = done.outcome.as_ref().expect("outcome");
    assert_eq!(got.output, want.output);
    assert_eq!(got.stats, want.stats);
    service.drain();
    drop(service);

    // The resumed attempt re-recorded only phases 3.. — phases 1 and 2
    // still appear exactly once each in the (truncated, then appended)
    // log.
    let phases = checkpointed_phases(&root, 0);
    assert_eq!(phases.iter().filter(|&&p| p == 1).count(), 1);
    assert_eq!(phases.iter().filter(|&&p| p == 2).count(), 1);
    assert!(phases.contains(&(full.manifests.len() as u64)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_manifest_after_terminal_outcome_is_ignored_and_recovery_is_idempotent() {
    let root = fresh_root("stale");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = staged_job(2_000);
    let (want, full) = reference(&request);
    let outcome = std::sync::Arc::new(want.clone());

    let mut log = String::new();
    for ev in [
        AuditEvent::Accepted {
            id: 0,
            request: request.clone(),
            predicted_bytes: request.predict().peak_bytes(),
        },
        AuditEvent::Started { id: 0, attempt: 1 },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests.last().unwrap().clone(),
        },
        AuditEvent::Completed {
            id: 0,
            outcome: outcome.clone(),
            output_len: request.records,
            include_output: true,
        },
        // A stale (older) manifest line landing after the terminal
        // outcome — replay must not resurrect the job or touch progress.
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[0].clone(),
        },
    ] {
        log.push_str(&ev.to_json());
        log.push('\n');
    }
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    for round in 0..2 {
        let (service, report) = SortService::recover(cfg.clone()).expect("recover");
        assert_eq!(
            report.requeued, 0,
            "round {round}: terminal jobs stay terminal"
        );
        assert_eq!(report.restored, 1, "round {round}");
        let done = service.status(0).expect("known job");
        assert_eq!(done.state, JobState::Completed);
        let got = done.outcome.as_ref().expect("outcome");
        assert_eq!(got.output, want.output, "round {round}");
        assert_eq!(got.stats, want.stats, "round {round}");
        service.kill(); // leave the log as-is for the next round
        drop(service);
    }
    let _ = std::fs::remove_dir_all(&root);
}
