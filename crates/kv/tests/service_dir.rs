//! Temp-dir lifecycle of the embedded compaction service: the directory an
//! `AsymKv` creates for its in-process `SortService` is gone once the
//! engine drops. Its own test binary, so no concurrently running test of
//! this process creates service dirs while the temp dir is listed.

use asym_kv::{AsymKv, KvConfig};
use std::path::PathBuf;

/// This process's embedded-service dirs under the system temp dir.
fn service_dirs() -> Vec<PathBuf> {
    let prefix = format!("asym-kv-svc-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("list temp dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with(&prefix))
        })
        .collect()
}

#[test]
fn embedded_service_dir_is_removed_when_the_engine_drops() {
    assert!(service_dirs().is_empty(), "{:?}", service_dirs());
    let mut cfg = KvConfig::new(8);
    cfg.m = 64;
    cfg.b = 4;
    cfg.memtable_cap = 8;
    let mut kv = AsymKv::new(cfg).expect("engine");
    for key in 0..200u64 {
        kv.put(key, key * 3).expect("put");
    }
    assert!(!kv.compactions().is_empty(), "the workload must compact");
    let dirs = service_dirs();
    assert_eq!(dirs.len(), 1, "{dirs:?}");
    assert!(dirs[0].join("audit.jsonl").exists());

    drop(kv);
    assert!(service_dirs().is_empty(), "{:?}", service_dirs());
}
