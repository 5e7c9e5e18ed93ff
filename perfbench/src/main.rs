//! The repository benchmark. Usage:
//!
//! ```text
//! perfbench --workload <sort-large|jobs-http|kv-mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures for `--seconds`, checks every
//! output, and prints one JSON object as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress and the span summary go to standard error. See
//! README.md for the workloads and the layer → metric → workload map.

mod harness;
mod jobs_http;
mod kv_mixed;
mod report;
mod sort_large;
mod trace;

use harness::Ctx;
use report::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The directory (relative to the working directory) under which each run
/// gets its own temp root.
const TMP_PARENT: &str = ".bench_tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// A directory the run owns; removed on drop, also when the run fails. A
/// run killed by a signal skips the drop, so [`TempRoot::create`] first
/// removes the roots of runs that are no longer alive.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create(name: &str) -> Result<TempRoot, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let parent = cwd.join(TMP_PARENT);
        remove_stale_roots(&parent);
        let dir = parent.join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds when no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Remove every `<workload>-<pid>` root under `parent` whose process has
/// ended (no `/proc/<pid>`). Does nothing where `/proc` cannot tell.
fn remove_stale_roots(parent: &Path) {
    let proc_root = Path::new("/proc");
    if !proc_root.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.rsplit_once('-'))
            .and_then(|(_, pid)| pid.parse::<u32>().ok())
        else {
            continue;
        };
        if !proc_root.join(pid.to_string()).exists() {
            eprintln!("removing the temp root of ended run {pid}");
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Bytes in every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

fn run(args: Args) -> Result<String, String> {
    let tmp = TempRoot::create(args.workload.name())?;
    // Everything that asks for the system temp dir (file-backend stores,
    // the KV engine's embedded service) lands in the run's own root. Set
    // before any thread starts.
    std::env::set_var("TMPDIR", &tmp.0);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: tmp.0.clone(),
    };
    let mut outcome = match args.workload {
        Workload::SortLarge => sort_large::run(&ctx),
        Workload::JobsHttp => jobs_http::run(&ctx),
        Workload::KvMixed => kv_mixed::run(&ctx),
    }?;
    // The workload's engines and services have dropped by now: whatever
    // is left in the root is residue.
    let residue = dir_bytes(&tmp.0);
    if args.trace {
        outcome
            .metrics
            .insert("tmp.residue_bytes".into(), residue as f64);
    }
    eprintln!("temp residue: {residue} bytes");
    report::render(
        args.workload,
        args.trace,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
