//! What every workload shares: the run context, the seeded generator, and
//! the set-up → untraced phase → traced phase sequence.

use crate::report::{median, Metrics, Phase, TIMED};
use std::path::PathBuf;
use std::time::Instant;

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The directory this run owns: the system temp dir and every service
    /// root point into it.
    pub tmp: PathBuf,
}

/// splitmix64: a small, seedable generator, so the inputs depend on
/// `--seed` and on nothing else.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a run: `salt` keeps the streams
    /// of different workloads apart.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The result of one workload run, before rendering.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Run one workload: set up [`SETUPS`] times (timing each, keeping the
/// last state) and measure one untraced phase of `--seconds`. With
/// `--trace 1` the untraced phase gets half of `--seconds`, and a second
/// set-up is measured traced for the other half, over the same inputs.
/// End-to-end metrics come from an untraced phase only; the traced phase
/// supplies the per-layer metrics, and comparing the two gives the
/// tracing overhead.
pub fn drive<S>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<S, String>,
    mut measure: impl FnMut(S, bool, f64) -> Result<Phase, String>,
) -> Result<Outcome, String> {
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    eprintln!("set-ups: {setup_s:.3?} s");
    let plain = measure(state.expect("SETUPS > 0"), false, seconds)?;
    let plain_t = plain.timings();
    eprintln!(
        "untraced: {:.3} s, {} jobs, {} ops, {}/{} failed",
        plain.wall_s,
        plain.jobs.len(),
        plain.ops.len(),
        plain.failed,
        plain.attempted
    );
    if !ctx.trace {
        let mut metrics = plain_t;
        metrics.insert(
            "model_writes_per_record".into(),
            plain.model.writes_per_record(),
        );
        metrics.insert("model_io_per_record".into(), plain.model.io_per_record());
        metrics.insert("model_peak_records".into(), plain.model.peak_records as f64);
        metrics.insert("setup_s".into(), median(&setup_s));
        metrics.insert(
            "peak_rss_mb".into(),
            plain.peak_rss_mb.ok_or("peak RSS was not sampled")?,
        );
        return Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
        });
    }
    let traced = measure(setup()?, true, seconds)?;
    let traced_t = traced.timings();
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let mut metrics = traced.layers;
    for name in TIMED {
        metrics.insert(
            format!("trace.overhead.{name}"),
            traced_t[name] / plain_t[name],
        );
    }
    // Wall time per operation, traced over untraced.
    metrics.insert(
        "trace.overhead_ratio".into(),
        plain_t["ops_per_s"] / traced_t["ops_per_s"],
    );
    metrics.insert(
        "failed_ratio".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    metrics.insert("job.samples".into(), plain.jobs.len() as f64);
    metrics.insert("op.samples".into(), plain.ops.len() as f64);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The process's peak resident set so far (`VmHWM`), in MiB. Each workload
/// samples it at the end of its fixed slice of work (the one the `model_*`
/// metrics cover), so the figure does not grow with the number of
/// operations a faster run gets through.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_depend_on_seed_and_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        let mut r = Rng::new(5, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
