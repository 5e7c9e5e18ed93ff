//! The metric catalog, the shared shape of one measured phase, and the
//! final JSON line.
//!
//! Every workload prints the same metric set: the end-to-end metrics with
//! `--trace 0` and the per-layer metrics with `--trace 1`. End-to-end
//! metrics are defined on every workload (see README.md for what "job" and
//! "op" mean on each). A per-layer metric belongs to the workloads that
//! exercise its layer; on the others it reads 0, meaning "not exercised".

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SortLarge,
    JobsHttp,
    KvMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SortLarge, Workload::JobsHttp, Workload::KvMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SortLarge => "sort-large",
            Workload::JobsHttp => "jobs-http",
            Workload::KvMixed => "kv-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics: (name, unit). Timed with tracing off.
pub const END_TO_END: [(&str, &str); 12] = [
    ("sort_records_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("model_writes_per_record", "blocks/record"),
    ("model_io_per_record", "cost/record"),
    ("model_peak_records", "records"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The end-to-end timing metrics a traced run compares against its own
/// untraced phase (`trace.overhead.<name>`).
pub const TIMED: [&str; 7] = [
    "sort_records_per_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_p95_ms",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
];

const SORT: &[Workload] = &[Workload::SortLarge];
const JOBS: &[Workload] = &[Workload::JobsHttp];
const KV: &[Workload] = &[Workload::KvMixed];
const SORT_JOBS: &[Workload] = &[Workload::SortLarge, Workload::JobsHttp];
const ALL: &[Workload] = &Workload::ALL;

/// Per-layer metrics: (name, unit, workloads that exercise the layer).
pub const PER_LAYER: [(&str, &str, &[Workload]); 53] = [
    ("em_sim.stream_records_per_s", "1/s", SORT),
    ("em_sim.block_transfers_per_s", "1/s", SORT_JOBS),
    ("sort.mergesort_k1.wall_s", "s", SORT),
    ("sort.mergesort_k1.io_cost", "cost", SORT),
    ("sort.mergesort_k4.wall_s", "s", SORT),
    ("sort.mergesort_k4.io_cost", "cost", SORT),
    ("sort.samplesort.wall_s", "s", SORT),
    ("sort.samplesort.io_cost", "cost", SORT),
    ("sort.heapsort.wall_s", "s", SORT),
    ("sort.heapsort.io_cost", "cost", SORT),
    ("sort.par_samplesort_l1.wall_s", "s", SORT),
    ("sort.par_samplesort_l1.io_cost", "cost", SORT),
    ("sort.par_samplesort_l2.wall_s", "s", SORT),
    ("sort.par_samplesort_l2.io_cost", "cost", SORT),
    ("sort.par.lane_speedup", "ratio", SORT),
    ("wire.encode_us_per_job", "us", JOBS),
    ("wire.decode_us_per_job", "us", JOBS),
    ("http.healthz_p50_us", "us", JOBS),
    ("http.bytes_per_job", "bytes", JOBS),
    ("http.errors", "count", JOBS),
    ("http.requests", "count", JOBS),
    ("service.submit_p50_ms", "ms", JOBS),
    ("service.wait_p50_ms", "ms", JOBS),
    ("service.sort_share", "ratio", JOBS),
    ("service.sort_wall_s", "s", JOBS),
    ("service.job_wall_s", "s", JOBS),
    ("service.wal_bytes_per_job", "bytes", JOBS),
    ("service.retried", "count", JOBS),
    ("service.rejected", "count", JOBS),
    ("service.expired", "count", JOBS),
    ("kv.compaction.count", "count", KV),
    ("kv.compaction.wall_s", "s", KV),
    ("kv.compaction.max_ms", "ms", KV),
    ("kv.compaction.records_per_s", "1/s", KV),
    ("kv.compaction.input_records", "records", KV),
    ("kv.get_reads_per_get", "blocks", KV),
    ("kv.get_p50_us", "us", KV),
    ("kv.get_p99_us", "us", KV),
    ("kv.scan_p50_us", "us", KV),
    ("kv.put_p999_us", "us", KV),
    ("kv.write_amp", "ratio", KV),
    ("failed_ratio", "ratio", ALL),
    ("job.samples", "count", ALL),
    ("op.samples", "count", ALL),
    ("tmp.residue_bytes", "bytes", ALL),
    ("trace.overhead_ratio", "ratio", ALL),
    ("trace.overhead.sort_records_per_s", "ratio", ALL),
    ("trace.overhead.jobs_per_s", "ratio", ALL),
    ("trace.overhead.job_p50_ms", "ratio", ALL),
    ("trace.overhead.job_p95_ms", "ratio", ALL),
    ("trace.overhead.ops_per_s", "ratio", ALL),
    ("trace.overhead.op_p50_us", "ratio", ALL),
    ("trace.overhead.op_p99_us", "ratio", ALL),
];

/// Named metric values.
pub type Metrics = BTreeMap<String, f64>;

/// Metrics from (name, value) pairs.
pub fn metrics<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Metrics {
    pairs
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// The paper's modeled costs over a fixed, seed-determined slice of a
/// workload, so they repeat exactly for one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Model {
    /// Block writes.
    pub writes: u64,
    /// Block reads.
    pub reads: u64,
    /// ω of every machine in the workload.
    pub omega: u64,
    /// The base: records sorted, or user updates on `kv-mixed`.
    pub base: u64,
    /// Largest peak primary memory of any single job or run, in records.
    pub peak_records: u64,
}

impl Model {
    pub fn writes_per_record(&self) -> f64 {
        self.writes as f64 / self.base as f64
    }

    pub fn io_per_record(&self) -> f64 {
        (self.reads + self.omega * self.writes) as f64 / self.base as f64
    }
}

/// One completed sort job.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Latency in seconds.
    pub secs: f64,
    /// Records it sorted (0 when its output failed a check).
    pub records: f64,
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    /// The time throughputs divide by: the measured loop's wall time (on
    /// sort-large, sweeps × the sum of each sorter's median call time).
    pub wall_s: f64,
    /// Every sort job completed.
    pub jobs: Vec<Job>,
    /// Latency of every client operation, in seconds.
    pub ops: Vec<f64>,
    /// Operations and output checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// Modeled costs of the phase's fixed slice.
    pub model: Model,
    /// Peak RSS in MiB at the end of that slice ([`crate::harness::peak_rss_mb`]).
    pub peak_rss_mb: Option<f64>,
    /// Layer metrics derived from the trace (traced phase only).
    pub layers: Metrics,
}

impl Phase {
    /// Record a finished job.
    pub fn job(&mut self, secs: f64, records: f64) {
        self.jobs.push(Job { secs, records });
    }

    /// Record a finished client operation.
    pub fn op(&mut self, secs: f64) {
        self.ops.push(secs);
    }

    /// Fold in the samples and counts of another client's phase.
    pub fn absorb(&mut self, other: Phase) {
        self.jobs.extend(other.jobs);
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The seven timing metrics of [`TIMED`].
    pub fn timings(&self) -> Metrics {
        let mut jobs: Vec<f64> = self.jobs.iter().map(|s| s.secs).collect();
        let mut ops = self.ops.clone();
        let records: f64 = self.jobs.iter().map(|s| s.records).sum();
        metrics([
            ("sort_records_per_s", records / self.wall_s),
            ("jobs_per_s", jobs.len() as f64 / self.wall_s),
            ("job_p50_ms", quantile(&mut jobs, 0.50) * 1e3),
            ("job_p95_ms", quantile(&mut jobs, 0.95) * 1e3),
            ("ops_per_s", ops.len() as f64 / self.wall_s),
            ("op_p50_us", quantile(&mut ops, 0.50) * 1e6),
            ("op_p99_us", quantile(&mut ops, 0.99) * 1e6),
        ])
    }
}

/// The `q`-quantile of `xs` (linear interpolation between closest ranks);
/// 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of the requested kind in catalog order. A metric missing
/// from `values` is an error for a workload that owns it and 0 otherwise.
pub fn render(
    workload: Workload,
    trace: bool,
    attempted: u64,
    failed: u64,
    values: &Metrics,
) -> Result<String, String> {
    let catalog: Vec<(&str, &str, bool)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u, owners)| (n, u, owners.contains(&workload)))
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit, owned)) in catalog.into_iter().enumerate() {
        let value = match values.get(name) {
            Some(&v) => v,
            None if !owned => 0.0,
            None => {
                return Err(format!(
                    "{}: metric {name} was not measured",
                    workload.name()
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{}: metric {name} is {value}", workload.name()));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn unowned_layer_metrics_read_zero_and_owned_ones_are_required() {
        let line = render(Workload::SortLarge, true, 1, 0, &Metrics::new());
        assert!(line.unwrap_err().contains("em_sim.stream_records_per_s"));
        let all = metrics(PER_LAYER.iter().map(|m| (m.0, 1.5)));
        let line = render(Workload::KvMixed, true, 3, 0, &all).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"kv.write_amp\": {\"value\": 1.5, \"unit\": \"ratio\"}"));
    }
}
