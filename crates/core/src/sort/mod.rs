//! The unified sort-job API: one front door for every AEM sort.
//!
//! The paper presents its three sequential sorts and the parallel schedule
//! as instances of one question — how many reads and ω-weighted writes does
//! a sort pay on a machine with memory `M`, blocks `B`, and write cost ω —
//! so the repo fronts them with one job description and one entry point:
//!
//! * [`SortSpec`] — a validated, serializable-in-spirit description of one
//!   job: algorithm, geometry `(M, B, ω)`, write-saving factor `k`, lanes,
//!   storage [`Backend`](em_sim::Backend), seed, slack, and the §2
//!   steal-charging knob. Invalid combinations are typed [`SpecError`]s at
//!   build time; [`SortSpecBuilder::from_env`] absorbs the `ASYM_BENCH_*`
//!   variables in one place.
//! * [`run`] — the one entry point: `run(&spec, input) -> SortOutcome`
//!   dispatches on the spec's [`Algorithm`] to its engine. Consumers that
//!   want "all the sorts" (differential suites, experiment sweeps) iterate
//!   [`Algorithm::ALL`] instead of hard-coding call sites.
//! * [`SortOutcome`] — output, merged [`EmStats`], a [`CostReport`], and
//!   per-lane / per-phase / scheduler detail ([`ParData`]) for parallel runs.
//! * [`SortSpec::predict`] — the paper's cost bounds evaluated pre-run as a
//!   [`CostEstimate`], the admission-control currency of the job server.
//! * [`SortSpec::to_json`] / [`SortOutcome::to_json`] — the JSON wire
//!   format ([`wire`]), with every decode failure a typed [`WireError`].
//!
//! ```
//! use asym_core::sort::{Algorithm, SortSpec};
//! use asym_model::workload::Workload;
//!
//! let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
//!     .k(4) // trade 4x reads for ~1/2 the write levels
//!     .build()
//!     .expect("valid spec");
//! let input = Workload::UniformRandom.generate(10_000, 42);
//! let outcome = asym_core::sort::run(&spec, &input).expect("sort");
//! assert!(outcome.output.windows(2).all(|w| w[0] <= w[1]));
//! println!(
//!     "{}: {} reads, {} writes, I/O cost {}",
//!     spec.algorithm(),
//!     outcome.stats.block_reads,
//!     outcome.stats.block_writes,
//!     outcome.io_cost()
//! );
//! ```

pub mod checkpoint;
pub mod predict;
pub mod spec;
pub mod wire;

pub use checkpoint::{
    input_digest, predict_staged, resume_from, run_staged, CheckpointManifest, Checkpointer,
    MemCheckpointer, StagePlan, MANIFEST_VERSION,
};

pub use crate::par::ParData;
pub use predict::CostEstimate;
pub use spec::{
    env_backend, env_thread_cap, parse_backend, parse_thread_cap, Algorithm, SortSpec,
    SortSpecBuilder, SpecError, BACKEND_ENV, THREADS_ENV,
};
pub use wire::WireError;

use crate::em::heapsort::heapsort_run;
use crate::em::mergesort::{aem_mergesort_opts, MergeOpts};
use crate::em::samplesort::samplesort_run;
use crate::par::aem_sample_sort::par_sample_sort_run;
use asym_model::{CostReport, Record, Result};
use em_sim::{EmMachine, EmStats, EmVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything one sort job produced, regardless of algorithm: the sorted
/// records, the merged transfer statistics, their ω-weighted rendering, and
/// — for parallel runs — the per-lane / per-phase / scheduler detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortOutcome {
    /// The sorted records (gathered to host memory, uncharged — the
    /// disk-resident runs are the algorithm's output).
    pub output: Vec<Record>,
    /// Transfer statistics, merged across lanes for parallel runs. Includes
    /// the steal warm-up charge when the spec enables it.
    pub stats: EmStats,
    /// `stats` rendered under the spec's ω.
    pub report: CostReport,
    /// Parallel-only detail (`None` for the sequential algorithms).
    pub parallel: Option<ParData>,
}

impl SortOutcome {
    /// Total asymmetric I/O cost `reads + ω·writes`.
    pub fn io_cost(&self) -> u64 {
        self.report.total()
    }

    /// The transfer stats with any steal warm-up charge subtracted back out
    /// — the schedule-invariant base counts E13's work-preservation claim
    /// is about. Identical to `stats` for sequential runs and for parallel
    /// runs with the knob off.
    pub fn base_stats(&self) -> EmStats {
        match &self.parallel {
            Some(par) => EmStats {
                block_reads: self.stats.block_reads - par.steal_warmup.block_reads,
                block_writes: self.stats.block_writes - par.steal_warmup.block_writes,
                peak_memory: self.stats.peak_memory,
            },
            None => self.stats,
        }
    }
}

/// Run the job described by `spec` over `input`: build the spec's machine
/// (or lane bank), run its algorithm's engine, and report the outcome.
/// Runtime faults (backend I/O, exceeded leases) surface as
/// [`ModelError`](asym_model::ModelError)s; a `SortSpec` that exists has
/// already passed validation.
pub fn run(spec: &SortSpec, input: &[Record]) -> Result<SortOutcome> {
    let k = spec.k();
    match spec.algorithm() {
        Algorithm::Mergesort => run_serial(spec, input, true, |em, v| {
            aem_mergesort_opts(em, v, k, MergeOpts::default())
        }),
        // The spec's seed drives the splitter sampling, so runs are
        // deterministic in the spec.
        Algorithm::Samplesort => run_serial(spec, input, true, |em, v| {
            samplesort_run(em, v, k, &mut StdRng::seed_from_u64(spec.seed()))
        }),
        Algorithm::Heapsort => run_serial(spec, input, false, |em, v| heapsort_run(em, v, k)),
        Algorithm::ParSamplesort => {
            let par = spec.par_machine()?;
            let (output, stats, detail) =
                par_sample_sort_run(&par, input, k, spec.seed(), spec.steal_charge())?;
            assert_eq!(par.live_blocks(), 0, "a run must release every block");
            Ok(SortOutcome {
                output,
                stats,
                report: stats.report(spec.omega()),
                parallel: Some(detail),
            })
        }
    }
}

/// Sequential plumbing: build the spec's machine, stage the input
/// (uncharged), run the engine, gather the output, and leave the store
/// exactly as clean as the engine left it. `expect_clean` asserts a
/// fully-released store after the output is freed — the mergesort and
/// sample sort guarantee it; the heapsort's drained priority queue retains
/// empty structural blocks, so it opts out.
fn run_serial(
    spec: &SortSpec,
    input: &[Record],
    expect_clean: bool,
    engine: impl FnOnce(&EmMachine, EmVec) -> Result<EmVec>,
) -> Result<SortOutcome> {
    let em = spec.machine()?;
    let staged = EmVec::stage(&em, input);
    let sorted = engine(&em, staged)?;
    let output = sorted.read_all_uncharged(&em);
    sorted.free(&em);
    if expect_clean {
        assert_eq!(em.live_blocks(), 0, "engine leaked disk blocks");
    }
    let stats = em.stats();
    Ok(SortOutcome {
        output,
        stats,
        report: stats.report(spec.omega()),
        parallel: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;

    #[test]
    fn every_sorter_sorts_and_reports_costs() {
        let input = Workload::UniformRandom.generate(1200, 0x5027);
        for algorithm in Algorithm::ALL {
            let spec = SortSpec::builder(algorithm, 32, 4, 8)
                .k(2)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .seed(11)
                .build()
                .expect("valid spec");
            let outcome = run(&spec, &input).expect("run");
            assert_sorted_permutation(&input, &outcome.output);
            assert!(outcome.stats.block_writes > 0, "{algorithm}");
            assert_eq!(
                outcome.io_cost(),
                outcome.stats.block_reads + 8 * outcome.stats.block_writes
            );
            assert_eq!(
                outcome.parallel.is_some(),
                algorithm.is_parallel(),
                "{algorithm}"
            );
            assert_eq!(outcome.base_stats(), outcome.stats, "knob off: no warm-up");
        }
    }
}
