//! `sort-large`: direct `sort::run` calls over the registry sweep on one
//! large uniform input. Nearly all wall time is in `em-sim` and the sort
//! engines; no service, HTTP, wire or KV code runs.

use crate::harness::{drive, peak_rss_mb, Ctx, Outcome, Rng};
use crate::report::{median, metrics, Metrics, Model, Phase};
use crate::trace::{Trace, Tracer};
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::workload::Workload as Gen;
use asym_model::Record;
use em_sim::{EmConfig, EmMachine, EmStats, EmVec, EmWriter};
use std::time::Instant;

/// Geometry of every sort in this workload (and of the `jobs-http` jobs).
pub const M: usize = 1024;
pub const B: usize = 32;
pub const OMEGA: u64 = 8;

/// One entry of the registry sweep.
pub struct Config {
    /// Span name of one `sort::run` call, and the prefix of its metrics
    /// (`sort.<cfg>.wall_s`, `sort.<cfg>.io_cost`).
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub k: usize,
    pub lanes: usize,
}

/// The sweep: mergesort at k=1 and k=4, samplesort at k=4, heapsort, and
/// par-samplesort (k=4) at 1 and 2 lanes.
pub const SWEEP: [Config; 6] = [
    Config {
        name: "sort.mergesort_k1",
        algorithm: Algorithm::Mergesort,
        k: 1,
        lanes: 1,
    },
    Config {
        name: "sort.mergesort_k4",
        algorithm: Algorithm::Mergesort,
        k: 4,
        lanes: 1,
    },
    Config {
        name: "sort.samplesort",
        algorithm: Algorithm::Samplesort,
        k: 4,
        lanes: 1,
    },
    Config {
        name: "sort.heapsort",
        algorithm: Algorithm::Heapsort,
        k: 1,
        lanes: 1,
    },
    Config {
        name: "sort.par_samplesort_l1",
        algorithm: Algorithm::ParSamplesort,
        k: 4,
        lanes: 1,
    },
    Config {
        name: "sort.par_samplesort_l2",
        algorithm: Algorithm::ParSamplesort,
        k: 4,
        lanes: 2,
    },
];

const L1: usize = 4;
const L2: usize = 5;

/// Salt of this workload's input stream.
const SALT: u64 = 1;
/// Records in the input.
const N: usize = 1_000_000;

impl Config {
    /// The mem-backend spec of this configuration (built explicitly; no
    /// environment variable reaches it).
    pub fn spec(&self, seed: u64) -> Result<SortSpec, String> {
        SortSpec::builder(self.algorithm, M, B, OMEGA)
            .k(self.k)
            .lanes(self.lanes)
            .seed(seed)
            .build()
            .map_err(|e| format!("{}: {e}", self.name))
    }
}

struct State {
    input: Vec<Record>,
    sorted: Vec<Record>,
    specs: Vec<SortSpec>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    drive(
        ctx,
        || {
            let (input, spec_seed) = inputs(ctx.seed, N);
            let mut sorted = input.clone();
            sorted.sort_unstable();
            let specs = SWEEP
                .iter()
                .map(|c| c.spec(spec_seed))
                .collect::<Result<_, _>>()?;
            Ok(State {
                input,
                sorted,
                specs,
            })
        },
        |state, traced, seconds| measure(&state, seconds, traced),
    )
}

/// The run's input and the seed every spec carries, both from `--seed`.
fn inputs(seed: u64, n: usize) -> (Vec<Record>, u64) {
    let mut rng = Rng::new(seed, SALT);
    (
        Gen::UniformRandom.generate(n, rng.next_u64()),
        rng.next_u64(),
    )
}

/// Run whole sweeps until `seconds` have passed (at least one).
fn measure(state: &State, seconds: f64, traced: bool) -> Result<Phase, String> {
    let n = state.input.len();
    let mut tracer = Tracer::new(traced);
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut first: Vec<Option<EmStats>> = vec![None; SWEEP.len()];
    let mut io_costs = vec![0u64; SWEEP.len()];
    let mut transfers = 0u64;
    let mut sweep = 0u64;
    while sweep == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut par_stats = [None; 2];
        for (i, (config, spec)) in SWEEP.iter().zip(&state.specs).enumerate() {
            let t = Instant::now();
            let result = tracer.span(config.name, sweep, |_| sort::run(spec, &state.input));
            let dt = t.elapsed().as_secs_f64();
            phase.attempted += 1;
            phase.op(dt);
            match result {
                Ok(out) if out.output == state.sorted => {
                    phase.job(dt, n as f64);
                    first[i].get_or_insert(out.stats);
                    io_costs[i] = out.io_cost();
                    transfers += out.stats.block_reads + out.stats.block_writes;
                    if i == L1 || i == L2 {
                        par_stats[i - L1] = Some((out.stats.block_reads, out.stats.block_writes));
                    }
                }
                Ok(_) => {
                    phase.job(dt, 0.0);
                    phase.failed += 1;
                    eprintln!("{}: output differs from the std-sorted input", config.name);
                }
                Err(e) => {
                    phase.job(dt, 0.0);
                    phase.failed += 1;
                    eprintln!("{}: {e}", config.name);
                }
            }
        }
        // Work preservation: par-samplesort's merged (reads, writes) must
        // not depend on the lane count.
        phase.attempted += 1;
        if par_stats[0].is_none() || par_stats[0] != par_stats[1] {
            phase.failed += 1;
            eprintln!("par-samplesort stats differ across lanes: {par_stats:?}");
        }
        if sweep == 0 {
            phase.peak_rss_mb = Some(peak_rss_mb()?);
        }
        sweep += 1;
    }
    // Throughput at each sorter's median call time: a call slowed by a
    // transient stall elsewhere on the machine does not move it.
    phase.wall_s = (0..SWEEP.len())
        .map(|i| {
            let calls: Vec<f64> = phase.jobs[i..]
                .iter()
                .step_by(SWEEP.len())
                .map(|s| s.secs)
                .collect();
            median(&calls)
        })
        .sum::<f64>()
        * sweep as f64;

    let stats: Vec<EmStats> = first.iter().flatten().copied().collect();
    phase.model = Model {
        writes: stats.iter().map(|s| s.block_writes).sum(),
        reads: stats.iter().map(|s| s.block_reads).sum(),
        omega: OMEGA,
        base: (n * stats.len()) as u64,
        peak_records: stats
            .iter()
            .map(|s| s.peak_memory as u64)
            .max()
            .unwrap_or(0),
    };

    if traced {
        // The raw cursor pass runs after the timed loop so it does not
        // count toward the sweep's wall time.
        for pass in 0..3 {
            phase.attempted += 1;
            if let Err(e) = stream_pass(&state.input, &mut tracer, pass) {
                phase.failed += 1;
                eprintln!("em-sim stream pass: {e}");
            }
        }
        let trace = Trace::new(vec![tracer]);
        phase.layers = layers(&trace, n, &io_costs, transfers);
        trace.write_summary("sort-large");
    }
    Ok(phase)
}

/// One uncharged `EmVec::stage`, then a charged `EmReader` → `EmWriter`
/// copy of the whole input.
fn stream_pass(input: &[Record], tracer: &mut Tracer, pass: u64) -> Result<(), String> {
    let em = EmMachine::new(EmConfig::new(M, B, OMEGA));
    let staged = tracer.span("em_sim.stage", pass, |_| EmVec::stage(&em, input));
    let copy = tracer.span("em_sim.stream", pass, |_| -> Result<EmVec, String> {
        let mut reader = staged.reader(&em).map_err(|e| e.to_string())?;
        let mut writer = EmWriter::new(&em).map_err(|e| e.to_string())?;
        while let Some(r) = reader.next() {
            writer.push(r);
        }
        Ok(writer.finish())
    })?;
    let expected = (
        input.len().div_ceil(B) as u64,
        input.len().div_ceil(B) as u64,
    );
    let stats = em.stats();
    let ok = copy.len() == input.len() && (stats.block_reads, stats.block_writes) == expected;
    copy.free(&em);
    staged.free(&em);
    if ok {
        Ok(())
    } else {
        Err(format!("copied {} records with {stats:?}", input.len()))
    }
}

fn layers(trace: &Trace, n: usize, io_costs: &[u64], transfers: u64) -> Metrics {
    let mut sort_wall = 0.0;
    let mut walls = Vec::new();
    let mut m = Metrics::new();
    for (config, &io) in SWEEP.iter().zip(io_costs) {
        let d = trace.durations(config.name);
        sort_wall += d.iter().sum::<f64>();
        walls.push(median(&d));
        m.insert(format!("{}.wall_s", config.name), median(&d));
        m.insert(format!("{}.io_cost", config.name), io as f64);
    }
    m.extend(metrics([
        (
            "em_sim.stream_records_per_s",
            n as f64 / median(&trace.durations("em_sim.stream")),
        ),
        ("em_sim.block_transfers_per_s", transfers as f64 / sort_wall),
        ("sort.par.lane_speedup", walls[L1] / walls[L2]),
    ]));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_sim::Backend;

    #[test]
    fn seeds_pick_different_inputs() {
        assert_eq!(inputs(1, 100), inputs(1, 100));
        assert_ne!(inputs(1, 100).0, inputs(2, 100).0);
    }

    #[test]
    fn specs_ignore_the_environment() {
        std::env::set_var("ASYM_BENCH_BACKEND", "file");
        std::env::set_var("ASYM_BENCH_THREADS", "1");
        for config in &SWEEP {
            let spec = config.spec(0).unwrap();
            assert_eq!(
                (spec.backend(), spec.lanes(), spec.k()),
                (Backend::Mem, config.lanes, config.k)
            );
        }
        assert_eq!(SWEEP[L2].lanes, 2);
    }
}
