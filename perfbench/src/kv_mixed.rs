//! `kv-mixed`: one client driving an embedded `AsymKv` at ω=8 with the
//! default policy. A seeded preload is part of set-up; the measured phase
//! runs about 50% puts, 10% deletes, 30% gets and 10% short scans over a
//! key space far larger than the memtable, so compactions (each an
//! inline-input job through the in-process sort service) run beside the
//! reads throughout.

use crate::harness::{drive, peak_rss_mb, Ctx, Outcome, Rng};
use crate::report::{median, metrics, quantile, Metrics, Model, Phase};
use crate::trace::{Trace, Tracer};
use asym_kv::{AsymKv, CompactionRecord, KvConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const OMEGA: u64 = 8;
/// Salt of this workload's input stream.
const SALT: u64 = 3;
/// Width of a scan's key range.
const SCAN_WIDTH: u64 = 32;

/// The key space.
const KEYS: u64 = 150_000;
/// Distinct keys the set-up puts.
const PRELOAD: usize = 100_000;
/// Mixed operations whose modeled costs become the `model_*` metrics, and
/// at whose end peak RSS is read; the measured phase runs at least this
/// many.
const MODEL_OPS: u64 = 200_000;

struct State {
    kv: AsymKv,
    reference: BTreeMap<u64, u64>,
    rng: Rng,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    drive(
        ctx,
        || setup(ctx.seed),
        |state, traced, seconds| measure(state, seconds, traced),
    )
}

/// The engine is configured explicitly (`KvConfig::new`, never
/// `from_env`), then preloaded from the seed.
fn setup(seed: u64) -> Result<State, String> {
    let mut kv = AsymKv::new(KvConfig::new(OMEGA)).map_err(|e| format!("open engine: {e}"))?;
    let mut rng = Rng::new(seed, SALT);
    let mut reference = BTreeMap::new();
    // [`PRELOAD`] distinct keys, in seeded order (a partial Fisher-Yates).
    let mut keys: Vec<u64> = (0..KEYS).collect();
    for i in 0..PRELOAD {
        let pick = i + rng.below(KEYS - i as u64) as usize;
        keys.swap(i, pick);
        let (key, value) = (keys[i], rng.next_u64());
        kv.put(key, value).map_err(|e| format!("preload: {e}"))?;
        reference.insert(key, value);
    }
    Ok(State { kv, reference, rng })
}

#[derive(Default)]
struct Samples {
    gets: Vec<f64>,
    scans: Vec<f64>,
    puts: Vec<f64>,
    get_reads: u64,
}

fn measure(mut state: State, seconds: f64, traced: bool) -> Result<Phase, String> {
    let mut tracer = Tracer::new(traced);
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut samples = Samples::default();
    let kv = &mut state.kv;
    let base_stats = kv.total_stats();
    let base_compactions = kv.compactions().len();
    let mut updates = 0u64;
    let b = kv.config().b as u64;
    let mut ops = 0u64;
    loop {
        if ops.is_multiple_of(256) && ops >= MODEL_OPS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let roll = state.rng.below(100);
        let key = state.rng.below(KEYS);
        let before = kv.compactions().len();
        let reads_before = traced.then(|| kv.engine_stats().block_reads);
        let t = Instant::now();
        let ok = match roll {
            0..=49 => {
                let value = state.rng.next_u64();
                let r = tracer.span("kv.put", ops, |_| kv.put(key, value));
                samples.puts.push(t.elapsed().as_secs_f64());
                state.reference.insert(key, value);
                r.is_ok()
            }
            50..=59 => {
                let r = tracer.span("kv.delete", ops, |_| kv.delete(key));
                state.reference.remove(&key);
                r.is_ok()
            }
            60..=89 => {
                let r = tracer.span("kv.get", ops, |_| kv.get(key));
                samples.gets.push(t.elapsed().as_secs_f64());
                if let Some(reads) = reads_before {
                    samples.get_reads += kv.engine_stats().block_reads - reads;
                }
                r.is_ok_and(|v| v == state.reference.get(&key).copied())
            }
            _ => {
                let hi = key + SCAN_WIDTH - 1;
                let r = tracer.span("kv.scan", ops, |_| kv.scan(key, hi));
                samples.scans.push(t.elapsed().as_secs_f64());
                r.is_ok_and(|got| {
                    got.into_iter()
                        .eq(state.reference.range(key..=hi).map(|(&k, &v)| (k, v)))
                })
            }
        };
        let dt = t.elapsed().as_secs_f64();
        phase.op(dt);
        phase.attempted += 1;
        if !ok {
            phase.failed += 1;
            eprintln!("op {ops} (roll {roll}, key {key}) failed or disagreed with the reference");
        }
        if roll < 60 {
            updates += 1;
        }
        let new = &kv.compactions()[before..];
        if !new.is_empty() {
            // A compaction is attributed to the write call that ran it.
            phase.job(dt, new.iter().map(|c| c.input_records as f64).sum());
            for c in new {
                phase.attempted += 1;
                if !within_envelope(c) {
                    phase.failed += 1;
                    eprintln!(
                        "compaction {} outside its predicted envelope: {c:?}",
                        c.job_id
                    );
                }
            }
            tracer.count("kv.compaction.count", new.len() as f64);
            tracer.count("kv.compaction.wall_s", dt);
            tracer.count(
                "kv.compaction.input_records",
                new.iter().map(|c| c.input_records as f64).sum(),
            );
        }
        ops += 1;
        if ops == MODEL_OPS {
            phase.model = model(kv, base_stats, base_compactions, updates);
            phase.peak_rss_mb = Some(peak_rss_mb()?);
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    if traced {
        let trace = Trace::new(vec![tracer]);
        phase.layers = layers(&trace, &mut samples, &phase, b);
        trace.write_summary("kv-mixed");
    }
    Ok(phase)
}

/// A compaction's measured stats must sit inside its `predict()` bounds.
fn within_envelope(c: &CompactionRecord) -> bool {
    c.stats.block_reads <= c.predicted.reads
        && c.stats.block_writes <= c.predicted.writes
        && c.stats.peak_memory <= c.predicted.peak_memory
}

/// Modeled costs of the first `model_ops` mixed operations: engine flushes
/// and probes plus every compaction job, per user update.
fn model(kv: &AsymKv, base: em_sim::EmStats, base_compactions: usize, updates: u64) -> Model {
    let now = kv.total_stats();
    let peak = kv.compactions()[base_compactions..]
        .iter()
        .map(|c| c.stats.peak_memory)
        .chain([kv.engine_stats().peak_memory])
        .max()
        .unwrap_or(0);
    Model {
        writes: now.block_writes - base.block_writes,
        reads: now.block_reads - base.block_reads,
        omega: OMEGA,
        base: updates,
        peak_records: peak as u64,
    }
}

fn layers(trace: &Trace, s: &mut Samples, phase: &Phase, b: u64) -> Metrics {
    let wall = trace.counter("kv.compaction.wall_s");
    let mut compaction_ms: Vec<f64> = phase.jobs.iter().map(|j| j.secs * 1e3).collect();
    metrics([
        ("kv.compaction.count", trace.counter("kv.compaction.count")),
        ("kv.compaction.wall_s", wall),
        ("kv.compaction.max_ms", quantile(&mut compaction_ms, 1.0)),
        (
            "kv.compaction.input_records",
            trace.counter("kv.compaction.input_records"),
        ),
        (
            "kv.compaction.records_per_s",
            trace.counter("kv.compaction.input_records") / wall,
        ),
        (
            "kv.get_reads_per_get",
            s.get_reads as f64 / s.gets.len() as f64,
        ),
        ("kv.get_p50_us", median(&s.gets) * 1e6),
        ("kv.get_p99_us", quantile(&mut s.gets, 0.99) * 1e6),
        ("kv.scan_p50_us", median(&s.scans) * 1e6),
        ("kv.put_p999_us", quantile(&mut s.puts, 0.999) * 1e6),
        (
            "kv.write_amp",
            (phase.model.writes * b) as f64 / phase.model.base as f64,
        ),
    ])
}
