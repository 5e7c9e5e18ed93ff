//! Cost-invariance regression tests: golden `(block_reads, block_writes,
//! peak_memory)` counts for small fixed E3/E5/E6 configurations.
//!
//! The modeled costs are the *scientific output* of this repo — simulator
//! performance work (arena storage, buffer reuse, the flat merge queue) must
//! never change them. The golden triples below were captured from the seed
//! implementation (clone-per-I/O disk, BTreeMap merge queue); any drift is a
//! model regression, not a tuning knob. Every job runs through the one
//! entry point, `asym_core::sort::run`, on the spec's default slack.

use asym_core::sort::{self, Algorithm, SortSpec, SortSpecBuilder};
use asym_model::workload::Workload;

/// One golden measurement: (block_reads, block_writes, peak_memory).
type Golden = (u64, u64, usize);

/// Run one job through `sort::run` on `wl`'s input (data seed 0x601D) and
/// return its modeled counts.
fn measure(spec: SortSpecBuilder, wl: Workload, n: usize) -> Golden {
    let spec = spec.build().expect("valid spec");
    let input = wl.generate(n, 0x60_1D);
    let outcome = sort::run(&spec, &input).expect("sort");
    assert_eq!(outcome.output.len(), n);
    let s = outcome.stats;
    (s.block_reads, s.block_writes, s.peak_memory)
}

/// An (M, B, ω = 8) job at write-saving factor `k`.
fn spec(algorithm: Algorithm, m: usize, b: usize, k: usize) -> SortSpecBuilder {
    SortSpec::builder(algorithm, m, b, 8).k(k)
}

fn mergesort_golden_wl(m: usize, b: usize, k: usize, wl: Workload, n: usize) -> Golden {
    measure(spec(Algorithm::Mergesort, m, b, k), wl, n)
}

fn mergesort_golden(m: usize, b: usize, k: usize, n: usize) -> Golden {
    mergesort_golden_wl(m, b, k, Workload::UniformRandom, n)
}

fn samplesort_golden_wl(m: usize, b: usize, k: usize, wl: Workload, n: usize) -> Golden {
    // The spec's seed drives the splitter sampling.
    measure(spec(Algorithm::Samplesort, m, b, k).seed(0xE5), wl, n)
}

fn samplesort_golden(m: usize, b: usize, k: usize, n: usize) -> Golden {
    samplesort_golden_wl(m, b, k, Workload::UniformRandom, n)
}

fn heapsort_golden_wl(m: usize, b: usize, k: usize, wl: Workload, n: usize) -> Golden {
    measure(spec(Algorithm::Heapsort, m, b, k), wl, n)
}

fn heapsort_golden(m: usize, b: usize, k: usize, n: usize) -> Golden {
    heapsort_golden_wl(m, b, k, Workload::UniformRandom, n)
}

fn par_samplesort_golden(m: usize, b: usize, k: usize, lanes: usize, n: usize) -> Golden {
    let spec = spec(Algorithm::ParSamplesort, m, b, k)
        .lanes(lanes)
        .seed(0xE13);
    measure(spec, Workload::UniformRandom, n)
}

#[test]
fn e3_mergesort_costs_are_frozen() {
    // (M, B, ω) = (32, 4, 8), n = 500, uniform-random workload, seed 0x601D.
    assert_eq!(mergesort_golden(32, 4, 1, 500), (375, 375, 48), "E3 k=1");
    assert_eq!(mergesort_golden(32, 4, 2, 500), (424, 250, 56), "E3 k=2");
    assert_eq!(mergesort_golden(32, 4, 4, 500), (637, 250, 72), "E3 k=4");
}

#[test]
fn e5_samplesort_costs_are_frozen() {
    // (M, B, ω) = (32, 4, 8), n = 600, splitter rng seed 0xE5.
    assert_eq!(samplesort_golden(32, 4, 1, 600), (1897, 1467, 52), "E5 k=1");
    assert_eq!(samplesort_golden(32, 4, 2, 600), (1456, 895, 52), "E5 k=2");
}

#[test]
fn e6_heapsort_costs_are_frozen() {
    // (M, B, ω) = (16, 2, 8), n = 800, buffer-tree priority queue.
    assert_eq!(heapsort_golden(16, 2, 1, 800), (5561, 5096, 24), "E6 k=1");
    assert_eq!(heapsort_golden(16, 2, 2, 800), (6670, 4424, 24), "E6 k=2");
}

#[test]
fn duplicate_input_costs_are_frozen() {
    // The duplicate adversaries get their own frozen triples: the provenance
    // tie-break makes these runs correct, and these goldens pin their costs
    // the same way the unique-input goldens above pin theirs. Captured from
    // the first duplicate-safe implementation; same geometries as E3/E5/E6.
    use Workload::{AllIdentical, DuplicateHeavy};
    assert_eq!(
        mergesort_golden_wl(32, 4, 2, AllIdentical, 500),
        (258, 250, 56),
        "E3 k=2 all-identical"
    );
    assert_eq!(
        mergesort_golden_wl(32, 4, 2, DuplicateHeavy, 500),
        (418, 250, 56),
        "E3 k=2 duplicate-heavy"
    );
    assert_eq!(
        samplesort_golden_wl(32, 4, 2, AllIdentical, 600),
        (1226, 767, 59),
        "E5 k=2 all-identical"
    );
    assert_eq!(
        samplesort_golden_wl(32, 4, 2, DuplicateHeavy, 600),
        (1294, 770, 52),
        "E5 k=2 duplicate-heavy"
    );
    assert_eq!(
        heapsort_golden_wl(16, 2, 2, AllIdentical, 800),
        (5290, 4024, 24),
        "E6 k=2 all-identical"
    );
    assert_eq!(
        heapsort_golden_wl(16, 2, 2, DuplicateHeavy, 800),
        (6638, 4493, 24),
        "E6 k=2 duplicate-heavy"
    );
}

#[test]
fn par_samplesort_costs_are_frozen() {
    // (M, B, ω) = (32, 4, 8), k = 2, n = 600, sampling seed 0xE13. Merged
    // reads and writes are lane-count invariant; peak memory is summed over
    // the lanes' machines, so it grows with the lane count.
    assert_eq!(
        par_samplesort_golden(32, 4, 2, 1, 600),
        (987, 602, 51),
        "l=1"
    );
    assert_eq!(
        par_samplesort_golden(32, 4, 2, 2, 600),
        (987, 602, 102),
        "l=2"
    );
    assert_eq!(
        par_samplesort_golden(32, 4, 2, 4, 600),
        (987, 602, 202),
        "l=4"
    );
}
