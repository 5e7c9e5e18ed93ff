//! Theorem-level cost checks across crates: the measured transfer counts of
//! the AEM algorithms against the paper's closed-form bounds, on a grid of
//! machine shapes.

use asym_core::em::selection_sort;
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::stats::ceil_log_base;
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::{EmConfig, EmMachine, EmStats, EmVec};

/// Sort `input` through `sort::run` on an `(m, b, omega)` machine at
/// write-saving factor `k` with the algorithm's default slack; return the
/// modeled transfer stats.
fn sort_stats(
    algorithm: Algorithm,
    (m, b, omega): (usize, usize, u64),
    k: usize,
    seed: u64,
    input: &[Record],
) -> EmStats {
    let spec = SortSpec::builder(algorithm, m, b, omega)
        .k(k)
        .seed(seed)
        .build()
        .expect("valid spec");
    let outcome = sort::run(&spec, input).expect("sort");
    assert_eq!(outcome.output.len(), input.len());
    outcome.stats
}

#[test]
fn lemma_4_2_exact_bounds_across_grid() {
    for (m, b) in [(16usize, 4usize), (32, 4), (64, 8), (128, 16)] {
        for passes in [1usize, 2, 3, 5] {
            let n = (passes * m).saturating_sub(3).max(1);
            let em = EmMachine::new(EmConfig::new(m, b, 8).with_slack(2 * b));
            let input = Workload::UniformRandom.generate(n, 9);
            let v = EmVec::stage(&em, &input);
            em.reset_stats();
            let sorted = selection_sort(&em, &v, passes).expect("sort");
            let s = em.stats();
            let blocks = n.div_ceil(b) as u64;
            let p = n.div_ceil(m) as u64;
            assert!(
                s.block_reads <= p * blocks,
                "(m={m},b={b},n={n}): reads {} > {}",
                s.block_reads,
                p * blocks
            );
            assert_eq!(s.block_writes, blocks, "(m={m},b={b},n={n})");
            assert_eq!(sorted.len(), n);
        }
    }
}

#[test]
fn theorem_4_3_bounds_across_grid() {
    for (m, b, k, n) in [
        (32usize, 4usize, 1usize, 3000usize),
        (32, 4, 2, 3000),
        (32, 4, 4, 3000),
        (64, 8, 2, 6000),
        (64, 8, 6, 6000),
        (128, 16, 3, 10000),
    ] {
        let input = Workload::UniformRandom.generate(n, 4);
        let s = sort_stats(Algorithm::Mergesort, (m, b, 8), k, 0, &input);
        let blocks = n.div_ceil(b) as u64;
        let levels = ceil_log_base((k * m) as f64 / b as f64, blocks as f64);
        assert!(
            s.block_reads <= (k as u64 + 1) * blocks * levels,
            "(m={m},b={b},k={k}): reads {} > (k+1)(n/B)levels = {}",
            s.block_reads,
            (k as u64 + 1) * blocks * levels
        );
        assert!(
            s.block_writes <= blocks * levels,
            "(m={m},b={b},k={k}): writes {} > (n/B)levels = {}",
            s.block_writes,
            blocks * levels
        );
    }
}

#[test]
fn mergesort_write_envelope_across_omega_grid() {
    // The paper's write-efficient operating point sets k = ω, making the
    // merge fan-in ωM/B; writes must then stay within the closed-form
    // O((n/B)·log_{ωM/B}(n/B)) envelope for every ω — not just at the
    // frozen golden counts. Empirically the bound is exact (each level
    // writes each block once), so no slop constant is applied.
    for (m, b, n) in [(64usize, 8usize, 20_000usize), (32, 4, 10_000)] {
        let mut last_writes = u64::MAX;
        for omega in [1u64, 2, 8, 32] {
            let k = omega as usize;
            let input = Workload::UniformRandom.generate(n, 4);
            let s = sort_stats(Algorithm::Mergesort, (m, b, omega), k, 0, &input);
            let blocks = n.div_ceil(b) as u64;
            let levels = ceil_log_base((omega as usize * m) as f64 / b as f64, blocks as f64);
            assert!(
                s.block_writes <= blocks * levels,
                "(m={m},b={b},omega={omega}): writes {} > (n/B)·log_{{ωM/B}}(n/B) = {}",
                s.block_writes,
                blocks * levels
            );
            // Reads pay for the write savings but stay within (k+1) per level.
            assert!(
                s.block_reads <= (omega + 1) * blocks * levels,
                "(m={m},b={b},omega={omega}): reads {} out of the (k+1)-fold envelope {}",
                s.block_reads,
                (omega + 1) * blocks * levels
            );
            // Raising ω (with k = ω) can only shrink the write total.
            assert!(
                s.block_writes <= last_writes,
                "(m={m},b={b},omega={omega}): writes must be non-increasing in ω"
            );
            last_writes = s.block_writes;
        }
    }
}

#[test]
fn theorem_4_5_write_shape_across_grid() {
    for (m, b, k, n) in [
        (32usize, 4usize, 1usize, 4000usize),
        (32, 4, 4, 4000),
        (64, 8, 2, 8000),
    ] {
        let input = Workload::UniformRandom.generate(n, 6);
        let s = sort_stats(Algorithm::Samplesort, (m, b, 8), k, 5, &input);
        let blocks = n.div_ceil(b) as u64;
        let levels = ceil_log_base((k * m) as f64 / b as f64, blocks as f64);
        assert!(
            s.block_writes <= 4 * blocks * levels,
            "(m={m},b={b},k={k}): writes {} beyond O-envelope {}",
            s.block_writes,
            4 * blocks * levels
        );
        // Reads may be k-fold but not worse than (k + constant) per level.
        assert!(
            s.block_reads <= (k as u64 + 4) * 4 * blocks * levels,
            "(m={m},b={b},k={k}): reads {} out of envelope",
            s.block_reads
        );
    }
}

#[test]
fn theorem_4_10_amortized_pq_costs() {
    let (m, b) = (32usize, 4usize);
    for k in [1usize, 2, 4] {
        let n = 4000usize;
        let input = Workload::UniformRandom.generate(n, 8);
        let s = sort_stats(Algorithm::Heapsort, (m, b, 8), k, 0, &input);
        let ops = (2 * n) as f64;
        let levels = 1.0 + (n as f64).ln() / (((k * m) as f64 / b as f64).ln());
        let reads_per_op = s.block_reads as f64 / ops;
        let writes_per_op = s.block_writes as f64 / ops;
        // Envelopes: 12x the formula constants (buffer trees are constant-
        // heavy; what matters is the k and B scaling).
        assert!(
            reads_per_op <= 12.0 * (k as f64 / b as f64) * levels,
            "k={k}: reads/op {reads_per_op:.3}"
        );
        assert!(
            writes_per_op <= 12.0 * (1.0 / b as f64) * levels,
            "k={k}: writes/op {writes_per_op:.3}"
        );
    }
}

#[test]
fn corollary_4_4_improvement_region() {
    // Sweep k at fixed machine; verify the best k beats k=1 whenever some
    // k in the predicted region exists, and that the predicted-region
    // condition k/log k < omega/log(M/B) identifies it.
    let (m, b, omega, n) = (64usize, 8usize, 16u64, 20_000usize);
    let input = Workload::UniformRandom.generate(n, 10);
    let cost = |k: usize| {
        let s = sort_stats(Algorithm::Mergesort, (m, b, omega), k, 0, &input);
        s.block_reads + omega * s.block_writes
    };
    let classic = cost(1);
    let threshold = omega as f64 / ((m / b) as f64).log2();
    let improving: Vec<usize> = (2..=omega as usize)
        .filter(|&k| (k as f64) / (k as f64).log2() < threshold)
        .collect();
    assert!(
        !improving.is_empty(),
        "this grid point should have an improvement region"
    );
    let best_in_region = improving.iter().map(|&k| cost(k)).min().expect("some k");
    assert!(
        best_in_region < classic,
        "some k in the Corollary 4.4 region must beat classic: {best_in_region} vs {classic}"
    );
}

#[test]
fn writes_decrease_monotonically_in_level_count() {
    // Increasing k can only reduce (or keep) the number of merge levels,
    // hence block writes must be non-increasing in k.
    let (m, b, n) = (32usize, 4usize, 10_000usize);
    let input = Workload::UniformRandom.generate(n, 11);
    let mut last = u64::MAX;
    for k in [1usize, 2, 4, 8] {
        let w = sort_stats(Algorithm::Mergesort, (m, b, 8), k, 0, &input).block_writes;
        assert!(
            w <= last,
            "writes must not increase with k: {w} after {last}"
        );
        last = w;
    }
}
