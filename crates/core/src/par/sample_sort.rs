//! Threaded splitter-based sample sort.
//!
//! This is the wall-clock executor; its modeled counterpart
//! ([`crate::par::aem_sample_sort`], run through [`crate::sort::run`]) runs the same splitter/partition
//! discipline against per-lane `EmMachine`s and the `wd-sim` scheduler.
//! Both reduce their sorted sample through
//! [`super::splitters::splitters_from_sorted_sample`], so the two executors
//! bucket identically given the same sample.

use super::splitters::{bucket_of, splitters_from_sorted_sample};
use asym_model::Record;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sort `input` using `threads` worker threads.
///
/// Phases: (1) oversample and pick `threads − 1` splitters; (2) each worker
/// counts its chunk's records per bucket; (3) a prefix over the
/// threads × buckets count matrix assigns disjoint output slices; (4) each
/// worker scatters its chunk; (5) workers sort the buckets in parallel.
pub fn par_sample_sort(input: &[Record], threads: usize, seed: u64) -> Vec<Record> {
    let n = input.len();
    let p = threads.max(1);
    if n < 4 * p || p == 1 {
        let mut out = input.to_vec();
        out.sort_unstable();
        return out;
    }
    // Phase 1: splitters from an oversampled host-side sample.
    let mut rng = StdRng::seed_from_u64(seed);
    let oversample = 16 * p;
    let mut sample: Vec<Record> = input
        .choose_multiple(&mut rng, oversample.min(n))
        .copied()
        .collect();
    sample.sort_unstable();
    let splitters = splitters_from_sorted_sample(&sample, p);
    let buckets = splitters.len() + 1;

    // Phase 2: per-worker bucket counts.
    let chunk = n.div_ceil(p);
    let chunks: Vec<&[Record]> = input.chunks(chunk).collect();
    let workers = chunks.len();
    let mut counts: Vec<Vec<usize>> = vec![vec![0; buckets]; workers];
    crossbeam::scope(|s| {
        for (w, (my_chunk, my_counts)) in chunks.iter().zip(counts.iter_mut()).enumerate() {
            let splitters = &splitters;
            let _ = w;
            s.spawn(move |_| {
                for r in *my_chunk {
                    my_counts[bucket_of(splitters, *r)] += 1;
                }
            });
        }
    })
    .expect("counting workers");

    // Phase 3: bucket-major prefix assigns each (bucket, worker) a slice.
    let mut offsets: Vec<Vec<usize>> = vec![vec![0; buckets]; workers];
    let mut acc = 0usize;
    let mut bucket_bounds: Vec<usize> = Vec::with_capacity(buckets + 1);
    for b in 0..buckets {
        bucket_bounds.push(acc);
        for w in 0..workers {
            offsets[w][b] = acc;
            acc += counts[w][b];
        }
    }
    bucket_bounds.push(acc);
    debug_assert_eq!(acc, n);

    // Phase 4: parallel scatter into disjoint slices of one output vector.
    let mut output: Vec<Record> = vec![Record::default(); n];
    {
        // Split the output into raw disjoint cells via unsafe-free approach:
        // each worker owns a set of (start, len) ranges; use split_at_mut
        // repeatedly is awkward for interleaved ranges, so scatter via a
        // shared UnsafeCell-free fallback: sequential scatter per worker is
        // still parallel across workers through chunk ownership of *source*;
        // the destination ranges are disjoint by construction, so we use
        // pointer arithmetic guarded by that invariant.
        struct SendPtr(*mut Record);
        unsafe impl Send for SendPtr {}
        unsafe impl Sync for SendPtr {}
        let base = SendPtr(output.as_mut_ptr());
        let base_ref = &base;
        crossbeam::scope(|s| {
            for (my_chunk, my_offsets) in chunks.iter().zip(offsets.iter()) {
                let splitters = &splitters;
                let mut cursors = my_offsets.clone();
                s.spawn(move |_| {
                    for r in *my_chunk {
                        let b = bucket_of(splitters, *r);
                        // SAFETY: cursor ranges [offsets[w][b],
                        // offsets[w][b]+counts[w][b]) are pairwise disjoint
                        // across workers and buckets by the phase-3 prefix.
                        unsafe {
                            *base_ref.0.add(cursors[b]) = *r;
                        }
                        cursors[b] += 1;
                    }
                });
            }
        })
        .expect("scatter workers");
    }

    // Phase 5: sort buckets in parallel (disjoint slices via split_at_mut).
    {
        let mut rest: &mut [Record] = &mut output;
        let mut slices: Vec<&mut [Record]> = Vec::with_capacity(buckets);
        let mut prev = 0usize;
        for &bound in &bucket_bounds[1..=buckets] {
            let (head, tail) = rest.split_at_mut(bound - prev);
            slices.push(head);
            rest = tail;
            prev = bound;
        }
        crossbeam::scope(|s| {
            for slice in slices {
                s.spawn(move |_| slice.sort_unstable());
            }
        })
        .expect("bucket sort workers");
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;

    #[test]
    fn sorts_all_workloads_across_thread_counts() {
        for wl in Workload::ALL {
            for threads in [1usize, 2, 4, 7] {
                let input = wl.generate(5000, 3);
                let out = par_sample_sort(&input, threads, 42);
                assert_sorted_permutation(&input, &out);
            }
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_sequential() {
        for n in [0usize, 1, 5, 15] {
            let input = Workload::UniformRandom.generate(n, 1);
            let out = par_sample_sort(&input, 8, 7);
            assert_sorted_permutation(&input, &out);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let input = Workload::UniformRandom.generate(10_000, 9);
        let a = par_sample_sort(&input, 4, 11);
        let b = par_sample_sort(&input, 4, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_heavy_input() {
        let input = Workload::FewDistinct.generate(8000, 5);
        let out = par_sample_sort(&input, 4, 3);
        assert_sorted_permutation(&input, &out);
    }
}
