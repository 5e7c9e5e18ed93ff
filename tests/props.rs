//! Property-based tests (proptest) on the core data structures and
//! invariants, across crates.

use asym_core::em::mergesort_slack;
use asym_core::em::pq::{pq_slack, AemPriorityQueue};
use asym_core::pram::prefix_sums;
use asym_core::ram::rbtree::RbTree;
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::{MemCounter, Record};
use cache_sim::{simulate_min, CacheConfig, MinVariant, PolicyChoice, SimArray, Tracker};
use em_sim::{EmConfig, EmMachine, EmVec};
use proptest::prelude::*;

fn record_vec(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0u64..1000, 0u64..1_000_000), 0..max_len).prop_map(|pairs| {
        let mut v: Vec<Record> = pairs.into_iter().map(|(k, p)| Record::new(k, p)).collect();
        // Unique records (the paper's convention).
        v.sort();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbtree_matches_btreeset(ops in prop::collection::vec((0u8..3, 0u64..500), 1..400)) {
        let mut tree = RbTree::new(MemCounter::new());
        let mut reference = std::collections::BTreeSet::new();
        for (op, key) in ops {
            let r = Record::keyed(key);
            match op {
                0 | 1 => {
                    prop_assert_eq!(tree.insert(r), reference.insert(r));
                }
                _ => {
                    prop_assert_eq!(tree.delete_min(), reference.pop_first());
                }
            }
            prop_assert_eq!(tree.len(), reference.len());
        }
        tree.validate();
        let mut out = Vec::new();
        tree.in_order(|r| out.push(r));
        let expect: Vec<Record> = reference.into_iter().collect();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn aem_mergesort_sorts_arbitrary_records(input in record_vec(600), k in 1usize..4) {
        let spec = SortSpec::builder(Algorithm::Mergesort, 16, 4, 4).k(k).build().expect("spec");
        let out = sort::run(&spec, &input).expect("sort").output;
        let mut expect = input.clone();
        expect.sort();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn aem_pq_is_a_priority_queue(ops in prop::collection::vec((0u8..2, 0u64..100_000), 1..500)) {
        let (m, b, k) = (16usize, 2usize, 1usize);
        let em = EmMachine::new(EmConfig::new(m, b, 4).with_slack(pq_slack(m, b, k)));
        let mut pq = AemPriorityQueue::new(em, k).expect("pq");
        let mut reference = std::collections::BTreeSet::new();
        let mut uid = 0u64;
        for (op, key) in ops {
            if op == 0 || reference.is_empty() {
                let r = Record::new(key, uid);
                uid += 1;
                pq.insert(r).expect("insert");
                reference.insert(r);
            } else {
                prop_assert_eq!(pq.delete_min().expect("dm"), reference.pop_first());
            }
            prop_assert_eq!(pq.len(), reference.len());
        }
        while let Some(expect) = reference.pop_first() {
            prop_assert_eq!(pq.delete_min().expect("dm"), Some(expect));
        }
        prop_assert_eq!(pq.delete_min().expect("dm"), None);
    }

    #[test]
    fn prefix_sums_match_reference(xs in prop::collection::vec(0u64..1000, 0..300), omega in 1u64..16) {
        let (got, cost) = prefix_sums(&xs, omega);
        let mut acc = 0u64;
        let mut expect = vec![0u64];
        for &x in &xs {
            acc += x;
            expect.push(acc);
        }
        prop_assert_eq!(got, expect);
        if xs.len() > 1 {
            prop_assert!(cost.depth <= cost.reads + omega * cost.writes);
        }
    }

    #[test]
    fn cache_sim_preserves_shadow_memory(
        writes in prop::collection::vec((0usize..256, 0u64..1000), 1..300),
        cap_blocks in 1usize..8,
    ) {
        let t = Tracker::new(CacheConfig::new(cap_blocks * 8, 8, 4), PolicyChoice::Lru);
        let mut a = SimArray::from_vec(&t, vec![0u64; 256]);
        let mut shadow = vec![0u64; 256];
        for (i, v) in writes {
            a.write(i, v);
            shadow[i] = v;
            prop_assert_eq!(a.read(i), shadow[i]);
        }
        for (i, &expect) in shadow.iter().enumerate() {
            prop_assert_eq!(a.peek(i), expect);
        }
    }

    #[test]
    fn min_is_optimal_bracket_for_lru(
        trace in prop::collection::vec((0u32..24, any::<bool>()), 1..400),
        cap in 1usize..10,
    ) {
        let min = simulate_min(&trace, cap, MinVariant::Classic);
        let t = Tracker::new(CacheConfig::new(cap * 4, 4, 4), PolicyChoice::Lru);
        for &(blk, w) in &trace {
            t.access(blk as usize * 4, w);
        }
        t.flush();
        let lru = t.stats();
        prop_assert!(min.loads <= lru.loads,
            "Belady loads {} must not exceed LRU loads {}", min.loads, lru.loads);
        // Both policies see the same access count.
        prop_assert_eq!(min.accesses, lru.accesses);
    }

    #[test]
    fn buffer_tree_pops_in_global_order(keys in prop::collection::vec(0u64..1_000_000, 1..700)) {
        use asym_core::em::buffer_tree::BufferTree;
        let (m, b) = (16usize, 2usize);
        let em = EmMachine::new(EmConfig::new(m, b, 4).with_slack(m + 8 * b + m / b * 2));
        let mut tree = BufferTree::new(em, 1).expect("tree");
        let mut expect: Vec<Record> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new(k, i as u64))
            .collect();
        for &r in &expect {
            tree.insert(r).expect("insert");
        }
        expect.sort();
        let mut drained: Vec<Record> = Vec::new();
        while let Some(batch) = tree.pop_leftmost_leaf().expect("pop") {
            prop_assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch sorted");
            drained.extend(batch);
        }
        prop_assert_eq!(drained, expect);
        tree.validate();
    }

    #[test]
    fn mergesort_pointer_ablation_still_sorts(input in record_vec(500)) {
        use asym_core::em::mergesort::{aem_mergesort_opts, MergeOpts};
        let (m, b, k) = (16usize, 4usize, 2usize);
        let em = EmMachine::new(EmConfig::new(m, b, 4).with_slack(mergesort_slack(m, b, k)));
        let v = EmVec::stage(&em, &input);
        let sorted = aem_mergesort_opts(&em, v, k, MergeOpts { pointers_on_disk: true })
            .expect("sort");
        let out = sorted.read_all_uncharged(&em);
        let mut expect = input.clone();
        expect.sort();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn em_machine_cost_is_reads_plus_omega_writes(
        reads in 0u64..1000, writes in 0u64..1000, omega in 1u64..64,
    ) {
        let em = EmMachine::new(EmConfig::new(8, 4, omega));
        em.charge_reads(reads);
        em.charge_writes(writes);
        prop_assert_eq!(em.io_cost(), reads + omega * writes);
        let report = em.report();
        prop_assert_eq!(report.total(), em.io_cost());
    }
}
