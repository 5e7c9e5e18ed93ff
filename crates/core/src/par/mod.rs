//! Parallel sample sorts: a threaded wall-clock executor and a modeled
//! lane executor.
//!
//! The PRAM algorithms in [`crate::pram`] are *interpreted* single-threaded
//! with measured work-depth costs; this module holds the two executable
//! counterparts of the parallel story:
//!
//! * [`par_sample_sort`] — real crossbeam threads for wall-clock
//!   benchmarking: splitter-based bucketing with per-thread counting, a
//!   shared prefix, and parallel per-bucket sorts.
//! * [`aem_sample_sort`] — the *modeled* parallel AEM sort, run as the
//!   `par-aem-samplesort` algorithm of [`crate::sort::run`]: the same
//!   splitter discipline run against a sharded
//!   [`ParMachine`](em_sim::ParMachine), charging block reads and ω-cost
//!   writes to the lane that performs them, with span from `wd-sim`'s cost
//!   algebra and a simulated work-stealing execution of the phase DAG.
//!   Its key invariant — merged write totals are identical for every lane
//!   count — is what makes the paper's write bounds meaningful under
//!   parallel execution.
//!
//! Both reduce their sorted sample through [`splitters`], so they bucket
//! identically given the same sample.

pub mod aem_sample_sort;
pub mod sample_sort;
pub mod splitters;

pub use aem_sample_sort::{par_samplesort_slack, ParData};
pub use sample_sort::par_sample_sort;
