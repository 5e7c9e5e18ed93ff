//! The unified sort API, end to end:
//!
//! * `SortSpec` validation: every invalid combination is a typed
//!   `SpecError` (and backend faults a typed `ModelError`), never a panic;
//! * the §2 steal-charging knob: off by default (cost-neutral), folded into
//!   lane stats when enabled.
//!
//! The absolute modeled counts of every algorithm through `sort::run` are
//! frozen in `tests/cost_golden.rs`. The `ASYM_BENCH_*` absorption of
//! `SortSpecBuilder::from_env` lives in its own binary
//! (`tests/sort_env.rs`) because it mutates the process environment.

use asym_core::sort::{self, Algorithm, SortSpec, SpecError};
use asym_model::workload::Workload;
use asym_model::ModelError;
use em_sim::{Backend, EmStats};

const OMEGA: u64 = 8;

#[test]
fn spec_validation_yields_typed_errors_never_panics() {
    // ω = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::Mergesort, 32, 4, 0).build(),
        Err(SpecError::ZeroOmega)
    );
    // B > M.
    assert_eq!(
        SortSpec::builder(Algorithm::Samplesort, 4, 32, 8).build(),
        Err(SpecError::BlockExceedsMemory { b: 32, m: 4 })
    );
    // lanes = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::ParSamplesort, 32, 4, 8)
            .lanes(0)
            .build(),
        Err(SpecError::ZeroLanes)
    );
    // Fan-in below 2 (kM/B = 1).
    assert_eq!(
        SortSpec::builder(Algorithm::Heapsort, 4, 4, 8).build(),
        Err(SpecError::FanInTooSmall { fan_in: 1 })
    );
    // k = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(0)
            .build(),
        Err(SpecError::ZeroWriteFactor)
    );
    // Lanes on a sequential sort.
    assert!(matches!(
        SortSpec::builder(Algorithm::Heapsort, 32, 4, 8)
            .lanes(2)
            .build(),
        Err(SpecError::LanesOnSerialSort { .. })
    ));
    // Errors display human-readable text.
    let e = SortSpec::builder(Algorithm::Mergesort, 4, 32, 8)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("B = 32"), "{e}");
}

#[test]
fn file_backend_in_unwritable_dir_is_a_typed_model_error() {
    let missing = std::env::temp_dir().join("asym-sort-api-no-such-dir-xyzzy");
    for algorithm in [Algorithm::Mergesort, Algorithm::ParSamplesort] {
        let spec = SortSpec::builder(algorithm, 32, 4, 8)
            .lanes(if algorithm.is_parallel() { 2 } else { 1 })
            .backend(Backend::File)
            .file_dir(&missing)
            .build()
            .expect("the spec itself is valid — the fault is at machine build");
        let input = Workload::UniformRandom.generate(100, 1);
        let err = sort::run(&spec, &input).unwrap_err();
        assert!(
            matches!(err, ModelError::Io(_)),
            "{algorithm}: expected ModelError::Io, got {err}"
        );
    }
    // A writable custom dir works (and is where the backing files land).
    let dir = std::env::temp_dir();
    let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
        .backend(Backend::File)
        .file_dir(&dir)
        .build()
        .expect("valid spec");
    let input = Workload::UniformRandom.generate(300, 2);
    let outcome = sort::run(&spec, &input).expect("file-backed run");
    let mut expect = input.clone();
    expect.sort();
    assert_eq!(outcome.output, expect);
}

#[test]
fn steal_charge_knob_is_off_by_default_and_folds_when_on() {
    let input = Workload::UniformRandom.generate(5000, 9);
    let base_spec = SortSpec::builder(Algorithm::ParSamplesort, 32, 4, OMEGA)
        .lanes(4)
        .seed(31)
        .build()
        .expect("valid spec");
    assert!(!base_spec.steal_charge(), "knob defaults off");
    let charged_spec = SortSpec::builder(Algorithm::ParSamplesort, 32, 4, OMEGA)
        .lanes(4)
        .seed(31)
        .steal_charge(true)
        .build()
        .expect("valid spec");

    let base = sort::run(&base_spec, &input).expect("base");
    let charged = sort::run(&charged_spec, &input).expect("charged");

    // Identical schedule and output; the charge is an accounting overlay.
    assert_eq!(base.output, charged.output);
    let base_par = base.parallel.as_ref().expect("lane detail");
    let charged_par = charged.parallel.as_ref().expect("lane detail");
    assert_eq!(base_par.sched, charged_par.sched);
    assert_eq!(base_par.steal_warmup, EmStats::default());

    // Warm-up: M/B reads + M/B writes per successful steal, and the base
    // counts are recoverable by subtraction.
    let mb = 32u64 / 4;
    assert_eq!(
        charged_par.steal_warmup.block_reads,
        charged_par.sched.steals * mb
    );
    assert_eq!(
        charged_par.steal_warmup.block_writes,
        charged_par.sched.steals * mb
    );
    assert_eq!(charged.base_stats(), base.stats);
    assert_eq!(
        charged.stats.block_writes,
        base.stats.block_writes + charged_par.steal_warmup.block_writes
    );
    // The cost algebra stays consistent with the charged counters.
    assert_eq!(charged_par.cost.reads, charged.stats.block_reads);
    assert_eq!(charged_par.cost.writes, charged.stats.block_writes);
}
