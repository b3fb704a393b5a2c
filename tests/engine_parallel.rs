//! Acceptance tests for the parallel batch engine and the `Session`
//! batch-determinism contract:
//!
//! * determinism — parallel reports are byte-identical (fingerprint by
//!   fingerprint, in order) to the sequential session's, at any worker
//!   count;
//! * cache correctness — a warm-cache run is byte-identical to the
//!   cold run that populated it;
//! * isolation — one function that cannot be allocated yields one
//!   `Err` without disturbing the rest of the batch;
//! * order stability — a batch report depends only on its own
//!   function, never on batch order, batch size, or previous batches
//!   (the regression the stateful coldest-first policy used to fail).

use tadfa::prelude::*;

fn suite_funcs() -> Vec<Function> {
    standard_suite().into_iter().map(|w| w.func).collect()
}

fn fingerprints(reports: Vec<Result<ThermalReport, TadfaError>>) -> Vec<u128> {
    reports
        .into_iter()
        .map(|r| r.expect("suite analyzes").fingerprint())
        .collect()
}

/// The acceptance criterion in its executable form: for each policy,
/// `Engine::analyze_batch_parallel` at 1 and 4 workers returns reports
/// byte-identical to `Session::analyze_batch`, in the same order.
#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    let funcs = suite_funcs();
    for policy in ["first-free", "round-robin", "chessboard", "coldest-first"] {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .policy_name(policy, 7)
            .build()
            .unwrap();
        let sequential = fingerprints(session.analyze_batch(&funcs));
        for workers in [1, 4] {
            let engine = Engine::from_session(&session, workers).unwrap();
            let parallel = fingerprints(engine.analyze_batch_parallel(&funcs));
            assert_eq!(sequential, parallel, "{policy} at {workers} workers");
        }
    }
}

/// Warm-cache reports are bit-equal to the cold run's: the cache keys
/// on exact bit patterns, so it only ever answers with the exact output
/// of a bit-identical input.
#[test]
fn warm_cache_reports_are_bit_equal_to_cold() {
    let session = Session::builder().floorplan(8, 8).build().unwrap();
    let engine = Engine::from_session(&session, 4).unwrap();
    // Replicated kernels: the second and later copies are pure cache
    // traffic even within the cold run.
    let funcs: Vec<Function> = tadfa::workloads::replicated_suite(2)
        .into_iter()
        .map(|w| w.func)
        .collect();

    let cold = fingerprints(engine.analyze_batch_parallel(&funcs));
    let cold_stats = engine.cache_stats();
    assert!(cold_stats.entries > 0);
    assert!(
        cold_stats.hits > 0,
        "replicated kernels hit in the cold run already: {cold_stats:?}"
    );

    let warm = fingerprints(engine.analyze_batch_parallel(&funcs));
    let warm_stats = engine.cache_stats();
    assert_eq!(cold, warm, "warm cache must not change any report");
    assert!(
        warm_stats.hits > cold_stats.hits,
        "second run is served from cache: {warm_stats:?}"
    );
}

/// One poisoned item — a function whose allocation cannot terminate
/// within the session's round budget — produces exactly one `Err`; the
/// other items' reports are untouched (bit-equal to a batch without
/// the poison).
#[test]
fn poisoned_item_fails_alone() {
    // 4 registers, one allocation round: a high-pressure function
    // spills in round 1 and has no round left to retry.
    let build = || {
        Session::builder()
            .floorplan(2, 2)
            .alloc_config(RegAllocConfig { max_rounds: 1 })
            .policy_name("first-free", 0)
            .build()
            .unwrap()
    };

    let mut b = FunctionBuilder::new("pressure");
    let mut vals = vec![b.param()];
    for i in 0..12 {
        let v = b.iconst(i);
        vals.push(v);
    }
    // Keep everything live to the end: fold all values pairwise.
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.add(acc, v);
    }
    b.ret(Some(acc));
    let poison = b.finish();

    let mut small = FunctionBuilder::new("small");
    let x = small.param();
    let y = small.add(x, x);
    small.ret(Some(y));
    let small = small.finish();

    let engine = Engine::from_session(&build(), 2).unwrap();
    let reports = engine.analyze_batch_parallel(&[small.clone(), poison, small.clone()]);
    assert_eq!(reports.len(), 3);
    assert!(reports[0].is_ok(), "{:?}", reports[0].as_ref().err());
    assert!(
        matches!(reports[1], Err(TadfaError::Alloc(_))),
        "poison fails with an allocation error: {:?}",
        reports[1].as_ref().map(|_| ())
    );
    assert!(reports[2].is_ok());

    // The healthy items are bit-equal to a poison-free batch.
    let clean = engine.analyze_batch_parallel(&[small.clone(), small]);
    assert_eq!(
        reports[0].as_ref().unwrap().fingerprint(),
        clean[0].as_ref().unwrap().fingerprint()
    );
    assert_eq!(
        reports[2].as_ref().unwrap().fingerprint(),
        clean[1].as_ref().unwrap().fingerprint()
    );
}

/// The `Session::analyze_batch` contract: reports are order-stable and
/// independent of batch size. The coldest-first policy is the
/// regression case — it keeps per-cell heat scores, and before the
/// policy reset fix those leaked from one batch item into the next, so
/// item k's report depended on items 0..k.
#[test]
fn batch_reports_are_order_stable_and_size_independent() {
    let build = || {
        Session::builder()
            .floorplan(8, 8)
            .policy_name("coldest-first", 0)
            .build()
            .unwrap()
    };
    let funcs = suite_funcs();

    let forward = fingerprints(build().analyze_batch(&funcs));

    // Reversed batch: each function's report must be unchanged.
    let reversed: Vec<Function> = funcs.iter().rev().cloned().collect();
    let mut backward = fingerprints(build().analyze_batch(&reversed));
    backward.reverse();
    assert_eq!(forward, backward, "batch order must not matter");

    // Singleton batches: batch size must not matter.
    for (k, f) in funcs.iter().enumerate() {
        let solo = fingerprints(build().analyze_batch(std::slice::from_ref(f)));
        assert_eq!(forward[k], solo[0], "item {k} depends on batch size");
    }

    // And the same session reused across consecutive batches carries
    // nothing over.
    let mut session = build();
    let first = fingerprints(session.analyze_batch(&funcs));
    let second = fingerprints(session.analyze_batch(&funcs));
    assert_eq!(first, second, "batches must not leak state");
}

/// Sharding a suite (the distribution helper for multi-engine fan-out)
/// never changes a report: concatenated shard results equal the whole
/// batch's. `shard` is total, so even degenerate shard counts stitch
/// back to the identical batch.
#[test]
fn sharded_batches_reproduce_the_whole_batch() {
    let session = Session::builder().floorplan(8, 8).build().unwrap();
    let engine = Engine::from_session(&session, 2).unwrap();
    let funcs = suite_funcs();
    let whole = fingerprints(engine.analyze_batch_parallel(&funcs));

    for n in [0, 3, 100] {
        let mut stitched = Vec::new();
        for shard in tadfa::workloads::shard(funcs.clone(), n) {
            stitched.extend(fingerprints(engine.analyze_batch_parallel(&shard)));
        }
        assert_eq!(whole, stitched, "n={n}");
    }
}

/// The scheduler layer rides the engine's determinism: a multi-core
/// scenario (analysis fan-out + mapping + die simulation) fingerprints
/// identically at every worker count, including workers ≫ tasks.
#[test]
fn scheduler_output_is_deterministic_across_worker_counts() {
    use tadfa::sched::{run_scenario, MultiCoreFloorplan, ScenarioConfig};

    let die = MultiCoreFloorplan::new(3, 4, 4, RcParams::default(), Some(35.0)).unwrap();
    let tasks = tadfa::sched::suite_tasks(5, 4e-4, 1e-3);
    let run = |workers: usize, mapping: &str| {
        let mut cfg = ScenarioConfig::new("det", die.clone(), tasks.clone(), mapping);
        cfg.workers = workers;
        run_scenario(&cfg).unwrap().fingerprint()
    };
    // Two policies here (the other two are covered by the sched crate's
    // unit tests and tests/multicore_scenarios.rs — same invariant, no
    // need to re-run all four at every layer); 16 workers ≫ 5 tasks.
    for mapping in ["round-robin", "static-shard"] {
        let base = run(1, mapping);
        for workers in [2, 16] {
            assert_eq!(
                run(workers, mapping),
                base,
                "{mapping} at {workers} workers"
            );
        }
    }
}
