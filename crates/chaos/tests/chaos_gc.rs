//! Chaos GC matrix: the seeded fault scenarios re-run with a concurrent
//! incremental version-chain GC thread racing the workload, the snapshot
//! copy, and the catch-up pipeline. The safe-ts watermark (oldest pinned
//! snapshot across sessions *and* in-flight migrations) must make GC
//! invisible to the SI checker: snapshot reads, first-committer-wins,
//! and committed-data preservation in the final scan all still hold.

use std::time::Duration;

use remus_chaos::{run, Scenario};

/// Seeds 0..12 cover every engine (seed % 4), both oracles, the crash
/// drill (seed 4), and a spread of data-plane parallelism shapes.
const SEEDS: std::ops::Range<u64> = 0..12;

#[test]
fn gc_matrix_keeps_si_green_across_seeds() {
    let mut total_pruned = 0u64;
    for seed in SEEDS {
        let mut scenario = Scenario::from_seed(seed);
        scenario.gc_interval = Some(Duration::from_millis(1));
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(outcome.committed > 0, "seed {seed} committed nothing");
        total_pruned += outcome.gc_pruned.expect("GC thread ran");
    }
    // Across the whole matrix the GC thread must actually have pruned
    // shadowed history — otherwise this matrix exercises nothing.
    assert!(
        total_pruned > 0,
        "concurrent GC never pruned a version across the seed matrix"
    );
}

#[test]
fn gc_scenario_is_deterministic_in_verdict() {
    // The GC thread's interleaving is nondeterministic, but the checker
    // verdict and fault plan must not be.
    let mut scenario = Scenario::remus_smoke(3);
    scenario.gc_interval = Some(Duration::from_millis(1));
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a.plans, b.plans);
    a.expect_green(&scenario);
    b.expect_green(&scenario);
}

/// The planner drive under the same GC thread: pruning races the measured
/// sweeps, the writers and every planner-chosen migration, and the decision
/// list still replays — GC must be invisible to the planner's input too.
#[test]
fn gc_is_invisible_to_the_planner_drive() {
    let mut scenario = Scenario::planner(4);
    scenario.gc_interval = Some(Duration::from_millis(1));
    let a = run(&scenario);
    a.expect_green(&scenario);
    assert!(a.migration_committed(), "{:?}", a.migrations);
    a.gc_pruned.expect("GC thread ran");
    scenario.gc_interval = None;
    assert_eq!(a.decisions, run(&scenario).decisions);
}
