//! Serializable-mode chaos matrix: the seeded fault scenarios re-run with
//! the cluster at `IsolationLevel::Serializable`, so the SSI subsystem
//! (SIREAD tables, rw-antidependency flags, dangerous-structure aborts,
//! and the migration-time state handover) races seeded clients, network
//! faults, a live shard migration, and a concurrent GC thread retiring
//! SIREAD entries at the safe-ts watermark.
//!
//! The verdict adds the serializability oracle on top of the SI battery:
//! the committed history's direct serialization graph — ww edges from the
//! version chains, wr edges from observed values, rw edges recomputed from
//! version order — must be acyclic on every seed, with the shard moving
//! mid-workload through each push engine.

use remus_chaos::{run, EngineKind, OracleId, Scenario};
use remus_clock::OracleKind;

/// Seeds 0..12 cover every push engine (seed % 3) and a spread of
/// data-plane parallelism shapes and fault schedules.
const SEEDS: std::ops::Range<u64> = 0..12;

fn run_matrix(oracle: OracleKind) {
    let mut pruned = 0u64;
    for seed in SEEDS {
        let scenario = Scenario::serializable(seed, oracle);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(
            !outcome
                .violations
                .failed_oracles()
                .contains(&OracleId::Serializability),
            "seed {seed}: serialization graph has a cycle"
        );
        assert!(outcome.committed > 0, "seed {seed} committed nothing");
        assert!(
            outcome.migration_committed(),
            "seed {seed}: migration failed"
        );
        pruned += outcome.gc_pruned.expect("the serializable matrix runs GC");
    }
    // The GC thread must have actually retired history across the matrix,
    // otherwise SIREAD retention was never raced.
    assert!(pruned > 0, "GC never pruned a version across the matrix");
}

#[test]
fn serializable_matrix_gts() {
    run_matrix(OracleKind::Gts);
}

#[test]
fn serializable_matrix_dts() {
    run_matrix(OracleKind::Dts);
}

#[test]
fn serializable_scenario_is_deterministic_in_verdict() {
    let scenario = Scenario::serializable(5, OracleKind::Dts);
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a.plans, b.plans);
    assert_eq!(a.passed(), b.passed());
    a.expect_green(&scenario);
}

/// The planner drive at `Serializable`: SIREAD state is handed over by every
/// planner-chosen migration while the measured sweeps (read-only and
/// write-only transactions) and the racing writers run under SSI, and the
/// serialization graph of the whole multi-migration history stays acyclic.
#[test]
fn planner_drive_is_serializable_under_ssi() {
    let base = Scenario::serializable(1, OracleKind::Gts);
    let scenario = Scenario {
        isolation: base.isolation,
        gc_interval: base.gc_interval,
        ..Scenario::planner(1)
    };
    let outcome = run(&scenario);
    outcome.expect_green(&scenario);
    assert!(outcome.committed > 0, "no writer committed");
    assert!(!outcome.decisions.is_empty(), "the planner never tripped");
}

#[test]
fn serializable_seeds_cover_every_push_engine() {
    let engines: Vec<EngineKind> = SEEDS
        .map(|s| Scenario::serializable(s, OracleKind::Gts).engine)
        .collect();
    for kind in [
        EngineKind::Remus,
        EngineKind::LockAbort,
        EngineKind::Remaster,
    ] {
        assert!(engines.contains(&kind), "{kind:?} never runs");
    }
    assert!(!engines.contains(&EngineKind::Squall));
}
