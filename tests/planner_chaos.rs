//! Seeded chaos over the elasticity autopilot (the planner drive).
//!
//! Unlike `chaos_scenarios.rs`, where the migration is fixed by the
//! harness, here the *planner chooses every migration* from load it
//! measured itself: each seed runs four measure → plan → execute rounds,
//! with a seeded fault plan and racing writer threads around every chosen
//! migration. The recorded history must satisfy snapshot isolation with
//! one routing spec per autopilot move, committed data must survive every
//! move, and — the planner-specific contract — replaying a seed must
//! reproduce the decision list verbatim.
//!
//! Seeds are split by engine residue (`seed % 3` picks the push engine)
//! so the three suites run in parallel; the oracle alternates GTS/DTS
//! across engine cycles (`seed / 3`).

use remus::chaos::{run, EngineKind, Scenario};

/// Seeds per engine residue; 3 residues × 4 = 12 scenarios total.
const SEEDS_PER_ENGINE: u64 = 4;

fn run_residue(residue: u64, engine: EngineKind) {
    for i in 0..SEEDS_PER_ENGINE {
        let seed = i * 3 + residue;
        let scenario = Scenario::planner(seed);
        assert_eq!(scenario.engine, engine);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(
            !outcome.decisions.is_empty(),
            "seed {seed}: the planner never tripped on the hot node"
        );
        assert_eq!(outcome.decisions.len(), outcome.migrations.len());
        assert!(
            outcome.migrations.iter().all(|m| m.committed),
            "seed {seed}: an autopilot-chosen migration failed outright"
        );
        assert!(
            outcome.committed > 0,
            "seed {seed}: no writer transaction committed"
        );
    }
}

#[test]
fn planner_chaos_seeds_remus() {
    run_residue(0, EngineKind::Remus);
}

#[test]
fn planner_chaos_seeds_lock_and_abort() {
    run_residue(1, EngineKind::LockAbort);
}

#[test]
fn planner_chaos_seeds_wait_and_remaster() {
    run_residue(2, EngineKind::Remaster);
}

/// The determinism contract: same seed, same decisions — byte-for-byte.
/// One replayed seed per engine, including the engine that aborts
/// conflicting writers (whose abort pattern must *not* leak into the
/// planner's measured input).
#[test]
fn planner_decisions_replay_identically() {
    for seed in [0u64, 1, 2] {
        let scenario = Scenario::planner(seed);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(
            a.decisions, b.decisions,
            "seed {seed}: decision replay diverged"
        );
        a.expect_green(&scenario);
        b.expect_green(&scenario);
    }
}
