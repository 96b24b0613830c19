//! Planner-drive replica chaos matrix: the replicate-or-migrate autopilot
//! core drives replica provisioning and decommissioning from measured
//! load, under seeded ship/apply faults and racing writers.
//!
//! Each scenario runs the fixed replica round script (read-hot, read-hot,
//! write-only, read-hot) on the canonical 4-node topology: round 0's
//! read-dominant hotspot must price replication above the best balance
//! move and provision the spare, round 1 balances with the replica live,
//! round 2's readless window drops demand below the floor and retires it,
//! and round 3 balances after the retirement. Three properties must hold
//! on every seed × oracle cell:
//!
//! * the SI checker stays green over the full history (writers, measured
//!   sweeps, and replica readers) across every planner-chosen action;
//! * the replica-staleness oracle stays green: every replica read at
//!   watermark `W` sees every commit with `cts <= W` (strict forcing,
//!   even under DTS), and the shared replica client's snapshot never
//!   regresses across sweeps;
//! * the decision list replays verbatim — provisioning and retirement
//!   are pure functions of the seed.

use remus_chaos::{run, Scenario};
use remus_clock::OracleKind;

/// 12 seeds × {GTS, DTS}. Engines cycle with the seed for the migrations
/// that run alongside the replica actions; the seeded fault plans vary
/// ship-batch faults, applier stalls, and (for the migrations) the
/// tolerated-fault family.
#[test]
fn planner_replica_matrix_keeps_si_and_staleness_green() {
    for seed in 0..12u64 {
        for oracle in [OracleKind::Gts, OracleKind::Dts] {
            let scenario = Scenario::planner_replica(seed, oracle);
            let outcome = run(&scenario);
            outcome.expect_green(&scenario);
            assert!(
                outcome
                    .decisions
                    .iter()
                    .any(|d| d.starts_with("replicate ")),
                "seed {seed} ({oracle:?}): no provision decided: {:?}",
                outcome.decisions
            );
            assert!(
                outcome
                    .decisions
                    .iter()
                    .any(|d| d.starts_with("decommission ")),
                "seed {seed} ({oracle:?}): no retirement decided: {:?}",
                outcome.decisions
            );
            assert!(
                outcome.replica_reads() > 0,
                "seed {seed} ({oracle:?}): no replica reads recorded"
            );
            assert!(
                outcome.committed > 0,
                "seed {seed} ({oracle:?}): no writer committed"
            );
        }
    }
}

/// Verbatim decision replay on a sample of the matrix: same seed, same
/// oracle, identical decision strings — including the replica actions.
#[test]
fn planner_replica_decisions_replay_verbatim() {
    for (seed, oracle) in [
        (2u64, OracleKind::Gts),
        (7, OracleKind::Dts),
        (11, OracleKind::Gts),
    ] {
        let scenario = Scenario::planner_replica(seed, oracle);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(
            a.decisions, b.decisions,
            "seed {seed} ({oracle:?}): decision replay diverged"
        );
        a.expect_green(&scenario);
        b.expect_green(&scenario);
    }
}
