//! Replica chaos matrix: a WAL-shipped replica (virtual-cut backfill,
//! per-primary ship streams, gate-sequenced appliers) serves seeded
//! read-only clients while a live Remus migration moves a shard between
//! primaries, under seeded ship/apply faults — delayed, reordered, and
//! duplicated batches, stalled appliers, and (on some seeds) a
//! crash-restart of the replica mid-backfill. Two oracles must stay green
//! on every seed:
//!
//! * the SI checker over the full history (writers + replica readers), and
//! * the replica-staleness oracle: every replica read at watermark `W`
//!   sees every commit with `cts <= W` (strict forcing, even under DTS),
//!   and no replica session's snapshot ever regresses.

use remus_chaos::{run, Scenario};
use remus_clock::OracleKind;

/// 12 seeds, each run under both GTS and DTS. The seeded fault plan
/// varies ship-batch faults (delay / reorder+retransmit / duplicate),
/// applier stalls, propagation lag on the concurrent migration, clock
/// spikes (DTS), and whether the replica is crash-restarted mid-backfill.
#[test]
fn replica_matrix_keeps_si_and_staleness_green_across_seeds() {
    let mut restarts = 0usize;
    for seed in 0..12u64 {
        for oracle in [OracleKind::Gts, OracleKind::Dts] {
            let scenario = Scenario::replica(seed, oracle);
            let outcome = run(&scenario);
            outcome.expect_green(&scenario);
            assert!(
                outcome.migration_committed(),
                "seed {seed} ({oracle:?}): migration did not commit"
            );
            assert!(
                outcome.committed > 0,
                "seed {seed} ({oracle:?}): no writer committed"
            );
            assert!(
                outcome.replica_reads() > 0,
                "seed {seed} ({oracle:?}): no replica reads recorded"
            );
            if outcome.restart.is_some() {
                restarts += 1;
            }
        }
    }
    // The seed space must actually exercise the mid-backfill restart
    // drill — but not on every seed, or the fault-free path goes untested.
    assert!(
        restarts > 0 && restarts < 24,
        "mid-backfill replica restarts should fire on some seeds: {restarts}/24"
    );
}

/// The verdict and the fault plan are pure functions of the seed.
#[test]
fn replica_scenario_is_deterministic_in_verdict() {
    let scenario = Scenario::replica(5, OracleKind::Dts);
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a.plans, b.plans);
    assert_eq!(a.passed(), b.passed());
    a.expect_green(&scenario);
}
