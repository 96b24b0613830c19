//! Seeded fault plans.
//!
//! A [`FaultPlan`] is a finite list of [`FaultSpec`]s generated
//! deterministically from a seed: "at the 3rd visit of `PropagationShip` on
//! node 0, delay 4 ms". The [`PlanInjector`] counts visits per
//! `(point, node)` pair and fires the matching spec, so the *schedule* of
//! faults is a pure function of the seed and of how often each seam is
//! visited — never of wall-clock time.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
use remus_common::NodeId;

/// One scheduled fault: the `occurrence`-th visit (0-based) of `point` on
/// `node` performs `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which seam fires.
    pub point: InjectionPoint,
    /// On which node's visit.
    pub node: NodeId,
    /// Which visit (0-based occurrence count) of `(point, node)` fires.
    pub occurrence: u32,
    /// What happens at that visit.
    pub action: FaultAction,
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{}#{} -> {:?}",
            self.point, self.node, self.occurrence, self.action
        )
    }
}

/// Which family of faults a plan draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Faults every engine must tolerate without violating SI or losing
    /// data: propagation lag, replay-worker stalls, a widened sync-barrier
    /// window, a slowed snapshot copy, slowed MOCC validation, plus a
    /// possible clock-skew spike. The migration is expected to succeed.
    Tolerated,
    /// Exactly one crash of the `T_m` coordinator at a seeded 2PC step
    /// (before prepare / after prepare / before commit / after the first
    /// participant commit). Recovery must resolve the in-doubt `T_m` and
    /// the history must still check out.
    CrashTm,
    /// Exactly one whole-node crash-restart of the migration source or
    /// destination at a seeded stage of the copy/catch-up pipeline
    /// (encoded in the spec's `occurrence`: 0 = before the snapshot copy,
    /// 1 = after it, 2 = after post-copy catch-up traffic). The node is
    /// rebuilt from its on-disk WAL via `Cluster::restart_node` and a
    /// fresh engine must then complete the migration with SI intact.
    CrashRestart,
    /// Replica chaos: the canonical 4-node replica scenario (primaries
    /// 0–2, replica 3) runs a WAL-shipped replica while a live Remus
    /// migration moves a shard between primaries. Ship batches are
    /// delayed, reordered (`Fail` holds a batch until after its
    /// successor, then retransmits), and duplicated (`Crash`); the
    /// replica applier is stalled; and about two in five seeds also
    /// crash-restart the replica mid-backfill (a `CrashRestart` spec on
    /// the replica node), forcing a from-scratch re-bootstrap. Every
    /// fault is tolerated: the SI oracle and the replica-staleness
    /// oracle must both stay green.
    Replica,
}

/// The replica node of the canonical [`FaultProfile::Replica`] scenario
/// (4 nodes: primaries 0–2, replica 3).
pub const REPLICA_NODE: NodeId = NodeId(3);

/// A deterministic, seed-derived fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// The profile it was drawn from.
    pub profile: FaultProfile,
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
    /// A clock-skew spike (ms) applied to the destination node's physical
    /// clock before the migration starts, if any.
    pub clock_spike_ms: Option<u64>,
}

impl FaultPlan {
    /// Generates the plan for `seed`. `source`/`dest` are the migration's
    /// endpoints (faults target the seams those nodes visit).
    ///
    /// Delay magnitudes are kept far below the cluster's lock-wait timeout
    /// so tolerated faults slow the pipeline down without tripping any
    /// timeout guard.
    pub fn generate(seed: u64, profile: FaultProfile, source: NodeId, dest: NodeId) -> FaultPlan {
        // Decorrelate from other seed consumers (network, workload).
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
        let mut specs = Vec::new();
        match profile {
            FaultProfile::Tolerated => {
                for _ in 0..rng.gen_range(1..4usize) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::PropagationShip,
                        node: source,
                        occurrence: rng.gen_range(0..16u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..8u64))),
                    });
                }
                for _ in 0..rng.gen_range(0..3usize) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::ReplayApply,
                        node: dest,
                        occurrence: rng.gen_range(0..12u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..10u64))),
                    });
                }
                if rng.gen_bool(0.5) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::SyncBarrier,
                        node: source,
                        occurrence: 0,
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(5..25u64))),
                    });
                }
                if rng.gen_bool(0.4) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::SnapshotCopy,
                        node: source,
                        occurrence: 0,
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..6u64))),
                    });
                }
                // Chunked-copy seams: delays stagger the worker pool; at
                // most two Fail/Crash specs kill a copy worker mid-chunk.
                // Each killed attempt is retried (a row installed again at
                // its commit timestamp is edited in place, 4 attempts per
                // chunk), so two failures can
                // never exhaust a chunk's retry budget.
                for _ in 0..rng.gen_range(0..3usize) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::CopyChunk,
                        node: source,
                        occurrence: rng.gen_range(0..8u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..5u64))),
                    });
                }
                for _ in 0..rng.gen_range(0..3usize) {
                    let action = if rng.gen_bool(0.5) {
                        FaultAction::Fail
                    } else {
                        FaultAction::Crash
                    };
                    specs.push(FaultSpec {
                        point: InjectionPoint::CopyChunk,
                        node: source,
                        occurrence: rng.gen_range(0..6u32),
                        action,
                    });
                }
                if rng.gen_bool(0.3) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::MoccValidation,
                        node: dest,
                        occurrence: rng.gen_range(0..4u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..5u64))),
                    });
                }
            }
            FaultProfile::CrashTm => {
                let crash_points = [
                    InjectionPoint::TmBeforePrepare,
                    InjectionPoint::TmAfterPrepare,
                    InjectionPoint::TmBeforeCommit,
                    InjectionPoint::TmAfterFirstCommit,
                ];
                let point = crash_points[rng.gen_range(0..crash_points.len())];
                specs.push(FaultSpec {
                    point,
                    node: source,
                    occurrence: 0,
                    action: FaultAction::Crash,
                });
            }
            FaultProfile::Replica => {
                // Ship-stream faults on the primaries (the migration
                // endpoints plus the third primary of the canonical
                // topology). Delay lags a stream; Fail reorders a batch
                // behind its successor then retransmits it; Crash
                // duplicates a send — all absorbed by the apply-LSN gate.
                let primaries = [source, dest, NodeId(2)];
                for _ in 0..rng.gen_range(1..5usize) {
                    let action = match rng.gen_range(0..3u8) {
                        0 => FaultAction::Delay(Duration::from_millis(rng.gen_range(1..8u64))),
                        1 => FaultAction::Fail,
                        _ => FaultAction::Crash,
                    };
                    specs.push(FaultSpec {
                        point: InjectionPoint::ShipBatch,
                        node: primaries[rng.gen_range(0..primaries.len())],
                        occurrence: rng.gen_range(0..12u32),
                        action,
                    });
                }
                // Stalled replica applier.
                for _ in 0..rng.gen_range(0..3usize) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::ReplicaApply,
                        node: REPLICA_NODE,
                        occurrence: rng.gen_range(0..12u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..8u64))),
                    });
                }
                // The concurrent migration still absorbs propagation lag.
                for _ in 0..rng.gen_range(0..2usize) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::PropagationShip,
                        node: source,
                        occurrence: rng.gen_range(0..16u32),
                        action: FaultAction::Delay(Duration::from_millis(rng.gen_range(1..8u64))),
                    });
                }
                // Some seeds crash-restart the replica mid-backfill; the
                // runner reads this spec rather than counting visits.
                if rng.gen_bool(0.4) {
                    specs.push(FaultSpec {
                        point: InjectionPoint::CrashRestart,
                        node: REPLICA_NODE,
                        occurrence: 0,
                        action: FaultAction::Crash,
                    });
                }
            }
            FaultProfile::CrashRestart => {
                let victim = if rng.gen_bool(0.5) { source } else { dest };
                specs.push(FaultSpec {
                    point: InjectionPoint::CrashRestart,
                    node: victim,
                    // `occurrence` doubles as the pipeline stage the crash
                    // lands in (see the profile docs); the runner reads it
                    // straight from the spec rather than counting visits.
                    occurrence: rng.gen_range(0..3u32),
                    action: FaultAction::Crash,
                });
            }
        }
        let clock_spike_ms = if matches!(profile, FaultProfile::Tolerated | FaultProfile::Replica)
            && rng.gen_bool(0.4)
        {
            Some(rng.gen_range(5..40u64))
        } else {
            None
        };
        FaultPlan {
            seed,
            profile,
            specs,
            clock_spike_ms,
        }
    }

    /// The single crash point of a `CrashTm` plan.
    pub fn crash_point(&self) -> Option<InjectionPoint> {
        self.specs
            .iter()
            .find(|s| s.action == FaultAction::Crash)
            .map(|s| s.point)
    }

    /// The `(victim, stage)` of a `CrashRestart` plan (stage as documented
    /// on [`FaultProfile::CrashRestart`]).
    pub fn crash_restart_spec(&self) -> Option<(NodeId, u32)> {
        self.specs
            .iter()
            .find(|s| s.point == InjectionPoint::CrashRestart)
            .map(|s| (s.node, s.occurrence))
    }

    /// Whether a `Replica` plan crash-restarts the replica mid-backfill.
    pub fn replica_restart(&self) -> bool {
        self.specs
            .iter()
            .any(|s| s.point == InjectionPoint::CrashRestart && s.node == REPLICA_NODE)
    }
}

/// A [`FaultInjector`] that fires the specs of a plan by occurrence count.
///
/// Visit counting uses a mutex-protected map; decisions depend only on the
/// per-`(point, node)` visit ordinal, which makes the schedule robust to
/// thread interleaving at *other* seams.
pub struct PlanInjector {
    specs: Vec<FaultSpec>,
    counts: Mutex<HashMap<(InjectionPoint, NodeId), u32>>,
}

impl PlanInjector {
    /// An injector firing the plan's specs.
    pub fn new(plan: &FaultPlan) -> PlanInjector {
        PlanInjector::from_specs(plan.specs.clone())
    }

    /// An injector firing an explicit spec list (used by the shrinker to
    /// re-run with fault subsets).
    pub fn from_specs(specs: Vec<FaultSpec>) -> PlanInjector {
        PlanInjector {
            specs,
            counts: Mutex::new(HashMap::new()),
        }
    }
}

impl FaultInjector for PlanInjector {
    fn decide(&self, point: InjectionPoint, node: NodeId) -> FaultAction {
        let mut counts = self.counts.lock();
        let count = counts.entry((point, node)).or_insert(0);
        let occurrence = *count;
        *count += 1;
        self.specs
            .iter()
            .find(|s| s.point == point && s.node == node && s.occurrence == occurrence)
            .map(|s| s.action)
            .unwrap_or(FaultAction::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for seed in 0..50u64 {
            for profile in [
                FaultProfile::Tolerated,
                FaultProfile::CrashTm,
                FaultProfile::CrashRestart,
                FaultProfile::Replica,
            ] {
                let a = FaultPlan::generate(seed, profile, NodeId(0), NodeId(1));
                let b = FaultPlan::generate(seed, profile, NodeId(0), NodeId(1));
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let plans: Vec<FaultPlan> = (0..20)
            .map(|s| FaultPlan::generate(s, FaultProfile::Tolerated, NodeId(0), NodeId(1)))
            .collect();
        assert!(plans.windows(2).any(|w| w[0].specs != w[1].specs));
    }

    #[test]
    fn crash_plan_has_exactly_one_crash() {
        for seed in 0..30u64 {
            let plan = FaultPlan::generate(seed, FaultProfile::CrashTm, NodeId(0), NodeId(1));
            let crashes = plan
                .specs
                .iter()
                .filter(|s| s.action == FaultAction::Crash)
                .count();
            assert_eq!(crashes, 1);
            assert!(plan.crash_point().is_some());
        }
    }

    #[test]
    fn crash_restart_plan_targets_an_endpoint_at_a_valid_stage() {
        let mut victims = std::collections::HashSet::new();
        let mut stages = std::collections::HashSet::new();
        for seed in 0..40u64 {
            let plan = FaultPlan::generate(seed, FaultProfile::CrashRestart, NodeId(0), NodeId(1));
            assert_eq!(plan.specs.len(), 1);
            let (victim, stage) = plan.crash_restart_spec().expect("restart spec");
            assert!(victim == NodeId(0) || victim == NodeId(1));
            assert!(stage < 3, "seed {seed}: stage {stage}");
            assert_eq!(plan.crash_point(), Some(InjectionPoint::CrashRestart));
            victims.insert(victim);
            stages.insert(stage);
        }
        // The seed space actually exercises both victims and all stages.
        assert_eq!(victims.len(), 2);
        assert_eq!(stages.len(), 3);
    }

    #[test]
    fn injector_fires_on_the_scheduled_occurrence_only() {
        let spec = FaultSpec {
            point: InjectionPoint::PropagationShip,
            node: NodeId(0),
            occurrence: 2,
            action: FaultAction::Fail,
        };
        let inj = PlanInjector::from_specs(vec![spec]);
        // Visits 0 and 1 continue; visit 2 fires; later visits continue.
        assert_eq!(
            inj.decide(InjectionPoint::PropagationShip, NodeId(0)),
            FaultAction::Continue
        );
        // A visit of a different point/node does not advance this counter.
        assert_eq!(
            inj.decide(InjectionPoint::ReplayApply, NodeId(0)),
            FaultAction::Continue
        );
        assert_eq!(
            inj.decide(InjectionPoint::PropagationShip, NodeId(1)),
            FaultAction::Continue
        );
        assert_eq!(
            inj.decide(InjectionPoint::PropagationShip, NodeId(0)),
            FaultAction::Continue
        );
        assert_eq!(
            inj.decide(InjectionPoint::PropagationShip, NodeId(0)),
            FaultAction::Fail
        );
        assert_eq!(
            inj.decide(InjectionPoint::PropagationShip, NodeId(0)),
            FaultAction::Continue
        );
    }

    #[test]
    fn tolerated_copy_chunk_kills_stay_within_retry_budget() {
        for seed in 0..200u64 {
            let plan = FaultPlan::generate(seed, FaultProfile::Tolerated, NodeId(0), NodeId(1));
            let kills = plan
                .specs
                .iter()
                .filter(|s| {
                    s.point == InjectionPoint::CopyChunk
                        && matches!(s.action, FaultAction::Fail | FaultAction::Crash)
                })
                .count();
            assert!(kills <= 2, "seed {seed}: {kills} copy-chunk kills");
        }
    }

    #[test]
    fn replica_plans_cover_ship_apply_and_restart() {
        let mut ship = false;
        let mut apply = false;
        let mut restarts = 0usize;
        for seed in 0..40u64 {
            let plan = FaultPlan::generate(seed, FaultProfile::Replica, NodeId(0), NodeId(1));
            ship |= plan
                .specs
                .iter()
                .any(|s| s.point == InjectionPoint::ShipBatch);
            apply |= plan
                .specs
                .iter()
                .any(|s| s.point == InjectionPoint::ReplicaApply && s.node == REPLICA_NODE);
            if plan.replica_restart() {
                restarts += 1;
            }
            for spec in &plan.specs {
                if let FaultAction::Delay(d) = spec.action {
                    assert!(d < Duration::from_millis(50), "{spec}");
                }
            }
        }
        assert!(ship, "no seed scheduled a ship-batch fault");
        assert!(apply, "no seed scheduled a replica-apply stall");
        assert!(
            restarts > 0 && restarts < 40,
            "mid-backfill restarts should fire on some but not all seeds: {restarts}"
        );
    }

    #[test]
    fn tolerated_delays_stay_far_below_lock_wait_timeout() {
        for seed in 0..100u64 {
            let plan = FaultPlan::generate(seed, FaultProfile::Tolerated, NodeId(0), NodeId(1));
            for spec in &plan.specs {
                if let FaultAction::Delay(d) = spec.action {
                    assert!(d < Duration::from_millis(50), "{spec}");
                }
            }
        }
    }
}
