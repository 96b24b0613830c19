//! The one chaos scenario description, what a run of it yields, and the
//! failure report every matrix prints.
//!
//! A [`Scenario`] is data: the seed everything derives from, the engine, the
//! timestamp oracle, the isolation level, the data-plane parallelism, the GC
//! cadence, the WAL backend, and *what drives migrations* — the fixed
//! `ShardId(0): NodeId(0) → NodeId(1)` move under a [`FaultProfile`], or the
//! planner choosing every action from load it measured. Cluster size, table
//! size, client counts and round counts are not part of it: no matrix ever
//! varied them, so they are constants of the [runner](crate::runner).
//!
//! Every field is honoured by both drives, because every lifecycle step of
//! the runner is written once. The four combinations that makes expressible
//! for the first time — the planner drive with a GC thread, under
//! `Serializable`, on a file-backed WAL, with seeded parallelism — each run on
//! one seed of the matrix that owns that axis (`chaos_gc`,
//! `chaos_serializable`, `chaos_restart`, `chaos_scenarios`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use remus_clock::OracleKind;
use remus_common::{IsolationLevel, NodeId, ParallelismConfig, SimConfig, Timestamp};
use remus_core::EngineKind;
use remus_txn::ReplaySummary;

use crate::checker::{MigrationSpec, Verdict};
use crate::history::TxnRecord;
use crate::plan::{FaultPlan, FaultProfile};
use crate::runner::run_with_specs;
use crate::shrink::shrink_plan;

/// What decides which shard moves where, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// The harness moves `ShardId(0)` from `NodeId(0)` to `NodeId(1)` once,
    /// under the script and the seeded fault plan of this profile.
    Fixed(FaultProfile),
    /// The planner chooses every action from load it measured itself: four
    /// measure → plan → execute rounds, a seeded tolerated-fault plan and
    /// racing writers around each chosen action. With `replicas` the planner
    /// may also provision and retire a WAL-shipped replica on a fourth,
    /// initially empty node, and the round script alternates read-hot and
    /// write-only measured batches so the seed deterministically drives a
    /// provision *and* a decommission.
    Planner {
        /// Replica actions on.
        replicas: bool,
    },
}

/// Full description of one chaos scenario (see the module docs).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: fault plans, network perturbation, client keys, hot-node
    /// choices and planner tie-breaks all derive from it.
    pub seed: u64,
    /// Engine every migration runs through.
    pub engine: EngineKind,
    /// Timestamp oracle. GTS enables the timestamp-strict read axiom.
    pub oracle: OracleKind,
    /// Isolation level the cluster runs at. `Serializable` arms the SSI
    /// subsystem on every node and adds the serializability oracle (DSG
    /// cycle check) to the verdict.
    pub isolation: IsolationLevel,
    /// Data-plane parallelism (copy/replay workers, chunk size, drain
    /// batch) migrations run with.
    pub parallelism: ParallelismConfig,
    /// When set, a background thread runs incremental version-chain GC
    /// (`Cluster::gc_tick`) at this cadence for the whole scenario, so
    /// pruning races the workload, the snapshot copy, and the final scan.
    pub gc_interval: Option<Duration>,
    /// When set, every node runs the file-backed WAL rooted here (one
    /// `node-<id>` subdirectory per node). Required by the `CrashRestart`
    /// profile — a restart from an in-memory WAL would lose the history.
    pub wal_dir: Option<PathBuf>,
    /// What drives migrations.
    pub drive: Drive,
}

/// The push engines, cycled by seed where Squall is out of scope (its
/// shard-lock mode bypasses the MVCC commit path SSI hooks into, its pull
/// protocol is not a restartable control-plane procedure, and the planner
/// drives push migrations).
fn push_engine(seed: u64) -> EngineKind {
    EngineKind::push_engines()[(seed % 3) as usize]
}

/// GTS on even `n`, DTS on odd.
fn alternating(n: u64) -> OracleKind {
    if n.is_multiple_of(2) {
        OracleKind::Gts
    } else {
        OracleKind::Dts
    }
}

impl Scenario {
    /// A fixed Remus tolerated-fault scenario for smoke tests — and the base
    /// every other constructor states its differences from: DTS, snapshot
    /// isolation, in-memory WAL, no GC thread, and a seed-derived data plane
    /// whose worker counts vary from sequential to 4-wide and whose small
    /// chunk size (8 keys over a 48-key table) forces several chunks per
    /// shard, so the chunked-copy seams and copy-LSN gating are exercised.
    pub fn remus_smoke(seed: u64) -> Scenario {
        Scenario {
            seed,
            engine: EngineKind::Remus,
            oracle: OracleKind::Dts,
            isolation: IsolationLevel::SnapshotIsolation,
            parallelism: ParallelismConfig {
                copy_workers: 1 + ((seed / 2) % 4) as usize,
                replay_workers: 1 + ((seed / 3) % 4) as usize,
                chunk_size: 8,
                drain_batch: 1 + ((seed / 5) % 8) as usize,
            },
            gc_interval: None,
            wal_dir: None,
            drive: Drive::Fixed(FaultProfile::Tolerated),
        }
    }

    /// The canonical scenario for a seed: engine = `seed % 4`, the oracle
    /// alternates GTS/DTS across engine cycles, and every second Remus seed
    /// crashes `T_m` instead of running the tolerated-fault profile.
    pub fn from_seed(seed: u64) -> Scenario {
        let engine = EngineKind::all()[(seed % 4) as usize];
        let profile = if engine == EngineKind::Remus && seed % 8 == 4 {
            FaultProfile::CrashTm
        } else {
            FaultProfile::Tolerated
        };
        Scenario {
            engine,
            oracle: alternating(seed / 4),
            drive: Drive::Fixed(profile),
            ..Self::remus_smoke(seed)
        }
    }

    /// The canonical replica scenario: a fourth node runs a WAL-shipped
    /// replica bootstrapped by virtual-cut backfill and serves seeded
    /// read-only clients while a live Remus migration moves the shard
    /// between primaries, under seeded ship/apply faults — and, on some
    /// seeds, a mid-backfill crash-restart of the replica (see
    /// [`FaultProfile::Replica`]).
    pub fn replica(seed: u64, oracle: OracleKind) -> Scenario {
        Scenario {
            oracle,
            drive: Drive::Fixed(FaultProfile::Replica),
            ..Self::remus_smoke(seed)
        }
    }

    /// A crash-restart drill: file-backed WAL rooted at `wal_dir`, the
    /// victim node and crash stage drawn from the seed (see
    /// [`FaultProfile::CrashRestart`]).
    pub fn crash_restart(
        seed: u64,
        engine: EngineKind,
        oracle: OracleKind,
        wal_dir: impl Into<PathBuf>,
    ) -> Scenario {
        Scenario {
            engine,
            oracle,
            wal_dir: Some(wal_dir.into()),
            drive: Drive::Fixed(FaultProfile::CrashRestart),
            ..Self::remus_smoke(seed)
        }
    }

    /// A serializable-mode scenario: the cluster runs
    /// [`IsolationLevel::Serializable`], the engine cycles through the push
    /// engines, and a background GC thread runs throughout so SIREAD
    /// retention and retirement race the workload and the migration.
    pub fn serializable(seed: u64, oracle: OracleKind) -> Scenario {
        Scenario {
            engine: push_engine(seed),
            oracle,
            isolation: IsolationLevel::Serializable,
            gc_interval: Some(Duration::from_millis(2)),
            ..Self::remus_smoke(seed)
        }
    }

    /// The canonical planner scenario for a seed: the engine cycles through
    /// the push engines, the oracle alternates GTS/DTS across engine cycles,
    /// and migrations run with the cluster's default (4-wide) data plane.
    pub fn planner(seed: u64) -> Scenario {
        Scenario {
            engine: push_engine(seed),
            oracle: alternating(seed / 3),
            parallelism: SimConfig::instant().parallelism,
            drive: Drive::Planner { replicas: false },
            ..Self::remus_smoke(seed)
        }
    }

    /// [`Scenario::planner`] with replica actions on, and the oracle chosen
    /// explicitly so a matrix can sweep seeds × {GTS, DTS}.
    pub fn planner_replica(seed: u64, oracle: OracleKind) -> Scenario {
        Scenario {
            oracle,
            drive: Drive::Planner { replicas: true },
            ..Self::planner(seed)
        }
    }
}

/// Where a replica's apply streams stood when the scenario last looked
/// (just before it stopped the replica).
#[derive(Debug, Clone)]
pub struct ReplicaProgress {
    /// The replica-wide watermark.
    pub watermark: Timestamp,
    /// Per stream: the primary it tails, its cut timestamp, and the highest
    /// densely-applied LSN.
    pub streams: Vec<(NodeId, Timestamp, u64)>,
}

/// The result of one scenario run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every fault plan that ran, in order: the one plan of a fixed move, or
    /// one per planner decision.
    pub plans: Vec<FaultPlan>,
    /// Every planner decision in execution order, in the planner's stable
    /// string form; identical across replays of the same seed. Empty for a
    /// fixed move.
    pub decisions: Vec<String>,
    /// One spec per attempted migration, as handed to the checker.
    pub migrations: Vec<MigrationSpec>,
    /// Every recorded transaction.
    pub history: Vec<TxnRecord>,
    /// Checker verdict: the violation list plus which oracles failed.
    pub violations: Verdict,
    /// Committed client transactions.
    pub committed: usize,
    /// Aborted client transactions.
    pub aborted: usize,
    /// Versions pruned by the concurrent GC thread (`None` when the
    /// scenario ran without one).
    pub gc_pruned: Option<u64>,
    /// The node a crash-restart drill killed (a migration endpoint, or the
    /// replica mid-backfill) and its WAL replay summary.
    pub restart: Option<(NodeId, ReplaySummary)>,
    /// Apply progress of the last replica that ran, if one did.
    pub replica: Option<ReplicaProgress>,
}

impl Outcome {
    /// Whether the history checked out.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether at least one migration ran and every one committed its
    /// shard-map flip.
    pub fn migration_committed(&self) -> bool {
        !self.migrations.is_empty() && self.migrations.iter().all(|m| m.committed)
    }

    /// Keys read through replica sessions — the staleness oracle's evidence
    /// that a replica was actually exercised. Keys, not transactions, in both
    /// drives: a key is the unit the oracle checks, so a 48-key catch-up scan
    /// weighs 48.
    pub fn replica_reads(&self) -> usize {
        let replica = self.history.iter().filter(|r| r.replica);
        replica.map(|r| r.reads.len()).sum()
    }

    /// Panics with the one failure report unless the run was green. The
    /// report is a replay recipe: the scenario in `Debug` form (paste it
    /// into [`run`](crate::run)), every fault that was scheduled, the
    /// verdict by oracle, the replica's apply progress when one ran, and —
    /// for a fixed move, whose plan is known before the run — the fault list
    /// minimised by [`shrink_plan`] re-running the scenario.
    pub fn expect_green(&self, scenario: &Scenario) {
        if self.passed() {
            return;
        }
        let mut report = format!("chaos scenario failed: run(&{scenario:?})\n");
        for (i, plan) in self.plans.iter().enumerate() {
            let spike = plan.clock_spike_ms;
            let _ = writeln!(
                report,
                "plan {i} ({:?}, clock spike {spike:?}):",
                plan.profile
            );
            for spec in &plan.specs {
                let _ = writeln!(report, "  {spec}");
            }
        }
        if !self.decisions.is_empty() {
            let _ = writeln!(report, "decisions: {:#?}", self.decisions);
        }
        let _ = write!(report, "verdict: {}", self.violations);
        if let Some(replica) = &self.replica {
            let _ = writeln!(report, "replica watermark {}:", replica.watermark);
            for (primary, cut_ts, applied_lsn) in &replica.streams {
                let _ = writeln!(
                    report,
                    "  stream of {primary}: cut {cut_ts}, applied lsn {applied_lsn}"
                );
            }
        }
        if let (Drive::Fixed(_), [plan]) = (scenario.drive, &self.plans[..]) {
            let fresh_wal = || {
                if let Some(dir) = &scenario.wal_dir {
                    std::fs::remove_dir_all(dir).ok();
                }
            };
            let minimal = shrink_plan(&plan.specs, |specs| {
                fresh_wal();
                !run_with_specs(scenario, specs).passed()
            });
            fresh_wal();
            let _ = writeln!(
                report,
                "minimal failing faults ({} of {}; all of them if a re-run came out green):",
                minimal.len(),
                plan.specs.len()
            );
            for spec in &minimal {
                let _ = writeln!(report, "  {spec}");
            }
        }
        panic!("{report}");
    }
}
