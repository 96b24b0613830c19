//! The migration engine interface and its reports.

use std::sync::Arc;
use std::time::Duration;

use remus_cluster::{CcMode, Cluster};
use remus_common::{DbResult, NodeId, ShardId};

use crate::trace::MigrationTrace;
use crate::{LockAndAbort, RemusEngine, SquallEngine, WaitAndRemaster};

/// One migration: move `shards` (collocated migration moves several
/// together, §3.8) from `source` to `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationTask {
    /// Shards to move together.
    pub shards: Vec<ShardId>,
    /// Current owner.
    pub source: NodeId,
    /// New owner.
    pub dest: NodeId,
}

impl MigrationTask {
    /// A single-shard task.
    pub fn single(shard: ShardId, source: NodeId, dest: NodeId) -> Self {
        MigrationTask {
            shards: vec![shard],
            source,
            dest,
        }
    }
}

/// What a migration did and what it cost — the quantities the paper's
/// evaluation reports.
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Engine that ran it.
    pub engine: &'static str,
    /// End-to-end duration.
    pub total: Duration,
    /// Snapshot copying phase.
    pub snapshot_phase: Duration,
    /// Asynchronous catch-up phase.
    pub catchup_phase: Duration,
    /// Ownership transfer (mode change + `T_m` for Remus; lock/drain window
    /// for the baselines).
    pub transfer_phase: Duration,
    /// Dual execution (Remus only): `T_m` commit until the last source
    /// transaction finished.
    pub dual_phase: Duration,
    /// Tuples installed by snapshot copy (plus Squall pulls).
    pub tuples_copied: u64,
    /// Change records replayed on the destination.
    pub records_replayed: u64,
    /// MOCC validation failures (WW conflicts between shadow and
    /// destination transactions).
    pub validation_conflicts: u64,
    /// Transactions terminated server-side (lock-and-abort) or aborted by
    /// chunk-access rules (Squall).
    pub forced_aborts: u64,
    /// Time during which new transactions were blocked cluster-wide
    /// (wait-and-remaster's downtime; zero for Remus).
    pub downtime: Duration,
    /// On-demand + background chunk pulls (Squall).
    pub pulls: u64,
    /// Phase span trees, one per migration absorbed into this report.
    pub traces: Vec<MigrationTrace>,
}

impl MigrationReport {
    /// A zeroed report for `engine`.
    pub fn new(engine: &'static str) -> Self {
        MigrationReport {
            engine,
            ..Default::default()
        }
    }

    /// Merges counters of `other` into `self` (summing durations and
    /// counts) — used to aggregate a multi-migration plan.
    pub fn absorb(&mut self, other: &MigrationReport) {
        self.total += other.total;
        self.snapshot_phase += other.snapshot_phase;
        self.catchup_phase += other.catchup_phase;
        self.transfer_phase += other.transfer_phase;
        self.dual_phase += other.dual_phase;
        self.tuples_copied += other.tuples_copied;
        self.records_replayed += other.records_replayed;
        self.validation_conflicts += other.validation_conflicts;
        self.forced_aborts += other.forced_aborts;
        self.downtime += other.downtime;
        self.pulls += other.pulls;
        self.traces.extend(other.traces.iter().cloned());
    }
}

/// A live migration technique.
pub trait MigrationEngine: Send + Sync {
    /// Engine name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Moves the task's shards with the engine's protocol. Blocks until
    /// the migration fully completes (including source cleanup).
    fn migrate(&self, cluster: &Arc<Cluster>, task: &MigrationTask) -> DbResult<MigrationReport>;
}

/// The migration approaches under comparison (§4.2), in the order the
/// chaos lab's seed residues (`seed % 4`) pick them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's contribution.
    Remus,
    /// Lock-and-abort push baseline.
    LockAbort,
    /// Wait-and-remaster push baseline.
    Remaster,
    /// Squall pull baseline (runs under shard-lock concurrency control).
    Squall,
}

impl EngineKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Remus => "remus",
            EngineKind::LockAbort => "lock-and-abort",
            EngineKind::Remaster => "wait-and-remaster",
            EngineKind::Squall => "squall",
        }
    }

    /// The concurrency-control regime this engine is evaluated under.
    pub fn cc_mode(self) -> CcMode {
        match self {
            EngineKind::Squall => CcMode::ShardLock,
            _ => CcMode::Mvcc,
        }
    }

    /// Instantiates the engine.
    pub fn engine(self) -> Arc<dyn MigrationEngine> {
        match self {
            EngineKind::Remus => Arc::new(RemusEngine::new()),
            EngineKind::LockAbort => Arc::new(LockAndAbort::new()),
            EngineKind::Remaster => Arc::new(WaitAndRemaster::new()),
            EngineKind::Squall => Arc::new(SquallEngine::new()),
        }
    }

    /// All four approaches (figures 6–8).
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::Remus,
            EngineKind::LockAbort,
            EngineKind::Remaster,
            EngineKind::Squall,
        ]
    }

    /// The push approaches (figure 9 — the Squall implementation does not
    /// support TPC-C's multi-key range partitioning, §4.6).
    pub fn push_engines() -> [EngineKind; 3] {
        [
            EngineKind::Remus,
            EngineKind::LockAbort,
            EngineKind::Remaster,
        ]
    }

    /// Parses a `--engine` style argument.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "remus" => Some(EngineKind::Remus),
            "lock-and-abort" | "lock" => Some(EngineKind::LockAbort),
            "wait-and-remaster" | "remaster" => Some(EngineKind::Remaster),
            "squall" => Some(EngineKind::Squall),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kinds_roundtrip_names_and_cc_modes() {
        // The order the chaos lab's `ScenarioConfig::from_seed` indexes.
        assert_eq!(
            EngineKind::all().map(EngineKind::name),
            ["remus", "lock-and-abort", "wait-and-remaster", "squall"]
        );
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.engine().name(), kind.name());
        }
        assert_eq!(EngineKind::parse("lock"), Some(EngineKind::LockAbort));
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(EngineKind::Squall.cc_mode(), CcMode::ShardLock);
        for kind in EngineKind::push_engines() {
            assert_eq!(kind.cc_mode(), CcMode::Mvcc);
        }
    }

    #[test]
    fn single_task_constructor() {
        let t = MigrationTask::single(ShardId(3), NodeId(0), NodeId(1));
        assert_eq!(t.shards, vec![ShardId(3)]);
        assert_eq!(t.source, NodeId(0));
        assert_eq!(t.dest, NodeId(1));
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = MigrationReport::new("x");
        a.tuples_copied = 10;
        a.total = Duration::from_secs(1);
        let mut b = MigrationReport::new("x");
        b.tuples_copied = 5;
        b.total = Duration::from_secs(2);
        b.forced_aborts = 3;
        a.absorb(&b);
        assert_eq!(a.tuples_copied, 15);
        assert_eq!(a.total, Duration::from_secs(3));
        assert_eq!(a.forced_aborts, 3);
    }
}
