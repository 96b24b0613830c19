//! Fault-injection seams shared by every crate.
//!
//! Production code calls [`FaultInjector::decide`] at a handful of named
//! [`InjectionPoint`]s (2PC steps of the diverting transaction `T_m`,
//! destination-side MOCC validation, replay apply, propagation shipping, the
//! sync-mode barrier, snapshot copy). With no injector installed every call
//! resolves to [`FaultAction::Continue`] and the hot path costs one relaxed
//! read-lock acquisition. The `T_m` points are seams of the one two-phase
//! commit there is (`remus_txn::commit_txn`), visited only by a transaction
//! that carries a fault decision — the handover transaction every migration
//! engine, the chaos crash drill and the recovery tests run
//! (`remus_core::diversion::run_tm`); a session's commit visits none. Each
//! `Tm*` variant carries its row of the action table.
//!
//! `Crash` makes the commit return `DbError::InDoubt` with the xid and clean
//! nothing up (the read-through windows stay open too): recovery decides. It
//! is honoured for the drill only — a live engine proceeds past it. `Delay`
//! sleeps and proceeds, here as at every point: it is slept where it is
//! decided (`Cluster::fault_at`), so a seam only ever sees continue, fail or
//! crash.
//!
//! The chaos harness (`remus-chaos`) installs a seeded, deterministic
//! injector; unit tests install hand-built ones. Injectors must not consult
//! wall-clock time to make decisions — determinism of a chaos run relies on
//! every decision being a pure function of (point, node, occurrence count).

use std::fmt;
use std::time::Duration;

use crate::ids::NodeId;

/// A named seam in the migration/commit pipeline where a fault can fire.
///
/// The set is deliberately small and stable: each variant corresponds to one
/// call site in `remus-core` (or, for the `Tm*` points, in `remus-txn`'s
/// `commit_txn`), documented on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// Before the bulk snapshot copy of the migrating shards starts, in the
    /// copy stage all three push engines share (`pipeline.rs`). `Delay`
    /// holds the copy back; `Fail` fails the migration and exercises the
    /// pipeline's teardown.
    SnapshotCopy,
    /// In a snapshot-copy worker, before streaming one key-range chunk
    /// (`snapshot.rs`). `Delay` staggers the pool; `Fail`/`Crash` kill the
    /// worker mid-chunk — the chunk is retried by the pool (the frozen
    /// install is idempotent), so the migration still completes.
    CopyChunk,
    /// In the propagation worker, before shipping one change batch to the
    /// destination (`propagation.rs`). `Delay` models propagation lag.
    PropagationShip,
    /// In a destination replay worker, before applying one committed change
    /// set (`replay.rs`). `Delay` models a stalled replay worker.
    ReplayApply,
    /// Immediately after sync commit mode is enabled, before waiting for
    /// unsynchronized timestamps to drain (Remus's transfer step,
    /// `remus.rs`). `Delay` widens the mode-change window; `Fail` fails the
    /// migration with the barrier raised.
    SyncBarrier,
    /// In a destination replay worker, on receipt of a `Validate` message —
    /// i.e. during destination-side MOCC validation of a sync-mode shadow
    /// (`replay.rs`). `Crash` models the destination crashing after the
    /// shadow prepared but before the ack reaches the source; `Fail` forces
    /// a validation failure.
    MoccValidation,
    /// In `T_m`'s two-phase commit, before any participant prepared. `Fail`
    /// aborts `T_m`; `Crash` leaves it in progress everywhere.
    TmBeforePrepare,
    /// In `T_m`'s two-phase commit, after every participant prepared but
    /// before a commit timestamp was chosen. `Fail` rolls every participant
    /// back; `Crash` leaves them prepared with no decision persisted.
    TmAfterPrepare,
    /// In `T_m`'s two-phase commit, after the commit timestamp was chosen
    /// but before any participant committed: past the point of no return,
    /// so only `Delay` and `Crash` (still rolled back) are expressible.
    TmBeforeCommit,
    /// In `T_m`'s two-phase commit, after exactly one participant (the
    /// first the transaction wrote on) committed. `Crash` here must roll
    /// forward on recovery.
    TmAfterFirstCommit,
    /// In the chaos restart driver: a node's process-level state is dropped
    /// at a seeded stage of the migration and the node is rebuilt from its
    /// on-disk WAL via `Cluster::restart_node`. Only meaningful with the
    /// file-backed WAL; `Crash` marks the seeded kill.
    CrashRestart,
    /// In a WAL shipper, before sending one LSN-prefixed frame batch to a
    /// replica (`replication.rs`). `Delay` models ship lag; `Fail` defers
    /// the batch so it arrives after its successor (reorder, then
    /// retransmit); `Crash` duplicates the send.
    ShipBatch,
    /// In a replica applier, before applying one shipped batch behind the
    /// apply-LSN gate (`replication.rs`). `Delay` models a stalled replica.
    ReplicaApply,
}

impl InjectionPoint {
    /// Every injection point, in pipeline order.
    pub const ALL: [InjectionPoint; 13] = [
        InjectionPoint::SnapshotCopy,
        InjectionPoint::CopyChunk,
        InjectionPoint::PropagationShip,
        InjectionPoint::ReplayApply,
        InjectionPoint::SyncBarrier,
        InjectionPoint::MoccValidation,
        InjectionPoint::TmBeforePrepare,
        InjectionPoint::TmAfterPrepare,
        InjectionPoint::TmBeforeCommit,
        InjectionPoint::TmAfterFirstCommit,
        InjectionPoint::CrashRestart,
        InjectionPoint::ShipBatch,
        InjectionPoint::ReplicaApply,
    ];
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InjectionPoint::SnapshotCopy => "snapshot-copy",
            InjectionPoint::CopyChunk => "copy-chunk",
            InjectionPoint::PropagationShip => "propagation-ship",
            InjectionPoint::ReplayApply => "replay-apply",
            InjectionPoint::SyncBarrier => "sync-barrier",
            InjectionPoint::MoccValidation => "mocc-validation",
            InjectionPoint::TmBeforePrepare => "tm-before-prepare",
            InjectionPoint::TmAfterPrepare => "tm-after-prepare",
            InjectionPoint::TmBeforeCommit => "tm-before-commit",
            InjectionPoint::TmAfterFirstCommit => "tm-after-first-commit",
            InjectionPoint::CrashRestart => "crash-restart",
            InjectionPoint::ShipBatch => "ship-batch",
            InjectionPoint::ReplicaApply => "replica-apply",
        };
        f.write_str(name)
    }
}

/// What the code at an injection point should do.
///
/// Not every point honors every action; the per-variant docs on
/// [`InjectionPoint`] say which are meaningful. Points ignore actions they
/// cannot express (e.g. `Crash` at a pure-delay seam degrades to `Continue`).
/// A seam never sees `Delay`: the cluster's seam helper sleeps it on the
/// spot and hands back `Continue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: proceed normally.
    Continue,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Fail the operation with an error (clean, recoverable failure).
    Fail,
    /// Simulate a process crash at this point: abandon the in-flight state
    /// without running any cleanup, leaving recovery to sort it out.
    Crash,
}

/// Decides the fault action for each visit to an injection point.
///
/// `decide` is called once per *visit*; implementations that want
/// "the 3rd propagation batch" semantics count occurrences internally.
/// Implementations must be deterministic given the visit sequence and must
/// not read wall-clock time.
pub trait FaultInjector: Send + Sync {
    /// Returns the action for this visit of `point` on `node`.
    fn decide(&self, point: InjectionPoint, node: NodeId) -> FaultAction;
}

/// The no-op injector: every decision is [`FaultAction::Continue`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn decide(&self, _point: InjectionPoint, _node: NodeId) -> FaultAction {
        FaultAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_continues() {
        for point in InjectionPoint::ALL {
            assert_eq!(NoFaults.decide(point, NodeId(0)), FaultAction::Continue);
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = InjectionPoint::ALL.iter().map(|p| p.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), InjectionPoint::ALL.len());
    }
}
