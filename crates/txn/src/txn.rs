//! The transaction handle and its data operations.
//!
//! A [`Txn`] carries the snapshot (`start_ts`), the globally unique xid,
//! and its participants — the nodes it wrote on, each with how far the
//! commit protocol got there. Operations are invoked against an
//! explicit [`NodeStorage`] — routing (which node hosts which shard) is the
//! coordinator's job and lives in `remus-cluster`.
//!
//! Every write: checks the doom list, passes the shard write gate, appends
//! a WAL record, applies to the MVCC table, and records itself in the
//! node's active registry (the write set used by abort purges and by
//! migration engines hunting victims).
//!
//! [`Txn::read_in`] and [`Txn::write_in`] take the shard's table through a
//! caller's [`ShardTable`], so a session resolves it once per transaction;
//! the other operations resolve it per call.

use std::sync::Arc;

use remus_common::{
    DbError, DbResult, FaultAction, InjectionPoint, NodeId, ShardId, Timestamp, TxnId,
};
use remus_storage::{Key, Value};
use remus_wal::{LogOp, LogRecord, WriteKind, WriteOp};

use crate::node::{NodeStorage, ShardTable};
use crate::ssi::SsiTxn;

/// Commit-protocol state of a transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Open and usable.
    Active,
    /// Committed at the contained timestamp.
    Committed(Timestamp),
    /// Aborted.
    Aborted,
}

/// A client transaction (or a shadow transaction during replay).
pub struct Txn {
    /// Globally unique transaction id.
    pub xid: TxnId,
    /// Snapshot timestamp.
    pub start_ts: Timestamp,
    /// The coordinating node.
    pub coordinator: NodeId,
    /// Protocol state.
    pub state: TxnState,
    /// The nodes this transaction wrote on, in first-touch order. Being
    /// listed means begun there: registered active, CLOG entry and `Begin`
    /// record written.
    pub(crate) participants: Vec<Participant>,
    /// SSI handle, present only when the coordinator runs serializable
    /// mode. Shared by `Arc` into every SIREAD/write-registry entry the
    /// transaction creates, on any node.
    pub(crate) ssi: Option<Arc<SsiTxn>>,
    /// The fault decision [`crate::commit_txn`] takes between the steps of
    /// this transaction's two-phase commit (the `Tm*` points of
    /// [`InjectionPoint`]). `None` — no seam is visited — for everything
    /// but the handover transaction `T_m`.
    pub seams: Option<Box<dyn Fn(InjectionPoint) -> FaultAction + Send + Sync>>,
}

/// One node a transaction wrote on.
pub(crate) struct Participant {
    pub(crate) node: Arc<NodeStorage>,
    /// A prepare record has been written here: the abort record is then a
    /// `RollbackPrepared`.
    pub(crate) prepared: bool,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("xid", &self.xid)
            .field("start_ts", &self.start_ts)
            .field("state", &self.state)
            .finish()
    }
}

impl Txn {
    /// Begins a transaction coordinated by `coordinator` with a fresh xid
    /// and the given snapshot.
    pub fn begin(coordinator: &Arc<NodeStorage>, start_ts: Timestamp) -> Txn {
        let mut txn = Txn::begin_with(coordinator.alloc_xid(), start_ts, coordinator.id);
        if coordinator.ssi.is_some() {
            txn.ssi = Some(SsiTxn::new(txn.xid, start_ts));
        }
        txn
    }

    /// Begins a transaction with an explicit xid and snapshot — shadow
    /// transactions re-execute source transactions under the *same* xid and
    /// start timestamp (paper §3.5.2).
    pub fn begin_with(xid: TxnId, start_ts: Timestamp, coordinator: NodeId) -> Txn {
        Txn {
            xid,
            start_ts,
            coordinator,
            state: TxnState::Active,
            participants: Vec::new(),
            ssi: None,
            seams: None,
        }
    }

    /// The SSI handle, when the transaction runs serializable.
    pub fn ssi_handle(&self) -> Option<&Arc<SsiTxn>> {
        self.ssi.as_ref()
    }

    /// True until commit or abort.
    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    /// Nodes this transaction wrote on.
    pub fn write_node_ids(&self) -> Vec<NodeId> {
        self.participants.iter().map(|p| p.node.id).collect()
    }

    fn assert_active(&self) -> DbResult<()> {
        if self.is_active() {
            Ok(())
        } else {
            Err(DbError::Internal(format!(
                "operation on finished {:?}",
                self.state
            )))
        }
    }

    fn ensure_begun(&mut self, node: &Arc<NodeStorage>) -> DbResult<()> {
        if self.participants.iter().any(|p| p.node.id == node.id) {
            return Ok(());
        }
        node.register_active(self.xid);
        if let Err(e) = node.clog.try_begin(self.xid) {
            // Lost a race with a server-side force-abort, whose doom this
            // error is the victim's observation of.
            node.deregister(self.xid);
            node.clear_doom(self.xid);
            return Err(e);
        }
        node.wal
            .append(LogRecord::new(self.xid, LogOp::Begin(self.start_ts)));
        self.participants.push(Participant {
            node: Arc::clone(node),
            prepared: false,
        });
        Ok(())
    }

    /// SI point read.
    pub fn read(
        &self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        key: Key,
    ) -> DbResult<Option<Value>> {
        self.read_in(node, shard, &mut ShardTable::default(), key)
    }

    /// SI point read of `shard`'s table through `table`.
    pub fn read_in(
        &self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        table: &mut ShardTable,
        key: Key,
    ) -> DbResult<Option<Value>> {
        self.assert_active()?;
        node.check_doom(self.xid)?;
        let table = table.get(node, shard)?;
        let value = table.read(
            key,
            self.start_ts,
            self.xid,
            &node.clog,
            node.config.lock_wait_timeout,
        )?;
        if let (Some(ssi), Some(handle)) = (&node.ssi, &self.ssi) {
            ssi.on_read(handle, shard, key)?;
        }
        Ok(value)
    }

    /// Writes `key` of `shard`'s table through `table`.
    pub fn write_in(
        &mut self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        table: &mut ShardTable,
        key: Key,
        kind: WriteKind,
        value: Value,
    ) -> DbResult<()> {
        self.assert_active()?;
        node.check_doom(self.xid)?;
        node.gate.wait_open(shard, node.config.lock_wait_timeout)?;
        // Resolved after the gate: `NotOwner` here also covers a gate that
        // closed for an ownership transfer — the shard moved away while we
        // were blocked, and its table may be gone.
        let table = table.get(node, shard)?;
        self.ensure_begun(node)?;
        // SSI: register the write and raise edges against concurrent
        // readers *before* the WAL/table apply — a dangerous structure
        // detected here fails the statement with no version to purge.
        if let (Some(ssi), Some(handle)) = (&node.ssi, &self.ssi) {
            ssi.on_write(handle, shard, key)?;
        }
        node.wal.append(LogRecord::new(
            self.xid,
            LogOp::Write(WriteOp {
                shard,
                key,
                kind,
                value: value.clone(),
            }),
        ));
        let (clog, timeout) = (&node.clog, node.config.lock_wait_timeout);
        let result = table.write(key, kind, value, self.xid, self.start_ts, clog, timeout);
        if let Err(e) = result {
            if matches!(e, DbError::WwConflict { .. }) {
                node.counters.ww_aborts.inc();
            }
            return Err(e);
        }
        node.record_write(self.xid, shard, key);
        Ok(())
    }

    /// [`Self::write_in`] with the table looked up for this write alone.
    fn write_common(
        &mut self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        key: Key,
        kind: WriteKind,
        value: Value,
    ) -> DbResult<()> {
        self.write_in(node, shard, &mut ShardTable::default(), key, kind, value)
    }

    /// Inserts a tuple.
    pub fn insert(
        &mut self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        key: Key,
        value: Value,
    ) -> DbResult<()> {
        self.write_common(node, shard, key, WriteKind::Insert, value)
    }

    /// Updates a tuple.
    pub fn update(
        &mut self,
        node: &Arc<NodeStorage>,
        shard: ShardId,
        key: Key,
        value: Value,
    ) -> DbResult<()> {
        self.write_common(node, shard, key, WriteKind::Update, value)
    }

    /// Deletes a tuple.
    pub fn delete(&mut self, node: &Arc<NodeStorage>, shard: ShardId, key: Key) -> DbResult<()> {
        self.write_common(node, shard, key, WriteKind::Delete, Value::new())
    }

    /// Takes an explicit row lock (`SELECT ... FOR UPDATE`).
    pub fn lock_row(&mut self, node: &Arc<NodeStorage>, shard: ShardId, key: Key) -> DbResult<()> {
        self.write_common(node, shard, key, WriteKind::Lock, Value::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::SimConfig;
    use remus_storage::Value;

    fn setup() -> Arc<NodeStorage> {
        let node = Arc::new(NodeStorage::new(NodeId(1), SimConfig::instant()));
        node.create_shard(ShardId(1));
        node
    }

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn writes_log_to_wal_and_register() {
        let node = setup();
        let mut txn = Txn::begin(&node, Timestamp(10));
        txn.insert(&node, ShardId(1), 1, val("a")).unwrap();
        // Begin record + write record.
        assert_eq!(node.wal.flush_lsn().0, 2);
        assert!(matches!(
            node.wal.get(remus_wal::Lsn(1)).unwrap().op,
            LogOp::Begin(ts) if ts == Timestamp(10)
        ));
        assert_eq!(node.active_count(), 1);
        assert_eq!(txn.write_node_ids(), vec![NodeId(1)]);
        assert_eq!(node.written_shards(txn.xid), vec![ShardId(1)]);
    }

    #[test]
    fn read_own_uncommitted_write() {
        let node = setup();
        let mut txn = Txn::begin(&node, Timestamp(10));
        txn.insert(&node, ShardId(1), 1, val("a")).unwrap();
        assert_eq!(txn.read(&node, ShardId(1), 1).unwrap(), Some(val("a")));
        // Another transaction does not see it.
        let other = Txn::begin(&node, Timestamp(10));
        assert_eq!(other.read(&node, ShardId(1), 1).unwrap(), None);
    }

    #[test]
    fn write_to_unhosted_shard_is_not_owner() {
        let node = setup();
        let mut txn = Txn::begin(&node, Timestamp(10));
        let err = txn.insert(&node, ShardId(99), 1, val("a")).unwrap_err();
        assert!(matches!(err, DbError::NotOwner { .. }));
        // A failed first write must not leave the txn registered.
        assert_eq!(node.active_count(), 0);
    }

    #[test]
    fn doomed_txn_cannot_operate() {
        let node = setup();
        let mut txn = Txn::begin(&node, Timestamp(10));
        node.doom(txn.xid, "test");
        let err = txn.insert(&node, ShardId(1), 1, val("a")).unwrap_err();
        assert!(err.is_migration_induced());
        assert!(txn.read(&node, ShardId(1), 1).is_err());
    }

    #[test]
    fn a_writer_parked_on_the_gate_finds_the_shard_dropped_behind_it() {
        // The writer resolved the table before the gate closed; the shard is
        // dropped while it waits. It must not write into the dropped table.
        let node = setup();
        node.create_shard(ShardId(2));
        let mut txn = Txn::begin(&node, Timestamp(10));
        let mut table = ShardTable::default();
        txn.read_in(&node, ShardId(1), &mut table, 1).unwrap();
        txn.insert(&node, ShardId(2), 1, val("elsewhere")).unwrap();
        node.gate.close(ShardId(1));
        let dropped = node.table(ShardId(1)).unwrap();
        let writer = {
            let node = Arc::clone(&node);
            std::thread::spawn(move || {
                let kind = WriteKind::Insert;
                let put = txn.write_in(&node, ShardId(1), &mut table, 1, kind, val("a"));
                (put, txn)
            })
        };
        // Give the writer time to park behind the closed gate.
        std::thread::sleep(std::time::Duration::from_millis(20));
        node.drop_shard(ShardId(1));
        node.gate.open(ShardId(1));
        let (put, _txn) = writer.join().unwrap();
        assert!(matches!(put, Err(DbError::NotOwner { .. })), "{put:?}");
        let reader = Txn::begin(&node, Timestamp(20));
        let seen = dropped.read(
            1,
            Timestamp(20),
            reader.xid,
            &node.clog,
            node.config.lock_wait_timeout,
        );
        assert_eq!(
            seen.unwrap(),
            None,
            "nothing was written into the dropped table"
        );
    }

    #[test]
    fn shadow_txn_uses_given_identity() {
        let node = setup();
        let xid = TxnId::new(NodeId(5), 77);
        let mut shadow = Txn::begin_with(xid, Timestamp(42), node.id);
        shadow.insert(&node, ShardId(1), 1, val("a")).unwrap();
        assert_eq!(shadow.xid, xid);
        assert_eq!(shadow.start_ts, Timestamp(42));
    }

    #[test]
    fn ops_on_finished_txn_rejected() {
        let node = setup();
        let mut txn = Txn::begin(&node, Timestamp(10));
        txn.state = TxnState::Aborted;
        assert!(txn.insert(&node, ShardId(1), 1, val("a")).is_err());
        assert!(txn.read(&node, ShardId(1), 1).is_err());
    }
}
