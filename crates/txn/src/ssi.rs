//! Serializable snapshot isolation (SSI) per Ports & Grittner.
//!
//! SI admits exactly one anomaly class: write skew, where two concurrent
//! transactions each read what the other writes and both commit. Cahill's
//! observation is that every such anomaly contains a *dangerous structure*
//! — two consecutive rw-antidependency edges `T1 -rw-> T2 -rw-> T3` in
//! which the middle transaction (the pivot) has both an incoming and an
//! outgoing edge and the transactions are pairwise concurrent. Aborting
//! every would-be pivot at commit is sufficient for serializability, at
//! the cost of false positives (rw edges that never close a cycle).
//!
//! The machinery, following the PostgreSQL design:
//!
//! * Every serializable transaction carries an [`SsiTxn`] handle — shared
//!   by `Arc` across every node the transaction touches, so the in/out
//!   rw-edge flags are global to the transaction, not per-node.
//! * Each node runs an [`SsiNode`]: a striped SIREAD lock table recording
//!   which transactions read which `(shard, key)` (plus shard-granularity
//!   entries for scans), and a write registry recording which transactions
//!   wrote which key. Reads check the write registry for concurrent
//!   writers (edge `reader -rw-> writer`); writes check the SIREAD tables
//!   for concurrent readers.
//! * A transaction *seals* its handle on entering commit
//!   ([`SsiTxn::seal`]) and aborts there if it is a pivot. Edges that
//!   arrive after the seal see a committing/committed pivot and abort the
//!   *live* side instead ([`DbError::SsiAbort`]) — the same division of
//!   labor PostgreSQL uses, and the reason the two checks together leave
//!   no window.
//! * SIREAD entries are *retained past commit*: a committed reader's entry
//!   still produces edges against later overwriting writers until no
//!   concurrent transaction can remain — operationally, until the cluster
//!   safe-ts watermark (the GC watermark from the version-chain pruner)
//!   passes the reader's commit timestamp. [`SsiNode::gc`] drops them
//!   there.
//!
//! Migration interaction (DESIGN.md §14): when a shard moves, its SIREAD
//! and write-registry entries are exported from the source and imported on
//! the destination ([`SsiNode::export_shard`] / [`SsiNode::import_shard`])
//! — handles are `Arc`-shared, so a transferred entry keeps pointing at
//! the same flag state. Engines that abort their way through ownership
//! transfer instead conservatively doom every still-active straddler
//! ([`SsiNode::doom_active_straddlers`]) and transfer only the retained
//! (committing/committed) entries.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use remus_common::metrics::{Counter, Gauge, MetricsRegistry};
use remus_common::{DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_storage::Key;

/// Commit-protocol phase of a serializable transaction, as the SSI
/// machinery sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsiPhase {
    /// Open: edges against it are live, its own commit check is pending.
    Active,
    /// Sealed for commit: it passed its own pivot check, so it *will*
    /// commit — edges arriving now must abort their live side.
    Committing,
    /// Committed at the contained timestamp. SIREAD entries are retained
    /// until the safe-ts watermark passes this timestamp.
    Committed(Timestamp),
    /// Aborted; its entries are dead weight until the next GC sweep.
    Aborted,
    /// Doomed by a migration handover: its commit must fail with a
    /// migration abort (the SSI state for the moved shard was not carried
    /// over on its behalf).
    Doomed(&'static str),
}

/// Outcome of [`SsiTxn::seal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealOutcome {
    /// Sealed; proceed with the commit protocol.
    Sealed,
    /// A migration handover doomed this transaction first.
    Doomed(&'static str),
}

/// Per-transaction SSI state, shared by `Arc` across nodes.
///
/// The rw-edge flags are plain atomics — they only ever go from unset to
/// set, and a stale read of "unset" is resolved by the seal/edge-check
/// ordering described in the module docs.
#[derive(Debug)]
pub struct SsiTxn {
    /// The transaction this handle belongs to.
    pub xid: TxnId,
    /// Its snapshot timestamp (concurrency test: a committed peer with
    /// `cts > start_ts` overlapped this transaction).
    pub start_ts: Timestamp,
    in_rw: AtomicBool,
    out_rw: AtomicBool,
    phase: Mutex<SsiPhase>,
}

impl SsiTxn {
    /// A fresh handle for an active transaction.
    pub fn new(xid: TxnId, start_ts: Timestamp) -> Arc<SsiTxn> {
        Arc::new(SsiTxn {
            xid,
            start_ts,
            in_rw: AtomicBool::new(false),
            out_rw: AtomicBool::new(false),
            phase: Mutex::new(SsiPhase::Active),
        })
    }

    /// Current phase (a copy).
    pub fn phase(&self) -> SsiPhase {
        *self.phase.lock()
    }

    /// True once both an incoming and an outgoing rw-edge have been
    /// recorded — the transaction is the pivot of a dangerous structure.
    pub fn is_pivot(&self) -> bool {
        self.in_rw.load(Ordering::Acquire) && self.out_rw.load(Ordering::Acquire)
    }

    /// Whether the transaction has an incoming rw-edge.
    pub fn has_in_rw(&self) -> bool {
        self.in_rw.load(Ordering::Acquire)
    }

    /// Whether the transaction has an outgoing rw-edge.
    pub fn has_out_rw(&self) -> bool {
        self.out_rw.load(Ordering::Acquire)
    }

    /// Seals the handle on entry to commit progress: after this, edge
    /// checks treat it as committed. Returns the doom reason instead if a
    /// migration handover got there first.
    pub fn seal(&self) -> SealOutcome {
        let mut phase = self.phase.lock();
        match *phase {
            SsiPhase::Doomed(reason) => SealOutcome::Doomed(reason),
            _ => {
                *phase = SsiPhase::Committing;
                SealOutcome::Sealed
            }
        }
    }

    /// Records the commit timestamp (SIREAD retention is keyed on it).
    pub fn mark_committed(&self, cts: Timestamp) {
        *self.phase.lock() = SsiPhase::Committed(cts);
    }

    /// Marks the transaction aborted; its entries stop producing edges.
    pub fn mark_aborted(&self) {
        *self.phase.lock() = SsiPhase::Aborted;
    }

    /// Migration-handover doom: only lands on a still-active transaction
    /// (one already committing keeps its exported entries instead).
    /// Returns whether the doom took effect.
    pub fn doom(&self, reason: &'static str) -> bool {
        let mut phase = self.phase.lock();
        if *phase == SsiPhase::Active {
            *phase = SsiPhase::Doomed(reason);
            true
        } else {
            false
        }
    }

    /// Whether an edge against this transaction is still meaningful from
    /// the viewpoint of a peer with snapshot `peer_start`: it is live
    /// (active/committing/doomed-but-unresolved) or committed after the
    /// peer's snapshot was taken (i.e. the two overlapped).
    fn edge_relevant_to(&self, peer_start: Timestamp) -> bool {
        match self.phase() {
            SsiPhase::Active | SsiPhase::Committing | SsiPhase::Doomed(_) => true,
            SsiPhase::Committed(cts) => cts > peer_start,
            SsiPhase::Aborted => false,
        }
    }

    /// True when the transaction can no longer abort itself at commit:
    /// a pivot in this phase forces the *other* side of the edge to die.
    fn past_self_abort(&self) -> bool {
        matches!(self.phase(), SsiPhase::Committing | SsiPhase::Committed(_))
    }
}

/// One lock stripe: SIREAD entries and write-registry entries for the
/// keys hashed onto it.
#[derive(Debug, Default)]
struct Stripe {
    sireads: HashMap<(ShardId, Key), Vec<Arc<SsiTxn>>>,
    writes: HashMap<(ShardId, Key), Vec<Arc<SsiTxn>>>,
}

/// Per-node SSI state: the striped SIREAD lock table, the shard-granularity
/// SIREAD entries (scans), the write registry, and the node-scoped metrics.
///
/// Striping mirrors the storage index (`hot_path.index_stripes`): point
/// reads and writes lock exactly one stripe, so serializable tracking adds
/// no cross-key contention beyond what the table itself has.
pub struct SsiNode {
    stripes: Vec<Mutex<Stripe>>,
    shard_reads: Mutex<HashMap<ShardId, Vec<Arc<SsiTxn>>>>,
    /// Shards whose SSI state was handed to another node. Serializable
    /// access through this node afterwards would register edges nobody
    /// checks, so it fails as migration-induced instead. (SI-mode traffic
    /// never consults this — dual execution stays abort-free there.)
    departed: Mutex<HashSet<ShardId>>,
    /// Dangerous-structure aborts raised on this node (edge-time and
    /// commit-time).
    pub ssi_aborts: Arc<Counter>,
    /// rw-antidependency flag transitions recorded on this node (each
    /// distinct edge sets at most two flags; re-detections of an already
    /// flagged edge are not counted).
    pub rw_edges: Arc<Counter>,
    /// Live SIREAD entries (key- plus shard-granularity), refreshed by
    /// [`SsiNode::gc`].
    pub siread_entries: Arc<Gauge>,
}

impl std::fmt::Debug for SsiNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsiNode")
            .field("stripes", &self.stripes.len())
            .field("siread_entries", &self.siread_count())
            .finish()
    }
}

impl SsiNode {
    /// A fresh SSI table with `stripes` lock stripes, its counters resolved
    /// from the node's metric scope.
    pub fn new(stripes: usize, metrics: &MetricsRegistry) -> Arc<SsiNode> {
        let stripes = stripes.max(1);
        Arc::new(SsiNode {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            shard_reads: Mutex::new(HashMap::new()),
            departed: Mutex::new(HashSet::new()),
            ssi_aborts: metrics.counter("txn.ssi_aborts"),
            rw_edges: metrics.counter("txn.rw_edges"),
            siread_entries: metrics.gauge("txn.siread_entries"),
        })
    }

    fn stripe_for(&self, shard: ShardId, key: Key) -> &Mutex<Stripe> {
        let mut h = DefaultHasher::new();
        (shard.0, key).hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    /// Records an rw-antidependency edge `reader -rw-> writer`, counting
    /// each flag that newly transitions.
    fn add_edge(&self, reader: &SsiTxn, writer: &SsiTxn) {
        if !reader.out_rw.swap(true, Ordering::AcqRel) {
            self.rw_edges.inc();
        }
        if !writer.in_rw.swap(true, Ordering::AcqRel) {
            self.rw_edges.inc();
        }
    }

    /// After `live` created an edge whose other endpoint is `other`: if
    /// `other` is now a pivot that already passed its own commit check,
    /// the live transaction must die instead.
    fn check_committed_pivot(&self, live: &SsiTxn, other: &SsiTxn) -> DbResult<()> {
        if other.is_pivot() && other.past_self_abort() {
            self.ssi_aborts.inc();
            return Err(DbError::SsiAbort { txn: live.xid });
        }
        Ok(())
    }

    fn push_unique(list: &mut Vec<Arc<SsiTxn>>, txn: &Arc<SsiTxn>) {
        if !list.iter().any(|t| t.xid == txn.xid) {
            list.push(Arc::clone(txn));
        }
    }

    /// Fails serializable access to a shard whose SSI state has been
    /// handed to another node: an edge registered here after the handover
    /// would never be seen by writers on the new owner.
    fn check_departed(&self, shard: ShardId, xid: TxnId) -> DbResult<()> {
        if self.departed.lock().contains(&shard) {
            return Err(DbError::MigrationAbort {
                txn: xid,
                reason: "serializable access to a shard in SSI handover",
            });
        }
        Ok(())
    }

    /// Registers a point read: takes the SIREAD lock on `(shard, key)` and
    /// raises edges against every concurrent writer of the key.
    pub fn on_read(&self, reader: &Arc<SsiTxn>, shard: ShardId, key: Key) -> DbResult<()> {
        self.check_departed(shard, reader.xid)?;
        let writers: Vec<Arc<SsiTxn>> = {
            let mut stripe = self.stripe_for(shard, key).lock();
            Self::push_unique(stripe.sireads.entry((shard, key)).or_default(), reader);
            stripe
                .writes
                .get(&(shard, key))
                .map(|w| w.to_vec())
                .unwrap_or_default()
        };
        for writer in &writers {
            if writer.xid == reader.xid || !writer.edge_relevant_to(reader.start_ts) {
                continue;
            }
            self.add_edge(reader, writer);
            self.check_committed_pivot(reader, writer)?;
        }
        Ok(())
    }

    /// Registers a shard scan: takes a shard-granularity SIREAD lock and
    /// raises edges against every concurrent writer anywhere in the shard.
    pub fn on_scan(&self, reader: &Arc<SsiTxn>, shard: ShardId) -> DbResult<()> {
        self.check_departed(shard, reader.xid)?;
        Self::push_unique(self.shard_reads.lock().entry(shard).or_default(), reader);
        // One stripe at a time; never two stripe locks at once.
        for stripe in &self.stripes {
            let writers: Vec<Arc<SsiTxn>> = {
                let stripe = stripe.lock();
                stripe
                    .writes
                    .iter()
                    .filter(|((s, _), _)| *s == shard)
                    .flat_map(|(_, w)| w.iter().cloned())
                    .collect()
            };
            for writer in &writers {
                if writer.xid == reader.xid || !writer.edge_relevant_to(reader.start_ts) {
                    continue;
                }
                self.add_edge(reader, writer);
                self.check_committed_pivot(reader, writer)?;
            }
        }
        Ok(())
    }

    /// Registers a write: enters the write registry and raises edges
    /// against every concurrent reader of the key (point SIREAD entries
    /// plus shard-granularity scan entries).
    pub fn on_write(&self, writer: &Arc<SsiTxn>, shard: ShardId, key: Key) -> DbResult<()> {
        self.check_departed(shard, writer.xid)?;
        let mut readers: Vec<Arc<SsiTxn>> = {
            let mut stripe = self.stripe_for(shard, key).lock();
            Self::push_unique(stripe.writes.entry((shard, key)).or_default(), writer);
            stripe
                .sireads
                .get(&(shard, key))
                .map(|r| r.to_vec())
                .unwrap_or_default()
        };
        if let Some(scanners) = self.shard_reads.lock().get(&shard) {
            readers.extend(scanners.iter().cloned());
        }
        for reader in &readers {
            if reader.xid == writer.xid || !reader.edge_relevant_to(writer.start_ts) {
                continue;
            }
            self.add_edge(reader, writer);
            self.check_committed_pivot(writer, reader)?;
        }
        Ok(())
    }

    /// Live SIREAD entry count (key- plus shard-granularity).
    pub fn siread_count(&self) -> u64 {
        let mut n: u64 = self
            .shard_reads
            .lock()
            .values()
            .map(|v| v.len() as u64)
            .sum();
        for stripe in &self.stripes {
            n += stripe
                .lock()
                .sireads
                .values()
                .map(|v| v.len() as u64)
                .sum::<u64>();
        }
        n
    }

    /// Drops entries that can no longer produce a meaningful edge: aborted
    /// transactions, and committed ones whose commit timestamp the cluster
    /// safe-ts watermark has passed (no concurrent transaction remains).
    /// Refreshes the `txn.siread_entries` gauge.
    pub fn gc(&self, watermark: Timestamp) {
        let retire = |t: &Arc<SsiTxn>| match t.phase() {
            SsiPhase::Aborted => false,
            SsiPhase::Committed(cts) => cts >= watermark,
            _ => true,
        };
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            stripe.sireads.retain(|_, v| {
                v.retain(retire);
                !v.is_empty()
            });
            stripe.writes.retain(|_, v| {
                v.retain(retire);
                !v.is_empty()
            });
        }
        self.shard_reads.lock().retain(|_, v| {
            v.retain(retire);
            !v.is_empty()
        });
        self.siread_entries.set(self.siread_count());
    }

    // ---- migration handover ----

    /// Copies every SSI entry touching `shard` into a portable export.
    /// The source keeps its copies — under dual execution the shard is
    /// briefly live on both sides, and the `Arc`-shared handles keep the
    /// flag state unified regardless.
    pub fn export_shard(&self, shard: ShardId) -> SsiShardExport {
        let mut export = SsiShardExport {
            shard,
            key_sireads: Vec::new(),
            key_writes: Vec::new(),
            shard_sireads: Vec::new(),
        };
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            for ((s, key), v) in &stripe.sireads {
                if *s == shard {
                    export.key_sireads.push((*key, v.clone()));
                }
            }
            for ((s, key), v) in &stripe.writes {
                if *s == shard {
                    export.key_writes.push((*key, v.clone()));
                }
            }
        }
        if let Some(v) = self.shard_reads.lock().get(&shard) {
            export.shard_sireads = v.clone();
        }
        export
    }

    /// Marks `shard` as handed over: subsequent serializable access
    /// through this node fails as migration-induced. Called on the source
    /// right after [`SsiNode::export_shard`].
    pub fn mark_departed(&self, shard: ShardId) {
        self.departed.lock().insert(shard);
    }

    /// Lifts a [`SsiNode::mark_departed`] fence the ownership transfer did
    /// not follow (its `T_m` failed): the node still owns `shard`, and its
    /// entries are complete because none could be added while fenced. A
    /// no-op for a shard that was never fenced.
    pub fn reclaim_shard(&self, shard: ShardId) {
        self.departed.lock().remove(&shard);
    }

    /// Merges an export from the migration source (idempotent; entries
    /// already present for a transaction are not duplicated). Also clears
    /// any departed marking for the shard — the node is its owner now
    /// (back-migrations reuse nodes).
    pub fn import_shard(&self, export: &SsiShardExport) {
        self.departed.lock().remove(&export.shard);
        for (key, txns) in &export.key_sireads {
            let mut stripe = self.stripe_for(export.shard, *key).lock();
            let list = stripe.sireads.entry((export.shard, *key)).or_default();
            for t in txns {
                Self::push_unique(list, t);
            }
        }
        for (key, txns) in &export.key_writes {
            let mut stripe = self.stripe_for(export.shard, *key).lock();
            let list = stripe.writes.entry((export.shard, *key)).or_default();
            for t in txns {
                Self::push_unique(list, t);
            }
        }
        if !export.shard_sireads.is_empty() {
            let mut shard_reads = self.shard_reads.lock();
            let list = shard_reads.entry(export.shard).or_default();
            for t in &export.shard_sireads {
                Self::push_unique(list, t);
            }
        }
    }

    /// Conservative handover: dooms every still-active transaction holding
    /// an SSI entry on `shard` (readers included — a straddling reader's
    /// rw-edges cannot be tracked once the shard's versions move away).
    /// Returns the doomed xids; each one fails at its own `seal`.
    pub fn doom_active_straddlers(&self, shard: ShardId, reason: &'static str) -> Vec<TxnId> {
        let mut holders: Vec<Arc<SsiTxn>> = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            for ((s, _), v) in stripe.sireads.iter().chain(stripe.writes.iter()) {
                if *s == shard {
                    for t in v {
                        Self::push_unique(&mut holders, t);
                    }
                }
            }
        }
        if let Some(v) = self.shard_reads.lock().get(&shard) {
            for t in v {
                Self::push_unique(&mut holders, t);
            }
        }
        let mut doomed = Vec::new();
        for t in holders {
            if t.doom(reason) {
                self.ssi_aborts.inc();
                doomed.push(t.xid);
            }
        }
        doomed
    }

    /// Drops every entry (crash restart: SSI state is volatile).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            stripe.sireads.clear();
            stripe.writes.clear();
        }
        self.shard_reads.lock().clear();
        self.departed.lock().clear();
        self.siread_entries.set(0);
    }
}

/// Portable copy of one shard's SSI entries, carried with the migration
/// gate plan from source to destination.
#[derive(Debug)]
pub struct SsiShardExport {
    /// The shard being handed over.
    pub shard: ShardId,
    key_sireads: Vec<(Key, Vec<Arc<SsiTxn>>)>,
    key_writes: Vec<(Key, Vec<Arc<SsiTxn>>)>,
    shard_sireads: Vec<Arc<SsiTxn>>,
}

impl SsiShardExport {
    /// Total entries carried (diagnostics).
    pub fn len(&self) -> usize {
        self.key_sireads.iter().map(|(_, v)| v.len()).sum::<usize>()
            + self.key_writes.iter().map(|(_, v)| v.len()).sum::<usize>()
            + self.shard_sireads.len()
    }

    /// True when nothing is carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    fn txn(seq: u64, start: u64) -> Arc<SsiTxn> {
        SsiTxn::new(TxnId::new(NodeId(1), seq), Timestamp(start))
    }

    const S: ShardId = ShardId(3);

    #[test]
    fn read_then_concurrent_write_raises_one_edge() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let r = txn(1, 10);
        let w = txn(2, 10);
        ssi.on_read(&r, S, 7).unwrap();
        ssi.on_write(&w, S, 7).unwrap();
        assert!(r.has_out_rw());
        assert!(w.has_in_rw());
        assert!(!r.has_in_rw());
        assert!(!w.has_out_rw());
        assert_eq!(ssi.rw_edges.get(), 2); // two flag transitions
                                           // Re-detection of the same edge counts nothing new.
        ssi.on_write(&w, S, 7).unwrap();
        assert_eq!(ssi.rw_edges.get(), 2);
    }

    #[test]
    fn own_writes_raise_no_edges() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let t = txn(1, 10);
        ssi.on_read(&t, S, 7).unwrap();
        ssi.on_write(&t, S, 7).unwrap();
        assert!(!t.has_in_rw() && !t.has_out_rw());
        assert_eq!(ssi.rw_edges.get(), 0);
    }

    #[test]
    fn pivot_aborts_live_side_once_committed() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        // Pivot P reads key A (out-edge pending) and writes key B.
        let p = txn(1, 10);
        ssi.on_read(&p, S, 1).unwrap();
        ssi.on_write(&p, S, 2).unwrap();
        // W overwrites A while P is active: edge P -> W, P.out set.
        let w = txn(2, 10);
        ssi.on_write(&w, S, 1).unwrap();
        assert!(p.has_out_rw());
        // P seals and commits (its own check would have passed if run
        // before R's edge below — model the post-seal race).
        assert_eq!(p.seal(), SealOutcome::Sealed);
        assert!(!p.is_pivot());
        p.mark_committed(Timestamp(20));
        // R reads B after P committed, from a snapshot concurrent with P:
        // edge R -> P completes the dangerous structure with a committed
        // pivot, so the live reader dies.
        let r = txn(3, 10);
        let err = ssi.on_read(&r, S, 2).unwrap_err();
        assert!(matches!(err, DbError::SsiAbort { txn } if txn == r.xid));
        assert_eq!(ssi.ssi_aborts.get(), 1);
    }

    #[test]
    fn committed_writer_before_snapshot_is_not_concurrent() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let w = txn(1, 5);
        ssi.on_write(&w, S, 7).unwrap();
        w.mark_committed(Timestamp(8));
        // Reader's snapshot (10) already covers the commit (8): no edge.
        let r = txn(2, 10);
        ssi.on_read(&r, S, 7).unwrap();
        assert!(!r.has_out_rw());
        assert!(!w.has_in_rw());
    }

    #[test]
    fn aborted_peer_raises_no_edges() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let w = txn(1, 10);
        ssi.on_write(&w, S, 7).unwrap();
        w.mark_aborted();
        let r = txn(2, 10);
        ssi.on_read(&r, S, 7).unwrap();
        assert!(!r.has_out_rw());
    }

    #[test]
    fn scan_locks_shard_against_later_point_writes() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let r = txn(1, 10);
        ssi.on_scan(&r, S).unwrap();
        let w = txn(2, 10);
        ssi.on_write(&w, S, 999).unwrap();
        assert!(r.has_out_rw());
        assert!(w.has_in_rw());
        // A write in a different shard is invisible to the scan lock.
        let w2 = txn(3, 10);
        ssi.on_write(&w2, ShardId(4), 999).unwrap();
        assert!(!w2.has_in_rw());
    }

    #[test]
    fn scan_sees_existing_writers_in_shard() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let w = txn(1, 10);
        ssi.on_write(&w, S, 42).unwrap();
        let r = txn(2, 10);
        ssi.on_scan(&r, S).unwrap();
        assert!(r.has_out_rw());
        assert!(w.has_in_rw());
    }

    #[test]
    fn gc_retains_until_watermark_then_drops() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let r = txn(1, 10);
        ssi.on_read(&r, S, 7).unwrap();
        r.mark_committed(Timestamp(20));
        // Watermark below the commit: the entry must survive (a concurrent
        // transaction could still overwrite key 7 and owe r an edge).
        ssi.gc(Timestamp(15));
        assert_eq!(ssi.siread_count(), 1);
        assert_eq!(ssi.siread_entries.get(), 1);
        // Watermark past the commit: dropped, not leaked.
        ssi.gc(Timestamp(21));
        assert_eq!(ssi.siread_count(), 0);
        assert_eq!(ssi.siread_entries.get(), 0);
    }

    #[test]
    fn gc_drops_aborted_immediately_and_keeps_active() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let a = txn(1, 10);
        let b = txn(2, 10);
        ssi.on_read(&a, S, 1).unwrap();
        ssi.on_read(&b, S, 2).unwrap();
        a.mark_aborted();
        ssi.gc(Timestamp(1000));
        assert_eq!(
            ssi.siread_count(),
            1,
            "active entry must survive any watermark"
        );
    }

    #[test]
    fn seal_wins_over_late_doom_and_doom_wins_over_late_seal() {
        let t = txn(1, 10);
        assert_eq!(t.seal(), SealOutcome::Sealed);
        assert!(
            !t.doom("handover"),
            "doom must not land on a committing txn"
        );
        let u = txn(2, 10);
        assert!(u.doom("handover"));
        assert_eq!(u.seal(), SealOutcome::Doomed("handover"));
    }

    #[test]
    fn export_import_carries_entries_and_shares_flag_state() {
        let m = registry();
        let source = SsiNode::new(4, &m);
        let dest = SsiNode::new(8, &m); // stripe counts may differ
        let r = txn(1, 10);
        source.on_read(&r, S, 7).unwrap();
        source.on_scan(&r, S).unwrap();
        let export = source.export_shard(S);
        assert_eq!(export.len(), 2);
        dest.import_shard(&export);
        // Import is idempotent.
        dest.import_shard(&export);
        assert_eq!(dest.siread_count(), 2);
        // A write on the destination now raises the edge on the shared
        // handle.
        let w = txn(2, 10);
        dest.on_write(&w, S, 7).unwrap();
        assert!(r.has_out_rw());
    }

    #[test]
    fn departed_shard_rejects_ssi_access_until_reimported() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let t = txn(1, 10);
        ssi.on_read(&t, S, 7).unwrap();
        let export = ssi.export_shard(S);
        ssi.mark_departed(S);
        let r = txn(2, 10);
        let err = ssi.on_read(&r, S, 7).unwrap_err();
        assert!(err.is_migration_induced(), "got {err:?}");
        assert!(ssi.on_write(&r, S, 8).is_err());
        assert!(ssi.on_scan(&r, S).is_err());
        // Other shards are untouched.
        ssi.on_read(&r, ShardId(9), 7).unwrap();
        // A back-migration imports the shard again and access resumes.
        ssi.import_shard(&export);
        ssi.on_read(&r, S, 7).unwrap();
        // So does a handover whose ownership transfer failed.
        ssi.mark_departed(S);
        assert!(ssi.on_read(&r, S, 7).is_err());
        ssi.reclaim_shard(S);
        ssi.on_write(&r, S, 8).unwrap();
    }

    #[test]
    fn doom_straddlers_hits_active_spares_committed() {
        let m = registry();
        let ssi = SsiNode::new(4, &m);
        let active = txn(1, 10);
        let committed = txn(2, 10);
        ssi.on_read(&active, S, 1).unwrap();
        ssi.on_read(&committed, S, 2).unwrap();
        committed.mark_committed(Timestamp(20));
        let doomed = ssi.doom_active_straddlers(S, "handover");
        assert_eq!(doomed, vec![active.xid]);
        assert!(matches!(active.phase(), SsiPhase::Doomed(_)));
        assert!(matches!(committed.phase(), SsiPhase::Committed(_)));
    }

    // ---- SIREAD-table concurrency suite (nightly TSan target) ----

    #[test]
    fn concurrent_readers_writers_and_gc_race_cleanly() {
        let m = registry();
        let ssi = SsiNode::new(8, &m);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ssi = Arc::clone(&ssi);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let h = SsiTxn::new(TxnId::new(NodeId(1), t * 1000 + i + 1), Timestamp(i));
                        let key = i % 16;
                        let _ = ssi.on_read(&h, S, key);
                        let _ = ssi.on_write(&h, S, key + 1);
                        if i % 3 == 0 {
                            let _ = ssi.on_scan(&h, S);
                        }
                        if i % 2 == 0 {
                            h.mark_committed(Timestamp(i + 1));
                        } else {
                            h.mark_aborted();
                        }
                    }
                })
            })
            .collect();
        let gc = {
            let ssi = Arc::clone(&ssi);
            std::thread::spawn(move || {
                for w in 0..100u64 {
                    ssi.gc(Timestamp(w * 2));
                    std::thread::yield_now();
                }
            })
        };
        for t in threads {
            t.join().unwrap();
        }
        gc.join().unwrap();
        // Everything committed/aborted, so a max-watermark sweep drains
        // the table completely — nothing leaked.
        ssi.gc(Timestamp(u64::MAX));
        assert_eq!(ssi.siread_count(), 0);
    }

    #[test]
    fn concurrent_export_import_during_traffic() {
        let m = registry();
        let source = SsiNode::new(8, &m);
        let dest = SsiNode::new(8, &m);
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let source = Arc::clone(&source);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let h = SsiTxn::new(TxnId::new(NodeId(1), t * 1000 + i + 1), Timestamp(i));
                        let _ = ssi_round(&source, &h, i % 8);
                        h.mark_committed(Timestamp(i + 1));
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            let export = source.export_shard(S);
            dest.import_shard(&export);
        }
        for w in writers {
            w.join().unwrap();
        }
        let export = source.export_shard(S);
        dest.import_shard(&export);
        assert!(dest.siread_count() > 0);
    }

    fn ssi_round(ssi: &SsiNode, h: &Arc<SsiTxn>, key: Key) -> DbResult<()> {
        ssi.on_read(h, S, key)?;
        ssi.on_write(h, S, key)
    }
}
