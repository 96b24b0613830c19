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
//! Cost of an access (DESIGN.md §14): a point read or write takes one
//! stripe lock and tests the other side's entries in place under it, with
//! plain atomic loads of each peer's phase word and flags; the node-wide
//! fences (the departed set, the shard-scan entries) cost one load while
//! they are empty.
//!
//! Migration interaction (DESIGN.md §14): when a shard moves, its SIREAD
//! and write-registry entries are exported from the source and imported on
//! the destination ([`SsiNode::export_shard`] / [`SsiNode::import_shard`])
//! — handles are `Arc`-shared, so a transferred entry keeps pointing at
//! the same flag state. Engines that abort their way through ownership
//! transfer instead conservatively doom every still-active straddler
//! ([`SsiNode::doom_active_straddlers`]) and transfer only the retained
//! (committing/committed) entries.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};

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

// Values of `SsiTxn::phase`. `Committed(cts)` is `COMMITTED | cts`.
const ACTIVE: u64 = 0;
const COMMITTING: u64 = 1;
const ABORTED: u64 = 2;
const DOOMED: u64 = 3;
const COMMITTED: u64 = 1 << 63;

/// Per-transaction SSI state, shared by `Arc` across nodes.
///
/// The rw-edge flags only ever go from unset to set. Seal and edge form a
/// Dekker pair: `seal` stores the phase and its caller then loads the
/// flags ([`SsiTxn::is_pivot`]); an edge sets a flag and then loads the
/// other endpoint's phase. All four accesses are `SeqCst`, so at least one
/// side sees the other — a pivot whose own check passed forces the live
/// side of the closing edge to abort.
#[derive(Debug)]
pub struct SsiTxn {
    /// The transaction this handle belongs to.
    pub xid: TxnId,
    /// Its snapshot timestamp (concurrency test: a committed peer with
    /// `cts > start_ts` overlapped this transaction).
    pub start_ts: Timestamp,
    in_rw: AtomicBool,
    out_rw: AtomicBool,
    /// The phase word: `ACTIVE`, `COMMITTING`, `ABORTED`, `DOOMED` or
    /// `COMMITTED | cts`.
    phase: AtomicU64,
    /// Why a handover doomed it: written before the phase says `DOOMED`,
    /// read only after.
    doom_reason: OnceLock<&'static str>,
}

impl SsiTxn {
    /// A fresh handle for an active transaction.
    pub fn new(xid: TxnId, start_ts: Timestamp) -> Arc<SsiTxn> {
        Arc::new(SsiTxn {
            xid,
            start_ts,
            in_rw: AtomicBool::new(false),
            out_rw: AtomicBool::new(false),
            phase: AtomicU64::new(ACTIVE),
            doom_reason: OnceLock::new(),
        })
    }

    /// Current phase (a copy).
    pub fn phase(&self) -> SsiPhase {
        match self.phase.load(SeqCst) {
            ACTIVE => SsiPhase::Active,
            COMMITTING => SsiPhase::Committing,
            ABORTED => SsiPhase::Aborted,
            DOOMED => SsiPhase::Doomed(self.doom_reason()),
            word => SsiPhase::Committed(Timestamp(word & !COMMITTED)),
        }
    }

    fn doom_reason(&self) -> &'static str {
        self.doom_reason
            .get()
            .expect("a doom writes its reason before it publishes the phase")
    }

    /// True once both an incoming and an outgoing rw-edge have been
    /// recorded — the transaction is the pivot of a dangerous structure.
    pub fn is_pivot(&self) -> bool {
        self.in_rw.load(SeqCst) && self.out_rw.load(SeqCst)
    }

    /// Whether the transaction has an incoming rw-edge.
    pub fn has_in_rw(&self) -> bool {
        self.in_rw.load(SeqCst)
    }

    /// Whether the transaction has an outgoing rw-edge.
    pub fn has_out_rw(&self) -> bool {
        self.out_rw.load(SeqCst)
    }

    /// Seals the handle on entry to commit progress: after this, edge
    /// checks treat it as committed. Returns the doom reason instead if a
    /// migration handover got there first.
    pub fn seal(&self) -> SealOutcome {
        let mut word = self.phase.load(SeqCst);
        loop {
            if word == DOOMED {
                return SealOutcome::Doomed(self.doom_reason());
            }
            match self
                .phase
                .compare_exchange_weak(word, COMMITTING, SeqCst, SeqCst)
            {
                Ok(_) => return SealOutcome::Sealed,
                Err(now) => word = now,
            }
        }
    }

    /// Records the commit timestamp (SIREAD retention is keyed on it).
    pub fn mark_committed(&self, cts: Timestamp) {
        assert_eq!(cts.0 & COMMITTED, 0, "{cts:?} overlaps the phase tag bit");
        self.phase.store(COMMITTED | cts.0, SeqCst);
    }

    /// Marks the transaction aborted; its entries stop producing edges.
    pub fn mark_aborted(&self) {
        self.phase.store(ABORTED, SeqCst);
    }

    /// Migration-handover doom: only lands on a still-active transaction
    /// (one already committing keeps its exported entries instead).
    /// Returns whether the doom took effect. Of two racing dooms, the
    /// first reason written is the one a seal reports.
    pub fn doom(&self, reason: &'static str) -> bool {
        if self.phase.load(SeqCst) != ACTIVE {
            return false;
        }
        let _ = self.doom_reason.set(reason);
        self.phase
            .compare_exchange(ACTIVE, DOOMED, SeqCst, SeqCst)
            .is_ok()
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

/// Hashes the `(shard, key)` maps and picks their stripe: one folded
/// 64 x 64 -> 128-bit multiply per word. The keys are the program's own
/// shard ids and keys, so SipHash's resistance to chosen collisions buys
/// nothing here.
#[derive(Default, Clone, Copy)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// One transaction's SIREAD or write entry: the xid sits inline next to
/// the handle, so dedup and the self-check read no other cache line.
#[derive(Debug, Clone)]
struct Entry {
    xid: TxnId,
    txn: Arc<SsiTxn>,
}

/// The SIREAD and write entries of one `(shard, key)`.
#[derive(Debug, Default)]
struct KeyEntries {
    readers: Vec<Entry>,
    writers: Vec<Entry>,
}

/// One lock stripe: the entries of the keys hashed onto it, on a cache
/// line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(Mutex<KeyMap>);

type KeyMap = MulMap<(ShardId, Key), KeyEntries>;

/// Per-node SSI state: the striped SIREAD lock table, the shard-granularity
/// SIREAD entries (scans), the write registry, and the node-scoped metrics.
///
/// Striping mirrors the storage index (`hot_path.index_stripes`): point
/// reads and writes lock exactly one stripe, so serializable tracking adds
/// no cross-key contention beyond what the table itself has. No other lock
/// is taken while a stripe lock is held.
pub struct SsiNode {
    stripes: Box<[Stripe]>,
    shard_reads: Mutex<MulMap<ShardId, Vec<Entry>>>,
    /// `shard_reads.len()`, stored under its lock: a write skips that lock
    /// while no scan entry exists.
    scanned_shards: AtomicUsize,
    /// Shards whose SSI state was handed to another node. Serializable
    /// access through this node afterwards would register edges nobody
    /// checks, so it fails as migration-induced instead. (SI-mode traffic
    /// never consults this — dual execution stays abort-free there.)
    departed: Mutex<HashSet<ShardId>>,
    /// `departed.len()`, stored under its lock: an access skips that lock
    /// while no shard is in handover.
    departed_shards: AtomicUsize,
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
        Arc::new(SsiNode {
            stripes: (0..stripes.max(1)).map(|_| Stripe::default()).collect(),
            shard_reads: Mutex::default(),
            scanned_shards: AtomicUsize::new(0),
            departed: Mutex::default(),
            departed_shards: AtomicUsize::new(0),
            ssi_aborts: metrics.counter("txn.ssi_aborts"),
            rw_edges: metrics.counter("txn.rw_edges"),
            siread_entries: metrics.gauge("txn.siread_entries"),
        })
    }

    fn stripe_for(&self, shard: ShardId, key: Key) -> &Mutex<KeyMap> {
        let mut h = MulHasher::default();
        (shard, key).hash(&mut h);
        // Multiply-shift onto the stripe count, from the hash's low half
        // (the map inside the stripe takes its control bits from the top).
        let i = ((h.finish() & 0xFFFF_FFFF) * self.stripes.len() as u64) >> 32;
        &self.stripes[i as usize].0
    }

    /// Records an rw-antidependency edge `reader -rw-> writer`, counting
    /// each flag that newly transitions. A flag already set is only loaded,
    /// so re-detecting an edge writes no shared cache line.
    fn add_edge(&self, reader: &SsiTxn, writer: &SsiTxn) {
        for flag in [&reader.out_rw, &writer.in_rw] {
            if !flag.load(SeqCst) && !flag.swap(true, SeqCst) {
                self.rw_edges.inc();
            }
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

    /// Raises `live`'s edges against every concurrent transaction in
    /// `others`, read in place under the caller's lock: `live -rw-> other`
    /// when `live_reads`, else `other -rw-> live`.
    fn raise_edges(&self, live: &SsiTxn, others: &[Entry], live_reads: bool) -> DbResult<()> {
        for other in others {
            if other.xid == live.xid || !other.txn.edge_relevant_to(live.start_ts) {
                continue;
            }
            if live_reads {
                self.add_edge(live, &other.txn);
            } else {
                self.add_edge(&other.txn, live);
            }
            self.check_committed_pivot(live, &other.txn)?;
        }
        Ok(())
    }

    fn push_unique(list: &mut Vec<Entry>, txn: &Arc<SsiTxn>) {
        if !list.iter().any(|e| e.xid == txn.xid) {
            list.push(Entry {
                xid: txn.xid,
                txn: Arc::clone(txn),
            });
        }
    }

    /// Fails serializable access to a shard whose SSI state has been
    /// handed to another node: an edge registered here after the handover
    /// would never be seen by writers on the new owner.
    fn check_departed(&self, shard: ShardId, xid: TxnId) -> DbResult<()> {
        if self.departed_shards.load(SeqCst) != 0 && self.departed.lock().contains(&shard) {
            return Err(DbError::MigrationAbort {
                txn: xid,
                reason: "serializable access to a shard in SSI handover",
            });
        }
        Ok(())
    }

    /// Changes the departed set and republishes its size.
    fn update_departed(&self, change: impl FnOnce(&mut HashSet<ShardId>)) {
        let mut departed = self.departed.lock();
        change(&mut departed);
        self.departed_shards.store(departed.len(), SeqCst);
    }

    /// Changes the scan entries and republishes how many shards have any.
    fn update_shard_reads(&self, change: impl FnOnce(&mut MulMap<ShardId, Vec<Entry>>)) {
        let mut shard_reads = self.shard_reads.lock();
        change(&mut shard_reads);
        self.scanned_shards.store(shard_reads.len(), SeqCst);
    }

    /// Registers a point read: takes the SIREAD lock on `(shard, key)` and
    /// raises edges against every concurrent writer of the key.
    pub fn on_read(&self, reader: &Arc<SsiTxn>, shard: ShardId, key: Key) -> DbResult<()> {
        self.check_departed(shard, reader.xid)?;
        let mut stripe = self.stripe_for(shard, key).lock();
        let entries = stripe.entry((shard, key)).or_default();
        Self::push_unique(&mut entries.readers, reader);
        self.raise_edges(reader, &entries.writers, true)
    }

    /// Registers a shard scan: takes a shard-granularity SIREAD lock and
    /// raises edges against every concurrent writer anywhere in the shard.
    pub fn on_scan(&self, reader: &Arc<SsiTxn>, shard: ShardId) -> DbResult<()> {
        self.check_departed(shard, reader.xid)?;
        // Raises the count before any stripe is read: a write this scan
        // misses in its stripe sees the count (see `on_write`).
        self.update_shard_reads(|reads| Self::push_unique(reads.entry(shard).or_default(), reader));
        // One stripe at a time; never two stripe locks at once.
        for stripe in self.stripes.iter() {
            let stripe = stripe.0.lock();
            for ((s, _), entries) in stripe.iter() {
                if *s == shard {
                    self.raise_edges(reader, &entries.writers, true)?;
                }
            }
        }
        Ok(())
    }

    /// Registers a write: enters the write registry and raises edges
    /// against every concurrent reader of the key (point SIREAD entries
    /// plus shard-granularity scan entries).
    pub fn on_write(&self, writer: &Arc<SsiTxn>, shard: ShardId, key: Key) -> DbResult<()> {
        self.check_departed(shard, writer.xid)?;
        {
            let mut stripe = self.stripe_for(shard, key).lock();
            let entries = stripe.entry((shard, key)).or_default();
            Self::push_unique(&mut entries.writers, writer);
            self.raise_edges(writer, &entries.readers, false)?;
        }
        // The write is registered before this load, and a scan raises the
        // count before it reads the stripes: either the scan found the
        // write, or this load finds the scan.
        if self.scanned_shards.load(SeqCst) != 0 {
            if let Some(scanners) = self.shard_reads.lock().get(&shard) {
                self.raise_edges(writer, scanners, false)?;
            }
        }
        Ok(())
    }

    /// Live SIREAD entry count (key- plus shard-granularity).
    pub fn siread_count(&self) -> u64 {
        let mut n: usize = self.shard_reads.lock().values().map(Vec::len).sum();
        for stripe in self.stripes.iter() {
            n += stripe
                .0
                .lock()
                .values()
                .map(|e| e.readers.len())
                .sum::<usize>();
        }
        n as u64
    }

    /// Drops entries that can no longer produce a meaningful edge: aborted
    /// transactions, and committed ones whose commit timestamp the cluster
    /// safe-ts watermark has passed (no concurrent transaction remains).
    /// Refreshes the `txn.siread_entries` gauge with the survivors it
    /// counted on the way.
    pub fn gc(&self, watermark: Timestamp) {
        let keep = |e: &Entry| match e.txn.phase() {
            SsiPhase::Aborted => false,
            SsiPhase::Committed(cts) => cts >= watermark,
            _ => true,
        };
        let mut sireads = 0;
        for stripe in self.stripes.iter() {
            stripe.0.lock().retain(|_, entries| {
                entries.readers.retain(keep);
                entries.writers.retain(keep);
                sireads += entries.readers.len();
                !(entries.readers.is_empty() && entries.writers.is_empty())
            });
        }
        self.update_shard_reads(|reads| {
            reads.retain(|_, scanners| {
                scanners.retain(keep);
                sireads += scanners.len();
                !scanners.is_empty()
            })
        });
        self.siread_entries.set(sireads as u64);
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
        for stripe in self.stripes.iter() {
            for ((s, key), entries) in stripe.0.lock().iter() {
                if *s != shard {
                    continue;
                }
                if !entries.readers.is_empty() {
                    export.key_sireads.push((*key, entries.readers.clone()));
                }
                if !entries.writers.is_empty() {
                    export.key_writes.push((*key, entries.writers.clone()));
                }
            }
        }
        if let Some(scanners) = self.shard_reads.lock().get(&shard) {
            export.shard_sireads = scanners.clone();
        }
        export
    }

    /// Marks `shard` as handed over: subsequent serializable access
    /// through this node fails as migration-induced. Called on the source
    /// right after [`SsiNode::export_shard`].
    pub fn mark_departed(&self, shard: ShardId) {
        self.update_departed(|d| {
            d.insert(shard);
        });
    }

    /// Lifts a [`SsiNode::mark_departed`] fence the ownership transfer did
    /// not follow (its `T_m` failed): the node still owns `shard`, and its
    /// entries are complete because none could be added while fenced. A
    /// no-op for a shard that was never fenced.
    pub fn reclaim_shard(&self, shard: ShardId) {
        self.update_departed(|d| {
            d.remove(&shard);
        });
    }

    /// Merges an export from the migration source (idempotent; entries
    /// already present for a transaction are not duplicated). Also clears
    /// any departed marking for the shard — the node is its owner now
    /// (back-migrations reuse nodes).
    pub fn import_shard(&self, export: &SsiShardExport) {
        self.reclaim_shard(export.shard);
        for (key, list) in &export.key_sireads {
            self.merge_key(export.shard, *key, list, |e| &mut e.readers);
        }
        for (key, list) in &export.key_writes {
            self.merge_key(export.shard, *key, list, |e| &mut e.writers);
        }
        if !export.shard_sireads.is_empty() {
            self.update_shard_reads(|reads| {
                let scanners = reads.entry(export.shard).or_default();
                for e in &export.shard_sireads {
                    Self::push_unique(scanners, &e.txn);
                }
            });
        }
    }

    fn merge_key(
        &self,
        shard: ShardId,
        key: Key,
        list: &[Entry],
        side: fn(&mut KeyEntries) -> &mut Vec<Entry>,
    ) {
        let mut stripe = self.stripe_for(shard, key).lock();
        let into = side(stripe.entry((shard, key)).or_default());
        for e in list {
            Self::push_unique(into, &e.txn);
        }
    }

    /// Conservative handover: dooms every still-active transaction holding
    /// an SSI entry on `shard` (readers included — a straddling reader's
    /// rw-edges cannot be tracked once the shard's versions move away).
    /// Returns the doomed xids; each one fails at its own `seal`.
    pub fn doom_active_straddlers(&self, shard: ShardId, reason: &'static str) -> Vec<TxnId> {
        let mut holders: Vec<Entry> = Vec::new();
        for stripe in self.stripes.iter() {
            for ((s, _), entries) in stripe.0.lock().iter() {
                if *s == shard {
                    for e in entries.readers.iter().chain(&entries.writers) {
                        Self::push_unique(&mut holders, &e.txn);
                    }
                }
            }
        }
        if let Some(scanners) = self.shard_reads.lock().get(&shard) {
            for e in scanners {
                Self::push_unique(&mut holders, &e.txn);
            }
        }
        let mut doomed = Vec::new();
        for e in holders {
            if e.txn.doom(reason) {
                self.ssi_aborts.inc();
                doomed.push(e.xid);
            }
        }
        doomed
    }

    /// Drops every entry (crash restart: SSI state is volatile).
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            stripe.0.lock().clear();
        }
        self.update_shard_reads(|reads| reads.clear());
        self.update_departed(HashSet::clear);
        self.siread_entries.set(0);
    }
}

/// Portable copy of one shard's SSI entries, carried with the migration
/// gate plan from source to destination.
#[derive(Debug)]
pub struct SsiShardExport {
    /// The shard being handed over.
    pub shard: ShardId,
    key_sireads: Vec<(Key, Vec<Entry>)>,
    key_writes: Vec<(Key, Vec<Entry>)>,
    shard_sireads: Vec<Entry>,
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

    #[test]
    fn fences_back_at_zero_behave_like_a_fresh_node() {
        let used = SsiNode::new(4, &registry());
        // A handover fenced and reclaimed, and a scan entry GC dropped.
        used.mark_departed(S);
        used.reclaim_shard(S);
        let scanner = txn(1, 10);
        used.on_scan(&scanner, S).unwrap();
        scanner.mark_aborted();
        used.gc(Timestamp(1000));
        assert_eq!(used.departed_shards.load(SeqCst), 0);
        assert_eq!(used.scanned_shards.load(SeqCst), 0);
        let fresh = SsiNode::new(4, &registry());
        for ssi in [&used, &fresh] {
            let (r, w) = (txn(2, 10), txn(3, 10));
            ssi.on_read(&r, S, 7).unwrap();
            ssi.on_write(&w, S, 7).unwrap();
            assert!(r.has_out_rw() && w.has_in_rw() && !w.has_out_rw());
            // A scan taken now raises the count again for the next write.
            let (s, w) = (txn(4, 10), txn(5, 10));
            ssi.on_scan(&s, S).unwrap();
            ssi.on_write(&w, S, 9).unwrap();
            assert!(s.has_out_rw() && w.has_in_rw());
        }
        assert_eq!(used.rw_edges.get(), fresh.rw_edges.get());
        assert_eq!(used.siread_count(), fresh.siread_count());
    }

    // ---- SIREAD-table concurrency suite (nightly TSan target) ----

    /// Lines two threads up at the start of each round. It spins rather
    /// than parks: a parked `Barrier` wakes its threads microseconds apart,
    /// far wider than the windows these races have.
    struct Rendezvous(AtomicUsize);

    impl Rendezvous {
        fn wait(&self, round: usize) {
            self.0.fetch_add(1, SeqCst);
            let mut spins = 0u32;
            while self.0.load(SeqCst) < 2 * (round + 1) {
                spins += 1;
                if spins.is_multiple_of(4096) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Spins a round-dependent few iterations, so the two sides of a race
    /// meet at shifting offsets.
    fn jitter(round: usize) {
        for _ in 0..round % 48 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn concurrent_seal_and_closing_edge_never_both_pass() {
        // Each round: pivot P has its out-edge (it read a key W overwrote)
        // and wrote a second key. P seals and runs its own commit check
        // while R reads P's key, which sets P's in-edge: P's check must
        // fail, or R must get the abort — never neither.
        const ROUNDS: u64 = 2_000;
        let ssi = SsiNode::new(4, &registry());
        let mut rounds = Vec::new();
        for i in 0..ROUNDS {
            let p = txn(3 * i + 1, 10);
            ssi.on_read(&p, S, 2 * i).unwrap();
            ssi.on_write(&p, S, 2 * i + 1).unwrap();
            ssi.on_write(&txn(3 * i + 2, 10), S, 2 * i).unwrap();
            assert!(p.has_out_rw() && !p.has_in_rw());
            rounds.push((p, txn(3 * i + 3, 10), 2 * i + 1));
        }
        let meet = Rendezvous(AtomicUsize::new(0));
        let (pivot_passed, reader_passed) = std::thread::scope(|s| {
            let sealer = s.spawn(|| {
                let mut passed = Vec::new();
                for (i, (p, _, _)) in rounds.iter().enumerate() {
                    meet.wait(i);
                    jitter(i);
                    passed.push(p.seal() == SealOutcome::Sealed && !p.is_pivot());
                }
                passed
            });
            let closer = s.spawn(|| {
                let mut passed = Vec::new();
                for (i, (_, r, key)) in rounds.iter().enumerate() {
                    meet.wait(i);
                    jitter(i / 48);
                    passed.push(ssi.on_read(r, S, *key).is_ok());
                }
                passed
            });
            (sealer.join().unwrap(), closer.join().unwrap())
        });
        for (i, (p, _, _)) in rounds.iter().enumerate() {
            assert!(p.is_pivot(), "round {i}: the closing edge was not raised");
            assert!(
                !(pivot_passed[i] && reader_passed[i]),
                "round {i}: the pivot passed its check and the reader closing its structure lived"
            );
        }
    }

    #[test]
    fn concurrent_scan_and_write_on_empty_shard_reads_raise_the_edge() {
        // Each round a fresh node, so the scan count starts at zero while
        // the write decides whether to look at the scan entries.
        const ROUNDS: u64 = 2_000;
        let m = registry();
        let rounds: Vec<_> = (0..ROUNDS)
            .map(|i| (SsiNode::new(4, &m), txn(2 * i + 1, 10), txn(2 * i + 2, 10)))
            .collect();
        let meet = Rendezvous(AtomicUsize::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                for (i, (ssi, r, _)) in rounds.iter().enumerate() {
                    meet.wait(i);
                    jitter(i);
                    ssi.on_scan(r, S).unwrap();
                }
            });
            s.spawn(|| {
                for (i, (ssi, _, w)) in rounds.iter().enumerate() {
                    meet.wait(i);
                    jitter(i / 48);
                    ssi.on_write(w, S, 7).unwrap();
                }
            });
        });
        for (i, (_, r, w)) in rounds.iter().enumerate() {
            assert!(
                r.has_out_rw() && w.has_in_rw(),
                "round {i}: a scan racing a write raised no edge"
            );
        }
    }

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
