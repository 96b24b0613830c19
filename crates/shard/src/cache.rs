//! The per-coordinator ordered shard map cache and the cache-read-through
//! protocol (paper §3.5.1, "Consistency of shard map cache").
//!
//! Each coordinator process keeps a private ordered cache of the shard map
//! for fast routing. A plain cache would break the transactional semantics
//! of `T_m`: between `T_m`'s commit and the cache invalidation there is a
//! vulnerable window in which a transaction with `start_ts >
//! T_m.commit_ts` could be routed with stale entries. Remus closes it by
//! marking the node *cache-read-through* for the migrating shards before
//! `T_m` executes and clearing the mark after `T_m` commits: while marked,
//! coordinators route those shards by reading the shard map table at the
//! transaction's start timestamp instead of trusting the cache.
//!
//! After the mark clears, the node bumps its map epoch; coordinators
//! noticing a stale epoch refresh their whole cache before routing the next
//! transaction (safe: subsequent transactions get start timestamps larger
//! than `T_m.commit_ts`). For transactions that are still *older* than a
//! cached entry (`entry.cts > start_ts`, e.g. T2 in Figure 5), the cache
//! falls back to the MVCC read, which returns the version their snapshot
//! must see.
//!
//! A new cache is stale at every epoch, so a coordinator fills it on its
//! first route whether or not any shard has migrated; a shard the cache has
//! no entry for (a table created after the refresh) is read through and
//! upserted. While nothing is marked, the read-through check and the epoch
//! are one atomic load each: a statement routed from a filled cache writes
//! no shared cache line.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;
use remus_common::{NodeId, ShardId, Timestamp};

/// One cached routing entry, ordered by shard id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheEntry {
    shard: ShardId,
    node: NodeId,
    /// Commit timestamp of the shard map version this entry mirrors.
    cts: Timestamp,
}

/// A coordinator's private ordered shard map cache.
#[derive(Debug, Default)]
pub struct ShardMapCache {
    /// Sorted by shard id for binary search (the paper's ordered array).
    entries: Vec<CacheEntry>,
    /// Map epoch this cache was refreshed at (`None` before the first
    /// refresh).
    epoch: Option<u64>,
}

/// What the cache says about routing one shard for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Route to this node.
    Hit(NodeId),
    /// The cached entry is newer than the transaction's snapshot (or
    /// absent): the caller must read the shard map table at the
    /// transaction's start timestamp.
    ReadTable,
}

impl ShardMapCache {
    /// An empty cache, stale at every epoch until its first refresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch this cache was last refreshed at (`None` before the first
    /// refresh).
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// True if the cache must be refreshed before trusting it.
    pub fn stale_for(&self, current_epoch: u64) -> bool {
        self.epoch != Some(current_epoch)
    }

    /// Replaces the cache contents from `(shard, node, cts)` rows and
    /// records the epoch they correspond to.
    pub fn refresh(
        &mut self,
        rows: impl IntoIterator<Item = (ShardId, NodeId, Timestamp)>,
        epoch: u64,
    ) {
        self.entries = rows
            .into_iter()
            .map(|(shard, node, cts)| CacheEntry { shard, node, cts })
            .collect();
        self.entries.sort_unstable_by_key(|e| e.shard);
        self.epoch = Some(epoch);
    }

    /// Upserts one entry if `cts` is newer than what is cached (the
    /// read-through path "updates the cache if there are new visible tuple
    /// versions").
    pub fn upsert(&mut self, shard: ShardId, node: NodeId, cts: Timestamp) {
        match self.entries.binary_search_by_key(&shard, |e| e.shard) {
            Ok(i) => {
                if self.entries[i].cts <= cts {
                    self.entries[i] = CacheEntry { shard, node, cts };
                }
            }
            Err(i) => self.entries.insert(i, CacheEntry { shard, node, cts }),
        }
    }

    /// Routes `shard` for a transaction whose snapshot is `start_ts`.
    pub fn lookup(&self, shard: ShardId, start_ts: Timestamp) -> CacheLookup {
        match self.entries.binary_search_by_key(&shard, |e| e.shard) {
            Ok(i) => {
                let e = self.entries[i];
                if e.cts <= start_ts {
                    CacheLookup::Hit(e.node)
                } else {
                    // The transaction predates this entry's version: its
                    // snapshot may map the shard elsewhere.
                    CacheLookup::ReadTable
                }
            }
            Err(_) => CacheLookup::ReadTable,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Node-level cache-read-through state plus the map epoch.
///
/// The marked set sits behind a lock that only `mark`, `clear` and a lookup
/// while some shard is marked take. `marked` mirrors the set's size and
/// `epoch` the map epoch, both stored under the write lock; `clear` bumps
/// the epoch before it stores the smaller count, so a router that loads a
/// count of zero and then the epoch sees the bump of the `clear` that
/// emptied the set.
#[derive(Debug, Default)]
pub struct ReadThroughState {
    marked: AtomicUsize,
    epoch: AtomicU64,
    shards: RwLock<HashSet<ShardId>>,
}

impl ReadThroughState {
    /// Fresh state: nothing marked, epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks shards read-through (called before `T_m` executes).
    pub fn mark(&self, shards: &[ShardId]) {
        let mut marked = self.shards.write();
        marked.extend(shards.iter().copied());
        self.marked.store(marked.len(), Ordering::SeqCst);
    }

    /// Clears marks and bumps the epoch (called after `T_m` commits), so
    /// coordinators refresh their caches.
    pub fn clear(&self, shards: &[ShardId]) {
        let mut marked = self.shards.write();
        for s in shards {
            marked.remove(s);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.marked.store(marked.len(), Ordering::SeqCst);
    }

    /// True while `shard` must be routed via the shard map table.
    pub fn is_marked(&self, shard: ShardId) -> bool {
        self.marked.load(Ordering::SeqCst) != 0 && self.shards.read().contains(&shard)
    }

    /// The current map epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn lookup_hits_when_entry_is_old_enough() {
        let mut cache = ShardMapCache::new();
        cache.refresh([(ShardId(10), NodeId(1), Timestamp::SNAPSHOT_MIN)], 1);
        assert_eq!(
            cache.lookup(ShardId(10), ts(5)),
            CacheLookup::Hit(NodeId(1))
        );
    }

    #[test]
    fn lookup_falls_back_for_older_transactions() {
        // Figure 5: the entry reflects T_m (cts 12); T2 with start 10 must
        // read the table and be routed to the source.
        let mut cache = ShardMapCache::new();
        cache.refresh([(ShardId(10), NodeId(3), ts(12))], 2);
        assert_eq!(cache.lookup(ShardId(10), ts(10)), CacheLookup::ReadTable);
        assert_eq!(
            cache.lookup(ShardId(10), ts(15)),
            CacheLookup::Hit(NodeId(3))
        );
    }

    #[test]
    fn lookup_misses_unknown_shard() {
        let cache = ShardMapCache::new();
        assert_eq!(cache.lookup(ShardId(1), ts(5)), CacheLookup::ReadTable);
    }

    #[test]
    fn upsert_keeps_newest_version() {
        let mut cache = ShardMapCache::new();
        cache.upsert(ShardId(10), NodeId(1), ts(5));
        cache.upsert(ShardId(10), NodeId(3), ts(12));
        assert_eq!(
            cache.lookup(ShardId(10), ts(20)),
            CacheLookup::Hit(NodeId(3))
        );
        // A stale upsert must not regress the entry.
        cache.upsert(ShardId(10), NodeId(1), ts(5));
        assert_eq!(
            cache.lookup(ShardId(10), ts(20)),
            CacheLookup::Hit(NodeId(3))
        );
    }

    #[test]
    fn refresh_sorts_for_binary_search() {
        let mut cache = ShardMapCache::new();
        cache.refresh(
            [
                (ShardId(30), NodeId(3), ts(1)),
                (ShardId(10), NodeId(1), ts(1)),
                (ShardId(20), NodeId(2), ts(1)),
            ],
            7,
        );
        assert_eq!(cache.epoch(), Some(7));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.lookup(ShardId(20), ts(5)),
            CacheLookup::Hit(NodeId(2))
        );
    }

    #[test]
    fn staleness_tracks_epoch() {
        let mut cache = ShardMapCache::new();
        // A new cache is stale at the epoch a node starts at, too.
        assert!(cache.stale_for(0));
        assert!(cache.stale_for(1));
        cache.refresh([], 1);
        assert!(!cache.stale_for(1));
        assert!(cache.stale_for(2));
    }

    #[test]
    fn churned_shard_never_serves_a_stale_owner_to_a_new_snapshot() {
        // Planner-driven churn: the same shard migrates six times in quick
        // succession (owner cycling over three nodes, cts strictly rising).
        // Racing read-throughs may deliver upserts out of order — after
        // every flip a snapshot taken past the flip must route to the new
        // owner, and one taken before it must fall back to the table, no
        // matter how many stale echoes arrived in between.
        let mut cache = ShardMapCache::new();
        let shard = ShardId(7);
        let flips: Vec<(NodeId, Timestamp)> = (0..6u64)
            .map(|i| (NodeId((i % 3) as u32), ts(10 + 10 * i)))
            .collect();
        for (i, &(node, cts)) in flips.iter().enumerate() {
            cache.upsert(shard, node, cts);
            // A slower session's read-through echoes every *prior* owner.
            for &(old_node, old_cts) in &flips[..i] {
                cache.upsert(shard, old_node, old_cts);
            }
            assert_eq!(
                cache.lookup(shard, ts(cts.0 + 1)),
                CacheLookup::Hit(node),
                "flip {i}: new snapshot not routed to the new owner"
            );
            assert_eq!(
                cache.lookup(shard, ts(cts.0 - 1)),
                CacheLookup::ReadTable,
                "flip {i}: pre-flip snapshot trusted a too-new entry"
            );
        }
        assert_eq!(cache.len(), 1, "churn must not duplicate the entry");
    }

    #[test]
    fn epoch_churn_forces_refresh_between_quick_migrations() {
        // Back-to-back migrations bump the map epoch faster than a session
        // routes; every bump must invalidate the cache exactly once and the
        // refreshed entry must win over whatever was cached before.
        let mut cache = ShardMapCache::new();
        for epoch in 1..=6u64 {
            assert!(cache.stale_for(epoch), "epoch {epoch}: bump not noticed");
            let owner = NodeId((epoch % 3) as u32);
            cache.refresh([(ShardId(3), owner, ts(epoch * 5))], epoch);
            assert!(!cache.stale_for(epoch));
            assert_eq!(
                cache.lookup(ShardId(3), ts(epoch * 5)),
                CacheLookup::Hit(owner)
            );
        }
    }

    #[test]
    fn overlapping_migrations_keep_independent_marks() {
        // Two concurrent migrations mark disjoint shards; finishing one
        // must not clear the other's read-through window, and each T_m
        // bumps the epoch once.
        let rt = ReadThroughState::new();
        rt.mark(&[ShardId(1)]);
        rt.mark(&[ShardId(2)]);
        rt.clear(&[ShardId(1)]);
        assert!(!rt.is_marked(ShardId(1)));
        assert!(
            rt.is_marked(ShardId(2)),
            "overlapping migration's mark must survive"
        );
        assert_eq!(rt.epoch(), 1);
        rt.clear(&[ShardId(2)]);
        assert!(!rt.is_marked(ShardId(2)));
        assert_eq!(rt.epoch(), 2, "every T_m bumps the epoch");
    }

    #[test]
    fn read_through_mark_clear_and_epoch() {
        let rt = ReadThroughState::new();
        assert!(!rt.is_marked(ShardId(1)));
        assert_eq!(rt.epoch(), 0);
        rt.mark(&[ShardId(1), ShardId(2)]);
        assert!(rt.is_marked(ShardId(1)));
        assert!(rt.is_marked(ShardId(2)));
        assert_eq!(rt.epoch(), 0, "marking must not bump the epoch");
        rt.clear(&[ShardId(1), ShardId(2)]);
        assert!(!rt.is_marked(ShardId(1)));
        assert_eq!(rt.epoch(), 1);
    }
}
