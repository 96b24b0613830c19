//! Per-shard load accounting for the elasticity autopilot.
//!
//! Sessions tally reads/writes per shard locally (plain integers, no shared
//! state on the statement path) and flush once per transaction into
//! [`ShardLoadCell`]s — relaxed atomic adds on each touched shard's cell, and
//! nothing else. A session reaches the cells through its own `LoadCells`,
//! which asks the tracker's striped map only the first time the session
//! touches a shard, so a transaction's charge takes no lock; the tracker's
//! affinity map is locked only by a commit that wrote several shards. A
//! planner tick calls [`ShardLoadTracker::roll_window`],
//! which drains the raw counters into an EWMA per shard and publishes the
//! window's cross-shard affinity pairs; [`ShardLoadTracker::snapshot`]
//! returns the last published state without advancing the window.
//!
//! Everything is keyed by [`ShardId`] in ordered maps, so two runs that
//! execute the same transactions produce bit-identical snapshots — the
//! planner's determinism contract depends on it.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use remus_common::ShardId;

/// Stripes of the shard → cell map (relieves map-lock contention; the
/// cells themselves are lock-free).
const LOAD_STRIPES: usize = 16;

/// Maximum distinct shard pairs tracked per affinity window. Beyond this
/// the window is saturated and new pairs are dropped — the hot pairs the
/// planner cares about are by definition already in the map.
const AFFINITY_CAP: usize = 1024;

/// Raw per-shard counters accumulated since the last window roll.
#[derive(Debug, Default)]
pub struct ShardLoadCell {
    reads: AtomicU64,
    writes: AtomicU64,
    commits: AtomicU64,
    /// Commits in which this shard was one of several written shards.
    cross: AtomicU64,
    /// Reads served by a replica instead of the owner. They are real read
    /// demand on the shard but not load on the owner node.
    offloaded: AtomicU64,
}

impl ShardLoadCell {
    /// Adds statement tallies (one call per transaction per shard).
    pub fn charge(&self, reads: u64, writes: u64) {
        if reads > 0 {
            self.reads.fetch_add(reads, Ordering::Relaxed);
        }
        if writes > 0 {
            self.writes.fetch_add(writes, Ordering::Relaxed);
        }
    }

    /// Adds a committed transaction that wrote this shard; `cross` when it
    /// wrote other shards too.
    pub fn charge_commit(&self, cross: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if cross {
            self.cross.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds reads that a replica served on the owner's behalf.
    pub fn charge_offloaded(&self, reads: u64) {
        if reads > 0 {
            self.offloaded.fetch_add(reads, Ordering::Relaxed);
        }
    }

    fn drain(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.reads.swap(0, Ordering::Relaxed),
            self.writes.swap(0, Ordering::Relaxed),
            self.commits.swap(0, Ordering::Relaxed),
            self.cross.swap(0, Ordering::Relaxed),
            self.offloaded.swap(0, Ordering::Relaxed),
        )
    }
}

/// A session's handles on the load cells of the shards it has touched,
/// sorted by shard id. Cells are never removed from the tracker, so a handle
/// stays the shard's cell for the session's life.
#[derive(Debug, Default)]
pub(crate) struct LoadCells {
    cells: Vec<(ShardId, Arc<ShardLoadCell>)>,
}

impl LoadCells {
    /// The cell of `shard`, looked up in `tracker` on the first call only.
    pub(crate) fn cell(&mut self, tracker: &ShardLoadTracker, shard: ShardId) -> &ShardLoadCell {
        let at = match self.cells.binary_search_by_key(&shard, |(s, _)| *s) {
            Ok(at) => at,
            Err(at) => {
                self.cells.insert(at, (shard, tracker.cell(shard)));
                at
            }
        };
        &self.cells[at].1
    }
}

/// Smoothed load of one shard (EWMA over window rolls).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoad {
    /// Reads per window (smoothed).
    pub reads: f64,
    /// Writes per window (smoothed).
    pub writes: f64,
    /// Committed writing transactions per window (smoothed); read-only
    /// commits show up in `reads` only.
    pub commits: f64,
    /// Multi-shard-write commits per window (smoothed).
    pub cross: f64,
    /// Replica-served reads per window (smoothed). Not part of `total()`:
    /// the owner never did this work, which is exactly how provisioning a
    /// replica shows up as relief on the hot node.
    pub offloaded: f64,
}

impl ShardLoad {
    /// The scalar the imbalance detector sums per node: work the *owner*
    /// performed (replica-served reads excluded).
    pub fn total(&self) -> f64 {
        self.reads + self.writes
    }

    /// Total read demand on the shard regardless of who served it.
    pub fn read_demand(&self) -> f64 {
        self.reads + self.offloaded
    }

    /// Fraction of the shard's demand that is reads (`0.0` when idle).
    /// Replica-served reads count as read demand: a shard must not look
    /// write-heavy just because its reads moved to a replica.
    pub fn read_fraction(&self) -> f64 {
        let demand = self.read_demand() + self.writes;
        if demand <= 0.0 {
            0.0
        } else {
            self.read_demand() / demand
        }
    }
}

/// One published window: smoothed per-shard loads plus the raw affinity
/// pairs of the window that was just rolled.
#[derive(Debug, Clone, Default)]
pub struct ShardLoadSnapshot {
    /// Smoothed load per shard, ordered by shard id.
    pub shards: BTreeMap<ShardId, ShardLoad>,
    /// `(a, b, count)` with `a < b`: commits of the last window that wrote
    /// both shards, sorted by pair for determinism.
    pub affinity: Vec<(ShardId, ShardId, u64)>,
}

impl ShardLoadSnapshot {
    /// The smoothed load of `shard` (zero when never seen).
    pub fn load_of(&self, shard: ShardId) -> ShardLoad {
        self.shards.get(&shard).copied().unwrap_or_default()
    }
}

#[derive(Debug, Default)]
struct SmoothedState {
    loads: BTreeMap<ShardId, ShardLoad>,
    last_affinity: Vec<(ShardId, ShardId, u64)>,
}

/// Cluster-wide per-shard load accounting.
#[derive(Debug)]
pub struct ShardLoadTracker {
    stripes: Vec<RwLock<HashMap<ShardId, Arc<ShardLoadCell>>>>,
    affinity: Mutex<HashMap<(ShardId, ShardId), u64>>,
    smoothed: Mutex<SmoothedState>,
}

impl Default for ShardLoadTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardLoadTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ShardLoadTracker {
            stripes: (0..LOAD_STRIPES).map(|_| RwLock::default()).collect(),
            affinity: Mutex::new(HashMap::new()),
            smoothed: Mutex::new(SmoothedState::default()),
        }
    }

    fn stripe_of(&self, shard: ShardId) -> &RwLock<HashMap<ShardId, Arc<ShardLoadCell>>> {
        &self.stripes[(shard.0 as usize) % LOAD_STRIPES]
    }

    /// The (created-on-demand) cell for `shard`.
    pub fn cell(&self, shard: ShardId) -> Arc<ShardLoadCell> {
        let stripe = self.stripe_of(shard);
        if let Some(cell) = stripe.read().get(&shard) {
            return Arc::clone(cell);
        }
        Arc::clone(stripe.write().entry(shard).or_default())
    }

    /// Counts one committed transaction that wrote every shard of `written`
    /// (deduped by the caller, two or more) in the window's affinity pairs.
    pub fn record_affinity(&self, written: &[ShardId]) {
        let mut affinity = self.affinity.lock();
        for (i, &a) in written.iter().enumerate() {
            for &b in &written[i + 1..] {
                let pair = if a < b { (a, b) } else { (b, a) };
                if let Some(n) = affinity.get_mut(&pair) {
                    *n += 1;
                } else if affinity.len() < AFFINITY_CAP {
                    affinity.insert(pair, 1);
                }
            }
        }
    }

    /// Drains the raw counters into the EWMA (`next = alpha * window +
    /// (1 - alpha) * prev`), publishes the window's affinity pairs, and
    /// returns the new snapshot. `alpha = 1.0` makes the snapshot exactly
    /// the last window (no smoothing), which is what deterministic replay
    /// uses.
    pub fn roll_window(&self, alpha: f64) -> ShardLoadSnapshot {
        let alpha = alpha.clamp(0.0, 1.0);
        let mut window: BTreeMap<ShardId, ShardLoad> = BTreeMap::new();
        for stripe in &self.stripes {
            for (&shard, cell) in stripe.read().iter() {
                let (r, w, c, x, o) = cell.drain();
                if r | w | c | x | o != 0 {
                    window.insert(
                        shard,
                        ShardLoad {
                            reads: r as f64,
                            writes: w as f64,
                            commits: c as f64,
                            cross: x as f64,
                            offloaded: o as f64,
                        },
                    );
                }
            }
        }
        let mut pairs: Vec<(ShardId, ShardId, u64)> = {
            let mut affinity = self.affinity.lock();
            affinity.drain().map(|((a, b), n)| (a, b, n)).collect()
        };
        pairs.sort_unstable();

        let mut smoothed = self.smoothed.lock();
        let shards: Vec<ShardId> = smoothed
            .loads
            .keys()
            .copied()
            .chain(window.keys().copied())
            .collect();
        for shard in shards {
            let prev = smoothed.loads.get(&shard).copied().unwrap_or_default();
            let now = window.get(&shard).copied().unwrap_or_default();
            let mix = |n: f64, p: f64| alpha * n + (1.0 - alpha) * p;
            let next = ShardLoad {
                reads: mix(now.reads, prev.reads),
                writes: mix(now.writes, prev.writes),
                commits: mix(now.commits, prev.commits),
                cross: mix(now.cross, prev.cross),
                offloaded: mix(now.offloaded, prev.offloaded),
            };
            // Drop decayed-to-nothing shards so the map stays bounded.
            if next.total() + next.commits + next.offloaded < 1e-6 {
                smoothed.loads.remove(&shard);
            } else {
                smoothed.loads.insert(shard, next);
            }
        }
        smoothed.last_affinity = pairs;
        ShardLoadSnapshot {
            shards: smoothed.loads.clone(),
            affinity: smoothed.last_affinity.clone(),
        }
    }

    /// The last published snapshot (does not advance the window).
    pub fn snapshot(&self) -> ShardLoadSnapshot {
        let smoothed = self.smoothed.lock();
        ShardLoadSnapshot {
            shards: smoothed.loads.clone(),
            affinity: smoothed.last_affinity.clone(),
        }
    }

    /// Zeroes everything: raw counters, affinity window, and the EWMA.
    /// Chaos planner mode calls this between measured windows so fault-era
    /// traffic cannot leak into the next decision.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            for cell in stripe.read().values() {
                cell.drain();
            }
        }
        self.affinity.lock().clear();
        let mut smoothed = self.smoothed.lock();
        smoothed.loads.clear();
        smoothed.last_affinity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_roll_into_the_window() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(1)).charge(10, 2);
        t.cell(ShardId(1)).charge(5, 0);
        t.cell(ShardId(2)).charge(0, 1);
        let snap = t.roll_window(1.0);
        assert_eq!(snap.load_of(ShardId(1)).reads, 15.0);
        assert_eq!(snap.load_of(ShardId(1)).writes, 2.0);
        assert_eq!(snap.load_of(ShardId(2)).writes, 1.0);
        assert_eq!(snap.load_of(ShardId(3)), ShardLoad::default());
    }

    #[test]
    fn roll_drains_raw_counters() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(1)).charge(4, 0);
        t.roll_window(1.0);
        // Next window saw nothing; with alpha 1.0 the shard decays away.
        let snap = t.roll_window(1.0);
        assert!(snap.shards.is_empty());
    }

    #[test]
    fn ewma_smooths_across_windows() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(7)).charge(100, 0);
        t.roll_window(0.5);
        // Empty window: half the previous estimate survives.
        let snap = t.roll_window(0.5);
        assert_eq!(snap.load_of(ShardId(7)).reads, 25.0);
    }

    #[test]
    fn decayed_shards_are_pruned() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(7)).charge(1, 0);
        t.roll_window(0.5);
        for _ in 0..64 {
            t.roll_window(0.5);
        }
        assert!(t.snapshot().shards.is_empty(), "stale shard never pruned");
    }

    #[test]
    fn commits_and_affinity_pairs() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(3)).charge_commit(false);
        for written in [[ShardId(1), ShardId(2)], [ShardId(2), ShardId(1)]] {
            for shard in written {
                t.cell(shard).charge_commit(true);
            }
            t.record_affinity(&written);
        }
        let snap = t.roll_window(1.0);
        assert_eq!(snap.load_of(ShardId(3)).commits, 1.0);
        assert_eq!(snap.load_of(ShardId(3)).cross, 0.0);
        assert_eq!(snap.load_of(ShardId(1)).cross, 2.0);
        // Pair order is normalized, so both commits land on one pair.
        assert_eq!(snap.affinity, vec![(ShardId(1), ShardId(2), 2)]);
    }

    #[test]
    fn affinity_is_per_window_not_cumulative() {
        let t = ShardLoadTracker::new();
        t.record_affinity(&[ShardId(1), ShardId(2)]);
        t.roll_window(1.0);
        let snap = t.roll_window(1.0);
        assert!(snap.affinity.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(1)).charge(10, 10);
        t.record_affinity(&[ShardId(1), ShardId(2)]);
        t.roll_window(1.0);
        t.cell(ShardId(1)).charge(10, 10);
        t.reset();
        let snap = t.roll_window(1.0);
        assert!(snap.shards.is_empty());
        assert!(snap.affinity.is_empty());
    }

    #[test]
    fn offloaded_reads_are_demand_but_not_owner_load() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(1)).charge(2, 1);
        t.cell(ShardId(1)).charge_offloaded(6);
        let snap = t.roll_window(1.0);
        let load = snap.load_of(ShardId(1));
        // The owner only did 2 reads + 1 write ...
        assert_eq!(load.total(), 3.0);
        // ... but the shard's read demand includes the replica-served 6.
        assert_eq!(load.read_demand(), 8.0);
        assert!((load.read_fraction() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn load_cells_ask_the_tracker_once_per_shard() {
        let t = ShardLoadTracker::new();
        let mut cells = LoadCells::default();
        for shard in [5, 2, 5, 9, 2] {
            cells.cell(&t, ShardId(shard)).charge(1, 0);
        }
        assert_eq!(cells.cells.len(), 3);
        let snap = t.roll_window(1.0);
        assert_eq!(snap.load_of(ShardId(5)).reads, 2.0);
        assert_eq!(snap.load_of(ShardId(9)).reads, 1.0);
        // The session's handle is the tracker's cell.
        cells.cell(&t, ShardId(2)).charge(0, 4);
        assert_eq!(t.roll_window(1.0).load_of(ShardId(2)).writes, 4.0);
    }

    #[test]
    fn read_fraction_of_idle_shard_is_zero() {
        assert_eq!(ShardLoad::default().read_fraction(), 0.0);
    }

    #[test]
    fn fully_offloaded_shard_still_rolls_into_the_window() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(4)).charge_offloaded(9);
        let snap = t.roll_window(1.0);
        assert_eq!(snap.load_of(ShardId(4)).offloaded, 9.0);
        assert_eq!(snap.load_of(ShardId(4)).total(), 0.0);
        assert_eq!(snap.load_of(ShardId(4)).read_fraction(), 1.0);
    }

    #[test]
    fn snapshot_does_not_advance_the_window() {
        let t = ShardLoadTracker::new();
        t.cell(ShardId(1)).charge(8, 0);
        assert!(t.snapshot().shards.is_empty(), "nothing published yet");
        t.roll_window(1.0);
        assert_eq!(t.snapshot().load_of(ShardId(1)).reads, 8.0);
        assert_eq!(t.snapshot().load_of(ShardId(1)).reads, 8.0);
    }
}
