//! GTS — the centralized global timestamp sequencer (paper §2.2).
//!
//! Implemented in the control-plane node of PolarDB-PG; here a single
//! atomic counter shared by every node handle. With a lease of 1 every
//! request goes to the central counter, so all timestamps are globally
//! monotonically increasing, which yields linearizability across sessions.
//!
//! # Batched allocation (leases)
//!
//! With `lease > 1` each node takes a *block* of timestamps from the
//! sequencer per round trip and issues from it locally — the classic
//! sequencer-RPC amortization. The oracle contract still holds: blocks are
//! disjoint (uniqueness), a node's successive blocks come from a
//! nondecreasing central counter (per-node monotonicity), and [`observe`]
//! folds foreign timestamps into both the central counter and the node's
//! remaining block (causality: a commit timestamp issued after observing
//! `ts` exceeds `ts`). What a lease gives up is *cross-node real-time
//! recency*: a snapshot taken on one node may be older than a commit that
//! already finished on another node, because their blocks are disjoint.
//! That is exactly the DTS trust model. `HotPathConfig::gts_lease` picks the
//! lease: `SimConfig::instant()` keeps 1, `HotPathConfig::tuned()` leases 64
//! (the repo benchmark and `bench_foreground` run it), and the chaos
//! checker's strict GTS mode always runs with lease 1.
//!
//! Each node's block sits in a slot of its own, indexed by node id like
//! `Dts`'s clocks, so two coordinators issuing from their blocks share
//! nothing but the central counter, once per block.
//!
//! Because a node's unissued lease remainder sits *below* the central
//! counter, anything that reasons about "timestamps no future snapshot can
//! have" — the version-chain GC watermark — must clamp to
//! [`TimestampOracle::min_unissued`], the minimum `next` over live leases.
//!
//! [`observe`]: crate::TimestampOracle::observe

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use remus_common::{NodeId, Timestamp};

use crate::{OracleKind, TimestampOracle};

/// A node's current lease: timestamps `[next, hi)` remain issuable locally.
#[derive(Debug, Default)]
struct LeaseRange {
    next: u64,
    hi: u64,
}

/// One node's lease, on cache lines of its own so that two nodes issuing
/// from their blocks never share one.
#[repr(align(128))]
#[derive(Debug, Default)]
struct LeaseSlot(Mutex<LeaseRange>);

/// The centralized sequencer.
#[derive(Debug)]
pub struct Gts {
    /// The central counter (the sequencer service itself).
    next: AtomicU64,
    /// Timestamps handed out per sequencer round trip.
    lease: u64,
    /// Round trips to the sequencer (the RPC-equivalent cost).
    rpcs: AtomicU64,
    /// Each node's outstanding lease, indexed by node id (`lease > 1`
    /// only).
    leases: Box<[LeaseSlot]>,
}

impl Gts {
    /// A fresh sequencer with no batching: every timestamp is one round
    /// trip, reproducing the unbatched oracle byte for byte. Timestamps
    /// start above [`Timestamp::SNAPSHOT_MIN`] so the reserved minimal
    /// commit timestamp used for installed snapshots stays below every real
    /// timestamp.
    pub fn new() -> Self {
        Self::with_lease(1)
    }

    /// A sequencer serving one node, `NodeId(0)`, leasing `lease`
    /// timestamps per round trip — [`Gts::leased`] for a single node.
    pub fn with_lease(lease: u64) -> Self {
        Self::leased(1, lease)
    }

    /// A sequencer serving nodes `0..nodes`, each leasing `lease`
    /// timestamps per round trip (clamped to >= 1). Under a lease above 1,
    /// asking on behalf of a node outside that range panics, as [`Dts`]
    /// does.
    ///
    /// [`Dts`]: crate::Dts
    pub fn leased(nodes: usize, lease: u64) -> Self {
        Gts {
            next: AtomicU64::new(Timestamp::SNAPSHOT_MIN.0 + 1),
            lease: lease.max(1),
            rpcs: AtomicU64::new(0),
            leases: (0..nodes).map(|_| LeaseSlot::default()).collect(),
        }
    }

    /// Round trips made to the central sequencer so far. With lease 1 this
    /// equals the number of timestamps issued; with a lease of L it drops
    /// to roughly issued / L.
    pub fn sequencer_rpcs(&self) -> u64 {
        self.rpcs.load(Ordering::Relaxed)
    }

    fn node_lease(&self, node: NodeId) -> &Mutex<LeaseRange> {
        &self.leases[node.raw() as usize].0
    }

    fn fetch(&self, node: NodeId) -> Timestamp {
        if self.lease == 1 {
            self.rpcs.fetch_add(1, Ordering::Relaxed);
            return Timestamp(self.next.fetch_add(1, Ordering::SeqCst));
        }
        let mut range = self.node_lease(node).lock();
        if range.next >= range.hi {
            // Lease exhausted: one round trip buys the next block. The
            // central counter never moves backwards, so this block lies
            // above every timestamp previously returned to this node.
            let lo = self.next.fetch_add(self.lease, Ordering::SeqCst);
            self.rpcs.fetch_add(1, Ordering::Relaxed);
            range.next = lo;
            range.hi = lo + self.lease;
        }
        let ts = Timestamp(range.next);
        range.next += 1;
        ts
    }

    /// The lowest timestamp any node can still issue from an outstanding
    /// lease block. Blocks are carved off a monotonically increasing central
    /// counter, so every *future* block lies above all current ones; the
    /// only timestamps that can still come out below the counter are the
    /// unissued remainders `[next, hi)` of live leases. `None` with no live
    /// lease (or lease 1, where every issue hits the central counter).
    fn lease_floor(&self) -> Option<Timestamp> {
        if self.lease == 1 {
            return None;
        }
        self.leases
            .iter()
            .filter_map(|slot| {
                let range = slot.0.lock();
                (range.next < range.hi).then_some(Timestamp(range.next))
            })
            .min()
    }
}

impl Default for Gts {
    fn default() -> Self {
        Self::new()
    }
}

impl TimestampOracle for Gts {
    fn start_ts(&self, node: NodeId) -> Timestamp {
        self.fetch(node)
    }

    fn commit_ts(&self, node: NodeId) -> Timestamp {
        self.fetch(node)
    }

    fn observe(&self, node: NodeId, ts: Timestamp) {
        if self.lease == 1 {
            // Centralized sequencing already totally orders all events.
            return;
        }
        // Future blocks must exceed the observed timestamp...
        self.next.fetch_max(ts.0 + 1, Ordering::SeqCst);
        // ...and so must the rest of this node's current block. If the
        // block cannot (ts at/above its top), exhaust it so the next fetch
        // refills from the advanced central counter.
        let mut range = self.node_lease(node).lock();
        if range.next <= ts.0 {
            range.next = (ts.0 + 1).min(range.hi);
        }
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Gts
    }

    fn sequencer_rpcs(&self) -> Option<u64> {
        Some(self.rpcs.load(Ordering::Relaxed))
    }

    fn min_unissued(&self) -> Option<Timestamp> {
        self.lease_floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_strictly_increasing() {
        let gts = Gts::new();
        let a = gts.start_ts(NodeId(0));
        let b = gts.commit_ts(NodeId(1));
        let c = gts.start_ts(NodeId(2));
        assert!(a < b && b < c);
    }

    #[test]
    fn all_timestamps_exceed_snapshot_min() {
        let gts = Gts::new();
        assert!(gts.start_ts(NodeId(0)) > Timestamp::SNAPSHOT_MIN);
    }

    #[test]
    fn concurrent_requests_never_duplicate() {
        let gts = Arc::new(Gts::new());
        let handles: Vec<_> = (0..8)
            .map(|n| {
                let gts = Arc::clone(&gts);
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|_| gts.commit_ts(NodeId(n)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<Timestamp> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "GTS issued a duplicate timestamp");
    }

    #[test]
    fn kind_reports_gts() {
        assert_eq!(Gts::new().kind(), OracleKind::Gts);
    }

    #[test]
    fn unbatched_rpcs_equal_issued_timestamps() {
        let gts = Gts::new();
        for _ in 0..10 {
            gts.start_ts(NodeId(0));
        }
        assert_eq!(gts.sequencer_rpcs(), 10);
        // Observe is free under lease 1.
        gts.observe(NodeId(1), Timestamp(999));
        assert_eq!(gts.sequencer_rpcs(), 10);
    }

    #[test]
    fn leased_timestamps_are_per_node_monotone_and_amortize_rpcs() {
        let gts = Gts::with_lease(64);
        let mut last = Timestamp::SNAPSHOT_MIN;
        for _ in 0..1000 {
            let ts = gts.commit_ts(NodeId(0));
            assert!(ts > last, "per-node monotonicity");
            last = ts;
        }
        // 1000 timestamps from 64-blocks: 16 refills, not 1000 trips.
        assert_eq!(gts.sequencer_rpcs(), 1000_u64.div_ceil(64));
    }

    #[test]
    fn leased_blocks_are_disjoint_across_nodes() {
        let gts = Arc::new(Gts::leased(4, 16));
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let gts = Arc::clone(&gts);
                std::thread::spawn(move || {
                    (0..500)
                        .map(|_| gts.commit_ts(NodeId(n)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_node: Vec<Vec<Timestamp>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for issued in &per_node {
            assert!(issued.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<Timestamp> = per_node.into_iter().flatten().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "leased GTS issued a duplicate");
        assert!(gts.sequencer_rpcs() <= (n as u64 / 16) + 4);
    }

    #[test]
    fn unbatched_min_unissued_is_none() {
        let gts = Gts::new();
        gts.start_ts(NodeId(0));
        assert_eq!(gts.min_unissued(), None, "lease 1 is globally monotone");
    }

    #[test]
    fn min_unissued_tracks_lowest_outstanding_lease() {
        let gts = Gts::leased(3, 8);
        assert_eq!(gts.min_unissued(), None, "no lease outstanding yet");
        let a = gts.start_ts(NodeId(0)); // node 0 leases [a, a+8)
        let b = gts.start_ts(NodeId(1)); // node 1 leases [a+8, a+16)
        assert_eq!(b.0, a.0 + 8);
        // Node 0's remainder is the floor: its next issue is a.0 + 1.
        assert_eq!(gts.min_unissued(), Some(Timestamp(a.0 + 1)));
        assert_eq!(gts.start_ts(NodeId(0)), Timestamp(a.0 + 1));
        // Exhaust node 0's block; the floor moves up to node 1's remainder.
        for _ in 0..6 {
            gts.start_ts(NodeId(0));
        }
        assert_eq!(gts.min_unissued(), Some(Timestamp(b.0 + 1)));
        // Every timestamp issued from here on respects the floor just read.
        let floor = gts.min_unissued().unwrap();
        for n in 0..3 {
            for _ in 0..20 {
                assert!(gts.commit_ts(NodeId(n)) >= floor);
            }
        }
    }

    #[test]
    fn observe_establishes_causality_within_and_across_blocks() {
        let gts = Gts::leased(2, 32);
        let a = gts.commit_ts(NodeId(0)); // node 0 holds a low block
        let b = gts.commit_ts(NodeId(1)); // node 1 holds a higher block
        assert!(b > a);
        // Node 0 receives node 1's timestamp: its next issue must exceed it
        // even though its own block started lower.
        gts.observe(NodeId(0), b);
        assert!(gts.commit_ts(NodeId(0)) > b);
        // Far-future observation exhausts the block and refills above it.
        let far = Timestamp(1_000_000);
        gts.observe(NodeId(1), far);
        assert!(gts.commit_ts(NodeId(1)) > far);
    }
}
