//! A fault-injecting [`Network`] implementation.
//!
//! [`FaultyNetwork`] wraps the cluster's network cost model and perturbs
//! every cross-node hop with seeded per-link jitter plus transient
//! partitions. `Network::hop` is synchronous (it cannot drop or duplicate a
//! message — higher layers assume reliable delivery), so both jitter and
//! partitions are expressed as extra delay. Jitter still *reorders*
//! concurrently in-flight messages: two threads hopping the same link can
//! overtake each other inside the jitter window, which is exactly the
//! reordering chaos tests want.
//!
//! All randomness comes from a [`SmallRng`] seeded at construction; the hop
//! *sequence* per link is counted, so a partition is "hops 4..9 of link
//! (0,1) take +15 ms" — deterministic in the link's traffic ordinal, not in
//! wall-clock time.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_common::{time, NodeId};
use remus_txn::Network;

/// A transient one-directional link partition: hops `start..start+len` of
/// the link each pay `delay` extra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// First affected hop ordinal on the link (0-based).
    pub start: u64,
    /// Number of affected hops.
    pub len: u64,
    /// Extra delay per affected hop.
    pub delay: Duration,
}

/// Seeded jitter + transient partitions over an inner network.
pub struct FaultyNetwork {
    inner: Box<dyn Network>,
    max_jitter_us: u64,
    partitions: Vec<Partition>,
    state: Mutex<NetState>,
}

struct NetState {
    rng: SmallRng,
    hop_counts: HashMap<(NodeId, NodeId), u64>,
}

impl FaultyNetwork {
    /// Wraps `inner` with explicit jitter bound and partitions.
    pub fn new(
        inner: Box<dyn Network>,
        seed: u64,
        max_jitter: Duration,
        partitions: Vec<Partition>,
    ) -> FaultyNetwork {
        FaultyNetwork {
            inner,
            max_jitter_us: max_jitter.as_micros() as u64,
            partitions,
            state: Mutex::new(NetState {
                rng: SmallRng::seed_from_u64(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0x7e7),
                hop_counts: HashMap::new(),
            }),
        }
    }

    /// Derives a network from a seed: up to 500 µs of per-hop jitter and
    /// 0..3 transient partitions of 5–20 ms over the first ~40 hops of
    /// random links among `nodes`. Delays are bounded well below the
    /// cluster's lock-wait timeout so they perturb interleavings without
    /// tripping timeout guards.
    pub fn from_seed(seed: u64, nodes: u32) -> FaultyNetwork {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0xca0);
        let mut partitions = Vec::new();
        for _ in 0..rng.gen_range(0..3usize) {
            let from = NodeId(rng.gen_range(0..nodes));
            let mut to = NodeId(rng.gen_range(0..nodes));
            if to == from {
                to = NodeId((to.0 + 1) % nodes);
            }
            partitions.push(Partition {
                from,
                to,
                start: rng.gen_range(0..40u64),
                len: rng.gen_range(1..6u64),
                delay: Duration::from_millis(rng.gen_range(5..20u64)),
            });
        }
        FaultyNetwork::new(
            Box::new(remus_txn::NoNetwork),
            seed,
            Duration::from_micros(500),
            partitions,
        )
    }

    /// The configured partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }
}

impl Network for FaultyNetwork {
    fn hop(&self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        let mut extra = Duration::ZERO;
        {
            let mut state = self.state.lock();
            let count = state.hop_counts.entry((from, to)).or_insert(0);
            let ordinal = *count;
            *count += 1;
            for p in &self.partitions {
                if p.from == from && p.to == to && ordinal >= p.start && ordinal < p.start + p.len {
                    extra += p.delay;
                }
            }
            if self.max_jitter_us > 0 {
                extra += Duration::from_micros(state.rng.gen_range(0..=self.max_jitter_us));
            }
        }
        time::charge(extra);
        self.inner.hop(from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_partitions() {
        let a = FaultyNetwork::from_seed(7, 3);
        let b = FaultyNetwork::from_seed(7, 3);
        assert_eq!(a.partitions(), b.partitions());
    }

    #[test]
    fn partitions_never_self_loop() {
        for seed in 0..60u64 {
            for p in FaultyNetwork::from_seed(seed, 3).partitions() {
                assert_ne!(p.from, p.to);
            }
        }
    }

    #[test]
    fn partition_window_delays_matching_hops() {
        let net = FaultyNetwork::new(
            Box::new(remus_txn::NoNetwork),
            1,
            Duration::ZERO,
            vec![Partition {
                from: NodeId(0),
                to: NodeId(1),
                start: 1,
                len: 1,
                delay: Duration::from_millis(15),
            }],
        );
        let t0 = std::time::Instant::now();
        net.hop(NodeId(0), NodeId(1)); // ordinal 0: free
        let fast = t0.elapsed();
        let t1 = std::time::Instant::now();
        net.hop(NodeId(0), NodeId(1)); // ordinal 1: partitioned
        let slow = t1.elapsed();
        assert!(fast < Duration::from_millis(10));
        assert!(slow >= Duration::from_millis(14));
        // Local hops are always free and do not advance link counters.
        let t2 = std::time::Instant::now();
        net.hop(NodeId(0), NodeId(0));
        assert!(t2.elapsed() < Duration::from_millis(5));
    }
}
