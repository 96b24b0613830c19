//! YCSB (paper §4.3).
//!
//! The paper's YCSB database is 100 M × 1 KB tuples in 360 shards over 6
//! nodes; transactions are multi-statement interactive (explicit
//! BEGIN/COMMIT wrapping each read/update), 50% reads / 50% updates,
//! uniform or skewed. We keep the access structure identical and scale the
//! constants (`YcsbConfig`).
//!
//! The Zipfian generator is the standard YCSB/Gray construction; the
//! skewed load-balancing scenario (§4.5) and the hot-shard contention
//! scenario (§4.8) both build on it.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use remus_cluster::{Cluster, SessionTxn};
use remus_common::{ClientId, DbResult, NodeId, TableId};
use remus_shard::TableLayout;
use remus_storage::{Key, Value};

use crate::driver::Workload;

/// Key-access distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the keyspace.
    Uniform,
    /// Zipfian with the given theta (YCSB default 0.99).
    Zipfian(f64),
    /// Uniform over a fixed key range (the §4.8 hot-tuple set).
    HotRange(u64, u64),
}

/// YCSB parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Table id to create.
    pub table: TableId,
    /// First shard id.
    pub base_shard: u64,
    /// Number of shards (paper: 360 over 6 nodes).
    pub shards: u32,
    /// Number of tuples (paper: 100 M; default here laptop-scale).
    pub keys: u64,
    /// Tuple payload size in bytes (paper: ~1 KB).
    pub value_len: usize,
    /// Fraction of reads (paper: 0.5).
    pub read_ratio: f64,
    /// Access distribution.
    pub distribution: KeyDistribution,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            table: TableId(1),
            base_shard: 0,
            shards: 36,
            keys: 100_000,
            value_len: 64,
            read_ratio: 0.5,
            distribution: KeyDistribution::Uniform,
        }
    }
}

/// Gray's Zipfian generator over `0..n` (most popular item is 0).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator for `n` items with skew `theta` in (0, 1).
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; integral approximation beyond, accurate to
        // well under a percent for the sizes we use.
        const EXACT: u64 = 10_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Samples an item rank in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// The YCSB workload.
pub struct Ycsb {
    /// Configuration used.
    pub config: YcsbConfig,
    /// The table layout (created by [`Ycsb::setup`]).
    pub layout: TableLayout,
    zipf: Option<Zipfian>,
}

impl Ycsb {
    /// Creates the YCSB table on the cluster (placement round-robin over
    /// nodes) and bulk-loads `config.keys` tuples directly into the owner
    /// shards (initial load, not part of the measured workload).
    pub fn setup(cluster: &Arc<Cluster>, config: YcsbConfig) -> Ycsb {
        let nodes = cluster.node_count() as u32;
        let layout = cluster.create_table(config.table, config.base_shard, config.shards, |i| {
            NodeId(i % nodes)
        });
        let value = Self::value_of(config.value_len, 0);
        for key in 0..config.keys {
            let shard = layout.shard_for(key);
            let owner = cluster
                .current_owner(cluster.node(NodeId(0)), shard)
                .expect("owner exists")
                .node;
            cluster
                .node(owner)
                .storage
                .table(shard)
                .expect("shard exists")
                .install_frozen(key, value.clone());
        }
        let zipf = match config.distribution {
            KeyDistribution::Zipfian(theta) => Some(Zipfian::new(config.keys, theta)),
            _ => None,
        };
        Ycsb {
            config,
            layout,
            zipf,
        }
    }

    /// Like [`Ycsb::setup`] with explicit shard placement.
    pub fn setup_with_placement(
        cluster: &Arc<Cluster>,
        config: YcsbConfig,
        placement: impl FnMut(u32) -> NodeId,
    ) -> Ycsb {
        let layout =
            cluster.create_table(config.table, config.base_shard, config.shards, placement);
        let value = Self::value_of(config.value_len, 0);
        for key in 0..config.keys {
            let shard = layout.shard_for(key);
            let owner = cluster
                .current_owner(cluster.node(NodeId(0)), shard)
                .expect("owner exists")
                .node;
            cluster
                .node(owner)
                .storage
                .table(shard)
                .expect("shard exists")
                .install_frozen(key, value.clone());
        }
        let zipf = match config.distribution {
            KeyDistribution::Zipfian(theta) => Some(Zipfian::new(config.keys, theta)),
            _ => None,
        };
        Ycsb {
            config,
            layout,
            zipf,
        }
    }

    /// A payload of the configured size, tagged with a version counter.
    pub fn value_of(len: usize, version: u64) -> Value {
        let mut buf = vec![0u8; len.max(8)];
        buf[..8].copy_from_slice(&version.to_le_bytes());
        Value::from(buf)
    }

    /// Samples a key according to the configured distribution.
    pub fn sample_key(&self, rng: &mut SmallRng) -> Key {
        match self.config.distribution {
            KeyDistribution::Uniform => rng.gen_range(0..self.config.keys),
            KeyDistribution::Zipfian(_) => {
                // Scramble the rank so popular keys spread over shards, as
                // YCSB's scrambled-zipfian does.
                let rank = self.zipf.as_ref().expect("zipfian built").sample(rng);

                remus_shard::key_hash(rank) % self.config.keys
            }
            KeyDistribution::HotRange(lo, hi) => rng.gen_range(lo..hi),
        }
    }

    /// Keys in `range` — used by the hot-shard scenario to find keys
    /// landing on one shard.
    pub fn keys_on_shard(&self, shard: remus_common::ShardId, limit: usize) -> Vec<Key> {
        (0..self.config.keys)
            .filter(|k| self.layout.shard_for(*k) == shard)
            .take(limit)
            .collect()
    }
}

impl Workload for Ycsb {
    fn run_once(
        &self,
        _client: ClientId,
        txn: &mut SessionTxn<'_>,
        rng: &mut SmallRng,
    ) -> DbResult<()> {
        let key = self.sample_key(rng);
        if rng.gen_bool(self.config.read_ratio) {
            txn.read(&self.layout, key)?;
        } else {
            let value = Self::value_of(self.config.value_len, rng.gen());
            txn.update(&self.layout, key, value)?;
        }
        Ok(())
    }
}

/// The §4.8 high-contention transaction: read one hot tuple, update
/// another, all within one hot key range.
pub struct HotSpot {
    /// The layout of the YCSB table.
    pub layout: TableLayout,
    /// The hot keys.
    pub keys: Arc<Vec<Key>>,
    /// Payload size.
    pub value_len: usize,
}

impl Workload for HotSpot {
    fn run_once(
        &self,
        _client: ClientId,
        txn: &mut SessionTxn<'_>,
        rng: &mut SmallRng,
    ) -> DbResult<()> {
        let read_key = self.keys[rng.gen_range(0..self.keys.len())];
        let write_key = self.keys[rng.gen_range(0..self.keys.len())];
        txn.read(&self.layout, read_key)?;
        txn.update(
            &self.layout,
            write_key,
            Ycsb::value_of(self.value_len, rng.gen()),
        )?;
        Ok(())
    }
}

/// One phase of the hotspot-shift scenario: a Zipfian-weighted hot key
/// set drawn from a *pair* of shards. Every transaction writes one key on
/// each shard of the pair, so the pair's placement decides whether the
/// commit takes the single-node fast path (co-resident) or a full
/// distributed 2PC (split) — the signal the elasticity autopilot's
/// co-location trigger feeds on.
#[derive(Debug, Clone)]
pub struct HotPhase {
    /// The two shards the phase's transactions span.
    pub shards: (remus_common::ShardId, remus_common::ShardId),
    /// Hot keys on `shards.0`, rank 0 hottest.
    pub a_keys: Arc<Vec<Key>>,
    /// Hot keys on `shards.1`, rank 0 hottest.
    pub b_keys: Arc<Vec<Key>>,
}

/// The hotspot-shift workload: Zipfian traffic over a two-shard hot pair
/// that *jumps* to a different pair after a configurable number of
/// transactions — the elasticity scenario where yesterday's perfect
/// placement becomes today's hotspot.
///
/// The phase boundary is a shared transaction counter, not wall-clock, so
/// a run of N transactions always shifts at the same point regardless of
/// machine speed.
pub struct HotspotShift {
    /// The layout of the YCSB table.
    pub layout: TableLayout,
    /// Phase 0 (before the shift) and phase 1 (after).
    pub phases: [HotPhase; 2],
    /// Payload size.
    pub value_len: usize,
    zipf: Zipfian,
    shift_after: u64,
    executed: std::sync::atomic::AtomicU64,
}

impl HotspotShift {
    /// Builds the scenario on an already-loaded [`Ycsb`] table: the hot
    /// pair is `phase0` for the first `shift_after` transactions and
    /// `phase1` afterwards, with `keys_per_shard` hot keys taken from each
    /// shard and Zipfian skew `theta` over their ranks.
    pub fn new(
        ycsb: &Ycsb,
        phase0: (remus_common::ShardId, remus_common::ShardId),
        phase1: (remus_common::ShardId, remus_common::ShardId),
        keys_per_shard: usize,
        theta: f64,
        shift_after: u64,
    ) -> HotspotShift {
        let phase = |pair: (remus_common::ShardId, remus_common::ShardId)| {
            let a_keys = Arc::new(ycsb.keys_on_shard(pair.0, keys_per_shard));
            let b_keys = Arc::new(ycsb.keys_on_shard(pair.1, keys_per_shard));
            assert!(
                a_keys.len() == keys_per_shard && b_keys.len() == keys_per_shard,
                "not enough keys on the hot pair {pair:?}"
            );
            HotPhase {
                shards: pair,
                a_keys,
                b_keys,
            }
        };
        HotspotShift {
            layout: ycsb.layout,
            phases: [phase(phase0), phase(phase1)],
            value_len: ycsb.config.value_len,
            zipf: Zipfian::new(keys_per_shard as u64, theta),
            shift_after,
            executed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The phase the *next* transaction will run in (0 or 1).
    pub fn phase(&self) -> usize {
        usize::from(self.executed.load(std::sync::atomic::Ordering::Relaxed) >= self.shift_after)
    }

    /// Transactions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Forces the phase boundary now (harnesses that separate the phases
    /// into distinct measured legs advance explicitly instead of counting
    /// on the transaction counter).
    pub fn advance(&self) {
        self.executed
            .fetch_max(self.shift_after, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Workload for HotspotShift {
    fn run_once(
        &self,
        _client: ClientId,
        txn: &mut SessionTxn<'_>,
        rng: &mut SmallRng,
    ) -> DbResult<()> {
        let seq = self
            .executed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let phase = &self.phases[usize::from(seq >= self.shift_after)];
        let a = phase.a_keys[self.zipf.sample(rng) as usize];
        let b = phase.b_keys[self.zipf.sample(rng) as usize];
        txn.read(&self.layout, a)?;
        txn.update(&self.layout, a, Ycsb::value_of(self.value_len, rng.gen()))?;
        txn.update(&self.layout, b, Ycsb::value_of(self.value_len, rng.gen()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use remus_cluster::{ClusterBuilder, Session};

    #[test]
    fn setup_loads_all_keys_across_nodes() {
        let cluster = ClusterBuilder::new(3).build();
        let ycsb = Ycsb::setup(
            &cluster,
            YcsbConfig {
                keys: 300,
                shards: 9,
                ..YcsbConfig::default()
            },
        );
        let session = Session::connect(&cluster, NodeId(1));
        let (rows, _) = session.run(|t| t.scan_table(&ycsb.layout)).unwrap();
        assert_eq!(rows.len(), 300);
        // Every node owns some shards.
        for node in cluster.nodes() {
            assert!(!node.data_shards().is_empty());
        }
    }

    #[test]
    fn workload_runs_reads_and_updates() {
        let cluster = ClusterBuilder::new(2).build();
        let ycsb = Arc::new(Ycsb::setup(
            &cluster,
            YcsbConfig {
                keys: 100,
                shards: 4,
                ..YcsbConfig::default()
            },
        ));
        let session = Session::connect(&cluster, NodeId(0));
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            session
                .run(|t| ycsb.run_once(ClientId(0), t, &mut rng))
                .unwrap();
        }
    }

    #[test]
    fn zipfian_is_skewed_and_bounded() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            let v = z.sample(&mut rng);
            assert!(v < 1000);
            counts[v as usize] += 1;
        }
        // Rank 0 must be far more popular than the median rank.
        assert!(counts[0] > 20 * counts[500].max(1));
        // And a meaningful share of all samples.
        assert!(counts[0] as f64 > 0.02 * 20_000.0);
    }

    #[test]
    fn zipfian_zeta_approximation_is_close() {
        // Compare approximate zeta against exact for n slightly above the
        // exact cutoff.
        let exact: f64 = (1..=12_000u64).map(|i| 1.0 / (i as f64).powf(0.99)).sum();
        let approx = Zipfian::zeta(12_000, 0.99);
        assert!((exact - approx).abs() / exact < 0.01, "{exact} vs {approx}");
    }

    #[test]
    fn hot_range_sampling_stays_in_range() {
        let cluster = ClusterBuilder::new(1).build();
        let ycsb = Ycsb::setup(
            &cluster,
            YcsbConfig {
                keys: 1000,
                shards: 2,
                distribution: KeyDistribution::HotRange(100, 200),
                ..YcsbConfig::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let k = ycsb.sample_key(&mut rng);
            assert!((100..200).contains(&k));
        }
    }

    #[test]
    fn keys_on_shard_all_map_back() {
        let cluster = ClusterBuilder::new(1).build();
        let ycsb = Ycsb::setup(
            &cluster,
            YcsbConfig {
                keys: 500,
                shards: 5,
                ..YcsbConfig::default()
            },
        );
        let shard = ycsb.layout.shard_ids().next().unwrap();
        let keys = ycsb.keys_on_shard(shard, 50);
        assert!(!keys.is_empty());
        for k in keys {
            assert_eq!(ycsb.layout.shard_for(k), shard);
        }
    }

    #[test]
    fn value_embeds_version() {
        let v = Ycsb::value_of(64, 0xDEAD);
        assert_eq!(v.len(), 64);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 0xDEAD);
    }

    use remus_common::ShardId;

    fn shift_fixture(cluster: &Arc<remus_cluster::Cluster>) -> HotspotShift {
        let ycsb = Ycsb::setup(
            cluster,
            YcsbConfig {
                keys: 2000,
                shards: 4,
                ..YcsbConfig::default()
            },
        );
        HotspotShift::new(
            &ycsb,
            (ShardId(0), ShardId(1)),
            (ShardId(2), ShardId(3)),
            16,
            0.9,
            10,
        )
    }

    #[test]
    fn hotspot_shift_jumps_pairs_at_the_txn_boundary() {
        let cluster = ClusterBuilder::new(1).build();
        let shift = shift_fixture(&cluster);
        let session = Session::connect(&cluster, NodeId(0));
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(shift.phase(), 0);
        // Each transaction writes exactly the current phase's shard pair;
        // the per-window write counters expose which pair that was.
        let mut run = || {
            cluster.roll_load_window(1.0); // discard earlier traffic
            session
                .run(|t| shift.run_once(ClientId(0), t, &mut rng))
                .unwrap();
            let window = cluster.roll_load_window(1.0);
            let mut shards: Vec<ShardId> = window
                .shards
                .iter()
                .filter(|(_, load)| load.writes > 0.0)
                .map(|(&s, _)| s)
                .collect();
            shards.sort_unstable();
            shards
        };
        for _ in 0..10 {
            assert_eq!(run(), vec![ShardId(0), ShardId(1)], "pre-shift pair");
        }
        assert_eq!(shift.phase(), 1);
        assert_eq!(shift.executed(), 10);
        for _ in 0..5 {
            assert_eq!(run(), vec![ShardId(2), ShardId(3)], "post-shift pair");
        }
    }

    #[test]
    fn hotspot_shift_advance_forces_the_boundary() {
        let cluster = ClusterBuilder::new(1).build();
        let shift = shift_fixture(&cluster);
        assert_eq!(shift.phase(), 0);
        shift.advance();
        assert_eq!(shift.phase(), 1);
    }

    #[test]
    fn hotspot_shift_feeds_the_affinity_tracker() {
        let cluster = ClusterBuilder::new(1).build();
        let shift = shift_fixture(&cluster);
        let session = Session::connect(&cluster, NodeId(0));
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..8 {
            session
                .run(|t| shift.run_once(ClientId(0), t, &mut rng))
                .unwrap();
        }
        let window = cluster.roll_load_window(1.0);
        let pair = window
            .affinity
            .iter()
            .find(|&&(a, b, _)| (a, b) == (ShardId(0), ShardId(1)))
            .expect("hot pair shows up in the affinity window");
        assert_eq!(pair.2, 8, "every transaction wrote both shards");
    }
}
