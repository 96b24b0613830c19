//! Benchmark scale presets.
//!
//! The paper runs on six 64-vCPU servers with 100 M tuples and 400–480
//! clients; the simulation runs wherever `cargo` does. Four presets trade
//! fidelity for wall time; all keep the paper's *structure* (six nodes,
//! shards per node, migrations per scenario, transaction mixes) and shrink
//! only the constants.

use std::time::Duration;

/// Nodes in the cluster of every preset-scaled run (paper: 6).
pub const NODES: usize = 6;

/// Dimensions for the scenario runners.
#[derive(Debug, Clone)]
pub struct Scale {
    /// YCSB shards in total (paper: 360; must be divisible by [`NODES`]).
    pub ycsb_shards: u32,
    /// YCSB tuples (paper: 100 M).
    pub ycsb_keys: u64,
    /// YCSB value bytes (paper: ~1 KB).
    pub value_len: usize,
    /// YCSB clients (paper: 400).
    pub clients: usize,
    /// Period of each figure-runner client's fixed-rate open-loop arrival
    /// schedule (stands in for the paper's client-server round trips).
    /// Non-zero: a zero period would be an infinitely dense schedule.
    pub think: Duration,
    /// Shards migrated together during consolidation (paper fig. 6: 2).
    pub consolidation_group: usize,
    /// Tuples per ingestion batch (paper: 1 M).
    pub batch_size: u64,
    /// Ingestion batches (paper: 10).
    pub batches: u64,
    /// Pause between ingestion batches, stretching the ingestion across
    /// the consolidation window as in Figure 6.
    pub batch_pause: Duration,
    /// How long the analytical transaction of hybrid B stays open.
    pub analytic_hold: Duration,
    /// Warm-up before the migration plan starts.
    pub warmup: Duration,
    /// Cool-down after everything finishes.
    pub cooldown: Duration,
    /// TPC-C warehouses (paper: 480).
    pub warehouses: u32,
    /// TPC-C clients (paper: one per warehouse).
    pub tpcc_clients: usize,
    /// Simulated per-tuple snapshot-copy cost. The paper's shards are
    /// hundreds of MB and take seconds to copy over a 10 Gbps link; the
    /// pacing keeps each migration's phases wide enough to observe.
    pub copy_per_tuple: Duration,
    /// Worker threads of the open-loop engine (bounded pool multiplexing
    /// the logical clients).
    pub workers: usize,
    /// Mean gap between one logical client's intended arrivals under the
    /// open-loop engine (Poisson pacing): offered load ≈ `clients /
    /// arrival_mean`.
    pub arrival_mean: Duration,
}

impl Scale {
    /// Smoke-test scale: seconds per scenario; the default scale's engine
    /// pool and consolidation group.
    pub fn quick() -> Scale {
        Scale {
            ycsb_shards: 36,
            ycsb_keys: 6_000,
            value_len: 32,
            clients: 6,
            think: Duration::from_micros(800),
            batch_size: 15_000,
            batches: 4,
            batch_pause: Duration::from_millis(150),
            analytic_hold: Duration::from_secs(2),
            warmup: Duration::from_secs(2),
            cooldown: Duration::from_secs(2),
            warehouses: 12,
            tpcc_clients: 6,
            copy_per_tuple: Duration::from_micros(400),
            ..Scale::default_scale()
        }
    }

    /// Default scale: tens of seconds per engine per scenario.
    pub fn default_scale() -> Scale {
        Scale {
            ycsb_shards: 120,
            ycsb_keys: 24_000,
            value_len: 64,
            clients: 10,
            think: Duration::from_micros(700),
            consolidation_group: 2,
            batch_size: 80_000,
            batches: 8,
            batch_pause: Duration::from_millis(250),
            analytic_hold: Duration::from_secs(4),
            warmup: Duration::from_secs(3),
            cooldown: Duration::from_secs(3),
            warehouses: 24,
            tpcc_clients: 10,
            copy_per_tuple: Duration::from_micros(800),
            workers: 4,
            arrival_mean: Duration::from_millis(5),
        }
    }

    /// Closest to the paper's dimensions that a laptop tolerates.
    pub fn full() -> Scale {
        Scale {
            ycsb_shards: 360,
            ycsb_keys: 100_000,
            value_len: 128,
            clients: 16,
            think: Duration::from_micros(600),
            consolidation_group: 2,
            batch_size: 150_000,
            batches: 10,
            batch_pause: Duration::from_millis(500),
            analytic_hold: Duration::from_secs(8),
            warmup: Duration::from_secs(5),
            cooldown: Duration::from_secs(5),
            warehouses: 48,
            tpcc_clients: 16,
            copy_per_tuple: Duration::from_micros(1000),
            workers: 6,
            arrival_mean: Duration::from_millis(4),
        }
    }

    /// The paper-class preset: ≥10 M tuples and ≥200 logical clients,
    /// sized for the open-loop engine (a bounded worker pool, not a thread
    /// per client). Bulk load is non-transactional and values are small,
    /// so the memory bill is the version chains, not the payloads; the
    /// offered load (`clients / arrival_mean` ≈ 2 k txn/s) is what a
    /// single-core host sustains while a live migration runs.
    pub fn paper() -> Scale {
        Scale {
            ycsb_shards: 600,
            ycsb_keys: 10_000_000,
            value_len: 16,
            clients: 240,
            consolidation_group: 24,
            batch_size: 200_000,
            warmup: Duration::from_secs(2),
            cooldown: Duration::from_secs(2),
            // Copy pacing off: at this size the real copy work *is* the
            // pacing.
            copy_per_tuple: Duration::ZERO,
            workers: 8,
            arrival_mean: Duration::from_millis(120),
            // The TPC-C side, the ingestion and the analytical hold are
            // the full preset's.
            ..Scale::full()
        }
    }

    /// The preset named `name` (`quick` / `default` / `full` / `paper`).
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::quick()),
            "default" => Some(Scale::default_scale()),
            "full" => Some(Scale::full()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_keep_the_papers_structure() {
        for scale in [
            Scale::quick(),
            Scale::default_scale(),
            Scale::full(),
            Scale::paper(),
        ] {
            assert_eq!(
                scale.ycsb_shards % NODES as u32,
                0,
                "shards divide evenly across nodes"
            );
            assert!(scale.ycsb_shards / NODES as u32 >= 2 * scale.consolidation_group as u32);
            assert!(scale.batches > 0 && scale.batch_size > 0);
            assert!(!scale.think.is_zero(), "think is a schedule period");
        }
    }

    #[test]
    fn scales_order_by_size() {
        let (q, d, f) = (Scale::quick(), Scale::default_scale(), Scale::full());
        assert!(q.ycsb_keys < d.ycsb_keys && d.ycsb_keys < f.ycsb_keys);
        assert!(q.ycsb_shards < d.ycsb_shards && d.ycsb_shards < f.ycsb_shards);
        assert!(q.batch_size < d.batch_size && d.batch_size < f.batch_size);
    }

    #[test]
    fn paper_preset_meets_the_scale_gate_floor() {
        let p = Scale::paper();
        assert!(
            p.ycsb_keys >= 10_000_000,
            "the scale gate promises ≥10M keys"
        );
        assert!(p.clients >= 200, "≥200 logical clients");
        assert!(
            p.workers < p.clients,
            "paper scale multiplexes clients over a bounded pool"
        );
        assert!(!p.arrival_mean.is_zero());
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Scale::by_name("quick").unwrap().ycsb_keys, 6_000);
        assert_eq!(Scale::by_name("default").unwrap().ycsb_shards, 120);
        assert_eq!(Scale::by_name("full").unwrap().ycsb_shards, 360);
        assert_eq!(Scale::by_name("paper").unwrap().ycsb_keys, 10_000_000);
        assert!(Scale::by_name("warp").is_none());
    }
}
