//! Simulation configuration.
//!
//! One [`SimConfig`] is threaded through the cluster at construction time.
//! Defaults are tuned so the full figure harnesses run on a laptop in
//! seconds-to-minutes while keeping the *relative* costs from the paper's
//! testbed (10 Gbps network, NVMe SSD) intact — see DESIGN.md §1 for each
//! substitution.

use std::path::PathBuf;
use std::time::Duration;

/// Which durability backend each node's write-ahead log runs on.
///
/// The default is [`WalBackendKind::Memory`]: appends are "durable" the
/// moment they land in the in-memory log, restart loses everything, and
/// every existing test keeps its exact timing. [`WalBackendKind::File`]
/// adds the on-disk segment log (DESIGN.md §10): each node writes
/// length-prefixed, CRC-protected records under `dir/node-<id>/`, commits
/// wait on the group-commit flusher, and `Cluster::restart_node` can
/// rebuild the node from the segments it left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalBackendKind {
    /// In-memory only; a restart loses the log (the pre-durability model).
    Memory,
    /// File-backed segment log rooted at `dir` (one `node-<id>` subdirectory
    /// per node).
    File {
        /// Base directory for the cluster's WAL segments.
        dir: PathBuf,
    },
}

/// Write-ahead-log durability configuration, embedded in [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Durability backend; [`WalBackendKind::Memory`] by default.
    pub backend: WalBackendKind,
    /// Rotate to a new segment file once the current one holds at least this
    /// many payload bytes. Small values exercise rotation in tests.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// The in-memory default: no files, no fsyncs, restart loses the log.
    pub fn memory() -> Self {
        WalConfig {
            backend: WalBackendKind::Memory,
            segment_bytes: 4 * 1024 * 1024,
        }
    }

    /// A file-backed log rooted at `dir` with group commit on.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            backend: WalBackendKind::File { dir: dir.into() },
            ..WalConfig::memory()
        }
    }

    /// True when the backend persists across restarts.
    pub fn is_durable(&self) -> bool {
        matches!(self.backend, WalBackendKind::File { .. })
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        Self::memory()
    }
}

/// Transaction isolation level the cluster runs at.
///
/// [`IsolationLevel::SnapshotIsolation`] is the paper's model and the
/// default: every existing test, bench, and chaos scenario runs under it
/// unchanged. [`IsolationLevel::Serializable`] layers SSI (Cahill-style
/// serializable snapshot isolation, per Ports & Grittner) on top: each
/// node keeps a SIREAD lock table, transactions carry in/out
/// rw-antidependency flags, and a transaction whose commit would complete
/// a dangerous structure (two consecutive rw-edges through it) aborts
/// with [`crate::DbError::SsiAbort`]. See DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Plain snapshot isolation (the paper's model; admits write skew).
    #[default]
    SnapshotIsolation,
    /// Serializable snapshot isolation: SI plus SIREAD locks and
    /// dangerous-structure aborts.
    Serializable,
}

/// Worker-pool shape of the migration data plane.
///
/// One value is embedded in [`SimConfig`] and read by every engine:
/// snapshot copy splits each shard into `chunk_size`-key ranges processed
/// by `copy_workers` threads, catch-up replay fans disjoint transactions
/// out over `replay_workers` threads, and the propagation process drains
/// the WAL in `drain_batch`-record reads instead of one record at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Snapshot-copy worker threads per migration (chunks fan out over
    /// these; 1 reproduces the sequential copy byte for byte).
    pub copy_workers: usize,
    /// Parallel apply workers on the destination node (paper §4.1 uses 18).
    pub replay_workers: usize,
    /// Keys per snapshot-copy chunk. Each chunk carries its own copy-LSN
    /// watermark so replay can begin on finished chunks while others copy.
    pub chunk_size: u64,
    /// Maximum WAL records pulled per propagation drain.
    pub drain_batch: usize,
}

/// Foreground hot-path shape: storage-index striping, version-chain GC
/// cadence, and GTS lease size.
///
/// One value is embedded in [`SimConfig`]. `index_stripes` controls how many
/// lock stripes each versioned table's key index is split into;
/// `gc_interval` is the cadence at which the maintenance thread prunes
/// version-chain suffixes below the safe-ts watermark (zero disables GC);
/// `gts_lease` is how many timestamps a node takes from the central
/// sequencer per fetch.
///
/// `gts_lease > 1` keeps the oracle contract (per-node monotonicity,
/// global uniqueness, causality via `observe`) but gives up the *real-time*
/// recency the single-counter GTS provides for free: a snapshot taken on
/// one node may be older than a commit that already finished on another.
/// That is exactly the DTS trust model. [`SimConfig::instant`] and
/// [`HotPathConfig::sequential`] keep `gts_lease: 1`, and the chaos
/// checker's strict GTS mode assumes it; [`HotPathConfig::tuned`] leases 64,
/// and both the repo benchmark and `bench_foreground`'s optimised leg run
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPathConfig {
    /// Lock stripes per versioned-table key index: each stripe is one
    /// `RwLock` over its own slot table (1 = every key behind one lock).
    pub index_stripes: usize,
    /// Cadence of incremental version-chain GC in the maintenance thread.
    /// `Duration::ZERO` disables GC entirely.
    pub gc_interval: Duration,
    /// Timestamps leased from the central GTS sequencer per fetch. 1
    /// reproduces the unbatched oracle byte for byte.
    pub gts_lease: u64,
}

impl HotPathConfig {
    /// Today's behavior, byte for byte: one index stripe, no GC, unbatched
    /// timestamps. Baseline leg of the foreground bench and the equivalence
    /// tests.
    pub fn sequential() -> Self {
        HotPathConfig {
            index_stripes: 1,
            gc_interval: Duration::ZERO,
            gts_lease: 1,
        }
    }

    /// The optimized foreground path: striped index, frequent incremental
    /// GC, batched timestamp leases. Used by the optimized leg of
    /// `bench_foreground` and the dedicated concurrency suites.
    pub fn tuned() -> Self {
        HotPathConfig {
            index_stripes: 8,
            gc_interval: Duration::from_millis(2),
            gts_lease: 64,
        }
    }
}

/// Tunables of the elasticity autopilot (`remus-planner`).
///
/// One value parameterizes the whole loop: when the imbalance detector
/// trips, how migrations are costed and capped, how the foreground-latency
/// throttle behaves, and the RNG seed that makes a planning run replayable.
/// The planner is tick-driven and never reads the wall clock, so every
/// "window" here is one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Plan migrations when `max node load / mean node load` exceeds this.
    /// Use a huge value to disable the balancer and leave only co-location.
    pub imbalance_ratio: f64,
    /// Ticks a shard stays immune to re-migration after it moves.
    pub cooldown_ticks: u64,
    /// Maximum migrations emitted per planner tick.
    pub max_moves_per_tick: usize,
    /// Maximum in-flight migrations any single node may participate in
    /// (as source or destination) within one plan.
    pub node_concurrency: usize,
    /// EWMA weight of the newest load window (0..=1; 1 = no smoothing).
    pub ewma_alpha: f64,
    /// Estimated cost per live version in a candidate shard (stand-in for
    /// bytes to copy). Zero ignores version counts.
    pub cost_weight_versions: f64,
    /// Estimated cost per WAL record appended on the source node in the
    /// last window (stand-in for catch-up replay traffic). Zero ignores
    /// the WAL rate.
    pub cost_weight_wal: f64,
    /// Lion-style co-location: consider moves that reunite shard pairs
    /// frequently written by the same transaction, cutting `txn.2pc_hops`.
    pub colocation: bool,
    /// Foreground p99 budget: while the windowed commit p99 exceeds this,
    /// the autopilot pauses between migrations. `Duration::ZERO` disables
    /// the throttle.
    pub latency_budget: Duration,
    /// Retries per failed migration (capped backoff between attempts).
    pub max_retries: u32,
    /// Seed for the planner's tie-breaking RNG; two planners with equal
    /// seeds fed equal observations make identical decisions.
    pub seed: u64,
    /// Lion-style replicate-or-migrate: when a hot node's load is
    /// read-mostly, consider provisioning a WAL-shipped replica on a spare
    /// node instead of migrating shards off the hot node.
    pub replication: bool,
    /// Minimum read fraction (reads / (reads + writes), replica-served
    /// reads included) of the hot node's window before replication is
    /// priced at all; below it the balancer migrates as before.
    pub replica_read_ratio: f64,
    /// Estimated ongoing cost per WAL record shipped to a replica in one
    /// window (the replica applies *every* primary's stream, so this
    /// prices total write traffic). Zero ignores ship bandwidth.
    pub cost_weight_ship: f64,
}

impl PlannerConfig {
    /// General-purpose defaults: balance at 1.5x mean load, co-location
    /// on, one move per node per tick, moderate smoothing.
    pub fn balanced() -> Self {
        PlannerConfig {
            imbalance_ratio: 1.5,
            cooldown_ticks: 8,
            max_moves_per_tick: 4,
            node_concurrency: 1,
            ewma_alpha: 0.5,
            cost_weight_versions: 1.0,
            cost_weight_wal: 1.0,
            colocation: true,
            latency_budget: Duration::ZERO,
            max_retries: 3,
            seed: 0,
            replication: false,
            replica_read_ratio: 0.8,
            cost_weight_ship: 1.0,
        }
    }
}

/// Tunables for the simulated cluster and the migration engines.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// One-way latency added to every cross-node message (2PC rounds,
    /// propagation sends, pulls). The paper's 10 Gbps LAN gives RTTs in the
    /// tens-to-hundreds of microseconds.
    pub network_latency: Duration,
    /// Latency of one Squall chunk pull (paper: ~8 MB over the network plus
    /// destination write, "tens of milliseconds", §4.4.1).
    pub squall_pull_latency: Duration,
    /// Number of keys per Squall pull chunk (stands in for the 8 MB chunk).
    pub squall_chunk_keys: u64,
    /// Worker-pool shape of the migration data plane (copy/replay workers,
    /// chunk size, drain batch).
    pub parallelism: ParallelismConfig,
    /// Foreground hot-path shape (index stripes, GC cadence, GTS lease).
    pub hot_path: HotPathConfig,
    /// The migration enters the mode-change phase when the number of
    /// propagated-but-unapplied changes drops below this threshold
    /// (paper §3.4 "drops below a threshold").
    pub catchup_threshold: usize,
    /// Latency charged when reloading one batch of a per-transaction update
    /// cache queue that spilled to disk (paper §3.3).
    pub spill_reload_latency: Duration,
    /// Maximum simulated physical clock skew between nodes under DTS
    /// (paper §2.2: NTP/PTP-synchronized clocks; DTS tolerates skew).
    pub max_clock_skew: Duration,
    /// Simulated cost of copying one tuple during snapshot copy; models the
    /// streaming scan + network + install path.
    pub snapshot_copy_per_tuple: Duration,
    /// How long a transaction waits on a row lock or prepare-wait before the
    /// deadlock/timeout guard trips. Generous: only failure-injection tests
    /// should ever hit it.
    pub lock_wait_timeout: Duration,
    /// WAL durability backend (in-memory by default; file-backed segments
    /// with group commit when pointed at a directory).
    pub wal: WalConfig,
    /// Transaction isolation level. Snapshot isolation by default; the
    /// serializable mode is opt-in because SIREAD tracking costs memory
    /// and aborts transactions SI would admit.
    pub isolation: IsolationLevel,
}

impl SimConfig {
    /// A configuration with all simulated latencies set to zero: protocol
    /// logic only. Unit and property tests use this to stay fast and
    /// deterministic.
    pub fn instant() -> Self {
        SimConfig {
            network_latency: Duration::ZERO,
            squall_pull_latency: Duration::ZERO,
            squall_chunk_keys: 512,
            parallelism: ParallelismConfig {
                copy_workers: 4,
                replay_workers: 4,
                chunk_size: 128,
                drain_batch: 32,
            },
            hot_path: HotPathConfig {
                index_stripes: 8,
                gc_interval: Duration::ZERO,
                gts_lease: 1,
            },
            catchup_threshold: 64,
            spill_reload_latency: Duration::ZERO,
            max_clock_skew: Duration::ZERO,
            snapshot_copy_per_tuple: Duration::ZERO,
            lock_wait_timeout: Duration::from_secs(10),
            wal: WalConfig::memory(),
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_config_has_no_latency() {
        let c = SimConfig::instant();
        assert_eq!(c.network_latency, Duration::ZERO);
        assert_eq!(c.squall_pull_latency, Duration::ZERO);
    }

    #[test]
    fn sequential_hot_path_is_todays_behavior() {
        let h = HotPathConfig::sequential();
        assert_eq!(h.index_stripes, 1);
        assert_eq!(h.gc_interval, Duration::ZERO);
        assert_eq!(h.gts_lease, 1);
    }

    #[test]
    fn planner_presets_are_self_consistent() {
        let b = PlannerConfig::balanced();
        assert!(b.imbalance_ratio > 1.0);
        assert!(b.ewma_alpha > 0.0 && b.ewma_alpha <= 1.0);
        assert!(b.colocation);

        // Replication is opt-in: balanced() users keep migrate-only planning.
        assert!(!b.replication);
        assert!(b.replica_read_ratio > 0.5 && b.replica_read_ratio <= 1.0);
    }

    #[test]
    fn presets_keep_gc_and_leases_opt_in() {
        // GC cadence and GTS leases change timing-visible behavior (GC) or
        // the real-time recency model (leases), so the default config keeps
        // them off (`HotPathConfig::tuned` turns both on); only the
        // striping — semantically invisible — is on by default.
        let c = SimConfig::instant();
        assert_eq!(c.hot_path.gc_interval, Duration::ZERO);
        assert_eq!(c.hot_path.gts_lease, 1);
        assert!(c.hot_path.index_stripes >= 1);
    }

    #[test]
    fn wal_defaults_to_memory_in_every_preset() {
        // Durability is opt-in: existing tests and benches keep the exact
        // in-memory timing unless a config points the WAL at a directory.
        let c = SimConfig::instant();
        assert_eq!(c.wal.backend, WalBackendKind::Memory);
        assert!(!c.wal.is_durable());
        let file = WalConfig::file("/tmp/wal");
        assert!(file.is_durable());
        assert!(file.segment_bytes > 0);
    }

    #[test]
    fn isolation_defaults_to_snapshot_in_every_preset() {
        // Serializable mode is opt-in: SIREAD tracking and
        // dangerous-structure aborts change both memory use and which
        // transactions survive, so no preset may turn it on.
        assert_eq!(IsolationLevel::default(), IsolationLevel::SnapshotIsolation);
        assert_eq!(
            SimConfig::instant().isolation,
            IsolationLevel::SnapshotIsolation
        );
    }
}
