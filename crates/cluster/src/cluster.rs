//! The cluster: nodes, control plane services, and shared machinery.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use remus_clock::{Dts, Gts, OracleKind, TimestampOracle};
use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
use remus_common::metrics::{MetricSample, MetricsRegistry};
use remus_common::time::{self, Signal};
use remus_common::{DbError, DbResult, NodeId, ShardId, SimConfig, TableId, Timestamp};
use remus_shard::{install_owner, read_owner_at, ShardMapRow, TableLayout, SHARD_MAP_SHARD};
use remus_txn::{replay_node_wal, DelayNetwork, Network, ReplaySummary, ShardLockTable};

use crate::load::{ShardLoadSnapshot, ShardLoadTracker};
use crate::node::Node;
use crate::replica::{ReplicaHandle, ReplicaRegistry};

/// Pending chains visited per shard by each background
/// [`Cluster::gc_tick`]: far above what writers enqueue between two ticks,
/// and a bound on one tick after a long-pinned snapshot is released.
const GC_CHAINS_PER_TICK: usize = 4096;

/// WAL-truncation cadence of the maintenance thread.
const WAL_TRUNCATE_PERIOD: Duration = Duration::from_millis(50);

/// Which concurrency-control regime sessions run under.
///
/// `Mvcc` is PolarDB-PG's native SI. `ShardLock` layers H-store-style
/// partition locks on top (every statement takes a shard lock held to
/// transaction end) — the regime Squall is evaluated under (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Plain MVCC snapshot isolation.
    Mvcc,
    /// Shard locks on top of MVCC (for the Squall baseline).
    ShardLock,
}

/// One stripe of the [`SnapshotRegistry`], on cache lines of its own so
/// that two coordinators' begins never share one.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Stripe(Mutex<StripeState>);

#[derive(Debug, Default)]
struct StripeState {
    /// Registered snapshot timestamps, with how many registrations each.
    active: BTreeMap<u64, usize>,
    /// Session transactions in flight on this stripe.
    txns: u64,
}

/// Tracks active snapshots so vacuum can compute its horizon. Long-lived
/// entries (a snapshot-copy scan, an analytical query) hold the horizon
/// back — the version-chain growth Figure 10 measures.
///
/// Striped by who registers: one stripe per node for the transactions it
/// coordinates and the copies it sources, and a last one for
/// [`Cluster::pin_snapshot`]. A registration locks its one stripe; an
/// observer ([`SnapshotRegistry::oldest`], [`SnapshotRegistry::oldest_or`],
/// [`Cluster::active_txn_count`]) locks every stripe in index order and
/// holds them all, so it excludes every registration exactly as the one
/// mutex this replaces did.
///
/// A release notifies [`SnapshotRegistry::park_until`]'s one signal, which is
/// what the drains wait on (Remus's dual execution, wait-and-remaster's).
#[derive(Debug)]
pub struct SnapshotRegistry {
    stripes: Box<[Stripe]>,
    released: Signal,
}

impl SnapshotRegistry {
    fn new(nodes: usize) -> Self {
        SnapshotRegistry {
            stripes: (0..=nodes).map(|_| Stripe::default()).collect(),
            released: Signal::default(),
        }
    }

    fn pin_stripe(&self) -> usize {
        self.stripes.len() - 1
    }

    /// Acquires a timestamp from `f` and registers it on `stripe` in one
    /// critical section, so any observer sees every snapshot acquired
    /// before its read — the dual-execution drain relies on this to never
    /// miss a transaction that just took an old snapshot. `txn` also counts
    /// a session transaction in flight.
    fn register(&self, stripe: usize, txn: bool, f: impl FnOnce() -> Timestamp) -> Timestamp {
        let mut state = self.stripes[stripe].0.lock();
        let ts = f();
        *state.active.entry(ts.0).or_insert(0) += 1;
        state.txns += u64::from(txn);
        ts
    }

    fn unregister(&self, stripe: usize, txn: bool, ts: Timestamp) {
        let mut state = self.stripes[stripe].0.lock();
        if let Some(n) = state.active.get_mut(&ts.0) {
            *n -= 1;
            if *n == 0 {
                state.active.remove(&ts.0);
            }
        }
        state.txns -= u64::from(txn);
        // Changed under the stripe lock every observer takes, then told.
        drop(state);
        self.released.notify();
    }

    /// Parks until `cond` — an observation of this registry — holds,
    /// looking again at every release, or until `timeout` passes
    /// (`false`).
    pub fn park_until(&self, cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        self.released.park_until(cond, timeout)
    }

    /// Every stripe, locked in index order — the only order in which any
    /// thread holds more than one.
    fn lock_all(&self) -> Vec<MutexGuard<'_, StripeState>> {
        self.stripes.iter().map(|stripe| stripe.0.lock()).collect()
    }

    fn oldest_of(stripes: &[MutexGuard<'_, StripeState>]) -> Option<Timestamp> {
        let firsts = stripes.iter().filter_map(|s| s.active.keys().next());
        firsts.min().map(|&t| Timestamp(t))
    }

    /// The oldest active snapshot, if any.
    pub fn oldest(&self) -> Option<Timestamp> {
        Self::oldest_of(&self.lock_all())
    }

    /// The oldest active snapshot, or — with none active — `fallback()`
    /// read while every stripe is held, symmetric with how
    /// [`Cluster::acquire_snapshot`] registers: a snapshot is either
    /// registered before this call (and returned) or acquired after the
    /// fallback was read. Reading the fallback after releasing the stripes
    /// would let a begin *and* a later commit slip in between, and the
    /// result would pass a snapshot that is already active.
    pub fn oldest_or(&self, fallback: impl FnOnce() -> Timestamp) -> Timestamp {
        let stripes = self.lock_all();
        Self::oldest_of(&stripes).unwrap_or_else(fallback)
    }

    fn txn_count(&self) -> u64 {
        self.lock_all().iter().map(|s| s.txns).sum()
    }
}

/// One periodic duty of the maintenance thread, on an absolute deadline: a
/// duty that overruns delays the others once, it does not stretch their
/// period the way counting sleeps does.
struct Periodic {
    period: Duration,
    next: Instant,
}

impl Periodic {
    fn new(period: Duration, now: Instant) -> Self {
        Periodic {
            period,
            next: now + period,
        }
    }

    /// True when the duty is due at `now`; its next run is then one period
    /// from `now`, so a stall is not followed by a burst of catch-up runs.
    fn due(&mut self, now: Instant) -> bool {
        let due = now >= self.next;
        if due {
            self.next = now + self.period;
        }
        due
    }
}

/// RAII registration of a long-lived snapshot (a migration's copy, a
/// replica's cut).
pub struct SnapshotGuard {
    registry: Arc<SnapshotRegistry>,
    stripe: usize,
    ts: Timestamp,
}

impl SnapshotGuard {
    /// The registered snapshot timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.registry.unregister(self.stripe, false, self.ts);
    }
}

/// Blocks new transaction begins while suspended (wait-and-remaster's
/// ownership transfer suspends routing of newly arrived transactions).
#[derive(Debug, Default)]
pub struct RoutingGate {
    /// A copy of `suspended`, stored under its lock after it: a begin that
    /// finds it clear has nothing to wait for and takes no lock.
    armed: AtomicBool,
    suspended: Mutex<bool>,
    resumed: Condvar,
}

impl RoutingGate {
    /// Suspends new begins.
    pub fn suspend(&self) {
        let mut suspended = self.suspended.lock();
        *suspended = true;
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Resumes and wakes blocked begins.
    pub fn resume(&self) {
        let mut suspended = self.suspended.lock();
        *suspended = false;
        self.armed.store(false, Ordering::SeqCst);
        drop(suspended);
        self.resumed.notify_all();
    }

    /// Blocks while suspended.
    pub fn wait_admitted(&self) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        let mut suspended = self.suspended.lock();
        while *suspended {
            self.resumed.wait(&mut suspended);
        }
    }
}

/// Pre-access interposition used by pull-based migration: Squall installs a
/// hook that pulls missing chunks on demand on the destination and rejects
/// access to already-migrated chunks on the source (§2.3.2).
pub trait AccessHook: Send + Sync {
    /// Called before a statement touches `(shard, key)` on `node`. May
    /// block (performing an on-demand pull) or fail (the access must abort
    /// and be retried after re-routing).
    fn before_access(
        &self,
        node: NodeId,
        shard: ShardId,
        key: remus_storage::Key,
        write: bool,
        xid: remus_common::TxnId,
    ) -> DbResult<()>;

    /// Called before a full-shard scan on `node` (must make the entire
    /// shard available, e.g. by pulling every remaining chunk).
    fn before_scan(&self, node: NodeId, shard: ShardId, xid: remus_common::TxnId) -> DbResult<()> {
        let _ = (node, shard, xid);
        Ok(())
    }
}

/// The simulated cluster.
pub struct Cluster {
    nodes: Vec<Arc<Node>>,
    /// The timestamp oracle (control plane GTS, or per-node DTS clocks).
    pub oracle: Arc<dyn TimestampOracle>,
    /// Network cost model.
    pub net: Arc<dyn Network>,
    /// Simulation tunables.
    pub config: SimConfig,
    /// Concurrency-control regime for sessions.
    pub cc_mode: CcMode,
    /// Cluster-wide shard lock table (ShardLock mode and Squall pulls).
    pub shard_locks: ShardLockTable,
    /// Routing gate for wait-and-remaster.
    pub routing_gate: RoutingGate,
    /// Active snapshot registry for vacuum horizons.
    pub snapshots: Arc<SnapshotRegistry>,
    /// Cluster-wide metrics registry; every node's storage scope writes
    /// into it under a `node=<id>` label.
    pub metrics: MetricsRegistry,
    /// Per-shard load accounting for the elasticity autopilot.
    pub load: ShardLoadTracker,
    registered_tables: Mutex<Vec<TableLayout>>,
    /// The maintenance thread's stop request and the signal it parks on.
    maintenance_stop: Arc<(AtomicBool, Signal)>,
    /// Whether `access_hook` holds a hook, stored under its write lock after
    /// it: a statement that finds it clear takes no lock.
    access_hook_armed: AtomicBool,
    access_hook: parking_lot::RwLock<Option<Arc<dyn AccessHook>>>,
    fault_injector: parking_lot::RwLock<Option<Arc<dyn FaultInjector>>>,
    replicas: ReplicaRegistry,
    /// When set, session reads may be served by certified replicas whose
    /// watermark covers the transaction's snapshot.
    read_offload: AtomicBool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    nodes: usize,
    oracle: OracleKind,
    custom_oracle: Option<Arc<dyn TimestampOracle>>,
    custom_net: Option<Arc<dyn Network>>,
    config: SimConfig,
    cc_mode: CcMode,
}

impl ClusterBuilder {
    /// Starts a builder for `nodes` elastic nodes.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        ClusterBuilder {
            nodes,
            oracle: OracleKind::Dts,
            custom_oracle: None,
            custom_net: None,
            config: SimConfig::instant(),
            cc_mode: CcMode::Mvcc,
        }
    }

    /// Installs a caller-provided network cost model (e.g. the chaos
    /// harness's fault-injecting network), overriding the one derived from
    /// `SimConfig::network_latency`.
    pub fn network(mut self, net: Arc<dyn Network>) -> Self {
        self.custom_net = Some(net);
        self
    }

    /// Selects the timestamp scheme (default: DTS, as in the evaluation).
    pub fn oracle(mut self, kind: OracleKind) -> Self {
        self.oracle = kind;
        self
    }

    /// Installs a caller-provided oracle (e.g. a GTS wrapped with a
    /// simulated control-plane round trip for the oracle ablation).
    pub fn oracle_instance(mut self, oracle: Arc<dyn TimestampOracle>) -> Self {
        self.custom_oracle = Some(oracle);
        self
    }

    /// Sets the simulation config (default: [`SimConfig::instant`]).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides just the data-plane parallelism of the current config.
    pub fn parallelism(mut self, parallelism: remus_common::ParallelismConfig) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Overrides just the foreground hot-path knobs of the current config
    /// (index striping, GC cadence, GTS lease size).
    pub fn hot_path(mut self, hot_path: remus_common::HotPathConfig) -> Self {
        self.config.hot_path = hot_path;
        self
    }

    /// Selects the concurrency-control regime (default: MVCC).
    pub fn cc_mode(mut self, mode: CcMode) -> Self {
        self.cc_mode = mode;
        self
    }

    /// Overrides just the isolation level of the current config (default:
    /// snapshot isolation). [`remus_common::IsolationLevel::Serializable`]
    /// arms the per-node SSI lock tables.
    pub fn isolation(mut self, level: remus_common::IsolationLevel) -> Self {
        self.config.isolation = level;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Arc<Cluster> {
        let oracle: Arc<dyn TimestampOracle> = match self.custom_oracle {
            Some(o) => o,
            None => match self.oracle {
                OracleKind::Gts => {
                    Arc::new(Gts::leased(self.nodes, self.config.hot_path.gts_lease))
                }
                OracleKind::Dts => Arc::new(Dts::new(self.nodes, self.config.max_clock_skew)),
            },
        };
        let net: Arc<dyn Network> = match self.custom_net {
            Some(net) => net,
            None => Arc::new(DelayNetwork::new(self.config.network_latency)),
        };
        let metrics = MetricsRegistry::new();
        let nodes = (0..self.nodes)
            .map(|i| {
                Arc::new(Node::with_metrics(
                    NodeId(i as u32),
                    self.config.clone(),
                    &metrics,
                ))
            })
            .collect();
        Arc::new(Cluster {
            nodes,
            oracle,
            net,
            config: self.config,
            cc_mode: self.cc_mode,
            shard_locks: ShardLockTable::new(),
            routing_gate: RoutingGate::default(),
            snapshots: Arc::new(SnapshotRegistry::new(self.nodes)),
            metrics,
            load: ShardLoadTracker::new(),
            registered_tables: Mutex::new(Vec::new()),
            maintenance_stop: Arc::default(),
            access_hook_armed: AtomicBool::new(false),
            access_hook: parking_lot::RwLock::new(None),
            fault_injector: parking_lot::RwLock::new(None),
            replicas: ReplicaRegistry::default(),
            read_offload: AtomicBool::new(false),
        })
    }
}

impl Cluster {
    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Arc<Node> {
        &self.nodes[id.raw() as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ---- table creation ----

    /// Creates a sharded user table: allocates a consistent-hashing
    /// layout, creates each shard's table on its owner (chosen by
    /// `placement`), and installs the owner rows in every node's shard map
    /// replica.
    pub fn create_table(
        &self,
        table: TableId,
        base_shard: u64,
        shards: u32,
        placement: impl FnMut(u32) -> NodeId,
    ) -> TableLayout {
        self.create_table_with_layout(TableLayout::new(table, base_shard, shards), placement)
    }

    /// Creates a table from an explicit layout (e.g. TPC-C's direct
    /// one-warehouse-per-shard layouts).
    pub fn create_table_with_layout(
        &self,
        layout: TableLayout,
        mut placement: impl FnMut(u32) -> NodeId,
    ) -> TableLayout {
        for (i, shard) in layout.shard_ids().enumerate() {
            let owner = placement(i as u32);
            self.node(owner).storage.create_shard(shard);
            for node in &self.nodes {
                install_owner(&node.map_replica, shard, owner);
            }
        }
        self.registered_tables.lock().push(layout);
        layout
    }

    /// Layouts of every table created so far.
    pub fn tables(&self) -> Vec<TableLayout> {
        self.registered_tables.lock().clone()
    }

    /// Reads the owner of `shard` as of `ts` from `from`'s map replica
    /// (prepare-wait applies while `T_m` is in flight).
    pub fn owner_at(&self, from: &Node, shard: ShardId, ts: Timestamp) -> DbResult<ShardMapRow> {
        read_owner_at(
            &from.map_replica,
            &from.storage.clog,
            shard,
            ts,
            self.config.lock_wait_timeout,
        )?
        .ok_or_else(|| DbError::Internal(format!("{shard} missing from shard map")))
    }

    /// Reads the latest committed owner of `shard`.
    pub fn current_owner(&self, from: &Node, shard: ShardId) -> DbResult<ShardMapRow> {
        self.owner_at(from, shard, Timestamp::MAX)
    }

    /// Dumps a node's entire shard map replica at the latest snapshot,
    /// with per-row commit timestamps (cache refresh).
    pub fn map_rows(&self, from: &Node) -> DbResult<Vec<(ShardId, NodeId, Timestamp)>> {
        let mut rows = Vec::new();
        let tables = self.registered_tables.lock().clone();
        for layout in tables {
            for shard in layout.shard_ids() {
                let row = self.owner_at(from, shard, Timestamp::MAX)?;
                rows.push((shard, row.node, row.cts));
            }
        }
        Ok(rows)
    }

    // ---- crash restart ----

    /// Crash-restarts one node: drops its process-level state (MVCC
    /// tables, CLOG, active transactions, replication slots, gates,
    /// hooks), reopens its WAL from the durability backend, and rebuilds
    /// storage by replay. With the default in-memory WAL backend the node
    /// comes back empty; with [`remus_common::WalBackendKind::File`] it
    /// recovers every durable transaction (modulo a torn tail).
    ///
    /// Bootstrap state that never touches the WAL is re-seeded before
    /// replay: the frozen shard-map rows (copied from a healthy peer, or
    /// self-derived in a single-node cluster) and empty tables for every
    /// shard the map says this node owns — so an owned-but-empty shard
    /// does not come back as `NotOwner`. WAL-logged map updates (a
    /// migration's `T_m`) then replay *over* those frozen rows with their
    /// original commit timestamps.
    ///
    /// Propagation slots do not survive: a migration driven across the
    /// restart must re-register its reader, which
    /// [`remus_txn::NodeStorage::create_slot_at_oldest_active`] pins at the
    /// post-restart oldest-active LSN (the reopened tail, since the crash
    /// emptied the active registry).
    pub fn restart_node(&self, id: NodeId) -> DbResult<ReplaySummary> {
        let node = self.node(id);
        // Keeping the map-replica table preserves its Arc identity, which
        // `Node::map_replica` shares.
        node.storage.crash_reset(&[SHARD_MAP_SHARD])?;
        let peer = self.nodes.iter().find(|n| n.id() != id);
        let tables = self.registered_tables.lock().clone();
        for layout in &tables {
            for shard in layout.shard_ids() {
                let owner = match peer {
                    Some(peer) => self.owner_at(peer, shard, Timestamp::MAX)?.node,
                    // Single-node cluster: everything is ours.
                    None => id,
                };
                install_owner(&node.map_replica, shard, owner);
                if owner == id {
                    node.storage.create_shard(shard);
                }
            }
        }
        replay_node_wal(&node.storage)
    }

    // ---- active transaction accounting ----

    /// Number of client transactions currently in flight cluster-wide.
    pub fn active_txn_count(&self) -> u64 {
        self.snapshots.txn_count()
    }

    /// Blocks until every in-flight client transaction finished
    /// (wait-and-remaster's drain).
    pub fn wait_for_drain(&self, timeout: Duration) -> DbResult<()> {
        let drained = || self.active_txn_count() == 0;
        if !self.snapshots.park_until(drained, timeout) {
            return Err(DbError::Timeout("transaction drain"));
        }
        Ok(())
    }

    // ---- shard load accounting ----

    /// The last published per-shard load window (smoothed loads plus the
    /// window's cross-shard affinity pairs). Does not advance the window —
    /// see [`Cluster::roll_load_window`].
    pub fn shard_load_snapshot(&self) -> ShardLoadSnapshot {
        self.load.snapshot()
    }

    /// Closes the current load window: drains the raw per-shard counters
    /// into the EWMA with weight `alpha` and returns the new snapshot.
    /// The autopilot calls this once per tick.
    pub fn roll_load_window(&self, alpha: f64) -> ShardLoadSnapshot {
        self.load.roll_window(alpha)
    }

    /// Zeroes all load accounting (chaos planner mode isolates measured
    /// windows from fault-era traffic with this).
    pub fn reset_load(&self) {
        self.load.reset()
    }

    // ---- metrics ----

    /// Deterministic snapshot of every metric series in the cluster: the
    /// shared registry (per-node 2PC hops, WW aborts, queue spills, replay
    /// jobs, plus anything migration engines added) merged with the
    /// per-node CLOG prepare-wait block counts, sorted by `(name, labels)`.
    pub fn metrics_snapshot(&self) -> Vec<MetricSample> {
        let mut out = self.metrics.snapshot();
        for node in &self.nodes {
            let labels = vec![("node".to_string(), node.id().raw().to_string())];
            out.push(MetricSample {
                name: "storage.prepare_wait_blocks".to_string(),
                labels: labels.clone(),
                kind: "counter",
                value: node.storage.clog.prepare_wait_blocks(),
                latency: None,
            });
            let wal = &node.storage.wal;
            for (name, value) in [
                ("wal.appends", wal.appends()),
                ("wal.fsyncs", wal.fsyncs()),
                ("wal.recovered_torn_tail", wal.recovered_torn_tail()),
            ] {
                out.push(MetricSample {
                    name: name.to_string(),
                    labels: labels.clone(),
                    kind: "counter",
                    value,
                    latency: None,
                });
            }
        }
        if let Some(rpcs) = self.oracle.sequencer_rpcs() {
            out.push(MetricSample {
                name: "clock.gts_rpcs".to_string(),
                labels: Vec::new(),
                kind: "counter",
                value: rpcs,
                latency: None,
            });
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    // ---- access hook ----

    /// Installs the pull-migration access hook.
    pub fn install_access_hook(&self, hook: Arc<dyn AccessHook>) {
        let mut installed = self.access_hook.write();
        *installed = Some(hook);
        self.access_hook_armed.store(true, Ordering::SeqCst);
    }

    /// Removes the access hook.
    pub fn uninstall_access_hook(&self) {
        let mut installed = self.access_hook.write();
        *installed = None;
        self.access_hook_armed.store(false, Ordering::SeqCst);
    }

    /// The installed access hook, if any.
    pub fn access_hook(&self) -> Option<Arc<dyn AccessHook>> {
        if !self.access_hook_armed.load(Ordering::SeqCst) {
            return None;
        }
        self.access_hook.read().clone()
    }

    // ---- fault injection ----

    /// Installs a fault injector consulted at every migration-pipeline
    /// injection point (chaos tests).
    pub fn install_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        *self.fault_injector.write() = Some(injector);
    }

    /// Removes the fault injector.
    pub fn uninstall_fault_injector(&self) {
        *self.fault_injector.write() = None;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<dyn FaultInjector>> {
        self.fault_injector.read().clone()
    }

    /// The one seam helper: decides the fault action for one visit of
    /// `point` on `node` and serves a `Delay` where it is decided. What
    /// comes back is [`FaultAction::Continue`] (no injector, no fault, or
    /// the delay already slept), `Fail` or `Crash` — and what those two
    /// mean is the seam's business (see [`InjectionPoint`]).
    pub fn fault_at(&self, point: InjectionPoint, node: NodeId) -> FaultAction {
        // Decided in a statement of its own: the sleep must not hold the
        // injector lock against `install_fault_injector`.
        let action = match &*self.fault_injector.read() {
            Some(injector) => injector.decide(point, node),
            None => FaultAction::Continue,
        };
        match action {
            FaultAction::Delay(d) => {
                time::charge(d);
                FaultAction::Continue
            }
            decided => decided,
        }
    }

    // ---- replicas ----

    /// Registers `node` as a read replica, returning its watermark handle.
    /// Re-registering (a crash-restarted replica re-bootstrapping) replaces
    /// the old handle; sessions must reconnect.
    pub fn register_replica(&self, node: NodeId) -> Arc<ReplicaHandle> {
        self.replicas.register(node)
    }

    /// Removes `node` from the replica registry (decommission). The caller
    /// stops the replication process first; after this the node counts as a
    /// primary again and is eligible as a migration destination.
    pub fn unregister_replica(&self, node: NodeId) {
        if let Some(handle) = self.replicas.remove(node) {
            // Drop the GC-feedback watermark pin so the vacuum horizon is
            // no longer held back by a replica that stopped applying.
            handle.reset();
            // Drop the applied table copies: the node returns to the pool
            // as an *empty* primary. Routing never pointed at it, so the
            // copies are unreachable to clients — but a load observer
            // enumerating hosted shards would otherwise mistake them for
            // owned data and plan phantom migrations off this node.
            let storage = &self.node(node).storage;
            for shard in storage.shards() {
                if shard != remus_shard::SHARD_MAP_SHARD {
                    storage.drop_shard(shard);
                }
            }
        }
    }

    /// The watermark handle of a registered replica.
    pub fn replica(&self, node: NodeId) -> Option<Arc<ReplicaHandle>> {
        self.replicas.get(node)
    }

    /// Enables or disables transparent watermark-safe read offload in
    /// [`crate::Session`] transactions (set by the autopilot executor when
    /// replicas are provisioned or torn down).
    pub fn set_read_offload(&self, on: bool) {
        self.read_offload.store(on, Ordering::Relaxed);
    }

    /// True when session reads may be served by certified replicas.
    pub fn read_offload_enabled(&self) -> bool {
        self.read_offload.load(Ordering::Relaxed)
    }

    /// True if `node` is registered as a replica.
    pub fn is_replica(&self, node: NodeId) -> bool {
        self.replicas.contains(node)
    }

    /// Ids of all registered replicas, sorted.
    pub fn replica_ids(&self) -> Vec<NodeId> {
        self.replicas.ids()
    }

    /// Ids of all nodes *not* registered as replicas, sorted — the nodes a
    /// replication process ships WAL from.
    pub fn primary_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .map(|n| n.id())
            .filter(|id| !self.replicas.contains(*id))
            .collect()
    }

    // ---- snapshots & vacuum ----

    /// Registers a long-lived snapshot (RAII) on the pin stripe.
    pub fn pin_snapshot(&self, ts: Timestamp) -> SnapshotGuard {
        let stripe = self.snapshots.pin_stripe();
        self.snapshots.register(stripe, false, || ts);
        self.guard(stripe, ts)
    }

    /// Atomically acquires a start timestamp for a snapshot on `node` and
    /// pins it on `node`'s stripe: once this returns, the snapshot is
    /// visible to [`SnapshotRegistry::oldest`]. Never call the oracle and
    /// pin separately.
    pub fn acquire_snapshot(&self, node: NodeId) -> (Timestamp, SnapshotGuard) {
        let stripe = node.raw() as usize;
        let ts = self
            .snapshots
            .register(stripe, false, || self.oracle.start_ts(node));
        (ts, self.guard(stripe, ts))
    }

    fn guard(&self, stripe: usize, ts: Timestamp) -> SnapshotGuard {
        SnapshotGuard {
            registry: Arc::clone(&self.snapshots),
            stripe,
            ts,
        }
    }

    /// [`Cluster::acquire_snapshot`] for a session transaction coordinated
    /// by `node`, counted in flight and without a guard:
    /// [`Cluster::end_txn`], called once from the transaction's one exit,
    /// releases it.
    pub(crate) fn begin_txn(&self, node: NodeId) -> Timestamp {
        self.snapshots
            .register(node.raw() as usize, true, || self.oracle.start_ts(node))
    }

    /// Releases what [`Cluster::begin_txn`] registered for `node`.
    pub(crate) fn end_txn(&self, node: NodeId, start_ts: Timestamp) {
        self.snapshots
            .unregister(node.raw() as usize, true, start_ts);
    }

    /// The timestamp below which no active *or future* snapshot can read:
    /// the oldest pinned snapshot (client sessions *and* in-flight
    /// migrations, which pin their copy snapshot), or the current clock when
    /// nothing is pinned — clamped to the oracle's
    /// [`min_unissued`](TimestampOracle::min_unissued) floor. The clamp is
    /// what makes GC sound under batched timestamps: with `gts_lease > 1` a
    /// node holding a stale lease block (or, under DTS, a skew-lagged clock)
    /// can still *start* a snapshot below any already-issued timestamp, so
    /// the watermark must not pass the lowest timestamp the oracle can still
    /// hand out. Version-chain GC may discard any version shadowed as of
    /// this watermark.
    ///
    /// Order matters. The floor is read first: a snapshot acquired after
    /// that read is at or above it, and one acquired before it is already
    /// registered when the registry is read. The clock fallback is read
    /// while every registry stripe is held
    /// ([`SnapshotRegistry::oldest_or`]) for the same reason.
    pub fn safe_ts_watermark(&self) -> Timestamp {
        let floor = self.oracle.min_unissued();
        let base = self
            .snapshots
            .oldest_or(|| self.oracle.start_ts(self.nodes[0].storage.id));
        floor.map_or(base, |floor| base.min(floor))
    }

    /// One vacuum pass over every data shard: [`Cluster::gc_tick`] without
    /// a budget. Returns versions freed.
    pub fn vacuum_tick(&self) -> usize {
        self.gc_tick(usize::MAX) as usize
    }

    /// One version-chain GC pass: visits at most `max_chains_per_shard` of
    /// each data shard's pending chains — the ones a writer left with
    /// something to prune — and prunes versions shadowed as of
    /// [`Cluster::safe_ts_watermark`]; a shard nobody wrote costs a lock
    /// per index stripe. Emits `storage.gc_pruned` (counter) and
    /// `storage.chain_len` (high-water gauge of the longest chain met,
    /// before pruning it) per node. Returns versions pruned this pass.
    pub fn gc_tick(&self, max_chains_per_shard: usize) -> u64 {
        let watermark = self.safe_ts_watermark();
        let mut total = 0;
        for node in &self.nodes {
            // SSI rides the same watermark: SIREAD entries of committed
            // transactions are retained until no concurrent transaction can
            // still form an rw-edge against them, then dropped here.
            if let Some(ssi) = &node.storage.ssi {
                ssi.gc(watermark);
            }
            let mut stats = remus_storage::GcStepStats::default();
            for shard in node.data_shards() {
                if let Some(table) = node.storage.table(shard) {
                    let s = table.gc_step(watermark, &node.storage.clog, max_chains_per_shard);
                    stats.scanned += s.scanned;
                    stats.pruned += s.pruned;
                    stats.max_chain = stats.max_chain.max(s.max_chain);
                }
            }
            if stats.pruned > 0 {
                node.storage
                    .metrics
                    .counter("storage.gc_pruned")
                    .add(stats.pruned as u64);
            }
            if stats.scanned > 0 {
                node.storage
                    .metrics
                    .gauge("storage.chain_len")
                    .raise(stats.max_chain as u64);
            }
            total += stats.pruned as u64;
        }
        total
    }

    /// One WAL-truncation pass over every node (respects active
    /// transactions and replication slots). Returns retained records.
    pub fn wal_truncate_tick(&self) -> usize {
        let mut retained = 0;
        for node in &self.nodes {
            node.storage.truncate_wal_safely();
            retained += node.storage.wal.retained();
        }
        retained
    }

    /// Starts a background maintenance thread: WAL truncation every 50 ms
    /// (cheap, keeps the in-memory log bounded), a vacuum pass every
    /// `vacuum_period`, and — when `config.hot_path.gc_interval` is nonzero
    /// — a budgeted [`Cluster::gc_tick`] at that cadence, each on its own
    /// wall-clock deadline. Runs until [`Cluster::stop_maintenance`] is
    /// called or the cluster is dropped: the thread holds the cluster only
    /// while a duty runs, and parks on the stop signal in between.
    pub fn start_maintenance(
        self: &Arc<Self>,
        vacuum_period: Duration,
    ) -> std::thread::JoinHandle<()> {
        let cluster = Arc::downgrade(self);
        let stop = Arc::clone(&self.maintenance_stop);
        let gc_interval = self.config.hot_path.gc_interval;
        std::thread::spawn(move || {
            let (stopped, signal) = &*stop;
            let requested = || stopped.load(Ordering::SeqCst);
            let start = Instant::now();
            let mut wal = Periodic::new(WAL_TRUNCATE_PERIOD, start);
            let mut gc = (!gc_interval.is_zero()).then(|| Periodic::new(gc_interval, start));
            let mut vacuum = Periodic::new(vacuum_period, start);
            while !requested() {
                let Some(cluster) = cluster.upgrade() else {
                    break;
                };
                let now = Instant::now();
                if wal.due(now) {
                    cluster.wal_truncate_tick();
                }
                if gc.as_mut().is_some_and(|gc| gc.due(now)) {
                    cluster.gc_tick(GC_CHAINS_PER_TICK);
                }
                if vacuum.due(now) {
                    cluster.vacuum_tick();
                }
                // If that was the last `Arc`, its `Drop` asks for the stop.
                drop(cluster);
                let wake = gc
                    .iter()
                    .fold(wal.next.min(vacuum.next), |w, gc| w.min(gc.next));
                signal.park_until(requested, wake.saturating_duration_since(Instant::now()));
            }
        })
    }

    /// Stops the background maintenance thread, waking it if it is parked.
    pub fn stop_maintenance(&self) {
        let (stopped, signal) = &*self.maintenance_stop;
        stopped.store(true, Ordering::SeqCst);
        signal.notify();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_maintenance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Arc<Cluster> {
        ClusterBuilder::new(n).build()
    }

    #[test]
    fn builder_creates_nodes_with_dts_by_default() {
        let c = cluster(3);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.oracle.kind(), OracleKind::Dts);
        assert_eq!(c.node(NodeId(2)).id(), NodeId(2));
    }

    #[test]
    fn gts_cluster() {
        let c = ClusterBuilder::new(2).oracle(OracleKind::Gts).build();
        assert_eq!(c.oracle.kind(), OracleKind::Gts);
    }

    #[test]
    fn create_table_places_shards_and_map_rows() {
        let c = cluster(3);
        let layout = c.create_table(TableId(1), 0, 6, |i| NodeId(i % 3));
        assert_eq!(layout.shard_count(), 6);
        // Shard 4 lives on node 1.
        assert!(c.node(NodeId(1)).storage.hosts(ShardId(4)));
        assert!(!c.node(NodeId(0)).storage.hosts(ShardId(4)));
        // Every node's map replica answers ownership queries.
        for node in c.nodes() {
            let row = c.current_owner(node, ShardId(4)).unwrap();
            assert_eq!(row.node, NodeId(1));
        }
        assert_eq!(c.map_rows(c.node(NodeId(0))).unwrap().len(), 6);
        assert_eq!(c.tables().len(), 1);
    }

    #[test]
    fn snapshot_registry_tracks_oldest() {
        let c = cluster(1);
        assert!(c.snapshots.oldest().is_none());
        let g1 = c.pin_snapshot(Timestamp(10));
        let g2 = c.pin_snapshot(Timestamp(5));
        assert_eq!(c.snapshots.oldest(), Some(Timestamp(5)));
        drop(g2);
        assert_eq!(c.snapshots.oldest(), Some(Timestamp(10)));
        drop(g1);
        assert!(c.snapshots.oldest().is_none());
    }

    #[test]
    fn duplicate_pins_unregister_once_each() {
        let c = cluster(1);
        let g1 = c.pin_snapshot(Timestamp(7));
        let g2 = c.pin_snapshot(Timestamp(7));
        drop(g1);
        assert_eq!(c.snapshots.oldest(), Some(Timestamp(7)));
        drop(g2);
        assert!(c.snapshots.oldest().is_none());
    }

    #[test]
    fn routing_gate_blocks_and_resumes() {
        let c = cluster(1);
        c.routing_gate.suspend();
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || {
            c2.routing_gate.wait_admitted();
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished());
        c.routing_gate.resume();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn fault_at_defaults_to_continue_and_respects_installed_injector() {
        /// Fails the copy and delays everything else.
        struct FailCopy;
        impl FaultInjector for FailCopy {
            fn decide(&self, p: InjectionPoint, _n: NodeId) -> FaultAction {
                if p == InjectionPoint::SnapshotCopy {
                    FaultAction::Fail
                } else {
                    FaultAction::Delay(Duration::from_millis(5))
                }
            }
        }
        let c = cluster(1);
        assert_eq!(
            c.fault_at(InjectionPoint::SnapshotCopy, NodeId(0)),
            FaultAction::Continue
        );
        c.install_fault_injector(Arc::new(FailCopy));
        assert!(c.fault_injector().is_some());
        assert_eq!(
            c.fault_at(InjectionPoint::SnapshotCopy, NodeId(0)),
            FaultAction::Fail
        );
        // A delay is slept here and comes back as `Continue`.
        let t0 = std::time::Instant::now();
        assert_eq!(
            c.fault_at(InjectionPoint::SyncBarrier, NodeId(0)),
            FaultAction::Continue
        );
        assert!(t0.elapsed() >= Duration::from_millis(5));
        c.uninstall_fault_injector();
        assert_eq!(
            c.fault_at(InjectionPoint::SnapshotCopy, NodeId(0)),
            FaultAction::Continue
        );
    }

    #[test]
    fn metrics_snapshot_merges_registry_and_clog_counters() {
        let c = cluster(2);
        c.node(NodeId(0)).storage.counters.twopc_hops.inc();
        let snap = c.metrics_snapshot();
        // CLOG prepare-wait blocks reported for every node, even at zero.
        let waits: Vec<_> = snap
            .iter()
            .filter(|s| s.name == "storage.prepare_wait_blocks")
            .collect();
        assert_eq!(waits.len(), 2);
        let hops = snap
            .iter()
            .find(|s| {
                s.name == "txn.2pc_hops" && s.labels == vec![("node".to_string(), "0".to_string())]
            })
            .expect("node 0 hop counter in snapshot");
        assert_eq!(hops.value, 1);
        // Deterministically sorted by (name, labels).
        let keys: Vec<_> = snap
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn gts_lease_flows_from_hot_path_config() {
        let mut config = SimConfig::instant();
        config.hot_path.gts_lease = 8;
        let c = ClusterBuilder::new(2)
            .oracle(OracleKind::Gts)
            .config(config)
            .build();
        // Two timestamps on one node, one block fetch: a lease is live.
        c.oracle.start_ts(NodeId(0));
        c.oracle.start_ts(NodeId(0));
        assert_eq!(c.oracle.sequencer_rpcs(), Some(1));
        // And the cluster surfaces the RPC counter as a metric.
        let snap = c.metrics_snapshot();
        let rpcs = snap
            .iter()
            .find(|s| s.name == "clock.gts_rpcs")
            .expect("clock.gts_rpcs sample for a GTS cluster");
        assert_eq!(rpcs.value, 1);
    }

    #[test]
    fn dts_cluster_reports_no_sequencer_metric() {
        let c = cluster(1);
        assert!(c
            .metrics_snapshot()
            .iter()
            .all(|s| s.name != "clock.gts_rpcs"));
    }

    #[test]
    fn safe_ts_watermark_is_bounded_by_pinned_snapshots() {
        let c = ClusterBuilder::new(1).oracle(OracleKind::Gts).build();
        // Nothing pinned: the watermark advances with the clock.
        let w1 = c.safe_ts_watermark();
        let w2 = c.safe_ts_watermark();
        assert!(w2 > w1);
        // A pinned snapshot (a migration copy, a long analytical query)
        // holds it exactly there.
        let guard = c.pin_snapshot(Timestamp(w2.0 + 1));
        assert_eq!(c.safe_ts_watermark(), Timestamp(w2.0 + 1));
        drop(guard);
        assert!(c.safe_ts_watermark() > w2);
    }

    /// Commits one write of `value` to `key` on node 0 and returns its
    /// commit timestamp.
    fn commit_write(c: &Cluster, shard: ShardId, key: u64, value: &str) -> Timestamp {
        let t = Duration::from_secs(1);
        let node = c.node(NodeId(0));
        let table = node.storage.table(shard).unwrap();
        let xid = node.storage.alloc_xid();
        let start = c.oracle.start_ts(NodeId(0));
        node.storage.clog.begin(xid);
        let value = remus_storage::Value::from(value.to_string().into_bytes());
        let exists = table
            .read(key, start, xid, &node.storage.clog, t)
            .unwrap()
            .is_some();
        if !exists {
            table
                .insert(key, value, xid, start, &node.storage.clog, t)
                .unwrap();
        } else {
            table
                .update(key, value, xid, start, &node.storage.clog, t)
                .unwrap();
        }
        let cts = c.oracle.commit_ts(NodeId(0));
        node.storage.clog.set_committed(xid, cts).unwrap();
        cts
    }

    #[test]
    fn gc_tick_prunes_shadowed_versions_and_reports_metrics() {
        let c = ClusterBuilder::new(1).oracle(OracleKind::Gts).build();
        c.create_table(TableId(1), 100, 1, |_| NodeId(0));
        // Four committed versions per key; only the newest survives GC.
        for v in 0..4u64 {
            for key in 0..16u64 {
                commit_write(&c, ShardId(100), key, &format!("v{v}"));
            }
        }
        let pruned = c.gc_tick(usize::MAX);
        assert_eq!(pruned, 16 * 3, "three shadowed versions per key");
        let snap = c.metrics_snapshot();
        let node0 = vec![("node".to_string(), "0".to_string())];
        let gc = snap
            .iter()
            .find(|s| s.name == "storage.gc_pruned" && s.labels == node0)
            .expect("gc_pruned counter");
        assert_eq!(gc.value, 48);
        let chain_len = snap
            .iter()
            .find(|s| s.name == "storage.chain_len" && s.labels == node0)
            .expect("chain_len gauge");
        assert_eq!(chain_len.value, 4, "high-water chain length before pruning");
        // A second pass finds nothing new.
        assert_eq!(c.gc_tick(usize::MAX), 0);
    }

    /// The guard against GC cost creeping back to O(keys): a loaded table
    /// nobody wrote has no pending chain, so a tick visits none — a count,
    /// not a timing.
    #[test]
    fn idle_gc_tick_visits_no_chain_of_a_loaded_table() {
        let c = ClusterBuilder::new(2)
            .oracle(OracleKind::Gts)
            .hot_path(remus_common::HotPathConfig::tuned())
            .build();
        let layout = c.create_table(TableId(1), 100, 4, |i| NodeId(i % 2));
        let value = remus_storage::Value::copy_from_slice(b"loaded");
        for key in 0..100_000u64 {
            let shard = layout.shard_for(key);
            let owner = c.node(NodeId(((shard.0 - layout.base) % 2) as u32));
            owner
                .storage
                .table(shard)
                .unwrap()
                .install_frozen(key, value.clone());
        }
        assert_eq!(c.gc_tick(usize::MAX), 0);
        assert_eq!(c.vacuum_tick(), 0);
        let watermark = c.safe_ts_watermark();
        let mut keys = 0;
        for node in c.nodes() {
            for shard in node.data_shards() {
                let table = node.storage.table(shard).unwrap();
                let step = table.gc_step(watermark, &node.storage.clog, usize::MAX);
                assert_eq!(step, remus_storage::GcStepStats::default());
                keys += table.stats().keys;
            }
        }
        assert_eq!(keys, 100_000);
        // `storage.chain_len` is raised only by a tick that visited a chain.
        assert!(c
            .metrics_snapshot()
            .iter()
            .all(|s| s.name != "storage.chain_len" || s.value == 0));
    }

    #[test]
    fn every_snapshot_name_is_layer_dot_noun_verb() {
        // GTS + Serializable emits the widest set of series.
        let c = ClusterBuilder::new(2)
            .oracle(OracleKind::Gts)
            .isolation(remus_common::IsolationLevel::Serializable)
            .build();
        c.create_table(TableId(1), 100, 1, |_| NodeId(0));
        commit_write(&c, ShardId(100), 1, "a");
        commit_write(&c, ShardId(100), 1, "b");
        assert_eq!(c.gc_tick(usize::MAX), 1);
        let snap = c.metrics_snapshot();
        for emitted in ["clock.gts_rpcs", "storage.gc_pruned", "txn.rw_edges"] {
            assert!(snap.iter().any(|s| s.name == emitted), "{emitted} missing");
        }
        // ^[a-z]+\.[a-z0-9_]+$
        for s in &snap {
            let well_formed = s.name.split_once('.').is_some_and(|(layer, rest)| {
                !layer.is_empty()
                    && layer.bytes().all(|b| b.is_ascii_lowercase())
                    && !rest.is_empty()
                    && rest
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            });
            assert!(well_formed, "series name {:?}", s.name);
        }
    }

    #[test]
    fn gc_tick_respects_pinned_snapshot_watermark() {
        let c = ClusterBuilder::new(1).oracle(OracleKind::Gts).build();
        c.create_table(TableId(1), 100, 1, |_| NodeId(0));
        let node = c.node(NodeId(0));
        let table = node.storage.table(ShardId(100)).unwrap();
        let commit_ts: Vec<Timestamp> = (0..3)
            .map(|v| commit_write(&c, ShardId(100), 7, &format!("v{v}")))
            .collect();
        // Pin a snapshot that can only see v0: GC must keep v0 as the
        // anchor, pruning nothing (v1 and v2 are above the watermark).
        let pin = c.pin_snapshot(commit_ts[0]);
        assert_eq!(c.gc_tick(usize::MAX), 0);
        let read = table
            .read(
                7,
                commit_ts[0],
                node.storage.alloc_xid(),
                &node.storage.clog,
                Duration::from_secs(1),
            )
            .unwrap()
            .expect("v0 visible at the pinned snapshot");
        assert_eq!(
            read,
            remus_storage::Value::from("v0".to_string().into_bytes())
        );
        drop(pin);
        // Unpinned, the two shadowed versions go.
        assert_eq!(c.gc_tick(usize::MAX), 2);
    }

    /// A GTS whose `start_ts` can be made slow, or made to run a one-shot
    /// hook before it answers — what a control-plane round trip gives the
    /// rest of the system time to do.
    #[derive(Default)]
    struct HookedGts {
        inner: Gts,
        delay: Mutex<Duration>,
        hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl TimestampOracle for HookedGts {
        fn start_ts(&self, node: NodeId) -> Timestamp {
            let hook = self.hook.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            std::thread::sleep(*self.delay.lock());
            self.inner.start_ts(node)
        }
        fn commit_ts(&self, node: NodeId) -> Timestamp {
            self.inner.commit_ts(node)
        }
        fn observe(&self, node: NodeId, ts: Timestamp) {
            self.inner.observe(node, ts)
        }
        fn kind(&self) -> OracleKind {
            OracleKind::Gts
        }
    }

    /// Red on the parent: `safe_ts_watermark` read the registry, released
    /// its lock, and only then read the clock. A begin and a conflicting
    /// commit inside that clock read gave a watermark above a registered
    /// snapshot, and GC pruned the version it reads. The second case begins
    /// on a node other than the one whose clock the fallback reads, so it
    /// registers on another stripe of the registry: the watermark must hold
    /// every stripe, not only the fallback node's.
    #[test]
    fn watermark_clock_read_cannot_be_overtaken_by_a_begin_and_a_commit() {
        for (nodes, racer_node) in [(1, NodeId(0)), (2, NodeId(1))] {
            let oracle = Arc::new(HookedGts::default());
            let c = ClusterBuilder::new(nodes)
                .oracle_instance(Arc::clone(&oracle) as Arc<dyn TimestampOracle>)
                .build();
            c.create_table(TableId(1), 100, 1, |_| NodeId(0));
            commit_write(&c, ShardId(100), 7, "v0");
            let (tx, rx) = std::sync::mpsc::channel();
            let racer = Arc::clone(&c);
            *oracle.hook.lock() = Some(Box::new(move || {
                let racing = std::thread::spawn(move || {
                    let snapshot = racer.acquire_snapshot(racer_node);
                    commit_write(&racer, ShardId(100), 7, "v1");
                    snapshot
                });
                // With the clock read while the registry is held the begin
                // blocks until the watermark is out: wait for the racer
                // only as long as it could need if nothing held it.
                let deadline = Instant::now() + Duration::from_millis(200);
                while !racing.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                tx.send(racing).unwrap();
            }));
            c.gc_tick(usize::MAX);
            let (ts, _pin) = rx.recv().unwrap().join().unwrap();
            let node = c.node(NodeId(0));
            let read = node
                .storage
                .table(ShardId(100))
                .unwrap()
                .read(
                    7,
                    ts,
                    node.storage.alloc_xid(),
                    &node.storage.clog,
                    Duration::from_secs(1),
                )
                .unwrap();
            assert_eq!(
                read,
                Some(remus_storage::Value::from("v0".to_string().into_bytes())),
                "{nodes} node(s), begin on {racer_node}: GC pruned the version a registered snapshot reads"
            );
        }
    }

    /// Red on the parent: every begin registered its snapshot under one
    /// cluster-wide mutex with the oracle read inside it, so a transaction
    /// on node 1 waited out node 0's timestamp fetch. Now node 0's begin
    /// holds node 0's stripe only.
    #[test]
    fn a_begin_holds_only_its_own_node() {
        let oracle = Arc::new(HookedGts::default());
        let c = ClusterBuilder::new(2)
            .oracle_instance(Arc::clone(&oracle) as Arc<dyn TimestampOracle>)
            .build();
        let layout = c.create_table(TableId(1), 0, 2, NodeId);
        let key = (0..64u64)
            .find(|&k| {
                c.current_owner(c.node(NodeId(1)), layout.shard_for(k))
                    .unwrap()
                    .node
                    == NodeId(1)
            })
            .expect("some key routed to node 1");
        let value = |s: &str| remus_storage::Value::copy_from_slice(s.as_bytes());
        let on_node1 = crate::Session::connect(&c, NodeId(1));
        on_node1
            .run(|t| t.insert(&layout, key, value("v0")))
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let other = Arc::clone(&c);
        *oracle.hook.lock() = Some(Box::new(move || {
            let racing = std::thread::spawn(move || {
                let session = crate::Session::connect(&other, NodeId(1));
                let mut txn = session.begin();
                txn.update(&layout, key, value("v1")).unwrap();
                let read = txn.read(&layout, key).unwrap();
                txn.commit().unwrap();
                read
            });
            let deadline = Instant::now() + Duration::from_secs(2);
            while !racing.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            tx.send((racing.is_finished(), racing)).unwrap();
        }));
        // The hook runs inside node 0's stripe and inside `start_ts`.
        let on_node0 = crate::Session::connect(&c, NodeId(0));
        let txn = on_node0.begin();
        let (finished, racing) = rx.recv().unwrap();
        assert_eq!(racing.join().unwrap(), Some(value("v1")));
        assert!(
            finished,
            "a transaction on node 1 waited for node 0's begin to fetch its timestamp"
        );
        txn.commit().unwrap();
        assert_eq!(c.active_txn_count(), 0);
    }

    #[test]
    fn oldest_or_reads_its_fallback_only_when_nothing_is_pinned() {
        let c = cluster(1);
        assert_eq!(c.snapshots.oldest_or(|| Timestamp(99)), Timestamp(99));
        let _pin = c.pin_snapshot(Timestamp(5));
        assert_eq!(
            c.snapshots
                .oldest_or(|| unreachable!("a snapshot is pinned")),
            Timestamp(5)
        );
    }

    /// The maintenance duties on a simulated clock: a 2 ms GC tick that
    /// takes 96 ms (the parent's sweep) must not stretch the 50 ms and
    /// 500 ms duties. Counting sleeps instead, as the parent did, runs the
    /// 50 ms duty every 25 x 98 ms: 4 times in these 10 s, not 100.
    #[test]
    fn periodic_duties_keep_their_period_when_one_overruns() {
        let ms = Duration::from_millis;
        let start = Instant::now();
        let mut wal = Periodic::new(ms(50), start);
        let mut gc = Periodic::new(ms(2), start);
        let mut vacuum = Periodic::new(ms(500), start);
        let (mut now, mut runs) = (start, [0u32; 3]);
        while now < start + ms(10_000) {
            let tick = now;
            runs[0] += wal.due(tick) as u32;
            if gc.due(tick) {
                runs[1] += 1;
                now += ms(96);
            }
            runs[2] += vacuum.due(tick) as u32;
            now = now.max(wal.next.min(gc.next).min(vacuum.next));
        }
        assert!((95..=105).contains(&runs[0]), "wal ran {} times", runs[0]);
        assert!((95..=105).contains(&runs[1]), "gc ran {} times", runs[1]);
        assert!((15..=20).contains(&runs[2]), "vacuum ran {} times", runs[2]);
        // A stall is followed by one run, not by a burst of catch-up runs.
        let mut p = Periodic::new(ms(50), start);
        assert!(!p.due(start + ms(49)));
        assert!(p.due(start + ms(5_000)));
        assert!(!p.due(start + ms(5_001)));
        assert!(p.due(start + ms(5_050)));
    }

    /// Red on the parent: with a GC tick slowed to 30 ms by its clock
    /// read, the sleep-counting loop reached its first "50 ms" WAL
    /// truncation after 25 x 32 ms.
    #[test]
    fn maintenance_truncates_the_wal_on_time_beside_a_slow_gc_tick() {
        let oracle = Arc::new(HookedGts::default());
        let c = ClusterBuilder::new(1)
            .oracle_instance(Arc::clone(&oracle) as Arc<dyn TimestampOracle>)
            .hot_path(remus_common::HotPathConfig::tuned())
            .build();
        let layout = c.create_table(TableId(1), 100, 1, |_| NodeId(0));
        let session = crate::Session::connect(&c, NodeId(0));
        for key in 0..8 {
            session
                .run(|t| t.insert(&layout, key, remus_storage::Value::copy_from_slice(b"x")))
                .unwrap();
        }
        let wal = &c.node(NodeId(0)).storage.wal;
        assert!(wal.retained() > 0);
        *oracle.delay.lock() = Duration::from_millis(30);
        let started = Instant::now();
        let handle = c.start_maintenance(Duration::from_secs(3600));
        while wal.retained() > 0 && started.elapsed() < Duration::from_millis(400) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let retained = wal.retained();
        c.stop_maintenance();
        handle.join().unwrap();
        assert_eq!(retained, 0, "no WAL truncation within 400 ms");
    }

    /// Red on the parent, which moved an `Arc` into the thread: a cluster
    /// under maintenance outlived its last handle, and the thread ran on.
    #[test]
    fn dropping_the_last_handle_drops_the_cluster_and_stops_maintenance() {
        let c = cluster(2);
        let handle = c.start_maintenance(Duration::from_secs(3600));
        let weak = Arc::downgrade(&c);
        drop(c);
        let dropped = Instant::now();
        while !handle.is_finished() && dropped.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            handle.is_finished(),
            "maintenance still running 1 s after the drop"
        );
        handle.join().unwrap();
        assert!(weak.upgrade().is_none(), "the cluster outlived its handles");
    }

    /// The REVIEW scenario: under `gts_lease > 1`, node 1 holds a stale
    /// lease block while node 0 commits far above it. An unclamped
    /// watermark (fresh node-0 timestamp) would prune the version a
    /// future node-1 snapshot — drawn from the stale block — must read.
    #[test]
    fn gc_watermark_bounded_by_outstanding_gts_leases() {
        let mut config = SimConfig::instant();
        config.hot_path.gts_lease = 64;
        let c = ClusterBuilder::new(2)
            .oracle(OracleKind::Gts)
            .config(config)
            .build();
        c.create_table(TableId(1), 100, 1, |_| NodeId(0));
        // v0 commits from node 0's first lease block.
        let cts0 = commit_write(&c, ShardId(100), 7, "v0");
        // Node 1 now leases its own block; it sits above node 0's current
        // block, and node 1 will keep issuing snapshots from it.
        let probe = c.oracle.start_ts(NodeId(1));
        assert!(probe > cts0);
        // Node 0 burns through its lease so v1 commits above node 1's
        // entire outstanding block.
        for _ in 0..64 {
            c.oracle.start_ts(NodeId(0));
        }
        let cts1 = commit_write(&c, ShardId(100), 7, "v1");
        assert!(cts1.0 > probe.0 + 64, "v1 must commit above node 1's block");
        // The watermark must stay below node 1's unissued remainder even
        // though nothing is pinned and node 0's clock is far ahead.
        assert!(c.safe_ts_watermark() <= Timestamp(probe.0 + 1));
        assert_eq!(
            c.gc_tick(usize::MAX),
            0,
            "v0 anchors node 1's outstanding lease; nothing is prunable"
        );
        // A transaction starting on node 1 gets a stale-but-legal snapshot
        // from the leased block and must still read v0.
        let (ts, guard) = c.acquire_snapshot(NodeId(1));
        assert!(ts < cts1, "snapshot drawn from the stale lease block");
        let node = c.node(NodeId(0));
        let table = node.storage.table(ShardId(100)).unwrap();
        let read = table
            .read(
                7,
                ts,
                node.storage.alloc_xid(),
                &node.storage.clog,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(
            read,
            Some(remus_storage::Value::from("v0".to_string().into_bytes())),
            "GC pruned the version a leased snapshot still needs"
        );
        // Once node 1's block drains, the floor lifts and GC reclaims v0.
        drop(guard);
        for _ in 0..64 {
            c.oracle.start_ts(NodeId(1));
        }
        assert_eq!(c.gc_tick(usize::MAX), 1, "floor lifted, v0 now shadowed");
    }

    #[test]
    fn wal_counters_reported_per_node() {
        let c = cluster(2);
        c.create_table(TableId(1), 0, 2, |i| NodeId(i % 2));
        let session = crate::Session::connect(&c, NodeId(0));
        let layout = c.tables()[0];
        let mut txn = session.begin();
        txn.insert(&layout, 1, remus_storage::Value::copy_from_slice(b"x"))
            .unwrap();
        txn.commit().unwrap();
        let snap = c.metrics_snapshot();
        for name in ["wal.appends", "wal.fsyncs", "wal.recovered_torn_tail"] {
            let samples: Vec<_> = snap.iter().filter(|s| s.name == name).collect();
            assert_eq!(samples.len(), 2, "{name} reported for every node");
        }
        let appends: u64 = snap
            .iter()
            .filter(|s| s.name == "wal.appends")
            .map(|s| s.value)
            .sum();
        assert!(appends >= 3, "begin + write + commit records logged");
        // In-memory backend: durability is free.
        assert!(snap
            .iter()
            .filter(|s| s.name == "wal.fsyncs")
            .all(|s| s.value == 0));
    }

    /// Helper: a 2-node cluster over a file-backed WAL rooted in a fresh
    /// tempdir the caller must remove.
    fn file_backed_cluster(tag: &str) -> (Arc<Cluster>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "remus-cluster-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut config = SimConfig::instant();
        config.wal = remus_common::WalConfig::file(&dir);
        let c = ClusterBuilder::new(2).config(config).build();
        (c, dir)
    }

    #[test]
    fn restart_node_recovers_committed_data_from_file_wal() {
        let (c, dir) = file_backed_cluster("restart");
        let layout = c.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        let session0 = crate::Session::connect(&c, NodeId(0));
        let val = |s: &str| remus_storage::Value::from(s.as_bytes().to_vec());
        let mut last_cts = Timestamp(0);
        for key in 0..8u64 {
            let mut txn = session0.begin();
            txn.insert(&layout, key, val(&format!("v{key}"))).unwrap();
            last_cts = last_cts.max(txn.commit().unwrap());
        }
        // A transaction left in flight at the crash must vanish.
        let mut orphan = session0.begin();
        orphan.insert(&layout, 100, val("never-committed")).unwrap();

        let summary = c.restart_node(NodeId(0)).unwrap();
        assert!(summary.committed >= 1, "replay found committed txns");
        drop(orphan); // client's abort after the crash is a no-op for state

        // Map rows re-seeded: ownership still resolves from node 0.
        let row = c.current_owner(c.node(NodeId(0)), ShardId(1)).unwrap();
        assert_eq!(row.node, NodeId(1));
        // Every committed row is back, readable through a fresh session.
        // The causal token matters: under the default hybrid clocks a fresh
        // session on another node may draw a snapshot a tick below the last
        // commit (the documented cross-session staleness allowance), which
        // would legitimately hide the newest rows.
        let session = crate::Session::connect(&c, NodeId(1));
        let mut txn = session.begin_after(last_cts);
        for key in 0..8u64 {
            assert_eq!(
                txn.read(&layout, key).unwrap(),
                Some(val(&format!("v{key}"))),
                "key {key} lost across restart"
            );
        }
        assert_eq!(txn.read(&layout, 100).unwrap(), None);
        txn.commit().unwrap();
        // Sessions hold the cluster alive; both must go before `c` so the
        // WAL flushers are drained and joined ahead of the removal (a live
        // flusher lazily creating the tail segment races remove_dir_all
        // into ENOTEMPTY).
        drop(session);
        drop(session0);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_node_with_memory_wal_comes_back_empty_but_routable() {
        let c = cluster(2);
        let layout = c.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        // Pick a key whose shard lives on the node we will restart.
        let key = (0..64u64)
            .find(|k| {
                let shard = layout.shard_for(*k);
                c.current_owner(c.node(NodeId(1)), shard).unwrap().node == NodeId(0)
            })
            .expect("some key routed to node 0");
        let session = crate::Session::connect(&c, NodeId(0));
        let mut txn = session.begin();
        txn.insert(&layout, key, remus_storage::Value::copy_from_slice(b"x"))
            .unwrap();
        txn.commit().unwrap();

        let summary = c.restart_node(NodeId(0)).unwrap();
        assert_eq!(summary.records, 0, "in-memory WAL lost everything");
        // Owned shards exist (empty), so routing yields NotFound, not
        // NotOwner.
        let mut txn = session.begin();
        assert_eq!(txn.read(&layout, key).unwrap(), None);
        txn.commit().unwrap();
    }

    #[test]
    fn drain_waits_for_active_txns() {
        let c = cluster(2);
        let on_node0 = crate::Session::connect(&c, NodeId(0));
        let on_node1 = crate::Session::connect(&c, NodeId(1));
        let first = on_node0.begin();
        let second = on_node1.begin();
        assert_eq!(c.active_txn_count(), 2);
        assert!(c.wait_for_drain(Duration::from_millis(20)).is_err());
        first.commit().unwrap();
        assert_eq!(c.active_txn_count(), 1);
        assert!(c.wait_for_drain(Duration::from_millis(20)).is_err());
        drop(second);
        assert!(c.wait_for_drain(Duration::from_millis(20)).is_ok());
        assert_eq!(c.snapshots.oldest(), None);
    }
}
