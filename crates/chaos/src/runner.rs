//! The one scenario runner.
//!
//! [`run`] takes a [`Scenario`] through one lifecycle, each step written
//! once for every drive and profile:
//!
//! 1. **build** — oracle, per-node skewable clocks, seeded faulty network,
//!    cluster (`Lab::build`);
//! 2. **deploy** — the table, spread over the primaries; with a GC cadence,
//!    the cluster's own maintenance thread (version-chain GC and WAL
//!    truncation);
//! 3. **capture** — a `Recorder` that every transaction of the run goes
//!    through, starting with the preload;
//! 4. **execute** — the script of the drive: one of the four fixed-move
//!    profiles (`Lab::fixed_move`) or the planner's measure → plan →
//!    execute rounds (`Lab::planner_rounds`). Scripts differ in what is
//!    actually different about them; clients, recorded transactions, the
//!    migrate-and-note-what-landed step and replica scans are shared, and
//!    every planner decision is carried out by `remus_planner::Executor`;
//! 5. **evaluate** — SI (and serializability) over the history with one
//!    [`MigrationSpec`] per attempted migration, engine-side problems, and a
//!    final scan from the last primary against the history's model
//!    (`Lab::evaluate`);
//! 6. **cleanup** — the injector is uninstalled by the script that installed
//!    it, the maintenance thread stopped and joined, and the cluster dropped
//!    with the lab.
//!
//! Determinism contract: the fault *schedule* (plans + network partitions),
//! the planner's *decision list* and the *verdict* are reproducible from the
//! seed. Thread interleavings are not replayed bit-for-bit — they don't need
//! to be, because the checker accepts every SI-legal interleaving and
//! rejects every illegal one. The planner's input is seed-pure because the
//! measured batches run single-threaded between resets of the load
//! accounting, and read tallies are charged at statement execution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_clock::{
    Dts, Gts, OracleKind, PhysicalClock, SkewedPhysicalClock, TimestampOracle, WallClock,
};
use remus_cluster::{Cluster, ClusterBuilder, ReplicaSession, Session};
use remus_common::{
    DbError, IsolationLevel, NodeId, PlannerConfig, ShardId, SimConfig, TableId, Timestamp, TxnId,
    WalConfig,
};
use remus_core::diversion::run_tm;
use remus_core::recovery::{recover_migration, RecoveryDecision};
use remus_core::snapshot::copy_task_snapshots;
use remus_core::trace::check_traces;
use remus_core::{start_replica, MigrationTask, ReplicaProcess};
use remus_planner::{Action, Executed, Executor, Moved, ObservationCollector, Planner};
use remus_shard::TableLayout;
use remus_storage::Value;

use crate::checker::{
    check_final_state, check_history_multi, check_serializability, MigrationSpec, Violation,
};
use crate::history::{HistoryLog, MutKind, OpRead, OpWrite, TxnRecord};
use crate::net::FaultyNetwork;
use crate::plan::{FaultPlan, FaultProfile, FaultSpec, PlanInjector, REPLICA_NODE};
use crate::scenario::{Drive, Outcome, ReplicaProgress, Scenario};

// Sizes no matrix ever varied. A fourth node joins the three primaries when
// the drive has a replica or a spare in play; it is `REPLICA_NODE` either way.
const PRIMARIES: u32 = 3;
const KEYS: u64 = 48;
const CLIENTS: u32 = 3;
const TXNS_PER_CLIENT: u32 = 10;
/// The fixed move, over a 4-shard hashed table.
const SOURCE: NodeId = NodeId(0);
const DEST: NodeId = NodeId(1);
const SHARD: ShardId = ShardId(0);
/// The planner drive: a 6-shard direct table (key `k` lives on shard `k % 6`,
/// 8 keys a shard, 2 shards a node), four rounds, two writers of six
/// transactions racing each chosen action.
const PLANNER_SHARDS: u32 = 6;
const ROUNDS: u32 = 4;
const WRITERS: u32 = 2;
const TXNS_PER_WRITER: u32 = 6;
/// How many times a measured batch sweeps each shard of the hot node (cold
/// shards are swept once): hot-node load 80 vs. 16 per cold node — far past
/// the 1.2 imbalance trigger, and light enough that moving one hot shard
/// strictly improves the balance.
const HOT_SWEEPS: u32 = 5;

/// Runs the scenario with the fault plan(s) derived from its seed.
pub fn run(scenario: &Scenario) -> Outcome {
    run_lifecycle(scenario, None)
}

/// Runs a fixed-move scenario with `specs` in place of its plan's — what the
/// plan shrinker re-runs. The seed's plan still provides the clock spike and
/// the restart script (which node dies, at which stage); the outcome echoes
/// it with the specs that actually ran. The planner drive generates one plan
/// per decision, so there is no spec list to substitute and this panics.
pub fn run_with_specs(scenario: &Scenario, specs: &[FaultSpec]) -> Outcome {
    run_lifecycle(scenario, Some(specs))
}

fn run_lifecycle(scenario: &Scenario, specs: Option<&[FaultSpec]>) -> Outcome {
    let mut lab = Lab::build(scenario);
    // The product's maintenance thread, with the scenario's GC cadence (set
    // by `Lab::build`) and no vacuum pass: version-chain GC and WAL
    // truncation race the whole run. The safe-ts watermark must make them
    // invisible to the checker.
    let cluster = Arc::clone(&lab.rig.cluster);
    let maintenance = scenario
        .gc_interval
        .map(|_| cluster.start_maintenance(Duration::from_secs(3600)));
    let preload = (0..KEYS).map(|key| Stmt::write(MutKind::Insert, key, format!("init-{key}")));
    lab.rig
        .record_txn(
            &Session::connect(&lab.rig.cluster, SOURCE),
            0,
            preload.collect(),
        )
        .expect("preload commits");
    match scenario.drive {
        Drive::Fixed(profile) => lab.fixed_move(profile, specs),
        Drive::Planner { replicas } => {
            assert!(specs.is_none(), "planner plans are generated per decision");
            lab.planner_rounds(replicas);
        }
    }
    if let Some(thread) = maintenance {
        cluster.stop_maintenance();
        thread.join().expect("maintenance thread");
        let pruned = cluster.metrics_snapshot().into_iter();
        let pruned = pruned.filter(|s| s.name == "storage.gc_pruned");
        lab.out.gc_pruned = Some(pruned.map(|s| s.value).sum());
    }
    lab.evaluate()
}

/// One statement of a recorded transaction: a read of `key`, or a write.
struct Stmt {
    key: u64,
    write: Option<(MutKind, Value)>,
}

impl Stmt {
    fn read(key: u64) -> Stmt {
        Stmt { key, write: None }
    }

    /// An insert or update of `key` to `text`.
    fn write(kind: MutKind, key: u64, text: String) -> Stmt {
        let value = Value::copy_from_slice(text.as_bytes());
        Stmt {
            key,
            write: Some((kind, value)),
        }
    }
}

/// The history log plus the real-time sequence counter that brackets every
/// record. Everything the checker sees is written by [`Recorder::record`].
#[derive(Default)]
struct Recorder {
    log: HistoryLog,
    seq: AtomicU64,
}

impl Recorder {
    fn tick(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Appends one record, whose `begin_seq` was ticked before the
    /// transaction began; `commit_seq` is ticked here, after it committed.
    fn record(&self, mut rec: TxnRecord) {
        if rec.committed() {
            rec.commit_seq = self.tick();
        }
        self.log.record(rec);
    }
}

/// What a seeded client's transactions do.
#[derive(Clone, Copy)]
enum Mix {
    /// Read 1–2 keys and update 1–2 *other* keys (the fixed-move clients).
    ReadWrite,
    /// Update 1–2 keys (the writers racing a planner action).
    WriteOnly,
    /// Read 1–3 keys on the replica at its watermark.
    ReplicaRead,
}

/// What a client thread needs: the deployed cluster and the recorder.
#[derive(Clone)]
struct Rig {
    cluster: Arc<Cluster>,
    layout: TableLayout,
    recorder: Arc<Recorder>,
    seed: u64,
}

impl Rig {
    /// Runs `stmts` in order as one transaction of `session` and records the
    /// attempt — committed or aborted at the first failing statement.
    /// Returns its commit timestamp.
    fn record_txn(&self, session: &Session, client: u32, stmts: Vec<Stmt>) -> Option<Timestamp> {
        let begin_seq = self.recorder.tick();
        let mut txn = session.begin();
        let begin_ts = txn.begin_ts();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut failed = false;
        for Stmt { key, write } in stmts {
            // Statement snapshots are captured after the statement: shard-lock
            // mode refreshes the snapshot per statement.
            let done = match write {
                None => txn.read(&self.layout, key).map(|observed| {
                    let snap_ts = txn.start_ts();
                    reads.push(OpRead {
                        key,
                        snap_ts,
                        observed,
                    });
                }),
                Some((kind, value)) => match kind {
                    MutKind::Insert => txn.insert(&self.layout, key, value.clone()),
                    _ => txn.update(&self.layout, key, value.clone()),
                }
                .map(|()| {
                    let (snap_ts, value) = (txn.start_ts(), Some(value));
                    writes.push(OpWrite {
                        key,
                        snap_ts,
                        kind,
                        value,
                    });
                }),
            };
            if done.is_err() {
                failed = true;
                break;
            }
        }
        let (routes, xid) = (txn.routes(), txn.xid());
        let commit_ts = if failed {
            txn.abort();
            None
        } else {
            txn.commit().ok()
        };
        self.recorder.record(TxnRecord {
            xid,
            client,
            begin_ts,
            commit_ts,
            reads,
            writes,
            routes,
            begin_seq,
            commit_seq: 0,
            replica: false,
        });
        commit_ts
    }

    /// Reads `keys` in one replica transaction at the watermark and records
    /// the read set under the synthetic `xid`, flagged so the checker applies
    /// the staleness oracle. A begin that times out (certification or
    /// watermark wait) or a read that errors transiently records nothing and
    /// returns `false`.
    fn record_replica_reads(
        &self,
        session: &ReplicaSession,
        client: u32,
        xid: TxnId,
        keys: impl IntoIterator<Item = u64>,
    ) -> bool {
        let begin_seq = self.recorder.tick();
        let Ok(txn) = session.begin() else {
            return false;
        };
        let snap_ts = txn.snap_ts();
        let read = |key| {
            let observed = txn.read(&self.layout, key)?;
            Ok(OpRead {
                key,
                snap_ts,
                observed,
            })
        };
        let Ok(reads) = keys.into_iter().map(read).collect::<Result<_, DbError>>() else {
            return false;
        };
        drop(txn);
        self.recorder.record(TxnRecord {
            xid,
            client,
            begin_ts: snap_ts,
            commit_ts: Some(snap_ts),
            reads,
            writes: vec![],
            routes: vec![],
            begin_seq,
            commit_seq: 0,
            replica: true,
        });
        true
    }

    /// Records one full-table read at `replica`'s watermark under the
    /// synthetic xid `(replica, xid_seq)`. The caller knows the replica is
    /// certified, so a scan that cannot be served is a failure.
    fn replica_scan(&self, replica: NodeId, client: u32, xid_seq: u64) {
        let session = ReplicaSession::connect(&self.cluster, replica).expect("replica registered");
        let xid = TxnId::new(replica, xid_seq);
        let served = self.record_replica_reads(&session, client, xid, 0..KEYS);
        assert!(served, "certified replica {replica} refused a scan");
    }

    /// Spawns seeded clients `first_id..first_id + n`, `txns` transactions
    /// each. Every attempted transaction is recorded.
    fn spawn_clients(&self, n: u32, first_id: u32, txns: u32, mix: Mix) -> Vec<JoinHandle<()>> {
        let spawn = |client| {
            let rig = self.clone();
            std::thread::spawn(move || match mix {
                Mix::ReplicaRead => rig.replica_reader(client, txns),
                _ => rig.client(client, txns, mix),
            })
        };
        (first_id..first_id + n).map(spawn).collect()
    }

    /// One seeded client on a seed-chosen coordinator: distinct keys per
    /// transaction, the leading ones read, the rest updated, issued in
    /// `(shard, key)` order — under shard locking every statement takes the
    /// shard lock, so a global order keeps clients from deadlocking.
    ///
    /// Clients coordinate on primaries only, in both drives: the fourth node
    /// is a replica, or a spare that turns into one mid-run, and a replica
    /// serves no client writes.
    fn client(&self, client: u32, txns: u32, mix: Mix) {
        let seed = self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(client);
        let mut rng = SmallRng::seed_from_u64(seed);
        let session = Session::connect(&self.cluster, NodeId(rng.gen_range(0..PRIMARIES)));
        for t in 0..txns {
            let (n_reads, label) = match mix {
                Mix::WriteOnly => (0, 'w'),
                _ => (rng.gen_range(1..=2usize), 'c'),
            };
            let n_writes = rng.gen_range(1..=2usize);
            let mut chosen: Vec<u64> = Vec::new();
            while chosen.len() < n_reads + n_writes {
                let key = rng.gen_range(0..KEYS);
                if !chosen.contains(&key) {
                    chosen.push(key);
                }
            }
            let stmt = |(i, &key)| match i < n_reads {
                true => Stmt::read(key),
                false => Stmt::write(MutKind::Update, key, format!("{label}{client}-t{t}-k{key}")),
            };
            let mut stmts: Vec<Stmt> = chosen.iter().enumerate().map(stmt).collect();
            stmts.sort_by_key(|s| (self.layout.shard_for(s.key).0, s.key));
            self.record_txn(&session, client, stmts);
        }
    }

    /// One seeded read-only client on the replica; only completed read sets
    /// are recorded.
    fn replica_reader(&self, client: u32, txns: u32) {
        let session = ReplicaSession::connect(&self.cluster, REPLICA_NODE).expect("replica");
        let seed = self.seed.wrapping_mul(0x9e6c_6356_8b57_d0ed) ^ u64::from(client);
        let mut rng = SmallRng::seed_from_u64(seed);
        for t in 0..txns {
            let n_reads = rng.gen_range(1..=3usize);
            let keys: Vec<u64> = (0..n_reads).map(|_| rng.gen_range(0..KEYS)).collect();
            // Synthetic xids in a range no real transaction reaches.
            let xid_seq = 0x5000_0000 + u64::from(client) * 0x1000 + u64::from(t);
            self.record_replica_reads(&session, client, TxnId::new(REPLICA_NODE, xid_seq), keys);
        }
    }
}

fn join(clients: Vec<JoinHandle<()>>) {
    for client in clients {
        client.join().expect("client thread");
    }
}

/// The newest commit timestamp the run produced: what a causal token or a
/// replica watermark has to cover to see everything.
fn newest_commit(history: &[TxnRecord], migrations: &[MigrationSpec]) -> Timestamp {
    let commits = history.iter().filter_map(|r| r.commit_ts);
    let flips = migrations.iter().filter_map(|m| m.tm_cts);
    commits.chain(flips).max().unwrap_or(Timestamp(1))
}

/// Where `proc`'s streams stand, for the failure report.
fn progress_of(proc: &ReplicaProcess) -> ReplicaProgress {
    let stream = |(primary, cut_ts)| {
        let applied = proc.applied_of(primary).map_or(0, |lsn| lsn.0);
        (primary, cut_ts, applied)
    };
    ReplicaProgress {
        watermark: proc.watermark(),
        streams: proc.cuts().into_iter().map(stream).collect(),
    }
}

/// The chaos crate's planner policy: imbalance trigger only, two moves a
/// tick, and nothing timing-polluted in the decision — EWMA off (one window
/// is one measured batch), cost weights zeroed (version counts, WAL rates
/// and ship volume vary with fault timing and would break decision replay),
/// no latency throttle, no retries, co-location off, and an infinite
/// cooldown so each shard moves (and a replica is provisioned) at most once
/// per scenario. With replica actions on, replicate-vs-migrate and
/// decommission reduce to the read-fraction trigger and the absolute read
/// floor — both pure functions of the measured batch.
fn planner_policy(seed: u64, replicas: bool) -> PlannerConfig {
    PlannerConfig {
        imbalance_ratio: 1.2,
        cooldown_ticks: u64::MAX,
        max_moves_per_tick: 2,
        ewma_alpha: 1.0,
        cost_weight_versions: 0.0,
        cost_weight_wal: 0.0,
        colocation: false,
        max_retries: 0,
        seed,
        replication: replicas,
        replica_read_ratio: 0.75,
        cost_weight_ship: 0.0,
        // One migration per node at a time, and no latency throttle.
        ..PlannerConfig::balanced()
    }
}

/// A built and deployed scenario, and what executing it has produced so far.
struct Lab<'a> {
    scenario: &'a Scenario,
    rig: Rig,
    /// Per-node skew knobs (DTS only: GTS has no per-node clocks to skew).
    skewed: Vec<Arc<SkewedPhysicalClock>>,
    /// Plans, decisions, migration specs, restart and replica progress are
    /// filled in by the script, which also files engine-side problems (a
    /// failed migration, a malformed trace) as violations; `Lab::evaluate`
    /// adds the checker's and fills in the rest.
    out: Outcome,
}

impl<'a> Lab<'a> {
    fn build(scenario: &'a Scenario) -> Lab<'a> {
        let spare = matches!(
            scenario.drive,
            Drive::Fixed(FaultProfile::Replica) | Drive::Planner { replicas: true }
        );
        let nodes = PRIMARIES + u32::from(spare);
        let mut skewed: Vec<Arc<SkewedPhysicalClock>> = Vec::new();
        let oracle: Arc<dyn TimestampOracle> = match scenario.oracle {
            OracleKind::Gts => Arc::new(Gts::new()),
            OracleKind::Dts => {
                let base: Arc<dyn PhysicalClock> = Arc::new(WallClock::new());
                skewed.extend((0..nodes).map(|_| Arc::new(SkewedPhysicalClock::new(base.clone()))));
                let clocks = skewed.iter().map(|c| c.clone() as Arc<dyn PhysicalClock>);
                Arc::new(Dts::from_clocks(clocks.collect()))
            }
        };
        let mut sim = SimConfig::instant();
        sim.parallelism = scenario.parallelism;
        sim.isolation = scenario.isolation;
        sim.hot_path.gc_interval = scenario.gc_interval.unwrap_or_default();
        if let Some(dir) = &scenario.wal_dir {
            sim.wal = WalConfig::file(dir.clone());
        }
        let cluster = ClusterBuilder::new(nodes as usize)
            .config(sim)
            .oracle_instance(oracle)
            .network(Arc::new(FaultyNetwork::from_seed(scenario.seed, nodes)))
            .cc_mode(scenario.engine.cc_mode())
            .build();
        // Shards spread over the primaries; a fourth node starts empty — the
        // replica, or the only admissible `Replicate` destination, so that
        // decision is seed-pure.
        let layout = match scenario.drive {
            Drive::Fixed(_) => TableLayout::new(TableId(1), 0, 4),
            Drive::Planner { .. } => TableLayout::direct(TableId(1), 0, PLANNER_SHARDS),
        };
        let layout = cluster.create_table_with_layout(layout, |i| NodeId(i % PRIMARIES));
        Lab {
            scenario,
            rig: Rig {
                cluster,
                layout,
                recorder: Arc::default(),
                seed: scenario.seed,
            },
            skewed,
            out: Outcome::default(),
        }
    }

    /// Arms a plan: installs its specs and applies its clock-skew spike to
    /// `dest`'s physical clock — in both drives, since a fault the plan lists
    /// is a fault that runs (the planner's measured batches are shielded from
    /// the skew by a causal token, see `planner_rounds`).
    fn arm(&self, plan: &FaultPlan, dest: NodeId) {
        let injector = Arc::new(PlanInjector::new(plan));
        self.rig.cluster.install_fault_injector(injector);
        if let (Some(ms), Some(clock)) = (plan.clock_spike_ms, self.skewed.get(dest.0 as usize)) {
            clock.set_skew_ms(ms);
        }
    }

    /// The fixed move: runs `task` once through the scenario's engine, on the
    /// executor the planner drive uses, and notes what landed.
    fn migrate(&mut self, task: &MigrationTask) {
        let exec = Executor::new(Arc::clone(&self.rig.cluster), self.scenario.engine.engine());
        self.note_move(task, exec.migrate(task, 0));
    }

    /// Notes what a move landed: a failure or a malformed trace as a problem,
    /// and the routing spec the checker holds the history to. "Committed" is
    /// the executor's landed rule (the owner rows point at the destination,
    /// even if a post-`T_m` phase failed) — but a failure is a violation
    /// either way: every plan that reaches an engine expects it to succeed.
    fn note_move(&mut self, task: &MigrationTask, moved: Moved) {
        let committed = moved.committed();
        match moved.result {
            Ok(report) => {
                if let Err(detail) = check_traces(&report) {
                    let engine = report.engine.to_string();
                    let malformed = Violation::TraceMalformed { engine, detail };
                    self.out.violations.push(malformed);
                }
            }
            Err(e) => self.failed(&e),
        }
        self.note_migration(task, committed, moved.landed);
    }

    /// Files an engine error: every action the lab hands an engine or the
    /// executor is expected to succeed.
    fn failed(&mut self, e: &DbError) {
        let detail = format!("{e:?}");
        self.out
            .violations
            .push(Violation::MigrationFailed { detail });
    }

    fn note_migration(&mut self, task: &MigrationTask, committed: bool, tm_cts: Option<Timestamp>) {
        self.out.migrations.push(MigrationSpec {
            shard: task.shards[0],
            source: task.source,
            dest: task.dest,
            tm_cts,
            committed,
        });
    }

    /// The fixed move under `profile`, with `specs` overriding the plan's.
    fn fixed_move(&mut self, profile: FaultProfile, specs: Option<&[FaultSpec]>) {
        let mut plan = FaultPlan::generate(self.scenario.seed, profile, SOURCE, DEST);
        // The restart scripts are read off the seed's plan, not off `specs`.
        let (replica_restart, crash_restart) = (plan.replica_restart(), plan.crash_restart_spec());
        plan.specs = specs.map_or(plan.specs, <[_]>::to_vec);
        self.arm(&plan, DEST);
        let task = MigrationTask::single(SHARD, SOURCE, DEST);
        let (rig, half) = (self.rig.clone(), TXNS_PER_CLIENT / 2);
        let phase = |first_id| join(rig.spawn_clients(CLIENTS, first_id, half, Mix::ReadWrite));
        let copy_snapshot = || {
            let (cluster, source) = (&rig.cluster, rig.cluster.node(SOURCE));
            let snapshot_ts = cluster.oracle.start_ts(SOURCE);
            copy_task_snapshots(
                cluster,
                &task.shards,
                source,
                cluster.node(DEST),
                snapshot_ts,
            )
            .expect("snapshot copy");
        };
        match profile {
            FaultProfile::Tolerated => {
                let clients = rig.spawn_clients(CLIENTS, 1, TXNS_PER_CLIENT, Mix::ReadWrite);
                // Let the workload get going before the migration starts.
                std::thread::sleep(Duration::from_millis(10));
                self.migrate(&task);
                join(clients);
            }
            FaultProfile::Replica => self.replica_race(replica_restart, &task),
            FaultProfile::CrashTm => {
                // Quiescent crash drill: run traffic, copy, crash T_m mid-2PC,
                // recover, then run traffic against the recovered cluster.
                phase(1);
                copy_snapshot();
                let tm_cts = match run_tm(&rig.cluster, &task, true) {
                    Ok(ts) => Some(ts),
                    Err(DbError::InDoubt(xid)) => {
                        match recover_migration(&rig.cluster, &task, xid).expect("recovery") {
                            RecoveryDecision::RolledForward(ts) => Some(ts),
                            RecoveryDecision::RolledBack => None,
                        }
                    }
                    Err(e) => panic!("T_m of the crash drill failed: {e:?}"),
                };
                self.note_migration(&task, tm_cts.is_some(), tm_cts);
                phase(100);
            }
            FaultProfile::CrashRestart => {
                // Quiescent node-crash drill: seeded traffic commits onto the
                // victim's durable WAL, the victim dies at a seeded stage of
                // the copy pipeline and is rebuilt from disk, and a fresh
                // engine must then drive the whole migration over the
                // recovered node. The SI checker sees the stitched
                // pre+post-restart history as one timeline.
                assert!(
                    self.scenario.wal_dir.is_some(),
                    "CrashRestart scenarios need a file-backed WAL (set wal_dir)"
                );
                let (victim, stage) = crash_restart.expect("restart spec");
                phase(1);
                if stage >= 1 {
                    // A snapshot copy the crash then wipes (destination
                    // victim) or leaves stale on the destination (source
                    // victim); the post-restart migration re-copies either
                    // way because a copied row installed again at its
                    // commit timestamp is edited in place.
                    copy_snapshot();
                }
                if stage >= 2 {
                    // Catch-up-era traffic: commits landing after the copy's
                    // snapshot that must survive the restart and still be
                    // present after the re-copy.
                    phase(50);
                }
                let summary = rig.cluster.restart_node(victim).expect("restart_node");
                self.out.restart = Some((victim, summary));
                self.migrate(&task);
                phase(100);
            }
        }
        rig.cluster.uninstall_fault_injector();
        self.out.plans.push(plan);
    }

    /// The `Replica` profile's script: bootstrap the replica (virtual-cut
    /// backfill), optionally crash-restart it mid-backfill, then run writers
    /// on the primaries and seeded read-only clients on the replica while
    /// the engine migrates the shard between primaries under ship/apply
    /// faults; finally let the replica catch up and scan it.
    fn replica_race(&mut self, restart: bool, task: &MigrationTask) {
        let rig = self.rig.clone();
        let mut proc = start_replica(&rig.cluster, REPLICA_NODE).expect("start replica");
        if restart {
            // Kill the replica while the backfill is in flight: detach the
            // streams, wipe the node via `restart_node` (its apply state is
            // volatile), and re-bootstrap from scratch at a fresh virtual cut.
            std::thread::sleep(Duration::from_millis(1));
            proc.stop();
            let summary = rig
                .cluster
                .restart_node(REPLICA_NODE)
                .expect("restart replica");
            self.out.restart = Some((REPLICA_NODE, summary));
            proc = start_replica(&rig.cluster, REPLICA_NODE).expect("re-bootstrap replica");
        }
        let clients = rig.spawn_clients(CLIENTS, 1, TXNS_PER_CLIENT, Mix::ReadWrite);
        let readers = rig.spawn_clients(CLIENTS, 200, TXNS_PER_CLIENT, Mix::ReplicaRead);
        std::thread::sleep(Duration::from_millis(10));
        self.migrate(task);
        join(clients);
        join(readers);
        // Catch-up: with writers quiesced, the watermark must reach the newest
        // commit (idle primaries advance it via heartbeats), and a full
        // replica scan there must serve the newest versions.
        let target = newest_commit(&rig.recorder.log.snapshot(), &self.out.migrations);
        proc.handle()
            .wait_watermark(target, Duration::from_secs(30))
            .expect("replica catch-up");
        rig.replica_scan(REPLICA_NODE, 999, 0x6000_0000);
        assert!(!proc.is_failed(), "replica apply process failed");
        self.out.replica = Some(progress_of(&proc));
        proc.stop();
    }

    /// The planner drive: `ROUNDS` iterations of reset → measured batch →
    /// one planner tick → each decision carried out by the product's
    /// executor with a seeded fault plan armed and seeded writers racing it.
    ///
    /// With replica actions on the round script is fixed: rounds 0, 1 and 3
    /// measure a read-hot batch, round 2 a write-only one. Round 0 trips the
    /// read-offload trigger (`Replicate` to the spare), round 1 balances
    /// with the replica live, round 2's readless window drops demand below
    /// the floor (`Decommission`), and round 3 balances again after the
    /// retirement (re-provisioning is parked behind the infinite cooldown).
    fn planner_rounds(&mut self, replicas: bool) {
        let rig = self.rig.clone();
        let seed = self.scenario.seed;
        let policy = planner_policy(seed, replicas);
        let (alpha, mut planner) = (policy.ewma_alpha, Planner::new(policy));
        let mut collector = ObservationCollector::new();
        // The executor owns the replica it provisions, always on the spare.
        // The measured batches run on primary `Session`s, which never read
        // from a replica (only a `ReadRouter` offloads), so the planner's
        // input stays seed-pure even while a replica is attached.
        let mut exec = Executor::new(Arc::clone(&rig.cluster), self.scenario.engine.engine());
        // Every replica sweep shares client 900, so the checker's per-client
        // rule (watermarks never run backwards) spans the whole scenario.
        let mut sweeps = 0u64;
        let mut replica_sweep = || {
            sweeps += 1;
            rig.replica_scan(REPLICA_NODE, 900, 0x7000_0000 + sweeps);
        };
        let session = Session::connect(&rig.cluster, SOURCE);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for round in 0..ROUNDS {
            // 1. Isolate this round's measurement from fault-era traffic:
            // reset the load accounting, and hand the sweeping session a
            // causal token for every commit so far. Under DTS a sweep whose
            // snapshot trails a racing writer's commit or a `T_m` (likely
            // once a clock spike is armed) would conflict, or route to a
            // departed owner, abort mid-list and under-count its shard.
            rig.cluster.reset_load();
            let token = newest_commit(&rig.recorder.log.snapshot(), &self.out.migrations);
            rig.cluster.oracle.observe(SOURCE, token);

            // 2. The measured batch: single-threaded recorded sweeps on the
            // main thread, so the load they tally is a pure function of the
            // seed and the ownership state (commit failures are recorded but
            // cannot perturb tallies charged at statement execution). A
            // read-hot batch sweeps each shard of the hot node `HOT_SWEEPS`
            // times and the others once; the write-only batch updates every
            // shard once, which zeroes the windowed read demand (the
            // decommission trigger) without tripping the balancer.
            let hot = NodeId(rng.gen_range(0..PRIMARIES));
            for (i, shard) in rig.layout.shard_ids().enumerate() {
                let keys = (0..KEYS).filter(|&k| rig.layout.shard_for(k) == shard);
                if replicas && round == 2 {
                    let update =
                        |k| Stmt::write(MutKind::Update, k, format!("sweep-r{round}-k{k}"));
                    rig.record_txn(&session, 0, keys.map(update).collect());
                    continue;
                }
                let moved = self.out.migrations.iter().rev();
                let owner = moved
                    .filter(|m| m.shard == shard && m.committed)
                    .map(|m| m.dest)
                    .next()
                    .unwrap_or(NodeId(i as u32 % PRIMARIES));
                let sweeps = if owner == hot { HOT_SWEEPS } else { 1 };
                for _ in 0..sweeps {
                    rig.record_txn(&session, 0, keys.clone().map(Stmt::read).collect());
                }
            }

            // 3. One planner tick over the freshly rolled window.
            let tick = planner.decide(&collector.collect(&rig.cluster, alpha));

            // 4. Carry out each decision with faults and racing writers. A
            // migration runs under the tolerated profile on its endpoints; a
            // provision under the canonical replica profile's ship-stream and
            // applier faults (its optional crash-restart spec is read by the
            // fixed-move script only and is inert here). A decommission arms
            // nothing: the replica first serves a final staleness record.
            for decision in tick.decisions {
                self.out.decisions.push(decision.to_string());
                let plan_seed = seed
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(u64::from(round) + 1);
                let armed = match &decision.action {
                    Action::Migrate(task) => {
                        Some((FaultProfile::Tolerated, task.source, task.dest))
                    }
                    Action::Replicate { src, .. } => {
                        Some((FaultProfile::Replica, *src, NodeId((src.0 + 1) % PRIMARIES)))
                    }
                    Action::Decommission { replica } => {
                        replica_sweep();
                        let progress = exec.replica(*replica).map(progress_of);
                        self.out.replica = progress.or(self.out.replica.take());
                        None
                    }
                };
                let plan = armed.map(|(profile, source, dest)| {
                    (FaultPlan::generate(plan_seed, profile, source, dest), dest)
                });
                let writers = plan.as_ref().map(|(plan, dest)| {
                    self.arm(plan, *dest);
                    rig.spawn_clients(WRITERS, round * 8 + 1, TXNS_PER_WRITER, Mix::WriteOnly)
                });
                if decision.migration().is_some() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let executed = exec.execute(&mut planner, &decision);
                join(writers.unwrap_or_default());
                match executed {
                    Executed::Migrated(moved) => {
                        self.note_move(decision.migration().expect("a move"), moved)
                    }
                    Executed::Replicated(Err(e)) => self.failed(&e),
                    _ => {}
                }
                self.out.plans.extend(plan.map(|(plan, _)| plan));
                rig.cluster.uninstall_fault_injector();
            }

            // Staleness oracle feed: one recorded sweep per round while a
            // replica is live.
            if exec.replica(REPLICA_NODE).is_some() {
                replica_sweep();
            }
        }
        let progress = exec.replica(REPLICA_NODE).map(progress_of);
        self.out.replica = progress.or(self.out.replica.take());
    }

    /// The verdict: SI (and serializability when selected) over the history,
    /// the engine-side problems, and the final table contents against the
    /// history's model.
    fn evaluate(self) -> Outcome {
        let Lab {
            scenario,
            rig,
            mut out,
            ..
        } = self;
        let history = rig.recorder.log.snapshot();
        let clients = |committed| {
            let of_clients = history.iter().filter(|r| r.client > 0 && !r.replica);
            of_clients.filter(|r| r.committed() == committed).count()
        };
        let strict = scenario.oracle == OracleKind::Gts;
        let mut violations = check_history_multi(&history, &out.migrations, strict);
        if scenario.isolation == IsolationLevel::Serializable {
            violations.extend(check_serializability(&history));
        }
        violations.extend(std::mem::take(&mut out.violations));
        // Final scan with a causal token covering every commit in the
        // history, coordinated by the last primary in both drives: not the
        // fixed move's source, and never the fourth node, which may still be
        // a registered replica.
        let token = newest_commit(&history, &out.migrations);
        let scan_session = Session::connect(&rig.cluster, NodeId(PRIMARIES - 1));
        let mut scan = scan_session.begin_after(token);
        let rows = scan.scan_table(&rig.layout).expect("final scan");
        scan.abort();
        let observed: BTreeMap<u64, Value> = rows.into_iter().collect();
        violations.extend(check_final_state(&history, &observed));
        Outcome {
            committed: clients(true),
            aborted: clients(false),
            history,
            violations,
            ..out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_core::EngineKind;

    #[test]
    fn smoke_scenario_passes_and_is_deterministic() {
        let scenario = Scenario::remus_smoke(1);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.plans, b.plans);
        a.expect_green(&scenario);
        b.expect_green(&scenario);
        assert!(a.committed > 0);
    }

    #[test]
    fn crash_scenario_recovers_and_checks_out() {
        let scenario = Scenario::from_seed(4);
        assert_eq!(scenario.drive, Drive::Fixed(FaultProfile::CrashTm));
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(outcome.plans[0].crash_point().is_some());
    }

    #[test]
    fn replica_scenario_smoke() {
        let scenario = Scenario::replica(2, OracleKind::Dts);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(outcome.migration_committed());
        assert!(outcome.committed > 0);
        assert!(outcome.replica_reads() > 0, "no replica reads recorded");
        assert_eq!(outcome.replica.expect("replica ran").streams.len(), 3);
    }

    #[test]
    fn restart_scenario_smoke() {
        let dir =
            std::env::temp_dir().join(format!("remus-chaos-restart-smoke-{}", std::process::id()));
        let scenario = Scenario::crash_restart(7, EngineKind::Remus, OracleKind::Dts, &dir);
        let outcome = run(&scenario);
        std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
        outcome.expect_green(&scenario);
        assert!(outcome.migration_committed());
        let (victim, summary) = outcome.restart.expect("restart ran");
        assert!(victim == NodeId(0) || victim == NodeId(1));
        assert!(summary.committed > 0, "replay rebuilt nothing: {summary:?}");
    }

    #[test]
    fn planner_scenario_moves_shards_and_passes() {
        let scenario = Scenario::planner(0);
        assert_eq!(scenario.engine, EngineKind::Remus);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(
            !outcome.decisions.is_empty(),
            "the hot-node batch must trip the imbalance trigger"
        );
        assert_eq!(outcome.decisions.len(), outcome.migrations.len());
        assert!(outcome.migration_committed());
    }

    #[test]
    fn planner_decisions_and_plans_replay_identically() {
        for scenario in [
            Scenario::planner(1),
            Scenario::planner_replica(5, OracleKind::Dts),
        ] {
            let a = run(&scenario);
            let b = run(&scenario);
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.plans, b.plans);
            a.expect_green(&scenario);
            b.expect_green(&scenario);
            // The planner's input: no measured sweep may be cut short.
            let cut_short = a.history.iter().find(|r| r.client == 0 && !r.committed());
            assert!(cut_short.is_none(), "{cut_short:?}");
        }
    }

    #[test]
    fn planner_replica_scenario_provisions_and_decommissions() {
        let scenario = Scenario::planner_replica(0, OracleKind::Gts);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        let decided = |verb: &str| outcome.decisions.iter().any(|d| d.starts_with(verb));
        assert!(
            decided("replicate "),
            "round 0's read-hot batch must provision: {:?}",
            outcome.decisions
        );
        assert!(
            decided("decommission "),
            "round 2's readless window must retire the replica: {:?}",
            outcome.decisions
        );
        assert!(outcome.replica_reads() > 0);
    }

    #[test]
    #[should_panic(expected = "generated per decision")]
    fn explicit_specs_are_a_fixed_move_affair() {
        run_with_specs(&Scenario::planner(0), &[]);
    }

    #[test]
    #[should_panic(expected = "minimal failing faults")]
    fn a_red_outcome_reports_a_replay_recipe() {
        let scenario = Scenario::remus_smoke(2);
        let mut outcome = run(&scenario);
        outcome.violations.push(Violation::MigrationFailed {
            detail: "forged".to_string(),
        });
        outcome.expect_green(&scenario);
    }
}
