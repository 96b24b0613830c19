//! Single-threaded layer probes: each times one public layer call on a
//! fixture the probe builds itself, so the numbers do not depend on which
//! workload the traced run belongs to. Every value is the median of
//! [`BATCHES`] batches.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus::clock::{Dts, Gts, OracleKind, TimestampOracle};
use remus::cluster::{ClusterBuilder, Session};
use remus::common::metrics::MetricsRegistry;
use remus::common::{
    HotPathConfig, NodeId, ShardId, SimConfig, TableId, Timestamp, TxnId, WalConfig,
};
use remus::shard::{install_owner, read_owner_at, ShardMapCache, TableLayout};
use remus::storage::{Clog, VersionedTable};
use remus::txn::{SsiNode, SsiTxn};
use remus::wal::{LogOp, LogRecord, Lsn, Wal, WriteKind, WriteOp};

use crate::db::tagged_value;
use crate::ops::{HOT_SET, VALUE_LEN};
use crate::stats::median;

/// Batches per probe.
const BATCHES: usize = 5;
/// Calls per batch for the cheap probes (5 x 40 000 = 200 000 timed calls).
const CALLS: usize = 40_000;
/// Keys in the standalone storage fixture: larger than the last-level cache.
const TABLE_KEYS: u64 = 1_000_000;
const TIMEOUT: Duration = Duration::from_secs(1);

/// `(metric name, value)` pairs in catalogue order.
pub type ProbeResults = Vec<(&'static str, f64)>;

/// Median over batches of nanoseconds per call of `f(i)`.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

fn clock_probes(out: &mut ProbeResults) {
    let node = NodeId(0);
    let gts = Gts::with_lease(HotPathConfig::tuned().gts_lease);
    out.push((
        "clock.gts_start_ts_ns",
        per_call_ns(CALLS, |_| {
            black_box(gts.start_ts(node));
        }),
    ));
    out.push((
        "clock.gts_commit_ts_ns",
        per_call_ns(CALLS, |_| {
            black_box(gts.commit_ts(node));
        }),
    ));
    let dts = Dts::new(4, Duration::ZERO);
    out.push((
        "clock.dts_start_ts_ns",
        per_call_ns(CALLS, |_| {
            black_box(dts.start_ts(node));
        }),
    ));
    out.push((
        "clock.dts_commit_ts_ns",
        per_call_ns(CALLS, |_| {
            black_box(dts.commit_ts(node));
        }),
    ));
    // The participant side of a 2PC hop: fold the coordinator's timestamp in.
    let incoming: Vec<Timestamp> = (0..BATCHES * CALLS).map(|_| dts.commit_ts(node)).collect();
    out.push((
        "clock.dts_observe_ns",
        per_call_ns(CALLS, |i| {
            dts.observe(NodeId(1), incoming[i]);
        }),
    ));
}

fn shard_probes(rng: &mut SmallRng, out: &mut ProbeResults) {
    let layout = TableLayout::new(TableId(1), 0, 48);
    out.push((
        "shard.shard_for_ns",
        per_call_ns(CALLS, |i| {
            black_box(layout.shard_for(black_box(i as u64)));
        }),
    ));
    let mut cache = ShardMapCache::new();
    cache.refresh(
        layout
            .shard_ids()
            .map(|s| (s, NodeId(s.0 as u32 % 4), Timestamp::SNAPSHOT_MIN)),
        1,
    );
    let shards: Vec<ShardId> = (0..CALLS).map(|_| ShardId(rng.gen_range(0..48))).collect();
    out.push((
        "shard.cache_lookup_ns",
        per_call_ns(CALLS, |i| {
            black_box(cache.lookup(shards[i % CALLS], Timestamp(1_000)));
        }),
    ));
    // The read-through path: the shard map table read at a snapshot.
    let map = VersionedTable::new();
    let clog = Clog::new();
    for s in layout.shard_ids() {
        install_owner(&map, s, NodeId(s.0 as u32 % 4));
    }
    out.push((
        "shard.owner_at_ns",
        per_call_ns(CALLS, |i| {
            black_box(read_owner_at(
                &map,
                &clog,
                shards[i % CALLS],
                Timestamp(1_000),
                TIMEOUT,
            ))
            .expect("owner row readable");
        }),
    ));
}

fn storage_probes(rng: &mut SmallRng, out: &mut ProbeResults) {
    let table = VersionedTable::with_stripes(HotPathConfig::tuned().index_stripes);
    let clog = Clog::new();
    let gts = Gts::new();
    let node = NodeId(0);
    for key in 0..TABLE_KEYS {
        table.install_frozen(key, tagged_value(VALUE_LEN, 0));
    }
    let keys: Vec<u64> = (0..BATCHES * CALLS)
        .map(|_| rng.gen_range(0..TABLE_KEYS))
        .collect();
    let read_ts = gts.start_ts(node);
    out.push((
        "storage.point_read_ns",
        per_call_ns(CALLS, |i| {
            black_box(table.read(keys[i], read_ts, TxnId::INVALID, &clog, TIMEOUT))
                .expect("point read");
        }),
    ));
    out.push((
        "storage.point_read_hot_ns",
        per_call_ns(CALLS, |i| {
            black_box(table.read(keys[i] % HOT_SET, read_ts, TxnId::INVALID, &clog, TIMEOUT))
                .expect("hot point read");
        }),
    ));
    // One single-statement transaction against the storage layer alone:
    // begin in the Clog, write a new version, commit in the Clog.
    let mut xids = Vec::with_capacity(BATCHES * CALLS);
    out.push((
        "storage.update_commit_ns",
        per_call_ns(CALLS, |i| {
            let xid = TxnId::new(node, i as u64 + 1);
            clog.begin(xid);
            table
                .update(
                    keys[i],
                    tagged_value(VALUE_LEN, i as u64),
                    xid,
                    gts.start_ts(node),
                    &clog,
                    TIMEOUT,
                )
                .expect("uncontended update");
            clog.set_committed(xid, gts.commit_ts(node))
                .expect("commit");
            xids.push(xid);
        }),
    ));
    out.push((
        "storage.clog_status_ns",
        per_call_ns(CALLS, |i| {
            black_box(clog.status(xids[i]));
        }),
    ));
    // Appends to a growing ordered index, as TPC-C order rows do.
    let insert_xid = TxnId::new(node, (BATCHES * CALLS) as u64 + 1);
    clog.begin(insert_xid);
    let insert_ts = gts.start_ts(node);
    out.push((
        "storage.insert_ns",
        per_call_ns(CALLS, |i| {
            table
                .insert(
                    TABLE_KEYS + i as u64,
                    tagged_value(VALUE_LEN, 0),
                    insert_xid,
                    insert_ts,
                    &clog,
                    TIMEOUT,
                )
                .expect("fresh key");
        }),
    ));
    clog.set_committed(insert_xid, gts.commit_ts(node))
        .expect("commit");
    // Range scans as the snapshot copy issues them.
    let scan_ts = gts.start_ts(node);
    let scans: Vec<f64> = (0..BATCHES as u64)
        .map(|b| {
            let lo = b * CALLS as u64;
            let t = Instant::now();
            let rows = table
                .scan_visible_range(lo..lo + CALLS as u64, scan_ts, &clog, TIMEOUT)
                .expect("scan");
            t.elapsed().as_nanos() as f64 / black_box(rows).len() as f64
        })
        .collect();
    out.push(("storage.scan_ns_per_tuple", median(&scans)));
    // Incremental GC over chains, some of which now carry a shadowed version.
    let watermark = gts.start_ts(node);
    let gc: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let stats = table.gc_step(watermark, &clog, CALLS);
            t.elapsed().as_nanos() as f64 / stats.scanned.max(1) as f64
        })
        .collect();
    out.push(("storage.gc_step_ns_per_chain", median(&gc)));
}

fn cluster_probes(rng: &mut SmallRng, out: &mut ProbeResults) {
    const KEYS: u64 = 65_536;
    const TXNS: usize = 8_000;
    let mut config = SimConfig::instant();
    config.hot_path = HotPathConfig::tuned();
    let cluster = ClusterBuilder::new(2)
        .oracle(OracleKind::Gts)
        .config(config)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 2, NodeId);
    let mut on_node: [Vec<u64>; 2] = Default::default();
    for key in 0..KEYS {
        let shard = layout.shard_for(key);
        let owner = (shard.0 - layout.base) as usize;
        cluster
            .node(NodeId(owner as u32))
            .storage
            .table(shard)
            .expect("shard exists")
            .install_frozen(key, tagged_value(VALUE_LEN, 0));
        on_node[owner].push(key);
    }
    let session = Session::connect(&cluster, NodeId(0));
    let mut pick = |node: usize| on_node[node][rng.gen_range(0..on_node[node].len())];
    out.push((
        "cluster.txn_1key_local_ns",
        per_call_ns(TXNS, |i| {
            let key = pick(0);
            session
                .run(|t| t.update(&layout, key, tagged_value(VALUE_LEN, i as u64)))
                .expect("single-thread update commits");
        }),
    ));
    out.push((
        "cluster.txn_2key_2pc_ns",
        per_call_ns(TXNS, |i| {
            let (a, b) = (pick(0), pick(1));
            session
                .run(|t| {
                    t.update(&layout, a, tagged_value(VALUE_LEN, i as u64))?;
                    t.update(&layout, b, tagged_value(VALUE_LEN, i as u64))
                })
                .expect("single-thread 2PC commits");
        }),
    ));
}

fn write_record(i: usize) -> LogRecord {
    LogRecord::new(
        TxnId::new(NodeId(0), i as u64 + 1),
        LogOp::Write(WriteOp {
            shard: ShardId(0),
            key: i as u64,
            kind: WriteKind::Update,
            value: tagged_value(VALUE_LEN, i as u64),
        }),
    )
}

fn wal_probes(scratch: &Path, out: &mut ProbeResults) {
    let wal = Arc::new(Wal::new());
    out.push((
        "wal.append_ns",
        per_call_ns(CALLS, |i| {
            black_box(wal.append(write_record(i)));
        }),
    ));
    let mut reader = wal.reader_from(Lsn::ZERO);
    out.push((
        "wal.reader_ns_per_record",
        per_call_ns(CALLS, |_| {
            black_box(reader.try_next()).expect("record was appended");
        }),
    ));
    // File backend with group commit, one committer: every durable append
    // waits for its own fsync. Measures this sandbox's disk, nothing else.
    const DURABLE: usize = 60;
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    let durable = Wal::open_file(&dir, &WalConfig::file(&dir)).expect("open file WAL");
    let us = per_call_ns(DURABLE, |i| {
        durable
            .append_durable(write_record(i))
            .expect("durable append");
    }) / 1_000.0;
    out.push(("wal.append_durable_us", us));
    out.push((
        "wal.fsyncs_per_append",
        durable.fsyncs() as f64 / durable.appends() as f64,
    ));
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("remove WAL probe directory");
}

fn ssi_probes(rng: &mut SmallRng, out: &mut ProbeResults) {
    // The hot_ssi shape: waves of 256 concurrent transactions, each reading
    // four of 64 hot keys and then writing the first; committed and
    // collected between waves, as the 2 ms GC tick does.
    const WAVE: usize = 256;
    let ssi = SsiNode::new(
        HotPathConfig::tuned().index_stripes,
        &MetricsRegistry::new(),
    );
    let shard = ShardId(0);
    let mut seq = 0u64;
    let (mut read_batches, mut write_batches) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let (mut read_ns, mut reads, mut write_ns, mut writes) = (0u128, 0u64, 0u128, 0u64);
        for _ in 0..CALLS / (4 * WAVE) {
            let wave: Vec<(Arc<SsiTxn>, [u64; 4])> = (0..WAVE)
                .map(|_| {
                    seq += 1;
                    let keys = std::array::from_fn(|_| rng.gen_range(0..HOT_SET));
                    (
                        SsiTxn::new(TxnId::new(NodeId(0), seq), Timestamp(seq + 10)),
                        keys,
                    )
                })
                .collect();
            let t = Instant::now();
            for (txn, keys) in &wave {
                for key in keys {
                    ssi.on_read(txn, shard, *key)
                        .expect("no committed pivot among readers");
                }
            }
            read_ns += t.elapsed().as_nanos();
            reads += 4 * WAVE as u64;
            let t = Instant::now();
            for (txn, keys) in &wave {
                ssi.on_write(txn, shard, keys[0])
                    .expect("no committed pivot among readers");
            }
            write_ns += t.elapsed().as_nanos();
            writes += WAVE as u64;
            for (txn, _) in &wave {
                txn.mark_committed(Timestamp(seq + 10));
            }
            ssi.gc(Timestamp::MAX);
        }
        read_batches.push(read_ns as f64 / reads as f64);
        write_batches.push(write_ns as f64 / writes as f64);
    }
    out.push(("txn.ssi_on_read_ns", median(&read_batches)));
    out.push(("txn.ssi_on_write_ns", median(&write_batches)));
}

/// Runs every layer probe. `scratch` is an existing directory inside the
/// checkout for the file-WAL probe.
pub fn run_all(seed: u64, scratch: &Path) -> ProbeResults {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    clock_probes(&mut out);
    shard_probes(&mut rng, &mut out);
    storage_probes(&mut rng, &mut out);
    cluster_probes(&mut rng, &mut out);
    wal_probes(scratch, &mut out);
    ssi_probes(&mut rng, &mut out);
    out
}
