//! Cluster set-up, bulk load, and the executor that turns a generated
//! [`Op`] into `SessionTxn` calls.

use std::sync::Arc;
use std::time::Duration;

use remus::clock::OracleKind;
use remus::cluster::{Cluster, ClusterBuilder, SessionTxn};
use remus::common::{
    DbError, DbResult, HotPathConfig, IsolationLevel, NodeId, ShardId, SimConfig, TableId,
};
use remus::shard::TableLayout;
use remus::storage::Value;

use crate::ops::{
    Op, Workload, HOT_KEYS, HOT_SHARDS, TPCC_CUSTOMERS, TPCC_DISTRICTS, TPCC_ITEMS,
    TPCC_WAREHOUSES, VALUE_LEN, YCSB_KEYS, YCSB_SHARDS,
};
use crate::trace::{SpanKind, Tracer};

/// Nodes in every benchmark cluster.
pub const NODES: u32 = 4;
/// Vacuum cadence of the background maintenance thread.
const VACUUM_PERIOD: Duration = Duration::from_millis(500);

/// The eight TPC-C tables, in layout-array order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTable {
    /// One row per warehouse.
    Warehouse = 0,
    /// Ten rows per warehouse.
    District = 1,
    /// `TPCC_CUSTOMERS` rows per district.
    Customer = 2,
    /// `TPCC_ITEMS` rows per warehouse.
    Stock = 3,
    /// Grows: one row per new-order.
    Orders = 4,
    /// Grows: one row per order line.
    OrderLine = 5,
    /// Grows: one row per new-order.
    NewOrder = 6,
    /// Grows: one row per payment.
    History = 7,
}

/// Table layouts of the loaded workload.
#[derive(Debug, Clone)]
pub enum Schema {
    /// One hash-sharded table.
    Ycsb(TableLayout),
    /// Eight tables, each sharded one warehouse per shard and collocated.
    Tpcc([TableLayout; 8]),
    /// One hash-sharded table of `u64` counters.
    Hot(TableLayout),
}

/// A built and loaded cluster.
pub struct Db {
    /// The cluster under test.
    pub cluster: Arc<Cluster>,
    /// Its table layouts.
    pub schema: Schema,
    /// Tuples bulk-loaded.
    pub tuples: u64,
    /// Key plus payload bytes bulk-loaded (the denominator of `space_amp`).
    pub user_bytes: u64,
}

/// Initial owner of a table's `i`-th shard: round-robin over the nodes.
fn placement(i: u32) -> NodeId {
    NodeId(i % NODES)
}

/// A `len`-byte payload whose first eight bytes carry `tag`.
pub fn tagged_value(len: usize, tag: u64) -> Value {
    let mut buf = [0u8; VALUE_LEN];
    buf[..8].copy_from_slice(&tag.to_le_bytes());
    Value::copy_from_slice(&buf[..len])
}

/// The tag of a payload written by [`tagged_value`].
pub fn value_tag(value: &Value) -> u64 {
    u64::from_le_bytes(value[..8].try_into().expect("payload holds a tag"))
}

// TPC-C key encodings. Every table is sharded by warehouse id.
fn district_key(w: u64, d: u64) -> u64 {
    w * TPCC_DISTRICTS + d
}
fn customer_key(w: u64, d: u64, c: u64) -> u64 {
    district_key(w, d) * TPCC_CUSTOMERS + c
}
fn stock_key(w: u64, i: u64) -> u64 {
    w * TPCC_ITEMS + i
}
/// Key of order `o` of district `(w, d)`; the district is the high half.
fn order_key(w: u64, d: u64, o: u64) -> u64 {
    (district_key(w, d) << 32) | o
}
/// The `(w * TPCC_DISTRICTS + d)` index an [`order_key`] belongs to.
pub fn order_key_district(key: u64) -> usize {
    (key >> 32) as usize
}
fn order_line_key(w: u64, d: u64, o: u64, line: u64) -> u64 {
    order_key(w, d, o) * 16 + line
}

/// Bulk-loads tuples straight into their owners' tables, counting them.
struct Loader<'a> {
    cluster: &'a Cluster,
    tuples: u64,
    user_bytes: u64,
}

impl Loader<'_> {
    /// Installs one tuple on the shard's owner. Every tuple gets its own
    /// payload buffer, as rows loaded from a client would.
    fn install(&mut self, layout: &TableLayout, sharding_key: u64, key: u64, value: Value) {
        let shard = layout.shard_for(sharding_key);
        let owner = placement((shard.0 - layout.base) as u32);
        self.tuples += 1;
        self.user_bytes += 8 + value.len() as u64;
        self.cluster
            .node(owner)
            .storage
            .table(shard)
            .expect("shard was just created on its owner")
            .install_frozen(key, value);
    }
}

impl Db {
    /// Builds the four-node cluster of `workload` and bulk-loads it. This
    /// is what `setup_s` times. Background maintenance is not started.
    pub fn build(workload: Workload) -> Db {
        let mut config = SimConfig::instant();
        config.hot_path = HotPathConfig::tuned();
        let (oracle, isolation) = match workload {
            Workload::YcsbSteady | Workload::YcsbMigrate => {
                (OracleKind::Gts, IsolationLevel::SnapshotIsolation)
            }
            Workload::TpccSteady => (OracleKind::Dts, IsolationLevel::SnapshotIsolation),
            Workload::HotSsi => (OracleKind::Gts, IsolationLevel::Serializable),
        };
        let cluster = ClusterBuilder::new(NODES as usize)
            .oracle(oracle)
            .config(config)
            .isolation(isolation)
            .build();
        let mut load = Loader {
            cluster: &cluster,
            tuples: 0,
            user_bytes: 0,
        };
        let schema = match workload {
            Workload::YcsbSteady | Workload::YcsbMigrate => {
                let layout = cluster.create_table(TableId(1), 0, YCSB_SHARDS, placement);
                for key in 0..YCSB_KEYS {
                    load.install(&layout, key, key, tagged_value(VALUE_LEN, 0));
                }
                Schema::Ycsb(layout)
            }
            Workload::TpccSteady => {
                let w = TPCC_WAREHOUSES as u32;
                let layouts: [TableLayout; 8] = std::array::from_fn(|t| {
                    let layout =
                        TableLayout::direct(TableId(100 + t as u32), t as u64 * w as u64, w);
                    cluster.create_table_with_layout(layout, placement)
                });
                let table = |which: TpccTable| &layouts[which as usize];
                let row = || tagged_value(VALUE_LEN, 0);
                for w in 0..TPCC_WAREHOUSES {
                    load.install(table(TpccTable::Warehouse), w, w, row());
                    for d in 0..TPCC_DISTRICTS {
                        load.install(table(TpccTable::District), w, district_key(w, d), row());
                        for c in 0..TPCC_CUSTOMERS {
                            load.install(
                                table(TpccTable::Customer),
                                w,
                                customer_key(w, d, c),
                                row(),
                            );
                        }
                    }
                    for i in 0..TPCC_ITEMS {
                        load.install(table(TpccTable::Stock), w, stock_key(w, i), row());
                    }
                }
                Schema::Tpcc(layouts)
            }
            Workload::HotSsi => {
                let layout = cluster.create_table(TableId(1), 0, HOT_SHARDS, placement);
                for key in 0..HOT_KEYS {
                    load.install(&layout, key, key, tagged_value(8, 0));
                }
                Schema::Hot(layout)
            }
        };
        let (tuples, user_bytes) = (load.tuples, load.user_bytes);
        Db {
            cluster,
            schema,
            tuples,
            user_bytes,
        }
    }

    /// Starts the background maintenance thread (WAL truncation,
    /// incremental GC every 2 ms, vacuum every 500 ms).
    pub fn start_maintenance(&self) -> std::thread::JoinHandle<()> {
        self.cluster.start_maintenance(VACUUM_PERIOD)
    }

    /// The shards `ycsb_migrate` moves between node 0 and node 1: shards 0,
    /// 4, 8 and 12, all placed on node 0, about 41.7 k tuples each.
    pub fn migrating_shards(&self) -> Vec<ShardId> {
        match &self.schema {
            Schema::Ycsb(layout) => (0..4)
                .map(|i| ShardId(layout.base + i * NODES as u64))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Executes `op`'s statements inside `txn`, one span per call.
pub fn execute<T: Tracer>(
    schema: &Schema,
    op: &Op,
    txn: &mut SessionTxn<'_>,
    tr: &mut T,
) -> DbResult<()> {
    match (schema, op) {
        (Schema::Ycsb(layout), Op::Read { key }) => {
            tr.span(SpanKind::Read, || txn.read(layout, *key))?
                .ok_or(DbError::KeyNotFound)?;
        }
        (Schema::Ycsb(layout), Op::Update { key, tag }) => {
            let value = tagged_value(VALUE_LEN, *tag);
            tr.span(SpanKind::Update, || txn.update(layout, *key, value))?;
        }
        (Schema::Tpcc(t), Op::NewOrder { w, d, c, o, lines }) => {
            let (w, d, o) = (*w, *d, *o);
            let table = |which: TpccTable| &t[which as usize];
            let row = |tag: u64| tagged_value(VALUE_LEN, tag);
            tr.span(SpanKind::Read, || {
                txn.read_at(table(TpccTable::Warehouse), w, w)
            })?;
            let ck = customer_key(w, d, *c);
            tr.span(SpanKind::Read, || {
                txn.read_at(table(TpccTable::Customer), w, ck)
            })?;
            tr.span(SpanKind::Update, || {
                txn.update_at(table(TpccTable::District), w, district_key(w, d), row(o))
            })?;
            let ok = order_key(w, d, o);
            tr.span(SpanKind::Insert, || {
                txn.insert_at(table(TpccTable::Orders), w, ok, row(lines.len() as u64))
            })?;
            tr.span(SpanKind::Insert, || {
                txn.insert_at(table(TpccTable::NewOrder), w, ok, row(o))
            })?;
            for (line, (supply, item)) in lines.iter().enumerate() {
                tr.span(SpanKind::Update, || {
                    txn.update_at(
                        table(TpccTable::Stock),
                        *supply,
                        stock_key(*supply, *item),
                        row(o),
                    )
                })?;
                let lk = order_line_key(w, d, o, line as u64);
                tr.span(SpanKind::Insert, || {
                    txn.insert_at(table(TpccTable::OrderLine), w, lk, row(*item))
                })?;
            }
        }
        (Schema::Tpcc(t), Op::Payment { w, d, cw, cd, c, h }) => {
            let table = |which: TpccTable| &t[which as usize];
            let row = || tagged_value(VALUE_LEN, *h);
            tr.span(SpanKind::Update, || {
                txn.update_at(table(TpccTable::Warehouse), *w, *w, row())
            })?;
            tr.span(SpanKind::Update, || {
                txn.update_at(table(TpccTable::District), *w, district_key(*w, *d), row())
            })?;
            tr.span(SpanKind::Update, || {
                txn.update_at(
                    table(TpccTable::Customer),
                    *cw,
                    customer_key(*cw, *cd, *c),
                    row(),
                )
            })?;
            tr.span(SpanKind::Insert, || {
                txn.insert_at(table(TpccTable::History), *w, *h, row())
            })?;
        }
        (Schema::Tpcc(t), Op::OrderStatus { w, d, c, o }) => {
            let ck = customer_key(*w, *d, *c);
            tr.span(SpanKind::Read, || {
                txn.read_at(&t[TpccTable::Customer as usize], *w, ck)
            })?;
            if let Some(o) = o {
                tr.span(SpanKind::Read, || {
                    txn.read_at(&t[TpccTable::Orders as usize], *w, order_key(*w, *d, *o))
                })?;
            }
        }
        (Schema::Hot(layout), Op::HotRmw { reads }) => {
            let mut first = 0;
            for (i, key) in reads.iter().enumerate() {
                let value = tr
                    .span(SpanKind::Read, || txn.read(layout, *key))?
                    .ok_or(DbError::KeyNotFound)?;
                if i == 0 {
                    first = value_tag(&value);
                }
            }
            let value = tagged_value(8, first + 1);
            tr.span(SpanKind::Update, || txn.update(layout, reads[0], value))?;
        }
        (schema, op) => {
            return Err(DbError::Internal(format!(
                "operation {op:?} does not belong to schema {schema:?}"
            )))
        }
    }
    Ok(())
}
