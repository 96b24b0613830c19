//! The key index behind `VersionedTable` — a hash table of slots for point
//! access, ordered keys beside it for scans — against a `BTreeMap`: whatever
//! is mapped, unmapped, mapped again or grown into, a point lookup, an
//! ordered scan and `chunk_splits` answer as the map does. Everything goes
//! through the table's public methods, so the index stays private.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use remus_common::{NodeId, Timestamp, TxnId};
use remus_storage::{Clog, Value, VersionedTable};

const T: Duration = Duration::from_secs(1);
const READER: TxnId = TxnId::new(NodeId(9), 1);

/// Keys an operation can name: a dense run (neighbouring slots collide and
/// runs form), the same run far up the key space, and a few wide keys.
fn key_of(pick: u16) -> u64 {
    let k = pick as u64 % 160;
    match pick / 160 % 3 {
        0 => k,
        1 => (k << 32) | 7,
        _ => k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn universe() -> impl Iterator<Item = u64> {
    (0..480u16).map(key_of)
}

#[derive(Debug, Clone)]
enum IndexOp {
    /// `install_frozen`: maps the key, or replaces what it maps to.
    Map(u16, u8),
    /// Delete, commit, vacuum past it: GC unmaps the key.
    Unmap(u16),
}

fn op_strategy() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| IndexOp::Map(k, v)),
        1 => any::<u16>().prop_map(IndexOp::Unmap),
    ]
}

/// Every `chunk`-th key of the model, the first excluded.
fn model_splits(model: &BTreeMap<u64, u8>, chunk: usize) -> Vec<u64> {
    let keys = model.keys().copied().enumerate();
    keys.filter(|(i, _)| *i != 0 && i % chunk == 0)
        .map(|(_, k)| k)
        .collect()
}

fn assert_matches(table: &VersionedTable, clog: &Clog, model: &BTreeMap<u64, u8>, ts: Timestamp) {
    for key in universe() {
        let got = table.read(key, ts, READER, clog, T).unwrap();
        assert_eq!(got.map(|v| v[0]), model.get(&key).copied(), "key {key}");
    }
    let scanned = table.scan_visible_range(.., ts, clog, T).unwrap();
    let scanned: Vec<(u64, u8)> = scanned.into_iter().map(|(k, v)| (k, v[0])).collect();
    let expected: Vec<(u64, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(scanned, expected, "ordered iteration");
    for chunk in [1, 7, 64] {
        assert_eq!(
            table.chunk_splits(chunk as u64),
            model_splits(model, chunk),
            "chunk_splits({chunk})"
        );
    }
    assert_eq!(table.stats().keys, model.len());
}

/// Runs `ops` on a table of `stripes` stripes; the ordered keys exist from
/// step `scan_from` on (the first scan builds them), so both the keys mapped
/// before they were built and the ones kept up to date since are checked.
fn check_index(ops: Vec<IndexOp>, stripes: usize, scan_from: usize) {
    let (table, clog) = (VersionedTable::with_stripes(stripes), Clog::new());
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    let mut ts = 10u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            IndexOp::Map(pick, v) => {
                table.install_frozen(key_of(pick), Value::from(vec![v]));
                model.insert(key_of(pick), v);
            }
            IndexOp::Unmap(pick) => {
                let (key, xid) = (key_of(pick), TxnId::new(NodeId(0), i as u64 + 1));
                clog.begin(xid);
                let deleted = table.delete(key, xid, Timestamp(ts), &clog, T);
                assert_eq!(deleted.is_ok(), model.remove(&key).is_some(), "key {key}");
                clog.set_committed(xid, Timestamp(ts + 1)).unwrap();
                ts += 2;
                table.vacuum(Timestamp(ts), &clog);
            }
        }
        if i >= scan_from && (i % 8 == 0 || i + 1 == ops.len()) {
            assert_matches(&table, &clog, &model, Timestamp(ts));
        }
    }
    assert_matches(&table, &clog, &model, Timestamp(ts));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn the_index_matches_a_map_under_map_unmap_remap_and_growth(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        stripes in prop_oneof![Just(1usize), Just(3), Just(8)],
        scan_from in 0..400usize,
    ) {
        check_index(ops, stripes, scan_from);
    }
}

#[test]
fn unmapping_every_other_key_of_a_grown_stripe_keeps_the_rest_reachable() {
    // One stripe, ascending keys: the slots double nine times on the way to
    // 2 000 keys; then every other key goes and every remaining run has to
    // close up behind it.
    let (table, clog) = (VersionedTable::new(), Clog::new());
    let mut model = BTreeMap::new();
    for key in 0..2_000u64 {
        table.install_frozen(key, Value::from(vec![key as u8]));
        model.insert(key, key as u8);
    }
    let xid = TxnId::new(NodeId(0), 1);
    clog.begin(xid);
    for key in (0..2_000u64).step_by(2) {
        table.delete(key, xid, Timestamp(10), &clog, T).unwrap();
        model.remove(&key);
    }
    clog.set_committed(xid, Timestamp(11)).unwrap();
    assert_eq!(table.vacuum(Timestamp(12), &clog), 2_000);
    for key in 0..2_000u64 {
        let got = table.read(key, Timestamp(12), READER, &clog, T).unwrap();
        assert_eq!(got.map(|v| v[0]), model.get(&key).copied(), "key {key}");
    }
    assert_eq!(table.chunk_splits(250), vec![501, 1001, 1501]);
    assert_eq!(table.stats().keys, 1_000);
}

/// SplitMix64, as `remus_shard::key_hash` — what `TableLayout::shard_for`
/// ranges over.
fn shard_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn probes_stay_short_on_the_keys_one_ycsb_shard_puts_in_a_stripe() {
    // The benchmark's YCSB table: 2 M keys hashed over 48 shards, each
    // shard's table striped 8 ways — about 5.2 k keys a stripe, all of
    // which agree on the hash range that chose the shard and on the bits
    // that chose the stripe. A slot hash that reused the stripe's bits
    // would give them an eighth of the home slots and runs of thousands; a
    // uniformly random placement of 5.2 k keys in 8 192 slots (load 0.64)
    // has its longest run around 50 to 70, which is what this one measures.
    const SHARDS: u128 = 48;
    for shard in [0u128, 17, 47] {
        let table = VersionedTable::with_stripes(8);
        let keys = (0..2_000_000u64).filter(|k| (shard_hash(*k) as u128 * SHARDS) >> 64 == shard);
        let mut mapped = 0;
        for key in keys {
            table.install_frozen(key, Value::new());
            mapped += 1;
        }
        assert!((40_000..44_000).contains(&mapped), "{mapped} keys");
        let longest = table.max_probe();
        assert!(
            longest <= 128,
            "shard {shard}: a lookup walks {longest} slots"
        );
    }
    // Ascending composite keys (TPC-C's `district << 32 | order`): the high
    // half varies slowly, the low half densely.
    let table = VersionedTable::with_stripes(8);
    for district in 0..10u64 {
        for order in 0..3_000u64 {
            table.install_frozen((district << 32) | order, Value::new());
        }
    }
    let longest = table.max_probe();
    assert!(
        longest <= 32,
        "composite keys: a lookup walks {longest} slots"
    );
}
