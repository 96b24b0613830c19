//! The four workloads and their seeded operation generators.
//!
//! A generator is a pure function of `(workload, seed, connection)`: it
//! never looks at the database, so the program under test only ever sees
//! the generated operations and the same seed replays the same inputs.

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Connections (= load-generator threads). The sandbox has two cores.
pub const CONNS: usize = 2;

/// YCSB table size: far larger than the last-level cache, so index walk,
/// version chain, Clog and WAL append do the work.
pub const YCSB_KEYS: u64 = 2_000_000;
/// YCSB shards, placed round-robin over the four nodes.
pub const YCSB_SHARDS: u32 = 48;
/// YCSB and TPC-C row payload.
pub const VALUE_LEN: usize = 64;
/// One in this many YCSB keys is tracked for the lost-update check.
pub const YCSB_TRACK_EVERY: u64 = 256;

/// TPC-C scale.
pub const TPCC_WAREHOUSES: u64 = 24;
/// Districts per warehouse.
pub const TPCC_DISTRICTS: u64 = 10;
/// Customers per district.
pub const TPCC_CUSTOMERS: u64 = 300;
/// Stock items per warehouse.
pub const TPCC_ITEMS: u64 = 2_000;
/// Share of new-order and payment transactions touching a remote
/// warehouse (and so committing through 2PC).
pub const TPCC_REMOTE: f64 = 0.10;

/// `hot_ssi` table size (cache-resident).
pub const HOT_KEYS: u64 = 2_048;
/// `hot_ssi` shards, one per node.
pub const HOT_SHARDS: u32 = 4;
/// Keys every `hot_ssi` transaction draws from.
pub const HOT_SET: u64 = 64;
/// Point reads per `hot_ssi` transaction.
pub const HOT_READS: usize = 4;

/// The benchmark's workloads. Each runs in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// YCSB 50/50 uniform, closed loop, no migration.
    YcsbSteady,
    /// Same data and mix at a fixed 20 000 txn/s under continuous Remus
    /// ping-pong migration.
    YcsbMigrate,
    /// Compact TPC-C under DTS with 10 % remote (2PC) transactions.
    TpccSteady,
    /// Serializable read-modify-write over 64 hot keys.
    HotSsi,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::YcsbSteady,
        Workload::YcsbMigrate,
        Workload::TpccSteady,
        Workload::HotSsi,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbSteady => "ycsb_steady",
            Workload::YcsbMigrate => "ycsb_migrate",
            Workload::TpccSteady => "tpcc_steady",
            Workload::HotSsi => "hot_ssi",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `Some((period, burst))` when the workload is paced: every connection
    /// wakes each `period` and issues `burst` back-to-back transactions.
    /// `None` is a closed loop with zero think time.
    pub fn pacing(self) -> Option<(std::time::Duration, u32)> {
        match self {
            // 2 connections x 10 txn / 1 ms = 20 000 txn/s. Sleeping between
            // bursts (not spinning) leaves the second core to the migration.
            Workload::YcsbMigrate => Some((std::time::Duration::from_millis(1), 10)),
            _ => None,
        }
    }

    /// The coordinator node (`0..nodes`) connection `conn` connects to.
    /// Connections spread over the nodes, except under `hot_ssi`: with
    /// per-node GTS leases a snapshot taken on another node is up to 64
    /// timestamps stale, every commit in that gap counts as concurrent,
    /// and serializable retries of a hot transaction starve until the
    /// lease block runs out. One coordinator keeps snapshots in real-time
    /// order, so the aborts measured are SSI's own.
    pub fn coordinator(self, conn: usize, nodes: u32) -> u32 {
        match self {
            Workload::HotSsi => 0,
            _ => conn as u32 % nodes,
        }
    }

    /// True when shards migrate during the measured window.
    pub fn migrates_in_window(self) -> bool {
        self == Workload::YcsbMigrate
    }
}

/// One stock line of a new-order: `(supplying warehouse, item)`.
pub type OrderLine = (u64, u64);

/// One logical transaction, as plain data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// YCSB point read.
    Read {
        /// Key to read.
        key: u64,
    },
    /// YCSB blind update; the payload carries `tag`.
    Update {
        /// Key to update.
        key: u64,
        /// `(connection << 56) | sequence`, unique per update.
        tag: u64,
    },
    /// TPC-C new-order.
    NewOrder {
        /// Home warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
        /// Order id, from the generator's per-district sequence.
        o: u64,
        /// Stock lines, ascending by `(warehouse, item)` and distinct, so
        /// two new-orders always lock stock rows in the same global order.
        lines: Vec<OrderLine>,
    },
    /// TPC-C payment.
    Payment {
        /// Home warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer's warehouse (10 % remote).
        cw: u64,
        /// Customer's district.
        cd: u64,
        /// Customer.
        c: u64,
        /// History row key, unique per connection.
        h: u64,
    },
    /// TPC-C order-status (read-only).
    OrderStatus {
        /// Home warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
        /// An order the generator already issued in this district, if any.
        o: Option<u64>,
    },
    /// `hot_ssi`: read `reads`, then write the first one's value plus one.
    HotRmw {
        /// Distinct hot keys; the first one is incremented.
        reads: [u64; HOT_READS],
    },
}

/// A seeded operation stream for one connection of one workload.
#[derive(Debug, Clone)]
pub struct OpGen {
    workload: Workload,
    conn: u64,
    rng: SmallRng,
    seq: u64,
    /// TPC-C: next order id per `(home warehouse slot, district)`.
    next_order: Vec<u64>,
}

impl OpGen {
    /// The stream of connection `conn` (`0..CONNS`) under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (workload.name(), seed, conn as u64).hash(&mut h);
        OpGen {
            workload,
            conn: conn as u64,
            rng: SmallRng::seed_from_u64(h.finish()),
            seq: 0,
            next_order: vec![1; (TPCC_WAREHOUSES * TPCC_DISTRICTS) as usize],
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.seq += 1;
        match self.workload {
            Workload::YcsbSteady | Workload::YcsbMigrate => self.ycsb(),
            Workload::TpccSteady => self.tpcc(),
            Workload::HotSsi => self.hot(),
        }
    }

    fn ycsb(&mut self) -> Op {
        let key = self.rng.gen_range(0..YCSB_KEYS);
        if self.rng.gen_bool(0.5) {
            Op::Read { key }
        } else {
            Op::Update {
                key,
                tag: (self.conn << 56) | self.seq,
            }
        }
    }

    /// A warehouse this connection owns: `w % CONNS == conn`. Two
    /// connections sharing a home warehouse deadlock on its district rows
    /// until `lock_wait_timeout`.
    fn home_warehouse(&mut self) -> u64 {
        let slots = TPCC_WAREHOUSES / CONNS as u64;
        self.rng.gen_range(0..slots) * CONNS as u64 + self.conn
    }

    fn remote_warehouse(&mut self, home: u64) -> u64 {
        loop {
            let w = self.rng.gen_range(0..TPCC_WAREHOUSES);
            if w != home {
                return w;
            }
        }
    }

    fn tpcc(&mut self) -> Op {
        let w = self.home_warehouse();
        let d = self.rng.gen_range(0..TPCC_DISTRICTS);
        let c = self.rng.gen_range(0..TPCC_CUSTOMERS);
        let dice: f64 = self.rng.gen();
        let district = (w * TPCC_DISTRICTS + d) as usize;
        if dice < 0.45 {
            let o = self.next_order[district];
            self.next_order[district] += 1;
            let remote = self.rng.gen_bool(TPCC_REMOTE);
            let n = self.rng.gen_range(5..=15usize);
            let mut lines: Vec<OrderLine> = (0..n)
                .map(|line| {
                    let supply = if remote && line == 0 {
                        self.remote_warehouse(w)
                    } else {
                        w
                    };
                    (supply, self.rng.gen_range(0..TPCC_ITEMS))
                })
                .collect();
            lines.sort_unstable();
            lines.dedup();
            Op::NewOrder { w, d, c, o, lines }
        } else if dice < 0.88 {
            let (cw, cd) = if self.rng.gen_bool(TPCC_REMOTE) {
                (
                    self.remote_warehouse(w),
                    self.rng.gen_range(0..TPCC_DISTRICTS),
                )
            } else {
                (w, d)
            };
            Op::Payment {
                w,
                d,
                cw,
                cd,
                c,
                h: (self.conn << 48) | self.seq,
            }
        } else {
            let issued = self.next_order[district];
            let o = (issued > 1).then(|| self.rng.gen_range(1..issued));
            Op::OrderStatus { w, d, c, o }
        }
    }

    /// Four distinct hot keys; the first, which is incremented, is one this
    /// connection owns (`key % CONNS == conn`). Reads cross connections, so
    /// rw-antidependencies and pivots form, but two transactions never
    /// write one key concurrently: `check_write` in `remus-storage` reads a
    /// writer's Clog status twice and panics (`unreachable!("filtered
    /// above")`) when that writer aborts between the reads.
    fn hot(&mut self) -> Op {
        let owned = HOT_SET / CONNS as u64;
        let mut reads = [self.rng.gen_range(0..owned) * CONNS as u64 + self.conn; HOT_READS];
        let mut n = 1;
        while n < HOT_READS {
            let k = self.rng.gen_range(0..HOT_SET);
            if !reads[..n].contains(&k) {
                reads[n] = k;
                n += 1;
            }
        }
        Op::HotRmw { reads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash of the first `n` operations of every connection of `workload`
    /// under `seed`. `DefaultHasher::new()` uses fixed keys, so the value
    /// does not change from process to process.
    fn stream_hash(workload: Workload, seed: u64, n: usize) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for conn in 0..CONNS {
            let mut gen = OpGen::new(workload, seed, conn);
            for _ in 0..n {
                gen.next_op().hash(&mut h);
            }
        }
        h.finish()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = stream_hash(w, 7, 100_000);
            assert_eq!(a, stream_hash(w, 7, 100_000), "{} not replayable", w.name());
            assert_ne!(a, stream_hash(w, 8, 100_000), "{} ignores seed", w.name());
        }
    }

    #[test]
    fn connections_draw_different_streams() {
        let mut a = OpGen::new(Workload::YcsbSteady, 1, 0);
        let mut b = OpGen::new(Workload::YcsbSteady, 1, 1);
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 10);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tpcc_homes_are_disjoint_and_lines_sorted() {
        for conn in 0..CONNS {
            let mut gen = OpGen::new(Workload::TpccSteady, 3, conn);
            for _ in 0..20_000 {
                match gen.next_op() {
                    Op::NewOrder { w, lines, .. } => {
                        assert_eq!(w as usize % CONNS, conn);
                        assert!(lines.windows(2).all(|p| p[0] < p[1]));
                        assert!((1..=15).contains(&lines.len()));
                    }
                    Op::Payment { w, .. } | Op::OrderStatus { w, .. } => {
                        assert_eq!(w as usize % CONNS, conn);
                    }
                    other => panic!("not a TPC-C op: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tpcc_order_ids_are_dense_per_district() {
        let mut gen = OpGen::new(Workload::TpccSteady, 5, 0);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..50_000 {
            if let Op::NewOrder { w, d, o, .. } = gen.next_op() {
                let next = seen.entry((w, d)).or_insert(1u64);
                assert_eq!(o, *next);
                *next += 1;
            }
        }
    }

    #[test]
    fn order_status_only_names_issued_orders() {
        let mut gen = OpGen::new(Workload::TpccSteady, 9, 1);
        let mut issued = std::collections::HashMap::new();
        for _ in 0..50_000 {
            match gen.next_op() {
                Op::NewOrder { w, d, o, .. } => {
                    issued.insert((w, d), o);
                }
                Op::OrderStatus {
                    w, d, o: Some(o), ..
                } => {
                    assert!(o <= issued[&(w, d)]);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn hot_reads_are_distinct_and_the_written_key_is_owned() {
        for conn in 0..CONNS {
            let mut gen = OpGen::new(Workload::HotSsi, 1, conn);
            for _ in 0..10_000 {
                let Op::HotRmw { reads } = gen.next_op() else {
                    panic!("not a hot op");
                };
                assert_eq!(reads[0] as usize % CONNS, conn, "written key is owned");
                for (i, k) in reads.iter().enumerate() {
                    assert!(*k < HOT_SET);
                    assert!(!reads[..i].contains(k));
                }
            }
        }
    }
}
