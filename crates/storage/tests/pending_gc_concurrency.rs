//! Write-driven GC under concurrency, sized for the nightly ThreadSanitizer
//! job: writers that update, abort, delete and re-insert race two collectors
//! (a budgeted `gc_step` loop and an unbudgeted `vacuum` loop) draining the
//! same pending sets, under a reader whose snapshot pins the watermark.
//! Whatever the interleaving, no enqueue may be lost: once the writers stop,
//! draining leaves exactly one version per key and nothing pending.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use remus_common::{NodeId, Timestamp, TxnId};
use remus_storage::{Clog, Value, VersionedTable};

const T: Duration = Duration::from_secs(5);
const KEYS: u64 = 64;
const ROUNDS: u64 = 300;

struct World {
    table: VersionedTable,
    clog: Clog,
    ts: AtomicU64,
    /// The reader's active snapshot (`u64::MAX` = none): the single-reader
    /// equivalent of the cluster's snapshot registry.
    active: AtomicU64,
    stop: AtomicBool,
}

impl World {
    fn tick(&self) -> Timestamp {
        Timestamp(self.ts.fetch_add(1, Ordering::SeqCst))
    }

    /// Never above the reader's snapshot. The clock is read first, so a
    /// snapshot taken after it is at or above the result.
    fn watermark(&self) -> Timestamp {
        let now = self.ts.load(Ordering::SeqCst);
        Timestamp(now.min(self.active.load(Ordering::SeqCst)))
    }

    /// One transaction on `key`: `f` writes, then it commits or aborts.
    fn txn(&self, xid: TxnId, key: u64, commit: bool, f: impl FnOnce(TxnId, Timestamp)) {
        self.clog.begin(xid);
        f(xid, self.tick());
        if commit {
            self.clog.set_committed(xid, self.tick()).unwrap();
        } else {
            self.clog.set_aborted(xid);
            self.table.purge_txn([key], xid);
        }
    }
}

fn value(key: u64, round: u64) -> Value {
    Value::from(format!("k{key}r{round}").into_bytes())
}

#[test]
fn concurrent_writers_and_two_collectors_lose_no_enqueue() {
    let world = Arc::new(World {
        table: VersionedTable::with_stripes(8),
        clog: Clog::new(),
        ts: AtomicU64::new(10),
        active: AtomicU64::new(u64::MAX),
        stop: AtomicBool::new(false),
    });
    for key in 0..KEYS {
        world.txn(TxnId::new(NodeId(7), key + 1), key, true, |x, at| {
            let (t, clog) = (&world.table, &world.clog);
            t.insert(key, value(key, 0), x, at, clog, T).unwrap();
        });
    }
    // Everyone starts together, so the collectors race the first writes too.
    let start = Arc::new(Barrier::new(5));

    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (world, start) = (Arc::clone(&world), Arc::clone(&start));
            std::thread::spawn(move || {
                let (t, clog) = (&world.table, &world.clog);
                let mut seq = 0;
                let mut xid = || {
                    seq += 1;
                    TxnId::new(NodeId(w as u32), seq)
                };
                start.wait();
                for round in 1..=ROUNDS {
                    for key in (w..KEYS).step_by(2) {
                        let v = value(key, round);
                        match (round + key / 2) % 4 {
                            // Committed update: one live version becomes two.
                            0 | 1 => world.txn(xid(), key, true, |x, at| {
                                t.update(key, v, x, at, clog, T).unwrap();
                            }),
                            // Aborted update: pending, then clean again.
                            2 => world.txn(xid(), key, false, |x, at| {
                                t.update(key, v, x, at, clog, T).unwrap();
                            }),
                            // Delete, then re-insert over the tombstone (or
                            // over the key GC already unmapped).
                            _ => {
                                world.txn(xid(), key, true, |x, at| {
                                    t.delete(key, x, at, clog, T).unwrap();
                                });
                                world.txn(xid(), key, true, |x, at| {
                                    t.insert(key, v, x, at, clog, T).unwrap();
                                });
                            }
                        }
                    }
                }
            })
        })
        .collect();

    let collectors: Vec<_> = [16, usize::MAX]
        .into_iter()
        .map(|budget| {
            let (world, start) = (Arc::clone(&world), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut pruned = 0;
                while !world.stop.load(Ordering::SeqCst) {
                    let step = world.table.gc_step(world.watermark(), &world.clog, budget);
                    pruned += step.pruned;
                }
                pruned
            })
        })
        .collect();

    let reader = {
        let (world, start) = (Arc::clone(&world), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for i in 0..400u64 {
                let snap = world.tick();
                world.active.store(snap.0, Ordering::SeqCst);
                let me = TxnId::new(NodeId(8), i + 1);
                let key = i % KEYS;
                let first = world.table.read(key, snap, me, &world.clog, T).unwrap();
                std::thread::yield_now();
                let again = world.table.read(key, snap, me, &world.clog, T).unwrap();
                world.active.store(u64::MAX, Ordering::SeqCst);
                assert_eq!(first, again, "snapshot read of key {key} changed under GC");
            }
        })
    };

    for h in writers {
        h.join().unwrap();
    }
    reader.join().unwrap();
    world.stop.store(true, Ordering::SeqCst);
    let pruned: usize = collectors.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(pruned > 0, "collectors racing writers should prune");

    // Quiesced: whatever is still pending is due now; one drain empties it.
    let end = world.tick();
    world.table.vacuum(end, &world.clog);
    assert_eq!(world.table.gc_step(end, &world.clog, usize::MAX).scanned, 0);
    let stats = world.table.stats();
    assert_eq!(
        (stats.keys, stats.versions, stats.max_chain),
        (KEYS as usize, KEYS as usize, 1),
        "a chain that needed GC was not pending"
    );
}
