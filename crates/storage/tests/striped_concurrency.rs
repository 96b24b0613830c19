//! Concurrency properties of the striped key index, sized for the nightly
//! ThreadSanitizer job: writers spread across stripes, ordered scans that
//! merge stripes mid-write, and incremental GC racing foreground traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_common::{NodeId, Timestamp, TxnId};
use remus_storage::{Clog, Value, VersionedTable};

const T: Duration = Duration::from_secs(5);

/// Commits one write through the full begin/write/commit protocol.
fn commit_write(
    table: &VersionedTable,
    clog: &Clog,
    key: u64,
    xid: TxnId,
    ts: &AtomicU64,
    insert: bool,
) {
    let start = Timestamp(ts.fetch_add(1, Ordering::SeqCst));
    clog.begin(xid);
    let value = Value::from(format!("k{key}").into_bytes());
    if insert {
        table.insert(key, value, xid, start, clog, T).unwrap();
    } else {
        table.update(key, value, xid, start, clog, T).unwrap();
    }
    let cts = Timestamp(ts.fetch_add(1, Ordering::SeqCst));
    clog.set_committed(xid, cts).unwrap();
}

#[test]
fn writers_scans_and_point_reads_race_across_stripes() {
    let table = Arc::new(VersionedTable::with_stripes(8));
    let clog = Arc::new(Clog::new());
    let ts = Arc::new(AtomicU64::new(10));

    const WRITERS: u64 = 4;
    const KEYS_PER_WRITER: u64 = 200;
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
            std::thread::spawn(move || {
                let mut seq = 1;
                // Writer `w` owns keys congruent to `w` mod WRITERS: no
                // write-write conflicts, but every stripe sees every writer.
                for k in 0..KEYS_PER_WRITER {
                    let key = k * WRITERS + w;
                    for round in 0..3 {
                        let xid = TxnId::new(NodeId(w as u32), seq);
                        seq += 1;
                        commit_write(&table, &clog, key, xid, &ts, round == 0);
                    }
                }
            })
        })
        .collect();
    let scanners: Vec<_> = (0..2)
        .map(|r| {
            let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
            std::thread::spawn(move || {
                for i in 0..40u64 {
                    let snap = Timestamp(ts.load(Ordering::SeqCst));
                    let mut last = None;
                    table
                        .scan(.., snap, TxnId::INVALID, &clog, T, |k, v| {
                            assert!(last < Some(k), "scan must be key-ordered across stripes");
                            last = Some(k);
                            assert_eq!(v, Value::from(format!("k{k}").into_bytes()));
                        })
                        .unwrap();
                    // Interleave point reads of keys that must exist by now.
                    let probe = (i * 7 + r) % WRITERS;
                    let _ = table
                        .read(probe, snap, TxnId::new(NodeId(9), i + 1), &clog, T)
                        .unwrap();
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(scanners) {
        h.join().unwrap();
    }
    // Every key landed and reads the final value.
    let snap = Timestamp(ts.load(Ordering::SeqCst));
    for key in 0..WRITERS * KEYS_PER_WRITER {
        assert_eq!(
            table
                .read(key, snap, TxnId::new(NodeId(9), 10_000 + key), &clog, T)
                .unwrap(),
            Some(Value::from(format!("k{key}").into_bytes()))
        );
    }
}

#[test]
fn incremental_gc_races_writers_without_losing_visible_versions() {
    let table = Arc::new(VersionedTable::with_stripes(8));
    let clog = Arc::new(Clog::new());
    let ts = Arc::new(AtomicU64::new(10));
    let stop = Arc::new(AtomicU64::new(0));
    // The reader's currently active snapshot (u64::MAX = none), the
    // single-reader equivalent of the cluster's snapshot registry: the GC
    // watermark never passes it.
    let active = Arc::new(AtomicU64::new(u64::MAX));

    const KEYS: u64 = 64;
    // Seed every key so readers always expect a value.
    for key in 0..KEYS {
        let xid = TxnId::new(NodeId(7), key + 1);
        commit_write(&table, &clog, key, xid, &ts, true);
    }

    // What GC has pruned so far. The writers run 200 rounds and then on
    // until GC has pruned once (up to a deadline), so a GC thread the
    // scheduler starts late still races them.
    let pruned_so_far = Arc::new(AtomicU64::new(0));
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
            let pruned_so_far = Arc::clone(&pruned_so_far);
            std::thread::spawn(move || {
                let mut seq = 1;
                for round in 0u64.. {
                    for k in 0..KEYS / 2 {
                        let key = k * 2 + w;
                        let xid = TxnId::new(NodeId(w as u32), seq);
                        seq += 1;
                        commit_write(&table, &clog, key, xid, &ts, false);
                    }
                    let raced = pruned_so_far.load(Ordering::SeqCst) > 0;
                    if round >= 199 && (raced || std::time::Instant::now() >= deadline) {
                        break;
                    }
                }
            })
        })
        .collect();
    let gc = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let (stop, active) = (Arc::clone(&stop), Arc::clone(&active));
        let pruned_so_far = Arc::clone(&pruned_so_far);
        std::thread::spawn(move || {
            let mut pruned = 0usize;
            while stop.load(Ordering::SeqCst) == 0 {
                // Lag the watermark behind the clock and never pass the
                // reader's registered snapshot.
                let lagged = ts.load(Ordering::SeqCst).saturating_sub(512);
                let watermark = Timestamp(lagged.min(active.load(Ordering::SeqCst)));
                pruned += table.gc_step(watermark, &clog, 128).pruned;
                pruned_so_far.store(pruned as u64, Ordering::SeqCst);
            }
            pruned
        })
    };
    let reader = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let active = Arc::clone(&active);
        std::thread::spawn(move || {
            for i in 0..2000u64 {
                let snap = Timestamp(ts.fetch_add(1, Ordering::SeqCst));
                active.store(snap.0, Ordering::SeqCst);
                let key = i % KEYS;
                let got = table
                    .read(key, snap, TxnId::new(NodeId(8), i + 1), &clog, T)
                    .unwrap();
                active.store(u64::MAX, Ordering::SeqCst);
                assert!(got.is_some(), "seeded key {key} vanished under GC");
            }
        })
    };
    for h in writers {
        h.join().unwrap();
    }
    reader.join().unwrap();
    stop.store(1, Ordering::SeqCst);
    let pruned = gc.join().unwrap();
    assert!(
        pruned > 0,
        "GC racing writers should prune shadowed versions"
    );
    // Quiesced: one final full sweep leaves exactly one version per key.
    let final_watermark = Timestamp(ts.load(Ordering::SeqCst));
    table.gc_step(final_watermark, &clog, usize::MAX);
    table.gc_step(final_watermark, &clog, usize::MAX);
    assert_eq!(table.stats().versions, KEYS as usize);
}

#[test]
fn a_growing_stripe_rehashes_under_readers_a_scanner_and_gc() {
    // Two stripes and 3 000 ascending keys: each stripe's slots double ten
    // times (4 -> 4 096) while everything else is in flight, and the keys a
    // deleter takes out again are unmapped — the run behind them shifted
    // back — between two doublings.
    const KEYS: u64 = 3_000;
    const LAG: u64 = 512;
    let doomed = |key: u64| key % 7 == 5;
    let table = Arc::new(VersionedTable::with_stripes(2));
    let clog = Arc::new(Clog::new());
    let ts = Arc::new(AtomicU64::new(10));
    // Keys `0..inserted` are committed; keys `0..rewritten` also had their
    // second write (an update, or the delete of a doomed key).
    let inserted = Arc::new(AtomicU64::new(0));
    let rewritten = Arc::new(AtomicU64::new(0));
    // Versions the GC thread freed so far.
    let pruned = Arc::new(AtomicU64::new(0));
    // Active snapshots of the two readers and the scanner (u64::MAX = none).
    let active: Arc<[AtomicU64; 3]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(u64::MAX)));
    let snapshot = |ts: &AtomicU64, slot: &AtomicU64| {
        let snap = ts.fetch_add(1, Ordering::SeqCst);
        slot.store(snap, Ordering::SeqCst);
        Timestamp(snap)
    };

    let inserter = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let inserted = Arc::clone(&inserted);
        std::thread::spawn(move || {
            for key in 0..KEYS {
                commit_write(
                    &table,
                    &clog,
                    key,
                    TxnId::new(NodeId(0), key + 1),
                    &ts,
                    true,
                );
                inserted.store(key + 1, Ordering::SeqCst);
            }
        })
    };
    let rewriter = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let (inserted, rewritten) = (Arc::clone(&inserted), Arc::clone(&rewritten));
        let pruned = Arc::clone(&pruned);
        std::thread::spawn(move || {
            for key in 0..KEYS {
                while inserted.load(Ordering::SeqCst) <= key {
                    std::thread::yield_now();
                }
                // GC stops once the last key is rewritten: hold that key
                // back until GC has freed something, or for a bounded time.
                if key == KEYS - 1 {
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while pruned.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                }
                let xid = TxnId::new(NodeId(1), key + 1);
                if doomed(key) {
                    let start = Timestamp(ts.fetch_add(1, Ordering::SeqCst));
                    clog.begin(xid);
                    table.delete(key, xid, start, &clog, T).unwrap();
                    let cts = Timestamp(ts.fetch_add(1, Ordering::SeqCst));
                    clog.set_committed(xid, cts).unwrap();
                } else {
                    commit_write(&table, &clog, key, xid, &ts, false);
                }
                rewritten.store(key + 1, Ordering::SeqCst);
            }
        })
    };
    let gc = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let (active, rewritten, pruned) = (
            Arc::clone(&active),
            Arc::clone(&rewritten),
            Arc::clone(&pruned),
        );
        std::thread::spawn(move || {
            while rewritten.load(Ordering::SeqCst) < KEYS {
                // The clock first: a snapshot taken after it is above the lag.
                let lagged = ts.load(Ordering::SeqCst).saturating_sub(LAG);
                let pinned = active.iter().map(|a| a.load(Ordering::SeqCst)).min();
                let watermark = Timestamp(lagged.min(pinned.unwrap_or(u64::MAX)));
                let freed = table.gc_step(watermark, &clog, 64).pruned;
                pruned.fetch_add(freed as u64, Ordering::SeqCst);
            }
            pruned.load(Ordering::SeqCst)
        })
    };
    let readers: Vec<_> = (0..2usize)
        .map(|r| {
            let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
            let (active, inserted) = (Arc::clone(&active), Arc::clone(&inserted));
            std::thread::spawn(move || {
                let mut i = r as u64;
                while inserted.load(Ordering::SeqCst) < KEYS {
                    let committed = inserted.load(Ordering::SeqCst);
                    let snap = snapshot(&ts, &active[r]);
                    i = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let key = (i >> 33) % committed.max(1);
                    let reader = TxnId::new(NodeId(8 + r as u32), i >> 20);
                    let got = table.read(key, snap, reader, &clog, T).unwrap();
                    active[r].store(u64::MAX, Ordering::SeqCst);
                    if committed > 0 && !doomed(key) {
                        let want = Value::from(format!("k{key}").into_bytes());
                        assert_eq!(got, Some(want), "key {key} lost while its stripe grew");
                    }
                }
            })
        })
        .collect();
    let scanner = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let (active, inserted) = (Arc::clone(&active), Arc::clone(&inserted));
        std::thread::spawn(move || {
            while inserted.load(Ordering::SeqCst) < KEYS {
                let committed = inserted.load(Ordering::SeqCst);
                let snap = snapshot(&ts, &active[2]);
                let mut seen = Vec::new();
                table
                    .scan(.., snap, TxnId::INVALID, &clog, T, |k, _| seen.push(k))
                    .unwrap();
                active[2].store(u64::MAX, Ordering::SeqCst);
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan out of order");
                // Every key committed before the snapshot and not deleted.
                let mut seen = seen.into_iter().filter(|k| !doomed(*k)).peekable();
                for key in (0..committed).filter(|k| !doomed(*k)) {
                    assert_eq!(seen.next(), Some(key), "scan skipped a mapped key");
                }
            }
        })
    };
    inserter.join().unwrap();
    for h in readers.into_iter().chain([scanner, rewriter]) {
        h.join().unwrap();
    }
    assert!(
        gc.join().unwrap() > 0,
        "GC racing the rehashes pruned nothing"
    );
    // Quiesced: the doomed keys are unmapped, every other key has one
    // version and reads its value.
    let end = Timestamp(ts.load(Ordering::SeqCst));
    table.vacuum(end, &clog);
    let live = (0..KEYS).filter(|k| !doomed(*k)).count();
    let stats = table.stats();
    assert_eq!((stats.keys, stats.versions), (live, live));
    for key in 0..KEYS {
        let got = table.read(key, end, TxnId::new(NodeId(9), key + 1), &clog, T);
        let want = (!doomed(key)).then(|| Value::from(format!("k{key}").into_bytes()));
        assert_eq!(got.unwrap(), want, "key {key}");
    }
}
