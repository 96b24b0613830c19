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

    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
            std::thread::spawn(move || {
                let mut seq = 1;
                for round in 0..200u64 {
                    for k in 0..KEYS / 2 {
                        let key = k * 2 + w;
                        let xid = TxnId::new(NodeId(w as u32), seq);
                        seq += 1;
                        commit_write(&table, &clog, key, xid, &ts, false);
                    }
                    let _ = round;
                }
            })
        })
        .collect();
    let gc = {
        let (table, clog, ts) = (Arc::clone(&table), Arc::clone(&clog), Arc::clone(&ts));
        let (stop, active) = (Arc::clone(&stop), Arc::clone(&active));
        std::thread::spawn(move || {
            let mut pruned = 0usize;
            while stop.load(Ordering::SeqCst) == 0 {
                // Lag the watermark behind the clock and never pass the
                // reader's registered snapshot.
                let lagged = ts.load(Ordering::SeqCst).saturating_sub(512);
                let watermark = Timestamp(lagged.min(active.load(Ordering::SeqCst)));
                pruned += table.gc_step(watermark, &clog, 128).pruned;
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
