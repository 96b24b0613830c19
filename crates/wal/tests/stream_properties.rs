//! Property and stress tests for the WAL: readers observe exactly the
//! appended sequence, truncation never loses unconsumed records, a
//! concurrent tail keeps up with writers, and the one blocking read
//! (`WalReader::next_batch`) comes back for a record, for its idle period
//! and — promptly, with no wake-up lost — for a stop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use remus_common::{NodeId, Timestamp, TxnId};
use remus_wal::{LogOp, LogRecord, Lsn, TailRead, Wal};

fn rec(seq: u64) -> LogRecord {
    LogRecord::new(TxnId::new(NodeId(0), seq), LogOp::Commit(Timestamp(seq)))
}

proptest! {
    /// Interleave appends with partial reads and prefix truncations at the
    /// reader's position: the reader always sees the exact append order.
    #[test]
    fn reader_sees_exact_order_despite_truncation(
        steps in proptest::collection::vec(0u8..3, 1..200)
    ) {
        let wal = Arc::new(Wal::new());
        let mut reader = wal.reader_from(Lsn::ZERO);
        let mut appended = 0u64;
        let mut read = 0u64;
        for step in steps {
            match step {
                0 => {
                    appended += 1;
                    wal.append(rec(appended));
                }
                1 => {
                    if let Some((lsn, r)) = reader.try_next() {
                        read += 1;
                        prop_assert_eq!(lsn, Lsn(read));
                        prop_assert_eq!(r.xid.seq(), read);
                    } else {
                        prop_assert_eq!(read, appended);
                    }
                }
                _ => {
                    // Truncate everything the reader already consumed.
                    wal.truncate_until(reader.consumed());
                }
            }
        }
        // Drain the rest.
        while let Some((_, r)) = reader.try_next() {
            read += 1;
            prop_assert_eq!(r.xid.seq(), read);
        }
        prop_assert_eq!(read, appended);
    }

    /// flush_lsn always equals the number of appends, regardless of
    /// truncation.
    #[test]
    fn flush_lsn_is_append_count(appends in 0u64..300, cut in 0u64..300) {
        let wal = Wal::new();
        for i in 1..=appends {
            wal.append(rec(i));
        }
        wal.truncate_until(Lsn(cut.min(appends)));
        prop_assert_eq!(wal.flush_lsn(), Lsn(appends));
    }
}

#[test]
fn concurrent_writers_and_tail_reader() {
    let wal = Arc::new(Wal::new());
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    wal.append(LogRecord::new(
                        TxnId::new(NodeId(w as u32), i + 1),
                        LogOp::Abort,
                    ));
                }
            })
        })
        .collect();
    let tail = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || {
            let mut reader = wal.reader_from(Lsn::ZERO);
            let mut per_writer = [0u64; 3];
            let mut total = 0;
            while total < 1500 {
                if let TailRead::Batch(batch) = reader.next_batch(1, Duration::from_secs(5)) {
                    let xid = batch.iter().next().unwrap().1.xid();
                    let w = xid.origin().raw() as usize;
                    // Each writer's own records arrive in its program order.
                    assert_eq!(xid.seq(), per_writer[w] + 1);
                    per_writer[w] += 1;
                    total += 1;
                } else {
                    panic!("tail starved");
                }
            }
            per_writer
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(tail.join().unwrap(), [500, 500, 500]);
    assert_eq!(wal.flush_lsn(), Lsn(1500));
}

/// A parked reader's far-future idle period: a test that sits it out has
/// lost a wake-up.
const PARKED: Duration = Duration::from_secs(30);

/// Runs `next_batch` until it comes back with something other than a batch;
/// returns the LSNs handed out, what ended the run, and how long it took.
fn drain(
    reader: &mut remus_wal::WalReader,
    max: usize,
    idle: Duration,
) -> (Vec<u64>, TailRead, Duration) {
    let t0 = Instant::now();
    let mut seen = Vec::new();
    loop {
        match reader.next_batch(max, idle) {
            TailRead::Batch(batch) => seen.extend(batch.iter().map(|(lsn, _)| lsn.0)),
            end => return (seen, end, t0.elapsed()),
        }
    }
}

#[test]
fn a_parked_reader_is_stopped_at_once() {
    // A timed wait and a flag the loop looks at when the wait returns would
    // sit the 30 s out.
    let wal = Arc::new(Wal::new());
    wal.append(rec(1));
    let mut reader = wal.reader_from(Lsn(1));
    let handle = reader.handle();
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        parked_tx.send(()).unwrap();
        drain(&mut reader, 8, PARKED)
    });
    parked_rx.recv().unwrap();
    // Long enough for the reader to be inside its wait, not only about to.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    handle.stop(Lsn::ZERO);
    let (seen, end, _) = t.join().unwrap();
    assert!(matches!(end, TailRead::Stopped), "{end:?}");
    assert!(seen.is_empty());
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}

#[test]
fn a_stop_lsn_is_honoured_once_it_has_been_handed_out() {
    let wal = Arc::new(Wal::new());
    for n in 1..=3 {
        wal.append(rec(n));
    }
    let mut reader = wal.reader_from(Lsn::ZERO);
    let handle = reader.handle();
    // Two records short of the stop point: the reader hands out what is
    // there and parks for the rest.
    handle.stop(Lsn(5));
    let t = std::thread::spawn(move || drain(&mut reader, 2, PARKED));
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    for n in 4..=7 {
        wal.append(rec(n));
    }
    let (seen, end, _) = t.join().unwrap();
    assert!(matches!(end, TailRead::Stopped), "{end:?}");
    // Everything at or below the stop LSN came first; a batch may run past
    // it (nothing above it is owed), but never out of order.
    assert_eq!(seen[..5], [1, 2, 3, 4, 5]);
    assert!(seen.len() <= 7 && seen.windows(2).all(|w| w[1] == w[0] + 1));
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert_eq!(handle.acked(), Lsn(seen.len() as u64));
}

#[test]
fn a_stop_behind_the_reader_and_a_later_one_both_mean_now() {
    let wal = Arc::new(Wal::new());
    for n in 1..=4 {
        wal.append(rec(n));
    }
    let mut reader = wal.reader_from(Lsn(2));
    let handle = reader.handle();
    assert_eq!(handle.acked(), Lsn(2), "the start position counts as done");
    handle.stop(Lsn(1));
    // A stop only moves earlier: the later target does not re-arm the reader.
    handle.stop(Lsn(4));
    let (seen, end, _) = drain(&mut reader, 8, PARKED);
    assert!(matches!(end, TailRead::Stopped), "{end:?}");
    assert!(seen.is_empty());
}

#[test]
fn idle_fires_after_the_period_with_no_record_and_no_stop() {
    let wal = Arc::new(Wal::new());
    let mut reader = wal.reader_from(Lsn::ZERO);
    let period = Duration::from_millis(30);
    let (seen, end, took) = drain(&mut reader, 8, period);
    assert!(matches!(end, TailRead::Idle), "{end:?}");
    assert!(seen.is_empty());
    assert!(took >= period, "{took:?}");
    // Idle is not terminal: the next call still sees a record.
    wal.append(rec(1));
    assert!(matches!(reader.next_batch(8, period), TailRead::Batch(b) if b.len() == 1));
}

/// 2 000 rounds of "consumer about to park ‖ stop": the stop is published
/// under the log's mutex, so it lands either before the consumer's look (which
/// then sees it) or after its park (which the notification then ends). A lost
/// wake-up would sit out the 5 s idle period.
#[test]
fn a_stop_racing_the_park_is_never_lost() {
    let idle = Duration::from_secs(5);
    let wal = Arc::new(Wal::new());
    let barrier = Arc::new(std::sync::Barrier::new(2));
    for round in 0..2_000u64 {
        let mut reader = wal.reader_from(Lsn(round));
        let handle = reader.handle();
        let consumer = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                drain(&mut reader, 8, idle)
            })
        };
        barrier.wait();
        // Half the rounds stop at a record that is appended after the stop,
        // so both wake-ups (stop, then append) are raced against the park.
        if round % 2 == 0 {
            handle.stop(Lsn::ZERO);
            wal.append(rec(round + 1));
        } else {
            handle.stop(Lsn(round + 1));
            wal.append(rec(round + 1));
        }
        let (seen, end, took) = consumer.join().unwrap();
        assert!(matches!(end, TailRead::Stopped), "round {round}: {end:?}");
        if round % 2 == 1 {
            assert_eq!(seen, [round + 1], "round {round}");
        }
        assert!(took < Duration::from_secs(1), "round {round}: {took:?}");
    }
}
