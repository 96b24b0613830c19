//! What reading the log costs the allocator. A reader hands out the log's
//! bytes as one run per batch and the assembler decodes only the writes its
//! predicate keeps, so a batch costs the two buffers that replace the one
//! handed out, a dropped write or a control record costs nothing, and a kept
//! write costs its value (plus its transaction's buffer when that grows; a
//! resolved transaction's buffer is reused by the next one).
//! Then the committed transactions are redone into a node's tables and the
//! log is truncated: every segment's bytes come back, because a decoded value
//! is a copy and never pins the log. Counted with a counting global
//! allocator — which is why this file holds one test and nothing else runs
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Duration;

use remus_common::{NodeId, ShardId, SimConfig, Timestamp, TxnId};
use remus_storage::Value;
use remus_txn::{redo_committed, NodeStorage};
use remus_wal::log::{SEGMENT_BYTES, SEGMENT_RECORDS};
use remus_wal::{LogOp, LogRecord, Lsn, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteKind};
use remus_wal::{WalReader, WriteOp};

thread_local! {
    /// Requested bytes this thread has allocated and not freed. Counted per
    /// thread: the test harness's main thread may still be allocating after
    /// it started the test's thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Calls of this thread that asked for memory (`alloc` and `realloc`).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's live count and, for a request, one call.
fn count(bytes: isize, request: bool) {
    // A const-initialized `Cell` needs no destructor: `with` allocates
    // nothing and works on any live thread.
    LIVE.with(|live| live.set(live.get() + bytes));
    ALLOCS.with(|calls| calls.set(calls.get() + usize::from(request)));
}

fn alloc_calls() -> usize {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, true);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), false);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, true);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The migrating shard: its writes are kept.
const KEPT: ShardId = ShardId(1);
/// A shard that stays: its writes are dropped unread.
const DROPPED: ShardId = ShardId(2);
/// Records a batch is read in.
const BATCH: usize = 256;
/// Four segments of transactions of four records: `Begin`, a write to each
/// shard, `Commit`.
const TXNS: u64 = SEGMENT_RECORDS as u64;

fn write(shard: ShardId, key: u64) -> LogOp {
    LogOp::Write(WriteOp {
        shard,
        key,
        kind: WriteKind::Update,
        value: Value::copy_from_slice(format!("a 24-byte value, #{key:06}").as_bytes()),
    })
}

/// Reads `reader` to the end a batch at a time, feeding every record to
/// `assembler` and redoing each committed transaction into `node`. Asserts
/// the allocation bounds once `warm` batches have been read; returns
/// `(batches, records, allocations)` counted after the warm-up.
fn read_and_redo(
    node: &NodeStorage,
    reader: &mut WalReader,
    assembler: &mut TxnAssembler<impl Fn(ShardId) -> bool>,
    warm: usize,
) -> (usize, usize, usize) {
    // Each open transaction's buffer capacity as last seen, to tell a kept
    // write that grew it from one that did not.
    let mut capacity: HashMap<TxnId, usize> = HashMap::new();
    let (mut batches, mut records, mut spent) = (0, 0, 0);
    for read in 0.. {
        let before = alloc_calls();
        let TailRead::Batch(run) = reader.next_batch(BATCH, Duration::ZERO) else {
            break;
        };
        let read_allocs = alloc_calls() - before;
        let counted = read >= warm;
        if counted {
            assert!(
                read_allocs <= 2,
                "batch {read} made {read_allocs} allocations"
            );
            (batches, records, spent) = (batches + 1, records + run.len(), spent + read_allocs);
        }
        for (lsn, record) in run.iter() {
            let before = alloc_calls();
            let event = assembler.feed(lsn, record);
            let fed = alloc_calls() - before;
            spent += if counted { fed } else { 0 };
            match event {
                TxnEvent::Kept(txn) => {
                    let grew = capacity.insert(txn.xid, txn.writes.capacity())
                        != Some(txn.writes.capacity());
                    assert!(
                        !counted || fed <= 1 + usize::from(grew),
                        "a kept write at {lsn} made {fed} allocations (buffer grew: {grew})"
                    );
                }
                TxnEvent::Resolved {
                    txn,
                    outcome: TxnOutcome::Committed(cts),
                    ..
                } => {
                    assert!(
                        !counted || fed == 0,
                        "a commit record at {lsn} made {fed} allocations"
                    );
                    capacity.remove(&txn.xid);
                    redo_committed(node, txn.xid, cts, &txn.writes, |_, _| {}).unwrap();
                }
                _ => assert!(
                    !counted || fed == 0,
                    "a record at {lsn} made {fed} allocations"
                ),
            }
        }
    }
    (batches, records, spent)
}

#[test]
fn a_read_allocates_per_batch_and_per_kept_value_and_a_value_never_pins_the_log() {
    let node = NodeStorage::new(NodeId(0), SimConfig::instant());
    for t in 0..TXNS {
        let xid = TxnId::new(NodeId(0), t + 1);
        node.wal
            .append(LogRecord::new(xid, LogOp::Begin(Timestamp(2 * t + 1))));
        node.wal.append(LogRecord::new(xid, write(KEPT, t)));
        node.wal.append(LogRecord::new(xid, write(DROPPED, t)));
        node.wal
            .append(LogRecord::new(xid, LogOp::Commit(Timestamp(2 * t + 2))));
    }
    let total = 4 * TXNS as usize;
    let segments = total.div_ceil(SEGMENT_RECORDS);

    // The first batch grows the reader's buffer and the assembler's tables.
    let mut reader = node.wal.reader_from(Lsn::ZERO);
    let mut assembler = TxnAssembler::new(Lsn::ZERO, |shard| shard == KEPT);
    let (batches, records, spent) = read_and_redo(&node, &mut reader, &mut assembler, 1);
    assert_eq!((batches, records), (total / BATCH - 1, total - BATCH));
    assert_eq!(assembler.open_headed(), 0);
    println!(
        "{spent} allocations for {records} records in {batches} batches: {:.3} per record",
        spent as f64 / records as f64
    );
    // Two per batch and, per transaction, a value: nothing for the dropped
    // write, the `Begin` or the `Commit`, and no buffer — the assembler
    // reuses the one the last resolved transaction left (one more in case
    // the warm-up ended with none to spare).
    assert!(
        spent <= 2 * batches + records / 4 + 1,
        "{spent} allocations"
    );

    // Every committed write is in the table, as a copy of the log's bytes.
    let table = node.table(KEPT).expect("the kept shard was redone");
    assert_eq!(table.stats().keys, TXNS as usize);
    assert!(node.table(DROPPED).is_none(), "a dropped write was redone");
    let live = live_bytes();
    node.wal.truncate_until(node.wal.flush_lsn());
    let freed = (live - live_bytes()) as usize;
    assert!(
        freed >= segments * SEGMENT_BYTES,
        "truncating {segments} segments freed {freed} bytes"
    );
}
