//! What the in-memory log costs the allocator: an empty log owns nothing,
//! an append allocates only when it opens a segment, and truncating to the
//! tail gives back every segment but the one the tail is in. Counted with a
//! counting global allocator — which is why this file holds one test and
//! nothing else runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use remus_common::{ShardId, Timestamp, TxnId};
use remus_storage::Value;
use remus_wal::log::{SEGMENT_BYTES, SEGMENT_RECORDS};
use remus_wal::{LogOp, LogRecord, Lsn, Wal, WriteKind, WriteOp};

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

/// Ten full segments and part of an eleventh.
const N: u64 = 10 * SEGMENT_RECORDS as u64 + 5;
/// Allocations beyond one per segment: the ring of segment handles doubles
/// from 4 to 16 on the way to eleven segments.
const SLACK: usize = 4;

/// A transaction's records, none of which owns heap memory: the payload is
/// static, so whatever the count sees is the log's.
fn record(i: u64) -> LogRecord {
    let xid = TxnId(i / 3);
    let op = match i % 3 {
        0 => LogOp::Begin(Timestamp(i)),
        1 => LogOp::Write(WriteOp {
            shard: ShardId(1),
            key: i,
            kind: WriteKind::Update,
            value: Value::from_static(b"a 24-byte tuple payload."),
        }),
        _ => LogOp::Commit(Timestamp(i)),
    };
    LogRecord::new(xid, op)
}

#[test]
fn appends_allocate_per_segment_and_truncation_frees_whole_segments() {
    let (allocs, live) = (alloc_calls(), live_bytes());
    let wal = Wal::new();
    assert_eq!(alloc_calls() - allocs, 0, "an empty log allocated");
    assert_eq!(live_bytes(), live);

    let allocs = alloc_calls();
    for i in 0..N {
        wal.append(record(i));
    }
    let segments = N.div_ceil(SEGMENT_RECORDS as u64) as usize;
    let spent = alloc_calls() - allocs;
    assert!(
        spent <= segments + SLACK,
        "{N} appends made {spent} allocations for {segments} segments"
    );
    let full = (live_bytes() - live) as usize;
    assert!(full >= segments * SEGMENT_BYTES, "{full} bytes live");

    wal.truncate_until(wal.flush_lsn());
    assert_eq!(wal.retained(), 0);
    let left = (live_bytes() - live) as usize;
    // The tail's segment and the ring of handles (16 × 32 bytes).
    assert!(
        left <= SEGMENT_BYTES + 1024,
        "{left} bytes live after truncating to the tail, from {full}"
    );

    // The log goes on from the tail in the segment it kept.
    assert_eq!(wal.append(record(N)), Lsn(N + 1));
    assert_eq!(wal.get(Lsn(N + 1)).unwrap(), record(N));
}
