//! The footprint rule: a key that was updated and then collected occupies
//! what it occupied when it was loaded. Counted exactly, with a counting
//! global allocator — which is why this file holds one test and nothing
//! else runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use remus_common::{NodeId, Timestamp, TxnId};
use remus_storage::{Clog, Value, VersionedTable};

/// Requested bytes currently allocated (sizes as asked for, without the
/// allocator's headers or rounding). A statistic: nothing is published
/// through it.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const T: Duration = Duration::from_secs(1);
const KEYS: u64 = 20_000;

fn payload(tag: u64) -> Value {
    let mut buf = [0u8; 64];
    buf[..8].copy_from_slice(&tag.to_le_bytes());
    Value::copy_from_slice(&buf)
}

#[test]
fn an_updated_and_collected_key_occupies_what_it_did_at_load() {
    let (table, clog) = (VersionedTable::with_stripes(8), Clog::new());
    // One writer for every update, known to the commit log before anything
    // is counted: committing it later changes an entry in place.
    let (writer, loser) = (TxnId::new(NodeId(0), 1), TxnId::new(NodeId(0), 2));
    clog.begin(writer);
    // An emptied `BTreeSet` keeps its root leaf, and each stripe's GC queue
    // is one: an aborted insert, collected, leaves every queue that way
    // before anything is counted (64 keys reach all eight stripes).
    clog.begin(loser);
    for key in KEYS..KEYS + 64 {
        let at = Timestamp(5);
        table.insert(key, payload(0), loser, at, &clog, T).unwrap();
    }
    clog.set_aborted(loser);
    table.purge_txn(KEYS..KEYS + 64, loser);
    table.vacuum(Timestamp(6), &clog);
    assert_eq!(table.stats().keys, 0);
    let empty = LIVE.load(Ordering::Relaxed);
    for key in 0..KEYS {
        table.install_frozen(key, payload(0));
    }
    let loaded = LIVE.load(Ordering::Relaxed) - empty;

    for key in 0..KEYS {
        let (value, at) = (payload(key + 1), Timestamp(10));
        table.update(key, value, writer, at, &clog, T).unwrap();
    }
    clog.set_committed(writer, Timestamp(20)).unwrap();
    let updated = LIVE.load(Ordering::Relaxed) - empty;
    assert!(updated > loaded, "two versions a key cost more than one");

    assert_eq!(table.vacuum(Timestamp(30), &clog), KEYS as usize);
    let collected = LIVE.load(Ordering::Relaxed) - empty;
    assert_eq!(
        collected,
        loaded,
        "{} bytes a key left behind by update + GC ({loaded} loaded, {updated} updated)",
        (collected - loaded) / KEYS as isize
    );
    let got = table.read(7, Timestamp(30), TxnId::new(NodeId(1), 1), &clog, T);
    assert_eq!(got.unwrap(), Some(payload(8)));
    // And what it occupies: slots, node and payload of a 72-byte tuple (the
    // ordered keys are not built until somebody scans).
    let per_key = loaded as f64 / KEYS as f64;
    assert!(per_key < 72.0 * 2.5, "{per_key:.1} bytes a 72-byte tuple");
}
