//! Group-commit contract (DESIGN.md §10): concurrent committers share
//! fsyncs (`wal.fsyncs` ≪ `wal.appends`), and no commit is acknowledged
//! before the flusher batch containing its LSN is durable — proven with
//! blocking and fault-injecting [`SyncPolicy`] mocks.

use std::fs::{self, File};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{DbError, NodeId, Timestamp, TxnId, WalConfig};
use remus_wal::{FileBackend, LogOp, LogRecord, Lsn, SyncPolicy, Wal};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let pid = std::process::id();
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let p = std::env::temp_dir().join(format!("remus-gc-commit-{tag}-{pid}-{n}"));
        fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn rec(n: u64) -> LogRecord {
    LogRecord::new(TxnId::new(NodeId(0), n), LogOp::Commit(Timestamp(n)))
}

/// A sync that takes a fixed wall-clock slice, so concurrent committers
/// pile up behind it and must share batches.
#[derive(Debug)]
struct SlowSync(Duration);

impl SyncPolicy for SlowSync {
    fn sync(&self, file: &File) -> io::Result<()> {
        std::thread::sleep(self.0);
        file.sync_data()
    }
}

/// A sync that blocks while the gate is closed (ordering proofs).
#[derive(Debug)]
struct GatedSync {
    open: Mutex<bool>,
    cv: Condvar,
}

impl GatedSync {
    fn closed() -> Arc<GatedSync> {
        Arc::new(GatedSync {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }
}

impl SyncPolicy for GatedSync {
    fn sync(&self, file: &File) -> io::Result<()> {
        let mut open = self.open.lock();
        while !*open {
            self.cv.wait(&mut open);
        }
        file.sync_data()
    }
}

/// A sync that always fails.
#[derive(Debug)]
struct BrokenSync;

impl SyncPolicy for BrokenSync {
    fn sync(&self, _file: &File) -> io::Result<()> {
        Err(io::Error::other("injected sync failure"))
    }
}

#[test]
fn concurrent_committers_coalesce_fsyncs() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 16;
    let dir = TempDir::new("coalesce");
    let wal = Arc::new(
        Wal::open_file_with_sync(
            &dir.0,
            &WalConfig::file(&dir.0),
            Arc::new(SlowSync(Duration::from_millis(2))),
        )
        .unwrap(),
    );
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    wal.append_durable(rec(t * PER_THREAD + i + 1)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let appends = wal.appends();
    let fsyncs = wal.fsyncs();
    assert_eq!(appends, THREADS * PER_THREAD);
    assert!(fsyncs >= 1);
    // Committers blocked behind a slow sync must share the next batch:
    // well under one fsync per append, or group commit is not grouping.
    assert!(
        fsyncs * 2 < appends,
        "no coalescing: {fsyncs} fsyncs for {appends} appends"
    );
    assert_eq!(wal.durable_lsn(), Lsn(appends));
}

#[test]
fn a_held_sync_batches_everything_staged_behind_it() {
    const N: u64 = 100;
    let dir = TempDir::new("held");
    let gate = GatedSync::closed();
    let (backend, _) = FileBackend::open(
        &dir.0,
        &WalConfig::file(&dir.0),
        Arc::clone(&gate) as Arc<dyn SyncPolicy>,
    )
    .unwrap();
    for n in 1..=N {
        backend.stage_record(Lsn(n), &rec(n));
    }
    gate.open();
    backend.wait_durable(Lsn(N)).unwrap();
    // At most one sync for whatever slipped into the first batch plus one
    // for the rest: ≥50 appends per fsync on average.
    let fsyncs = backend.fsyncs();
    assert!(
        (1..=2).contains(&fsyncs),
        "{fsyncs} fsyncs for {N} staged records"
    );
    backend.shutdown();
}

#[test]
fn no_commit_is_acknowledged_before_its_batch_is_durable() {
    let dir = TempDir::new("ordering");
    let gate = GatedSync::closed();
    let wal = Arc::new(
        Wal::open_file_with_sync(
            &dir.0,
            &WalConfig::file(&dir.0),
            Arc::clone(&gate) as Arc<dyn SyncPolicy>,
        )
        .unwrap(),
    );
    let acked = Arc::new(AtomicBool::new(false));
    let committer = {
        let wal = Arc::clone(&wal);
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let lsn = wal.append_durable(rec(1)).unwrap();
            acked.store(true, Ordering::SeqCst);
            lsn
        })
    };
    // The record is staged and the flusher is inside the blocked sync:
    // the committer must still be waiting and nothing may be durable.
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        !acked.load(Ordering::SeqCst),
        "commit acknowledged before its batch was synced"
    );
    assert_eq!(wal.durable_lsn(), Lsn(0));
    gate.open();
    assert_eq!(committer.join().unwrap(), Lsn(1));
    assert!(acked.load(Ordering::SeqCst));
    assert_eq!(wal.durable_lsn(), Lsn(1));
}

#[test]
fn a_failed_sync_rejects_the_waiting_commit() {
    let dir = TempDir::new("broken");
    let (backend, _) =
        FileBackend::open(&dir.0, &WalConfig::file(&dir.0), Arc::new(BrokenSync)).unwrap();
    backend.stage_record(Lsn(1), &rec(1));
    let err = backend.wait_durable(Lsn(1)).unwrap_err();
    match err {
        DbError::Internal(msg) => assert!(msg.contains("wal flusher"), "{msg}"),
        other => panic!("expected Internal sync-failure error, got {other:?}"),
    }
    // Nothing was ever acknowledged as durable.
    assert_eq!(backend.durable_lsn(), Lsn(0));
    backend.shutdown();
}

/// The full commit path: `Wal::append_durable` returns the durability
/// failure to the committer (who aborts the transaction) instead of
/// panicking the process.
#[test]
fn append_durable_surfaces_sync_failure_as_an_error() {
    let dir = TempDir::new("surface");
    let wal =
        Wal::open_file_with_sync(&dir.0, &WalConfig::file(&dir.0), Arc::new(BrokenSync)).unwrap();
    let err = wal.append_durable(rec(1)).unwrap_err();
    match err {
        DbError::Internal(msg) => assert!(msg.contains("wal flusher"), "{msg}"),
        other => panic!("expected Internal sync-failure error, got {other:?}"),
    }
    assert_eq!(wal.durable_lsn(), Lsn(0));
}
