//! The append-only log with LSNs, stoppable blocking tail reads, and truncation.
//!
//! The in-memory record deque is the authoritative *read* path (replay,
//! propagation) no matter which durability backend is attached; the
//! backend ([`crate::backend::WalBackend`]) sees every record as it is
//! appended and owns persistence. [`Wal::append`] stages without waiting
//! (fine for records whose loss a crash may tolerate — begins, writes,
//! aborts, whose transactions simply roll back on recovery);
//! [`Wal::append_durable`] additionally blocks until the record's
//! group-commit batch is synced, which is what commit-path records use.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbResult, WalBackendKind, WalConfig};

use crate::backend::{BackendHandle, FileBackend, FsyncData, MemBackend, SyncPolicy};
use crate::record::LogRecord;

/// A log sequence number. The first record appended gets LSN 1; LSN 0 means
/// "before the log".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The position before any record.
    pub const ZERO: Lsn = Lsn(0);
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

#[derive(Debug)]
struct LogInner {
    /// Records with LSN in `(base, base + records.len()]`. Stored behind
    /// `Arc` so readers (replay, propagation — often several per record
    /// during a migration) share the one flushed copy instead of
    /// deep-cloning every payload out of the log.
    records: VecDeque<Arc<LogRecord>>,
    /// LSN of the last truncated-away record (0 if nothing truncated).
    base: u64,
    /// Bumped by [`Wal::crash_and_reopen`]: a parked reader that observes
    /// a generation change is reading across a crash, which is a protocol
    /// bug it must not sleep through.
    generation: u64,
    /// Durability backend; staged under this mutex so it observes appends
    /// in LSN order.
    backend: BackendHandle,
}

/// How a file-backed log was opened, kept so [`Wal::crash_and_reopen`] can
/// rebuild from the same directory with the same sync policy.
#[derive(Debug, Clone)]
struct FileDurability {
    dir: PathBuf,
    config: WalConfig,
    sync: Arc<dyn SyncPolicy>,
}

/// One node's write-ahead log.
///
/// Appends are serialized by a mutex (the real engine serializes them
/// through the WAL insert lock too); readers tail the log by LSN and can
/// block until new records arrive.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<LogInner>,
    grown: Condvar,
    appends: AtomicU64,
    recovered_torn_tail: AtomicU64,
    durability: Option<FileDurability>,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// An empty log on the in-memory backend (no durability).
    pub fn new() -> Self {
        Wal::from_parts(Arc::new(MemBackend::new()), VecDeque::new(), 0, 0, None)
    }

    /// A log on a caller-provided backend, starting empty. Used by backend
    /// unit tests; `crash_and_reopen` on such a log falls back to a fresh
    /// in-memory backend.
    pub fn with_backend(backend: BackendHandle) -> Self {
        Wal::from_parts(backend, VecDeque::new(), 0, 0, None)
    }

    /// Opens (or creates) a file-backed log rooted at `dir`, recovering
    /// whatever intact records the directory holds.
    pub fn open_file(dir: &Path, config: &WalConfig) -> DbResult<Wal> {
        Wal::open_file_with_sync(dir, config, Arc::new(FsyncData))
    }

    /// [`Wal::open_file`] with an explicit [`SyncPolicy`] (tests inject
    /// blocking or failing policies here).
    pub fn open_file_with_sync(
        dir: &Path,
        config: &WalConfig,
        sync: Arc<dyn SyncPolicy>,
    ) -> DbResult<Wal> {
        let (backend, opened) = FileBackend::open(dir, config, Arc::clone(&sync))?;
        Ok(Wal::from_parts(
            Arc::new(backend),
            opened.records.into_iter().map(Arc::new).collect(),
            opened.base,
            opened.torn_tails,
            Some(FileDurability {
                dir: dir.to_path_buf(),
                config: config.clone(),
                sync,
            }),
        ))
    }

    /// The log for node `node` under `config`: in-memory by default, or a
    /// `node-<id>` subdirectory of the configured WAL root.
    pub fn for_node(config: &WalConfig, node: u32) -> DbResult<Wal> {
        match &config.backend {
            WalBackendKind::Memory => Ok(Wal::new()),
            WalBackendKind::File { dir } => {
                Wal::open_file(&dir.join(format!("node-{node}")), config)
            }
        }
    }

    fn from_parts(
        backend: BackendHandle,
        records: VecDeque<Arc<LogRecord>>,
        base: u64,
        torn_tails: u64,
        durability: Option<FileDurability>,
    ) -> Wal {
        Wal {
            inner: Mutex::new(LogInner {
                records,
                base,
                generation: 0,
                backend,
            }),
            grown: Condvar::new(),
            appends: AtomicU64::new(0),
            recovered_torn_tail: AtomicU64::new(torn_tails),
            durability,
        }
    }

    /// Appends a record, returning its LSN. This is the "flush to WAL"
    /// point: a record is visible to readers as soon as this returns. The
    /// record is staged with the durability backend but not waited on —
    /// commit-path records use [`Wal::append_durable`] instead.
    pub fn append(&self, record: LogRecord) -> Lsn {
        let mut inner = self.inner.lock();
        let lsn = Lsn(inner.base + inner.records.len() as u64 + 1);
        inner.backend.stage(lsn, &record);
        inner.records.push_back(Arc::new(record));
        drop(inner);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.grown.notify_all();
        lsn
    }

    /// Appends a record and blocks until it is durable — for the file
    /// backend, until the fsync of the group-commit batch containing its
    /// LSN completes. In-memory backends return immediately, so the
    /// commit path costs nothing extra under the default config.
    ///
    /// Durability failure (sync error, stopped backend, group-commit
    /// timeout) is returned, not panicked: the record is already in the
    /// in-memory log but was never acknowledged durable, so the caller
    /// must treat its transaction as un-committed and abort it.
    pub fn append_durable(&self, record: LogRecord) -> DbResult<Lsn> {
        let (lsn, backend) = {
            let mut inner = self.inner.lock();
            let lsn = Lsn(inner.base + inner.records.len() as u64 + 1);
            inner.backend.stage(lsn, &record);
            inner.records.push_back(Arc::new(record));
            (lsn, Arc::clone(&inner.backend))
        };
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.grown.notify_all();
        backend.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// The LSN of the newest record (the flush/tail position used for
    /// `LSN_unsync` in the mode-change phase, §3.4).
    pub fn flush_lsn(&self) -> Lsn {
        let inner = self.inner.lock();
        Lsn(inner.base + inner.records.len() as u64)
    }

    /// Highest LSN the backend reports durable (equals [`Wal::flush_lsn`]
    /// on the in-memory backend).
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.lock().backend.durable_lsn()
    }

    /// Lifetime count of records appended (both append flavors).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Lifetime count of fsyncs issued by the durability backend.
    pub fn fsyncs(&self) -> u64 {
        self.inner.lock().backend.fsyncs()
    }

    /// Torn-tail truncations performed across every open/reopen of this
    /// log (the `wal.recovered_torn_tail` metric).
    pub fn recovered_torn_tail(&self) -> u64 {
        self.recovered_torn_tail.load(Ordering::Relaxed)
    }

    /// Returns the record at `lsn`, if it exists and was not truncated.
    pub fn get(&self, lsn: Lsn) -> Option<Arc<LogRecord>> {
        let inner = self.inner.lock();
        if lsn.0 <= inner.base {
            return None;
        }
        inner
            .records
            .get((lsn.0 - inner.base - 1) as usize)
            .cloned()
    }

    /// Drops all records with LSN <= `upto`. Readers must have consumed
    /// them; reading a truncated LSN is an error surfaced by [`WalReader`].
    pub fn truncate_until(&self, upto: Lsn) {
        let (backend, base) = {
            let mut inner = self.inner.lock();
            while inner.base < upto.0 && !inner.records.is_empty() {
                inner.records.pop_front();
                inner.base += 1;
            }
            (Arc::clone(&inner.backend), Lsn(inner.base))
        };
        // Segment reclamation deletes files; do that I/O off the inner
        // lock so concurrent appends and reads are not stalled behind it.
        backend.truncated_until(base);
        // Wake parked readers so one left at or below the new base
        // observes the movement (and trips the truncated-read panic)
        // instead of sleeping out its timeout.
        self.grown.notify_all();
    }

    /// Simulates a process crash and restart of this log: the in-memory
    /// state is dropped, staged-but-unsynced records are discarded, and
    /// the log is repopulated from whatever the durability backend can
    /// recover — everything for a file-backed log (modulo a torn tail),
    /// nothing for the in-memory backend.
    pub fn crash_and_reopen(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        inner.backend.crash();
        match &self.durability {
            None => {
                inner.records.clear();
                inner.base = 0;
                inner.backend = Arc::new(MemBackend::new());
            }
            Some(d) => {
                let (backend, opened) = FileBackend::open(&d.dir, &d.config, Arc::clone(&d.sync))?;
                inner.records = opened.records.into_iter().map(Arc::new).collect();
                inner.base = opened.base;
                self.recovered_torn_tail
                    .fetch_add(opened.torn_tails, Ordering::Relaxed);
                inner.backend = Arc::new(backend);
            }
        }
        inner.generation += 1;
        drop(inner);
        self.grown.notify_all();
        Ok(())
    }

    /// Number of retained records.
    pub fn retained(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// A reader positioned after `from` (i.e. the first record it yields
    /// has LSN `from + 1`).
    pub fn reader_from(self: &Arc<Self>, from: Lsn) -> WalReader {
        WalReader {
            wal: Arc::clone(self),
            next: Lsn(from.0 + 1),
            state: Arc::new(TailState {
                stop_at: AtomicU64::new(u64::MAX),
                acked: AtomicU64::new(from.0),
            }),
        }
    }

    /// A reader positioned at the retained head: the first record it
    /// yields is the oldest one truncation left behind (where crash replay
    /// starts).
    pub fn reader_from_head(self: &Arc<Self>) -> WalReader {
        let base = self.inner.lock().base;
        self.reader_from(Lsn(base))
    }

    /// The one blocking wait on the log: parks on `grown` until the record
    /// at `lsn` exists, or `stop_at` is set and everything up to it has been
    /// handed out, or `idle` elapses (an `idle` too long to add to the clock
    /// never does).
    fn wait_record(&self, lsn: Lsn, stop_at: &AtomicU64, idle: Duration) -> TailRead {
        let mut inner = self.inner.lock();
        let generation = inner.generation;
        let found = time::wait(&self.grown, &mut inner, idle, |inner| {
            if inner.generation != generation {
                // The log was torn down and reopened from disk while this
                // reader was parked: its position is meaningless now.
                panic!("WAL crashed and reopened under a parked reader at {lsn}");
            }
            if lsn.0 <= inner.base {
                // Truncated from under the reader: a protocol bug.
                panic!("WAL read at truncated {lsn} (base {})", inner.base);
            }
            // `stop_at` only changes under `inner` ([`TailHandle::stop`]), so
            // a stop cannot slip in between this look and the park.
            if lsn.0 > stop_at.load(Ordering::SeqCst) {
                return Some(None);
            }
            let idx = (lsn.0 - inner.base - 1) as usize;
            inner.records.get(idx).map(|r| Some(Arc::clone(r)))
        });
        // The batch is allocated off the lock appenders queue on.
        drop(inner);
        match found {
            Some(Some(record)) => TailRead::Batch(vec![(lsn, record)]),
            Some(None) => TailRead::Stopped,
            None => TailRead::Idle,
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Drain and stop the flusher so segment files are complete before
        // test tempdirs are removed. Idempotent; no-op for in-memory.
        self.inner.get_mut().backend.shutdown();
    }
}

/// What [`WalReader::next_batch`] came back with.
#[derive(Debug)]
pub enum TailRead {
    /// One or more records, in LSN order.
    Batch(Vec<(Lsn, Arc<LogRecord>)>),
    /// The idle period passed with no record and no stop.
    Idle,
    /// A stop was asked for and everything up to its LSN has been handed
    /// out; nothing more will be.
    Stopped,
}

/// What a reader shares with its [`TailHandle`]s.
#[derive(Debug)]
struct TailState {
    /// Stop once everything up to this LSN is handed out (`u64::MAX`:
    /// never asked). Written under `Wal::inner` only.
    stop_at: AtomicU64,
    /// Last LSN the consumer is done with.
    acked: AtomicU64,
}

/// The other end of a [`WalReader`]: stops it and reads how far its consumer
/// has got, from any thread.
#[derive(Debug, Clone)]
pub struct TailHandle {
    wal: Arc<Wal>,
    state: Arc<TailState>,
}

impl TailHandle {
    /// Asks the reader to come back [`TailRead::Stopped`] once it has handed
    /// out every record up to and including `upto` ([`Lsn::ZERO`]: now), and
    /// wakes it if it is parked. A stop only ever moves earlier.
    pub fn stop(&self, upto: Lsn) {
        let inner = self.wal.inner.lock();
        self.state.stop_at.fetch_min(upto.0, Ordering::SeqCst);
        drop(inner);
        self.wal.grown.notify_all();
    }

    /// LSN of the last record the consumer has acknowledged: everything the
    /// reader handed out before the consumer's latest call of
    /// [`WalReader::next_batch`] (the reader's start position before that).
    pub fn acked(&self) -> Lsn {
        Lsn(self.state.acked.load(Ordering::SeqCst))
    }
}

/// A streaming cursor over a [`Wal`], used by the propagation process, the
/// replica shipper and crash replay.
#[derive(Debug)]
pub struct WalReader {
    wal: Arc<Wal>,
    next: Lsn,
    state: Arc<TailState>,
}

impl WalReader {
    /// The LSN of the next record this reader will yield.
    pub fn position(&self) -> Lsn {
        self.next
    }

    /// LSN of the last record already consumed.
    pub fn consumed(&self) -> Lsn {
        Lsn(self.next.0.saturating_sub(1))
    }

    /// A handle that stops this reader and reads its acknowledged LSN.
    pub fn handle(&self) -> TailHandle {
        TailHandle {
            wal: Arc::clone(&self.wal),
            state: Arc::clone(&self.state),
        }
    }

    /// Returns the next record if it is already in the log.
    pub fn try_next(&mut self) -> Option<(Lsn, Arc<LogRecord>)> {
        let r = self.wal.get(self.next)?;
        let lsn = self.next;
        self.next = Lsn(self.next.0 + 1);
        Some((lsn, r))
    }

    /// Acknowledges everything handed out so far: [`TailHandle::acked`]
    /// reports it from here on. A consumer whose progress someone waits on
    /// acknowledges, then tells them, before it asks for more.
    pub fn ack(&self) {
        self.state.acked.store(self.consumed().0, Ordering::SeqCst);
    }

    /// The one blocking read: acknowledges everything handed out so far,
    /// then waits for a record, a stop ([`TailHandle::stop`]) or the end of
    /// the `idle` period, whichever is first. On a record it greedily drains
    /// up to `max` records that are already flushed — one wait amortized
    /// over a vector of records instead of a wait per record.
    pub fn next_batch(&mut self, max: usize, idle: Duration) -> TailRead {
        self.ack();
        let mut read = self.wal.wait_record(self.next, &self.state.stop_at, idle);
        if let TailRead::Batch(out) = &mut read {
            self.next = Lsn(self.next.0 + 1);
            while out.len() < max {
                match self.try_next() {
                    Some(pair) => out.push(pair),
                    None => break,
                }
            }
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogOp, LogRecord};
    use remus_common::{NodeId, Timestamp, TxnId};

    fn rec(n: u64) -> LogRecord {
        LogRecord::new(TxnId::new(NodeId(0), n), LogOp::Commit(Timestamp(n)))
    }

    fn batch_of(read: TailRead) -> Vec<(Lsn, Arc<LogRecord>)> {
        match read {
            TailRead::Batch(batch) => batch,
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn lsns_are_dense_and_start_at_one() {
        let wal = Wal::new();
        assert_eq!(wal.append(rec(1)), Lsn(1));
        assert_eq!(wal.append(rec(2)), Lsn(2));
        assert_eq!(wal.flush_lsn(), Lsn(2));
        assert_eq!(wal.appends(), 2);
    }

    #[test]
    fn reader_streams_in_order() {
        let wal = Arc::new(Wal::new());
        for n in 1..=5 {
            wal.append(rec(n));
        }
        let mut reader = wal.reader_from(Lsn::ZERO);
        let mut seen = Vec::new();
        while let Some((lsn, r)) = reader.try_next() {
            seen.push((lsn.0, r.xid.seq()));
        }
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        assert_eq!(reader.consumed(), Lsn(5));
    }

    #[test]
    fn reader_from_midpoint() {
        let wal = Arc::new(Wal::new());
        for n in 1..=5 {
            wal.append(rec(n));
        }
        let mut reader = wal.reader_from(Lsn(3));
        assert_eq!(reader.try_next().unwrap().0, Lsn(4));
    }

    #[test]
    fn batch_read_drains_up_to_max_in_order() {
        let wal = Arc::new(Wal::new());
        for n in 1..=5 {
            wal.append(rec(n));
        }
        let mut reader = wal.reader_from(Lsn::ZERO);
        let batch = batch_of(reader.next_batch(3, Duration::from_secs(1)));
        assert_eq!(
            batch.iter().map(|(l, _)| l.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // The rest comes in the next batch, even with headroom to spare.
        let batch = batch_of(reader.next_batch(8, Duration::from_secs(1)));
        assert_eq!(
            batch.iter().map(|(l, _)| l.0).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(reader.consumed(), Lsn(5));
    }

    #[test]
    fn batch_read_times_out_empty_and_wakes_on_append() {
        let wal = Arc::new(Wal::new());
        let mut reader = wal.reader_from(Lsn::ZERO);
        assert!(matches!(
            reader.next_batch(4, Duration::from_millis(10)),
            TailRead::Idle
        ));
        let writer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                wal.append(rec(7));
            })
        };
        let batch = batch_of(reader.next_batch(4, Duration::from_secs(5)));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0, Lsn(1));
        writer.join().unwrap();
    }

    #[test]
    fn truncate_drops_prefix_only() {
        let wal = Arc::new(Wal::new());
        for n in 1..=5 {
            wal.append(rec(n));
        }
        wal.truncate_until(Lsn(3));
        assert_eq!(wal.retained(), 2);
        assert!(wal.get(Lsn(3)).is_none());
        assert_eq!(wal.get(Lsn(4)).unwrap().xid.seq(), 4);
        // Appends continue with dense LSNs.
        assert_eq!(wal.append(rec(6)), Lsn(6));
    }

    #[test]
    fn reads_share_one_flushed_copy() {
        // `get` and the reader hand out refs to the same allocation — the
        // clone-free read path (no per-reader deep copy of payloads).
        let wal = Arc::new(Wal::new());
        wal.append(rec(1));
        let a = wal.get(Lsn(1)).unwrap();
        let b = wal.get(Lsn(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let mut reader = wal.reader_from(Lsn::ZERO);
        let (_, c) = reader.try_next().unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn reading_truncated_lsn_panics() {
        let wal = Arc::new(Wal::new());
        wal.append(rec(1));
        wal.truncate_until(Lsn(1));
        let mut reader = wal.reader_from(Lsn::ZERO);
        reader.next_batch(1, Duration::from_millis(5));
    }

    #[test]
    fn mem_backend_is_instantly_durable() {
        let wal = Wal::new();
        assert_eq!(wal.append_durable(rec(1)).unwrap(), Lsn(1));
        assert_eq!(wal.durable_lsn(), Lsn(1));
        assert_eq!(wal.fsyncs(), 0);
    }

    #[test]
    fn mem_crash_loses_everything() {
        let wal = Arc::new(Wal::new());
        for n in 1..=4 {
            wal.append(rec(n));
        }
        wal.crash_and_reopen().unwrap();
        assert_eq!(wal.flush_lsn(), Lsn::ZERO);
        assert_eq!(wal.retained(), 0);
        // The log restarts dense at 1.
        assert_eq!(wal.append(rec(9)), Lsn(1));
    }

    /// Satellite regression: a reader parked in `next_batch` with
    /// a long timeout must observe a crash/reopen (or a truncation that
    /// passes it) promptly — watchdog-bounded — instead of sleeping the
    /// timeout out. Before the fix, neither `truncate_until` nor reopen
    /// notified `grown`, so the reader hung.
    #[test]
    fn parked_reader_is_woken_by_reopen_not_watchdog() {
        let wal = Arc::new(Wal::new());
        wal.append(rec(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader_wal = Arc::clone(&wal);
        let t = std::thread::spawn(move || {
            let mut reader = reader_wal.reader_from(Lsn(1));
            // Parks waiting for LSN 2 with a far-future timeout.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reader.next_batch(8, Duration::from_secs(30))
            }));
            tx.send(out.is_err()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        wal.crash_and_reopen().unwrap();
        // Watchdog: the reader must resolve well before its own 30s wait.
        let panicked = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("parked reader hung through crash_and_reopen");
        assert!(panicked, "reader crossed a crash without noticing");
        t.join().unwrap();
    }
}
