//! The append-only log with LSNs, stoppable blocking tail reads, and truncation.
//!
//! The log is a byte log, as PostgreSQL's is. A record is stored as its
//! codec body ([`crate::codec`], v1, no frame) in the tail segment, encoded
//! there by the append itself, so an append allocates nothing per record and
//! keeps no reference to the payload it was given. A segment holds
//! [`SEGMENT_RECORDS`] records in one allocation: a table of their end
//! offsets, then their bodies back to back, so a record is found by
//! arithmetic on its LSN. The first segment is allocated by the first
//! append; an empty log owns no memory. [`Wal::truncate_until`] moves the
//! base record by record and frees a segment whole once its last record is
//! at or below the base, after letting go of the lock.
//!
//! A reader ([`WalReader`]) copies the bodies of the records it hands out
//! under the lock into its own buffer, one contiguous copy per segment, and
//! hands that buffer out as a [`ShipBatch`] after releasing the lock,
//! replacing it with one of the same capacity. So once the buffer has grown
//! to the batches it reads, a read allocates nothing under the lock
//! appenders queue on, and it decodes nothing: the consumer reads the
//! bodies in place and decodes what it keeps. [`Wal::get`] and
//! [`WalReader::try_next`] decode the one record of a one-record run.
//!
//! The in-memory log is the authoritative *read* path (replay, propagation)
//! whether or not it is durable; a [`FileBackend`] is handed each record's
//! body as the append encoded it and owns persistence. Without one, an append is
//! durable the moment it is placed and a crash loses the log.
//! [`Wal::append`] stages without waiting (fine for records whose loss a
//! crash may tolerate — begins, writes, aborts, whose transactions simply
//! roll back on recovery); [`Wal::append_durable`] additionally blocks until
//! the record's group-commit batch is synced, which is what commit-path
//! records use.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbResult, WalBackendKind, WalConfig};

use crate::backend::{FileBackend, FsyncData, SyncPolicy};
use crate::codec::encode_record;
use crate::record::LogRecord;
use crate::ship::ShipBatch;

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

/// Records per segment: the unit truncation frees.
pub const SEGMENT_RECORDS: usize = 1024;
/// Bytes a segment is allocated with: its end table and 60 KiB of bodies.
/// A segment whose records do not fit grows like any `Vec`.
pub const SEGMENT_BYTES: usize = 64 * 1024;
/// Bytes of a segment's end table: one `u32` per record.
const TABLE_BYTES: usize = 4 * SEGMENT_RECORDS;

/// Up to [`SEGMENT_RECORDS`] consecutive records in one allocation: the end
/// offset of each (`u32` LE, from the start of `bytes`), then their bodies.
#[derive(Debug)]
struct Segment {
    bytes: Vec<u8>,
    /// Records held.
    len: usize,
}

impl Segment {
    fn new() -> Segment {
        let mut bytes = Vec::with_capacity(SEGMENT_BYTES);
        bytes.resize(TABLE_BYTES, 0);
        Segment { bytes, len: 0 }
    }

    fn is_full(&self) -> bool {
        self.len == SEGMENT_RECORDS
    }

    /// End offset of record `i`.
    fn end(&self, i: usize) -> usize {
        let at = 4 * i;
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap()) as usize
    }

    /// Start offset of record `i`.
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            TABLE_BYTES
        } else {
            self.end(i - 1)
        }
    }

    /// Encodes `record` after the last one and returns its body.
    fn push(&mut self, record: &LogRecord) -> &[u8] {
        let start = self.bytes.len();
        encode_record(record, &mut self.bytes);
        let end = u32::try_from(self.bytes.len()).expect("a WAL segment stays under 4 GiB");
        let at = 4 * self.len;
        self.bytes[at..at + 4].copy_from_slice(&end.to_le_bytes());
        self.len += 1;
        &self.bytes[start..]
    }
}

/// The retained records: LSNs `(base, tail]`, in segments of which all but
/// the last are full. A segment's records at or below `base` stay in it
/// until the whole segment is.
#[derive(Debug, Default)]
struct ByteLog {
    segments: VecDeque<Segment>,
    /// LSN before the first record of `segments[0]`.
    first: u64,
    /// LSN of the last truncated-away record (0 if nothing truncated).
    base: u64,
}

impl ByteLog {
    /// A log whose next record is `base + 1`, holding `records` after it.
    fn recovered(base: u64, records: &[LogRecord]) -> ByteLog {
        let mut log = ByteLog {
            segments: VecDeque::new(),
            first: base,
            base,
        };
        for record in records {
            log.push(record);
        }
        log
    }

    /// LSN of the newest record.
    fn tail(&self) -> u64 {
        match self.segments.back() {
            None => self.first,
            Some(last) => {
                self.first + ((self.segments.len() - 1) * SEGMENT_RECORDS + last.len) as u64
            }
        }
    }

    /// Encodes `record` into the tail segment; returns its LSN and body.
    fn push(&mut self, record: &LogRecord) -> (Lsn, &[u8]) {
        let lsn = Lsn(self.tail() + 1);
        if self.segments.back().is_none_or(Segment::is_full) {
            self.segments.push_back(Segment::new());
        }
        let tail = self
            .segments
            .back_mut()
            .expect("a tail segment was just ensured");
        (lsn, tail.push(record))
    }

    /// Replaces `out` with the bodies of up to `max` records from LSN `from`
    /// on: none if `from` is truncated or not yet appended.
    fn copy_out(&self, from: u64, max: usize, out: &mut ShipBatch) {
        out.first = Lsn(from);
        out.bodies.clear();
        out.ends.clear();
        let tail = self.tail();
        if from <= self.base || from > tail {
            return;
        }
        let last = tail.min(from.saturating_add(max.max(1) as u64 - 1));
        let mut lsn = from;
        while lsn <= last {
            let at = (lsn - self.first - 1) as usize;
            let segment = &self.segments[at / SEGMENT_RECORDS];
            // This segment's run of the records asked for: one contiguous copy.
            let i = at % SEGMENT_RECORDS;
            let j = (i + (last - lsn) as usize).min(segment.len - 1);
            let (start, shift) = (segment.start(i), out.bodies.len());
            out.bodies
                .extend_from_slice(&segment.bytes[start..segment.end(j)]);
            out.ends
                .extend((i..=j).map(|k| segment.end(k) - start + shift));
            lsn += (j - i + 1) as u64;
        }
    }

    /// Moves the base to `upto` (never past the tail, never back) and
    /// detaches every segment whose records are all at or below it, for the
    /// caller to free.
    fn truncate(&mut self, upto: u64) -> Vec<Segment> {
        self.base = self.base.max(upto.min(self.tail()));
        let whole = ((self.base - self.first) / SEGMENT_RECORDS as u64) as usize;
        if whole == 0 {
            return Vec::new();
        }
        self.first += (whole * SEGMENT_RECORDS) as u64;
        self.segments.drain(..whole).collect()
    }
}

#[derive(Debug)]
struct LogInner {
    log: ByteLog,
    /// Bumped by [`Wal::crash_and_reopen`]: a parked reader that observes
    /// a generation change is reading across a crash, which is a protocol
    /// bug it must not sleep through.
    generation: u64,
    /// Durability backend (none: in-memory only); staged under this mutex
    /// so it observes appends in LSN order.
    backend: Option<Arc<FileBackend>>,
}

impl LogInner {
    /// Places `record` at the tail and stages the body it was encoded to.
    fn append(&mut self, record: &LogRecord) -> Lsn {
        let (lsn, body) = self.log.push(record);
        if let Some(backend) = &self.backend {
            backend.stage(lsn, body);
        }
        lsn
    }
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
    /// LSN of the newest record, stored (`Release`) under `inner` once the
    /// record is placed and loaded (`Acquire`) by [`Wal::flush_lsn`].
    tail: AtomicU64,
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
    /// An empty log with no durability backend. Allocates nothing.
    pub fn new() -> Self {
        Wal::from_parts(None, ByteLog::default(), 0, None)
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
            Some(Arc::new(backend)),
            ByteLog::recovered(opened.base, &opened.records),
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
        backend: Option<Arc<FileBackend>>,
        log: ByteLog,
        torn_tails: u64,
        durability: Option<FileDurability>,
    ) -> Wal {
        Wal {
            tail: AtomicU64::new(log.tail()),
            inner: Mutex::new(LogInner {
                log,
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
        let lsn = inner.append(&record);
        self.tail.store(lsn.0, Ordering::Release);
        drop(inner);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.grown.notify_all();
        lsn
    }

    /// Appends a record and blocks until it is durable — for the file
    /// backend, until the fsync of the group-commit batch containing its
    /// LSN completes. Without a backend it returns at once, so the commit
    /// path costs nothing extra under the default config.
    ///
    /// Durability failure (sync error, stopped backend, group-commit
    /// timeout) is returned, not panicked: the record is already in the
    /// in-memory log but was never acknowledged durable, so the caller
    /// must treat its transaction as un-committed and abort it.
    pub fn append_durable(&self, record: LogRecord) -> DbResult<Lsn> {
        let mut inner = self.inner.lock();
        let lsn = inner.append(&record);
        self.tail.store(lsn.0, Ordering::Release);
        let backend = inner.backend.clone();
        drop(inner);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.grown.notify_all();
        if let Some(backend) = backend {
            backend.wait_durable(lsn)?;
        }
        Ok(lsn)
    }

    /// The LSN of the newest record (the flush/tail position used for
    /// `LSN_unsync` in the mode-change phase, §3.4). One load, no lock.
    ///
    /// The tail may have moved on by the time the caller looks at it; a
    /// tail that is already stale is only ever lower (outside
    /// [`Wal::crash_and_reopen`]), and that is safe for both kinds of
    /// caller:
    /// - a transaction's `begin_lsn` (`register_active`): a lower begin
    ///   only makes truncation keep more;
    /// - the start of a slot (`create_slot_at_oldest_active`): it loads the
    ///   tail under the slot lock that WAL truncation holds, so the base
    ///   cannot pass the loaded tail before the slot is registered.
    pub fn flush_lsn(&self) -> Lsn {
        Lsn(self.tail.load(Ordering::Acquire))
    }

    /// Highest LSN the backend reports durable ([`Wal::flush_lsn`] without
    /// a backend).
    pub fn durable_lsn(&self) -> Lsn {
        match &self.inner.lock().backend {
            Some(backend) => backend.durable_lsn(),
            None => self.flush_lsn(),
        }
    }

    /// Lifetime count of records appended (both append flavors).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Lifetime count of fsyncs issued by the durability backend.
    pub fn fsyncs(&self) -> u64 {
        self.inner.lock().backend.as_ref().map_or(0, |b| b.fsyncs())
    }

    /// Torn-tail truncations performed across every open/reopen of this
    /// log (the `wal.recovered_torn_tail` metric).
    pub fn recovered_torn_tail(&self) -> u64 {
        self.recovered_torn_tail.load(Ordering::Relaxed)
    }

    /// Returns the record at `lsn`, if it exists and was not truncated.
    pub fn get(&self, lsn: Lsn) -> Option<LogRecord> {
        self.read_one(lsn, &mut ShipBatch::default())
    }

    /// [`Wal::get`], copying through `run`.
    fn read_one(&self, lsn: Lsn, run: &mut ShipBatch) -> Option<LogRecord> {
        self.inner.lock().log.copy_out(lsn.0, 1, run);
        let (_, view) = run.iter().next()?;
        Some(view.decode().expect("the log decodes what it encoded"))
    }

    /// Drops all records with LSN <= `upto`. Readers must have consumed
    /// them; reading a truncated LSN is an error surfaced by [`WalReader`].
    pub fn truncate_until(&self, upto: Lsn) {
        let (freed, backend, base) = {
            let mut inner = self.inner.lock();
            let freed = inner.log.truncate(upto.0);
            (freed, inner.backend.clone(), Lsn(inner.log.base))
        };
        // Whole segments are freed, and segment files deleted, off the
        // inner lock so concurrent appends and reads are not stalled
        // behind them.
        drop(freed);
        if let Some(backend) = backend {
            backend.truncated_until(base);
        }
        // Wake parked readers so one left at or below the new base
        // observes the movement (and trips the truncated-read panic)
        // instead of sleeping out its timeout.
        self.grown.notify_all();
    }

    /// Simulates a process crash and restart of this log: the in-memory
    /// state is dropped, staged-but-unsynced records are discarded, and
    /// the log is repopulated from whatever the durability backend can
    /// recover — everything for a file-backed log (modulo a torn tail),
    /// nothing without a backend.
    pub fn crash_and_reopen(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        if let Some(backend) = &inner.backend {
            backend.crash();
        }
        match &self.durability {
            None => inner.log = ByteLog::default(),
            Some(d) => {
                let (backend, opened) = FileBackend::open(&d.dir, &d.config, Arc::clone(&d.sync))?;
                inner.log = ByteLog::recovered(opened.base, &opened.records);
                self.recovered_torn_tail
                    .fetch_add(opened.torn_tails, Ordering::Relaxed);
                inner.backend = Some(Arc::new(backend));
            }
        }
        self.tail.store(inner.log.tail(), Ordering::Release);
        inner.generation += 1;
        drop(inner);
        self.grown.notify_all();
        Ok(())
    }

    /// Number of retained records.
    pub fn retained(&self) -> usize {
        let inner = self.inner.lock();
        (inner.log.tail() - inner.log.base) as usize
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
            run: ShipBatch::default(),
        }
    }

    /// A reader positioned at the retained head: the first record it
    /// yields is the oldest one truncation left behind (where crash replay
    /// starts).
    pub fn reader_from_head(self: &Arc<Self>) -> WalReader {
        let base = self.inner.lock().log.base;
        self.reader_from(Lsn(base))
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Drain and stop the flusher so segment files are complete before
        // test tempdirs are removed. Idempotent.
        if let Some(backend) = &self.inner.get_mut().backend {
            backend.shutdown();
        }
    }
}

/// What [`WalReader::next_batch`] came back with.
#[derive(Debug)]
pub enum TailRead {
    /// One or more records, in LSN order.
    Batch(ShipBatch),
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

/// A streaming cursor over a [`Wal`], used by migration and replica streams
/// and by crash replay.
#[derive(Debug)]
pub struct WalReader {
    wal: Arc<Wal>,
    next: Lsn,
    state: Arc<TailState>,
    /// The copy buffer: reused by [`WalReader::try_next`], handed out and
    /// replaced by [`WalReader::next_batch`].
    run: ShipBatch,
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
    pub fn try_next(&mut self) -> Option<(Lsn, LogRecord)> {
        let (lsn, record) = (self.next, self.wal.read_one(self.next, &mut self.run)?);
        self.next = Lsn(lsn.0 + 1);
        Some((lsn, record))
    }

    /// Acknowledges everything handed out so far: [`TailHandle::acked`]
    /// reports it from here on. A consumer whose progress someone waits on
    /// acknowledges, then tells them, before it asks for more.
    pub fn ack(&self) {
        self.state.acked.store(self.consumed().0, Ordering::SeqCst);
    }

    /// The one blocking read: acknowledges everything handed out so far,
    /// then parks on the log's `grown` until the record at the reader's
    /// position exists, or a stop ([`TailHandle::stop`]) is asked for and
    /// everything up to it has been handed out, or the `idle` period ends
    /// (one too long to add to the clock never does), whichever is first. On
    /// a record it copies up to `max` records that are already in the log
    /// into its buffer — one wait and one lock amortized over a run of
    /// records instead of one per record — and after unlocking hands the
    /// buffer out, leaving an empty one of the same capacity in its place.
    pub fn next_batch(&mut self, max: usize, idle: Duration) -> TailRead {
        self.ack();
        let (from, stop_at) = (self.next, &self.state.stop_at);
        let mut inner = self.wal.inner.lock();
        let generation = inner.generation;
        let found = time::wait(&self.wal.grown, &mut inner, idle, |inner| {
            if inner.generation != generation {
                // The log was torn down and reopened from disk while this
                // reader was parked: its position is meaningless now.
                panic!("WAL crashed and reopened under a parked reader at {from}");
            }
            if from.0 <= inner.log.base {
                // Truncated from under the reader: a protocol bug.
                panic!("WAL read at truncated {from} (base {})", inner.log.base);
            }
            // `stop_at` only changes under `inner` ([`TailHandle::stop`]), so
            // a stop cannot slip in between this look and the park.
            if from.0 > stop_at.load(Ordering::SeqCst) {
                return Some(false);
            }
            (from.0 <= inner.log.tail()).then_some(true)
        });
        match found {
            Some(true) => {
                inner.log.copy_out(from.0, max, &mut self.run);
                drop(inner);
                let spare = ShipBatch {
                    first: Lsn::ZERO,
                    bodies: Vec::with_capacity(self.run.bodies.capacity()),
                    ends: Vec::with_capacity(self.run.ends.capacity()),
                };
                let run = std::mem::replace(&mut self.run, spare);
                self.next = Lsn(run.last().0 + 1);
                TailRead::Batch(run)
            }
            Some(false) => TailRead::Stopped,
            None => TailRead::Idle,
        }
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

    fn batch_of(read: TailRead) -> Vec<Lsn> {
        match read {
            TailRead::Batch(batch) => batch.iter().map(|(lsn, _)| lsn).collect(),
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
        assert_eq!(batch, vec![Lsn(1), Lsn(2), Lsn(3)]);
        // The rest comes in the next batch, even with headroom to spare.
        let batch = batch_of(reader.next_batch(8, Duration::from_secs(1)));
        assert_eq!(batch, vec![Lsn(4), Lsn(5)]);
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
        assert_eq!(batch, vec![Lsn(1)]);
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
