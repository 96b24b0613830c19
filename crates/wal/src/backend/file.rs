//! The file-backed segment log: frozen on-disk v1 format, group commit
//! with fsync coalescing, and a torn-tail-tolerant opener.
//!
//! # On-disk format (v1, frozen — see DESIGN.md §10)
//!
//! A node's log is a directory of segment files named
//! `wal-<first_lsn>.seg`. Each segment starts with a 20-byte header:
//!
//! ```text
//! magic "RMWAL1\0\0" (8 bytes) | version u32 LE (= 1) | first_lsn u64 LE
//! ```
//!
//! followed by length-prefixed record frames:
//!
//! ```text
//! payload_len u32 LE | crc32 u32 LE | payload
//! payload = lsn u64 LE | codec-encoded LogRecord
//! ```
//!
//! The CRC covers the payload (LSN included). LSNs must be dense and
//! monotonic within and across segments. On reopen, the first structurally
//! bad frame (short frame, CRC mismatch, LSN break) in the **newest**
//! segment is treated as a torn tail: the file is truncated at the frame
//! boundary and recovery proceeds with the prefix. The same damage in any
//! older segment is mid-log corruption and hard-fails with
//! [`DbError::WalCorrupt`].
//!
//! # Group commit
//!
//! Appends are staged (already encoded) under the log's append lock; a
//! background flusher drains the staging buffer in batches, writes the
//! frames, issues **one** fsync per batch via the [`SyncPolicy`], then
//! advances the durable LSN and wakes every committer waiting in
//! [`WalBackend::wait_durable`]. A commit therefore waits exactly for the
//! flusher batch containing its LSN, and concurrent committers share
//! fsyncs (`wal.fsyncs` ≪ `wal.appends` under load).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbError, DbResult, WalConfig};

use crate::backend::WalBackend;
use crate::codec::{self, crc32};
use crate::log::Lsn;
use crate::record::LogRecord;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"RMWAL1\0\0";
/// On-disk format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Bytes of the segment header (magic + version + first LSN).
pub const SEGMENT_HEADER_LEN: usize = 8 + 4 + 8;
/// Bytes of a frame prefix (payload length + CRC).
pub const FRAME_PREFIX_LEN: usize = 4 + 4;
/// Sanity ceiling on a single frame payload; anything larger is damage.
const MAX_FRAME_PAYLOAD: u32 = 1 << 24;
/// Maximum records the group-commit flusher writes per fsync batch.
const GROUP_COMMIT_BATCH: usize = 256;

/// How a sync is performed — the seam the group-commit fault tests mock.
///
/// The production policy is [`FsyncData`]. Tests substitute blocking or
/// failing policies to prove ordering (no commit acknowledged before its
/// batch's sync returns) and error propagation.
pub trait SyncPolicy: Send + Sync + std::fmt::Debug {
    /// Makes `file`'s written data durable.
    fn sync(&self, file: &File) -> io::Result<()>;
}

/// The production sync policy: `fdatasync`.
#[derive(Debug, Default)]
pub struct FsyncData;

impl SyncPolicy for FsyncData {
    fn sync(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }
}

/// What the opener recovered from a segment directory.
#[derive(Debug)]
pub struct RecoveredLog {
    /// LSN of the record *before* the first recovered one (0 for a log
    /// that still starts at LSN 1).
    pub base: u64,
    /// Recovered records, dense from `base + 1`.
    pub records: Vec<LogRecord>,
    /// Torn-tail truncations performed during open (0 or 1).
    pub torn_tails: u64,
}

impl RecoveredLog {
    /// LSN of the newest recovered record.
    pub fn tail(&self) -> u64 {
        self.base + self.records.len() as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Drain,
    Abandon,
}

#[derive(Debug)]
struct Staging {
    frames: Vec<(u64, Vec<u8>)>,
    mode: Mode,
}

#[derive(Debug)]
struct DurableState {
    lsn: u64,
    error: Option<String>,
    /// Set (under `durable`) when the flusher thread returns, for any
    /// reason. Once true, no LSN beyond `lsn` can ever become durable, so
    /// waiters fail immediately instead of sleeping out their timeout.
    flusher_exited: bool,
}

#[derive(Debug)]
struct Shared {
    staged: Mutex<Staging>,
    staged_cv: Condvar,
    durable: Mutex<DurableState>,
    durable_cv: Condvar,
    fsyncs: AtomicU64,
    /// Live segments as `(first_lsn, path)`, oldest first. The flusher
    /// pushes on rotation; `truncated_until` pops reclaimed prefixes.
    segments: Mutex<Vec<(u64, PathBuf)>>,
}

/// The file-backed [`WalBackend`]. See the module docs for the format and
/// the group-commit protocol.
#[derive(Debug)]
pub struct FileBackend {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl FileBackend {
    /// Opens (or creates) the segment directory at `dir`, recovering every
    /// intact record, truncating a torn tail in the newest segment, and
    /// hard-failing on mid-log corruption. Returns the running backend
    /// (flusher started, positioned after the recovered tail) plus the
    /// recovered records for the in-memory log to repopulate from.
    pub fn open(
        dir: &Path,
        config: &WalConfig,
        sync: Arc<dyn SyncPolicy>,
    ) -> DbResult<(FileBackend, RecoveredLog)> {
        fs::create_dir_all(dir).map_err(wal_io)?;
        let mut segs = list_segments(dir)?;
        segs.sort_by_key(|(lsn, _)| *lsn);

        let mut recovered = RecoveredLog {
            base: 0,
            records: Vec::new(),
            torn_tails: 0,
        };
        let mut live_segments: Vec<(u64, PathBuf)> = Vec::new();
        let mut expected: Option<u64> = None;
        let last_idx = segs.len().wrapping_sub(1);
        for (i, (name_lsn, path)) in segs.iter().enumerate() {
            let is_last = i == last_idx;
            match read_segment(path, *name_lsn, expected, is_last, &mut recovered)? {
                SegmentFate::Kept => live_segments.push((*name_lsn, path.clone())),
                SegmentFate::Removed => {}
            }
            expected = Some(recovered.tail() + 1);
        }

        let shared = Arc::new(Shared {
            staged: Mutex::new(Staging {
                frames: Vec::new(),
                mode: Mode::Run,
            }),
            staged_cv: Condvar::new(),
            durable: Mutex::new(DurableState {
                lsn: recovered.tail(),
                error: None,
                flusher_exited: false,
            }),
            durable_cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            segments: Mutex::new(live_segments),
        });
        let io = FlusherIo {
            dir: dir.to_path_buf(),
            segment_bytes: config.segment_bytes.max(SEGMENT_HEADER_LEN as u64 + 1),
            sync,
            cur: None,
            cur_bytes: 0,
        };
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || run_flusher(shared, io))
                .map_err(wal_io)?
        };
        Ok((
            FileBackend {
                shared,
                flusher: Mutex::new(Some(flusher)),
            },
            recovered,
        ))
    }

    fn stop(&self, mode: Mode) {
        let handle = self.flusher.lock().take();
        {
            let mut st = self.shared.staged.lock();
            st.mode = mode;
        }
        self.shared.staged_cv.notify_all();
        if let Some(h) = handle {
            let _ = h.join();
        }
        if mode == Mode::Abandon {
            let mut d = self.shared.durable.lock();
            if d.error.is_none() {
                d.error = Some("wal backend crashed".to_string());
            }
            drop(d);
            self.shared.durable_cv.notify_all();
        }
    }
}

impl WalBackend for FileBackend {
    fn stage(&self, lsn: Lsn, record: &LogRecord) {
        let frame = encode_frame(lsn.0, record);
        let mut st = self.shared.staged.lock();
        if st.mode != Mode::Run {
            // The flusher is stopping or gone: this frame can never become
            // durable, so dropping it (the caller's wait_durable fails
            // fast) beats buffering it unboundedly.
            return;
        }
        st.frames.push((lsn.0, frame));
        drop(st);
        self.shared.staged_cv.notify_one();
    }

    fn wait_durable(&self, lsn: Lsn) -> DbResult<()> {
        let mut d = self.shared.durable.lock();
        time::wait(
            &self.shared.durable_cv,
            &mut d,
            Duration::from_secs(10),
            |d| {
                if d.lsn >= lsn.0 {
                    Some(Ok(()))
                } else if let Some(e) = &d.error {
                    Some(Err(DbError::Internal(e.clone())))
                } else {
                    d.flusher_exited.then(|| {
                        Err(DbError::Internal(format!(
                            "wal backend stopped before {lsn} became durable"
                        )))
                    })
                }
            },
        )
        .unwrap_or(Err(DbError::Timeout("wal group commit")))
    }

    fn durable_lsn(&self) -> Lsn {
        Lsn(self.shared.durable.lock().lsn)
    }

    fn fsyncs(&self) -> u64 {
        self.shared.fsyncs.load(Ordering::Relaxed)
    }

    fn truncated_until(&self, lsn: Lsn) {
        let mut segs = self.shared.segments.lock();
        // A segment is reclaimable once the *next* segment starts at or
        // below lsn + 1 (every record in it is then ≤ lsn). The newest
        // segment is never reclaimed: the flusher may still append to it.
        while segs.len() > 1 && segs[1].0 <= lsn.0 + 1 {
            let (_, path) = segs.remove(0);
            let _ = fs::remove_file(path);
        }
    }

    fn shutdown(&self) {
        self.stop(Mode::Drain);
    }

    fn crash(&self) {
        self.stop(Mode::Abandon);
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds one on-disk frame for `record` at `lsn`.
fn encode_frame(lsn: u64, record: &LogRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(40);
    payload.extend_from_slice(&lsn.to_le_bytes());
    codec::encode_record(record, &mut payload);
    let crc = crc32(&payload);
    let mut frame = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

struct FlusherIo {
    dir: PathBuf,
    segment_bytes: u64,
    sync: Arc<dyn SyncPolicy>,
    cur: Option<File>,
    cur_bytes: u64,
}

impl FlusherIo {
    fn write_batch(&mut self, shared: &Shared, batch: &[(u64, Vec<u8>)]) -> io::Result<()> {
        for (lsn, frame) in batch {
            if self.cur.is_none() || self.cur_bytes >= self.segment_bytes {
                self.rotate(shared, *lsn)?;
            }
            let f = self.cur.as_mut().expect("rotate opened a segment");
            f.write_all(frame)?;
            self.cur_bytes += frame.len() as u64;
        }
        let f = self.cur.as_ref().expect("batch wrote to a segment");
        self.sync.sync(f)?;
        shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn rotate(&mut self, shared: &Shared, first_lsn: u64) -> io::Result<()> {
        // Seal the finished segment before opening the next so that, after
        // a crash, only the newest segment can ever hold a torn tail.
        if let Some(f) = &self.cur {
            self.sync.sync(f)?;
            shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let path = self.dir.join(segment_file_name(first_lsn));
        let mut f = File::create(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&first_lsn.to_le_bytes());
        f.write_all(&header)?;
        // Recovery can keep a record-less newest segment (a torn first
        // frame truncates it back to its header), which open() already
        // registered under this same first_lsn — and File::create just
        // re-created that very file. Replace the stale entry instead of
        // pushing a duplicate, or truncated_until would count the pair as
        // prefix + successor and unlink the file the flusher is writing.
        let mut segs = shared.segments.lock();
        segs.retain(|(lsn, _)| *lsn != first_lsn);
        segs.push((first_lsn, path));
        drop(segs);
        self.cur = Some(f);
        self.cur_bytes = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }
}

fn run_flusher(shared: Arc<Shared>, mut io: FlusherIo) {
    loop {
        let batch = {
            let mut st = shared.staged.lock();
            while st.frames.is_empty() && st.mode == Mode::Run {
                shared.staged_cv.wait(&mut st);
            }
            if st.mode == Mode::Abandon {
                st.frames.clear();
                break;
            }
            if st.frames.is_empty() {
                break; // drain complete
            }
            let take = st.frames.len().min(GROUP_COMMIT_BATCH);
            st.frames.drain(..take).collect::<Vec<_>>()
        };
        let last = batch.last().expect("non-empty batch").0;
        match io.write_batch(&shared, &batch) {
            Ok(()) => {
                shared.durable.lock().lsn = last;
                shared.durable_cv.notify_all();
            }
            Err(e) => {
                shared.durable.lock().error = Some(format!("wal flusher: {e}"));
                // Latch the death in the staging state too, so stage()
                // stops buffering frames that can never be synced.
                let mut st = shared.staged.lock();
                st.mode = Mode::Abandon;
                st.frames.clear();
                drop(st);
                shared.durable_cv.notify_all();
                break;
            }
        }
    }
    let mut d = shared.durable.lock();
    d.flusher_exited = true;
    drop(d);
    shared.durable_cv.notify_all();
}

/// `wal-<first_lsn>.seg`, zero-padded so lexicographic order matches LSN
/// order in directory listings.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.seg")
}

fn list_segments(dir: &Path) -> DbResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(wal_io)? {
        let entry = entry.map_err(wal_io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        let Ok(first_lsn) = stem.parse::<u64>() else {
            continue;
        };
        out.push((first_lsn, entry.path()));
    }
    Ok(out)
}

enum SegmentFate {
    Kept,
    Removed,
}

/// Parses one segment, appending recovered records. `expected` is the LSN
/// the first record of this segment must carry (None for the oldest
/// segment, which defines the base). Torn damage in the last segment
/// truncates the file at the frame boundary; anywhere else it hard-fails.
fn read_segment(
    path: &Path,
    name_lsn: u64,
    expected: Option<u64>,
    is_last: bool,
    recovered: &mut RecoveredLog,
) -> DbResult<SegmentFate> {
    let data = fs::read(path).map_err(wal_io)?;
    if data.len() < SEGMENT_HEADER_LEN {
        if is_last {
            // Crash mid-header: nothing durable in here at all.
            fs::remove_file(path).map_err(wal_io)?;
            recovered.torn_tails += 1;
            return Ok(SegmentFate::Removed);
        }
        return Err(DbError::WalCorrupt(format!(
            "segment {} shorter than its header",
            path.display()
        )));
    }
    if data[..8] != SEGMENT_MAGIC {
        return Err(DbError::WalCorrupt(format!(
            "segment {} has bad magic",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(DbError::WalCorrupt(format!(
            "segment {} has version {version}, expected {SEGMENT_VERSION}",
            path.display()
        )));
    }
    let first_lsn = u64::from_le_bytes(data[12..20].try_into().unwrap());
    if first_lsn != name_lsn {
        return Err(DbError::WalCorrupt(format!(
            "segment {} header LSN {first_lsn} disagrees with its name",
            path.display()
        )));
    }
    match expected {
        None => recovered.base = first_lsn.saturating_sub(1),
        Some(e) if e == first_lsn => {}
        Some(e) => {
            return Err(DbError::WalCorrupt(format!(
                "segment gap: {} starts at {first_lsn}, expected {e}",
                path.display()
            )))
        }
    }

    let mut off = SEGMENT_HEADER_LEN;
    let mut next_lsn = first_lsn;
    while off < data.len() {
        match parse_frame(&data, off, next_lsn, path)? {
            FrameStep::Parsed { end, record } => {
                recovered.records.push(record);
                next_lsn += 1;
                off = end;
            }
            FrameStep::Torn(what) => {
                if !is_last {
                    return Err(DbError::WalCorrupt(format!(
                        "segment {} offset {off}: {what}",
                        path.display()
                    )));
                }
                // Torn tail: cut the file at the frame boundary and stop.
                let f = OpenOptions::new().write(true).open(path).map_err(wal_io)?;
                f.set_len(off as u64).map_err(wal_io)?;
                f.sync_data().map_err(wal_io)?;
                recovered.torn_tails += 1;
                break;
            }
        }
    }
    Ok(SegmentFate::Kept)
}

/// One structural step of the segment scan.
enum FrameStep {
    /// A valid frame: its end offset and decoded record.
    Parsed { end: usize, record: LogRecord },
    /// Structurally broken at this offset — a torn write if this is the
    /// tail of the newest segment, corruption anywhere else.
    Torn(&'static str),
}

/// Parses the frame at `off`. Structural damage (short prefix, implausible
/// length, CRC mismatch, LSN break) is reported as [`FrameStep::Torn`] for
/// the caller to judge by position; a frame whose CRC passes but whose
/// record does not decode means the writer was broken, which is corruption
/// even in the tail — never a torn write — and fails outright.
fn parse_frame(data: &[u8], off: usize, next_lsn: u64, path: &Path) -> DbResult<FrameStep> {
    if off + FRAME_PREFIX_LEN > data.len() {
        return Ok(FrameStep::Torn("short frame prefix"));
    }
    let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
    if !(8..=MAX_FRAME_PAYLOAD).contains(&len) {
        return Ok(FrameStep::Torn("implausible frame length"));
    }
    let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
    let Some(end) = (off + FRAME_PREFIX_LEN).checked_add(len as usize) else {
        return Ok(FrameStep::Torn("frame length overflow"));
    };
    if end > data.len() {
        return Ok(FrameStep::Torn("frame extends past end of file"));
    }
    let payload = &data[off + FRAME_PREFIX_LEN..end];
    if crc32(payload) != crc {
        return Ok(FrameStep::Torn("CRC mismatch"));
    }
    let lsn = u64::from_le_bytes(payload[..8].try_into().unwrap());
    if lsn != next_lsn {
        return Ok(FrameStep::Torn("LSN break"));
    }
    let record = codec::decode_record(&payload[8..]).map_err(|e| {
        DbError::WalCorrupt(format!(
            "segment {} offset {off}: undecodable record with valid CRC: {e}",
            path.display()
        ))
    })?;
    Ok(FrameStep::Parsed { end, record })
}

fn wal_io(e: io::Error) -> DbError {
    DbError::Internal(format!("wal io: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogOp, LogRecord};
    use remus_common::{Timestamp, TxnId};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let pid = std::process::id();
            let n = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let p = std::env::temp_dir().join(format!("remus-wal-{tag}-{pid}-{n}"));
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
        LogRecord::new(TxnId(n), LogOp::Commit(Timestamp(n)))
    }

    fn cfg(segment_bytes: u64) -> WalConfig {
        let mut c = WalConfig::file("ignored");
        c.segment_bytes = segment_bytes;
        c
    }

    #[test]
    fn write_reopen_round_trips() {
        let dir = TempDir::new("roundtrip");
        let config = cfg(1 << 20);
        {
            let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
            assert_eq!(opened.records.len(), 0);
            for n in 1..=20u64 {
                b.stage(Lsn(n), &rec(n));
            }
            b.wait_durable(Lsn(20)).unwrap();
            assert!(b.fsyncs() >= 1);
            b.shutdown();
        }
        let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        assert_eq!(opened.base, 0);
        assert_eq!(opened.torn_tails, 0);
        assert_eq!(opened.records.len(), 20);
        for (i, r) in opened.records.iter().enumerate() {
            assert_eq!(*r, rec(i as u64 + 1));
        }
        b.shutdown();
    }

    #[test]
    fn rotation_splits_into_multiple_segments_and_reopens() {
        let dir = TempDir::new("rotate");
        let config = cfg(64); // tiny: a couple of frames per segment
        {
            let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
            for n in 1..=50u64 {
                b.stage(Lsn(n), &rec(n));
                // Sync each record so rotation happens at deterministic
                // frame boundaries rather than batch boundaries.
                b.wait_durable(Lsn(n)).unwrap();
            }
            b.shutdown();
        }
        let segs = list_segments(&dir.0).unwrap();
        assert!(segs.len() >= 3, "expected several segments, got {segs:?}");
        let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        assert_eq!(opened.records.len(), 50);
        b.shutdown();
    }

    #[test]
    fn truncated_until_drops_whole_prefix_segments() {
        let dir = TempDir::new("trunc");
        let config = cfg(64);
        let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        for n in 1..=50u64 {
            b.stage(Lsn(n), &rec(n));
            b.wait_durable(Lsn(n)).unwrap();
        }
        let before = list_segments(&dir.0).unwrap().len();
        assert!(before >= 3);
        b.truncated_until(Lsn(50));
        let after = list_segments(&dir.0).unwrap();
        assert_eq!(after.len(), 1, "only the newest segment survives");
        b.shutdown();
        // The survivor still opens: prefix drop moved the base forward.
        let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        let first_kept = after[0].0;
        assert_eq!(opened.base, first_kept - 1);
        assert_eq!(opened.tail(), 50);
        b.shutdown();
    }

    #[test]
    fn crash_discards_staged_but_keeps_durable_prefix() {
        let dir = TempDir::new("crash");
        let config = cfg(1 << 20);
        #[derive(Debug)]
        struct Gate(Mutex<bool>, Condvar);
        impl SyncPolicy for Gate {
            fn sync(&self, file: &File) -> io::Result<()> {
                let mut open = self.0.lock();
                while !*open {
                    self.1.wait(&mut open);
                }
                file.sync_data()
            }
        }
        let gate = Arc::new(Gate(Mutex::new(true), Condvar::new()));
        let (b, _) = FileBackend::open(&dir.0, &config, gate.clone()).unwrap();
        for n in 1..=5u64 {
            b.stage(Lsn(n), &rec(n));
        }
        b.wait_durable(Lsn(5)).unwrap();
        // Close the gate, stage more, crash: the extra records must die.
        *gate.0.lock() = false;
        for n in 6..=9u64 {
            b.stage(Lsn(n), &rec(n));
        }
        *gate.0.lock() = true;
        gate.1.notify_all();
        b.crash();
        let (b2, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        assert!(opened.tail() >= 5, "durable prefix lost: {}", opened.tail());
        assert!(opened.torn_tails == 0);
        b2.shutdown();
    }

    #[test]
    fn mid_log_corruption_hard_fails() {
        let dir = TempDir::new("midcorrupt");
        let config = cfg(64);
        {
            let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
            for n in 1..=30u64 {
                b.stage(Lsn(n), &rec(n));
                b.wait_durable(Lsn(n)).unwrap();
            }
            b.shutdown();
        }
        let mut segs = list_segments(&dir.0).unwrap();
        segs.sort_by_key(|(l, _)| *l);
        assert!(segs.len() >= 2);
        // Flip one byte in the middle of the OLDEST segment's body.
        let victim = &segs[0].1;
        let mut data = fs::read(victim).unwrap();
        let at = SEGMENT_HEADER_LEN + FRAME_PREFIX_LEN + 3;
        data[at] ^= 0x40;
        fs::write(victim, data).unwrap();
        let err = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap_err();
        assert!(matches!(err, DbError::WalCorrupt(_)), "{err:?}");
    }

    /// Review regression: a torn *first* frame leaves recovery holding a
    /// header-only newest segment. The first post-reopen rotation re-creates
    /// that same `wal-<lsn>.seg`; it must replace the recovered entry in the
    /// segment list, not duplicate it — a duplicate made `truncated_until`
    /// unlink the live segment and lose acknowledged-durable records.
    #[test]
    fn reopen_after_torn_first_frame_keeps_new_durable_records() {
        let dir = TempDir::new("hdronly");
        let config = cfg(1 << 20);
        {
            let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
            for n in 1..=2u64 {
                b.stage(Lsn(n), &rec(n));
            }
            b.wait_durable(Lsn(2)).unwrap();
            b.shutdown();
        }
        // Tear the log inside its very first frame.
        let segs = list_segments(&dir.0).unwrap();
        assert_eq!(segs.len(), 1);
        let f = OpenOptions::new().write(true).open(&segs[0].1).unwrap();
        f.set_len(SEGMENT_HEADER_LEN as u64 + 5).unwrap();
        drop(f);
        {
            let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
            assert_eq!(opened.records.len(), 0);
            assert_eq!(opened.torn_tails, 1);
            for n in 1..=5u64 {
                b.stage(Lsn(n), &rec(n));
            }
            b.wait_durable(Lsn(5)).unwrap();
            assert_eq!(
                b.shared.segments.lock().len(),
                1,
                "rotation duplicated the recovered header-only segment entry"
            );
            b.truncated_until(Lsn(3));
            b.shutdown();
        }
        let (b, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        assert_eq!(opened.base, 0);
        assert_eq!(
            opened.records.len(),
            5,
            "acknowledged-durable records lost after header-only-segment reopen"
        );
        b.shutdown();
    }

    /// Once the flusher has died on a sync error, later stages must be
    /// dropped (not buffered forever) and waiters must fail immediately
    /// instead of burning the 10s group-commit timeout each.
    #[test]
    fn stage_and_wait_fail_fast_after_flusher_death() {
        #[derive(Debug)]
        struct BrokenSync;
        impl SyncPolicy for BrokenSync {
            fn sync(&self, _file: &File) -> io::Result<()> {
                Err(io::Error::other("injected sync failure"))
            }
        }
        let dir = TempDir::new("failfast");
        let config = cfg(1 << 20);
        let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(BrokenSync)).unwrap();
        b.stage(Lsn(1), &rec(1));
        assert!(b.wait_durable(Lsn(1)).is_err());
        let start = std::time::Instant::now();
        for n in 2..=10u64 {
            b.stage(Lsn(n), &rec(n));
        }
        assert!(
            b.shared.staged.lock().frames.is_empty(),
            "frames buffered after flusher death"
        );
        assert!(b.wait_durable(Lsn(10)).is_err());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "wait_durable slept out the timeout on a dead flusher"
        );
        b.shutdown();
    }

    /// After a clean shutdown, waiting on an LSN beyond the durable tail
    /// errors promptly; already-durable LSNs still report success.
    #[test]
    fn wait_after_shutdown_fails_fast() {
        let dir = TempDir::new("shutdownwait");
        let config = cfg(1 << 20);
        let (b, _) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        b.stage(Lsn(1), &rec(1));
        b.wait_durable(Lsn(1)).unwrap();
        b.shutdown();
        let start = std::time::Instant::now();
        assert!(b.wait_durable(Lsn(2)).is_err());
        assert!(start.elapsed() < Duration::from_secs(2));
        b.wait_durable(Lsn(1)).unwrap();
    }
}
