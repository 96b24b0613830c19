//! Torn-tail matrix (DESIGN.md §10): write N records, truncate the
//! segment file at *every* byte offset inside the last frame, and reopen.
//! Recovery must yield exactly the first N−1 records, never panic, and
//! report the truncation through the `wal.recovered_torn_tail` counter.
//! A flip inside an earlier frame of the newest segment truncates at that
//! frame boundary instead (everything before it survives).

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use remus_common::{NodeId, Timestamp, TxnId, WalConfig};
use remus_wal::{FileBackend, FsyncData, LogOp, LogRecord, Lsn, Wal};

const SEGMENT_HEADER_LEN: usize = 20;
const FRAME_PREFIX_LEN: usize = 8;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let pid = std::process::id();
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let p = std::env::temp_dir().join(format!("remus-torn-{tag}-{pid}-{n}"));
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

/// Writes `n` records into a single segment under `dir` and returns the
/// segment path plus the byte offset where each frame starts.
fn write_log(dir: &Path, n: u64) -> (PathBuf, Vec<usize>) {
    let config = WalConfig::file(dir);
    let (backend, opened) = FileBackend::open(dir, &config, Arc::new(FsyncData)).unwrap();
    assert_eq!(opened.records.len(), 0);
    for i in 1..=n {
        backend.stage_record(Lsn(i), &rec(i));
    }
    backend.wait_durable(Lsn(n)).unwrap();
    backend.shutdown();

    let seg = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("one segment file");
    let data = fs::read(&seg).unwrap();
    let mut starts = Vec::new();
    let mut off = SEGMENT_HEADER_LEN;
    while off < data.len() {
        starts.push(off);
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        off += FRAME_PREFIX_LEN + len;
    }
    assert_eq!(off, data.len(), "frame walk must cover the file exactly");
    assert_eq!(starts.len() as u64, n);
    (seg, starts)
}

/// Copies the written segment into a fresh directory truncated to `cut`
/// bytes, ready to reopen.
fn truncated_copy(seg: &Path, cut: u64, tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let copy = dir.0.join(seg.file_name().unwrap());
    fs::copy(seg, &copy).unwrap();
    OpenOptions::new()
        .write(true)
        .open(&copy)
        .unwrap()
        .set_len(cut)
        .unwrap();
    dir
}

#[test]
fn every_truncation_offset_inside_the_last_frame_recovers_the_prefix() {
    const N: u64 = 6;
    let src = TempDir::new("src");
    let (seg, starts) = write_log(&src.0, N);
    let file_len = fs::metadata(&seg).unwrap().len() as usize;
    let last_start = *starts.last().unwrap();

    for cut in last_start..file_len {
        let dir = truncated_copy(&seg, cut as u64, "cut");
        let config = WalConfig::file(&dir.0);
        let (backend, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData))
            .unwrap_or_else(|e| {
                panic!("reopen after cut at byte {cut} failed: {e:?}");
            });
        assert_eq!(
            opened.records.len() as u64,
            N - 1,
            "cut at byte {cut}: wrong record count"
        );
        for (i, r) in opened.records.iter().enumerate() {
            assert_eq!(*r, rec(i as u64 + 1), "cut at byte {cut}: record {i}");
        }
        // A cut exactly on the frame boundary is a clean end, not a tear.
        let expected_tears = u64::from(cut > last_start);
        assert_eq!(
            opened.torn_tails, expected_tears,
            "cut at byte {cut}: torn-tail count"
        );
        // The truncated file was repaired in place: reopening again is
        // clean and sees the same prefix.
        backend.shutdown();
        let (b2, again) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
        assert_eq!(again.records.len() as u64, N - 1);
        assert_eq!(again.torn_tails, 0, "second open of a repaired log");
        b2.shutdown();
    }
}

#[test]
fn torn_tail_is_reported_through_the_wal_counter() {
    const N: u64 = 6;
    let src = TempDir::new("counter-src");
    let (seg, starts) = write_log(&src.0, N);
    let cut = *starts.last().unwrap() + 3; // mid-prefix of the last frame
    let dir = truncated_copy(&seg, cut as u64, "counter");

    let wal = Wal::open_file(&dir.0, &WalConfig::file(&dir.0)).unwrap();
    assert_eq!(wal.recovered_torn_tail(), 1);
    assert_eq!(wal.flush_lsn(), Lsn(N - 1));
    assert_eq!(wal.get(Lsn(N - 1)).expect("tail record"), rec(N - 1));
    assert!(wal.get(Lsn(N)).is_none(), "torn record must not resurface");
    // The reopened log keeps appending where the repaired tail ends.
    let lsn = wal.append_durable(rec(N)).unwrap();
    assert_eq!(lsn, Lsn(N));
}

#[test]
fn damage_before_the_tail_of_the_newest_segment_truncates_at_that_frame() {
    const N: u64 = 6;
    let src = TempDir::new("mid-src");
    let (seg, starts) = write_log(&src.0, N);

    // Flip one payload byte in the 4th frame: frames 1..=3 survive, the
    // rest of the (newest) segment is cut at the damaged frame boundary.
    let dir = TempDir::new("mid");
    let copy = dir.0.join(seg.file_name().unwrap());
    fs::copy(&seg, &copy).unwrap();
    let mut data = fs::read(&copy).unwrap();
    data[starts[3] + FRAME_PREFIX_LEN + 2] ^= 0x10;
    fs::write(&copy, data).unwrap();

    let config = WalConfig::file(&dir.0);
    let (backend, opened) = FileBackend::open(&dir.0, &config, Arc::new(FsyncData)).unwrap();
    assert_eq!(opened.records.len(), 3);
    assert_eq!(opened.torn_tails, 1);
    backend.shutdown();
}
