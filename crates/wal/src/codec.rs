//! Binary codec for [`LogRecord`] — the payload format of the on-disk
//! segment log (DESIGN.md §10).
//!
//! Every encoded record starts with a one-byte format version so the
//! vocabulary can grow without breaking old segments. All integers are
//! little-endian and fixed-width: the record stream must be byte-exact
//! and self-describing, with no varint ambiguity, so the torn-tail
//! detector can reason about truncation offsets. The frame checksum lives
//! one layer up (the segment framing in [`crate::backend::file`]); this
//! module also hosts the CRC-32 implementation it uses, hand-rolled
//! because the workspace builds offline with no checksum crate.
//!
//! The log keeps these bodies as they are and readers hand them out as they
//! are ([`crate::ship::ShipBatch`]). A [`RecordView`] reads one in place: the
//! xid and a write's shard sit at fixed offsets, so a consumer that filters
//! by shard decodes only what it keeps.

use remus_common::{DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_storage::Value;

use crate::record::{LogOp, LogRecord, WriteKind, WriteOp};

/// Codec format version written as the first byte of every encoded record.
pub const CODEC_VERSION: u8 = 1;

// Operation tags (second byte). Frozen: append-only on format evolution.
const TAG_BEGIN: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_COMMIT_PREPARED: u8 = 6;
const TAG_ROLLBACK_PREPARED: u8 = 7;

// Write kinds (one byte inside a TAG_WRITE body).
const KIND_INSERT: u8 = 1;
const KIND_UPDATE: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_LOCK: u8 = 4;

/// Encodes a record into `out`: version, xid, op tag, op body.
pub fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    out.push(CODEC_VERSION);
    out.extend_from_slice(&record.xid.0.to_le_bytes());
    match &record.op {
        LogOp::Begin(ts) => {
            out.push(TAG_BEGIN);
            out.extend_from_slice(&ts.0.to_le_bytes());
        }
        LogOp::Write(w) => {
            out.push(TAG_WRITE);
            out.extend_from_slice(&w.shard.raw().to_le_bytes());
            out.extend_from_slice(&w.key.to_le_bytes());
            out.push(match w.kind {
                WriteKind::Insert => KIND_INSERT,
                WriteKind::Update => KIND_UPDATE,
                WriteKind::Delete => KIND_DELETE,
                WriteKind::Lock => KIND_LOCK,
            });
            out.extend_from_slice(&(w.value.len() as u32).to_le_bytes());
            out.extend_from_slice(&w.value);
        }
        LogOp::Prepare => out.push(TAG_PREPARE),
        LogOp::Commit(ts) => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&ts.0.to_le_bytes());
        }
        LogOp::Abort => out.push(TAG_ABORT),
        LogOp::CommitPrepared(ts) => {
            out.push(TAG_COMMIT_PREPARED);
            out.extend_from_slice(&ts.0.to_le_bytes());
        }
        LogOp::RollbackPrepared => out.push(TAG_ROLLBACK_PREPARED),
    }
}

/// Encodes a record into a fresh buffer.
pub fn encode_record_vec(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_record(record, &mut out);
    out
}

/// One encoded record body, read in place. Built over a body this codec
/// wrote (the log's, or a test's); a shorter slice panics on the fixed-offset
/// reads: the xid after the version byte, the op tag after the xid, a
/// write's shard after the tag.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a>(pub(crate) &'a [u8]);

impl RecordView<'_> {
    /// The transaction the record belongs to.
    pub fn xid(&self) -> TxnId {
        TxnId(u64_at(self.0, 1))
    }

    /// The shard of a `Write`; `None` for every other record.
    pub fn shard(&self) -> Option<ShardId> {
        (self.0[9] == TAG_WRITE).then(|| ShardId(u64_at(self.0, 10)))
    }

    /// The whole record: [`decode_record`] of the body.
    pub fn decode(&self) -> DbResult<LogRecord> {
        decode_record(self.0)
    }
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Decodes one record from `buf`, which must contain exactly one encoded
/// record (the segment framing delimits records; trailing bytes are a
/// corruption signal, not a second record).
pub fn decode_record(buf: &[u8]) -> DbResult<LogRecord> {
    let mut cur = Cursor { buf, at: 0 };
    let version = cur.u8()?;
    if version != CODEC_VERSION {
        return Err(DbError::WalCorrupt(format!(
            "record codec version {version}, expected {CODEC_VERSION}"
        )));
    }
    let xid = TxnId(cur.u64()?);
    let op = match cur.u8()? {
        TAG_BEGIN => LogOp::Begin(Timestamp(cur.u64()?)),
        TAG_WRITE => {
            let shard = ShardId(cur.u64()?);
            let key = cur.u64()?;
            let kind = match cur.u8()? {
                KIND_INSERT => WriteKind::Insert,
                KIND_UPDATE => WriteKind::Update,
                KIND_DELETE => WriteKind::Delete,
                KIND_LOCK => WriteKind::Lock,
                k => return Err(DbError::WalCorrupt(format!("unknown write kind {k}"))),
            };
            let len = cur.u32()? as usize;
            let value = Value::copy_from_slice(cur.bytes(len)?);
            LogOp::Write(WriteOp {
                shard,
                key,
                kind,
                value,
            })
        }
        TAG_PREPARE => LogOp::Prepare,
        TAG_COMMIT => LogOp::Commit(Timestamp(cur.u64()?)),
        TAG_ABORT => LogOp::Abort,
        TAG_COMMIT_PREPARED => LogOp::CommitPrepared(Timestamp(cur.u64()?)),
        TAG_ROLLBACK_PREPARED => LogOp::RollbackPrepared,
        t => return Err(DbError::WalCorrupt(format!("unknown op tag {t}"))),
    };
    if cur.at != buf.len() {
        return Err(DbError::WalCorrupt(format!(
            "{} trailing bytes after record",
            buf.len() - cur.at
        )));
    }
    Ok(LogRecord { xid, op })
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> DbResult<&[u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(DbError::WalCorrupt(format!(
                "record truncated: wanted {n} bytes at offset {}",
                self.at
            ))),
        }
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) over `data`.
///
/// Table-driven, one byte at a time — plenty for the record sizes here,
/// and dependency-free for the offline build.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

/// The standard reflected CRC-32 table for polynomial 0xEDB88320.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    fn sample_ops() -> Vec<LogOp> {
        vec![
            LogOp::Begin(Timestamp(7)),
            LogOp::Write(WriteOp {
                shard: ShardId(3),
                key: 42,
                kind: WriteKind::Update,
                value: Value::copy_from_slice(b"hello"),
            }),
            LogOp::Write(WriteOp {
                shard: ShardId(0),
                key: 0,
                kind: WriteKind::Delete,
                value: Value::new(),
            }),
            LogOp::Prepare,
            LogOp::Commit(Timestamp(9)),
            LogOp::Abort,
            LogOp::CommitPrepared(Timestamp(11)),
            LogOp::RollbackPrepared,
        ]
    }

    #[test]
    fn every_op_round_trips() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let rec = LogRecord::new(TxnId::new(NodeId(2), i as u64 + 1), op);
            let bytes = encode_record_vec(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn a_view_reads_the_xid_and_a_writes_shard_in_place() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let rec = LogRecord::new(TxnId::new(NodeId(2), i as u64 + 1), op);
            let bytes = encode_record_vec(&rec);
            let view = RecordView(&bytes);
            assert_eq!(view.xid(), rec.xid);
            let shard = match &rec.op {
                LogOp::Write(w) => Some(w.shard),
                _ => None,
            };
            assert_eq!(view.shard(), shard);
            assert_eq!(view.decode().unwrap(), rec);
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let rec = LogRecord::new(TxnId::new(NodeId(0), 1), LogOp::Prepare);
        let mut bytes = encode_record_vec(&rec);
        bytes[0] = 99;
        assert!(matches!(decode_record(&bytes), Err(DbError::WalCorrupt(_))));
    }

    #[test]
    fn truncated_and_padded_buffers_are_rejected() {
        let rec = LogRecord::new(
            TxnId::new(NodeId(1), 5),
            LogOp::Write(WriteOp {
                shard: ShardId(1),
                key: 9,
                kind: WriteKind::Insert,
                value: Value::copy_from_slice(b"payload"),
            }),
        );
        let bytes = encode_record_vec(&rec);
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }
}
