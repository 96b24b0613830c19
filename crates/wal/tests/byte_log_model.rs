//! Model test of the in-memory byte log: `Wal` (no durability backend)
//! against a `Vec<LogRecord>` under random appends and truncations that land
//! on segment boundaries, across them, at the tail and beyond it. Appends
//! cover all seven `LogOp`s, empty values and values larger than a
//! segment's initial capacity; reads go through `get`, `reader_from` +
//! `next_batch` with a random `max`, and `reader_from_head`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use remus_common::{ShardId, Timestamp, TxnId};
use remus_storage::Value;
use remus_wal::log::{SEGMENT_BYTES, SEGMENT_RECORDS};
use remus_wal::{LogOp, LogRecord, Lsn, TailRead, Wal, WalReader, WriteKind, WriteOp};

const R: u64 = SEGMENT_RECORDS as u64;

#[derive(Debug, Clone)]
enum Step {
    /// `n` records drawn from `seed`.
    Append { n: u64, seed: u64 },
    /// One write whose value is `extra` bytes longer than a segment's
    /// initial capacity.
    AppendBig { extra: usize },
    /// Truncate to a target of the given kind (see `target`).
    Truncate { kind: u8, pick: u64 },
    /// Read the retained log from a position through `next_batch(max)`.
    Read { pick: u64, max: usize },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..1500, any::<u64>()).prop_map(|(n, seed)| Step::Append { n, seed }),
        (0usize..4096).prop_map(|extra| Step::AppendBig { extra }),
        (0u8..5, any::<u64>()).prop_map(|(kind, pick)| Step::Truncate { kind, pick }),
        (any::<u64>(), 1usize..2000).prop_map(|(pick, max)| Step::Read { pick, max }),
    ]
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Record `i` of the run drawn from `seed`: every op, values of 0..40 bytes
/// (a fifth of them empty).
fn record(seed: u64, i: u64) -> LogRecord {
    let x = mix(seed ^ mix(i));
    let ts = Timestamp(x >> 4);
    let op = match x % 7 {
        0 => LogOp::Begin(ts),
        1 => LogOp::Write(WriteOp {
            shard: ShardId((x >> 8) & 0xFF),
            key: x >> 3,
            kind: [
                WriteKind::Insert,
                WriteKind::Update,
                WriteKind::Delete,
                WriteKind::Lock,
            ][((x >> 16) % 4) as usize],
            value: Value::copy_from_slice(&vec![
                x as u8;
                ((x >> 20) % 50).saturating_sub(10) as usize
            ]),
        }),
        2 => LogOp::Prepare,
        3 => LogOp::Commit(ts),
        4 => LogOp::Abort,
        5 => LogOp::CommitPrepared(ts),
        _ => LogOp::RollbackPrepared,
    };
    LogRecord::new(TxnId(x), op)
}

fn big(extra: usize) -> LogRecord {
    LogRecord::new(
        TxnId(extra as u64),
        LogOp::Write(WriteOp {
            shard: ShardId(1),
            key: extra as u64,
            kind: WriteKind::Update,
            value: Value::copy_from_slice(&vec![0xAB; SEGMENT_BYTES + extra]),
        }),
    )
}

/// A truncation target: a segment boundary, one off one, the tail, beyond
/// the tail, or anywhere up to it.
fn target(kind: u8, pick: u64, tail: u64) -> u64 {
    let boundary = (pick % (tail / R + 2)) * R;
    match kind {
        0 => boundary,
        1 => (boundary + pick % 3).saturating_sub(1),
        2 => tail,
        3 => tail + 1 + pick % (2 * R),
        _ => pick % (tail + 1),
    }
}

/// Everything `reader` hands out until the log has no more, batch by batch.
fn drain(reader: &mut WalReader, max: usize) -> Vec<(Lsn, LogRecord)> {
    let mut out = Vec::new();
    while let TailRead::Batch(batch) = reader.next_batch(max, Duration::ZERO) {
        assert!(
            !batch.is_empty() && batch.len() <= max,
            "batch of {}",
            batch.len()
        );
        out.extend(batch.iter().map(|(lsn, r)| (lsn, r.decode().unwrap())));
    }
    out
}

fn expected(model: &[LogRecord], from: u64) -> Vec<(Lsn, LogRecord)> {
    (from + 1..=model.len() as u64)
        .map(|lsn| (Lsn(lsn), model[lsn as usize - 1].clone()))
        .collect()
}

/// What `get` must answer at `lsn`.
fn model_get(model: &[LogRecord], base: u64, lsn: u64) -> Option<LogRecord> {
    (lsn > base && lsn <= model.len() as u64).then(|| model[lsn as usize - 1].clone())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn the_byte_log_is_the_sequence_of_its_appends(
        steps in proptest::collection::vec(step(), 1..24)
    ) {
        let wal = Arc::new(Wal::new());
        let mut model: Vec<LogRecord> = Vec::new();
        let mut base = 0u64;
        for step in steps {
            match step {
                Step::Append { n, seed } => {
                    for i in 0..n {
                        let r = record(seed, i);
                        model.push(r.clone());
                        prop_assert_eq!(wal.append(r), Lsn(model.len() as u64));
                    }
                }
                Step::AppendBig { extra } => {
                    model.push(big(extra));
                    prop_assert_eq!(wal.append(big(extra)), Lsn(model.len() as u64));
                }
                Step::Truncate { kind, pick } => {
                    let tail = model.len() as u64;
                    let upto = target(kind, pick, tail);
                    wal.truncate_until(Lsn(upto));
                    base = base.max(upto.min(tail));
                }
                Step::Read { pick, max } => {
                    let tail = model.len() as u64;
                    let from = base + pick % (tail - base + 1);
                    let mut reader = wal.reader_from(Lsn(from));
                    prop_assert_eq!(drain(&mut reader, max), expected(&model, from));
                    prop_assert_eq!(reader.consumed(), Lsn(tail));
                }
            }
            let tail = model.len() as u64;
            prop_assert_eq!(wal.flush_lsn(), Lsn(tail));
            prop_assert_eq!(wal.retained() as u64, tail - base);
            // Around the base, the tail and every segment boundary in between.
            let mut probes = vec![0, base, base + 1, tail, tail + 1, tail + R];
            probes.extend((1..=tail / R + 1).flat_map(|k| [k * R - 1, k * R, k * R + 1]));
            for lsn in probes {
                prop_assert_eq!(
                    (lsn, base, wal.get(Lsn(lsn))),
                    (lsn, base, model_get(&model, base, lsn))
                );
            }
            let mut head = wal.reader_from_head();
            prop_assert_eq!(head.position(), Lsn(base + 1));
            let first = head.try_next();
            prop_assert_eq!(first, expected(&model, base).into_iter().next());
        }
        // The whole retained log, through the head reader, in one pass.
        let mut head = wal.reader_from_head();
        prop_assert_eq!(drain(&mut head, SEGMENT_RECORDS + 7), expected(&model, base));
    }
}
