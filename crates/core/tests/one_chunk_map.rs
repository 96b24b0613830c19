//! The one chunk map, as a property: on a quiescent shard-lock cluster, a
//! Squall migration and a gated chunk copy of the same shard both leave
//! their destination with the committed state the sequential reference copy
//! leaves — for any key set, chunk size and pool width. Both plan through
//! `CopyGate` and move their chunks with the same range move; the
//! reference moves the whole shard as one range.

use proptest::prelude::*;
use remus_cluster::{CcMode, Cluster, ClusterBuilder, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId};
use remus_core::snapshot::{copy_shard_snapshot, copy_task_snapshots_gated, CopyGate};
use remus_core::{MigrationEngine, MigrationTask, SquallEngine};
use remus_storage::Value;

const SHARD: ShardId = ShardId(0);
const SOURCE: NodeId = NodeId(0);
/// Squall's destination.
const SQUALL: NodeId = NodeId(1);
/// The sequential reference copy's destination.
const REFERENCE: NodeId = NodeId(2);
/// The gated chunk copy's destination.
const GATED: NodeId = NodeId(3);

fn digest(cluster: &Cluster, node: NodeId) -> u64 {
    let storage = &cluster.node(node).storage;
    let table = storage.table(SHARD).expect("the copy created the shard");
    table.committed_state_digest(&storage.clog)
}

/// The key set of `shape`: 0 none, 1 one key, 2 `whole` chunks of keys
/// give or take one (so the last split falls on, before or after the last
/// key), 3 a random scatter.
fn key_set(shape: u8, chunk: u64, whole: u64, give: u64, scatter: &[u64]) -> Vec<u64> {
    let mut keys = match shape {
        0 => Vec::new(),
        1 => vec![scatter.first().copied().unwrap_or(7)],
        2 => (0..(whole * chunk + give).saturating_sub(1))
            .map(|i| i * 5)
            .collect(),
        _ => scatter.to_vec(),
    };
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn squall_and_the_gated_copy_match_the_reference(
        shape in 0u8..4,
        chunk in prop_oneof![Just(1u64), Just(3u64), Just(128u64)],
        workers in prop_oneof![Just(1usize), Just(4usize)],
        whole in 1u64..4,
        give in 0u64..3,
        scatter in proptest::collection::vec(0u64..2_000, 0..300),
    ) {
        let keys = key_set(shape, chunk, whole, give, &scatter);
        let mut config = SimConfig::instant();
        config.squall_chunk_keys = chunk;
        config.parallelism.chunk_size = chunk;
        config.parallelism.copy_workers = workers;
        let cluster = ClusterBuilder::new(4)
            .cc_mode(CcMode::ShardLock)
            .config(config)
            .build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| SOURCE);
        let session = Session::connect(&cluster, SOURCE);
        for &k in &keys {
            session.run(|t| t.insert(&layout, k, Value::from(k.to_le_bytes().to_vec()))).unwrap();
        }
        // Version chains and tombstones: only what is visible may cross.
        let (mut updated, mut deleted) = (0, 0);
        for &k in &keys {
            if k % 4 == 0 {
                session.run(|t| t.update(&layout, k, Value::from(vec![1; 9]))).unwrap();
                updated += 1;
            } else if k % 7 == 0 {
                session.run(|t| t.delete(&layout, k)).unwrap();
                deleted += 1;
            }
        }
        let visible = keys.len() as u64 - deleted;
        let ts = cluster.oracle.start_ts(SOURCE);
        let source = cluster.node(SOURCE);

        let copied = copy_shard_snapshot(&cluster, source, cluster.node(REFERENCE), SHARD, ts).unwrap();
        prop_assert_eq!(copied, visible);

        let gate = CopyGate::plan(&[SHARD], source, chunk).unwrap();
        let dest = cluster.node(GATED);
        let copied = copy_task_snapshots_gated(&cluster, source, dest, ts, &gate, None).unwrap();
        prop_assert_eq!(copied, visible);
        prop_assert!(gate.all_copied());

        let task = MigrationTask::single(SHARD, SOURCE, SQUALL);
        let report = SquallEngine::new().migrate(&cluster, &task).unwrap();
        prop_assert_eq!(report.tuples_copied, visible);
        prop_assert_eq!(report.pulls as usize, gate.chunk_count());

        let want = digest(&cluster, REFERENCE);
        prop_assert!(
            digest(&cluster, GATED) == want && digest(&cluster, SQUALL) == want,
            "{} keys ({updated} updated, {deleted} deleted), chunk {chunk}, {workers} workers",
            keys.len()
        );
    }
}
