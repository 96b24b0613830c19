//! SSI state handover at ownership transfer (DESIGN.md §14).
//!
//! When serializable mode is on, a shard's SIREAD and write-registry
//! entries must move with the shard: a post-transfer writer on the
//! destination has to see the rw-antidependencies owed to transactions
//! that read the shard on the source. Two protocols, matching the two
//! classes of engines:
//!
//! * **Transfer** ([`hand_over_ssi_state`], Remus and wait-and-remaster):
//!   fence the source first ([`remus_txn::SsiNode::mark_departed`] — any
//!   later serializable touch of the shard on the source aborts as
//!   migration-induced), then export/import the complete entry set. The
//!   fence-then-copy order is what makes the set complete: after the fence
//!   no entry can be added on the source, so nothing added concurrently
//!   with the copy is missed. Handles are `Arc`-shared, so straddling
//!   transactions keep their flag state across the move and commit
//!   normally as long as they stay off the moved shard.
//! * **Conservative abort** ([`doom_ssi_straddlers`], lock-and-abort): the
//!   engine aborts its way through ownership transfer anyway, so every
//!   still-active transaction holding an SSI entry on the shard is doomed
//!   outright (readers included — plain force-abort only finds *writers*).
//!   Retained entries of committed transactions still transfer: they owe
//!   edges to destination writers until the safe-ts watermark passes.

use std::sync::Arc;

use remus_cluster::Cluster;

use crate::report::MigrationTask;

/// Transfer-path handover: fences the source and carries every SSI entry
/// of the task's shards to the destination. Returns entries transferred
/// (0 when the cluster runs plain snapshot isolation).
pub fn hand_over_ssi_state(cluster: &Arc<Cluster>, task: &MigrationTask) -> u64 {
    let source = cluster.node(task.source);
    let dest = cluster.node(task.dest);
    let (Some(src), Some(dst)) = (source.storage.ssi.as_ref(), dest.storage.ssi.as_ref()) else {
        return 0;
    };
    let mut entries = 0;
    for shard in &task.shards {
        src.mark_departed(*shard);
        let export = src.export_shard(*shard);
        entries += export.len() as u64;
        dst.import_shard(&export);
    }
    entries
}

/// Conservative-path handover: fences the source, dooms every still-active
/// straddler in the SSI table, and transfers the retained entries. Returns
/// `(entries_transferred, straddlers_doomed)`. The node's doom list is left
/// alone: a straddler's next touch of the shard on the source fails at the
/// `departed` fence, and its commit fails at `seal` with the doom reason.
pub fn doom_ssi_straddlers(
    cluster: &Arc<Cluster>,
    task: &MigrationTask,
    reason: &'static str,
) -> (u64, u64) {
    let source = cluster.node(task.source);
    let dest = cluster.node(task.dest);
    let (Some(src), Some(dst)) = (source.storage.ssi.as_ref(), dest.storage.ssi.as_ref()) else {
        return (0, 0);
    };
    let mut entries = 0;
    let mut doomed = 0;
    for shard in &task.shards {
        src.mark_departed(*shard);
        doomed += src.doom_active_straddlers(*shard, reason).len() as u64;
        let export = src.export_shard(*shard);
        entries += export.len() as u64;
        dst.import_shard(&export);
    }
    (entries, doomed)
}
