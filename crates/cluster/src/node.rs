//! One elastic node: storage plus the cluster-facing state.

use std::sync::Arc;

use remus_common::metrics::{Counter, MetricsRegistry};
use remus_common::{NodeId, ShardId, SimConfig};
use remus_shard::{ReadThroughState, SHARD_MAP_SHARD};
use remus_storage::VersionedTable;
use remus_txn::NodeStorage;

/// An elastic node of the cluster.
///
/// Wraps the storage context with the shard map replica (hosted in the
/// reserved shard), the cache-read-through state coordinators consult when
/// routing, and a work counter that stands in for CPU accounting.
pub struct Node {
    /// Storage context (CLOG, WAL, tables, registries, hooks).
    pub storage: Arc<NodeStorage>,
    /// This node's replica of the shard map table.
    pub map_replica: Arc<VersionedTable>,
    /// Cache-read-through marks + map epoch for this node's coordinators.
    pub read_through: ReadThroughState,
    /// Work units standing in for OS CPU sampling (Figure 10's "CPU
    /// usage"): the node is charged for statement, replay, propagation and
    /// snapshot-copy work, and the harness samples per-second deltas. A
    /// session transaction charges its statements here once per touched
    /// shard, when it ends. Not a registry series.
    pub work: Counter,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("id", &self.id()).finish()
    }
}

impl Node {
    /// A fresh node hosting only its shard map replica, with a private
    /// metrics registry.
    pub fn new(id: NodeId, config: SimConfig) -> Self {
        Self::with_metrics(id, config, &MetricsRegistry::new())
    }

    /// A fresh node whose storage metrics scope into a shared
    /// (cluster-wide) registry.
    pub fn with_metrics(id: NodeId, config: SimConfig, registry: &MetricsRegistry) -> Self {
        let storage = Arc::new(NodeStorage::with_metrics(id, config, registry));
        let map_replica = storage.create_shard(SHARD_MAP_SHARD);
        Node {
            storage,
            map_replica,
            read_through: ReadThroughState::new(),
            work: Counter::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.storage.id
    }

    /// Shards hosted here, excluding the shard map replica.
    pub fn data_shards(&self) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = self
            .storage
            .shards()
            .into_iter()
            .filter(|s| *s != SHARD_MAP_SHARD)
            .collect();
        shards.sort_unstable();
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_hosts_only_the_map_replica() {
        let node = Node::new(NodeId(3), SimConfig::instant());
        assert_eq!(node.id(), NodeId(3));
        assert!(node.data_shards().is_empty());
        assert!(node.storage.hosts(SHARD_MAP_SHARD));
    }

    #[test]
    fn data_shards_sorted_and_filtered() {
        let node = Node::new(NodeId(0), SimConfig::instant());
        node.storage.create_shard(ShardId(5));
        node.storage.create_shard(ShardId(2));
        assert_eq!(node.data_shards(), vec![ShardId(2), ShardId(5)]);
    }
}
