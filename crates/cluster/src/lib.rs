#![warn(missing_docs)]

//! The simulated shared-nothing cluster.
//!
//! Reproduces the PolarDB-PG deployment of the paper (Figure 1): a control
//! plane (timestamp oracle + migration controller attach here) and a set of
//! elastic nodes, each hosting shards as regular MVCC tables plus a replica
//! of the shard map table. Clients connect through [`session::Session`]s
//! bound to a coordinator node, which routes each operation with the
//! private ordered shard-map cache and the cache-read-through protocol.
//!
//! * [`node::Node`] — storage context + shard map replica + read-through
//!   state + work counter (the "CPU usage" stand-in for Figure 10).
//! * [`cluster::Cluster`] — the node set, oracle, network model, routing
//!   gate (wait-and-remaster's suspension), snapshot registry and vacuum.
//! * [`session::Session`] / [`session::SessionTxn`] — the client API.
//! * [`replica::ReplicaHandle`] / [`replica::ReplicaSession`] — WAL-shipped
//!   read replicas: the applied-watermark handle and read-only sessions
//!   (with an optional read-your-writes mode).

pub mod cluster;
pub mod load;
pub mod node;
pub mod pool;
pub mod replica;
pub mod router;
pub mod session;

pub use cluster::{AccessHook, CcMode, Cluster, ClusterBuilder, SnapshotGuard};
pub use load::{ShardLoad, ShardLoadCell, ShardLoadSnapshot, ShardLoadTracker};
pub use node::Node;
pub use pool::SessionPool;
pub use replica::{ReplicaHandle, ReplicaSession, ReplicaTxn};
pub use router::{ReadRouter, ReadTxn};
pub use session::{Session, SessionTxn};
