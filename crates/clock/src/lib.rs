#![warn(missing_docs)]

//! Timestamp ordering for distributed snapshot isolation.
//!
//! PolarDB-PG (paper §2.2) supports two interchangeable timestamp schemes,
//! both reproduced here behind the [`TimestampOracle`] trait:
//!
//! * **GTS** ([`gts::Gts`]) — a centralized sequencer in the control plane
//!   that hands out globally monotonically increasing timestamps, giving
//!   linearizability across sessions.
//! * **DTS** ([`dts::Dts`]) — a decentralized scheme where each node runs a
//!   Hybrid Logical Clock ([`hlc::Hlc`]): logical time tracks causal order
//!   (ensuring SI) while a loosely synchronized physical time keeps
//!   snapshots fresh. Physical clock skew between nodes is simulated by
//!   [`physical::SkewedClock`].
//!
//! Every consumer relies only on the total order of [`Timestamp`]s plus the
//! causality rules exposed by the trait, which is exactly the property that
//! lets MOCC "piggyback on existing timestamp ordering protocols".

pub mod dts;
pub mod gts;
pub mod hlc;
pub mod physical;

use remus_common::{NodeId, Timestamp};

/// Which oracle flavor a cluster is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Centralized sequencer (linearizable across sessions).
    Gts,
    /// Decentralized hybrid logical clocks (SI; snapshots may be stale
    /// within clock skew across sessions on different nodes).
    Dts,
}

/// The timestamp service interface used by the transaction manager.
///
/// All methods take the *node* on whose behalf the timestamp is requested:
/// GTS uses it only to pick the node's lease block (one global sequence),
/// DTS to pick the node's HLC.
pub trait TimestampOracle: Send + Sync {
    /// Acquires a start timestamp (snapshot) for a transaction.
    fn start_ts(&self, node: NodeId) -> Timestamp;

    /// Acquires a commit timestamp. Guaranteed greater than every timestamp
    /// previously returned to or observed by `node`.
    fn commit_ts(&self, node: NodeId) -> Timestamp;

    /// Folds a timestamp received in a message from another node into
    /// `node`'s clock, establishing Lamport causality. A no-op under GTS.
    fn observe(&self, node: NodeId, ts: Timestamp);

    /// Which scheme this oracle implements.
    fn kind(&self) -> OracleKind;

    /// Round trips made to a central sequencer, if this oracle has one.
    /// `None` for decentralized schemes; [`gts::Gts`] reports its counter so
    /// the cluster can surface `clock.gts_rpcs` (the RPC-equivalent cost
    /// batched leases amortize).
    fn sequencer_rpcs(&self) -> Option<u64> {
        None
    }

    /// A lower bound on every timestamp this oracle can still return from
    /// [`TimestampOracle::start_ts`] or [`TimestampOracle::commit_ts`] on
    /// *any* node: no future call returns a timestamp below it.
    ///
    /// Version-chain GC must clamp its safe-ts watermark to this floor —
    /// otherwise a node holding a stale batch of timestamps (a GTS lease
    /// block, a skewed DTS clock) could start a snapshot *below* a watermark
    /// computed from another node's fresher timestamps, and read versions GC
    /// already pruned. `None` means issuance is globally monotone (every
    /// already-issued timestamp is itself a floor), so no clamp is needed.
    fn min_unissued(&self) -> Option<Timestamp> {
        None
    }
}

pub use dts::Dts;
pub use gts::Gts;
pub use hlc::Hlc;
pub use physical::{ManualClock, PhysicalClock, SkewedClock, SkewedPhysicalClock, WallClock};
