#![warn(missing_docs)]

//! Shared foundation types for the Remus reproduction.
//!
//! This crate holds the vocabulary that every other crate speaks:
//! strongly-typed identifiers ([`ids`]), the timestamp representation used by
//! both the centralized and decentralized oracles ([`ts`]), the common error
//! type ([`error`]), simulation configuration ([`config`]), and lightweight
//! metrics primitives used by the workload driver and benchmark harnesses
//! ([`metrics`]), and the one seam through which the product crates pay a
//! modeled cost or wait with a deadline ([`time`]).
//!
//! Nothing in this crate knows about storage, transactions, or migration; it
//! is the bottom of the dependency stack.

pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod time;
pub mod ts;

pub use config::{
    HotPathConfig, IsolationLevel, ParallelismConfig, PlannerConfig, SimConfig, WalBackendKind,
    WalConfig,
};
pub use error::{DbError, DbResult};
pub use fault::{FaultAction, FaultInjector, InjectionPoint, NoFaults};
pub use ids::{ClientId, NodeId, ShardId, TableId, TxnId};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramWindow, MetricSample, MetricsRegistry};
pub use ts::Timestamp;
