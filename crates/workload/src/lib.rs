#![warn(missing_docs)]

//! Benchmark workloads and the client engine that offers them (paper §4.3).
//!
//! * [`ycsb`] — YCSB: 50% reads / 50% updates over a keyspace with uniform
//!   or Zipfian access, multi-statement interactive transactions (the
//!   write set is unknown before execution), plus the high-contention
//!   hot-shard variant of §4.8.
//! * [`tpcc`] — a compact TPC-C: 480 warehouses, eight tables sharded by
//!   warehouse (one warehouse per shard, collocated across tables),
//!   new-order / payment / order-status mix with ~10% distributed
//!   transactions.
//! * [`hybrid`] — hybrid workload A's batch-ingestion client (monotonic
//!   keys, 2PC commit, repeatable retry) and hybrid workload B's
//!   analytical duplicate-primary-key check used to verify database
//!   consistency during migration.
//! * [`engine`] — the open-loop workload engine: a fixed worker pool
//!   multiplexing hundreds of logical clients over seeded arrival
//!   schedules (fixed-rate / Poisson), bounded per-worker queues with
//!   drop/park accounting, and coordinated-omission-safe latency.
//! * [`driver`] — the [`Workload`] trait and the [`RunMetrics`] the engine
//!   records into: per-second throughput timelines, abort classification,
//!   and before/during-migration latency buckets (Table 3).

pub mod driver;
pub mod engine;
pub mod hybrid;
pub mod tpcc;
pub mod ycsb;

pub use driver::{RunMetrics, Workload};
pub use engine::{
    arrival_schedule, Admission, ArrivalGen, BoundedQueue, EngineConfig, EngineReport,
    OpenLoopEngine, Pacing,
};
pub use hybrid::{AnalyticalClient, BatchIngest, BatchIngestReport};
pub use tpcc::{Tpcc, TpccConfig};
pub use ycsb::{HotPhase, HotSpot, HotspotShift, KeyDistribution, Ycsb, YcsbConfig, Zipfian};
