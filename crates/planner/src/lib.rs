#![warn(missing_docs)]

//! The elasticity autopilot: a closed control loop that watches per-shard
//! load, detects hotspots, and drives live migrations through the existing
//! engines without an operator in the loop.
//!
//! The loop has three separable layers, each usable on its own:
//!
//! * [`observe`] — turns one planner tick's raw signals (the cluster's
//!   per-shard load window, shard ownership, version counts, WAL positions)
//!   into an immutable [`Observation`].
//! * [`planner`] — the pure decision core: `Observation` in,
//!   [`PlannerTick`] (a list of scored [`Decision`]s) out. No clocks, no
//!   I/O, no shared state; the only nondeterminism is a seeded RNG used for
//!   tie-breaking, so equal seeds + equal observations replay to identical
//!   plans. The chaos harness drives this layer directly.
//! * [`executor`] — the one place a [`Decision`] is carried out: a
//!   migration with capped-backoff retries and the landed rule, a replica
//!   provision or a decommission. The chaos harness hands it its planner
//!   drive's decisions too.
//! * [`autopilot`] — the background thread: ticks the collector and
//!   planner on a wall-clock cadence and hands each decision to the
//!   executor, pausing between them while the foreground p99 exceeds the
//!   latency budget ([`throttle`]).

pub mod autopilot;
pub mod executor;
pub mod observe;
pub mod planner;
pub mod throttle;

pub use autopilot::{Autopilot, AutopilotOptions, AutopilotReport};
pub use executor::{Executed, Executor, Moved};
pub use observe::{Observation, ObservationCollector, ShardStat};
pub use planner::{Action, Decision, MoveReason, Planner, PlannerTick};
pub use throttle::LatencyThrottle;
