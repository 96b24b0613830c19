#![warn(missing_docs)]

//! Deterministic fault-injection harness and snapshot-isolation history
//! checker for migration chaos tests.
//!
//! The crate has five layers:
//!
//! * [`plan`] — seeded [`FaultPlan`]s: a finite fault schedule derived
//!   deterministically from a `u64` seed, fired at named
//!   [`InjectionPoint`](remus_common::InjectionPoint)s by occurrence count;
//!   [`net::FaultyNetwork`] adds seeded per-link jitter and transient
//!   partitions underneath the whole cluster.
//! * [`history`] — the lock-free [`HistoryLog`] client threads record every
//!   attempted transaction into.
//! * [`checker`] — the pure post-hoc SI checker: snapshot reads,
//!   first-committer-wins, no aborted writes visible, monotone shard-map
//!   routing across every `T_m`, replica staleness, serializability, and
//!   committed-data preservation.
//! * [`scenario`] / [`runner`] — one [`Scenario`] description (seed, engine,
//!   oracle, isolation, data plane, GC, WAL, and what drives migrations: the
//!   fixed move under a [`FaultProfile`], or the planner with or without
//!   replica actions), one [`run`] taking it through build → deploy →
//!   capture → execute → evaluate → cleanup, and one [`Outcome`] whose
//!   [`expect_green`](Outcome::expect_green) is the failure report every
//!   matrix prints.
//! * [`shrink`] — greedy counterexample minimization (history records,
//!   fault specs, seeds).
//!
//! Entry points: [`run`]`(&`[`Scenario::from_seed`]`(seed))` for one
//! scenario, `src/bin/chaos_smoke.rs` for the CI smoke loop.

pub mod checker;
pub mod history;
pub mod net;
pub mod plan;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use checker::{
    check_final_state, check_history, check_history_multi, check_serializability, CheckConfig,
    MigrationSpec, OracleId, Verdict, Violation,
};
pub use history::{HistoryLog, MutKind, OpRead, OpWrite, TxnRecord};
pub use net::{FaultyNetwork, Partition};
pub use plan::{FaultPlan, FaultProfile, FaultSpec, PlanInjector};
pub use remus_core::EngineKind;
pub use runner::{run, run_with_specs};
pub use scenario::{Drive, Outcome, ReplicaProgress, Scenario};
pub use shrink::{shrink_history, shrink_plan, smallest_failing_seed};
