#![warn(missing_docs)]

//! Live shard migration engines — the paper's contribution and the
//! baselines it is evaluated against.
//!
//! * `pipeline` — the one data plane the three push engines share
//!   (`PushPipeline`): slot + pinned snapshot, gated chunk copy overlapped
//!   with replay, catch-up, drain-to-LSN, `T_m` diversion, cleanup. Its
//!   `Drop` is the only unwind path, keyed on "did `T_m` commit?". An
//!   engine below is just its ownership-transfer step on top of it.
//! * [`remus`] — the Remus engine (§3): sync barrier (`TS_unsync` /
//!   `LSN_unsync`) → `T_m` → unidirectional dual execution under MOCC.
//! * [`lock_abort`] — the *lock-and-abort* push baseline (Citus/LibrA
//!   style, §2.3.3): close the shards' write gates, terminate conflicting
//!   transactions, replay the final updates, `T_m`.
//! * [`remaster`] — the *wait-and-remaster* baseline (DynaMast style):
//!   suspend routing, drain every in-flight transaction (write sets are
//!   unknown), replay the final updates, `T_m`.
//! * [`squall`] — the *pull* baseline (Squall on H-store partition locks):
//!   flips ownership immediately, then combines on-demand pulls (blocking,
//!   chunk-locking) with background pulls; source access to migrated
//!   chunks aborts.
//! * [`propagation`] / [`replay`] / [`mocc`] — the shared update
//!   propagation machinery: WAL tailing through [`remus_wal::TxnAssembler`]
//!   (its per-transaction buffers are the paper's update cache queues),
//!   the destination apply processes (parallel, key-fenced), and
//!   the MOCC validation registry + commit hook.
//! * [`replication`] — WAL-shipped read replicas: per-primary shippers and
//!   gate-sequenced appliers, virtual-cut backfill with chunk
//!   certification, and the applied-watermark maintenance replica reads
//!   run at.
//! * [`diversion`] — `T_m` execution with cache-read-through marking.
//! * [`ssi_handover`] — serializable-mode state handover: SIREAD/write
//!   registry transfer with a source fence (Remus, wait-and-remaster) or
//!   conservative straddler dooming (lock-and-abort).
//! * [`controller`] — the migration controller: plans (consolidation, load
//!   balancing, scale-out) and sequential execution.
//! * [`recovery`] — crash recovery (§3.7): decide by `T_m`'s 2PC state,
//!   resolve in-doubt shadow transactions from source CLOG state.

pub mod controller;
pub mod diversion;
pub mod lock_abort;
pub mod mocc;
mod pipeline;
pub mod propagation;
pub mod recovery;
pub mod remaster;
pub mod remus;
pub mod replay;
pub mod replication;
pub mod report;
pub mod snapshot;
pub mod squall;
pub mod ssi_handover;
pub mod trace;

pub use controller::{MigrationController, MigrationPlan};
pub use lock_abort::LockAndAbort;
pub use remaster::WaitAndRemaster;
pub use remus::RemusEngine;
pub use replication::{start_replica, ReplicaProcess, StreamApplier};
pub use report::{EngineKind, MigrationEngine, MigrationReport, MigrationTask};
pub use squall::SquallEngine;
pub use ssi_handover::{doom_ssi_straddlers, hand_over_ssi_state};
pub use trace::{MigrationTrace, Span, SpanId, TraceRecorder};
