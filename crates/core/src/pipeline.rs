//! The data plane the three push engines share (§3 Fig. 2, §2.3.3). Remus,
//! lock-and-abort and wait-and-remaster differ only in how they transfer
//! ownership: snapshot copy, propagation, catch-up, `T_m` and cleanup are
//! the [`PushPipeline`] stages, and an engine is the step between them.
//!
//! The pipeline owns what the stages acquire and its `Drop` is the only
//! unwind path, keyed on the fact crash recovery (§3.7, [`crate::recovery`])
//! decides by — *did `T_m` commit?* Before it, no transaction was ever
//! routed to the destination, so the half-migrated copy there is dropped
//! and the source keeps serving; after it, the destination owns the shards.
//! So replay's verdict is taken before `T_m` ([`PushPipeline::divert`]): a
//! broken catch-up fails the migration while the source still owns it.
//! Neither the copy nor replay waits for the other (`crate::snapshot`), so
//! the unwind has nobody to wake.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_cluster::{Cluster, Node};
use remus_common::fault::{FaultAction, InjectionPoint};
use remus_common::{DbError, DbResult, Timestamp};
use remus_wal::Lsn;

use crate::diversion::run_tm;
use crate::mocc::{RemusHook, ValidationRegistry};
use crate::replay::ReplayProcess;
use crate::report::{MigrationReport, MigrationTask};
use crate::snapshot::{copy_task_snapshots_gated, CopyGate};
use crate::stream::{Stream, StreamApplier};
use crate::trace::{SpanId, TraceRecorder};

/// How long an engine is willing to wait in each drain loop before
/// declaring the migration wedged. Generous by design: only genuinely
/// stuck systems should hit it.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_secs(600);

/// One push migration in flight: the resources of the shared stages.
pub(crate) struct PushPipeline<'a> {
    cluster: &'a Arc<Cluster>,
    task: &'a MigrationTask,
    source: &'a Arc<Node>,
    pub(crate) rec: TraceRecorder,
    pub(crate) report: MigrationReport,
    /// Tells the stream which source transactions commit synchronized.
    /// Unless installed on the source's commit path (`hook_installed`) it
    /// never leaves async mode and everything ships asynchronously.
    pub(crate) hook: Arc<RemusHook>,
    hook_installed: bool,
    /// `None` once [`Self::finish`] took them: nothing left to tear down.
    procs: Option<(Stream, ReplayProcess)>,
    tm_committed: bool,
    cleanup_span: Option<SpanId>,
    t0: Instant,
}

impl<'a> PushPipeline<'a> {
    /// Phase 1, snapshot copying: starts the stream and replay, then copies
    /// the task's shards chunk by chunk while catch-up replays — the copy
    /// places each row at its source commit timestamp, under whatever
    /// catch-up placed first. `sync_commits` installs the commit hook.
    pub(crate) fn start(
        engine: &'static str,
        cluster: &'a Arc<Cluster>,
        task: &'a MigrationTask,
        sync_commits: bool,
    ) -> DbResult<Self> {
        let t0 = Instant::now();
        let rec = TraceRecorder::new(engine);
        let (source, dest) = (cluster.node(task.source), cluster.node(task.dest));
        let copy_span = rec.start("snapshot_copy");
        // Planned before anything is acquired: a task naming a shard the
        // source does not host fails here with nothing to release.
        let chunk_size = cluster.config.parallelism.chunk_size;
        let gate = CopyGate::plan(&task.shards, source, chunk_size)?;
        let registry = Arc::new(ValidationRegistry::new());
        let hook = Arc::new(RemusHook::new(
            &task.shards,
            Arc::clone(&registry),
            cluster.config.lock_wait_timeout,
        ));
        if sync_commits {
            source
                .storage
                .install_hook(Arc::clone(&hook) as Arc<dyn remus_txn::SyncCommitHook>);
        }
        // The stream starts at the oldest active transaction's begin LSN (it
        // must observe the full write set of every transaction that may
        // commit after the snapshot timestamp); the snapshot timestamp is
        // taken after that. The tail's slot is registered atomically with
        // computing its start, so concurrent WAL truncation can never pass
        // it; the stream owns the tail, and the slot goes with it however
        // its thread ends.
        let tail = source.storage.create_slot_at_oldest_active();
        // Acquire and pin atomically: from this instant until the copy
        // finishes, the GC safe-ts watermark cannot pass the copy snapshot,
        // so no version the copy scan still needs is ever pruned.
        let (snapshot_ts, _snapshot_pin) = cluster.acquire_snapshot(task.source);
        // The copy window opens before the stream ships anything, and the
        // copy records the keys catch-up mapped first for replay's check.
        let (replay, feed) = ReplayProcess::start(cluster, dest, registry);
        let gate = gate.recording(replay.copy_running());
        let applier = StreamApplier::migration(
            cluster,
            source,
            &task.shards,
            snapshot_ts,
            tail.consumed(),
            Arc::clone(&hook),
            feed,
        );
        let stream = Stream::migration(cluster, source, task.dest, tail, applier);
        let mut p = PushPipeline {
            cluster,
            task,
            source,
            rec,
            report: MigrationReport::new(engine),
            hook,
            hook_installed: sync_commits,
            procs: Some((stream, replay)),
            tm_committed: false,
            cleanup_span: None,
            t0,
        };
        p.fault_seam(InjectionPoint::SnapshotCopy)?;
        let tuples = copy_task_snapshots_gated(
            cluster,
            source,
            dest,
            snapshot_ts,
            &gate,
            Some((&p.rec, copy_span)),
        )?;
        p.procs().1.copy_done();
        p.report.tuples_copied = tuples;
        p.report.snapshot_phase = t0.elapsed();
        p.rec.attr(copy_span, "tuples_copied", tuples);
        p.rec.attr(copy_span, "snapshot_ts", snapshot_ts.0);
        p.rec.end(copy_span);
        Ok(p)
    }

    /// A seam where an injected fault can delay or fail the migration.
    pub(crate) fn fault_seam(&self, point: InjectionPoint) -> DbResult<()> {
        match self.cluster.fault_at(point, self.task.source) {
            FaultAction::Fail => Err(DbError::NodeUnavailable(self.task.dest)),
            _ => Ok(()),
        }
    }

    fn procs(&self) -> &(Stream, ReplayProcess) {
        self.procs.as_ref().expect("pipeline already finished")
    }

    /// Parks until `cond` holds, looking again whenever the stream processed
    /// a batch or replay completed a message.
    fn park_until(&self, cond: impl FnMut() -> bool, what: &'static str) -> DbResult<()> {
        let progress = &self.procs().1.stats.progress;
        if !progress.park_until(cond, DRAIN_TIMEOUT) {
            return Err(DbError::Timeout(what));
        }
        Ok(())
    }

    /// The catch-up lag (§3.4): source records not yet applied.
    fn lag(&self) -> u64 {
        let flush = self.source.storage.wal.flush_lsn();
        flush.0.saturating_sub(self.procs().1.finished_through().0)
    }

    /// Phase 2, asynchronous catch-up: waits out the configured lag threshold.
    pub(crate) fn catch_up(&mut self) -> DbResult<()> {
        let catch0 = Instant::now();
        let span = self.rec.start("catchup");
        let threshold = self.cluster.config.catchup_threshold as u64;
        self.rec.attr(span, "lag_threshold", threshold);
        self.rec.attr(span, "start_lag", self.lag());
        if let Err(e) = self.park_until(|| self.lag() <= threshold, "async catch-up") {
            return Err(DbError::Internal(format!(
                "{e}: flush={} applied={}",
                self.source.storage.wal.flush_lsn().0,
                self.procs().1.finished_through().0,
            )));
        }
        self.report.catchup_phase = catch0.elapsed();
        for (w, jobs) in self.procs().1.worker_jobs().iter().enumerate() {
            let s = self.rec.child(span, "replay_worker");
            self.rec.attr(s, "worker", w as u64);
            self.rec.attr(s, "jobs", *jobs);
            self.rec.end(s);
        }
        self.rec.end(span);
        Ok(())
    }

    /// Waits until every source record up to and including `lsn` is applied
    /// on the destination: replay's progress measure has reached `lsn`.
    pub(crate) fn drain_to(&self, lsn: Lsn, what: &'static str) -> DbResult<()> {
        self.park_until(|| self.procs().1.finished_through() >= lsn, what)
    }

    /// Ordered diversion: takes replay's verdict, commits `T_m` and returns
    /// its commit timestamp.
    /// Serializable mode hands the shards' SSI state over first (fence,
    /// then copy): from that instant the rw-antidependency bookkeeping
    /// lives on the destination, so a post-`T_m` writer there sees every
    /// SIREAD owed by source readers. `hand_over_ssi` is false for an
    /// engine that already doomed the straddlers and moved the rest.
    ///
    /// Replay's first error stops it: a fatal replay error or a provisional
    /// write the copy proved out of order ([`ReplayProcess::check`]) is
    /// returned before `T_m` is attempted, and the pipeline's unwind drops
    /// the destination copy. Callers drain replay to a flush LSN taken
    /// after the copy first, so every message shipped while the copy ran
    /// is applied by then.
    pub(crate) fn divert(&mut self, hand_over_ssi: bool) -> DbResult<Timestamp> {
        self.procs().1.check()?;
        let span = self.rec.start("tm_2pc");
        if hand_over_ssi {
            let entries = crate::ssi_handover::hand_over_ssi_state(self.cluster, self.task);
            self.rec.attr(span, "ssi_entries_transferred", entries);
        }
        let tm_cts = run_tm(self.cluster, self.task, false)?;
        self.tm_committed = true;
        self.rec.attr(span, "tm_commit_ts", tm_cts.0);
        self.rec.end(span);
        Ok(tm_cts)
    }

    /// Opens the `cleanup` span and drops the source copy under its
    /// `drop_source` child (idempotent). An engine that holds writers off
    /// calls this before letting them back in, so they find the shard gone
    /// rather than a copy nobody owns; [`Self::finish`] calls it for the
    /// rest. Freeing the copy is where cleanup's time goes: the stop of the
    /// pipeline (`stop_pipeline`, in `finish`) is a signalled wake-up.
    pub(crate) fn retire_source(&mut self) -> SpanId {
        debug_assert!(self.tm_committed, "source retired before T_m committed");
        *self.cleanup_span.get_or_insert_with(|| {
            let span = self.rec.start("cleanup");
            let drop_span = self.rec.child(span, "drop_source");
            for shard in &self.task.shards {
                self.source.storage.drop_shard(*shard);
            }
            self.rec.end(drop_span);
            span
        })
    }

    /// Cleanup: stops the pipeline after the final records; returns the report.
    pub(crate) fn finish(mut self) -> DbResult<MigrationReport> {
        let span = self.retire_source();
        let (stream, replay) = self.procs.take().expect("pipeline already finished");
        if self.hook_installed {
            self.source.storage.uninstall_hook();
        }
        let stop_span = self.rec.child(span, "stop_pipeline");
        let final_lsn = self.source.storage.wal.flush_lsn();
        stream.stop(final_lsn);
        let mut report = std::mem::take(&mut self.report);
        report.records_replayed = replay.stats.records.load(Ordering::SeqCst);
        report.validation_conflicts = replay.stats.conflicts.load(Ordering::SeqCst);
        // Both are joined before either error propagates; the stream first,
        // since its end drops the feed, which lets the workers exit.
        stream.join().and(replay.join())?;
        self.rec.end(stop_span);
        self.rec.attr(span, "final_lsn", final_lsn.0);
        self.rec
            .attr(span, "records_replayed", report.records_replayed);
        self.rec
            .attr(span, "validation_conflicts", report.validation_conflicts);
        self.rec.end(span);
        report.total = self.t0.elapsed();
        report.traces.push(self.rec.finish());
        Ok(report)
    }
}

impl Drop for PushPipeline<'_> {
    fn drop(&mut self) {
        let Some((stream, replay)) = self.procs.take() else {
            return;
        };
        if self.hook_installed {
            self.source.storage.uninstall_hook();
        }
        stream.stop(Lsn::ZERO);
        // Errors here are secondary to the one being unwound.
        let _ = stream.join();
        let _ = replay.join();
        if !self.tm_committed {
            // The source still owns the shards: drop the half-migrated
            // copy, and lift the SSI fence a hand-over before the failed
            // `T_m` left on the source (entries already imported on the
            // destination age out at the safe-ts watermark).
            for shard in &self.task.shards {
                self.cluster.node(self.task.dest).storage.drop_shard(*shard);
                if let Some(ssi) = &self.source.storage.ssi {
                    ssi.reclaim_shard(*shard);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, ShardId, TableId};
    use remus_storage::Value;

    use crate::{LockAndAbort, MigrationEngine, MigrationTask, RemusEngine, WaitAndRemaster};

    #[test]
    fn quiescent_migration_moves_all_data() {
        let engines: [&dyn MigrationEngine; 3] = [&RemusEngine, &LockAndAbort, &WaitAndRemaster];
        for engine in engines {
            let name = engine.name();
            let cluster = ClusterBuilder::new(2).build();
            let layout = cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
            let session = Session::connect(&cluster, NodeId(0));
            for k in 0..300 {
                let v = Value::copy_from_slice(b"v");
                session.run(|t| t.insert(&layout, k, v.clone())).unwrap();
            }
            // Both shards move together (collocated migration, §3.8).
            let task = MigrationTask {
                shards: vec![ShardId(0), ShardId(1)],
                source: NodeId(0),
                dest: NodeId(1),
            };
            let report = engine.migrate(&cluster, &task).unwrap();
            assert_eq!(report.engine, name);
            assert_eq!(report.tuples_copied, 300, "{name}");
            assert_eq!(report.validation_conflicts, 0, "{name}");
            assert_eq!(report.forced_aborts, 0, "{name}");
            // Source dropped, destination serves.
            for shard in &task.shards {
                assert!(!cluster.node(NodeId(0)).storage.hosts(*shard), "{name}");
                assert!(cluster.node(NodeId(1)).storage.hosts(*shard), "{name}");
            }
            let (found, _) = session
                .run(|t| {
                    let mut found = 0;
                    for k in 0..300 {
                        if t.read(&layout, k)?.is_some() {
                            found += 1;
                        }
                    }
                    Ok(found)
                })
                .unwrap();
            assert_eq!(found, 300, "{name}");
            let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
            assert_eq!(rows.len(), 300, "{name}");
        }
    }
}
