//! §3.4: everything up to `LSN_unsync` is applied on the destination before
//! `T_m` commits. The catch-up wait is on the lowest unfinished LSN, not on
//! a count of completed messages: replay completes messages out of order,
//! so later messages completing must not stand in for an earlier one that
//! is still being installed.
//!
//! A committed source transaction A is held in its replay install while
//! another writer B keeps committing on a key replay hands to a different
//! worker — once sync mode is on, B ships as `Validate` plus `CommitShadow`,
//! two messages that complete quickly. The shard map must not flip to the
//! destination while A is held, and once A is released the migration
//! finishes and A's write is what the destination serves.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use remus_cluster::{ClusterBuilder, Session};
use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
use remus_common::{NodeId, ShardId, TableId};
use remus_core::{MigrationEngine, MigrationTask, RemusEngine};
use remus_storage::Value;

const SOURCE: NodeId = NodeId(0);
const DEST: NodeId = NodeId(1);
const A_KEY: u64 = 1;
/// How long the shard map is watched while A is held.
const WATCH: Duration = Duration::from_millis(500);

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

/// The replay worker a one-key job goes to: replay routes a job by the hash
/// of its smallest written `(shard, key)`.
fn worker_of(shard: ShardId, key: u64, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    (shard, key).hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// A seam visit that parks until the test releases it.
#[derive(Default)]
struct Hold {
    /// (entered, released)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Hold {
    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_entered(&self, what: &str) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .cv
            .wait_timeout_while(state, Duration::from_secs(10), |s| !s.0)
            .unwrap();
        assert!(!timeout.timed_out() && state.0, "{what} was never reached");
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// Holds the source's snapshot copy, and the destination's first replay
/// install — A's, the first transaction committed after the snapshot.
#[derive(Default)]
struct Holds {
    copy: Hold,
    install: Hold,
    install_taken: AtomicBool,
}

impl FaultInjector for Holds {
    fn decide(&self, point: InjectionPoint, node: NodeId) -> FaultAction {
        match point {
            InjectionPoint::SnapshotCopy if node == SOURCE => self.copy.enter(),
            InjectionPoint::ReplayApply
                if node == DEST && !self.install_taken.swap(true, Ordering::SeqCst) =>
            {
                self.install.enter()
            }
            _ => {}
        }
        FaultAction::Continue
    }
}

/// Releases every hold however the test ends, so no thread stays parked.
struct ReleaseAll(Arc<Holds>);

impl Drop for ReleaseAll {
    fn drop(&mut self) {
        self.0.copy.release();
        self.0.install.release();
    }
}

#[test]
fn t_m_waits_until_every_catch_up_install_below_lsn_unsync_is_applied() {
    let cluster = ClusterBuilder::new(2).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| SOURCE);
    let shard = layout.shard_for(A_KEY);
    let workers = cluster.config.parallelism.replay_workers.max(1);
    assert!(workers > 1, "B needs a replay worker A does not hold");
    let b_key = (A_KEY + 1..)
        .find(|&k| worker_of(shard, k, workers) != worker_of(shard, A_KEY, workers))
        .unwrap();
    let session = Session::connect(&cluster, SOURCE);
    for k in 0..=b_key {
        session.run(|t| t.insert(&layout, k, val("old"))).unwrap();
    }
    let holds = Arc::new(Holds::default());
    let _release = ReleaseAll(Arc::clone(&holds));
    cluster.install_fault_injector(Arc::clone(&holds) as Arc<dyn FaultInjector>);

    let task = MigrationTask::single(shard, SOURCE, DEST);
    let migration = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || RemusEngine.migrate(&cluster, &task))
    };
    holds.copy.wait_entered("the snapshot copy");
    // A: an async update of `a`, committed while the copy is held, so after
    // the snapshot; its install is held on the destination.
    session.run(|t| t.update(&layout, A_KEY, val("A"))).unwrap();
    holds.install.wait_entered("A's replay install");
    holds.copy.release();

    // B keeps committing on another worker's key.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (cluster, stop) = (Arc::clone(&cluster), Arc::clone(&stop));
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, SOURCE);
            for n in 0u64.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // A migration-induced abort is retried by the next round.
                let _ = session.run(|t| t.update(&layout, b_key, val(&format!("B{n}"))));
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let reader = Session::connect(&cluster, SOURCE);
    let watch_end = Instant::now() + WATCH;
    while Instant::now() < watch_end {
        let owner = cluster.current_owner(cluster.node(SOURCE), shard).unwrap();
        if owner.node == DEST {
            let seen = reader.run(|t| t.read(&layout, A_KEY)).ok().map(|(v, _)| v);
            panic!(
                "T_m committed while A's catch-up install was pending; \
                 a read of A's key after it saw {seen:?}"
            );
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    holds.install.release();
    let outcome = migration.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
    assert!(outcome.is_ok(), "migration failed: {outcome:?}");
    let owner = cluster.current_owner(cluster.node(SOURCE), shard).unwrap();
    assert_eq!(owner.node, DEST);
    let (a, _) = reader.run(|t| t.read(&layout, A_KEY)).unwrap();
    assert_eq!(a, Some(val("A")));
}
