//! The open-loop workload engine.
//!
//! The thread-per-closed-loop-client driver caps a run at tens of sessions
//! and — worse — measures *service time*: a client that is stuck waiting on
//! a migration-stalled transaction stops issuing load, so exactly the
//! samples that should dominate p99 are never taken (coordinated
//! omission). This engine replaces it with the load-generator shape the
//! paper's separate OLTP-Bench machines had:
//!
//! * a **fixed worker pool** multiplexes hundreds of logical clients, each
//!   client pinned to one worker and one home coordinator;
//! * every client follows a **deterministic seeded arrival schedule**
//!   ([`Pacing::FixedRate`] or [`Pacing::Poisson`]) derived from the run
//!   seed, so two runs with the same seed offer identical load;
//! * due arrivals enter a **bounded per-worker queue**; overflow is
//!   *dropped and counted* (explicit load shedding, never silent), idle
//!   workers *park* until the next due arrival (park count/time counted);
//! * latency is recorded **against the intended arrival time**, so
//!   queueing delay under migration shows up in p99 instead of vanishing.
//!
//! [`Pacing::ClosedLoop`] keeps the closed-loop semantics (next arrival =
//! completion + think, latency = service time) for workloads that really
//! are closed-loop, e.g. fixed-work bench legs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_cluster::{Cluster, SessionPool};
use remus_common::{ClientId, Timestamp};

use crate::driver::{RunMetrics, Workload};

/// How a logical client paces its transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Closed loop: the next transaction becomes due `think` after
    /// the previous one *completes*; latency is service time. Use only for
    /// genuinely closed workloads (fixed-work bench legs) — a stalled
    /// server silently stops the load (coordinated omission).
    ClosedLoop {
        /// Pause between a completion and the next arrival.
        think: Duration,
    },
    /// Open loop at a fixed rate: arrivals at `phase + k * period`
    /// regardless of completions. The phase is seeded per client so
    /// clients don't stampede in lockstep.
    FixedRate {
        /// Gap between consecutive intended arrivals.
        period: Duration,
    },
    /// Open loop with exponentially distributed gaps (a Poisson process)
    /// of the given mean — the memoryless arrivals real user traffic
    /// approximates.
    Poisson {
        /// Mean gap between consecutive intended arrivals.
        mean: Duration,
    },
}

impl Pacing {
    /// True for the open-loop variants (schedule-driven arrivals).
    pub fn is_open_loop(&self) -> bool {
        !matches!(self, Pacing::ClosedLoop { .. })
    }
}

/// Deterministic per-client arrival schedule generator.
///
/// Seeded from `(run seed, client id)` only, so the schedule is a pure
/// function of the configuration: same seed ⇒ identical offered load, on
/// any worker count, any host.
#[derive(Debug)]
pub struct ArrivalGen {
    rng: SmallRng,
    pacing: Pacing,
    /// Intended offset of the pending (not yet consumed) arrival, in
    /// nanoseconds from the run epoch.
    next: u64,
}

impl ArrivalGen {
    /// The schedule for `client` under `seed`. For closed-loop pacing the
    /// first arrival is due immediately and [`ArrivalGen::advance`] is
    /// driven by completions instead.
    pub fn new(seed: u64, client: ClientId, pacing: Pacing) -> Self {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ 0xA221_7AB5_9E37_79B9u64.wrapping_mul(client.0 as u64 + 1),
        );
        let next = match pacing {
            Pacing::ClosedLoop { .. } => 0,
            // Seeded phase: spread fixed-rate clients over one period.
            Pacing::FixedRate { period } => rng.gen_range(0..nanos_of(period)),
            Pacing::Poisson { mean } => exp_gap(&mut rng, mean),
        };
        ArrivalGen { rng, pacing, next }
    }

    /// Intended offset (nanos from the run epoch) of the pending arrival.
    pub fn current(&self) -> u64 {
        self.next
    }

    /// Consumes the pending arrival and schedules the next one.
    pub fn advance(&mut self) {
        self.next += match self.pacing {
            Pacing::ClosedLoop { .. } => 0, // driven by completions, not the schedule
            Pacing::FixedRate { period } => nanos_of(period),
            Pacing::Poisson { mean } => exp_gap(&mut self.rng, mean),
        };
    }
}

/// Positive nanosecond width of a pacing interval (zero-width pacing would
/// make the schedule infinitely dense).
fn nanos_of(d: Duration) -> u64 {
    (d.as_nanos() as u64).max(1)
}

/// One exponentially distributed gap with the given mean, via inverse CDF.
fn exp_gap(rng: &mut SmallRng, mean: Duration) -> u64 {
    let u: f64 = rng.gen();
    // u ∈ [0, 1); 1-u ∈ (0, 1] keeps ln finite. Gaps are clamped to ≥ 1ns.
    ((-(1.0 - u).ln()) * nanos_of(mean) as f64).max(1.0) as u64
}

/// The full intended-arrival schedule of one client within `horizon` — the
/// pure function the engine's admission follows, exposed for determinism
/// tests and offline analysis.
pub fn arrival_schedule(
    seed: u64,
    client: ClientId,
    pacing: Pacing,
    horizon: Duration,
) -> Vec<Duration> {
    assert!(pacing.is_open_loop(), "closed-loop pacing has no schedule");
    let mut gen = ArrivalGen::new(seed, client, pacing);
    let horizon = horizon.as_nanos() as u64;
    let mut out = Vec::new();
    while gen.current() < horizon {
        out.push(Duration::from_nanos(gen.current()));
        gen.advance();
    }
    out
}

/// Admission verdict of a [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The item entered the queue.
    Queued,
    /// The queue was at its bound; the item was shed and counted.
    Dropped,
}

/// A bounded FIFO with exact shed accounting — the per-worker backpressure
/// primitive. Pure (no locks, single-owner) so its invariants are directly
/// property-testable.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    bound: usize,
    dropped: u64,
    high_water: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `bound` items (at least 1).
    pub fn new(bound: usize) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            bound: bound.max(1),
            dropped: 0,
            high_water: 0,
        }
    }

    /// Admits `item` unless the queue is at its bound, in which case the
    /// item is shed and the drop counted.
    pub fn push(&mut self, item: T) -> Admission {
        if self.items.len() >= self.bound {
            self.dropped += 1;
            return Admission::Dropped;
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        Admission::Queued
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The admission bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Items shed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Configuration of one engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Logical clients, assigned round-robin to workers and coordinators.
    pub clients: usize,
    /// Worker threads multiplexing the clients.
    pub workers: usize,
    /// Arrival pacing, shared by all clients.
    pub pacing: Pacing,
    /// Run seed: same seed ⇒ identical offered load.
    pub seed: u64,
    /// Bound of each worker's arrival queue (open-loop only).
    pub queue_bound: usize,
    /// Stop generating arrivals at this offset; workers drain and exit.
    /// `None` runs until [`OpenLoopEngine::stop`].
    pub horizon: Option<Duration>,
    /// Per-client transaction budget; a client stops arriving once spent.
    pub max_txns_per_client: Option<u64>,
}

impl EngineConfig {
    /// An open-loop config with the defaults the bench harness uses:
    /// 64-deep worker queues, no horizon (run until stopped).
    pub fn open_loop(clients: usize, workers: usize, pacing: Pacing, seed: u64) -> Self {
        assert!(pacing.is_open_loop(), "use EngineConfig::closed_loop");
        EngineConfig {
            clients,
            workers,
            pacing,
            seed,
            queue_bound: 64,
            horizon: None,
            max_txns_per_client: None,
        }
    }

    /// A closed-loop config: one worker per client unless overridden,
    /// latency = service time.
    pub fn closed_loop(clients: usize, think: Duration, seed: u64) -> Self {
        EngineConfig {
            clients,
            workers: clients,
            pacing: Pacing::ClosedLoop { think },
            seed,
            queue_bound: 64,
            horizon: None,
            max_txns_per_client: None,
        }
    }
}

/// What one run offered, shed, and delivered.
#[derive(Debug)]
pub struct EngineReport {
    /// The shared transaction metrics (timeline, latency buckets, aborts).
    pub metrics: Arc<RunMetrics>,
    /// Arrivals generated (admitted + dropped).
    pub offered: u64,
    /// Arrivals executed to completion (commit or abort).
    pub executed: u64,
    /// Arrivals shed at a full worker queue.
    pub dropped: u64,
    /// Times a worker parked with nothing due.
    pub parks: u64,
    /// Total time workers spent parked.
    pub parked: Duration,
    /// Deepest any worker queue got.
    pub queue_high_water: usize,
    /// Arrivals generated per client, indexed by client id.
    pub per_client_offered: Vec<u64>,
    /// Arrivals executed per client, indexed by client id.
    pub per_client_executed: Vec<u64>,
    /// Wall-clock duration of the run (epoch → last worker exit).
    pub elapsed: Duration,
    /// Highest commit timestamp any worker produced.
    pub last_commit_ts: Timestamp,
}

impl EngineReport {
    /// Offered load in arrivals per second.
    pub fn offered_rate(&self) -> f64 {
        self.offered as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Delivered load in *commits* per second (aborts execute but don't
    /// deliver).
    pub fn delivered_rate(&self) -> f64 {
        self.metrics.counters.commits() as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Commits per offered arrival — the open-loop health signal the scale
    /// gate checks (1.0 = every intended transaction committed; drops and
    /// aborts both lower it).
    pub fn delivered_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.metrics.counters.commits() as f64 / self.offered as f64
    }
}

/// Cap on one park nap so workers notice `stop` and newly due arrivals
/// promptly even when the schedule says "nothing for a while".
const PARK_NAP: Duration = Duration::from_millis(1);

struct ClientState {
    id: ClientId,
    gen: ArrivalGen,
    rng: SmallRng,
    executed: u64,
    offered: u64,
}

#[derive(Debug)]
struct WorkerOut {
    dropped: u64,
    parks: u64,
    parked: Duration,
    queue_high_water: usize,
    /// (client id, offered, executed) for this worker's clients.
    per_client: Vec<(u32, u64, u64)>,
    last_commit_ts: Timestamp,
}

/// A running open-loop (or closed-loop) client fleet.
pub struct OpenLoopEngine {
    /// Shared transaction metrics, available mid-run for migration marks.
    pub metrics: Arc<RunMetrics>,
    config: EngineConfig,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<WorkerOut>>,
}

impl OpenLoopEngine {
    /// Starts the worker pool driving `workload`. Clients are assigned
    /// round-robin to workers; each worker holds one [`SessionPool`]
    /// (a session per node) and routes every client to its home
    /// coordinator `client % nodes`.
    pub fn start(
        cluster: &Arc<Cluster>,
        config: EngineConfig,
        workload: Arc<dyn Workload>,
    ) -> OpenLoopEngine {
        assert!(config.clients > 0, "need at least one client");
        let workers = config.workers.clamp(1, config.clients);
        let metrics = Arc::new(RunMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let handles = (0..workers)
            .map(|w| {
                let clients: Vec<ClientState> = (w..config.clients)
                    .step_by(workers)
                    .map(|c| ClientState {
                        id: ClientId(c as u32),
                        gen: ArrivalGen::new(config.seed, ClientId(c as u32), config.pacing),
                        rng: SmallRng::seed_from_u64(config.seed ^ (c as u64) << 8),
                        executed: 0,
                        offered: 0,
                    })
                    .collect();
                let cluster = Arc::clone(cluster);
                let workload = Arc::clone(&workload);
                let metrics = Arc::clone(&metrics);
                let stop = Arc::clone(&stop);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("engine-worker-{w}"))
                    .spawn(move || {
                        worker_loop(
                            &cluster, &config, clients, &*workload, &metrics, &stop, epoch,
                        )
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        OpenLoopEngine {
            metrics,
            config,
            epoch,
            stop,
            workers: handles,
        }
    }

    /// Lets the fleet run for `d`.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Signals the workers to stop (pending schedules are discarded,
    /// already-admitted arrivals drain) and collects the report.
    pub fn stop(self) -> EngineReport {
        self.stop.store(true, Ordering::Relaxed);
        self.collect()
    }

    /// Waits for the run to end on its own — requires a horizon or a
    /// per-client budget, otherwise the workers never exit.
    pub fn join(self) -> EngineReport {
        assert!(
            self.config.horizon.is_some() || self.config.max_txns_per_client.is_some(),
            "join() without a horizon or txn budget would never return; use stop()"
        );
        self.collect()
    }

    fn collect(mut self) -> EngineReport {
        let mut report = EngineReport {
            metrics: Arc::clone(&self.metrics),
            offered: 0,
            executed: 0,
            dropped: 0,
            parks: 0,
            parked: Duration::ZERO,
            queue_high_water: 0,
            per_client_offered: vec![0; self.config.clients],
            per_client_executed: vec![0; self.config.clients],
            elapsed: Duration::ZERO,
            last_commit_ts: Timestamp::INVALID,
        };
        for handle in self.workers.drain(..) {
            let out = handle.join().expect("engine worker panicked");
            report.dropped += out.dropped;
            report.parks += out.parks;
            report.parked += out.parked;
            report.queue_high_water = report.queue_high_water.max(out.queue_high_water);
            report.last_commit_ts = report.last_commit_ts.max(out.last_commit_ts);
            for (client, offered, executed) in out.per_client {
                report.offered += offered;
                report.executed += executed;
                report.per_client_offered[client as usize] = offered;
                report.per_client_executed[client as usize] = executed;
            }
        }
        report.elapsed = self.epoch.elapsed();
        report
    }
}

/// One worker: admit due arrivals, execute queued work, park when idle.
fn worker_loop(
    cluster: &Arc<Cluster>,
    config: &EngineConfig,
    mut clients: Vec<ClientState>,
    workload: &dyn Workload,
    metrics: &RunMetrics,
    stop: &AtomicBool,
    epoch: Instant,
) -> WorkerOut {
    let pool = SessionPool::connect_all(cluster);
    let horizon = config.horizon.map(|h| h.as_nanos() as u64);
    let budget = config.max_txns_per_client;
    let closed_think = match config.pacing {
        Pacing::ClosedLoop { think } => Some(think.as_nanos() as u64),
        _ => None,
    };

    // Pending arrivals per client, ordered by due time. Closed-loop clients
    // re-enter the heap at completion + think instead of by schedule.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = clients
        .iter()
        .enumerate()
        .filter(|_| budget != Some(0))
        .map(|(slot, c)| Reverse((c.gen.current(), slot)))
        .collect();
    let mut queue: BoundedQueue<(usize, u64)> = BoundedQueue::new(config.queue_bound);
    let mut parks = 0u64;
    let mut parked = Duration::ZERO;

    loop {
        if stop.load(Ordering::Relaxed) {
            // Discard the remaining schedule; drain what was admitted.
            heap.clear();
        }
        let now = epoch.elapsed().as_nanos() as u64;

        if let Some(think) = closed_think {
            // Closed loop: execute the earliest eligible client directly.
            match heap.peek().copied() {
                None => break,
                Some(Reverse((due, slot))) if due <= now => {
                    heap.pop();
                    let c = &mut clients[slot];
                    c.offered += 1;
                    execute(&pool, workload, metrics, c, None, epoch);
                    let done = budget.is_some_and(|b| c.executed >= b)
                        || horizon.is_some_and(|h| epoch.elapsed().as_nanos() as u64 >= h);
                    if !done {
                        let next = epoch.elapsed().as_nanos() as u64 + think;
                        heap.push(Reverse((next, slot)));
                    }
                }
                Some(Reverse((due, _))) => {
                    parks += 1;
                    let nap = Duration::from_nanos(due - now).min(PARK_NAP);
                    std::thread::sleep(nap);
                    parked += nap;
                }
            }
            continue;
        }

        // Open loop: admit everything due, then execute one queued arrival.
        while let Some(&Reverse((due, slot))) = heap.peek() {
            if due > now {
                break;
            }
            heap.pop();
            let c = &mut clients[slot];
            c.offered += 1;
            let _ = queue.push((slot, due));
            c.gen.advance();
            let exhausted = horizon.is_some_and(|h| c.gen.current() >= h)
                || budget.is_some_and(|b| c.offered >= b);
            if !exhausted {
                heap.push(Reverse((c.gen.current(), slot)));
            }
        }

        if let Some((slot, due)) = queue.pop() {
            execute(
                &pool,
                workload,
                metrics,
                &mut clients[slot],
                Some(due),
                epoch,
            );
        } else if let Some(&Reverse((due, _))) = heap.peek() {
            parks += 1;
            let nap = Duration::from_nanos(due.saturating_sub(now)).min(PARK_NAP);
            std::thread::sleep(nap);
            parked += nap;
        } else {
            // Schedule exhausted and queue drained: the run is over.
            break;
        }
    }

    WorkerOut {
        dropped: queue.dropped(),
        parks,
        parked,
        queue_high_water: queue.high_water(),
        per_client: clients
            .iter()
            .map(|c| (c.id.0, c.offered, c.executed))
            .collect(),
        last_commit_ts: pool.last_commit_ts(),
    }
}

/// Runs one transaction for `client`, recording latency against the
/// intended arrival (`due`, nanos from epoch) when given — the
/// coordinated-omission-safe measurement — or against the actual start for
/// closed-loop service time.
fn execute(
    pool: &SessionPool,
    workload: &dyn Workload,
    metrics: &RunMetrics,
    client: &mut ClientState,
    due: Option<u64>,
    epoch: Instant,
) {
    let session = pool.for_client(client.id);
    let started = Instant::now();
    let result = session
        .run(|txn| workload.run_once(client.id, txn, &mut client.rng))
        .map(|((), _)| ());
    let latency = match due {
        Some(due) => {
            let completed = epoch.elapsed().as_nanos() as u64;
            Duration::from_nanos(completed.saturating_sub(due))
        }
        None => started.elapsed(),
    };
    metrics.record_outcome_with_latency(latency, &result);
    client.executed += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session, SessionTxn};
    use remus_common::{NodeId, TableId};
    use remus_storage::Value;

    /// The one engine path the integration suites (all open-loop) do not
    /// drive: closed-loop clients execute, commit, and record service time.
    #[test]
    fn closed_loop_fleet_runs_and_counts_commits() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..50 {
            session
                .run(|t| t.insert(&layout, k, Value::copy_from_slice(b"v")))
                .unwrap();
        }
        let workload = move |_c: ClientId, txn: &mut SessionTxn<'_>, rng: &mut SmallRng| {
            txn.read(&layout, rng.gen_range(0..50u64))?;
            Ok(())
        };
        let engine = OpenLoopEngine::start(
            &cluster,
            EngineConfig::closed_loop(4, Duration::ZERO, 0x5EED),
            Arc::new(workload),
        );
        engine.run_for(Duration::from_millis(200));
        let metrics = engine.stop().metrics;
        assert!(metrics.counters.commits() > 0);
        assert_eq!(metrics.counters.migration_aborts(), 0);
        assert!(!metrics.timeline.buckets().is_empty());
        assert!(metrics.latency_normal.count() > 0);
    }

    /// The coordinated-omission regression: a single long stall must
    /// inflate the tail of the *recorded* distribution, because every
    /// arrival that was due during the stall is measured from its intended
    /// time. A service-time recorder takes exactly one slow sample here
    /// and the tail stays flat.
    #[test]
    fn stalled_server_inflates_co_safe_p99() {
        use std::sync::atomic::AtomicU64;

        let cluster = ClusterBuilder::new(1).build();
        let layout = cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session
            .run(|t| t.insert(&layout, 1, Value::copy_from_slice(b"v")))
            .unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let workload = move |_c: ClientId, txn: &mut SessionTxn<'_>, _r: &mut SmallRng| {
            // One 200 ms stall early in the run, then fast.
            if calls2.fetch_add(1, Ordering::Relaxed) == 5 {
                std::thread::sleep(Duration::from_millis(200));
            }
            txn.read(&layout, 1)?;
            Ok(())
        };
        // Open-loop 2 ms schedule: ~100 arrivals fall due during the stall.
        let pacing = Pacing::FixedRate {
            period: Duration::from_millis(2),
        };
        let engine = OpenLoopEngine::start(
            &cluster,
            EngineConfig::open_loop(1, 1, pacing, 0x5EED),
            Arc::new(workload),
        );
        engine.run_for(Duration::from_millis(700));
        let report = engine.stop();
        let lat = &report.metrics.latency_normal;
        assert!(
            lat.percentile(0.99) >= Duration::from_millis(50),
            "stall must surface in p99, got {:?}",
            lat.percentile(0.99)
        );
        // The distinguishing signal vs service-time recording: *many*
        // samples carry the stall, not just the one stalled transaction.
        let slow: u64 = lat
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i >= 14) // buckets >= ~16.4 ms
            .map(|(_, &n)| n)
            .sum();
        assert!(slow >= 8, "expected many inflated samples, got {slow}");
    }

    #[test]
    fn fixed_rate_schedule_is_periodic_after_phase() {
        let pacing = Pacing::FixedRate {
            period: Duration::from_millis(10),
        };
        let sched = arrival_schedule(7, ClientId(3), pacing, Duration::from_millis(100));
        assert!(!sched.is_empty());
        assert!(
            sched[0] < Duration::from_millis(10),
            "phase within one period"
        );
        for pair in sched.windows(2) {
            assert_eq!(pair[1] - pair[0], Duration::from_millis(10));
        }
    }

    #[test]
    fn poisson_schedule_is_monotone_with_positive_gaps() {
        let pacing = Pacing::Poisson {
            mean: Duration::from_millis(5),
        };
        let sched = arrival_schedule(7, ClientId(0), pacing, Duration::from_secs(1));
        assert!(sched.len() > 50, "~200 expected, got {}", sched.len());
        for pair in sched.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn schedules_differ_across_clients_and_seeds() {
        let pacing = Pacing::Poisson {
            mean: Duration::from_millis(5),
        };
        let h = Duration::from_millis(200);
        let a = arrival_schedule(7, ClientId(0), pacing, h);
        let b = arrival_schedule(7, ClientId(1), pacing, h);
        let c = arrival_schedule(8, ClientId(0), pacing, h);
        assert_ne!(a, b, "clients must not stampede in lockstep");
        assert_ne!(a, c, "seed must change the schedule");
    }

    #[test]
    #[should_panic(expected = "no schedule")]
    fn closed_loop_has_no_schedule() {
        let _ = arrival_schedule(
            7,
            ClientId(0),
            Pacing::ClosedLoop {
                think: Duration::ZERO,
            },
            Duration::from_secs(1),
        );
    }

    #[test]
    fn bounded_queue_sheds_and_counts() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.push(1), Admission::Queued);
        assert_eq!(q.push(2), Admission::Queued);
        assert_eq!(q.push(3), Admission::Dropped);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(4), Admission::Queued);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_queue_bound_is_at_least_one() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.bound(), 1);
        assert_eq!(q.push(()), Admission::Queued);
        assert_eq!(q.push(()), Admission::Dropped);
    }

    #[test]
    fn zero_width_pacing_is_clamped() {
        // A zero period must not generate an infinitely dense schedule.
        let sched = arrival_schedule(
            1,
            ClientId(0),
            Pacing::FixedRate {
                period: Duration::ZERO,
            },
            Duration::from_nanos(100),
        );
        assert!(sched.len() <= 100);
    }
}
