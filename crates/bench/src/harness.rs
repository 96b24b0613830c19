//! What every bench bin is built from: one rig, one report path, and the
//! paper-figure runners on top of them.
//!
//! * **The rig** ([`Rig`]) is the only place the crate builds a cluster,
//!   starts and stops its maintenance thread, creates and seeds a table,
//!   marks a migration window, or collects a [`ScenarioReport`]; beside it
//!   sit the two client shapes more than one bench needs on top of
//!   `OpenLoopEngine::start` — the hot-shard writer and the barrier-phased
//!   [`ReaderPool`].
//! * **The report path** ([`Bench`], [`Args`]): a bin states what it
//!   reports as data — title, scale label, default JSON path, table and
//!   legs —, [`Args::from_process`] parses the process arguments once for
//!   every bin, and [`Args::run`] does the rest once: run the legs in
//!   order, derive the ratio column, print, write, and hold the report to
//!   the gate table.
//! * **The figure runners**: [`run_figure`] is the one body of
//!   Figures 6–9 (and Tables 2–3), [`run_high_contention`] is Figure 10.
//!
//! What stays in a bin is what is different about it: its constants and
//! their reasons, its workload closure, its disturbance script, its
//! armed-checks and its row's own cells.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_clock::{OracleKind, TimestampOracle};
use remus_cluster::{Cluster, ClusterBuilder, Session, SessionTxn};
use remus_common::metrics::Timeline;
use remus_common::{ClientId, NodeId, ParallelismConfig, ShardId, SimConfig, TableId};
use remus_core::trace::expected_phases;
pub use remus_core::EngineKind;
use remus_core::{MigrationController, MigrationPlan, MigrationReport, MigrationTask};
use remus_shard::TableLayout;
use remus_storage::Value;
use remus_workload::driver::{RunMetrics, Workload};
use remus_workload::engine::{EngineConfig, OpenLoopEngine, Pacing};
use remus_workload::hybrid::{AnalyticalClient, BatchIngest, BatchIngestReport};
use remus_workload::tpcc::{Tpcc, TpccConfig};
use remus_workload::ycsb::{HotSpot, KeyDistribution, Ycsb, YcsbConfig};

use crate::gate;
use crate::print::{print_scenario, print_table_head};
use crate::report::{BenchReport, CounterReport, MigrationSummary, ScenarioReport, TableSection};
use crate::scale::{Scale, NODES};

// ---------------------------------------------------------------- the rig

/// The simulation config of the preset-scaled runs, as what it changes of
/// [`SimConfig::instant`]: the relative costs of DESIGN.md §1. Network
/// latency stays zero because the host has a core or two and thread sleeps
/// would distort more than they model.
pub fn sim_config(scale: &Scale) -> SimConfig {
    let instant = SimConfig::instant();
    SimConfig {
        squall_pull_latency: Duration::from_millis(20),
        squall_chunk_keys: 64,
        parallelism: ParallelismConfig {
            chunk_size: 256,
            ..instant.parallelism
        },
        spill_reload_latency: Duration::from_micros(100),
        max_clock_skew: Duration::from_millis(1),
        snapshot_copy_per_tuple: scale.copy_per_tuple,
        lock_wait_timeout: Duration::from_secs(60),
        ..instant
    }
}

/// Run seed of every bench client fleet that does not name its own.
pub const CLIENT_SEED: u64 = 0x5EED;

/// One worker per client, each client on a fixed-rate open-loop schedule
/// of `period` under [`CLIENT_SEED`] — the figure runners' fleet (their
/// period is `Scale::think`) and the paced ablation writers.
pub fn fixed_rate_clients(clients: usize, period: Duration) -> EngineConfig {
    EngineConfig::open_loop(clients, clients, Pacing::FixedRate { period }, CLIENT_SEED)
}

/// The timestamp scheme of a rig.
pub enum Oracle {
    /// Decentralized HLC timestamps, as in the paper's evaluation.
    Dts,
    /// The central sequencer, leased as `hot_path.gts_lease` says.
    Gts,
    /// A caller-built oracle (the oracle ablation's simulated RTT).
    Instance(Arc<dyn TimestampOracle>),
}

/// Background maintenance of a rig's cluster: one period per reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// No maintenance thread: a quiescent migration or a few seconds of
    /// steady load leave nothing that has to be truncated or pruned.
    Off,
    /// A vacuum pass every 500 ms. With `hot_path.gc_interval` zero (as in
    /// [`sim_config`]) the pass is the only version GC of a paced run;
    /// twice a second keeps chains short without showing in a per-second
    /// series.
    Vacuum,
    /// A vacuum pass every 200 ms: Figure 10 samples the hot shard's
    /// longest chain once a second, and the drop when the copy's snapshot
    /// releases is only visible if several passes fall into one sample.
    FastVacuum,
    /// WAL truncation and the config's own `hot_path.gc_interval` ticks
    /// only (the vacuum period is an hour): where the GC cadence is what a
    /// leg varies, or is set per leg, no unbudgeted pass may land inside
    /// the measured window.
    GcOnly,
}

/// One bench leg's cluster. Dropping the rig stops the maintenance thread
/// (which holds the cluster alive otherwise), so a bin's legs do not pile
/// up behind each other.
pub struct Rig {
    /// The cluster.
    pub cluster: Arc<Cluster>,
    engine: EngineKind,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.cluster.stop_maintenance();
    }
}

impl Rig {
    /// Builds a cluster of `nodes` nodes (replicas and spares included)
    /// under `engine`'s concurrency-control regime — the engine
    /// [`Rig::migrate`] uses — and starts its maintenance. The `config` is
    /// best written as what it changes of [`SimConfig::instant`] or
    /// [`sim_config`] (isolation level and WAL backend included).
    pub fn build(
        nodes: usize,
        engine: EngineKind,
        oracle: Oracle,
        config: SimConfig,
        maintenance: Maintenance,
    ) -> Rig {
        let builder = ClusterBuilder::new(nodes)
            .cc_mode(engine.cc_mode())
            .config(config);
        let cluster = match oracle {
            Oracle::Dts => builder.oracle(OracleKind::Dts),
            Oracle::Gts => builder.oracle(OracleKind::Gts),
            Oracle::Instance(oracle) => builder.oracle_instance(oracle),
        }
        .build();
        let vacuum_ms = match maintenance {
            Maintenance::Off => None,
            Maintenance::Vacuum => Some(500),
            Maintenance::FastVacuum => Some(200),
            Maintenance::GcOnly => Some(3_600_000),
        };
        if let Some(ms) = vacuum_ms {
            cluster.start_maintenance(Duration::from_millis(ms));
        }
        Rig { cluster, engine }
    }

    /// Creates the leg's table — `shards` shards placed by `placement` —
    /// and inserts the keys that `keys` picks from its layout, 64 to a
    /// transaction, each with a few bytes of value.
    pub fn seed_table<I: IntoIterator<Item = u64>>(
        &self,
        shards: u32,
        placement: impl FnMut(u32) -> NodeId,
        keys: impl FnOnce(&TableLayout) -> I,
    ) -> TableLayout {
        let layout = self.cluster.create_table(TableId(1), 0, shards, placement);
        let seeder = Session::connect(&self.cluster, NodeId(0));
        let keys: Vec<u64> = keys(&layout).into_iter().collect();
        for chunk in keys.chunks(64) {
            let insert_chunk = |t: &mut SessionTxn<'_>| {
                let value = |k: &u64| Value::copy_from_slice(format!("v{k}").as_bytes());
                chunk
                    .iter()
                    .try_for_each(|k| t.insert(&layout, *k, value(k)))
            };
            seeder.run(insert_chunk).expect("seeding failed");
        }
        layout
    }

    /// Runs `tasks` one after another with the rig's engine and returns
    /// the aggregate report, every migration's trace asserted well-formed
    /// and in the engine's canonical root-phase order.
    pub fn migrate(&self, tasks: &[MigrationTask]) -> MigrationReport {
        let (name, tasks) = (self.engine.name(), tasks.to_vec());
        let report = MigrationController::new(Arc::clone(&self.cluster), self.engine.engine())
            .run_plan_aggregate(&MigrationPlan { tasks })
            .unwrap_or_else(|e| panic!("{name} migration failed: {e:?}"));
        let canonical = expected_phases(name).expect("every engine has a canonical sequence");
        for trace in &report.traces {
            let well_formed = trace.check_well_formed();
            well_formed.unwrap_or_else(|e| panic!("malformed migration trace: {e}"));
            assert_eq!(trace.root_phases(), canonical, "{name}: phase sequence");
        }
        report
    }

    /// [`Rig::migrate`] inside a marked window of `metrics`: commits that
    /// land in it go to the migration latency bucket, and the timeline
    /// carries `"<label> start"` / `"<label> end"` overlay events.
    pub fn migrate_marked(
        &self,
        metrics: &RunMetrics,
        label: &str,
        tasks: &[MigrationTask],
    ) -> MigrationReport {
        let mark = |edge: &str| {
            let label = format!("{label} {edge}");
            metrics.marks.mark(label, &metrics.timeline)
        };
        mark("start");
        metrics.set_migration_active(true);
        let report = self.migrate(tasks);
        metrics.set_migration_active(false);
        mark("end");
        report
    }

    /// One closed-loop client updating a random key of `keys` per
    /// transaction, `think` apart, until the returned engine is stopped:
    /// the write stream that follows a shard wherever a migration puts
    /// it. Migration-induced aborts go to the engine's abort accounting
    /// and the next arrival retries.
    pub fn hot_writer(
        &self,
        layout: TableLayout,
        keys: Vec<u64>,
        think: Duration,
    ) -> OpenLoopEngine {
        OpenLoopEngine::start(
            &self.cluster,
            EngineConfig::closed_loop(1, think, CLIENT_SEED),
            Arc::new(
                move |_c: ClientId, t: &mut SessionTxn<'_>, rng: &mut SmallRng| {
                    let key = keys[rng.gen_range(0..keys.len())];
                    t.update(&layout, key, Value::from_static(b"w"))
                },
            ),
        )
    }

    /// Collects what one scenario run produced — the client recorders,
    /// the (aggregate) migration report and the cluster's counter snapshot
    /// — as the serialisable record named `name`.
    pub fn finish(
        &self,
        name: &str,
        metrics: &RunMetrics,
        migration: &MigrationReport,
    ) -> ScenarioReport {
        let us = |d: Duration| d.as_micros() as u64;
        let marks = metrics.marks.all().into_iter();
        let counters = self.cluster.metrics_snapshot();
        ScenarioReport {
            name: name.to_string(),
            engine: self.engine.name().to_string(),
            commits: metrics.counters.commits(),
            migration_aborts: metrics.counters.migration_aborts(),
            ww_aborts: metrics.counters.ww_aborts(),
            other_aborts: metrics.counters.other_aborts(),
            base_latency_us: us(metrics.latency_normal.mean()),
            latency_increase_us: us(metrics.latency_increase()),
            tps: metrics.timeline.rates_per_sec(),
            events: marks.map(|(n, d)| (n, d.as_secs_f64())).collect(),
            migration: MigrationSummary::from_report(migration),
            counters: counters.iter().map(CounterReport::from_sample).collect(),
        }
    }
}

/// A pool of closed-loop read-only clients measured over barrier-aligned
/// windows of fixed work.
pub struct ReaderPool {
    /// Reader threads.
    pub readers: usize,
    /// Unmeasured transactions per reader before the first window.
    pub warmup_txns: u64,
    /// Measured transactions per reader in the first window.
    pub txns: u64,
    /// `(drain, txns)`: a second window of `txns` measured transactions per
    /// reader, entered once the disturbance has landed and `drain`
    /// unmeasured transactions have flushed its residue. While the
    /// disturbance is in the making the readers stay parked — reading, so
    /// the load signal keeps flowing, but unmeasured.
    pub after: Option<(u64, u64)>,
}

/// One timed window of a [`ReaderPool`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadWindow {
    /// The slowest reader's time over the window.
    pub elapsed: Duration,
    /// Transactions, over all readers, that the reader closure flagged.
    pub flagged: u64,
}

impl ReaderPool {
    /// Runs the pool. `reader` is called once on each reader thread with
    /// the reader's index and RNG (the same key sequence in every leg) and
    /// returns the closure that runs one read-only transaction (and says
    /// whether to flag it); the pool times and records every call into
    /// `metrics`. `disturbance` runs on the
    /// calling thread: inside the first window when there is no second,
    /// otherwise between the two, with the readers parked.
    pub fn run<T: FnMut() -> bool, R>(
        &self,
        metrics: &RunMetrics,
        reader: impl Fn(usize, SmallRng) -> T + Sync,
        disturbance: impl FnOnce() -> R,
    ) -> (Vec<ReadWindow>, R) {
        let phase = Barrier::new(self.readers + 1);
        let landed = AtomicBool::new(false);
        let read = |idx: usize| {
            let seed = CLIENT_SEED
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(idx as u64);
            let mut txn = reader(idx, SmallRng::seed_from_u64(seed));
            // `n` transactions, each timed and recorded; a window's start is
            // aligned with every other reader's.
            let mut run = |n: u64, window: bool| {
                if window {
                    phase.wait();
                }
                let started = Instant::now();
                let flagged = (0..n).filter(|_| {
                    let started = Instant::now();
                    let flag = txn();
                    metrics.record_outcome(started, &Ok(()));
                    flag
                });
                let flagged = flagged.count() as u64;
                ReadWindow {
                    elapsed: started.elapsed(),
                    flagged,
                }
            };
            run(self.warmup_txns, false);
            let mut windows = vec![run(self.txns, true)];
            if let Some((drain, txns)) = self.after {
                phase.wait();
                while !landed.load(Ordering::SeqCst) {
                    run(1, false);
                }
                run(drain, false);
                windows.push(run(txns, true));
            }
            windows
        };
        std::thread::scope(|scope| {
            let spawn = |idx| scope.spawn(move || read(idx));
            let handles: Vec<_> = (0..self.readers).map(spawn).collect();
            // The first window starts on every reader at once ...
            phase.wait();
            let out = if self.after.is_some() {
                // ... is over on every reader before the disturbance
                // begins, and the second starts once it has landed.
                phase.wait();
                let out = disturbance();
                landed.store(true, Ordering::SeqCst);
                phase.wait();
                out
            } else {
                disturbance()
            };
            let mut windows = vec![ReadWindow::default(); 1 + usize::from(self.after.is_some())];
            for handle in handles {
                let of_reader = handle.join().expect("reader panicked");
                for (total, w) in windows.iter_mut().zip(of_reader) {
                    total.elapsed = total.elapsed.max(w.elapsed);
                    total.flagged += w.flagged;
                }
            }
            (windows, out)
        })
    }
}

// ------------------------------------------------------- the report path

/// What a bench reports, as data.
pub struct Bench<P> {
    /// Report title: the bin's name.
    pub title: &'static str,
    /// The `# …` line printed before the legs run.
    pub caption: &'static str,
    /// Report scale label; `None` for a preset-scaled bench, whose label
    /// is the preset's dimensions.
    pub scale_label: Option<&'static str>,
    /// Where the report goes without `--json`; `None` writes it only when
    /// asked.
    pub default_json: Option<&'static str>,
    /// Title of the bench's table.
    pub table: &'static str,
    /// Its headers; none when the bench has no table.
    pub headers: &'static [&'static str],
    /// The legs, in run (and row) order.
    pub legs: Vec<Leg<P>>,
}

impl<P> Bench<P> {
    /// A preset-scaled bench without a table, legs or default JSON path:
    /// the base a description states its differences from.
    pub fn new(title: &'static str, caption: &'static str) -> Self {
        Bench {
            title,
            caption,
            scale_label: None,
            default_json: None,
            table: "",
            headers: &[],
            legs: Vec::new(),
        }
    }
}

/// One leg of a bench: one run, one scenario record, one table row.
pub struct Leg<P> {
    /// Name of the scenario record the leg produces.
    pub scenario: &'static str,
    /// First cell of the leg's table row. Empty when the bench has no
    /// table or the leg's rows are a time series, whose first cell is the
    /// sample time.
    pub row: &'static str,
    /// The engine the leg migrates with (and the positional `engine`
    /// argument selects legs by).
    pub engine: EngineKind,
    /// Row label of the leg whose measure the ratio column divides this
    /// leg's by (itself for a pair's baseline, giving `1.00x`); `None`
    /// when the leg's measure already is the ratio.
    pub baseline: Option<&'static str>,
    /// What is different about the leg.
    pub params: P,
}

impl<P> Leg<P> {
    /// A Remus leg whose measure already is its ratio.
    pub fn new(scenario: &'static str, row: &'static str, params: P) -> Self {
        Leg {
            scenario,
            row,
            engine: EngineKind::Remus,
            baseline: None,
            params,
        }
    }

    /// The same leg migrating with `engine`.
    pub fn engine(self, engine: EngineKind) -> Self {
        Leg { engine, ..self }
    }

    /// The same leg with its ratio taken against the leg whose row is
    /// labelled `baseline`.
    pub fn versus(self, baseline: &'static str) -> Self {
        Leg {
            baseline: Some(baseline),
            ..self
        }
    }
}

/// What running a leg produced.
#[derive(Default)]
pub struct LegOutcome {
    /// The scenario records, named as the leg says.
    pub scenarios: Vec<ScenarioReport>,
    /// The leg's rows, each as its own cells: the driver puts the row
    /// label in front and the ratio cell behind.
    pub rows: Vec<Vec<String>>,
    /// What the table's trailing ratio column is derived from; `None` for
    /// a table without one.
    pub measure: Option<f64>,
}

/// The process arguments every bench bin takes, parsed once.
pub struct Args {
    /// `--scale <preset>`, else `REMUS_SCALE`, else `default`.
    pub scale: Scale,
    /// `--json <path>`.
    pub json: Option<PathBuf>,
    /// `--scenario <name>`, one of the names the bin accepts.
    pub scenario: Option<String>,
    /// The positional engine name: run only that engine's legs.
    pub engine: Option<EngineKind>,
}

impl Args {
    /// Parses `argv` (without the program name) and the value of
    /// `REMUS_SCALE`; `scenarios` are the `--scenario` names the bin
    /// accepts. Whatever is not understood is an error naming the token,
    /// never ignored: a typo must not run the wrong experiment.
    pub fn parse(
        argv: &[&str],
        env_scale: Option<&str>,
        scenarios: &[&str],
    ) -> Result<Args, String> {
        let preset = |source: &str, name: &str| {
            Scale::by_name(name).ok_or(format!(
                "unknown {source} preset '{name}' (quick / default / full / paper)"
            ))
        };
        let mut args = Args {
            scale: env_scale.map_or(Ok(Scale::default_scale()), |n| preset("REMUS_SCALE", n))?,
            json: None,
            scenario: None,
            engine: None,
        };
        let mut tokens = argv.iter().copied();
        while let Some(token) = tokens.next() {
            let mut value = || tokens.next().ok_or(format!("{token} needs a value"));
            match token {
                "--scale" => args.scale = preset("--scale", value()?)?,
                "--json" => args.json = Some(PathBuf::from(value()?)),
                "--scenario" => {
                    let name = value()?;
                    if !scenarios.contains(&name) {
                        return Err(format!(
                            "unknown --scenario '{name}' (this bench has {scenarios:?})"
                        ));
                    }
                    args.scenario = Some(name.to_string());
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                name if args.engine.is_none() => {
                    let engine = EngineKind::parse(name);
                    args.engine = Some(engine.ok_or(format!("unknown engine '{name}'"))?);
                }
                extra => return Err(format!("unexpected argument '{extra}'")),
            }
        }
        Ok(args)
    }

    /// [`Args::parse`] on the process's own arguments and environment; on
    /// an error prints it with the usage to stderr and exits 2.
    pub fn from_process(scenarios: &[&str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let argv: Vec<String> = argv.collect();
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let env_scale = std::env::var("REMUS_SCALE").ok();
        Args::parse(&argv, env_scale.as_deref(), scenarios).unwrap_or_else(|e| {
            eprintln!(
                "{bin}: {e}\nusage: {bin} [engine] [--scale quick|default|full|paper] \
                 [--json <path>] [--scenario <name>]   (REMUS_SCALE=<preset> sets the default scale)"
            );
            std::process::exit(2)
        })
    }

    /// The one driver: runs `bench`'s legs in order through `run_leg`,
    /// assembles the table (row label, the leg's cells, the ratio derived
    /// from the leg named as baseline), prints it, writes the report and
    /// holds it to the gate table.
    pub fn run<P>(&self, bench: Bench<P>, mut run_leg: impl FnMut(&Leg<P>, &Scale) -> LegOutcome) {
        let selected = |leg: &&Leg<P>| self.engine.is_none_or(|e| e == leg.engine);
        let legs: Vec<&Leg<P>> = bench.legs.iter().filter(selected).collect();
        if let (true, Some(engine)) = (legs.is_empty(), self.engine) {
            eprintln!("{}: no leg runs with {}", bench.title, engine.name());
            std::process::exit(2);
        }
        println!("# {}", bench.caption);
        let scale_label = match bench.scale_label {
            Some(label) => label.to_string(),
            None => {
                println!("# scale: {:?}", self.scale);
                format!("{:?}", self.scale)
            }
        };
        let mut report = BenchReport::new(bench.title, &scale_label);
        let mut table = TableSection::new(bench.table, bench.headers, Vec::new());
        let mut measures: Vec<(&str, f64)> = Vec::new();
        for leg in legs {
            let outcome = run_leg(leg, &self.scale);
            let ratio = outcome.measure.map(|measure| {
                measures.push((leg.row, measure));
                let base = leg.baseline.map_or(1.0, |label| {
                    let found = measures.iter().find(|(row, _)| *row == label);
                    found
                        .unwrap_or_else(|| panic!("baseline leg {label:?} has not run"))
                        .1
                });
                format!("{:.2}x", measure / base.max(1e-9))
            });
            for cells in outcome.rows {
                // The head goes out with the first row, below what the
                // legs print of their own.
                if table.rows.is_empty() {
                    print_table_head(&table);
                }
                let label = (!leg.row.is_empty()).then(|| leg.row.to_string());
                let row: Vec<String> = label
                    .into_iter()
                    .chain(cells)
                    .chain(ratio.clone())
                    .collect();
                println!("{}", row.join("\t"));
                table.rows.push(row);
            }
            report.scenarios.extend(outcome.scenarios);
        }
        if !table.headers.is_empty() {
            report.tables.push(table);
        }
        let path = self.json.clone().or(bench.default_json.map(PathBuf::from));
        if let Some(path) = path {
            report.write(&path).expect("writing JSON report failed");
        }
        gate::enforce(&report);
    }
}

// ---------------------------------------------------- the figure runners

/// The four migration scenarios of the paper's evaluation that share one
/// shape: load, client fleet, warm-up, (side client,) plan, cool-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Hybrid workload A — YCSB plus batch ingestion — during cluster
    /// consolidation (Figure 6 / Table 2).
    HybridA,
    /// Hybrid workload B — YCSB plus a long analytical transaction —
    /// during cluster consolidation (Figure 7).
    HybridB,
    /// Skewed-YCSB load balancing (Figure 8).
    LoadBalance,
    /// TPC-C scale-out (Figure 9): the last node starts empty; half of
    /// the overloaded first node's warehouses move onto it.
    ScaleOut,
}

impl Figure {
    /// All four, in the paper's order.
    pub const ALL: [Figure; 4] = [
        Figure::HybridA,
        Figure::HybridB,
        Figure::LoadBalance,
        Figure::ScaleOut,
    ];

    /// Name of the scenario records (and of Table 3's row).
    pub fn scenario(self) -> &'static str {
        match self {
            Figure::HybridA => "hybrid A",
            Figure::HybridB => "hybrid B",
            Figure::LoadBalance => "load balancing",
            Figure::ScaleOut => "scale-out",
        }
    }
}

/// What a figure run's side client reported, carried beside the record.
#[derive(Debug, Clone)]
pub enum Side {
    /// The figure has no side client.
    None,
    /// Hybrid A's ingestion client (Table 2).
    Batch {
        /// The client's own report.
        report: BatchIngestReport,
        /// Mean ingested tuples/s before and during the consolidation
        /// window.
        tps: (f64, f64),
    },
    /// Hybrid B: whether the duplicate-key check passed on every scan of
    /// the long analytical snapshot and on a fresh one afterwards.
    Consistency(bool),
}

fn mean_rate(timeline_buckets: &[u64], from: f64, to: f64) -> f64 {
    if to <= from {
        return 0.0;
    }
    let lo = from.floor().max(0.0) as usize;
    let hi = (to.ceil() as usize).min(timeline_buckets.len());
    if hi <= lo {
        return 0.0;
    }
    let sum: u64 = timeline_buckets[lo..hi].iter().sum();
    sum as f64 / (hi - lo) as f64
}

/// The preset-scaled YCSB table under `distribution`.
pub fn ycsb_config(scale: &Scale, distribution: KeyDistribution) -> YcsbConfig {
    YcsbConfig {
        shards: scale.ycsb_shards,
        keys: scale.ycsb_keys,
        value_len: scale.value_len,
        distribution,
        ..YcsbConfig::default()
    }
}

/// The hot shards of the Zipfian access pattern, hottest first.
fn zipfian_hot_shards(config: &YcsbConfig) -> Vec<u32> {
    use rand::SeedableRng;
    let layout = TableLayout::new(config.table, config.base_shard, config.shards);
    let zipf = remus_workload::ycsb::Zipfian::new(config.keys, 0.99);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut hits = vec![0u64; config.shards as usize];
    for _ in 0..200_000 {
        let rank = zipf.sample(&mut rng);
        let key = remus_shard::key_hash(rank) % config.keys;
        hits[(layout.shard_for(key).0 - config.base_shard) as usize] += 1;
    }
    let mut order: Vec<u32> = (0..config.shards).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(hits[i as usize]));
    order
}

/// Runs one of the four figure scenarios with engine `kind`: one body,
/// parameterised by what differs — the workload with its placement, the
/// side client, the plan and its mark label.
pub fn run_figure(fig: Figure, kind: EngineKind, scale: &Scale) -> (ScenarioReport, Side) {
    let mut config = sim_config(scale);
    if fig == Figure::ScaleOut {
        // TPC-C keeps inserting order rows, so the per-tuple copy pacing
        // that suits the fixed-size YCSB tables would stretch each
        // warehouse move into minutes; scale it down while keeping the
        // windows visible.
        config.snapshot_copy_per_tuple = scale.copy_per_tuple / 10;
    }
    let rig = Rig::build(NODES, kind, Oracle::Dts, config, Maintenance::Vacuum);
    let cluster = &rig.cluster;
    let nodes = NODES as u32;

    // What differs, part one: the workload with its placement, the fleet
    // size, and the plan with its mark label.
    type Loaded = (Arc<dyn Workload>, usize, &'static str, Vec<MigrationTask>);
    let mut ycsb_layout = None;
    let (workload, clients, mark, tasks): Loaded = match fig {
        Figure::HybridA | Figure::HybridB => {
            let ycsb = Ycsb::setup(cluster, ycsb_config(scale, KeyDistribution::Uniform));
            ycsb_layout = Some(ycsb.layout);
            // Figure 6 moves two shards per migration, Figure 7 four.
            let group = scale.consolidation_group * if fig == Figure::HybridA { 1 } else { 2 };
            let plan = MigrationPlan::consolidate(cluster, NodeId(0), group);
            (Arc::new(ycsb), scale.clients, "consolidation", plan.tasks)
        }
        Figure::LoadBalance => {
            // Pile the hot shards of the Zipfian access pattern onto
            // node 0, as the paper's skewed workload does.
            let config = ycsb_config(scale, KeyDistribution::Zipfian(0.99));
            let hot_count = (scale.ycsb_shards / 3).clamp(5, 50) as usize;
            let hot: Vec<u32> = zipfian_hot_shards(&config)[..hot_count].to_vec();
            let ycsb = Ycsb::setup_with_placement(cluster, config, |i| {
                if hot.contains(&i) {
                    NodeId(0)
                } else {
                    NodeId(1 + i % (nodes - 1))
                }
            });
            // Migrate 4/5 of the hot shards to the other nodes, four at
            // a time.
            let shards: Vec<ShardId> = hot[..hot_count * 4 / 5]
                .iter()
                .map(|&i| ShardId(ycsb.layout.base + i as u64))
                .collect();
            let dests: Vec<NodeId> = (1..nodes).map(NodeId).collect();
            let plan = MigrationPlan::move_shards(&shards, NodeId(0), &dests, 4);
            (Arc::new(ycsb), scale.clients, "balancing", plan.tasks)
        }
        Figure::ScaleOut => {
            // Node 0 is overloaded with twice the share; the last node is
            // new. E.g. 24 warehouses are 6 "shares" of 4.
            let share = scale.warehouses / nodes;
            let warehouses = TpccConfig {
                warehouses: scale.warehouses,
                ..TpccConfig::default()
            };
            let tpcc = Tpcc::setup(cluster, warehouses, |wh| {
                if wh < 2 * share {
                    NodeId(0)
                } else {
                    NodeId(1 + (wh - 2 * share) / share.max(1) % (nodes - 2))
                }
            });
            // Move half of node 0's warehouses (all 8 collocated shards
            // each) to the new node, one warehouse per migration.
            let tasks = (0..share).map(|wh| MigrationTask {
                shards: tpcc.warehouse_shards(wh),
                source: NodeId(0),
                dest: NodeId(nodes - 1),
            });
            let tasks = tasks.collect();
            (Arc::new(tpcc), scale.tpcc_clients, "scale-out", tasks)
        }
    };
    let config = fixed_rate_clients(clients, scale.think);
    let fleet = OpenLoopEngine::start(cluster, config, workload);
    let (metrics, batch_tl) = (&fleet.metrics, &Timeline::per_second());
    fleet.run_for(scale.warmup);

    // Part two: the side client, started a moment before the plan.
    let (migration, mut side) = std::thread::scope(|scope| {
        let side = ycsb_layout.map(|layout| {
            if fig == Figure::HybridA {
                // The ingestion client starts, runs through the
                // consolidation, and is retried on migration-induced aborts.
                metrics.marks.mark("batch start", &metrics.timeline);
                let client = scope.spawn(move || {
                    let (size, n) = (scale.batch_size, scale.batches);
                    let ingest =
                        BatchIngest::new(layout, scale.ycsb_keys, size, n, scale.value_len);
                    let ingest = ingest.with_pause(scale.batch_pause);
                    let report = ingest.run(cluster, NodeId(0), Some(batch_tl));
                    metrics.marks.mark("batch end", &metrics.timeline);
                    let tps = (0.0, 0.0);
                    Side::Batch { report, tps }
                });
                std::thread::sleep(Duration::from_millis(600));
                client
            } else {
                // The long-lived analytical transaction: one snapshot,
                // repeated full scans with the duplicate-primary-key check.
                metrics.marks.mark("analytic start", &metrics.timeline);
                let client = scope.spawn(move || {
                    let session = Session::connect(cluster, NodeId(nodes - 1));
                    let started = Instant::now();
                    let mut txn = session.begin();
                    let mut consistent = true;
                    while started.elapsed() < scale.analytic_hold {
                        // A baseline may abort the analytical transaction
                        // (Squall / lock-and-abort): it gives up the snapshot.
                        let Ok(rows) = txn.scan_table(&layout) else {
                            break;
                        };
                        let mut keys: Vec<u64> = rows.into_iter().map(|(k, _)| k).collect();
                        let total = keys.len();
                        keys.sort_unstable();
                        keys.dedup();
                        consistent &= keys.len() == total;
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    let _ = txn.commit();
                    metrics.marks.mark("analytic end", &metrics.timeline);
                    Side::Consistency(consistent)
                });
                std::thread::sleep(Duration::from_millis(400));
                client
            }
        });
        let migration = rig.migrate_marked(metrics, mark, &tasks);
        let side = side.map_or(Side::None, |c| c.join().expect("side client panicked"));
        (migration, side)
    });
    fleet.run_for(scale.cooldown);

    if let Side::Batch { tps, .. } = &mut side {
        let marks = metrics.marks.all();
        let at = |name: &str| {
            let mark = marks.iter().find(|(n, _)| n == name);
            mark.map_or(0.0, |(_, t)| t.as_secs_f64())
        };
        let buckets = batch_tl.buckets();
        let (start, end) = (at("consolidation start"), at("consolidation end"));
        let before = mean_rate(&buckets, at("batch start"), start);
        *tps = (before, mean_rate(&buckets, start, end));
    }
    if let (Side::Consistency(ok), Some(layout)) = (&mut side, ycsb_layout) {
        // Post-consolidation consistency probe from a fresh snapshot.
        let probe = AnalyticalClient { layout };
        *ok &= probe.check_consistency(cluster, NodeId(1)).is_ok();
    }
    let metrics = fleet.stop().metrics;
    (rig.finish(fig.scenario(), &metrics, &migration), side)
}

/// The `main` of the per-engine figure bins (`fig6`–`fig9`): one leg per
/// engine of `engines`, each printing its scenario block.
pub fn figure_main(
    title: &'static str,
    caption: &'static str,
    fig: Figure,
    engines: &[EngineKind],
) {
    let leg = |&engine: &EngineKind| Leg::new(fig.scenario(), "", ()).engine(engine);
    let bench = Bench {
        legs: engines.iter().map(leg).collect(),
        ..Bench::new(title, caption)
    };
    Args::from_process(&[]).run(bench, |leg, scale| {
        let (record, side) = run_figure(fig, leg.engine, scale);
        print_scenario(&record, &side);
        LegOutcome {
            scenarios: vec![record],
            ..LegOutcome::default()
        }
    });
}

/// High-contention YCSB on one hot shard, migrated with Remus (Figure 10,
/// §4.8): the record named `name` — whose `migration.validation_conflicts`
/// are the WW conflicts between shadow and destination transactions during
/// dual execution (paper: 8 in five minutes) — and beside it one row per
/// second: `t_s`, the work units ("CPU" stand-in) of the source and of the
/// destination node in that second, and the hot shard's longest version
/// chain.
pub fn run_high_contention(name: &str, scale: &Scale) -> (ScenarioReport, Vec<Vec<String>>) {
    let mut config = sim_config(scale);
    // Stretch the snapshot copy so the long-lived copy snapshot visibly
    // holds back vacuum (the version-chain effect of §4.8).
    config.snapshot_copy_per_tuple = config.snapshot_copy_per_tuple.max(Duration::from_millis(2));
    let (engine, vacuum) = (EngineKind::Remus, Maintenance::FastVacuum);
    let rig = Rig::build(NODES, engine, Oracle::Dts, config, vacuum);
    let cluster = &rig.cluster;
    let ycsb = Ycsb::setup(cluster, ycsb_config(scale, KeyDistribution::Uniform));
    // Hot tuples: 100 keys of one shard owned by node 0.
    let shard = cluster.node(NodeId(0)).data_shards()[0];
    let hot_keys = Arc::new(ycsb.keys_on_shard(shard, 100));
    assert!(!hot_keys.is_empty(), "hot shard has no keys");
    let workload = Arc::new(HotSpot {
        layout: ycsb.layout,
        keys: hot_keys,
        value_len: scale.value_len,
    });
    let config = fixed_rate_clients(scale.clients * 2, scale.think);
    let fleet = OpenLoopEngine::start(cluster, config, workload);

    let done = AtomicBool::new(false);
    let (migration, samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
            let (started, mut samples) = (Instant::now(), Vec::new());
            let (mut last_src, mut last_dst) = (src.work.get(), dst.work.get());
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_secs(1));
                let (s, d) = (src.work.get(), dst.work.get());
                let table = src
                    .storage
                    .table(shard)
                    .or_else(|| dst.storage.table(shard));
                samples.push(vec![
                    format!("{:.0}", started.elapsed().as_secs_f64()),
                    (s - last_src).to_string(),
                    (d - last_dst).to_string(),
                    table.map_or(0, |t| t.stats().max_chain).to_string(),
                ]);
                (last_src, last_dst) = (s, d);
            }
            samples
        });
        fleet.run_for(scale.warmup);
        let task = MigrationTask::single(shard, NodeId(0), NodeId(1));
        let migration = rig.migrate_marked(&fleet.metrics, "migration", &[task]);
        fleet.run_for(scale.cooldown);
        done.store(true, Ordering::SeqCst);
        (migration, sampler.join().expect("sampler panicked"))
    });
    let metrics = fleet.stop().metrics;
    (rig.finish(name, &metrics, &migration), samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_windows() {
        let buckets = [10u64, 20, 30, 40];
        assert_eq!(mean_rate(&buckets, 0.0, 4.0), 25.0);
        assert_eq!(mean_rate(&buckets, 1.0, 3.0), 25.0);
        assert_eq!(mean_rate(&buckets, 3.0, 3.0), 0.0);
        assert_eq!(mean_rate(&buckets, 10.0, 12.0), 0.0);
    }

    #[test]
    fn sim_config_orders_costs() {
        let c = sim_config(&Scale::quick());
        assert!(c.squall_pull_latency > c.spill_reload_latency);
        assert!(c.lock_wait_timeout > Duration::from_secs(10));
    }

    /// One row per form the one parser is given: every valid form the
    /// README shows, and every way of not being understood — each an error
    /// naming the offending token.
    #[test]
    fn argument_forms() {
        // (argv, REMUS_SCALE, accepted scenarios) → Ok(keys of the scale,
        // json, scenario, engine) or Err(the token the error names)
        type Parsed = (
            u64,
            Option<&'static str>,
            Option<&'static str>,
            Option<EngineKind>,
        );
        let planner: &[&str] = &["hotspot", "read-skew"];
        let (quick, default, paper) = (6_000, 24_000, 10_000_000);
        type Row<'a> = (
            &'a [&'a str],
            Option<&'a str>,
            &'a [&'a str],
            Result<Parsed, &'a str>,
        );
        let rows: [Row; 15] = [
            (&[], None, &[], Ok((default, None, None, None))),
            (&[], Some("quick"), &[], Ok((quick, None, None, None))),
            (
                &["--scale", "paper"],
                Some("quick"),
                &[],
                Ok((paper, None, None, None)),
            ),
            (
                &["remus"],
                None,
                &[],
                Ok((default, None, None, Some(EngineKind::Remus))),
            ),
            (
                &["lock", "--json", "f.json"],
                None,
                &[],
                Ok((default, Some("f.json"), None, Some(EngineKind::LockAbort))),
            ),
            (
                &["--json", "BENCH_smoke.json"],
                None,
                &[],
                Ok((default, Some("BENCH_smoke.json"), None, None)),
            ),
            (
                &["--scenario", "read-skew", "--json", "p.json"],
                None,
                planner,
                Ok((default, Some("p.json"), Some("read-skew"), None)),
            ),
            // A bad environment is an error even when the command line names
            // the scale.
            (&["--scale", "quick"], Some("papr"), &[], Err("'papr'")),
            (&["remsu"], None, &[], Err("'remsu'")),
            (&["--scale", "warp"], None, &[], Err("'warp'")),
            (&[], Some("papr"), &[], Err("'papr'")),
            (&["--scale", "quick", "--json"], None, &[], Err("--json")),
            (&["--flag"], None, &[], Err("'--flag'")),
            (&["--scenario", "read-skew"], None, &[], Err("'read-skew'")),
            (&["remus", "squall"], None, &[], Err("'squall'")),
        ];
        for (argv, env, scenarios, expected) in rows {
            let parsed = Args::parse(argv, env, scenarios).map(|a| {
                let json = a.json.as_ref().map(|p| p.to_str().unwrap().to_string());
                (a.scale.ycsb_keys, json, a.scenario, a.engine)
            });
            match (parsed, expected) {
                (Ok(got), Ok((keys, json, scenario, engine))) => {
                    let want = (
                        keys,
                        json.map(str::to_string),
                        scenario.map(str::to_string),
                        engine,
                    );
                    assert_eq!(got, want, "{argv:?} with REMUS_SCALE={env:?}");
                }
                (Err(e), Err(token)) => {
                    assert!(e.contains(token), "{argv:?}: {e:?} does not name {token}")
                }
                (got, want) => {
                    panic!("{argv:?} with REMUS_SCALE={env:?}: {got:?}, wanted {want:?}")
                }
            }
        }
    }

    /// The smallest end-to-end smoke: one Remus consolidation of a tiny
    /// hybrid-A scenario completes with zero migration aborts.
    #[test]
    fn hybrid_a_smoke_remus() {
        let scale = Scale {
            ycsb_shards: 12,
            ycsb_keys: 600,
            clients: 2,
            batch_size: 200,
            batches: 1,
            warmup: Duration::from_millis(100),
            cooldown: Duration::from_millis(100),
            batch_pause: Duration::ZERO,
            copy_per_tuple: Duration::ZERO,
            ..Scale::quick()
        };
        let (record, side) = run_figure(Figure::HybridA, EngineKind::Remus, &scale);
        assert_eq!(
            (record.name.as_str(), record.engine.as_str()),
            ("hybrid A", "remus")
        );
        assert_eq!(record.migration.engine, "remus");
        assert_eq!(record.migration_aborts, 0);
        assert!(record.commits > 0);
        let Side::Batch { report, .. } = side else {
            panic!("hybrid A carries its batch report, got {side:?}");
        };
        assert_eq!(report.aborted_attempts, 0);
    }
}
