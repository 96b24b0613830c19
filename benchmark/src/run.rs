//! One benchmark run: calibrate, set up, warm up, measure, check, reduce.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use remus::cluster::Session;
use remus::common::metrics::MetricSample;
use remus::common::{DbError, NodeId, Timestamp};

use crate::db::{order_key_district, value_tag, Db, Schema, TpccTable, NODES};
use crate::driver::{
    migrate_until_stopped, run_connection, ConnResult, MigrationSample, SliceCounts, Tracker,
    Window, SLICES,
};
use crate::heap::Counting;
use crate::ops::{Workload, CONNS, HOT_SET, TPCC_DISTRICTS, TPCC_WAREHOUSES};
use crate::probes;
use crate::report::{RunReport, Values};
use crate::stats::{median, percentile, spread_pct, SliceRecorder};
use crate::trace::{SpanKind, SpanSummary};

/// Unmeasured ramp before the window: caches fill, leases and shard-map
/// caches are primed, the allocator reaches steady state.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run: `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Spin calibration before each run.
const CALIBRATION: Duration = Duration::from_secs(1);
/// Calibration p99 above which the run is marked noisy.
const NOISY_US: f64 = 1_000.0;
/// The six phases of a Remus migration, as its span tree names them.
const PHASES: [(&str, &str); 6] = [
    ("snapshot_copy", "core.snapshot_copy_ms"),
    ("catchup", "core.catchup_ms"),
    ("sync_barrier", "core.sync_barrier_ms"),
    ("tm_2pc", "core.tm_2pc_ms"),
    ("dual_execution", "core.dual_execution_ms"),
    ("cleanup", "core.cleanup_ms"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where to write the recorded spans, if anywhere.
    pub spans: Option<PathBuf>,
}

/// p99 lateness, in microseconds, of a spin loop noticing 50 us deadlines
/// with no database in the way: what the hypervisor does to any timing.
fn timer_noise_p99_us(duration: Duration) -> f64 {
    const TICK: Duration = Duration::from_micros(50);
    let end = Instant::now() + duration;
    let mut late = Vec::with_capacity((duration.as_nanos() / TICK.as_nanos()) as usize);
    let mut due = Instant::now() + TICK;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if now >= due {
            late.push((now - due).as_nanos() as u64);
            due = now + TICK;
        }
    }
    late.sort_unstable();
    percentile(&late, 99.0) as f64 / 1_000.0
}

/// Resident set size in bytes (`VmRSS` of `/proc/self/status`).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Sum of a counter (or gauge) over every label set.
fn metric_sum(samples: &[MetricSample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn metric_max(samples: &[MetricSample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .max()
        .unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-slice reduction of the connections' samples.
struct Slices {
    tps: Vec<f64>,
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    attempts_per_commit: Vec<f64>,
    /// All samples of the selected slices, ascending.
    all: Vec<u64>,
}

/// Reduces the slices for which `select(index)` holds. `merged` holds the
/// connections' samples per slice, ascending.
fn reduce_slices(
    merged: &[Vec<u64>],
    conns: &[ConnResult],
    slice_secs: f64,
    select: impl Fn(usize) -> bool,
) -> Slices {
    let mut out = Slices {
        tps: Vec::new(),
        p50_us: Vec::new(),
        p95_us: Vec::new(),
        attempts_per_commit: Vec::new(),
        all: Vec::new(),
    };
    for (i, samples) in merged.iter().enumerate().filter(|(i, _)| select(*i)) {
        let commits: u64 = conns.iter().map(|c| c.counts[i].commits).sum();
        let attempts: u64 = conns.iter().map(|c| c.counts[i].attempts).sum();
        out.tps.push(commits as f64 / slice_secs);
        out.p50_us.push(percentile(samples, 50.0) as f64 / 1_000.0);
        out.p95_us.push(percentile(samples, 95.0) as f64 / 1_000.0);
        out.attempts_per_commit
            .push(ratio(attempts as f64, commits as f64));
        out.all.extend_from_slice(samples);
    }
    out.all.sort_unstable();
    out
}

/// Per-layer migration metrics, most of them from the engines' own span
/// trees. All zero on a workload that does not migrate.
fn migration_layers(samples: &[MigrationSample], out: &mut Values) {
    let n = samples.len() as f64;
    let secs = |m: &MigrationSample| m.report.total.as_secs_f64();
    let rates: Vec<f64> = samples
        .iter()
        .map(|m| ratio(m.report.tuples_copied as f64, secs(m)))
        .collect();
    let ms: Vec<f64> = samples.iter().map(|m| secs(m) * 1e3).collect();
    out.insert("core.mig_tuples_per_s", median(&rates));
    out.insert("core.mig_p50_ms", median(&ms));
    let traces = || samples.iter().flat_map(|m| m.report.traces.iter());
    let mut phase_total = 0.0;
    for (phase, metric) in PHASES {
        let ms: Vec<f64> = traces()
            .filter_map(|t| t.span(phase))
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect();
        phase_total += ms.iter().sum::<f64>();
        out.insert(metric, median(&ms));
    }
    let total_ms: f64 = ms.iter().sum();
    let spans_named = |name: &'static str| {
        traces()
            .flat_map(|t| t.spans.iter())
            .filter(move |s| s.name == name)
    };
    let tuples: u64 = samples.iter().map(|m| m.report.tuples_copied).sum();
    let replayed: u64 = samples.iter().map(|m| m.report.records_replayed).sum();
    let jobs: u64 = spans_named("replay_worker")
        .filter_map(|s| s.attr("jobs"))
        .sum();
    out.insert("core.tuples_copied_per_mig", ratio(tuples as f64, n));
    out.insert("core.records_replayed_per_mig", ratio(replayed as f64, n));
    out.insert(
        "core.copy_chunks_per_mig",
        ratio(spans_named("copy_chunk").count() as f64, n),
    );
    out.insert("core.replay_jobs_per_mig", ratio(jobs as f64, n));
    out.insert(
        "core.phase_sum_over_mig_pct",
        100.0 * ratio(phase_total, total_ms),
    );
    out.insert("core.migrations", n);
}

/// Reads the database back and compares it with what the connections
/// committed. Returns `(name, passed, detail)` per check.
fn check_state(db: &Db, conns: &[ConnResult]) -> Vec<(&'static str, bool, String)> {
    let mut checks = Vec::new();
    let cluster = &db.cluster;
    // A fresh session on a node no connection used, holding the causal
    // token of every commit (GTS leases and DTS allow stale snapshots
    // across nodes otherwise).
    let token = conns
        .iter()
        .map(|c| c.last_cts)
        .max()
        .unwrap_or(Timestamp::INVALID);
    let verifier = Session::connect(cluster, NodeId(NODES - 1));
    let mut txn = verifier.begin_after(token);
    let ts = txn.start_ts();

    // Every shard has exactly one owner, every map replica agrees, and
    // only the owner hosts it.
    let mut bad_owner = Vec::new();
    let mut visible = HashMap::new();
    for layout in cluster.tables() {
        for shard in layout.shard_ids() {
            let owners: Vec<NodeId> = cluster
                .nodes()
                .iter()
                .map(|n| cluster.current_owner(n, shard).map(|r| r.node))
                .collect::<Result<_, _>>()
                .unwrap_or_default();
            let hosts: Vec<NodeId> = cluster
                .nodes()
                .iter()
                .filter(|n| n.storage.hosts(shard))
                .map(|n| n.id())
                .collect();
            if owners.len() != NODES as usize
                || hosts.len() != 1
                || owners.iter().any(|o| *o != hosts[0])
            {
                bad_owner.push(format!("{shard}: owners {owners:?} hosts {hosts:?}"));
                continue;
            }
            let storage = &cluster.node(hosts[0]).storage;
            let count = storage
                .table(shard)
                .expect("hosted shard has a table")
                .count_visible(ts, &storage.clog, Duration::from_secs(10))
                .unwrap_or(usize::MAX);
            *visible.entry(layout.table).or_insert(0u64) += count as u64;
        }
    }
    checks.push((
        "one_owner_per_shard",
        bad_owner.is_empty(),
        bad_owner.join("; "),
    ));

    let table_count =
        |layout: &remus::shard::TableLayout| visible.get(&layout.table).copied().unwrap_or(0);
    match &db.schema {
        Schema::Ycsb(layout) => {
            let n = table_count(layout);
            checks.push((
                "count_visible",
                n == db.tuples,
                format!("{n} visible, {} loaded", db.tuples),
            ));
            // No lost update: each tracked key holds the update with the
            // highest commit timestamp any connection committed to it.
            let mut expect: HashMap<u64, (Timestamp, u64)> = HashMap::new();
            for c in conns {
                if let Tracker::Ycsb(map) = &c.tracker {
                    for (key, (cts, tag)) in map {
                        let slot = expect.entry(*key).or_insert((*cts, *tag));
                        if *cts > slot.0 {
                            *slot = (*cts, *tag);
                        }
                    }
                }
            }
            let lost = expect
                .iter()
                .filter(|(key, (_, tag))| {
                    !matches!(txn.read(layout, **key), Ok(Some(v)) if value_tag(&v) == *tag)
                })
                .count();
            checks.push((
                "no_lost_update",
                lost == 0,
                format!("{lost} of {} tracked keys", expect.len()),
            ));
        }
        Schema::Tpcc(layouts) => {
            let loaded: u64 = [
                TpccTable::Warehouse,
                TpccTable::District,
                TpccTable::Customer,
                TpccTable::Stock,
            ]
            .iter()
            .map(|t| table_count(&layouts[*t as usize]))
            .sum();
            checks.push((
                "count_visible",
                loaded == db.tuples,
                format!("{loaded} visible, {} loaded", db.tuples),
            ));
            let mut orders = vec![0u64; (TPCC_WAREHOUSES * TPCC_DISTRICTS) as usize];
            let mut lines = 0;
            for c in conns {
                if let Tracker::Tpcc {
                    orders: o,
                    lines: l,
                } = &c.tracker
                {
                    orders.iter_mut().zip(o).for_each(|(a, b)| *a += b);
                    lines += l;
                }
            }
            let mut found = vec![0u64; orders.len()];
            let rows = txn
                .scan_table(&layouts[TpccTable::Orders as usize])
                .unwrap_or_default();
            for (key, _) in &rows {
                found[order_key_district(*key)] += 1;
            }
            let wrong = found.iter().zip(&orders).filter(|(a, b)| a != b).count();
            checks.push((
                "orders_per_district",
                wrong == 0 && !rows.is_empty(),
                format!("{wrong} districts differ, {} orders", rows.len()),
            ));
            let total: u64 = orders.iter().sum();
            let (ol, no) = (
                table_count(&layouts[TpccTable::OrderLine as usize]),
                table_count(&layouts[TpccTable::NewOrder as usize]),
            );
            checks.push((
                "order_lines_and_new_orders",
                ol == lines && no == total,
                format!("{ol}/{lines} order lines, {no}/{total} new-order rows"),
            ));
        }
        Schema::Hot(layout) => {
            let n = table_count(layout);
            checks.push((
                "count_visible",
                n == db.tuples,
                format!("{n} visible, {} loaded", db.tuples),
            ));
            // Serializable increments: each counter equals the increments
            // committed to it.
            let mut wrong = 0;
            let mut total = 0;
            for key in 0..HOT_SET {
                let expect: u64 = conns
                    .iter()
                    .map(|c| match &c.tracker {
                        Tracker::Hot(incs) => incs[key as usize],
                        _ => 0,
                    })
                    .sum();
                total += expect;
                if !matches!(txn.read(layout, key), Ok(Some(v)) if value_tag(&v) == expect) {
                    wrong += 1;
                }
            }
            checks.push((
                "counters_match_increments",
                wrong == 0,
                format!("{wrong} of {HOT_SET} counters, {total} increments"),
            ));
        }
    }
    txn.abort();
    checks
}

fn write_spans(path: &Path, conns: &[ConnResult]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "conn op span start_ns dur_ns")?;
    for (conn, c) in conns.iter().enumerate() {
        for s in c.spans.spans() {
            writeln!(
                out,
                "{conn} {} {} {} {}",
                s.op,
                s.kind.name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
    }
    out.flush()
}

/// Builds and loads the cluster, several times over for a steady
/// `setup_s`: at least `MIN_SETUPS`, then more while they fit in
/// `SETUP_BUDGET` (the 32 KB `hot_ssi` table loads in half a millisecond);
/// a traced run, which does not report set-up, does it once. Returns the
/// last cluster, every set-up's seconds, and `space_amp` from the heap
/// bytes the first set-up left live.
fn set_up(workload: Workload, once: bool) -> (Db, Vec<f64>, f64) {
    let mut secs = Vec::new();
    let mut space_amp = 0.0;
    let mut built: Option<Db> = None;
    let started = Instant::now();
    while secs.is_empty()
        || (!once
            && (secs.len() < MIN_SETUPS
                || (secs.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)))
    {
        drop(built.take());
        let counting = secs.is_empty().then(Counting::start);
        let t = Instant::now();
        let db = Db::build(workload);
        secs.push(t.elapsed().as_secs_f64());
        if let Some(counting) = counting {
            space_amp = ratio(counting.live_bytes() as f64, db.user_bytes as f64);
        }
        built = Some(db);
    }
    (built.expect("at least one set-up"), secs, space_amp)
}

/// What the load phase of a run produced.
struct Driven {
    conns: Vec<ConnResult>,
    /// The migrations completed inside the window (none on a workload that
    /// does not migrate), or why they stopped.
    migrations: Result<Vec<MigrationSample>, DbError>,
    /// Registry snapshots at the window's start and end.
    before: Vec<MetricSample>,
    after: Vec<MetricSample>,
}

/// Warm-up and the measured window, with the migration thread beside the
/// connections on a migrating workload.
fn drive(db: &Db, cfg: &RunConfig, window: Window) -> Driven {
    let workload = cfg.workload;
    let shards = db.migrating_shards();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| s.spawn(move || run_connection(db, workload, cfg.seed, conn, window)))
            .collect();
        let migrator = workload.migrates_in_window().then(|| {
            s.spawn(|| migrate_until_stopped(&db.cluster, &shards, (NodeId(0), NodeId(1)), &stop))
        });
        sleep_until(window.start);
        let before = db.cluster.metrics_snapshot();
        sleep_until(window.end());
        let after = db.cluster.metrics_snapshot();
        stop.store(true, Ordering::Relaxed);
        // Warm-up migrations and the one the end cut short do not count.
        let migrations = migrator.map_or(Ok(Vec::new()), |handle| {
            let all = handle.join().expect("migration thread panicked")?;
            Ok(all
                .into_iter()
                .filter(|m| window.slice_of(m.end).is_some())
                .collect())
        });
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        Driven {
            conns,
            migrations,
            before,
            after,
        }
    })
}

/// Counter deltas over the window and the gauges at its end, per commit.
fn registry_layers(
    before: &[MetricSample],
    after: &[MetricSample],
    commits: u64,
    out: &mut Values,
) {
    let delta =
        |name: &str| metric_sum(after, name).saturating_sub(metric_sum(before, name)) as f64;
    let per_commit = |name: &str| ratio(delta(name), commits as f64);
    out.insert("txn.2pc_hops_per_commit", per_commit("txn.2pc_hops"));
    out.insert(
        "txn.ww_aborts_per_kcommit",
        1e3 * per_commit("txn.ww_aborts"),
    );
    out.insert(
        "txn.ssi_aborts_per_kcommit",
        1e3 * per_commit("txn.ssi_aborts"),
    );
    out.insert("txn.rw_edges_per_commit", per_commit("txn.rw_edges"));
    out.insert(
        "txn.siread_entries",
        metric_sum(after, "txn.siread_entries") as f64,
    );
    out.insert("wal.appends_per_commit", per_commit("wal.appends"));
    out.insert("wal.queue_spills", delta("wal.queue_spills"));
    out.insert("clock.gts_rpcs_per_commit", per_commit("clock.gts_rpcs"));
    out.insert(
        "storage.prepare_wait_blocks_per_kcommit",
        1e3 * per_commit("storage.prepare_wait_blocks"),
    );
    out.insert(
        "storage.gc_pruned_per_commit",
        per_commit("storage.gc_pruned"),
    );
    out.insert(
        "storage.chain_len",
        metric_max(after, "storage.chain_len") as f64,
    );
}

/// Runs the benchmark once. `scratch` is a directory inside the checkout.
pub fn run(cfg: &RunConfig, scratch: &Path) -> RunReport {
    let workload = cfg.workload;
    let t_run = Instant::now();
    let phase = |name: &str| eprintln!("[{:7.2}s] {name}", t_run.elapsed().as_secs_f64());
    let noise_us = timer_noise_p99_us(CALIBRATION);
    phase("calibrated");
    let (db, setup_secs, space_amp) = set_up(workload, cfg.trace);
    phase("set up");

    let maintenance = db.start_maintenance();
    let window = Window {
        start: Instant::now() + WARMUP,
        slice: Duration::from_secs(cfg.seconds) / SLICES as u32,
        trace: cfg.trace,
    };
    let Driven {
        conns,
        migrations,
        before,
        after,
    } = drive(&db, cfg, window);
    db.cluster.stop_maintenance();
    maintenance.join().expect("maintenance thread panicked");
    phase("load stopped");

    // Checks.
    let (migrations, migration_error) = match migrations {
        Ok(m) => (m, None),
        Err(e) => (Vec::new(), Some(e.to_string())),
    };
    let mut checks = check_state(&db, &conns);
    if workload.migrates_in_window() {
        checks.push((
            "migrations_succeed",
            migration_error.is_none() && !migrations.is_empty(),
            migration_error.unwrap_or_else(|| format!("{} migrations", migrations.len())),
        ));
    }
    let sum = |f: fn(&SliceCounts) -> u64| -> u64 {
        conns.iter().flat_map(|c| c.counts.iter()).map(f).sum()
    };
    let (commits, attempts, failed) = (sum(|s| s.commits), sum(|s| s.attempts), sum(|s| s.failed));
    let migration_aborts: u64 = conns.iter().map(|c| c.migration_aborts).sum();
    let first_failure = conns.iter().find_map(|c| c.first_failure.clone());
    checks.push((
        "ops_failed_is_zero",
        failed == 0,
        first_failure.unwrap_or_default(),
    ));
    // The paper's claim.
    checks.push((
        "zero_migration_induced_aborts",
        migration_aborts == 0,
        format!("{migration_aborts} aborts"),
    ));
    phase("state checked");

    // Reduction. In a traced run only the even slices ran untraced.
    let slice_secs = window.slice.as_secs_f64();
    let recorders: Vec<&SliceRecorder> = conns.iter().map(|c| &c.latency).collect();
    let merged = SliceRecorder::merge_sorted(&recorders);
    let untraced = reduce_slices(&merged, &conns, slice_secs, |i| !cfg.trace || i % 2 == 0);
    let sorted_us = |pick: fn(&ConnResult) -> &Vec<u64>, p: f64| {
        let mut all: Vec<u64> = conns.iter().flat_map(|c| pick(c).iter().copied()).collect();
        all.sort_unstable();
        percentile(&all, p) as f64 / 1e3
    };
    let mut diagnostics = Values::new();
    diagnostics.insert("bench.p99_us", percentile(&untraced.all, 99.0) as f64 / 1e3);
    diagnostics.insert(
        "bench.p999_us",
        percentile(&untraced.all, 99.9) as f64 / 1e3,
    );
    diagnostics.insert(
        "bench.max_us",
        untraced.all.last().copied().unwrap_or(0) as f64 / 1e3,
    );
    diagnostics.insert("bench.co_p99_us", sorted_us(|c| &c.co_latency, 99.0));
    diagnostics.insert("bench.gen_late_p99_us", sorted_us(|c| &c.gen_late, 99.0));
    diagnostics.insert("bench.timer_noise_p99_us", noise_us);
    diagnostics.insert("bench.rss_end_mb", rss_bytes() as f64 / (1u64 << 20) as f64);
    diagnostics.insert("bench.slice_tps_spread_pct", spread_pct(&untraced.tps));

    let mut metrics = Values::new();
    if !cfg.trace {
        metrics.insert("setup_s", median(&setup_secs));
        metrics.insert("space_amp", space_amp);
        metrics.insert("tps", median(&untraced.tps));
        metrics.insert("p50_us", median(&untraced.p50_us));
        metrics.insert("p95_us", median(&untraced.p95_us));
        metrics.insert("attempts_per_commit", median(&untraced.attempts_per_commit));
    } else {
        let traced = reduce_slices(&merged, &conns, slice_secs, |i| i % 2 == 1);
        let spans = SpanSummary::of(conns.iter().flat_map(|c| c.spans.spans().iter()));
        for (kind, metric) in [
            (SpanKind::Begin, "cluster.begin_ns"),
            (SpanKind::Read, "cluster.read_ns"),
            (SpanKind::Update, "cluster.update_ns"),
            (SpanKind::Insert, "cluster.insert_ns"),
            (SpanKind::Commit, "cluster.commit_ns"),
            (SpanKind::Abort, "cluster.abort_ns"),
        ] {
            metrics.insert(metric, spans.median_ns[kind as usize]);
        }
        let gen: (u64, u64) = conns
            .iter()
            .fold((0, 0), |a, c| (a.0 + c.gen_ns.0, a.1 + c.gen_ns.1));
        let (p50_off, p50_on) = (median(&untraced.p50_us), median(&traced.p50_us));
        metrics.insert("cluster.stmts_per_txn", spans.stmts_per_op());
        // Every attempt beyond an operation's first is a retry; every attempt
        // that did not commit aborted.
        metrics.insert(
            "cluster.retries_per_kcommit",
            1e3 * ratio((attempts - commits - failed) as f64, commits as f64),
        );
        metrics.insert(
            "txn.abort_pct",
            100.0 * ratio((attempts - commits) as f64, attempts as f64),
        );
        metrics.insert("workload.gen_ns_per_txn", ratio(gen.0 as f64, gen.1 as f64));
        metrics.insert("bench.span_coverage_pct", spans.coverage_pct());
        metrics.insert(
            "bench.trace_overhead_pct",
            100.0 * ratio(p50_on - p50_off, p50_off),
        );
        migration_layers(&migrations, &mut metrics);
        metrics.insert("core.mig_aborts", migration_aborts as f64);
        registry_layers(&before, &after, commits, &mut metrics);
        let vacuum_ms: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                db.cluster.vacuum_tick();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        metrics.insert("cluster.vacuum_tick_ms", median(&vacuum_ms));
        phase("reduced");
        metrics.extend(probes::run_all(cfg.seed, scratch));
        phase("layers probed");
        metrics.append(&mut diagnostics);
    }
    if let Some(path) = &cfg.spans {
        let written = write_spans(path, &conns);
        checks.push((
            "spans_written",
            written.is_ok(),
            format!("{}: {written:?}", path.display()),
        ));
    }

    // The process is about to exit: freeing two million version chains one
    // by one would only add seconds to every run.
    std::mem::forget(db);
    RunReport {
        workload: workload.name(),
        seed: cfg.seed,
        trace: cfg.trace,
        attempted: commits + failed,
        failed,
        checks,
        noisy: noise_us > NOISY_US,
        samples: untraced.all.len() as u64,
        metrics,
        diagnostics,
    }
}
