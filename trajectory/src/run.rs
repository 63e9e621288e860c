//! One run of one workload — untraced (`timed`) or traced (`traced`) — and
//! the three ways of invoking runs: single, `--repeat`, `--check`.

use crate::check::check_statements;
use crate::data::{Cell, RawTable};
use crate::driver::{run_round, sync_wal, LoadState, RoundOut};
use crate::host::{peak_rss_mb, reset_peak_rss, Host, SumProbe};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{engine_probes, storage_probes};
use crate::report;
use crate::stats::{
    costs, median, over_rounds, percentile, sorted, spread_of_runs, Costs, RoundMetric,
};
use crate::system::{service_config, setup, System};
use crate::trace::{Counts, Recorder, Replay, REQUESTS_PER_CLASS};
use crate::workloads::{ingest_batch, ingest_update, Kind, Plan, Sizes};
use crate::Args;
use percentage_aggregations::service::QueryService;
use percentage_aggregations::storage::{
    wal::DEFAULT_CAPACITY, Catalog, CheckpointPolicy, MemCheckpointStore, MemLogStore, SNAP_PREFIX,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a run is cut into phases.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Set-ups behind the run's first reading of the set-up time, and
    /// behind each later one (before every round): at least, at most,
    /// and the seconds after which no further one is started.
    pub setup_first: (usize, usize, f64),
    pub setup_again: Option<(usize, usize, f64)>,
    pub warm: Duration,
    pub rounds: usize,
    pub round_len: Duration,
    /// Samples every key (statement, cold or warm) needs over the run for
    /// the cost metrics to count as resolved.
    pub min_per_key: usize,
    pub requests_per_class: usize,
    /// Traced run only: length of the loaded, untraced phase.
    pub loaded: Duration,
}

impl Shape {
    pub fn of(args: &Args) -> Shape {
        if args.check {
            return Shape {
                setup_first: (1, 1, 0.0),
                setup_again: None,
                warm: Duration::from_millis(200),
                rounds: 1,
                round_len: Duration::from_secs(1),
                min_per_key: 0,
                requests_per_class: 3,
                loaded: Duration::from_secs(1),
            };
        }
        let s = args.seconds;
        Shape {
            setup_first: (3, 21, 1.0),
            setup_again: Some((1, 3, 0.15)),
            warm: Duration::from_secs_f64((s * 0.1).max(0.5)),
            rounds: 5,
            round_len: Duration::from_secs_f64(s / 5.0),
            min_per_key: 20,
            requests_per_class: REQUESTS_PER_CLASS,
            loaded: Duration::from_secs_f64((s * 0.4).max(1.0)),
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub kind: Kind,
    pub seed: u64,
    /// Seconds measured: the timed rounds, or the traced run's loaded phase.
    pub seconds: f64,
    pub traced: bool,
    pub clients: usize,
    pub pa_threads: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Untraced run: end-to-end metrics in catalogue order.
    pub end_to_end: Vec<(&'static str, &'static str, RoundMetric)>,
    /// Untraced run: the wall-clock figures behind them, not bounded.
    pub wall: Vec<(&'static str, &'static str, RoundMetric)>,
    /// Traced run: per-layer metrics by name.
    pub per_layer: BTreeMap<String, f64>,
    pub notes: Vec<String>,
    pub trace_json: Option<String>,
}

/// Where run artifacts go: `trajectory/results` from the repository root,
/// `results` from inside the package.
pub fn results_dir() -> PathBuf {
    if Path::new("trajectory").join("Cargo.toml").is_file() {
        PathBuf::from("trajectory/results")
    } else {
        PathBuf::from("results")
    }
}

fn sizes(args: &Args) -> Sizes {
    if args.check {
        Sizes::check()
    } else {
        Sizes::full()
    }
}

/// One reading of the set-up time: set up at least `min` times, then on
/// until `budget` seconds are spent or `max` set-ups made; keep the last.
/// Each earlier system is dropped before the next is built, so peak memory
/// is one system's more than the caller holds.
fn timed_setup(
    kind: Kind,
    args: &Args,
    host: &Host,
    load_seconds: f64,
    (min, max, budget): (usize, usize, f64),
) -> Result<(Plan, System, Vec<f64>), String> {
    let scratch = results_dir().join("tmp");
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < budget) {
        drop(built.take());
        let t0 = Instant::now();
        let b = setup(
            kind,
            args.seed,
            &sizes(args),
            host.nproc,
            load_seconds,
            &scratch,
        )?;
        times.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (plan, system) = built.expect("at least one set-up");
    Ok((plan, system, times))
}

struct Epilogue {
    attempted: u64,
    failures: Vec<String>,
    recovery_s: f64,
    notes: Vec<String>,
}

/// The rows `ingest` must hold: the generated table plus every
/// acknowledged batch and update, in acknowledgement order.
fn shadow_table(plan: &Plan, state: &LoadState) -> RawTable {
    let mut shadow = plan.table("g").clone();
    let amt = shadow.col_index("amt");
    for ack in &state.acks {
        if ack.appended {
            for row in ingest_batch(state.seed, ack.seq, plan.batch_rows) {
                shadow.push_row(&row);
            }
        }
        if ack.updated {
            let (row, value) = ingest_update(state.seed, ack.seq, shadow.rows());
            shadow.set_cell(row, amt, &Cell::Float(value));
        }
    }
    shadow
}

/// Rows of `g` in `catalog` that differ from `shadow` (a missing row
/// counts as different).
fn differing_rows(catalog: &Catalog, shadow: &RawTable) -> usize {
    let Ok(shared) = catalog.table("g") else {
        return shadow.rows();
    };
    let t = shared.read();
    if t.num_columns() != shadow.cols.len() {
        return shadow.rows().max(1);
    }
    let common = t.num_rows().min(shadow.rows());
    let missing = t.num_rows().max(shadow.rows()) - common;
    let differing = (0..common)
        .filter(|&r| {
            (0..shadow.cols.len())
                .any(|c| Cell::from_value(&t.get(r, c)) != shadow.cols[c].1.cell(r))
        })
        .count();
    missing + differing
}

/// After the last round of `ingest`: check the statements on the final
/// table, crash, recover from the flushed bytes only, and check again.
fn ingest_epilogue(
    plan: &Plan,
    system: &System,
    svc: &QueryService<'_>,
    state: &LoadState,
    nproc: usize,
) -> Epilogue {
    let mut ep = Epilogue {
        attempted: 0,
        failures: Vec::new(),
        recovery_s: 0.0,
        notes: Vec::new(),
    };
    let shadow = shadow_table(plan, state);
    let acked = state.acks.iter().filter(|a| a.appended).count();
    let lookup = |_: &str| &shadow;

    ep.attempted += 1;
    let bad = differing_rows(&system.catalog, &shadow);
    if bad > 0 {
        ep.failures.push(format!(
            "[final table] {bad} rows differ from the acknowledged writes"
        ));
    }
    let c = check_statements(svc, &plan.stmts, &lookup, nproc, "final table");
    ep.attempted += c.attempted;
    ep.failures.extend(c.failures);

    // Crash: nothing survives but what the stores made durable. A write
    // was in flight, too — half a frame reached the log.
    let durable = system.durable.as_ref().expect("ingest is file-backed");
    let (mut log, lost) = durable.flushed.durable();
    let log_len = log.len();
    log.extend_from_slice(&1000u32.to_le_bytes());
    log.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    log.extend_from_slice(&[0x5a; 20]);
    let image = durable
        .checkpoints
        .lock()
        .expect("checkpoint-log lock")
        .image
        .clone();
    let recover = || {
        Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::from_bytes(log.clone())),
            Box::new(MemCheckpointStore::from_bytes(image.clone())),
            DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
    };
    let mut times = Vec::new();
    let mut recovered = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        match recover() {
            Ok(r) => {
                times.push(t0.elapsed().as_secs_f64());
                recovered = Some(r);
            }
            Err(e) => {
                ep.failures.push(format!("[recovery] failed: {e}"));
                return ep;
            }
        }
    }
    ep.recovery_s = median(&times).expect("three recoveries");
    let (catalog, report) = recovered.expect("recovered");
    ep.notes.push(format!(
        "recovery_s {:.4} (median of three): image {} B at LSN {}, durable log {} B ({} B appended after the last sync lost; \
         +28 B torn tail, {} B discarded), {} records replayed, {} skipped; {} acknowledged batches",
        ep.recovery_s,
        image.len(),
        report.checkpoint_lsn,
        log_len,
        lost,
        report.bytes_skipped,
        report.records_replayed,
        report.records_skipped,
        acked,
    ));
    ep.attempted += acked as u64 + 1;
    if let Some(e) = &report.checkpoint_error {
        ep.failures
            .push(format!("[recovery] checkpoint not used: {e}"));
    }
    let bad = differing_rows(&catalog, &shadow);
    if bad > 0 {
        // Count whole batches: an acknowledged write is there or it is not.
        let lost = bad.div_ceil(plan.batch_rows.max(1)).min(acked.max(1));
        for _ in 0..lost {
            ep.failures.push(format!(
                "[recovery] acknowledged write missing ({bad} rows differ in all)"
            ));
        }
    }
    let svc2 = QueryService::new(&catalog, service_config(nproc));
    let c = check_statements(&svc2, &plan.stmts, &lookup, nproc, "after recovery");
    ep.attempted += c.attempted;
    ep.failures.extend(c.failures);
    ep
}

/// First touch of every statement, in builder order, single client.
/// Returns (attempted, failed).
fn prime(svc: &QueryService<'_>, plan: &Plan) -> (u64, u64) {
    let failed = plan
        .stmts
        .iter()
        .filter(|s| svc.execute_sql(&s.sql()).is_err())
        .count();
    (plan.stmts.len() as u64, failed as u64)
}

fn checkpoint_saves(system: &System) -> u64 {
    system.durable.as_ref().map_or(0, |d| {
        d.checkpoints.lock().expect("checkpoint-log lock").saves
    })
}

/// A round's completed queries as (key, cost): latency over the calibration
/// reading beside it, keyed by statement and, on `ingest`, cache state.
fn cost_of(r: &RoundOut) -> Vec<(usize, f64)> {
    r.samples
        .iter()
        .map(|s| (s.stmt * 2 + usize::from(s.cold), s.ms / s.cal_ms))
        .collect()
}

pub fn timed(kind: Kind, args: &Args, host: &Host) -> Result<RunResult, String> {
    let shape = Shape::of(args);
    let load_seconds = shape.round_len.as_secs_f64() * shape.rounds as f64;
    // The first set-up of a process runs on a heap it has to fault in and
    // reads up to twice the rest, so the first reading repeats until a
    // second is spent and takes the median.
    let (plan, system, first) = timed_setup(kind, args, host, load_seconds, shape.setup_first)?;
    let mut setup_readings = vec![median(&first).expect("set up at least once")];
    // Set while this is the only thread; the engine reads it per query.
    std::env::set_var("PA_THREADS", plan.pa_threads.to_string());
    let svc = QueryService::new(&system.catalog, service_config(host.nproc));
    let mut state = LoadState::new(&plan, args.seed);
    let saves = || checkpoint_saves(&system);
    let probe = SumProbe::new(1_000_000);

    let primed = prime(&svc, &plan);
    let warm = run_round(&svc, &plan, &mut state, shape.warm);
    let mut attempted = primed.0 + warm.attempted;
    let mut failed = primed.1 + warm.errors + warm.shed + warm.write_errors;
    let mut failures: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    if kind != Kind::Ingest {
        // The table never changes, so every distinct statement is checked
        // once, here; `ingest` is checked after its last write instead.
        let c = check_statements(
            &svc,
            &plan.stmts,
            &|n| plan.table(n),
            host.nproc,
            "after warm-up",
        );
        attempted += c.attempted;
        failures.extend(c.failures);
    }

    let saves_before = saves();
    let mut rounds: Vec<RoundOut> = Vec::new();
    let mut sum_ns: Vec<f64> = Vec::new();
    let mut peak_rss: Vec<f64> = Vec::new();
    let mut rss_is_per_round = true;
    for _ in 0..shape.rounds {
        // Set-up allocates and copies, which the host's slow spells hit
        // hardest (+75% on `holistic`), and the spells outlast any number
        // of repeats made in one place. So it is read again before every
        // round, into a system dropped at once: six readings over the run.
        if let Some(repeats) = shape.setup_again {
            let again = timed_setup(kind, args, host, load_seconds, repeats)?.2;
            setup_readings.push(median(&again).expect("set up at least once"));
        }
        // The baseline is re-measured right before each round, so the
        // ratio compares the query with a sum on the same host, same minute.
        sum_ns.push(probe.ns_per_row(15));
        // Each round's own peak: a maximum over the whole run would be set
        // by its one worst moment, the median of the rounds' peaks is not.
        rss_is_per_round &= reset_peak_rss();
        rounds.push(run_round(&svc, &plan, &mut state, shape.round_len));
        peak_rss.push(peak_rss_mb());
    }
    if !rss_is_per_round {
        notes.push("peak_rss_mb covers the whole process: /proc/self/clear_refs refused".into());
    }
    for r in &rounds {
        attempted += r.attempted;
        failed += r.errors + r.shed + r.write_errors;
    }
    let checkpoints = saves() - saves_before;

    let epilogue =
        (kind == Kind::Ingest).then(|| ingest_epilogue(&plan, &system, &svc, &state, host.nproc));
    if let Some(ep) = &epilogue {
        attempted += ep.attempted;
        notes.extend(ep.notes.iter().cloned());
        notes.push(format!(
            "{checkpoints} checkpoints completed during the timed rounds"
        ));
        let lag = rounds.iter().map(|r| r.writer_lag_ms).fold(0.0, f64::max);
        notes.push(format!("writer ran at most {lag:.3} ms late"));
        failures.extend(ep.failures.iter().cloned());
    }
    failed += failures.len() as u64;

    // Cost: every completed query of the run as a multiple of the
    // calibration reading taken beside it, pooled over the rounds.
    let pooled: Vec<(usize, f64)> = rounds.iter().flat_map(cost_of).collect();
    let run_costs = costs(&pooled).ok_or("no query completed")?;
    let round_costs: Vec<Costs> = rounds.iter().filter_map(|r| costs(&cost_of(r))).collect();
    let cost_metric = |f: &dyn Fn(&Costs) -> f64| RoundMetric {
        value: f(&run_costs),
        rounds: round_costs.iter().map(f).collect(),
        resolved: run_costs.thinnest >= shape.min_per_key,
    };
    let mut values: BTreeMap<&'static str, RoundMetric> = BTreeMap::new();
    values.insert("query_cost_p25", cost_metric(&|c| c.p25));

    // Wall clock, per round, median of rounds: what a user of this host saw
    // in this minute. Printed and filed, not bounded.
    let per_round = |f: &dyn Fn(&RoundOut, f64) -> Option<f64>| -> Result<RoundMetric, String> {
        let values: Option<Vec<f64>> = rounds.iter().zip(&sum_ns).map(|(r, s)| f(r, *s)).collect();
        values
            .and_then(over_rounds)
            .ok_or_else(|| "a round completed no query".to_string())
    };
    let mut wall: Vec<(&'static str, &'static str, RoundMetric)> = vec![
        ("query_cost_p50", "x", cost_metric(&|c| c.p50)),
        ("query_cost_p90", "x", cost_metric(&|c| c.p90)),
        ("query_cost_mean", "x", cost_metric(&|c| c.mean)),
        (
            "wall.query_p50_ms",
            "ms",
            per_round(&|r, _| percentile(&r.query_ms, 0.5))?,
        ),
        (
            "wall.query_p95_ms",
            "ms",
            per_round(&|r, _| percentile(&r.query_ms, 0.95))?,
        ),
        (
            "wall.queries_per_s",
            "1/s",
            per_round(&|r, _| Some(r.query_ms.len() as f64 / r.elapsed_s))?,
        ),
        (
            "wall.sum_ratio",
            "ratio",
            per_round(&|r, s| {
                let total_ns: f64 = r.query_ms.iter().sum::<f64>() * 1e6;
                (r.rows_queried > 0.0).then(|| total_ns / (r.rows_queried * s))
            })?,
        ),
    ];
    values.insert(
        "peak_rss_mb",
        RoundMetric {
            value: median(&peak_rss).expect("at least one round"),
            rounds: peak_rss,
            resolved: true,
        },
    );
    // The lower quartile of the readings: the run's quiet moments, unless
    // it had fewer than two.
    let setup_s = percentile(&sorted(setup_readings.clone()), 0.25).expect("one reading");
    values.insert(
        "setup_s",
        RoundMetric {
            rounds: setup_readings,
            value: setup_s,
            resolved: true,
        },
    );
    if epilogue.is_some() {
        let p50: Option<Vec<f64>> = rounds
            .iter()
            .map(|r| percentile(&r.write_ms, 0.5))
            .collect();
        let write_p50 = p50
            .and_then(over_rounds)
            .ok_or_else(|| "a round completed no write".to_string())?;
        wall.push(("ingest.write_p50_ms", "ms", write_p50));
    }
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|e| values.remove(e.name).map(|m| (e.name, e.unit, m)))
        .collect();
    notes.push(format!(
        "host.sum_ns_per_row per round: {}",
        sum_ns
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(RunResult {
        kind,
        seed: args.seed,
        seconds: load_seconds,
        traced: false,
        clients: plan.clients,
        pa_threads: plan.pa_threads,
        attempted,
        failed,
        failures,
        end_to_end,
        wall,
        per_layer: BTreeMap::new(),
        notes,
        trace_json: None,
    })
}

fn snapshot_seq(catalog: &Catalog, table: &str) -> u64 {
    // Aliases read `__snap<seq>_v<version>_<table>`; <seq> counts freezes.
    catalog
        .pin_table(table)
        .and_then(|v| {
            v.alias()
                .strip_prefix(SNAP_PREFIX)?
                .split('_')
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Per-layer numbers that come straight from the replay's spans.
fn span_metrics(rec: &Recorder, plan: &Plan, out: &mut BTreeMap<String, f64>) {
    let own = rec.self_ns();
    let measured = |name: &str| {
        median_of(
            rec.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.measured_ns as f64),
        )
    };
    // Self times are means, not medians: a layer whose own work shows in
    // one class only (WHERE materialization, say) would read 0 at the median.
    let self_of = |name: &str| {
        let v: Vec<f64> = rec
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| *o as f64)
            .collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    out.insert("sql.parse_us".into(), measured("sql.parse") / 1e3);
    out.insert("sql.validate_us".into(), measured("sql.validate") / 1e3);
    out.insert("core.plan_us".into(), measured("core.plan") / 1e3);
    out.insert("storage.pin_us".into(), measured("storage.pin") / 1e3);
    out.insert("engine.kernel_ms".into(), measured("engine.kernel") / 1e6);
    out.insert("core.sql_self_ms".into(), self_of("core.execute_sql") / 1e6);
    out.insert("core.exec_self_ms".into(), self_of("core.typed") / 1e6);
    out.insert(
        "service.self_us".into(),
        self_of("service.execute_sql") / 1e3,
    );
    let horizontal: Vec<&str> = plan
        .stmts
        .iter()
        .filter(|s| !s.is_vertical())
        .map(|s| s.class.as_str())
        .collect();
    out.insert(
        "core.pivot_ms".into(),
        median_of(
            rec.spans
                .iter()
                .filter(|s| {
                    s.name == "engine.kernel"
                        && horizontal.contains(&rec.classes[s.request as usize].as_str())
                })
                .map(|s| s.measured_ns as f64),
        ) / 1e6,
    );
    let roots: f64 = rec
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();
    // From 0.0: an empty f64 sum is -0.0 and would print as "-0".
    let kernels: f64 = rec
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "engine.kernel")
        .fold(0.0, |sum, (_, o)| sum + *o as f64);
    out.insert(
        "trace.kernel_self_share".into(),
        if roots > 0.0 { kernels / roots } else { 0.0 },
    );
    out.insert("trace.self_sum_error_max".into(), rec.self_sum_error_max());
    out.insert("trace.clipped_share".into(), rec.clipped_share());
    out.insert("trace.requests".into(), rec.classes.len() as f64);
}

/// Per-layer numbers from the counts read at each replayed request's
/// boundary (`ExecStats`, cache and WAL counters) and the replay's own
/// side measurements.
fn count_metrics(
    rec: &Recorder,
    counts: &Counts,
    untraced_p50: f64,
    out: &mut BTreeMap<String, f64>,
) {
    let n = counts.requests as f64;
    let st = &counts.stats;
    out.insert(
        "core.rows_charged_per_query".into(),
        ratio(st.rows_charged as f64, n),
    );
    out.insert(
        "core.lattice_cache_level_share".into(),
        ratio(
            st.levels_from_cache as f64,
            (st.levels_from_cache + st.levels_from_scan) as f64,
        ),
    );
    out.insert(
        "core.lattice_scan_free_share".into(),
        ratio(
            counts.lattice_scan_free as f64,
            counts.lattice_requests as f64,
        ),
    );
    out.insert(
        "core.span_coverage".into(),
        median(&counts.span_coverage).unwrap_or(0.0),
    );
    let core_ns = median_of(
        rec.spans
            .iter()
            .filter(|s| s.name == "core.execute_sql")
            .map(|s| s.measured_ns as f64),
    );
    out.insert(
        "core.trace_overhead_ratio".into(),
        ratio(median(&counts.traced_ns).unwrap_or(0.0), core_ns),
    );
    out.insert(
        "engine.vectorized_row_share".into(),
        ratio(
            st.vectorized_kernel_rows as f64,
            (st.vectorized_kernel_rows + st.scalar_kernel_rows) as f64,
        ),
    );
    out.insert(
        "engine.dense_group_share".into(),
        ratio(
            st.dense_group_ops as f64,
            (st.dense_group_ops + st.hash_group_ops) as f64,
        ),
    );
    out.insert(
        "engine.rle_runs_per_query".into(),
        ratio(st.rle_runs as f64, n),
    );
    out.insert(
        "engine.sketch_spills_per_query".into(),
        ratio(st.sketch_spills as f64, n),
    );
    out.insert(
        "storage.combo_hit_rate".into(),
        ratio(
            counts.combo_hits as f64,
            (counts.combo_hits + counts.combo_misses) as f64,
        ),
    );
    out.insert(
        "storage.lattice_hit_rate".into(),
        ratio(
            counts.lattice_hits as f64,
            (counts.lattice_hits + counts.lattice_misses) as f64,
        ),
    );
    out.insert(
        "storage.wal_records_per_query".into(),
        ratio(counts.wal_records as f64, n),
    );
    out.insert(
        "storage.wal_bytes_per_query".into(),
        ratio(counts.wal_bytes as f64, n),
    );
    out.insert(
        "storage.pin_after_write_us".into(),
        median(&counts.pin_after_write_ns).unwrap_or(0.0) / 1e3,
    );
    out.insert(
        "service.result_clone_us".into(),
        median(&counts.result_clone_ns).unwrap_or(0.0) / 1e3,
    );
    let service_ns = median_of(
        rec.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64),
    );
    out.insert(
        "bench.trace_overhead_ratio".into(),
        ratio(service_ns / 1e6, untraced_p50),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn traced(kind: Kind, args: &Args, host: &Host) -> Result<RunResult, String> {
    let shape = Shape::of(args);
    let (plan, system, _) = timed_setup(kind, args, host, shape.loaded.as_secs_f64(), (1, 1, 0.0))?;
    std::env::set_var("PA_THREADS", plan.pa_threads.to_string());
    let svc = QueryService::new(&system.catalog, service_config(host.nproc));
    let mut state = LoadState::new(&plan, args.seed);
    let saves = || checkpoint_saves(&system);
    let probe = SumProbe::new(1_000_000);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let main_table = plan.tables[0].name.clone();

    // A short loaded phase with tracing off: the untraced latency the
    // replay is compared with, and everything only load shows (queueing,
    // checkpoints, write latency).
    prime(&svc, &plan);
    run_round(&svc, &plan, &mut state, shape.warm);
    let sum_ns = probe.ns_per_row(15);
    let seq0 = snapshot_seq(&system.catalog, &main_table);
    let loaded = run_round(&svc, &plan, &mut state, shape.loaded);
    let seq1 = snapshot_seq(&system.catalog, &main_table);
    let mut attempted = loaded.attempted;
    let mut failed = loaded.errors + loaded.shed + loaded.write_errors;
    let untraced_p50 =
        percentile(&loaded.query_ms, 0.5).ok_or("loaded phase completed no query")?;
    // The cost quantiles the timed run prints but does not bound, then the
    // same phase in milliseconds: what the costs come to on this host, in
    // this minute.
    let loaded_costs = costs(&cost_of(&loaded)).ok_or("loaded phase completed no query")?;
    out.insert("bench.query_cost_p50".into(), loaded_costs.p50);
    out.insert("bench.query_cost_p90".into(), loaded_costs.p90);
    out.insert("bench.query_cost_mean".into(), loaded_costs.mean);
    out.insert("wall.query_p50_ms".into(), untraced_p50);
    out.insert(
        "wall.query_p95_ms".into(),
        percentile(&loaded.query_ms, 0.95).unwrap_or(0.0),
    );
    out.insert(
        "wall.queries_per_s".into(),
        ratio(loaded.query_ms.len() as f64, loaded.elapsed_s),
    );
    out.insert(
        "wall.sum_ratio".into(),
        ratio(
            loaded.query_ms.iter().sum::<f64>() * 1e6,
            loaded.rows_queried * sum_ns,
        ),
    );
    out.insert(
        "host.cal_us".into(),
        median_of(loaded.samples.iter().map(|s| s.cal_ms * 1e3)),
    );
    out.insert("host.sum_ns_per_row".into(), sum_ns);
    out.insert(
        "workload.gen_rows_per_s".into(),
        ratio(system.gen_rows as f64, system.gen_s),
    );
    out.insert("workload.writer_lag_ms".into(), loaded.writer_lag_ms);
    out.insert(
        "storage.snapshots_frozen".into(),
        seq1.saturating_sub(seq0 + 1) as f64,
    );
    if kind == Kind::Ingest {
        out.insert(
            "ingest.write_p50_ms".into(),
            percentile(&loaded.write_ms, 0.5).unwrap_or(0.0),
        );
        out.insert(
            "ingest.write_p95_ms".into(),
            percentile(&loaded.write_ms, 0.95).unwrap_or(0.0),
        );
    }
    if let Some(d) = &system.durable {
        // How long the thread that cut a checkpoint was held by the store.
        let log = d.checkpoints.lock().expect("checkpoint-log lock");
        out.insert(
            "storage.checkpoint_stall_ms".into(),
            median(&log.save_ms).unwrap_or(0.0),
        );
    }
    out.insert("storage.checkpoints".into(), saves() as f64);
    let registry = svc.metrics();
    let counter = |name: &str| registry.counter(name, "").get() as f64;
    out.insert(
        "service.shed".into(),
        counter("pa_service_shed_total{reason=\"queue_full\"}")
            + counter("pa_service_shed_total{reason=\"timeout\"}"),
    );
    out.insert(
        "service.degraded".into(),
        counter("pa_service_degraded_total{rung=\"serial\"}")
            + counter("pa_service_degraded_total{rung=\"serial_then_spj\"}"),
    );
    out.insert(
        "service.failures".into(),
        counter("pa_service_failures_total"),
    );
    out.insert(
        "service.queue_wait_p90_us".into(),
        registry
            .histogram("pa_service_queue_wait_nanoseconds", "", &[])
            .quantile(0.9)
            .map_or(0.0, |ns| ns as f64 / 1e3),
    );

    // The replay: single client, no timers — counts repeat exactly.
    let mut replay = Replay {
        svc: &svc,
        catalog: &system.catalog,
        plan: &plan,
        seed: args.seed,
        // Past anything the loaded phase sent.
        next_seq: 1 << 32,
    };
    let (rec, counts) = replay.run(shape.requests_per_class);
    attempted += counts.requests;
    span_metrics(&rec, &plan, &mut out);
    count_metrics(&rec, &counts, untraced_p50, &mut out);

    engine_probes(&plan, &system, sum_ns, &mut out);
    storage_probes(&plan, &system, &svc, &mut out);
    let wal = system.catalog.wal_stats();
    out.insert("storage.wal_retries".into(), wal.retries as f64);
    out.insert("storage.wal_write_errors".into(), wal.write_errors as f64);

    let mut failures = Vec::new();
    let mut notes = Vec::new();
    if kind == Kind::Ingest {
        // The replay's appends are acknowledged writes like any other.
        let synced = sync_wal(&system.catalog);
        for seq in (1u64 << 32)..replay.next_seq {
            state.acks.push(crate::driver::WriteAck {
                seq,
                appended: synced,
                updated: false,
            });
        }
        let ep = ingest_epilogue(&plan, &system, &svc, &state, host.nproc);
        attempted += ep.attempted;
        failures.extend(ep.failures);
        notes.extend(ep.notes);
        out.insert("ingest.recovery_s".into(), ep.recovery_s);
    }
    failed += failures.len() as u64;
    for p in &PER_LAYER {
        // No sample on this workload (nothing checkpoints on `scan`): 0.
        out.entry(p.name.to_string()).or_insert(0.0);
    }
    Ok(RunResult {
        kind,
        seed: args.seed,
        seconds: shape.loaded.as_secs_f64(),
        traced: true,
        clients: plan.clients,
        pa_threads: plan.pa_threads,
        attempted,
        failed,
        failures,
        end_to_end: Vec::new(),
        wall: Vec::new(),
        per_layer: out,
        notes,
        trace_json: Some(rec.to_json(kind.name(), args.seed)),
    })
}

fn run_one(kind: Kind, args: &Args, host: &Host) -> Result<RunResult, String> {
    if args.trace {
        traced(kind, args, host)
    } else {
        timed(kind, args, host)
    }
}

/// Write a run's artifacts under the results directory.
fn persist(result: &RunResult, args: &Args, host: &Host) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if let Some(json) = &result.trace_json {
        let path = dir.join(format!("trace_{}.json", result.kind.name()));
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    let suffix = if result.traced { "_layers" } else { "" };
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("{}{suffix}.json", result.kind.name())));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, report::result_json(result, host))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(())
}

/// One workload, once: the benchmark contract's invocation.
pub fn single(args: &Args) -> i32 {
    let host = Host::detect();
    let kind = args.workloads[0];
    match run_one(kind, args, &host) {
        Ok(result) => {
            report::print_run(&result, &host);
            if let Err(e) = persist(&result, args, &host) {
                eprintln!("trajectory: {e}");
                return 1;
            }
            // A number from a round that was cut off short of its samples
            // is not a measurement: no result line, so nothing compares it.
            let unresolved: Vec<&str> = result
                .end_to_end
                .iter()
                .filter(|m| !m.2.resolved)
                .map(|m| m.0)
                .collect();
            if !unresolved.is_empty() {
                eprintln!("trajectory: unresolved: {}", unresolved.join(", "));
                return 1;
            }
            // The contract's last line.
            println!("{}", report::contract_line(&result));
            i32::from(result.failed > 0)
        }
        Err(e) => {
            eprintln!("trajectory: {e}");
            1
        }
    }
}

/// The value of end-to-end metric `name` in a result file written by
/// `result_json`, and whether every round behind it held its samples.
fn value_in_result_file(text: &str, name: &str) -> Option<(f64, bool)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &text[text.find(&key)? + key.len()..];
    let value = rest[..rest.find(',')?].trim().parse().ok()?;
    let entry = &rest[..rest.find('}')?];
    Some((value, entry.contains("\"resolved\": true")))
}

/// `--repeat N` and/or several workloads: every workload `N` times,
/// alternating the order, then each end-to-end metric's spread against
/// its bound. Every run is a process of its own, as the benchmark driver
/// runs them: runs sharing a heap would inherit each other's peak memory.
pub fn repeat_mode(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trajectory: cannot find own executable: {e}");
            return 1;
        }
    };
    let dir = results_dir();
    let mut runs: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    let mut bad = false;
    for rep in 0..args.repeat {
        let mut order = args.workloads.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for kind in order {
            let out = dir.join(format!("repeat_{}_{rep}.json", kind.name()));
            let status = std::process::Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .status();
            match status {
                Ok(st) => bad |= !st.success(),
                Err(e) => {
                    eprintln!("trajectory: {}: cannot start run: {e}", kind.name());
                    return 1;
                }
            }
            match std::fs::read_to_string(&out) {
                Ok(text) => runs.entry(kind.name()).or_default().push(text),
                Err(e) => {
                    eprintln!(
                        "trajectory: {}: no result at {}: {e}",
                        kind.name(),
                        out.display()
                    );
                    return 1;
                }
            }
        }
    }
    if args.repeat > 1 && !args.trace {
        println!(
            "\n== spread over {} runs (interquartile distance / median; range / median under 4 runs) ==",
            args.repeat
        );
        for (name, results) in &runs {
            for e in &END_TO_END {
                let found: Vec<(f64, bool)> = results
                    .iter()
                    .filter_map(|text| value_in_result_file(text, e.name))
                    .collect();
                let values: Vec<f64> = found.iter().map(|f| f.0).collect();
                let Some(spread) = spread_of_runs(&values) else {
                    continue;
                };
                // Set-up time is bounded on its median, not its spread.
                let verdict = if found.iter().any(|f| !f.1) {
                    "UNRESOLVED: a round held too few samples"
                } else if spread > e.bound && e.name != "setup_s" {
                    "UNRESOLVED: runs of one commit lie further apart than the bound"
                } else {
                    "ok"
                };
                bad |= verdict != "ok";
                println!(
                    "{name:<9} {:<14} median {:>12.4} {:<5} spread {:>6.2}%  bound {:>3.0}%  {verdict}",
                    e.name,
                    median(&values).unwrap_or(0.0),
                    e.unit,
                    spread * 100.0,
                    e.bound * 100.0,
                );
            }
        }
    }
    i32::from(bad)
}

/// `--check`: every workload, untraced then traced, on tiny tables.
pub fn check_mode(args: &Args) -> i32 {
    let host = Host::detect();
    let t0 = Instant::now();
    let mut bad = false;
    for &kind in &args.workloads {
        for trace in [false, true] {
            let args = Args {
                trace,
                ..args.clone()
            };
            match run_one(kind, &args, &host) {
                Ok(result) => {
                    println!(
                        "check {:<9} {:<8} attempted {:>6} failed {}",
                        kind.name(),
                        if trace { "traced" } else { "timed" },
                        result.attempted,
                        result.failed
                    );
                    for f in &result.failures {
                        println!("  {f}");
                    }
                    if trace {
                        let err = result.per_layer["trace.self_sum_error_max"];
                        if err > 0.01 {
                            println!(
                                "  self times miss the outermost span by {:.3}%",
                                err * 100.0
                            );
                            bad = true;
                        }
                    }
                    bad |= result.failed > 0;
                }
                Err(e) => {
                    println!("check {:<9} failed to run: {e}", kind.name());
                    bad = true;
                }
            }
        }
    }
    println!(
        "check finished in {:.1} s: {}",
        t0.elapsed().as_secs_f64(),
        if bad { "FAILED" } else { "ok" }
    );
    i32::from(bad)
}
