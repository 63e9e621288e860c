//! Thread-scaling bench: strategy × n × d × threads → `BENCH_scale.json`.
//!
//! ```text
//! scale [--n N1,N2,..] [--d D1,D2,..] [--threads T1,T2,..] [--iters K]
//!       [--out PATH]
//! ```
//!
//! Measures the morsel-parallel execution layer on a synthetic fact table
//! (`store` × `day` × `amt`, LCG-generated, `d` distinct BY values) under
//! three representative strategies: the best vertical plan (`vpct_best`),
//! the CASE pivot from F (`case_direct`), and the same pivot on the hash
//! tier (`hash_dispatch`: an engine handed `dense_budget: 0`). Each cell's
//! engine is handed the deployment's configuration at that cell's thread
//! count (`PercentageEngine::with_config`). Output is machine-readable
//! JSON: wall ms (best of `--iters`), rows/s, and speedup vs the same
//! strategy at 1 thread, plus the host's actual parallelism so flat
//! speedups on small machines are self-explaining.

use pa_bench::{lcg_cube_table, lcg_fact_table, operator_breakdown, time_ms};
use pa_core::{
    ExtraAgg, HorizontalOptions, HorizontalQuery, HorizontalStrategy, PercentageEngine, VpctQuery,
    VpctStrategy, VpctTerm,
};
use pa_engine::{
    distinct_keys, multi_hash_aggregate_with_config, pivot_aggregate_with_config, AggFunc, AggSpec,
    ExecStats, Expr, PBits, ParallelConfig, PivotTask, ResourceGuard, SystemClock, Tracer,
};
use pa_storage::Catalog;
use std::fmt::Write as _;

struct Args {
    ns: Vec<usize>,
    ds: Vec<usize>,
    threads: Vec<usize>,
    iters: usize,
    out: String,
    /// CI gate: fail unless `case_direct` stays within this factor of
    /// `hash_dispatch` in every measured cell (0 = no gate).
    assert_case_within: f64,
    /// CI smoke: fail unless every `case_direct`/`case_sorted` cell ran
    /// the vectorized kernels, and the sorted scenario hit the RLE path.
    assert_vectorized: bool,
    /// CI gate: fail unless the pivot pass of `case_direct` stays within
    /// this factor of the two-level aggregate (`GROUP BY ∪ BY`, `GROUP BY`)
    /// measured beside it (0 = no gate).
    assert_pivot_within: f64,
    /// CI gate: fail unless the cache-cold `lattice` batch (all four
    /// BY-prefixes from one fused scan) stays within this factor of the
    /// single-level `case_direct` cell at the same n/d/threads (0 = no
    /// gate).
    assert_lattice_within: f64,
    /// CI gate: fail unless the cache-warm `lattice` batch (every level a
    /// refcount bump out of the lattice cache) stays within this fraction
    /// of its own cache-cold run (0 = no gate).
    assert_lattice_warm_within: f64,
    /// CI gate: fail unless a warm knob-less `Hpct(amt BY day) GROUP BY
    /// store` stays within this factor of the warm `Vpct` over the same
    /// `(GROUP BY ∪ BY)` level, measured beside it (0 = no gate).
    assert_hpct_warm_within: f64,
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim().parse().unwrap_or_else(|_| {
                eprintln!("bad list element {p:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        ns: vec![1_000_000],
        ds: vec![7, 50],
        threads: vec![1, 2, 4],
        iters: 3,
        out: "results/BENCH_scale.json".to_string(),
        assert_case_within: 0.0,
        assert_vectorized: false,
        assert_pivot_within: 0.0,
        assert_lattice_within: 0.0,
        assert_lattice_warm_within: 0.0,
        assert_hpct_warm_within: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_default();
        match a.as_str() {
            "--n" => args.ns = parse_list(&next()),
            "--d" => args.ds = parse_list(&next()),
            "--threads" => args.threads = parse_list(&next()),
            "--iters" => args.iters = next().parse().unwrap_or(1),
            "--out" => args.out = next(),
            "--assert-case-within" => {
                args.assert_case_within = next().parse().unwrap_or_else(|_| {
                    eprintln!("--assert-case-within takes a factor, e.g. 2.0");
                    std::process::exit(2);
                })
            }
            "--assert-vectorized" => args.assert_vectorized = true,
            "--assert-pivot-within" => {
                args.assert_pivot_within = next().parse().unwrap_or_else(|_| {
                    eprintln!("--assert-pivot-within takes a factor, e.g. 1.5");
                    std::process::exit(2);
                })
            }
            "--assert-lattice-within" => {
                args.assert_lattice_within = next().parse().unwrap_or_else(|_| {
                    eprintln!("--assert-lattice-within takes a factor, e.g. 1.6");
                    std::process::exit(2);
                })
            }
            "--assert-lattice-warm-within" => {
                args.assert_lattice_warm_within = next().parse().unwrap_or_else(|_| {
                    eprintln!("--assert-lattice-warm-within takes a fraction, e.g. 0.2");
                    std::process::exit(2);
                })
            }
            "--assert-hpct-warm-within" => {
                args.assert_hpct_warm_within = next().parse().unwrap_or_else(|_| {
                    eprintln!("--assert-hpct-warm-within takes a factor, e.g. 2.0");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "usage: scale [--n N1,N2,..] [--d D1,D2,..] \
                     [--threads T1,T2,..] [--iters K] [--out PATH] \
                     [--assert-case-within FACTOR] [--assert-vectorized] \
                     [--assert-pivot-within FACTOR] \
                     [--assert-lattice-within FACTOR] [--assert-lattice-warm-within FRACTION] \
                     [--assert-hpct-warm-within FACTOR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.ns.is_empty() || args.ds.is_empty() || args.threads.is_empty() {
        eprintln!("--n/--d/--threads must be non-empty");
        std::process::exit(2);
    }
    args
}

fn best_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        best = best.min(time_ms(&mut f).0);
    }
    best
}

/// Group-path + kernel-path + combination-cache telemetry of one run,
/// derived from its [`pa_engine::ExecStats`] counters.
#[derive(Clone, Copy, Default)]
struct CellTelemetry {
    dense_ops: u64,
    hash_ops: u64,
    combo_hits: u64,
    combo_misses: u64,
    vec_rows: u64,
    scalar_rows: u64,
    rle_runs: u64,
    pack_width: u64,
}

impl CellTelemetry {
    fn of(stats: &pa_engine::ExecStats) -> CellTelemetry {
        CellTelemetry {
            dense_ops: stats.dense_group_ops,
            hash_ops: stats.hash_group_ops,
            combo_hits: stats.combo_cache_hits,
            combo_misses: stats.combo_cache_misses,
            vec_rows: stats.vectorized_kernel_rows,
            scalar_rows: stats.scalar_kernel_rows,
            rle_runs: stats.rle_runs,
            pack_width: stats.pack_width,
        }
    }

    /// Which group path the run took: every lookup pass dense, every pass
    /// hashed, a mix (e.g. hash group map with dense cell maps), or none
    /// (no grouped aggregation at all).
    fn group_path(&self) -> &'static str {
        match (self.dense_ops > 0, self.hash_ops > 0) {
            (true, false) => "dense",
            (false, true) => "hash",
            (true, true) => "mixed",
            (false, false) => "none",
        }
    }

    /// Which scan kernels ran (DESIGN.md §12): `rle` when the vectorized
    /// path collapsed constant code blocks into run-level updates,
    /// `vectorized` when every aggregation scanned block-at-a-time,
    /// `mixed` when some pass fell back, `scalar` when none vectorized.
    fn kernel_path(&self) -> &'static str {
        if self.vec_rows == 0 {
            return "scalar";
        }
        if self.rle_runs > 0 {
            return "rle";
        }
        if self.scalar_rows > 0 {
            "mixed"
        } else {
            "vectorized"
        }
    }

    fn combo_hit_rate(&self) -> f64 {
        let total = self.combo_hits + self.combo_misses;
        if total == 0 {
            0.0
        } else {
            self.combo_hits as f64 / total as f64
        }
    }
}

/// The `percentile` scenario: a CaseDirect `Hpct` carrying three holistic
/// extra lanes — exact `percentile(amt, 0.5)` (spills to a t-digest past
/// the per-group budget), `approx_percentile(amt, 0.95)` and
/// `approx_count_distinct(day)` — so the mergeable partial-state protocol
/// (DESIGN.md §14) is what scales with the thread count.
fn percentile_query() -> HorizontalQuery {
    let mut q = HorizontalQuery::hpct("fact", &["store"], "amt", &["day"]);
    q.extra = vec![
        ExtraAgg {
            func: AggFunc::Percentile(PBits::new(0.5)),
            measure: Some("amt".into()),
            name: "p50".into(),
        },
        ExtraAgg {
            func: AggFunc::ApproxPercentile(PBits::new(0.95)),
            measure: Some("amt".into()),
            name: "p95_approx".into(),
        },
        ExtraAgg {
            func: AggFunc::ApproxCountDistinct,
            measure: Some("day".into()),
            name: "days".into(),
        },
    ];
    q
}

/// The `lattice` scenario's batch: all four BY-prefixes of
/// (store, day, region, month) over `fact_cube`, each query's totals one
/// dimension coarser than the last. One fused scan materializes every
/// level (DESIGN.md §15).
const CUBE_DIMS: [&str; 4] = ["store", "day", "region", "month"];

fn lattice_queries() -> Vec<VpctQuery> {
    (0..CUBE_DIMS.len())
        .map(|j| VpctQuery {
            table: "fact_cube".into(),
            group_by: CUBE_DIMS.iter().map(|d| d.to_string()).collect(),
            terms: vec![VpctTerm::new("amt", &CUBE_DIMS[j..])],
            extra: Vec::new(),
        })
        .collect()
}

/// The `lattice` cell: cache-cold wall time of the whole k-prefix batch
/// (best of `iters`, the lattice cache dropped before every run), plus a
/// JSON fragment recording the scan/cache level split, the cache-warm
/// batch time, and per-level warm solo timings.
///
/// Also returns the CI-gate comparators: `warm_ms`, the same batch with
/// every level cached; `single_ms`, one lattice level evaluated from
/// scratch through the same direct single-pass path (cache dropped before
/// every run); and `per_level_ms`, all k levels each recomputed with their
/// own pass (no sharing) — the ~k× baseline the fused scan exists to beat.
fn run_lattice_cell(
    engine: &PercentageEngine<'_>,
    catalog: &Catalog,
    iters: usize,
) -> (f64, CellTelemetry, String, [f64; 3]) {
    let queries = lattice_queries();
    // Forgetting every cached level of the table, of every version, is
    // what makes a rerun genuinely cold.
    let drop_cache = || catalog.invalidate_combos("fact_cube");
    let mut telemetry = CellTelemetry::default();
    let mut cold_stats = ExecStats::default();
    let cold_ms = best_ms(iters, || {
        drop_cache();
        let results = engine.vpct_batch(&queries).expect("bench query");
        cold_stats = ExecStats::default();
        for r in &results {
            cold_stats += r.stats;
        }
        telemetry = CellTelemetry::of(&cold_stats);
    });
    // Warm: the level tables the cold run cached serve every level.
    let mut warm_stats = ExecStats::default();
    let warm_ms = best_ms(iters, || {
        let results = engine.vpct_batch(&queries).expect("bench query");
        warm_stats = ExecStats::default();
        for r in &results {
            warm_stats += r.stats;
        }
    });
    let mut levels = String::from("[");
    for (j, q) in queries.iter().enumerate() {
        let solo = std::slice::from_ref(q);
        let mut solo_stats = ExecStats::default();
        let solo_ms = best_ms(iters, || {
            let results = engine.vpct_batch(solo).expect("bench query");
            solo_stats = results[0].stats;
        });
        if j > 0 {
            levels.push(',');
        }
        let _ = write!(
            levels,
            "{{\"totals_prefix\": \"{}\", \"warm_solo_ms\": {solo_ms:.3}, \
             \"levels_from_cache\": {}}}",
            CUBE_DIMS[..j].join(","),
            solo_stats.levels_from_cache,
        );
    }
    levels.push(']');
    // Gate comparator: ONE lattice level evaluated from scratch — the
    // same entry point restricted to the first prefix, cache dropped
    // before every run, so both sides of the gate pay full compute on
    // the same table.
    let single = std::slice::from_ref(&queries[0]);
    let single_ms = best_ms(iters, || {
        drop_cache();
        engine.vpct_batch(single).expect("bench query");
    });
    // The naive alternative the fused scan replaces: every level
    // recomputed with its own pass, no sharing (~k× the single level).
    let per_level_ms = best_ms(iters, || {
        for q in &queries {
            drop_cache();
            engine
                .vpct_batch(std::slice::from_ref(q))
                .expect("bench query");
        }
    });
    let extra = format!(
        "\"lattice\": {{\"k\": {}, \"cold_ms\": {cold_ms:.3}, \"warm_ms\": {warm_ms:.3}, \
         \"warm_over_cold\": {:.3}, \
         \"single_level_cold_ms\": {single_ms:.3}, \"per_level_cold_ms\": {per_level_ms:.3}, \
         \"lattice_levels\": {}, \"levels_from_scan\": {}, \"levels_from_cache\": {}, \
         \"warm_levels_from_cache\": {}, \"levels\": {levels}}}",
        queries.len(),
        warm_ms / cold_ms.max(1e-9),
        cold_stats.lattice_levels,
        cold_stats.levels_from_scan,
        cold_stats.levels_from_cache,
        warm_stats.levels_from_cache,
    );
    (
        cold_ms,
        telemetry,
        extra,
        [warm_ms, single_ms, per_level_ms],
    )
}

/// The scan under `case_direct`, as direct engine calls on `fact`: the pivot
/// pass (`Hpct(amt BY day) GROUP BY store`) and the work it fuses — the
/// aggregate at `GROUP BY ∪ BY` it transposes and the one at `GROUP BY` its
/// totals come from, as one `multi_hash_aggregate` — best of `iters` each,
/// in ms. The pivot reads both levels off one code stream, so their ratio
/// is what sharing the stream saves against what the transposition costs.
/// (A one-level denominator made the ratio a measure of the fixed
/// domain/encode cost both sides paid: it read ×1.36 while each statement
/// rescanned min/max and re-encoded its keys, ×1.78 once neither did.)
fn run_pivot_cell(catalog: &Catalog, config: &ParallelConfig, iters: usize) -> [f64; 2] {
    let fact = catalog.table("fact").expect("generated");
    let fact = fact.read();
    let guard = ResourceGuard::unlimited();
    let mut combos = distinct_keys(&fact, &[1], &mut ExecStats::default()).expect("day exists");
    combos.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let task = PivotTask {
        by_cols: vec![1],
        lanes: vec![(AggFunc::Sum, Expr::Col(2))],
        combos,
        total: Some(Expr::Col(2)),
    };
    let sum = [AggSpec::new(AggFunc::Sum, Expr::Col(2), "sum")];
    let mut stats = ExecStats::default();
    let tasks = std::slice::from_ref(&task);
    let pivot_ms = best_ms(iters, || {
        pivot_aggregate_with_config(&fact, &[0], tasks, &[], &guard, &mut stats, config)
            .expect("bench query");
    });
    let levels = [(vec![0, 1], sum.to_vec()), (vec![0], sum.to_vec())];
    let aggregate_ms = best_ms(iters, || {
        multi_hash_aggregate_with_config(&fact, &levels, &guard, &mut stats, config)
            .expect("bench query");
    });
    [pivot_ms, aggregate_ms]
}

/// The warm knob-less statements over the level `(store, day)`: the `Hpct`
/// its lattice request transposes, and the `Vpct` that divides it in place.
const HPCT_WARM: &str = "SELECT store, Hpct(amt BY day) AS h FROM fact GROUP BY store";
const VPCT_WARM: &str = "SELECT store, day, Vpct(amt BY day) AS p FROM fact GROUP BY store, day";

/// A warm knob-less `Hpct` and the warm `Vpct` over its cell level, each
/// run once to fill the level cache and then 100 × `iters` times, the two
/// interleaved: the best of each, in µs. Panics unless the warm `Hpct` ran
/// as a lattice request that read no fact row.
fn run_hpct_warm_cell(engine: &PercentageEngine<'_>, iters: usize) -> [f64; 2] {
    let run = |sql: &str| engine.execute_sql(sql).expect("bench query");
    let (mut hpct_us, mut vpct_us) = (f64::INFINITY, f64::INFINITY);
    run(HPCT_WARM);
    run(VPCT_WARM);
    for _ in 0..100 * iters.max(1) {
        let (ms, outcome) = time_ms(|| run(HPCT_WARM));
        let stats = outcome.stats();
        assert!(
            stats.lattice_levels > 0 && stats.levels_from_scan == 0,
            "the warm Hpct did not run as a cached lattice request: {stats}"
        );
        hpct_us = hpct_us.min(ms * 1e3);
        vpct_us = vpct_us.min(time_ms(|| run(VPCT_WARM)).0 * 1e3);
    }
    [hpct_us, vpct_us]
}

/// One (strategy, n, d) cell, timed at one thread count. Returns the best
/// wall time plus the last run's group-path/cache telemetry (identical
/// across iterations except that the first run of a fresh catalog misses
/// the combination cache).
fn run_cell(engine: &PercentageEngine<'_>, strategy: &str, iters: usize) -> (f64, CellTelemetry) {
    let mut telemetry = CellTelemetry::default();
    let ms = match strategy {
        "vpct_best" => {
            let q = VpctQuery::single("fact", &["store", "day"], "amt", &["day"]);
            best_ms(iters, || {
                let r = engine
                    .vpct_with(&q, &VpctStrategy::best())
                    .expect("bench query");
                telemetry = CellTelemetry::of(&r.stats);
            })
        }
        // (The same plan: `hash_dispatch`'s engine was handed dense budget 0.)
        "case_direct" | "hash_dispatch" => {
            let q = HorizontalQuery::hpct("fact", &["store"], "amt", &["day"]);
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            best_ms(iters, || {
                let r = engine.horizontal_with(&q, &opts).expect("bench query");
                telemetry = CellTelemetry::of(&r.stats);
            })
        }
        "case_sorted" => {
            // Same plan as case_direct over the key-sorted clone of the
            // fact table: run-dominated code blocks engage the RLE path.
            let q = HorizontalQuery::hpct("fact_sorted", &["store"], "amt", &["day"]);
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            best_ms(iters, || {
                let r = engine.horizontal_with(&q, &opts).expect("bench query");
                telemetry = CellTelemetry::of(&r.stats);
            })
        }
        "percentile" => {
            let q = percentile_query();
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            best_ms(iters, || {
                let r = engine.horizontal_with(&q, &opts).expect("bench query");
                telemetry = CellTelemetry::of(&r.stats);
            })
        }
        other => unreachable!("unknown strategy {other}"),
    };
    (ms, telemetry)
}

/// One untimed traced run of the cell's query: the per-operator breakdown
/// for the JSON artifact (worker child spans folded into their operator).
fn trace_cell(engine: &PercentageEngine<'_>, strategy: &str) -> String {
    let report = match strategy {
        "vpct_best" => {
            // The plan the cell times, `vpct_with(best())`: the knob-less
            // `vpct_traced` is a lattice request, and warm by now. Its
            // tracer rides on the engine's guard, under a root of its own.
            let q = VpctQuery::single("fact", &["store", "day"], "amt", &["day"]);
            let tracer = Tracer::enabled(SystemClock::shared());
            let guard = engine.guard().clone().with_tracer(tracer.clone());
            let root = tracer.span("query");
            (engine.clone().with_guard(guard))
                .vpct_with(&q, &VpctStrategy::best())
                .expect("bench query");
            drop(root);
            tracer.take_report()
        }
        "case_direct" | "hash_dispatch" => {
            let q = HorizontalQuery::hpct("fact", &["store"], "amt", &["day"]);
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            engine.horizontal_traced(&q, &opts).expect("bench query").1
        }
        "case_sorted" => {
            let q = HorizontalQuery::hpct("fact_sorted", &["store"], "amt", &["day"]);
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            engine.horizontal_traced(&q, &opts).expect("bench query").1
        }
        "percentile" => {
            let q = percentile_query();
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            engine.horizontal_traced(&q, &opts).expect("bench query").1
        }
        // The batch entry point has no traced variant; its per-level cost
        // split lives in the row's "lattice" object instead.
        "lattice" => return "[]".to_string(),
        other => unreachable!("unknown strategy {other}"),
    };
    operator_breakdown(&report)
}

const STRATEGIES: [&str; 6] = [
    "vpct_best",
    "case_direct",
    "hash_dispatch",
    "case_sorted",
    "percentile",
    "lattice",
];

fn main() {
    let args = parse_args();
    let deployed = ParallelConfig::from_env();
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "scale bench — host parallelism {host_threads}, iters {}, \
         strategies {STRATEGIES:?}",
        args.iters
    );

    let mut rows = Vec::new();
    // (n, d, threads, cold batch ms, [warm batch, cold single-level, cold
    // per-level] ms) per lattice cell, feeding the lattice gates below.
    let mut lattice_gate = Vec::new();
    // (n, d, threads, [pivot, aggregate] ms) per `case_direct` cell.
    let mut pivot_gate = Vec::new();
    // (n, d, threads, [warm Hpct, warm Vpct] µs) per `case_direct` cell.
    let mut hpct_warm_gate = Vec::new();
    for &n in &args.ns {
        for &d in &args.ds {
            let catalog = Catalog::new();
            let (gen_ms, _) = time_ms(|| {
                let fact = lcg_fact_table(n, d);
                // Clone sorted by (day, store) for the RLE scenario: same
                // rows, long constant runs of the GROUP BY ∪ BY key the
                // pivot's code stream is over.
                catalog
                    .create_table("fact_sorted", fact.sorted_by(&[1, 0]))
                    .expect("fresh");
                // Four-dimension table for the lattice scenario.
                catalog
                    .create_table("fact_cube", lcg_cube_table(n, d))
                    .expect("fresh");
                catalog.create_table("fact", fact).expect("fresh")
            });
            println!("\nn={n} d={d} (generated in {gen_ms:.0} ms)");
            for strategy in STRATEGIES {
                let mut serial_ms = None;
                for &threads in &args.threads {
                    let mut config = ParallelConfig {
                        threads,
                        ..deployed
                    };
                    if strategy == "hash_dispatch" {
                        config.dense_budget = 0;
                    }
                    let engine = PercentageEngine::new(&catalog).with_config(config);
                    let (ms, telemetry, extra) = if strategy == "lattice" {
                        let (ms, telemetry, extra, comparators) =
                            run_lattice_cell(&engine, &catalog, args.iters);
                        lattice_gate.push((n, d, threads, ms, comparators));
                        (ms, telemetry, extra)
                    } else {
                        let (ms, telemetry) = run_cell(&engine, strategy, args.iters);
                        let mut extra = String::new();
                        if strategy == "case_direct" {
                            let [pivot_ms, aggregate_ms] =
                                run_pivot_cell(&catalog, &config, args.iters);
                            pivot_gate.push((n, d, threads, [pivot_ms, aggregate_ms]));
                            let [hpct_us, vpct_us] = run_hpct_warm_cell(&engine, args.iters);
                            hpct_warm_gate.push((n, d, threads, [hpct_us, vpct_us]));
                            let _ = write!(
                                extra,
                                "\"pivot_ms\": {pivot_ms:.3}, \"aggregate_ms\": {aggregate_ms:.3}, \
                                 \"pivot_over_aggregate\": {:.3}, \"hpct_warm_us\": {hpct_us:.2}, \
                                 \"vpct_warm_us\": {vpct_us:.2}, \"hpct_warm_over_vpct\": {:.3}",
                                pivot_ms / aggregate_ms.max(1e-9),
                                hpct_us / vpct_us.max(1e-9)
                            );
                        }
                        (ms, telemetry, extra)
                    };
                    // One extra traced (untimed) run per cell feeds the
                    // per-operator breakdown in the JSON artifact.
                    let operators = trace_cell(&engine, strategy);
                    let serial = *serial_ms.get_or_insert(ms);
                    let speedup = serial / ms.max(1e-9);
                    println!(
                        "  {strategy:<14} threads={threads:<2} {ms:>9.1} ms \
                         {:>12.0} rows/s  x{speedup:.2}  \
                         group_path={} kernel_path={} pack_width={} \
                         combo_hit_rate={:.2}",
                        n as f64 / (ms / 1e3),
                        telemetry.group_path(),
                        telemetry.kernel_path(),
                        telemetry.pack_width,
                        telemetry.combo_hit_rate(),
                    );
                    rows.push((
                        strategy, n, d, threads, ms, speedup, telemetry, operators, extra,
                    ));
                }
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"scale\",");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"iters\": {},", args.iters);
    json.push_str("  \"results\": [\n");
    for (i, (strategy, n, d, threads, ms, speedup, telemetry, operators, extra)) in
        rows.iter().enumerate()
    {
        let rows_per_s = *n as f64 / (ms / 1e3);
        let _ = write!(
            json,
            "    {{\"strategy\": \"{strategy}\", \"n\": {n}, \"d\": {d}, \
             \"threads\": {threads}, \"wall_ms\": {ms:.3}, \
             \"rows_per_s\": {rows_per_s:.0}, \
             \"speedup_vs_serial\": {speedup:.3}, \
             \"group_path\": \"{}\", \
             \"kernel_path\": \"{}\", \
             \"pack_width\": {}, \
             \"rle_runs\": {}, \
             \"combo_cache_hit_rate\": {:.3}, \
             \"operators\": {operators}",
            telemetry.group_path(),
            telemetry.kernel_path(),
            telemetry.pack_width,
            telemetry.rle_runs,
            telemetry.combo_hit_rate(),
        );
        if !extra.is_empty() {
            let _ = write!(json, ", {extra}");
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write output file");
    println!("\nwrote {}", args.out);

    // CI gate: the code-path CASE evaluation must stay within the given
    // factor of the hash dispatcher in every measured cell.
    if args.assert_case_within > 0.0 {
        let mut failed = false;
        for (case_strategy, n, d, threads, case_ms, ..) in &rows {
            if *case_strategy != "case_direct" {
                continue;
            }
            let Some((.., dispatch_ms, _, _, _, _)) = rows
                .iter()
                .find(|r| r.0 == "hash_dispatch" && r.1 == *n && r.2 == *d && r.3 == *threads)
            else {
                continue;
            };
            let factor = case_ms / dispatch_ms.max(1e-9);
            let ok = factor <= args.assert_case_within;
            println!(
                "gate n={n} d={d} threads={threads}: case_direct {case_ms:.1} ms vs \
                 hash_dispatch {dispatch_ms:.1} ms — x{factor:.2} \
                 (limit x{:.2}) {}",
                args.assert_case_within,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("code-path gate failed: case_direct exceeded the allowed factor");
            std::process::exit(1);
        }
    }

    // CI gate: the pivot is the aggregates at GROUP BY ∪ BY and at GROUP BY
    // off one code stream plus a transposition of groups, so it must stay
    // within the given factor of those two levels aggregated beside it.
    if args.assert_pivot_within > 0.0 {
        let mut failed = false;
        for (n, d, threads, [pivot_ms, aggregate_ms]) in &pivot_gate {
            let factor = pivot_ms / aggregate_ms.max(1e-9);
            let ok = factor <= args.assert_pivot_within;
            println!(
                "pivot gate n={n} d={d} threads={threads}: pivot pass {pivot_ms:.1} ms vs \
                 two-level aggregate (GROUP BY ∪ BY, GROUP BY) {aggregate_ms:.1} ms — \
                 x{factor:.2} (limit x{:.2}) {}",
                args.assert_pivot_within,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!(
                "pivot gate failed: the transposed aggregate costs too much over its two levels"
            );
            std::process::exit(1);
        }
    }

    // CI gate: a warm knob-less `Hpct` reads the same cached cell level a
    // warm `Vpct` divides in place, and only transposes it on the way out,
    // so it must cost no more than the given factor of that `Vpct`.
    if args.assert_hpct_warm_within > 0.0 {
        let mut failed = false;
        for (n, d, threads, [hpct_us, vpct_us]) in &hpct_warm_gate {
            let factor = hpct_us / vpct_us.max(1e-9);
            let ok = factor <= args.assert_hpct_warm_within;
            println!(
                "hpct warm gate n={n} d={d} threads={threads}: warm Hpct {hpct_us:.1} us vs \
                 warm Vpct over its cell level {vpct_us:.1} us — x{factor:.2} (limit x{:.2}) {}",
                args.assert_hpct_warm_within,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("hpct warm gate failed: the warm horizontal request costs too much");
            std::process::exit(1);
        }
    }

    // CI smoke: the vectorized path must actually engage — a silent fall
    // back to scalar kernels would pass the byte-identity oracles and only
    // show up as a perf regression much later.
    if args.assert_vectorized {
        let mut failed = false;
        for (strategy, n, d, threads, _, _, telemetry, _, _) in &rows {
            let path = telemetry.kernel_path();
            let ok = match *strategy {
                "case_direct" => path == "vectorized" || path == "rle",
                "case_sorted" => path == "rle",
                _ => continue,
            };
            println!(
                "kernel-path smoke n={n} d={d} threads={threads}: {strategy} \
                 kernel_path={path} pack_width={} rle_runs={} {}",
                telemetry.pack_width,
                telemetry.rle_runs,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("kernel-path smoke failed: vectorized kernels did not engage");
            std::process::exit(1);
        }
    }

    // CI gate: the fused one-scan lattice must make answering every
    // BY-prefix nearly as cheap as answering one — the cache-cold k-level
    // batch stays within the factor of the equally cache-cold
    // single-level CASE cell (k separate scans would be ~k×).
    if args.assert_lattice_within > 0.0 {
        let mut failed = false;
        for (n, d, threads, lattice_ms, [_, single_ms, per_level_ms]) in &lattice_gate {
            let factor = lattice_ms / single_ms.max(1e-9);
            let naive = per_level_ms / single_ms.max(1e-9);
            let ok = factor <= args.assert_lattice_within;
            println!(
                "lattice gate n={n} d={d} threads={threads}: cache-cold 4-level fused batch \
                 {lattice_ms:.1} ms vs single-level direct pass {single_ms:.1} ms — x{factor:.2} \
                 (limit x{:.2}; naive per-level passes {per_level_ms:.1} ms = x{naive:.2}) {}",
                args.assert_lattice_within,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("lattice gate failed: the fused batch exceeded the allowed factor");
            std::process::exit(1);
        }
    }

    // CI gate: a cache-warm batch touches result-sized tables only — no
    // fact row, no decode — so it must cost a small fraction of the cold
    // run beside it. A same-run ratio: no millisecond constant to age.
    if args.assert_lattice_warm_within > 0.0 {
        let mut failed = false;
        for (n, d, threads, cold_ms, [warm_ms, ..]) in &lattice_gate {
            let fraction = warm_ms / cold_ms.max(1e-9);
            let ok = fraction <= args.assert_lattice_warm_within;
            println!(
                "lattice warm gate n={n} d={d} threads={threads}: cache-warm batch {warm_ms:.2} ms \
                 vs its cache-cold run {cold_ms:.1} ms — x{fraction:.3} (limit x{:.3}) {}",
                args.assert_lattice_warm_within,
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("lattice warm gate failed: the cached path costs too much of the scan");
            std::process::exit(1);
        }
    }
}
