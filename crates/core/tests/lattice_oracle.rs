//! Differential oracle for the one-scan lattice evaluator and the level
//! cache it shares with `Hpct` (DESIGN.md "The level cache").
//!
//! The lattice path — one scan feeding every lattice level, through radix
//! projection when the plan fuses, levels cached and re-aggregated for
//! coarser queries — must be *indistinguishable* from the naive per-level
//! evaluator. Every test here compares the two end to end, handing its
//! engines the configurations that change which kernel actually runs:
//!
//! * `threads` 1/2/4 — serial vs morsel-parallel scan with the
//!   deterministic worker-order merge;
//! * `dense_budget` high/1 — dense radix jump tables vs shift-packed
//!   wide codes with mask-and-shift projection;
//! * the naive reference (`crates/engine/tests/support/reference.rs`) —
//!   each level grouped through a tuple map, one `Acc::update` per row;
//! * lanes — the term sums alone, distributive extras, and the holistic
//!   extras (median, percentiles, approximate count-distinct) that ride
//!   the same scan at the levels whose results read them;
//! * cache states — cold, warm (every level an exact cached table),
//!   ancestor-only (levels re-aggregated from a cached finer one and
//!   stored back), evicted by the byte bound, invalidated by an append.
//!
//! Measures are integer-valued floats, so sums are exact under any
//! regrouping and the comparison is byte identity (after the canonical
//! key sort both evaluators end with), not an epsilon.
//!
//! A proptest closes the loop at the kernel layer: on random tables,
//! aggregating a level by *projecting* the finest composite code must
//! equal *coding that level directly* (independent per-level hash
//! aggregation), on both sides of the dense budget.
//!
//! The golden snapshot in `tests/golden/lattice_explain.txt` pins the
//! EXPLAIN rendering of a CUBE plan — per-set headers and per-level
//! `-- lattice:` source lines. Regenerate with `UPDATE_GOLDEN=1`.

use pa_core::{
    eval_vpct, eval_vpct_lattice_guarded, HorizontalOptions, PercentageEngine, VpctQuery,
    VpctStrategy, VpctTerm,
};
use pa_engine::{
    lattice_aggregate_with_config, multi_hash_aggregate_with_config, AggFunc, AggSpec, ExecStats,
    Expr, ParallelConfig, ResourceGuard,
};
use pa_storage::{Catalog, DataType, Schema, Table, Value};
use proptest::prelude::*;

#[path = "../../engine/tests/support/reference.rs"]
mod reference;

/// `threads` workers over morsels small enough that these tables really
/// split.
fn workers(threads: usize, morsel_rows: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows,
        min_parallel_rows: 1,
        ..ParallelConfig::serial()
    }
}

/// ~12k-row fact table: three enumerable dimensions with NULLs and an
/// integer-valued float measure (NULLs too). Big enough that parallel
/// scans genuinely split, small enough to aggregate naively as an oracle.
fn fact_catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("dweek", DataType::Int),
        ("salesAmt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let n = 12_000usize;
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        t.push_row(&[
            if i % 23 == 0 {
                Value::Null
            } else {
                Value::str(format!("st{}", (i * 7919) % 5))
            },
            Value::str(format!("ci{}", (i * 31) % 13)),
            if i % 17 == 0 {
                Value::Null
            } else {
                Value::Int((i % 7) as i64)
            },
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Float((i % 97) as f64)
            },
        ])
        .unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("sales", t).unwrap();
    catalog
}

/// A three-term query spanning the lattice: totals at (state), (state,
/// city), and the grand total, all over GROUP BY (state, city, dweek).
fn lattice_query() -> VpctQuery {
    VpctQuery {
        table: "sales".into(),
        group_by: vec!["state".into(), "city".into(), "dweek".into()],
        terms: vec![
            VpctTerm::new("salesAmt", &["city", "dweek"]),
            VpctTerm::new("salesAmt", &["dweek"]),
            VpctTerm::new("salesAmt", &["state", "city", "dweek"]),
        ],
        extra: Vec::new(),
    }
}

fn sorted_rows(t: &Table, key_cols: usize) -> Vec<Vec<Value>> {
    let cols: Vec<usize> = (0..key_cols).collect();
    t.sorted_by(&cols).rows().collect()
}

#[test]
fn fused_lattice_matches_per_level_reference() {
    let q = lattice_query();
    // The reference runs serial on its own catalog once.
    let reference = {
        let catalog = fact_catalog();
        let serial = PercentageEngine::new(&catalog).with_config(ParallelConfig::serial());
        let flat = serial.vpct_with(&q, &VpctStrategy::best()).unwrap();
        sorted_rows(&flat.snapshot(), 3)
    };
    for threads in [1usize, 2, 4] {
        // High budget exercises the dense radix jump tables; budget 1
        // refuses the dense space and forces wide mask-and-shift codes.
        for dense_budget in [1usize << 20, 1] {
            let catalog = fact_catalog();
            let engine = PercentageEngine::new(&catalog).with_config(ParallelConfig {
                dense_budget,
                ..workers(threads, 1024)
            });
            let cold = engine.vpct(&q).unwrap();
            assert!(
                cold.stats.levels_from_scan > 0,
                "threads={threads} budget={dense_budget}: cold run must scan"
            );
            // Same catalog, second run: the scanned partials are cached.
            let warm = engine.vpct(&q).unwrap();
            assert_eq!(
                warm.stats.levels_from_scan, 0,
                "threads={threads} budget={dense_budget}: warm run must not scan"
            );
            assert!(warm.stats.levels_from_cache > 0);
            let cold = sorted_rows(&cold.snapshot(), 3);
            let warm = sorted_rows(&warm.snapshot(), 3);
            assert_eq!(
                cold, reference,
                "cold lattice diverged (threads={threads} budget={dense_budget})"
            );
            assert_eq!(
                warm, reference,
                "warm (cached) lattice diverged (threads={threads} budget={dense_budget})"
            );
        }
    }
}

/// [`lattice_query`] by the naive reference: per term, each group's sum
/// over its total at the GROUP BY columns the term's BY leaves (NULL for a
/// NULL sum or a zero or NULL total), rows sorted by key.
fn reference_lattice_query(t: &Table) -> Vec<Vec<Value>> {
    let sum = [AggSpec::new(AggFunc::Sum, Expr::Col(3), "s")];
    let rows = || reference::Rows::all(t.num_rows());
    let fine = reference::aggregate(t, &rows(), &[0, 1, 2], &sum, 0);
    // The totals of each term: (state), (state, city), ().
    let totals: Vec<(Vec<usize>, Table)> = [vec![0], vec![0, 1], vec![]]
        .into_iter()
        .map(|cols| {
            let level = reference::aggregate(t, &rows(), &cols, &sum, 0);
            (cols, level)
        })
        .collect();
    let pct = |row: &[Value], (cols, level): &(Vec<usize>, Table)| {
        let at = |total: &Vec<Value>| {
            cols.iter()
                .enumerate()
                .all(|(i, &c)| total[i].key_eq(&row[c]))
        };
        let total = level
            .rows()
            .find(at)
            .and_then(|total| total[cols.len()].as_f64());
        match (row[3].as_f64(), total.filter(|&x| x != 0.0)) {
            (Some(x), Some(total)) => Value::Float(x / total),
            _ => Value::Null,
        }
    };
    let rows = fine.rows().map(|row| {
        let pcts = totals.iter().map(|term| pct(&row, term));
        row[..3].iter().cloned().chain(pcts).collect::<Vec<Value>>()
    });
    let mut rows: Vec<Vec<Value>> = rows.collect();
    rows.sort_by(|a, b| {
        (0..3)
            .map(|c| a[c].total_cmp(&b[c]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

#[test]
fn the_lattice_matches_the_naive_reference() {
    let q = lattice_query();
    let catalog = fact_catalog();
    let engine = PercentageEngine::new(&catalog).with_config(ParallelConfig::serial());
    let lattice = sorted_rows(&engine.vpct(&q).unwrap().snapshot(), 3);
    let want = reference_lattice_query(&catalog.table("sales").unwrap().read());
    assert_eq!(lattice, want, "the lattice vs the naive reference");
}

#[test]
fn batch_prefixes_match_solo_queries() {
    let two = ParallelConfig::with_threads(2);
    let dims = ["state", "city", "dweek"];
    // Query j: percentages of each finest group against the totals at
    // prefix dims[..j] — the percentage_batch shape.
    let queries: Vec<VpctQuery> = (0..dims.len())
        .map(|j| VpctQuery {
            table: "sales".into(),
            group_by: dims.iter().map(|d| d.to_string()).collect(),
            terms: vec![VpctTerm::new("salesAmt", &dims[j..])],
            extra: Vec::new(),
        })
        .collect();
    let catalog = fact_catalog();
    let engine = PercentageEngine::new(&catalog).with_config(two);
    let batch = engine.vpct_batch(&queries).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (j, (q, r)) in queries.iter().zip(&batch).enumerate() {
        let solo_catalog = fact_catalog();
        let solo = PercentageEngine::new(&solo_catalog).with_config(two);
        let solo = solo.vpct_with(q, &VpctStrategy::best()).unwrap();
        assert_eq!(
            sorted_rows(&r.snapshot(), 3),
            sorted_rows(&solo.snapshot(), 3),
            "batch prefix {j} diverged from the standalone query"
        );
    }
}

const CUBE_SQL: &str = "SELECT state, city, Vpct(salesAmt BY city) AS p \
                        FROM sales GROUP BY CUBE (state, city);";

#[test]
fn cube_sql_matches_the_serial_per_set_plan() {
    // Fused, parallel, and (second run) cache-served...
    let fused = {
        let catalog = fact_catalog();
        let engine = PercentageEngine::new(&catalog).with_config(workers(4, 1024));
        let cold = engine.execute_sql(CUBE_SQL).unwrap();
        let cold_rows: Vec<Vec<Value>> = cold.table().read().sorted_by(&[0, 1]).rows().collect();
        let warm = engine.execute_sql(CUBE_SQL).unwrap();
        assert_eq!(
            warm.stats().levels_from_scan,
            0,
            "warm CUBE must serve every level from cache"
        );
        let warm_rows: Vec<Vec<Value>> = warm.table().read().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(cold_rows, warm_rows, "CUBE cache-warm rerun diverged");
        cold_rows
    };
    // ...must match a serial per-set evaluation from scratch, on the hash
    // tier.
    let catalog = fact_catalog();
    let engine = PercentageEngine::new(&catalog).with_config(ParallelConfig {
        dense_budget: 0,
        ..ParallelConfig::serial()
    });
    let best = (&VpctStrategy::best(), &HorizontalOptions::default());
    let per_set = engine.execute_sql_with(CUBE_SQL, best.0, best.1).unwrap();
    assert_eq!(per_set.stats().lattice_levels, 0, "the per-set plan");
    let per_set: Vec<Vec<Value>> = per_set.table().read().sorted_by(&[0, 1]).rows().collect();
    assert_eq!(fused, per_set, "CUBE fused/parallel vs per-set/serial");
}

/// Seeded ~3k-row fact table for the statement-level oracle: a string
/// dimension and an integer one with NULLs, a NULL-able integer-valued
/// measure, a region whose amounts cancel to a zero total (`zero`) and one
/// whose amounts are all NULL (`void`).
fn oracle_catalog(seed: u64) -> Catalog {
    let schema = Schema::from_pairs(&[
        ("region", DataType::Str),
        ("store", DataType::Int),
        ("day", DataType::Int),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    let mut state = seed;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for i in 0..3_000i64 {
        let region = match next(7) {
            0 => Value::Null,
            1 => Value::str("zero"),
            2 => Value::str("void"),
            r => Value::str(format!("r{r}")),
        };
        let amt = match &region {
            Value::Str(s) if s.as_ref() == "zero" => {
                Value::Float(if i % 2 == 0 { 5.0 } else { -5.0 })
            }
            Value::Str(s) if s.as_ref() == "void" => Value::Null,
            _ if next(13) == 0 => Value::Null,
            _ => Value::Float(next(500) as f64),
        };
        let store = match next(11) {
            0 => Value::Null,
            s => Value::Int(s as i64),
        };
        t.push_row(&[region, store, Value::Int(next(5) as i64), amt])
            .unwrap();
    }
    // `zero` holds an even number of rows per (store, day) only by luck:
    // pin the whole region's total to zero with one balancing row.
    let zero_sum: f64 = t
        .rows()
        .filter(|r| r[0] == Value::str("zero"))
        .filter_map(|r| r[3].as_f64())
        .sum();
    t.push_row(&[
        Value::str("zero"),
        Value::Int(1),
        Value::Int(0),
        Value::Float(-zero_sum),
    ])
    .unwrap();
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    catalog
}

/// ROLLUP, CUBE, GROUPING SETS and a flat multi-term statement: un-aliased
/// terms (their generated names embed the per-set BY list), and one with
/// extra aggregates beside the percentage.
const ORACLE_SQL: [&str; 4] = [
    "SELECT region, store, day, Vpct(amt BY day) FROM f GROUP BY ROLLUP (region, store, day);",
    "SELECT region, store, Vpct(amt BY store) AS p, sum(amt) AS s, count(*) AS n FROM f \
     GROUP BY CUBE (region, store);",
    "SELECT region, store, day, Vpct(amt BY store, day) FROM f \
     GROUP BY GROUPING SETS ((region, store, day), (region, day), (day));",
    "SELECT region, day, Vpct(amt BY day) AS a, Vpct(amt) AS b FROM f GROUP BY region, day;",
];

/// Seeds only the finest level (and the grand total) of the extra-free
/// statements above, so their other levels must re-aggregate it.
const SEED_FINEST_SQL: &str = "SELECT region, store, day, Vpct(amt BY region, store, day) AS x \
                               FROM f GROUP BY GROUPING SETS ((region, store, day));";

/// Result rows in a canonical order (every column a sort key: a rolled-up
/// NULL and a NULL dimension value may share their key columns).
fn canonical(t: &Table) -> Vec<Vec<Value>> {
    sorted_rows(t, t.num_columns())
}

fn drop_lattice_cache(catalog: &Catalog) {
    let view = catalog.pin_table("f").unwrap();
    catalog.lattice_cache().invalidate_table(view.alias());
}

#[test]
fn statements_are_byte_identical_across_cache_states_and_to_the_per_set_plan() {
    for threads in [1usize, 4] {
        let catalog = oracle_catalog(0x5eed + threads as u64);
        let engine = PercentageEngine::new(&catalog).with_config(workers(threads, 256));
        // The per-set plan under an explicit strategy never reaches the
        // lattice evaluator or its cache.
        let per_set = |sql: &str| {
            let out = engine
                .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                .unwrap();
            assert_eq!(out.stats().lattice_levels, 0);
            canonical(&out.table().read())
        };
        for sql in ORACLE_SQL {
            let ctx = format!("threads={threads} {sql}");
            let reference = per_set(sql);
            let has_extras = sql.contains("count(*)");

            drop_lattice_cache(&catalog);
            let cold = engine.execute_sql(sql).unwrap();
            assert!(cold.stats().levels_from_scan > 0, "{ctx}");
            assert_eq!(canonical(&cold.table().read()), reference, "cold: {ctx}");

            // Warm: every level is an exact hit, and the statement's result
            // is a value — nothing reaches the log.
            let before = catalog.lattice_cache().stats();
            let warm = engine.execute_sql(sql).unwrap();
            let after = catalog.lattice_cache().stats();
            assert_eq!(after.misses, before.misses, "warm lookups all hit: {ctx}");
            assert!(after.hits > before.hits, "{ctx}");
            let stats = warm.stats();
            assert_eq!(stats.levels_from_scan, 0, "{ctx}");
            assert_eq!(stats.levels_from_cache, stats.lattice_levels, "{ctx}");
            assert_eq!(stats.wal_records, 0, "{ctx}");
            assert_eq!(canonical(&warm.table().read()), reference, "warm: {ctx}");

            // Ancestor-only: nothing but the finest level is cached. Roots
            // carrying extras cannot re-aggregate, so that statement scans.
            drop_lattice_cache(&catalog);
            engine.execute_sql(SEED_FINEST_SQL).unwrap();
            let derived = engine.execute_sql(sql).unwrap();
            if !has_extras {
                assert_eq!(derived.stats().levels_from_scan, 0, "ancestor-only: {ctx}");
            }
            assert_eq!(
                canonical(&derived.table().read()),
                reference,
                "ancestor-only: {ctx}"
            );
            // ...and the derived levels were stored back: exact next time.
            let again = engine.execute_sql(sql).unwrap();
            let stats = again.stats();
            assert_eq!(stats.levels_from_cache, stats.lattice_levels, "{ctx}");
            assert_eq!(
                canonical(&again.table().read()),
                reference,
                "stored back: {ctx}"
            );
        }

        // An append invalidates every cached level: the answers move with
        // the data and still match the plan that never touches the cache.
        let before: Vec<_> = ORACLE_SQL.iter().map(|sql| per_set(sql)).collect();
        engine
            .append_rows(
                "f",
                &[
                    vec![
                        Value::str("r3"),
                        Value::Int(2),
                        Value::Int(1),
                        Value::Float(77.0),
                    ],
                    vec![
                        Value::str("new"),
                        Value::Null,
                        Value::Int(4),
                        Value::Float(1.0),
                    ],
                ],
            )
            .unwrap();
        for (i, (sql, old)) in ORACLE_SQL.iter().zip(before).enumerate() {
            let out = engine.execute_sql(sql).unwrap();
            // (Later statements may share what the first one cached anew.)
            assert!(
                i > 0 || out.stats().levels_from_scan > 0,
                "append leaves nothing cached"
            );
            let rows = canonical(&out.table().read());
            assert_ne!(rows, old, "the appended rows show: {sql}");
            assert_eq!(rows, per_set(sql), "after append: threads={threads} {sql}");
        }
    }
}

/// `oracle_catalog`'s rows with two more dimensions: `rate`, a `Float`
/// with NULLs, and `acct`, account ids a billion apart (and NULL) whose
/// key space no dense table spans.
fn warm_catalog(seed: u64) -> Catalog {
    let base = oracle_catalog(seed).table("f").unwrap().read().clone();
    let schema = Schema::from_pairs(&[
        ("region", DataType::Str),
        ("store", DataType::Int),
        ("day", DataType::Int),
        ("amt", DataType::Float),
        ("rate", DataType::Float),
        ("acct", DataType::Int),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, base.num_rows());
    for (i, mut row) in base.rows().enumerate() {
        row.push(match i % 9 {
            0 => Value::Null,
            k => Value::Float(0.25 * (k % 3) as f64),
        });
        row.push(match i % 8 {
            0 => Value::Null,
            k => Value::Int((k % 4) as i64 * 1_000_000_007),
        });
        t.push_row(&row).unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    catalog
}

/// Flat single-term `Vpct` statements of every shape the lattice request
/// takes: no extras (the `zero` and `void` regions give zero and NULL
/// totals), distributive extras, exact and approximate holistic extras, an
/// empty `BY`, a row-count `Vpct(1)`, a `Float` dimension and a wide key.
const SINGLE_TERM_SQL: [&str; 8] = [
    "SELECT region, store, Vpct(amt BY store) FROM f GROUP BY region, store;",
    "SELECT region, day, Vpct(amt BY day) AS p, sum(amt) AS s, count(*) AS n FROM f \
     GROUP BY region, day;",
    "SELECT store, day, Vpct(amt BY day) AS p, median(amt) AS med, percentile(amt, 0.9) AS p90 \
     FROM f GROUP BY store, day;",
    "SELECT region, store, Vpct(amt BY store) AS p, approx_percentile(amt, 0.5) AS apx, \
     approx_count_distinct(day) AS days FROM f GROUP BY region, store;",
    "SELECT region, Vpct(amt) FROM f GROUP BY region;",
    "SELECT region, day, Vpct(1 BY day) AS share FROM f GROUP BY region, day;",
    "SELECT rate, day, Vpct(amt BY rate) AS p FROM f GROUP BY rate, day;",
    "SELECT acct, region, Vpct(amt BY region) AS p FROM f GROUP BY acct, region;",
];

/// Every knob-less `Vpct` is one lattice request, whatever its term count:
/// cold it scans, warm it reads no fact row, and either way its answer is
/// the per-set plan's (`VpctStrategy::best()`, which never touches the
/// cache) bit for bit, the rows in another order. The plan's EXPLAIN names
/// the flip from `<- scan` to `<- cache`.
#[test]
fn every_knob_less_vpct_is_warm() {
    for threads in [1usize, 4] {
        let catalog = warm_catalog(0x3a3 + threads as u64);
        let engine = PercentageEngine::new(&catalog).with_config(workers(threads, 256));
        for sql in SINGLE_TERM_SQL {
            let ctx = format!("threads={threads} {sql}");
            let per_set = engine
                .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                .unwrap();
            assert_eq!(per_set.stats().lattice_levels, 0, "{ctx}");
            let reference = cell_bits(canonical(&per_set.table().read()));

            drop_lattice_cache(&catalog);
            let explain = |sql: &str| engine.explain_sql(sql).unwrap().join("\n");
            assert!(explain(sql).contains("-- lattice: level ("), "{ctx}");
            assert!(!explain(sql).contains("<- cache"), "{ctx}");
            let cold = engine.execute_sql(sql).unwrap();
            assert!(cold.stats().levels_from_scan > 0, "{ctx}");
            assert_eq!(
                cell_bits(canonical(&cold.table().read())),
                reference,
                "cold: {ctx}"
            );
            assert!(!explain(sql).contains("<- scan"), "{ctx}");

            let warm = engine.execute_sql(sql).unwrap();
            let stats = warm.stats();
            assert_eq!(stats.levels_from_scan, 0, "{ctx}");
            assert_eq!(stats.levels_from_cache, stats.lattice_levels, "{ctx}");
            assert_eq!(
                cell_bits(canonical(&warm.table().read())),
                reference,
                "warm: {ctx}"
            );
            // Rows come in key order, as every lattice statement's do: by
            // the level's columns in normalized (lower-cased, sorted) order.
            let t = warm.table().read().clone();
            let group_by = sql.split("GROUP BY ").nth(1).unwrap();
            let group_by: Vec<&str> = group_by.trim_end_matches(';').split(", ").collect();
            let mut key: Vec<usize> = (0..group_by.len()).collect();
            key.sort_by_key(|&c| group_by[c].to_ascii_lowercase());
            let in_key_order: Vec<Vec<Value>> = t.sorted_by(&key).rows().collect();
            assert_eq!(t.rows().collect::<Vec<_>>(), in_key_order, "{ctx}");
        }
    }
}

/// Statements that share a level but not their extras keep an entry each:
/// run round-robin, all three are warm from the second round on. A
/// statement whose lanes serve one of those entries replaces that entry
/// alone, and a statement with a `WHERE` stores nothing.
#[test]
fn statements_sharing_a_level_keep_an_entry_each() {
    let extras = [
        "sum(amt) AS s",
        "count(*) AS n",
        "median(amt) AS med",
        "count(*) AS n, max(amt) AS top",
    ];
    let sql = |extra: &str| {
        format!("SELECT region, day, Vpct(amt BY day) AS p, {extra} FROM f GROUP BY region, day;")
    };
    for threads in [1usize, 4] {
        let catalog = warm_catalog(0x77 + threads as u64);
        let engine = PercentageEngine::new(&catalog).with_config(workers(threads, 256));
        let cache = catalog.lattice_cache();
        let reference = |sql: &str| {
            let out = engine
                .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                .unwrap();
            cell_bits(canonical(&out.table().read()))
        };
        for round in 0..3 {
            for extra in &extras[..3] {
                let (sql, ctx) = (sql(extra), format!("threads={threads} round={round}"));
                let out = engine.execute_sql(&sql).unwrap();
                let scanned = out.stats().levels_from_scan;
                assert_eq!(scanned > 0, round == 0, "{ctx} {extra}");
                let rows = cell_bits(canonical(&out.table().read()));
                assert_eq!(rows, reference(&sql), "{ctx} {extra}");
            }
        }
        // Three entries at the root `(day, region)`, one sums-only totals
        // level `(region)` beside them.
        let entries = cache.len();
        assert_eq!(entries, 4, "threads={threads}");
        // `count(*), max(amt)` serves the `count(*)` entry: it replaces
        // that one, and every statement stays warm.
        let wider = engine.execute_sql(&sql(extras[3])).unwrap();
        assert!(wider.stats().levels_from_scan > 0);
        assert_eq!(cache.len(), entries, "threads={threads}");
        for extra in extras {
            let out = engine.execute_sql(&sql(extra)).unwrap();
            assert_eq!(out.stats().levels_from_scan, 0, "threads={threads} {extra}");
        }
        // A `WHERE` statement is cached under no key.
        let filtered = "SELECT region, day, Vpct(amt BY day) AS p FROM f WHERE store > 2 \
                        GROUP BY region, day;";
        drop_lattice_cache(&catalog);
        for _ in 0..2 {
            let out = engine.execute_sql(filtered).unwrap();
            assert!(out.stats().levels_from_scan > 0, "threads={threads}");
            let rows = cell_bits(canonical(&out.table().read()));
            assert_eq!(rows, reference(filtered), "threads={threads}");
        }
        assert_eq!(cache.len(), 0, "threads={threads}: a WHERE stores nothing");
    }
}

/// A fact table for the assembly's seams: `a` takes 67 values (so no set
/// is a whole number of 64-row validity words), `s` is a string dimension
/// with NULLs whose values first appear, in the `(m, s)` level, out of
/// string order (`m = 0` holds only `"y"`), so that level's dictionary and
/// the `(s)` level's differ, `n` is a string dimension holding only NULLs.
fn seam_catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("s", DataType::Str),
        ("n", DataType::Str),
        ("m", DataType::Int),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..2_011i64 {
        let m = i % 5;
        let s = match (m, i % 7) {
            (0, _) => Value::str("y"),
            (_, 0) => Value::Null,
            (_, k) => Value::str(["w", "x", "y", "z"][k as usize % 4]),
        };
        let amt = match i % 13 {
            0 => Value::Null,
            k => Value::Float((k * 37 % 101) as f64 - 20.0),
        };
        t.push_row(&[Value::Int(i * 31 % 67), s, Value::Null, Value::Int(m), amt])
            .unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    catalog
}

/// Statements whose sets meet the assembly's seams: a string dimension the
/// first set rolls away and later sets hold, beside `sum` / `count(*)`
/// extras and the skipped empty set; an all-NULL string key; two levels of
/// one string column with different dictionaries; and a `WHERE` no row
/// passes, whose every set is empty.
const SEAM_SQL: [&str; 4] = [
    "SELECT s, a, Vpct(amt BY a) AS p, sum(amt) AS t, count(*) AS k FROM f \
     GROUP BY GROUPING SETS ((a), (s, a), (s), ());",
    "SELECT n, s, a, Vpct(amt BY s) AS p FROM f GROUP BY ROLLUP (n, s, a);",
    "SELECT m, s, Vpct(amt BY s) AS p, Vpct(amt) AS q FROM f \
     GROUP BY GROUPING SETS ((m, s), (s));",
    "SELECT s, a, Vpct(amt BY a) AS p FROM f WHERE amt > 1000 GROUP BY ROLLUP (s, a);",
];

/// Every cell of `t`, floats by their bits: `-0.0` is not `0.0` here, and
/// a NULL is not a NaN.
fn cell_bits(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let bits = |v: Value| match v {
        Value::Float(x) => Value::Int(x.to_bits() as i64),
        other => other,
    };
    (rows.into_iter())
        .map(|r| r.into_iter().map(bits).collect())
        .collect()
}

/// The lattice assembler writes every result column sized once, a key
/// column as a copy of the level's, a rolled-away dimension as one NULL run
/// and each percentage straight into its place. Cold and warm, at threads 1
/// and 4, each statement's result is structurally sound and equals the
/// per-set plan's bit for bit; a warm result equals the cold one row for
/// row.
#[test]
fn the_assembled_result_matches_the_per_set_plan_at_every_seam() {
    for threads in [1usize, 4] {
        let catalog = seam_catalog();
        let engine = PercentageEngine::new(&catalog).with_config(workers(threads, 64));
        let mut seams = 0;
        for sql in SEAM_SQL {
            let ctx = format!("threads={threads} {sql}");
            let per_set = engine
                .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                .unwrap();
            assert_eq!(per_set.stats().lattice_levels, 0, "{ctx}");
            let reference = cell_bits(canonical(&per_set.table().read()));

            drop_lattice_cache(&catalog);
            let cold = engine.execute_sql(sql).unwrap();
            let warm = engine.execute_sql(sql).unwrap();
            let selected = sql.contains("WHERE");
            assert_eq!(warm.stats().levels_from_scan == 0, !selected, "{ctx}");
            let (cold, warm) = (cold.table().read().clone(), warm.table().read().clone());
            for (run, t) in [("cold", &cold), ("warm", &warm)] {
                t.check_integrity().unwrap();
                assert_eq!(cell_bits(canonical(t)), reference, "{run}: {ctx}");
            }
            assert_eq!(
                cell_bits(warm.rows().collect()),
                cell_bits(cold.rows().collect())
            );
            // Sets end inside validity words, the first one past a word.
            match selected {
                true => assert_eq!(cold.num_rows(), 0, "{ctx}"),
                false => assert_ne!(cold.num_rows() % 64, 0, "{ctx}"),
            }
            seams += cold.num_rows();
        }
        assert!(seams > 4 * 64, "threads={threads}: {seams} rows");
    }
}

/// A float dimension whose values grouping merges although their bits
/// differ: `0.0` with `-0.0` and, in `y`, a NaN with a NaN of the other
/// sign. The two spellings sit beside different `s` values, so the `(x, s)`
/// level keeps both while the `(x)` level keeps one. Every lattice
/// statement must find each group's totals row, cold and warm, at threads
/// 1 and 4, and answer as the per-term plan does.
#[test]
fn float_keys_grouping_merges_find_their_totals() {
    let schema = Schema::from_pairs(&[
        ("s", DataType::Str),
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("m", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    let rows = [
        ("a", 0.0, f64::NAN, 1.0),
        ("b", -0.0, -f64::NAN, 3.0),
        ("b", 1.5, 2.0, 2.0),
        ("a", 1.5, -f64::NAN, 6.0),
    ];
    for (s, x, y, m) in rows {
        let row = [
            Value::str(s),
            Value::Float(x),
            Value::Float(y),
            Value::Float(m),
        ];
        t.push_row(&row).unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    let statements = [
        "SELECT x, s, Vpct(m BY s) AS p, Vpct(m BY x) AS q FROM f GROUP BY x, s;",
        "SELECT x, s, Vpct(m BY s) AS p FROM f GROUP BY ROLLUP (x, s);",
        "SELECT y, s, Vpct(m BY s) AS p, Vpct(m BY y) AS q FROM f GROUP BY y, s;",
        "SELECT y, s, Vpct(m BY s) AS p FROM f GROUP BY ROLLUP (y, s);",
    ];
    for threads in [1usize, 4] {
        let engine = PercentageEngine::new(&catalog).with_config(workers(threads, 1));
        for sql in statements {
            let ctx = format!("threads={threads} {sql}");
            let per_term = engine
                .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                .unwrap();
            let reference = cell_bits(canonical(&per_term.table().read()));
            drop_lattice_cache(&catalog);
            for run in ["cold", "warm"] {
                let out = engine
                    .execute_sql(sql)
                    .unwrap_or_else(|e| panic!("{run}: {ctx}: {e}"));
                assert!(out.stats().lattice_levels > 0, "{run}: {ctx}");
                let got = cell_bits(canonical(&out.table().read()));
                assert_eq!(got, reference, "{run}: {ctx}");
            }
        }
    }
    // The programmatic entry, on the signed zeros.
    let q = VpctQuery {
        table: "f".into(),
        group_by: vec!["x".into(), "s".into()],
        terms: vec![VpctTerm::new("m", &["s"]), VpctTerm::new("m", &["x"])],
        extra: Vec::new(),
    };
    drop_lattice_cache(&catalog);
    let lattice =
        eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
    let per_term = PercentageEngine::new(&catalog)
        .vpct_with(&q, &VpctStrategy::best())
        .unwrap();
    assert_eq!(
        cell_bits(canonical(&lattice.snapshot())),
        cell_bits(canonical(&per_term.snapshot()))
    );
}

/// ROLLUP, CUBE and explicit sets carrying holistic extras: exact and
/// approximate percentiles, approximate count-distinct, and — the one lane
/// here the block loop does not read — an exact count-distinct.
const HOLISTIC_SQL: [&str; 4] = [
    "SELECT region, store, day, Vpct(amt BY day) AS p, median(amt) AS med, \
     percentile(amt, 0.9) AS p90 FROM f GROUP BY ROLLUP (region, store, day);",
    "SELECT region, store, Vpct(amt BY store) AS p, approx_percentile(amt, 0.5) AS apx, \
     approx_count_distinct(day) AS days FROM f GROUP BY CUBE (region, store);",
    "SELECT region, store, day, Vpct(amt BY store, day) AS p, median(amt) AS med, \
     approx_count_distinct(store) AS stores, count(*) AS n FROM f \
     GROUP BY GROUPING SETS ((region, store, day), (region, day), (day));",
    "SELECT region, day, Vpct(amt BY day) AS p, count(DISTINCT store) AS stores, \
     percentile(amt, 0.25) AS q1 FROM f GROUP BY ROLLUP (region, day);",
];

/// Holistic extras ride the lattice scan like any other lane: cold and
/// warm, on every kernel the knobs select, each statement's sets equal the
/// per-set plan (`eval_vpct` under `VpctStrategy::best()` per set) row for
/// row — the approximate lanes included, whose sketches see the same rows
/// in the same order under the same chunking.
#[test]
fn holistic_extras_ride_the_lattice_scan_cold_and_warm() {
    for threads in [1usize, 2, 4] {
        for dense_budget in [1usize << 20, 1] {
            let catalog = oracle_catalog(0xfeed + threads as u64);
            let rows = catalog.table("f").unwrap().read().num_rows() as u64;
            let engine = PercentageEngine::new(&catalog).with_config(ParallelConfig {
                dense_budget,
                ..workers(threads, 256)
            });
            for sql in HOLISTIC_SQL {
                let ctx = format!("threads={threads} budget={dense_budget} {sql}");
                let per_set = engine
                    .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
                    .unwrap();
                assert_eq!(per_set.stats().lattice_levels, 0, "{ctx}");
                let reference = canonical(&per_set.table().read());

                drop_lattice_cache(&catalog);
                let cold = engine.execute_sql(sql).unwrap();
                let stats = cold.stats();
                assert!(stats.holistic_lanes > 0, "{ctx}: {stats}");
                // One pass of `F`, whatever the lanes (every root
                // carries extras, so every root is scanned for); the
                // rest is a re-aggregated level's few rows.
                assert!(stats.levels_from_scan > 0, "{ctx}");
                assert!(
                    (rows..rows + rows / 2).contains(&stats.rows_scanned),
                    "{ctx}: {stats}"
                );
                // One stream, whatever the lanes: the exact
                // count-distinct rides it as an `Acc` lane.
                let loops = (stats.vectorized_kernel_rows, stats.scalar_kernel_rows);
                let one_stream = (rows..rows + rows / 2).contains(&loops.0);
                assert!(one_stream && loops.1 == 0, "{ctx}: {stats}");
                assert_eq!(canonical(&cold.table().read()), reference, "cold: {ctx}");

                let warm = engine.execute_sql(sql).unwrap();
                let stats = warm.stats();
                assert_eq!(stats.levels_from_scan, 0, "{ctx}");
                assert_eq!(stats.levels_from_cache, stats.lattice_levels, "{ctx}");
                assert_eq!(stats.holistic_lanes, 0, "{ctx}: nothing accumulated");
                assert_eq!(canonical(&warm.table().read()), reference, "warm: {ctx}");
            }
        }
    }
}

/// One cache: the level `(day)` a ROLLUP left behind *is* the combination
/// set of `Hpct … BY day` — the statement finds its combinations without a
/// pass and answers with a cold catalog's bits — and the converse never
/// holds: the zero-lane entry an `Hpct` stores satisfies no lattice lookup
/// that needs a sum, and is replaced by the level that has one.
#[test]
fn a_cached_level_serves_hpct_combinations_and_never_the_reverse() {
    let rollup = "SELECT day, store, Vpct(amt BY store) AS p FROM f GROUP BY ROLLUP (day, store);";
    let hpct = "SELECT region, Hpct(amt BY day) FROM f GROUP BY region;";
    for threads in [1usize, 2, 4] {
        let engine_over = |c| PercentageEngine::new(c).with_config(workers(threads, 256));
        let day = ["day".to_string()];
        let sum = ["sum(amt)".to_string()];
        let alias = |c: &Catalog| c.pin_table("f").unwrap().alias().to_string();

        // A cold catalog's answer, and what its combinations pass costs.
        let fresh = oracle_catalog(0xc0de);
        let rows = fresh.table("f").unwrap().read().num_rows() as u64;
        let cold = engine_over(&fresh).execute_sql(hpct).unwrap();
        let stats = cold.stats();
        assert_eq!((stats.combo_cache_hits, stats.combo_cache_misses), (0, 1));
        let reference = canonical(&cold.table().read());
        // What it stored serves its own kind only.
        let cache = fresh.lattice_cache();
        assert!(cache.probe(&alias(&fresh), &day, &[]));
        assert!(!cache.probe(&alias(&fresh), &day, &sum));
        let before = cache.stats();
        let after_hpct = engine_over(&fresh).execute_sql(rollup).unwrap();
        assert!(
            after_hpct.stats().levels_from_scan > 0,
            "a zero-lane `(day)` is no level to a ROLLUP"
        );
        assert!(cache.stats().misses > before.misses);
        assert!(
            cache.probe(&alias(&fresh), &day, &sum),
            "replaced, with lanes"
        );

        // ROLLUP first: its level `(day)` is the `Hpct`'s combination set.
        let catalog = oracle_catalog(0xc0de);
        let engine = engine_over(&catalog);
        let first = engine.execute_sql(rollup).unwrap();
        assert_eq!(
            canonical(&first.table().read()),
            canonical(&after_hpct.table().read()),
            "threads={threads}: the ROLLUP does not care who ran first"
        );
        let cache = catalog.lattice_cache();
        assert!(cache.probe(&alias(&catalog), &day, &sum));
        let before = cache.stats();
        let warm = engine.execute_sql(hpct).unwrap();
        let stats = warm.stats();
        assert_eq!((stats.combo_cache_hits, stats.combo_cache_misses), (1, 0));
        let passes = |s: &ExecStats| (s.rows_scanned, s.rows_charged);
        assert_eq!(
            passes(&cold.stats()),
            (stats.rows_scanned + rows, stats.rows_charged + rows),
            "no fact row read for the combinations"
        );
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        assert_eq!(after.entries, before.entries, "nothing stored beside it");
        assert_eq!(
            canonical(&warm.table().read()),
            reference,
            "threads={threads}"
        );
        // The level is still the ROLLUP's: the hit stored nothing over it.
        assert_eq!(
            engine.execute_sql(rollup).unwrap().stats().levels_from_scan,
            0
        );
    }
}

/// A level the byte bound evicted is a plain miss: the plan falls back to
/// a cached ancestor, or to the scan, and the answer does not move.
#[test]
fn an_evicted_level_falls_back_to_an_ancestor_or_the_scan() {
    let catalog = oracle_catalog(7);
    let engine = PercentageEngine::new(&catalog);
    let sql = ORACLE_SQL[0];
    let reference = canonical(&engine.execute_sql(sql).unwrap().table().read());
    let cache = catalog.lattice_cache();
    let alias = catalog.pin_table("f").unwrap().alias().to_string();
    let signature = &["sum(amt)".to_string()];
    let cols = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let finest = cols(&["day", "region", "store"]);
    let coarse = cols(&["region", "store"]);
    assert!(cache.probe(&alias, &finest, signature) && cache.probe(&alias, &coarse, signature));

    // Fill the cache with another table's levels until the byte bound has
    // pushed out everything this statement cached except what it touches
    // in between — here: the finest level only.
    let schema = Schema::from_pairs(&[("x", DataType::Int)])
        .unwrap()
        .into_shared();
    let mut big = Table::with_capacity(schema, 1 << 20);
    for i in 0..1i64 << 20 {
        big.push_row(&[Value::Int(i)]).unwrap();
    }
    let big = std::sync::Arc::new(big);
    let evictions = cache.stats().evictions;
    for i in 0.. {
        assert!(cache.get(&alias, &finest, signature).is_some(), "kept warm");
        if !cache.probe(&alias, &coarse, signature) {
            break;
        }
        assert!(i < 64, "64 x 8 MiB must overflow the budget");
        cache.store("other", &cols(&[&format!("l{i}")]), signature, big.clone());
    }
    assert!(cache.stats().evictions > evictions);
    let out = engine.execute_sql(sql).unwrap();
    assert_eq!(
        out.stats().levels_from_scan,
        0,
        "re-aggregated the finest level"
    );
    assert_eq!(canonical(&out.table().read()), reference);

    // Everything evicted: back to the scan, same answer.
    for i in 0..16 {
        cache.store("other", &cols(&[&format!("m{i}")]), signature, big.clone());
    }
    assert!(!cache.probe(&alias, &finest, signature));
    let out = engine.execute_sql(sql).unwrap();
    assert!(out.stats().levels_from_scan > 0);
    assert_eq!(canonical(&out.table().read()), reference);
}

/// A level's `parent` vectors are built once per (level, totals level)
/// pair and live beside the level: a warm request builds none, an append
/// drops them with the level (a group arriving in the middle of the key
/// order moves every later row), and a totals level that was evicted and
/// re-aggregated is still addressed correctly by the vector the finer
/// level kept. The reference is the join plan, which has no `parent`.
#[test]
fn parent_vectors_are_built_once_and_follow_their_level() {
    let catalog = oracle_catalog(21);
    let engine = PercentageEngine::new(&catalog);
    let cache = catalog.lattice_cache();
    let builds = || cache.stats().parent_builds;

    // A warm ROLLUP builds no parent vector.
    let rollup = ORACLE_SQL[0];
    engine.execute_sql(rollup).unwrap();
    let cold = builds();
    assert!(cold > 0, "a cold request builds them");
    let warm = engine.execute_sql(rollup).unwrap();
    assert_eq!(warm.stats().levels_from_scan, 0);
    assert_eq!(builds(), cold, "a warm ROLLUP builds none");

    let q = VpctQuery {
        table: "f".into(),
        group_by: vec!["region".into(), "store".into(), "day".into()],
        terms: vec![
            VpctTerm::new("amt", &["day"]),
            VpctTerm::new("amt", &["store", "day"]),
        ],
        extra: vec![],
    };
    let by_join = || {
        let out = eval_vpct(&catalog, &q, &VpctStrategy::without_index(), "j_").unwrap();
        sorted_rows(&out.snapshot(), 3)
    };
    let by_parent = || {
        let out =
            eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        (sorted_rows(&out.snapshot(), 3), out.stats)
    };
    let before = builds();
    assert_eq!(by_parent().0, by_join());
    assert_eq!(builds(), before + 2, "one per term's totals level");
    assert_eq!(by_parent().0, by_join());
    assert_eq!(builds(), before + 2);

    // A region that sorts between the ones there, a store below them all.
    let row = |region: &str, store: i64| {
        let (region, amt) = (Value::str(region), Value::Float(9.0));
        vec![region, Value::Int(store), Value::Int(2), amt]
    };
    engine
        .append_rows("f", &[row("r35", -4), row("a", 3)])
        .unwrap();
    let (rows, stats) = by_parent();
    assert!(stats.levels_from_scan > 0, "the append dropped the levels");
    assert_eq!(rows, by_join(), "after a group in the middle of the order");
    assert_eq!(builds(), before + 4, "and their parent vectors with them");

    // Push out both totals levels, keeping the finest one (and the vectors
    // beside it) warm: the next request re-aggregates the totals levels
    // into new tables and addresses them through the vectors it kept.
    let signature = &["sum(amt)".to_string()];
    let cols = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let finest = cols(&["day", "region", "store"]);
    let totals = [cols(&["region", "store"]), cols(&["region"])];
    let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
    let mut big = Table::with_capacity(schema.into_shared(), 1 << 20);
    for i in 0..1i64 << 20 {
        big.push_row(&[Value::Int(i)]).unwrap();
    }
    let big = std::sync::Arc::new(big);
    for i in 0.. {
        assert!(cache.get("f", &finest, signature).is_some(), "kept warm");
        if !totals.iter().any(|l| cache.probe("f", l, signature)) {
            break;
        }
        assert!(i < 64, "64 x 8 MiB must overflow the budget");
        cache.store("other", &cols(&[&format!("l{i}")]), signature, big.clone());
    }
    let (rows, stats) = by_parent();
    assert_eq!(stats.levels_from_scan, 0, "re-aggregated the finest level");
    assert_eq!(rows, by_join(), "after the totals levels were recomputed");
    assert_eq!(builds(), before + 4, "through the vectors the level kept");
}

/// Random small-domain rows for the kernel-level projection oracle.
#[derive(Debug, Clone)]
struct OracleRow {
    a: Option<i64>,
    b: Option<usize>,
    c: i64,
    m: Option<i64>,
}

fn oracle_rows(max: usize) -> impl Strategy<Value = Vec<OracleRow>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.9, 0..5i64),
            prop::option::weighted(0.9, 0..4usize),
            0..3i64,
            prop::option::weighted(0.85, -40..=40i64),
        )
            .prop_map(|(a, b, c, m)| OracleRow { a, b, c, m }),
        1..max,
    )
}

const CITIES: [&str; 4] = ["lyon", "turin", "graz", "brno"];

fn oracle_table(rows: &[OracleRow]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Str),
        ("c", DataType::Int),
        ("m", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, rows.len());
    for r in rows {
        t.push_row(&[
            Value::from(r.a),
            r.b.map_or(Value::Null, |i| Value::str(CITIES[i])),
            Value::Int(r.c),
            Value::from(r.m.map(|x| x as f64)),
        ])
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Radix projection == direct coding: aggregating each lattice level
    /// by projecting the finest composite code (dense jump table or wide
    /// mask-and-shift) must equal hashing that level's columns directly.
    #[test]
    fn radix_projection_matches_direct_coding(rows in oracle_rows(400)) {
        let t = oracle_table(&rows);
        let m = Expr::col(t.schema(), "m").unwrap();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, m.clone(), "s"),
            AggSpec::new(AggFunc::Count, m, "k"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        ];
        let group_cols = [0usize, 1, 2];
        // Every non-empty subset of the three dimensions.
        let levels: Vec<Vec<usize>> = (1usize..8)
            .map(|mask| (0..3).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        let ref_levels: Vec<(Vec<usize>, Vec<AggSpec>)> = levels
            .iter()
            .map(|dims| (dims.iter().map(|&d| group_cols[d]).collect(), aggs.clone()))
            .collect();
        let mut ref_st = ExecStats::default();
        let reference = multi_hash_aggregate_with_config(
            &t, &ref_levels, &ResourceGuard::unlimited(), &mut ref_st,
            &ParallelConfig::serial(),
        ).unwrap();
        for dense_budget in [1usize << 20, 1] {
            let config = ParallelConfig {
                threads: 1,
                morsel_rows: 64,
                min_parallel_rows: 0,
                dense_budget,
                ..ParallelConfig::serial()
            };
            let mut st = ExecStats::default();
            let fused = lattice_aggregate_with_config(
                &t, &group_cols, &aggs, &levels,
                &ResourceGuard::unlimited(), &mut st, &config,
            ).expect("well-formed levels");
            prop_assert_eq!(
                st.vectorized_kernel_rows, t.num_rows() as u64,
                "int/str keys and sum/count lanes always fuse into one stream"
            );
            for ((fused, reference), dims) in
                fused.into_iter().zip(&reference).zip(&levels)
            {
                let sort_cols: Vec<usize> = (0..dims.len()).collect();
                let a: Vec<Vec<Value>> = fused.rows().collect();
                let b: Vec<Vec<Value>> = reference.sorted_by(&sort_cols).rows().collect();
                prop_assert_eq!(a, b, "level {:?} budget {}", dims, dense_budget);
            }
        }
    }
}

/// Small fixed catalog for the deterministic EXPLAIN snapshot.
fn explain_catalog() -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("salesAmt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for (s, c, a) in [
        ("CA", "San Francisco", 83.0),
        ("CA", "Los Angeles", 23.0),
        ("TX", "Houston", 64.0),
        ("TX", "Dallas", 85.0),
    ] {
        t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
            .unwrap();
    }
    catalog.create_table("sales", t).unwrap();
    catalog
}

#[test]
fn golden_cube_explain_snapshot() {
    let catalog = explain_catalog();
    let engine = PercentageEngine::new(&catalog);
    let lines = engine.explain_sql(CUBE_SQL).unwrap();
    let got = lines.join("\n") + "\n";
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lattice_explain.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "EXPLAIN CUBE plan drifted from tests/golden/lattice_explain.txt \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}
