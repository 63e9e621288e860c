//! Concurrent percentage queries over one shared catalog — the paper's
//! closing future-work item ("an intensive database environment where users
//! concurrently submit percentage queries").
//!
//! Each thread runs its own [`PercentageEngine`]; a query's intermediates
//! are values it owns and the fact table is only read-locked, so queries
//! proceed in parallel, and every thread must see exactly the same answers
//! as a serial run.

use pa_engine::{AggSpec, Expr};
use percentage_aggregations::prelude::*;

#[path = "../crates/engine/tests/support/reference.rs"]
mod reference;

fn sales_catalog() -> Catalog {
    let catalog = Catalog::new();
    pa_workload::install_sales(
        &catalog,
        &SalesConfig {
            rows: 30_000,
            seed: 404,
        },
    )
    .unwrap();
    catalog
}

#[test]
fn parallel_vertical_queries_agree_with_serial() {
    let catalog = sales_catalog();
    let serial = {
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
        engine.vpct(&q).unwrap().snapshot().sorted_by(&[0, 1])
    };
    let results: Vec<Table> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let catalog = &catalog;
                scope.spawn(move || {
                    let engine = PercentageEngine::new(catalog);
                    let q = VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
                    let strat = if i % 2 == 0 {
                        VpctStrategy::best()
                    } else {
                        VpctStrategy::fj_from_f()
                    };
                    engine
                        .vpct_with(&q, &strat)
                        .unwrap()
                        .snapshot()
                        .sorted_by(&[0, 1])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, t) in results.iter().enumerate() {
        assert_eq!(t.num_rows(), serial.num_rows(), "thread {i}");
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                let (a, b) = (t.get(r, c), serial.get(r, c));
                // Strategies accumulate sums in different orders, so float
                // results may differ in the last ulps.
                let close = match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                    _ => a == b,
                };
                assert!(close, "thread {i} ({r},{c}): {a} vs {b}");
            }
        }
    }
}

#[test]
fn mixed_families_run_concurrently() {
    let catalog = sales_catalog();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..4 {
            let catalog = &catalog;
            handles.push(scope.spawn(move || {
                let engine = PercentageEngine::new(catalog);
                match i % 4 {
                    0 => {
                        let q =
                            VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
                        engine.vpct(&q).unwrap().snapshot().num_rows()
                    }
                    1 => {
                        let q = HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["dweek"]);
                        engine.horizontal(&q).unwrap().snapshot().num_rows()
                    }
                    2 => {
                        let q =
                            VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
                        engine.vpct_olap(&q).unwrap().snapshot().num_rows()
                    }
                    _ => {
                        let out = engine
                            .execute_sql(
                                "SELECT dept, Hpct(salesAmt BY dweek) FROM sales GROUP BY dept",
                            )
                            .unwrap();
                        let t = out.table();
                        let n = t.read().num_rows();
                        n
                    }
                }
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            let rows = h.join().unwrap();
            assert!(rows > 0, "thread {i}");
        }
    });
}

#[test]
fn update_strategy_is_isolated_per_engine_temps() {
    // UPDATE mutates the plan's own stored Fk — each concurrent plan its
    // own — never the shared fact table, and leaves no name behind.
    let catalog = sales_catalog();
    let before = catalog.table("sales").unwrap().read().num_rows();
    let q = VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
    let want = PercentageEngine::new(&catalog)
        .vpct_with(&q, &VpctStrategy::best())
        .unwrap()
        .snapshot()
        .sorted_by(&[0, 1]);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (catalog, q, want) = (&catalog, &q, &want);
            scope.spawn(move || {
                let engine = PercentageEngine::new(catalog);
                let got = engine.vpct_with(q, &VpctStrategy::with_update()).unwrap();
                let got = got.snapshot().sorted_by(&[0, 1]);
                assert_eq!(
                    got.rows().collect::<Vec<_>>(),
                    want.rows().collect::<Vec<_>>()
                );
            });
        }
    });
    assert_eq!(catalog.table_names(), ["sales"]);
    let f = catalog.table("sales").unwrap();
    let t = f.read();
    assert_eq!(t.num_rows(), before);
    // Measure column untouched (still raw sales amounts, not percentages).
    let amt = t.schema().index_of("salesAmt").unwrap();
    let any_large = (0..100).any(|r| t.get(r, amt).as_f64().unwrap() > 1.5);
    assert!(any_large, "fact table still holds raw amounts");
}

/// `Vpct(m BY d) … GROUP BY g, d` of `t` by the naive reference: each
/// group's sum over its `g` total (NULL for a NULL sum or a zero or NULL
/// total), rows sorted by key.
fn reference_vpct(t: &Table, g: usize, d: usize, m: usize) -> Vec<Vec<Value>> {
    let sum = [AggSpec::new(AggFunc::Sum, Expr::Col(m), "s")];
    let rows = || reference::Rows::all(t.num_rows());
    let totals = reference::aggregate(t, &rows(), &[g], &sum, 0);
    let total = |key: &Value| {
        let row = totals.rows().find(|row| row[0].key_eq(key));
        row.and_then(|row| row[1].as_f64()).filter(|&x| x != 0.0)
    };
    let fine = reference::aggregate(t, &rows(), &[g, d], &sum, 0);
    let mut want: Vec<Vec<Value>> = fine
        .rows()
        .map(|row| {
            let pct = match (row[2].as_f64(), total(&row[0])) {
                (Some(x), Some(total)) => Value::Float(x / total),
                _ => Value::Null,
            };
            vec![row[0].clone(), row[1].clone(), pct]
        })
        .collect();
    want.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    want
}

/// A statement's scan configuration is a value its engine was handed, not
/// process state: two engines over one catalog — one serial on the default
/// tiers, one at four threads on the hash tier — run the same statements
/// at the same moment, each on its own tier, to the same bytes, the naive
/// reference's for the flat `Vpct`. (Whole-cent amounts: their sums are
/// exact under any chunking.)
#[test]
fn engines_handed_different_configurations_run_side_by_side() {
    let mut sales = pa_workload::sales_table(&SalesConfig {
        rows: 30_000,
        seed: 404,
    });
    let amt = sales.schema().index_of("salesAmt").unwrap();
    for row in 0..sales.num_rows() {
        let cents = (sales.column(amt).get_f64(row).unwrap() * 100.0).round();
        sales.column_mut(amt).set(row, Value::Float(cents)).unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("sales", sales).unwrap();

    let statements = [
        "SELECT state, dweek, Vpct(salesAmt BY dweek) FROM sales \
         GROUP BY state, dweek ORDER BY state, dweek",
        "SELECT state, dweek, Vpct(salesAmt BY dweek) AS p FROM sales \
         GROUP BY ROLLUP (state, dweek) ORDER BY state, dweek",
        "SELECT dept, Hpct(salesAmt BY dweek) FROM sales GROUP BY dept ORDER BY dept",
    ];
    let configs = [
        ParallelConfig::with_threads(1),
        ParallelConfig {
            threads: 4,
            morsel_rows: 4096,
            min_parallel_rows: 1,
            dense_budget: 0,
            ..ParallelConfig::with_threads(1)
        },
    ];
    let start = std::sync::Barrier::new(configs.len());
    let run = |config: ParallelConfig| {
        let engine = PercentageEngine::new(&catalog).with_config(config);
        let mut stats = ExecStats::default();
        let mut answers = Vec::new();
        for sql in statements {
            start.wait();
            let out = engine.execute_sql(sql).unwrap();
            stats += out.stats();
            answers.push(out.table().read().rows().collect::<Vec<_>>());
        }
        (answers, stats)
    };
    let [(serial, serial_stats), (hashed, hashed_stats)] = std::thread::scope(|scope| {
        configs
            .map(|config| scope.spawn(move || run(config)))
            .map(|handle| handle.join().unwrap())
    });
    assert_eq!(serial, hashed);
    let t = catalog.table("sales").unwrap().read().clone();
    let col = |name| t.schema().index_of(name).unwrap();
    let want = reference_vpct(&t, col("state"), col("dweek"), amt);
    assert_eq!(serial[0], want, "the flat Vpct is the naive reference's");
    assert!(serial_stats.dense_group_ops > 0, "{serial_stats}");
    assert_eq!(serial_stats.scalar_kernel_rows, 0, "{serial_stats}");
    assert!(hashed_stats.hash_group_ops > 0, "{hashed_stats}");
    assert_eq!(hashed_stats.dense_group_ops, 0, "{hashed_stats}");
    assert_eq!(hashed_stats.scalar_kernel_rows, 0, "{hashed_stats}");
}
