//! Concurrent percentage queries over one shared catalog — the paper's
//! closing future-work item ("an intensive database environment where users
//! concurrently submit percentage queries").
//!
//! Each thread runs its own [`PercentageEngine`]; a query's intermediates
//! are values it owns and the fact table is only read-locked, so queries
//! proceed in parallel, and every thread must see exactly the same answers
//! as a serial run.

use pa_testkit::{answer, assert_same, assert_same_rows, gen, Sets, Stmt};
use percentage_aggregations::prelude::*;

/// The sales workload with its amounts in whole cents.
fn sales_catalog() -> Catalog {
    let sales = pa_workload::sales_table(&SalesConfig {
        rows: 30_000,
        seed: 404,
    });
    let catalog = Catalog::new();
    catalog
        .create_table("sales", gen::in_cents(sales, "salesAmt"))
        .unwrap();
    catalog
}

#[test]
fn parallel_vertical_queries_agree_with_serial() {
    let catalog = sales_catalog();
    let serial = {
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
        engine.vpct(&q).unwrap().snapshot()
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
                    engine.vpct_with(&q, &strat).unwrap().snapshot()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, t) in results.iter().enumerate() {
        assert_same_rows(t, &serial, &format!("thread {i}"));
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

/// A statement's scan configuration is a value its engine was handed, not
/// process state: two engines over one catalog — one serial on the default
/// tiers, one at four threads on the hash tier — run the same statements
/// at the same moment, each on its own tier, to the same bytes, the naive
/// reference's for the flat `Vpct`. (Whole-cent amounts: their sums are
/// exact under any chunking.)
#[test]
fn engines_handed_different_configurations_run_side_by_side() {
    let catalog = sales_catalog();
    let vpct = Stmt::new("sales", &["state", "dweek"]).vpct("salesAmt", &["dweek"], "p");
    let vpct = Stmt {
        order_by: true,
        ..vpct
    };
    let hpct = Stmt::new("sales", &["dept"]).hpct("salesAmt", &["dweek"], "h");
    let statements = [
        vpct.clone(),
        Stmt {
            sets: Sets::Rollup,
            ..vpct
        },
        Stmt {
            order_by: true,
            ..hpct
        },
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
        for stmt in &statements {
            start.wait();
            let out = engine.execute_sql(&stmt.sql()).unwrap();
            stats += out.stats();
            answers.push(out.table().read().clone());
        }
        (answers, stats)
    };
    let [(serial, serial_stats), (hashed, hashed_stats)] = std::thread::scope(|scope| {
        configs
            .map(|config| scope.spawn(move || run(config)))
            .map(|handle| handle.join().unwrap())
    });
    for ((serial, hashed), stmt) in serial.iter().zip(&hashed).zip(&statements) {
        assert_same(hashed, serial, &stmt.sql());
    }
    let t = catalog.table("sales").unwrap().read().clone();
    let want = answer(&t, &statements[0]);
    assert_same(&serial[0], &want, "the flat Vpct is the reference's");
    assert!(serial_stats.dense_group_ops > 0, "{serial_stats}");
    assert_eq!(serial_stats.scalar_kernel_rows, 0, "{serial_stats}");
    assert!(hashed_stats.hash_group_ops > 0, "{hashed_stats}");
    assert_eq!(hashed_stats.dense_group_ops, 0, "{hashed_stats}");
    assert_eq!(hashed_stats.scalar_kernel_rows, 0, "{hashed_stats}");
}
