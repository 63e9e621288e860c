//! SQL surface: end-to-end statements, rule errors, and the generated-SQL
//! transcript, all through the public engine API.

use pa_testkit::assert_same_rows;
use percentage_aggregations::prelude::*;

fn catalog() -> Catalog {
    let catalog = Catalog::new();
    pa_workload::install_sales(
        &catalog,
        &SalesConfig {
            rows: 5_000,
            seed: 31,
        },
    )
    .unwrap();
    pa_workload::install_employee(
        &catalog,
        &EmployeeConfig {
            rows: 5_000,
            seed: 32,
        },
    )
    .unwrap();
    catalog
}

#[test]
fn vertical_statement_with_alias_and_extras() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql(
            "SELECT state, dweek, Vpct(salesAmt BY dweek) AS dayShare, \
             sum(salesAmt) AS daySales, count(*) AS n \
             FROM sales GROUP BY state, dweek;",
        )
        .unwrap();
    let SqlOutcome::Vertical(r) = out else {
        panic!("vertical expected")
    };
    let t = r.snapshot();
    assert_eq!(t.num_rows(), 35, "5 states × 7 days");
    assert_eq!(t.schema().index_of("dayShare").unwrap(), 2);
    assert_eq!(t.schema().index_of("daySales").unwrap(), 3);
    assert_eq!(t.schema().index_of("n").unwrap(), 4);
    // Shares per state sum to 1.
    let mut sums = std::collections::HashMap::new();
    for r in 0..t.num_rows() {
        *sums.entry(t.get(r, 0).to_string()).or_insert(0.0) += t.get(r, 2).as_f64().unwrap();
    }
    for (s, v) in sums {
        assert!((v - 1.0).abs() < 1e-9, "{s}: {v}");
    }
}

#[test]
fn horizontal_statement_count_by() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql("SELECT state, count(transactionId BY dweek) FROM sales GROUP BY state;")
        .unwrap();
    let SqlOutcome::Horizontal(r) = out else {
        panic!("horizontal expected")
    };
    let t = r.snapshot();
    assert_eq!(t.num_columns(), 8, "state + 7 day-count columns");
    // Counts are integers and total 5000 across the grid.
    let mut total = 0i64;
    for row in 0..t.num_rows() {
        for c in 1..8 {
            match t.get(row, c) {
                Value::Int(n) => total += n,
                other => panic!("count cell should be Int, got {other}"),
            }
        }
    }
    assert_eq!(total, 5_000);
}

#[test]
fn rule_violations_from_both_papers() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    for (sql, expect) in [
        (
            "SELECT Vpct(salesAmt BY dweek) FROM sales",
            "rule 1", // GROUP BY required
        ),
        (
            "SELECT state, Vpct(salesAmt BY dweek) FROM sales GROUP BY state",
            "rule 2", // BY ⊄ GROUP BY
        ),
        (
            "SELECT state, Hpct(salesAmt) FROM sales GROUP BY state",
            "rule 2", // BY required
        ),
        (
            "SELECT state, Hpct(salesAmt BY state) FROM sales GROUP BY state",
            "disjoint",
        ),
        (
            "SELECT state, Vpct(salesAmt BY dweek), Hpct(salesAmt BY dept) \
             FROM sales GROUP BY state, dweek",
            "not supported", // mixing families
        ),
        (
            "SELECT dweek, sum(salesAmt) FROM sales GROUP BY state",
            "GROUP BY", // ungrouped plain column
        ),
    ] {
        let err = engine.execute_sql(sql).unwrap_err();
        assert!(
            err.to_string().contains(expect),
            "{sql}\n  got: {err}\n  want substring: {expect}"
        );
    }
}

#[test]
fn execution_errors_are_reported() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    // Unknown table.
    assert!(engine
        .execute_sql("SELECT d, d2, Vpct(a BY d2) FROM nope GROUP BY d, d2")
        .is_err());
    // Unknown measure column.
    assert!(engine
        .execute_sql("SELECT state, dweek, Vpct(bogus BY dweek) FROM sales GROUP BY state, dweek")
        .is_err());
}

#[test]
fn explicit_strategies_through_sql() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let sql = "SELECT state, dweek, Vpct(salesAmt BY dweek) FROM sales GROUP BY state, dweek;";
    let a = engine
        .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
        .unwrap();
    let b = engine
        .execute_sql_with(
            sql,
            &VpctStrategy::with_update(),
            &HorizontalOptions::default(),
        )
        .unwrap();
    assert!(b.stats().rows_updated > 0, "update strategy used");
    assert_eq!(a.stats().rows_updated, 0, "insert strategy used");
    let ta = a.table();
    let tb = b.table();
    assert_eq!(ta.read().num_rows(), tb.read().num_rows());
}

#[test]
fn heuristic_optimizer_picks_sources_as_documented() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    // Low selectivity, one BY column → direct; the transcript reads from F.
    let stmts = engine
        .explain_sql("SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state")
        .unwrap();
    assert!(stmts.iter().any(|s| s.contains("FROM sales")), "{stmts:?}");
    assert!(!stmts[0].contains("INSERT INTO FV"), "{stmts:?}");
    // A selective BY column (dept has 100 values) also stays direct now:
    // the jump-table CASE path prices 101 cells as one array index per
    // row, so selectivity alone no longer routes through FV.
    let stmts = engine
        .explain_sql("SELECT state, Hpct(salesAmt BY dept) FROM sales GROUP BY state")
        .unwrap();
    assert!(!stmts[0].contains("INSERT INTO FV"), "{stmts:?}");
    // Past the cell budget (dept × monthNo ≈ 1313 cells > 1024) → FV.
    let stmts = engine
        .explain_sql("SELECT state, Hpct(salesAmt BY dept, monthNo) FROM sales GROUP BY state")
        .unwrap();
    assert!(stmts[0].contains("INSERT INTO FV"), "{stmts:?}");
}

#[test]
fn employee_census_style_statement() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql(
            "SELECT gender, marstatus, Vpct(salary BY marstatus), avg(salary) AS avgSalary \
             FROM employee GROUP BY gender, marstatus;",
        )
        .unwrap();
    let t = out.table();
    let t = t.read();
    assert_eq!(t.num_rows(), 8, "2 genders × 4 marital statuses");
    let avg_col = t.schema().index_of("avgSalary").unwrap();
    for r in 0..t.num_rows() {
        let avg = t.get(r, avg_col).as_f64().unwrap();
        assert!((20_000.0..=150_000.0).contains(&avg));
    }
}

#[test]
fn dmkd_flagship_count_distinct_by() {
    // DMKD §3.2: count(distinct transactionid BY dayofweekNo) — the number
    // of distinct transactions per store and weekday, horizontally.
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql(
            "SELECT store, count(distinct transactionId BY dweek), sum(salesAmt) \
             FROM sales GROUP BY store;",
        )
        .unwrap();
    let SqlOutcome::Horizontal(r) = out else {
        panic!("horizontal expected")
    };
    let t = r.snapshot();
    assert_eq!(t.num_columns(), 9, "store + 7 day columns + total");
    // transactionId is unique per row here, so the distinct counts must sum
    // to the table's row count.
    let mut total = 0i64;
    for row in 0..t.num_rows() {
        for c in 1..8 {
            total += t.get(row, c).as_i64().unwrap();
        }
    }
    assert_eq!(total, 5_000);
}

#[test]
fn count_distinct_rules() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    // DISTINCT only inside count.
    let err = engine
        .execute_sql("SELECT state, sum(distinct salesAmt BY dweek) FROM sales GROUP BY state")
        .unwrap_err();
    assert!(err.to_string().contains("DISTINCT"), "{err}");
    // count(DISTINCT *) rejected.
    assert!(engine
        .execute_sql("SELECT state, count(distinct * BY dweek) FROM sales GROUP BY state")
        .is_err());
    // Holistic: FV strategies refuse.
    let q = HorizontalQuery::hagg(
        "sales",
        &["state"],
        AggFunc::CountDistinct,
        "transactionId",
        &["dweek"],
    );
    let err = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseFromFv),
        )
        .unwrap_err();
    assert!(err.to_string().contains("holistic"), "{err}");
    // The optimizer routes it to the direct strategy automatically.
    assert!(engine.horizontal(&q).is_ok());
    // And SPJ-direct agrees with CASE-direct.
    let a = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect),
        )
        .unwrap()
        .snapshot()
        .sorted_by(&[0]);
    let b = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::SpjDirect),
        )
        .unwrap()
        .snapshot()
        .sorted_by(&[0]);
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            assert_eq!(a.get(r, c), b.get(r, c), "({r},{c})");
        }
    }
}

#[test]
fn where_group_order_combined_on_horizontal() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql(
            "SELECT state, Hpct(salesAmt BY dweek) FROM sales \
             WHERE monthNo <= 6 GROUP BY state ORDER BY state;",
        )
        .unwrap();
    let t = out.table();
    let t = t.read();
    assert_eq!(t.num_rows(), 5);
    // Ordered by state ascending.
    for r in 1..t.num_rows() {
        assert!(t.get(r - 1, 0).total_cmp(&t.get(r, 0)) != std::cmp::Ordering::Greater);
    }
    // Rows still sum to 1 after filtering.
    for r in 0..t.num_rows() {
        let sum: f64 = (1..t.num_columns())
            .filter_map(|c| t.get(r, c).as_f64())
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

#[test]
fn order_by_sorts_every_partition_of_a_partitioned_result() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let opts = HorizontalOptions {
        max_columns: 4,
        allow_partitioning: true,
        ..Default::default()
    };
    let run = |order: &str| {
        let sql = format!(
            "SELECT dept, Hpct(salesAmt BY dweek), sum(salesAmt) AS total \
             FROM sales GROUP BY dept{order};"
        );
        match engine.execute_sql_with(&sql, &VpctStrategy::best(), &opts) {
            Ok(SqlOutcome::Horizontal(r)) => r,
            other => panic!("{order}: a horizontal result expected, got {other:?}"),
        }
    };
    let rows = |r: &HorizontalResult| -> Vec<Vec<Vec<Value>>> {
        (r.partitions.iter())
            .map(|p| p.read().rows().collect())
            .collect()
    };
    let unsorted = run("");
    // Where `total` lives: one partition, not the first.
    let (part, col) = (unsorted.partitions.iter().enumerate())
        .find_map(|(p, t)| Some((p, t.read().schema().index_of("total").ok()?)))
        .unwrap();
    assert!(part > 0, "the extra lives past the first partition");
    let unsorted = rows(&unsorted);
    // Every partition repeats the key: a row is its partitions' rows, by key.
    let by_key = |parts: &[Vec<Vec<Value>>]| {
        let mut whole: Vec<Vec<Vec<Value>>> = (0..parts[0].len())
            .map(|r| parts.iter().map(|p| p[r].clone()).collect())
            .collect();
        whole.sort_by(|a, b| a[0][0].total_cmp(&b[0][0]));
        whole
    };
    for order in [" ORDER BY dept", " ORDER BY total, dept"] {
        let sorted = rows(&run(order));
        assert_eq!(sorted.len(), unsorted.len(), "{order}");
        // The key columns agree across partitions: one permutation moved
        // every partition's rows alike.
        let keys = |p: &Vec<Vec<Value>>| p.iter().map(|r| r[0].clone()).collect::<Vec<_>>();
        for p in &sorted {
            assert_eq!(keys(p), keys(&sorted[0]), "{order}");
        }
        // Sorted by the named columns, wherever they live.
        let sort_key = |r: usize| match order {
            " ORDER BY dept" => vec![sorted[0][r][0].clone()],
            _ => vec![sorted[part][r][col].clone(), sorted[0][r][0].clone()],
        };
        for r in 1..sorted[0].len() {
            let (a, b) = (sort_key(r - 1), sort_key(r));
            let cmp = (a.iter().zip(&b)).fold(std::cmp::Ordering::Equal, |o, (x, y)| {
                o.then_with(|| x.total_cmp(y))
            });
            assert_ne!(cmp, std::cmp::Ordering::Greater, "{order}: row {r}");
        }
        // And the rows are the unsorted result's rows.
        assert_eq!(by_key(&sorted), by_key(&unsorted), "{order}");
    }
    // A name found in no partition is a typed error, not a panic.
    let sql = "SELECT dept, Hpct(salesAmt BY dweek) FROM sales GROUP BY dept ORDER BY nope;";
    let err = engine
        .execute_sql_with(sql, &VpctStrategy::best(), &opts)
        .unwrap_err();
    assert!(matches!(err, CoreError::InvalidQuery(_)), "{err:?}");
}

#[test]
fn update_strategy_carries_extra_aggregates() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let sql = "SELECT state, dweek, Vpct(salesAmt BY dweek), sum(salesAmt) AS tot, \
               count(*) AS n FROM sales GROUP BY state, dweek;";
    let ins = engine
        .execute_sql_with(sql, &VpctStrategy::best(), &HorizontalOptions::default())
        .unwrap();
    let upd = engine
        .execute_sql_with(
            sql,
            &VpctStrategy::with_update(),
            &HorizontalOptions::default(),
        )
        .unwrap();
    let (a, b) = (ins.table().read().clone(), upd.table().read().clone());
    assert_eq!(a.num_columns(), 5);
    assert_same_rows(&b, &a, "UPDATE vs INSERT");
}

#[test]
fn sanitized_value_collisions_get_unique_columns() {
    // Two dimension values that render to the same column name after
    // whitespace sanitization ("a b" and "a_b") must still produce two
    // distinct result columns.
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    t.push_row(&[Value::Int(1), Value::str("a b"), Value::Float(1.0)])
        .unwrap();
    t.push_row(&[Value::Int(1), Value::str("a_b"), Value::Float(3.0)])
        .unwrap();
    catalog.create_table("f", t).unwrap();
    let engine = PercentageEngine::new(&catalog);
    let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    let result = engine.horizontal(&q).unwrap();
    let t = result.snapshot();
    assert_eq!(t.num_columns(), 3, "g + two distinct cells");
    let names: Vec<&str> = t
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert!(names.contains(&"d=a_b"));
    assert!(names.contains(&"d=a_b_2"), "{names:?}");
    // 25% / 75%, whichever column is which.
    let vals: Vec<f64> = (1..3).map(|c| t.get(0, c).as_f64().unwrap()).collect();
    let mut sorted = vals.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sorted, vec![0.25, 0.75]);
}
