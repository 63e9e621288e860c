//! The prepared-plan oracle: a statement's text maps to one shared plan,
//! and answering from it changes nothing.
//!
//! * Every statement shape of the golden, strategy-equivalence,
//!   differential, post-projection and lattice suites and of the examples
//!   answers byte for byte (names, dtypes, validity, `f64` bits, row order)
//!   the same from a fresh engine, which plans it, and from an engine whose
//!   cache holds its plan — at threads 1 and 4, with and without strategy
//!   knobs, traced and untraced.
//! * A plan is never stale: after a table is dropped and re-created with a
//!   column renamed and another retyped, the same text answers exactly what
//!   a fresh engine answers — the new rows, or the same typed error.
//! * A text that fails to parse or plan is never kept and fails the same
//!   way every time.
//! * The cache holds at most its bound of plans, and keeps a hot one.

use percentage_aggregations::core::executor::{PLAN_CACHE_BYTES, PLAN_CACHE_ENTRIES};
use percentage_aggregations::core::QueryLimits;
use percentage_aggregations::prelude::*;

fn workers(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows: 256,
        min_parallel_rows: 1,
        ..ParallelConfig::serial()
    }
}

/// `f`: the differential suite's `g, d, s, a`, the lattice suite's
/// `region, store, day, amt` and the post-projection suite's `city, q`, one
/// table, NULLs and negative amounts included.
fn f_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("region", DataType::Str),
        ("store", DataType::Int),
        ("day", DataType::Int),
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("s", DataType::Str),
        ("a", DataType::Float),
        ("amt", DataType::Float),
        ("city", DataType::Str),
        ("q", DataType::Int),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..1_500i64 {
        let region = match i % 9 {
            0 => Value::Null,
            k => Value::str(["north", "south", "east", "west"][(k % 4) as usize]),
        };
        let a = match i % 13 {
            0 => Value::Null,
            k => Value::Float((k - 4) as f64 * 0.75),
        };
        t.push_row(&[
            region,
            Value::Int(i % 6),
            Value::Int((i * 7) % 11),
            Value::Int(i % 5),
            Value::str(["d0", "d1", "d2", "d3", "d4", "d5"][(i % 6) as usize]),
            Value::str(["x", "y", "z"][((i / 3) % 3) as usize]),
            a,
            Value::Float(((i * 37) % 1000) as f64),
            Value::str(["LA", "SF", "Dallas", "Houston"][((i / 5) % 4) as usize]),
            Value::Int((i * 13) % 250),
        ])
        .unwrap();
    }
    t
}

fn catalog() -> Catalog {
    let catalog = Catalog::new();
    pa_workload::install_sales(
        &catalog,
        &SalesConfig {
            rows: 3_000,
            seed: 31,
        },
    )
    .unwrap();
    pa_workload::install_employee(
        &catalog,
        &EmployeeConfig {
            rows: 2_000,
            seed: 5,
        },
    )
    .unwrap();
    catalog.create_table("f", f_table()).unwrap();
    catalog
}

const STATEMENTS: &[&str] = &[
    // golden
    "SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;",
    "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;",
    "SELECT state, sum(salesAmt BY city) FROM sales GROUP BY state;",
    "SELECT state, city, Vpct(salesAmt BY city) AS p, Vpct(salesAmt BY state, city) AS q \
     FROM sales GROUP BY state, city;",
    "SELECT state, city, Vpct(salesAmt BY city) AS p, Vpct(salesAmt BY state, city) AS q \
     FROM sales WHERE salesAmt > 10 GROUP BY state, city;",
    "SELECT state, Hpct(salesAmt BY city) FROM sales \
     WHERE salesAmt > 10 AND state <> 'TX' GROUP BY state;",
    // strategy equivalence: SIGMOD Table 4's vertical shapes, Table 5's and
    // DMKD's horizontal ones
    "SELECT dweek, Vpct(salesAmt BY dweek) FROM sales GROUP BY dweek;",
    "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) FROM sales GROUP BY monthNo, dweek;",
    "SELECT dept, dweek, monthNo, Vpct(salesAmt BY dweek, monthNo) FROM sales \
     GROUP BY dept, dweek, monthNo;",
    "SELECT store, Hpct(salesAmt BY dweek) FROM sales GROUP BY store;",
    "SELECT dept, Hpct(salesAmt BY monthNo), sum(salesAmt) AS total FROM sales GROUP BY dept;",
    "SELECT gender, Hpct(salary BY marstatus) FROM employee GROUP BY gender;",
    "SELECT gender, count(* BY educat), avg(salary BY marstatus) FROM employee GROUP BY gender;",
    // differential
    "SELECT g, d, Vpct(a BY d) AS p FROM f GROUP BY g, d;",
    "SELECT g, d, Vpct(a BY d) AS p, Vpct(a BY g, d) AS q FROM f GROUP BY g, d;",
    "SELECT g, d, Vpct(a BY d) AS p FROM f GROUP BY ROLLUP (g, d);",
    "SELECT g, d, Vpct(a BY g, d) AS p, count(*) AS n FROM f GROUP BY CUBE (g, d);",
    "SELECT g, d, s, Vpct(a BY s) AS p FROM f GROUP BY GROUPING SETS ((g, s), (d, s));",
    "SELECT g, d, Vpct(a BY d) AS p, median(a) AS m, approx_count_distinct(a) AS u \
     FROM f GROUP BY g, d;",
    "SELECT g, Hpct(a BY d), sum(a) AS t FROM f GROUP BY g;",
    "SELECT g, sum(a BY d), count(* BY s) FROM f GROUP BY g;",
    "SELECT g, Hpct(a BY d), median(a) AS m FROM f GROUP BY g;",
    "SELECT Hpct(a BY d, s) FROM f;",
    "SELECT g, Hpct(a BY s) FROM f WHERE d <> 'd1' GROUP BY g;",
    // post-projection
    "SELECT Hpct(amt BY city), sum(q BY city), avg(amt BY city), \
     count(*) AS n, count(q) AS nq, sum(amt) AS s FROM f WHERE q > 100",
    // lattice
    "SELECT region, store, day, Vpct(amt BY day) FROM f GROUP BY ROLLUP (region, store, day);",
    "SELECT region, store, Vpct(amt BY store) AS p, sum(amt) AS s, count(*) AS n FROM f \
     GROUP BY CUBE (region, store);",
    "SELECT region, store, day, Vpct(amt BY store, day) FROM f \
     GROUP BY GROUPING SETS ((region, store, day), (region, day), (day));",
    "SELECT region, day, Vpct(amt BY day) AS a, Vpct(amt) AS b FROM f GROUP BY region, day;",
    "SELECT region, store, day, Vpct(amt BY day) AS p, median(amt) AS med, \
     percentile(amt, 0.9) AS p90 FROM f GROUP BY ROLLUP (region, store, day);",
    "SELECT region, day, Vpct(amt BY day) AS p, count(DISTINCT store) AS stores \
     FROM f GROUP BY ROLLUP (region, day);",
    "SELECT region, Hpct(amt BY day) FROM f GROUP BY GROUPING SETS ((region), ());",
    "SELECT store, day, Vpct(amt BY day) AS p FROM f WHERE amt > 300 GROUP BY ROLLUP (store, day);",
    // examples
    "SELECT gender, marstatus, Vpct(salary BY marstatus) AS salaryShare, count(*) AS n \
     FROM employee GROUP BY gender, marstatus;",
    "SELECT state, Hpct(salesAmt BY city), sum(salesAmt) AS totalSales FROM sales GROUP BY state;",
    "SELECT state, dweek, Vpct(salesAmt BY dweek) FROM sales GROUP BY state, dweek;",
    "SELECT state, city, Vpct(salesAmt BY city) AS withinState, \
     Vpct(salesAmt BY city, state) AS globalShare \
     FROM sales GROUP BY state, city ORDER BY state, city;",
    "SELECT state, count(distinct transactionId BY dweek) FROM sales GROUP BY state;",
];

/// One cell as its bytes: NULL, the bits of a float, any other value.
#[derive(Debug, PartialEq)]
enum Cell {
    Null,
    Bits(u64),
    Other(Value),
}

/// A result table as its bytes, in its row order.
type Image = Vec<(String, DataType, Vec<Cell>)>;

fn image(t: &Table) -> Image {
    (0..t.num_columns())
        .map(|c| {
            let field = t.schema().field_at(c);
            let cells = (0..t.num_rows())
                .map(|r| match t.get(r, c) {
                    Value::Null => Cell::Null,
                    Value::Float(x) => Cell::Bits(x.to_bits()),
                    other => Cell::Other(other),
                })
                .collect();
            (field.name.clone(), field.dtype, cells)
        })
        .collect()
}

/// Every table a statement returned (each partition of a horizontal
/// result), or its error.
fn answer(out: Result<SqlOutcome, CoreError>) -> Result<Vec<Image>, String> {
    match out.map_err(|e| format!("{e:?}"))? {
        SqlOutcome::Vertical(r) => Ok(vec![image(&r.snapshot())]),
        SqlOutcome::Horizontal(r) => Ok(r.partitions.iter().map(|p| image(&p.read())).collect()),
    }
}

#[test]
fn a_cached_plan_answers_byte_for_byte_what_a_fresh_one_does() {
    let catalog = catalog();
    for threads in [1, 4] {
        let cached = PercentageEngine::new(&catalog).with_config(workers(threads));
        let knobs = (VpctStrategy::best(), HorizontalOptions::default());
        for sql in STATEMENTS {
            // The first run plans the text and fills the level cache, so
            // the two runs compared below meet the same cached levels.
            let first = answer(cached.execute_sql(sql));
            assert!(first.is_ok(), "{sql}: {first:?}");
            let before = cached.plan_cache_stats();
            let fresh = || PercentageEngine::new(&catalog).with_config(workers(threads));
            let want = answer(fresh().execute_sql(sql));
            assert_eq!(answer(cached.execute_sql(sql)), want, "t={threads} {sql}");
            let traced = cached.execute_sql_traced(sql, QueryLimits::none());
            assert_eq!(answer(traced.map(|(out, _)| out)), want, "traced {sql}");
            let with = |e: &PercentageEngine| answer(e.execute_sql_with(sql, &knobs.0, &knobs.1));
            assert_eq!(with(&cached), with(&fresh()), "knobs t={threads} {sql}");
            let after = cached.plan_cache_stats();
            assert_eq!(after.hits - before.hits, 3, "{sql}");
            assert_eq!(after.misses, before.misses, "{sql}");
        }
        assert_eq!(cached.plan_cache_stats().entries, STATEMENTS.len());
    }
}

/// `c` before and after it is dropped and re-created: `u` is renamed `w`
/// and `g` goes from `Int` to `Str`.
fn c_table(renamed: bool) -> Table {
    let (g_type, u_name) = match renamed {
        false => (DataType::Int, "u"),
        true => (DataType::Str, "w"),
    };
    let schema = Schema::from_pairs(&[
        ("k", DataType::Str),
        ("g", g_type),
        ("v", DataType::Float),
        (u_name, DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..400i64 {
        let g = match renamed {
            false => Value::Int(i % 4),
            true => Value::str(["b", "a", "c"][(i % 3) as usize]),
        };
        t.push_row(&[
            Value::str(["k0", "k1", "k2"][(i % 3) as usize]),
            g,
            Value::Float((i % 17) as f64),
            Value::Float((i % 5) as f64 * 1.5),
        ])
        .unwrap();
    }
    t
}

#[test]
fn a_dropped_and_recreated_table_answers_as_a_fresh_engine_does() {
    let statements = [
        "SELECT k, g, Vpct(v BY g) FROM c GROUP BY k, g;",
        "SELECT k, g, Vpct(v BY g) AS p, Vpct(v) AS q FROM c GROUP BY k, g;",
        "SELECT k, g, Vpct(v BY g) AS p FROM c GROUP BY ROLLUP (k, g);",
        "SELECT k, Hpct(v BY g), sum(v) AS t FROM c GROUP BY k;",
        "SELECT k, g, Vpct(u BY g) FROM c GROUP BY k, g;",
        "SELECT k, Hpct(u BY g) FROM c GROUP BY k;",
        "SELECT k, g, Vpct(v BY g) FROM c WHERE g > 1 GROUP BY k, g;",
        "SELECT k, g, Vpct(v BY g) FROM c WHERE g = 'a' GROUP BY k, g;",
        "SELECT k, g, Vpct(v BY g) AS p, sum(u) AS s FROM c GROUP BY CUBE (k, g);",
    ];
    let catalog = Catalog::new();
    catalog.create_table("c", c_table(false)).unwrap();
    let cached = PercentageEngine::new(&catalog);
    let before: Vec<_> = statements
        .iter()
        .map(|sql| answer(cached.execute_sql(sql)))
        .collect();
    assert!(before[..7].iter().all(Result::is_ok), "{before:?}");

    catalog.drop_table("c").unwrap();
    catalog.create_table("c", c_table(true)).unwrap();
    let mut changed = 0;
    for (sql, old) in statements.iter().zip(&before) {
        let want = answer(PercentageEngine::new(&catalog).execute_sql(sql));
        let hits = cached.plan_cache_stats().hits;
        assert_eq!(answer(cached.execute_sql(sql)), want, "{sql}");
        assert_eq!(cached.plan_cache_stats().hits, hits + 1, "{sql}");
        changed += usize::from(want != *old);
    }
    assert_eq!(
        changed,
        statements.len(),
        "every answer moved with the table"
    );
}

#[test]
fn a_failing_text_fails_alike_every_time_and_is_never_kept() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let failing = [
        "SELECT state, Vpct(salesAmt BY city FROM sales GROUP BY state",
        "SELECT state, 'unterminated FROM sales",
        "SELECT Vpct(salesAmt BY city) FROM sales",
        "SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state",
        "SELECT state, Hpct(salesAmt BY state) FROM sales GROUP BY state",
        "EXPLAIN SELECT state, Vpct(salesAmt) FROM sales GROUP BY state",
    ];
    for sql in failing {
        let first = format!("{:?}", engine.execute_sql(sql).unwrap_err());
        for _ in 0..3 {
            let again = format!("{:?}", engine.execute_sql(sql).unwrap_err());
            assert_eq!(again, first, "{sql}");
        }
        let fresh = PercentageEngine::new(&catalog)
            .execute_sql(sql)
            .unwrap_err();
        assert_eq!(format!("{fresh:?}"), first, "{sql}");
    }
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.entries, stats.bytes, stats.hits), (0, 0, 0));
    assert_eq!(stats.misses, 4 * failing.len() as u64);

    // Under an EXPLAIN wrapper, an error reads as the whole text's parse
    // reports it: offsets count from the start of the wrapper.
    let sql = "EXPLAIN ANALYZE SELECT state, Vpct(salesAmt BY city FROM sales GROUP BY state";
    let err = engine.explain_analyze_sql(sql).unwrap_err().to_string();
    let whole = percentage_aggregations::sql::parse_statement(sql).unwrap_err();
    assert_eq!(err, CoreError::from(whole).to_string());
}

#[test]
fn the_cache_holds_its_bound_and_keeps_a_hot_plan() {
    let catalog = Catalog::new();
    catalog.create_table("c", c_table(false)).unwrap();
    let engine = PercentageEngine::new(&catalog);
    let hot = "SELECT k, Vpct(v) FROM c GROUP BY k;";
    let want = answer(engine.execute_sql(hot));
    for i in 0..PLAN_CACHE_ENTRIES + 100 {
        let sql = format!("SELECT k, Vpct(v) FROM c WHERE v > {i} GROUP BY k;");
        engine.execute_sql(&sql).unwrap();
        if i % 64 == 0 {
            assert_eq!(answer(engine.execute_sql(hot)), want);
        }
        let stats = engine.plan_cache_stats();
        assert!(stats.entries <= PLAN_CACHE_ENTRIES, "{stats:?}");
        assert!(stats.bytes <= PLAN_CACHE_BYTES, "{stats:?}");
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.entries, PLAN_CACHE_ENTRIES);
    // The hot statement, used while the cache filled, kept its plan.
    engine.execute_sql(hot).unwrap();
    assert_eq!(engine.plan_cache_stats().hits, stats.hits + 1);
    // A full cache turned the last texts away; planned a second time, one
    // is kept (in place of an unused plan), and its third run is a hit.
    let last = format!(
        "SELECT k, Vpct(v) FROM c WHERE v > {} GROUP BY k;",
        PLAN_CACHE_ENTRIES + 99
    );
    let hits = engine.plan_cache_stats().hits;
    engine.execute_sql(&last).unwrap();
    engine.execute_sql(&last).unwrap();
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.hits, stats.entries), (hits + 1, PLAN_CACHE_ENTRIES));
    engine.execute_sql(hot).unwrap();
    assert_eq!(
        engine.plan_cache_stats().hits,
        hits + 2,
        "the hot plan stayed"
    );

    // A text longer than the byte bound runs, planned every time.
    let long = format!(
        "SELECT k, Vpct(v) FROM c {} GROUP BY k;",
        " ".repeat(PLAN_CACHE_BYTES)
    );
    assert_eq!(answer(engine.execute_sql(&long)), want);
    assert_eq!(engine.plan_cache_stats().entries, PLAN_CACHE_ENTRIES);
}

#[test]
fn explain_shares_the_plan_and_analyze_says_whether_it_was_reused() {
    let catalog = catalog();
    let engine = PercentageEngine::new(&catalog);
    let sql =
        "SELECT region, store, Vpct(amt BY store) AS p FROM f GROUP BY ROLLUP (region, store);";
    let query_line = |lines: Vec<String>| {
        let line = lines
            .iter()
            .find(|l| l.starts_with("-- op query:"))
            .cloned();
        line.expect("a query span")
    };
    let first = query_line(engine.explain_analyze_sql(sql).unwrap());
    assert!(first.ends_with(" plan=new"), "{first}");
    engine.execute_sql(sql).unwrap();
    for text in [
        format!("EXPLAIN ANALYZE {sql}"),
        format!("explain analyze -- the same statement\n{sql}"),
    ] {
        let line = query_line(engine.explain_analyze_sql(&text).unwrap());
        assert!(line.ends_with(" plan=reused"), "{line}");
    }
    let plain = engine.explain_sql(&format!("EXPLAIN {sql}")).unwrap();
    assert_eq!(plain, engine.explain_sql(sql).unwrap());
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.entries, stats.misses), (1, 1), "{stats:?}");
}
