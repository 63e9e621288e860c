//! SQL end-to-end coverage for the holistic aggregates (DESIGN.md §14):
//! `median(x)`, `percentile(x, p)`, `approx_percentile(x, p)` and
//! `approx_count_distinct(x)` riding as extra aggregates inside `Vpct` and
//! `Hpct` statements.
//!
//! What is proven here:
//! * exact interpolation semantics (PERCENTILE_CONT: p50 of
//!   [10,20,30,40] = 25.0) through the full parse → validate → plan →
//!   execute path;
//! * every vertical strategy produces a byte-identical result table when
//!   holistic extras ride along (the Fk pass always scans F, so holistic
//!   lanes are legal under all five knob settings);
//! * for horizontal queries the direct strategies (CaseDirect/SpjDirect)
//!   agree with each other, the FV-based strategies reject holistic lanes
//!   with a typed [`CoreError::Unsupported`], and the optimizer routes the
//!   default path onto a direct strategy so plain `execute_sql` just works;
//! * serial and morsel-parallel evaluation are byte-identical (the measure
//!   is integer-valued, so float sums are exact under regrouping; the
//!   holistic lanes sort at finalize and are order-insensitive by design).

use pa_core::{
    CoreError, HorizontalOptions, HorizontalStrategy, ParallelConfig, PercentageEngine,
    VpctStrategy,
};
use pa_storage::{Catalog, DataType, Schema, Table, Value};
use pa_testkit::oracle::percentile_cont;
use pa_testkit::{gen, Draw};

const STATES: [&str; 4] = ["CA", "TX", "NY", "WA"];
const CITIES: [&str; 3] = ["alpha", "beta", "gamma"];
const DWEEK: [&str; 5] = ["Mon", "Tue", "Wed", "Thu", "Fri"];

/// Seeded fact table with an integer-valued float measure (exact addition
/// under any regrouping) and NULLs in the measure column.
fn fact_catalog(rows: usize, seed: u64) -> Catalog {
    let mut draw = Draw::new(seed);
    let mut row = |_| {
        let (state, city) = (draw.one_of(&STATES), draw.one_of(&CITIES));
        let (dweek, store) = (draw.one_of(&DWEEK), draw.below(40) as i64);
        let amt = match draw.one_in(20) {
            true => Value::Null,
            false => Value::Float(draw.below(499) as f64 + 1.0),
        };
        vec![
            Value::str(state),
            Value::str(city),
            Value::str(dweek),
            Value::Int(store),
            amt,
        ]
    };
    let rows: Vec<Vec<Value>> = (0..rows).map(&mut row).collect();
    let fields = [
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("dweek", DataType::Str),
        ("store", DataType::Int),
        ("amt", DataType::Float),
    ];
    let catalog = Catalog::new();
    catalog
        .create_table("sales", gen::table(&fields, &rows))
        .unwrap();
    catalog
}

fn rows_of(outcome: &pa_core::SqlOutcome) -> Vec<Vec<Value>> {
    outcome.table().read().rows().collect()
}

#[test]
fn median_interpolates_like_percentile_cont() {
    let schema = Schema::from_pairs(&[("g", DataType::Str), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut t = Table::with_capacity(schema, 4);
    for a in [10.0, 20.0, 30.0, 40.0] {
        t.push_row(&[Value::str("x"), Value::Float(a)]).unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql(
            "SELECT g, Vpct(a), median(a) AS med, percentile(a, 0.25) AS q1, \
             percentile(a, 0.0) AS lo, percentile(a, 1.0) AS hi \
             FROM f GROUP BY g",
        )
        .unwrap();
    let rows = rows_of(&out);
    assert_eq!(rows.len(), 1);
    let t = out.table();
    let t = t.read();
    let col = |name: &str| t.schema().index_of(name).unwrap();
    assert_eq!(
        rows[0][col("med")],
        Value::Float(25.0),
        "p50 of [10,20,30,40] interpolates to 25.0"
    );
    assert_eq!(rows[0][col("q1")], Value::Float(17.5));
    assert_eq!(rows[0][col("lo")], Value::Float(10.0));
    assert_eq!(rows[0][col("hi")], Value::Float(40.0));
}

#[test]
fn holistic_extras_ride_vpct_under_every_strategy() {
    let catalog = fact_catalog(4_000, 9);
    let engine = PercentageEngine::new(&catalog);
    let sql = "SELECT state, city, Vpct(amt BY city), median(amt) AS med, \
               percentile(amt, 0.9) AS p90, approx_count_distinct(store) AS stores \
               FROM sales GROUP BY state, city ORDER BY state, city";

    let reference = engine.execute_sql(sql).unwrap();
    let ref_rows = rows_of(&reference);
    assert_eq!(ref_rows.len(), (STATES.len() * CITIES.len()));
    assert!(
        reference.stats().holistic_lanes >= 3,
        "median, percentile and approx_count_distinct lanes must be counted, got {}",
        reference.stats().holistic_lanes
    );

    // Independent oracle: recompute each group's median / p90 / distinct
    // stores straight from the fact table.
    let shared = catalog.table("sales").unwrap();
    let fact = shared.read();
    let table = reference.table();
    let table = table.read();
    let col = |name: &str| table.schema().index_of(name).unwrap();
    for row in &ref_rows {
        let (state, city) = (&row[0], &row[1]);
        let mut vals: Vec<f64> = Vec::new();
        let mut stores: std::collections::BTreeSet<i64> = Default::default();
        for r in fact.rows() {
            if &r[0] == state && &r[1] == city {
                if let Value::Float(a) = r[4] {
                    vals.push(a);
                }
                if let Value::Int(s) = r[3] {
                    stores.insert(s);
                }
            }
        }
        vals.sort_by(f64::total_cmp);
        assert_eq!(
            row[col("med")],
            Value::Float(percentile_cont(&vals, 0.5)),
            "median mismatch for {state:?}/{city:?}"
        );
        assert_eq!(
            row[col("p90")],
            Value::Float(percentile_cont(&vals, 0.9)),
            "p90 mismatch for {state:?}/{city:?}"
        );
        // approx_count_distinct is an HLL estimate: hold it to the
        // documented 3σ relative-error bound, not to exactness.
        let Value::Int(est) = row[col("stores")] else {
            panic!("approx_count_distinct produced a non-int");
        };
        let truth = stores.len() as f64;
        let rel = (est as f64 - truth) / truth;
        assert!(
            rel.abs() <= 3.0 * pa_engine::HLL_STD_ERROR,
            "distinct stores estimate {est} too far from exact {truth} \
             for {state:?}/{city:?} (rel {rel:+.4})"
        );
    }

    // Every vertical strategy yields the identical table: holistic lanes
    // live in the Fk pass, which always scans F.
    let strategies = [
        ("best", VpctStrategy::best()),
        ("without_index", VpctStrategy::without_index()),
        ("with_update", VpctStrategy::with_update()),
        ("fj_from_f", VpctStrategy::fj_from_f()),
        ("synchronized", VpctStrategy::synchronized()),
    ];
    for (label, strat) in strategies {
        let out = engine
            .execute_sql_with(sql, &strat, &HorizontalOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(rows_of(&out), ref_rows, "strategy {label} diverged");
    }
}

#[test]
fn holistic_extras_ride_hpct_direct_strategies_only() {
    let catalog = fact_catalog(4_000, 23);
    let engine = PercentageEngine::new(&catalog);
    let sql = "SELECT state, Hpct(amt BY dweek), median(amt) AS med, \
               approx_percentile(amt, 0.5) AS apx, approx_count_distinct(city) AS cities \
               FROM sales GROUP BY state ORDER BY state";

    // The optimizer must route the default path onto a direct strategy.
    let default_out = engine.execute_sql(sql).unwrap();
    let default_rows = rows_of(&default_out);
    assert_eq!(default_rows.len(), STATES.len());
    assert!(default_out.stats().holistic_lanes >= 3);

    for strategy in [
        HorizontalStrategy::CaseDirect,
        HorizontalStrategy::SpjDirect,
    ] {
        let out = engine
            .execute_sql_with(
                sql,
                &VpctStrategy::best(),
                &HorizontalOptions::with_strategy(strategy),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
        assert_eq!(rows_of(&out), default_rows, "{} diverged", strategy.label());
    }

    for strategy in [
        HorizontalStrategy::CaseFromFv,
        HorizontalStrategy::SpjFromFv,
    ] {
        let err = engine
            .execute_sql_with(
                sql,
                &VpctStrategy::best(),
                &HorizontalOptions::with_strategy(strategy),
            )
            .unwrap_err();
        match err {
            CoreError::Unsupported(msg) => assert!(
                msg.contains("holistic"),
                "{}: unexpected message {msg:?}",
                strategy.label()
            ),
            other => panic!("{}: expected Unsupported, got {other}", strategy.label()),
        }
    }

    // Sanity-check one value against an independent oracle: the exact
    // median per state.
    let shared = catalog.table("sales").unwrap();
    let fact = shared.read();
    let table = default_out.table();
    let table = table.read();
    let med = table.schema().index_of("med").unwrap();
    let apx = table.schema().index_of("apx").unwrap();
    for row in &default_rows {
        // Within the budget the approximate median is the exact one.
        assert_eq!(row[apx], row[med], "approx_percentile for {:?}", row[0]);
        let mut vals: Vec<f64> = fact
            .rows()
            .filter(|r| r[0] == row[0])
            .filter_map(|r| match r[4] {
                Value::Float(a) => Some(a),
                _ => None,
            })
            .collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(
            row[med],
            Value::Float(percentile_cont(&vals, 0.5)),
            "median mismatch for {:?}",
            row[0]
        );
    }
}

#[test]
fn holistic_hpct_serial_and_parallel_are_byte_identical() {
    let catalog = fact_catalog(6_000, 41);
    let sql = "SELECT state, city, Hpct(amt BY dweek), median(amt) AS med, \
               percentile(amt, 0.95) AS p95, approx_count_distinct(store) AS stores, \
               approx_percentile(amt, 0.95) AS a95 \
               FROM sales GROUP BY state, city ORDER BY state, city";
    for strategy in [
        HorizontalStrategy::CaseDirect,
        HorizontalStrategy::SpjDirect,
    ] {
        let mut runs = Vec::new();
        let opts = HorizontalOptions::with_strategy(strategy);
        for (label, config) in [
            ("serial", ParallelConfig::serial()),
            ("2 threads", ParallelConfig::with_threads(2)),
            ("4 threads", ParallelConfig::with_threads(4)),
        ] {
            let out = PercentageEngine::new(&catalog)
                .with_config(config)
                .execute_sql_with(sql, &VpctStrategy::best(), &opts)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", strategy.label()));
            // Within the budget the approximate p95 is the exact one.
            let t = out.table();
            let t = t.read();
            let (p95, a95) = (t.schema().index_of("p95"), t.schema().index_of("a95"));
            let bits = |c: usize| -> Vec<Option<u64>> {
                (0..t.num_rows())
                    .map(|r| t.get(r, c).as_f64().map(f64::to_bits))
                    .collect()
            };
            assert_eq!(
                bits(p95.unwrap()),
                bits(a95.unwrap()),
                "{label}: approx_percentile"
            );
            runs.push((label, rows_of(&out)));
        }
        for (label, rows) in &runs[1..] {
            assert_eq!(
                rows,
                &runs[0].1,
                "{} {label} diverged from serial",
                strategy.label()
            );
        }
    }
}

#[test]
fn validation_errors_surface_through_execute_sql() {
    let catalog = fact_catalog(100, 7);
    let engine = PercentageEngine::new(&catalog);
    // Missing rank.
    let err = engine
        .execute_sql("SELECT state, Vpct(amt), percentile(amt) AS p FROM sales GROUP BY state")
        .unwrap_err();
    assert!(err.to_string().contains("rank"), "got: {err}");
    // Out-of-range rank.
    let err = engine
        .execute_sql("SELECT state, Vpct(amt), percentile(amt, 1.5) AS p FROM sales GROUP BY state")
        .unwrap_err();
    assert!(err.to_string().contains("between 0 and 1"), "got: {err}");
    // median takes no second argument.
    let err = engine
        .execute_sql("SELECT state, Vpct(amt), median(amt, 0.5) AS p FROM sales GROUP BY state")
        .unwrap_err();
    assert!(err.to_string().contains("second argument"), "got: {err}");
}
