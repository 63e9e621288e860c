//! Property-based tests over random fact tables.
//!
//! Random tables include NULL measures, NULL dimension values, negative
//! amounts (zero-sum groups), duplicate rows and empty subsets — the corner
//! cases §3's "issues" sections worry about. Invariants:
//!
//! 1. every vertical strategy computes the same `FV`, and the OLAP window
//!    plan agrees;
//! 2. within each totals-group, non-NULL percentages sum to 1 (or the
//!    group's total is zero/NULL and all its percentages are NULL);
//! 3. every horizontal strategy (± hash dispatch) computes the same `FH`;
//! 4. each `FH` row's percentages sum to 1 under the same proviso;
//! 5. the horizontal cell equals the matching vertical percentage;
//! 6. `sum` re-aggregated from partials equals `sum` from the raw table
//!    (the distributivity the `Fj`-from-`Fk` optimization relies on).

use percentage_aggregations::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    g: Option<i64>, // outer dimension D1 (nullable)
    d: Option<i64>, // inner dimension D2 (nullable)
    a: Option<f64>, // measure (nullable, may be negative)
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop::option::weighted(0.9, 0..4i64),
        prop::option::weighted(0.9, 0..5i64),
        prop::option::weighted(0.85, -3..=3i64),
    )
        .prop_map(|(g, d, a)| Row {
            g,
            d,
            a: a.map(|x| x as f64),
        })
}

fn build_catalog(rows: &[Row]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for r in rows {
        t.push_row(&[Value::from(r.g), Value::from(r.d), Value::from(r.a)])
            .unwrap();
    }
    catalog.create_table("f", t).unwrap();
    catalog
}

fn sorted_rows(t: &Table) -> Vec<Vec<Value>> {
    let all: Vec<usize> = (0..t.num_columns()).collect();
    t.sorted_by(&all).rows().collect()
}

fn value_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
        _ => a == b,
    }
}

fn tables_equal(a: &Table, b: &Table) -> bool {
    a.num_rows() == b.num_rows()
        && a.num_columns() == b.num_columns()
        && sorted_rows(a)
            .iter()
            .zip(sorted_rows(b).iter())
            .all(|(ra, rb)| ra.iter().zip(rb).all(|(x, y)| value_close(x, y)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vertical_strategies_and_olap_agree(rows in prop::collection::vec(row_strategy(), 1..60)) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        let reference = engine.vpct_with(&q, &VpctStrategy::best()).unwrap().snapshot();
        for strat in [
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy::synchronized(),
        ] {
            let got = engine.vpct_with(&q, &strat).unwrap().snapshot();
            prop_assert!(tables_equal(&reference, &got), "{strat:?}\n{reference}\n{got}");
        }
        let olap = engine.vpct_olap(&q).unwrap().snapshot();
        prop_assert!(tables_equal(&reference, &olap), "OLAP\n{reference}\n{olap}");
    }

    #[test]
    fn vertical_group_percentages_sum_to_one_or_all_null(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        let t = engine.vpct(&q).unwrap().snapshot();
        let mut sums: std::collections::HashMap<String, (f64, usize, usize)> = Default::default();
        for r in 0..t.num_rows() {
            let key = t.get(r, 0).to_string();
            let entry = sums.entry(key).or_default();
            match t.get(r, 2).as_f64() {
                Some(p) => {
                    entry.0 += p;
                    entry.1 += 1;
                }
                None => entry.2 += 1,
            }
        }
        for (k, (sum, non_null, _null)) in sums {
            if non_null > 0 {
                prop_assert!((sum - 1.0).abs() < 1e-9, "group {k}: sum {sum}");
            }
        }
    }

    #[test]
    fn horizontal_strategies_agree(rows in prop::collection::vec(row_strategy(), 1..60)) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        let mut reference: Option<Table> = None;
        for strategy in HorizontalStrategy::all() {
            let got = engine
                .horizontal_with(&q, &HorizontalOptions::with_strategy(strategy))
                .unwrap()
                .snapshot();
            match &reference {
                None => reference = Some(got),
                Some(r) => prop_assert!(
                    tables_equal(r, &got),
                    "{}\n{r}\n{got}",
                    strategy.label()
                ),
            }
        }
        let hash_tier = ParallelConfig { dense_budget: 0, ..ParallelConfig::from_env() };
        let dispatch = PercentageEngine::new(&catalog)
            .with_config(hash_tier)
            .horizontal_with(&q, &HorizontalOptions::default())
            .unwrap()
            .snapshot();
        prop_assert!(tables_equal(reference.as_ref().unwrap(), &dispatch), "dispatch");
    }

    #[test]
    fn horizontal_rows_sum_to_one_or_null(rows in prop::collection::vec(row_strategy(), 1..60)) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        let result = engine.horizontal(&q).unwrap();
        let t = result.snapshot();
        for r in 0..t.num_rows() {
            let mut sum = 0.0;
            let mut non_null = 0;
            for c in 1..t.num_columns() {
                if let Some(p) = t.get(r, c).as_f64() {
                    sum += p;
                    non_null += 1;
                }
            }
            if non_null > 0 {
                prop_assert!((sum - 1.0).abs() < 1e-9, "row {r}: {sum}");
            }
        }
    }

    #[test]
    fn horizontal_cells_equal_vertical_percentages(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let v = engine
            .vpct(&VpctQuery::single("f", &["g", "d"], "a", &["d"]))
            .unwrap()
            .snapshot();
        let h = engine
            .horizontal(&HorizontalQuery::hpct("f", &["g"], "a", &["d"]))
            .unwrap();
        let ht = h.snapshot();
        let names = &h.cell_columns[0];
        let mut hrow = std::collections::HashMap::new();
        for r in 0..ht.num_rows() {
            hrow.insert(ht.get(r, 0).to_string(), r);
        }
        for r in 0..v.num_rows() {
            let g = v.get(r, 0).to_string();
            let d = v.get(r, 1);
            let col_name = names
                .iter()
                .find(|n| **n == format!("d={d}"))
                .expect("cell column exists");
            let c = ht.schema().index_of(col_name).unwrap();
            let pct_h = ht.get(hrow[&g], c);
            let pct_v = v.get(r, 2);
            // Faithful semantic divergence: a cell whose measures are all
            // NULL is NULL under Vpct (sum() of nothing) but 0% under Hpct
            // (SIGMOD's `ELSE 0` CASE form) — unless the group total is
            // itself zero/NULL, in which case both are NULL.
            if pct_v.is_null() {
                prop_assert!(
                    pct_h.is_null() || pct_h.as_f64() == Some(0.0) || pct_h.as_f64() == Some(-0.0),
                    "g={g} d={d}: horizontal {pct_h} for NULL vertical cell"
                );
            } else {
                prop_assert!(
                    value_close(&pct_h, &pct_v),
                    "g={g} d={d}: horizontal {pct_h} vs vertical {pct_v}"
                );
            }
        }
    }

    #[test]
    fn sum_is_distributive_over_partials(rows in prop::collection::vec(row_strategy(), 1..80)) {
        use percentage_aggregations::engine::{hash_aggregate, AggSpec, ExecStats, Expr};
        let catalog = build_catalog(&rows);
        let f_shared = catalog.table("f").unwrap();
        let f = f_shared.read();
        let mut st = ExecStats::default();
        let spec = AggSpec::new(AggFunc::Sum, Expr::col(f.schema(), "a").unwrap(), "s");
        // Fine level (g, d), then re-aggregate to (g).
        let fk = hash_aggregate(&f, &[0, 1], std::slice::from_ref(&spec), &mut st).unwrap();
        let respec = AggSpec::new(AggFunc::Sum, Expr::Col(2), "s");
        let from_fk = hash_aggregate(&fk, &[0], &[respec], &mut st).unwrap();
        let from_f = hash_aggregate(&f, &[0], &[spec], &mut st).unwrap();
        prop_assert!(tables_equal(&from_fk, &from_f), "\n{from_fk}\n{from_f}");
    }

    #[test]
    fn missing_row_postprocess_completes_the_cube(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
        let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        let padded = engine
            .vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::PostProcess)
            .unwrap()
            .snapshot();
        // After padding, every (existing g-group) × (existing d-value) pair
        // is present exactly once.
        let f_shared = catalog.table("f").unwrap();
        let f = f_shared.read();
        let mut gs = std::collections::BTreeSet::new();
        let mut ds = std::collections::BTreeSet::new();
        for r in 0..f.num_rows() {
            gs.insert(f.get(r, 0).to_string());
            ds.insert(f.get(r, 1).to_string());
        }
        prop_assert_eq!(padded.num_rows(), gs.len() * ds.len());
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..padded.num_rows() {
            let key = (padded.get(r, 0).to_string(), padded.get(r, 1).to_string());
            prop_assert!(seen.insert(key.clone()), "duplicate {key:?}");
        }
    }
}
