//! Cross-strategy equivalence on generated workloads.
//!
//! The papers' central correctness claim is that every evaluation strategy
//! computes the same result table. These tests run the evaluation-section
//! query shapes at smoke scale and require bit-identical (modulo row order
//! and Int/Float widening) results across every strategy, the hash-dispatch
//! ablation, and the OLAP baseline.

use percentage_aggregations::prelude::*;

fn sorted_rows(t: &Table) -> Vec<Vec<Value>> {
    let all: Vec<usize> = (0..t.num_columns()).collect();
    t.sorted_by(&all).rows().collect()
}

fn close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
        _ => a == b,
    }
}

fn assert_tables_equal(a: &Table, b: &Table, label: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{label}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{label}: column count");
    for (ra, rb) in sorted_rows(a).iter().zip(sorted_rows(b).iter()) {
        for (va, vb) in ra.iter().zip(rb) {
            assert!(close(va, vb), "{label}: {va} vs {vb} in {ra:?} / {rb:?}");
        }
    }
}

fn sales_catalog() -> Catalog {
    let catalog = Catalog::new();
    pa_workload::install_sales(
        &catalog,
        &SalesConfig {
            rows: 20_000,
            seed: 77,
        },
    )
    .unwrap();
    catalog
}

#[test]
fn vpct_strategies_agree_on_sales_workload() {
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    // The four SIGMOD Table 4 sales query shapes.
    let queries: [(&[&str], &[&str]); 4] = [
        (&["dweek"], &["dweek"]),
        (&["monthNo", "dweek"], &["dweek"]),
        (&["dept", "dweek", "monthNo"], &["dweek", "monthNo"]),
        (
            &["dept", "store", "dweek", "monthNo"],
            &["dweek", "monthNo"],
        ),
    ];
    for (group_by, by) in queries {
        let q = VpctQuery::single("sales", group_by, "salesAmt", by);
        let reference = engine
            .vpct_with(&q, &VpctStrategy::best())
            .unwrap()
            .snapshot();
        for strat in [
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy::synchronized(),
        ] {
            let got = engine.vpct_with(&q, &strat).unwrap().snapshot();
            assert_tables_equal(&reference, &got, &format!("{group_by:?} {strat:?}"));
        }
        // The OLAP window plan computes the same answer set (SIGMOD §4.2).
        let olap = engine.vpct_olap(&q).unwrap().snapshot();
        assert_tables_equal(&reference, &olap, &format!("{group_by:?} OLAP"));
    }
}

#[test]
fn horizontal_strategies_agree_on_sales_workload() {
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    let queries: [(&[&str], &[&str]); 3] = [
        (&["state"], &["dweek"]),
        (&["monthNo"], &["dweek"]),
        (&["state", "city"], &["dweek", "monthNo"]),
    ];
    for (group_by, by) in queries {
        let q = HorizontalQuery::hpct("sales", group_by, "salesAmt", by);
        let mut reference: Option<Table> = None;
        for strategy in HorizontalStrategy::all() {
            let opts = HorizontalOptions::with_strategy(strategy);
            let got = engine.horizontal_with(&q, &opts).unwrap().snapshot();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_tables_equal(r, &got, strategy.label()),
            }
        }
        let hash_tier = PercentageEngine::new(&catalog).with_config(ParallelConfig {
            dense_budget: 0,
            ..ParallelConfig::from_env()
        });
        for strategy in [
            HorizontalStrategy::CaseDirect,
            HorizontalStrategy::CaseFromFv,
        ] {
            let opts = HorizontalOptions::with_strategy(strategy);
            let got = hash_tier.horizontal_with(&q, &opts).unwrap().snapshot();
            assert_tables_equal(
                reference.as_ref().unwrap(),
                &got,
                &format!("{} + dispatch", strategy.label()),
            );
        }
    }
}

#[test]
fn hagg_strategies_agree_on_census_workload() {
    let catalog = Catalog::new();
    pa_workload::install_uscensus(
        &catalog,
        &CensusConfig {
            rows: 10_000,
            seed: 5,
        },
    )
    .unwrap();
    let engine = PercentageEngine::new(&catalog);
    for func in [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ] {
        let q = HorizontalQuery::hagg("uscensus", &["iSex"], func, "dIncome", &["iMarital"]);
        let mut reference: Option<Table> = None;
        for strategy in HorizontalStrategy::all() {
            let got = engine
                .horizontal_with(&q, &HorizontalOptions::with_strategy(strategy))
                .unwrap()
                .snapshot();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_tables_equal(r, &got, &format!("{func:?} {}", strategy.label())),
            }
        }
    }
}

#[test]
fn vpct_pair_consistency_vertical_vs_horizontal() {
    // The same percentages computed vertically and horizontally must agree:
    // FH(group)[combo] == FV(group, combo).
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    let v = engine
        .vpct(&VpctQuery::single(
            "sales",
            &["state", "dweek"],
            "salesAmt",
            &["dweek"],
        ))
        .unwrap()
        .snapshot();
    let h = engine
        .horizontal(&HorizontalQuery::hpct(
            "sales",
            &["state"],
            "salesAmt",
            &["dweek"],
        ))
        .unwrap()
        .snapshot();
    let hcol = |name: &str| h.schema().index_of(name).unwrap();
    // Index horizontal rows by state.
    let mut hrows = std::collections::HashMap::new();
    for r in 0..h.num_rows() {
        hrows.insert(h.get(r, 0).to_string(), r);
    }
    for r in 0..v.num_rows() {
        let state = v.get(r, 0).to_string();
        let day = v.get(r, 1).to_string();
        let pct_v = v.get(r, 2).as_f64().unwrap();
        let hr = hrows[&state];
        let pct_h = h.get(hr, hcol(&format!("dweek={day}"))).as_f64().unwrap();
        assert!(
            (pct_v - pct_h).abs() < 1e-9,
            "{state}/{day}: vertical {pct_v} vs horizontal {pct_h}"
        );
    }
}

#[test]
fn employee_queries_from_table4_shapes() {
    let catalog = Catalog::new();
    pa_workload::install_employee(
        &catalog,
        &EmployeeConfig {
            rows: 10_000,
            seed: 9,
        },
    )
    .unwrap();
    let engine = PercentageEngine::new(&catalog);
    // The four SIGMOD Table 4 employee query shapes.
    let queries: [(&[&str], &[&str]); 4] = [
        (&["gender"], &["gender"]),
        (&["gender", "marstatus"], &["marstatus"]),
        (&["gender", "educat", "marstatus"], &["educat", "marstatus"]),
        (
            &["gender", "educat", "age", "marstatus"],
            &["age", "marstatus"],
        ),
    ];
    for (group_by, by) in queries {
        let q = VpctQuery::single("employee", group_by, "salary", by);
        let best = engine.vpct_with(&q, &VpctStrategy::best()).unwrap();
        let upd = engine.vpct_with(&q, &VpctStrategy::with_update()).unwrap();
        assert_tables_equal(
            &best.snapshot(),
            &upd.snapshot(),
            &format!("employee {group_by:?}"),
        );
        // Percentages of each totals-group sum to 1.
        let t = best.snapshot();
        let j_len = group_by.len() - by.len();
        let mut sums: std::collections::HashMap<String, f64> = Default::default();
        for r in 0..t.num_rows() {
            let key: Vec<String> = (0..j_len).map(|c| t.get(r, c).to_string()).collect();
            if let Some(p) = t.get(r, group_by.len()).as_f64() {
                *sums.entry(key.join("|")).or_default() += p;
            }
        }
        for (k, s) in sums {
            assert!((s - 1.0).abs() < 1e-9, "{group_by:?} group {k}: {s}");
        }
    }
}
