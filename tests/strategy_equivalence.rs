//! Cross-strategy equivalence on the evaluation section's workloads.
//!
//! The papers' central correctness claim is that every evaluation strategy
//! computes the same result table. These tests run the evaluation-section
//! query shapes at smoke scale and require the same names, types and bits
//! (modulo row order) across every strategy, the hash-dispatch ablation
//! and the OLAP baseline. The measures are loaded in whole cents, so every
//! sum is exact however a plan groups it (DESIGN.md §7).

use pa_testkit::{assert_same_rows, gen};
use percentage_aggregations::prelude::*;
use std::collections::HashMap;

/// A catalog holding `t` as `name`, its float `measure` in whole cents.
fn catalog_of(name: &str, t: Table, measure: &str) -> Catalog {
    let catalog = Catalog::new();
    catalog
        .create_table(name, gen::in_cents(t, measure))
        .unwrap();
    catalog
}

fn sales_catalog() -> Catalog {
    let config = SalesConfig {
        rows: 20_000,
        seed: 77,
    };
    catalog_of("sales", pa_workload::sales_table(&config), "salesAmt")
}

/// Every answer is the first one; the first one.
fn agree(mut answers: impl Iterator<Item = (String, Table)>) -> Table {
    let (_, first) = answers.next().unwrap();
    answers.for_each(|(what, got)| assert_same_rows(&got, &first, &what));
    first
}

fn vpct_strategies() -> [VpctStrategy; 5] {
    use VpctStrategy as S;
    [
        S::best(),
        S::without_index(),
        S::with_update(),
        S::fj_from_f(),
        S::synchronized(),
    ]
}

/// Every horizontal strategy, then the CASE pair on the hash tier.
fn horizontal_agree(engine: &PercentageEngine<'_>, q: &HorizontalQuery, what: &str) {
    let hash_tier = ParallelConfig {
        dense_budget: 0,
        ..ParallelConfig::from_env()
    };
    let hash_tier = engine.clone().with_config(hash_tier);
    let case = [
        HorizontalStrategy::CaseDirect,
        HorizontalStrategy::CaseFromFv,
    ];
    let runs = (HorizontalStrategy::all().into_iter().map(|s| (s, engine)))
        .chain(case.into_iter().map(|s| (s, &hash_tier)));
    agree(runs.enumerate().map(|(i, (strategy, engine))| {
        let got = engine.horizontal_with(q, &HorizontalOptions::with_strategy(strategy));
        (
            format!("{what} run {i}: {}", strategy.label()),
            got.unwrap().snapshot(),
        )
    }));
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
        let runs = vpct_strategies().into_iter().map(|s| {
            let got = engine.vpct_with(&q, &s).unwrap().snapshot();
            (format!("{group_by:?} {s:?}"), got)
        });
        // The OLAP window plan computes the same answer set (SIGMOD §4.2).
        let olap = engine.vpct_olap(&q).unwrap().snapshot();
        agree(runs.chain([(format!("{group_by:?} OLAP"), olap)]));
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
        horizontal_agree(&engine, &q, &format!("{group_by:?}"));
    }
}

#[test]
fn hagg_strategies_agree_on_census_workload() {
    let config = CensusConfig {
        rows: 10_000,
        seed: 5,
    };
    let catalog = catalog_of("uscensus", pa_workload::uscensus_table(&config), "dIncome");
    let engine = PercentageEngine::new(&catalog);
    use AggFunc::{Avg, Count, Max, Min, Sum};
    for func in [Sum, Count, Avg, Min, Max] {
        let q = HorizontalQuery::hagg("uscensus", &["iSex"], func, "dIncome", &["iMarital"]);
        horizontal_agree(&engine, &q, &format!("{func:?}"));
    }
}

#[test]
fn vpct_pair_consistency_vertical_vs_horizontal() {
    // The same percentages computed vertically and horizontally must agree:
    // FH(group)[combo] == FV(group, combo), to the bit.
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    let vq = VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]);
    let v = engine.vpct(&vq).unwrap().snapshot();
    let hq = HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["dweek"]);
    let h = engine.horizontal(&hq).unwrap().snapshot();
    // Index horizontal rows by state.
    let hrows: HashMap<String, usize> = (0..h.num_rows())
        .map(|r| (h.get(r, 0).to_string(), r))
        .collect();
    for r in 0..v.num_rows() {
        let (state, day) = (v.get(r, 0).to_string(), v.get(r, 1));
        let pct_v = v.get(r, 2).as_f64().unwrap();
        let c = h.schema().index_of(&format!("dweek={day}")).unwrap();
        let pct_h = h.get(hrows[&state], c).as_f64().unwrap();
        let what = format!("{state}/{day}: vertical {pct_v} vs horizontal {pct_h}");
        assert_eq!(pct_v.to_bits(), pct_h.to_bits(), "{what}");
    }
}

#[test]
fn employee_queries_from_table4_shapes() {
    let config = EmployeeConfig {
        rows: 10_000,
        seed: 9,
    };
    let catalog = catalog_of("employee", pa_workload::employee_table(&config), "salary");
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
        let runs = [VpctStrategy::best(), VpctStrategy::with_update()].map(|s| {
            let got = engine.vpct_with(&q, &s).unwrap().snapshot();
            (format!("employee {group_by:?} {s:?}"), got)
        });
        let t = agree(runs.into_iter());
        // Percentages of each totals-group sum to 1, to within the rounding
        // of each quotient.
        let j_len = group_by.len() - by.len();
        let mut sums: HashMap<String, f64> = HashMap::new();
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
