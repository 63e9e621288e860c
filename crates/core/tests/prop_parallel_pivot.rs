//! Serial-vs-parallel byte-identity at the query level.
//!
//! The pivot operator is property-tested across worker counts {1, 2, 4, 7}
//! on random tables (NULLs, dictionary strings, duplicate keys), and every
//! horizontal strategy plus the vertical strategies are checked end to end
//! on a fact table large enough to actually engage the parallel path:
//! evaluating the same query serial and parallel must produce identical
//! result tables (same rows, same order — integer-valued measures make
//! float sums exact under any regrouping).

use pa_core::{
    dispatch::{pivot_aggregate_with_config, PivotTask},
    HorizontalOptions, HorizontalStrategy, HorizontalTerm, ParallelConfig, PercentageEngine,
    VpctQuery, VpctStrategy,
};
use pa_engine::{AggFunc, ExecStats, Expr, ResourceGuard};
use pa_storage::{Catalog, DataType, Schema, Table, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    g: Option<i64>,
    s: Option<usize>,
    a: Option<i64>,
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.9, 0..6i64),
            prop::option::weighted(0.9, 0..4usize),
            prop::option::weighted(0.85, -50..=50i64),
        )
            .prop_map(|(g, s, a)| Row { g, s, a }),
        0..max,
    )
}

const NAMES: [&str; 4] = ["north", "south", "east", "west"];

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, rows.len());
    for r in rows {
        t.push_row(&[
            Value::from(r.g),
            r.s.map_or(Value::Null, |i| Value::str(NAMES[i])),
            Value::from(r.a.map(|x| x as f64)),
        ])
        .unwrap();
    }
    t
}

fn snapshot(t: &Table) -> Vec<Vec<Value>> {
    t.rows().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_pivot_identical_to_serial(rows in rows_strategy(300)) {
        let t = table_of(&rows);
        let a = Expr::col(t.schema(), "a").unwrap();
        let mut combos: Vec<Vec<Value>> =
            NAMES.iter().map(|n| vec![Value::str(*n)]).collect();
        combos.push(vec![Value::Null]);
        let tasks = vec![PivotTask {
            by_cols: vec![1],
            lanes: vec![
                (AggFunc::Sum, a.clone()),
                (AggFunc::Count, a.clone()),
                (AggFunc::Min, a.clone()),
            ],
            combos,
            total: Some(a.clone()),
        }];
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let mut outs = Vec::new();
        for threads in [1usize, 2, 4, 7] {
            let config = ParallelConfig {
                threads,
                morsel_rows: 16,
                min_parallel_rows: 0,
            ..ParallelConfig::serial()
            };
            outs.push(pivot_aggregate_with_config(
                &t,
                &[0],
                &tasks,
                &extras,
                &ResourceGuard::unlimited(),
                &mut ExecStats::default(),
                &config,
            )
            .unwrap());
        }
        let serial = snapshot(&outs[0]);
        for (i, out) in outs.iter().enumerate().skip(1) {
            prop_assert_eq!(&serial, &snapshot(out), "variant {}", i);
        }
    }
}

/// Fact table big enough (≈3 default morsels) that a four-thread
/// configuration genuinely fans out inside a full query evaluation.
fn big_catalog() -> Catalog {
    let n = 140_000usize;
    let schema = Schema::from_pairs(&[
        ("store", DataType::Int),
        ("dept", DataType::Str),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    let depts = ["grocery", "toys", "garden", "auto", "books"];
    for i in 0..n {
        t.push_row(&[
            if i % 31 == 0 {
                Value::Null
            } else {
                Value::Int((i as i64 * 17) % 13)
            },
            Value::str(depts[(i * 7) % depts.len()]),
            if i % 23 == 0 {
                Value::Null
            } else {
                Value::Float((i % 199) as f64)
            },
        ])
        .unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("sales", t).unwrap();
    catalog
}

#[test]
fn every_horizontal_strategy_is_parallel_deterministic() {
    let catalog = big_catalog();
    let q = pa_core::HorizontalQuery {
        table: "sales".into(),
        group_by: vec!["store".into()],
        terms: vec![HorizontalTerm::hpct("amt", &["dept"])],
        extra: Vec::new(),
    };
    // Each variant as (label, strategy, dense budget).
    let mut variants: Vec<(String, HorizontalOptions, usize)> = Vec::new();
    let budget = ParallelConfig::serial().dense_budget;
    for strategy in HorizontalStrategy::all() {
        variants.push((
            strategy.label().to_string(),
            HorizontalOptions::with_strategy(strategy),
            budget,
        ));
    }
    variants.push(("CASE hash tier".into(), HorizontalOptions::default(), 0));
    for (label, opts, dense_budget) in variants {
        let run = |threads: usize| {
            let config = ParallelConfig {
                dense_budget,
                ..ParallelConfig::with_threads(threads)
            };
            PercentageEngine::new(&catalog)
                .with_config(config)
                .horizontal_with(&q, &opts)
                .unwrap_or_else(|e| panic!("{label} at {threads} thread(s): {e}"))
        };
        assert_eq!(
            snapshot(&run(1).snapshot()),
            snapshot(&run(4).snapshot()),
            "{label}"
        );
    }
}

#[test]
fn every_vpct_strategy_is_parallel_deterministic() {
    let catalog = big_catalog();
    let q = VpctQuery::single("sales", &["store", "dept"], "amt", &["dept"]);
    let strategies = [
        ("best", VpctStrategy::best()),
        ("without_index", VpctStrategy::without_index()),
        ("with_update", VpctStrategy::with_update()),
        ("fj_from_f", VpctStrategy::fj_from_f()),
        ("synchronized", VpctStrategy::synchronized()),
    ];
    let serial = PercentageEngine::new(&catalog).with_config(ParallelConfig::serial());
    let parallel = PercentageEngine::new(&catalog).with_config(ParallelConfig {
        threads: 4,
        morsel_rows: 4096,
        min_parallel_rows: 1,
        ..ParallelConfig::serial()
    });
    for (label, strat) in strategies {
        let run = |engine: &PercentageEngine<'_>, side: &str| {
            let result = engine.vpct_with(&q, &strat);
            snapshot(
                &result
                    .unwrap_or_else(|e| panic!("{label} {side}: {e}"))
                    .snapshot(),
            )
        };
        assert_eq!(
            run(&serial, "serial"),
            run(&parallel, "parallel"),
            "{label}"
        );
    }
}
