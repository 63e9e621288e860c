//! One scan mode: every shape that once took a per-row loop of its own now
//! rides the block loop, and answers what the naive reference
//! (`pa_testkit::reference`) does, byte for byte.
//!
//! The shapes: `min`/`max` over integer, float and string inputs (all-NULL
//! columns included); `count(DISTINCT …)` and a count of strings; literal
//! inputs (`sum(1)`, `sum(0.1)`, `median(1)`); an arithmetic lane and a
//! CASE chain; and keys no coder packs — a float dimension (NULL, `-0.0`
//! before `0.0`, NaNs of both signs), an integer holding `i64::MIN` and
//! `i64::MAX`, three full-range integers together — as a GROUP BY
//! (`aggregate`), as ROLLUP levels (`lattice_aggregate`) and as a BY
//! (`pivot_aggregate`). The grid is threads {1, 2, 4} × dense budget
//! {default, 0} × `WHERE` on / off, the reference running over the same
//! worker chunks; no row may be counted by a per-row loop.

use pa_engine::{
    aggregate, lattice_aggregate, pivot_aggregate, AggFunc, AggSpec, CmpOp, ExecStats, Expr, PBits,
    ParallelConfig, PivotTask, ResourceGuard, Selected, Selection, DEFAULT_DENSE_BUDGET,
};
use pa_storage::{DataType, Schema, Table, Value};

use pa_testkit::reference;

const N: usize = 3_000;
const G: usize = 0;
const F: usize = 1;
const I: usize = 2;
const J: usize = 3;
const K: usize = 4;
const M: usize = 5;
const MI: usize = 6;
const NULL_F: usize = 7;
const NULL_S: usize = 8;
const NULL_I: usize = 9;
const SEL: usize = 10;

/// `N` rows: a string key, a float key, three full-range integer keys, a
/// whole-number float and an integer measure, three all-NULL columns and
/// the column the `WHERE` reads.
fn table() -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Str),
        ("f", DataType::Float),
        ("i", DataType::Int),
        ("j", DataType::Int),
        ("k", DataType::Int),
        ("m", DataType::Float),
        ("mi", DataType::Int),
        ("null_f", DataType::Float),
        ("null_s", DataType::Str),
        ("null_i", DataType::Int),
        ("sel", DataType::Int),
    ])
    .unwrap()
    .into_shared();
    let floats = [-0.0, 0.0, f64::NAN, 1.5, -f64::NAN, -2.25, 0.0];
    let ints = [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1];
    let mut t = Table::with_capacity(schema, N);
    let mut state = 0x0ddb_a115_eed0_u64;
    for row in 0..N {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = |shift: u32, n: u64| ((state >> shift) % n) as usize;
        let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
        // The first rows put `-0.0` ahead of `0.0` and a NaN ahead of its
        // negative, and each key appears on many rows.
        let f = if row < floats.len() { row } else { draw(7, 7) };
        t.push_row(&[
            or_null(draw(11, 9) == 0, Value::str(["a", "b", "c"][draw(13, 3)])),
            or_null(
                row >= floats.len() && draw(17, 11) == 0,
                Value::Float(floats[f]),
            ),
            or_null(draw(19, 13) == 0, Value::Int(ints[draw(23, 5)])),
            Value::Int(ints[draw(29, 3)]),
            Value::Int(ints[draw(31, 2)]),
            or_null(
                draw(37, 7) == 0,
                Value::Float(draw(41, 1000) as f64 - 500.0),
            ),
            or_null(draw(43, 5) == 0, Value::Int(draw(47, 100) as i64 - 50)),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(draw(53, 5) as i64),
        ])
        .unwrap();
    }
    t
}

/// Every lane no typed kernel reads, beside two it does.
fn lanes() -> Vec<AggSpec> {
    let col = Expr::Col;
    let case = Expr::Case {
        branches: vec![(col(G).eq(Expr::lit("a")), col(M))],
        else_value: None,
    };
    let lanes = [
        (AggFunc::Sum, col(M)),
        (AggFunc::CountStar, Expr::lit(1)),
        (AggFunc::Min, col(MI)),
        (AggFunc::Max, col(MI)),
        (AggFunc::Min, col(M)),
        (AggFunc::Max, col(M)),
        (AggFunc::Min, col(G)),
        (AggFunc::Max, col(G)),
        (AggFunc::Min, col(NULL_F)),
        (AggFunc::Max, col(NULL_S)),
        (AggFunc::Min, col(NULL_I)),
        (AggFunc::CountDistinct, col(M)),
        (AggFunc::Count, col(G)),
        (AggFunc::Sum, Expr::lit(1)),
        (AggFunc::Sum, Expr::lit(0.1)),
        (AggFunc::Percentile(PBits::new(0.5)), Expr::lit(1)),
        (AggFunc::Sum, col(M).add(col(MI))),
        (AggFunc::Sum, case),
    ];
    let named = lanes.into_iter().enumerate();
    named
        .map(|(x, (func, input))| AggSpec::new(func, input, format!("x{x}")))
        .collect()
}

/// The grid: threads × dense budget × `WHERE`.
fn grid() -> Vec<(ParallelConfig, bool)> {
    let mut grid = Vec::new();
    for threads in [1, 2, 4] {
        for dense_budget in [DEFAULT_DENSE_BUDGET, 0] {
            for selected in [false, true] {
                let config = ParallelConfig {
                    threads,
                    morsel_rows: 256,
                    min_parallel_rows: 0,
                    dense_budget,
                    ..ParallelConfig::serial()
                };
                grid.push((config, selected));
            }
        }
    }
    grid
}

fn sel_at_least_2() -> Expr {
    Expr::Cmp(
        CmpOp::Ge,
        Box::new(Expr::Col(SEL)),
        Box::new(Expr::lit(2i64)),
    )
}

/// Runs `check` over every cell of the grid with the engine's input and the
/// reference's rows.
fn over_the_grid(
    t: &Table,
    mut check: impl FnMut(Selected<'_>, &reference::Rows<'_>, &ParallelConfig, String),
) {
    let predicate = sel_at_least_2();
    let guard = ResourceGuard::unlimited();
    for (config, selected) in grid() {
        let chunks = config.chunks(N);
        let rows = reference::Rows::all(N).chunked(chunks);
        let what = format!("{config:?} where={selected}");
        if selected {
            let mut stats = ExecStats::default();
            let selection =
                Selection::compile(t.into(), &predicate, &guard, &mut stats, &config).unwrap();
            let rows = rows.where_true(t, &predicate);
            check(Selected::from(t).with(&selection), &rows, &config, what);
        } else {
            check(t.into(), &rows, &config, what);
        }
    }
}

#[test]
fn every_lane_and_key_that_went_per_row_is_the_references_in_the_block_loop() {
    let t = table();
    let aggs = lanes();
    let guard = ResourceGuard::unlimited();
    let keys: [&[usize]; 6] = [&[F], &[G, F], &[I], &[I, J, K], &[G], &[]];
    over_the_grid(&t, |input, rows, config, what| {
        let levels: Vec<(Vec<usize>, Vec<AggSpec>)> =
            keys.iter().map(|k| (k.to_vec(), aggs.clone())).collect();
        let mut stats = ExecStats::default();
        let got = aggregate(input, &levels, &guard, &mut stats, config).unwrap();
        // One stream per level, each counting every selected row once.
        let streams = keys.len() as u64 * selected_rows(&t, rows);
        let loops = (stats.vectorized_kernel_rows, stats.scalar_kernel_rows);
        assert_eq!(loops, (streams, 0), "{what}");
        for (got, key) in got.iter().zip(keys) {
            let want = reference::aggregate(&t, rows, key, &aggs, config.percentile_budget);
            reference::assert_same(got, &want, &format!("{what} GROUP BY {key:?}"));
        }
    });
}

/// How many rows `rows` reads, by the reference's `count(*)`.
fn selected_rows(t: &Table, rows: &reference::Rows<'_>) -> u64 {
    let count = [AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n")];
    let n = reference::aggregate(t, rows, &[], &count, 0).get(0, 0);
    n.as_f64().unwrap() as u64
}

#[test]
fn case_conditions_are_counted_once_per_selected_row() {
    let t = table();
    let aggs = lanes();
    let guard = ResourceGuard::unlimited();
    over_the_grid(&t, |input, rows, config, what| {
        let mut stats = ExecStats::default();
        let level = [(vec![F], aggs.clone())];
        aggregate(input, &level, &guard, &mut stats, config).unwrap();
        let n = selected_rows(&t, rows);
        assert_eq!(stats.case_condition_evals, n, "{what}");
    });
}

#[test]
fn rollup_levels_over_keys_no_coder_packs_are_the_references() {
    let t = table();
    let aggs = lanes();
    let guard = ResourceGuard::unlimited();
    // A float leads the key (no stream codes it, every level is its own
    // stream), or follows a string (the string level still codes).
    let rollups: [(&[usize], &[&[usize]]); 3] = [
        (&[F, G], &[&[0, 1], &[0]]),
        (&[G, F], &[&[0, 1], &[0]]),
        (&[I, J, K], &[&[0, 1, 2], &[0, 1], &[0]]),
    ];
    over_the_grid(&t, |input, rows, config, what| {
        for (key, dims) in rollups {
            let levels: Vec<(&[usize], &[AggSpec])> =
                dims.iter().map(|d| (*d, &aggs[..])).collect();
            let mut stats = ExecStats::default();
            let got = lattice_aggregate(input, key, &levels, &guard, &mut stats, config).unwrap();
            assert_eq!(stats.scalar_kernel_rows, 0, "{what}");
            for (got, dims) in got.iter().zip(dims) {
                let cols: Vec<usize> = dims.iter().map(|&d| key[d]).collect();
                let budget = config.percentile_budget;
                let want = reference::aggregate(&t, rows, &cols, &aggs, budget);
                let want = want.sorted_by(&(0..cols.len()).collect::<Vec<_>>());
                reference::assert_same(got, &want, &format!("{what} ROLLUP {key:?} {dims:?}"));
            }
        }
    });
}

#[test]
fn a_float_by_and_a_float_group_by_pivot_as_the_reference_does() {
    let t = table();
    let aggs = lanes();
    let guard = ResourceGuard::unlimited();
    let cell_lanes: Vec<(AggFunc, Expr)> = [0usize, 4, 6, 11, 16]
        .iter()
        .map(|&x| (aggs[x].func, aggs[x].input.clone()))
        .collect();
    let extras = vec![
        (AggFunc::Percentile(PBits::new(0.5)), Expr::lit(1)),
        (AggFunc::Max, Expr::Col(G)),
    ];
    over_the_grid(&t, |input, rows, config, what| {
        for (j_cols, by) in [(vec![G], F), (vec![F], G), (vec![], F), (vec![I], F)] {
            // Every BY value the reference finds, and one found nowhere.
            let values = reference::aggregate(&t, rows, &[by], &[], 0);
            let mut combos: Vec<Vec<Value>> = values.rows().collect();
            combos.push(vec![match by {
                F => Value::Float(7.75),
                _ => Value::str("nowhere"),
            }]);
            let tasks = [PivotTask {
                by_cols: vec![by],
                lanes: cell_lanes.clone(),
                combos,
                total: Some(Expr::Col(M)),
            }];
            let mut stats = ExecStats::default();
            let got = pivot_aggregate(input, &j_cols, &tasks, &extras, &guard, &mut stats, config)
                .unwrap();
            assert_eq!(stats.scalar_kernel_rows, 0, "{what}");
            let budget = config.percentile_budget;
            let want = reference::pivot(&t, rows, &j_cols, &tasks, &extras, budget);
            reference::assert_same(&got, &want, &format!("{what} GROUP BY {j_cols:?} BY {by}"));
        }
    });
}
