//! Property tests for the physical operators, each checked against a naive
//! reference implementation over the same random input.

use pa_engine::{
    aggregate, distinct, divide, filter, hash_aggregate, lookup, pivot_aggregate, sort,
    window_aggregate, AggFunc, AggSpec, CmpOp, EngineError, ExecStats, Expr, ParallelConfig,
    PivotTask, ResourceGuard, Selected, Selection, SystemClock, Tracer, DEFAULT_DENSE_BUDGET,
};
use pa_storage::{Column, DataType, HashIndex, Schema, StorageError, Table, Value, NONE};
use proptest::prelude::*;
use std::borrow::Cow;

use pa_testkit::compare::{cell, cells, first_divergence};
use pa_testkit::gen::{self, corner_table, corner_values, Draw};
use pa_testkit::reference;

// ---- compiled selections against `Expr::eval` -----------------------------

/// A predicate the compiler takes whole: an `And` / `Or` / `Not` nest over
/// column-versus-literal comparisons (every operator, either operand
/// order) and `KeyEq`s, the literal of any type — the column's, another
/// number type, a string no dictionary holds, NULL.
fn compilable_predicate(draw: &mut Draw, depth: usize) -> Expr {
    if depth > 0 && draw.below(3) > 0 {
        let l = Box::new(compilable_predicate(draw, depth - 1));
        return match draw.below(3) {
            0 => Expr::Not(l),
            1 => Expr::And(l, Box::new(compilable_predicate(draw, depth - 1))),
            _ => Expr::Or(l, Box::new(compilable_predicate(draw, depth - 1))),
        };
    }
    let [ints, floats, mut strs] = corner_values();
    strs.push(Value::str("m")); // in no dictionary
    let col = Box::new(Expr::Col(1 + draw.below(4)));
    let lit = Box::new(Expr::Lit(draw.one_of(&[ints, floats, strs].concat())));
    let (l, r) = if draw.below(2) == 0 {
        (col, lit)
    } else {
        (lit, col)
    };
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    match draw.below(4) {
        0 => Expr::KeyEq(l, r),
        _ => Expr::Cmp(draw.one_of(&ops), l, r),
    }
}

/// The ids of the rows `Expr::eval` finds `pred` TRUE on.
fn rows_eval_keeps(t: &Table, pred: &Expr) -> Vec<Value> {
    (0..t.num_rows())
        .filter(
            |&row| match pred.eval(t, row, &mut ExecStats::default()).unwrap() {
                Value::Int(i) => i != 0,
                Value::Float(f) => f != 0.0,
                _ => false,
            },
        )
        .map(|row| t.get(row, 0))
        .collect()
}

/// How a scan of `t` through `pred` says the predicate ran, and how many
/// rows it says it selected: the selection a traced scan reports.
fn selection_a_scan_reports(t: &Table, pred: &Expr) -> (&'static str, u64) {
    let tracer = Tracer::enabled(SystemClock::shared());
    let guard = ResourceGuard::counting().with_tracer(tracer.clone());
    let (mut stats, config) = (ExecStats::default(), ParallelConfig::serial());
    let selection = Selection::compile(t.into(), pred, &guard, &mut stats, &config).unwrap();
    let count = [(
        vec![],
        vec![AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n")],
    )];
    let input = Selected::from(t).with(&selection);
    let out = aggregate(input, &count, &guard, &mut stats, &config).unwrap();
    let report = tracer.take_report();
    let by = |label: &str| report.spans().iter().find(|s| s.label == label);
    let pass = by("select").expect("the pass has a span");
    assert_eq!(pass.rows, 0, "the pass charges nothing");
    let reported = by("aggregate").and_then(|s| s.selection);
    let (mode, selected) = reported.expect("the scan's span names its selection");
    assert_eq!(pass.selection, reported, "pass and scan name one selection");
    assert_eq!(
        out[0].get(0, 0),
        Value::Int(selected as i64),
        "count(*) of the selection"
    );
    (mode, selected)
}

// ---- `divide` against a nested-loop join + a per-row safe divide ----------

/// The paper's `CASE WHEN total <> 0 THEN sum / total ELSE NULL END` on one
/// row's values: NULL for a NULL or zero total (of either sign) or a NULL
/// sum, integers widened.
fn safe_div(sum: &Value, total: &Value) -> Value {
    match (sum.as_f64(), total.as_f64()) {
        (Some(s), Some(t)) if t != 0.0 => Value::Float(s / t),
        _ => Value::Null,
    }
}

/// A fine level `[key, sum]` and a coarse one `[key, total]` over one key
/// column of `key_type` (`None`: a string column holding only NULLs), and
/// the fine rows' `parent` by construction: each fine row draws the coarse
/// row whose key it carries. One coarse key may be NULL; sums and totals
/// draw from NULL, zeros of both signs, NaN and ordinary values, as
/// integers or floats.
fn divide_case(
    draw: &mut Draw,
    key_type: Option<DataType>,
    int_sums: bool,
    int_totals: bool,
) -> (Table, Table, Vec<u32>) {
    let measure = |draw: &mut Draw, as_int: bool| match as_int {
        true => draw.one_of(&[Value::Null, Value::Int(0), Value::Int(5), Value::Int(-2)]),
        false => draw.one_of(&[
            Value::Null,
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(4.0),
            Value::Float(-2.5),
            Value::Float(1e300),
            Value::Float(f64::NAN),
        ]),
    };
    let measure_type = |as_int| {
        if as_int {
            DataType::Int
        } else {
            DataType::Float
        }
    };
    let groups = if key_type.is_none() {
        1
    } else {
        1 + draw.below(6)
    };
    let null_key = draw.below(groups + 1);
    let key = |p: usize| match key_type {
        _ if p == null_key => Value::Null,
        None => Value::Null,
        Some(DataType::Int) => Value::Int(p as i64 * 1_000_003 - 3),
        Some(DataType::Float) => Value::Float(p as f64 * 0.5 - 1.0),
        Some(DataType::Str) => Value::str(format!("k{p}")),
    };
    let key_type = key_type.unwrap_or(DataType::Str);
    let table = |measure_name, dtype| {
        let schema = Schema::from_pairs(&[("key", key_type), (measure_name, dtype)]);
        Table::empty(schema.unwrap().into_shared())
    };
    let mut coarse = table("total", measure_type(int_totals));
    for p in 0..groups {
        coarse
            .push_row(&[key(p), measure(draw, int_totals)])
            .unwrap();
    }
    let mut fine = table("sum", measure_type(int_sums));
    let mut parent = Vec::new();
    for _ in 0..draw.below(80) {
        let p = draw.below(groups);
        fine.push_row(&[key(p), measure(draw, int_sums)]).unwrap();
        parent.push(p as u32);
    }
    (fine, coarse, parent)
}

// ---- the pivot against `aggregate`, transposed by hand ---------------------

/// The measure column of a pivot case: whole numbers small enough that their
/// sums fold exactly, fractions, whole numbers too large to, or NULL only.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Measure {
    Whole,
    Fractional,
    Huge,
    Null,
}

const PIVOT_M: usize = 6;
const PIVOT_MI: usize = 7;
const PIVOT_SEL: usize = 8;

/// `gi, gf, gs, gn, b, bs, m, mi, sel`: four GROUP BY candidates (an
/// integer, a float, a string and a string column holding only NULLs), two
/// BY candidates, the float measure `m`, an integer measure `mi` and the
/// column the selection reads; NULLs in every key and measure.
fn pivot_table(draw: &mut Draw, n: usize, measure: Measure) -> Table {
    let schema = Schema::from_pairs(&[
        ("gi", DataType::Int),
        ("gf", DataType::Float),
        ("gs", DataType::Str),
        ("gn", DataType::Str),
        ("b", DataType::Int),
        ("bs", DataType::Str),
        ("m", DataType::Float),
        ("mi", DataType::Int),
        ("sel", DataType::Int),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for _ in 0..n {
        let k = draw.below(101) as i64 - 50;
        let m = match measure {
            Measure::Whole => Value::Float(k as f64),
            Measure::Fractional => Value::Float(k as f64 * 0.1),
            Measure::Huge => Value::Float((1u64 << 52) as f64 + k as f64),
            Measure::Null => Value::Null,
        };
        let mut row = vec![
            Value::Int(draw.below(4) as i64 * 7 - 7),
            Value::Float(draw.below(3) as f64 * 0.5),
            Value::str(["a", "b", "c", "d"][draw.below(4)]),
            Value::Null,
            Value::Int(draw.below(5) as i64),
            Value::str(["x", "y", "z"][draw.below(3)]),
            m,
            Value::Int(draw.below(19) as i64 - 9),
        ];
        for cell in &mut row {
            if draw.below(9) == 0 {
                *cell = Value::Null;
            }
        }
        row.push(Value::Int(draw.below(5) as i64));
        t.push_row(&row).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pivot_equals_aggregate_then_transpose(seed in any::<u64>(), shape in 0usize..6) {
        let mut draw = Draw::new(seed);
        let measure = [Measure::Whole, Measure::Fractional, Measure::Huge, Measure::Null][draw.below(4)];
        // Empty input, a few rows, or a few blocks and a ragged tail.
        let n = [0, draw.below(40), 1024 + draw.below(1500)][shape % 3];
        let t = pivot_table(&mut draw, n, measure);
        // GROUP BY: nothing, or one or two of the four candidates.
        let mut j_cols: Vec<usize> = Vec::new();
        if shape >= 3 {
            j_cols.push(draw.below(4));
            let second = draw.below(8);
            if second < 4 && second != j_cols[0] {
                j_cols.push(second);
            }
        }
        let (m, mi) = (Expr::Col(PIVOT_M), Expr::Col(PIVOT_MI));
        let lanes = [
            (AggFunc::Sum, m.clone()),
            (AggFunc::Count, m.clone()),
            (AggFunc::CountStar, Expr::lit(1)),
            (AggFunc::Sum, mi.clone()),
            (AggFunc::Min, m.clone()),
            (AggFunc::Max, mi.clone()),
            (AggFunc::Avg, m.clone()),
            (AggFunc::Min, Expr::Col(2)),
            (AggFunc::Sum, m.clone().add(Expr::lit(0))),
        ];
        let config = ParallelConfig {
            threads: [1, 2, 4][draw.below(3)],
            morsel_rows: 256,
            min_parallel_rows: 0,
            dense_budget: [0, 64, DEFAULT_DENSE_BUDGET][draw.below(3)],
            ..ParallelConfig::serial()
        };
        let guard = ResourceGuard::unlimited();
        let mut stats = ExecStats::default();
        let at_least = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Col(PIVOT_SEL)),
            Box::new(Expr::lit(draw.below(6) as i64)),
        );
        let selection = (draw.below(2) == 0)
            .then(|| Selection::compile((&t).into(), &at_least, &guard, &mut stats, &config).unwrap());
        let input = match &selection {
            Some(selection) => Selected::from(&t).with(selection),
            None => (&t).into(),
        };
        // The reference reads nothing the scan core does — the naive
        // reference — in the same worker chunks, so a fractional sum is
        // merged from the same partial sums.
        let rows = || {
            let rows = reference::Rows::all(n).chunked(config.chunks(n));
            match &selection {
                Some(_) => rows.where_true(&t, &at_least),
                None => rows,
            }
        };
        let budget = config.percentile_budget;

        // One or two tasks: BY one or both candidates (or a GROUP BY
        // candidate again), one to three lanes, a total or none; the
        // combinations are those the reference finds, one dropped, one that
        // occurs nowhere added.
        let mut tasks: Vec<PivotTask> = Vec::new();
        for _ in 0..1 + draw.below(2) {
            let by_cols = draw.one_of(&[vec![4], vec![5], vec![4, 5], vec![5, 4], vec![1], vec![0, 5]]);
            let mut by_cols: Vec<usize> = by_cols
                .into_iter()
                .filter(|c| !j_cols.contains(c))
                .collect();
            if by_cols.is_empty() {
                by_cols.push(4);
            }
            let task_lanes: Vec<(AggFunc, Expr)> =
                (0..1 + draw.below(3)).map(|_| draw.one_of(&lanes)).collect();
            let total = draw.one_of(&[None, Some(m.clone()), Some(mi.clone())]);
            let level = reference::aggregate(&t, &rows(), &by_cols, &[], budget);
            let mut combos: Vec<Vec<Value>> = level.rows().collect();
            if combos.len() > 1 && draw.below(2) == 0 {
                combos.remove(draw.below(combos.len()));
            }
            let nowhere = by_cols.iter().map(|&c| match c {
                5 => Value::str("nowhere"),
                _ => Value::Int(-1),
            });
            combos.insert(draw.below(combos.len() + 1), nowhere.collect());
            tasks.push(PivotTask { by_cols, lanes: task_lanes, combos, total });
        }
        let extras: Vec<(AggFunc, Expr)> = (0..draw.below(3)).map(|_| draw.one_of(&lanes)).collect();
        let want = reference::pivot(&t, &rows(), &j_cols, &tasks, &extras, budget);

        let mut stats = ExecStats::default();
        let got = pivot_aggregate(input, &j_cols, &tasks, &extras, &guard, &mut stats, &config).unwrap();
        let what = format!(
            "{measure:?} n={n} GROUP BY {j_cols:?} tasks={tasks:?} extras={extras:?} \
             selected={} {config:?}",
            selection.is_some()
        );
        let diff = first_divergence(&cells(&got), &cells(&want));
        prop_assert!(diff.is_none(), "{}: {}", diff.unwrap_or_default(), what);

        // Which plan ran: the GROUP BY level is scanned exactly when some
        // total or extra has no cell lane to fold from, or folding it
        // would not be exact.
        let whole = (0..n)
            .filter_map(|row| t.column(PIVOT_M).get_f64(row))
            .try_fold(0.0f64, |bound, x| (x.fract() == 0.0).then(|| bound.max(x.abs())));
        let m_folds = whole.is_some_and(|bound| bound < 2f64.powi(52) && n as f64 * bound < 2f64.powi(53));
        let carried = |lane: &(AggFunc, Expr)| tasks.iter().any(|task| task.lanes.contains(lane));
        let exact = |(func, input): &(AggFunc, Expr)| match func {
            AggFunc::Count | AggFunc::CountStar => true,
            AggFunc::Sum if *input == mi => true,
            AggFunc::Sum if *input == m => m_folds,
            _ => false,
        };
        let totals = tasks.iter().filter_map(|task| Some((AggFunc::Sum, task.total.clone()?)));
        let scans_group_by = totals.chain(extras.iter().cloned()).any(|lane| !(carried(&lane) && exact(&lane)));
        prop_assert_eq!(
            stats.dense_group_ops + stats.hash_group_ops,
            tasks.len() as u64 + u64::from(scans_group_by),
            "levels planned: {}", what
        );
    }

    #[test]
    fn divide_matches_join_then_safe_div(
        seed in any::<u64>(),
        key in 0usize..4,
        int_sums in any::<bool>(),
        int_totals in any::<bool>(),
    ) {
        let key_type = [Some(DataType::Int), Some(DataType::Float), Some(DataType::Str), None][key];
        let (fine, coarse, parent) = divide_case(&mut Draw::new(seed), key_type, int_sums, int_totals);
        // The scalar reference: a nested-loop join on the shared key under
        // `Value::key_eq` (a NULL key matches the NULL group; every fine
        // row finds its one coarse row), then `sum / total` per row.
        let mut matched = Vec::new();
        for row in 0..fine.num_rows() {
            let key = fine.get(row, 0);
            let rows: Vec<usize> = (0..coarse.num_rows())
                .filter(|&c| coarse.get(c, 0).key_eq(&key))
                .collect();
            prop_assert_eq!(rows.len(), 1, "fine row {}", row);
            matched.push(rows[0]);
        }
        let mut got = Column::new(DataType::Float);
        divide(fine.column(1), coarse.column(1), Some(&parent), &mut got);
        prop_assert_eq!(got.len(), fine.num_rows());
        for (row, &total) in matched.iter().enumerate() {
            let want = safe_div(&fine.get(row, 1), &coarse.get(total, 1));
            let got = got.get(row);
            prop_assert!(cell(&want) == cell(&got), "row {}: join + safe_div {:?}, divide {:?}", row, want, got);
        }
    }
}

// ---- `lookup` against a nested loop under `Value::key_eq` ------------------

/// A left table of up to 40 rows and a right one of distinct keys, over one
/// or two key columns of drawn types whose values come from the corner
/// values (NULL, `±0.0`, NaN of both signs, ..). The right side's strings
/// are interned in another order than the left's, so its dictionaries
/// differ, and holds only some of the keys.
fn lookup_case(draw: &mut Draw) -> (Table, Table) {
    let corners = corner_values();
    let types = [DataType::Int, DataType::Float, DataType::Str];
    let arity = 1 + draw.below(2);
    let drawn: Vec<usize> = (0..arity).map(|_| draw.below(3)).collect();
    let names = ["k0", "k1"];
    let fields: Vec<(&str, DataType)> = (drawn.iter().enumerate())
        .map(|(i, &t)| (names[i], types[t]))
        .collect();
    let schema = Schema::from_pairs(&fields).unwrap().into_shared();
    let key = |draw: &mut Draw| -> Vec<Value> {
        drawn.iter().map(|&t| draw.one_of(&corners[t])).collect()
    };
    let mut left = Table::empty(schema.clone());
    for _ in 0..draw.below(41) {
        left.push_row(&key(draw)).unwrap();
    }
    let mut keys: Vec<Vec<Value>> = Vec::new();
    for _ in 0..draw.below(13) {
        let k = key(draw);
        let same = |other: &Vec<Value>| other.iter().zip(&k).all(|(a, b)| a.key_eq(b));
        if !keys.iter().any(same) {
            keys.push(k);
        }
    }
    let mut right = Table::empty(schema);
    for k in keys.iter().rev() {
        right.push_row(k).unwrap();
    }
    (left, right)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_matches_nested_loop(seed in any::<u64>()) {
        let (left, right) = lookup_case(&mut Draw::new(seed));
        let keys: Vec<usize> = (0..left.num_columns()).collect();
        // Reference: for each left row, the right row whose every key
        // column is `key_eq` to its own (at most one: right keys are
        // distinct), or NONE.
        let want: Vec<u32> = (0..left.num_rows())
            .map(|l| {
                let same = |&r: &usize| keys.iter().all(|&k| left.get(l, k).key_eq(&right.get(r, k)));
                (0..right.num_rows()).find(same).map_or(NONE, |r| r as u32)
            })
            .collect();
        let guard = ResourceGuard::unlimited();
        let index = HashIndex::build(&right, &keys).unwrap();
        let mut stats = ExecStats::default();
        let outer = lookup(&left, &keys, Cow::Borrowed(&index), true, &guard, &mut stats);
        prop_assert_eq!(outer.unwrap(), want.clone());
        prop_assert_eq!(stats.hash_probes, left.num_rows() as u64);
        let inner = lookup(&left, &keys, Cow::Owned(index), false, &guard, &mut stats);
        match want.iter().position(|&r| r == NONE) {
            Some(row) => prop_assert_eq!(inner.unwrap_err(), EngineError::Storage(StorageError::MissingKey { row })),
            None => prop_assert_eq!(inner.unwrap(), want),
        }
        prop_assert_eq!(stats.hash_build_rows, right.num_rows() as u64);

        // A right side that repeats a key is refused.
        if right.num_rows() > 0 {
            let mut repeated = right.clone();
            repeated.push_row(&right.row(0).unwrap()).unwrap();
            let err = HashIndex::build(&repeated, &keys).unwrap_err();
            prop_assert_eq!(err, StorageError::DuplicateKey { row: right.num_rows() });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aggregate_matches_reference(seed in any::<u64>(), n in 0usize..120) {
        let t = gen::fact(&mut Draw::new(seed), n);
        let lane = |func, input: Expr| AggSpec::new(func, input, format!("{func:?}"));
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let specs = vec![
            lane(AggFunc::Sum, amt.clone()),
            lane(AggFunc::Count, amt.clone()),
            lane(AggFunc::CountStar, Expr::lit(1)),
            lane(AggFunc::Min, amt.clone()),
            lane(AggFunc::Max, amt),
            lane(AggFunc::CountDistinct, Expr::col(t.schema(), "d").unwrap()),
        ];
        let out = hash_aggregate(&t, &[0], &specs, &mut ExecStats::default()).unwrap();
        let want = reference::aggregate(&t, &reference::Rows::all(t.num_rows()), &[0], &specs, 0);
        let diff = first_divergence(&cells(&out), &cells(&want));
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
        let mut stats = ExecStats::default();
        let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        let out = distinct((&t).into(), &[0, 1], &guard, &mut stats, &config).unwrap();
        let want = reference::aggregate(&t, &reference::Rows::all(t.num_rows()), &[0, 1], &[], 0);
        prop_assert_eq!(cells(&out), cells(&want));
    }

    #[test]
    fn filter_matches_retain(seed in any::<u64>(), threshold in -5i64..=5) {
        let t = gen::fact(&mut Draw::new(seed), 120);
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let pred = Expr::Cmp(CmpOp::Gt, Box::new(amt), Box::new(Expr::lit(threshold)));
        let out = filter(&t, &pred, &mut ExecStats::default()).unwrap();
        let kept = (0..t.num_rows()).filter(|&r| t.get(r, 4).as_f64().is_some_and(|a| a > threshold as f64));
        prop_assert_eq!(out.num_rows(), kept.count(), "NULL predicates drop rows");
    }

    #[test]
    fn compiled_selection_matches_expr_eval(seed in any::<u64>(), blocks in 0usize..3) {
        let mut draw = Draw::new(seed);
        // A few rows, or a few blocks and a ragged tail.
        let n = blocks * 1024 + draw.below(130);
        let t = corner_table(&mut draw, n);
        let pred = compilable_predicate(&mut draw, 3);
        let want = rows_eval_keeps(&t, &pred);
        let kept = filter(&t, &pred, &mut ExecStats::default()).unwrap();
        let got: Vec<Value> = (0..kept.num_rows()).map(|r| kept.get(r, 0)).collect();
        prop_assert_eq!(&got, &want, "{:?}", pred);
        let (mode, selected) = selection_a_scan_reports(&t, &pred);
        prop_assert_eq!((mode, selected), ("compiled", want.len() as u64), "{:?}", pred);

        // The same predicate with one leaf the compiler does not take (a
        // column plus zero) runs the scalar mode into the same words.
        let uncompilable = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Col(0).add(Expr::lit(0))),
            Box::new(Expr::lit(0)),
        );
        let scalar = Expr::And(Box::new(pred.clone()), Box::new(uncompilable));
        let (mode, selected) = selection_a_scan_reports(&t, &scalar);
        prop_assert_eq!((mode, selected), ("scalar", want.len() as u64), "{:?}", scalar);
    }

    #[test]
    fn sort_matches_std_sort(seed in any::<u64>()) {
        let t = gen::fact(&mut Draw::new(seed), 120);
        let out = sort(&t, &[4], &mut ExecStats::default()).unwrap();
        let mut model: Vec<Value> = (0..t.num_rows()).map(|r| t.get(r, 4)).collect();
        model.sort_by(|a, b| a.total_cmp(b)); // NULLs first, then ascending
        let got: Vec<Value> = (0..out.num_rows()).map(|r| out.get(r, 4)).collect();
        prop_assert_eq!(got, model);
    }

    #[test]
    fn window_sum_equals_group_sum_broadcast(seed in any::<u64>()) {
        let t = gen::fact(&mut Draw::new(seed), 120);
        let config = ParallelConfig::serial();
        let out = window_aggregate(&t, &[0], AggFunc::Sum, 4, "w", &mut ExecStats::default(), &config).unwrap();
        let sum = AggSpec::new(AggFunc::Sum, Expr::Col(4), "s");
        let sums = reference::aggregate(&t, &reference::Rows::all(t.num_rows()), &[0], &[sum], 0);
        prop_assert_eq!(out.num_rows(), t.num_rows());
        for i in 0..out.num_rows() {
            let group = (0..sums.num_rows()).find(|&g| sums.get(g, 0).key_eq(&out.get(i, 0))).unwrap();
            prop_assert_eq!(cell(&out.get(i, 6)), cell(&sums.get(group, 1)));
        }
    }
}
