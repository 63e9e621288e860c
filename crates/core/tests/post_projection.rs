//! The horizontal post-projection and the missing-row pads against per-row
//! references.
//!
//! Every horizontal strategy ends in the same post-projection — the keys
//! moved over, each cell one typed operation on its raw lanes — so the
//! strategy oracles, which compare the strategies with each other, cannot
//! see a mistake in it. Here every cell is recomputed from the fact rows by
//! a nested loop and the per-row rule of the generated SQL: `CASE WHEN
//! total <> 0 THEN (CASE WHEN cell IS NULL THEN 0 ELSE cell END) / total
//! END` for a percentage, `sum / count` for an `avg`, NULL read as 0 for
//! `DEFAULT 0` and for the count family, a count an `Int`. Each result is
//! compared by dtype, validity and `f64` bits, under every strategy, with
//! the pivot and with the CASE chain, at 1 and 4 threads. The measures are
//! whole numbers and halves, so every sum is exact in any order and any
//! regrouping.
//!
//! The missing-row pads are held to a nested loop over the distinct groups
//! and the distinct `BY` combinations, in the order the paper's script
//! inserts them: each group's combinations, groups in order of appearance.

use pa_core::{
    ExtraAgg, HorizontalOptions, HorizontalQuery, HorizontalStrategy, HorizontalTerm, Measure,
    MissingRows, PercentageEngine, VpctQuery, VpctStrategy,
};
use pa_engine::{AggFunc, ParallelConfig};
use pa_storage::{Catalog, Column, DataType, Schema, Table, Value};
use std::cmp::Ordering;

/// `Value` equality with floats compared by bits (NaN is a value here).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Distinct tuples in order of first appearance, under grouping equality.
fn distinct(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if !out.iter().any(|seen| keys_eq(seen, &row)) {
            out.push(row);
        }
    }
    out
}

fn keys_eq(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.key_eq(y))
}

fn table(fields: &[(&str, DataType)], rows: &[Vec<Value>]) -> Table {
    let mut t = Table::empty(Schema::from_pairs(fields).unwrap().into_shared());
    for row in rows {
        t.push_row(row).unwrap();
    }
    t
}

fn configs() -> [(usize, ParallelConfig); 2] {
    [
        (1, ParallelConfig::serial()),
        (4, ParallelConfig::with_threads(4)),
    ]
}

// ---- The post-projection ---------------------------------------------------

/// `state` and `city` keys with NULLs, a cell no row fed (no `TX` row in
/// `NY`), a group whose total is zero (`ZR`: 2.5, -2.5, -0.0), one whose
/// measure is all NULL (`NL`), and a measure column `nm` that is NULL
/// everywhere.
fn sales() -> Table {
    let s = |x: &str| Value::str(x);
    let states = [s("CA"), s("TX"), Value::Null, s("NV")];
    let cities = [s("LA"), s("SF"), Value::Null, s("NY")];
    let amts = [1.5, f64::NAN, 4.0, -2.0, 0.5, -0.0, 3.0];
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..40usize {
        let (state, city) = (states[i % 4].clone(), cities[(i * 3 / 2) % 4].clone());
        if state == s("TX") && city == s("NY") {
            continue;
        }
        let q = match i % 7 {
            0 => Value::Null,
            _ => Value::Int((i % 5) as i64 - 1),
        };
        let amt = match amts[i % 7] {
            x if x.is_nan() => Value::Null,
            x => Value::Float(x),
        };
        rows.push(vec![state, city, q, amt, Value::Null]);
    }
    for (state, city, q, amt) in [
        ("ZR", s("LA"), Value::Int(1), Value::Float(2.5)),
        ("ZR", s("SF"), Value::Int(2), Value::Float(-2.5)),
        ("ZR", s("LA"), Value::Null, Value::Float(-0.0)),
        ("NL", s("NY"), Value::Int(3), Value::Null),
        ("NL", Value::Null, Value::Null, Value::Null),
    ] {
        rows.push(vec![s(state), city, q, amt, Value::Null]);
    }
    let fields = [
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("q", DataType::Int),
        ("amt", DataType::Float),
        ("nm", DataType::Float),
    ];
    table(&fields, &rows)
}

/// `func` over the measure values of some rows, as the aggregate states
/// it: a sum from 0 over the non-NULL values (NULL when there is none), a
/// count, an `avg` as that sum over that count, `min` / `max` in the
/// measure's type.
fn aggregate(func: AggFunc, values: &[Value]) -> Value {
    let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    let sum = || present.iter().fold(0.0, |s, v| s + v.as_f64().unwrap());
    match func {
        AggFunc::CountStar => Value::Int(values.len() as i64),
        AggFunc::Count => Value::Int(present.len() as i64),
        AggFunc::Sum if present.is_empty() => Value::Null,
        AggFunc::Sum => Value::Float(sum()),
        AggFunc::Avg if present.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(sum() / present.len() as f64),
        AggFunc::Min | AggFunc::Max => {
            let values = present.into_iter();
            let best = match func {
                AggFunc::Min => values.min_by(|a, b| a.total_cmp(b)),
                _ => values.max_by(|a, b| a.total_cmp(b)),
            };
            best.map_or(Value::Null, Value::clone)
        }
        other => panic!("{other:?} is not in this test"),
    }
}

/// The type a result cell of `func` has: a percentage or an `avg` a
/// `Float`, the count family an `Int`, `min` / `max` the measure's.
fn cell_type(func: AggFunc, percentage: bool, measure: DataType) -> DataType {
    match func {
        _ if percentage => DataType::Float,
        AggFunc::Count | AggFunc::CountStar => DataType::Int,
        AggFunc::Min | AggFunc::Max => measure,
        _ => DataType::Float,
    }
}

/// The per-row rule of the generated `SELECT` on one cell's values.
fn finish(cell: Value, total: Option<&Value>, zero: bool, dtype: DataType) -> Value {
    let cell = match total {
        None => cell,
        Some(total) => match total.as_f64() {
            Some(t) if t != 0.0 => Value::Float(cell.as_f64().unwrap_or(0.0) / t),
            _ => Value::Null,
        },
    };
    let cell = match cell {
        Value::Null if zero => Value::Int(0),
        cell => cell,
    };
    match (cell, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (Value::Float(x), DataType::Int) => Value::Int(x as i64),
        (cell, _) => cell,
    }
}

/// The measure of one fact row.
fn measure_of(f: &Table, m: &Measure, row: usize) -> Value {
    match m {
        Measure::Column(name) => f.get(row, f.schema().index_of(name).unwrap()),
        Measure::LitInt(i) => Value::Int(*i),
        Measure::LitFloat(x) => Value::Float(*x),
    }
}

fn measure_type(f: &Table, m: &Measure) -> DataType {
    match m {
        Measure::Column(name) => {
            f.schema()
                .field_at(f.schema().index_of(name).unwrap())
                .dtype
        }
        Measure::LitInt(_) => DataType::Int,
        Measure::LitFloat(_) => DataType::Float,
    }
}

/// The whole result of `q` over `f`, row for row beside `got`'s keys: the
/// keys, every term's cells (its combinations sorted as the result's
/// columns are, NULL first), every extra.
fn reference(f: &Table, q: &HorizontalQuery, got: &Table) -> (Vec<DataType>, Vec<Vec<Value>>) {
    let col = |name: &String| f.schema().index_of(name).unwrap();
    let keys: Vec<usize> = q.group_by.iter().map(col).collect();
    let tuple = |row: usize, cols: &[usize]| -> Vec<Value> {
        cols.iter().map(|&c| f.get(row, c)).collect()
    };
    let groups = distinct((0..f.num_rows()).map(|r| tuple(r, &keys)));
    assert_eq!(got.num_rows(), groups.len(), "one result row per group");
    let mut dtypes: Vec<DataType> = keys.iter().map(|&c| f.schema().field_at(c).dtype).collect();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for r in 0..got.num_rows() {
        let key: Vec<Value> = (0..keys.len()).map(|c| got.get(r, c)).collect();
        let in_group: Vec<usize> = (0..f.num_rows())
            .filter(|&row| keys_eq(&tuple(row, &keys), &key))
            .collect();
        assert!(!in_group.is_empty(), "result row {r} is a group of F");
        let mut row = key;
        for term in &q.terms {
            let by: Vec<usize> = term.by.iter().map(col).collect();
            let mut combos = distinct((0..f.num_rows()).map(|row| tuple(row, &by)));
            combos.sort_by(|a, b| {
                let order = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
                order.fold(Ordering::Equal, Ordering::then)
            });
            let values = |rows: &mut dyn Iterator<Item = &usize>| -> Vec<Value> {
                rows.map(|&row| measure_of(f, &term.measure, row)).collect()
            };
            let total = term
                .percentage
                .then(|| aggregate(AggFunc::Sum, &values(&mut in_group.iter())));
            let dtype = cell_type(term.func, term.percentage, measure_type(f, &term.measure));
            let zero =
                term.default_zero || matches!(term.func, AggFunc::Count | AggFunc::CountStar);
            for combo in &combos {
                let mut fed = in_group
                    .iter()
                    .filter(|&&row| keys_eq(&tuple(row, &by), combo));
                let cell = aggregate(term.func, &values(&mut fed));
                row.push(finish(cell, total.as_ref(), zero, dtype));
                if r == 0 {
                    dtypes.push(dtype);
                }
            }
        }
        for extra in &q.extra {
            let m = extra.measure.clone().unwrap_or(Measure::LitInt(1));
            let values: Vec<Value> = in_group.iter().map(|&row| measure_of(f, &m, row)).collect();
            let dtype = cell_type(extra.func, false, measure_type(f, &m));
            let zero = matches!(extra.func, AggFunc::Count | AggFunc::CountStar);
            row.push(finish(aggregate(extra.func, &values), None, zero, dtype));
            if r == 0 {
                dtypes.push(dtype);
            }
        }
        rows.push(row);
    }
    (dtypes, rows)
}

/// Every strategy, with the pivot and with the CASE chain, at 1 and 4
/// threads: `q` over the catalog's `f`, each result held to [`reference`]
/// cell by cell.
fn check_every_strategy(catalog: &Catalog, q: &HorizontalQuery) {
    let f = catalog.table("f").unwrap().read().clone();
    for (threads, config) in configs() {
        let engine = PercentageEngine::new(catalog).with_config(config);
        for strategy in HorizontalStrategy::all() {
            for jump_table in [true, false] {
                let opts = HorizontalOptions {
                    strategy,
                    jump_table,
                    ..HorizontalOptions::default()
                };
                let what = format!(
                    "{} jump_table={jump_table} threads={threads}",
                    strategy.label()
                );
                let got = engine.horizontal_with(q, &opts).unwrap().snapshot();
                let (dtypes, rows) = reference(&f, q, &got);
                let got_types: Vec<DataType> = (got.schema().fields().iter())
                    .map(|field| field.dtype)
                    .collect();
                assert_eq!(got_types, dtypes, "{what}: column types");
                for (r, want) in rows.iter().enumerate() {
                    for (c, want) in want.iter().enumerate() {
                        let cell = got.get(r, c);
                        assert!(
                            same(&cell, want),
                            "{what}: row {r} column {} is {cell:?}, the rule gives {want:?}",
                            got.schema().field_at(c).name
                        );
                    }
                }
                for column in got.columns() {
                    column.check_integrity(got.num_rows()).unwrap();
                }
            }
        }
    }
}

fn extras() -> Vec<ExtraAgg> {
    let extra = |func, measure: Option<&str>, name: &str| ExtraAgg {
        func,
        measure: measure.map(Measure::from),
        name: name.to_string(),
    };
    vec![
        extra(AggFunc::Sum, Some("amt"), "s"),
        extra(AggFunc::Avg, Some("amt"), "a"),
        ExtraAgg::count_star("n"),
        extra(AggFunc::Count, Some("q"), "nq"),
        extra(AggFunc::Min, Some("amt"), "lo"),
        extra(AggFunc::Sum, Some("nm"), "snm"),
    ]
}

fn every_cell_kind() -> Vec<HorizontalTerm> {
    vec![
        HorizontalTerm::hpct("amt", &["city"]),
        HorizontalTerm::hpct("amt", &["city"]).with_default_zero(),
        HorizontalTerm::hagg(AggFunc::Sum, "q", &["city"]),
        HorizontalTerm::hagg(AggFunc::Sum, "amt", &["city"]).with_default_zero(),
        HorizontalTerm::hagg(AggFunc::Count, "q", &["city"]),
        HorizontalTerm::hagg(AggFunc::CountStar, Measure::LitInt(1), &["city"]),
        HorizontalTerm::hagg(AggFunc::Avg, "amt", &["city"]),
        HorizontalTerm::hagg(AggFunc::Max, "q", &["city"]).with_default_zero(),
        HorizontalTerm::hpct("nm", &["city"]),
        HorizontalTerm::hagg(AggFunc::Avg, "nm", &["city"]),
    ]
}

fn renamed(terms: Vec<HorizontalTerm>) -> Vec<HorizontalTerm> {
    let named = terms.into_iter().enumerate();
    named
        .map(|(t, term)| HorizontalTerm {
            name: format!("t{t}"),
            ..term
        })
        .collect()
}

#[test]
fn every_cell_kind_matches_the_per_row_rule_under_every_strategy() {
    let catalog = Catalog::new();
    catalog.create_table("f", sales()).unwrap();
    let q = HorizontalQuery {
        table: "f".into(),
        group_by: vec!["state".into()],
        terms: renamed(every_cell_kind()),
        extra: extras(),
    };
    check_every_strategy(&catalog, &q);
}

#[test]
fn one_term_and_an_empty_group_by_match_the_per_row_rule() {
    let catalog = Catalog::new();
    catalog.create_table("f", sales()).unwrap();
    for terms in [
        vec![HorizontalTerm::hpct("amt", &["city"])],
        vec![HorizontalTerm::hpct("amt", &["state", "city"])],
    ] {
        let mut q = HorizontalQuery {
            table: "f".into(),
            group_by: vec![],
            terms,
            extra: vec![],
        };
        check_every_strategy(&catalog, &q);
        q.extra = extras();
        check_every_strategy(&catalog, &q);
    }
    let mut q = HorizontalQuery {
        table: "f".into(),
        group_by: vec![],
        terms: renamed(every_cell_kind()),
        extra: extras(),
    };
    check_every_strategy(&catalog, &q);
    q.group_by = vec!["city".into()];
    q.terms = vec![HorizontalTerm::hpct("amt", &["state"])];
    check_every_strategy(&catalog, &q);
}

/// A count extra reads 0 over an empty selection under every strategy:
/// the `FV` strategies re-aggregate it as a `sum` over an empty `FV`,
/// which is NULL, and the count family's "no rows count 0" holds for
/// extras as for cells.
#[test]
fn a_global_count_extra_over_an_empty_selection_is_zero_under_every_strategy() {
    let catalog = Catalog::new();
    catalog.create_table("f", sales()).unwrap();
    let sql = "SELECT Hpct(amt BY city), sum(q BY city), avg(amt BY city), \
               count(*) AS n, count(q) AS nq, sum(amt) AS s FROM f WHERE q > 100";
    for (threads, config) in configs() {
        let engine = PercentageEngine::new(&catalog).with_config(config);
        for strategy in HorizontalStrategy::all() {
            for jump_table in [true, false] {
                let opts = HorizontalOptions {
                    strategy,
                    jump_table,
                    ..HorizontalOptions::default()
                };
                let what = format!(
                    "{} jump_table={jump_table} threads={threads}",
                    strategy.label()
                );
                let out = engine.execute_sql_with(sql, &VpctStrategy::best(), &opts);
                let t = out.unwrap().table().read().clone();
                assert_eq!(t.num_rows(), 1, "{what}: one global row");
                let column = |name: &str| t.column(t.schema().index_of(name).unwrap()).clone();
                assert_eq!(column("n").get(0), Value::Int(0), "{what}: count(*)");
                assert_eq!(column("nq").get(0), Value::Int(0), "{what}: count(q)");
                assert_eq!(column("s").get(0), Value::Null, "{what}: sum(amt)");
            }
        }
    }
}

// ---- The missing-row pads --------------------------------------------------

/// A string column holding `values`, its dictionary interned in the
/// reverse order of appearance.
fn reversed_dictionary(values: &[Value]) -> Column {
    let mut interned = Column::new(DataType::Str);
    for v in distinct(values.iter().map(|v| vec![v.clone()]))
        .iter()
        .rev()
    {
        interned.push(v[0].clone()).unwrap();
    }
    let rows: Vec<usize> = values
        .iter()
        .map(|v| {
            (0..interned.len())
                .find(|&r| interned.get(r).key_eq(v))
                .unwrap()
        })
        .collect();
    interned.take(&rows)
}

/// Groups `g` (a string, NULL among them) × `d` (a float dimension with
/// `0.0`, `-0.0`, NaN and NULL) × `s` (a string whose dictionary runs
/// against the rows), with holes; group `z` sums to zero, so its
/// percentages are all NULL.
fn padded_fact() -> Table {
    let g = [
        Value::str("b"),
        Value::Null,
        Value::str("a"),
        Value::str("z"),
    ];
    let d = [
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Float(f64::NAN),
        Value::Null,
        Value::Float(0.0),
    ];
    let s = [Value::str("y"), Value::str("x"), Value::Null];
    let mut rows: Vec<[Value; 4]> = Vec::new();
    for i in 0..23usize {
        let group = g[(i * 5 / 3) % 3].clone();
        rows.push([
            group,
            d[(i * 3) % 5].clone(),
            s[(i * 7 / 2) % 3].clone(),
            Value::Float((i % 4) as f64 + 0.5),
        ]);
    }
    rows.push([g[3].clone(), d[1].clone(), s[0].clone(), Value::Float(2.0)]);
    rows.push([g[3].clone(), d[3].clone(), s[1].clone(), Value::Float(-2.0)]);
    let column = |c: usize| -> Vec<Value> { rows.iter().map(|row| row[c].clone()).collect() };
    let mut amt = Column::new(DataType::Float);
    let mut dim = Column::new(DataType::Float);
    for row in &rows {
        dim.push(row[1].clone()).unwrap();
        amt.push(row[3].clone()).unwrap();
    }
    let schema = Schema::from_pairs(&[
        ("g", DataType::Str),
        ("d", DataType::Float),
        ("s", DataType::Str),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let columns = vec![
        reversed_dictionary(&column(0)),
        dim,
        reversed_dictionary(&column(2)),
        amt,
    ];
    Table::from_columns(schema, columns).unwrap()
}

/// The queries the pads run on: a float and a string `BY`, NULL keys on
/// both sides.
fn padded_queries() -> Vec<VpctQuery> {
    vec![
        VpctQuery::single("f", &["g", "d"], "amt", &["d"]),
        VpctQuery::single("f", &["d", "g", "s"], "amt", &["g", "s"]),
        VpctQuery::single("f", &["s", "g"], "amt", &["g"]),
        VpctQuery::single("f", &["g", "s"], Measure::LitInt(1), &["s"]),
    ]
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    t.rows().collect()
}

fn assert_same_rows(got: &[Vec<Value>], want: &[Vec<Value>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rows");
    for (r, (got, want)) in got.iter().zip(want).enumerate() {
        let equal = got.len() == want.len() && got.iter().zip(want).all(|(a, b)| same(a, b));
        assert!(
            equal,
            "{what}: row {r} is {got:?}, the nested loop gives {want:?}"
        );
    }
}

/// The pads of `rows` (laid out with `j` and `by` at those positions):
/// for every distinct `j` tuple of `group_rows`, every distinct `by` tuple
/// of `combo_rows` no row of `rows` has, in that nesting, as
/// `pad(group, j tuple, by tuple)` lays it out.
fn nested_loop_pads(
    rows: &[Vec<Value>],
    group_rows: &[Vec<Value>],
    combo_rows: &[Vec<Value>],
    (j, by): (&[usize], &[usize]),
    pad: impl Fn(&[Value], &[Value]) -> Vec<Value>,
) -> Vec<Vec<Value>> {
    let pick = |row: &Vec<Value>, cols: &[usize]| -> Vec<Value> {
        cols.iter().map(|&c| row[c].clone()).collect()
    };
    let groups = distinct(group_rows.iter().map(|row| pick(row, j)));
    let combos = distinct(combo_rows.iter().map(|row| pick(row, by)));
    let mut out = Vec::new();
    for group in &groups {
        for combo in &combos {
            let present = rows
                .iter()
                .any(|row| keys_eq(&pick(row, j), group) && keys_eq(&pick(row, by), combo));
            if !present {
                out.push(pad(group, combo));
            }
        }
    }
    out
}

#[test]
fn post_processing_pads_what_a_nested_loop_finds_in_its_order() {
    let catalog = Catalog::new();
    catalog.create_table("f", padded_fact()).unwrap();
    let f = rows_of(&catalog.table("f").unwrap().read());
    let f_schema = catalog.table("f").unwrap().read().schema().clone();
    for q in padded_queries() {
        let term = &q.terms[0];
        let at = |names: &[String]| -> Vec<usize> {
            let position = |n: &String| q.group_by.iter().position(|g| g == n).unwrap();
            names.iter().map(position).collect()
        };
        let (j, by) = (at(&q.totals_key(term)), at(&term.by));
        let in_f: Vec<usize> = (q.group_by.iter())
            .map(|n| f_schema.index_of(n).unwrap())
            .collect();
        let f_keys: Vec<Vec<Value>> = (f.iter())
            .map(|row| in_f.iter().map(|&c| row[c].clone()).collect())
            .collect();
        for (threads, config) in configs() {
            let engine = PercentageEngine::new(&catalog).with_config(config);
            for strat in [
                VpctStrategy::best(),
                VpctStrategy::without_index(),
                VpctStrategy::with_update(),
            ] {
                let what = format!("{q:?} {strat:?} threads={threads}");
                let plain = rows_of(&engine.vpct_with(&q, &strat).unwrap().snapshot());
                let padded = engine
                    .vpct_with_missing(&q, &strat, MissingRows::PostProcess)
                    .unwrap();
                let padded = rows_of(&padded.snapshot());
                assert_same_rows(&padded[..plain.len()], &plain, &what);
                let pct = q.group_by.len();
                let valued = |group: &[Value]| {
                    let key = |row: &&Vec<Value>| -> Vec<Value> {
                        j.iter().map(|&c| row[c].clone()).collect()
                    };
                    let mut rows = plain.iter().filter(|row| keys_eq(&key(row), group));
                    rows.any(|row| !row[pct].is_null())
                };
                let want = nested_loop_pads(&plain, &plain, &f_keys, (&j, &by), |group, combo| {
                    let mut row = vec![Value::Null; plain[0].len()];
                    for (&c, v) in j.iter().zip(group).chain(by.iter().zip(combo)) {
                        row[c] = v.clone();
                    }
                    row[pct] = match valued(group) {
                        true => Value::Float(0.0),
                        false => Value::Null,
                    };
                    row
                });
                assert!(!want.is_empty(), "{what}: the data has holes");
                assert_same_rows(&padded[plain.len()..], &want, &what);
            }
        }
    }
}

#[test]
fn pre_processing_pads_what_a_nested_loop_finds_in_its_order() {
    for q in padded_queries() {
        for (threads, config) in configs() {
            let catalog = Catalog::new();
            catalog.create_table("f", padded_fact()).unwrap();
            let before = rows_of(&catalog.table("f").unwrap().read());
            let schema = catalog.table("f").unwrap().read().schema().clone();
            let term = &q.terms[0];
            let at = |names: &[String]| -> Vec<usize> {
                names.iter().map(|n| schema.index_of(n).unwrap()).collect()
            };
            let (j, by) = (at(&q.totals_key(term)), at(&term.by));
            let measure = match &term.measure {
                Measure::Column(name) => Some(schema.index_of(name).unwrap()),
                _ => None,
            };
            let want = nested_loop_pads(&before, &before, &before, (&j, &by), |group, combo| {
                let mut row = vec![Value::Null; schema.len()];
                for (&c, v) in j.iter().zip(group).chain(by.iter().zip(combo)) {
                    row[c] = v.clone();
                }
                if let Some(m) = measure {
                    row[m] = Value::Float(0.0);
                }
                row
            });
            let engine = PercentageEngine::new(&catalog).with_config(config);
            engine
                .vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::PreProcess)
                .unwrap();
            let after = rows_of(&catalog.table("f").unwrap().read());
            let what = format!("{q:?} threads={threads}");
            assert_same_rows(&after[..before.len()], &before, &what);
            assert!(!want.is_empty(), "{what}: the data has holes");
            assert_same_rows(&after[before.len()..], &want, &what);
        }
    }
}
