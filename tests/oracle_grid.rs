//! The papers' central claim — every evaluation strategy computes the same
//! table — held to one reference (`pa_testkit::oracle`, DESIGN.md §5).
//!
//! One seeded grid runs every plan: the lattice request of either family
//! (a horizontal statement's where every sum folds exactly), the five
//! `VpctStrategy` constructors, the OLAP window plan, both `MissingRows`
//! pads, the four `HorizontalStrategy`s with and without the jump table,
//! and a `max_columns` partition; `ROLLUP`, `CUBE` and `GROUPING SETS`
//! ride the plans that take them. Each seed draws a corner-value table and
//! a statement the plan takes, a thread count (1, 2, 4), a side of the
//! dense budget (0, default), a write (`Write`) and — where the plan reads
//! SQL — a `WHERE`; each case runs cold, then warm, on one engine, and
//! after its write cold and warm again. Every answer is compared
//! with the reference by names, types, validity and bits; an `ORDER BY`
//! answer also by row order.
//!
//! The named cases below the grid pin the paper's practical issues and
//! past defects, each on a table made for it, under every plan that takes
//! its statement, at both [`CORNERS`] of the grid.

use pa_core::{
    CoreError, HorizontalOptions, HorizontalStrategy, MissingRows, PercentageEngine, SqlOutcome,
    VpctStrategy,
};
use pa_engine::AggFunc::{Avg, Count, CountStar, Max, Min, Sum};
use pa_engine::DEFAULT_DENSE_BUDGET;
use pa_storage::Value::{Float as F, Int as I, Null};
use pa_storage::{Catalog, Column, DataType, SharedTable, Table, Value};
use pa_testkit::compare::cells;
use pa_testkit::gen::{self, Shape};
use pa_testkit::oracle::{self, answer, post_pads, pre_pads};
use pa_testkit::{assert_same, assert_same_rows, config, Draw, Sets, Stmt};
use std::collections::BTreeSet;

/// One way of evaluating a statement.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// `execute_sql`: a `Vpct` statement's lattice request.
    Lattice,
    /// `execute_sql` of a horizontal statement: its lattice request, or
    /// the CASE producer the optimizer picks where that cannot run.
    HorizontalLattice,
    /// `execute_sql_with` under one of [`vpct_strategies`].
    Vpct(usize),
    /// `vpct_olap`, the window-function baseline.
    Olap,
    /// `vpct_with_missing` under the best strategy.
    Missing(MissingRows),
    /// `execute_sql_with` under a horizontal strategy, jump table on/off.
    Horizontal(HorizontalStrategy, bool),
    /// A horizontal statement split across partitions of two cell columns.
    Partitioned,
}

fn vpct_strategies() -> [VpctStrategy; 5] {
    [
        VpctStrategy::best(),
        VpctStrategy::without_index(),
        VpctStrategy::with_update(),
        VpctStrategy::fj_from_f(),
        VpctStrategy::synchronized(),
    ]
}

fn plans() -> Vec<Plan> {
    let mut plans = vec![Plan::Lattice, Plan::HorizontalLattice];
    plans.extend((0..5).map(Plan::Vpct));
    plans.extend([
        Plan::Olap,
        Plan::Missing(MissingRows::PostProcess),
        Plan::Missing(MissingRows::PreProcess),
        Plan::Partitioned,
    ]);
    for strategy in HorizontalStrategy::all() {
        plans.extend([true, false].map(|jump| Plan::Horizontal(strategy, jump)));
    }
    plans
}

impl Plan {
    fn is_vertical(self) -> bool {
        matches!(
            self,
            Plan::Lattice | Plan::Vpct(_) | Plan::Olap | Plan::Missing(_)
        )
    }

    /// Does the plan take `stmt`? Only SQL carries `WHERE`, `ORDER BY` and
    /// grouping sets; the window plan takes no extra, the pads one term.
    fn takes(self, stmt: &Stmt) -> bool {
        let typed = stmt.sets == Sets::Flat && stmt.filter.is_none() && !stmt.order_by;
        match self {
            _ if self.is_vertical() != stmt.is_vertical() => false,
            Plan::Olap => typed && stmt.extras.is_empty(),
            Plan::Missing(_) => typed && stmt.terms.len() == 1 && stmt.extras.is_empty(),
            Plan::Partitioned | Plan::Horizontal(..) => stmt.sets == Sets::Flat,
            _ => true,
        }
    }

    /// A statement this plan takes.
    fn draw(self, draw: &mut Draw, filter: bool) -> Stmt {
        match self {
            Plan::Missing(_) => gen::vertical(draw, Shape::OneTerm),
            Plan::Olap => gen::vertical(draw, Shape::Typed),
            _ if self.is_vertical() => gen::vertical(draw, Shape::Sql(filter)),
            _ => gen::horizontal(draw, Shape::Sql(filter)),
        }
    }

    fn options(self) -> HorizontalOptions {
        match self {
            Plan::Horizontal(strategy, jump_table) => HorizontalOptions {
                strategy,
                jump_table,
                ..HorizontalOptions::default()
            },
            Plan::Partitioned => HorizontalOptions {
                max_columns: 2,
                allow_partitioning: true,
                ..HorizontalOptions::default()
            },
            _ => HorizontalOptions::default(),
        }
    }

    /// `stmt` over the catalog's `f`, as one table.
    fn run(self, engine: &PercentageEngine<'_>, stmt: &Stmt) -> pa_core::Result<Table> {
        let (sql, best) = (stmt.sql(), VpctStrategy::best());
        let outcome = match self {
            Plan::Lattice | Plan::HorizontalLattice => engine.execute_sql(&sql),
            Plan::Vpct(i) => engine.execute_sql_with(&sql, &vpct_strategies()[i], &self.options()),
            Plan::Olap => engine
                .vpct_olap(&stmt.vpct_query())
                .map(SqlOutcome::Vertical),
            Plan::Missing(mode) => (engine.vpct_with_missing(&stmt.vpct_query(), &best, mode))
                .map(SqlOutcome::Vertical),
            _ => engine.execute_sql_with(&sql, &best, &self.options()),
        };
        Ok(match outcome? {
            SqlOutcome::Vertical(r) => r.snapshot(),
            SqlOutcome::Horizontal(r) => glued(&r.partitions, stmt.group_by.len()),
        })
    }

    /// What `stmt` over `f` must answer under this plan, given `plain`,
    /// its answer without pads.
    fn want(self, f: &Table, stmt: &Stmt, plain: &Table) -> Table {
        match self {
            Plan::Missing(MissingRows::PostProcess) => post_pads(plain, f, stmt),
            Plan::Missing(_) => answer(&pre_pads(f, stmt), stmt),
            _ => plain.clone(),
        }
    }
}

/// Partitions side by side: each carries the `keys` key columns, which
/// must agree row for row, then its share of the columns.
fn glued(partitions: &[SharedTable], keys: usize) -> Table {
    let first = partitions[0].read().clone();
    let mut fields: Vec<(String, DataType)> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (p, part) in partitions.iter().enumerate() {
        let part = part.read();
        let key = |t: &Table| -> Vec<Vec<String>> {
            (cells(t).into_iter())
                .map(|row| row[..keys].to_vec())
                .collect()
        };
        assert_eq!(key(&part), key(&first), "partition {p} keys");
        for c in (if p == 0 { 0 } else { keys })..part.num_columns() {
            let field = part.schema().field_at(c);
            fields.push((field.name.clone(), field.dtype));
            columns.push(part.column(c).clone());
        }
    }
    let fields: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = pa_storage::Schema::from_pairs(&fields).unwrap();
    Table::from_columns(schema.into_shared(), columns).unwrap()
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
struct Case {
    plan: Plan,
    threads: usize,
    dense_budget: usize,
    filter: bool,
    write: Write,
}

/// What a case writes to `f` through its engine between two passes of its
/// statement: nothing, rows appended (a new group and a new string among
/// them), or one cell updated — a measure to a whole value, to a
/// fraction, to NULL or from NULL, or a key. A cached level of the first
/// pass is rolled forward over the write, or scanned for again, and the
/// second pass must answer as the reference over the table as it then
/// stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Write {
    Nothing,
    Append,
    WholeMeasure,
    FractionalMeasure,
    MeasureToNull,
    MeasureFromNull,
    Key,
}

const WRITES: [Write; 7] = [
    Write::Nothing,
    Write::Append,
    Write::WholeMeasure,
    Write::FractionalMeasure,
    Write::MeasureToNull,
    Write::MeasureFromNull,
    Write::Key,
];

impl Write {
    /// Make this write to `f` through `engine` and to the copy `t`, drawing
    /// its rows and values from `draw`. A table written to holds whole
    /// cents (`gen::in_cents`), so that a measure's sums stay exact and its
    /// levels can roll forward.
    fn apply(self, engine: &PercentageEngine<'_>, t: &mut Table, draw: &mut Draw) {
        let (amt, q) = (4, 5);
        let cents = |v: Value| match v {
            F(x) => F((x * 100.0).round()),
            v => v,
        };
        let n = t.num_rows();
        let (row, col, value) = match self {
            Write::Nothing => return,
            Write::Append => {
                let rows: Vec<Vec<Value>> = (0..1 + draw.below(4))
                    .map(|_| {
                        let mut row = gen::fact_row(draw, &["a", "zero", "new"]);
                        row[amt] = cents(row[amt].clone());
                        row[3] = draw.one_of(&[row[3].clone(), s("w")]);
                        row
                    })
                    .collect();
                engine.append_rows("f", &rows).unwrap();
                t.push_rows(&rows).unwrap();
                return;
            }
            _ if n == 0 => return,
            Write::WholeMeasure => {
                let whole = draw.below(9) as i64 * 100 - 400;
                let (col, v) = draw.one_of(&[(amt, F(whole as f64)), (q, I(whole / 100))]);
                (draw.below(n), col, v)
            }
            Write::FractionalMeasure => (draw.below(n), amt, F(0.25)),
            Write::MeasureToNull => (draw.below(n), draw.one_of(&[amt, q]), Null),
            Write::MeasureFromNull => {
                let col = draw.one_of(&[amt, q]);
                let null = (0..n)
                    .filter(|&r| !t.column(col).is_valid(r))
                    .collect::<Vec<_>>();
                let row = match null.is_empty() {
                    true => draw.below(n),
                    false => draw.one_of(&null),
                };
                let v = if col == amt { F(300.0) } else { I(3) };
                (row, col, v)
            }
            Write::Key => {
                let (col, v) = draw.one_of(&[(0, s("new")), (1, I(2)), (3, Null)]);
                (draw.below(n), col, v)
            }
        };
        engine
            .update_cells("f", row, &[col], std::slice::from_ref(&value))
            .unwrap();
        t.set_cells(row, &[col], &[value]).unwrap();
    }
}

/// `stmt` over `f` under `case`, cold and then warm, against the reference;
/// then, after `case.write`, cold and warm again against the reference
/// over the table as written. (The pre-pass pads the live table, so it
/// takes no write.)
fn check(f: &Table, stmt: &Stmt, case: Case, draw: &mut Draw) {
    let catalog = Catalog::new();
    let mut t = match case.write {
        Write::Nothing => f.clone(),
        _ => gen::in_cents(f.clone(), "amt"),
    };
    catalog.create_table("f", t.clone()).unwrap();
    let engine =
        PercentageEngine::new(&catalog).with_config(config(case.threads, case.dense_budget));
    check_on(&engine, &t, stmt, case, plain(&t, stmt).as_ref());
    if case.write == Write::Nothing || case.plan == Plan::Missing(MissingRows::PreProcess) {
        return;
    }
    case.write.apply(&engine, &mut t, draw);
    check_on(&engine, &t, stmt, case, plain(&t, stmt).as_ref());
}

/// The reference's answer to `stmt` over `f`; `None` when it has no
/// column — a horizontal statement with no key and no extra whose
/// selection feeds no cell — which a table cannot hold.
fn plain(f: &Table, stmt: &Stmt) -> Option<Table> {
    let columns = stmt.group_by.len() + stmt.extras.len();
    let none = columns == 0 && !stmt.is_vertical() && oracle::selected(f, stmt).is_empty();
    (!none).then(|| answer(f, stmt))
}

/// [`check`] on an engine whose catalog's `f` holds `f`, given [`plain`].
fn check_on(
    engine: &PercentageEngine<'_>,
    f: &Table,
    stmt: &Stmt,
    case: Case,
    plain: Option<&Table>,
) {
    let what = |run: &str| format!("{case:?} {run}: {}", stmt.sql());
    let Some(plain) = plain else {
        let got = case.plan.run(engine, stmt);
        let typed = matches!(got, Err(CoreError::InvalidQuery(_)));
        assert!(typed, "{}: {got:?}", what("no column"));
        return;
    };
    let want = case.plan.want(f, stmt, plain);
    for run in ["cold", "warm"] {
        let got = case.plan.run(engine, stmt);
        let got = got.unwrap_or_else(|e| panic!("{}: {e}", what(run)));
        if stmt.order_by {
            let k = stmt.group_by.len();
            let keys = |t: &Table| -> Vec<Vec<String>> {
                (cells(t).into_iter())
                    .map(|row| row[..k].to_vec())
                    .collect()
            };
            assert_eq!(keys(&got), keys(&want), "{}: ORDER BY", what(run));
        }
        assert_same_rows(&got, &want, &what(run));
    }
}

/// The two corners of the grid a named case runs at: serial on the dense
/// side, four workers on the hash side.
const CORNERS: [(usize, usize); 2] = [(1, DEFAULT_DENSE_BUDGET), (4, 0)];

/// Every plan that takes `stmt`, at both [`CORNERS`].
fn check_every_plan(f: &Table, stmt: &Stmt) {
    check_across_an_append(f, &[], std::slice::from_ref(stmt));
}

/// Every plan that takes each of `stmts` over `f`, on one engine per
/// corner; then, when there are `more` rows, they are appended through
/// that engine and every plan runs again over the grown table.
fn check_across_an_append(f: &Table, more: &[Vec<Value>], stmts: &[Stmt]) {
    let mut grown = f.clone();
    more.iter().for_each(|row| grown.push_row(row).unwrap());
    for (threads, dense_budget) in CORNERS {
        let catalog = Catalog::new();
        catalog.create_table("f", f.clone()).unwrap();
        let engine = PercentageEngine::new(&catalog).with_config(config(threads, dense_budget));
        for (t, appended) in [(f, false), (&grown, true)] {
            if appended && more.is_empty() {
                break;
            } else if appended {
                engine.append_rows("f", more).unwrap();
            }
            for stmt in stmts {
                let (plain, filter) = (plain(t, stmt), stmt.filter.is_some());
                for plan in plans().into_iter().filter(|plan| plan.takes(stmt)) {
                    let case = Case {
                        plan,
                        threads,
                        dense_budget,
                        filter,
                        write: Write::Nothing,
                    };
                    match plan {
                        // The pre-pass pads the live table: it runs on its own.
                        Plan::Missing(MissingRows::PreProcess) => {
                            check(t, stmt, case, &mut Draw::new(0))
                        }
                        _ => check_on(&engine, t, stmt, case, plain.as_ref()),
                    }
                }
            }
        }
    }
}

#[test]
fn every_plan_answers_as_the_reference_across_the_grid() {
    let plans = plans();
    let mut hit: BTreeSet<String> = BTreeSet::new();
    for seed in 0..16 * plans.len() {
        let mut draw = Draw::new(seed as u64);
        // Each plan's sixteen seeds: every write at one and at four
        // threads, then two seeds at two threads that write nothing, on
        // opposite sides of the dense budget and of the filter.
        let (plan, k) = (plans[seed % plans.len()], seed / plans.len());
        let sql = !matches!(plan, Plan::Olap | Plan::Missing(_));
        let (threads, write) = match k {
            0..14 => ([1, 4][(k % 7 + k / 7) % 2], WRITES[k % 7]),
            _ => (2, Write::Nothing),
        };
        let (budget, filtered) = match k {
            14 => (0, false),
            15 => (1, true),
            _ => (k / 2 % 2, k / 4 % 2 == 1),
        };
        let case = Case {
            plan,
            threads,
            dense_budget: [0, DEFAULT_DENSE_BUDGET][budget],
            filter: sql && filtered,
            write,
        };
        let n = draw.one_of(&[0, 3, 40, 150, 300]);
        let f = gen::fact(&mut draw, n);
        let stmt = plan.draw(&mut draw, case.filter);
        hit.extend([
            format!("{plan:?}"),
            format!("threads {}", case.threads),
            format!("budget {}", case.dense_budget),
            format!("where {}", case.filter),
            format!("sets {:?}", std::mem::discriminant(&stmt.sets)),
            format!("{:?} at {} threads", case.write, case.threads),
            format!("budget {} at {} threads", case.dense_budget, case.threads),
        ]);
        check(&f, &stmt, case, &mut draw);
    }
    let want = plans.len() + 3 + 2 + 2 + 4 + 2 * WRITES.len() + 1 + 2 * 3;
    assert_eq!(hit.len(), want, "every value of every axis is hit: {hit:?}");
}

// ---- Named cases -----------------------------------------------------------

fn s(x: &str) -> Value {
    Value::str(x)
}

/// A `g, d, amt` table of `rows` under `Vpct(amt BY d)` by `g, d` (flat and
/// rolled up) and `Hpct(amt BY d)` by `g` (with and without `DEFAULT 0`).
fn check_gda(rows: &[[Value; 3]]) {
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Int),
        ("amt", DataType::Float),
    ];
    let t = gen::table(
        &fields,
        &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>(),
    );
    let vpct = Stmt::new("f", &["g", "d"]).vpct("amt", &["d"], "p");
    let hpct =
        |zero| Stmt::new("f", &["g"]).horizontal(Sum, Some("amt"), &["d"], (true, zero), "h");
    for stmt in [vpct.clone(), vpct.rollup(), hpct(false), hpct(true)] {
        check_every_plan(&t, &stmt);
    }
}

/// A shrunk counterexample of the first property suite: group `g=0` with a
/// NULL `d` and `amt = -1`, and `d = 0` with a NULL `amt`.
#[test]
fn a_null_key_with_a_negative_amount_beside_a_null_amount() {
    check_gda(&[[s("0"), Null, F(-1.0)], [s("0"), I(0), Null]]);
}

/// A group whose amounts cancel (`2.5`, `-2.5`, `-0.0`) and one whose
/// amounts are all NULL: every percentage of either is NULL, vertical and
/// horizontal, padded or not.
#[test]
fn zero_and_null_totals_give_null_percentages() {
    check_gda(&[
        [s("zero"), I(1), F(2.5)],
        [s("zero"), I(2), F(-2.5)],
        [s("zero"), I(1), F(-0.0)],
        [s("void"), I(1), Null],
        [s("void"), I(3), Null],
        [s("ok"), I(3), F(4.0)],
        [s("ok"), I(2), F(-1.0)],
    ]);
}

/// A group whose total is negative: its percentages keep their signs and
/// may pass 100%.
#[test]
fn negative_totals_divide_with_their_sign() {
    check_gda(&[
        [s("neg"), I(1), F(-3.0)],
        [s("neg"), I(2), F(1.0)],
        [s("neg"), I(1), F(-0.5)],
        [s("pos"), I(2), F(2.0)],
        [Null, I(2), F(-2.0)],
    ]);
}

/// A string `BY` column that holds only NULLs has an empty dictionary, and
/// a measure column that holds only NULLs sums to NULL: under every plan
/// the string is one NULL combination, a comparison with it selects
/// nothing, and every percentage of the NULL measure is NULL.
#[test]
fn an_all_null_measure_and_an_all_null_string_key() {
    let fields = [
        ("g", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
        ("nm", DataType::Float),
    ];
    let rows: Vec<Vec<Value>> = (0..70i64)
        .map(|i| vec![I(i % 3), Null, F((i % 5) as f64), Null])
        .collect();
    let t = gen::table(&fields, &rows);
    let h = Stmt::new("f", &["g"]).hpct("a", &["s"], "h");
    for stmt in [
        h.clone(),
        h.clone().filter("a", ">=", I(1)),
        h.filter("s", "=", s("x")),
        Stmt::new("f", &["g", "s"]).vpct("nm", &["s"], "p"),
        Stmt::new("f", &["g"]).hpct("nm", &["s"], "h"),
    ] {
        check_every_plan(&t, &stmt);
    }
}

/// A float dimension whose values grouping merges although their bits
/// differ: `0.0` with `-0.0` and, in `y`, a NaN with a NaN of the other
/// sign. The two spellings sit beside different `s` values, so the `(x, s)`
/// level keeps both while the `(x)` level keeps one: every level finds its
/// totals, and a group's key is its first row's. (The window plan split a
/// NaN group whose spellings its sort did not bring together.)
#[test]
fn signed_zeros_and_nans_are_one_float_key() {
    let fields = [
        ("s", DataType::Str),
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("m", DataType::Float),
    ];
    let nan = f64::NAN;
    let rows = vec![
        vec![s("a"), F(0.0), F(nan), F(1.0)],
        vec![s("b"), F(-0.0), F(-nan), F(3.0)],
        vec![s("b"), F(1.5), F(2.0), F(2.0)],
        vec![s("a"), F(1.5), F(-nan), F(6.0)],
    ];
    let t = gen::table(&fields, &rows);
    for dim in ["x", "y"] {
        let one = Stmt::new("f", &[dim, "s"]).vpct("m", &["s"], "p");
        for stmt in [
            one.clone().vpct("m", &[dim], "q"),
            one.rollup(),
            Stmt::new("f", &["s"]).hpct("m", &[dim], "h"),
        ] {
            check_every_plan(&t, &stmt);
        }
    }
}

/// The same float keys where `F`'s first spelling of a group is not the
/// first in key order: `-0.0` and a NaN of one sign sit beside `s = "b"`
/// before `0.0` and the other NaN sit beside `s = "a"`, so a level sorted
/// by `(s, x)` meets the later spelling first. With the float column in a
/// horizontal statement's `BY` (a cell column's name) or in its `GROUP BY`
/// (a printed key), every plan spells each group as its first row in `F`
/// does — cold, warm, and after an append that brings each spelling under
/// a third `s`.
#[test]
fn a_horizontal_float_key_is_its_first_rows_spelling() {
    let fields = [
        ("s", DataType::Str),
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("m", DataType::Float),
    ];
    let nan = f64::NAN;
    let rows = vec![
        vec![s("b"), F(-0.0), F(-nan), F(1.0)],
        vec![s("a"), F(0.0), F(nan), F(3.0)],
        vec![s("a"), F(1.5), F(2.0), F(2.0)],
        vec![s("b"), F(1.5), F(nan), F(6.0)],
    ];
    let more = vec![
        vec![s("c"), F(0.0), F(nan), F(4.0)],
        vec![s("a"), F(-0.0), F(-nan), F(5.0)],
    ];
    let t = gen::table(&fields, &rows);
    for dim in ["x", "y"] {
        let stmts = [
            Stmt::new("f", &["s"]).hpct("m", &[dim], "h"),
            Stmt::new("f", &[dim]).hpct("m", &["s"], "h"),
            Stmt::new("f", &[dim]).horizontal(Sum, Some("m"), &["s"], (false, false), "h"),
        ];
        check_across_an_append(&t, &more, &stmts);
    }
}

/// The same spellings under a `Vpct`: `F`'s first zero row holds `-0.0`,
/// but the level `(s, x)` lists `0.0` first, so an `(x)` level re-aggregated
/// from it would print `0.0`. A `ROLLUP (x, s)` prints every key as its
/// first row in `F` — cold, warm, and after an append — and so does a flat
/// statement by `x` run after it, which finds the `(x)` level the `ROLLUP`
/// left in the cache.
#[test]
fn a_vertical_float_key_is_its_first_rows_spelling() {
    let fields = [
        ("s", DataType::Str),
        ("x", DataType::Float),
        ("m", DataType::Float),
    ];
    let rows = vec![
        vec![s("b"), F(-0.0), F(1.0)],
        vec![s("a"), F(0.0), F(2.0)],
        vec![s("a"), F(1.5), F(3.0)],
        vec![s("b"), F(1.5), F(4.0)],
    ];
    let more = vec![vec![s("c"), F(0.0), F(5.0)], vec![s("a"), F(-0.0), F(6.0)]];
    let stmts = [
        Stmt::new("f", &["x", "s"]).vpct("m", &["s"], "p").rollup(),
        Stmt::new("f", &["x"]).vpct("m", &[], "p"),
    ];
    check_across_an_append(&gen::table(&fields, &rows), &more, &stmts);
}

/// The lattice request's transposition at its edges, with only the cells
/// it admits (`Hpct`, `sum` and `count` with and without `DEFAULT 0`,
/// `count(*)`): a combination missing under a negative total (a `-0.0`
/// cell), a group whose total is zero, a group whose measure is all NULL,
/// two prefixed terms, and the same cells split across `max_columns`
/// partitions by the producers. Under `HorizontalLattice` the request runs
/// — it reads levels, and none from `F` when warm — cold, warm and after an
/// append, at one and four threads, and answers as the reference does and
/// as the cold CASE producer does, bit for bit; past `max_columns` it is
/// refused as the producer is.
#[test]
fn the_requests_transposed_cells_at_their_edges() {
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Int),
        ("amt", DataType::Float),
        ("q", DataType::Int),
    ];
    let rows = [
        ("neg", 1, Some(-3.0), 1),
        ("neg", 2, Some(1.0), 2),
        ("zero", 1, Some(2.0), 3),
        ("zero", 2, Some(-2.0), 4),
        ("zero", 2, Some(-0.0), 5),
        ("void", 1, None, 6),
        ("void", 3, None, 7),
        ("ok", 1, Some(4.0), 8),
        ("ok", 3, Some(6.0), 9),
        ("ok", 3, Some(5.0), 10),
    ];
    let row =
        |(g, d, amt, q): (&str, i64, Option<f64>, i64)| vec![s(g), I(d), amt.map_or(Null, F), I(q)];
    let t = gen::table(&fields, &rows.map(row));
    let more = [("neg", 4, Some(2.0), 11), ("new", 2, Some(7.0), 12)].map(row);
    let mut grown = t.clone();
    more.iter().for_each(|row| grown.push_row(row).unwrap());
    let by_g = || Stmt::new("f", &["g"]);
    let stmts = [
        by_g().hpct("amt", &["d"], "h"),
        by_g()
            .hpct("amt", &["d"], "h0")
            .horizontal(Sum, Some("amt"), &["d"], (true, true), "h1")
            .horizontal(Sum, Some("amt"), &["d"], (false, false), "h2")
            .horizontal(Sum, Some("q"), &["d"], (false, true), "h3")
            .horizontal(Count, Some("amt"), &["d"], (false, false), "h4")
            .horizontal(CountStar, None, &["d"], (false, false), "h5")
            .extra(Sum, Some("amt"), "total")
            .extra(CountStar, None, "n"),
        Stmt::new("f", &[]).hpct("q", &["d"], "h"),
    ];
    check_across_an_append(&t, &more, &stmts);
    let case_direct = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
    for threads in [1, 4] {
        let catalog = Catalog::new();
        catalog.create_table("f", t.clone()).unwrap();
        let engine =
            PercentageEngine::new(&catalog).with_config(config(threads, DEFAULT_DENSE_BUDGET));
        for (f, appended) in [(&t, false), (&grown, true)] {
            if appended {
                engine.append_rows("f", &more).unwrap();
            }
            let fresh = Catalog::new();
            fresh.create_table("f", f.clone()).unwrap();
            let fresh = PercentageEngine::new(&fresh).with_config(config(threads, 0));
            for stmt in &stmts {
                let (sql, keys) = (stmt.sql(), stmt.group_by.len());
                let horizontal = |outcome| match outcome {
                    Ok(SqlOutcome::Horizontal(r)) => r,
                    other => panic!("{sql}: {other:?}"),
                };
                let best = VpctStrategy::best();
                let producer = horizontal(fresh.execute_sql_with(&sql, &best, &case_direct));
                let producer = glued(&producer.partitions, keys);
                for run in ["cold", "warm"] {
                    let what = format!("threads {threads} appended {appended} {run}: {sql}");
                    let r = horizontal(engine.execute_sql(&sql));
                    assert!(r.stats.lattice_levels > 0, "{what}: {}", r.stats);
                    if run == "warm" {
                        assert_eq!(r.stats.levels_from_scan, 0, "{what}: {}", r.stats);
                    }
                    let got = glued(&r.partitions, keys);
                    assert_same_rows(&got, &answer(f, stmt), &what);
                    assert_same_rows(&got, &producer, &format!("{what} (CASE producer)"));
                }
            }
        }
    }
    // A statement past `max_columns`, which the request may not partition.
    let wide: Vec<Vec<Value>> = (0..2100).map(|i| row(("w", i, Some(1.0), i))).collect();
    let catalog = Catalog::new();
    catalog
        .create_table("f", gen::table(&fields, &wide))
        .unwrap();
    let engine = PercentageEngine::new(&catalog);
    let sql = by_g().hpct("amt", &["d"], "h").sql();
    let refused = |r: pa_core::Result<SqlOutcome>| match r {
        Err(CoreError::TooManyColumns { needed, limit }) => (needed, limit),
        other => panic!("{sql}: {other:?}"),
    };
    let request = refused(engine.execute_sql(&sql));
    let producer = refused(engine.execute_sql_with(&sql, &VpctStrategy::best(), &case_direct));
    assert_eq!((request, producer), ((2101, 2048), (2101, 2048)));
}

/// An append whose every row falls in a group the cached levels hold rolls
/// them with no aggregation pass — each sum moved where it sits — including
/// a group whose measure was all NULL until now, an `Int` measure and the
/// count lanes; every plan answers as the reference.
#[test]
fn an_append_into_held_groups_rolls_the_levels_in_place() {
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Int),
        ("amt", DataType::Float),
        ("q", DataType::Int),
    ];
    let rows = [
        vec![s("a"), I(1), F(2.0), I(1)],
        vec![s("a"), I(2), Null, I(2)],
        vec![s("b"), I(1), Null, Null],
        vec![s("b"), I(2), F(5.0), I(3)],
    ];
    let more = vec![
        vec![s("a"), I(1), F(3.0), I(4)],
        vec![s("b"), I(1), F(7.0), Null],
        vec![s("b"), I(2), Null, I(-5)],
    ];
    let t = gen::table(&fields, &rows);
    let vpct = Stmt::new("f", &["g", "d"]).vpct("amt", &["d"], "p");
    let stmts = [
        vpct.clone(),
        Stmt::new("f", &["g"]).hpct("amt", &["d"], "h"),
        Stmt::new("f", &["g"])
            .horizontal(Sum, Some("q"), &["d"], (false, false), "h")
            .horizontal(Count, Some("amt"), &["d"], (false, false), "c")
            .extra(CountStar, None, "n"),
    ];
    check_across_an_append(&t, &more, &stmts);
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    let engine = PercentageEngine::new(&catalog);
    engine.execute_sql(&vpct.sql()).unwrap();
    engine.append_rows("f", &more).unwrap();
    let lines = engine.explain_analyze_sql(&vpct.sql()).unwrap();
    let ops: Vec<&str> = (lines.iter())
        .filter_map(|l| l.strip_prefix("-- op "))
        .filter_map(|l| l.split(':').next())
        .map(str::trim)
        .collect();
    // One pass: the level `(g)` re-aggregated from the rolled `(d, g)`.
    let want = [
        "query",
        "levels",
        "roll",
        "aggregate",
        "finish",
        "keys",
        "divide",
    ];
    assert_eq!(ops, want, "{lines:#?}");
}

/// Integer measures whose sums pass 2^53, where a float holds no longer
/// every integer; and drawn statements over a table of no rows.
#[test]
fn int_sums_past_2_53_and_empty_input() {
    let big = I((1i64 << 53) + 1);
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Int),
        ("q", DataType::Int),
    ];
    let rows = vec![
        vec![s("a"), I(1), big.clone()],
        vec![s("a"), I(2), big],
        vec![s("a"), I(1), I(-1)],
        vec![s("b"), I(2), I(3)],
    ];
    let t = gen::table(&fields, &rows);
    let vpct = Stmt::new("f", &["g", "d"]).vpct("q", &["d"], "p");
    for stmt in [
        vpct.clone(),
        vpct.extra(Sum, Some("q"), "s"),
        Stmt::new("f", &["g"])
            .hpct("q", &["d"], "h")
            .extra(Sum, Some("q"), "s"),
    ] {
        check_every_plan(&t, &stmt);
    }
    let empty = gen::fact(&mut Draw::new(0), 0);
    // No combination, no total, no extra: the CASE chain has no lane to
    // compute, and its answer is the groups alone.
    let hagg = Stmt::new("f", &["s"]).horizontal(Sum, Some("q"), &["d"], (false, false), "h");
    check_every_plan(&empty, &hagg);
    for seed in 0..8 {
        let (mut draw, shape) = (Draw::new(seed), Shape::Sql(seed % 2 == 0));
        check_every_plan(&empty, &gen::vertical(&mut draw, shape));
        check_every_plan(&empty, &gen::horizontal(&mut draw, shape));
    }
}

/// A count extra reads 0 over an empty selection under every plan: the
/// `FV` plans re-aggregate it as a `sum` over an empty `FV`, which is NULL,
/// and the count family's "no rows count 0" holds for extras as for cells.
#[test]
fn a_count_extra_over_an_empty_selection_is_zero() {
    let t = gen::fact(&mut Draw::new(7), 60);
    let stmt = Stmt::new("f", &[])
        .hpct("amt", &["s"], "h0")
        .horizontal(Sum, Some("q"), &["s"], (false, false), "h1")
        .horizontal(Avg, Some("amt"), &["s"], (false, false), "h2")
        .extra(CountStar, None, "n")
        .extra(Count, Some("q"), "nq")
        .extra(Sum, Some("amt"), "s");
    check_every_plan(&t, &stmt.filter("amt", ">=", I(100)));
}

/// Every kind of horizontal cell in one statement — `Hpct` with and
/// without `DEFAULT 0`, `sum`, `count`, `count(*)`, `avg`, `max`, `min`,
/// over float, integer and literal measures — beside every extra, by `g`
/// and with no `GROUP BY` at all.
#[test]
fn every_cell_kind_under_every_plan() {
    let t = gen::fact(&mut Draw::new(5), 120);
    let kinds = [
        (Sum, Some("amt"), (true, false)),
        (Sum, Some("amt"), (true, true)),
        (Sum, Some("1"), (true, false)),
        (Sum, Some("q"), (false, false)),
        (Sum, Some("amt"), (false, true)),
        (Count, Some("q"), (false, false)),
        (CountStar, None, (false, false)),
        (Avg, Some("amt"), (false, false)),
        (Max, Some("q"), (false, true)),
        (Min, Some("amt"), (false, false)),
    ];
    let extras = [
        (Sum, Some("amt")),
        (Avg, Some("amt")),
        (CountStar, None),
        (Count, Some("q")),
        (Min, Some("amt")),
    ];
    for group_by in [&["g"][..], &[]] {
        let mut stmt = Stmt::new("f", group_by);
        for (i, (func, m, flags)) in kinds.into_iter().enumerate() {
            stmt = stmt.horizontal(func, m, &["s"], flags, &format!("t{i}"));
        }
        for (i, (func, m)) in extras.into_iter().enumerate() {
            stmt = stmt.extra(func, m, &format!("x{i}"));
        }
        check_every_plan(&t, &stmt);
    }
}

/// More cells than `max_columns` split the result into partitions, each
/// carrying the key (DMKD §3.6), whose pivots each list only their share
/// of the combinations: every percentage still divides by the whole group.
/// Without `allow_partitioning` the statement is refused.
#[test]
fn max_columns_overflow_partitions_vertically() {
    let t = gen::fact(&mut Draw::new(3), 200);
    let stmt = Stmt::new("f", &["g"])
        .hpct("amt", &["d"], "h0")
        .hpct("q", &["s", "d"], "h1")
        .extra(Sum, Some("amt"), "e0");
    let catalog = Catalog::new();
    catalog.create_table("f", t.clone()).unwrap();
    let (engine, best) = (PercentageEngine::new(&catalog), VpctStrategy::best());
    let opts = Plan::Partitioned.options();
    let out = engine.execute_sql_with(&stmt.sql(), &best, &opts).unwrap();
    let SqlOutcome::Horizontal(r) = out else {
        panic!("a horizontal result")
    };
    assert!(r.partitions.len() > 10, "{} partitions", r.partitions.len());
    assert_same_rows(&glued(&r.partitions, 1), &answer(&t, &stmt), "partitioned");
    let refused = HorizontalOptions {
        allow_partitioning: false,
        ..opts
    };
    assert!(engine
        .execute_sql_with(&stmt.sql(), &best, &refused)
        .is_err());
    check_every_plan(&t, &stmt);
}

/// The pivot with a combination list that leaves values out: its totals
/// still sum every row of the group, listed combination or not, as the
/// CASE form's `sum(A)` does.
#[test]
fn combinations_that_do_not_list_every_value() {
    use pa_engine::{pivot_aggregate_with_config, Expr, PivotTask, ResourceGuard};
    use pa_testkit::reference;
    let t = gen::fact(&mut Draw::new(11), 150);
    let amt = Expr::col(t.schema(), "amt").unwrap();
    let tasks = [PivotTask {
        by_cols: vec![1],
        combos: vec![vec![I(0)], vec![I(3)]],
        lanes: vec![(Sum, amt.clone())],
        total: Some(amt),
    }];
    for (threads, dense_budget) in CORNERS {
        let config = config(threads, dense_budget);
        let (guard, mut stats) = (ResourceGuard::unlimited(), Default::default());
        let raw = pivot_aggregate_with_config(&t, &[0], &tasks, &[], &guard, &mut stats, &config);
        let rows = reference::Rows::all(t.num_rows()).chunked(config.chunks(t.num_rows()));
        let want = reference::pivot(&t, &rows, &[0], &tasks, &[], config.percentile_budget);
        assert_same(&raw.unwrap(), &want, &format!("threads={threads}"));
    }
}

/// The `g, d, amt, sv` table of `n` rows `row` makes.
fn gdas(n: usize, row: impl Fn(usize) -> [Value; 4]) -> Table {
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Int),
        ("amt", DataType::Float),
        ("sv", DataType::Str),
    ];
    gen::table(
        &fields,
        &(0..n).map(|i| row(i).to_vec()).collect::<Vec<_>>(),
    )
}

/// A string dimension whose every 64-row morsel brings a value the earlier
/// ones never saw, interned against the order of the rows — so each
/// worker's chunk meets dictionary entries first — and then an append that
/// grows the dictionary between a cold and a warm statement.
#[test]
fn dictionary_growth_mid_scan_and_between_statements() {
    let t = gdas(560, |i| {
        let sv = match i % 5 {
            4 => Null,
            _ => s(&format!("v{}", 8 - (i / 64).min(i % 9))),
        };
        [
            s(["a", "b"][i % 2]),
            I((i % 4) as i64),
            F((i % 7) as f64 - 2.0),
            sv,
        ]
    });
    let more = gdas(40, |i| {
        [
            s(["a", "c"][i % 2]),
            I(9),
            F(1.5),
            s(&format!("new{}", i % 6)),
        ]
    });
    let stmts = [
        Stmt::new("f", &["g", "sv"]).vpct("amt", &["sv"], "p"),
        Stmt::new("f", &["g"]).hpct("amt", &["sv"], "h"),
    ];
    check_across_an_append(&t, &more.rows().collect::<Vec<_>>(), &stmts);
}

/// Dimensions seeded one value short of a byte-wide slot lane (254 string
/// values and 254 integers, NULL beside them), then an append that carries
/// each across it: the slot vectors the first statements built must not
/// answer the second.
#[test]
fn a_slot_vector_one_value_short_of_its_lane() {
    let t = gdas(600, |i| {
        let k = (i * 7) % 254;
        let (sv, d) = match i % 50 {
            0 => (Null, Null),
            _ => (s(&format!("k{k:03}")), I(k as i64)),
        };
        [s(["a", "b", "c"][i % 3]), d, F((i % 9) as f64 - 3.0), sv]
    });
    let more = [
        vec![s("a"), I(254), F(2.0), s("k254")],
        vec![s("b"), I(300), F(1.0), s("k255")],
    ];
    let stmts = [
        Stmt::new("f", &["g", "sv", "d"]).vpct("amt", &["sv", "d"], "p"),
        Stmt::new("f", &["sv", "d"]).hpct("amt", &["g"], "h"),
    ];
    check_across_an_append(&t, &more, &stmts);
}

/// Groups `g` (a string, NULL among them) × `d` (a float dimension with
/// `0.0`, `-0.0`, NaN and NULL) × `s` (a string), with holes; group `z`
/// sums to zero, so its percentages are all NULL. The dictionaries are
/// interned reading the rows backwards, so they run against the rows.
fn padded_fact() -> Table {
    let g = [s("b"), Null, s("a"), s("z")];
    let d = [F(-0.0), F(1.5), F(f64::NAN), Null, F(0.0)];
    let sv = [s("y"), s("x"), Null];
    let mut rows: Vec<Vec<Value>> = (0..23usize)
        .map(|i| {
            let (g, d, sv) = (&g[(i * 5 / 3) % 3], &d[(i * 3) % 5], &sv[(i * 7 / 2) % 3]);
            vec![g.clone(), d.clone(), sv.clone(), F((i % 4) as f64 + 0.5)]
        })
        .collect();
    rows.push(vec![g[3].clone(), d[1].clone(), sv[0].clone(), F(2.0)]);
    rows.push(vec![g[3].clone(), d[3].clone(), sv[1].clone(), F(-2.0)]);
    rows.reverse();
    let fields = [
        ("g", DataType::Str),
        ("d", DataType::Float),
        ("s", DataType::Str),
        ("amt", DataType::Float),
    ];
    let t = gen::table(&fields, &rows);
    t.take(&(0..t.num_rows()).rev().collect::<Vec<_>>())
}

/// The statements the pads run on: a float and a string `BY`, NULL keys on
/// both sides, a literal measure.
fn padded_statements() -> Vec<Stmt> {
    vec![
        Stmt::new("f", &["g", "d"]).vpct("amt", &["d"], "p"),
        Stmt::new("f", &["d", "g", "s"]).vpct("amt", &["g", "s"], "p"),
        Stmt::new("f", &["s", "g"]).vpct("amt", &["g"], "p"),
        Stmt::new("f", &["g", "s"]).vpct("1", &["s"], "p"),
    ]
}

/// Post-processing appends to each plan's own answer, in its order, the
/// rows the kit's nested loop finds: each totals group's missing
/// combinations, groups in order of appearance.
#[test]
fn post_processing_pads_what_a_nested_loop_finds_in_its_order() {
    let t = padded_fact();
    let catalog = Catalog::new();
    catalog.create_table("f", t.clone()).unwrap();
    let strategies = [
        VpctStrategy::best(),
        VpctStrategy::without_index(),
        VpctStrategy::with_update(),
    ];
    for stmt in padded_statements() {
        for (threads, dense_budget) in CORNERS {
            let q = stmt.vpct_query();
            let engine = PercentageEngine::new(&catalog).with_config(config(threads, dense_budget));
            for strat in &strategies {
                let what = format!("{} {strat:?} threads={threads}", stmt.sql());
                let plain = engine.vpct_with(&q, strat).unwrap().snapshot();
                let padded = engine.vpct_with_missing(&q, strat, MissingRows::PostProcess);
                let padded = padded.unwrap().snapshot();
                assert!(padded.num_rows() > plain.num_rows(), "{what}: holes");
                assert_same(&padded, &post_pads(&plain, &t, &stmt), &what);
            }
        }
    }
}

/// Pre-processing leaves `F`'s rows as they were and appends the rows the
/// kit's nested loop finds, in its order.
#[test]
fn pre_processing_pads_what_a_nested_loop_finds_in_its_order() {
    let t = padded_fact();
    for stmt in padded_statements() {
        for (threads, dense_budget) in CORNERS {
            let catalog = Catalog::new();
            catalog.create_table("f", t.clone()).unwrap();
            let engine = PercentageEngine::new(&catalog).with_config(config(threads, dense_budget));
            let (q, best) = (stmt.vpct_query(), VpctStrategy::best());
            engine
                .vpct_with_missing(&q, &best, MissingRows::PreProcess)
                .unwrap();
            let after = catalog.table("f").unwrap().read().clone();
            let what = format!("{} threads={threads}", stmt.sql());
            assert!(after.num_rows() > t.num_rows(), "{what}: holes");
            assert_same(&after, &pre_pads(&t, &stmt), &what);
        }
    }
}
