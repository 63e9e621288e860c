//! The naive reference the scan core's adapters are held to, written
//! against nothing the core uses: each chunk's groups in first-appearance
//! order through a tuple map of key fragments ([`Column::key_fragment`]),
//! one [`Acc::update`] per selected row per lane with the `Value` the lane's
//! expression evaluates to, and the chunks' groups merged in chunk order
//! (a group first seen in a later chunk merged into fresh accumulators), as
//! the morsel-parallel scan merges its workers. Keys are the `Value`s of
//! each group's first row, pushed, and every lane is pushed as its
//! `Acc::finish`.
//!
//! Test crates include this file as a module of their own:
//! `#[path = "…/crates/engine/tests/support/reference.rs"] mod reference;`.

#![allow(dead_code)]

use pa_engine::{Acc, AggFunc, AggSpec, ExecStats, Expr, PivotTask};
use pa_storage::{Column, Field, Schema, Table, Value};
use std::collections::HashMap;
use std::ops::Range;

/// The rows a reference scan reads, split into the chunks it merges.
pub struct Rows<'a> {
    keep: Box<dyn Fn(usize) -> bool + 'a>,
    chunks: Vec<Range<usize>>,
}

impl<'a> Rows<'a> {
    /// Every row of an `n`-row table, in one chunk.
    pub fn all(n: usize) -> Rows<'a> {
        // One chunk spanning the whole table (not a range-to-vec collect).
        #[allow(clippy::single_range_in_vec_init)]
        Rows {
            keep: Box::new(|_| true),
            chunks: vec![0..n],
        }
    }

    /// Only the rows `keep` admits.
    pub fn filter(self, keep: impl Fn(usize) -> bool + 'a) -> Rows<'a> {
        Rows {
            keep: Box::new(keep),
            ..self
        }
    }

    /// Only the rows of `t` where `predicate` is true.
    pub fn where_true(self, t: &'a Table, predicate: &'a Expr) -> Rows<'a> {
        self.filter(move |row| {
            let value = predicate.eval(t, row, &mut ExecStats::default());
            matches!(value, Ok(v) if v.as_f64().is_some_and(|x| x != 0.0))
        })
    }

    /// Split into `chunks` (a worker's contiguous ranges, in order).
    pub fn chunked(self, chunks: Vec<Range<usize>>) -> Rows<'a> {
        Rows { chunks, ..self }
    }
}

/// A key as grouping compares it: one fragment per column, `None` for NULL.
type Key = Vec<Option<i64>>;

/// Groups in first-appearance order: each one's first row and accumulators.
struct Groups {
    index: HashMap<Key, usize>,
    firsts: Vec<usize>,
    accs: Vec<Vec<Acc>>,
}

impl Groups {
    fn new() -> Groups {
        Groups {
            index: HashMap::new(),
            firsts: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// The group of `key`, added with fresh accumulators when unseen.
    fn of(&mut self, key: Key, first: usize, aggs: &[AggSpec], budget: usize) -> usize {
        let next = self.firsts.len();
        let gid = *self.index.entry(key).or_insert(next);
        if gid == next {
            self.firsts.push(first);
            self.accs.push(
                aggs.iter()
                    .map(|s| Acc::with_budget(s.func, budget))
                    .collect(),
            );
        }
        gid
    }
}

fn key_of(t: &Table, cols: &[usize], row: usize) -> Key {
    cols.iter()
        .map(|&c| t.column(c).key_fragment(row))
        .collect()
}

/// The groups of `cols` over `rows` of `t`, each carrying `aggs`.
fn scan(t: &Table, rows: &Rows<'_>, cols: &[usize], aggs: &[AggSpec], budget: usize) -> Groups {
    let mut merged: Option<Groups> = None;
    let mut stats = ExecStats::default();
    for chunk in &rows.chunks {
        let mut part = Groups::new();
        if cols.is_empty() {
            // SQL's global aggregate is a row even over no rows.
            part.of(Vec::new(), chunk.start, aggs, budget);
        }
        for row in chunk.clone().filter(|&r| (rows.keep)(r)) {
            let gid = part.of(key_of(t, cols, row), row, aggs, budget);
            for (acc, spec) in part.accs[gid].iter_mut().zip(aggs) {
                let value = spec.input.eval(t, row, &mut stats).expect("lane evaluates");
                acc.update(&value).expect("lane updates");
            }
        }
        let Some(into) = &mut merged else {
            merged = Some(part);
            continue;
        };
        for (first, accs) in part.firsts.into_iter().zip(part.accs) {
            let gid = into.of(key_of(t, cols, first), first, aggs, budget);
            for (acc, theirs) in into.accs[gid].iter_mut().zip(accs) {
                acc.merge(theirs).expect("partials merge");
            }
        }
    }
    merged.expect("at least one chunk")
}

/// The groups of `cols` over `rows` of `t` in first-appearance order: each
/// one's first row, and its accumulators of `aggs`.
pub fn groups(
    t: &Table,
    rows: &Rows<'_>,
    cols: &[usize],
    aggs: &[AggSpec],
    budget: usize,
) -> (Vec<usize>, Vec<Vec<Acc>>) {
    let groups = scan(t, rows, cols, aggs, budget);
    (groups.firsts, groups.accs)
}

/// Column `c` of `t` at `rows`, pushed value by value.
fn pushed(t: &Table, c: usize, rows: impl Iterator<Item = usize>) -> Column {
    let mut col = Column::new(t.column(c).data_type());
    rows.for_each(|row| col.push(t.get(row, c)).expect("same type"));
    col
}

/// `accs`, each finished and pushed into a column of `func(input)`'s type.
fn finished<'a>(t: &Table, spec: &AggSpec, accs: impl Iterator<Item = &'a Acc>) -> Column {
    let mut col = Column::new(spec.func.output_type(&spec.input, t.schema()));
    accs.for_each(|acc| col.push(acc.finish()).expect("lane type"));
    col
}

fn table(fields: Vec<Field>, columns: Vec<Column>) -> Table {
    let schema = Schema::new(fields).expect("schema").into_shared();
    Table::from_columns(schema, columns).expect("columns")
}

/// `GROUP BY cols` of `rows` of `t` computing `aggs`: the key columns, then
/// one column per aggregate, one row per group in first-appearance order.
pub fn aggregate(
    t: &Table,
    rows: &Rows<'_>,
    cols: &[usize],
    aggs: &[AggSpec],
    budget: usize,
) -> Table {
    let groups = scan(t, rows, cols, aggs, budget);
    let mut fields: Vec<Field> = cols
        .iter()
        .map(|&c| t.schema().field_at(c).clone())
        .collect();
    let mut columns: Vec<Column> = cols
        .iter()
        .map(|&c| pushed(t, c, groups.firsts.iter().copied()))
        .collect();
    for (i, spec) in aggs.iter().enumerate() {
        let dtype = spec.func.output_type(&spec.input, t.schema());
        fields.push(Field::new(spec.name.clone(), dtype));
        columns.push(finished(t, spec, groups.accs.iter().map(|accs| &accs[i])));
    }
    table(fields, columns)
}

/// The pivot's raw table (`pivot_aggregate`): the `j_cols` keys, then per
/// task its `combos × lanes` cells (`__c{t}_{i}_{l}`) and its total
/// (`__tot{t}`), then the extra lanes (`__x{x}_0`); one row per `j_cols`
/// group in first-appearance order. A cell no row fed finishes as a fresh
/// accumulator.
pub fn pivot(
    t: &Table,
    rows: &Rows<'_>,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extras: &[(AggFunc, Expr)],
    budget: usize,
) -> Table {
    let spec = |func: AggFunc, input: &Expr| AggSpec::new(func, input.clone(), "");
    let totals = tasks.iter().filter_map(|task| task.total.as_ref());
    let coarse: Vec<AggSpec> = (totals.map(|total| spec(AggFunc::Sum, total)))
        .chain(extras.iter().map(|(f, e)| spec(*f, e)))
        .collect();
    let by_row = scan(t, rows, j_cols, &coarse, budget);
    let row_of = |row: usize| by_row.index[&key_of(t, j_cols, row)];
    let n = by_row.firsts.len();
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for &c in j_cols {
        fields.push(t.schema().field_at(c).clone());
        columns.push(pushed(t, c, by_row.firsts.iter().copied()));
    }
    let mut push = |name: String, column: Column| {
        fields.push(Field::new(name, column.data_type()));
        columns.push(column);
    };
    let mut total = 0;
    for (ti, task) in tasks.iter().enumerate() {
        let lanes: Vec<AggSpec> = task.lanes.iter().map(|(f, e)| spec(*f, e)).collect();
        let cols: Vec<usize> = j_cols.iter().chain(&task.by_cols).copied().collect();
        let cells = scan(t, rows, &cols, &lanes, budget);
        // (combination, row) → the cell group there.
        let mut at: HashMap<(usize, usize), usize> = HashMap::new();
        for (gid, &first) in cells.firsts.iter().enumerate() {
            let by: Vec<Value> = task.by_cols.iter().map(|&c| t.get(first, c)).collect();
            let listed = |combo: &Vec<Value>| combo.iter().zip(&by).all(|(a, b)| a.key_eq(b));
            if let Some(i) = task.combos.iter().position(listed) {
                at.insert((i, row_of(first)), gid);
            }
        }
        for i in 0..task.combos.len() {
            for (l, lane) in lanes.iter().enumerate() {
                let fresh = Acc::with_budget(lane.func, budget);
                let cell = |row| at.get(&(i, row)).map_or(&fresh, |&g| &cells.accs[g][l]);
                push(
                    format!("__c{ti}_{i}_{l}"),
                    finished(t, lane, (0..n).map(cell)),
                );
            }
        }
        if task.total.is_some() {
            let accs = by_row.accs.iter().map(|accs| &accs[total]);
            push(format!("__tot{ti}"), finished(t, &coarse[total], accs));
            total += 1;
        }
    }
    for x in 0..extras.len() {
        let accs = by_row.accs.iter().map(|accs| &accs[total + x]);
        push(format!("__x{x}_0"), finished(t, &coarse[total + x], accs));
    }
    table(fields, columns)
}

/// Every cell of `t` as text, a float by its bits: what two tables must
/// agree on to be the same answer.
pub fn cells(t: &Table) -> Vec<Vec<String>> {
    t.rows()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// `got` is `want`: field names and types, row order, validity and every
/// cell's bits.
pub fn assert_same(got: &Table, want: &Table, what: &str) {
    let shape = |t: &Table| -> Vec<(String, String)> {
        let fields = t.schema().fields().iter();
        fields
            .map(|f| (f.name.clone(), format!("{:?}", f.dtype)))
            .collect()
    };
    assert_eq!(shape(got), shape(want), "{what}: schema");
    assert_eq!(cells(got), cells(want), "{what}: cells");
}
