//! The statement-level reference: what a percentage statement answers,
//! computed from the papers' definitions by nested loops over `Value`s. It
//! reads nothing of the library's lowering, planning or naming.
//!
//! * **Groups.** Rows group under grouping equality ([`Value::key_eq`]:
//!   NULL is one group, `-0.0` and `0.0` one, every NaN one), in order of
//!   first appearance, which is the order the morsel scan's chunks merge
//!   in; a group's key is its first row's.
//! * **Grouping sets** (*Data Cube*): a union of group-bys, each set's
//!   rows carrying NULL — the ALL marker — in the columns it leaves out. A
//!   `Vpct` statement's empty set, a total over everything, is 100% by
//!   definition and is not in the answer.
//! * **`Vpct(A BY B)`** on a set `S`: the group's `sum(A)` over the sum of
//!   its totals group, the rows that agree on `S` minus `B`; a `BY` list
//!   that shares nothing with `S`, or is all of it, totals over every
//!   selected row. A zero or NULL total, or a NULL sum, gives NULL.
//! * **`Hpct`/`Hagg`**: one row per group; per term, one cell per `BY`
//!   combination the selected rows hold, sorted NULL first. A cell is
//!   `func` over the group's rows with that combination. `Hpct` divides
//!   the cell (a cell no row fed reading 0) by the group's total, NULL
//!   when that is zero or NULL; `DEFAULT 0` and the count family read a
//!   NULL cell as 0. A horizontal statement without `GROUP BY` has one
//!   row even over no rows.
//! * **Extras**: `func` over the group's rows; the count family never NULL.
//! * **`ORDER BY`** sorts by the `GROUP BY` columns, NULL first.
//!
//! Every sum folds from `0.0` in row order.

use crate::stmt::{Stmt, Term};
use pa_core::{HorizontalTerm, Measure};
use pa_engine::AggFunc;
use pa_storage::{DataType, Table, Value};
use std::cmp::Ordering;

fn col(f: &Table, name: &str) -> usize {
    f.schema().index_of(name).expect("column of F")
}

/// Measure `m` at `row` (`None`, `count(*)`'s, is the literal 1).
fn measure(f: &Table, m: Option<&Measure>, row: usize) -> Value {
    match m {
        Some(Measure::Column(name)) => f.get(row, col(f, name)),
        Some(Measure::LitFloat(x)) => Value::Float(*x),
        Some(Measure::LitInt(i)) => Value::Int(*i),
        None => Value::Int(1),
    }
}

/// The type of `func` over measure `m`: a count an `Int`, `min`/`max` the
/// measure's, everything else a `Float`.
fn result_type(f: &Table, func: AggFunc, m: Option<&Measure>) -> DataType {
    match (func, m) {
        (AggFunc::Count | AggFunc::CountStar, _) => DataType::Int,
        (AggFunc::Min | AggFunc::Max, Some(Measure::Column(name))) => {
            f.schema().field_at(col(f, name)).dtype
        }
        (AggFunc::Min | AggFunc::Max, Some(Measure::LitInt(_)) | None) => DataType::Int,
        _ => DataType::Float,
    }
}

/// The type of a horizontal term's cells: a percentage a `Float`.
fn cell_type(f: &Table, t: &HorizontalTerm) -> DataType {
    match t.percentage {
        true => DataType::Float,
        false => result_type(f, t.func, Some(&t.measure)),
    }
}

fn tuple(f: &Table, cols: &[usize], row: usize) -> Vec<Value> {
    cols.iter().map(|&c| f.get(row, c)).collect()
}

fn keys_eq(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.key_eq(y))
}

/// `rows` split into groups of `cols`, in order of first appearance.
fn groups(f: &Table, rows: &[usize], cols: &[usize]) -> Vec<Vec<usize>> {
    let mut out: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for &row in rows {
        let key = tuple(f, cols, row);
        match out.iter_mut().find(|(k, _)| keys_eq(k, &key)) {
            Some((_, members)) => members.push(row),
            None => out.push((key, vec![row])),
        }
    }
    out.into_iter().map(|(_, members)| members).collect()
}

/// The rows `stmt`'s `WHERE` selects.
pub fn selected(f: &Table, stmt: &Stmt) -> Vec<usize> {
    let keep = |row: usize| match &stmt.filter {
        None => true,
        Some(filter) => {
            let v = f.get(row, col(f, &filter.column));
            let order = match (v.is_null(), &filter.literal) {
                (true, _) => return false,
                (false, lit) => v.total_cmp(lit),
            };
            match filter.op {
                "<" => order == Ordering::Less,
                ">=" => order != Ordering::Less,
                "<>" => order != Ordering::Equal,
                "=" => order == Ordering::Equal,
                op => panic!("operator {op} is not drawn"),
            }
        }
    };
    (0..f.num_rows()).filter(|&r| keep(r)).collect()
}

/// `func` over `values`: sums fold from 0.0 over the non-NULL values (NULL
/// when there is none), `avg` is that sum over their count, `min`/`max`
/// keep the measure's type.
pub fn aggregate(func: AggFunc, values: &[Value]) -> Value {
    let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    let sum = || {
        present
            .iter()
            .fold(0.0, |s, v| s + v.as_f64().expect("numeric"))
    };
    match func {
        AggFunc::CountStar => Value::Int(values.len() as i64),
        AggFunc::Count => Value::Int(present.len() as i64),
        _ if present.is_empty() => Value::Null,
        AggFunc::Sum => Value::Float(sum()),
        AggFunc::Avg => Value::Float(sum() / present.len() as f64),
        AggFunc::Min => present
            .into_iter()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap()
            .clone(),
        AggFunc::Max => present
            .into_iter()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap()
            .clone(),
        other => panic!("{other:?} is not drawn"),
    }
}

/// PERCENTILE_CONT: the `p` quantile of `sorted` (non-empty), interpolated
/// linearly between the closest ranks.
pub fn percentile_cont(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn cast(v: Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
}

/// `part / total`, NULL when either is NULL or the total is zero.
fn ratio(part: Option<f64>, total: Option<f64>) -> Value {
    match (part, total) {
        (Some(p), Some(t)) if t != 0.0 => Value::Float(p / t),
        _ => Value::Null,
    }
}

/// The column name of one horizontal cell: `prefix:by=value;..`, the
/// prefix only when the statement has more than one term.
fn cell_name(prefix: Option<&str>, by: &[String], combo: &[Value]) -> String {
    let render = |v: &Value| match v {
        Value::Str(s) => s.replace([' ', '\t', '\n'], "_"),
        other => other.to_string(),
    };
    let body: Vec<String> = by
        .iter()
        .zip(combo)
        .map(|(c, v)| format!("{c}={}", render(v)))
        .collect();
    match prefix {
        Some(p) => format!("{p}:{}", body.join(";")),
        None => body.join(";"),
    }
}

/// The answer of `stmt` over `f`.
pub fn answer(f: &Table, stmt: &Stmt) -> Table {
    let rows = selected(f, stmt);
    let dims: Vec<usize> = stmt.group_by.iter().map(|c| col(f, c)).collect();
    let mut fields: Vec<(String, DataType)> = (stmt.group_by.iter().zip(&dims))
        .map(|(name, &c)| (name.clone(), f.schema().field_at(c).dtype))
        .collect();
    // Horizontal cells: each term's sorted combinations over the selection.
    let combos: Vec<Vec<Vec<Value>>> = (stmt.terms.iter())
        .map(|term| match term {
            Term::Vpct(_) => Vec::new(),
            Term::Horizontal(t) => {
                let by: Vec<usize> = t.by.iter().map(|c| col(f, c)).collect();
                let groups = groups(f, &rows, &by).into_iter();
                let mut combos: Vec<Vec<Value>> = groups.map(|g| tuple(f, &by, g[0])).collect();
                combos.sort_by(|a, b| {
                    let order = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
                    order.fold(Ordering::Equal, Ordering::then)
                });
                combos
            }
        })
        .collect();
    let multi = stmt.terms.len() > 1;
    for (term, combos) in stmt.terms.iter().zip(&combos) {
        match term {
            Term::Vpct(t) => fields.push((t.name.clone(), DataType::Float)),
            Term::Horizontal(t) => {
                let (prefix, dtype) = (multi.then_some(t.name.as_str()), cell_type(f, t));
                fields.extend(combos.iter().map(|c| (cell_name(prefix, &t.by, c), dtype)));
            }
        }
    }
    for e in &stmt.extras {
        let dtype = result_type(f, e.func, e.measure.as_ref());
        fields.push((e.name.clone(), dtype));
    }

    let mut out: Vec<Vec<Value>> = Vec::new();
    for set in stmt.grouping_sets() {
        if set.is_empty() && stmt.is_vertical() {
            continue;
        }
        let in_set: Vec<bool> = stmt.group_by.iter().map(|g| set.contains(g)).collect();
        let set_cols: Vec<usize> = (0..dims.len())
            .filter(|&i| in_set[i])
            .map(|i| dims[i])
            .collect();
        let mut set_groups = groups(f, &rows, &set_cols);
        if set_groups.is_empty() && set_cols.is_empty() && !stmt.is_vertical() {
            set_groups.push(Vec::new());
        }
        // Per `Vpct` term, each selected row's totals-group sum: the set
        // minus the term's `BY`, or every row when they share nothing or
        // `BY` covers the set.
        let totals: Vec<Vec<Value>> = (stmt.terms.iter())
            .map(|term| {
                let mut of_row = vec![Value::Null; f.num_rows()];
                if let Term::Vpct(t) = term {
                    let by: Vec<&String> = t.by.iter().filter(|b| set.contains(b)).collect();
                    let key = set.iter().filter(|c| !by.is_empty() && !by.contains(c));
                    let key: Vec<usize> = key.map(|c| col(f, c)).collect();
                    for group in groups(f, &rows, &key) {
                        let values = group.iter().map(|&r| measure(f, Some(&t.measure), r));
                        let sum = aggregate(AggFunc::Sum, &values.collect::<Vec<_>>());
                        group.iter().for_each(|&r| of_row[r] = sum.clone());
                    }
                }
                of_row
            })
            .collect();
        for members in &set_groups {
            let first = members.first().copied();
            let mut row: Vec<Value> = (0..dims.len())
                .map(|i| match (in_set[i], first) {
                    (true, Some(r)) => f.get(r, dims[i]),
                    _ => Value::Null,
                })
                .collect();
            let agg = |func: AggFunc, m: Option<&Measure>, rows: &[usize]| {
                let values: Vec<Value> = rows.iter().map(|&r| measure(f, m, r)).collect();
                aggregate(func, &values)
            };
            for ((term, combos), totals) in stmt.terms.iter().zip(&combos).zip(&totals) {
                match term {
                    Term::Vpct(t) => {
                        let sum = agg(AggFunc::Sum, Some(&t.measure), members);
                        row.push(ratio(sum.as_f64(), totals[members[0]].as_f64()));
                    }
                    Term::Horizontal(t) => {
                        let by: Vec<usize> = t.by.iter().map(|c| col(f, c)).collect();
                        let total =
                            (t.percentage).then(|| agg(AggFunc::Sum, Some(&t.measure), members));
                        let zero =
                            t.default_zero || matches!(t.func, AggFunc::Count | AggFunc::CountStar);
                        for combo in combos {
                            let fed: Vec<usize> = (members.iter().copied())
                                .filter(|&r| keys_eq(&tuple(f, &by, r), combo))
                                .collect();
                            let cell = agg(t.func, Some(&t.measure), &fed);
                            let cell = match &total {
                                Some(total) => {
                                    ratio(Some(cell.as_f64().unwrap_or(0.0)), total.as_f64())
                                }
                                None => cell,
                            };
                            let cell = match cell {
                                Value::Null if zero => Value::Int(0),
                                cell => cell,
                            };
                            row.push(cast(cell, cell_type(f, t)));
                        }
                    }
                }
            }
            for e in &stmt.extras {
                let dtype = result_type(f, e.func, e.measure.as_ref());
                row.push(cast(agg(e.func, e.measure.as_ref(), members), dtype));
            }
            out.push(row);
        }
    }
    if stmt.order_by {
        let k = dims.len();
        out.sort_by(|a, b| {
            let order = a[..k].iter().zip(&b[..k]).map(|(x, y)| x.total_cmp(y));
            order.fold(Ordering::Equal, Ordering::then)
        });
    }
    let fields: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    crate::gen::table(&fields, &out)
}

/// `F` padded for a flat single-term `Vpct` statement (SIGMOD §3.1,
/// "missing rows", before evaluation): for every totals group of `F` and
/// every `BY` combination of `F` that no row of that group has, one row
/// with those keys, the measure 0 and NULL elsewhere — groups in order of
/// first appearance, each one's combinations in theirs.
pub fn pre_pads(f: &Table, stmt: &Stmt) -> Table {
    pad(f, f, stmt, true)
}

/// `plain`, the answer of a flat single-term `Vpct` statement over `f`,
/// padded after evaluation: for every totals group of `plain` and every
/// `BY` combination of `f` that no row of that group has, one row with
/// those keys, 0% when the group's total is non-zero (else NULL), and NULL
/// elsewhere, in [`pre_pads`]'s order.
pub fn post_pads(plain: &Table, f: &Table, stmt: &Stmt) -> Table {
    pad(plain, f, stmt, false)
}

fn pad(fold: &Table, f: &Table, stmt: &Stmt, pre: bool) -> Table {
    let [Term::Vpct(term)] = &stmt.terms[..] else {
        panic!("missing-row padding takes one Vpct term");
    };
    let at =
        |t: &Table, names: &[&String]| -> Vec<usize> { names.iter().map(|n| col(t, n)).collect() };
    let by: Vec<&String> = term.by.iter().collect();
    let j_names: Vec<&String> = match by.is_empty() {
        true => Vec::new(),
        false => stmt.group_by.iter().filter(|g| !by.contains(g)).collect(),
    };
    let (j, b, f_by) = (at(fold, &j_names), at(fold, &by), at(f, &by));
    let f_rows: Vec<usize> = (0..f.num_rows()).collect();
    let combos = groups(f, &f_rows, &f_by)
        .into_iter()
        .map(|g| tuple(f, &f_by, g[0]));
    let combos: Vec<Vec<Value>> = combos.collect();
    let mut rows: Vec<Vec<Value>> = fold.rows().collect();
    let pct = stmt.group_by.len();
    let all: Vec<usize> = (0..fold.num_rows()).collect();
    for group in groups(fold, &all, &j) {
        let key = tuple(fold, &j, group[0]);
        let valued = !pre && group.iter().any(|&r| !fold.get(r, pct).is_null());
        for combo in &combos {
            if group.iter().any(|&r| keys_eq(&tuple(fold, &b, r), combo)) {
                continue;
            }
            let mut row = vec![Value::Null; fold.num_columns()];
            for (&c, v) in j.iter().zip(&key).chain(b.iter().zip(combo)) {
                row[c] = v.clone();
            }
            let m = match &term.measure {
                Measure::Column(name) => fold.schema().index_of(name).ok(),
                _ => None,
            };
            match m {
                Some(m) if pre => row[m] = cast(Value::Int(0), fold.schema().field_at(m).dtype),
                _ if valued => row[pct] = Value::Float(0.0),
                _ => {}
            }
            rows.push(row);
        }
    }
    let fields = fold.schema().fields();
    let fields: Vec<(&str, DataType)> = fields.iter().map(|f| (f.name.as_str(), f.dtype)).collect();
    crate::gen::table(&fields, &rows)
}
