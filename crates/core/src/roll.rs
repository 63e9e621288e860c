//! Rolling a cached level forward over the write journal (DESIGN.md "The
//! level cache").
//!
//! *Data Cube*'s half of the lattice identity that the paper's dashboards
//! need once `F` grows: a distributive aggregate of `F ∪ ΔF` is the level
//! of `F` merged with the level of `ΔF`. A request at version v′ that misses
//! a level finds the newest cached entry of it at an older version v and
//! asks the catalog what changed in between
//! ([`pa_storage::Catalog::changes`]). It then aggregates only those rows
//! of the v′ snapshot with the scan core — an appended row counts
//! positive, an updated row its new value minus its old one — and merges
//! that into the old level by re-aggregating the three key-sorted tables
//! together, so new groups slot in. The result is byte-identical to what a
//! scan of v′ would store, and it is stored at v′.
//!
//! The identity is exact only where every sum is: an entry rolls when
//! * no overwritten cell is in one of its key columns (a key update moves
//!   rows between groups, and may empty one);
//! * every lane is `sum` or `count` of a plain column, or `count(*)`;
//! * every overwritten cell a lane reads is non-NULL before and after (a
//!   count stays put, a sum moves by the difference);
//! * every summed column holds whole numbers, its overwritten values
//!   included, small enough that no partial sum rounds — the
//!   [`pa_engine::AggSpec`] `folds_exactly` rule, over the rows the merge
//!   adds up.
//!
//! Anything else — `min`, `max`, `avg`, the holistic lanes, a fraction — is
//! scanned for again, as before.

use crate::error::Result;
use crate::lattice::Cached;
use pa_engine::{aggregate_level, distinct, AggFunc, AggSpec, ExecStats, Expr, ParallelConfig};
use pa_engine::{ResourceGuard, Selected, SpanHandle};
use pa_storage::{Bitmap, Catalog, Column, DataType, Field, Schema, Table, TableDelta};
use std::sync::Arc;

/// A cached level of an older version, and what changed in the table
/// since: what a roll-forward reads besides the snapshot.
#[derive(Debug)]
pub(crate) struct Roll {
    /// The version the cached level describes.
    pub(crate) from: u64,
    old: Arc<Table>,
    delta: TableDelta,
}

/// Whether a level of `rows` keyed by `key_cols` with lanes `specs` is
/// rolled exactly over `delta` (the rule in the module docs).
fn rolls(rows: &Table, key_cols: &[usize], specs: &[AggSpec], delta: &TableDelta) -> bool {
    const EXACT: f64 = (1u64 << 53) as f64;
    let touched = |col: usize| delta.overwritten.iter().filter(move |(_, c, _)| *c == col);
    // Non-NULL before and after, in every overwritten cell of `col`.
    let present = |col: usize| {
        let valid = |row: &usize| rows.column(col).is_valid(*row);
        touched(col).all(|(row, _, before)| !before.is_null() && valid(row))
    };
    // Whole-valued, before-images included, and small enough that no sum
    // of every value in `rows` and each overwritten one once more rounds.
    let exact = |col: usize| {
        let whole = |x: &f64| x.fract() == 0.0 && x.abs() < EXACT / 2.0;
        let before = touched(col).map(|(_, _, v)| v.as_f64().filter(whole).map(f64::abs));
        let bound = before.fold(rows.integral_bound(col), |m, x| Some(m?.max(x?)));
        let terms = (rows.num_rows() + delta.rows()) as f64;
        bound.is_some_and(|m| terms * m < EXACT)
    };
    key_cols.iter().all(|&k| touched(k).next().is_none())
        && specs.iter().all(|spec| match (spec.func, &spec.input) {
            (AggFunc::CountStar, _) => true,
            (AggFunc::Count, Expr::Col(c)) => present(*c),
            (AggFunc::Sum, Expr::Col(c)) => present(*c) && exact(*c),
            _ => false,
        })
}

/// The roll of `level_cols` of the table `cached` names to its version:
/// the newest older entry serving `lanes`, when the write journal still
/// reaches back to it and the rule allows. `key_cols` are the level's
/// columns in `rows`, the snapshot the request reads, and `specs` its
/// lanes.
pub(crate) fn find(
    (catalog, cached): (&Catalog, Cached<'_>),
    (level_cols, lanes): (&[String], &[String]),
    (rows, key_cols, specs): (&Table, &[usize], &[AggSpec]),
) -> Option<Roll> {
    let (from, old) = cached
        .cache
        .older(cached.table, cached.version, level_cols, lanes)?;
    let delta = catalog.changes(cached.table, from, cached.version)?;
    rolls(rows, key_cols, specs, &delta).then_some(Roll { from, old, delta })
}

/// Roll `roll`'s level forward to `rows`: aggregate the journaled rows of
/// `rows` with `specs` by `key_cols`, appended and updated rows at their
/// current values and updated rows at their old ones, and merge both into
/// the old level. It runs under the request's `roll` span, which the first
/// roll of a request opens: the delta rows it reads are charged to `guard`
/// and counted on the span, and the level on `ExecStats::levels_rolled`.
pub(crate) fn run(
    roll: &Roll,
    (rows, key_cols, specs): (&Table, &[usize], &[AggSpec]),
    (guard, span): (&ResourceGuard, &mut Option<SpanHandle>),
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    let span = span.get_or_insert_with(|| guard.span("roll"));
    let delta = &roll.delta;
    let mut updated: Vec<usize> = delta.overwritten.iter().map(|(row, ..)| *row).collect();
    updated.dedup();
    let plus_rows: Vec<usize> = delta
        .appended
        .clone()
        .chain(updated.iter().copied())
        .collect();
    let read = (plus_rows.len() + updated.len()) as u64;
    guard.charge(read)?;
    span.add_rows(read);
    span.add_morsels(1);
    let plus = rows.take(&plus_rows);
    let mut minus = rows.take(&updated);
    for (row, col, before) in &delta.overwritten {
        let at = updated
            .binary_search(row)
            .expect("every overwritten row is listed");
        minus.set_cells(at, &[*col], std::slice::from_ref(before))?;
    }
    let level = |t: &Table, stats: &mut ExecStats| group(t, key_cols, specs, guard, stats, config);
    let plus = level(&plus, stats)?;
    let minus = match updated.is_empty() {
        true => None,
        false => Some(level(&minus, stats)?),
    };
    let merged = merge(
        &roll.old,
        (&plus, minus.as_ref()),
        specs.len(),
        guard,
        stats,
        config,
    )?;
    stats.levels_rolled += 1;
    Ok(merged)
}

/// The level of `t` by `key_cols` with lanes `specs`: its distinct keys
/// when there are none.
fn group(
    t: &Table,
    key_cols: &[usize],
    specs: &[AggSpec],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    Ok(match specs.is_empty() {
        true => distinct(Selected::from(t), key_cols, guard, stats, config)?,
        false => aggregate_level(Selected::from(t), key_cols, specs, guard, stats, config)?,
    })
}

/// `old`'s key columns and first `lanes` lanes with the same level of the
/// rows added (`plus`) and taken away (`minus`) summed into it: the three
/// tables stacked, every lane as a float, `minus`'s negated, re-aggregated
/// by key and sorted. A count lane comes back an integer (every count sum
/// is exact).
fn merge(
    old: &Table,
    (plus, minus): (&Table, Option<&Table>),
    lanes: usize,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    let arity = plus.num_columns() - lanes;
    let parts: Vec<(&Table, f64)> = [(old, 1.0), (plus, 1.0)]
        .into_iter()
        .chain(minus.map(|m| (m, -1.0)))
        .collect();
    let mut stacked: Vec<Column> = Vec::with_capacity(arity + lanes);
    for c in 0..arity {
        let mut col = old.column(c).clone();
        for (part, _) in &parts[1..] {
            col.extend_from(part.column(c))?;
        }
        stacked.push(col);
    }
    for c in arity..arity + lanes {
        let (mut data, mut validity) = (Vec::new(), Bitmap::new());
        for (part, sign) in &parts {
            let col = part.column(c);
            data.extend((0..col.len()).map(|r| col.get_f64(r).map_or(0.0, |x| sign * x)));
            validity.extend_from(col.validity());
        }
        stacked.push(Column::Float { data, validity });
    }
    let fields = (old.schema().fields().iter().take(arity + lanes))
        .enumerate()
        .map(|(c, f)| match c < arity {
            true => f.clone(),
            false => Field::new(f.name.clone(), DataType::Float),
        });
    let schema = Schema::new(fields.collect())?.into_shared();
    let stacked = Table::from_columns(schema, stacked)?;
    let sums: Vec<AggSpec> = (arity..arity + lanes)
        .map(|c| AggSpec::new(AggFunc::Sum, Expr::Col(c), format!("s{c}")))
        .collect();
    let key: Vec<usize> = (0..arity).collect();
    let merged = group(&stacked, &key, &sums, guard, stats, config)?;
    let mut columns = merged.sorted_by(&key).into_columns();
    for (c, col) in columns.iter_mut().enumerate().skip(arity) {
        if old.schema().field_at(c).dtype == DataType::Int {
            let Column::Float { data, validity } =
                std::mem::replace(col, Column::new(DataType::Int))
            else {
                unreachable!("a merged lane is a float sum");
            };
            *col = Column::Int {
                data: data.iter().map(|&x| x as i64).collect(),
                validity,
            };
        }
    }
    let kept = old.schema().fields()[..arity + lanes].to_vec();
    Ok(Table::from_columns(
        Schema::new(kept)?.into_shared(),
        columns,
    )?)
}
