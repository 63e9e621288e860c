//! Rolling a cached level forward over the write journal (DESIGN.md "The
//! level cache").
//!
//! *Data Cube*'s half of the lattice identity that the paper's dashboards
//! need once `F` grows: a distributive aggregate of `F ∪ ΔF` is the level
//! of `F` merged with the level of `ΔF`. A request at version v′ that misses
//! a level finds the newest cached entry of it at an older version v and
//! asks the catalog what changed in between
//! ([`pa_storage::Catalog::changes`]). It then reads only those rows of
//! the v′ snapshot — an appended row counts positive, an updated row its
//! new value minus its old one — and adds each into its group of a copy of
//! the old level, found by key; the appended rows of groups the old level
//! lacks are aggregated with the scan core, and their groups slot in by
//! key. The result is byte-identical to what a scan of v′ would store,
//! and it is stored at v′.
//!
//! The identity is exact only where every sum is: an entry rolls when
//! * no overwritten cell is in one of its key columns (a key update moves
//!   rows between groups, and may empty one);
//! * every lane is `sum` or `count` of a plain column, or `count(*)`;
//! * every overwritten cell a lane reads is non-NULL before and after (a
//!   count stays put, a sum moves by the difference);
//! * every summed column holds whole numbers, its overwritten values
//!   included, small enough that no partial sum rounds — the
//!   [`pa_engine::AggSpec`] `folds_exactly` rule, over the rows the roll
//!   adds up.
//!
//! Anything else — `min`, `max`, `avg`, the holistic lanes, a fraction — is
//! scanned for again, as before.

use crate::error::Result;
use crate::lattice::Cached;
use pa_engine::{aggregate_level, distinct, AggFunc, AggSpec, ExecStats, Expr, ParallelConfig};
use pa_engine::{ResourceGuard, Selected, SpanHandle};
use pa_storage::{Catalog, Column, HashIndex, Schema, Table, TableDelta, NONE};
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

/// Roll `roll`'s level forward to `rows`: add the journaled rows of
/// `rows` into their groups of the old level with `specs` — appended and
/// updated rows at their current values, updated rows again at their old
/// ones, negated — and slot in the groups of appended rows it lacks,
/// aggregated by `key_cols` and sorted in by key. Every sum moves by whole
/// numbers the rule keeps exact, so each lane ends where a scan puts it.
/// It runs under the request's `roll` span, which the first roll of a
/// request opens: the delta rows it reads are charged to `guard` and
/// counted on the span, and the level on `ExecStats::levels_rolled`.
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
    let (old, key) = (&roll.old, (0..key_cols.len()).collect::<Vec<_>>());
    let index = HashIndex::build(old, &key)?;
    // An updated row's group is one the old level holds: no key changed.
    let into = [
        index.lookup(&plus, key_cols, true)?,
        index.lookup(&minus, key_cols, false)?,
    ];
    let mut columns = old.columns()[..key.len() + specs.len()].to_vec();
    for (lane, spec) in columns[key.len()..].iter_mut().zip(specs) {
        for ((t, into), sign) in [&plus, &minus].into_iter().zip(&into).zip([1.0, -1.0]) {
            let found = into.iter().enumerate().filter(|(_, &to)| to != NONE);
            for (r, &to) in found {
                let x = match (spec.func, &spec.input) {
                    (AggFunc::Sum, Expr::Col(c)) => t.column(*c).get_f64(r),
                    (AggFunc::Count, Expr::Col(c)) => t.column(*c).is_valid(r).then_some(1.0),
                    _ => Some(1.0),
                };
                // A sum no row fed yet is NULL, and starts from zero.
                let at = to as usize;
                match (&mut *lane, x) {
                    (Column::Int { data, validity }, Some(x)) => {
                        data[at] = if validity.get(at) { data[at] } else { 0 } + (sign * x) as i64;
                        validity.set(at, true);
                    }
                    (Column::Float { data, validity }, Some(x)) => {
                        data[at] = if validity.get(at) { data[at] } else { 0.0 } + sign * x;
                        validity.set(at, true);
                    }
                    _ => {}
                }
            }
        }
    }
    let fresh: Vec<usize> = (into[0].iter().enumerate())
        .filter_map(|(r, &to)| (to == NONE).then_some(r))
        .collect();
    if !fresh.is_empty() {
        let level = group(&plus.take(&fresh), key_cols, specs, guard, stats, config)?;
        for (column, new) in columns.iter_mut().zip(level.columns()) {
            column.extend_from(new)?;
        }
    }
    let fields = old.schema().fields()[..columns.len()].to_vec();
    let level = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?;
    stats.levels_rolled += 1;
    Ok(match fresh.is_empty() {
        true => level,
        false => level.sorted_by(&key),
    })
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
