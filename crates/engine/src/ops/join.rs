//! The equi-join, as a lookup: one row of the right side per left row.
//!
//! Percentage queries join `Fk` with `Fj` on the common subkey `D1..Dj` to
//! perform the division; the DMKD SPJ strategy assembles `FH` with a chain
//! of **left outer** joins of `F0` with each `Fi` on `D1..Dj`. The right
//! side is always a `GROUP BY` output, so each left row matches at most one
//! right row, and the join is the vector of those rows: the `parent` the
//! percentage divides through, or the rows `Column::gather` reads a right
//! column along. The paper's "identical indexes on the common subkey"
//! optimization is a [`HashIndex`] built before the statement.

use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::stats::ExecStats;
use pa_storage::{HashIndex, Table};
use std::borrow::Cow;

/// For each row of `left`, the row of `index`'s table whose key equals the
/// row's `left_keys` tuple ([`HashIndex::lookup`]: grouping equality, NULL
/// matching NULL); with `outer`, [`pa_storage::NONE`] for a row with no
/// match, and without it a typed error.
///
/// Charged and counted as the join statement it stands for: both inputs
/// scanned (charged before any row is looked up), one probe per left row,
/// and a build of the right side when `index` is owned — a transient hash
/// table built for this join alone. A borrowed index was built beforehand
/// (`CREATE INDEX`).
pub fn lookup(
    left: &Table,
    left_keys: &[usize],
    index: Cow<'_, HashIndex>,
    outer: bool,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Vec<u32>> {
    let mut span = guard.span("join");
    let scanned = (left.num_rows() + index.rows()) as u64;
    guard.charge(scanned)?;
    span.add_rows(scanned);
    span.add_morsels(1);
    stats.statements += 1;
    stats.rows_scanned += scanned;
    stats.hash_probes += left.num_rows() as u64;
    if let Cow::Owned(built) = &index {
        stats.hash_build_rows += built.rows() as u64;
    }
    Ok(index.lookup(left, left_keys, outer)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use pa_storage::{DataType, Schema, StorageError, Value, NONE};

    fn fk() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("A", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c, a) in [
            ("CA", "LA", 23.0),
            ("NV", "Reno", 9.0),
            ("TX", "Dallas", 85.0),
            ("CA", "SF", 83.0),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn fj(states: &[&str]) -> Table {
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("A", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (i, s) in states.iter().enumerate() {
            t.push_row(&[Value::str(s), Value::Float(i as f64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn counts_the_join_it_stands_for() {
        let (fk, fj) = (fk(), fj(&["TX", "NV", "CA"]));
        let mut st = ExecStats::default();
        let guard = ResourceGuard::counting();
        let index = HashIndex::build(&fj, &[0]).unwrap();
        let parent = lookup(&fk, &[0], Cow::Borrowed(&index), false, &guard, &mut st).unwrap();
        assert_eq!(parent, [2, 1, 0, 2]);
        assert_eq!((st.statements, st.rows_scanned, st.hash_probes), (1, 7, 4));
        assert_eq!(st.hash_build_rows, 0, "no transient build with an index");
        assert_eq!(guard.rows_charged(), 7);
        lookup(&fk, &[0], Cow::Owned(index), false, &guard, &mut st).unwrap();
        assert_eq!(st.hash_build_rows, 3, "a transient build");
    }

    #[test]
    fn an_outer_miss_is_none_an_inner_one_an_error() {
        let (fk, fj) = (fk(), fj(&["CA", "TX"]));
        let index = HashIndex::build(&fj, &[0]).unwrap();
        let (guard, mut st) = (ResourceGuard::unlimited(), ExecStats::default());
        let outer = lookup(&fk, &[0], Cow::Borrowed(&index), true, &guard, &mut st).unwrap();
        assert_eq!(outer, [0, NONE, 1, 0]);
        let err = lookup(&fk, &[0], Cow::Borrowed(&index), false, &guard, &mut st).unwrap_err();
        assert_eq!(
            err,
            EngineError::Storage(StorageError::MissingKey { row: 1 })
        );
    }

    #[test]
    fn a_repeated_build_key_is_a_typed_error() {
        let err = HashIndex::build(&fj(&["CA", "TX", "CA"]), &[0]).unwrap_err();
        assert_eq!(err, StorageError::DuplicateKey { row: 2 });
    }

    #[test]
    fn a_budget_below_the_two_scans_trips_before_any_output() {
        let (fk, fj) = (fk(), fj(&["CA", "TX", "NV"]));
        let index = HashIndex::build(&fj, &[0]).unwrap();
        let guard = ResourceGuard::with_row_budget(6);
        let mut st = ExecStats::default();
        let err = lookup(&fk, &[0], Cow::Owned(index), false, &guard, &mut st).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(st.hash_probes, 0, "no row looked up");
    }

    #[test]
    fn the_wrong_index_is_refused() {
        let (fk, fj) = (fk(), fj(&["CA", "TX", "NV"]));
        let (guard, mut st) = (ResourceGuard::unlimited(), ExecStats::default());
        // An index on `Fj.A`, probed with `Fk.state`; or with two columns.
        let wrong = HashIndex::build(&fj, &[1]).unwrap();
        assert!(lookup(&fk, &[0], Cow::Borrowed(&wrong), false, &guard, &mut st).is_err());
        let right = HashIndex::build(&fj, &[0]).unwrap();
        assert!(lookup(&fk, &[0, 1], Cow::Borrowed(&right), false, &guard, &mut st).is_err());
        assert!(lookup(&fk, &[9], Cow::Borrowed(&right), false, &guard, &mut st).is_err());
    }
}
