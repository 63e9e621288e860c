//! DISTINCT over a column subset.
//!
//! Horizontal strategies start with `SELECT DISTINCT Dj+1..Dk FROM {F|FV}` to
//! discover the `N` result columns; the SPJ strategy's `F0` is
//! `SELECT DISTINCT D1..Dj`. First occurrence order is preserved, which keeps
//! generated column order deterministic for a given input.

use crate::error::{EngineError, Result};
use crate::keymap::RowKeyMap;
use crate::predicate::Selected;
use crate::stats::ExecStats;
use pa_storage::{Schema, Table, Value};

/// Distinct value combinations of `cols` among the selected rows of
/// `input`, as a table with those columns.
pub fn distinct(input: Selected<'_>, cols: &[usize], stats: &mut ExecStats) -> Result<Table> {
    if cols.is_empty() {
        return Err(EngineError::InvalidOperator(
            "distinct needs at least one column".into(),
        ));
    }
    let table = input.table;
    stats.statements += 1;
    let n = table.num_rows();
    stats.rows_scanned += n as u64;
    let mut map = RowKeyMap::new();
    let mut first_rows: Vec<usize> = Vec::new();
    let mut see = |row: usize| {
        let before = map.len();
        map.get_or_insert_row(table, cols, row, stats);
        if map.len() > before {
            first_rows.push(row);
        }
    };
    match input.selection {
        None => (0..n).for_each(&mut see),
        Some(selection) => selection.ones(0..n).for_each(&mut see),
    }
    stats.rows_materialized += first_rows.len() as u64;
    // Only the requested columns, in the requested order.
    let fields = cols.iter().map(|&c| table.schema().field_at(c).clone());
    let schema = Schema::new(fields.collect())?.into_shared();
    let columns = cols.iter().map(|&c| table.column(c).take(&first_rows));
    Ok(Table::from_columns(schema, columns.collect())?)
}

/// [`distinct`] over a whole table as owned key tuples (the form code
/// generation uses to mint one result column per combination).
pub fn distinct_keys(
    input: &Table,
    cols: &[usize],
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Value>>> {
    Ok(distinct(input.into(), cols, stats)?.rows().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c) in [
            ("TX", "Houston"),
            ("CA", "SF"),
            ("TX", "Houston"),
            ("TX", "Dallas"),
            ("CA", "SF"),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(1.0)])
                .unwrap();
        }
        t
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        let t = table();
        let out = distinct((&t).into(), &[0, 1], &mut ExecStats::default()).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
        let rows: Vec<Vec<Value>> = out.rows().collect();
        assert_eq!(rows[0], vec![Value::str("TX"), Value::str("Houston")]);
        assert_eq!(rows[1], vec![Value::str("CA"), Value::str("SF")]);
        assert_eq!(rows[2], vec![Value::str("TX"), Value::str("Dallas")]);
    }

    #[test]
    fn distinct_single_column() {
        let t = table();
        let out = distinct((&t).into(), &[0], &mut ExecStats::default()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn distinct_keys_returns_tuples() {
        let t = table();
        let keys = distinct_keys(&t, &[0], &mut ExecStats::default()).unwrap();
        assert_eq!(keys, vec![vec![Value::str("TX")], vec![Value::str("CA")]]);
    }

    #[test]
    fn null_is_one_distinct_value() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&[Value::Int(1)]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        let out = distinct((&t).into(), &[0], &mut ExecStats::default()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn empty_cols_rejected() {
        assert!(distinct((&table()).into(), &[], &mut ExecStats::default()).is_err());
    }
}
