//! Multi-key sort.
//!
//! Two uses: presenting result rows "in the order given by GROUP BY"
//! (SIGMOD §3.1), and partitioning rows for the OLAP window baseline the way
//! a 2004 optimizer evaluated `OVER (PARTITION BY ...)` — by sorting. Sort
//! comparisons are accounted because they are the dominant cost of that
//! baseline.

use crate::error::{EngineError, Result};
use crate::stats::ExecStats;
use pa_storage::Table;

/// Row order of `input` sorted ascending by `cols` (NULLs first). Returns
/// the permutation; use [`sort`] for a materialized table.
pub fn sort_permutation(
    input: &Table,
    cols: &[usize],
    stats: &mut ExecStats,
) -> Result<Vec<usize>> {
    if cols.is_empty() {
        return Err(EngineError::InvalidOperator(
            "sort needs at least one key column".into(),
        ));
    }
    for &c in cols {
        if c >= input.num_columns() {
            return Err(EngineError::InvalidOperator(format!(
                "sort column {c} out of range"
            )));
        }
    }
    Ok(input.sort_order(cols, &mut stats.sort_comparisons))
}

/// Materialize `input` sorted by `cols`.
pub fn sort(input: &Table, cols: &[usize], stats: &mut ExecStats) -> Result<Table> {
    stats.statements += 1;
    stats.rows_scanned += input.num_rows() as u64;
    let order = sort_permutation(input, cols, stats)?;
    stats.rows_materialized += order.len() as u64;
    Ok(input.take(&order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("s", DataType::Str), ("n", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (s, n) in [("b", 2), ("a", 9), ("b", 1), ("a", 3)] {
            t.push_row(&[Value::str(s), Value::Int(n)]).unwrap();
        }
        t
    }

    #[test]
    fn sorts_by_multiple_keys() {
        let t = table();
        let mut st = ExecStats::default();
        let out = sort(&t, &[0, 1], &mut st).unwrap();
        let rows: Vec<Vec<Value>> = out.rows().collect();
        assert_eq!(rows[0], vec![Value::str("a"), Value::Int(3)]);
        assert_eq!(rows[1], vec![Value::str("a"), Value::Int(9)]);
        assert_eq!(rows[2], vec![Value::str("b"), Value::Int(1)]);
        assert_eq!(rows[3], vec![Value::str("b"), Value::Int(2)]);
        assert!(st.sort_comparisons > 0);
    }

    #[test]
    fn permutation_matches_sort() {
        let t = table();
        let mut st = ExecStats::default();
        let perm = sort_permutation(&t, &[1], &mut st).unwrap();
        assert_eq!(perm, vec![2, 0, 3, 1]);
    }

    #[test]
    fn validates_columns() {
        let t = table();
        assert!(sort(&t, &[], &mut ExecStats::default()).is_err());
        assert!(sort(&t, &[7], &mut ExecStats::default()).is_err());
    }
}
