//! INSERT..SELECT into a stored table — the bulk materialization path.
//!
//! Appends whole column batches and writes **one** WAL record per batch.
//! Contrast with [`crate::ops::update`], which logs per row; the difference
//! is the INSERT-vs-UPDATE asymmetry of SIGMOD Table 4.

use crate::error::Result;
use crate::stats::ExecStats;
use pa_storage::{Catalog, Change, Rows, Table};

/// Append every row of `rows` to existing table `name` (INSERT..SELECT).
pub fn insert_into(
    catalog: &Catalog,
    name: &str,
    rows: &Table,
    stats: &mut ExecStats,
) -> Result<()> {
    stats.statements += 1;
    let logged = catalog.write(name, Change::Append(Rows::Table(rows)))?;
    stats.wal_records += logged.records;
    stats.wal_bytes += logged.bytes;
    stats.rows_materialized += rows.num_rows() as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema, Value};

    fn rows(n: usize) -> Table {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..n {
            t.push_row(&[Value::Int(i as i64), Value::Float(i as f64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_into_appends_and_logs_batch() {
        let cat = Catalog::new();
        let mut st = ExecStats::default();
        cat.create_table("Fk", rows(10)).unwrap();
        insert_into(&cat, "Fk", &rows(5), &mut st).unwrap();
        assert_eq!(cat.table("Fk").unwrap().read().num_rows(), 15);
        assert_eq!(st.wal_records, 1, "one record per batch");
        assert_eq!(st.rows_materialized, 5);
    }

    #[test]
    fn insert_into_missing_table_errors() {
        let cat = Catalog::new();
        assert!(insert_into(&cat, "nope", &rows(1), &mut ExecStats::default()).is_err());
    }
}
