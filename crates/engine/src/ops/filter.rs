//! Selection, materialized: the rows whose predicate is TRUE, as a table.
//!
//! SQL WHERE semantics: NULL predicates drop the row (only TRUE keeps it).
//! No query path calls this — a statement's `WHERE`, and the SPJ strategy's
//! `WHERE Dh = vhI and .. and Dk = vkI`, are selections the scan core reads
//! in place ([`crate::predicate`]). It is "select, then gather": the form
//! for a caller that wants the rows themselves, and the table the
//! differential suites compare a selected scan against.

use crate::error::Result;
use crate::expr::Expr;
use crate::guard::ResourceGuard;
use crate::parallel::ParallelConfig;
use crate::predicate::Selection;
use crate::stats::ExecStats;
use pa_storage::Table;

/// Filter `input` by `predicate`.
pub fn filter(input: &Table, predicate: &Expr, stats: &mut ExecStats) -> Result<Table> {
    stats.statements += 1;
    stats.rows_scanned += input.num_rows() as u64;
    let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
    let selection = Selection::compile(input.into(), predicate, &guard, stats, &config)?;
    let keep: Vec<usize> = selection.ones(0..input.num_rows()).collect();
    stats.rows_materialized += keep.len() as u64;
    Ok(input.take(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("d", DataType::Str), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::str("x"), Value::Float(10.0)]).unwrap();
        t.push_row(&[Value::str("y"), Value::Float(4.0)]).unwrap();
        t.push_row(&[Value::Null, Value::Float(7.0)]).unwrap();
        t
    }

    #[test]
    fn keeps_only_true_rows() {
        let t = table();
        let p = Expr::col(t.schema(), "d").unwrap().eq(Expr::lit("x"));
        let out = filter(&t, &p, &mut ExecStats::default()).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.get(0, 1), Value::Float(10.0));
    }

    #[test]
    fn null_predicate_drops_row() {
        let t = table();
        // d = 'x' is NULL for the NULL row: dropped, not kept.
        let p = Expr::col(t.schema(), "d").unwrap().ne(Expr::lit("x"));
        let out = filter(&t, &p, &mut ExecStats::default()).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.get(0, 0), Value::str("y"));
    }
}
