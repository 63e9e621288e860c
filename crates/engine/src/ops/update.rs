//! UPDATE .. FROM — in-place materialization via a join.
//!
//! Implements the paper's second `FV` strategy:
//!
//! ```sql
//! UPDATE Fk SET A = CASE WHEN Fj.A <> 0 THEN Fk.A/Fj.A ELSE NULL END
//! WHERE Fk.D1 = Fj.D1 .. Fk.Dj = Fj.Dj;  /* FV = Fk */
//! ```
//!
//! Every target row is processed individually: probe the source, evaluate
//! the SET expressions over the spliced row, write a before/after image to
//! the WAL, then mutate in place — one [`Catalog::write`] for the statement,
//! one log record per row. The per-row log records and random writes are
//! the mechanism behind Table 4's "UPDATE takes 80% of the time when FV is
//! comparable to F".

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::stats::ExecStats;
use pa_storage::{Catalog, Change, HashIndex, Table, Value};

/// One `SET target_col = expr` clause. The expression addresses the spliced
/// row: target columns first, then source columns (see [`Expr::eval2`]).
#[derive(Debug, Clone)]
pub struct SetClause {
    /// Column of the target table to overwrite.
    pub target_col: usize,
    /// Replacement expression over the spliced (target ++ source) row.
    pub expr: Expr,
}

/// Update table `target_name` in place, joining each row against `source`
/// on the given key columns. Rows with no source match are left untouched
/// (SQL UPDATE..FROM semantics). Returns the number of rows updated.
#[allow(clippy::too_many_arguments)]
pub fn update_from(
    catalog: &Catalog,
    target_name: &str,
    target_keys: &[usize],
    source: &Table,
    source_keys: &[usize],
    source_index: Option<&HashIndex>,
    sets: &[SetClause],
    stats: &mut ExecStats,
) -> Result<u64> {
    if target_keys.len() != source_keys.len() || target_keys.is_empty() {
        return Err(EngineError::InvalidOperator(
            "update join key arity mismatch".into(),
        ));
    }
    if sets.is_empty() {
        return Err(EngineError::InvalidOperator("update without SET".into()));
    }
    if let Some(idx) = source_index {
        if idx.key_cols() != source_keys {
            return Err(EngineError::InvalidOperator(
                "provided index does not cover the update join keys".into(),
            ));
        }
    }
    stats.statements += 1;
    let target_columns = catalog.table(target_name)?.read().num_columns();
    for &k in target_keys {
        if k >= target_columns {
            return Err(EngineError::InvalidOperator(format!(
                "target key column {k} out of range"
            )));
        }
    }
    for s in sets {
        if s.target_col >= target_columns {
            return Err(EngineError::InvalidOperator(format!(
                "set column {} out of range",
                s.target_col
            )));
        }
    }

    let built;
    let index: &HashIndex = match source_index {
        Some(idx) => idx,
        None => {
            built = HashIndex::build(source, source_keys)?;
            stats.hash_build_rows += source.num_rows() as u64;
            &built
        }
    };

    // The statement is one catalog write: `next` runs under the target's
    // write guard and hands over one matched row at a time — its SET values
    // evaluated against the pre-update row image — which the catalog logs
    // (before + after images of the touched columns), then overwrites.
    let set_cols: Vec<usize> = sets.iter().map(|s| s.target_col).collect();
    let mut key_buf: Vec<Value> = Vec::with_capacity(target_keys.len());
    let (mut row, mut updated) = (0, 0u64);
    let mut failed = None;
    let next = &mut |target: &Table, new_vals: &mut Vec<Value>| {
        while row < target.num_rows() {
            let this = row;
            row += 1;
            key_buf.clear();
            key_buf.extend(target_keys.iter().map(|&k| target.column(k).get(this)));
            stats.hash_probes += 1;
            let Some(src_row) = index.probe(source, &key_buf).next() else {
                continue;
            };
            for s in sets {
                match s.expr.eval2(target, this, source, src_row, stats) {
                    Ok(v) => new_vals.push(v),
                    Err(e) => {
                        failed = Some(e);
                        return None;
                    }
                }
            }
            updated += 1;
            return Some(this);
        }
        None
    };
    let change = Change::Update {
        cols: &set_cols,
        next,
    };
    let logged = catalog.write(target_name, change)?;
    if let Some(e) = failed {
        return Err(e);
    }
    stats.rows_scanned += logged.rows + source.num_rows() as u64;
    stats.rows_updated += updated;
    stats.wal_records += logged.records;
    stats.wal_bytes += logged.bytes;
    Ok(updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn setup() -> (Catalog, Table) {
        setup_on(Catalog::new())
    }

    fn setup_on(cat: Catalog) -> (Catalog, Table) {
        let fk_schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("A", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut fk = Table::empty(fk_schema);
        for (s, c, a) in [
            ("CA", "LA", 23.0),
            ("CA", "SF", 83.0),
            ("TX", "Dallas", 85.0),
            ("TX", "Houston", 64.0),
            ("NV", "Reno", 9.0), // no match in Fj
        ] {
            fk.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        cat.create_table("Fk", fk).unwrap();

        let fj_schema = Schema::from_pairs(&[("state", DataType::Str), ("A", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut fj = Table::empty(fj_schema);
        fj.push_row(&[Value::str("CA"), Value::Float(106.0)])
            .unwrap();
        fj.push_row(&[Value::str("TX"), Value::Float(149.0)])
            .unwrap();
        (cat, fj)
    }

    /// SET A = Fk.A / Fj.A (safe division): col 2 is Fk.A, col 3+1=4 is Fj.A.
    fn division_set() -> Vec<SetClause> {
        vec![SetClause {
            target_col: 2,
            expr: Expr::Col(2).safe_div(Expr::Col(4)),
        }]
    }

    #[test]
    fn paper_update_division() {
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        let n = update_from(&cat, "Fk", &[0], &fj, &[0], None, &division_set(), &mut st).unwrap();
        assert_eq!(n, 4, "NV row untouched");
        let fk = cat.table("Fk").unwrap();
        let t = fk.read().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Float(23.0 / 106.0)); // CA LA
        assert_eq!(t.get(1, 2), Value::Float(83.0 / 106.0)); // CA SF
        assert_eq!(t.get(2, 2), Value::Float(9.0), "unmatched row keeps value");
        assert_eq!(st.rows_updated, 4);
    }

    #[test]
    fn logs_one_wal_record_per_updated_row() {
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        update_from(&cat, "Fk", &[0], &fj, &[0], None, &division_set(), &mut st).unwrap();
        assert_eq!(st.wal_records, 4);
        assert!(st.wal_bytes > 0);
    }

    #[test]
    fn zero_total_divides_to_null() {
        let (cat, _) = setup();
        let fj_schema = Schema::from_pairs(&[("state", DataType::Str), ("A", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut fj = Table::empty(fj_schema);
        fj.push_row(&[Value::str("CA"), Value::Float(0.0)]).unwrap();
        let mut st = ExecStats::default();
        update_from(&cat, "Fk", &[0], &fj, &[0], None, &division_set(), &mut st).unwrap();
        let fk = cat.table("Fk").unwrap();
        let t = fk.read().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Null, "division by zero is NULL");
    }

    #[test]
    fn prebuilt_index_accepted_wrong_index_rejected() {
        let (cat, fj) = setup();
        let idx = HashIndex::build(&fj, &[0]).unwrap();
        let mut st = ExecStats::default();
        assert!(update_from(
            &cat,
            "Fk",
            &[0],
            &fj,
            &[0],
            Some(&idx),
            &division_set(),
            &mut st
        )
        .is_ok());
        let wrong = HashIndex::build(&fj, &[1]).unwrap();
        assert!(update_from(
            &cat,
            "Fk",
            &[0],
            &fj,
            &[0],
            Some(&wrong),
            &division_set(),
            &mut st
        )
        .is_err());
    }

    #[test]
    fn engine_logged_updates_replay_at_recovery() {
        // update_from logs only the SET-clause columns of the 3-column Fk;
        // recovery must land those images in the right column — not skip
        // them for not being full-row images.
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        update_from(&cat, "Fk", &[0], &fj, &[0], None, &division_set(), &mut st).unwrap();
        let live: Vec<Vec<Value>> = cat.table("Fk").unwrap().read().rows().collect();

        let image = cat.with_wal(|w| w.snapshot()).unwrap();
        let (recovered, report) =
            Catalog::recover(Box::new(pa_storage::log::MemLogStore::from_bytes(image))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records_replayed, 2 + 4, "create + rows + 4 updates");
        let rec: Vec<Vec<Value>> = recovered.table("Fk").unwrap().read().rows().collect();
        assert_eq!(rec, live, "recovered Fk matches the updated live table");
        recovered.check_integrity().unwrap();
    }

    #[test]
    fn a_refused_record_stops_the_statement_at_a_committed_prefix() {
        use pa_storage::{FaultInjector, FaultPlan, MemLogStore, RetryPolicy, StorageError, Wal};
        // Creating Fk is device operations 0 and 1, the statement's four
        // records 2..=5: refuse the third, with retries off.
        let plan = FaultPlan {
            error_on_op: Some(4),
            ..FaultPlan::default()
        };
        let device = FaultInjector::new(MemLogStore::new(), plan);
        let mut wal = Wal::with_store(Box::new(device), 1 << 20);
        wal.set_retry_policy(RetryPolicy::none());
        let (cat, fj) = setup_on(Catalog::from_wal(wal));
        let mut st = ExecStats::default();
        let err =
            update_from(&cat, "Fk", &[0], &fj, &[0], None, &division_set(), &mut st).unwrap_err();
        assert!(
            matches!(err, EngineError::Storage(StorageError::TransientIo(_))),
            "the caller gets the device's error: {err}"
        );
        let live: Vec<Vec<Value>> = cat.table("Fk").unwrap().read().rows().collect();
        let a: Vec<Value> = live.iter().map(|r| r[2].clone()).collect();
        assert_eq!(
            a[..3],
            [
                Value::Float(23.0 / 106.0),
                Value::Float(83.0 / 106.0),
                Value::Float(85.0)
            ],
            "two rows logged and divided; the row whose record was refused is untouched"
        );
        let image = cat.with_wal(|w| w.snapshot()).unwrap();
        let (recovered, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(image))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let rec: Vec<Vec<Value>> = recovered.table("Fk").unwrap().read().rows().collect();
        assert_eq!(rec, live, "what is readable is what recovery rebuilds");
    }

    #[test]
    fn validates_arguments() {
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        assert!(update_from(&cat, "Fk", &[], &fj, &[], None, &division_set(), &mut st).is_err());
        assert!(update_from(&cat, "Fk", &[0], &fj, &[0], None, &[], &mut st).is_err());
        assert!(update_from(
            &cat,
            "nope",
            &[0],
            &fj,
            &[0],
            None,
            &division_set(),
            &mut st
        )
        .is_err());
        let bad_set = vec![SetClause {
            target_col: 99,
            expr: Expr::lit(1),
        }];
        assert!(update_from(&cat, "Fk", &[0], &fj, &[0], None, &bad_set, &mut st).is_err());
    }
}
