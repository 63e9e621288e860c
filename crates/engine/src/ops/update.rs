//! UPDATE .. FROM — in-place materialization through a `parent` vector.
//!
//! Implements the paper's second `FV` strategy:
//!
//! ```sql
//! UPDATE Fk SET A = CASE WHEN Fj.A <> 0 THEN Fk.A/Fj.A ELSE NULL END
//! WHERE Fk.D1 = Fj.D1 .. Fk.Dj = Fj.Dj;  /* FV = Fk */
//! ```
//!
//! The `WHERE` is the join [`lookup`](crate::lookup) answers — each `Fk`
//! row's row of `Fj`, its `parent` — and the `SET` is [`divide`]'s rule.
//! Every target row is still written individually: a before/after image to
//! the WAL, then the cell in place — one [`Catalog::write`] for the
//! statement, one log record per row. The per-row log records and random
//! writes are the mechanism behind Table 4's "UPDATE takes 80% of the time
//! when FV is comparable to F".

use crate::error::{EngineError, Result};
use crate::guard::ResourceGuard;
use crate::ops::divide::divide;
use crate::stats::ExecStats;
use pa_storage::{Catalog, Change, Column, DataType, Table, NONE};

/// Divide column `col` of table `target_name` in place: row `r` becomes
/// `col[r] / totals[parent[r]]` by [`divide`]'s rule (NULL for a NULL sum or
/// a NULL or zero total), and a row whose `parent` is [`NONE`] is left
/// untouched (SQL UPDATE..FROM semantics). `parent` has one entry per
/// target row. Charged and counted as the statement: the target scanned,
/// one condition and one logged row per row divided. Returns the number of
/// rows updated.
pub fn update_from(
    catalog: &Catalog,
    target_name: &str,
    col: usize,
    totals: &Column,
    parent: &[u32],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<u64> {
    let invalid = |msg: String| Err(EngineError::InvalidOperator(msg));
    let (rows, columns) = {
        let target = catalog.table(target_name)?;
        let target = target.read();
        (target.num_rows(), target.num_columns())
    };
    if col >= columns {
        return invalid(format!("set column {col} out of range"));
    }
    if parent.len() != rows {
        return invalid(format!("{} parent rows for {rows} rows", parent.len()));
    }
    if let Some(p) = parent
        .iter()
        .find(|&&p| p != NONE && p as usize >= totals.len())
    {
        return invalid(format!("parent row {p} of {} totals", totals.len()));
    }
    stats.statements += 1;
    stats.rows_scanned += rows as u64;
    guard.charge(rows as u64)?;
    let mut span = guard.span("update");
    span.add_rows(rows as u64);
    span.add_morsels(1);

    // The statement is one catalog write: `next` runs under the target's
    // write guard, divides the matched rows of the image it first sees, and
    // hands them over one at a time, which the catalog logs (before + after
    // images of the column), then overwrites.
    let matched: Vec<usize> = (0..rows).filter(|&r| parent[r] != NONE).collect();
    let mut quotients: Option<Column> = None;
    let mut next_row = matched.iter().enumerate();
    let next = &mut |target: &Table, after: &mut Vec<_>| {
        let quotients = quotients.get_or_insert_with(|| {
            let sums = target.column(col).take(&matched);
            let onto: Vec<u32> = matched.iter().map(|&r| parent[r]).collect();
            let mut out = Column::with_capacity(DataType::Float, matched.len());
            divide(&sums, totals, Some(&onto), &mut out);
            out
        });
        let (i, &row) = next_row.next()?;
        after.push(quotients.get(i));
        Some(row)
    };
    let logged = catalog.write(target_name, Change::Update { cols: &[col], next })?;
    let updated = matched.len() as u64;
    stats.case_condition_evals += updated;
    stats.rows_updated += updated;
    stats.wal_records += logged.records;
    stats.wal_bytes += logged.bytes;
    Ok(updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{HashIndex, Schema, Value};

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

    /// `SET A = Fk.A / Fj.A .. WHERE Fk.state = Fj.state`: `Fk.A` is
    /// column 2, each row's `Fj` row an outer lookup of its state.
    fn divide_by_state(cat: &Catalog, fj: &Table, st: &mut ExecStats) -> Result<u64> {
        let fk = cat.table("Fk")?.read().clone();
        let parent = HashIndex::build(fj, &[0])?.lookup(&fk, &[0], true)?;
        let guard = ResourceGuard::unlimited();
        update_from(cat, "Fk", 2, fj.column(1), &parent, &guard, st)
    }

    #[test]
    fn paper_update_division() {
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        let n = divide_by_state(&cat, &fj, &mut st).unwrap();
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
        divide_by_state(&cat, &fj, &mut st).unwrap();
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
        divide_by_state(&cat, &fj, &mut st).unwrap();
        let fk = cat.table("Fk").unwrap();
        let t = fk.read().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Null, "division by zero is NULL");
    }

    #[test]
    fn a_global_total_is_a_parent_of_zeros_and_charges_its_guard() {
        let (cat, _) = setup();
        let mut total = Column::new(DataType::Float);
        total.push(Value::Float(264.0)).unwrap();
        let (guard, mut st) = (ResourceGuard::counting(), ExecStats::default());
        let n = update_from(&cat, "Fk", 2, &total, &[0; 5], &guard, &mut st).unwrap();
        assert_eq!((n, st.rows_updated, st.wal_records), (5, 5, 5));
        assert_eq!(
            (st.statements, st.rows_scanned, st.case_condition_evals),
            (1, 5, 5)
        );
        assert_eq!((st.hash_probes, st.hash_build_rows), (0, 0));
        assert_eq!(guard.rows_charged(), 5);
        let t = cat.table("Fk").unwrap().read().sorted_by(&[0, 1]);
        assert_eq!(t.get(4, 2), Value::Float(64.0 / 264.0));
    }

    #[test]
    fn engine_logged_updates_replay_at_recovery() {
        // update_from logs only the SET-clause columns of the 3-column Fk;
        // recovery must land those images in the right column — not skip
        // them for not being full-row images.
        let (cat, fj) = setup();
        let mut st = ExecStats::default();
        divide_by_state(&cat, &fj, &mut st).unwrap();
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
        let err = divide_by_state(&cat, &fj, &mut st).unwrap_err();
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
        let (guard, mut st) = (ResourceGuard::unlimited(), ExecStats::default());
        let total = fj.column(1);
        let mut update = |name, col, parent: &[u32]| {
            update_from(&cat, name, col, total, parent, &guard, &mut st)
        };
        assert!(update("nope", 2, &[0; 5]).is_err());
        assert!(update("Fk", 99, &[0; 5]).is_err(), "column");
        assert!(update("Fk", 2, &[0; 4]).is_err(), "one parent row per row");
        assert!(update("Fk", 2, &[0, 0, 1, 1, 2]).is_err(), "no third total");
        assert!(update("Fk", 2, &[0, 0, 1, 1, NONE]).is_ok());
    }
}
