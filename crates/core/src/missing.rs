//! Missing-row handling for vertical percentage queries (SIGMOD §3.1).
//!
//! "This happens when there are no rows for some subset of the grouping
//! columns based on the k−j BY columns" — a cube cell with no rows produces
//! no result row, though 0% would be expected (e.g. a store with no Monday
//! transactions). The paper offers two optional remedies:
//!
//! * **pre-processing** — insert the missing rows into `F` itself with a
//!   zero measure. Correct for measures, but it corrupts row-count
//!   percentages (`Vpct(1)`) — the paper says so, and a test pins it.
//! * **post-processing** — insert the missing rows into the result `FV`
//!   with 0% (or NULL when the group's total was zero/NULL).
//!
//! Both are defined for single-term queries, matching the paper's framing.

use crate::error::{CoreError, Result};
use crate::query::{Fact, Measure, VpctQuery};
use crate::vertical::QueryResult;
use pa_engine::{distinct, insert_into, ExecStats, ResourceGuard, RowKeyMap};
use pa_storage::{Catalog, Table, Value};

/// The user's choice for the missing-row issue. Optional by design: "the
/// user may not always want to insert missing rows".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingRows {
    /// Leave missing cells absent (the default).
    #[default]
    Ignore,
    /// Pad `F` before evaluation.
    PreProcess,
    /// Pad `FV` after evaluation.
    PostProcess,
}

fn single_term(q: &VpctQuery) -> Result<()> {
    if q.terms.len() != 1 {
        return Err(CoreError::Unsupported(
            "missing-row handling is defined for single-term percentage queries".into(),
        ));
    }
    Ok(())
}

/// Pre-processing: insert one zero-measure row into `F` for every
/// (existing `D1..Dj` group) × (existing `Dj+1..Dk` combination) with no
/// rows. `fact` is the live `F` (the pad is a write, so it runs ahead of
/// the statement's pin). Returns the number of rows inserted.
pub(crate) fn preprocess_pad(
    catalog: &Catalog,
    fact: &Fact,
    q: &VpctQuery,
    stats: &mut ExecStats,
) -> Result<u64> {
    q.validate()?;
    single_term(q)?;
    let term = &q.terms[0];
    let totals = q.totals_key(term);
    if totals.is_empty() || term.by.is_empty() {
        return Ok(0); // Global totals or no subgrouping: nothing can be missing.
    }

    let (j_keys, by_keys, existing, schema, j_cols, by_cols) = {
        let rows = fact.read();
        let f = rows.whole();
        let schema = f.schema().clone();
        let j_cols: Vec<usize> = totals
            .iter()
            .map(|n| schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        let by_cols: Vec<usize> = term
            .by
            .iter()
            .map(|n| schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        let (unguarded, config) = (ResourceGuard::unlimited(), fact.config());
        let mut keys = |cols: &[usize]| -> Result<Vec<Vec<Value>>> {
            let found = distinct(rows.selected(), cols, &unguarded, stats, &config)?;
            Ok(found.rows().collect())
        };
        let (j_keys, by_keys) = (keys(&j_cols)?, keys(&by_cols)?);
        let all_cols: Vec<usize> = j_cols.iter().chain(&by_cols).copied().collect();
        let mut existing = RowKeyMap::new();
        for row in 0..f.num_rows() {
            existing.get_or_insert_row(f, &all_cols, row, stats);
        }
        (j_keys, by_keys, existing, schema, j_cols, by_cols)
    };

    let measure_col = match &term.measure {
        Measure::Column(name) => Some(schema.index_of(name)?),
        _ => None,
    };

    let mut pad = Table::empty(schema.clone());
    let mut probe: Vec<Value> = Vec::new();
    for j in &j_keys {
        for b in &by_keys {
            probe.clear();
            probe.extend(j.iter().cloned());
            probe.extend(b.iter().cloned());
            if existing.lookup_key(&probe, stats).is_some() {
                continue;
            }
            let mut row: Vec<Value> = vec![Value::Null; schema.len()];
            for (c, v) in j_cols.iter().zip(j) {
                row[*c] = v.clone();
            }
            for (c, v) in by_cols.iter().zip(b) {
                row[*c] = v.clone();
            }
            if let Some(mc) = measure_col {
                row[mc] = Value::Int(0);
            }
            pad.push_row(&row)?;
        }
    }
    let inserted = pad.num_rows() as u64;
    if inserted > 0 {
        insert_into(catalog, &q.table, &pad, stats)?;
    }
    Ok(inserted)
}

/// Post-processing: append one row per missing (group × combination) to the
/// already-computed `FV` with a 0% percentage — or NULL when every existing
/// percentage of that group is NULL (zero/NULL group total). Extra
/// aggregate columns of padded rows are NULL. `FV` is the result's own
/// value, so the pad is counted in its stats and logged nowhere. Returns
/// rows appended.
pub(crate) fn postprocess_pad(
    fact: &Fact,
    q: &VpctQuery,
    result: &mut QueryResult,
    guard: &ResourceGuard,
) -> Result<u64> {
    let QueryResult { table, stats, .. } = result;
    q.validate()?;
    single_term(q)?;
    let term = &q.terms[0];
    let totals = q.totals_key(term);
    if totals.is_empty() || term.by.is_empty() {
        return Ok(0);
    }

    // Distinct Dj+1..Dk combinations come from F (the paper: "this requires
    // getting all distinct combinations ... from F").
    let by_keys = {
        let f = fact.read();
        let by_cols: Vec<usize> = term
            .by
            .iter()
            .map(|n| f.schema().index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        distinct(f.selected(), &by_cols, guard, stats, &fact.config())?
            .rows()
            .collect::<Vec<_>>()
    };

    let fv = table.read();
    let fv_schema = fv.schema().clone();
    let j_cols: Vec<usize> = totals
        .iter()
        .map(|n| fv_schema.index_of(n).map_err(CoreError::from))
        .collect::<Result<Vec<_>>>()?;
    let by_cols: Vec<usize> = term
        .by
        .iter()
        .map(|n| fv_schema.index_of(n).map_err(CoreError::from))
        .collect::<Result<Vec<_>>>()?;
    let pct_col = fv_schema.index_of(&term.name)?;

    // Existing (group, combo) pairs, plus per-group "has any non-NULL pct".
    let all_cols: Vec<usize> = j_cols.iter().chain(&by_cols).copied().collect();
    let mut existing = RowKeyMap::new();
    let mut groups = RowKeyMap::new();
    let mut group_has_value: Vec<bool> = Vec::new();
    for row in 0..fv.num_rows() {
        existing.get_or_insert_row(&fv, &all_cols, row, stats);
        let g = groups.get_or_insert_row(&fv, &j_cols, row, stats);
        if g == group_has_value.len() {
            group_has_value.push(false);
        }
        if !fv.get(row, pct_col).is_null() {
            group_has_value[g] = true;
        }
    }

    let mut pad = Table::empty(fv_schema.clone());
    let mut probe: Vec<Value> = Vec::new();
    for (g, key) in groups.keys().iter().enumerate() {
        let j = key.clone();
        for b in &by_keys {
            probe.clear();
            probe.extend(j.iter().cloned());
            probe.extend(b.iter().cloned());
            if existing.lookup_key(&probe, stats).is_some() {
                continue;
            }
            let mut row: Vec<Value> = vec![Value::Null; fv_schema.len()];
            for (c, v) in j_cols.iter().zip(&j) {
                row[*c] = v.clone();
            }
            for (c, v) in by_cols.iter().zip(b) {
                row[*c] = v.clone();
            }
            row[pct_col] = if group_has_value[g] {
                Value::Float(0.0)
            } else {
                Value::Null
            };
            pad.push_row(&row)?;
        }
    }
    drop(fv);

    let appended = pad.num_rows() as u64;
    if appended > 0 {
        table.write().extend_from(&pad)?;
        stats.rows_materialized += appended;
        stats.statements += 1;
    }
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::VpctStrategy;
    use crate::vertical::eval_vpct;
    use pa_storage::{DataType, Schema};

    /// Stores × days with a hole: store 4 has no Monday rows.
    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d, a) in [(2, "Mon", 100.0), (2, "Tue", 300.0), (4, "Tue", 800.0)] {
            t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
                .unwrap();
        }
        catalog.create_table("sales", t).unwrap();
        catalog
    }

    /// [`preprocess_pad`] over the table as it stands.
    fn pad_live(catalog: &Catalog, q: &VpctQuery, stats: &mut ExecStats) -> Result<u64> {
        preprocess_pad(catalog, &Fact::named(catalog, &q.table)?, q, stats)
    }

    fn q() -> VpctQuery {
        VpctQuery::single("sales", &["store", "dweek"], "amt", &["dweek"])
    }

    #[test]
    fn ignore_leaves_hole() {
        let catalog = catalog();
        let result = eval_vpct(&catalog, &q(), &VpctStrategy::best(), "i_").unwrap();
        assert_eq!(result.snapshot().num_rows(), 3, "store 4 Monday missing");
    }

    #[test]
    fn postprocess_appends_zero_percent_rows() {
        let catalog = catalog();
        let mut result = eval_vpct(&catalog, &q(), &VpctStrategy::best(), "p_").unwrap();
        let fact = Fact::named(&catalog, "sales").unwrap();
        let added = postprocess_pad(&fact, &q(), &mut result, &ResourceGuard::unlimited()).unwrap();
        assert_eq!(added, 1);
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.num_rows(), 4);
        // store 4, Mon → 0%.
        assert_eq!(t.get(2, 0), Value::Int(4));
        assert_eq!(t.get(2, 1), Value::str("Mon"));
        assert_eq!(t.get(2, 2), Value::Float(0.0));
        // store 4, Tue untouched: 100%.
        assert_eq!(t.get(3, 2), Value::Float(1.0));
    }

    /// Regression: the pad used to be logged under the literal name `"FV"`,
    /// whatever the result was called — replay then skipped a record that
    /// referred to no table, or appended the pad rows to a user table that
    /// happened to carry that name.
    #[test]
    fn postprocess_pad_logs_nothing_and_spares_a_user_table_named_fv() {
        use pa_storage::MemLogStore;
        let catalog = catalog();
        let schema = Schema::from_pairs(&[("store", DataType::Int), ("note", DataType::Str)])
            .unwrap()
            .into_shared();
        let mut user = Table::empty(schema);
        user.push_row(&[Value::Int(2), Value::str("mine")]).unwrap();
        catalog.create_table("FV", user).unwrap();
        let records_before = catalog.wal_stats().records;

        let engine = crate::PercentageEngine::new(&catalog);
        let padded = engine
            .vpct_with_missing(&q(), &VpctStrategy::best(), MissingRows::PostProcess)
            .unwrap();
        assert_eq!(padded.snapshot().num_rows(), 4, "store 4 Monday padded");
        assert_eq!(catalog.wal_stats().records, records_before);

        let bytes = catalog.with_wal(|w| w.snapshot().unwrap_or_default());
        let (recovered, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(bytes))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records_skipped, 0);
        assert_eq!(recovered.table_names(), catalog.table_names());
        for name in ["FV", "sales"] {
            let (a, b) = (catalog.table(name).unwrap(), recovered.table(name).unwrap());
            let (a, b) = (a.read(), b.read());
            assert_eq!(a.schema(), b.schema(), "{name}");
            assert_eq!(
                a.rows().collect::<Vec<_>>(),
                b.rows().collect::<Vec<_>>(),
                "{name}"
            );
        }
    }

    #[test]
    fn postprocess_null_group_pads_null() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("d", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::str("x"), Value::Float(2.0)])
            .unwrap();
        t.push_row(&[Value::Int(2), Value::str("y"), Value::Null])
            .unwrap();
        catalog.create_table("f", t).unwrap();
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        let mut result = eval_vpct(&catalog, &q, &VpctStrategy::best(), "n_").unwrap();
        let fact = Fact::named(&catalog, "f").unwrap();
        postprocess_pad(&fact, &q, &mut result, &ResourceGuard::unlimited()).unwrap();
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.num_rows(), 4);
        // Group 1 has a real total → its padded "y" cell is 0%.
        assert_eq!(t.get(1, 2), Value::Float(0.0));
        // Group 2's total is NULL → its padded "x" cell is NULL.
        assert_eq!(t.get(2, 2), Value::Null);
    }

    #[test]
    fn preprocess_pads_fact_table_and_fixes_measures() {
        let catalog = catalog();
        let mut stats = ExecStats::default();
        let added = pad_live(&catalog, &q(), &mut stats).unwrap();
        assert_eq!(added, 1);
        assert_eq!(catalog.table("sales").unwrap().read().num_rows(), 4);
        let result = eval_vpct(&catalog, &q(), &VpctStrategy::best(), "pre_").unwrap();
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.get(2, 2), Value::Float(0.0), "store 4 Monday now 0%");
    }

    #[test]
    fn preprocess_corrupts_row_count_percentages_as_paper_warns() {
        // The paper: padding "causes F to produce an incorrect row count %
        // using Vpct(1)". Verify the caveat is real.
        let catalog = catalog();
        pad_live(&catalog, &q(), &mut ExecStats::default()).unwrap();
        let count_q =
            VpctQuery::single("sales", &["store", "dweek"], Measure::LitInt(1), &["dweek"]);
        let result = eval_vpct(&catalog, &count_q, &VpctStrategy::best(), "c_").unwrap();
        let t = result.snapshot().sorted_by(&[0, 1]);
        // Store 4 truly has 1 transaction (Tue) → true Tue share is 100%,
        // but the padded Monday row drags it to 50%.
        assert_eq!(t.get(3, 0), Value::Int(4));
        assert_eq!(t.get(3, 2), Value::Float(0.5));
    }

    #[test]
    fn handlers_reject_multi_term_queries() {
        let catalog = catalog();
        let mut q2 = q();
        q2.terms
            .push(crate::query::VpctTerm::new("amt", &["dweek"]));
        q2.terms[1].name = "second".into();
        assert!(matches!(
            pad_live(&catalog, &q2, &mut ExecStats::default()),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn nothing_to_do_for_global_totals() {
        let catalog = catalog();
        let q = VpctQuery::single("sales", &["store"], "amt", &[]);
        assert_eq!(
            pad_live(&catalog, &q, &mut ExecStats::default()).unwrap(),
            0
        );
    }
}
