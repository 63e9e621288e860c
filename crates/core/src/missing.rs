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
use pa_engine::{
    aggregate_level, distinct, insert_into, lookup, AggFunc, AggSpec, ExecStats, Expr,
    ResourceGuard,
};
use pa_storage::{Bitmap, Catalog, Column, HashIndex, Schema, Table, NONE};
use std::borrow::Cow;
use std::sync::Arc;

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

/// Positions of `names` in `schema`.
fn positions(schema: &Schema, names: &[String]) -> Result<Vec<usize>> {
    (names.iter())
        .map(|n| schema.index_of(n).map_err(CoreError::from))
        .collect()
}

/// Every (row of `groups`) × (row of `combos`) pair `existing` has no row
/// for, found by one [`lookup`] of their cross product and listed in that
/// nesting (each group's combinations in order): the pairs' key columns —
/// the first `j` columns of `groups`, then those of `combos` — and the
/// group of each pair.
fn missing_pairs(
    groups: &Table,
    j: usize,
    combos: &Table,
    existing: HashIndex,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<(Vec<Column>, Vec<usize>)> {
    let c = combos.num_rows();
    let group_rows: Vec<usize> = (0..groups.num_rows())
        .flat_map(|g| std::iter::repeat_n(g, c))
        .collect();
    let combo_rows: Vec<usize> = (0..group_rows.len()).map(|r| r % c).collect();
    let (group_keys, combo_keys) = (&groups.columns()[..j], combos.columns());
    let cross: Vec<Column> = (group_keys.iter().map(|key| key.take(&group_rows)))
        .chain(combo_keys.iter().map(|key| key.take(&combo_rows)))
        .collect();
    let fields = (groups.schema().fields()[..j].iter()).chain(combos.schema().fields());
    let cross = Table::from_columns(Schema::new(fields.cloned().collect())?.into_shared(), cross)?;
    let every: Vec<usize> = (0..cross.num_columns()).collect();
    let found = lookup(&cross, &every, Cow::Owned(existing), true, guard, stats)?;
    let missing: Vec<usize> = (0..found.len()).filter(|&r| found[r] == NONE).collect();
    let keys = (cross.columns().iter()).map(|key| key.take(&missing));
    Ok((
        keys.collect(),
        missing.iter().map(|&r| group_rows[r]).collect(),
    ))
}

/// Pad rows laid out like `schema`: `keys` at `key_cols`, the `fill`
/// column at its position, NULL elsewhere.
fn pad_table(
    schema: &Arc<Schema>,
    key_cols: &[usize],
    keys: Vec<Column>,
    fill: Option<(usize, Column)>,
) -> Result<Table> {
    let rows = keys.first().map_or(0, Column::len);
    let mut columns: Vec<Option<Column>> = vec![None; schema.len()];
    for (&c, key) in key_cols.iter().zip(keys) {
        columns[c] = Some(key);
    }
    if let Some((c, fill)) = fill {
        columns[c] = Some(fill);
    }
    let columns = (columns.into_iter().zip(schema.fields()))
        .map(|(col, field)| {
            col.unwrap_or_else(|| {
                let mut nulls = Column::with_capacity(field.dtype, rows);
                nulls.push_nulls(rows);
                nulls
            })
        })
        .collect();
    Ok(Table::from_columns(Arc::clone(schema), columns)?)
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

    let pad = {
        let rows = fact.read();
        let schema = rows.schema().clone();
        let j_cols = positions(&schema, &totals)?;
        let by_cols = positions(&schema, &term.by)?;
        let all_cols: Vec<usize> = j_cols.iter().chain(&by_cols).copied().collect();
        let (unguarded, config) = (ResourceGuard::unlimited(), fact.config());
        let mut keys = |cols: &[usize]| distinct(rows.selected(), cols, &unguarded, stats, &config);
        let (groups, combos, present) = (keys(&j_cols)?, keys(&by_cols)?, keys(&all_cols)?);
        let existing = HashIndex::build(&present, &(0..all_cols.len()).collect::<Vec<_>>())?;
        let (keys, group_of) =
            missing_pairs(&groups, j_cols.len(), &combos, existing, &unguarded, stats)?;
        // The measure reads 0 (a literal measure has no column to hold it).
        let zeros = match &term.measure {
            Measure::Column(name) => {
                let c = schema.index_of(name)?;
                let dtype = schema.field_at(c).dtype;
                let mut zeros = Column::new(dtype);
                zeros.push_nulls(group_of.len());
                Some((c, zeros.zero_nulls(dtype)?))
            }
            _ => None,
        };
        pad_table(&schema, &all_cols, keys, zeros)?
    };
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
    let config = fact.config();

    // Distinct Dj+1..Dk combinations come from F (the paper: "this requires
    // getting all distinct combinations ... from F").
    let combos = {
        let f = fact.read();
        let by_cols = positions(f.schema(), &term.by)?;
        distinct(f.selected(), &by_cols, guard, stats, &config)?
    };

    let fv = table.read();
    let fv_schema = fv.schema().clone();
    let j_cols = positions(&fv_schema, &totals)?;
    let by_cols = positions(&fv_schema, &term.by)?;
    let pct_col = fv_schema.index_of(&term.name)?;
    let all_cols: Vec<usize> = j_cols.iter().chain(&by_cols).copied().collect();

    // `FV`'s groups in order of appearance, each with its count of non-NULL
    // percentages: a group with none pads NULL.
    let count = AggSpec::new(AggFunc::Count, Expr::Col(pct_col), "n");
    let groups = aggregate_level((&*fv).into(), &j_cols, &[count], guard, stats, &config)?;
    let existing = HashIndex::build(&fv, &all_cols)?;
    let (keys, group_of) = missing_pairs(&groups, j_cols.len(), &combos, existing, guard, stats)?;
    let counted = groups.column(j_cols.len()).int_data().expect("a count");
    let valued: Bitmap = group_of.iter().map(|&g| counted[g] > 0).collect();
    let share = Column::Float {
        data: (valued.iter())
            .map(|v| if v { 0.0 } else { f64::NAN })
            .collect(),
        validity: valued,
    };
    let pad = pad_table(&fv_schema, &all_cols, keys, Some((pct_col, share)))?;
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
    use pa_storage::{DataType, Schema, Value};

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
