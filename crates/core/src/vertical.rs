//! Vertical percentage evaluation (SIGMOD §3.1).
//!
//! For `SELECT D1..Dk, Vpct(A BY Dj+1..Dk), .. FROM F GROUP BY D1..Dk` the
//! plan is the paper's multi-statement scheme:
//!
//! 1. `Fk` — `INSERT INTO Fk SELECT D1..Dk, sum(A) FROM F GROUP BY D1..Dk`
//!    (the finest level, only computable from `F`).
//! 2. `Fj` — per term, `SELECT D1..Dj, sum(A) FROM {Fk|F} GROUP BY D1..Dj`
//!    (`sum` is distributive, so `Fk` is a valid source — the paper's key
//!    optimization).
//! 3. `FV` — divide: either `INSERT INTO FV SELECT .., CASE WHEN Fj.A <> 0
//!    THEN Fk.A/Fj.A ELSE NULL END FROM Fj, Fk WHERE ..` or
//!    `UPDATE Fk SET A = ..` in place.
//!
//! The `WHERE` of step 3 matches each `Fk` row with the `Fj` row it
//! projects onto. With the subkey index (`VpctStrategy::subkey_index`, what
//! the optimizer runs) an INSERT plan does not search for that row: the
//! scan that grouped `Fk` hands over `parent`, each group's row at the
//! coarser key, `Fj` from `Fk` is a fold of `Fk`'s sums through it and the
//! percentage one [`divide`] along it (DESIGN.md "a percentage is a measure
//! looked up through `parent`"). The paper's other plans differ only in who
//! builds `parent`: without the index a [`lookup`] of `Fk` in a transient
//! hash table on `Fj`, and the UPDATE plan the same lookup in the index it
//! creates on `Fj` (or a transient one), then [`update_from`] in place.
//!
//! Work is accounted per operator. The generated SQL of a plan is
//! `EXPLAIN`'s to render ([`crate::codegen`]); executing one renders none.

use crate::error::{CoreError, Result};
use crate::query::{ExtraAgg, Fact, VpctQuery};
use crate::strategy::{FjSource, Materialization, VpctStrategy};
use pa_engine::{
    aggregate_level, aggregate_projecting, divide, lookup, update_from, AggFunc, AggSpec,
    ExecStats, Expr, Parent, ResourceGuard, Selected,
};
use pa_storage::{
    Bitmap, Catalog, Change, Column, DataType, Field, HashIndex, Schema, SharedTable, Table,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Result of evaluating a percentage query.
#[derive(Debug)]
pub struct QueryResult {
    /// The result table (`FV` or `FH`): a value this result owns. No
    /// catalog name refers to it.
    pub table: SharedTable,
    /// Work counters accumulated across all statements of the plan.
    pub stats: ExecStats,
}

impl QueryResult {
    /// Owned copy of the result table (tests / display).
    pub fn snapshot(&self) -> Table {
        self.table.read().clone()
    }
}

/// Wrap a finished result as the handle its `QueryResult` /
/// `HorizontalResult` owns.
pub(crate) fn into_shared(t: Table) -> SharedTable {
    Arc::new(parking_lot::RwLock::new(t))
}

/// Account one `INSERT INTO <temporary> SELECT ..` of the paper's script:
/// the statement and its rows are counted (Tables 4–6 compare those
/// counts), the rows stay the value the evaluator already holds.
pub(crate) fn count_insert(t: &Table, stats: &mut ExecStats) {
    stats.statements += 1;
    stats.rows_materialized += t.num_rows() as u64;
}

pub(crate) fn extra_spec(extra: &ExtraAgg, schema: &pa_storage::Schema) -> Result<AggSpec> {
    let input = match (&extra.func, &extra.measure) {
        (AggFunc::CountStar, _) => Expr::lit(1),
        (_, Some(m)) => m.to_expr(schema)?,
        (f, None) => {
            return Err(CoreError::InvalidQuery(format!(
                "{} requires a measure",
                f.sql_name()
            )));
        }
    };
    Ok(AggSpec::new(extra.func, input, extra.name.clone()))
}

/// Evaluate a vertical percentage query with an explicit strategy.
///
/// `Fk`, `Fj` and `FV` are values of the evaluation; `prefix` names only
/// the stored `Fk` of the [`Materialization::Update`] plan, for as long as
/// that plan runs.
pub fn eval_vpct(
    catalog: &Catalog,
    q: &VpctQuery,
    strat: &VpctStrategy,
    prefix: &str,
) -> Result<QueryResult> {
    let fact = Fact::named(catalog, &q.table)?;
    let guard = ResourceGuard::unlimited();
    eval_vpct_on(catalog, &fact, q, strat, prefix, &guard)
}

/// [`eval_vpct`] over an already resolved fact table, under a
/// [`ResourceGuard`]: the plan's aggregation scans, join probes and
/// materialized rows are charged against the guard, so an over-budget plan
/// fails with [`CoreError::BudgetExceeded`] instead of exhausting memory.
pub(crate) fn eval_vpct_on(
    catalog: &Catalog,
    fact: &Fact,
    q: &VpctQuery,
    strat: &VpctStrategy,
    prefix: &str,
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    q.validate()?;
    let mut stats = ExecStats::default();

    let f = fact.read();
    let f_schema = f.schema().clone();
    let config = fact.config();
    let level = |input: Selected<'_>, cols: &[usize], specs: &[AggSpec], stats: &mut _| {
        aggregate_level(input, cols, specs, guard, stats, &config)
    };

    // Resolve GROUP BY columns.
    let unknown = |n: &String| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}"));
    let k_cols: Vec<usize> = (q.group_by.iter())
        .map(|n| f_schema.index_of(n).map_err(|_| unknown(n)))
        .collect::<Result<_>>()?;
    let k_len = k_cols.len();

    // Fk aggregate list: one sum per term (named for the final output), then
    // the extra aggregates.
    let mut fk_specs: Vec<AggSpec> = Vec::with_capacity(q.terms.len() + q.extra.len());
    for term in &q.terms {
        let measure = term.measure.to_expr(&f_schema)?;
        fk_specs.push(AggSpec::new(AggFunc::Sum, measure, term.name.clone()));
    }
    for extra in &q.extra {
        fk_specs.push(extra_spec(extra, &f_schema)?);
    }

    // Totals key per term, as positions in Fk's key (the rank in
    // `q.group_by` of each column the term does not break down BY) and as
    // F column indices.
    let fk_pos_of = |name: &String| {
        let at = q.group_by.iter().position(|g| g.eq_ignore_ascii_case(name));
        at.expect("totals key comes from group_by")
    };
    let totals_fk_cols: Vec<Vec<usize>> = (q.terms.iter())
        .map(|t| q.totals_key(t).iter().map(fk_pos_of).collect())
        .collect();
    let in_f = |fk_cols: &[usize]| fk_cols.iter().map(|&p| k_cols[p]).collect::<Vec<usize>>();

    // With the subkey index an INSERT plan divides through `parent` — each
    // `Fk` row's row in `Fj`, which the scan of `F` already knows — where
    // the paper probes a hash index on the common subkey `D1..Dj`.
    let direct = strat.subkey_index && strat.materialization == Materialization::Insert;
    let coarser: &[Vec<usize>] = if direct { &totals_fk_cols } else { &[] };

    // ---- Step 1 (+ optionally step 2): aggregate.
    let total_spec = |t: usize| -> Result<AggSpec> {
        let measure = q.terms[t].measure.to_expr(&f_schema)?;
        Ok(AggSpec::new(AggFunc::Sum, measure, "total"))
    };
    let mut levels: Vec<(Vec<usize>, Vec<AggSpec>)> = vec![(k_cols.clone(), fk_specs.clone())];
    if strat.synchronized_scan && strat.fj_source == FjSource::FromF {
        // One synchronized scan computing Fk and every Fj.
        for (t, cols) in totals_fk_cols.iter().enumerate() {
            levels.push((in_f(cols), vec![total_spec(t)?]));
        }
    }
    let (mut fj_tables, parents) =
        aggregate_projecting(f.selected(), &levels, coarser, guard, &mut stats, &config)?;
    let fk_table = fj_tables.remove(0);

    // ---- Step 2: totals per term (unless the synchronized scan made them,
    // or the divide folds them from Fk through `parent` as it goes).
    let from_fk = strat.fj_source == FjSource::FromFk;
    if fj_tables.is_empty() && !(direct && from_fk) {
        for (t, cols) in totals_fk_cols.iter().enumerate() {
            let fj = if from_fk {
                // Re-aggregate the partial sums (distributive).
                let spec = AggSpec::new(AggFunc::Sum, Expr::Col(k_len + t), "total");
                level((&fk_table).into(), cols, &[spec], &mut stats)?
            } else {
                level(f.selected(), &in_f(cols), &[total_spec(t)?], &mut stats)?
            };
            fj_tables.push(fj);
        }
    }
    drop(f);
    for fj in &fj_tables {
        count_insert(fj, &mut stats);
    }

    // ---- Step 3: divide.
    match strat.materialization {
        Materialization::Insert => {
            count_insert(&fk_table, &mut stats);
            // Without the subkey index each term's `parent` is a join.
            let parents: Vec<Parent> = match direct {
                true => parents,
                false => (fj_tables.iter().zip(&totals_fk_cols))
                    .map(|(fj, keys)| {
                        let rows = parent_of(&fk_table, keys, fj, false, guard, &mut stats)?;
                        Ok(Parent {
                            rows,
                            groups: fj.num_rows(),
                        })
                    })
                    .collect::<Result<_>>()?,
            };
            let n = fk_table.num_rows();
            let names = (q.group_by.iter())
                .chain(q.terms.iter().map(|t| &t.name))
                .chain(q.extra.iter().map(|e| &e.name));
            let fields: Vec<Field> = (names.zip(fk_table.schema().fields()))
                .map(|(name, f)| Field::new(name.clone(), f.dtype))
                .collect();
            // FV is Fk with each term's sum looked up through `parent`.
            let mut span = guard.span("divide");
            let mut columns = fk_table.into_columns();
            for (t, parent) in parents.iter().enumerate() {
                let folded;
                let sums = &columns[k_len + t];
                let totals = match fj_tables.get(t) {
                    Some(fj) => fj.columns().last().expect("Fj ends in its total"),
                    None => {
                        folded = totals_through(sums, parent, guard, &mut span, &mut stats)?;
                        &folded
                    }
                };
                guard.charge(n as u64)?;
                span.add_rows(n as u64);
                span.add_morsels(1);
                let mut pct = Column::with_capacity(DataType::Float, n);
                percentage(sums, totals, &parent.rows, &mut pct, &mut stats);
                columns[k_len + t] = pct;
            }
            drop(span);
            let fv = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?;
            count_insert(&fv, &mut stats);
            Ok(QueryResult {
                table: into_shared(fv),
                stats,
            })
        }
        Materialization::Update => {
            // UPDATE Fk in place, term by term; FV = Fk. This is the one
            // plan that stores a table: a logged UPDATE needs a target the
            // log can name.
            let fk = StoredFk::create(catalog, prefix, fk_table, &mut stats)?;
            for (t, (fj, keys)) in fj_tables.iter().zip(&totals_fk_cols).enumerate() {
                let parent = {
                    let stored = fk.table.read();
                    parent_of(&stored, keys, fj, strat.subkey_index, guard, &mut stats)?
                };
                let total = fj.columns().last().expect("Fj ends in its total");
                update_from(
                    catalog,
                    &fk.name,
                    k_len + t,
                    total,
                    &parent,
                    guard,
                    &mut stats,
                )?;
            }
            Ok(QueryResult {
                table: Arc::clone(&fk.table),
                stats,
            })
        }
    }
}

/// `Fk`'s `parent` onto `fj` when the scan did not hand it over: the row of
/// `fj` holding each `Fk` row's `keys`, one [`lookup`] in a hash index on
/// `fj`'s key — the `CREATE INDEX` on the subkey `Fj` shares with `Fk` when
/// `create_index`, a transient build otherwise. A global total (no keys) is
/// the one row of `fj`, with no join.
fn parent_of(
    fk: &Table,
    keys: &[usize],
    fj: &Table,
    create_index: bool,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Vec<u32>> {
    if keys.is_empty() {
        return Ok(vec![0; fk.num_rows()]);
    }
    let index = HashIndex::build(fj, &(0..keys.len()).collect::<Vec<_>>())?;
    stats.statements += u64::from(create_index);
    let index = match create_index {
        true => Cow::Borrowed(&index),
        false => Cow::Owned(index),
    };
    Ok(lookup(fk, keys, index, false, guard, stats)?)
}

/// One percentage column — a measure looked up through `parent`: each
/// group's sum over the total of the coarser group it projects onto
/// ([`divide`]), appended to `out`. Counted as the statement it replaces,
/// `INSERT .. SELECT CASE WHEN total <> 0 THEN sum / total END`: both
/// levels read, one condition per group.
pub(crate) fn percentage(
    sums: &Column,
    totals: &Column,
    parent: &[u32],
    out: &mut Column,
    stats: &mut ExecStats,
) {
    stats.statements += 1;
    stats.rows_scanned += (sums.len() + totals.len()) as u64;
    stats.case_condition_evals += sums.len() as u64;
    divide(sums, totals, Some(parent), out);
}

/// `Fj` from `Fk` with no scan: every coarser group's total is its groups'
/// sums folded through `parent` in `Fk` row order (a NULL sum skipped, a
/// total nothing fed NULL) — the total column of `INSERT INTO Fj SELECT
/// D1..Dj, sum(A) FROM Fk GROUP BY D1..Dj`, charged and counted as that
/// statement, without the key columns the divide never reads.
fn totals_through(
    sums: &Column,
    parent: &Parent,
    guard: &ResourceGuard,
    span: &mut pa_engine::SpanHandle,
    stats: &mut ExecStats,
) -> Result<Column> {
    let read = (sums.len() + parent.groups) as u64;
    guard.charge(read)?;
    span.add_rows(read);
    stats.statements += 2;
    stats.rows_scanned += sums.len() as u64;
    stats.rows_materialized += 2 * parent.groups as u64;
    let mut data = vec![0.0; parent.groups];
    let mut validity = Bitmap::filled(parent.groups, false);
    for (row, &p) in parent.rows.iter().enumerate() {
        if let Some(sum) = sums.get_f64(row) {
            data[p as usize] += sum;
            validity.set(p as usize, true);
        }
    }
    for (total, fed) in data.iter_mut().zip(validity.iter()) {
        *total = if fed { *total } else { f64::NAN };
    }
    Ok(Column::Float { data, validity })
}

/// The `Fk` of the Update plan while it is registered in the catalog; the
/// name is dropped with this guard, on every exit path. The result keeps
/// the rows through its own handle.
struct StoredFk<'c> {
    catalog: &'c Catalog,
    name: String,
    table: SharedTable,
}

impl<'c> StoredFk<'c> {
    /// `INSERT INTO Fk`: register `fk` under the first free name
    /// `{prefix}Fk0`, `{prefix}Fk1`, .. — concurrent Update plans share the
    /// catalog — and log it like any bulk insert.
    fn create(
        catalog: &'c Catalog,
        prefix: &str,
        fk: Table,
        stats: &mut ExecStats,
    ) -> Result<StoredFk<'c>> {
        count_insert(&fk, stats);
        let table: SharedTable = into_shared(fk);
        let (name, logged) = (0u64..)
            .map(|i| format!("{prefix}Fk{i}"))
            .find_map(|name| {
                let change = Change::Create {
                    table: Arc::clone(&table),
                    replace: false,
                };
                match catalog.write(&name, change) {
                    Err(pa_storage::StorageError::TableExists(_)) => None,
                    created => Some(created.map(|logged| (name, logged))),
                }
            })
            .expect("an unbounded range of names")?;
        stats.wal_records += logged.records;
        stats.wal_bytes += logged.bytes;
        Ok(StoredFk {
            catalog,
            name,
            table,
        })
    }
}

impl Drop for StoredFk<'_> {
    fn drop(&mut self) {
        // Already gone only if someone dropped it by name meanwhile.
        let _ = self.catalog.drop_table(&self.name);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::Measure;
    use pa_storage::{DataType, Schema, Value};

    /// The paper's Table 1.
    pub(crate) fn sales_catalog() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("RID", DataType::Int),
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("salesAmt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (rid, s, c, a) in [
            (1, "CA", "San Francisco", 13.0),
            (2, "CA", "San Francisco", 3.0),
            (3, "CA", "San Francisco", 67.0),
            (4, "CA", "Los Angeles", 23.0),
            (5, "TX", "Houston", 5.0),
            (6, "TX", "Houston", 35.0),
            (7, "TX", "Houston", 10.0),
            (8, "TX", "Houston", 14.0),
            (9, "TX", "Dallas", 53.0),
            (10, "TX", "Dallas", 32.0),
        ] {
            t.push_row(&[
                Value::Int(rid),
                Value::str(s),
                Value::str(c),
                Value::Float(a),
            ])
            .unwrap();
        }
        catalog.create_table("sales", t).unwrap();
        catalog
    }

    fn paper_query() -> VpctQuery {
        VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"])
    }

    fn expected_table2() -> Vec<(String, String, f64)> {
        vec![
            ("CA".into(), "Los Angeles".into(), 23.0 / 106.0),
            ("CA".into(), "San Francisco".into(), 83.0 / 106.0),
            ("TX".into(), "Dallas".into(), 85.0 / 149.0),
            ("TX".into(), "Houston".into(), 64.0 / 149.0),
        ]
    }

    fn check_result(result: &QueryResult) {
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.num_rows(), 4);
        for (row, (state, city, pct)) in expected_table2().iter().enumerate() {
            assert_eq!(t.get(row, 0), Value::str(state));
            assert_eq!(t.get(row, 1), Value::str(city));
            match t.get(row, 2) {
                Value::Float(p) => assert!((p - pct).abs() < 1e-12, "row {row}: {p} vs {pct}"),
                other => panic!("expected float, got {other}"),
            }
        }
    }

    #[test]
    fn paper_table2_best_strategy() {
        let catalog = sales_catalog();
        let result = eval_vpct(&catalog, &paper_query(), &VpctStrategy::best(), "t_").unwrap();
        check_result(&result);
        // EXPLAIN renders the plan's script; running it renders none.
        let script = crate::codegen::vpct_statements(&paper_query(), &VpctStrategy::best(), None);
        assert!(!script.is_empty());
        // Fk, Fj and FV are held as values: nothing is registered or logged.
        assert_eq!(catalog.table_names(), ["sales"]);
        assert_eq!(result.stats.wal_records, 0);
    }

    #[test]
    fn all_strategies_agree() {
        let strategies = [
            VpctStrategy::best(),
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy::synchronized(),
            VpctStrategy {
                fj_source: FjSource::FromF,
                materialization: Materialization::Update,
                subkey_index: false,
                synchronized_scan: false,
            },
        ];
        for (i, strat) in strategies.iter().enumerate() {
            let catalog = sales_catalog();
            let result = eval_vpct(&catalog, &paper_query(), strat, "t_")
                .unwrap_or_else(|e| panic!("strategy {i}: {e}"));
            check_result(&result);
        }
    }

    #[test]
    fn update_strategy_pays_per_row_wal_records() {
        let catalog = sales_catalog();
        let ins = eval_vpct(&catalog, &paper_query(), &VpctStrategy::best(), "a_").unwrap();
        let upd = eval_vpct(&catalog, &paper_query(), &VpctStrategy::with_update(), "b_").unwrap();
        assert!(upd.stats.rows_updated > 0);
        assert!(
            upd.stats.wal_records > ins.stats.wal_records,
            "per-row update logging exceeds bulk insert logging: {} vs {}",
            upd.stats.wal_records,
            ins.stats.wal_records
        );
    }

    #[test]
    fn fj_from_fk_scans_f_once() {
        let catalog = sales_catalog();
        let from_fk = eval_vpct(&catalog, &paper_query(), &VpctStrategy::best(), "a_").unwrap();
        let from_f = eval_vpct(&catalog, &paper_query(), &VpctStrategy::fj_from_f(), "b_").unwrap();
        // From-Fk reads F once (10 rows) + Fk (4); from-F reads F twice.
        assert!(
            from_fk.stats.rows_scanned < from_f.stats.rows_scanned,
            "{} vs {}",
            from_fk.stats.rows_scanned,
            from_f.stats.rows_scanned
        );
    }

    #[test]
    fn empty_by_means_global_totals() {
        // Vpct(salesAmt) with GROUP BY state: share of the 255 grand total.
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        for strat in [VpctStrategy::best(), VpctStrategy::with_update()] {
            let result = eval_vpct(&catalog, &q, &strat, "g_").unwrap();
            let t = result.snapshot().sorted_by(&[0]);
            assert_eq!(t.get(0, 1), Value::Float(106.0 / 255.0));
            assert_eq!(t.get(1, 1), Value::Float(149.0 / 255.0));
        }
    }

    #[test]
    fn extra_aggregates_ride_along() {
        let catalog = sales_catalog();
        let mut q = paper_query();
        q.extra.push(ExtraAgg::sum("salesAmt", "total_sales"));
        q.extra.push(ExtraAgg::count_star("n"));
        let result = eval_vpct(&catalog, &q, &VpctStrategy::best(), "x_").unwrap();
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.num_columns(), 5);
        assert_eq!(t.schema().index_of("total_sales").unwrap(), 3);
        assert_eq!(t.get(0, 3), Value::Float(23.0)); // CA/LA sum
        assert_eq!(t.get(1, 4), Value::Int(3)); // CA/SF count
    }

    #[test]
    fn multiple_terms_with_different_by_lists() {
        // Rule 4: Vpct(A BY city) and Vpct(A BY state, city) in one query.
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                crate::query::VpctTerm::new("salesAmt", &["city"]),
                crate::query::VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        for strat in [VpctStrategy::best(), VpctStrategy::with_update()] {
            let result = eval_vpct(&catalog, &q, &strat, "m_").unwrap();
            let t = result.snapshot().sorted_by(&[0, 1]);
            // Term 1: city within state (Table 2 values).
            assert_eq!(t.get(0, 2), Value::Float(23.0 / 106.0));
            // Term 2: BY = GROUP BY → global totals.
            assert_eq!(t.get(0, 3), Value::Float(23.0 / 255.0));
        }
    }

    #[test]
    fn vpct_of_literal_counts_rows() {
        // Vpct(1 BY city): share of row counts.
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state", "city"], Measure::LitInt(1), &["city"]);
        let result = eval_vpct(&catalog, &q, &VpctStrategy::best(), "c_").unwrap();
        let t = result.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Float(1.0 / 4.0)); // LA: 1 of 4 CA rows
        assert_eq!(t.get(3, 2), Value::Float(4.0 / 6.0)); // Houston: 4 of 6 TX rows
    }

    #[test]
    fn null_measures_and_zero_totals() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Str),
            ("d", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        // Group "z" sums to zero → NULL percentages.
        t.push_row(&[Value::str("z"), Value::str("p"), Value::Float(5.0)])
            .unwrap();
        t.push_row(&[Value::str("z"), Value::str("q"), Value::Float(-5.0)])
            .unwrap();
        // Group "n" has only NULL measures → NULL total → NULL percentages.
        t.push_row(&[Value::str("n"), Value::str("p"), Value::Null])
            .unwrap();
        catalog.create_table("f", t).unwrap();
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        for strat in [VpctStrategy::best(), VpctStrategy::with_update()] {
            let result = eval_vpct(&catalog, &q, &strat, "z_").unwrap();
            let t = result.snapshot().sorted_by(&[0, 1]);
            assert_eq!(t.get(0, 2), Value::Null, "NULL total");
            assert_eq!(t.get(1, 2), Value::Null, "zero total");
            assert_eq!(t.get(2, 2), Value::Null, "zero total");
        }
    }

    #[test]
    fn by_equals_group_by_gives_global_share() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state"], "salesAmt", &["state"]);
        let result = eval_vpct(&catalog, &q, &VpctStrategy::best(), "e_").unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(0, 1), Value::Float(106.0 / 255.0));
    }

    #[test]
    fn unknown_columns_rejected() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["nope"], "salesAmt", &[]);
        assert!(eval_vpct(&catalog, &q, &VpctStrategy::best(), "u_").is_err());
        let q = VpctQuery::single("sales", &["state"], "missing", &[]);
        assert!(eval_vpct(&catalog, &q, &VpctStrategy::best(), "u_").is_err());
    }

    #[test]
    fn group_percentages_sum_to_one() {
        let catalog = sales_catalog();
        let result = eval_vpct(&catalog, &paper_query(), &VpctStrategy::best(), "s_").unwrap();
        let t = result.snapshot();
        let mut sums: std::collections::BTreeMap<String, f64> = Default::default();
        for i in 0..t.num_rows() {
            let state = t.get(i, 0).to_string();
            if let Value::Float(p) = t.get(i, 2) {
                *sums.entry(state).or_default() += p;
            }
        }
        for (state, s) in sums {
            assert!((s - 1.0).abs() < 1e-12, "{state}: {s}");
        }
    }
}
