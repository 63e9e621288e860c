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
//! Work is accounted per operator, and the generated-SQL transcript is
//! attached to the result for inspection.

use crate::error::{CoreError, Result};
use crate::query::{ExtraAgg, VpctQuery};
use crate::strategy::{FjSource, Materialization, VpctStrategy};
use pa_engine::{
    create_table_as, hash_join_guarded, multi_hash_aggregate_guarded, update_from, AggFunc,
    AggSpec, ExecStats, Expr, JoinType, ProjSpec, ResourceGuard, SetClause,
};
use pa_storage::{Catalog, HashIndex, SharedTable, Table, Value};

/// Result of evaluating a percentage query.
#[derive(Debug)]
pub struct QueryResult {
    /// The result table (`FV` or `FH`), registered in the catalog and shared.
    pub table: SharedTable,
    /// Work counters accumulated across all statements of the plan.
    pub stats: ExecStats,
    /// The SQL statements the code generator would emit for this plan.
    pub statements: Vec<String>,
}

impl QueryResult {
    /// Owned copy of the result table (tests / display).
    pub fn snapshot(&self) -> Table {
        self.table.read().clone()
    }
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
/// Temporary tables are registered as `{prefix}Fk`, `{prefix}Fj{t}` and
/// `{prefix}FV` (replacing previous contents).
pub fn eval_vpct(
    catalog: &Catalog,
    q: &VpctQuery,
    strat: &VpctStrategy,
    prefix: &str,
) -> Result<QueryResult> {
    eval_vpct_guarded(catalog, q, strat, prefix, &ResourceGuard::unlimited())
}

/// [`eval_vpct`] under a [`ResourceGuard`]: the plan's aggregation scans,
/// join probes and materialized rows are charged against the guard, so an
/// over-budget plan fails with [`CoreError::BudgetExceeded`] instead of
/// exhausting memory.
pub fn eval_vpct_guarded(
    catalog: &Catalog,
    q: &VpctQuery,
    strat: &VpctStrategy,
    prefix: &str,
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    q.validate()?;
    let mut stats = ExecStats::default();
    let statements = crate::codegen::vpct_statements(q, strat);

    let f_shared = catalog.table(&q.table)?;
    let f = f_shared.read();
    let f_schema = f.schema().clone();

    // Resolve GROUP BY columns.
    let k_cols: Vec<usize> = q
        .group_by
        .iter()
        .map(|n| {
            f_schema
                .index_of(n)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let k_len = k_cols.len();

    // Fk aggregate list: one sum per term (named for the final output), then
    // the extra aggregates.
    let mut fk_specs: Vec<AggSpec> = Vec::with_capacity(q.terms.len() + q.extra.len());
    for term in &q.terms {
        fk_specs.push(AggSpec::new(
            AggFunc::Sum,
            term.measure.to_expr(&f_schema)?,
            term.name.clone(),
        ));
    }
    for extra in &q.extra {
        fk_specs.push(extra_spec(extra, &f_schema)?);
    }

    // Totals keys per term, as F column indices and as Fk positions.
    let totals_keys: Vec<Vec<String>> = q.terms.iter().map(|t| q.totals_key(t)).collect();
    let totals_f_cols: Vec<Vec<usize>> = totals_keys
        .iter()
        .map(|names| {
            names
                .iter()
                .map(|n| f_schema.index_of(n).map_err(CoreError::from))
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;
    // Position of each group-by column inside Fk = its rank in q.group_by.
    let fk_pos_of = |name: &str| -> usize {
        q.group_by
            .iter()
            .position(|g| g.eq_ignore_ascii_case(name))
            .expect("totals key comes from group_by")
    };
    let totals_fk_cols: Vec<Vec<usize>> = totals_keys
        .iter()
        .map(|names| names.iter().map(|n| fk_pos_of(n)).collect())
        .collect();

    // ---- Step 1 (+ optionally step 2): aggregate.
    let (fk_table, mut fj_tables): (Table, Vec<Table>) = if strat.synchronized_scan
        && strat.fj_source == FjSource::FromF
    {
        // One synchronized scan computing Fk and every Fj.
        let mut levels: Vec<(Vec<usize>, Vec<AggSpec>)> = vec![(k_cols.clone(), fk_specs.clone())];
        for (t, term) in q.terms.iter().enumerate() {
            levels.push((
                totals_f_cols[t].clone(),
                vec![AggSpec::new(
                    AggFunc::Sum,
                    term.measure.to_expr(&f_schema)?,
                    "total",
                )],
            ));
        }
        let mut out = multi_hash_aggregate_guarded(&f, &levels, guard, &mut stats)?;
        let fk = out.remove(0);
        (fk, out)
    } else {
        let fk = multi_hash_aggregate_guarded(
            &f,
            &[(k_cols.clone(), fk_specs.clone())],
            guard,
            &mut stats,
        )?
        .pop()
        .expect("one level");
        (fk, Vec::new())
    };

    // ---- Step 2: totals per term (unless the synchronized scan made them).
    if fj_tables.is_empty() {
        for (t, term) in q.terms.iter().enumerate() {
            let fj = match strat.fj_source {
                FjSource::FromF => {
                    let spec =
                        AggSpec::new(AggFunc::Sum, term.measure.to_expr(&f_schema)?, "total");
                    multi_hash_aggregate_guarded(
                        &f,
                        &[(totals_f_cols[t].clone(), vec![spec])],
                        guard,
                        &mut stats,
                    )?
                    .pop()
                    .expect("one level")
                }
                FjSource::FromFk => {
                    // Re-aggregate the partial sums (distributive).
                    let sum_pos = k_len + t;
                    let spec = AggSpec::new(AggFunc::Sum, Expr::Col(sum_pos), "total");
                    multi_hash_aggregate_guarded(
                        &fk_table,
                        &[(totals_fk_cols[t].clone(), vec![spec])],
                        guard,
                        &mut stats,
                    )?
                    .pop()
                    .expect("one level")
                }
            };
            fj_tables.push(fj);
        }
    }
    drop(f);

    // Register temporaries (bulk INSERT..SELECT — one WAL record each).
    let fk_name = format!("{prefix}Fk");
    create_table_as(catalog, &fk_name, fk_table, &mut stats)?;
    let mut fj_names = Vec::with_capacity(fj_tables.len());
    for (t, fj) in fj_tables.iter().enumerate() {
        let name = format!("{prefix}Fj{t}");
        create_table_as(catalog, &name, fj.clone(), &mut stats)?;
        fj_names.push(name);
    }

    // ---- Step 3: divide.
    let fv_name = format!("{prefix}FV");
    match strat.materialization {
        Materialization::Insert => {
            // Progressively join Fk with each Fj, then project percentages.
            let fk_shared = catalog.table(&fk_name)?;
            let mut cur: Table = fk_shared.read().clone();
            let mut pct_exprs: Vec<Expr> = Vec::with_capacity(q.terms.len());
            for (t, _term) in q.terms.iter().enumerate() {
                let sum_pos = k_len + t;
                let fj = &fj_tables[t];
                let j_len = totals_fk_cols[t].len();
                if j_len == 0 {
                    // Global totals: one-row Fj, broadcast scalar division.
                    let total = fj.get(0, 0);
                    pct_exprs.push(Expr::Col(sum_pos).safe_div(Expr::Lit(total)));
                } else {
                    let fj_keys: Vec<usize> = (0..j_len).collect();
                    let index = if strat.subkey_index {
                        stats.statements += 1; // CREATE INDEX
                        Some(
                            catalog.create_index(
                                &fj_names[t],
                                &fj.schema().fields()[..j_len]
                                    .iter()
                                    .map(|fld| fld.name.as_str())
                                    .collect::<Vec<_>>(),
                            )?,
                        )
                    } else {
                        None
                    };
                    let total_pos = cur.num_columns() + j_len;
                    cur = hash_join_guarded(
                        &cur,
                        fj,
                        &totals_fk_cols[t],
                        &fj_keys,
                        JoinType::Inner,
                        index.as_deref(),
                        guard,
                        &mut stats,
                    )?;
                    pct_exprs.push(Expr::Col(sum_pos).safe_div(Expr::Col(total_pos)));
                }
            }
            // Final projection: D1..Dk, percentages, extras.
            let mut projections: Vec<ProjSpec> = Vec::new();
            for (i, name) in q.group_by.iter().enumerate() {
                projections.push(ProjSpec::typed(
                    Expr::Col(i),
                    name.clone(),
                    cur.schema().field_at(i).dtype,
                ));
            }
            for (t, term) in q.terms.iter().enumerate() {
                projections.push(ProjSpec::typed(
                    pct_exprs[t].clone(),
                    term.name.clone(),
                    pa_storage::DataType::Float,
                ));
            }
            for (e, extra) in q.extra.iter().enumerate() {
                let pos = k_len + q.terms.len() + e;
                projections.push(ProjSpec::typed(
                    Expr::Col(pos),
                    extra.name.clone(),
                    cur.schema().field_at(pos).dtype,
                ));
            }
            let fv = pa_engine::project(&cur, &projections, &mut stats)?;
            let shared = create_table_as(catalog, &fv_name, fv, &mut stats)?;
            Ok(QueryResult {
                table: shared,
                stats,
                statements,
            })
        }
        Materialization::Update => {
            // UPDATE Fk in place, term by term; FV = Fk.
            for (t, _term) in q.terms.iter().enumerate() {
                let sum_pos = k_len + t;
                let fj = &fj_tables[t];
                let j_len = totals_fk_cols[t].len();
                if j_len == 0 {
                    scalar_update_divide(
                        catalog,
                        &fk_name,
                        sum_pos,
                        fj.get(0, 0),
                        guard,
                        &mut stats,
                    )?;
                } else {
                    let fj_keys: Vec<usize> = (0..j_len).collect();
                    let index: Option<std::sync::Arc<HashIndex>> = if strat.subkey_index {
                        stats.statements += 1;
                        Some(
                            catalog.create_index(
                                &fj_names[t],
                                &fj.schema().fields()[..j_len]
                                    .iter()
                                    .map(|fld| fld.name.as_str())
                                    .collect::<Vec<_>>(),
                            )?,
                        )
                    } else {
                        None
                    };
                    let fk_width = catalog.table(&fk_name)?.read().num_columns();
                    let total_pos = fk_width + j_len;
                    update_from(
                        catalog,
                        &fk_name,
                        &totals_fk_cols[t],
                        fj,
                        &fj_keys,
                        index.as_deref(),
                        &[SetClause {
                            target_col: sum_pos,
                            expr: Expr::Col(sum_pos).safe_div(Expr::Col(total_pos)),
                        }],
                        &mut stats,
                    )?;
                }
            }
            // FV = Fk: register the same shared table under the FV name.
            let fk_shared = catalog.table(&fk_name)?;
            let fv = fk_shared.read().clone();
            let shared = create_table_as(catalog, &fv_name, fv, &mut stats)?;
            // The extra registration is bookkeeping, not plan work: the
            // paper's point is that Update avoids a third table. Remove the
            // copy's accounting so measurements reflect the real plan.
            stats.statements -= 1;
            Ok(QueryResult {
                table: shared,
                stats,
                statements,
            })
        }
    }
}

/// Per-row logged division by a scalar total (the `D1..Dj = ∅` corner of the
/// UPDATE strategy, where there is no join key).
fn scalar_update_divide(
    catalog: &Catalog,
    table: &str,
    col: usize,
    total: Value,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<()> {
    stats.statements += 1;
    let wal_before = catalog.wal_stats();
    let shared = catalog.table(table)?;
    let mut t = shared.write();
    let n = t.num_rows();
    stats.rows_scanned += n as u64;
    guard.charge(n as u64)?;
    let mut span = guard.span("update");
    span.add_rows(n as u64);
    span.add_morsels(1);
    let denom = total.as_f64();
    for row in 0..n {
        let before = t.column(col).get(row);
        let after = match (before.as_f64(), denom) {
            (Some(x), Some(d)) if d != 0.0 => Value::Float(x / d),
            _ => Value::Null,
        };
        stats.case_condition_evals += 1;
        catalog.with_wal_mutating(table, |wal| {
            wal.log_update(
                table,
                row,
                std::slice::from_ref(&col),
                std::slice::from_ref(&before),
                std::slice::from_ref(&after),
            )
        })?;
        t.column_mut(col).set(row, after)?;
    }
    stats.rows_updated += n as u64;
    let wal_after = catalog.wal_stats();
    stats.wal_records += wal_after.records - wal_before.records;
    stats.wal_bytes += wal_after.bytes_written - wal_before.bytes_written;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::Measure;
    use pa_storage::{DataType, Schema};

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
        assert!(catalog.contains("t_Fk"));
        assert!(catalog.contains("t_Fj0"));
        assert!(catalog.contains("t_FV"));
        assert!(!result.statements.is_empty());
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
