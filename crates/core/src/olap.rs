//! The OLAP-extensions baseline (SIGMOD §4.2).
//!
//! The paper compares percentage queries against the SQL-99 OLAP window
//! form, e.g. for one term:
//!
//! ```sql
//! SELECT DISTINCT D1..Dk,
//!        sum(A) OVER (PARTITION BY D1..Dk)
//!      / sum(A) OVER (PARTITION BY D1..Dj)
//! FROM F;
//! ```
//!
//! "The optimizer groups rows and computes aggregates using its own
//! temporary tables and indexes. We have no control over these temporary
//! tables." — the single-statement plan materializes *row-level* window
//! columns over all of `F` (one sort + one n-row spool per window), divides
//! per row, and collapses with DISTINCT at the end. That row-granular work
//! is what makes it an order of magnitude slower than the percentage plans
//! on large tables, and this module reproduces it mechanically.

use crate::error::{CoreError, Result};
use crate::query::{Fact, Measure, VpctQuery};
use crate::vertical::{count_insert, into_shared, QueryResult};
use pa_engine::{distinct, divide, window_aggregate, AggFunc, ExecStats, ResourceGuard};
use pa_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// Evaluate a vertical percentage query through the OLAP window-function
/// plan. Produces the same answer set as [`crate::eval_vpct`] (modulo row
/// order). The plan stores no table.
pub fn eval_vpct_olap(catalog: &Catalog, q: &VpctQuery) -> Result<QueryResult> {
    eval_vpct_olap_on(&Fact::named(catalog, &q.table)?, q)
}

/// [`eval_vpct_olap`] over an already resolved fact table.
pub(crate) fn eval_vpct_olap_on(fact: &Fact, q: &VpctQuery) -> Result<QueryResult> {
    q.validate()?;
    if !q.extra.is_empty() {
        return Err(CoreError::Unsupported(
            "the OLAP baseline reproduces percentage terms only".into(),
        ));
    }
    let mut stats = ExecStats::default();
    let config = fact.config();

    let rows = fact.read();
    let f = rows.whole();
    let schema = f.schema().clone();

    let k_cols: Vec<usize> = q
        .group_by
        .iter()
        .map(|n| {
            schema
                .index_of(n)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}")))
        })
        .collect::<Result<Vec<_>>>()?;

    // Window function and measure column per term. A literal measure maps to
    // count(*) windows: sum(c) over w / sum(c) over w' == count rows ratio.
    let term_measures: Vec<(AggFunc, Option<usize>)> = q
        .terms
        .iter()
        .map(|t| match &t.measure {
            Measure::Column(name) => Ok((
                AggFunc::Sum,
                Some(
                    schema
                        .index_of(name)
                        .map_err(|_| CoreError::InvalidQuery(format!("unknown measure {name}")))?,
                ),
            )),
            Measure::LitInt(_) | Measure::LitFloat(_) => Ok((AggFunc::CountStar, None)),
        })
        .collect::<Result<Vec<_>>>()?;
    let totals: Vec<Vec<usize>> = (q.terms.iter())
        .map(|term| {
            (q.totals_key(term).iter())
                .map(|n| schema.index_of(n).map_err(CoreError::from))
                .collect()
        })
        .collect::<Result<_>>()?;

    // The first spool: F's rows materialized with the columns the windows
    // read (the keys and the measures), each row tagged with its position
    // in F. `at` finds an F column in it.
    let measures = term_measures.iter().filter_map(|&(_, m)| m);
    let mut read: Vec<usize> = Vec::new();
    for c in k_cols
        .iter()
        .chain(totals.iter().flatten())
        .copied()
        .chain(measures)
    {
        if !read.contains(&c) {
            read.push(c);
        }
    }
    let at = |c: usize| read.iter().position(|&r| r == c).expect("a column read");
    let mut cur = spool(f, &read)?;
    let position = read.len();
    stats.rows_scanned += cur.num_rows() as u64;
    drop(rows);

    // One window per aggregation level, appended column by column, exactly
    // like the optimizer's chained window spools. Each window re-sorts its
    // whole n-row input.
    let mut num_pos: Vec<usize> = Vec::new();
    let mut den_pos: Vec<usize> = Vec::new();
    let k_spool: Vec<usize> = k_cols.iter().map(|&k| at(k)).collect();
    for (t, totals) in totals.iter().enumerate() {
        // count(*) reads no column; the spool's first stands in.
        let (func, mcol) = term_measures[t];
        let mcol = mcol.map_or(0, at);
        let pos = cur.num_columns();
        let name = format!("__sumk{t}");
        cur = window_aggregate(&cur, &k_spool, func, mcol, &name, &mut stats, &config)?;
        num_pos.push(pos);
        let totals: Vec<usize> = totals.iter().map(|&c| at(c)).collect();
        let pos = cur.num_columns();
        let name = format!("__sumj{t}");
        cur = window_aggregate(&cur, &totals, func, mcol, &name, &mut stats, &config)?;
        den_pos.push(pos);
    }

    // Row-level division over all n rows: `INSERT .. SELECT D1..Dk, CASE
    // WHEN Fj.A <> 0 THEN Fk.A / Fj.A END`, the keys moved over and each
    // term one [`divide`] of its two window columns, row by row.
    let n = cur.num_rows();
    stats.rows_scanned += n as u64;
    stats.case_condition_evals += (n * q.terms.len()) as u64;
    let own_row: Vec<u32> = (0..n as u32).collect();
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (name, &k) in q.group_by.iter().zip(&k_cols) {
        // Window operators only append columns, so the spool's positions
        // survive.
        fields.push(Field::new(name.clone(), schema.field_at(k).dtype));
        columns.push(cur.column(at(k)).clone());
    }
    for (t, term) in q.terms.iter().enumerate() {
        let mut pct = Column::with_capacity(DataType::Float, n);
        divide(
            cur.column(num_pos[t]),
            cur.column(den_pos[t]),
            Some(&own_row),
            &mut pct,
        );
        fields.push(Field::new(term.name.clone(), DataType::Float));
        columns.push(pct);
    }
    // Back in F's row order, so the DISTINCT below keeps each group's
    // first row — its key spelled as that row spells it (a ±0.0 or NaN
    // group included), as every other plan does — not the spelling the
    // windows' sorts put first.
    let positions = cur.column(position).int_data().expect("an integer column");
    let mut in_f = vec![0usize; n];
    for (row, &at) in positions.iter().enumerate() {
        in_f[at as usize] = row;
    }
    drop(cur);
    let divided = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?.take(&in_f);
    count_insert(&divided, &mut stats);

    // DISTINCT collapse down to one row per group.
    let all: Vec<usize> = (0..divided.num_columns()).collect();
    let unguarded = ResourceGuard::unlimited();
    let fv = distinct((&divided).into(), &all, &unguarded, &mut stats, &config)?;
    count_insert(&fv, &mut stats);
    Ok(QueryResult {
        table: into_shared(fv),
        stats,
    })
}

/// `f`'s columns `read`, in that order, and one more: each row's position
/// in `f`.
fn spool(f: &Table, read: &[usize]) -> Result<Table> {
    let n = f.num_rows();
    let mut fields: Vec<Field> = read
        .iter()
        .map(|&c| f.schema().field_at(c).clone())
        .collect();
    fields.push(Field::new("__position", DataType::Int));
    let mut columns: Vec<Column> = read.iter().map(|&c| f.column(c).clone()).collect();
    columns.push(Column::Int {
        data: (0..n as i64).collect(),
        validity: (0..n).map(|_| true).collect(),
    });
    Ok(Table::from_columns(
        Schema::new(fields)?.into_shared(),
        columns,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::VpctStrategy;
    use crate::vertical::eval_vpct;
    use crate::vertical::tests::sales_catalog;
    use pa_storage::Value;

    fn q() -> VpctQuery {
        VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"])
    }

    #[test]
    fn olap_plan_matches_percentage_plan() {
        let catalog = sales_catalog();
        let fast = eval_vpct(&catalog, &q(), &VpctStrategy::best(), "a_").unwrap();
        let olap = eval_vpct_olap(&catalog, &q()).unwrap();
        let a: Vec<Vec<Value>> = fast.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = olap.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn olap_plan_does_row_granular_work() {
        let catalog = sales_catalog();
        let fast = eval_vpct(&catalog, &q(), &VpctStrategy::best(), "a_").unwrap();
        let olap = eval_vpct_olap(&catalog, &q()).unwrap();
        // The window plan sorts and materializes n-row intermediates.
        assert!(olap.stats.sort_comparisons > 0);
        assert!(
            olap.stats.rows_materialized > fast.stats.rows_materialized,
            "olap {} vs fast {}",
            olap.stats.rows_materialized,
            fast.stats.rows_materialized
        );
    }

    #[test]
    fn global_totals_term() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let olap = eval_vpct_olap(&catalog, &q).unwrap();
        let t = olap.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(0, 1), Value::Float(106.0 / 255.0));
        assert_eq!(t.get(1, 1), Value::Float(149.0 / 255.0));
    }

    #[test]
    fn literal_measure_uses_count_windows() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state", "city"], Measure::LitInt(1), &["city"]);
        let fast = eval_vpct(&catalog, &q, &VpctStrategy::best(), "c_").unwrap();
        let olap = eval_vpct_olap(&catalog, &q).unwrap();
        let a: Vec<Vec<Value>> = fast.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = olap.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn extras_unsupported() {
        let catalog = sales_catalog();
        let mut q = q();
        q.extra.push(crate::query::ExtraAgg::count_star("n"));
        assert!(matches!(
            eval_vpct_olap(&catalog, &q),
            Err(CoreError::Unsupported(_))
        ));
    }
}
