//! Window functions: `agg(measure) OVER (PARTITION BY cols)`.
//!
//! This is the **baseline** the paper compares against (SIGMOD §4.2): the
//! SQL-99 OLAP extension computes a partition aggregate *per input row*.
//! Faithful to how a 2004 optimizer evaluated it, the operator sorts the
//! input on the partition key (its "own temporary tables and indexes"),
//! computes one aggregate per run, then materializes an `n`-row result with
//! the aggregate replicated onto every row. Operating at row granularity on
//! all of `F` — rather than group granularity — is exactly where the
//! order-of-magnitude gap in Table 6 comes from.

use crate::error::{EngineError, Result};
use crate::ops::aggregate::AggFunc;
use crate::ops::sort::sort_permutation;
use crate::parallel::ParallelConfig;
use crate::stats::ExecStats;
use pa_storage::{DataType, Field, Schema, Table, Value};

/// Append a window-aggregate column named `out_name` to `input`:
/// `func(measure_col) OVER (PARTITION BY partition_cols)`.
///
/// The result table contains all input columns plus the new column, with
/// rows in partition order (the order the sort-based plan produces).
/// An empty `partition_cols` treats the whole input as one partition. Of
/// `config` the plan reads only the percentile budget: the window is the
/// serial row-granular baseline whatever the thread count.
pub fn window_aggregate(
    input: &Table,
    partition_cols: &[usize],
    func: AggFunc,
    measure_col: usize,
    out_name: &str,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    if measure_col >= input.num_columns() {
        return Err(EngineError::InvalidOperator(format!(
            "measure column {measure_col} out of range"
        )));
    }
    for &c in partition_cols {
        if c >= input.num_columns() {
            return Err(EngineError::InvalidOperator(format!(
                "partition column {c} out of range"
            )));
        }
    }
    stats.statements += 1;
    let n = input.num_rows();
    stats.rows_scanned += n as u64;

    // Phase 1: sort rows into partition order (the optimizer's spool).
    let mut order: Vec<usize> = if partition_cols.is_empty() {
        (0..n).collect()
    } else {
        sort_permutation(input, partition_cols, stats)?
    };
    // The sort orders a float by its bits' total order, which parts -0.0
    // from 0.0 and one NaN from another; grouping does not, and a run must
    // hold its whole partition. A float key re-sorts stably by its grouping
    // form.
    let float_key = |&c: &usize| input.column(c).data_type() == DataType::Float;
    if partition_cols.iter().any(float_key) {
        order.sort_by(|&a, &b| grouping_order(input, partition_cols, a, b));
    }

    // Phase 2: one pass over runs, computing the aggregate per partition.
    let percentile_budget = config.percentile_budget;
    let mut agg_values: Vec<Value> = Vec::with_capacity(n);
    let mut run_start = 0;
    while run_start < n {
        let mut run_end = run_start + 1;
        while run_end < n && same_key(input, partition_cols, order[run_start], order[run_end]) {
            run_end += 1;
        }
        let agg = aggregate_run(
            input,
            &order[run_start..run_end],
            func,
            measure_col,
            percentile_budget,
        )?;
        for _ in run_start..run_end {
            agg_values.push(agg.clone());
        }
        run_start = run_end;
    }

    // Phase 3: materialize the n-row result (the expensive part at scale).
    let mut fields: Vec<Field> = input.schema().fields().to_vec();
    let out_type = match func {
        AggFunc::Sum | AggFunc::Avg | AggFunc::Percentile(_) | AggFunc::ApproxPercentile(_) => {
            DataType::Float
        }
        AggFunc::Count
        | AggFunc::CountDistinct
        | AggFunc::CountStar
        | AggFunc::ApproxCountDistinct => DataType::Int,
        AggFunc::Min | AggFunc::Max => input.schema().field_at(measure_col).dtype,
    };
    fields.push(Field::new(out_name.to_string(), out_type));
    let schema = Schema::new(fields)?.into_shared();
    let mut columns: Vec<pa_storage::Column> =
        input.columns().iter().map(|c| c.take(&order)).collect();
    let mut agg_col = pa_storage::Column::with_capacity(out_type, n);
    for v in agg_values {
        agg_col.push(v)?;
    }
    columns.push(agg_col);
    stats.rows_materialized += n as u64;
    Ok(Table::from_columns(schema, columns)?)
}

/// Rows `a` and `b` of `t` in the order of their `cols` keys, a float read
/// as grouping reads it (`-0.0` as `0.0`, every NaN as one).
fn grouping_order(t: &Table, cols: &[usize], a: usize, b: usize) -> std::cmp::Ordering {
    let key = |row: usize, c: usize| match t.get(row, c) {
        Value::Float(x) if x.is_nan() => Value::Float(f64::NAN),
        Value::Float(x) => Value::Float(if x == 0.0 { 0.0 } else { x }),
        v => v,
    };
    let mut order = cols.iter().map(|&c| key(a, c).total_cmp(&key(b, c)));
    order
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn same_key(t: &Table, cols: &[usize], a: usize, b: usize) -> bool {
    cols.iter()
        .all(|&c| t.column(c).get(a).key_eq(&t.column(c).get(b)))
}

fn aggregate_run(
    t: &Table,
    rows: &[usize],
    func: AggFunc,
    col: usize,
    percentile_budget: usize,
) -> Result<Value> {
    match func {
        AggFunc::CountStar => Ok(Value::Int(rows.len() as i64)),
        AggFunc::Count => Ok(Value::Int(
            rows.iter().filter(|&&r| t.column(col).is_valid(r)).count() as i64,
        )),
        AggFunc::CountDistinct => {
            let mut seen: pa_storage::FxHashSet<Value> = Default::default();
            for &r in rows {
                let v = t.column(col).get(r);
                if !v.is_null() {
                    seen.insert(v);
                }
            }
            Ok(Value::Int(seen.len() as i64))
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0;
            let mut cnt = 0i64;
            for &r in rows {
                if let Some(x) = t.column(col).get_f64(r) {
                    sum += x;
                    cnt += 1;
                } else if t.column(col).is_valid(r) {
                    return Err(EngineError::ExprType("window sum of non-numeric".into()));
                }
            }
            if cnt == 0 {
                Ok(Value::Null)
            } else if func == AggFunc::Sum {
                Ok(Value::Float(sum))
            } else {
                Ok(Value::Float(sum / cnt as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best = Value::Null;
            for &r in rows {
                let v = t.column(col).get(r);
                if v.is_null() {
                    continue;
                }
                let better = best.is_null()
                    || (func == AggFunc::Min && v.total_cmp(&best) == std::cmp::Ordering::Less)
                    || (func == AggFunc::Max && v.total_cmp(&best) == std::cmp::Ordering::Greater);
                if better {
                    best = v;
                }
            }
            Ok(best)
        }
        AggFunc::Percentile(_) | AggFunc::ApproxPercentile(_) | AggFunc::ApproxCountDistinct => {
            // The holistic functions run through the shared accumulator
            // protocol rather than a bespoke run loop.
            let mut acc = crate::ops::acc::Acc::with_budget(func, percentile_budget);
            for &r in rows {
                acc.update(&t.column(col).get(r))?;
            }
            Ok(acc.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: ParallelConfig = ParallelConfig::serial();
    use pa_storage::Schema;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c, a) in [
            ("TX", "Houston", 5.0),
            ("CA", "SF", 13.0),
            ("TX", "Dallas", 53.0),
            ("CA", "SF", 3.0),
            ("TX", "Houston", 35.0),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    #[test]
    fn sum_over_partition_replicates_totals() {
        let t = sales();
        let mut st = ExecStats::default();
        let out = window_aggregate(&t, &[0], AggFunc::Sum, 2, "total", &mut st, &CFG).unwrap();
        assert_eq!(out.num_rows(), 5, "one output row per input row");
        assert_eq!(out.num_columns(), 4);
        // Partition order: CA rows then TX rows.
        assert_eq!(out.get(0, 0), Value::str("CA"));
        assert_eq!(out.get(0, 3), Value::Float(16.0));
        assert_eq!(out.get(1, 3), Value::Float(16.0));
        assert_eq!(out.get(2, 3), Value::Float(93.0));
        assert_eq!(out.get(4, 3), Value::Float(93.0));
        assert!(st.sort_comparisons > 0, "sort-based plan");
        assert_eq!(st.rows_materialized, 5);
    }

    #[test]
    fn empty_partition_list_is_global_window() {
        let t = sales();
        let mut st = ExecStats::default();
        let out = window_aggregate(&t, &[], AggFunc::Sum, 2, "total", &mut st, &CFG).unwrap();
        for i in 0..out.num_rows() {
            assert_eq!(out.get(i, 3), Value::Float(109.0));
        }
    }

    #[test]
    fn count_and_avg_windows() {
        let t = sales();
        let mut st = ExecStats::default();
        let cnt = window_aggregate(&t, &[0], AggFunc::CountStar, 2, "n", &mut st, &CFG).unwrap();
        assert_eq!(cnt.get(0, 3), Value::Int(2)); // CA
        assert_eq!(cnt.get(2, 3), Value::Int(3)); // TX
        let avg = window_aggregate(&t, &[0], AggFunc::Avg, 2, "m", &mut st, &CFG).unwrap();
        assert_eq!(avg.get(0, 3), Value::Float(8.0));
    }

    #[test]
    fn null_measures_are_skipped() {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::Null]).unwrap();
        t.push_row(&[Value::Int(1), Value::Float(4.0)]).unwrap();
        t.push_row(&[Value::Int(2), Value::Null]).unwrap();
        let mut st = ExecStats::default();
        let out = window_aggregate(&t, &[0], AggFunc::Sum, 1, "s", &mut st, &CFG).unwrap();
        assert_eq!(out.get(0, 2), Value::Float(4.0));
        assert_eq!(
            out.get(2, 2),
            Value::Null,
            "all-NULL partition sums to NULL"
        );
    }

    #[test]
    fn median_window_replicates_partition_median() {
        use crate::ops::aggregate::PBits;
        let t = sales();
        let mut st = ExecStats::default();
        let out = window_aggregate(
            &t,
            &[0],
            AggFunc::Percentile(PBits::new(0.5)),
            2,
            "med",
            &mut st,
            &CFG,
        )
        .unwrap();
        // CA: 3, 13 → 8.0; TX: 5, 35, 53 → 35.0.
        assert_eq!(out.get(0, 3), Value::Float(8.0));
        assert_eq!(out.get(2, 3), Value::Float(35.0));
    }

    #[test]
    fn validates_columns() {
        let t = sales();
        let mut st = ExecStats::default();
        assert!(window_aggregate(&t, &[9], AggFunc::Sum, 2, "x", &mut st, &CFG).is_err());
        assert!(window_aggregate(&t, &[0], AggFunc::Sum, 9, "x", &mut st, &CFG).is_err());
    }
}
