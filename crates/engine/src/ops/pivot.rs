//! The pivot: one cell level per task, rows and totals through `parent`
//! (DESIGN.md "Scan core", "a percentage is a measure looked up through
//! `parent`").
//!
//! The paper's CASE-from-`F` ≡ CASE-from-`FV` equivalence says an `Hpct`
//! table is the `Vpct` aggregate at `GROUP BY ∪ BY` laid out as a matrix,
//! and Gray et al. say the same of every cross-tab. So the pivot is the
//! fourth adapter over the scan core, planned like the lattice: one code
//! stream over `GROUP BY ∪ BY` and one projected **cell level** per task,
//! keyed `GROUP BY ∪ BY_t`, carrying that task's cell lanes. Code tiers, RLE
//! runs, holistic lanes, the worker merge, morsel charging and spans are the
//! core's; a level that cannot fuse degrades alone, as for every adapter.
//!
//! The `GROUP BY` level is the paper's `Fj`, and `Fj` is a projection of
//! `Fk`: its rows are the distinct [`parent`](crate::scan::LevelGroups::parent)
//! projections of a cell level, in the first-appearance order a scan at
//! `GROUP BY` returns them, and a term total or extra lane a cell level
//! already carries is that lane folded through `parent` — when the fold is
//! bit for bit the row-order sum ([`AggSpec::folds_exactly`]). Only the
//! lanes that are not (a fractional measure, `min`, a percentile) are fed
//! per row, on a `GROUP BY` level scanned beside the cell levels.
//!
//! The `groups × cells` matrix exists only at finalize, as a typed
//! *transposition*: each cell group lands at (row = its `parent`, column =
//! its BY projection's place in the task's `combos`), and every
//! `(combination, lane)` column is one pass of [`lane_column`] over the
//! accumulators its rows address — a cell no row fed reading a fresh one.
//! This is the paper's "hash-based search" for the CASE strategy — one
//! lookup per distinct BY value, none per row — so `case_condition_evals`
//! stays at zero.
//!
//! The output is the CASE strategy's raw table,
//! `[D1..Dj][term cells × lanes][term total?][extra lanes]`, so the
//! surrounding pipeline cannot tell which evaluator produced it.

use crate::error::Result;
use crate::expr::Expr;
use crate::guard::ResourceGuard;
use crate::ops::acc::Acc;
use crate::ops::aggregate::{lane_column, AggFunc, AggSpec};
use crate::parallel::ParallelConfig;
use crate::predicate::Selected;
use crate::scan::{Parent, ScanPlan};
use crate::stats::ExecStats;
use pa_storage::{Column, Field, Schema, Table, Value};

/// One horizontal term's piece of a pivot pass.
#[derive(Debug, Clone)]
pub struct PivotTask {
    /// Subgrouping columns in the source table.
    pub by_cols: Vec<usize>,
    /// Aggregations feeding each cell lane.
    pub lanes: Vec<(AggFunc, Expr)>,
    /// The distinct subgroup combinations, in result-column order. A group
    /// of rows whose BY key is not listed feeds no cell (it still counts
    /// toward `total`, as the CASE form's `sum(A)` does).
    pub combos: Vec<Vec<Value>>,
    /// Group-total sum expression for percentage terms.
    pub total: Option<Expr>,
}

/// One-pass pivot aggregation of the selected rows of `input`.
///
/// Produces the raw horizontal table: the `j_cols` key columns followed by,
/// for each task, `lanes × combos` cell columns (lane-major within a combo)
/// and the optional total column, then the extra lanes; one row per
/// `j_cols` group in first-appearance order. A cell no row fed finishes as
/// a fresh accumulator does: NULL for `sum`/`min`/`max`/percentiles, 0 for
/// counts.
///
/// Morsels are charged to `guard` as they are scanned; every level's
/// groups and the result's rows are charged after the scan, before the
/// result matrix is allocated.
pub fn pivot_aggregate(
    input: Selected<'_>,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    let src = input.table;
    stats.statements += 1;
    guard.check()?;

    // The union key, GROUP BY first; a level keeps positions of it in
    // increasing order, so `j_cols` lead every level's key.
    let mut union = j_cols.to_vec();
    for &c in tasks.iter().flat_map(|t| &t.by_cols) {
        if !union.contains(&c) {
            union.push(c);
        }
    }
    let spec = |(func, input): &(AggFunc, Expr)| AggSpec::new(*func, input.clone(), "");
    let mut keeps: Vec<Vec<usize>> = Vec::with_capacity(tasks.len() + 1);
    let mut aggs: Vec<Vec<AggSpec>> = Vec::with_capacity(tasks.len() + 1);
    for task in tasks {
        let kept = |&p: &usize| p < j_cols.len() || task.by_cols.contains(&union[p]);
        keeps.push((0..union.len()).filter(kept).collect());
        aggs.push(task.lanes.iter().map(spec).collect());
    }
    // The GROUP BY lanes — term totals, then extras — each folded from the
    // cell-level lane `(task, lane)` that already carries it, or, when none
    // does or the fold would not be exact, scanned as lane `scanned[..]` of
    // a GROUP BY level planned last. No task, or a lane to scan, plans it.
    let totals = tasks.iter().filter_map(|t| t.total.clone());
    let coarse_lanes: Vec<AggSpec> = (totals.map(|total| spec(&(AggFunc::Sum, total))))
        .chain(extra_lanes.iter().map(spec))
        .collect();
    let carried = |s: &AggSpec| {
        let same = |c: &AggSpec| c.func == s.func && c.input == s.input;
        let cell = |(t, lanes): (usize, &Vec<AggSpec>)| Some((t, lanes.iter().position(same)?));
        let found = aggs.iter().enumerate().find_map(cell);
        found.filter(|_| s.folds_exactly(src))
    };
    let folded: Vec<Option<(usize, usize)>> = coarse_lanes.iter().map(carried).collect();
    let scanned = (coarse_lanes.iter().zip(&folded)).filter(|(_, from)| from.is_none());
    let scanned: Vec<AggSpec> = scanned.map(|(s, _)| s.clone()).collect();
    if tasks.is_empty() || !scanned.is_empty() {
        keeps.push((0..j_cols.len()).collect());
        aggs.push(scanned);
    }
    let holistic = |s: &&AggSpec| s.func.is_holistic();
    stats.holistic_lanes += aggs.iter().flatten().filter(holistic).count() as u64;
    let cols: Vec<Vec<usize>> = keeps
        .iter()
        .map(|keep| keep.iter().map(|&p| union[p]).collect())
        .collect();

    // One stream for every level; when it cannot fuse (vector off, a float
    // BY column, a `min` lane), each level plans alone and degrades alone.
    let mut plan = ScanPlan::new(input, config);
    let levels: Vec<(&[usize], &[AggSpec])> = keeps
        .iter()
        .zip(&aggs)
        .map(|(k, a)| (&k[..], &a[..]))
        .collect();
    let detail = plan.push_stream(&union, &levels, stats).unwrap_or_else(|| {
        let keyed = cols.iter().zip(&aggs).map(|(c, a)| (&c[..], &a[..]));
        plan.push_levels(keyed, stats)
    });
    stats.rows_scanned += src.num_rows() as u64;
    let mut span = guard.span("pivot");
    span.set_detail(detail);
    let mut groups = plan.run("pivot_aggregate", guard, &mut span, stats)?;

    // Rows: each cell level's `parent` onto GROUP BY. Every level numbers
    // them as a scan at GROUP BY would, so they agree with each other and
    // with the GROUP BY level, when one was scanned; their keys are those
    // of each row's first group. SQL's global aggregate is a row even over
    // no rows.
    let coarse = (groups.len() > tasks.len()).then(|| groups.pop().expect("planned last"));
    let j_dims: Vec<usize> = (0..j_cols.len()).collect();
    let parents: Vec<Parent> = groups.iter().map(|g| g.parent(src, &j_dims)).collect();
    let (keyed, firsts) = match &coarse {
        Some(coarse) => (coarse, (0..coarse.len() as u32).collect()),
        None => (&groups[0], parents[0].firsts()),
    };
    let n_rows = firsts.len().max(usize::from(j_cols.is_empty()));
    let out_rows = groups.iter().map(|g| g.len()).sum::<usize>() + n_rows;
    guard.charge(out_rows as u64)?;
    span.add_rows(out_rows as u64);

    let src_schema = src.schema();
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    let mut push = |name: String, column: Column| {
        fields.push(Field::new(name, column.data_type()));
        columns.push(column);
    };
    for (d, &c) in j_cols.iter().enumerate() {
        let firsts = firsts.iter().map(|&gid| gid as usize);
        let key = keyed.key_column(src, c, d, firsts)?;
        push(src_schema.field_at(c).name.clone(), key);
    }

    // A GROUP BY lane as a column: folded through `parent`, or scanned.
    let fresh = |s: &AggSpec| Acc::with_budget(s.func, config.percentile_budget);
    let coarse_lane = |lane: usize, stats: &mut ExecStats| -> Result<Column> {
        let spec = &coarse_lanes[lane];
        let dtype = spec.output_type(src_schema);
        match (folded[lane], &coarse) {
            (Some((t, l)), _) => {
                let from = (l, aggs[t].len());
                let accs = groups[t].fold(from, &parents[t], n_rows, fresh(spec))?;
                lane_column(dtype, accs.iter(), stats)
            }
            (None, Some(coarse)) => {
                let lane = folded[..lane].iter().filter(|from| from.is_none()).count();
                let width = aggs[tasks.len()].len();
                lane_column(dtype, coarse.accs.iter().skip(lane).step_by(width), stats)
            }
            (None, None) => unreachable!("a lane to scan plans the GROUP BY level"),
        }
    };

    // Cells: each cell group transposed to (its row, its combination); a
    // cell no row fed reads the lane's fresh accumulator.
    let mut total_lane = 0;
    for (t, (task, fine)) in tasks.iter().zip(&groups).enumerate() {
        let dim_of = |c| {
            cols[t]
                .iter()
                .position(|k| k == c)
                .expect("BY is in the key")
        };
        let by_dims: Vec<usize> = task.by_cols.iter().map(dim_of).collect();
        let cell_of = fine.index_in(src, &by_dims, &task.combos);
        let mut at = vec![u32::MAX; task.combos.len() * n_rows];
        for (gid, (&row, &cell)) in parents[t].rows.iter().zip(&cell_of).enumerate() {
            if cell != u32::MAX {
                at[cell as usize * n_rows + row as usize] = gid as u32;
            }
        }
        let absent: Vec<Acc> = aggs[t].iter().map(fresh).collect();
        for i in 0..task.combos.len() {
            for (l, spec) in aggs[t].iter().enumerate() {
                let cells = at[i * n_rows..][..n_rows].iter().map(|&gid| match gid {
                    u32::MAX => &absent[l],
                    gid => &fine.accs[gid as usize * absent.len() + l],
                });
                let cells = lane_column(spec.output_type(src_schema), cells, stats)?;
                push(format!("__c{t}_{i}_{l}"), cells);
            }
        }
        if task.total.is_some() {
            push(format!("__tot{t}"), coarse_lane(total_lane, stats)?);
            total_lane += 1;
        }
    }
    for x in 0..extra_lanes.len() {
        push(format!("__x{x}_0"), coarse_lane(total_lane + x, stats)?);
    }
    stats.rows_materialized += n_rows as u64;
    Ok(Table::from_columns(
        Schema::new(fields)?.into_shared(),
        columns,
    )?)
}

/// [`pivot_aggregate`] of a whole table.
pub fn pivot_aggregate_with_config(
    src: &Table,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    pivot_aggregate(src.into(), j_cols, tasks, extra_lanes, guard, stats, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    /// The pivot under no limits, serially.
    fn pivot(
        t: &Table,
        j_cols: &[usize],
        tasks: &[PivotTask],
        extras: &[(AggFunc, Expr)],
        stats: &mut ExecStats,
    ) -> Table {
        let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        pivot_aggregate_with_config(t, j_cols, tasks, extras, &guard, stats, &config).unwrap()
    }

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d, a) in [
            (1, "Mon", 10.0),
            (1, "Tue", 30.0),
            (2, "Mon", 5.0),
            (1, "Mon", 10.0),
            (2, "Tue", 15.0),
        ] {
            t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn task(t: &Table) -> PivotTask {
        PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, Expr::col(t.schema(), "amt").unwrap())],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: Some(Expr::col(t.schema(), "amt").unwrap()),
        }
    }

    #[test]
    fn pivot_matches_manual_sums() {
        let t = sales();
        let mut st = ExecStats::default();
        let raw = pivot(&t, &[0], &[task(&t)], &[], &mut st);
        let raw = raw.sorted_by(&[0]);
        // store 1: Mon 20, Tue 30, total 50; store 2: Mon 5, Tue 15, total 20.
        assert_eq!(raw.get(0, 1), Value::Float(20.0));
        assert_eq!(raw.get(0, 2), Value::Float(30.0));
        assert_eq!(raw.get(0, 3), Value::Float(50.0));
        assert_eq!(raw.get(1, 1), Value::Float(5.0));
        assert_eq!(raw.get(1, 3), Value::Float(20.0));
        assert_eq!(st.case_condition_evals, 0, "no CASE chain evaluated");
    }

    #[test]
    fn global_group_and_extras() {
        let t = sales();
        let mut st = ExecStats::default();
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let raw = pivot(&t, &[], &[task(&t)], &extras, &mut st);
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Float(25.0)); // Mon global
        assert_eq!(raw.get(0, 1), Value::Float(45.0)); // Tue global
        assert_eq!(raw.get(0, 2), Value::Float(70.0)); // total
        assert_eq!(raw.get(0, 3), Value::Int(5)); // count(*)
    }

    #[test]
    fn empty_input_global_row() {
        let t = Table::empty(sales().schema().clone());
        let mut st = ExecStats::default();
        let raw = pivot(&t, &[], &[task(&t)], &[], &mut st);
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Null);
    }

    #[test]
    fn a_total_sums_every_row_of_its_group_listed_combination_or_not() {
        // What the CASE form's `sum(A)` and the SQL the code generator
        // prints do: `combos` decides the cells, never the total.
        use crate::ops::aggregate::multi_hash_aggregate_with_config;
        let mut t = sales();
        t.push_row(&[Value::Int(3), Value::str("Tue"), Value::Float(7.0)])
            .unwrap();
        let mut task = task(&t);
        task.combos.truncate(1); // Mon only; store 3 sells on no listed day
        let amt = || Expr::col(t.schema(), "amt").unwrap();
        let levels = [
            (vec![0], vec![AggSpec::new(AggFunc::Sum, amt(), "total")]),
            (vec![0, 1], vec![AggSpec::new(AggFunc::Sum, amt(), "cell")]),
        ];
        let (guard, serial) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        for vector in [true, false] {
            let config = ParallelConfig { vector, ..serial };
            let mut st = ExecStats::default();
            let oracle =
                multi_hash_aggregate_with_config(&t, &levels, &guard, &mut st, &config).unwrap();
            let raw = pivot_aggregate_with_config(
                &t,
                &[0],
                &[task.clone()],
                &[],
                &guard,
                &mut st,
                &config,
            )
            .unwrap();
            let want: Vec<Vec<Value>> = oracle[0]
                .rows()
                .map(|total| {
                    let monday = |r: &Vec<Value>| r[0] == total[0] && r[1] == Value::str("Mon");
                    let cell = oracle[1]
                        .rows()
                        .find(monday)
                        .map_or(Value::Null, |r| r[2].clone());
                    vec![total[0].clone(), cell, total[1].clone()]
                })
                .collect();
            assert_eq!(raw.rows().collect::<Vec<_>>(), want, "vector={vector}");
            assert_eq!(want[2], [Value::Int(3), Value::Null, Value::Float(7.0)]);
        }
    }

    #[test]
    fn the_group_by_level_is_scanned_only_for_lanes_that_do_not_fold_exactly() {
        let levels = |st: &ExecStats| st.dense_group_ops + st.hash_group_ops;
        let mut t = sales();
        let amt = || Expr::col(t.schema(), "amt").unwrap();
        let extras = vec![(AggFunc::Sum, amt()), (AggFunc::CountStar, Expr::lit(1))];
        // Whole amounts: the total and the `sum` extra fold from the cell
        // level; `count(*)` has no cell lane to fold from and is scanned.
        let mut st = ExecStats::default();
        let whole = pivot(&t, &[0], &[task(&t)], &extras[..1], &mut st);
        assert_eq!(levels(&st), 1, "rows, total and extra through `parent`");
        let mut st = ExecStats::default();
        let counted = pivot(&t, &[0], &[task(&t)], &extras, &mut st);
        assert_eq!(levels(&st), 2);
        for (r, row) in whole.rows().enumerate() {
            // store | Mon Tue | total | sum: both stores, in scan order.
            assert_eq!(row[3], row[4], "the extra is the total");
            assert_eq!(row[..], counted.row(r).unwrap()[..5]);
        }
        assert_eq!(whole.get(0, 3), Value::Float(50.0));
        assert_eq!(counted.get(1, 5), Value::Int(2));
        // One fractional amount: nothing of that measure folds any more.
        t.push_row(&[Value::Int(2), Value::str("Mon"), Value::Float(0.5)])
            .unwrap();
        let mut st = ExecStats::default();
        let fractional = pivot(&t, &[0], &[task(&t)], &extras[..1], &mut st);
        assert_eq!(levels(&st), 2);
        assert_eq!(fractional.get(1, 3), Value::Float(20.5));
        // No task at all: the GROUP BY level is the whole plan.
        let mut st = ExecStats::default();
        let bare = pivot(&t, &[0], &[], &extras, &mut st);
        assert_eq!(levels(&st), 1);
        let want = [Value::Int(2), Value::Float(20.5), Value::Int(3)];
        assert_eq!(bare.row(1).unwrap(), want);
    }

    #[test]
    fn min_max_and_avg_lanes() {
        let t = sales();
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let task = PivotTask {
            by_cols: vec![1],
            lanes: vec![
                (AggFunc::Min, amt.clone()),
                (AggFunc::Max, amt.clone()),
                (AggFunc::Avg, amt),
            ],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: None,
        };
        let mut st = ExecStats::default();
        let raw = pivot(&t, &[0], &[task], &[], &mut st).sorted_by(&[0]);
        // store 1 Mon: amounts 10,10 → min 10, max 10, avg 10.
        assert_eq!(raw.get(0, 1), Value::Float(10.0));
        assert_eq!(raw.get(0, 2), Value::Float(10.0));
        assert_eq!(raw.get(0, 3), Value::Float(10.0));
        // store 2 Tue: 15.
        assert_eq!(raw.get(1, 4), Value::Float(15.0));
    }

    #[test]
    fn parallel_pivot_identical_to_serial() {
        // A table large enough for many small morsels: store ∈ 0..23,
        // dweek cycles over 7 names, integer-valued amounts so chunked
        // float sums are exact.
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let days = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let mut t = Table::with_capacity(schema, 9_000);
        for i in 0..9_000usize {
            t.push_row(&[
                Value::Int((i as i64 * 31) % 23),
                Value::str(days[i % 7]),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 97) as f64)
                },
            ])
            .unwrap();
        }
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let tasks = vec![PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, amt.clone()), (AggFunc::Count, amt.clone())],
            combos: days.iter().map(|d| vec![Value::str(*d)]).collect(),
            total: Some(amt),
        }];
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let serial = pivot_aggregate_with_config(
            &t,
            &[0],
            &tasks,
            &extras,
            &ResourceGuard::unlimited(),
            &mut ExecStats::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let config = ParallelConfig {
                threads,
                morsel_rows: 256,
                min_parallel_rows: 0,
                ..ParallelConfig::serial()
            };
            let parallel = pivot_aggregate_with_config(
                &t,
                &[0],
                &tasks,
                &extras,
                &ResourceGuard::unlimited(),
                &mut ExecStats::default(),
                &config,
            )
            .unwrap();
            let s_rows: Vec<Vec<Value>> = serial.rows().collect();
            let p_rows: Vec<Vec<Value>> = parallel.rows().collect();
            assert_eq!(s_rows, p_rows, "threads={threads}");
        }
    }
}
