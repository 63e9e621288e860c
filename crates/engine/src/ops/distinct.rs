//! DISTINCT over a column subset.
//!
//! Horizontal strategies start with `SELECT DISTINCT Dj+1..Dk FROM {F|FV}` to
//! discover the `N` result columns; the SPJ strategy's `F0` is
//! `SELECT DISTINCT D1..Dj`. First occurrence order is preserved, which keeps
//! generated column order deterministic for a given input.
//!
//! `SELECT DISTINCT cols` is `GROUP BY cols` with no aggregate — a level of
//! the same lattice (Gray et al.) — so [`distinct`] is an adapter over the
//! scan core (`crate::scan`, DESIGN.md "Scan core"): one level over `cols`
//! carrying no lanes, read through the same slot vectors, selection words,
//! guard and worker fan-out as every aggregate, its keys decoded from the
//! merged groups. Float or unpackable keys take the core's scalar mode.

use crate::error::{EngineError, Result};
use crate::guard::ResourceGuard;
use crate::ops::aggregate::{check_key, finish};
use crate::parallel::ParallelConfig;
use crate::predicate::Selected;
use crate::scan::ScanPlan;
use crate::stats::ExecStats;
use pa_storage::{Table, Value};

/// Distinct value combinations of `cols` among the selected rows of
/// `input`, as a table with those columns, in first-occurrence order. The
/// scan is charged to `guard` morsel by morsel for the rows it reads, and
/// its distinct rows before they are materialized.
pub fn distinct(
    input: Selected<'_>,
    cols: &[usize],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    if cols.is_empty() {
        return Err(EngineError::InvalidOperator(
            "distinct needs at least one column".into(),
        ));
    }
    let table = input.table;
    check_key(table, cols)?;
    stats.statements += 1;
    guard.check()?;

    let mut plan = ScanPlan::new(input, config);
    let fused = plan.push_level(cols, &[], stats);
    stats.rows_scanned += table.num_rows() as u64;
    let mut span = guard.span("distinct");
    span.set_detail(if fused { "vectorized" } else { "scalar" });
    let mut levels = plan.run("distinct", guard, &mut span, stats)?;
    let groups = levels.pop().expect("one level in, one level out");
    guard.charge(groups.len() as u64)?;
    span.add_rows(groups.len() as u64);
    finish(&groups, table, cols, &[], stats)
}

/// [`distinct`] over a whole table as owned key tuples (the form code
/// generation uses to mint one result column per combination), unguarded,
/// under the environment configuration ([`ParallelConfig::from_env`]).
pub fn distinct_keys(
    input: &Table,
    cols: &[usize],
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Value>>> {
    let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::from_env());
    Ok(distinct(input.into(), cols, &guard, stats, &config)?
        .rows()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keymap::RowKeyMap;
    use crate::predicate::Selection;
    use pa_storage::{DataType, Schema};

    /// [`distinct`] of every row, unguarded and serial.
    fn over(t: &Table, cols: &[usize]) -> Result<Table> {
        let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        distinct(t.into(), cols, &guard, &mut ExecStats::default(), &config)
    }

    /// The reference: the operator as it was before it joined the scan
    /// core — every selected row through a tuple hash, the first row of
    /// each new key gathered.
    fn tuple_hash_distinct(input: Selected<'_>, cols: &[usize]) -> Vec<Vec<Value>> {
        let (table, mut stats) = (input.table, ExecStats::default());
        let n = table.num_rows();
        let mut map = RowKeyMap::new();
        let mut see = |row: usize| {
            map.get_or_insert_row(table, cols, row, &mut stats);
        };
        match input.selection {
            None => (0..n).for_each(&mut see),
            Some(selection) => selection.ones(0..n).for_each(&mut see),
        }
        map.into_keys()
    }

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c) in [
            ("TX", "Houston"),
            ("CA", "SF"),
            ("TX", "Houston"),
            ("TX", "Dallas"),
            ("CA", "SF"),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(1.0)])
                .unwrap();
        }
        t
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        let t = table();
        let out = over(&t, &[0, 1]).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
        let rows: Vec<Vec<Value>> = out.rows().collect();
        assert_eq!(rows[0], vec![Value::str("TX"), Value::str("Houston")]);
        assert_eq!(rows[1], vec![Value::str("CA"), Value::str("SF")]);
        assert_eq!(rows[2], vec![Value::str("TX"), Value::str("Dallas")]);
    }

    #[test]
    fn distinct_single_column() {
        let t = table();
        let out = over(&t, &[0]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn distinct_keys_returns_tuples() {
        let t = table();
        let keys = distinct_keys(&t, &[0], &mut ExecStats::default()).unwrap();
        assert_eq!(keys, vec![vec![Value::str("TX")], vec![Value::str("CA")]]);
    }

    #[test]
    fn null_is_one_distinct_value() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&[Value::Int(1)]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        let out = over(&t, &[0]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn empty_and_out_of_range_cols_rejected() {
        assert!(over(&table(), &[]).is_err());
        assert!(over(&table(), &[3]).is_err());
    }

    /// `n` rows of (narrow int, string, float, two ints of 2 000 values
    /// each — the `fsparse` shape, a key past any dense budget's worth of
    /// rows), NULLs in every key column, in runs of `run` equal rows.
    fn mixed(n: usize, run: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("x", DataType::Int),
            ("y", DataType::Int),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::with_capacity(schema, n);
        for row in 0..n {
            let k = row / run.max(1);
            let null = |every: usize| k % every == every - 1;
            let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
            t.push_row(&[
                or_null(null(11), Value::Int((k * 7 % 23) as i64 - 4)),
                or_null(null(7), Value::str(format!("s{}", k * 5 % 9))),
                or_null(null(5), Value::Float((k * 3 % 13) as f64 * 0.5 - 0.0)),
                or_null(null(13), Value::Int((k * 7919 % 2000) as i64)),
                or_null(null(17), Value::Int((k * 104_729 % 2000) as i64)),
            ])
            .unwrap();
        }
        t
    }

    /// Every way the plan can run one level: block loop on either code
    /// tier, the per-row loop, and workers whose morsels split runs.
    fn configs() -> Vec<(&'static str, ParallelConfig)> {
        let serial = ParallelConfig::serial();
        let threads = |threads| ParallelConfig {
            threads,
            morsel_rows: 50,
            min_parallel_rows: 0,
            ..serial
        };
        vec![
            ("serial", serial),
            (
                "hash tier",
                ParallelConfig {
                    dense_budget: 0,
                    ..serial
                },
            ),
            (
                "scalar",
                ParallelConfig {
                    vector: false,
                    ..serial
                },
            ),
            ("2 threads", threads(2)),
            ("4 threads", threads(4)),
            (
                "4 threads, scalar",
                ParallelConfig {
                    vector: false,
                    ..threads(4)
                },
            ),
        ]
    }

    #[test]
    fn the_scan_core_pass_returns_the_tuple_hash_loops_rows_in_its_order() {
        let guard = ResourceGuard::unlimited();
        let keys: [&[usize]; 7] = [&[0], &[1], &[2], &[0, 1], &[1, 2, 0], &[3, 4], &[4, 0, 3]];
        // Runs of 70 equal keys straddle the 50-row morsels and the word
        // boundaries; the sizes sit one row either side of a word.
        for (n, run) in [(0, 1), (63, 1), (64, 3), (65, 1), (3000, 1), (3000, 70)] {
            let t = mixed(n, run);
            type Keep = fn(usize) -> bool;
            let selections: [(&str, Option<Keep>); 5] = [
                ("unselected", None),
                ("full", Some(|_| true)),
                ("empty", Some(|_| false)),
                (
                    "rows 63..=64 and every third",
                    Some(|r| r == 63 || r == 64 || r % 3 == 0),
                ),
                (
                    "all but rows 0, 64, 65",
                    Some(|r| r != 0 && r != 64 && r != 65),
                ),
            ];
            for (which, keep) in selections {
                let selection = keep.map(|keep| Selection::of_rows(n, keep));
                let selected = selection.as_ref().map_or(n as u64, |s| s.summary().1);
                let input = match &selection {
                    None => Selected::from(&t),
                    Some(selection) => Selected::from(&t).with(selection),
                };
                for cols in keys {
                    let want = tuple_hash_distinct(input, cols);
                    for (how, config) in configs() {
                        let mut stats = ExecStats::default();
                        let got = distinct(input, cols, &guard, &mut stats, &config).unwrap();
                        let got: Vec<Vec<Value>> = got.rows().collect();
                        let what = format!("n={n} run={run} {which} key={cols:?} {how}");
                        assert_eq!(got.len(), want.len(), "{what}");
                        for (g, w) in got.iter().zip(&want) {
                            assert!(g.iter().zip(w).all(|(g, w)| g.key_eq(w)), "{what}");
                        }
                        // The mode asked for is the mode that ran: a float
                        // key has no code, whatever the configuration.
                        let fuses = config.vector && !cols.contains(&2);
                        let by_loop = (stats.vectorized_kernel_rows, stats.scalar_kernel_rows);
                        let want = if fuses { (selected, 0) } else { (0, selected) };
                        assert_eq!(by_loop, want, "{what}");
                        // Two 2 000-value dimensions are past the dense
                        // budget; one narrow one is inside any but zero.
                        let dense = config.dense_budget > 0;
                        if fuses && n == 3000 && (cols == [3, 4] || cols == [0]) {
                            let wide = cols == [3, 4] || !dense;
                            assert_eq!(stats.hash_group_ops, u64::from(wide), "{what}");
                            assert_eq!(stats.dense_group_ops, u64::from(!wide), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_pass_is_charged_by_the_morsel_and_observes_the_guard() {
        let t = mixed(3000, 1);
        let config = ParallelConfig {
            morsel_rows: 100,
            ..ParallelConfig::serial()
        };
        let mut stats = ExecStats::default();
        let meter = ResourceGuard::counting();
        let out = distinct((&t).into(), &[0], &meter, &mut stats, &config).unwrap();
        assert_eq!(meter.rows_charged(), 3000 + out.num_rows() as u64);

        let tight = ResourceGuard::with_row_budget(250);
        let err = distinct((&t).into(), &[0], &tight, &mut stats, &config).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(tight.rows_charged(), 300, "stopped at the third morsel");

        let cancelled = ResourceGuard::counting();
        cancelled.cancel();
        let err = distinct((&t).into(), &[0], &cancelled, &mut stats, &config).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(cancelled.rows_charged(), 0);
    }
}
