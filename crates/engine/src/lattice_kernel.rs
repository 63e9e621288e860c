//! Fused one-scan dimension-lattice aggregation (DESIGN.md §15).
//!
//! The per-level evaluator reads the fact table once per grouping level;
//! this adapter reads it **once, period**: it plans *one* code stream over
//! the finest key and one projected level per requested lattice level on
//! the scan core (`crate::scan`, DESIGN.md "Scan core"), so a block's
//! finest codes are computed once and every level — a radix jump-table
//! load within the dense budget, mask-and-shift arithmetic past it —
//! scatters from them. The RLE fast path projects once per run per level.
//!
//! Each level's merged groups become one [`ShardPartial`], which callers
//! finalize into the key-sorted table the lattice cache keeps (DESIGN.md
//! §15). Plans the core cannot fuse return `None` and callers fall back to
//! per-level aggregation.

use crate::error::{EngineError, Result};
use crate::guard::ResourceGuard;
use crate::ops::aggregate::{check_level, AggSpec};
use crate::ops::partial::ShardPartial;
use crate::parallel::ParallelConfig;
use crate::predicate::Selected;
use crate::scan::ScanPlan;
use crate::stats::ExecStats;
use pa_storage::Table;

/// Aggregate `aggs` at **every** lattice level of `levels` in one fused
/// scan over the selected rows of `input`.
///
/// `group_cols` are the finest key columns; each level is a non-empty,
/// strictly increasing list of positions into `group_cols` (the dimensions
/// that level keeps). Returns one [`ShardPartial`] per level, in `levels`
/// order — callers [`finalize`](ShardPartial::finalize) them into key-sorted
/// tables (what the lattice cache keeps) and re-aggregate coarser levels
/// from those.
///
/// Returns `Ok(None)` when the plan is ineligible for the fused kernel
/// (vectorization disabled, non-fusable or holistic lanes, uncodable key
/// dimensions): callers fall back to per-level aggregation. Malformed
/// inputs (out-of-range columns, empty aggregate lists, non-subset levels)
/// are errors, not fallbacks.
pub fn lattice_aggregate(
    input: Selected<'_>,
    group_cols: &[usize],
    aggs: &[AggSpec],
    levels: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Option<Vec<ShardPartial>>> {
    let table = input.table;
    check_level(table, group_cols, aggs)?;
    for dims in levels {
        let ordered = dims.windows(2).all(|w| w[0] < w[1]);
        if dims.is_empty() || !ordered || dims.iter().any(|&d| d >= group_cols.len()) {
            return Err(EngineError::InvalidOperator(format!(
                "lattice level {dims:?} is not a non-empty ordered subset of \
                 the {} key dimensions",
                group_cols.len()
            )));
        }
    }
    // Holistic lanes are still refused, though the core fuses them: the
    // refusal dates from a `LatticeCache` of unbounded serialized partials
    // (an exact-percentile partial *is* the value set). The cache now
    // keeps finalized values under a byte bound; lifting this is ROADMAP
    // item 2's to measure.
    if group_cols.is_empty() || levels.is_empty() || aggs.iter().any(|s| s.func.is_holistic()) {
        return Ok(None);
    }
    let mut plan = ScanPlan::new(input, config);
    // One list of lanes, once per level.
    let keeps: Vec<(&[usize], &[AggSpec])> = levels.iter().map(|keep| (&keep[..], aggs)).collect();
    let Some(tier) = plan.push_stream(group_cols, &keeps, stats) else {
        return Ok(None);
    };

    stats.statements += 1;
    guard.check()?;
    stats.rows_scanned += table.num_rows() as u64;
    let mut span = guard.span("lattice");
    span.set_detail(tier);
    let groups = plan.run("lattice_aggregate", guard, &mut span, stats)?;

    let out_rows: u64 = groups.iter().map(|g| g.len() as u64).sum();
    guard.charge(out_rows)?;
    span.add_rows(out_rows);
    // Levels with zero groups still carry the declared shape; callers
    // finalize them into empty tables.
    Ok(Some(
        groups
            .into_iter()
            .zip(levels)
            .map(|(g, keep)| ShardPartial::from_parts(table, group_cols, keep, aggs, g))
            .collect(),
    ))
}

/// [`lattice_aggregate`] of a whole table.
pub fn lattice_aggregate_with_config(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    levels: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Option<Vec<ShardPartial>>> {
    lattice_aggregate(input.into(), group_cols, aggs, levels, guard, stats, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::aggregate::{multi_hash_aggregate_with_config, AggFunc};
    use pa_storage::{DataType, Schema, Value};

    /// Four enumerable dimensions plus a float measure, with NULLs in the
    /// keys and the measure. Integer-valued floats keep worker-subtotal
    /// merges bit-exact, matching the repo's byte-identity discipline.
    fn fact(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Str),
            ("day", DataType::Int),
            ("region", DataType::Str),
            ("month", DataType::Int),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::with_capacity(schema, n);
        for i in 0..n {
            let row = [
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", (i * 7919) % 5))
                },
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 7) as i64)
                },
                Value::str(format!("r{}", (i * 31) % 3)),
                Value::Int((i % 12) as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 100) as f64)
                },
            ];
            t.push_row(&row).unwrap();
        }
        t
    }

    fn specs(t: &Table) -> Vec<AggSpec> {
        let a = Expr::col(t.schema(), "amt").unwrap();
        vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "s"),
            AggSpec::new(AggFunc::Count, a, "c"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        ]
    }

    fn cfg(threads: usize, dense_budget: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            morsel_rows: 256,
            min_parallel_rows: 0,
            dense_budget,
            ..ParallelConfig::serial()
        }
    }

    /// All BY-prefixes of (store, day, region, month), plus one
    /// incomparable level.
    fn prefix_levels() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            vec![0, 1],
            vec![0],
            vec![1, 3],
        ]
    }

    fn assert_matches_reference(threads: usize, dense_budget: usize) {
        let t = fact(10_000);
        let aggs = specs(&t);
        let levels = prefix_levels();
        let config = cfg(threads, dense_budget);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &levels,
            &ResourceGuard::unlimited(),
            &mut st,
            &config,
        )
        .unwrap()
        .expect("eligible plan fuses");
        assert_eq!(st.rows_scanned, 10_000, "one scan for all levels");
        assert_eq!(st.vectorized_kernel_rows, 10_000);
        // Reference: independent per-level aggregation (serial, scalar
        // ordering), finalized sorted by key on both sides.
        let ref_levels: Vec<(Vec<usize>, Vec<AggSpec>)> = levels
            .iter()
            .map(|dims| {
                (
                    dims.iter().map(|&d| [0, 1, 2, 3][d]).collect(),
                    aggs.clone(),
                )
            })
            .collect();
        let mut ref_st = ExecStats::default();
        let reference = multi_hash_aggregate_with_config(
            &t,
            &ref_levels,
            &ResourceGuard::unlimited(),
            &mut ref_st,
            &ParallelConfig::serial(),
        )
        .unwrap();
        for ((partial, reference), dims) in partials.into_iter().zip(reference).zip(&levels) {
            let fused = partial.finalize(&mut st).unwrap();
            let sort_cols: Vec<usize> = (0..dims.len()).collect();
            let reference = reference.sorted_by(&sort_cols);
            let a: Vec<Vec<Value>> = fused.rows().collect();
            let b: Vec<Vec<Value>> = reference.rows().collect();
            assert_eq!(a.len(), b.len(), "level {dims:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "level {dims:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_dense() {
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1 << 20);
        }
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_wide() {
        // A one-code budget refuses the dense space; the wide path takes
        // over and must produce the same bytes.
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1);
        }
    }

    #[test]
    fn serialized_partials_round_trip_per_level() {
        let t = fact(2_000);
        let aggs = specs(&t);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &[vec![0, 1], vec![2]],
            &ResourceGuard::unlimited(),
            &mut st,
            &cfg(1, 1 << 20),
        )
        .unwrap()
        .unwrap();
        for p in partials {
            let bytes = p.serialize();
            let back = ShardPartial::deserialize(&bytes).unwrap();
            assert_eq!(back.serialize(), bytes, "canonical bytes");
            let a: Vec<Vec<Value>> = p.finalize(&mut st).unwrap().rows().collect();
            let b: Vec<Vec<Value>> = back.finalize(&mut st).unwrap().rows().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ineligible_plans_fall_back() {
        let t = fact(100);
        let aggs = specs(&t);
        let guard = ResourceGuard::unlimited();
        // Vectorization disabled.
        let off = ParallelConfig {
            vector: false,
            ..cfg(1, 1 << 20)
        };
        let mut st = ExecStats::default();
        assert!(lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &aggs,
            &[vec![0]],
            &guard,
            &mut st,
            &off
        )
        .unwrap()
        .is_none());
        // Non-fusable lane (min).
        let min = vec![AggSpec::new(
            AggFunc::Min,
            Expr::col(t.schema(), "amt").unwrap(),
            "m",
        )];
        assert!(lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &min,
            &[vec![0]],
            &guard,
            &mut st,
            &cfg(1, 1 << 20)
        )
        .unwrap()
        .is_none());
        // Float key dimension: neither code space builds.
        assert!(lattice_aggregate_with_config(
            &t,
            &[4],
            &aggs,
            &[vec![0]],
            &guard,
            &mut st,
            &cfg(1, 1 << 20)
        )
        .unwrap()
        .is_none());
        // Malformed level (not a subset) is an error, not a fallback.
        assert!(lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &aggs,
            &[vec![2]],
            &guard,
            &mut st,
            &cfg(1, 1 << 20)
        )
        .is_err());
        // Unordered level is an error too.
        assert!(lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &aggs,
            &[vec![1, 0]],
            &guard,
            &mut st,
            &cfg(1, 1 << 20)
        )
        .is_err());
    }

    #[test]
    fn guard_budget_and_cancellation_stop_the_fused_scan() {
        let t = fact(20_000);
        let aggs = specs(&t);
        let guard = ResourceGuard::with_row_budget(1_000);
        let mut st = ExecStats::default();
        let err = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &prefix_levels(),
            &guard,
            &mut st,
            &cfg(4, 1 << 20),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");

        let guard = ResourceGuard::with_row_budget(u64::MAX);
        guard.cancel();
        let err = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &prefix_levels(),
            &guard,
            &mut st,
            &cfg(4, 1 << 20),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(guard.rows_charged(), 0, "no morsel was admitted");
    }

    #[test]
    fn empty_input_yields_empty_levels() {
        let t = fact(0);
        let aggs = specs(&t);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &aggs,
            &[vec![0], vec![0, 1]],
            &ResourceGuard::unlimited(),
            &mut st,
            &cfg(1, 1 << 20),
        )
        .unwrap()
        .unwrap();
        for p in &partials {
            assert_eq!(p.num_groups(), 0);
        }
    }
}
