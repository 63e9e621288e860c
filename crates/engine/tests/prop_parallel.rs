//! Determinism of morsel-parallel aggregation: for the kit's corner-value
//! tables (NULLs, dictionary-encoded strings, duplicate keys) the parallel
//! scan must produce output *identical* to the row-level reference over the
//! same worker chunks — same groups, same group order, same cell bits —
//! across worker counts {1, 2, 4, 7}.
//!
//! Inputs use integer-valued floats: those sums are exact under any
//! regrouping of additions, so "identical" here means byte-identical, not
//! within-epsilon (DESIGN.md §7 states the float caveat precisely).

use pa_engine::{
    hash_aggregate_with_config, multi_hash_aggregate_with_config, AggFunc, AggSpec, EngineError,
    ExecStats, Expr, ParallelConfig, ResourceGuard,
};
use pa_storage::{DataType, Schema, Table, Value};
use pa_testkit::compare::cells;
use pa_testkit::{gen, reference, Draw};
use proptest::prelude::*;

fn all_func_specs(t: &Table) -> Vec<AggSpec> {
    let a = Expr::col(t.schema(), "amt").unwrap();
    let s = Expr::col(t.schema(), "s").unwrap();
    vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Count, a.clone(), "cnt"),
        AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
        AggSpec::new(AggFunc::Min, a.clone(), "mn"),
        AggSpec::new(AggFunc::Max, a, "mx"),
        AggSpec::new(AggFunc::CountDistinct, s, "ds"),
    ]
}

/// Tiny morsels so even small random tables split across several workers.
fn config(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows: 16,
        min_parallel_rows: 0,
        ..ParallelConfig::serial()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One level and three levels, each the reference's over the same
    /// worker chunks — group order included — at every worker count.
    #[test]
    fn parallel_levels_are_the_references_in_group_order(seed in any::<u64>(), n in 0usize..300) {
        let t = gen::fact(&mut Draw::new(seed), n);
        let specs = all_func_specs(&t);
        let levels = vec![
            (vec![0usize, 3], specs.clone()),
            (vec![3], specs.clone()),
            (vec![], specs.clone()),
        ];
        let guard = ResourceGuard::unlimited();
        for threads in [1usize, 2, 4, 7] {
            let config = config(threads);
            let rows = reference::Rows::all(t.num_rows()).chunked(config.chunks(t.num_rows()));
            let want = |cols: &[usize]| reference::aggregate(&t, &rows, cols, &specs, config.percentile_budget);
            let mut stats = ExecStats::default();
            let one = hash_aggregate_with_config(&t, &[0, 3], &specs, &guard, &mut stats, &config).unwrap();
            prop_assert_eq!(cells(&one), cells(&want(&[0, 3])), "threads={}", threads);
            let all = multi_hash_aggregate_with_config(&t, &levels, &guard, &mut stats, &config).unwrap();
            for (level, (cols, _)) in all.iter().zip(&levels) {
                prop_assert_eq!(cells(level), cells(&want(cols)), "threads={} level {:?}", threads, cols);
            }
        }
    }
}

/// The satellite guarantee: cancelling the shared guard stops a parallel
/// scan mid-flight — every worker observes the cancel at its next morsel
/// boundary and the whole aggregation returns `Cancelled`.
#[test]
fn cancelling_mid_scan_stops_all_parallel_workers() {
    let n = 1 << 18;
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        t.push_row(&[Value::Int((i % 101) as i64), Value::Float((i % 13) as f64)])
            .unwrap();
    }
    let specs = all_func_specs_small(&t);
    let guard = ResourceGuard::with_row_budget(u64::MAX);
    let config = ParallelConfig {
        threads: 4,
        morsel_rows: 512,
        min_parallel_rows: 0,
        ..ParallelConfig::serial()
    };

    let result = std::thread::scope(|s| {
        // Poller: cancel as soon as any worker has charged its first morsel,
        // i.e. while the scan is genuinely mid-flight.
        let poller_guard = &guard;
        s.spawn(move || {
            while poller_guard.rows_charged() == 0 {
                std::thread::yield_now();
            }
            poller_guard.cancel();
        });
        hash_aggregate_with_config(&t, &[0], &specs, &guard, &mut ExecStats::default(), &config)
    });

    let err = result.expect_err("cancelled scan must not produce a result");
    assert!(matches!(err, EngineError::Cancelled), "{err}");
    assert!(
        guard.rows_charged() < n as u64,
        "scan stopped before charging the full input ({} of {n})",
        guard.rows_charged()
    );
}

fn all_func_specs_small(t: &Table) -> Vec<AggSpec> {
    let a = Expr::col(t.schema(), "a").unwrap();
    vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
        AggSpec::new(AggFunc::Min, a.clone(), "mn"),
        AggSpec::new(AggFunc::CountDistinct, a, "ds"),
    ]
}
