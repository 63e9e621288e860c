//! Panic isolation and deadline determinism at the operator level.
//!
//! Every test that injects a panic arms its own [`PanicInjector`] on its
//! own guard, so the tests of this binary run side by side.

use pa_engine::chaos::{PanicInjector, CHAOS_PANIC_MSG};
use pa_engine::clock::TestClock;
use pa_engine::{
    hash_aggregate_with_config, AggFunc, AggSpec, Deadline, EngineError, ExecStats, Expr,
    ParallelConfig, ResourceGuard,
};
use pa_storage::{DataType, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// `n` rows over a few groups with deterministic values.
fn fixture(n: usize) -> Table {
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        t.push_row(&[Value::Int((i % 7) as i64), Value::Float((i % 11) as f64)])
            .unwrap();
    }
    t
}

fn specs(t: &Table) -> Vec<AggSpec> {
    let a = Expr::col(t.schema(), "a").unwrap();
    vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Count, a, "cnt"),
    ]
}

fn parallel_config(threads: usize, morsel_rows: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows,
        min_parallel_rows: 0,
        ..ParallelConfig::serial()
    }
}

fn aggregate(t: &Table, guard: &ResourceGuard, cfg: &ParallelConfig) -> Result<Table, EngineError> {
    hash_aggregate_with_config(t, &[0], &specs(t), guard, &mut ExecStats::default(), cfg)
}

/// An injector armed to fire at its `tick`-th charge, and a guard it rides.
fn armed(tick: u64, guard: ResourceGuard) -> (PanicInjector, ResourceGuard) {
    let chaos = PanicInjector::default();
    chaos.arm(tick);
    (chaos.clone(), guard.with_injector(chaos))
}

#[test]
fn worker_panic_is_caught_as_a_typed_error_and_the_operator_stays_usable() {
    let t = fixture(4096);
    let cfg = parallel_config(4, 256);
    // 16 morsels split over 4 workers: every scan charge happens on a
    // worker thread, so tick 3 panics inside a worker.
    let (chaos, guard) = armed(3, ResourceGuard::unlimited());
    let err = aggregate(&t, &guard, &cfg).unwrap_err();
    assert!(!chaos.is_armed(), "the injected panic fired");
    match &err {
        EngineError::WorkerPanicked { operator, payload } => {
            assert_eq!(operator, "multi_hash_aggregate");
            assert_eq!(payload, CHAOS_PANIC_MSG);
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The same inputs aggregate fine now: nothing was poisoned.
    let clean = aggregate(&t, &guard, &cfg).unwrap();
    assert_eq!(clean.num_rows(), 7);
}

#[test]
fn panicking_worker_cancels_its_siblings_guard() {
    let t = fixture(4096);
    let (_, guard) = armed(2, ResourceGuard::with_row_budget(u64::MAX));
    let err = aggregate(&t, &guard, &parallel_config(4, 256)).unwrap_err();
    assert!(matches!(err, EngineError::WorkerPanicked { .. }), "{err:?}");
    assert!(
        guard.is_cancelled(),
        "the catch block cancels the shared guard so siblings stop within a morsel"
    );
}

/// An injector belongs to the guards it rides: of two scans started side by
/// side, each sees exactly the panic armed for it — `early` in its first
/// scan, `late` (armed past the 16 morsel charges and the one finish charge
/// of a scan) not until its second, whatever `early` did meanwhile.
#[test]
fn concurrent_scans_each_see_exactly_their_own_panic() {
    let t = fixture(4096);
    let cfg = parallel_config(4, 256);
    let (early, early_guard) = armed(3, ResourceGuard::unlimited());
    let (late, late_guard) = armed(17 + 3, ResourceGuard::unlimited());
    let start = std::sync::Barrier::new(2);
    let scan_twice = |guard: &ResourceGuard| {
        start.wait();
        [aggregate(&t, guard, &cfg), aggregate(&t, guard, &cfg)]
    };
    let (first, second) = std::thread::scope(|s| {
        let (a, b) = (
            s.spawn(|| scan_twice(&early_guard)),
            s.spawn(|| scan_twice(&late_guard)),
        );
        (a.join().unwrap(), b.join().unwrap())
    });
    let injected = |r: &Result<Table, EngineError>| matches!(r, Err(EngineError::WorkerPanicked { payload, .. }) if payload == CHAOS_PANIC_MSG);
    assert!(injected(&first[0]) && first[1].is_ok(), "{first:?}");
    assert!(second[0].is_ok() && injected(&second[1]), "{second:?}");
    assert!(!early.is_armed() && !late.is_armed(), "once each");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wherever in the scan the panic lands, and whatever the worker
    /// count, the operator reports the typed error (never unwinding into
    /// the caller, never deadlocking) and works again immediately after.
    #[test]
    fn injected_panic_anywhere_in_the_scan_is_contained(
        tick in 0u64..16,
        threads in 2usize..5,
    ) {
        let t = fixture(4096);
        let cfg = parallel_config(threads, 256);
        // 16 scan morsels regardless of thread count, all charged on
        // worker threads; `tick` stays below 16 so the panic always fires
        // in a worker.
        let (chaos, guard) = armed(tick, ResourceGuard::unlimited());
        let err = aggregate(&t, &guard, &cfg).unwrap_err();
        chaos.disarm();
        prop_assert!(
            matches!(err, EngineError::WorkerPanicked { .. }),
            "tick {}: {:?}", tick, err
        );
        let clean = aggregate(&t, &guard, &cfg).unwrap();
        prop_assert_eq!(clean.num_rows(), 7);
    }

    /// Deadline determinism: with an injected clock ticking once per guard
    /// charge, the scan aborts at the same morsel boundary whatever the
    /// worker count — rows_charged at the trip is a pure function of the
    /// tick schedule, not of thread scheduling.
    #[test]
    fn deadline_aborts_at_the_same_morsel_boundary_across_thread_counts(
        allow_ticks in 1u64..14,
    ) {
        let t = fixture(4096);
        let mut charged_at_trip = Vec::new();
        for threads in [1usize, 2, 4] {
            // Each charge advances the clock 1ms; the allowance expires
            // after `allow_ticks` charges, independent of wall time.
            let clock = Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
            let guard = ResourceGuard::with_deadline(Deadline::with_clock(
                Duration::from_millis(allow_ticks),
                clock,
            ));
            let query = guard.per_query();
            let err = aggregate(&t, &query, &parallel_config(threads, 256)).unwrap_err();
            prop_assert!(
                matches!(err, EngineError::DeadlineExceeded { .. }),
                "threads {}: {:?}", threads, err
            );
            charged_at_trip.push(query.rows_charged());
        }
        prop_assert_eq!(charged_at_trip[0], charged_at_trip[1], "1 vs 2 threads");
        prop_assert_eq!(charged_at_trip[0], charged_at_trip[2], "1 vs 4 threads");
    }
}
