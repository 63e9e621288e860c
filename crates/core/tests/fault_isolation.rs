//! Query-level fault isolation: an injected panic, exhausted budget, or
//! expired deadline fails exactly one query with a typed error, leaves the
//! catalog and its log as they were, and leaves the engine serving
//! follow-ups.
//! Transient log-device errors are absorbed by the WAL retry policy;
//! permanent ones fail fast with the original typed error.

use pa_core::{
    CoreError, HorizontalOptions, HorizontalQuery, HorizontalStrategy, Materialization,
    ParallelConfig, PercentageEngine, QueryLimits, ResourceGuard, TestClock, VpctQuery,
    VpctStrategy,
};
use pa_engine::chaos::{PanicInjector, CHAOS_PANIC_MSG};
use pa_storage::{Catalog, FaultInjector, FaultPlan, MemLogStore, StorageError, Value, Wal};
use pa_workload::{install_sales, SalesConfig};
use std::sync::Arc;
use std::time::Duration;

const SQL: &str = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city;";
const CUBE_SQL: &str =
    "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY CUBE (state, city);";
const WHERE_SQL: &str =
    "SELECT state, Hpct(salesAmt BY city) FROM sales WHERE salesAmt > 10 GROUP BY state;";

fn sales_catalog(rows: usize) -> Catalog {
    let catalog = Catalog::without_wal();
    install_sales(&catalog, &SalesConfig { rows, seed: 7 }).unwrap();
    catalog
}

fn rows_of(outcome: &pa_core::SqlOutcome) -> Vec<Vec<Value>> {
    outcome.table().read().rows().collect()
}

/// An engine whose queries tick `chaos` at every guard charge.
fn engine_with<'c>(catalog: &'c Catalog, chaos: &PanicInjector) -> PercentageEngine<'c> {
    let guard = ResourceGuard::unlimited().with_injector(chaos.clone());
    PercentageEngine::new(catalog).with_guard(guard)
}

/// The deployment's configuration at 1024-row morsels: 32 guard
/// observations a pass of a 32 Ki-row table.
fn small_morsels() -> ParallelConfig {
    ParallelConfig {
        morsel_rows: 1024,
        ..ParallelConfig::from_env()
    }
}

#[test]
fn injected_panic_fails_one_query_and_the_engine_stays_usable() {
    let catalog = sales_catalog(2048);
    let chaos = PanicInjector::default();
    let engine = engine_with(&catalog, &chaos);
    let names_before = catalog.table_names();

    chaos.arm(0);
    let err = engine.execute_sql(SQL).unwrap_err();
    assert!(!chaos.is_armed(), "the injected panic fired");
    match &err {
        CoreError::WorkerPanicked { operator, payload } => {
            assert_eq!(operator, "execute_sql");
            assert_eq!(payload, CHAOS_PANIC_MSG);
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(err.abort_cause(), Some(pa_core::AbortCause::WorkerPanic));
    assert_eq!(
        catalog.table_names(),
        names_before,
        "the failed query registered nothing"
    );

    // The same engine instance serves the follow-up, and its answer matches
    // a fresh fault-free engine's.
    let after = engine.execute_sql(SQL).unwrap();
    let fresh_catalog = sales_catalog(2048);
    let fresh = PercentageEngine::new(&fresh_catalog)
        .execute_sql(SQL)
        .unwrap();
    assert_eq!(rows_of(&after), rows_of(&fresh));
    assert!(after.stats().rows_charged > 0, "work accounting survived");
}

/// Every plan of both families, fault-free and under each kind of abort:
/// the catalog holds the same names and its log the same records before
/// and after — a query's intermediates and result are values, so there is
/// nothing to leak. Only the `Update` plan, a logged in-place update of a
/// stored `Fk`, may add records; it too leaves no name behind, wherever it
/// is interrupted.
#[test]
fn failed_queries_never_leak_temp_tables() {
    let catalog = Catalog::new();
    install_sales(
        &catalog,
        &SalesConfig {
            rows: 1024,
            seed: 7,
        },
    )
    .unwrap();
    let names_before = catalog.table_names();

    let by_city = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
    // Global totals: the Update plan divides by a scalar, charging its
    // guard mid-update, so an injected panic can land inside the UPDATE.
    let global = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
    let hq = HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["city"]);
    type Plan<'p> = Box<dyn Fn(&PercentageEngine<'_>) -> Result<(), CoreError> + 'p>;
    let mut plans: Vec<(String, bool, Plan<'_>)> = Vec::new();
    for strat in [
        VpctStrategy::best(),
        VpctStrategy::without_index(),
        VpctStrategy::with_update(),
        VpctStrategy::fj_from_f(),
        VpctStrategy::synchronized(),
    ] {
        for q in [&by_city, &global] {
            let logs = strat.materialization == Materialization::Update;
            let label = format!("{strat:?} BY {:?}", q.terms[0].by);
            plans.push((
                label,
                logs,
                Box::new(move |e| e.vpct_with(q, &strat).map(drop)),
            ));
        }
    }
    for strategy in [
        HorizontalStrategy::CaseDirect,
        HorizontalStrategy::CaseFromFv,
        HorizontalStrategy::SpjDirect,
        HorizontalStrategy::SpjFromFv,
    ] {
        let opts = HorizontalOptions::with_strategy(strategy);
        let hq = &hq;
        plans.push((
            format!("{strategy:?}"),
            false,
            Box::new(move |e| e.horizontal_with(hq, &opts).map(drop)),
        ));
    }
    // The horizontal plans above find their combinations cached after their
    // first run; this one scans for them every time, so a panic can land at
    // every charge of the combinations pass as well.
    let (hq, sales) = (&hq, &catalog);
    plans.push((
        "cold Hpct".into(),
        false,
        Box::new(move |e| {
            sales.invalidate_combos("sales");
            let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);
            e.horizontal_with(hq, &opts).map(drop)
        }),
    ));
    plans.push((
        "lattice".into(),
        false,
        Box::new(|e| e.execute_sql(CUBE_SQL).map(drop)),
    ));
    plans.push((
        "where".into(),
        false,
        Box::new(|e| e.execute_sql(WHERE_SQL).map(drop)),
    ));

    for (label, logs, plan) in &plans {
        let check = |fault: &str, records_before: u64| {
            assert_eq!(catalog.table_names(), names_before, "{label} / {fault}");
            let records = catalog.wal_stats().records;
            if *logs {
                assert!(records >= records_before, "{label} / {fault}");
            } else {
                assert_eq!(records, records_before, "{label} / {fault}");
            }
        };
        let records = || catalog.wal_stats().records;

        let before = records();
        plan(&PercentageEngine::new(&catalog)).unwrap_or_else(|e| panic!("{label}: {e}"));
        check("ok", before);
        if *logs {
            assert!(records() > before, "{label}: the Update plan logs per row");
        }

        let before = records();
        let tight = PercentageEngine::new(&catalog).with_guard(ResourceGuard::with_row_budget(16));
        let err = plan(&tight).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{err:?}");
        check("budget", before);

        let before = records();
        let clock = Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
        let late = PercentageEngine::new(&catalog)
            .with_clock(clock)
            .with_deadline(Duration::ZERO);
        let err = plan(&late).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
        check("deadline", before);

        // A panic at every guard charge of the plan in turn, until one run
        // gets through with the trigger still armed.
        let mut interrupted_stored_fk = false;
        let chaos = PanicInjector::default();
        let engine = engine_with(&catalog, &chaos);
        for tick in 0.. {
            let before = records();
            chaos.arm(tick);
            let res = plan(&engine);
            if chaos.is_armed() {
                chaos.disarm();
                res.unwrap_or_else(|e| panic!("{label}: {e}"));
                break;
            }
            let err = res.unwrap_err();
            assert!(matches!(err, CoreError::WorkerPanicked { .. }), "{err:?}");
            check(&format!("panic at charge {tick}"), before);
            interrupted_stored_fk |= records() > before;
        }
        // Each Update plan, keyed or global, charges its guard after it
        // stored its Fk: the UPDATE is metered like every other statement.
        assert!(
            !*logs || interrupted_stored_fk,
            "{label}: some panic landed after the Update plan stored its Fk"
        );
    }

    // A parse failure registers and logs nothing either.
    let before = catalog.wal_stats().records;
    let engine = PercentageEngine::new(&catalog);
    assert!(engine.execute_sql("SELECT nonsense;").is_err());
    assert_eq!(catalog.table_names(), names_before);
    assert_eq!(catalog.wal_stats().records, before);
}

/// A plan that differs from the one the optimizer runs only in who builds
/// `parent`, or in scanning `F` again for `Fj`, charges its guard at least
/// the rows `best()` charges: the joins, the UPDATE and a global total's
/// divide are metered too. (The synchronized scan is left out: it reads
/// `F` once for `Fk` and every `Fj`, and folds nothing from `Fk`, so it
/// truly reads fewer rows.)
#[test]
fn every_vpct_plan_charges_at_least_the_best_plan() {
    let catalog = sales_catalog(20_000);
    for by in [&["state"][..], &[]] {
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", by);
        let charged = |strat: &VpctStrategy| {
            let engine = PercentageEngine::new(&catalog).with_guard(ResourceGuard::counting());
            engine.vpct_with(&q, strat).unwrap().stats.rows_charged
        };
        let best = charged(&VpctStrategy::best());
        assert!(best > 20_000, "BY {by:?}: {best}");
        for strat in [
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy {
                subkey_index: false,
                ..VpctStrategy::with_update()
            },
        ] {
            let rows = charged(&strat);
            assert!(rows >= best, "{strat:?} BY {by:?}: {rows} < best's {best}");
        }
    }
}

#[test]
fn deadline_is_enforced_on_the_engines_injected_clock() {
    let catalog = sales_catalog(1024);
    // Every guard charge advances the clock 1ms; a 0ms allowance expires at
    // the first morsel boundary, with no wall-clock time involved.
    let clock = Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
    let engine = PercentageEngine::new(&catalog)
        .with_clock(clock)
        .with_deadline(Duration::ZERO);
    let names_before = catalog.table_names();

    let err = engine.execute_sql(SQL).unwrap_err();
    match &err {
        CoreError::DeadlineExceeded {
            elapsed_ms,
            limit_ms,
        } => {
            assert!(elapsed_ms > limit_ms, "{elapsed_ms} vs {limit_ms}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(err.abort_cause(), Some(pa_core::AbortCause::Deadline));
    assert_eq!(catalog.table_names(), names_before);

    // A per-call limit relaxes the engine default: large allowance, query
    // runs to completion on the same ticking clock.
    let ok = engine
        .execute_sql_limited(
            SQL,
            QueryLimits {
                row_budget: None,
                deadline: Some(Duration::from_secs(3600)),
            },
        )
        .unwrap();
    assert!(ok.stats().rows_charged > 0);
}

/// `WHERE` is work under the statement's guard like any scan: its pass over
/// the table observes the deadline morsel by morsel, and the scans that
/// read the selection charge the rows they read, not the rows that
/// qualified. (When `WHERE` copied the table first, the copy took no guard:
/// neither limit could fire inside it, and a predicate few rows pass made a
/// statement over a large table look free.)
#[test]
fn where_observes_the_deadline_and_charges_the_rows_it_reads() {
    const ROWS: usize = 32 * 1024;
    let catalog = sales_catalog(ROWS);
    let engine = || PercentageEngine::new(&catalog).with_config(small_morsels());
    // No row qualifies: whatever is timed or charged is the table's, not
    // the selection's.
    let sql = "SELECT state, Hpct(salesAmt BY city) FROM sales \
               WHERE salesAmt > 1000000000 GROUP BY state;";

    // 32 morsels at 1 ms a guard observation against a 20 ms allowance: the
    // deadline expires inside the predicate's pass, two thirds through.
    let meter = ResourceGuard::counting();
    let clock = Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
    let late = engine()
        .with_guard(meter.clone())
        .with_clock(clock)
        .with_deadline(Duration::from_millis(20));
    let err = late.execute_sql(sql).unwrap_err();
    assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
    assert!(
        meter.rows_charged() < ROWS as u64,
        "stopped mid-table, charged {}",
        meter.rows_charged()
    );

    // A budget of half the table: the statement reads more than that.
    let tight = engine().with_guard(ResourceGuard::with_row_budget(ROWS as u64 / 2));
    let err = tight.execute_sql(sql).unwrap_err();
    assert!(
        matches!(err, CoreError::BudgetExceeded { budget, .. } if budget == ROWS as u64 / 2),
        "{err:?}"
    );

    // Unlimited, it charges what it read: the table once per scan.
    let free = engine();
    let out = free.execute_sql(sql).unwrap();
    assert!(out.stats().rows_charged >= ROWS as u64, "{}", out.stats());
    assert!(out.stats().rows_scanned >= ROWS as u64, "{}", out.stats());
    assert_eq!(out.table().read().num_rows(), 0);
}

/// The combinations step of a cold `Hpct` producer is a scan under the
/// statement's guard. (When `distinct` took no guard, the whole pass ran —
/// and stored its set in the combination cache — before the first charge
/// after it could notice an expired deadline or a cancellation, and its
/// rows were never charged.)
#[test]
fn the_combinations_pass_observes_the_guard_and_charges_the_rows_it_reads() {
    const ROWS: u64 = 32 * 1024;
    let catalog = sales_catalog(ROWS as usize);
    let engine = || PercentageEngine::new(&catalog).with_config(small_morsels());
    let sql = "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;";
    // The CASE producer by name: without a knob the statement is a lattice
    // request, which reads its combinations off its cell level.
    let (best, case) = (VpctStrategy::best(), HorizontalOptions::default());
    let run = |engine: &PercentageEngine<'_>| engine.execute_sql_with(sql, &best, &case);
    let cached = || catalog.combo_cache().stats().entries;

    // Already expired, already cancelled, and expiring two thirds through
    // the pass (32 morsels at 1 ms a guard observation): each fails typed,
    // inside the pass — no combination set was completed and stored.
    let ticking = || Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
    let stopped = ResourceGuard::counting();
    stopped.cancel();
    type Check = fn(&CoreError) -> bool;
    let faults: [(&str, PercentageEngine<'_>, Check); 3] = [
        (
            "expired",
            engine().with_clock(ticking()).with_deadline(Duration::ZERO),
            |e| matches!(e, CoreError::DeadlineExceeded { .. }),
        ),
        ("cancelled", engine().with_guard(stopped), |e| {
            matches!(e, CoreError::Cancelled)
        }),
        (
            "expiring mid-pass",
            engine()
                .with_clock(ticking())
                .with_deadline(Duration::from_millis(20)),
            |e| matches!(e, CoreError::DeadlineExceeded { .. }),
        ),
    ];
    for (fault, engine, typed) in &faults {
        let err = run(engine).unwrap_err();
        assert!(typed(&err), "{fault}: {err:?}");
        assert_eq!(cached(), 0, "{fault}: the pass did not run to completion");
    }

    // A row budget between one and two passes of the table: cold, the
    // statement reads the table twice (combinations, then the pivot) and
    // fails; warm, it reads it once and passes — a cold cache costs a scan
    // in the budget as on the clock, like a cold lattice level.
    let cold = run(&engine()).unwrap();
    assert_eq!(cached(), 1);
    catalog.invalidate_combos("sales");
    let budget = ROWS + ROWS / 2;
    let tight = engine().with_guard(ResourceGuard::with_row_budget(budget));
    let err = run(&tight).unwrap_err();
    assert!(
        matches!(err, CoreError::BudgetExceeded { budget: b, .. } if b == budget),
        "{err:?}"
    );
    // The pass itself fit the budget, so its set is there for the retry.
    assert_eq!(cached(), 1);
    let warm = run(&tight).unwrap();
    assert_eq!(rows_of(&warm), rows_of(&cold));
    let (cold, warm) = (cold.stats().rows_charged, warm.stats().rows_charged);
    assert_eq!(cold, warm + ROWS, "the miss charged the pass it ran");
}

#[test]
fn transient_log_errors_are_absorbed_by_retry() {
    // The very first append hits a transient device error; the WAL retry
    // policy absorbs it and the workload proceeds as if nothing happened.
    let store = FaultInjector::new(
        MemLogStore::new(),
        FaultPlan {
            error_on_op: Some(0),
            ..FaultPlan::default()
        },
    );
    let catalog = Catalog::from_wal(Wal::with_store(Box::new(store), 1 << 20));
    install_sales(&catalog, &SalesConfig { rows: 512, seed: 7 }).unwrap();

    let engine = PercentageEngine::new(&catalog);
    let outcome = engine.execute_sql(SQL).unwrap();
    assert!(outcome.table().read().num_rows() > 0);

    let stats = catalog.wal_stats();
    assert!(
        stats.retries >= 1,
        "the transient error was retried: {stats:?}"
    );
    assert_eq!(stats.write_errors, 0, "and absorbed, not surfaced");
}

#[test]
fn permanent_log_corruption_fails_fast_with_the_typed_error() {
    // Tear the log mid-write: the device goes offline and every later
    // operation fails permanently. The retry policy must NOT burn backoff
    // on it — permanent errors surface immediately, with their type intact.
    let store = FaultInjector::new(
        MemLogStore::new(),
        FaultPlan {
            torn_write_at: Some(64),
            ..FaultPlan::default()
        },
    );
    let catalog = Catalog::from_wal(Wal::with_store(Box::new(store), 1 << 20));

    // Catalog DDL deliberately absorbs log-device failures (the in-memory
    // state proceeds; the loss is counted) — so queries still run...
    install_sales(&catalog, &SalesConfig { rows: 512, seed: 7 }).unwrap();
    let engine = PercentageEngine::new(&catalog);
    engine.execute_sql(SQL).unwrap();
    let stats = catalog.wal_stats();
    assert!(
        stats.write_errors >= 1,
        "the dead device was noticed: {stats:?}"
    );
    assert_eq!(stats.retries, 0, "permanent errors are not retried");

    // ...but a data write reports the original typed error, and is refused
    // whole: the row it could not log is not in the table.
    let sales = catalog.table("sales").unwrap();
    let (rows, first) = {
        let t = sales.read();
        (t.num_rows(), t.row(0).unwrap())
    };
    let Err(CoreError::Storage(err)) = engine.append_rows("sales", &[first]) else {
        panic!("a write the dead device cannot log must fail");
    };
    assert_eq!(sales.read().num_rows(), rows, "nothing was appended");
    assert!(!err.is_transient(), "permanent, not retryable: {err:?}");
    let core_err = CoreError::from(err);
    assert_eq!(core_err.abort_cause(), Some(pa_core::AbortCause::Storage));
}

#[test]
fn guard_settings_and_work_accounting_surface_in_explain() {
    let catalog = sales_catalog(256);
    let engine = PercentageEngine::new(&catalog).with_deadline(Duration::from_millis(250));
    let plan = engine.explain_sql(SQL).unwrap();
    let guard_line = plan
        .iter()
        .find(|l| l.starts_with("-- guard:"))
        .expect("explain surfaces the guard configuration");
    assert!(guard_line.contains("deadline=250ms"), "{guard_line}");

    let outcome = engine
        .execute_sql_limited(SQL, QueryLimits::none())
        .unwrap();
    assert!(outcome.stats().rows_charged > 0);
    assert_eq!(outcome.stats().degraded_to, None);
    assert_eq!(outcome.stats().abort_cause, None);
}

#[test]
fn storage_error_promotion_is_lossless() {
    let e = StorageError::TransientIo("device hiccup".into());
    assert!(e.is_transient());
    let e = StorageError::Io("device on fire".into());
    assert!(!e.is_transient());
    let core_err = CoreError::from(e);
    assert!(matches!(
        &core_err,
        CoreError::Storage(StorageError::Io(msg)) if msg == "device on fire"
    ));
}
