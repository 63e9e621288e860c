//! Functional tests for [`QueryService`]: admission, shedding, session
//! limits, typed failures, and the degradation ladder — all deterministic
//! (injected clocks and one-shot chaos panics, no timing assumptions).

use pa_core::{
    CoreError, HorizontalOptions, ParallelConfig, PercentageEngine, ResourceGuard, TestClock,
    Tracer, VpctStrategy,
};
use pa_engine::chaos::PanicInjector;
use pa_engine::{Clock, Degradation, SystemClock};
use pa_service::{QueryService, ServiceConfig, ServiceError, SessionOptions};
use pa_storage::{Catalog, Value};
use pa_workload::{install_sales, sales_table, SalesConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An engine whose queries — every rung of the ladder — tick `chaos` at
/// each guard charge.
fn engine_with<'c>(catalog: &'c Catalog, chaos: &PanicInjector) -> PercentageEngine<'c> {
    let guard = ResourceGuard::unlimited().with_injector(chaos.clone());
    PercentageEngine::new(catalog).with_guard(guard)
}

const VPCT: &str = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city;";
const HPCT: &str = "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state;";

fn sales_catalog(rows: usize) -> Catalog {
    let catalog = Catalog::without_wal();
    install_sales(&catalog, &SalesConfig { rows, seed: 11 }).unwrap();
    catalog
}

fn reference_rows(rows: usize, sql: &str) -> Vec<Vec<Value>> {
    let catalog = sales_catalog(rows);
    let out = PercentageEngine::new(&catalog).execute_sql(sql).unwrap();
    out.table().read().rows().collect()
}

#[test]
fn concurrent_sessions_match_the_plain_engine() {
    let rows = 2048;
    let want_v = reference_rows(rows, VPCT);
    let want_h = reference_rows(rows, HPCT);

    let catalog = sales_catalog(rows);
    let service = QueryService::new(&catalog, ServiceConfig::default());
    std::thread::scope(|s| {
        for worker in 0..4 {
            let (service, want_v, want_h) = (&service, &want_v, &want_h);
            s.spawn(move || {
                for round in 0..3 {
                    let (sql, want) = if (worker + round) % 2 == 0 {
                        (VPCT, want_v)
                    } else {
                        (HPCT, want_h)
                    };
                    let resp = service.execute_sql(sql).unwrap();
                    assert_eq!(&resp.table.rows().collect::<Vec<_>>(), want);
                    assert!(resp.stats.rows_charged > 0);
                }
            });
        }
    });
    assert_eq!(
        service.available_permits(),
        service.config().max_concurrent,
        "all permits returned"
    );
    assert_eq!(
        catalog.table_names(),
        vec!["sales".to_string()],
        "queries register nothing"
    );
}

/// A clock whose `now` blocks until the gate opens — holds a query (and its
/// admission permit) at a deterministic point with no sleeps.
#[derive(Debug)]
struct GateClock {
    open: Mutex<bool>,
    cv: Condvar,
}

impl GateClock {
    fn new() -> Arc<GateClock> {
        Arc::new(GateClock {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl Clock for GateClock {
    fn now(&self) -> Duration {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        Duration::ZERO
    }
}

#[test]
fn saturated_service_sheds_instead_of_piling_up() {
    let catalog = sales_catalog(512);
    let gate = GateClock::new();
    // The engine-level deadline makes every query read the clock when its
    // guard arms — which blocks on the gate, pinning the permit.
    let engine = PercentageEngine::new(&catalog)
        .with_clock(gate.clone())
        .with_deadline(Duration::from_secs(3600));
    let service = QueryService::from_engine(
        engine,
        ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 0,
            queue_timeout: Duration::from_millis(10),
            ..ServiceConfig::default()
        },
    );

    std::thread::scope(|s| {
        let held = s.spawn(|| service.execute_sql(VPCT));
        // Wait (without timing assumptions) until the held query owns the
        // only permit.
        while service.available_permits() != 0 {
            std::thread::yield_now();
        }
        // Queue capacity 0: the second caller is shed instantly, unqueued.
        match service.execute_sql(VPCT) {
            Err(ServiceError::Overloaded {
                queued,
                max_concurrent,
                retry_after,
                ..
            }) => {
                assert!(!queued, "shed at the door, not from the queue");
                assert_eq!(max_concurrent, 1);
                assert!(
                    retry_after > Duration::ZERO,
                    "shed callers always get a usable backoff hint"
                );
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        gate.open();
        let resp = held.join().unwrap().unwrap();
        assert!(resp.table.num_rows() > 0, "the held query completed");
    });
    assert_eq!(service.available_permits(), 1);
}

#[test]
fn queued_caller_is_shed_after_the_queue_timeout() {
    let catalog = sales_catalog(512);
    let gate = GateClock::new();
    let engine = PercentageEngine::new(&catalog)
        .with_clock(gate.clone())
        .with_deadline(Duration::from_secs(3600));
    let service = QueryService::from_engine(
        engine,
        ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 4,
            queue_timeout: Duration::from_millis(10),
            ..ServiceConfig::default()
        },
    );

    std::thread::scope(|s| {
        let held = s.spawn(|| service.execute_sql(VPCT));
        while service.available_permits() != 0 {
            std::thread::yield_now();
        }
        match service.execute_sql(VPCT) {
            Err(ServiceError::Overloaded { queued, .. }) => {
                assert!(queued, "waited in the queue before being shed")
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        gate.open();
        held.join().unwrap().unwrap();
    });
    assert_eq!(service.available_permits(), 1);
}

#[test]
fn session_budget_fails_typed_and_leaks_nothing() {
    // A logging catalog: the failed statement and every rung of the
    // degradation ladder it walked must leave the names and the log alone.
    let catalog = Catalog::new();
    install_sales(
        &catalog,
        &SalesConfig {
            rows: 1024,
            seed: 11,
        },
    )
    .unwrap();
    let service = QueryService::new(&catalog, ServiceConfig::default());
    let names_before = catalog.table_names();
    let records_before = catalog.wal_stats().records;

    let err = service
        .execute_sql_session(VPCT, &SessionOptions::with_row_budget(8))
        .unwrap_err();
    match err {
        ServiceError::Query(CoreError::BudgetExceeded { .. }) => {}
        other => panic!("expected a budget error, got {other:?}"),
    }
    assert_eq!(catalog.table_names(), names_before);
    assert_eq!(catalog.wal_stats().records, records_before);
    assert_eq!(
        service.available_permits(),
        service.config().max_concurrent,
        "the permit came back despite the failure"
    );

    // An unbudgeted session on the same service still works — and a
    // statement that succeeds logs nothing either.
    assert!(service.execute_sql(VPCT).is_ok());
    assert_eq!(catalog.table_names(), names_before);
    assert_eq!(catalog.wal_stats().records, records_before);
}

#[test]
fn session_deadline_is_final_not_degradable() {
    let catalog = sales_catalog(1024);
    // 1ms allowance against a clock that advances 1ms per guard charge:
    // the deadline trips deterministically, and — being a deadline — must
    // NOT trigger the degradation ladder (a retry cannot un-expire it).
    let clock = Arc::new(TestClock::with_auto_step(Duration::from_millis(1)));
    let engine = PercentageEngine::new(&catalog).with_clock(clock);
    let service = QueryService::from_engine(engine, ServiceConfig::default());

    let err = service
        .execute_sql_session(
            VPCT,
            &SessionOptions::with_deadline(Duration::from_millis(1)),
        )
        .unwrap_err();
    match err {
        ServiceError::Query(CoreError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert_eq!(service.available_permits(), service.config().max_concurrent);
}

#[test]
fn contained_panic_walks_the_ladder_and_records_it() {
    let catalog = sales_catalog(1024);
    let chaos = PanicInjector::default();
    let service =
        QueryService::from_engine(engine_with(&catalog, &chaos), ServiceConfig::default());
    let want = reference_rows(1024, VPCT);

    // The one-shot panic fails the first attempt; the serial retry runs
    // clean. The response records both what happened and what it cost.
    chaos.arm(0);
    let resp = service.execute_sql(VPCT).unwrap();
    assert!(!chaos.is_armed(), "the injected panic fired");
    assert_eq!(resp.stats.degraded_to, Some(Degradation::Serial));
    assert_eq!(
        resp.stats.abort_cause,
        Some(pa_engine::AbortCause::WorkerPanic)
    );
    assert_eq!(resp.table.rows().collect::<Vec<_>>(), want);
    assert_eq!(
        catalog.table_names(),
        vec!["sales".to_string()],
        "neither the failed nor the degraded attempt registered a table"
    );
}

/// The serial rung is serial for every family: a `Vpct` whose four-thread
/// scan lost a worker is retried at one thread — the trace shows the failed
/// attempt's scan with its four workers, then the retry's with none — and
/// answers with the fault-free bytes.
#[test]
fn a_worker_panic_in_a_parallel_vpct_is_retried_at_one_thread() {
    let rows = 2048;
    let catalog = sales_catalog(rows);
    let (chaos, tracer) = (
        PanicInjector::default(),
        Tracer::enabled(SystemClock::shared()),
    );
    let engine = engine_with(&catalog, &chaos).with_config(ParallelConfig {
        threads: 4,
        morsel_rows: 256,
        min_parallel_rows: 1,
        ..ParallelConfig::serial()
    });
    let traced = engine.guard().clone().with_tracer(tracer.clone());
    let service = QueryService::from_engine(engine.with_guard(traced), ServiceConfig::default());

    // Eight morsels over four workers: every charge of the scan, so the
    // second one too, is made by a worker.
    chaos.arm(1);
    let resp = service.execute_sql(VPCT).unwrap();
    assert!(!chaos.is_armed(), "the injected panic fired");
    assert_eq!(resp.stats.degraded_to, Some(Degradation::Serial));
    assert_eq!(
        resp.stats.abort_cause,
        Some(pa_engine::AbortCause::WorkerPanic)
    );
    assert_eq!(
        resp.table.rows().collect::<Vec<_>>(),
        reference_rows(rows, VPCT)
    );

    let report = tracer.take_report();
    let scans: Vec<_> = report
        .spans()
        .iter()
        .filter(|s| s.label == "lattice")
        .collect();
    let workers = |scan: &pa_engine::SpanRecord| {
        let children = report.children(scan.id);
        children.filter(|s| s.label == "worker").count()
    };
    assert_eq!(scans.len(), 2, "the failed attempt's scan and the retry's");
    assert_eq!((workers(scans[0]), workers(scans[1])), (4, 0));
}

/// A clock that arms the chaos panic while it has shots left: the engine
/// reads its clock when an attempt's deadline is set, on the query's own
/// thread and before the attempt charges anything, so with two shots the
/// first attempt and the serial rung each meet one panic at their first
/// morsel and the SPJ rung runs clean — the ladder's last rung, forced
/// without a race.
#[derive(Debug)]
struct PanicPerAttempt(AtomicUsize, PanicInjector);

impl Clock for PanicPerAttempt {
    fn now(&self) -> Duration {
        if !self.1.is_armed() && self.0.load(Ordering::SeqCst) > 0 {
            self.0.fetch_sub(1, Ordering::SeqCst);
            self.1.arm(0);
        }
        Duration::ZERO
    }
}

fn bits(rows: &[Vec<Value>]) -> Vec<Vec<Result<u64, Value>>> {
    let cell = |v: &Value| match v {
        Value::Float(x) => Ok(x.to_bits()),
        other => Err(other.clone()),
    };
    rows.iter()
        .map(|row| row.iter().map(cell).collect())
        .collect()
}

#[test]
fn the_spj_rung_answers_with_the_clean_pivots_bits() {
    // `install_sales`'s fractional amounts, and the same rows in whole
    // cents: the measure whose totals the pivot folds through `parent`.
    let fractional = sales_table(&SalesConfig {
        rows: 2048,
        seed: 11,
    });
    let mut cents = fractional.clone();
    let amt = cents.schema().index_of("salesAmt").unwrap();
    for row in 0..cents.num_rows() {
        let whole = (cents.column(amt).get_f64(row).unwrap() * 100.0).round();
        cents.column_mut(amt).set(row, Value::Float(whole)).unwrap();
    }
    assert_eq!(fractional.integral_bound(amt), None);
    assert!(cents.integral_bound(amt).is_some());

    for (what, table, levels) in [("fractional", fractional, 2), ("whole cents", cents, 1)] {
        let catalog = Catalog::without_wal();
        catalog.create_table("sales", table).unwrap();
        // The CASE producer by name: a knob-less statement over whole
        // cents is a lattice request, which answers in key order.
        let clean = PercentageEngine::new(&catalog);
        let (best, case) = (VpctStrategy::best(), HorizontalOptions::default());
        clean.execute_sql_with(HPCT, &best, &case).unwrap(); // fills the combination cache
        let pivot = clean.execute_sql_with(HPCT, &best, &case).unwrap();
        let scanned = pivot.stats().dense_group_ops + pivot.stats().hash_group_ops;
        assert_eq!(
            scanned, levels,
            "{what}: the cell level, and the GROUP BY level only for a total that cannot fold"
        );
        let want: Vec<Vec<Value>> = pivot.table().read().rows().collect();
        let knobless = clean
            .execute_sql(HPCT)
            .unwrap()
            .table()
            .read()
            .sorted_by(&[0]);
        let sorted = pivot.table().read().sorted_by(&[0]);
        assert_eq!(
            bits(&knobless.rows().collect::<Vec<_>>()),
            bits(&sorted.rows().collect::<Vec<_>>()),
            "{what}"
        );

        let chaos = PanicInjector::default();
        let clock = Arc::new(PanicPerAttempt(AtomicUsize::new(2), chaos.clone()));
        let engine = engine_with(&catalog, &chaos).with_clock(clock.clone());
        let service = QueryService::from_engine(engine, ServiceConfig::default());
        let session = SessionOptions::with_deadline(Duration::from_secs(3600));
        let resp = service.execute_sql_session(HPCT, &session).unwrap();
        assert!(!chaos.is_armed() && clock.0.load(Ordering::SeqCst) == 0);
        assert_eq!(
            resp.stats.degraded_to,
            Some(Degradation::SerialThenSpj),
            "{what}"
        );
        let got: Vec<Vec<Value>> = resp.table.rows().collect();
        assert_eq!(
            bits(&got),
            bits(&want),
            "{what}: SPJ's row-order totals, bit for bit"
        );
    }
}

/// The statement is planned once for the whole ladder: the serial and SPJ
/// rungs run on clones of the service's engine, which share its plans, so
/// each rung finds the text's plan the first attempt made.
#[test]
fn every_rung_of_the_ladder_reuses_the_statements_plan() {
    let catalog = sales_catalog(1024);
    let chaos = PanicInjector::default();
    let clock = Arc::new(PanicPerAttempt(AtomicUsize::new(2), chaos.clone()));
    let engine = engine_with(&catalog, &chaos).with_clock(clock.clone());
    let service = QueryService::from_engine(engine, ServiceConfig::default());
    let session = SessionOptions::with_deadline(Duration::from_secs(3600));
    let resp = service.execute_sql_session(HPCT, &session).unwrap();
    assert_eq!(resp.stats.degraded_to, Some(Degradation::SerialThenSpj));
    let plans = service.engine().plan_cache_stats();
    assert_eq!((plans.misses, plans.hits, plans.entries), (1, 2, 1));

    // A one-rung walk of another statement: one more miss, one more hit.
    chaos.arm(0);
    let resp = service.execute_sql(VPCT).unwrap();
    assert_eq!(resp.stats.degraded_to, Some(Degradation::Serial));
    let plans = service.engine().plan_cache_stats();
    assert_eq!((plans.misses, plans.hits, plans.entries), (2, 3, 2));
}

#[test]
fn degradation_can_be_disabled() {
    let catalog = sales_catalog(512);
    let chaos = PanicInjector::default();
    let service = QueryService::from_engine(
        engine_with(&catalog, &chaos),
        ServiceConfig {
            degradation: false,
            ..ServiceConfig::default()
        },
    );

    chaos.arm(0);
    let err = service.execute_sql(VPCT).unwrap_err();
    assert!(!chaos.is_armed());
    match err {
        ServiceError::Query(CoreError::WorkerPanicked { .. }) => {}
        other => panic!("expected the first failure verbatim, got {other:?}"),
    }
    assert_eq!(service.available_permits(), service.config().max_concurrent);
}

#[test]
fn typed_vertical_and_horizontal_entry_points_serve() {
    let catalog = sales_catalog(512);
    let service = QueryService::new(&catalog, ServiceConfig::default());

    let v = pa_core::VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
    let resp = service.vpct(&v).unwrap();
    assert!(resp.table.num_rows() > 0);
    assert!(resp.stats.rows_charged > 0);

    let h = pa_core::HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["dweek"]);
    let resp = service.horizontal(&h).unwrap();
    assert!(resp.table.num_rows() > 0);
    assert_eq!(resp.stats.degraded_to, None);
}

#[test]
fn percentage_batch_answers_every_prefix_in_one_pass() {
    let rows = 1024;
    let dims = ["state", "city"];
    let catalog = sales_catalog(rows);
    let service = QueryService::new(&catalog, ServiceConfig::default());

    let responses = service
        .percentage_batch("sales", &dims, "salesAmt")
        .unwrap();
    assert_eq!(responses.len(), dims.len());

    // Response j must match the equivalent standalone query: percentages
    // of each (state, city) group against the totals at prefix dims[..j].
    let reference_catalog = sales_catalog(rows);
    let reference = PercentageEngine::new(&reference_catalog);
    for (j, resp) in responses.iter().enumerate() {
        let q = pa_core::VpctQuery {
            table: "sales".to_string(),
            group_by: dims.iter().map(|d| d.to_string()).collect(),
            terms: vec![pa_core::VpctTerm::new("salesAmt", &dims[j..])],
            extra: Vec::new(),
        };
        let want: Vec<Vec<Value>> = reference
            .vpct(&q)
            .unwrap()
            .snapshot()
            .sorted_by(&[0, 1])
            .rows()
            .collect();
        let got: Vec<Vec<Value>> = resp.table.sorted_by(&[0, 1]).rows().collect();
        // The batch re-derives coarse totals from the finest level's
        // partials (a sum of per-group sums), so float totals can differ
        // from the standalone row-order sum by association — compare keys
        // exactly and percentages within a tight relative tolerance.
        assert_eq!(got.len(), want.len(), "prefix {j} row count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g[..2], w[..2], "prefix {j} keys diverged");
            match (&g[2], &w[2]) {
                (Value::Float(a), Value::Float(b)) => {
                    assert!(
                        (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                        "prefix {j}: {a} vs {b}"
                    )
                }
                other => panic!("expected float percentages, got {other:?}"),
            }
        }
    }

    // The shared pass is metered once, on the first response; the batch
    // held a single admission slot and registered nothing.
    assert!(responses[0].stats.rows_charged > 0);
    assert_eq!(service.available_permits(), service.config().max_concurrent);
    assert_eq!(catalog.table_names(), vec!["sales".to_string()]);

    match service
        .percentage_batch("sales", &[], "salesAmt")
        .unwrap_err()
    {
        ServiceError::Query(CoreError::InvalidQuery(_)) => {}
        other => panic!("expected InvalidQuery for empty dims, got {other:?}"),
    }
}

#[test]
fn metrics_registry_mirrors_admissions_sheds_and_work() {
    let catalog = sales_catalog(512);
    let gate = GateClock::new();
    let engine = PercentageEngine::new(&catalog)
        .with_clock(gate.clone())
        .with_deadline(Duration::from_secs(3600));
    let service = QueryService::from_engine(
        engine,
        ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 0,
            queue_timeout: Duration::from_millis(10),
            ..ServiceConfig::default()
        },
    );

    std::thread::scope(|s| {
        let held = s.spawn(|| service.execute_sql(VPCT));
        // The in-flight gauge reads 1 once the held query owns the permit
        // (spin on the metric itself: the gauge increments just after the
        // permit is taken).
        while !service.render_metrics().contains("pa_service_inflight 1") {
            std::thread::yield_now();
        }
        // Queue capacity 0: the second caller is shed at the door.
        match service.execute_sql(VPCT) {
            Err(ServiceError::Overloaded { queued, .. }) => assert!(!queued),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        gate.open();
        let resp = held.join().unwrap().unwrap();

        // One rule violation: admitted, fails, counted as a failure.
        service
            .execute_sql("SELECT Vpct(salesAmt BY city) FROM sales")
            .unwrap_err();

        let text = service.render_metrics();
        assert!(
            text.contains("# TYPE pa_service_queries_total counter"),
            "{text}"
        );
        // The shed arrival never passed admission: 2 queries, not 3.
        assert!(text.contains("pa_service_queries_total 2"), "{text}");
        assert!(text.contains("pa_service_failures_total 1"), "{text}");
        assert!(
            text.contains("pa_service_shed_total{reason=\"queue_full\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pa_service_shed_total{reason=\"timeout\"} 0"),
            "{text}"
        );
        assert!(text.contains("pa_service_inflight 0"), "{text}");
        assert!(
            text.contains("pa_service_queue_wait_nanoseconds_count 2"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "pa_service_rows_charged_total {}",
                resp.stats.rows_charged
            )),
            "{text}"
        );
        assert!(
            text.contains("pa_service_degraded_total{rung=\"serial\"} 0"),
            "{text}"
        );
    });
    assert_eq!(service.available_permits(), 1);
}

#[test]
fn degradation_rungs_are_counted_in_metrics() {
    let catalog = sales_catalog(512);
    let chaos = PanicInjector::default();
    let service =
        QueryService::from_engine(engine_with(&catalog, &chaos), ServiceConfig::default());

    chaos.arm(0);
    let resp = service.execute_sql(VPCT).unwrap();
    assert_eq!(resp.stats.degraded_to, Some(Degradation::Serial));
    let text = service.render_metrics();
    assert!(
        text.contains("pa_service_degraded_total{rung=\"serial\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("pa_service_degraded_total{rung=\"serial_then_spj\"} 0"),
        "{text}"
    );
}
