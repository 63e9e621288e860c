//! Seed-driven chaos test: a mixed workload from four threads against one
//! service, with panics, budgets, and zero deadlines injected at
//! seed-chosen points. Whatever the interleaving:
//!
//! * the harness never sees an unwinding panic and never deadlocks,
//! * every failure is a typed [`ServiceError`] with a classified cause,
//! * every success is byte-identical to the fault-free serial run,
//! * no admission permit leaks and no query registers a table, and
//! * the same service instance serves clean follow-ups afterwards.

use pa_core::{PercentageEngine, ResourceGuard, VpctQuery};
use pa_engine::chaos::PanicInjector;
use pa_service::{QueryService, ServiceConfig, ServiceError, SessionOptions};
use pa_storage::{Catalog, Value};
use pa_workload::{install_sales, SalesConfig};
use proptest::prelude::*;
use std::time::Duration;

const ROWS: usize = 1024;
const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 4;

const VPCT_SQL: &str =
    "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city;";
const HPCT_SQL: &str = "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state;";

fn typed_vpct() -> VpctQuery {
    VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"])
}

fn sales_catalog() -> Catalog {
    let catalog = Catalog::without_wal();
    install_sales(
        &catalog,
        &SalesConfig {
            rows: ROWS,
            seed: 3,
        },
    )
    .unwrap();
    catalog
}

/// Fault-free serial reference for each of the three query kinds.
fn references() -> Vec<Vec<Vec<Value>>> {
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    let sql = |s: &str| -> Vec<Vec<Value>> {
        engine
            .execute_sql(s)
            .unwrap()
            .table()
            .read()
            .rows()
            .collect()
    };
    let typed: Vec<Vec<Value>> = engine
        .vpct(&typed_vpct())
        .unwrap()
        .snapshot()
        .rows()
        .collect();
    vec![sql(VPCT_SQL), sql(HPCT_SQL), typed]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mixed_workload_with_injected_faults_never_corrupts_the_service(seed in any::<u64>()) {
        let want = references();
        let catalog = sales_catalog();
        let config = ServiceConfig {
            max_concurrent: 2,
            queue_capacity: THREADS * OPS_PER_THREAD,
            queue_timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        };
        // One injector on the service's engine: whichever of its queries
        // charges next after a worker arms it takes the panic.
        let chaos = PanicInjector::default();
        let guard = ResourceGuard::unlimited().with_injector(chaos.clone());
        let engine = PercentageEngine::new(&catalog).with_guard(guard);
        let service = QueryService::from_engine(engine, config);

        std::thread::scope(|s| {
            for worker in 0..THREADS {
                let (service, want, chaos) = (&service, &want, &chaos);
                let mut rng = seed ^ (worker as u64).wrapping_mul(0x9e37_79b9);
                s.spawn(move || {
                    for _ in 0..OPS_PER_THREAD {
                        let kind = (splitmix64(&mut rng) % 3) as usize;
                        // 0: clean, 1: chaos panic, 2: tiny budget,
                        // 3: zero deadline.
                        let fault = splitmix64(&mut rng) % 4;
                        let mut session = SessionOptions::default();
                        match fault {
                            1 => chaos.arm(splitmix64(&mut rng) % 8),
                            2 => session = SessionOptions::with_row_budget(8),
                            3 => session = SessionOptions::with_deadline(Duration::ZERO),
                            _ => {}
                        }
                        let outcome = match kind {
                            0 => service.execute_sql_session(VPCT_SQL, &session),
                            1 => service.execute_sql_session(HPCT_SQL, &session),
                            _ => service.vpct_session(&typed_vpct(), &session),
                        };
                        match outcome {
                            // Successes must be exactly the fault-free
                            // serial answer, whoever else was injecting
                            // faults meanwhile.
                            Ok(resp) => assert_eq!(
                                resp.table.rows().collect::<Vec<_>>(),
                                want[kind],
                                "seed {seed} worker {worker}"
                            ),
                            // Failures must be typed and classified; an
                            // un-classified error would mean a fault
                            // escaped the containment boundary.
                            Err(ServiceError::Query(e)) => assert!(
                                e.abort_cause().is_some(),
                                "seed {seed}: unclassified {e:?}"
                            ),
                            Err(ServiceError::Overloaded { .. }) => {}
                        }
                    }
                });
            }
        });
        chaos.disarm(); // a leftover armed tick must not fail the follow-ups

        // No leaks: every permit returned, no table registered.
        prop_assert_eq!(service.available_permits(), config.max_concurrent);
        prop_assert_eq!(catalog.table_names(), vec!["sales".to_string()]);

        // The survivor still serves every query kind, exactly.
        let clean = service.execute_sql(VPCT_SQL).unwrap();
        prop_assert_eq!(&clean.table.rows().collect::<Vec<_>>(), &want[0]);
        let clean = service.execute_sql(HPCT_SQL).unwrap();
        prop_assert_eq!(&clean.table.rows().collect::<Vec<_>>(), &want[1]);
        let clean = service.vpct(&typed_vpct()).unwrap();
        prop_assert_eq!(&clean.table.rows().collect::<Vec<_>>(), &want[2]);
    }
}
