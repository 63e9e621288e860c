//! ReplicaSet end-to-end: lag-aware routing, staleness fallback,
//! heartbeat failover, split-brain refusal, and the differential oracle
//! under seeded writer + transport + failover chaos.

use pa_core::CoreError;
use pa_obs::TestClock;
use pa_service::{NodeRole, ReplicaSet, ReplicaSetConfig, ServiceError, SessionOptions};
use pa_storage::{
    Catalog, Change, ChaosTransport, DirectTransport, Rows, ShipTransport, StorageError, Table,
    Value,
};
use std::sync::Arc;
use std::time::Duration;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn seeded_row(state: &mut u64) -> Vec<Value> {
    vec![
        Value::Int((lcg(state) % 7) as i64),
        Value::str(["CA", "TX", "WA", "OR"][(lcg(state) % 4) as usize]),
        Value::Float((lcg(state) % 1000) as f64 / 10.0),
    ]
}

fn build_catalog(rows: usize, seed: u64) -> Catalog {
    let catalog = Catalog::new();
    let schema = pa_storage::Schema::from_pairs(&[
        ("d", pa_storage::DataType::Int),
        ("state", pa_storage::DataType::Str),
        ("amt", pa_storage::DataType::Float),
    ])
    .unwrap()
    .into_shared();
    catalog.create_table("f", Table::empty(schema)).unwrap();
    let mut state = seed;
    for _ in 0..rows {
        let row = [seeded_row(&mut state)];
        catalog
            .write("f", Change::Append(Rows::Values(&row)))
            .unwrap();
    }
    catalog
}

fn fingerprint(catalog: &Catalog) -> Vec<Vec<Value>> {
    let shared = catalog.table("f").unwrap();
    let t = shared.read();
    let all: Vec<usize> = (0..t.num_columns()).collect();
    t.sorted_by(&all).rows().collect()
}

fn config() -> ReplicaSetConfig {
    ReplicaSetConfig {
        heartbeat_interval: Duration::from_millis(100),
        down_after_missed: 3,
        default_max_staleness: Duration::from_secs(1),
        ..ReplicaSetConfig::default()
    }
}

const QUERY: &str = "SELECT state, Vpct(amt) FROM f GROUP BY state ORDER BY state;";

#[test]
fn routed_reads_serve_from_replicas_and_fall_back_on_staleness() {
    let primary = build_catalog(40, 1);
    let r1 = Catalog::new();
    let r2 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1, &r2], vec![], config(), clock.clone());
    set.tick().unwrap();
    // Both replicas are caught up and fresh: a routed read must land on a
    // replica, and the answer must be byte-identical to the primary's.
    let routed = set
        .execute_sql_routed(QUERY, &SessionOptions::default())
        .unwrap();
    assert!(!routed.primary_fallback, "fresh replicas must serve reads");
    assert_ne!(routed.node, "node0");
    let direct = set.primary_service().execute_sql(QUERY).unwrap();
    assert_eq!(
        routed.response.table.rows().collect::<Vec<_>>(),
        direct.table.rows().collect::<Vec<_>>()
    );
    // Time passes with no catch-up tick: a session with a tight staleness
    // bound refuses the now-stale replicas and falls back to the primary.
    clock.advance(Duration::from_millis(50));
    let tight = SessionOptions::with_max_staleness(Duration::from_millis(10));
    let routed = set.execute_sql_routed(QUERY, &tight).unwrap();
    assert!(routed.primary_fallback);
    assert_eq!(routed.node, "node0");
    // A looser bound accepts the same staleness.
    let loose = SessionOptions::with_max_staleness(Duration::from_millis(500));
    let routed = set.execute_sql_routed(QUERY, &loose).unwrap();
    assert!(!routed.primary_fallback);
    // Routing decisions landed in the metrics.
    let rendered = set.render_metrics();
    assert!(rendered.contains("pa_repl_route_total"), "{rendered}");
    assert!(rendered.contains("pa_repl_lag_lsns"), "{rendered}");
    assert!(
        rendered.contains("pa_storage_checkpoint"),
        "storage counters must share the scrape endpoint: {rendered}"
    );
}

#[test]
fn writes_ship_to_replicas_on_tick() {
    let primary = build_catalog(10, 2);
    let r1 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1], vec![], config(), clock.clone());
    set.tick().unwrap();
    assert_eq!(fingerprint(&primary), fingerprint(&r1));
    set.append_rows(
        "f",
        &[vec![Value::Int(99), Value::str("ZZ"), Value::Float(1.5)]],
    )
    .unwrap();
    set.update_cells("f", 0, &[2], &[Value::Float(123.0)])
        .unwrap();
    assert_ne!(fingerprint(&primary), fingerprint(&r1), "not yet shipped");
    set.tick().unwrap();
    assert_eq!(fingerprint(&primary), fingerprint(&r1));
    let status = set.status();
    assert_eq!(status[0].role, NodeRole::Primary);
    assert_eq!(status[1].lag_lsns, 0);
}

/// A read statement is not replicated work: after any mix of read-only
/// statements — on the primary and routed to replicas — the primary's log
/// has nothing to ship past where it stood, and no node's log has grown.
#[test]
fn read_only_statements_leave_nothing_to_ship() {
    let primary = build_catalog(40, 3);
    let r1 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1], vec![], config(), clock.clone());
    set.tick().unwrap();
    let caught_up = primary.with_wal(|w| w.next_lsn());
    let replica_records = r1.wal_stats().records;

    let mix = [
        QUERY,
        "SELECT d, state, Vpct(amt BY state), Vpct(amt BY d, state) FROM f GROUP BY d, state;",
        "SELECT d, state, Vpct(amt BY state) FROM f GROUP BY ROLLUP (d, state);",
        "SELECT d, Hpct(amt BY state), sum(amt) FROM f WHERE amt > 10 GROUP BY d;",
        "SELECT d, median(amt BY state) FROM f GROUP BY d;",
    ];
    for sql in mix {
        set.primary_service().execute_sql(sql).unwrap();
        let routed = set
            .execute_sql_routed(sql, &SessionOptions::default())
            .unwrap();
        assert!(!routed.primary_fallback, "{sql}");
    }

    let pending = primary.with_wal(|w| w.ship_since(caught_up)).unwrap();
    assert_eq!(pending, Some(Vec::new()), "caught up, nothing to ship");
    assert_eq!(primary.with_wal(|w| w.next_lsn()), caught_up);
    assert_eq!(r1.wal_stats().records, replica_records);
    set.tick().unwrap();
    assert_eq!(set.status()[1].lag_lsns, 0);
}

#[test]
fn replica_engine_rejects_dml_with_typed_error() {
    let primary = build_catalog(5, 3);
    let r1 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1], vec![], config(), clock);
    set.tick().unwrap();
    let err = set
        .service("node1")
        .unwrap()
        .engine()
        .append_rows(
            "f",
            &[vec![Value::Int(1), Value::str("CA"), Value::Float(1.0)]],
        )
        .unwrap_err();
    assert!(
        matches!(err, CoreError::ReadOnlyReplica),
        "replica DML must fail typed, got {err}"
    );
    // Reads on the replica still work.
    let resp = set.service("node1").unwrap().execute_sql(QUERY).unwrap();
    assert!(resp.table.num_rows() > 0);
}

#[test]
fn failover_promotes_most_caught_up_replica_and_seals_the_deposed_primary() {
    let primary = build_catalog(30, 4);
    let r1 = Catalog::new();
    let r2 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1, &r2], vec![], config(), clock.clone());
    set.tick().unwrap();
    assert_eq!(set.primary_name(), "node0");
    let term_before = set.cluster_term();

    // The primary stops heartbeating; after 3 missed intervals a tick
    // observes it and promotes.
    set.set_down("node0", true);
    clock.advance(Duration::from_millis(400));
    set.tick().unwrap();
    assert_ne!(set.primary_name(), "node0", "failover must have happened");
    assert_eq!(set.cluster_term(), term_before + 1);
    let new_primary = set.primary_name().to_string();

    // Split-brain: the deposed primary believes it is still primary (its
    // process never died) — even with its read-only latch cleared, the
    // catalog seal refuses the write with the typed error.
    set.service("node0").unwrap().engine().set_read_only(false);
    let err = set
        .service("node0")
        .unwrap()
        .engine()
        .append_rows(
            "f",
            &[vec![Value::Int(0), Value::str("XX"), Value::Float(0.0)]],
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Storage(StorageError::Sealed { term }) if term == term_before + 1
        ),
        "deposed primary writes must hit the seal, got {err}"
    );
    set.service("node0").unwrap().engine().set_read_only(true);

    // The new primary accepts writes; survivors re-bootstrap and converge.
    set.append_rows(
        "f",
        &[vec![Value::Int(7), Value::str("NV"), Value::Float(3.5)]],
    )
    .unwrap();
    set.tick().unwrap();
    let new_primary_catalog = if new_primary == "node1" { &r1 } else { &r2 };
    let other = if new_primary == "node1" { &r2 } else { &r1 };
    assert_eq!(fingerprint(new_primary_catalog), fingerprint(other));
    // The old primary rejoins as a replica and converges too.
    set.set_down("node0", false);
    set.tick().unwrap();
    assert_eq!(fingerprint(new_primary_catalog), fingerprint(&primary));
    assert!(set.render_metrics().contains("pa_repl_failovers_total 1"));
}

#[test]
fn differential_oracle_under_writer_chaos_transport_faults_and_failover() {
    let seed = 0xD1FFu64;
    let primary = build_catalog(20, seed);
    let r1 = Catalog::new();
    let r2 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let transports: Vec<Box<dyn ShipTransport>> = vec![
        Box::new(DirectTransport), // primary's slot (unused until demoted)
        Box::new(ChaosTransport::seeded(seed)),
        Box::new(ChaosTransport::seeded(seed ^ 0xFF)),
    ];
    let mut cfg = config();
    cfg.sync_rounds = 300;
    let set = ReplicaSet::new(&[&primary, &r1, &r2], transports, cfg, clock.clone());

    let mut state = seed;
    let mut failed_over = false;
    for round in 0..10 {
        // Seeded writer burst against the current primary.
        for _ in 0..15 {
            if lcg(&mut state).is_multiple_of(4) {
                let shared = {
                    let name = set.primary_name().to_string();
                    let cat = match name.as_str() {
                        "node0" => &primary,
                        "node1" => &r1,
                        _ => &r2,
                    };
                    cat.table("f").unwrap()
                };
                let rows = shared.read().num_rows();
                if rows > 0 {
                    let row = (lcg(&mut state) as usize) % rows;
                    set.update_cells(
                        "f",
                        row,
                        &[2],
                        &[Value::Float((lcg(&mut state) % 9) as f64)],
                    )
                    .unwrap();
                }
            } else {
                let row = seeded_row(&mut state);
                set.append_rows("f", &[row]).unwrap();
            }
        }
        clock.advance(Duration::from_millis(50));
        set.tick().unwrap();
        // Mid-stream: kill the original primary once, at round 5.
        if round == 5 && !failed_over {
            set.set_down("node0", true);
            clock.advance(Duration::from_millis(400));
            set.tick().unwrap();
            assert_ne!(set.primary_name(), "node0");
            failed_over = true;
        }
    }
    assert!(failed_over);
    // Quiesce: no more writes; ticks until every healthy node converges.
    for _ in 0..20 {
        clock.advance(Duration::from_millis(10));
        set.tick().unwrap();
    }
    let primary_catalog = match set.primary_name() {
        "node1" => &r1,
        "node2" => &r2,
        _ => &primary,
    };
    let survivor = if set.primary_name() == "node1" {
        &r2
    } else {
        &r1
    };
    assert_eq!(
        fingerprint(primary_catalog),
        fingerprint(survivor),
        "[seed {seed}] replica diverged from primary after chaos + failover"
    );
    // The same aggregation answered on primary and replica services must
    // be byte-identical (the serving-layer view of the oracle).
    let on_primary = set.primary_service().execute_sql(QUERY).unwrap();
    let replica_name = if set.primary_name() == "node1" {
        "node2"
    } else {
        "node1"
    };
    let on_replica = set
        .service(replica_name)
        .unwrap()
        .execute_sql(QUERY)
        .unwrap();
    assert_eq!(
        on_primary.table.rows().collect::<Vec<_>>(),
        on_replica.table.rows().collect::<Vec<_>>(),
        "[seed {seed}]"
    );
    // The chaos transports really misbehaved and the cluster still
    // converged — the run must not be vacuously clean.
    let rendered = set.render_metrics();
    let rejected: u64 = rendered
        .lines()
        .find(|l| l.starts_with("pa_repl_rejected_frames_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let applied: u64 = rendered
        .lines()
        .find(|l| l.starts_with("pa_repl_applied_records_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(applied > 0, "[seed {seed}] {rendered}");
    assert!(
        rejected > 0,
        "[seed {seed}] chaos never engaged: {rendered}"
    );
}

#[test]
fn no_healthy_replica_keeps_the_sick_primary_serving() {
    let primary = build_catalog(5, 9);
    let r1 = Catalog::new();
    let clock = Arc::new(TestClock::new());
    let set = ReplicaSet::new(&[&primary, &r1], vec![], config(), clock.clone());
    set.tick().unwrap();
    // Everyone goes down: no promotion target. The set must not panic and
    // the primary keeps its role; routed reads fall back to it.
    set.set_down("node0", true);
    set.set_down("node1", true);
    clock.advance(Duration::from_millis(400));
    set.tick().unwrap();
    assert_eq!(set.primary_name(), "node0");
    let routed = set
        .execute_sql_routed(QUERY, &SessionOptions::default())
        .unwrap();
    assert!(routed.primary_fallback);
    // Primary writes still work (nothing sealed it).
    set.append_rows(
        "f",
        &[vec![Value::Int(1), Value::str("CA"), Value::Float(2.0)]],
    )
    .unwrap();
}

#[test]
fn overload_shedding_still_works_through_routing() {
    // The routed path reuses each node's QueryService admission control;
    // a zero-capacity service sheds instead of queueing forever.
    let primary = build_catalog(5, 10);
    let clock = Arc::new(TestClock::new());
    let mut cfg = config();
    cfg.service.max_concurrent = 1;
    cfg.service.queue_capacity = 0;
    cfg.service.queue_timeout = Duration::from_millis(1);
    let set = ReplicaSet::new(&[&primary], vec![], cfg, clock);
    set.tick().unwrap();
    // Single node set: every read routes to the primary (fallback).
    let routed = set
        .execute_sql_routed(QUERY, &SessionOptions::default())
        .unwrap();
    assert!(routed.primary_fallback);
    assert!(matches!(
        set.execute_sql_routed(
            "SELECT state, Vpct(amt) FROM missing GROUP BY state;",
            &SessionOptions::default()
        ),
        Err(ServiceError::Query(_))
    ));
}
