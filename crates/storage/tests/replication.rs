//! Replication chaos: seeded writers, misbehaving transports, compaction
//! races — every run reproducible from the printed seed.

use pa_storage::{
    Catalog, Change, ChaosTransport, CheckpointPolicy, DirectTransport, MemCheckpointStore,
    ReplicaApplier, ReplicationStream, Rows, Table, Value,
};

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

fn build_catalog() -> Catalog {
    let catalog = Catalog::new();
    let schema = pa_storage::Schema::from_pairs(&[
        ("d", pa_storage::DataType::Int),
        ("state", pa_storage::DataType::Str),
        ("amt", pa_storage::DataType::Float),
    ])
    .unwrap()
    .into_shared();
    catalog.create_table("f", Table::empty(schema)).unwrap();
    catalog
}

/// One seeded writer mutation through the catalog's write path: mostly
/// appends, every fourth op a logged in-place update.
fn writer_op(catalog: &Catalog, state: &mut u64) {
    let rows = catalog.table("f").unwrap().read().num_rows();
    if lcg(state).is_multiple_of(4) && rows > 0 {
        let row = (lcg(state) as usize) % rows;
        let after = [Value::Float((lcg(state) % 9) as f64)];
        catalog.update_cells("f", row, &[2], &after).unwrap();
    } else {
        let row = [seeded_row(state)];
        catalog
            .write("f", Change::Append(Rows::Values(&row)))
            .unwrap();
    }
}

/// (column names, sorted rows): the byte-identity fingerprint.
fn fingerprint(catalog: &Catalog) -> (Vec<String>, Vec<Vec<Value>>) {
    let shared = catalog.table("f").unwrap();
    let t = shared.read();
    let names: Vec<String> = t.schema().fields().iter().map(|f| f.name.clone()).collect();
    let all: Vec<usize> = (0..t.num_columns()).collect();
    (names, t.sorted_by(&all).rows().collect())
}

#[test]
fn chaos_transport_converges_to_byte_identity_under_interleaved_writes() {
    for seed in [3u64, 17, 99, 2024] {
        let primary = build_catalog();
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut stream =
            ReplicationStream::new(Box::new(ChaosTransport::seeded(seed))).with_max_rounds(200);
        let mut state = seed;
        // Interleave: write bursts, partial syncs, more writes.
        for _ in 0..8 {
            for _ in 0..25 {
                writer_op(&primary, &mut state);
            }
            // A mid-burst sync may or may not catch up; that's fine.
            stream.sync(&primary, &replica, &mut applier).unwrap();
        }
        let report = stream.sync(&primary, &replica, &mut applier).unwrap();
        assert!(report.caught_up, "[seed {seed}] {report:?}");
        assert_eq!(
            fingerprint(&primary),
            fingerprint(&replica),
            "[seed {seed}]"
        );
        // The chaos actually engaged: the transport misbehaved and the
        // applier saw (and survived) real faults.
        let stats = applier.stats();
        assert!(
            stats.rejected_corrupt + stats.duplicates > 0,
            "[seed {seed}] vacuous chaos run: {stats:?}"
        );
        // Replica cache state matches a fresh catalog's: everything cold.
        assert!(replica.combo_cache().is_empty(), "[seed {seed}]");
    }
}

#[test]
fn bootstrap_from_image_converges_identically_to_full_history_ship() {
    let seed = 0xB0075u64;
    // Primary A: full history retained. Primary B: same writes, then
    // checkpointed so the prefix is compacted away.
    let full = build_catalog();
    let compacted = build_catalog();
    let mut s1 = seed;
    let mut s2 = seed;
    for _ in 0..150 {
        writer_op(&full, &mut s1);
        writer_op(&compacted, &mut s2);
    }
    compacted.set_checkpoint_store(
        Box::new(MemCheckpointStore::new()),
        CheckpointPolicy::disabled(),
    );
    compacted.checkpoint_now().unwrap();
    assert!(
        compacted.with_wal(|w| w.ship_since(1)).unwrap().is_none(),
        "compaction must drop the prefix"
    );

    let via_frames = Catalog::new();
    let mut a1 = ReplicaApplier::new();
    let mut st1 = ReplicationStream::new(Box::new(DirectTransport));
    let r1 = st1.sync(&full, &via_frames, &mut a1).unwrap();
    assert!(r1.caught_up && r1.bootstraps == 0, "{r1:?}");

    let via_image = Catalog::new();
    let mut a2 = ReplicaApplier::new();
    let mut st2 = ReplicationStream::new(Box::new(DirectTransport));
    let r2 = st2.sync(&compacted, &via_image, &mut a2).unwrap();
    assert!(r2.caught_up && r2.bootstraps == 1, "{r2:?}");

    assert_eq!(fingerprint(&via_frames), fingerprint(&via_image));
    assert_eq!(fingerprint(&full), fingerprint(&via_frames));
}

#[test]
fn bootstrap_then_suffix_under_chaos_still_converges() {
    let seed = 0x5EED_CAFEu64;
    let primary = build_catalog();
    let mut state = seed;
    for _ in 0..80 {
        writer_op(&primary, &mut state);
    }
    primary.set_checkpoint_store(
        Box::new(MemCheckpointStore::new()),
        CheckpointPolicy::disabled(),
    );
    primary.checkpoint_now().unwrap();
    // More writes after the checkpoint: catch-up needs image + LSN suffix.
    for _ in 0..40 {
        writer_op(&primary, &mut state);
    }
    let replica = Catalog::new();
    let mut applier = ReplicaApplier::new();
    let mut stream =
        ReplicationStream::new(Box::new(ChaosTransport::seeded(seed))).with_max_rounds(300);
    let report = stream.sync(&primary, &replica, &mut applier).unwrap();
    assert!(report.caught_up, "[seed {seed}] {report:?}");
    assert!(
        applier.stats().bootstraps >= 1,
        "[seed {seed}] the compacted prefix must force a bootstrap: {:?}",
        applier.stats()
    );
    assert_eq!(
        fingerprint(&primary),
        fingerprint(&replica),
        "[seed {seed}]"
    );
}

#[test]
fn replica_at_old_lsn_matches_primary_snapshot_pinned_there() {
    // Freeze a replica at LSN L (stop syncing), keep writing on the
    // primary, and check the replica equals the primary's *pinned*
    // snapshot from that moment — the staleness contract.
    let primary = build_catalog();
    let mut state = 7u64;
    for _ in 0..60 {
        writer_op(&primary, &mut state);
    }
    let replica = Catalog::new();
    let mut applier = ReplicaApplier::new();
    let mut stream = ReplicationStream::new(Box::new(DirectTransport));
    stream.sync(&primary, &replica, &mut applier).unwrap();

    let pinned = primary.pin_table("f").expect("pin");
    let frozen_fingerprint = {
        let t = pinned.table().read();
        let all: Vec<usize> = (0..t.num_columns()).collect();
        t.sorted_by(&all).rows().collect::<Vec<Vec<Value>>>()
    };
    // Primary advances; the replica does not.
    for _ in 0..50 {
        writer_op(&primary, &mut state);
    }
    let (_, replica_rows) = fingerprint(&replica);
    assert_eq!(replica_rows, frozen_fingerprint);
    // After catch-up the replica leaves the old LSN and matches the head.
    stream.sync(&primary, &replica, &mut applier).unwrap();
    assert_eq!(fingerprint(&primary), fingerprint(&replica));
}

#[test]
fn drop_and_recreate_table_replicates_through() {
    let primary = build_catalog();
    let mut state = 11u64;
    for _ in 0..10 {
        writer_op(&primary, &mut state);
    }
    primary.drop_table("f").unwrap();
    let schema = pa_storage::Schema::from_pairs(&[("x", pa_storage::DataType::Int)])
        .unwrap()
        .into_shared();
    let mut t = Table::empty(schema);
    t.push_row(&[Value::Int(42)]).unwrap();
    primary.create_table("g", t).unwrap();

    let replica = Catalog::new();
    let mut applier = ReplicaApplier::new();
    let mut stream = ReplicationStream::new(Box::new(DirectTransport));
    let report = stream.sync(&primary, &replica, &mut applier).unwrap();
    assert!(report.caught_up, "{report:?}");
    assert!(replica.table("f").is_err(), "dropped table must not exist");
    let g = replica.table("g").unwrap();
    assert_eq!(g.read().get(0, 0), Value::Int(42));
}
